//! The Redmine analogue: a Rails project-management application (issues,
//! journals, projects) added as the corpus's seventh subject.
//!
//! Unlike the six paper apps — which are deliberately tiny — this subject is
//! **call-site dense**: its test suite drives the checked query methods in a
//! loop, so the same comp-typed call sites are hit hundreds of times per
//! run.  That is the workload the PR 2 static evaluation cache and the
//! runtime check memo exist for (ROADMAP "Workloads"), and it is what makes
//! the `table2_overhead` harness measure something real instead of noise.

use crate::app::App;
use comprdl::CompRdl;
use db_types::{ColumnType, DbRegistry};
use std::sync::Arc;

const SOURCE: &str = r#"
class Issue < ActiveRecord::Base
  # --- runtime fixtures simulating the ORM --------------------------------
  def self.seed(rows)
    @rows = rows
    @filtered = nil
  end

  def self.rows()
    @rows || []
  end

  def self.where(cond, arg = nil)
    @filtered = rows().select { |r| cond.all? { |k, v| r[k] == v || r[k].nil?() } }
    self
  end

  def self.joins(assoc)
    self
  end

  def self.pluck(col)
    (@filtered || rows()).map { |r| r[col] }
  end

  def self.count(col = nil)
    (@filtered || rows()).length()
  end

  def self.exists?(cond = nil)
    if cond.nil?()
      rows().length() > 0
    else
      rows().any? { |r| cond.all? { |k, v| r[k] == v || r[k].nil?() } }
    end
  end

  # --- methods selected for type checking ---------------------------------
  def self.open_subjects(project_id)
    Issue.where({ project_id: project_id, closed: false }).pluck(:subject)
  end

  def self.assigned?(user_id)
    Issue.exists?({ assigned_to_id: user_id, closed: false })
  end

  def self.open_count(project_id)
    Issue.where({ project_id: project_id, closed: false }).count()
  end

  def self.watched?(title)
    Issue.exists?({ subject: title })
  end

  def self.commented?(text)
    Issue.joins(:journals).exists?({ closed: false, journals: { notes: text } })
  end
end

class Project < ActiveRecord::Base
  def self.seed(rows)
    @rows = rows
  end

  def self.rows()
    @rows || []
  end

  def self.pluck(col)
    rows().map { |r| r[col] }
  end

  def self.exists?(cond = nil)
    rows().any? { |r| cond.all? { |k, v| r[k] == v || r[k].nil?() } }
  end

  # --- methods selected for type checking ---------------------------------
  def self.identifiers()
    Project.pluck(:identifier)
  end

  def self.active?(id)
    Project.exists?({ id: id, active: true })
  end
end
"#;

const TEST_SUITE: &str = r#"
Issue.seed([
  { id: 1, project_id: 1, subject: 'Crash on save', assigned_to_id: 2, closed: false },
  { id: 2, project_id: 1, subject: 'Slow query list', assigned_to_id: 2, closed: false },
  { id: 3, project_id: 1, subject: 'Old layout bug', assigned_to_id: 3, closed: true },
  { id: 4, project_id: 2, subject: 'Wiki typo', assigned_to_id: 3, closed: false }
])
Project.seed([
  { id: 1, identifier: 'core', active: true },
  { id: 2, identifier: 'wiki', active: false }
])
assert_equal(['Crash on save', 'Slow query list'], Issue.open_subjects(1))
assert_equal(['core', 'wiki'], Project.identifiers())
assert(Issue.assigned?(2))
assert(!Issue.assigned?(9))
assert(Issue.watched?('Wiki typo'))
assert(Project.active?(1))
assert(!Project.active?(2))
# The call-site-dense workload: the same checked query sites, hit over and
# over with a handful of distinct value shapes — a Rails test suite in
# miniature, and the access pattern the runtime check memo is built for.
40.times { |i|
  assert_equal(2, Issue.open_count(1))
  assert_equal(1, Issue.open_count(2))
  assert(Issue.assigned?(2))
  assert(!Issue.assigned?(99))
  assert(Issue.commented?('needs review'))
  assert(Issue.watched?('Crash on save'))
  assert(Project.active?(1))
  assert_equal(2, Issue.open_subjects(1).length())
}
"#;

fn schema() -> DbRegistry {
    let mut db = DbRegistry::new();
    db.add_table(
        "issues",
        &[
            ("id", ColumnType::Integer),
            ("project_id", ColumnType::Integer),
            ("subject", ColumnType::String),
            ("assigned_to_id", ColumnType::Integer),
            ("closed", ColumnType::Boolean),
        ],
    );
    db.add_table(
        "journals",
        &[
            ("id", ColumnType::Integer),
            ("issue_id", ColumnType::Integer),
            ("notes", ColumnType::String),
        ],
    );
    db.add_table(
        "projects",
        &[
            ("id", ColumnType::Integer),
            ("identifier", ColumnType::String),
            ("active", ColumnType::Boolean),
        ],
    );
    db.add_model("Issue", "issues");
    db.add_model("Journal", "journals");
    db.add_model("Project", "projects");
    db.add_association("Issue", "journals", "journals");
    db
}

fn annotate(env: &mut CompRdl) {
    // Extra annotations for fixture helpers used by the checked methods.
    env.type_sig_singleton("Issue", "rows", "() -> Array<Hash<Symbol, Object>>", None);
    env.type_sig_singleton("Project", "rows", "() -> Array<Hash<Symbol, Object>>", None);
    // Checked methods.
    env.type_sig_singleton("Issue", "open_subjects", "(Integer) -> Array<Object>", Some("app"));
    env.type_sig_singleton("Issue", "assigned?", "(Integer) -> %bool", Some("app"));
    env.type_sig_singleton("Issue", "open_count", "(Integer) -> Integer", Some("app"));
    env.type_sig_singleton("Issue", "watched?", "(String) -> %bool", Some("app"));
    env.type_sig_singleton("Issue", "commented?", "(String) -> %bool", Some("app"));
    env.type_sig_singleton("Project", "identifiers", "() -> Array<Object>", Some("app"));
    env.type_sig_singleton("Project", "active?", "(Integer) -> %bool", Some("app"));
}

/// Builds the Redmine app.
pub fn app() -> App {
    App {
        name: "Redmine",
        group: "Rails Applications",
        db: Some(Arc::new(schema())),
        annotate,
        source: SOURCE,
        test_suite: TEST_SUITE,
        extra_annotations: 2,
        expected_errors: 0,
    }
}
