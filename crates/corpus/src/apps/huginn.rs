//! The Huginn analogue: agents that monitor events, backed by an
//! ActiveRecord `agents` table.

use crate::app::App;
use comprdl::CompRdl;
use db_types::{ColumnType, DbRegistry};
use std::sync::Arc;

const SOURCE: &str = r#"
class Agent < ActiveRecord::Base
  def self.seed(rows)
    @rows = rows
  end

  def self.rows()
    @rows || []
  end

  def self.where(cond, arg = nil)
    @filtered = rows().select { |r| cond.all? { |k, v| r[k] == v } }
    self
  end

  def self.pluck(col)
    (@filtered || rows()).map { |r| r[col] }
  end

  def self.count(col = nil)
    (@filtered || rows()).length()
  end

  def self.exists?(cond = nil)
    rows().any? { |r| cond.all? { |k, v| r[k] == v } }
  end

  # --- methods selected for type checking ---------------------------------
  def self.enabled_names()
    Agent.where({ disabled: false }).pluck(:name)
  end

  def self.disabled_count()
    Agent.where({ disabled: true }).count()
  end

  def self.scheduled?(schedule)
    Agent.exists?({ schedule: schedule, disabled: false })
  end

  # Lint bait (LINT0101): `label` is only assigned when the agent is
  # scheduled, but read on every path.  Unlabeled and never called, so it
  # changes no Table 2 column except the lint count.
  def self.describe_schedule(schedule)
    if Agent.scheduled?(schedule)
      label = 'scheduled'
    end
    label
  end
end
"#;

const TEST_SUITE: &str = r#"
Agent.seed([
  { id: 1, name: 'weather', schedule: 'hourly', disabled: false },
  { id: 2, name: 'rss', schedule: 'daily', disabled: false },
  { id: 3, name: 'old-agent', schedule: 'daily', disabled: true }
])
assert_equal(['weather', 'rss'], Agent.enabled_names())
assert_equal(1, Agent.disabled_count())
assert(Agent.scheduled?('hourly'))
assert(!Agent.scheduled?('weekly'))
6.times { |i|
  assert_equal(2, Agent.enabled_names().length())
}
"#;

fn schema() -> DbRegistry {
    let mut db = DbRegistry::new();
    db.add_table(
        "agents",
        &[
            ("id", ColumnType::Integer),
            ("name", ColumnType::String),
            ("schedule", ColumnType::String),
            ("disabled", ColumnType::Boolean),
        ],
    );
    db.add_model("Agent", "agents");
    db
}

fn annotate(env: &mut CompRdl) {
    env.type_sig_singleton("Agent", "rows", "() -> Array<Hash<Symbol, Object>>", None);
    env.type_sig_singleton("Agent", "enabled_names", "() -> Array<Object>", Some("app"));
    env.type_sig_singleton("Agent", "disabled_count", "() -> Integer", Some("app"));
    env.type_sig_singleton("Agent", "scheduled?", "(String) -> %bool", Some("app"));
}

/// Builds the Huginn app.
pub fn app() -> App {
    App {
        name: "Huginn",
        group: "Rails Applications",
        db: Some(Arc::new(schema())),
        annotate,
        source: SOURCE,
        test_suite: TEST_SUITE,
        extra_annotations: 1,
        expected_errors: 0,
    }
}
