//! The Code.org analogue: sections / students queried through the database,
//! including the confirmed documentation bug — `current_user` is documented
//! (and annotated) as returning a `User`, but actually returns an attribute
//! hash (paper §5.3).

use crate::app::App;
use comprdl::CompRdl;
use db_types::{ColumnType, DbRegistry};
use std::sync::Arc;

const SOURCE: &str = r#"
class Section < ActiveRecord::Base
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
  def self.section_names(teacher_id)
    Section.where({ teacher_id: teacher_id }).pluck(:name)
  end

  def self.student_capacity(teacher_id)
    Section.where({ teacher_id: teacher_id }).count() * 30
  end

  def self.login_type_known?(name)
    Section.exists?({ name: name, login_type: 'email' })
  end
end

class Dashboard < ActiveRecord::Base
  # The documentation (and hence the annotation) claims this returns a User
  # object; it actually returns an attribute hash.  CompRDL reports the
  # mismatch, which the Code.org developers confirmed as a doc bug.
  def self.current_user()
    { id: 1, name: 'admin', admin: true }
  end

  def self.admin_name()
    'admin'
  end
end
"#;

const TEST_SUITE: &str = r#"
Section.seed([
  { id: 1, name: 'CS Fundamentals', teacher_id: 7, login_type: 'email' },
  { id: 2, name: 'CS Discoveries', teacher_id: 7, login_type: 'picture' },
  { id: 3, name: 'CS Principles', teacher_id: 9, login_type: 'email' }
])
assert_equal(['CS Fundamentals', 'CS Discoveries'], Section.section_names(7))
assert_equal(60, Section.student_capacity(7))
assert(Section.login_type_known?('CS Fundamentals'))
assert(!Section.login_type_known?('CS Discoveries'))
assert_equal('admin', Dashboard.admin_name())
12.times { |i|
  assert_equal(1, Section.section_names(9).length())
  assert_equal(30, Section.student_capacity(9))
}
"#;

fn schema() -> DbRegistry {
    let mut db = DbRegistry::new();
    db.add_table(
        "sections",
        &[
            ("id", ColumnType::Integer),
            ("name", ColumnType::String),
            ("teacher_id", ColumnType::Integer),
            ("login_type", ColumnType::String),
        ],
    );
    db.add_table(
        "users",
        &[
            ("id", ColumnType::Integer),
            ("name", ColumnType::String),
            ("admin", ColumnType::Boolean),
        ],
    );
    db.add_model("Section", "sections");
    db.add_model("User", "users");
    db
}

fn annotate(env: &mut CompRdl) {
    env.type_sig_singleton("Section", "rows", "() -> Array<Hash<Symbol, Object>>", None);
    env.type_sig_singleton("Section", "section_names", "(Integer) -> Array<Object>", Some("app"));
    env.type_sig_singleton("Section", "student_capacity", "(Integer) -> Integer", Some("app"));
    env.type_sig_singleton("Section", "login_type_known?", "(String) -> %bool", Some("app"));
    // The buggy documentation-derived annotation (seeded error #1).
    env.type_sig_singleton("Dashboard", "current_user", "() -> User", Some("app"));
    env.type_sig_singleton("Dashboard", "admin_name", "() -> String", Some("app"));
}

/// Builds the Code.org app.
pub fn app() -> App {
    App {
        name: "Code.org",
        group: "Rails Applications",
        db: Some(Arc::new(schema())),
        annotate,
        source: SOURCE,
        test_suite: TEST_SUITE,
        extra_annotations: 1,
        expected_errors: 1,
    }
}
