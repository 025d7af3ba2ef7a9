//! The Discourse analogue: a discussion platform's `User` / `Topic` models
//! over ActiveRecord, including the Figure 1 `available?` query and a raw
//! SQL `where` (Figure 3, with the bug fixed so the app itself is healthy).

use crate::app::App;
use comprdl::CompRdl;
use db_types::{ColumnType, DbRegistry};
use std::sync::Arc;

const SOURCE: &str = r#"
class User < ActiveRecord::Base
  # --- runtime fixtures simulating the ORM --------------------------------
  def self.seed(rows)
    @rows = rows
  end

  def self.rows()
    @rows || []
  end

  def self.exists?(cond = nil)
    if cond.nil?()
      rows().length() > 0
    else
      rows().any? { |r| cond.all? { |k, v| r[k] == v || r[k].nil?() } }
    end
  end

  def self.joins(assoc)
    self
  end

  def self.where(cond, arg = nil)
    self
  end

  def self.count(col = nil)
    rows().length()
  end

  def self.reserved?(name)
    name == 'admin' || name == 'system'
  end

  # --- methods selected for type checking ---------------------------------
  def self.available?(name, email)
    return false if reserved?(name)
    return true if !User.exists?({ username: name })
    return User.joins(:emails).exists?({ staged: true, username: name, emails: { email: email } })
  end

  def self.staged_account?(name)
    User.exists?({ staged: true, username: name })
  end

  def self.username_taken?(name)
    User.exists?({ username: name })
  end

  def self.total_users()
    User.where({ staged: false }).count()
  end
end

class Topic < ActiveRecord::Base
  def self.seed(rows)
    @rows = rows
  end

  def self.rows()
    @rows || []
  end

  def self.where(cond, arg = nil)
    self
  end

  def self.includes(assoc)
    self
  end

  def self.count(col = nil)
    rows().length()
  end

  def self.exists?(cond = nil)
    rows().length() > 0
  end

  # Raw-SQL query (Figure 3, corrected): topics restricted to allowed groups.
  def self.allowed_for_group(group_id)
    Topic.includes(:posts)
      .where('topics.id IN (SELECT topic_id FROM topic_allowed_groups WHERE group_id = ?)', group_id)
      .count()
  end

  def self.titled?(title)
    Topic.exists?({ title: title })
  end

  # Lint bait (LINT0105): concatenates a caller-supplied value into the raw
  # SQL condition instead of binding it as a `?` placeholder.  Unlabeled and
  # never called, so it changes no Table 2 column except the lint count.
  def self.titled_like(title)
    Topic.where('title = ' + title).count()
  end

  # Interprocedural lint bait (LINT0105 through a call): `find_titled`
  # forwards its parameter straight into the raw `where` condition, so its
  # effect summary routes taint from parameter 0 to a SQL sink.  Neither
  # method is flagged on its own — the callee sees only a lone variable at
  # the sink, the caller sees no sink at all — but with summaries installed
  # the concatenation in `search_titled` is flagged at the call site.
  def self.find_titled(cond)
    Topic.where(cond).count()
  end

  def self.search_titled(title)
    Topic.find_titled('title = ' + title)
  end
end
"#;

const TEST_SUITE: &str = r#"
User.seed([{ id: 1, username: 'alice', staged: false }, { id: 2, username: 'bot', staged: true }])
Topic.seed([{ id: 10, title: 'Welcome' }, { id: 11, title: 'Rules' }])
assert(!User.available?('admin', 'admin@example.com'))
assert(User.available?('newuser', 'new@example.com'))
assert(User.username_taken?('alice'))
assert(!User.staged_account?('alice'))
assert_equal(2, User.total_users())
assert_equal(2, Topic.allowed_for_group(3))
assert(Topic.titled?('Welcome'))
8.times { |i|
  assert(User.available?('visitor', 'v@example.com'))
  assert_equal(2, Topic.allowed_for_group(i))
}
"#;

fn schema() -> DbRegistry {
    let mut db = DbRegistry::new();
    db.add_table(
        "users",
        &[
            ("id", ColumnType::Integer),
            ("username", ColumnType::String),
            ("staged", ColumnType::Boolean),
        ],
    );
    db.add_table(
        "emails",
        &[
            ("id", ColumnType::Integer),
            ("email", ColumnType::String),
            ("user_id", ColumnType::Integer),
        ],
    );
    db.add_table("topics", &[("id", ColumnType::Integer), ("title", ColumnType::String)]);
    db.add_table(
        "posts",
        &[
            ("id", ColumnType::Integer),
            ("topic_id", ColumnType::Integer),
            ("raw", ColumnType::String),
        ],
    );
    db.add_table(
        "topic_allowed_groups",
        &[("group_id", ColumnType::Integer), ("topic_id", ColumnType::Integer)],
    );
    db.add_model("User", "users");
    db.add_model("Email", "emails");
    db.add_model("Topic", "topics");
    db.add_model("Post", "posts");
    db.add_association("User", "emails", "emails");
    db.add_association("Topic", "posts", "posts");
    db
}

fn annotate(env: &mut CompRdl) {
    // Extra annotations for fixture helpers used by the checked methods.
    env.type_sig_singleton("User", "reserved?", "(String) -> %bool", None);
    env.type_sig_singleton("User", "rows", "() -> Array<Hash<Symbol, Object>>", None);
    env.type_sig_singleton("Topic", "rows", "() -> Array<Hash<Symbol, Object>>", None);
    // Checked methods.
    env.type_sig_singleton("User", "available?", "(String, String) -> %bool", Some("app"));
    env.type_sig_singleton("User", "staged_account?", "(String) -> %bool", Some("app"));
    env.type_sig_singleton("User", "username_taken?", "(String) -> %bool", Some("app"));
    env.type_sig_singleton("User", "total_users", "() -> Integer", Some("app"));
    env.type_sig_singleton("Topic", "allowed_for_group", "(Integer) -> Integer", Some("app"));
    env.type_sig_singleton("Topic", "titled?", "(String) -> %bool", Some("app"));
}

/// Builds the Discourse app.
pub fn app() -> App {
    App {
        name: "Discourse",
        group: "Rails Applications",
        db: Some(Arc::new(schema())),
        annotate,
        source: SOURCE,
        test_suite: TEST_SUITE,
        extra_annotations: 3,
        expected_errors: 0,
    }
}
