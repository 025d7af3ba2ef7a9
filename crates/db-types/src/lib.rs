//! # db-types
//!
//! The database substrate for CompRDL-rs: an in-memory schema / association
//! registry (the stand-in for `RDL.db_schema`), the native type-level
//! helpers (`schema_type`, `db_schema`, `table_of`, `row_type`,
//! `joins_type`, `sql_typecheck`), and the comp-type annotation sets for the
//! two query DSLs the paper evaluates (ActiveRecord, 79 methods, and Sequel,
//! 36 methods; Table 1).
//!
//! ## Quick start
//!
//! ```
//! use db_types::{ColumnType, DbRegistry};
//! use std::sync::Arc;
//!
//! let mut db = DbRegistry::new();
//! db.add_table("users", &[("id", ColumnType::Integer), ("username", ColumnType::String)]);
//! db.add_model("User", "users");
//!
//! let mut env = comprdl::CompRdl::new();
//! comprdl::stdlib::register_all(&mut env);
//! db_types::register_all(&mut env, Arc::new(db));
//! assert_eq!(env.annotation_count("Table"), 79);
//! ```

#![warn(missing_docs)]

pub mod activerecord;
pub mod helpers;
pub mod schema;
pub mod sequel;

pub use schema::{pluralize, Association, ColumnType, DbRegistry};

use comprdl::CompRdl;
use std::sync::{Arc, OnceLock};

/// Registers the DB helpers and both query DSL annotation sets into `env`,
/// and declares each registered model as a model class.  The registry is
/// shared via [`Arc`] so the resulting environment is `Send + Sync`.
///
/// The model classes and the helpers, which capture `db`, are built per
/// call.  The ActiveRecord and Sequel annotation sets do not depend on the
/// schema: [`activerecord::register`] and [`sequel::register`] build them
/// once per process, on first use, and every call merges them into `env`
/// with [`CompRdl::merge_library`].
pub fn register_all(env: &mut CompRdl, db: Arc<DbRegistry>) {
    static DSLS: OnceLock<CompRdl> = OnceLock::new();
    for model in db.model_names() {
        env.add_model_class(&model, "ActiveRecord::Base");
    }
    helpers::register_helpers(env, db);
    env.merge_library(DSLS.get_or_init(|| {
        let mut dsls = CompRdl::new();
        activerecord::register(&mut dsls);
        sequel::register(&mut dsls);
        dsls
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use comprdl::{CheckOptions, TypeChecker};

    /// The Discourse-style schema from Figure 1.
    fn discourse_env() -> CompRdl {
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
        db.add_model("User", "users");
        db.add_model("Email", "emails");
        db.add_association("User", "emails", "emails");

        let mut env = CompRdl::new();
        comprdl::stdlib::register_all(&mut env);
        register_all(&mut env, Arc::new(db));
        env
    }

    #[test]
    fn figure1_available_type_checks() {
        let mut env = discourse_env();
        env.type_sig_singleton("User", "available?", "(String, String) -> %bool", Some("model"));
        env.type_sig_singleton("User", "reserved?", "(String) -> %bool", None);
        let src = r#"
class User < ActiveRecord::Base
  def self.available?(name, email)
    return false if reserved?(name)
    return true if !User.exists?({ username: name })
    return User.joins(:emails).exists?({ staged: true, username: name, emails: { email: email } })
  end
end
"#;
        let program = ruby_syntax::parse_program_strict(src).unwrap();
        let result =
            TypeChecker::new(&env, &program, CheckOptions::default()).check_labeled("model");
        assert_eq!(result.methods_checked(), 1);
        assert!(result.errors().is_empty(), "{:?}", result.errors());
        // Every DB query call gets a dynamic check.
        assert!(result.checks().len() >= 3, "{:?}", result.checks().len());
    }

    #[test]
    fn column_type_errors_are_detected() {
        let mut env = discourse_env();
        env.type_sig_singleton("User", "broken", "(String) -> %bool", Some("model"));
        // `username` is a String column; querying it with an Integer is a
        // type error, and `nickname` does not exist at all.
        let src = r#"
class User < ActiveRecord::Base
  def self.broken(name)
    User.exists?({ username: 42 }) || User.exists?({ nickname: name })
  end
end
"#;
        let program = ruby_syntax::parse_program_strict(src).unwrap();
        let result =
            TypeChecker::new(&env, &program, CheckOptions::default()).check_labeled("model");
        assert!(
            result.errors().len() >= 2,
            "expected two argument errors, got {:?}",
            result.errors()
        );
    }

    #[test]
    fn join_requires_declared_association() {
        let mut env = discourse_env();
        env.type_sig_singleton("User", "bad_join", "() -> %bool", Some("model"));
        let src = r#"
class User < ActiveRecord::Base
  def self.bad_join()
    User.joins(:apartments).exists?({ staged: true })
  end
end
"#;
        let program = ruby_syntax::parse_program_strict(src).unwrap();
        let result =
            TypeChecker::new(&env, &program, CheckOptions::default()).check_labeled("model");
        assert!(
            result.errors().iter().any(|e| e.message.contains("association")),
            "{:?}",
            result.errors()
        );
    }

    #[test]
    fn sql_fragment_bug_is_detected_via_where() {
        let mut db = DbRegistry::new();
        db.add_table("posts", &[("id", ColumnType::Integer), ("topic_id", ColumnType::Integer)]);
        db.add_table("topics", &[("id", ColumnType::Integer), ("title", ColumnType::String)]);
        db.add_table(
            "topic_allowed_groups",
            &[("group_id", ColumnType::Integer), ("topic_id", ColumnType::Integer)],
        );
        db.add_model("Post", "posts");
        db.add_model("Topic", "topics");
        db.add_association("Post", "topic", "topics");
        let mut env = CompRdl::new();
        comprdl::stdlib::register_all(&mut env);
        register_all(&mut env, Arc::new(db));
        env.type_sig_singleton("Post", "allowed", "(Integer) -> Object", Some("model"));

        let src = r#"
class Post < ActiveRecord::Base
  def self.allowed(group_id)
    Post.includes(:topic)
      .where('topics.title IN (SELECT topic_id FROM topic_allowed_groups WHERE group_id = ?)', group_id)
  end
end
"#;
        let program = ruby_syntax::parse_program_strict(src).unwrap();
        let result =
            TypeChecker::new(&env, &program, CheckOptions::default()).check_labeled("model");
        let sql_error = result
            .errors()
            .into_iter()
            .find(|e| e.category == comprdl::ErrorCategory::Sql)
            .unwrap_or_else(|| panic!("{:?}", result.errors()))
            .clone();
        // The span is mapped back through `complete_fragment` into the Ruby
        // string literal, so it points at the offending SQL in the source.
        let snippet = &src[sql_error.span.start..sql_error.span.end];
        assert!(
            snippet.starts_with("topics.title"),
            "span should point at the mistyped column inside the literal, got {snippet:?}"
        );
        // The corrected query type checks.
        let fixed = src.replace("topics.title IN", "topics.id IN");
        let program = ruby_syntax::parse_program_strict(&fixed).unwrap();
        let result =
            TypeChecker::new(&env, &program, CheckOptions::default()).check_labeled("model");
        assert!(result.errors().is_empty(), "{:?}", result.errors());
    }

    #[test]
    fn table1_counts_for_dsls() {
        let env = discourse_env();
        assert_eq!(env.annotation_count("Table"), 79);
        assert_eq!(env.annotation_count("Sequel::Dataset"), 36);
        assert!(env.comp_type_count("Table") >= 30);
    }
}
