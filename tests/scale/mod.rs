//! The generated workloads shared by the root test binaries.
//! `scale_workload` is a synthetic Rails-style app whose call sites
//! evaluate the same DB comp types over and over; `call_workload` is a
//! program whose methods call each other.  `cache_parallel.rs` checks the
//! eval cache and the threaded checker against the first, and
//! `dense_allocations.rs` bounds the allocations of one static pass over
//! each.

use std::sync::Arc;

/// A Discourse-schema workload with `methods` checked methods, each making
/// four DB query calls whose comp types evaluate over a small set of
/// distinct query shapes.  The corpus apps have a handful of call sites
/// each; this models the density of a real Rails app, where the same
/// `where` / `exists?` comp types are evaluated at hundreds of call sites,
/// which is what the evaluation cache and per-method threading are for.
/// Returns the environment and the program source, unparsed, so a caller
/// can count or time the parse.
pub fn scale_workload(methods: usize) -> (comprdl::CompRdl, String) {
    use db_types::{ColumnType, DbRegistry};

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

    let mut env = comprdl::CompRdl::new();
    comprdl::stdlib::register_all(&mut env);
    db_types::register_all(&mut env, Arc::new(db));

    let mut src = String::from("class User < ActiveRecord::Base\n");
    for i in 0..methods {
        env.type_sig_singleton("User", &format!("m{i}"), "(String) -> %bool", Some("app"));
        // Four query call sites per method, including a raw-SQL `where`
        // whose comp type runs the embedded SQL type checker, the most
        // expensive evaluation the cache saves.
        src.push_str(&format!(
            "  def self.m{i}(name)\n    \
             a = User.exists?({{ username: name }})\n    \
             b = User.where({{ staged: true }}).exists?({{ username: name }})\n    \
             c = User.joins(:emails).exists?({{ username: name, emails: {{ email: name }} }})\n    \
             d = User.where('username = ? AND id IN (SELECT user_id FROM emails WHERE email = ?)', name, name).exists?()\n    \
             a || b || c || d\n  end\n"
        ));
    }
    src.push_str("end\n");
    (env, src)
}

/// A call-structured workload: one class, `Shop`, with `methods` labeled
/// singleton methods `m{i}(x)`, typed `(Integer) -> Integer`, each calling
/// three of `methods` unannotated singleton helpers `h{j}(x)`.  A call to a
/// method without an annotation makes the checker look its target up in
/// the program, so this is the shape on which that lookup's cost shows.
/// Returns the environment and the program source, unparsed.
#[allow(dead_code)] // `cache_parallel.rs` includes this module too
pub fn call_workload(methods: usize) -> (comprdl::CompRdl, String) {
    let mut env = comprdl::CompRdl::new();
    comprdl::stdlib::register_all(&mut env);
    env.add_class("Shop", "Object");

    let mut src = String::from("class Shop\n");
    for i in 0..methods {
        env.type_sig_singleton("Shop", &format!("m{i}"), "(Integer) -> Integer", Some("app"));
        let [a, b, c] = [i, (7 * i + 1) % methods, (13 * i + 2) % methods];
        src.push_str(&format!(
            "  def self.m{i}(x)\n    y = h{a}(x)\n    h{b}(y)\n    h{c}(x)\n    x + {i}\n  end\n"
        ));
    }
    for j in 0..methods {
        src.push_str(&format!("  def self.h{j}(x)\n    x + {j}\n  end\n"));
    }
    src.push_str("end\n");
    (env, src)
}
