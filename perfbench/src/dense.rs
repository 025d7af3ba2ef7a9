//! The `dense_app` generator: a seeded Rails-style app with a few hundred
//! checked methods over a Discourse-style schema, each making several
//! ActiveRecord query calls — the call-site density of a real app, which the
//! eight corpus apps (a handful of queries each) lack.
//!
//! Half the methods query `User`, half `Topic`.  Every method makes one call
//! of each shape: a hash `exists?`, a chained `where(...).exists?`, a
//! `joins(...).exists?` across an association, and a raw-SQL `where`.
//! [`ILL_TYPED`] methods make one extra hash `exists?` whose value has the
//! wrong type for its column (an `Integer` for a `String` or the reverse), as
//! in the `wrong_column_value_types_are_rejected` test, so the checker must
//! report exactly one error for each: that count is the known answer.

use comprdl::CompRdl;
use db_types::{ColumnType, DbRegistry};
use std::sync::Arc;

/// Generated methods per app.
pub const METHODS: usize = 300;
/// Methods carrying one ill-typed call; a multiple of 4 (two models, two
/// ill-typed variants each).
pub const ILL_TYPED: usize = 20;

pub struct DenseApp {
    pub source: String,
    /// `(model, method)` of every generated method, in source order.
    pub methods: Vec<(&'static str, String)>,
    pub ill_typed: usize,
    db: Arc<DbRegistry>,
}

impl DenseApp {
    /// The app's environment: core library and DB DSL annotations over the
    /// schema, plus one labeled signature per generated method.
    pub fn build_env(&self) -> CompRdl {
        let mut env = CompRdl::new();
        comprdl::stdlib::register_all(&mut env);
        db_types::register_all(&mut env, self.db.clone());
        for (model, name) in &self.methods {
            env.type_sig_singleton(model, name, "(String, Integer) -> %bool", Some("app"));
        }
        env
    }
}

fn schema() -> DbRegistry {
    let mut db = DbRegistry::new();
    db.add_table(
        "users",
        &[
            ("id", ColumnType::Integer),
            ("username", ColumnType::String),
            ("staged", ColumnType::Boolean),
            ("trust_level", ColumnType::Integer),
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
    db.add_table(
        "topics",
        &[
            ("id", ColumnType::Integer),
            ("title", ColumnType::String),
            ("closed", ColumnType::Boolean),
            ("views", ColumnType::Integer),
        ],
    );
    db.add_table(
        "posts",
        &[
            ("id", ColumnType::Integer),
            ("topic_id", ColumnType::Integer),
            ("raw", ColumnType::String),
        ],
    );
    db.add_model("User", "users");
    db.add_model("Email", "emails");
    db.add_model("Topic", "topics");
    db.add_model("Post", "posts");
    db.add_association("User", "emails", "emails");
    db.add_association("Topic", "posts", "posts");
    db
}

/// The query shapes of one model; `{s}` / `{n}` stand for the method's
/// `String` / `Integer` parameter.
struct Model {
    name: &'static str,
    hash: [&'static str; 3],
    chained: [&'static str; 2],
    joins: [&'static str; 2],
    raw_sql: &'static str,
    /// A hash `exists?` whose value has the wrong type for its column.
    ill_typed: [&'static str; 2],
}

const MODELS: [Model; 2] = [
    Model {
        name: "User",
        hash: ["{ username: s }", "{ trust_level: n }", "{ staged: true, username: s }"],
        chained: ["where({ staged: false }).exists?({ username: s })", "where({ trust_level: n }).exists?({ staged: true })"],
        joins: [
            "joins(:emails).exists?({ username: s, emails: { email: s } })",
            "joins(:emails).exists?({ staged: false, emails: { user_id: n } })",
        ],
        raw_sql: "where('username = ? AND id IN (SELECT user_id FROM emails WHERE email = ?)', s, s).exists?()",
        ill_typed: ["{ username: n }", "{ trust_level: s }"],
    },
    Model {
        name: "Topic",
        hash: ["{ title: s }", "{ views: n }", "{ closed: false, title: s }"],
        chained: ["where({ closed: true }).exists?({ title: s })", "where({ views: n }).exists?({ closed: false })"],
        joins: [
            "joins(:posts).exists?({ title: s, posts: { raw: s } })",
            "joins(:posts).exists?({ closed: true, posts: { topic_id: n } })",
        ],
        raw_sql: "where('title = ? AND id IN (SELECT topic_id FROM posts WHERE raw = ?)', s, s).exists?()",
        ill_typed: ["{ title: n }", "{ views: s }"],
    },
];

/// `0, 1, .., n-1, 0, 1, ..` (`len` values), in seeded order: every variant
/// is used equally often whatever the seed.
fn balanced(rng: &mut test_rng::Rng, len: usize, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..len).map(|i| i % n).collect();
    for i in (1..len).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// Generates the app for `seed`.  The seed shuffles which method gets which
/// query variant and which methods get the extra ill-typed call; the mix of
/// variants is the same for every seed, so the work per pass is too.
pub fn generate(seed: u64) -> DenseApp {
    let mut rng = crate::rng(seed, 0xde45e);
    let per_model = METHODS / MODELS.len();
    let mut source = String::new();
    let mut methods = Vec::with_capacity(METHODS);
    for (m, model) in MODELS.iter().enumerate() {
        let hash = balanced(&mut rng, per_model, model.hash.len());
        let chained = balanced(&mut rng, per_model, model.chained.len());
        let joins = balanced(&mut rng, per_model, model.joins.len());
        // Values 0 and 1 pick an ill-typed variant for an extra call; with
        // this many values each occurs `ILL_TYPED / 4` times per model.
        let bad = balanced(&mut rng, per_model, 2 * per_model / (ILL_TYPED / MODELS.len()));
        let name = model.name;
        source.push_str(&format!("class {name} < ActiveRecord::Base\n"));
        for i in 0..per_model {
            let method = format!("q{}", m * per_model + i);
            let (ill_call, ill_use) = match model.ill_typed.get(bad[i]) {
                Some(ill) => (format!("    e = {name}.exists?({ill})\n"), " || e"),
                None => (String::new(), ""),
            };
            source.push_str(&format!(
                "  def self.{method}(s, n)\n    \
                 a = {name}.exists?({})\n    \
                 b = {name}.{}\n    \
                 c = {name}.{}\n    \
                 d = {name}.{}\n\
                 {ill_call}    \
                 a || b || c || d{ill_use}\n  end\n\n",
                model.hash[hash[i]],
                model.chained[chained[i]],
                model.joins[joins[i]],
                model.raw_sql,
            ));
            methods.push((name, method));
        }
        source.push_str("end\n\n");
    }
    DenseApp { source, methods, ill_typed: ILL_TYPED, db: Arc::new(schema()) }
}
