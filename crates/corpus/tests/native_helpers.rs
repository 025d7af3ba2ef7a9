//! Pins what every native type-level helper computes to
//! `NATIVE_HELPER_REVISION`.
//!
//! A native helper has no AST, so its dependency-graph hash is its name
//! plus that revision (and, for a DB helper, a digest of its schema): a
//! cached verdict that reached a native helper replays as long as the
//! revision stands.  This test evaluates every native helper over a fixed
//! input table and digests the rendered outputs, so a change to what any of
//! them computes fails here until the revision is bumped.  Bump it and
//! re-pin the pair together, copying the digest from the failure message.

use comprdl::semdep::NATIVE_HELPER_REVISION;
use comprdl::{eval_comp_type, CompRdl, TlcValue};
use db_types::{ColumnType, DbRegistry};
use rdl_types::{SingVal, Type, TypeStore};
use ruby_syntax::SemHasher;
use std::collections::HashMap;
use std::sync::Arc;

/// `(NATIVE_HELPER_REVISION, digest of the rendered table)`.
const PIN: (u32, u64) = (3, 0xae96cd8730b44fca);

/// Every native helper with the comp expressions it is evaluated over,
/// under the bindings of [`bindings`] (`f` is the Float operand).
const TABLE: &[(&str, &[&str])] = &[
    (
        "fold",
        &[
            "fold(Singleton.new(7), Singleton.new(2), :/)",
            "fold(Singleton.new(-7), Singleton.new(2), :%)",
            "fold(Singleton.new(7), Singleton.new(-2), :/)",
            "fold(f, Singleton.new(2), :*)",
            "fold(Singleton.new(-7), f, :%)",
            "fold(Singleton.new(2), Singleton.new(-1), :**)",
            "fold(Singleton.new(7), Singleton.new(0), :/)",
            "fold(Singleton.new(9223372036854775807), Singleton.new(1), :+)",
            "fold(Nominal.new(Integer), Singleton.new(1), :+)",
            "fold(Nominal.new(Float), Singleton.new(1), :-)",
            "fold(Singleton.new(0), Singleton.new(5), :-)",
        ],
    ),
    (
        "fold_cmp",
        &[
            "fold_cmp(Singleton.new(1), Singleton.new(2), :<)",
            "fold_cmp(Singleton.new(2), f, :<)",
            "fold_cmp(f, f, :==)",
            "fold_cmp(Singleton.new(3), Singleton.new(2), :>=)",
            "fold_cmp(Nominal.new(Integer), Singleton.new(1), :>)",
        ],
    ),
    (
        "str_op",
        &["str_op(s, :upcase)", "str_op(s, :strip)", "str_op(s, :capitalize)", "str_op(s, :dup)"],
    ),
    ("str_concat", &["str_concat(s, t)", "str_concat(s, Nominal.new(String))"]),
    ("str_len", &["str_len(s)", "str_len(Nominal.new(String))"]),
    ("schema_type", &["schema_type(user)", "schema_type(Singleton.new(:posts))"]),
    ("db_schema", &["db_schema(:users)", "db_schema(:missing)"]),
    ("table_of", &["table_of(user)"]),
    ("row_type", &["row_type(user)", "row_type(Nominal.new(Integer))"]),
    (
        "joins_type",
        &["joins_type(user, Singleton.new(:posts))", "joins_type(user, Singleton.new(:tags))"],
    ),
    ("sql_typecheck", &["sql_typecheck(user, sql_ok)", "sql_typecheck(user, sql_bad)"]),
];

/// The core library plus the DB DSLs over a two-table schema.
fn env() -> CompRdl {
    let mut db = DbRegistry::new();
    db.add_table("users", &[("id", ColumnType::Integer), ("username", ColumnType::String)]);
    db.add_table(
        "posts",
        &[
            ("id", ColumnType::Integer),
            ("user_id", ColumnType::Integer),
            ("body", ColumnType::String),
        ],
    );
    db.add_model("User", "users");
    db.add_model("Post", "posts");
    db.add_association("User", "posts", "posts");
    let mut env = CompRdl::new();
    comprdl::stdlib::register_all(&mut env);
    db_types::register_all(&mut env, Arc::new(db));
    env
}

fn bindings(store: &mut TypeStore) -> HashMap<String, TlcValue> {
    [
        ("f", Type::Singleton(SingVal::float(2.5))),
        ("s", store.new_const_string(" hi there\n")),
        ("t", store.new_const_string("abc")),
        ("user", Type::class_of("User")),
        ("sql_ok", store.new_const_string("username = ?")),
        ("sql_bad", store.new_const_string("nickname = 1")),
    ]
    .into_iter()
    .map(|(name, t)| (name.to_string(), TlcValue::Type(t)))
    .collect()
}

#[test]
fn native_helper_outputs_are_pinned_to_the_revision() {
    let env = env();
    let tabled: Vec<&str> = TABLE.iter().map(|(helper, _)| *helper).collect();
    let mut sorted = tabled.clone();
    sorted.sort_unstable();
    assert_eq!(env.helpers.native_names(), sorted, "every native helper needs table rows");

    let mut rendered = String::new();
    for (helper, calls) in TABLE {
        for call in *calls {
            assert!(call.starts_with(&format!("{helper}(")), "{call} must call {helper}");
            let mut store = TypeStore::new();
            let bindings = bindings(&mut store);
            let expr = ruby_syntax::parse_expr(call).expect("parse");
            let out = match eval_comp_type(&mut store, &env.classes, &env.helpers, bindings, &expr)
            {
                // A singleton also shows its class: `5` renders alike as an
                // Integer and as a Float.
                Ok(Type::Singleton(v)) => {
                    format!("{} ({})", store.render(&Type::Singleton(v.clone())), v.class_of())
                }
                Ok(t) => store.render(&t),
                Err(e) => format!("error: {}", e.message),
            };
            rendered.push_str(&format!("{call} => {out}\n"));
        }
    }
    let mut h = SemHasher::new();
    h.write_str(&rendered);
    let got = (NATIVE_HELPER_REVISION, h.finish());
    assert_eq!(got, PIN, "got ({}, {:#018x}) over\n{rendered}", got.0, got.1);
}
