//! Ablation: native (Rust) vs interpreted (Ruby-subset) type-level helper
//! methods, plus the cost of a single comp-type evaluation of the Figure 1
//! `joins` computation.

use comprdl::{CompRdl, TlcValue};
use criterion::{criterion_group, criterion_main, Criterion};
use db_types::{ColumnType, DbRegistry};
use rdl_types::{ClassTable, Type, TypeStore};
use std::sync::Arc;

fn env_with_db() -> CompRdl {
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
    db.add_association("User", "emails", "emails");
    let mut env = CompRdl::new();
    comprdl::stdlib::register_all(&mut env);
    db_types::register_all(&mut env, Arc::new(db));
    env
}

fn eval_helper(
    env: &CompRdl,
    classes: &ClassTable,
    src: &str,
    bindings: Vec<(&str, Type)>,
) -> Type {
    let expr = ruby_syntax::parse_expr(src).expect("parses");
    let mut store = TypeStore::new();
    let bindings = bindings.into_iter().map(|(k, v)| (k.to_string(), TlcValue::Type(v))).collect();
    comprdl::eval_comp_type(&mut store, classes, &env.helpers, bindings, &expr).expect("evaluates")
}

fn ablation_helpers(c: &mut Criterion) {
    let env = env_with_db();
    let classes = env.classes.clone();

    let mut group = c.benchmark_group("helper_dispatch");
    group.sample_size(20);

    // Native helper: schema_type is implemented in Rust.
    group.bench_function("native_schema_type", |b| {
        b.iter(|| {
            std::hint::black_box(eval_helper(
                &env,
                &classes,
                "schema_type(tself)",
                vec![("tself", Type::class_of("User"))],
            ))
        })
    });

    // Interpreted helper: `idx` (Hash#[]'s logic) is written in the Ruby
    // subset and interpreted by the type-level evaluator.
    group.bench_function("interpreted_idx_helper", |b| {
        b.iter(|| {
            let mut store = TypeStore::new();
            let page = store.new_finite_hash(vec![
                (rdl_types::HashKey::Sym("info".into()), Type::array(Type::nominal("String"))),
                (rdl_types::HashKey::Sym("title".into()), Type::nominal("String")),
            ]);
            let expr = ruby_syntax::parse_expr("idx(tself, t)").expect("parses");
            let bindings = vec![
                ("tself".to_string(), TlcValue::Type(page)),
                ("t".to_string(), TlcValue::Type(Type::sym("info"))),
            ]
            .into_iter()
            .collect();
            std::hint::black_box(
                comprdl::eval_comp_type(&mut store, &classes, &env.helpers, bindings, &expr)
                    .expect("evaluates"),
            )
        })
    });

    // The full Figure 1 joins computation (native + merge).
    group.bench_function("figure1_joins_computation", |b| {
        b.iter(|| {
            std::hint::black_box(eval_helper(
                &env,
                &classes,
                "joins_type(tself, t)",
                vec![("tself", Type::class_of("User")), ("t", Type::sym("emails"))],
            ))
        })
    });

    group.finish();
}

criterion_group!(benches, ablation_helpers);
criterion_main!(benches);
