//! The core-library and DB-DSL annotation sets are parsed once per process
//! and shared by every environment.  Sharing must be invisible: each corpus
//! app's `App::build_env` has to equal an environment that registers every
//! library directly into a fresh `CompRdl`, down to the Table 1 LoC and the
//! hashes the on-disk check cache keys on.

use comprdl::semdep::{env_hash, DepGraph};
use comprdl::{stdlib, CompRdl};
use corpus::App;
use rdl_types::{MethodKind, MethodSig};
use ruby_syntax::MethodId;
use ruby_syntax::{Expr, ExprKind, MethodDef, SemHasher};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The Table 1 classes: the five core classes, ActiveRecord's `Table` and
/// Sequel's `Sequel::Dataset`.
const TABLE1_CLASSES: [&str; 7] =
    ["Array", "Hash", "String", "Float", "Integer", "Table", "Sequel::Dataset"];

/// `app`'s environment with every library registered into it directly,
/// in the order `App::build_env` layers them.
fn reference_env(app: &App) -> CompRdl {
    let mut env = CompRdl::new();
    stdlib::register_native_helpers(&mut env);
    env.register_helpers_ruby(stdlib::RUBY_HELPERS);
    stdlib::array::register(&mut env);
    stdlib::hash::register(&mut env);
    stdlib::string::register(&mut env);
    stdlib::numeric::register(&mut env);
    if let Some(db) = &app.db {
        for model in db.model_names() {
            env.add_model_class(&model, "ActiveRecord::Base");
        }
        db_types::helpers::register_helpers(&mut env, Arc::clone(db));
        db_types::activerecord::register(&mut env);
        db_types::sequel::register(&mut env);
    }
    (app.annotate)(&mut env);
    env
}

fn sig_ptr(env: &CompRdl, class: &str, kind: MethodKind, method: &str) -> *const MethodSig {
    env.annotations
        .get_exact(class, kind, method)
        .unwrap_or_else(|| panic!("{class} {method} is not annotated"))
}

#[test]
fn every_app_env_equals_registering_each_library_directly() {
    for app in corpus::apps::all() {
        let shared = app.build_env();
        let direct = reference_env(&app);
        let name = app.name;
        assert_eq!(shared.classes, direct.classes, "{name}: classes");
        assert!(shared.annotations == direct.annotations, "{name}: annotations differ");
        assert_eq!(env_hash(&shared), env_hash(&direct), "{name}: env_hash");
        assert_eq!(shared.helpers.names(), direct.helpers.names(), "{name}: helper names");
        assert_eq!(shared.helpers.ruby_loc(), direct.helpers.ruby_loc(), "{name}: helper LoC");
        for class in TABLE1_CLASSES {
            assert_eq!(
                (shared.annotation_count(class), shared.annotation_loc(class)),
                (direct.annotation_count(class), direct.annotation_loc(class)),
                "{name}: Table 1 row for {class}"
            );
        }
        // Helper bodies feed the Merkle hashes through the dependency graph.
        let (program, _, _) = app.parse();
        assert_eq!(
            DepGraph::build(&shared, &program).method_merkles(),
            DepGraph::build(&direct, &program).method_merkles(),
            "{name}: method Merkle hashes"
        );
    }
}

#[test]
fn library_signatures_are_shared_and_app_signatures_are_not() {
    let apps = corpus::apps::all();
    let (first, last) = (apps[0].build_env(), apps[apps.len() - 1].build_env());
    assert!(std::ptr::eq(
        sig_ptr(&first, "Array", MethodKind::Instance, "map"),
        sig_ptr(&last, "Array", MethodKind::Instance, "map"),
    ));

    for app in &apps {
        let (a, b) = (app.build_env(), app.build_env());
        let own: Vec<_> =
            a.annotations.iter().filter(|(_, sig)| sig.typecheck_label.is_some()).collect();
        assert!(!own.is_empty(), "{}: no labeled app signatures", app.name);
        for ((class, kind, method), sig) in own {
            assert!(
                !std::ptr::eq(sig, sig_ptr(&b, class, kind, method)),
                "{}: {class} {method} is shared between two build_env calls",
                app.name
            );
        }
    }
}

/// One digest of every app method's Merkle hash, in `method_merkles` order.
fn merkle_pin(app: &App) -> (u64, usize) {
    let merkles = DepGraph::build(&app.build_env(), &app.parse().0).method_merkles();
    let mut h = SemHasher::new();
    for ((owner, name, singleton), merkle) in &merkles {
        h.write_str(owner);
        h.write_str(name);
        h.write_bool(*singleton);
        h.write_u64(*merkle);
    }
    (h.finish(), merkles.len())
}

/// Pins every corpus app's Merkle hashes and `env_hash`.  The on-disk
/// check cache replays a verdict only while the method's Merkle hash and
/// the environment's `env_hash` are unchanged, so a moved pin means a moved
/// on-disk cache key: every cache written before it misses.  Update a pin
/// only in a commit that moves it on purpose, and give the reason in that
/// commit.
#[test]
fn merkle_hashes_are_pinned_per_app() {
    let pins: [(&str, u64, usize, u64); 8] = [
        ("Wikipedia", 0x1461ef2e157461f7, 14, 0xd4ee17695d4d668b),
        ("Twitter", 0xf3a554203494ed3e, 6, 0x4efe8a4a1d5e98ac),
        ("Discourse", 0xce169cd1f7e17754, 22, 0x2ec1f34fafb7e258),
        ("Huginn", 0xd957b3958e054e98, 10, 0x260903592e824208),
        ("Code.org", 0xaaae0aa102727e9e, 11, 0xa7c6aba3015dd829),
        ("Journey", 0xf9dae93e5d9969b1, 13, 0x7ed21dff0df739b1),
        ("Redmine", 0xe5c706396ee72af8, 18, 0x2b82b994f9ea9a35),
        ("Sequel", 0x95c4c8de31ff86a8, 20, 0x82b98fe4a2e4a0e5),
    ];
    let apps = corpus::apps::all();
    assert_eq!(apps.len(), pins.len());
    for (app, (name, pin, methods, env_pin)) in apps.iter().zip(pins) {
        assert_eq!(app.name, name);
        let (got, count) = merkle_pin(app);
        assert_eq!((got, count), (pin, methods), "{name}: got {got:#018x} over {count} methods");
        let env = env_hash(&app.build_env());
        assert_eq!(env, env_pin, "{name}: got env_hash {env:#018x}");
    }
}

/// Whether `def`'s body may call `name`: a call, or a bare identifier
/// (a zero-argument self-call in Ruby).
fn may_call(def: &MethodDef, name: &str) -> bool {
    let mut found = false;
    let mut visit = |e: &Expr| {
        if let ExprKind::Call { name: n, .. } | ExprKind::Ident(n) = &e.kind {
            found |= n == name;
        }
    };
    for e in &def.body {
        e.walk(&mut visit);
    }
    for p in &def.params {
        if let Some(d) = &p.default {
            d.walk(&mut visit);
        }
    }
    found
}

/// An app that re-registers a library signature overrides the shared
/// entry, and the override's own digest is what the cache keys see.
/// Giving `Array#first` another return bound (same comp expression, same
/// helpers) moves `env_hash` and the Merkle hash of exactly the methods
/// whose call graph reaches a call named `first`.  Re-registering the
/// identical signature moves nothing.
#[test]
fn overriding_a_library_signature_moves_exactly_its_callers() {
    let mut reached = 0;
    for app in corpus::apps::all() {
        let env = app.build_env();
        let (program, _, _) = app.parse();
        let library = env.annotations.get_exact("Array", MethodKind::Instance, "first").unwrap();

        let mut same = app.build_env();
        same.annotations.add_instance("Array", "first", library.clone());
        // Another bound, the same comp expression: only the digest differs.
        let retyped = library.source.replace("/ a", "/ String");
        assert_ne!(retyped, library.source);
        let mut other = app.build_env();
        other.type_sig_with_effects("Array", "first", &retyped, library.term, library.purity);

        let graph = DepGraph::build(&env, &program);
        assert_eq!(env_hash(&same), env_hash(&env), "{}", app.name);
        assert_eq!(DepGraph::build(&same, &program).method_merkles(), graph.method_merkles());
        assert_ne!(env_hash(&other), env_hash(&env), "{}", app.name);

        // The methods that call `first`, then their transitive callers.
        let mut callers: BTreeSet<MethodId> = program
            .methods()
            .into_iter()
            .filter(|(_, def)| may_call(def, "first"))
            .map(|(owner, def)| (owner, def.name.clone(), def.singleton))
            .collect();
        let edges = graph.method_call_edges();
        loop {
            let before = callers.len();
            for (caller, callee) in &edges {
                if callers.contains(callee) {
                    callers.insert(caller.clone());
                }
            }
            if callers.len() == before {
                break;
            }
        }
        reached += callers.len();
        let moved = graph
            .method_merkles()
            .into_iter()
            .zip(DepGraph::build(&other, &program).method_merkles());
        for ((id, m1), (_, m2)) in moved {
            assert_eq!(m1 != m2, callers.contains(&id), "{}: {id:?}", app.name);
        }
    }
    assert!(reached > 0, "some corpus method must reach `first`");
}
