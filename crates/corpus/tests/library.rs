//! The core-library and DB-DSL annotation sets are parsed once per process
//! and shared by every environment.  Sharing must be invisible: each corpus
//! app's `App::build_env` has to equal an environment that registers every
//! library directly into a fresh `CompRdl`, down to the Table 1 LoC and the
//! hashes the on-disk check cache keys on.

use comprdl::semdep::{env_hash, DepGraph};
use comprdl::{stdlib, CompRdl};
use corpus::App;
use rdl_types::{MethodKind, MethodSig};
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
        db_types::helpers::register_helpers(&mut env, Arc::new(db.clone()));
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
                !std::ptr::eq(sig, sig_ptr(&b, class, *kind, method)),
                "{}: {class} {method} is shared between two build_env calls",
                app.name
            );
        }
    }
}
