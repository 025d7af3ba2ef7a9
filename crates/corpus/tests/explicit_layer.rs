//! The explicit effect layer is read by reference from the annotation
//! table's effect join, the helper registry and the builtins.  It must
//! agree, name for name, with the layer the checker used to rebuild from
//! scratch for every environment: the pessimistic join of every annotation
//! by bare name, under the builtins' names no annotation claims, with every
//! registered helper trusted to terminate and be pure.  That reference is
//! written out below, and compared on every corpus app and on envs filled
//! in each way the table supports: merges, direct registration, overrides
//! that move a name's join either way, and a library merged twice.

use comprdl::{builtin_effects, explicit_effects, stdlib, CompRdl, EffectEnv, EffectSource};
use rdl_types::{EffectLookup, EffectTable, MethodKind, MethodSig, PurityEffect, TermEffect};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The explicit layer of `env`, built from scratch.
fn reference_layer(env: &CompRdl) -> EffectTable {
    let mut table = EffectTable::new();
    for ((_, _, name), sig) in env.annotations.iter() {
        table
            .entry(name.to_string())
            .and_modify(|(term, purity)| {
                *term = term.join(sig.term);
                *purity = purity.join(sig.purity);
            })
            .or_insert((sig.term, sig.purity));
    }
    for (&name, &effects) in builtin_effects() {
        table.entry(name.to_string()).or_insert(effects);
    }
    for name in env.helpers.names() {
        table.insert(name, (TermEffect::Terminates, PurityEffect::Pure));
    }
    table
}

/// Every annotation, builtin and helper name of `env`, plus one unknown
/// name, agrees between the layer and the reference: through the seed
/// lookup and through the checker's effect environment.
fn assert_layer_matches(label: &str, env: &CompRdl) {
    let reference = reference_layer(env);
    let layer = explicit_effects(env);
    let effects = EffectEnv::from_explicit(layer.clone());
    let names: BTreeSet<String> = env
        .annotations
        .iter()
        .map(|((_, _, name), _)| name.to_string())
        .chain(builtin_effects().keys().map(|name| name.to_string()))
        .chain(env.helpers.names())
        .chain(["no_such_method".to_string()])
        .collect();
    for name in &names {
        let want = reference.get(name).copied();
        assert_eq!(layer.effects(name), want, "{label}: `{name}`");
        let (term, purity, source) = match want {
            Some((term, purity)) => (term, purity, EffectSource::Explicit),
            None => (TermEffect::MayDiverge, PurityEffect::Impure, EffectSource::Unknown),
        };
        assert_eq!(
            (effects.termination(name), effects.purity(name), effects.source(name)),
            (term, purity, source),
            "{label}: `{name}`"
        );
    }
}

/// The core library's `Array#first`.
fn library_first(env: &CompRdl) -> MethodSig {
    env.annotations.get_exact("Array", MethodKind::Instance, "first").unwrap().clone()
}

#[test]
fn every_corpus_app_env_matches_the_reference_layer() {
    for app in corpus::apps::all() {
        assert_layer_matches(app.name, &app.build_env());
    }
}

#[test]
fn a_dense_env_matches_the_reference_layer() {
    let discourse = corpus::apps::discourse::app();
    let mut env = CompRdl::new();
    stdlib::register_all(&mut env);
    db_types::register_all(&mut env, discourse.db.clone().unwrap());
    for i in 0..300 {
        let model = if i % 2 == 0 { "User" } else { "Topic" };
        env.type_sig_singleton(model, &format!("m{i}"), "(String, Integer) -> %bool", Some("app"));
    }
    assert_layer_matches("dense", &env);
}

#[test]
fn overriding_a_library_signature_either_way_matches_the_reference_layer() {
    let app = corpus::apps::discourse::app();
    let original = library_first(&app.build_env());
    let first = |env: &CompRdl| explicit_effects(env).effects("first");
    let before = first(&app.build_env());

    let mut worse = app.build_env();
    let sig = original.clone().with_term(TermEffect::MayDiverge).with_purity(PurityEffect::Impure);
    worse.annotations.add_instance("Array", "first", sig);
    assert_layer_matches("Array#first overridden as :- and impure", &worse);
    assert_eq!(first(&worse), Some((TermEffect::MayDiverge, PurityEffect::Impure)));

    // Restoring the library's signature, by registration or by merging the
    // library again, re-joins `first` over the entries that remain.
    let mut restored = worse.clone();
    restored.annotations.add_instance("Array", "first", original);
    assert_layer_matches("Array#first restored by add", &restored);
    let mut remerged = worse.clone();
    stdlib::register_all(&mut remerged);
    assert_layer_matches("Array#first restored by merge", &remerged);
    assert_eq!((first(&restored), first(&remerged)), (before, before));
    assert_ne!(before, first(&worse));
}

#[test]
fn a_directly_filled_table_matches_the_reference_layer() {
    use PurityEffect::{Impure, Pure};
    use TermEffect::{BlockDep, MayDiverge, Terminates};
    let sig = |term, purity| {
        MethodSig::simple(vec![], rdl_types::TypeExpr::nominal("Integer"))
            .with_term(term)
            .with_purity(purity)
    };
    let mut env = CompRdl::new();
    env.register_helpers_ruby("def trusted(t)\n  t\nend\n");
    env.annotations.add_instance("A", "m", sig(Terminates, Impure));
    env.annotations.add_instance("B", "m", sig(BlockDep, Pure));
    env.annotations.add_singleton("B", "m", sig(MayDiverge, Pure));
    env.annotations.add_instance("X", "length", sig(MayDiverge, Impure));
    env.annotations.add_instance("X", "trusted", sig(MayDiverge, Impure));
    assert_layer_matches("direct", &env);
    // Replacing a key re-joins its name over what remains.
    env.annotations.add_singleton("B", "m", sig(Terminates, Pure));
    env.annotations.add_instance("A", "m", sig(Terminates, Pure));
    assert_layer_matches("direct, replaced", &env);
    assert_eq!(explicit_effects(&env).effects("m"), Some((BlockDep, Pure)));
}

#[test]
fn merging_a_library_twice_matches_the_reference_layer() {
    for app in corpus::apps::all() {
        let mut env = app.build_env();
        stdlib::register_all(&mut env);
        if let Some(db) = &app.db {
            db_types::register_all(&mut env, Arc::clone(db));
        }
        assert_layer_matches(app.name, &env);
    }
    let mut env = CompRdl::new();
    stdlib::register_all(&mut env);
    stdlib::register_all(&mut env);
    assert_layer_matches("core twice", &env);
}
