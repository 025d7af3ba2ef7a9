//! Seeded property tests for the run-time dynamic-check memo: driving
//! [`comprdl::CompRdlHook`] over randomized workloads, the memoized hook
//! must be observationally identical to the pay-at-every-hit baseline —
//! byte-identical blame sets, identical verdict sequences — and a store
//! mutation (generation bump) between calls must invalidate the memo
//! rather than replay a stale verdict.

use comprdl::{
    value_fingerprint, CheckConfig, CompRdlHook, ConsistencyCheck, HelperRegistry, InsertedCheck,
};
use rdl_types::{ClassTable, HashKey, Type, TypeStore};
use ruby_interp::{DynamicCheckHook, Value};
use ruby_syntax::Span;
use std::sync::Arc;
use test_rng::Rng;

fn classes() -> ClassTable {
    let mut ct = ClassTable::with_builtins();
    ct.add_model_class("User", "ActiveRecord::Base");
    ct
}

/// A random value drawn from a small, nestable pool — enough variety that
/// some values inhabit each expected type and some do not.
fn random_value(rng: &mut Rng, depth: u32) -> Value {
    let max = if depth == 0 { 6 } else { 8 };
    match rng.below(max) {
        0 => Value::Nil,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::Int(rng.below(5) as i64),
        3 => Value::str(["a", "b", "row"][rng.below(3) as usize]),
        4 => Value::Sym(["id", "name"][rng.below(2) as usize].into()),
        5 => Value::Class("User".into()),
        6 => {
            let n = rng.below(3) as usize;
            Value::array((0..n).map(|_| random_value(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.below(3) as usize;
            Value::hash(
                (0..n)
                    .map(|i| {
                        (Value::Sym(["id", "name", "k"][i].into()), random_value(rng, depth - 1))
                    })
                    .collect(),
            )
        }
    }
}

/// The checks used by the randomized workloads: three return-checked sites
/// (one per expected type) and one consistency-checked site whose comp type
/// answers `Integer` only for class receivers.
fn workload_checks() -> (Vec<InsertedCheck>, HelperRegistry) {
    let mut helpers = HelperRegistry::new();
    helpers.register_native("recv_kind", |ctx, _args| {
        let is_class = matches!(
            ctx.bindings.get("tself"),
            Some(comprdl::TlcValue::Type(Type::Singleton(rdl_types::SingVal::Class(_))))
        );
        let t = if is_class { Type::nominal("Integer") } else { Type::nominal("String") };
        Ok(comprdl::TlcValue::Type(t))
    });
    let ret_site = |file: u32, n: usize| Span::in_file(file, n * 10, n * 10 + 5, n as u32 + 1);
    let checks = vec![
        InsertedCheck {
            site: ret_site(0, 1),
            description: "Array#map".to_string(),
            expected_return: Type::array(Type::nominal("Integer")),
            consistency: None,
        },
        InsertedCheck {
            site: ret_site(0, 2),
            description: "Hash#[]".to_string(),
            expected_return: Type::union([Type::nominal("String"), Type::nominal("Symbol")]),
            consistency: None,
        },
        InsertedCheck {
            site: ret_site(1, 1), // same offsets as site 1 but in file 1
            description: "String#size".to_string(),
            expected_return: Type::nominal("Integer"),
            consistency: None,
        },
        InsertedCheck {
            site: ret_site(0, 3),
            description: "Table#where".to_string(),
            expected_return: Type::Top,
            consistency: Some(ConsistencyCheck {
                ret_expr: Arc::new(ruby_syntax::parse_expr("recv_kind()").unwrap()),
                // The binder makes every call intern its argument's type —
                // the store-growth path the memo must keep bounded.
                binders: vec![Some("targ".to_string())],
                expected: Type::nominal("Integer"),
            }),
        },
    ];
    (checks, helpers)
}

fn hook_with(memoize: bool) -> (CompRdlHook, Vec<Span>) {
    let (checks, helpers) = workload_checks();
    let sites: Vec<Span> = checks.iter().map(|c| c.site).collect();
    let hook = CompRdlHook::new(
        checks,
        TypeStore::new(),
        classes(),
        helpers,
        CheckConfig { memoize, raise_blame: false },
    );
    (hook, sites)
}

#[test]
fn memoized_blame_sets_are_byte_identical_on_randomized_workloads() {
    for seed in [0xA11CE, 0xB0B, 0xC0FFEE] {
        let (memoized, sites) = hook_with(true);
        let (unmemoized, _) = hook_with(false);
        let mut rng = Rng::new(seed);
        for _ in 0..400 {
            let site = sites[rng.below(sites.len() as u64) as usize];
            let recv = random_value(&mut rng, 1);
            let args = vec![random_value(&mut rng, 1)];
            let ret = random_value(&mut rng, 2);
            let before_m = memoized.before_call(site, &recv, &args);
            let before_u = unmemoized.before_call(site, &recv, &args);
            assert_eq!(before_m, before_u, "seed {seed:#x}: before_call verdicts diverged");
            let after_m = memoized.after_call(site, &ret);
            let after_u = unmemoized.after_call(site, &ret);
            assert_eq!(after_m, after_u, "seed {seed:#x}: after_call verdicts diverged");
        }
        assert_eq!(
            &*memoized.blames(),
            &*unmemoized.blames(),
            "seed {seed:#x}: blame sequences must be byte-identical"
        );
        assert!(!memoized.blames().is_empty(), "seed {seed:#x}: workload produced no blames");
        let stats = memoized.memo_stats();
        assert!(
            stats.hits > stats.misses,
            "seed {seed:#x}: a 400-call workload over a small value pool must mostly hit: \
             {stats:?}"
        );
        assert_eq!(unmemoized.memo_stats(), comprdl::CacheStats::default());
    }
}

#[test]
fn memoized_store_interning_is_not_amplified_by_repeated_hits() {
    let (memoized, sites) = hook_with(true);
    let (unmemoized, _) = hook_with(false);
    let consistency_site = sites[3];
    let recv = Value::Class("User".into());
    let args = vec![Value::hash(vec![(Value::Sym("id".into()), Value::Int(1))])];
    for _ in 0..200 {
        memoized.before_call(consistency_site, &recv, &args).unwrap();
        unmemoized.before_call(consistency_site, &recv, &args).unwrap();
    }
    assert!(
        memoized.store_size() < unmemoized.store_size() / 10,
        "200 identical hits must not keep interning: memoized {} vs unmemoized {}",
        memoized.store_size(),
        unmemoized.store_size()
    );
}

/// Builds a hook whose consistency check consults mutable store state: the
/// comp type evaluates to `Integer@width` where `width` is the number of
/// entries in a pre-seeded schema hash, and type checking saw width 1.
fn schema_hook(memoize: bool) -> (CompRdlHook, Type) {
    let mut store = TypeStore::new();
    let schema = store.new_finite_hash(vec![(HashKey::Sym("id".into()), Type::nominal("Integer"))]);
    let schema_for_helper = schema.clone();
    let mut helpers = HelperRegistry::new();
    helpers.register_native("schema_width", move |ctx, _args| {
        let Type::FiniteHash(id) = &schema_for_helper else { unreachable!() };
        let width = ctx.store.finite_hash(*id).entries.len() as i64;
        Ok(comprdl::TlcValue::Type(Type::int(width)))
    });
    let check = InsertedCheck {
        site: Span::new(1, 2, 1),
        description: "Table#insert".to_string(),
        expected_return: Type::Top,
        consistency: Some(ConsistencyCheck {
            ret_expr: Arc::new(ruby_syntax::parse_expr("schema_width()").unwrap()),
            binders: vec![],
            expected: Type::int(1),
        }),
    };
    let hook = CompRdlHook::new(
        vec![check],
        store,
        classes(),
        helpers,
        CheckConfig { memoize, raise_blame: false },
    );
    (hook, schema)
}

#[test]
fn schema_mutation_between_calls_invalidates_the_runtime_memo() {
    let site = Span::new(1, 2, 1);
    let recv = Value::Class("User".into());
    let (memoized, schema_m) = schema_hook(true);
    let (unmemoized, schema_u) = schema_hook(false);

    let mut rng = Rng::new(0xD15EA5E);
    let mut widened = false;
    for round in 0..120 {
        memoized.before_call(site, &recv, &[]).unwrap();
        unmemoized.before_call(site, &recv, &[]).unwrap();
        assert_eq!(
            &*memoized.blames(),
            &*unmemoized.blames(),
            "round {round}: memoized run replayed a stale verdict across a schema change"
        );
        // At a random point, "run a migration": widen the schema hash in
        // both hooks' stores.  Every call after it must blame (width 2 is
        // not compatible with the statically-computed width 1).
        if !widened && rng.below(10) == 0 {
            for (hook, schema) in [(&memoized, &schema_m), (&unmemoized, &schema_u)] {
                hook.mutate_store(|s| {
                    let Type::FiniteHash(id) = schema else { unreachable!() };
                    s.weak_update_hash(*id, HashKey::Sym("name".into()), Type::nominal("String"));
                });
            }
            widened = true;
        }
    }
    assert!(widened, "the seeded schedule must include the migration");
    assert!(!memoized.blames().is_empty(), "post-migration calls must blame");
    let stats = memoized.memo_stats();
    assert_eq!(stats.invalidations, 1, "exactly one generation bump: {stats:?}");
    assert!(stats.hits > 0, "pre- and post-migration repeats must still hit: {stats:?}");
}

#[test]
fn mutation_during_evaluation_is_not_replayed_as_valid() {
    // Comp-type helpers hold `&mut TypeStore`, so an evaluation can mutate
    // the store *while computing its own verdict*.  This helper answers
    // Integer while the marker const string is unpromoted — and promotes it
    // as a side effect — then answers String forever after.  The first
    // verdict is therefore computed against a store state that no longer
    // exists when the call returns; replaying it would diverge from the
    // pay-at-every-hit baseline, which blames from the second call on.
    let build = |memoize: bool| {
        let mut store = TypeStore::new();
        let marker = store.new_const_string("users");
        let marker_for_helper = marker.clone();
        let mut helpers = HelperRegistry::new();
        helpers.register_native("flaky_schema", move |ctx, _args| {
            let Type::ConstString(id) = &marker_for_helper else { unreachable!() };
            let t = if ctx.store.const_string_value(*id).is_some() {
                ctx.store.promote_const_string(*id);
                Type::nominal("Integer")
            } else {
                Type::nominal("String")
            };
            Ok(comprdl::TlcValue::Type(t))
        });
        let check = InsertedCheck {
            site: Span::new(1, 2, 1),
            description: "Table#migrate".to_string(),
            expected_return: Type::Top,
            consistency: Some(ConsistencyCheck {
                ret_expr: Arc::new(ruby_syntax::parse_expr("flaky_schema()").unwrap()),
                binders: vec![],
                expected: Type::nominal("Integer"),
            }),
        };
        CompRdlHook::new(
            vec![check],
            store,
            classes(),
            helpers,
            CheckConfig { memoize, raise_blame: false },
        )
    };
    let site = Span::new(1, 2, 1);
    let recv = Value::Class("User".into());
    let memoized = build(true);
    let unmemoized = build(false);
    for round in 0..4 {
        memoized.before_call(site, &recv, &[]).unwrap();
        unmemoized.before_call(site, &recv, &[]).unwrap();
        assert_eq!(
            &*memoized.blames(),
            &*unmemoized.blames(),
            "round {round}: a verdict whose evaluation mutated the store was replayed"
        );
    }
    assert_eq!(memoized.blames().len(), 3, "calls 2..4 must blame");
    // A verdict whose evaluation mutated the store must not be *recorded*
    // at all (not merely recorded-as-stale): a pre-bump stale entry could
    // match a sibling hook's earlier-sampled epoch stamp and replay,
    // skipping the evaluation's side effect.  Call 1 therefore records
    // nothing (miss, no entry), call 2 misses cleanly (no stale entry to
    // evict) and records the settled verdict, calls 3..4 hit it.
    let stats = memoized.memo_stats();
    assert_eq!(
        (stats.misses, stats.hits, stats.invalidations),
        (2, 2, 0),
        "a mutating evaluation must leave no memo entry behind: {stats:?}"
    );
}

#[test]
fn value_fingerprints_agree_with_interpreter_values_across_files() {
    // The file id participates in check identity end to end: two hooks
    // keyed at colliding offsets in different files never cross-fire, and
    // fingerprints are independent of the site entirely.
    let (hook, sites) = hook_with(true);
    let in_file_0 = sites[0];
    let in_file_1 = sites[2];
    assert_eq!((in_file_0.start, in_file_0.end), (in_file_1.start, in_file_1.end));
    assert_ne!(in_file_0, in_file_1);
    // `[1]` is an Array<Integer> (passes site 0's check) but not an Integer
    // (fails site 2's) — same offsets, different files, different verdicts.
    let v = Value::array(vec![Value::Int(1)]);
    assert!(hook.after_call(in_file_0, &v).is_ok());
    assert!(hook.after_call(in_file_1, &v).is_ok(), "raise_blame off records instead");
    assert_eq!(hook.blames().len(), 1, "only the file-1 site blames: {:?}", hook.blames());
    assert!(hook.blames()[0].message.contains("String#size"));
    assert_eq!(value_fingerprint(&v), value_fingerprint(&Value::array(vec![Value::Int(1)])));
}

#[test]
fn replayed_blames_interleave_with_fresh_ones_in_execution_order() {
    // Satellite regression: with `raise_blame` off, memoized replays must
    // not just record the same blame *set* as the pay-at-every-hit baseline
    // — the *sequence* must be byte-identical, even when replayed blames
    // interleave with fresh evaluations and with passing calls.  (A memo
    // that recorded blames at insert time instead of delivery time, or that
    // batched replays, would pass a set comparison and fail this one.)
    let (memoized, sites) = hook_with(true);
    let (unmemoized, _) = hook_with(false);
    let int_site = sites[2]; // String#size: expects Integer
    let arr_site = sites[0]; // Array#map: expects Array<Integer>

    let bad_a = Value::str("a"); // fails both sites
    let bad_b = Value::str("b"); // fails both sites, different message
    let good_int = Value::Int(3);
    let good_arr = Value::array(vec![Value::Int(1)]);
    // fresh A, fresh B, replay A, pass, fresh (arr) A, replay B, replay
    // (arr) A, pass, replay A — a deliberate shuffle of fresh/replayed
    // failures across two sites.
    let schedule = [
        (int_site, &bad_a),
        (int_site, &bad_b),
        (int_site, &bad_a),
        (int_site, &good_int),
        (arr_site, &bad_a),
        (int_site, &bad_b),
        (arr_site, &bad_a),
        (arr_site, &good_arr),
        (int_site, &bad_a),
    ];
    for (site, value) in schedule {
        assert!(memoized.after_call(site, value).is_ok(), "raise_blame off");
        assert!(unmemoized.after_call(site, value).is_ok(), "raise_blame off");
    }
    let memoized_blames = memoized.take_blames();
    assert_eq!(
        memoized_blames,
        unmemoized.take_blames(),
        "memoized blame sequence must equal the baseline's execution order, not just its set"
    );
    assert_eq!(memoized_blames.len(), 7);
    // Spot-check the interleaving shape: messages alternate between the two
    // sites exactly as scheduled.
    let descs: Vec<&str> = memoized_blames
        .iter()
        .map(|b| if b.message.starts_with("String#size") { "int" } else { "arr" })
        .collect();
    assert_eq!(descs, ["int", "int", "int", "arr", "int", "arr", "int"]);
    assert!(memoized.memo_stats().hits >= 4, "{:?}", memoized.memo_stats());
}
