//! Seeded property tests for the **shared** run-time check memo
//! ([`comprdl::SharedMemo`]): K threads — each with its own hook and its
//! own [`TypeStore`], all recording into one memo under one namespace —
//! replay a deterministic schedule of checked calls with interleaved
//! `mutate_store` migrations.  Every thread must produce the exact blame
//! sequence (and blame-`Diagnostic` set) of a sequential run: a single
//! stale replayed verdict anywhere would make some thread diverge.
//!
//! Sharing one namespace is sound because every hook of that namespace is a
//! deterministic replay of the same schedule: equal store generations imply
//! equal store states, and the **namespace's epoch** forces re-validation
//! whenever any hook of that namespace's store mutates in between.  The
//! flip side — one namespace's migrations must *not* flush another's warm
//! entries, since namespaces never share keys — is property-tested here
//! too, as are the lock-free read path's failure modes: evictions under
//! capacity pressure and torn reads under concurrent slot rewrites, neither
//! of which may ever change a verdict.

use comprdl::{
    memo_namespace, BlameDiagnostic, CheckConfig, CompRdlHook, ConsistencyCheck, HelperRegistry,
    InsertedCheck, SharedMemo,
};
use diagnostics::Diagnostic;
use rdl_types::{ClassTable, Type, TypeStore};
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

/// The named type-level slot the schedule's migrations flip.
const MODE_SLOT: &str = "schema.mode";

/// Two return-checked sites plus one consistency-checked site whose comp
/// type reads the [`MODE_SLOT`] named slot — so a migration deterministically
/// changes its verdict (type checking saw the pre-migration `Integer`).
fn workload() -> (Vec<InsertedCheck>, HelperRegistry) {
    let mut helpers = HelperRegistry::new();
    helpers.register_native("mode_type", |ctx, _args| {
        let ty = ctx.store.named(MODE_SLOT).cloned().unwrap_or_else(|| Type::nominal("Integer"));
        Ok(comprdl::TlcValue::Type(ty))
    });
    let site = |n: usize| Span::new(n * 10, n * 10 + 5, n as u32 + 1);
    let checks = vec![
        InsertedCheck {
            site: site(1),
            description: "Array#map".to_string(),
            expected_return: Type::array(Type::nominal("Integer")),
            consistency: None,
        },
        InsertedCheck {
            site: site(2),
            description: "Hash#[]".to_string(),
            expected_return: Type::union([Type::nominal("String"), Type::nominal("Symbol")]),
            consistency: None,
        },
        InsertedCheck {
            site: site(3),
            description: "Table#where".to_string(),
            expected_return: Type::Top,
            consistency: Some(ConsistencyCheck {
                ret_expr: ruby_syntax::parse_expr("mode_type()").unwrap(),
                binders: vec![Some("targ".to_string())],
                expected: Type::nominal("Integer"),
            }),
        },
    ];
    (checks, helpers)
}

fn config(memoize: bool) -> CheckConfig {
    CheckConfig { memoize, raise_blame: false, ..CheckConfig::default() }
}

fn hook_sharing(memo: &Arc<SharedMemo>, namespace: u64, memoize: bool) -> (CompRdlHook, Vec<Span>) {
    let (checks, helpers) = workload();
    let sites: Vec<Span> = checks.iter().map(|c| c.site).collect();
    let hook = CompRdlHook::with_shared_memo(
        checks,
        TypeStore::new(),
        classes(),
        helpers,
        config(memoize),
        memo.clone(),
        namespace,
    );
    (hook, sites)
}

/// Replays the deterministic schedule derived from `seed` against `hook`:
/// checked calls over the shared sites, with a migration (a `mutate_store`
/// that flips [`MODE_SLOT`] to the next of String / Float / Integer) at the
/// seed-determined step indices.  Returns the recorded blame sequence.
fn run_schedule(
    seed: u64,
    calls: usize,
    hook: &CompRdlHook,
    sites: &[Span],
) -> Vec<BlameDiagnostic> {
    run_schedule_with(seed, calls, hook, sites, true)
}

/// [`run_schedule`] with migrations toggleable: the namespace-isolation
/// tests need the *same* call schedule with the migration steps skipped
/// (the rng is still consumed at them, so the checked calls line up).
fn run_schedule_with(
    seed: u64,
    calls: usize,
    hook: &CompRdlHook,
    sites: &[Span],
    migrate: bool,
) -> Vec<BlameDiagnostic> {
    let mut rng = Rng::new(seed);
    let mut migrations = 0u64;
    for _ in 0..calls {
        if rng.below(25) == 0 {
            let ty = match migrations % 3 {
                0 => Type::nominal("String"),
                1 => Type::nominal("Float"),
                _ => Type::nominal("Integer"),
            };
            migrations += 1;
            if migrate {
                hook.mutate_store(|s| s.set_named(MODE_SLOT, ty));
            }
        }
        let site = sites[rng.below(sites.len() as u64) as usize];
        let recv = random_value(&mut rng, 1);
        let args = vec![random_value(&mut rng, 1)];
        let ret = random_value(&mut rng, 2);
        let _ = hook.before_call(site, &recv, &args);
        let _ = hook.after_call(site, &ret);
    }
    assert!(migrations >= 2, "the seeded schedule must include migration steps");
    hook.take_blames()
}

const CALLS: usize = 300;

/// The sequential baseline for `seed`, checked against the pay-at-every-hit
/// configuration for good measure.
fn baseline(seed: u64) -> Vec<BlameDiagnostic> {
    let memo = Arc::new(SharedMemo::new());
    let (memoized, sites) = hook_sharing(&memo, memo_namespace("baseline"), true);
    let blames = run_schedule(seed, CALLS, &memoized, &sites);
    let (unmemoized, sites) = hook_sharing(&Arc::new(SharedMemo::new()), 0, false);
    assert_eq!(
        blames,
        run_schedule(seed, CALLS, &unmemoized, &sites),
        "seed {seed:#x}: sequential memoized and unmemoized runs must agree"
    );
    assert!(!blames.is_empty(), "seed {seed:#x}: the workload must blame");
    blames
}

#[test]
fn k_threads_with_interleaved_migrations_never_observe_a_stale_verdict() {
    const K: usize = 4;
    for seed in [0x15EEDu64, 0x2C0DE, 0x3FACE] {
        let expected = baseline(seed);
        let memo = Arc::new(SharedMemo::new());
        let namespace = memo_namespace("prop-app");
        let results: Vec<Vec<BlameDiagnostic>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..K)
                .map(|_| {
                    let memo = &memo;
                    scope.spawn(move || {
                        let (hook, sites) = hook_sharing(memo, namespace, true);
                        run_schedule(seed, CALLS, &hook, &sites)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        });
        for (i, blames) in results.iter().enumerate() {
            assert_eq!(
                blames, &expected,
                "seed {seed:#x}: thread {i}'s blame sequence diverged from the sequential run \
                 (a stale verdict was replayed)"
            );
            // The Diagnostic conversion must agree too — same codes, spans
            // and messages through the shared diagnostics spine.
            let diags: Vec<Diagnostic> = blames.iter().cloned().map(Diagnostic::from).collect();
            let expected_diags: Vec<Diagnostic> =
                expected.iter().cloned().map(Diagnostic::from).collect();
            assert_eq!(diags, expected_diags, "seed {seed:#x}: thread {i}");
        }
        let stats = memo.stats();
        assert!(stats.hits > 0, "seed {seed:#x}: concurrent replays must hit: {stats:?}");
        assert!(
            stats.invalidations > 0,
            "seed {seed:#x}: migrations must invalidate shared entries: {stats:?}"
        );
        assert_eq!(
            memo.shard_sizes().iter().sum::<usize>(),
            memo.len(),
            "shard occupancy must account for every entry"
        );
    }
}

#[test]
fn concurrent_namespaces_stay_isolated() {
    // Two *different* programs (different schedules, colliding spans) hammer
    // one memo concurrently under different namespaces: each must still
    // reproduce its own sequential baseline exactly.
    let seed_a = 0xA11CEu64;
    let seed_b = 0xB0B_0B0u64;
    let expected_a = baseline(seed_a);
    let expected_b = baseline(seed_b);
    let memo = Arc::new(SharedMemo::new());
    let (got_a, got_b) = std::thread::scope(|scope| {
        let memo_a = &memo;
        let a = scope.spawn(move || {
            let (hook, sites) = hook_sharing(memo_a, memo_namespace("app-a"), true);
            run_schedule(seed_a, CALLS, &hook, &sites)
        });
        let memo_b = &memo;
        let b = scope.spawn(move || {
            let (hook, sites) = hook_sharing(memo_b, memo_namespace("app-b"), true);
            run_schedule(seed_b, CALLS, &hook, &sites)
        });
        (a.join().expect("a"), b.join().expect("b"))
    });
    assert_eq!(got_a, expected_a, "namespace a leaked verdicts");
    assert_eq!(got_b, expected_b, "namespace b leaked verdicts");
}

#[test]
fn one_apps_migration_churn_leaves_other_namespaces_hit_rate_intact() {
    // Per-namespace epochs: app A churns through migrations while app B
    // concurrently replays a migration-free schedule on the same memo.
    // B's hit / miss / invalidation counters — not just its blame
    // sequence — must be *identical* to a solo run against a private memo:
    // A's epoch bumps must not cost B a single warm entry.
    let seed_a = 0xC0FFEEu64;
    let seed_b = 0x0DDB17u64;

    let solo_memo = Arc::new(SharedMemo::new());
    let (solo, sites) = hook_sharing(&solo_memo, memo_namespace("app-b"), true);
    let solo_blames = run_schedule_with(seed_b, CALLS, &solo, &sites, false);
    let solo_stats = solo.memo_stats();
    assert!(solo_stats.hits > 0, "the schedule must exercise warm replays: {solo_stats:?}");
    assert_eq!(solo_stats.invalidations, 0, "no migrations, no invalidations");

    let memo = Arc::new(SharedMemo::new());
    let (got_a, (got_b, b_stats)) = std::thread::scope(|scope| {
        let memo_a = &memo;
        let a = scope.spawn(move || {
            let (hook, sites) = hook_sharing(memo_a, memo_a.register_namespace("app-a"), true);
            run_schedule(seed_a, CALLS, &hook, &sites)
        });
        let memo_b = &memo;
        let b = scope.spawn(move || {
            let (hook, sites) = hook_sharing(memo_b, memo_b.register_namespace("app-b"), true);
            let blames = run_schedule_with(seed_b, CALLS, &hook, &sites, false);
            (blames, hook.memo_stats())
        });
        (a.join().expect("a"), b.join().expect("b"))
    });
    assert!(!got_a.is_empty(), "the migrating app must blame");
    assert_eq!(got_b, solo_blames, "app B's blame sequence must be unaffected by A's churn");
    assert_eq!(
        b_stats, solo_stats,
        "app A's migrations flushed app B's warm entries (per-namespace epoch isolation broken)"
    );
    assert!(
        memo.namespace_epoch(memo_namespace("app-a")) >= 2,
        "A's schedule must have bumped its own epoch"
    );
    assert_eq!(memo.namespace_epoch(memo_namespace("app-b")), 0, "B's epoch must stay untouched");
    // The per-namespace stat rows attribute the churn to A alone.
    let rows = memo.namespace_stats();
    let row_a = rows.iter().find(|r| r.label == "app-a").expect("registered row for app-a");
    let row_b = rows.iter().find(|r| r.label == "app-b").expect("registered row for app-b");
    assert!(row_a.stats.invalidations > 0, "{row_a:?}");
    assert_eq!(row_b.stats.invalidations, 0, "{row_b:?}");
}

#[test]
fn capacity_pressure_evicts_mid_read_without_changing_any_verdict() {
    // A deliberately tiny memo (one shard at the minimum slot count) under
    // K hammering threads: inserts constantly displace entries mid-read.
    // Eviction may cost hits, never correctness — every thread must still
    // produce the sequential baseline's exact blame sequence, and the
    // table must never exceed its capacity.
    const K: usize = 4;
    let seed = 0x5CA1Eu64;
    let expected = baseline(seed);
    let memo = Arc::new(SharedMemo::with_settings(1, 8));
    assert_eq!(memo.capacity(), 8);
    let namespace = memo_namespace("prop-app");
    let results: Vec<Vec<BlameDiagnostic>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..K)
            .map(|_| {
                let memo = &memo;
                scope.spawn(move || {
                    let (hook, sites) = hook_sharing(memo, namespace, true);
                    run_schedule(seed, CALLS, &hook, &sites)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    for (i, blames) in results.iter().enumerate() {
        assert_eq!(
            blames, &expected,
            "thread {i}: an eviction or torn read changed a verdict at capacity"
        );
    }
    assert!(memo.len() <= memo.capacity(), "capacity is a hard bound");
    let stats = memo.stats();
    assert!(stats.evictions > 0, "the tiny table must have evicted under pressure: {stats:?}");
}

#[test]
fn concurrent_rewrites_of_one_slot_never_tear_a_read() {
    // Torn-read regression: reader threads hammer a single (site, value)
    // key — one slot — while a migrator thread keeps bumping the
    // namespace epoch, so the slot is invalidated and rewritten under the
    // readers continuously.  A torn read that survived validation would
    // surface as a bogus blame (the value always inhabits the expected
    // type) or a panic; neither may happen.
    let memo = Arc::new(SharedMemo::with_settings(1, 8));
    let namespace = memo_namespace("torn");
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let memo = &memo;
            scope.spawn(move || {
                let (hook, sites) = hook_sharing(memo, namespace, true);
                // Inhabits site 1's `Array<Integer>` return type, so a
                // correct run never blames.  (Values hold `Rc`s, so each
                // thread builds its own — the fingerprints still agree.)
                let value = Value::array(vec![Value::Int(1), Value::Int(2)]);
                for i in 0..2_000usize {
                    // Each reader periodically migrates its own store too:
                    // every such bump stales the shared entry while the
                    // bumping thread still has calls left, so *some*
                    // thread's next lookup must count an invalidation —
                    // making the memo-level assertion below independent of
                    // how the OS schedules the dedicated migrator thread.
                    if i > 0 && i % 700 == 0 {
                        let ty = if (i / 700) % 2 == 0 {
                            Type::nominal("String")
                        } else {
                            Type::nominal("Float")
                        };
                        hook.mutate_store(|s| s.set_named(MODE_SLOT, ty));
                    }
                    assert!(hook.after_call(sites[0], &value).is_ok());
                }
                assert_eq!(hook.blame_count(), 0, "a torn read produced a bogus verdict");
            });
        }
        let memo = &memo;
        scope.spawn(move || {
            let (hook, _sites) = hook_sharing(memo, namespace, true);
            for i in 0..500 {
                let ty = if i % 2 == 0 { Type::nominal("String") } else { Type::nominal("Float") };
                hook.mutate_store(|s| s.set_named(MODE_SLOT, ty));
                std::hint::spin_loop();
            }
        });
    });
    assert!(memo.stats().invalidations > 0, "the churn must invalidate: {:?}", memo.stats());
}
