//! The memo layer bench for the shared run-time check memo
//! ([`comprdl::SharedMemo`]): bare and hook-level warm reads, generated
//! migration *sequences* — many epochs per run — charting how warm hit
//! rate degrades with mutation frequency, the same churn under an emulated
//! memo-wide epoch, and one namespace driven past
//! [`SharedMemo::NAMESPACE_CAPACITY`] distinct keys.
//!
//! It only times and counts; the memo's behaviour (namespace isolation
//! under churn, bounded eviction, warm hits) is gated by `cargo test`.
//! Every scenario's median ns and hit/miss/invalidation/eviction counts
//! are persisted to `BENCH_SHARED_MEMO.json` at the repo root
//! ([`bench::results`]), so the trajectory can be diffed across commits.

use bench::results::Scenario;
use comprdl::{
    CacheStats, CheckConfig, CompRdlHook, HelperRegistry, InsertedCheck, MemoKey, MemoTable,
    SharedMemo,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rdl_types::{ClassTable, Type, TypeStore};
use ruby_interp::{DynamicCheckHook, Value};
use ruby_syntax::Span;
use std::sync::Arc;
use std::time::Instant;

/// Namespaces ("apps") sharing the memo in the churn scenarios.
const APPS: usize = 4;
/// Checked calls per app per churn sample.
const CALLS: usize = 3_000;
/// Warm lookups per timed warm-read sample.
const WARM_PASS: usize = 10_000;
/// The named type-level slot the generated migrations flip.
const MODE_SLOT: &str = "bench.mode";

fn site(n: usize) -> Span {
    Span::new(n * 10, n * 10 + 5, n as u32 + 1)
}

/// Two return-checked sites; the value schedule cycles three shapes per
/// site, one of which blames — so warm replays cover both `Ok` and blame
/// verdicts.
fn checks() -> Vec<InsertedCheck> {
    vec![
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
    ]
}

/// The deterministic call schedule: site alternates per step, the value
/// index cycles.  Index 2 at site 2 (`Int`) fails the union check and
/// records a blame.
fn schedule_values() -> [Vec<Value>; 2] {
    [
        vec![
            Value::array(vec![Value::Int(1)]),
            Value::array(vec![Value::Int(1), Value::Int(2)]),
            Value::array(vec![]),
        ],
        vec![Value::str("a"), Value::Sym("id".into()), Value::Int(7)],
    ]
}

fn hook_on(memo: &Arc<SharedMemo>, namespace: u64) -> CompRdlHook {
    CompRdlHook::with_shared_memo(
        checks(),
        TypeStore::new(),
        ClassTable::with_builtins(),
        HelperRegistry::new(),
        CheckConfig { raise_blame: false, ..CheckConfig::default() },
        memo.clone(),
        namespace,
    )
}

/// One churn run: `APPS` hooks interleaved round-robin over the schedule;
/// app 0 migrates (a `mutate_store` flipping [`MODE_SLOT`]) every
/// `migrate_every` steps (0 = never).  With `global_bump`, every other
/// namespace's epoch is bumped alongside — emulating one memo-wide epoch
/// so its cross-app flush cost is measurable against the per-namespace
/// behaviour.
struct ChurnOutcome {
    ns_per_call: u128,
    per_app: Vec<CacheStats>,
    memo: CacheStats,
}

fn run_churn(migrate_every: usize, global_bump: bool) -> ChurnOutcome {
    let samples = 7;
    let mut timings = Vec::with_capacity(samples);
    let mut last: Option<ChurnOutcome> = None;
    for _ in 0..samples {
        let memo = Arc::new(SharedMemo::new());
        let namespaces: Vec<u64> =
            (0..APPS).map(|i| memo.register_namespace(&format!("app-{i}"))).collect();
        let hooks: Vec<CompRdlHook> = namespaces.iter().map(|ns| hook_on(&memo, *ns)).collect();
        let values = schedule_values();
        let started = Instant::now();
        for i in 0..CALLS {
            if migrate_every != 0 && i > 0 && i.is_multiple_of(migrate_every) {
                let ty = if (i / migrate_every).is_multiple_of(2) {
                    Type::nominal("String")
                } else {
                    Type::nominal("Float")
                };
                hooks[0].mutate_store(|s| s.set_named(MODE_SLOT, ty));
                if global_bump {
                    for ns in &namespaces[1..] {
                        memo.bump_namespace_epoch(*ns);
                    }
                }
            }
            let which = i % 2;
            let value = &values[which][(i / 2) % 3];
            for hook in &hooks {
                let _ = hook.after_call(site(which + 1), value);
            }
        }
        let elapsed = started.elapsed();
        timings.push(elapsed.as_nanos() / (CALLS as u128 * APPS as u128));
        last = Some(ChurnOutcome {
            ns_per_call: 0,
            per_app: hooks.iter().map(CompRdlHook::memo_stats).collect(),
            memo: memo.stats(),
        });
    }
    let mut outcome = last.expect("at least one sample");
    outcome.ns_per_call = bench::results::median_ns(timings);
    outcome
}

/// Median ns per fully-warm lookup (single namespace, memo pre-populated,
/// every call a hit).
fn run_warm_read() -> (u128, CacheStats) {
    let memo = Arc::new(SharedMemo::new());
    let hook = hook_on(&memo, memo.register_namespace("warm"));
    let values = schedule_values();
    // Populate: one pass over every (site, value) pair.
    for i in 0..6 {
        let which = i % 2;
        let _ = hook.after_call(site(which + 1), &values[which][(i / 2) % 3]);
    }
    let samples = 30;
    let mut timings = Vec::with_capacity(samples);
    for _ in 0..samples {
        let started = Instant::now();
        for i in 0..WARM_PASS {
            let which = i % 2;
            let _ = hook.after_call(site(which + 1), &values[which][(i / 2) % 3]);
        }
        timings.push(started.elapsed().as_nanos() / WARM_PASS as u128);
        // The blame list grows by one per replayed blame; drain it so the
        // timed loop measures the memo, not a growing Vec reallocation.
        let _ = hook.take_blames();
    }
    (bench::results::median_ns(timings), memo.stats())
}

/// Median ns per bare memo lookup (no hook, no value fingerprinting): the
/// isolated read-path cost.  The hook-level warm-read scenario above it
/// measures the end-to-end call, where fingerprinting and check dispatch
/// surround the lookup.
fn run_memo_read() -> (u128, CacheStats) {
    let memo = SharedMemo::new();
    let ns = memo.namespace_state(memo.register_namespace("probe"));
    let keys: Vec<MemoKey> = (0..8u64).map(|i| (site(1), 0x9E37_79B9 ^ (i * 0x10001))).collect();
    for key in &keys {
        ns.insert(MemoTable::After, key, 0, 0, &Ok(()));
    }
    let samples = 30;
    let mut timings = Vec::with_capacity(samples);
    for _ in 0..samples {
        let started = Instant::now();
        for i in 0..WARM_PASS {
            black_box(ns.lookup(MemoTable::After, &keys[i % keys.len()], 0));
        }
        timings.push(started.elapsed().as_nanos() / WARM_PASS as u128);
    }
    (bench::results::median_ns(timings), memo.stats())
}

/// Eviction pressure: one namespace driven over half again as many
/// distinct value shapes as [`SharedMemo::NAMESPACE_CAPACITY`] holds.
fn run_eviction_pressure() -> CacheStats {
    let memo = Arc::new(SharedMemo::new());
    let check = InsertedCheck {
        site: site(9),
        description: "Integer#succ".to_string(),
        expected_return: Type::nominal("Integer"),
        consistency: None,
    };
    let hook = CompRdlHook::with_shared_memo(
        vec![check],
        TypeStore::new(),
        ClassTable::with_builtins(),
        HelperRegistry::new(),
        CheckConfig { raise_blame: false, ..CheckConfig::default() },
        memo.clone(),
        memo.register_namespace("pressure"),
    );
    let shapes = (SharedMemo::NAMESPACE_CAPACITY * 3 / 2) as i64;
    for _pass in 0..3 {
        for i in 0..shapes {
            let _ = hook.after_call(site(9), &Value::Int(i));
        }
    }
    memo.stats()
}

fn memo_churn(_c: &mut Criterion) {
    let mut scenarios = Vec::new();

    // Uncontended warm reads, measured twice: bare memo lookups, where
    // the read path is undiluted, and full hook calls, where value
    // fingerprinting and check dispatch surround the lookup.
    let (probe_ns, probe_stats) = run_memo_read();
    println!("memo read (bare lookup, all hits): {probe_ns} ns");
    scenarios.push(Scenario::from_stats("memo_read", probe_ns, probe_stats));

    let (warm_ns, warm_stats) = run_warm_read();
    println!("warm read (full hook call, all hits): {warm_ns} ns/call");
    scenarios.push(Scenario::from_stats("warm_read", warm_ns, warm_stats));

    // Hit rate vs mutation frequency: app 0 migrates every m steps; apps
    // 1..3 never do.
    for migrate_every in [0, 100, 25, 8] {
        let outcome = run_churn(migrate_every, false);
        println!(
            "churn m={migrate_every}: {} ns/call, memo {:?} (app-0 {:?})",
            outcome.ns_per_call, outcome.memo, outcome.per_app[0]
        );
        scenarios.push(Scenario::from_stats(
            &format!("churn/m{migrate_every}"),
            outcome.ns_per_call,
            outcome.memo,
        ));
    }

    // The same one-app churn under an emulated memo-wide epoch: every
    // migration flushes all four namespaces, so the non-migrating apps
    // lose the hits that per-namespace epochs keep.
    let global = run_churn(25, true);
    let global_hits: u64 = global.per_app[1..].iter().map(|s| s.hits).sum();
    println!(
        "churn m=25 global epoch: {} ns/call, other-app hits {global_hits}",
        global.ns_per_call
    );
    scenarios.push(Scenario::from_stats("churn/m25_global_epoch", global.ns_per_call, global.memo));

    // Bounded namespaces: overflow evicts rather than grows.
    let pressure = run_eviction_pressure();
    println!("eviction pressure: {pressure:?}");
    scenarios.push(Scenario::from_stats("eviction_pressure", 0, pressure));

    let path = bench::results::record("memo_churn", &scenarios).expect("persist bench results");
    println!("results written to {}", path.display());
}

criterion_group!(benches, memo_churn);
criterion_main!(benches);
