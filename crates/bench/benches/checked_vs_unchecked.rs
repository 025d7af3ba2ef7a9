//! The Table 2 overhead experiment: each corpus app's test suite under no
//! dynamic checks, the paper's pay-at-every-hit checks (`CompRdlHook` with
//! memoization off), the memoized fast path against a cold shared memo, and
//! a warm re-run against the same memo.
//!
//! Besides timing, this bench is a correctness gate: `table2_overhead`
//! fails any app whose memoized, unmemoized or warm runs disagree on
//! executed check counts or produce non-byte-identical blame *sequences*
//! (the warm comparison catches shared-memo cross-talk), and this bench
//! additionally requires the memo to actually hit (and the memoized store
//! to stay smaller) on the call-site-dense Redmine workload, the Sequel
//! app's mid-suite migration to blame exactly as the baseline does, and the
//! parallel corpus harness to sustain a non-trivial hit count on one shared
//! memo.  CI runs it with `BENCH_SMOKE=1` (two samples) and fails on
//! divergence; the shared memo's hit/miss statistics are printed so
//! regressions in cross-thread hit rate show up in CI logs.

use bench::results::Scenario;
use comprdl::{CheckConfig, SharedMemo};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn checked_vs_unchecked(c: &mut Criterion) {
    // Correctness gate first: the harness enforces identical check counts
    // and byte-identical blame sequences per app — including between the
    // cold and warm shared-memo runs — erroring out otherwise.
    let overhead_memo = Arc::new(SharedMemo::new());
    let rows = corpus::table2_overhead(&overhead_memo).expect("overhead harness correctness gate");
    println!("{}", corpus::format_overhead(&rows));
    println!("{}", corpus::format_memo_stats(&overhead_memo));
    assert_eq!(rows.len(), 8, "the grown corpus has eight apps");
    let redmine = rows.iter().find(|r| r.program == "Redmine").expect("dense app present");
    assert!(
        redmine.memo_stats.hits > redmine.memo_stats.misses,
        "the memo must mostly hit on the dense workload: {:?}",
        redmine.memo_stats
    );
    assert!(
        redmine.store_memoized < redmine.store_unmemoized,
        "memoized interning must not amplify the store ({} vs {})",
        redmine.store_memoized,
        redmine.store_unmemoized
    );
    assert!(
        redmine.warm_memo_stats.hits >= redmine.memo_stats.hits,
        "a warm run against the shared memo must hit at least as often as the cold one: \
         {:?} vs {:?}",
        redmine.warm_memo_stats,
        redmine.memo_stats
    );
    let sequel = rows.iter().find(|r| r.program == "Sequel").expect("migrating app present");
    assert_eq!(sequel.blames, 3, "the mid-suite migration must blame exactly as the baseline");
    let memo_stats = overhead_memo.stats();
    assert!(
        memo_stats.invalidations > 0,
        "the Sequel migration must invalidate shared entries: {memo_stats:?}"
    );

    // The parallel corpus harness over one shared memo: eight app threads,
    // one table.  Correctness (byte-identical stable_report) is enforced by
    // the test suite; here we surface the shared table's hit rate under
    // concurrent recording.  (Each app keys under its own namespace, so
    // these hits are apps replaying their own sites through the shared
    // table while other threads record into it; *cross-hook* replay proper
    // is what the warm overhead runs above and tests/shared_memo.rs
    // exercise.)
    let parallel_memo = Arc::new(SharedMemo::new());
    let parallel_rows = corpus::table2_parallel(&parallel_memo, &corpus::FaultPlan::none())
        .expect("parallel harness");
    assert_eq!(parallel_rows.len(), 8);
    println!("Parallel harness over one shared memo:");
    println!("{}", corpus::format_memo_stats(&parallel_memo));
    assert!(
        parallel_memo.stats().hits > 0,
        "the parallel harness must hit the shared memo: {:?}",
        parallel_memo.stats()
    );

    let collect_config = CheckConfig { raise_blame: false, ..CheckConfig::default() };
    let unmemoized_config = CheckConfig { memoize: false, ..collect_config };

    // Time the suite runs alone: environment assembly, parsing and type
    // checking are hoisted out of the measured iterations.
    let apps = corpus::apps::all();
    let prepared: Vec<_> = apps
        .iter()
        .map(|app| {
            let (env, program) = bench::prepare_app(app);
            let checked = bench::check_prepared(&env, &program, comprdl::CheckOptions::default());
            (app.name, env, program, checked)
        })
        .collect();

    let mut group = c.benchmark_group("dynamic_check_overhead");
    group.sample_size(bench::sample_size(20));
    for (name, env, program, checked) in &prepared {
        let namespace = comprdl::memo_namespace(name);
        group.bench_with_input(BenchmarkId::new("no_hook", name), &(), |b, ()| {
            b.iter(|| std::hint::black_box(bench::run_prepared_suite(env, program, checked, None)))
        });
        group.bench_with_input(BenchmarkId::new("unmemoized", name), &(), |b, ()| {
            b.iter(|| {
                std::hint::black_box(bench::run_prepared_suite(
                    env,
                    program,
                    checked,
                    Some(unmemoized_config),
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("memoized", name), &(), |b, ()| {
            b.iter(|| {
                std::hint::black_box(bench::run_prepared_suite(
                    env,
                    program,
                    checked,
                    Some(collect_config),
                ))
            })
        });
        // The shared-memo path: one memo across iterations, so everything
        // after the first iteration measures warm replays.
        let shared = Arc::new(SharedMemo::new());
        group.bench_with_input(BenchmarkId::new("memoized_shared_warm", name), &(), |b, ()| {
            b.iter(|| {
                std::hint::black_box(bench::run_prepared_suite_shared(
                    env,
                    program,
                    checked,
                    collect_config,
                    &shared,
                    namespace,
                ))
            })
        });
    }
    group.finish();

    // Aggregate wall-clock comparison on the dense app, the workload the
    // memo exists for.  Per-run durations are kept so the persisted
    // results carry medians (comparable across PRs) rather than totals.
    let (_, env, program, checked) =
        prepared.iter().find(|(name, ..)| *name == "Redmine").expect("redmine prepared");
    let runs = bench::sample_size(10);
    let timed = |config: Option<CheckConfig>| {
        let mut samples = Vec::with_capacity(runs);
        let started = Instant::now();
        for _ in 0..runs {
            let run_started = Instant::now();
            std::hint::black_box(bench::run_prepared_suite(env, program, checked, config));
            samples.push(run_started.elapsed());
        }
        (started.elapsed(), suite_median(samples))
    };
    let (no_hook, no_hook_median) = timed(None);
    let (unmemoized, unmemoized_median) = timed(Some(unmemoized_config));
    let (memoized, memoized_median) = timed(Some(collect_config));
    // The same runs against one warm shared memo.
    let shared = Arc::new(SharedMemo::new());
    let namespace = shared.register_namespace("Redmine");
    let mut warm_samples = Vec::with_capacity(runs);
    let started = Instant::now();
    for _ in 0..runs {
        let run_started = Instant::now();
        std::hint::black_box(bench::run_prepared_suite_shared(
            env,
            program,
            checked,
            collect_config,
            &shared,
            namespace,
        ));
        warm_samples.push(run_started.elapsed());
    }
    let memoized_warm = started.elapsed();
    let warm_median = suite_median(warm_samples);
    let pct = |with: Duration| {
        (with.as_secs_f64() - no_hook.as_secs_f64()) / no_hook.as_secs_f64().max(f64::EPSILON)
            * 100.0
    };
    println!(
        "Redmine suite over {runs} runs: no hook {no_hook:?}, unmemoized {unmemoized:?} \
         (+{:.1}%), memoized {memoized:?} (+{:.1}%), shared+warm {memoized_warm:?} (+{:.1}%)",
        pct(unmemoized),
        pct(memoized),
        pct(memoized_warm)
    );
    println!("{}", corpus::format_memo_stats(&shared));
    let warm_stats = shared.stats();
    assert!(
        warm_stats.hits > warm_stats.misses,
        "warm shared-memo runs must be dominated by hits: {warm_stats:?}"
    );
    // The strict timing assertion only runs in full mode: smoke-mode CI
    // gates on the behavioural checks above — two-sample wall-clock
    // comparisons on a shared single-core runner would flake.
    if std::env::var_os("BENCH_SMOKE").is_none() {
        assert!(
            memoized < unmemoized,
            "the memoized hook must be strictly faster on the call-site-dense workload \
             (memoized {memoized:?} vs unmemoized {unmemoized:?})"
        );
    }

    // Persist the Redmine suite medians (the warm scenario also carries
    // the shared memo's counters) so future PRs diff perf from
    // BENCH_SHARED_MEMO.json instead of CI logs.
    let warm_stats = shared.stats();
    let scenarios = vec![
        Scenario::from_stats(
            "redmine_suite/no_hook",
            no_hook_median,
            comprdl::CacheStats::default(),
        ),
        Scenario::from_stats(
            "redmine_suite/unmemoized",
            unmemoized_median,
            comprdl::CacheStats::default(),
        ),
        Scenario::from_stats(
            "redmine_suite/memoized",
            memoized_median,
            comprdl::CacheStats::default(),
        ),
        Scenario::from_stats("redmine_suite/shared_warm", warm_median, warm_stats),
        Scenario::from_stats("corpus/overhead_harness", 0, overhead_memo.stats()),
        Scenario::from_stats("corpus/parallel_shared", 0, parallel_memo.stats()),
    ];
    let path =
        bench::results::record("checked_vs_unchecked", &scenarios).expect("persist bench results");
    println!("results written to {}", path.display());
}

/// Median of the given per-run durations, in nanoseconds (shared median
/// definition: `bench::results::median_ns`).
fn suite_median(samples: Vec<Duration>) -> u128 {
    bench::results::median_ns(samples.into_iter().map(|d| d.as_nanos()).collect())
}

criterion_group!(benches, checked_vs_unchecked);
criterion_main!(benches);
