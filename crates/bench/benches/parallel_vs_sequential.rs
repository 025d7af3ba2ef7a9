//! Measures the threaded corpus harness: per-app parallel checking (scoped
//! worker threads with per-method work stealing) against the sequential
//! checker, plus the whole-corpus `table2` run in both modes.
//!
//! Besides timing, this bench is a correctness gate: the sequential and
//! parallel corpus runs must produce byte-identical deterministic output
//! (`corpus::stable_report`, i.e. everything except wall-clock timings) and
//! identical per-app error counts.  CI runs it with `BENCH_SMOKE=1` and
//! fails on divergence.

use comprdl::SharedMemo;
use corpus::FaultPlan;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;

const CHECK_THREADS: usize = 4;

fn parallel_vs_sequential(c: &mut Criterion) {
    let apps = corpus::apps::all();

    // Correctness gate: identical diagnostics and byte-identical stable
    // output between the sequential and parallel harnesses.
    let sequential = corpus::table2().expect("sequential harness");
    let table2_parallel =
        || corpus::table2_parallel(&Arc::new(SharedMemo::new()), &FaultPlan::none());
    let parallel = table2_parallel().expect("parallel harness");
    for (s, p) in sequential.iter().zip(parallel.iter()) {
        assert_eq!(
            (s.program.as_str(), s.errors()),
            (p.program.as_str(), p.errors()),
            "parallel harness changed an app's error count"
        );
    }
    let seq_report = corpus::stable_report(&sequential);
    let par_report = corpus::stable_report(&parallel);
    assert_eq!(seq_report, par_report, "sequential / parallel table2 output diverged");
    println!("{seq_report}");

    // Time the checking phase alone (environment assembly and parsing
    // hoisted out of the iterations).  On a single-core host the threaded
    // runs mostly measure their own coordination overhead; the correctness
    // gates above are host-independent.
    let prepared: Vec<_> = apps.iter().map(|app| (app.name, bench::prepare_app(app))).collect();
    let samples = bench::sample_size(10);
    let mut group = c.benchmark_group("check_threading");
    group.sample_size(samples);
    for (name, (env, program)) in &prepared {
        group.bench_with_input(
            BenchmarkId::new("sequential", name),
            &(env, program),
            |b, (e, p)| {
                b.iter(|| {
                    std::hint::black_box(bench::check_prepared(
                        e,
                        p,
                        comprdl::CheckOptions::default(),
                    ))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("parallel_x{CHECK_THREADS}"), name),
            &(env, program),
            |b, (e, p)| {
                b.iter(|| std::hint::black_box(bench::check_prepared_parallel(e, p, CHECK_THREADS)))
            },
        );
    }
    group.finish();

    // A call-site-dense program with enough methods for work stealing to
    // have something to steal.
    let scale_methods = if std::env::var_os("BENCH_SMOKE").is_some() { 40 } else { 120 };
    let (env, program) = bench::scale_workload(scale_methods);
    let sequential_run = bench::check_prepared(&env, &program, comprdl::CheckOptions::default());
    let parallel_run = bench::check_prepared_parallel(&env, &program, CHECK_THREADS);
    let rendered = |r: &comprdl::ProgramCheckResult| {
        r.errors().iter().map(|e| e.to_string()).collect::<Vec<_>>()
    };
    assert_eq!(
        rendered(&sequential_run),
        rendered(&parallel_run),
        "parallel checking changed the scale workload's diagnostics"
    );
    let mut group = c.benchmark_group("check_threading_scale");
    group.sample_size(bench::sample_size(10));
    group.bench_function(format!("sequential/{scale_methods}_methods"), |b| {
        b.iter(|| {
            std::hint::black_box(bench::check_prepared(
                &env,
                &program,
                comprdl::CheckOptions::default(),
            ))
        })
    });
    group.bench_function(format!("parallel_x{CHECK_THREADS}/{scale_methods}_methods"), |b| {
        b.iter(|| {
            std::hint::black_box(bench::check_prepared_parallel(&env, &program, CHECK_THREADS))
        })
    });
    group.finish();

    let mut group = c.benchmark_group("table2_harness");
    group.sample_size(bench::sample_size(3));
    group.bench_function("sequential", |b| {
        b.iter(|| std::hint::black_box(corpus::table2().expect("harness")))
    });
    group.bench_function("parallel", |b| {
        b.iter(|| std::hint::black_box(table2_parallel().expect("harness")))
    });
    group.finish();
}

criterion_group!(benches, parallel_vs_sequential);
criterion_main!(benches);
