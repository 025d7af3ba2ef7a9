//! Measures the threaded corpus harness: per-app parallel checking (scoped
//! worker threads with per-method work stealing) against the sequential
//! checker, on the corpus apps and on a 120-method call-site-dense
//! program, plus the whole-corpus `table2` run in both modes.  perfbench
//! runs no threaded pass, so this is the one timing of the threaded paths;
//! their byte-identity with the sequential runs is a `cargo test` gate.

use comprdl::SharedMemo;
use corpus::FaultPlan;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;

const CHECK_THREADS: usize = 4;
/// Methods in the scale group's program: enough for work stealing to have
/// something to steal.
const SCALE_METHODS: usize = 120;

fn parallel_vs_sequential(c: &mut Criterion) {
    // Time the checking phase alone (environment assembly and parsing
    // hoisted out of the iterations).  On a single-core host the threaded
    // runs mostly measure their own coordination overhead.
    let apps = corpus::apps::all();
    let prepared: Vec<_> = apps.iter().map(|app| (app.name, bench::prepare_app(app))).collect();
    let mut group = c.benchmark_group("check_threading");
    group.sample_size(10);
    for (name, (env, program)) in &prepared {
        group.bench_function(BenchmarkId::new("sequential", name), |b| {
            b.iter(|| {
                std::hint::black_box(bench::check_prepared(
                    env,
                    program,
                    comprdl::CheckOptions::default(),
                ))
            })
        });
        group.bench_function(BenchmarkId::new(format!("parallel_x{CHECK_THREADS}"), name), |b| {
            b.iter(|| {
                std::hint::black_box(bench::check_prepared_parallel(env, program, CHECK_THREADS))
            })
        });
    }
    group.finish();

    let (env, program) = bench::scale_workload(SCALE_METHODS);
    let mut group = c.benchmark_group("check_threading_scale");
    group.sample_size(10);
    group.bench_function(format!("sequential/{SCALE_METHODS}_methods"), |b| {
        b.iter(|| {
            std::hint::black_box(bench::check_prepared(
                &env,
                &program,
                comprdl::CheckOptions::default(),
            ))
        })
    });
    group.bench_function(format!("parallel_x{CHECK_THREADS}/{SCALE_METHODS}_methods"), |b| {
        b.iter(|| {
            std::hint::black_box(bench::check_prepared_parallel(&env, &program, CHECK_THREADS))
        })
    });
    group.finish();

    let mut group = c.benchmark_group("table2_harness");
    group.sample_size(3);
    group.bench_function("sequential", |b| {
        b.iter(|| std::hint::black_box(corpus::table2().expect("harness")))
    });
    group.bench_function("parallel", |b| {
        b.iter(|| {
            std::hint::black_box(
                corpus::table2_parallel(&Arc::new(SharedMemo::new()), &FaultPlan::none())
                    .expect("harness"),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, parallel_vs_sequential);
criterion_main!(benches);
