//! Ablation: cost of the two categories of dynamic checks.
//!
//! The paper inserts (a) return-type checks at every comp-typed library call
//! and (b) a consistency re-evaluation of the comp type on the call's actual
//! inputs (§4, "Heap Mutation").  This benchmark runs the Discourse
//! analogue's test suite under: no checks, return checks only, and
//! return + consistency checks, quantifying what each layer costs.

use comprdl::CheckConfig;
use criterion::{criterion_group, criterion_main, Criterion};

fn ablation_checks(c: &mut Criterion) {
    let apps = corpus::apps::all();
    let discourse = apps.iter().find(|a| a.name == "Discourse").expect("discourse app");

    let mut group = c.benchmark_group("check_ablation");
    group.sample_size(10);

    group.bench_function("no_checks", |b| {
        b.iter(|| std::hint::black_box(bench::run_app_suite(discourse, None)))
    });
    group.bench_function("return_checks_only", |b| {
        b.iter(|| {
            std::hint::black_box(bench::run_app_suite(
                discourse,
                Some(CheckConfig {
                    return_checks: true,
                    consistency_checks: false,
                    ..CheckConfig::default()
                }),
            ))
        })
    });
    group.bench_function("return_and_consistency_checks", |b| {
        b.iter(|| {
            std::hint::black_box(bench::run_app_suite(
                discourse,
                Some(CheckConfig {
                    return_checks: true,
                    consistency_checks: true,
                    ..CheckConfig::default()
                }),
            ))
        })
    });

    group.finish();
}

criterion_group!(benches, ablation_checks);
criterion_main!(benches);
