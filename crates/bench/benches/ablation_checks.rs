//! Ablation: cost of the two categories of dynamic checks.
//!
//! The paper inserts (a) return-type checks at every comp-typed library call
//! and (b) a consistency re-evaluation of the comp type on the call's actual
//! inputs (§4, "Heap Mutation").  This benchmark runs the Discourse
//! analogue's test suite under: no checks, return checks only, and
//! return + consistency checks, quantifying what each layer costs.  The
//! environment, program and check result are prepared once, so each row
//! times the suite run alone.

use comprdl::CheckConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use ruby_interp::ResolvedProgram;
use std::rc::Rc;

fn ablation_checks(c: &mut Criterion) {
    let apps = corpus::apps::all();
    let discourse = apps.iter().find(|a| a.name == "Discourse").expect("discourse app");
    let (env, program) = bench::prepare_app(discourse);
    let checked = bench::check_prepared(&env, &program, comprdl::CheckOptions::default());
    let suite = Rc::new(ResolvedProgram::new(&program));
    let run = |config: Option<CheckConfig>| {
        std::hint::black_box(bench::run_prepared_suite(&env, &suite, &checked, config))
    };

    let mut group = c.benchmark_group("check_ablation");
    group.sample_size(10);

    group.bench_function("no_checks", |b| b.iter(|| run(None)));
    group.bench_function("return_checks_only", |b| {
        let config = CheckConfig {
            return_checks: true,
            consistency_checks: false,
            ..CheckConfig::default()
        };
        b.iter(|| run(Some(config)))
    });
    group.bench_function("return_and_consistency_checks", |b| {
        let config =
            CheckConfig { return_checks: true, consistency_checks: true, ..CheckConfig::default() };
        b.iter(|| run(Some(config)))
    });

    group.finish();
}

criterion_group!(benches, ablation_checks);
criterion_main!(benches);
