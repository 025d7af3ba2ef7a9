//! Regenerates **Table 2** (type checking results per subject program) and
//! benchmarks the two quantities the paper times: type checking each subject
//! program, and running its test suite with and without the inserted dynamic
//! checks (the ~1.6% overhead claim of §5.3).  Each app's environment,
//! program (parsed and resolved) and comp-type check result are prepared
//! once, outside the timed iterations, so each row times only what it
//! names.

use comprdl::{CheckConfig, CheckOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ruby_interp::ResolvedProgram;
use std::rc::Rc;

fn table2_benchmark(c: &mut Criterion) {
    // Print the reproduced table (per-run timings measured by the harness).
    match corpus::table2() {
        Ok(rows) => println!("\n{}", corpus::format_table2(&rows)),
        Err(e) => panic!("harness failed: {e}"),
    }

    let prepared: Vec<_> = corpus::apps::all()
        .iter()
        .map(|app| {
            let (env, program) = bench::prepare_app(app);
            let checked = bench::check_prepared(&env, &program, CheckOptions::default());
            let suite = Rc::new(ResolvedProgram::new(&program));
            (app.name, env, program, suite, checked)
        })
        .collect();

    let mut group = c.benchmark_group("type_check");
    group.sample_size(10);
    for (name, env, program, _, _) in &prepared {
        group.bench_function(BenchmarkId::new("comp_types", name), |b| {
            b.iter(|| {
                std::hint::black_box(bench::check_prepared(env, program, CheckOptions::default()))
            })
        });
        group.bench_function(BenchmarkId::new("plain_rdl", name), |b| {
            let options = CheckOptions { use_comp_types: false, ..CheckOptions::default() };
            b.iter(|| std::hint::black_box(bench::check_prepared(env, program, options)))
        });
    }
    group.finish();

    // Blame is collected, not raised: the Sequel app's suite blames by
    // design after its mid-suite migration.
    let config = CheckConfig { raise_blame: false, ..CheckConfig::default() };
    let mut group = c.benchmark_group("test_suite");
    group.sample_size(10);
    for (name, env, _, suite, checked) in &prepared {
        group.bench_function(BenchmarkId::new("no_checks", name), |b| {
            b.iter(|| std::hint::black_box(bench::run_prepared_suite(env, suite, checked, None)))
        });
        group.bench_function(BenchmarkId::new("with_checks", name), |b| {
            b.iter(|| {
                std::hint::black_box(bench::run_prepared_suite(env, suite, checked, Some(config)))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, table2_benchmark);
criterion_main!(benches);
