//! Regenerates **Table 1** (library methods with comp type definitions) and
//! benchmarks how long registering the full annotation set takes.
//!
//! The table itself is printed to stdout when the benchmark runs, so
//! `cargo bench --bench table1` both reproduces the paper's rows and
//! measures annotation-registration cost.  The libraries are parsed once
//! per process, on first use, so the registration rows measure what every
//! further environment pays: merging the shared signatures and helpers.

use criterion::{criterion_group, criterion_main, Criterion};

fn table1_benchmark(c: &mut Criterion) {
    // Print the reproduced table once.
    let (rows, helpers) = corpus::table1();
    println!("\n{}", corpus::format_table1(&rows, helpers));

    let mut group = c.benchmark_group("table1");
    group.sample_size(10);

    group.bench_function("register_core_library_annotations", |b| {
        b.iter(|| {
            let mut env = comprdl::CompRdl::new();
            comprdl::stdlib::register_all(&mut env);
            std::hint::black_box(env.annotation_count("Array"))
        })
    });

    group.bench_function("register_all_annotations_with_db_dsls", |b| {
        b.iter(|| {
            let env = corpus::harness::table1_env();
            std::hint::black_box(env.annotation_count("Table"))
        })
    });

    group.bench_function("compute_table1_rows", |b| {
        b.iter(|| std::hint::black_box(corpus::table1()))
    });

    group.finish();
}

criterion_group!(benches, table1_benchmark);
criterion_main!(benches);
