//! Reproduces the paper's evaluation tables using the threaded corpus
//! harness: Table 1 (library comp-type definitions), Table 2 (per-app type
//! checking results, one scoped thread per app with per-method work
//! stealing inside each, all dynamic-check hooks sharing one concurrent
//! runtime memo), the Table 2 dynamic-check **overhead** comparison (no
//! hook / unmemoized hook / memoized hook cold and warm, with its
//! blame-sequence correctness gates), and the per-app diagnostic
//! aggregation — including runtime blame rendered as annotated snippets.
//!
//! ```sh
//! cargo run --example table2
//! ```

use std::sync::Arc;

fn main() {
    let (rows, helpers) = corpus::table1();
    println!("{}", corpus::format_table1(&rows, helpers));

    // One shared memo serves every app thread; its stats show the entry
    // count, the aggregate hit rate, and one row per app — whose epoch
    // column shows the Sequel app's mid-suite migration bumping *its own*
    // namespace epoch while every other app's stays at zero
    // (per-namespace isolation).
    let memo = Arc::new(comprdl::SharedMemo::new());
    let rows = corpus::table2_parallel(&memo, &corpus::FaultPlan::none())
        .unwrap_or_else(|e| panic!("harness failed: {e}"));
    println!("{}", corpus::format_table2(&rows));
    println!("{}", corpus::format_diagnostic_summary(&corpus::corpus_diagnostics(&rows)));
    println!("{}", corpus::format_memo_stats(&memo));

    // Runtime blame flows through the same diagnostics spine as static
    // errors: span-carrying diagnostics rendered as annotated snippets.
    for app in corpus::apps::all() {
        let row = rows.iter().find(|r| r.program == app.name).expect("row per app");
        let rendered = corpus::render_runtime_blames(&app, row);
        if !rendered.is_empty() {
            println!("Runtime blame in {} (expected: its suite migrates mid-run):", app.name);
            println!("{rendered}");
        }
    }

    // The run-time check overhead: each app's suite unchecked and checked
    // through a cold memo, seven times each (reported as median [q1–q3]),
    // checked the paper's way (pay at every hit), and re-run warm.  The
    // harness itself enforces that every checked run executes the same
    // checks and produces byte-identical blame sequences.
    let overhead = corpus::table2_overhead(&Arc::new(comprdl::SharedMemo::new()))
        .unwrap_or_else(|e| panic!("overhead gate: {e}"));
    println!("{}", corpus::format_overhead(&overhead));

    // The deterministic view: every column above except the wall-clock
    // timings, byte-identical between sequential and parallel runs.
    println!("Deterministic summary (timing-free):\n{}", corpus::stable_report(&rows));
}
