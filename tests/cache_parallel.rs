//! Seeded property tests for the comp-type evaluation cache, the parallel
//! checker and the corpus driver: across the full corpus, under randomized
//! option combinations, app orders, thread counts and check-cache states,
//! the cached / parallel runs must produce **byte-identical** output to the
//! uncached / sequential baseline.

mod scale;

use comprdl::{CheckCache, CheckOptions, SharedMemo, TypeChecker};
use diagnostics::DiagnosticBag;
use std::sync::Arc;
use test_rng::Rng;

/// Canonical byte rendering of a check result's diagnostics (code, message
/// and exact span of every error, in canonical order) plus its cast
/// accounting — everything a Table 2 row derives from the checker.
fn fingerprint(result: &comprdl::ProgramCheckResult) -> String {
    let mut bag: DiagnosticBag =
        result.errors().into_iter().cloned().map(diagnostics::Diagnostic::from).collect();
    bag.sort_by_span_then_code();
    let mut out = String::new();
    for d in bag.iter() {
        let s = d.primary_span();
        out.push_str(&format!("{}|{}|{}..{}@{}\n", d.code, d.message, s.start, s.end, s.line));
    }
    out.push_str(&format!(
        "casts={}/{} methods={} checks={}\n",
        result.explicit_casts(),
        result.implicit_casts(),
        result.methods_checked(),
        result.checks().len()
    ));
    out
}

fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below((i + 1) as u64) as usize;
        order.swap(i, j);
    }
    order
}

#[test]
fn cached_checking_is_byte_identical_to_uncached_across_the_corpus() {
    let apps = corpus::apps::all();
    let mut rng = Rng::new(0xCAFE01);
    for round in 0..4 {
        let options =
            CheckOptions { count_implicit_casts: rng.below(2) == 0, ..CheckOptions::default() };
        let mut hits = 0;
        for &i in &shuffled(&mut rng, apps.len()) {
            let app = &apps[i];
            let env = app.build_env();
            let program =
                ruby_syntax::parse_program_strict(&app.full_source()).expect("corpus app parses");
            let cached = TypeChecker::new(&env, &program, options).check_labeled("app");
            let uncached =
                TypeChecker::new(&env, &program, CheckOptions { use_eval_cache: false, ..options })
                    .check_labeled("app");
            assert_eq!(
                fingerprint(&cached),
                fingerprint(&uncached),
                "round {round}: cached and uncached diagnostics diverged for {} \
                 (options {options:?})",
                app.name
            );
            hits += cached.cache_stats.hits;
        }
        assert!(
            hits > 0,
            "round {round}: the eval cache never hit across the corpus ({options:?})"
        );
    }
}

#[test]
fn parallel_checking_is_byte_identical_to_sequential_across_the_corpus() {
    let apps = corpus::apps::all();
    let mut rng = Rng::new(0xBEEF02);
    for round in 0..3 {
        for &i in &shuffled(&mut rng, apps.len()) {
            let app = &apps[i];
            let threads = 2 + rng.below(5) as usize; // 2..=6 workers
            let env = app.build_env();
            let program =
                ruby_syntax::parse_program_strict(&app.full_source()).expect("corpus app parses");
            let sequential =
                TypeChecker::new(&env, &program, CheckOptions::default()).check_labeled("app");
            let selected = TypeChecker::labeled_methods(&env, &program, "app");
            let parallel = TypeChecker::check_methods_parallel(
                &env,
                &program,
                CheckOptions::default(),
                &selected,
                threads,
                &[],
            );
            assert_eq!(
                fingerprint(&sequential),
                fingerprint(&parallel),
                "round {round}: parallel ({threads} workers) diverged for {}",
                app.name
            );
        }
    }
}

#[test]
fn evaluate_app_rows_render_identically_for_any_thread_count() {
    // The driver-level guarantee behind `table2_parallel` and the check
    // cache: a Table 2 row's deterministic columns and sorted diagnostics
    // depend neither on how many threads checked the app nor on whether
    // (and how warmly) a cache replayed its verdicts.  Grid per app:
    // threads {1, 4} x {no cache, empty cache, warm cache + one edit}.
    let render = |row: &corpus::Table2Row| corpus::stable_report(std::slice::from_ref(row));
    let run = |app: &corpus::App,
               source: Option<&str>,
               threads: usize,
               cache: Option<&mut CheckCache>| {
        corpus::evaluate_app(app, source, threads, &Arc::new(SharedMemo::new()), cache)
            .unwrap_or_else(|e| panic!("{}: {e}", app.name))
    };
    let mut parallel_merges = 0usize;
    for app in corpus::apps::all() {
        let env = app.build_env();
        let (program, _, _) = app.parse();
        // Edit the last editable labeled method, so the re-checked misses
        // are not a prefix of the replayed slots.
        let edited = TypeChecker::labeled_methods(&env, &program, "app")
            .iter()
            .rev()
            .find_map(|(_, def)| corpus::with_method_edit(app.source, &def.name))
            .expect("some labeled method has an editable def line");
        let pristine = render(&run(&app, None, 1, None).0);
        let edited_ref = render(&run(&app, Some(&edited), 1, None).0);
        for threads in [1, 4] {
            let cell = format!("{} threads={threads}", app.name);
            assert_eq!(render(&run(&app, None, threads, None).0), pristine, "{cell}, no cache");

            let mut cache = CheckCache::new();
            let (row, stats) = run(&app, None, threads, Some(&mut cache));
            assert_eq!(render(&row), pristine, "{cell}, empty cache");
            assert_eq!(stats.comp.replayed, 0, "{cell}: an empty cache replays nothing");

            let (row, stats) = run(&app, Some(&edited), threads, Some(&mut cache));
            assert_eq!(render(&row), edited_ref, "{cell}, warm cache + one edit");
            if threads > 1 && stats.comp.replayed > 0 && stats.comp.checked() > 0 {
                parallel_merges += 1;
            }
        }
    }
    assert!(parallel_merges > 0, "some edit must mix replay with a parallel re-check");
}

#[test]
fn the_eval_cache_agrees_with_uncached_checking_and_hits_on_the_scale_workload() {
    let (env, source) = scale::scale_workload(40);
    let program = ruby_syntax::parse_program_strict(&source).expect("generated workload parses");
    let check = |options| TypeChecker::new(&env, &program, options).check_labeled("app");
    let cached = check(CheckOptions::default());
    let uncached = check(CheckOptions { use_eval_cache: false, ..CheckOptions::default() });
    let selected = TypeChecker::labeled_methods(&env, &program, "app");
    let parallel = TypeChecker::check_methods_parallel(
        &env,
        &program,
        CheckOptions::default(),
        &selected,
        4,
        &[],
    );
    // The workload type checks cleanly, so the inserted checks (site and
    // rendered expected type, in program order) carry the comparison.
    let shape = |r: &comprdl::ProgramCheckResult| {
        let errors: Vec<String> = r.errors().iter().map(|e| e.to_string()).collect();
        let checks: Vec<_> = r
            .methods
            .iter()
            .flat_map(|m| &m.checks)
            .map(|c| (c.site, r.store.render(&c.expected_return)))
            .collect();
        (errors, r.total_casts(), r.methods_checked(), checks)
    };
    let sequential = shape(&cached);
    assert_eq!(sequential.3.len(), 280, "seven inserted checks per method");
    assert_eq!(shape(&uncached), sequential, "the eval cache changed the result");
    assert_eq!(shape(&parallel), sequential, "4-thread checking changed the result");
    assert!(cached.cache_stats.hits > cached.cache_stats.misses, "{:?}", cached.cache_stats);
}
