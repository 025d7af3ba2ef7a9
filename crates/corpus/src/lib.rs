//! # corpus
//!
//! The evaluation corpus for CompRDL-rs: synthetic subject programs
//! standing in for the paper's Wikipedia client, Twitter gem, Discourse,
//! Huginn, Code.org and Journey (each with a schema, annotations, the three
//! confirmed bugs seeded in the right places, and a small runnable test
//! suite), plus the grown corpus's additions — the call-site-dense Redmine
//! analogue and the Sequel-DSL subject whose suite migrates its schema
//! mid-run — and the harness that regenerates Table 1, Table 2 and the
//! Table 2 dynamic-check overhead comparison
//! ([`harness::table2_overhead`]), all checked runs sharing one concurrent
//! runtime memo ([`comprdl::SharedMemo`]).  Every Table 2 row comes from one
//! driver, [`evaluate_app`], whose batch, parallel and incremental uses
//! differ only in thread count and whether a check cache is attached.
//!
//! Each app parses as a **two-file** program — source plus test suite, each
//! with its own span file id (see [`App::parse`]) — so call-site identities
//! never collide across files.
//!
//! ```
//! let (rows, helpers) = corpus::table1();
//! assert_eq!(rows.len(), 7);
//! assert!(helpers > 10);
//! ```

#![warn(missing_docs)]

pub mod app;
pub mod apps;
pub mod driver;
pub mod effects;
pub mod fault;
pub mod harness;
pub mod incremental;
pub mod lints;

pub use app::App;
pub use driver::evaluate_app;
pub use effects::{
    effects_pass, replay_baseline, seed_map, summaries_to_inferred, summaries_to_records,
};
pub use fault::FaultPlan;
pub use harness::{
    corpus_diagnostics, format_diagnostic_summary, format_memo_stats, format_overhead,
    format_table1, format_table2, render_runtime_blames, stable_report, table1, table2,
    table2_overhead, table2_parallel, Table2Row,
};
pub use incremental::{
    evaluate_app_incremental, table2_incremental, with_broken_method, with_layout_noise,
    with_method_edit,
};
pub use lints::{findings_to_records, lint_bag, lint_pass_with_summaries, record_to_diagnostic};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_covers_all_seven_libraries() {
        let (rows, helpers) = table1();
        let pinned: Vec<(&str, usize, usize)> = rows
            .iter()
            .map(|r| (r.library.as_str(), r.comp_type_definitions, r.ruby_loc))
            .collect();
        assert_eq!(
            pinned,
            [
                ("Array", 124, 124),
                ("Hash", 59, 59),
                ("String", 117, 117),
                ("Float", 95, 95),
                ("Integer", 105, 105),
                ("ActiveRecord", 79, 79),
                ("Sequel", 36, 36),
            ]
        );
        assert_eq!(helpers, 27);
        // The libraries are shared across environments; merging them into
        // one must never add to the LoC another environment reports.
        assert_eq!(table1(), (rows.clone(), helpers));
        let rendered = format_table1(&rows, helpers);
        assert!(rendered.contains("ActiveRecord"));
        assert!(rendered.contains("Total"));
    }

    #[test]
    fn every_app_parses_and_type_checks_with_expected_errors() {
        for app in apps::all() {
            let env = app.build_env();
            let program = ruby_syntax::parse_program_strict(&app.full_source())
                .unwrap_or_else(|e| panic!("{}: parse error: {e}", app.name));
            let result =
                comprdl::TypeChecker::new(&env, &program, comprdl::CheckOptions::default())
                    .check_labeled("app");
            assert_eq!(
                result.errors().len(),
                app.expected_errors,
                "{}: unexpected error set {:#?}",
                app.name,
                result.errors()
            );
            assert!(result.methods_checked() >= 3, "{}: too few methods checked", app.name);
        }
    }

    #[test]
    fn comp_types_need_fewer_casts_than_plain_rdl() {
        let rows = table2().expect("harness");
        let casts: usize = rows.iter().map(|r| r.casts).sum();
        let casts_rdl: usize = rows.iter().map(|r| r.casts_rdl).sum();
        assert!(
            casts_rdl > casts,
            "expected plain RDL to need more casts ({casts_rdl} vs {casts})"
        );
        assert!(
            casts_rdl as f64 >= 2.0 * casts.max(1) as f64,
            "expected a substantial cast reduction ({casts_rdl} vs {casts})"
        );
    }

    #[test]
    fn the_three_seeded_bugs_are_found() {
        let rows = table2().expect("harness");
        let errors: usize = rows.iter().map(|r| r.errors()).sum();
        assert_eq!(errors, 3, "{rows:#?}");
        let by_name = |name: &str| rows.iter().find(|r| r.program == name).unwrap().errors();
        assert_eq!(by_name("Code.org"), 1);
        assert_eq!(by_name("Journey"), 2);
        assert_eq!(by_name("Discourse"), 0);
    }

    #[test]
    fn parallel_table2_output_is_byte_identical_to_sequential() {
        let sequential = table2().expect("sequential harness");
        let memo = std::sync::Arc::new(comprdl::SharedMemo::new());
        let parallel = table2_parallel(&memo, &FaultPlan::none()).expect("parallel harness");
        assert_eq!(
            stable_report(&sequential),
            stable_report(&parallel),
            "sequential and parallel corpus runs must agree on every deterministic column"
        );
        assert!(
            memo.stats().hits > 0,
            "the parallel harness must hit its memo: {:?}",
            memo.stats()
        );
    }

    #[test]
    fn overhead_rows_cover_the_whole_corpus_and_pass_the_gate() {
        let memo = std::sync::Arc::new(comprdl::SharedMemo::new());
        let rows = table2_overhead(&memo).expect("overhead harness (includes the blame-set gate)");
        assert_eq!(rows.len(), 8, "eight apps: the paper's six plus Redmine and Sequel");
        for row in &rows {
            assert!(row.checks_run > 0, "{}: no dynamic checks executed", row.program);
            if row.program == "Sequel" {
                // The migrating app blames by design — three post-migration
                // hits of `amount_of`'s consistency check per run.
                assert_eq!(row.blames, 3, "{}: migration blames expected", row.program);
            } else {
                assert_eq!(row.blames, 0, "{}: healthy app must not blame", row.program);
            }
            assert!(
                row.store_memoized <= row.store_unmemoized,
                "{}: memoized interning grew the store past the baseline ({} > {})",
                row.program,
                row.store_memoized,
                row.store_unmemoized
            );
        }
        // The dense app is the one the memo is for: its sites repeat, so the
        // memo must actually hit, and interning must stay bounded well below
        // one allocation batch per hit.
        let redmine = rows.iter().find(|r| r.program == "Redmine").expect("redmine row");
        assert!(redmine.checks_run > 300, "dense workload: {} checks", redmine.checks_run);
        assert!(
            redmine.memo_stats.hits > redmine.memo_stats.misses,
            "memo should mostly hit on the dense workload: {:?}",
            redmine.memo_stats
        );
        assert!(
            redmine.store_memoized < redmine.store_unmemoized / 2,
            "memoized store should stay far smaller ({} vs {})",
            redmine.store_memoized,
            redmine.store_unmemoized
        );
        // The warm run replays the cold run's verdicts from the shared memo.
        assert!(
            redmine.warm_memo_stats.hits >= redmine.memo_stats.hits
                && redmine.warm_memo_stats.hits > redmine.warm_memo_stats.misses,
            "the warm run must hit at least as often as the cold one and mostly hit: \
             warm {:?}, cold {:?}",
            redmine.warm_memo_stats,
            redmine.memo_stats
        );
        // Sequel's mid-suite migration must invalidate its shared entries.
        assert!(memo.stats().invalidations > 0, "no invalidations: {:?}", memo.stats());
        let rendered = format_overhead(&rows);
        assert!(rendered.contains("Redmine"), "{rendered}");
        assert!(rendered.contains("Overhead across the corpus"), "{rendered}");
    }

    #[test]
    fn multi_file_parsing_fires_the_same_checks_as_the_single_file_view() {
        // Regression for the span-collision bug: in the two-file parse the
        // test suite's byte offsets restart at 0 and overlap the app
        // source's; only the file id in the span keeps the inserted checks
        // from firing at test-file sites.  The single-file concatenation
        // never collides (offsets are disjoint), so equal dynamic-check
        // counts mean the file id did its job.
        for app in apps::all() {
            let env = app.build_env();
            let single = ruby_syntax::parse_program_strict(&app.full_source()).expect("parses");
            let (multi, sources, _) = app.parse();
            assert_eq!(sources.len(), 2);

            let run = |program: &ruby_syntax::Program| {
                let result =
                    comprdl::TypeChecker::new(&env, program, comprdl::CheckOptions::default())
                        .check_labeled("app");
                // Blame is collected, not raised: the Sequel app's suite
                // blames by design after its mid-suite migration.
                let hook = comprdl::make_hook(
                    result.checks(),
                    result.store.clone(),
                    env.classes.clone(),
                    env.helpers.clone(),
                    comprdl::CheckConfig { raise_blame: false, ..comprdl::CheckConfig::default() },
                );
                let mut interp = ruby_interp::Interpreter::new(program.clone());
                interp.set_hook(hook);
                interp.eval_program().expect("suite passes");
                interp.checks_performed()
            };
            assert_eq!(
                run(&single),
                run(&multi),
                "{}: dynamic-check count changed between single- and multi-file parsing",
                app.name
            );
        }
    }

    #[test]
    fn sequel_blames_render_as_snippets_byte_identical_across_runs() {
        // The acceptance criterion: warm-run blame output renders as
        // span-annotated snippets via `render_in`, byte-identical to the
        // unmemoized sequential run.
        let app = apps::sequel::app();

        // Unmemoized sequential baseline, assembled by hand.
        let env = app.build_env();
        let (program, sources, _) = app.parse();
        let comp = comprdl::TypeChecker::new(&env, &program, comprdl::CheckOptions::default())
            .check_labeled("app");
        let hook = comprdl::make_hook(
            comp.checks(),
            comp.store.clone(),
            env.classes.clone(),
            env.helpers.clone(),
            comprdl::CheckConfig {
                memoize: false,
                raise_blame: false,
                ..comprdl::CheckConfig::default()
            },
        );
        let mut interp = ruby_interp::Interpreter::new(program.clone());
        interp.set_hook(hook.clone());
        interp.eval_program().expect("suite passes with blame collected");
        let baseline: Vec<diagnostics::Diagnostic> =
            hook.take_blames().into_iter().map(Into::into).collect();
        assert_eq!(baseline.len(), 3, "three post-migration consistency blames");
        let rendered_baseline: String =
            baseline.iter().map(|d| diagnostics::render_in(&sources, d) + "\n").collect();
        assert!(rendered_baseline.contains("--> sequel.rb:"), "{rendered_baseline}");
        assert!(rendered_baseline.contains("^"), "carets annotate the call site");
        assert!(
            rendered_baseline.contains("blame raised at this checked call"),
            "{rendered_baseline}"
        );
        assert!(rendered_baseline.contains("type-check time"), "{rendered_baseline}");

        // A cold and then a warm memoized run against one shared memo must
        // both reproduce the baseline's rendered output byte for byte.
        let memo = std::sync::Arc::new(comprdl::SharedMemo::new());
        let cold = evaluate_app(&app, None, 1, &memo, None).expect("cold run").0;
        let warm = evaluate_app(&app, None, 1, &memo, None).expect("warm run").0;
        for (label, row) in [("cold", &cold), ("warm", &warm)] {
            assert_eq!(
                render_runtime_blames(&app, row),
                rendered_baseline,
                "{label} memoized run's rendered blame diverged from the unmemoized baseline"
            );
        }
        assert!(memo.stats().hits > 0, "the warm run must replay from the shared memo");
    }

    #[test]
    fn test_suites_run_with_dynamic_checks_enabled() {
        let rows = table2().expect("harness");
        for row in &rows {
            assert!(row.dynamic_checks_run > 0, "{}: no dynamic checks executed", row.program);
            assert!(row.methods >= 3);
        }
        let rendered = format_table2(&rows);
        assert!(rendered.contains("Cast reduction"));
    }
}
