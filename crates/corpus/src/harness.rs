//! The evaluation harness: reproduces Table 1 and Table 2 of the paper.

use crate::app::App;
use crate::driver::{evaluate_app, run_checked_suite, run_plain_suite, CheckedRun};
use crate::fault::FaultPlan;
use comprdl::{BlameDiagnostic, CheckConfig, CheckOptions, CompRdl, SharedMemo, TypeChecker};
use diagnostics::{Diagnostic, DiagnosticBag};
use ruby_interp::ResolvedProgram;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// One row of Table 1 (library methods with comp type definitions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Library name.
    pub library: String,
    /// Number of comp type definitions (method annotations registered).
    pub comp_type_definitions: usize,
    /// Lines of type-level code (annotation strings).
    pub ruby_loc: usize,
}

/// One row of Table 2 (type checking results per subject program).
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Program name.
    pub program: String,
    /// Table 2 group ("API client libraries" / "Rails Applications").
    pub group: String,
    /// Number of methods type checked.
    pub methods: usize,
    /// Lines of code of the checked methods.
    pub loc: usize,
    /// Extra annotations written for globals / instance variables / callees.
    pub extra_annotations: usize,
    /// Casts needed with comp types.
    pub casts: usize,
    /// Casts needed with plain RDL (comp types disabled).
    pub casts_rdl: usize,
    /// Type checking time (comp types enabled).
    pub check_time: Duration,
    /// Test-suite time without dynamic checks.
    pub test_time_no_chk: Duration,
    /// Test-suite time with dynamic checks.
    pub test_time_with_chk: Duration,
    /// Number of dynamic checks executed during the checked test run.
    pub dynamic_checks_run: u64,
    /// Every error from the comp-type checking run as a [`Diagnostic`],
    /// aggregated per app through the shared diagnostics spine.
    pub diagnostics: DiagnosticBag,
    /// Every runtime blame the checked test run recorded, as span-carrying
    /// [`Diagnostic`]s, **in execution order** (never sorted: memoized and
    /// unmemoized runs must agree on the sequence, not just the set).
    /// Empty for apps whose suites never blame.
    pub runtime_blames: DiagnosticBag,
    /// `LINT01xx` warnings from the dataflow lint suite over the app's
    /// parsed program, sorted canonically (span, then code).  Warnings, not
    /// errors: they never count toward [`Table2Row::errors`].
    pub lints: DiagnosticBag,
}

impl Table2Row {
    /// Errors found by type checking.  Counts only
    /// [`diagnostics::Severity::Error`] entries of
    /// [`Table2Row::diagnostics`], so lint warnings (or any other
    /// warning-severity diagnostic an aggregator folds in) can never
    /// inflate the paper's "Errs" column.
    pub fn errors(&self) -> usize {
        self.diagnostics.error_count()
    }

    /// Lint warnings found by the dataflow lint suite (the size of
    /// [`Table2Row::lints`]).
    pub fn lint_warnings(&self) -> usize {
        self.lints.warning_count()
    }
}

/// An error produced while evaluating an app (parse failure, runtime blame in
/// its test suite, ...).
#[derive(Debug, Clone)]
pub struct HarnessError {
    /// Which app failed.
    pub app: String,
    /// Description of the failure.
    pub message: String,
    /// The underlying error as a [`Diagnostic`], when one exists (a parse
    /// error or runtime error carries a span; a missing fixture does not).
    /// Boxed to keep the `Err` variant small.
    pub diagnostic: Option<Box<Diagnostic>>,
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.app, self.message)?;
        if let Some(d) = &self.diagnostic {
            write!(f, " [{}]", d.code)?;
        }
        Ok(())
    }
}

impl std::error::Error for HarnessError {}

/// The environment used for Table 1: core library + both DB DSL annotation
/// sets over the Discourse schema.
pub fn table1_env() -> CompRdl {
    crate::apps::discourse::app().build_env()
}

/// Regenerates Table 1: per library, the number of comp type definitions and
/// the lines of type-level code, plus the shared helper-method count.
pub fn table1() -> (Vec<Table1Row>, usize) {
    let env = table1_env();
    let libraries = [
        ("Array", "Array"),
        ("Hash", "Hash"),
        ("String", "String"),
        ("Float", "Float"),
        ("Integer", "Integer"),
        ("ActiveRecord", "Table"),
        ("Sequel", "Sequel::Dataset"),
    ];
    let rows = libraries
        .iter()
        .map(|(display, class)| Table1Row {
            library: display.to_string(),
            comp_type_definitions: env.annotation_count(class),
            ruby_loc: env.annotation_loc(class),
        })
        .collect();
    (rows, env.helper_count())
}

/// Aggregates diagnostics across evaluated rows: per app, the bag of every
/// type error its comp-type checking run produced (the per-app error counts
/// of the paper's Table 2, but carrying full span/code information).
pub fn corpus_diagnostics(rows: &[Table2Row]) -> Vec<(String, DiagnosticBag)> {
    rows.iter().map(|row| (row.program.clone(), row.diagnostics.clone())).collect()
}

/// Renders the per-app diagnostic aggregation as a compact table: app name,
/// error/warning counts, and counts by diagnostic code.
pub fn format_diagnostic_summary(per_app: &[(String, DiagnosticBag)]) -> String {
    let mut out = String::new();
    out.push_str(
        "Diagnostics per app (aggregated through the shared spine).
",
    );
    for (app, bag) in per_app {
        out.push_str(&format!(
            "{app:<12} {bag}
"
        ));
    }
    let total: usize = per_app.iter().map(|(_, b)| b.len()).sum();
    out.push_str(&format!(
        "{:<12} {total} diagnostics
",
        "Total"
    ));
    out
}

/// Runs the evaluation for every app in the corpus, sequentially and with no
/// cache (see [`evaluate_app`]), against one shared runtime memo.
///
/// # Errors
///
/// Propagates the first [`HarnessError`] encountered.
pub fn table2() -> Result<Vec<Table2Row>, HarnessError> {
    let memo = Arc::new(SharedMemo::new());
    crate::apps::all().iter().map(|app| Ok(evaluate_app(app, None, 1, &memo, None)?.0)).collect()
}

/// Runs the evaluation for every app in the corpus concurrently: one scoped
/// thread per app (the class table, annotations and helper registries are
/// `Send + Sync`, so each thread assembles and uses its environment
/// independently), with per-method work-stealing inside each app's checking
/// and lint passes.  All per-app hooks record into **one** [`SharedMemo`],
/// each under its own app namespace; a store mutation (e.g. the Sequel
/// app's mid-suite migration) bumps only its own namespace's epoch, so no
/// hook of that app can replay a verdict recorded before it, while every
/// other app keeps its warm entries.  Rows come back in corpus order, each
/// row's diagnostics are sorted canonically and its runtime blames are
/// deterministic per app, so everything except the measured wall-clock
/// timings is byte-identical to a [`table2`] run.
///
/// Each app worker runs under `catch_unwind`, and a panic — injected by
/// `plan` or genuine — degrades to a placeholder row carrying one
/// `ICE0001` diagnostic instead of aborting the suite.  Every app the plan
/// does not name evaluates exactly as under [`FaultPlan::none`], so the
/// healthy rows are byte-identical under [`stable_report`] either way.
///
/// # Errors
///
/// Propagates the [`HarnessError`] of the first app (in corpus order) whose
/// evaluation *returned* an error.  Panics never propagate.
pub fn table2_parallel(
    memo: &Arc<SharedMemo>,
    plan: &FaultPlan,
) -> Result<Vec<Table2Row>, HarnessError> {
    let apps = crate::apps::all();
    let per_app_threads = std::thread::available_parallelism()
        .map(|n| n.get().div_ceil(apps.len().max(1)).max(2))
        .unwrap_or(2);
    let results: Vec<Result<Table2Row, HarnessError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = apps
            .iter()
            .map(|app| {
                scope.spawn(move || {
                    // AssertUnwindSafe: on panic the worker's partially
                    // mutated state (its private checker, its memo
                    // namespace) is discarded wholesale — nothing of it
                    // escapes into the placeholder row.
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        if plan.panics_for(app.name) {
                            panic!("injected fault: {} worker", app.name);
                        }
                        Ok(evaluate_app(app, None, per_app_threads, memo, None)?.0)
                    }));
                    run.unwrap_or_else(|payload| Ok(ice_row(app, &*payload)))
                })
            })
            .collect();
        // The worker already converted panics; a panic reaching join here
        // would be a bug in the conversion itself, so fail loudly.
        handles.into_iter().map(|h| h.join().expect("fault isolation failed")).collect()
    });
    results.into_iter().collect()
}

/// The placeholder row for an app whose evaluation worker panicked: zero
/// counters, one `ICE0001` diagnostic naming the panic.  The diagnostic is
/// an error (the app was *not* evaluated) and [`stable_report`] renders it
/// on a distinct `ICE:`-prefixed line.
fn ice_row(app: &App, payload: &(dyn std::any::Any + Send)) -> Table2Row {
    let mut diagnostics = DiagnosticBag::new();
    diagnostics.push(
        Diagnostic::error(
            crate::fault::ICE_CODE,
            format!(
                "internal harness error: evaluation worker for `{}` panicked: {}",
                app.name,
                crate::fault::panic_message(payload)
            ),
        )
        .with_note("the app was not evaluated; all other apps completed normally"),
    );
    Table2Row {
        program: app.name.to_string(),
        group: app.group.to_string(),
        methods: 0,
        loc: ruby_syntax::count_loc(app.source),
        extra_annotations: app.extra_annotations,
        casts: 0,
        casts_rdl: 0,
        check_time: Duration::ZERO,
        test_time_no_chk: Duration::ZERO,
        test_time_with_chk: Duration::ZERO,
        dynamic_checks_run: 0,
        diagnostics,
        runtime_blames: DiagnosticBag::new(),
        lints: DiagnosticBag::new(),
    }
}

/// How many times [`evaluate_overhead`] times each app's no-hook run and
/// its cold memoized run.  One run of a suite takes well under a
/// millisecond, so a single timing says as much about the machine as about
/// the checks; the overhead rows report the median and quartiles of these
/// runs instead.
pub const OVERHEAD_RUNS: usize = 7;

/// One row of the Table 2 **overhead** evaluation: the app's test-suite
/// wall-clock under four configurations (no dynamic checks at all, the
/// paper's pay-at-every-hit checks, the memoized fast path against a cold
/// memo, and a **warm** re-run against a populated memo), plus the
/// correctness evidence that makes the timings comparable — identical
/// check counts and byte-identical blame *sequences* across every checked
/// run.  The no-hook and cold memoized configurations run
/// [`OVERHEAD_RUNS`] times each.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Program name.
    pub program: String,
    /// Test-suite times with no hook installed, in run order.
    pub no_hook: Vec<Duration>,
    /// Test-suite time with `CompRdlHook`, memoization off (the paper's
    /// baseline: every hit pays the full re-evaluation).
    pub unmemoized: Duration,
    /// Test-suite times with `CompRdlHook`, memoization on, each against a
    /// fresh (cold) memo, in run order.
    pub memoized: Vec<Duration>,
    /// Test-suite time of a memoized run against a memo that a cold run
    /// just populated (warm: the run replays the cold run's verdicts).
    pub memoized_warm: Duration,
    /// Dynamic checks executed (identical across all checked runs).
    pub checks_run: u64,
    /// Blame diagnostics produced (byte-identical sequence across all
    /// checked runs; 0 for every app whose suite does not migrate).
    pub blames: usize,
    /// Memo counters from the cold run the warm run replays.
    pub memo_stats: comprdl::CacheStats,
    /// Memo counters from the warm memoized run (mostly hits, unless a
    /// mid-suite migration forces re-validation).
    pub warm_memo_stats: comprdl::CacheStats,
    /// Store-backed types interned after the unmemoized run.
    pub store_unmemoized: usize,
    /// Store-backed types interned after a cold memoized run (bounded by
    /// the number of distinct value shapes, not by hit count).
    pub store_memoized: usize,
}

impl OverheadRow {
    /// Dynamic-check overhead of the unmemoized hook as a fraction of the
    /// median no-hook time.
    pub fn overhead_unmemoized(&self) -> f64 {
        overhead_fraction(Spread::of(&self.no_hook).median, self.unmemoized.as_secs_f64())
    }

    /// Dynamic-check overhead of the memoized hook as a fraction of the
    /// no-hook time, both medians.
    pub fn overhead_memoized(&self) -> f64 {
        overhead_fraction(Spread::of(&self.no_hook).median, Spread::of(&self.memoized).median)
    }

    /// Dynamic-check overhead of the warm memoized run as a fraction of the
    /// median no-hook time.
    pub fn overhead_memoized_warm(&self) -> f64 {
        overhead_fraction(Spread::of(&self.no_hook).median, self.memoized_warm.as_secs_f64())
    }
}

fn overhead_fraction(base: f64, with: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    (with - base) / base
}

/// The median and quartiles of a set of timings, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Spread {
    pub(crate) q1: f64,
    pub(crate) median: f64,
    pub(crate) q3: f64,
}

impl Spread {
    /// The spread of `times`; all zeros when there are none.  Quartiles
    /// interpolate linearly between the two nearest sorted samples.
    pub(crate) fn of(times: &[Duration]) -> Spread {
        let mut sorted: Vec<f64> = times.iter().map(|d| d.as_secs_f64()).collect();
        sorted.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let Some(last) = sorted.len().checked_sub(1) else { return 0.0 };
            let pos = p * last as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        };
        Spread { q1: at(0.25), median: at(0.5), q3: at(0.75) }
    }

    /// `median [q1–q3]` in milliseconds.
    fn render_ms(&self) -> String {
        format!("{:.3} [{:.3}–{:.3}]", self.median * 1e3, self.q1 * 1e3, self.q3 * 1e3)
    }
}

/// Runs one app's test suite under the four Table 2 overhead
/// configurations through the same two suite runs as [`evaluate_app`]:
/// the no-hook run and a memoized run against a fresh [`SharedMemo`],
/// alternately, [`OVERHEAD_RUNS`] times each; one pay-at-every-hit run;
/// then a cold memoized run against the given memo (cold for this app)
/// and a **warm** re-run against the same memo.  Every run is gated on
/// agreement:
///
/// * each memoized run must execute the same number of checks as the
///   unmemoized run and produce a **byte-identical blame sequence** (not
///   just a set: replay order is part of observable behaviour), and
/// * the warm run must agree with the cold one it replays on both — a
///   divergence means the shared memo leaked a verdict across runs
///   (cross-talk), and the row is an error, not a measurement.
///
/// Blame is collected rather than raised (`CheckConfig::raise_blame` off)
/// so the comparison always sees the complete sequence.
///
/// # Errors
///
/// Returns a [`HarnessError`] on a runtime failure or when a correctness
/// gate fails.
pub fn evaluate_overhead(app: &App, memo: &Arc<SharedMemo>) -> Result<OverheadRow, HarnessError> {
    let err =
        |message: String| HarnessError { app: app.name.to_string(), message, diagnostic: None };

    let env = app.build_env();
    let (program, _sources, _parse_diags) = app.parse();
    let comp = TypeChecker::new(&env, &program, CheckOptions::default()).check_labeled("app");
    // Every run shares one resolved program.
    let suite = Rc::new(ResolvedProgram::new(&program));
    let checked_run = |memoize: bool, memo: &Arc<SharedMemo>| {
        let config = CheckConfig { memoize, raise_blame: false };
        run_checked_suite(app, &env, &suite, &comp, memo, config)
    };
    let unmemoized = checked_run(false, &Arc::new(SharedMemo::new()))?;

    // The correctness gate: memoization must not change observable
    // behaviour, in any run.
    let agrees_with_unmemoized = |memoized: &CheckedRun| {
        if unmemoized.checks != memoized.checks {
            return Err(err(format!(
                "memoized run executed {} dynamic checks, unmemoized {}",
                memoized.checks, unmemoized.checks
            )));
        }
        if unmemoized.blames != memoized.blames {
            return Err(err(blame_divergence(
                "unmemoized",
                &unmemoized.blames,
                "memoized",
                &memoized.blames,
            )));
        }
        Ok(())
    };

    let mut no_hook = Vec::with_capacity(OVERHEAD_RUNS);
    let mut memoized = Vec::with_capacity(OVERHEAD_RUNS);
    for _ in 0..OVERHEAD_RUNS {
        no_hook.push(run_plain_suite(app, &suite)?);
        let cold = checked_run(true, &Arc::new(SharedMemo::new()))?;
        agrees_with_unmemoized(&cold)?;
        memoized.push(cold.time);
    }

    // The warm-run gate: a memoized run against a memo that a cold run has
    // just populated must reproduce the cold run exactly.  A divergence
    // here means a verdict leaked across runs or namespaces (shared-memo
    // cross-talk) and fails loudly.
    let cold = checked_run(true, memo)?;
    agrees_with_unmemoized(&cold)?;
    let warm = checked_run(true, memo)?;
    if warm.checks != cold.checks {
        return Err(err(format!(
            "shared-memo cross-talk: warm run executed {} dynamic checks, cold run {}",
            warm.checks, cold.checks
        )));
    }
    if warm.blames != cold.blames {
        return Err(err(format!(
            "shared-memo cross-talk: {}",
            blame_divergence("cold", &cold.blames, "warm", &warm.blames)
        )));
    }

    Ok(OverheadRow {
        program: app.name.to_string(),
        no_hook,
        unmemoized: unmemoized.time,
        memoized,
        memoized_warm: warm.time,
        checks_run: cold.checks,
        blames: cold.blames.len(),
        memo_stats: cold.memo_stats,
        warm_memo_stats: warm.memo_stats,
        store_unmemoized: unmemoized.store_size,
        store_memoized: cold.store_size,
    })
}

/// Describes how two blame sequences differ — first index of divergence
/// included, since order (not just membership) is gated.
fn blame_divergence(
    left_name: &str,
    left: &[BlameDiagnostic],
    right_name: &str,
    right: &[BlameDiagnostic],
) -> String {
    let at = left
        .iter()
        .zip(right.iter())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| left.len().min(right.len()));
    format!(
        "{left_name} and {right_name} blame sequences diverged at index {at} \
         ({} vs {} blames):\n  {left_name}: {left:?}\n  {right_name}: {right:?}",
        left.len(),
        right.len()
    )
}

/// Runs the Table 2 overhead evaluation for every app in the corpus against
/// one shared memo (see [`evaluate_overhead`]), so callers can report its
/// hit/miss statistics after the run.
///
/// # Errors
///
/// Propagates the first [`HarnessError`] encountered — including a
/// correctness-gate failure, which is what the `table2` example and the
/// `overhead_rows_cover_the_whole_corpus_and_pass_the_gate` test rely on.
pub fn table2_overhead(memo: &Arc<SharedMemo>) -> Result<Vec<OverheadRow>, HarnessError> {
    crate::apps::all().iter().map(|app| evaluate_overhead(app, memo)).collect()
}

/// Renders a [`SharedMemo`]'s statistics — entry count, aggregate hit /
/// miss / invalidation / eviction counters, hit rate, and one row per
/// registered namespace (epoch and counters per app) — as the block the
/// `table2` example prints, so regressions in cross-thread hit rate or in
/// namespace isolation are visible in its output.
pub fn format_memo_stats(memo: &SharedMemo) -> String {
    let stats = memo.stats();
    let mut out = format!(
        "SharedMemo: {} entries, {} hits / {} misses / {} invalidations / {} evictions \
         ({:.1}% hit rate)\n",
        memo.len(),
        stats.hits,
        stats.misses,
        stats.invalidations,
        stats.evictions,
        stats.hit_rate() * 100.0,
    );
    // Per-namespace rows: each app's epoch (how many migrations its hooks
    // observed) and its own counters, so one app's churn is attributable
    // instead of being smeared across the aggregate line.
    for ns in memo.namespace_stats() {
        let label = if ns.label.is_empty() {
            format!("ns#{:016x}", ns.namespace)
        } else {
            ns.label.clone()
        };
        out.push_str(&format!(
            "  {label:<12} epoch {:>3}  {:>6} hits / {:>6} misses / {:>4} inval / {:>4} evict \
             ({:.1}% hit rate)\n",
            ns.epoch,
            ns.stats.hits,
            ns.stats.misses,
            ns.stats.invalidations,
            ns.stats.evictions,
            ns.stats.hit_rate() * 100.0,
        ));
    }
    out
}

/// Renders the overhead rows in roughly the layout of the paper's Table 2
/// overhead columns, extended with the memoized fast path (cold and warm)
/// and the memo's evidence (hit counts, store sizes).  The no-hook and cold
/// memoized columns read `median [q1–q3]` over their [`OVERHEAD_RUNS`]
/// runs, and so does the corpus total of each: its run *i* sums every
/// app's run *i*.  The corpus overheads and the checked/plain ratio divide
/// by the median no-hook total.
pub fn format_overhead(rows: &[OverheadRow]) -> String {
    let mut out = format!(
        "Table 2 (overhead). Test-suite time under dynamic checks, in ms; NoHook and Memo read \
         median [q1–q3] over {OVERHEAD_RUNS} runs.\n"
    );
    out.push_str(&format!(
        "{:<12} {:>7} {:>25} {:>9} {:>7} {:>25} {:>7} {:>8} {:>7} {:>9} {:>13} {:>6}\n",
        "Program",
        "DynChk",
        "NoHook",
        "Unmemo",
        "Ovh%",
        "Memo",
        "Ovh%",
        "Warm",
        "Ovh%",
        "Hits(c/w)",
        "Store(un/me)",
        "Blames"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>7} {:>25} {:>9.3} {:>7.1} {:>25} {:>7.1} {:>8.3} {:>7.1} \
             {:>4}/{:<4} {:>6}/{:<6} {:>6}\n",
            r.program,
            r.checks_run,
            Spread::of(&r.no_hook).render_ms(),
            r.unmemoized.as_secs_f64() * 1e3,
            r.overhead_unmemoized() * 100.0,
            Spread::of(&r.memoized).render_ms(),
            r.overhead_memoized() * 100.0,
            r.memoized_warm.as_secs_f64() * 1e3,
            r.overhead_memoized_warm() * 100.0,
            r.memo_stats.hits,
            r.warm_memo_stats.hits,
            r.store_unmemoized,
            r.store_memoized,
            r.blames
        ));
    }
    // Run i of the corpus: every app's run i.
    let totals = |runs: fn(&OverheadRow) -> &[Duration]| {
        let runs_per_app = rows.iter().map(|r| runs(r).len()).min().unwrap_or(0);
        let totals: Vec<Duration> =
            (0..runs_per_app).map(|i| rows.iter().map(|r| runs(r)[i]).sum()).collect();
        Spread::of(&totals)
    };
    let base = totals(|r| &r.no_hook);
    let memo = totals(|r| &r.memoized);
    if base.median > 0.0 {
        let total = |d: fn(&OverheadRow) -> Duration| rows.iter().map(d).sum::<Duration>();
        out.push_str(&format!(
            "Corpus total: no hook {}, memoized {}\n",
            base.render_ms(),
            memo.render_ms()
        ));
        out.push_str(&format!(
            "Overhead across the corpus: {:.1}% unmemoized, {:.1}% memoized, {:.1}% warm\n",
            overhead_fraction(base.median, total(|r| r.unmemoized).as_secs_f64()) * 100.0,
            overhead_fraction(base.median, memo.median) * 100.0,
            overhead_fraction(base.median, total(|r| r.memoized_warm).as_secs_f64()) * 100.0
        ));
        out.push_str(&format!(
            "Checked/plain ratio (memoized cold over no hook, corpus medians): {:.2}\n",
            memo.median / base.median
        ));
    }
    out
}

/// Renders every deterministic column of the given rows (plus each row's
/// diagnostic summary) — everything in Table 2 except the measured
/// wall-clock timings.  Sequential and parallel runs over the same corpus
/// must produce byte-identical output from this function; the test suite
/// enforces that.
pub fn stable_report(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>6} {:>6} {:>7} {:>6} {:>10} {:>7} {:>5} {:>5}\n",
        "Program", "Meths", "LoC", "Annots", "Casts", "Casts(RDL)", "DynChk", "Errs", "Lints"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>6} {:>6} {:>7} {:>6} {:>10} {:>7} {:>5} {:>5}\n",
            r.program,
            r.methods,
            r.loc,
            r.extra_annotations,
            r.casts,
            r.casts_rdl,
            r.dynamic_checks_run,
            r.errors(),
            r.lint_warnings()
        ));
        for d in r.diagnostics.iter() {
            // Internal errors (worker panics) render on a distinct line so
            // a degraded row can never be mistaken for checker output.
            if d.code == crate::fault::ICE_CODE {
                out.push_str(&format!("    ICE: {d}\n"));
            } else {
                out.push_str(&format!("    {d}\n"));
            }
        }
        // Runtime blames in execution order: deterministic per app, so this
        // stays byte-identical between sequential / parallel and memoized /
        // unmemoized runs.
        for d in r.runtime_blames.iter() {
            out.push_str(&format!("    blame: {d}\n"));
        }
        // Lint warnings in canonical order (sorted when the row was built).
        for d in r.lints.iter() {
            out.push_str(&format!("    {d}\n"));
        }
    }
    out.push_str(&format_diagnostic_summary(&corpus_diagnostics(rows)));
    out
}

/// Renders an app's runtime blame diagnostics as annotated source snippets
/// through `diagnostics::render_in`, resolving each blame's call-site span
/// against the app's two-file [`diagnostics::SourceSet`].  Returns the
/// empty string for apps that never blamed.
pub fn render_runtime_blames(app: &App, row: &Table2Row) -> String {
    if row.runtime_blames.is_empty() {
        return String::new();
    }
    let (_, sources, _) = app.parse();
    let mut out = String::new();
    for d in row.runtime_blames.iter() {
        out.push_str(&diagnostics::render_in(&sources, d));
        out.push('\n');
    }
    out
}

/// Renders Table 1 in roughly the paper's layout.
pub fn format_table1(rows: &[Table1Row], helper_count: usize) -> String {
    let mut out = String::new();
    out.push_str("Table 1. Library methods with comp type definitions.\n");
    out.push_str(&format!(
        "{:<14} {:>20} {:>10}\n",
        "Library", "Comp Type Definitions", "Ruby LoC"
    ));
    let mut total_defs = 0;
    let mut total_loc = 0;
    for r in rows {
        total_defs += r.comp_type_definitions;
        total_loc += r.ruby_loc;
        out.push_str(&format!(
            "{:<14} {:>20} {:>10}\n",
            r.library, r.comp_type_definitions, r.ruby_loc
        ));
    }
    out.push_str(&format!("{:<14} {:>20} {:>10}\n", "Total", total_defs, total_loc));
    out.push_str(&format!("Helper methods (shared): {helper_count}\n"));
    out
}

/// Renders Table 2 in roughly the paper's layout.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 2. Type checking results.\n");
    out.push_str(&format!(
        "{:<12} {:>6} {:>6} {:>7} {:>6} {:>10} {:>10} {:>12} {:>12} {:>5}\n",
        "Program",
        "Meths",
        "LoC",
        "Annots",
        "Casts",
        "Casts(RDL)",
        "Check(ms)",
        "NoChk(ms)",
        "w/Chk(ms)",
        "Errs"
    ));
    let mut totals = (0usize, 0usize, 0usize, 0usize, 0usize, 0usize, 0.0f64, 0.0f64, 0.0f64);
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>6} {:>6} {:>7} {:>6} {:>10} {:>10.2} {:>12.3} {:>12.3} {:>5}\n",
            r.program,
            r.methods,
            r.loc,
            r.extra_annotations,
            r.casts,
            r.casts_rdl,
            r.check_time.as_secs_f64() * 1000.0,
            r.test_time_no_chk.as_secs_f64() * 1000.0,
            r.test_time_with_chk.as_secs_f64() * 1000.0,
            r.errors()
        ));
        totals.0 += r.methods;
        totals.1 += r.loc;
        totals.2 += r.extra_annotations;
        totals.3 += r.casts;
        totals.4 += r.casts_rdl;
        totals.5 += r.errors();
        totals.6 += r.check_time.as_secs_f64() * 1000.0;
        totals.7 += r.test_time_no_chk.as_secs_f64() * 1000.0;
        totals.8 += r.test_time_with_chk.as_secs_f64() * 1000.0;
    }
    out.push_str(&format!(
        "{:<12} {:>6} {:>6} {:>7} {:>6} {:>10} {:>10.2} {:>12.3} {:>12.3} {:>5}\n",
        "Total",
        totals.0,
        totals.1,
        totals.2,
        totals.3,
        totals.4,
        totals.6,
        totals.7,
        totals.8,
        totals.5
    ));
    let ratio = if totals.3 > 0 { totals.4 as f64 / totals.3 as f64 } else { f64::INFINITY };
    out.push_str(&format!("Cast reduction (RDL / CompRDL): {ratio:.2}x\n"));
    out
}
