//! The corpus driver: CompRDL's evaluation recipe for one subject program,
//! with or without a persistent [`CheckCache`].
//!
//! [`evaluate_app`] builds the app's environment, parses it, infers effect
//! summaries, type checks with comp types, lints, type checks again in
//! plain-RDL mode (comp types off), runs the test suite without and then
//! with the inserted dynamic checks, and assembles the [`Table2Row`].  Every
//! corpus entry point is this one driver with different settings:
//! [`crate::table2`] is one thread and no cache, [`crate::table2_parallel`]
//! many threads, [`crate::table2_incremental`] a cache.
//!
//! Batch is incremental with no cache.  With a cache, each static layer
//! runs in two phases:
//!
//! 1. **Replay.**  The driver builds the app's [`DepGraph`], which gives
//!    every method a Merkle hash over its own structure plus everything its
//!    verdict depends on (callees, annotation signatures, type-level helper
//!    bodies), and asks the cache for each verdict stored under the same
//!    `(app, env hash, method, Merkle hash)`.  Check verdicts thaw into a
//!    fresh [`TypeStore`] with their spans re-anchored against the current
//!    parse, so layout-only edits replay byte-identically; lint verdicts and
//!    effect summaries replay the same way (summaries a whole SCC at a
//!    time).
//! 2. **Check.**  The misses go through the same call an uncached run makes
//!    for every method — [`TypeChecker::check_methods_parallel`],
//!    [`analysis::lint_methods`], [`ProgramSummaries::infer_with_baseline`]
//!    — and freshly checked verdicts merge into the replay store with
//!    [`MethodCheckResult::absorb_into`], exactly as the parallel checker
//!    merges its worker stores.
//!
//! Both checking passes (the plain-RDL one under `"<app>::plain"`), the
//! lints and the summaries are then recorded back into the cache, which the
//! caller persists with [`CheckCache::save`].  Without a cache the driver
//! computes no environment hash, builds no dependency graph, and replays
//! and records nothing: every method is simply a miss.  Because both modes
//! share every other step, [`crate::stable_report`] over a cached run is
//! byte-identical to an uncached one — that equality is what makes
//! replaying a verdict *sound to observe*: if it ever broke, the cache
//! would be changing answers, not just saving work.

use crate::app::App;
use crate::harness::{HarnessError, Table2Row};
use analysis::{MethodSummary, ProgramSummaries};
use comprdl::persist::content_hash;
use comprdl::semdep::{env_hash, DepGraph};
use comprdl::{
    BlameDiagnostic, CacheStats, CheckCache, CheckConfig, CheckOptions, CompRdl, LintRecord,
    MethodCheckResult, ProgramCheckResult, SharedMemo, TypeChecker,
};
use diagnostics::{Diagnostic, DiagnosticBag};
use rdl_types::TypeStore;
use ruby_interp::{Interpreter, ResolvedProgram, RubyError};
use ruby_syntax::ast::MethodDef;
use ruby_syntax::{MethodId, Program, ProgramIndex};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How much of one layer was replayed from the cache versus computed for
/// real.
#[derive(Debug, Clone, Default)]
pub struct RecheckStats {
    /// Methods in the layer.
    pub total: usize,
    /// Methods whose verdicts replayed from the cache.
    pub replayed: usize,
    /// Methods that had to be re-checked, as `(owner, name, singleton)`
    /// identities in program order (`checked_methods.len()` is the re-check
    /// count).
    pub checked_methods: Vec<MethodId>,
}

impl RecheckStats {
    /// The counters of a layer over `methods` whose `misses` (indices into
    /// `methods`) were computed for real.
    fn new<O: AsRef<str>>(methods: &[(O, &MethodDef)], misses: &[usize]) -> Self {
        let checked_methods = misses
            .iter()
            .map(|&i| {
                let (owner, def) = &methods[i];
                (owner.as_ref().to_string(), def.name.clone(), def.singleton)
            })
            .collect();
        let replayed = methods.len() - misses.len();
        RecheckStats { total: methods.len(), replayed, checked_methods }
    }

    /// Number of methods that had to be re-checked.
    pub fn checked(&self) -> usize {
        self.checked_methods.len()
    }

    /// True when every verdict came from the cache.
    pub fn all_replayed(&self) -> bool {
        self.replayed == self.total && self.checked_methods.is_empty()
    }
}

/// Replay/re-check counters for one app's static layers.  An uncached run
/// re-checks everything.
#[derive(Debug, Clone)]
pub struct AppRecheck {
    /// App name.
    pub app: String,
    /// The comp-type checking pass.
    pub comp: RecheckStats,
    /// The plain-RDL comparison pass (comp types disabled), cached under
    /// `"<app>::plain"`.
    pub plain: RecheckStats,
    /// The dataflow lint pass.  Keyed by each method's **Merkle**
    /// dependency hash — `LINT0105` follows taint through calls, so a lint
    /// verdict depends on the method's transitive callees, exactly what
    /// the Merkle hash covers.  Layout-only edits still replay every
    /// finding (the hash is layout-invariant).
    pub lint: RecheckStats,
    /// The effect-summary inference pass (termination / purity / taint),
    /// Merkle-keyed like the lints.  Replay is per-SCC: a component is
    /// replayed only when every member's cached record matches.
    pub effects: RecheckStats,
}

impl AppRecheck {
    /// True when both checking passes, the lint pass and the effect
    /// inference replayed every verdict.
    pub fn all_replayed(&self) -> bool {
        self.comp.all_replayed()
            && self.plain.all_replayed()
            && self.lint.all_replayed()
            && self.effects.all_replayed()
    }
}

/// A cached run's cache plus the validators it replays against: the content
/// hashes of both files (indexed by span file id: app = 0, tests = 1), the
/// environment hash, and the Merkle dependency hash of every method.  A
/// method without a Merkle hash (one the program defines more than once) is
/// a miss in every layer and is never recorded.
struct Replay<'c> {
    cache: &'c mut CheckCache,
    env_h: u64,
    files: Vec<u64>,
    graph: DepGraph,
}

impl Replay<'_> {
    fn merkle(&self, owner: &str, def: &MethodDef) -> Option<u64> {
        self.graph.merkle(owner, &def.name, def.singleton)
    }

    /// Records one checking pass's verdicts under `key`, replacing any
    /// previous entry.
    fn record_checks(
        &mut self,
        key: &str,
        selected: &[(String, &MethodDef)],
        result: &ProgramCheckResult,
    ) {
        let verdicts: Vec<_> = selected
            .iter()
            .zip(&result.methods)
            .filter_map(|((owner, def), verdict)| {
                Some((owner.clone(), *def, self.merkle(owner, def)?, verdict))
            })
            .collect();
        self.cache.record_app(key, self.env_h, self.files.clone(), &verdicts, &result.store);
    }
}

/// Phase A of a layer: asks `replay` for every method's cached verdict and
/// returns one slot per method (`None` for a miss) plus the misses' indices.
/// Without a cache `replay` always answers `None`.
fn replay_phase<O: AsRef<str>, T>(
    methods: &[(O, &MethodDef)],
    mut replay: impl FnMut(&str, &MethodDef) -> Option<T>,
) -> (Vec<Option<T>>, Vec<usize>) {
    let slots: Vec<Option<T>> =
        methods.iter().map(|(owner, def)| replay(owner.as_ref(), def)).collect();
    let misses = (0..slots.len()).filter(|&i| slots[i].is_none()).collect();
    (slots, misses)
}

/// The methods phase B computes for real; `methods` itself, uncopied, when
/// nothing replayed.
fn missed<'m, 'p, O: Clone>(
    methods: &'m [(O, &'p MethodDef)],
    misses: &[usize],
) -> Cow<'m, [(O, &'p MethodDef)]> {
    if misses.len() == methods.len() {
        Cow::Borrowed(methods)
    } else {
        Cow::Owned(misses.iter().map(|&i| methods[i].clone()).collect())
    }
}

/// What every static layer of one app's evaluation shares.
struct Layers<'a, 'p> {
    env: &'a CompRdl,
    program: &'p Program,
    threads: usize,
    replay: Option<&'a Replay<'a>>,
}

impl<'p> Layers<'_, 'p> {
    /// Effect summaries: cached summaries whose Merkle hash still matches
    /// form the baseline and everything else is inferred against it, whole
    /// SCCs at a time.  Without a cache the baseline is empty, which is
    /// plain inference.
    fn summarize(&self, key: &str) -> (ProgramSummaries<'p>, RecheckStats) {
        let seed = crate::effects::seed_map(self.env);
        let fixed = match self.replay {
            Some(r) => crate::effects::replay_baseline(r.cache, key, self.program, &r.graph),
            None => BTreeMap::new(),
        };
        let (summaries, _) = ProgramSummaries::infer_with_baseline(self.program, &seed, &fixed);
        let id = |s: &MethodSummary| (s.owner.clone(), s.name.clone(), s.singleton);
        let with_scc = || summaries.iter().zip(summaries.scc_ids().iter().copied());
        // A method is re-summarized when any member of its SCC missed.
        let stale: BTreeSet<usize> = with_scc()
            .filter(|(s, _)| fixed.is_empty() || !fixed.contains_key(&id(s)))
            .map(|(_, scc)| scc)
            .collect();
        let checked_methods: Vec<MethodId> =
            with_scc().filter(|(_, scc)| stale.contains(scc)).map(|(s, _)| id(s)).collect();
        let replayed = summaries.len() - checked_methods.len();
        let stats = RecheckStats { total: summaries.len(), replayed, checked_methods };
        (summaries, stats)
    }

    /// One checking pass (comp types on or off) over the `selected`
    /// methods, cached under `key`.  Replayed verdicts thaw into a fresh
    /// store, so the absorbed ids of the freshly checked misses never
    /// collide with them; the merged result is indistinguishable from
    /// checking every method.
    fn check(
        &self,
        key: &str,
        options: CheckOptions,
        selected: &[(String, &MethodDef)],
        effects: &[MethodSummary],
    ) -> (ProgramCheckResult, RecheckStats) {
        let mut store = TypeStore::new();
        let (mut slots, misses) = replay_phase(selected, |owner, def| {
            let r = self.replay?;
            let merkle = r.merkle(owner, def)?;
            r.cache.replay(key, self.env, r.env_h, &r.files, owner, def, merkle, &mut store)
        });
        let stats = RecheckStats::new(selected, &misses);
        let mut cache_stats = CacheStats::default();
        if !misses.is_empty() {
            let fresh = TypeChecker::check_methods_parallel(
                self.env,
                self.program,
                options,
                &missed(selected, &misses),
                self.threads,
                effects,
            );
            if misses.len() == selected.len() {
                // Nothing replayed (always so without a cache).
                return (fresh, stats);
            }
            cache_stats = fresh.cache_stats;
            let results = misses.iter().copied().zip(fresh.methods);
            MethodCheckResult::absorb_into(&mut slots, &mut store, fresh.store, results);
        }
        let methods = slots.into_iter().flatten().collect();
        (ProgramCheckResult { methods, store, cache_stats }, stats)
    }

    /// The lint pass over `methods`, cached under `key` by Merkle hash
    /// (`LINT0105` follows taint through calls, so a lint verdict depends
    /// on the method's transitive callees — the semantic hash alone would
    /// replay stale findings after a callee edit).  Every verdict, replayed
    /// or fresh, is a list of [`LintRecord`]s rendered through the same
    /// code-derived notes, so the canonically sorted bag is byte-identical
    /// either way.  Returns the bag, the counters, and one verdict per
    /// method.
    fn lint(
        &self,
        key: &str,
        methods: &[(&str, &MethodDef)],
        summaries: &ProgramSummaries,
    ) -> (DiagnosticBag, RecheckStats, Vec<Vec<LintRecord>>) {
        let (slots, misses) = replay_phase(methods, |owner, def| {
            let r = self.replay?;
            r.cache.replay_lints(key, &r.files, owner, def, r.merkle(owner, def)?)
        });
        let mut fresh =
            analysis::lint_methods(&missed(methods, &misses), Some(summaries), self.threads)
                .into_iter();
        let verdicts: Vec<Vec<LintRecord>> = slots
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    crate::lints::findings_to_records(&fresh.next().expect("a verdict per miss"))
                })
            })
            .collect();
        let mut bag: DiagnosticBag =
            verdicts.iter().flatten().map(crate::lints::record_to_diagnostic).collect();
        bag.sort_by_span_then_code();
        (bag, RecheckStats::new(methods, &misses), verdicts)
    }
}

/// Runs the full evaluation for one app and produces its Table 2 row plus
/// the per-layer replay counters.
///
/// * `source` replaces the app's source text (the edited-file scenario);
///   the test suite is kept as-is.
/// * `threads` is the worker budget of the comp-type check, the plain-RDL
///   check and the lint pass (1 = sequential).  The split is
///   output-invisible: results merge back into program order.
/// * The checked test run records into `memo` under the app's namespace.
/// * With a `cache`, every static layer replays what the cache validates
///   and records its verdicts back (see the module docs); without one,
///   every method is checked.
///
/// The row renders byte-identically under [`crate::stable_report`] for any
/// thread count and with or without a cache: diagnostics and lints are
/// sorted by span then code, and runtime blames keep their (deterministic)
/// execution order.  Blame is collected rather than raised
/// (`CheckConfig::raise_blame` off), so a blaming suite still reports a
/// complete row.
///
/// # Errors
///
/// Returns a [`HarnessError`] if the app's test suite hits a runtime error
/// with or without the dynamic checks (which should not happen for the
/// shipped corpus).  Parsing never fails: recovery diagnostics join the
/// row's bag.
pub fn evaluate_app(
    app: &App,
    source: Option<&str>,
    threads: usize,
    memo: &Arc<SharedMemo>,
    cache: Option<&mut CheckCache>,
) -> Result<(Table2Row, AppRecheck), HarnessError> {
    let source = source.unwrap_or(app.source);
    let env = app.build_env();
    // Parse as a two-file program (app source + test suite, distinct span
    // file ids) so dynamic-check sites cannot collide across files.  A
    // broken method costs exactly its own recovery diagnostic.
    let (program, _sources, parse_diags) = app.parse_with_source(source);
    let mut replay = cache.map(|cache| Replay {
        cache,
        env_h: env_hash(&env),
        files: vec![content_hash(source), content_hash(app.test_suite)],
        graph: DepGraph::build(&env, &program),
    });
    let index = ProgramIndex::new(&program);
    let methods = index.methods();
    let selected = TypeChecker::labeled_methods(&env, &program, "app");
    let plain_key = format!("{}::plain", app.name);
    let layers = Layers { env: &env, program: &program, threads, replay: replay.as_ref() };

    // Effect summaries feed three consumers: the checker's inferred effect
    // layer (below the explicit annotations, in both passes), the
    // taint-aware lint pass, and the TERM0004 annotation-conflict warnings.
    let (summaries, effect_stats) = layers.summarize(app.name);
    let inferred = crate::effects::summaries_to_inferred(&summaries);
    let started = Instant::now();
    let (comp, comp_stats) = layers.check(app.name, CheckOptions::default(), &selected, &inferred);
    let check_time = started.elapsed();
    let (lints, lint_stats, lint_verdicts) = layers.lint(app.name, methods, &summaries);
    let plain_options = CheckOptions { use_comp_types: false, ..CheckOptions::default() };
    let (rdl, plain_stats) = layers.check(&plain_key, plain_options, &selected, &inferred);

    // Record every layer before the suites run, so a suite failure still
    // leaves a fresh cache.  The lint and effect sections come after
    // `record_app`, which rebuilds the app entry against the current file
    // table (dropping any stale lint section; the span-free effect section
    // is preserved and replaced here).
    if let Some(r) = &mut replay {
        r.record_checks(app.name, &selected, &comp);
        r.record_checks(&plain_key, &selected, &rdl);
        let lint_records: Vec<_> = methods
            .iter()
            .zip(lint_verdicts)
            .filter_map(|(&(owner, def), records)| {
                Some((owner.to_string(), def, r.merkle(owner, def)?, records))
            })
            .collect();
        r.cache.record_lints(app.name, r.files.clone(), &lint_records);
        r.cache
            .record_effects(app.name, crate::effects::summaries_to_records(&summaries, &r.graph));
    }

    // Both suite runs share one resolved program.
    let suite = Rc::new(ResolvedProgram::new(&program));
    let test_time_no_chk = run_plain_suite(app, &suite)?;
    let config = CheckConfig { raise_blame: false, ..CheckConfig::default() };
    let checked = run_checked_suite(app, &env, &suite, &comp, memo, config)?;

    // TERM0004 annotation-conflict warnings join the error bag; they are
    // warnings, so `Table2Row::errors` and the seeded-bug pins are
    // unaffected.
    let mut diagnostics: DiagnosticBag =
        comp.errors().into_iter().cloned().map(Diagnostic::from).collect();
    diagnostics.extend(
        TypeChecker::effect_conflicts(&env, &program, &inferred).into_iter().map(Diagnostic::from),
    );
    diagnostics.extend(parse_diags);
    diagnostics.sort_by_span_then_code();

    let row = Table2Row {
        program: app.name.to_string(),
        group: app.group.to_string(),
        methods: comp.methods_checked(),
        loc: ruby_syntax::count_loc(source),
        extra_annotations: app.extra_annotations,
        casts: comp.total_casts(),
        casts_rdl: rdl.total_casts(),
        check_time,
        test_time_no_chk,
        test_time_with_chk: checked.time,
        dynamic_checks_run: checked.checks,
        diagnostics,
        runtime_blames: checked.blames.into_iter().map(Diagnostic::from).collect(),
        lints,
    };
    let stats = AppRecheck {
        app: app.name.to_string(),
        comp: comp_stats,
        plain: plain_stats,
        lint: lint_stats,
        effects: effect_stats,
    };
    Ok((row, stats))
}

fn suite_error(app: &App, with: &str, e: RubyError) -> HarnessError {
    HarnessError {
        app: app.name.to_string(),
        message: format!("test suite failed {with}: {e}"),
        diagnostic: Some(Box::new(e.into())),
    }
}

/// Runs the app's test suite with no hook installed; returns its wall time.
pub(crate) fn run_plain_suite(
    app: &App,
    program: &Rc<ResolvedProgram>,
) -> Result<Duration, HarnessError> {
    let plain = Interpreter::with_program(program.clone());
    let started = Instant::now();
    plain.eval_program().map_err(|e| suite_error(app, "without checks", e))?;
    Ok(started.elapsed())
}

/// What one test-suite run with the inserted dynamic checks observed.
pub(crate) struct CheckedRun {
    /// Wall time of the suite.
    pub time: Duration,
    /// Dynamic checks executed.
    pub checks: u64,
    /// Blame, in execution order.
    pub blames: Vec<BlameDiagnostic>,
    /// The hook's memo counters.
    pub memo_stats: CacheStats,
    /// Store-backed types interned in the hook's store.
    pub store_size: usize,
}

/// Runs the app's test suite with `comp`'s dynamic checks inserted,
/// recording into `memo` under the app's namespace.  Registering (rather
/// than just deriving) the namespace labels the app's row in
/// [`crate::format_memo_stats`].
pub(crate) fn run_checked_suite(
    app: &App,
    env: &CompRdl,
    program: &Rc<ResolvedProgram>,
    comp: &ProgramCheckResult,
    memo: &Arc<SharedMemo>,
    config: CheckConfig,
) -> Result<CheckedRun, HarnessError> {
    let hook = comprdl::make_hook_shared(
        comp.checks(),
        comp.store.clone(),
        env.classes.clone(),
        env.helpers.clone(),
        config,
        memo.clone(),
        memo.register_namespace(app.name),
    );
    let mut interp = Interpreter::with_program(program.clone());
    interp.set_hook(hook.clone());
    let started = Instant::now();
    interp.eval_program().map_err(|e| suite_error(app, "with dynamic checks", e))?;
    Ok(CheckedRun {
        time: started.elapsed(),
        checks: interp.checks_performed(),
        blames: hook.take_blames(),
        memo_stats: hook.memo_stats(),
        store_size: hook.store_size(),
    })
}
