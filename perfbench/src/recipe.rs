//! The traced recipes: the corpus entry points re-run one public call at a
//! time, each call inside a span.
//!
//! [`app_shared`] calls the layers in the order
//! `corpus::evaluate_app_shared` does (sequential checking), and
//! [`app_incremental`] in the order `corpus::evaluate_app_incremental`
//! does, so a traced pass does the same work as the untraced entry point.
//! Every traced pass's `corpus::stable_report` is compared byte for byte
//! with the entry point's on the same input; a recipe that drifted from its
//! entry point fails that comparison.  The dense app has no corpus entry
//! point, so [`dense_pass`] is the recipe for both its timed and its traced
//! passes.

use crate::dense::DenseApp;
use crate::trace::Tracer;
use analysis::ProgramSummaries;
use comprdl::persist::content_hash;
use comprdl::semdep::{env_hash, DepGraph};
use comprdl::{
    CheckCache, CheckConfig, CheckOptions, CompRdl, InferredEffect, MethodCheckResult,
    ProgramCheckResult, SharedMemo, TypeChecker,
};
use corpus::{App, Table2Row};
use diagnostics::{Diagnostic, DiagnosticBag};
use rdl_types::TypeStore;
use ruby_interp::Interpreter;
use ruby_syntax::ast::MethodDef;
use ruby_syntax::Program;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counts a comp-type cache's hits and lookups for one checking run.
fn count_eval_cache(tr: &Tracer, result: &ProgramCheckResult) {
    let stats = result.cache_stats;
    tr.add("cache.eval_hits", stats.hits as f64);
    tr.add("cache.eval_lookups", (stats.hits + stats.misses) as f64);
}

/// A from-scratch checking run (comp types on or off), as in
/// `evaluate_app_shared` with one checker thread.
fn check_fresh(
    tr: &Tracer,
    span: &'static str,
    env: &CompRdl,
    program: &Program,
    options: CheckOptions,
    inferred: Option<&[InferredEffect]>,
) -> ProgramCheckResult {
    let result = tr.span(span, || {
        let mut checker = TypeChecker::new(env, program, options);
        if let Some(inferred) = inferred {
            checker.install_inferred_effects(inferred);
        }
        checker.check_labeled("app")
    });
    tr.add("checker.verdicts", result.methods_checked() as f64);
    tr.add("checker.rechecked", result.methods_checked() as f64);
    count_eval_cache(tr, &result);
    result
}

/// The two test-suite runs: without a hook, then with the inserted dynamic
/// checks recording into `memo`.  Returns the checked run's check count and
/// blame diagnostics.
fn run_suites(
    tr: &Tracer,
    app_name: &str,
    env: &CompRdl,
    program: &Program,
    comp: &ProgramCheckResult,
    memo: &Arc<SharedMemo>,
) -> Result<(u64, DiagnosticBag), String> {
    tr.span("ruby_interp.suite", || Interpreter::new(program.clone()).eval_program())
        .map_err(|e| format!("{app_name}: test suite failed without checks: {e}"))?;
    tr.span("runtime.checked_suite", || {
        let hook = comprdl::make_hook_shared(
            comp.checks(),
            comp.store.clone(),
            env.classes.clone(),
            env.helpers.clone(),
            CheckConfig { raise_blame: false, ..CheckConfig::default() },
            memo.clone(),
            memo.register_namespace(app_name),
        );
        let mut checked = Interpreter::new(program.clone());
        checked.set_hook(hook.clone());
        checked
            .eval_program()
            .map_err(|e| format!("{app_name}: test suite failed with dynamic checks: {e}"))?;
        let blames: DiagnosticBag = hook.take_blames().into_iter().map(Diagnostic::from).collect();
        tr.add("runtime.dynamic_checks", checked.checks_performed() as f64);
        Ok((checked.checks_performed(), blames))
    })
}

/// The row's error bag: checker errors, `TERM0004` conflicts and parse
/// diagnostics, in canonical order.
fn diagnostics_bag(
    tr: &Tracer,
    env: &CompRdl,
    program: &Program,
    comp: &ProgramCheckResult,
    inferred: &[InferredEffect],
    parse_diags: Vec<Diagnostic>,
) -> DiagnosticBag {
    let mut bag: DiagnosticBag = comp.errors().into_iter().cloned().map(Diagnostic::from).collect();
    let conflicts = tr
        .span("checker.effect_conflicts", || TypeChecker::effect_conflicts(env, program, inferred));
    bag.extend(conflicts.into_iter().map(Diagnostic::from));
    bag.extend(parse_diags);
    bag.sort_by_span_then_code();
    bag
}

/// Parses `source` as the app's two-file program inside a span.
fn parse(tr: &Tracer, app: &App, source: &str) -> (Program, Vec<Diagnostic>) {
    let (program, _sources, diags) = tr.span("ruby_syntax.parse", || app.parse_with_source(source));
    tr.add("ruby_syntax.parse.methods", program.methods().len() as f64);
    (program, diags)
}

fn build_env(tr: &Tracer, app: &App) -> CompRdl {
    tr.add("app.build_env.calls", 1.0);
    tr.span("app.build_env", || app.build_env())
}

/// Records the memo's counters for one pass.
pub fn count_memo(tr: &Tracer, memo: &SharedMemo) {
    let stats = memo.stats();
    tr.add("memo.hits", stats.hits as f64);
    tr.add("memo.misses", stats.misses as f64);
}

/// What the checking stages produce for one app.
struct Checked {
    comp: ProgramCheckResult,
    rdl: ProgramCheckResult,
    lints: DiagnosticBag,
    /// Wall time of the comp-type checking stage (`Table2Row::check_time`).
    check_time: Duration,
}

/// The from-scratch static stages of `evaluate_app_shared`: effect
/// summaries, comp-type check, lints, plain-RDL check.
fn check_static(tr: &Tracer, env: &CompRdl, program: &Program) -> (Checked, Vec<InferredEffect>) {
    let (summaries, inferred) = tr.span("summaries", || {
        let seed = corpus::seed_map(env);
        let summaries = corpus::effects_pass(program, &seed, 1);
        let inferred = corpus::summaries_to_inferred(&summaries);
        (summaries, inferred)
    });
    tr.add("summaries.total", summaries.len() as f64);
    tr.add("summaries.resummarized", summaries.len() as f64);

    let started = Instant::now();
    let comp =
        check_fresh(tr, "checker.comp", env, program, CheckOptions::default(), Some(&inferred));
    let check_time = started.elapsed();
    let lints = tr.span("lints", || {
        corpus::lint_bag(&corpus::lint_pass_with_summaries(program, Some(&summaries), 1))
    });
    tr.add("lints.relinted", program.methods().len() as f64);
    let plain_options = CheckOptions { use_comp_types: false, ..CheckOptions::default() };
    let rdl = check_fresh(tr, "checker.plain", env, program, plain_options, None);
    (Checked { comp, rdl, lints, check_time }, inferred)
}

/// `corpus::evaluate_app_shared(app, 1, memo)`, traced.
pub fn app_shared(app: &App, memo: &Arc<SharedMemo>, tr: &Tracer) -> Result<Table2Row, String> {
    let env = build_env(tr, app);
    let (program, parse_diags) = parse(tr, app, app.source);
    let (checked, inferred) = check_static(tr, &env, &program);
    let suites = run_suites(tr, app.name, &env, &program, &checked.comp, memo)?;
    let diagnostics = diagnostics_bag(tr, &env, &program, &checked.comp, &inferred, parse_diags);
    Ok(row(app, app.source, checked, diagnostics, suites))
}

/// Assembles the row exactly as the corpus entry points do.  The suite timings
/// are left at zero: `stable_report` leaves them out.
fn row(
    app: &App,
    source: &str,
    checked: Checked,
    diagnostics: DiagnosticBag,
    (dynamic_checks_run, runtime_blames): (u64, DiagnosticBag),
) -> Table2Row {
    Table2Row {
        program: app.name.to_string(),
        group: app.group.to_string(),
        methods: checked.comp.methods_checked(),
        loc: ruby_syntax::count_loc(source),
        extra_annotations: app.extra_annotations,
        casts: checked.comp.total_casts(),
        casts_rdl: checked.rdl.total_casts(),
        check_time: checked.check_time,
        test_time_no_chk: Duration::ZERO,
        test_time_with_chk: Duration::ZERO,
        dynamic_checks_run,
        diagnostics,
        runtime_blames,
        lints: checked.lints,
    }
}

/// The validators an incremental run replays against.
struct Validators<'a> {
    env_h: u64,
    files: &'a [u64],
    graph: &'a DepGraph,
}

/// The private `check_incremental` of `corpus::incremental`, traced: replay
/// what the cache proves unchanged (phase A), check the rest (phase B), and
/// merge the phase-B store into the replay store.
#[allow(clippy::too_many_arguments)]
fn check_incremental(
    tr: &Tracer,
    span: &'static str,
    cache: &CheckCache,
    cache_key: &str,
    env: &CompRdl,
    program: &Program,
    options: CheckOptions,
    v: &Validators,
    effects: &[InferredEffect],
) -> ProgramCheckResult {
    let result = tr.span(span, || {
        let selected = TypeChecker::labeled_methods(env, program, "app");
        let total = selected.len();
        let mut store = TypeStore::new();
        let (mut slots, to_check) = tr.span("persist.replay", || {
            let mut slots: Vec<Option<MethodCheckResult>> = Vec::with_capacity(total);
            let mut to_check: Vec<(usize, (String, &MethodDef))> = Vec::new();
            for (idx, (owner, def)) in selected.iter().enumerate() {
                let replayed = v.graph.merkle(owner, &def.name, def.singleton).and_then(|merkle| {
                    cache.replay(cache_key, env, v.env_h, v.files, owner, def, merkle, &mut store)
                });
                if replayed.is_none() {
                    to_check.push((idx, (owner.clone(), *def)));
                }
                slots.push(replayed);
            }
            (slots, to_check)
        });
        tr.add("checker.verdicts", total as f64);
        tr.add("checker.rechecked", to_check.len() as f64);
        tr.add("persist.replay_attempts", total as f64);
        tr.add("persist.replay_hits", (total - to_check.len()) as f64);

        let mut cache_stats = comprdl::CacheStats::default();
        if !to_check.is_empty() {
            let subset: Vec<(String, &MethodDef)> =
                to_check.iter().map(|(_, pair)| pair.clone()).collect();
            let mut checker = TypeChecker::new(env, program, options);
            checker.install_inferred_effects(effects);
            let fresh = checker.check_methods(&subset);
            cache_stats = fresh.cache_stats;
            let shift = store.absorb(fresh.store);
            for ((idx, _), mut result) in to_check.into_iter().zip(fresh.methods) {
                for check in &mut result.checks {
                    check.expected_return = shift.apply(&check.expected_return);
                    if let Some(consistency) = &mut check.consistency {
                        consistency.expected = shift.apply(&consistency.expected);
                    }
                }
                slots[idx] = Some(result);
            }
        }
        let methods: Vec<MethodCheckResult> = slots.into_iter().flatten().collect();
        ProgramCheckResult { methods, store, cache_stats }
    });
    count_eval_cache(tr, &result);
    result
}

/// `corpus::evaluate_app_incremental(app, source_override, cache, memo)`,
/// traced.
pub fn app_incremental(
    app: &App,
    source_override: Option<&str>,
    cache: &mut CheckCache,
    memo: &Arc<SharedMemo>,
    tr: &Tracer,
) -> Result<Table2Row, String> {
    let source = source_override.unwrap_or(app.source);
    let env = build_env(tr, app);
    let (program, parse_diags) = parse(tr, app, source);

    let files = vec![content_hash(source), content_hash(app.test_suite)];
    let env_h = tr.span("semdep.env_hash", || env_hash(&env));
    let graph = tr.span("semdep.build", || DepGraph::build(&env, &program));
    let v = Validators { env_h, files: &files, graph: &graph };

    let all_methods = program.methods();
    let (summaries, inferred) = tr.span("summaries", || {
        let seed = corpus::seed_map(&env);
        let fixed = corpus::replay_baseline(cache, app.name, &program, &graph);
        tr.add("persist.replay_attempts", all_methods.len() as f64);
        tr.add("persist.replay_hits", fixed.len() as f64);
        let (summaries, resummarized) =
            ProgramSummaries::infer_with_baseline(&program, &seed, &fixed);
        tr.add("summaries.resummarized", resummarized as f64);
        let inferred = corpus::summaries_to_inferred(&summaries);
        (summaries, inferred)
    });
    tr.add("summaries.total", summaries.len() as f64);

    let started = Instant::now();
    let comp = check_incremental(
        tr,
        "checker.comp",
        cache,
        app.name,
        &env,
        &program,
        CheckOptions::default(),
        &v,
        &inferred,
    );
    let check_time = started.elapsed();

    let (lints, lint_records) = tr.span("lints", || {
        let mut bag = DiagnosticBag::new();
        let mut records: Vec<(String, &MethodDef, u64, Vec<comprdl::LintRecord>)> =
            Vec::with_capacity(all_methods.len());
        for (owner, def) in &all_methods {
            let merkle = graph
                .merkle(owner, &def.name, def.singleton)
                .unwrap_or_else(|| ruby_syntax::method_hash(def));
            let replayed = tr.span("persist.replay", || {
                cache.replay_lints(app.name, &files, owner, def, merkle)
            });
            tr.add("persist.replay_attempts", 1.0);
            let method_records = match replayed {
                Some(replayed) => {
                    tr.add("persist.replay_hits", 1.0);
                    bag.extend(replayed.iter().map(corpus::record_to_diagnostic));
                    replayed
                }
                None => {
                    tr.add("lints.relinted", 1.0);
                    let fresh = analysis::lint_method_with_summaries(owner, def, Some(&summaries));
                    bag.extend(fresh.findings.iter().map(Diagnostic::from));
                    corpus::findings_to_records(&fresh)
                }
            };
            records.push((owner.clone(), *def, merkle, method_records));
        }
        bag.sort_by_span_then_code();
        (bag, records)
    });

    let plain_key = format!("{}::plain", app.name);
    let plain_options = CheckOptions { use_comp_types: false, ..CheckOptions::default() };
    let rdl = check_incremental(
        tr,
        "checker.plain",
        cache,
        &plain_key,
        &env,
        &program,
        plain_options,
        &v,
        &inferred,
    );

    tr.span("persist.record", || {
        let selected = TypeChecker::labeled_methods(&env, &program, "app");
        fn freeze<'a>(
            selected: &[(String, &'a MethodDef)],
            graph: &DepGraph,
            result: &'a ProgramCheckResult,
        ) -> Vec<(String, &'a MethodDef, u64, &'a MethodCheckResult)> {
            selected
                .iter()
                .zip(&result.methods)
                .map(|((owner, def), verdict)| {
                    let merkle = graph.merkle(owner, &def.name, def.singleton).unwrap_or(0);
                    (owner.clone(), *def, merkle, verdict)
                })
                .collect()
        }
        let (comp_list, rdl_list) =
            (freeze(&selected, &graph, &comp), freeze(&selected, &graph, &rdl));
        cache.record_app(app.name, env_h, files.clone(), &comp_list, &comp.store);
        cache.record_app(&plain_key, env_h, files.clone(), &rdl_list, &rdl.store);
        cache.record_lints(app.name, files.clone(), &lint_records);
        cache.record_effects(app.name, corpus::summaries_to_records(&summaries, &graph));
    });

    let suites = run_suites(tr, app.name, &env, &program, &comp, memo)?;
    let diagnostics = diagnostics_bag(tr, &env, &program, &comp, &inferred, parse_diags);
    Ok(row(app, source, Checked { comp, rdl, lints, check_time }, diagnostics, suites))
}

/// One `dense_app` pass: the static pipeline of `evaluate_app_shared` (env,
/// parse, effect summaries, comp check, lints, plain-RDL check, conflict
/// pass) over the generated app, without the suites.
pub fn dense_pass(app: &DenseApp, tr: &Tracer) -> Table2Row {
    tr.add("app.build_env.calls", 1.0);
    let env = tr.span("app.build_env", || app.build_env());
    let (program, parse_diags) =
        tr.span("ruby_syntax.parse", || ruby_syntax::parse_program_in_file(&app.source, 0));
    tr.add("ruby_syntax.parse.methods", program.methods().len() as f64);
    let (checked, inferred) = check_static(tr, &env, &program);
    let diagnostics = diagnostics_bag(tr, &env, &program, &checked.comp, &inferred, parse_diags);
    // The row's identity columns; the generated app is not a `corpus::App`.
    let label = App {
        name: "Dense",
        group: "Synthetic",
        db: None,
        annotate: |_| {},
        source: "",
        test_suite: "",
        extra_annotations: 0,
        expected_errors: app.ill_typed,
    };
    row(&label, &app.source, checked, diagnostics, (0, DiagnosticBag::new()))
}
