//! Robustness tests for the error-resilient front end: seeded byte-mutation
//! fuzzing of the recovering parser, diagnostic severity partitioning,
//! per-app syntax-error isolation (one broken method must not perturb any
//! other method's verdicts), worker panic isolation in the parallel
//! harness, and incremental break/repair/corruption durability.

use corpus::{
    evaluate_app, evaluate_app_incremental, stable_report, table2_parallel, with_broken_method,
    App, FaultPlan,
};
use std::sync::Arc;

type MethodKey = (String, String, bool);

fn method_keys(program: &ruby_syntax::Program) -> Vec<MethodKey> {
    program
        .methods()
        .iter()
        .map(|(owner, def)| (owner.clone(), def.name.clone(), def.singleton))
        .collect()
}

fn rendered(bag: &diagnostics::DiagnosticBag) -> Vec<String> {
    bag.iter().map(|d| d.to_string()).collect()
}

fn fresh_memo() -> Arc<comprdl::SharedMemo> {
    Arc::new(comprdl::SharedMemo::new())
}

/// Parses one mutant of `app` both ways and checks the recovery contract:
/// nothing panics, downstream hashing survives the recovered tree, and the
/// recovering parse reports (only error-severity `PARSE`/`LEX`)
/// diagnostics exactly when the strict parse fails.  Returns whether the
/// mutant was diagnosed.
fn assert_recovers(app: &App, seed: u64, mutated: &str) -> bool {
    // The recovering entry points must survive arbitrary garbage...
    let (program, diags) = ruby_syntax::parse_program_in_file(mutated, 0);
    // ...and so must everything downstream that walks the
    // recovered tree (placeholder nodes included).
    let _ = program.method_hashes();
    for (_, def) in &program.methods() {
        let _ = ruby_syntax::method_hash(def);
    }

    let strict_ok = ruby_syntax::parse_program_strict(mutated).is_ok();
    assert_eq!(
        diags.is_empty(),
        strict_ok,
        "{} seed {seed}: recovery diagnostics disagree with the strict parse",
        app.name
    );
    for d in &diags {
        assert!(d.is_error(), "{}: recovery diagnostic must be an error: {d}", app.name);
        assert!(
            d.code.starts_with("PARSE") || d.code.starts_with("LEX"),
            "{}: unexpected recovery code {}",
            app.name,
            d.code
        );
        for label in &d.labels {
            let span = label.span;
            assert!(
                span.start <= span.end && span.end <= mutated.len(),
                "{} seed {seed}: span {}..{} lies outside the {}-byte source: {d}",
                app.name,
                span.start,
                span.end,
                mutated.len()
            );
        }
    }
    !diags.is_empty()
}

/// Satellite (a): seeded byte-level mutations of every corpus source must
/// never panic the lexer or parser, and whenever a mutation actually breaks
/// the syntax the recovering parse must say so with at least one
/// diagnostic (`diags.is_empty()` ⇔ the strict parse succeeds).
#[test]
fn seeded_byte_mutations_never_panic_and_are_always_diagnosed() {
    let mut mutants = 0usize;
    let mut diagnosed = 0usize;
    for (app_idx, app) in corpus::apps::all().iter().enumerate() {
        let original = app.full_source();
        for seed in 0..24u64 {
            let mut rng = test_rng::Rng::new(((app_idx as u64) << 32) | (seed << 1) | 1);
            let mut bytes = original.clone().into_bytes();
            let edits = 1 + rng.below(3) as usize;
            for _ in 0..edits {
                let pos = rng.below(bytes.len() as u64) as usize;
                // Printable ASCII keeps the mutant valid UTF-8.
                bytes[pos] = 0x21 + rng.below(0x5e) as u8;
            }
            let mutated = String::from_utf8(bytes).expect("ascii-only mutation");
            if mutated == original {
                continue;
            }
            mutants += 1;
            diagnosed += usize::from(assert_recovers(app, seed, &mutated));
        }
    }
    assert!(mutants > 100, "the mutation loop must actually produce mutants: {mutants}");
    assert!(
        diagnosed * 10 >= mutants,
        "random byte damage should regularly break syntax: {diagnosed}/{mutants} diagnosed"
    );
}

/// The byte mutations above write only ASCII, but tokens are byte ranges
/// sliced out of the source, so the front end must also survive
/// multi-byte text anywhere: each mutant replaces whole characters, at
/// character boundaries, with a 2-, 3- or 4-byte one, under the same
/// contract.
#[test]
fn seeded_multibyte_mutations_never_panic_and_are_always_diagnosed() {
    let mut mutants = 0usize;
    let mut diagnosed = 0usize;
    for (app_idx, app) in corpus::apps::all().iter().enumerate() {
        let original = app.full_source();
        for seed in 0..24u64 {
            let mut rng = test_rng::Rng::new(((app_idx as u64) << 32) | (seed << 1) | 1);
            let mut chars: Vec<char> = original.chars().collect();
            let edits = 1 + rng.below(3) as usize;
            for _ in 0..edits {
                let pos = rng.below(chars.len() as u64) as usize;
                chars[pos] = ['é', '→', '😀'][rng.below(3) as usize];
            }
            let mutated: String = chars.into_iter().collect();
            if mutated == original {
                continue;
            }
            mutants += 1;
            diagnosed += usize::from(assert_recovers(app, seed, &mutated));
        }
    }
    assert!(mutants > 100, "the mutation loop must actually produce mutants: {mutants}");
    assert!(
        diagnosed * 10 >= mutants,
        "multi-byte damage should regularly break syntax: {diagnosed}/{mutants} diagnosed"
    );
}

/// Satellite (b): the severity partition is pinned.  Parse/lex recovery
/// diagnostics and internal harness errors are errors (they count in
/// `error_count`), lint findings stay warnings, and the three families
/// never cross-contaminate a bag's counters.
#[test]
fn severity_partition_is_pinned_across_parse_ice_and_lint_codes() {
    let mut bag = diagnostics::DiagnosticBag::new();
    bag.push(diagnostics::Diagnostic::error("PARSE0001", "broken statement"));
    bag.push(diagnostics::Diagnostic::error("PARSE0002", "broken method"));
    bag.push(diagnostics::Diagnostic::error("LEX0001", "broken token"));
    bag.push(diagnostics::Diagnostic::error("ICE0001", "worker panicked"));
    bag.push(diagnostics::Diagnostic::warning("LINT0101", "maybe-unassigned"));
    assert_eq!(bag.error_count(), 4, "parse/lex/ICE codes are all errors");
    assert_eq!(bag.warning_count(), 1, "lints stay warnings");
    assert_eq!(bag.len(), 5);

    // The parser really emits that partition.
    let (_, diags) = ruby_syntax::parse_program_in_file("def m()\n  )\nend\n", 0);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, "PARSE0002");
    assert!(diags[0].is_error());
}

/// Checks one broken-source candidate for *surgical* poisoning: exactly one
/// `PARSE0002`, the expected method slots (a poisoned def still parses as a
/// placeholder), and every other verdict — diagnostics, lints, runtime
/// blames — byte-identical to the healthy baseline.  Returns the faulted
/// row on success.
fn try_surgical(
    app: &App,
    baseline: &corpus::Table2Row,
    base_keys: &[MethodKey],
    broken_src: &str,
) -> Option<corpus::Table2Row> {
    let (prog, _, diags) = app.parse_with_source(broken_src);
    if diags.len() != 1 || diags[0].code != "PARSE0002" {
        return None;
    }
    // Every original method slot survives (the probe fallback adds one).
    let keys: Vec<MethodKey> = method_keys(&prog)
        .into_iter()
        .filter(|(_, name, _)| name != "__recovery_probe__")
        .collect();
    if keys != base_keys {
        return None;
    }
    if prog.methods().iter().filter(|(_, d)| d.poisoned).count() != 1 {
        return None;
    }
    // The suite may genuinely need the broken method's real body (a
    // poisoned call returns nil); such candidates fail here and are skipped.
    let (row, _) = evaluate_app_incremental(
        app,
        Some(broken_src),
        &mut comprdl::CheckCache::new(),
        &fresh_memo(),
    )
    .ok()?;
    let parse_count = row.diagnostics.iter().filter(|d| d.code.starts_with("PARSE")).count();
    if parse_count != 1 {
        return None;
    }
    let rest: Vec<String> = row
        .diagnostics
        .iter()
        .filter(|d| !d.code.starts_with("PARSE"))
        .map(|d| d.to_string())
        .collect();
    if rest != rendered(&baseline.diagnostics)
        || rendered(&row.lints) != rendered(&baseline.lints)
        || rendered(&row.runtime_blames) != rendered(&baseline.runtime_blames)
    {
        return None;
    }
    Some(row)
}

/// Finds a method whose poisoning is surgical (see [`try_surgical`]),
/// preferring to break a method the app already has; when every existing
/// method's body turns out to be load-bearing for the test suite, falls
/// back to appending a never-called probe method and breaking that.
fn surgical_break(
    app: &App,
    baseline: &corpus::Table2Row,
    base_keys: &[MethodKey],
) -> Option<(String, corpus::Table2Row)> {
    let (base_prog, _, _) = app.parse();
    for (_, def) in &base_prog.methods() {
        let Some(broken_src) = with_broken_method(app.source, &def.name) else { continue };
        if let Some(row) = try_surgical(app, baseline, base_keys, &broken_src) {
            return Some((broken_src, row));
        }
    }
    // Fallback: a fresh method nobody calls, appended so no existing span
    // moves.  It still exercises the whole recovery path — poisoned def,
    // skipped verdicts, one PARSE0002 — just without sacrificing a real
    // method's runtime behaviour.
    let probe_src = format!("{}\ndef __recovery_probe__()\n  )\nend\n", app.source);
    let row = try_surgical(app, baseline, base_keys, &probe_src)?;
    Some((probe_src, row))
}

/// The acceptance criterion: for **every** corpus app, injecting one syntax
/// error into one method yields exactly one parse diagnostic while every
/// other method's diagnostics, lints and blames stay byte-identical — and
/// the sequential and parallel evaluations of the broken app agree byte for
/// byte.
#[test]
fn one_broken_method_per_app_leaves_every_other_verdict_byte_identical() {
    for app in corpus::apps::all() {
        let (baseline, _) =
            evaluate_app_incremental(&app, None, &mut comprdl::CheckCache::new(), &fresh_memo())
                .unwrap_or_else(|e| panic!("{}: healthy baseline run failed: {e:?}", app.name));
        let (base_prog, _, base_diags) = app.parse();
        assert!(base_diags.is_empty(), "{}: healthy source must parse clean", app.name);
        let base_keys = method_keys(&base_prog);

        let (broken_src, row) = surgical_break(&app, &baseline, &base_keys).unwrap_or_else(|| {
            panic!("{}: no labeled method admits a surgical syntax break", app.name)
        });
        assert_eq!(
            row.diagnostics.error_count(),
            baseline.diagnostics.error_count() + 1,
            "{}: the broken run must add exactly one error",
            app.name
        );

        // Sequential vs parallel over the *broken* source: the recovery
        // path must be as deterministic as the healthy one.
        let seq = evaluate_app(&app, Some(&broken_src), 1, &fresh_memo(), None)
            .unwrap_or_else(|e| panic!("{}: sequential broken run failed: {e:?}", app.name))
            .0;
        let par = evaluate_app(&app, Some(&broken_src), 4, &fresh_memo(), None)
            .unwrap_or_else(|e| panic!("{}: parallel broken run failed: {e:?}", app.name))
            .0;
        assert_eq!(
            stable_report(std::slice::from_ref(&seq)),
            stable_report(std::slice::from_ref(&par)),
            "{}: sequential and parallel runs diverged on the broken source",
            app.name
        );
    }
}

/// Worker panic isolation: a seeded fault plan makes chosen apps' workers
/// panic mid-run; the harness must still return every row, the healthy rows
/// byte-identical to an unfaulted run, the faulted rows degraded to a
/// single distinctly-rendered `ICE0001` diagnostic.
#[test]
fn injected_worker_panics_degrade_to_ice_rows_without_aborting() {
    let baseline = table2_parallel(&fresh_memo(), &FaultPlan::none()).expect("unfaulted run");
    let plan = FaultPlan::seeded(0xf001, 2);
    assert_eq!(plan.len(), 2);
    let faulted = table2_parallel(&fresh_memo(), &plan).expect("a worker panic must not abort");
    assert_eq!(faulted.len(), baseline.len());

    for (healthy, row) in baseline.iter().zip(&faulted) {
        assert_eq!(healthy.program, row.program, "row order is corpus order");
        if plan.panics_for(&row.program) {
            assert_eq!(row.diagnostics.len(), 1, "{}: one ICE diagnostic", row.program);
            let ice = row.diagnostics.iter().next().expect("ice diagnostic");
            assert_eq!(ice.code, "ICE0001");
            assert!(ice.is_error());
            assert!(
                ice.message.contains("injected fault"),
                "{}: the panic payload must survive into the message: {ice}",
                row.program
            );
            assert_eq!(row.dynamic_checks_run, 0, "{}: nothing was evaluated", row.program);
        } else {
            assert_eq!(
                stable_report(std::slice::from_ref(healthy)),
                stable_report(std::slice::from_ref(row)),
                "{}: healthy row diverged under fault injection elsewhere",
                row.program
            );
        }
    }

    let report = stable_report(&faulted);
    assert!(
        report.contains("    ICE: error[ICE0001]"),
        "ICE diagnostics must render on their own distinct line:\n{report}"
    );
}

/// Incremental durability, end to end: break one method → the warm run
/// re-checks exactly that method plus its Merkle dependents while the rest
/// replays; repair it → byte-identical to a never-broken cold run; corrupt
/// the on-disk cache with seeded damage → every seed silently degrades to a
/// cold re-check with byte-identical output.
#[test]
fn break_repair_and_cache_corruption_all_preserve_byte_identity() {
    use comprdl::semdep::DepGraph;
    use std::collections::BTreeSet;

    // The invalidation set a broken source *should* cause: the Merkle diff
    // over the labeled methods.  The broken def's semantic hash covers its
    // poison flag, so its transitive labeled callers move with it.
    let labeled_merkle_diff = |app: &App, broken_src: &str| -> (BTreeSet<MethodKey>, usize) {
        let env = app.build_env();
        let (program, _, _) = app.parse();
        let (broken_program, _, _) = app.parse_with_source(broken_src);
        let before: std::collections::BTreeMap<_, _> =
            DepGraph::build(&env, &program).method_merkles().into_iter().collect();
        let after: std::collections::BTreeMap<_, _> =
            DepGraph::build(&env, &broken_program).method_merkles().into_iter().collect();
        let labeled: BTreeSet<MethodKey> =
            comprdl::TypeChecker::labeled_methods(&env, &program, "app")
                .iter()
                .map(|(owner, def)| (owner.clone(), def.name.clone(), def.singleton))
                .collect();
        let moved =
            labeled.iter().filter(|id| before.get(*id) != after.get(*id)).cloned().collect();
        (moved, labeled.len())
    };

    // Find an app + method whose surgical break (the acceptance helper's
    // meaning of "surgical") also invalidates at least one *labeled*
    // method — i.e. a fixture with labeled callers — so the warm run below
    // actually exercises replay + re-check together.
    let apps = corpus::apps::all();
    let mut picked = None;
    'search: for app in &apps {
        let Ok((baseline, _)) =
            evaluate_app_incremental(app, None, &mut comprdl::CheckCache::new(), &fresh_memo())
        else {
            continue;
        };
        let (base_prog, _, _) = app.parse();
        let base_keys = method_keys(&base_prog);
        for (_, def) in &base_prog.methods() {
            let Some(broken_src) = with_broken_method(app.source, &def.name) else { continue };
            if try_surgical(app, &baseline, &base_keys, &broken_src).is_none() {
                continue;
            }
            let (moved, labeled_total) = labeled_merkle_diff(app, &broken_src);
            if !moved.is_empty() && moved.len() < labeled_total {
                picked = Some((app, broken_src, moved));
                break 'search;
            }
        }
    }
    let (app, broken_src, expected) =
        picked.expect("some corpus app has a surgically breakable fixture with labeled callers");

    // Cold run into a fresh cache.
    let memo = fresh_memo();
    let mut cache = comprdl::CheckCache::new();
    let (cold_row, cold_stats) =
        evaluate_app_incremental(app, None, &mut cache, &memo).expect("cold run");
    assert_eq!(cold_stats.comp.replayed, 0, "cold run replays nothing");

    // Warm run over the broken source: exactly the moved set re-checks.
    let (_, broken_stats) = evaluate_app_incremental(app, Some(&broken_src), &mut cache, &memo)
        .expect("broken warm run");
    let checked: BTreeSet<MethodKey> = broken_stats.comp.checked_methods.iter().cloned().collect();
    assert_eq!(checked, expected, "re-check set must be the broken method + Merkle dependents");
    assert_eq!(
        broken_stats.comp.replayed,
        broken_stats.comp.total - expected.len(),
        "every other method must replay"
    );

    // Repair: the next warm run over the healthy source is byte-identical
    // to the never-broken cold run (and re-checks the same moved set).
    let (repaired_row, repaired_stats) =
        evaluate_app_incremental(app, None, &mut cache, &memo).expect("repaired warm run");
    let rechecked: BTreeSet<MethodKey> =
        repaired_stats.comp.checked_methods.iter().cloned().collect();
    assert_eq!(rechecked, expected, "repairing moves the same Merkle set back");
    assert_eq!(
        stable_report(std::slice::from_ref(&repaired_row)),
        stable_report(std::slice::from_ref(&cold_row)),
        "repaired output must be byte-identical to a never-broken run"
    );

    // Seeded cache-file corruption: every seed loads silently (empty or
    // intact, never a panic) and the next run still renders byte-identical
    // to the cold row — a wrong replay would show up right here.
    let dir = std::env::temp_dir().join(format!("recovery-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("check-cache.bin");
    cache.save(&path).expect("save cache");
    let pristine = std::fs::read(&path).expect("read cache bytes");
    for seed in 0..6u64 {
        std::fs::write(&path, comprdl::corrupt(&pristine, seed)).expect("write corrupted cache");
        let mut damaged = comprdl::CheckCache::load(&path);
        let (row, _) = evaluate_app_incremental(app, None, &mut damaged, &fresh_memo())
            .unwrap_or_else(|e| panic!("seed {seed}: corrupted cache broke the run: {e:?}"));
        assert_eq!(
            stable_report(std::slice::from_ref(&row)),
            stable_report(std::slice::from_ref(&cold_row)),
            "seed {seed}: a corrupted cache must degrade to a cold re-check, not change output"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
