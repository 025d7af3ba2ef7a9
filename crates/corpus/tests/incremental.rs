//! Property and end-to-end tests for incremental re-checking: semantic
//! hashes must ignore layout, Merkle hashes must invalidate exactly the
//! transitive dependents of an edit, and the on-disk cache must replay
//! byte-identical output across fresh loads.

use comprdl::persist::content_hash;
use comprdl::semdep::{env_hash, DepGraph, MethodId};
use comprdl::{CheckCache, CheckOptions, TypeChecker};
use corpus::{
    evaluate_app_incremental, stable_report, table2_incremental, with_layout_noise,
    with_method_edit,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("incremental-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Satellite (c), part 1: seeded whitespace/comment/span-only edits leave
/// every method of every corpus app with an identical semantic hash — and
/// therefore an identical Merkle hash.
#[test]
fn layout_noise_preserves_every_semantic_hash_in_every_app() {
    for app in corpus::apps::all() {
        let env = app.build_env();
        let (program, _, _) = app.parse();
        let baseline_hashes = program.method_hashes();
        assert!(!baseline_hashes.is_empty(), "{}: no methods hashed", app.name);
        let baseline_merkles = DepGraph::build(&env, &program).method_merkles();

        for seed in [3u64, 0x5eed, 0xdead_beef] {
            let noisy_src = with_layout_noise(app.source, seed);
            assert_ne!(noisy_src, app.source, "{}: noise must actually edit", app.name);
            assert_ne!(
                content_hash(&noisy_src),
                content_hash(app.source),
                "{}: content hash must see the edit",
                app.name
            );
            let (noisy, _, noisy_diags) = app.parse_with_source(&noisy_src);
            assert!(
                noisy_diags.is_empty(),
                "{} seed {seed}: noisy source broke: {:?}",
                app.name,
                noisy_diags
            );
            let noisy_hashes = noisy.method_hashes();
            assert_eq!(
                baseline_hashes.len(),
                noisy_hashes.len(),
                "{} seed {seed}: method set changed",
                app.name
            );
            for (a, b) in baseline_hashes.iter().zip(&noisy_hashes) {
                assert_eq!(
                    (&a.owner, &a.name, a.singleton, a.hash),
                    (&b.owner, &b.name, b.singleton, b.hash),
                    "{} seed {seed}: layout-only noise moved a semantic hash",
                    app.name
                );
            }
            assert_eq!(
                baseline_merkles,
                DepGraph::build(&env, &noisy).method_merkles(),
                "{} seed {seed}: layout-only noise moved a Merkle hash",
                app.name
            );
        }
    }
}

/// Satellite (c), part 2: a semantic edit to one type-level helper moves the
/// Merkle hash of **exactly** the methods whose verdicts transitively
/// depend on it — and an incremental run that replays the rest still
/// produces byte-identical diagnostics to a from-scratch run of the edited
/// state.
#[test]
fn helper_edit_invalidates_exactly_its_transitive_dependents() {
    // `elem` is the root of the stdlib helper chain (arr/idx/first_elem all
    // reach it), so every array-typed comp slot depends on it.  The edit —
    // a harmless local assignment prepended to its body — preserves helper
    // behaviour, so verdicts do not change, only hashes do.
    let edited_helpers =
        with_method_edit(comprdl::stdlib::RUBY_HELPERS, "elem").expect("elem has a def line");

    let mut covered_dependents = 0usize;
    for app in corpus::apps::all() {
        let env = app.build_env();
        let mut env2 = app.build_env();
        env2.register_helpers_ruby(&edited_helpers);
        assert_eq!(
            env_hash(&env),
            env_hash(&env2),
            "{}: helper bodies are graph-tracked, not env-hashed",
            app.name
        );

        let (program, _, _) = app.parse();
        let g1 = DepGraph::build(&env, &program);
        let g2 = DepGraph::build(&env2, &program);
        let dependents: BTreeSet<_> = g1.helper_dependents("elem").into_iter().collect();
        let before: BTreeMap<_, _> = g1.method_merkles().into_iter().collect();
        let after: BTreeMap<_, _> = g2.method_merkles().into_iter().collect();
        assert_eq!(before.len(), after.len(), "{}: method set changed", app.name);
        for (id, merkle) in &before {
            assert_eq!(
                after[id] != *merkle,
                dependents.contains(id),
                "{}: {id:?} moved iff it depends on `elem`",
                app.name
            );
        }
        covered_dependents += dependents.len();

        // Replay soundness under the edit: record a run against the original
        // helpers, then re-check incrementally with the edited ones.  The
        // non-dependents replay, the dependents are re-checked for real, and
        // the merged diagnostics match a from-scratch run byte for byte.
        let selected = TypeChecker::labeled_methods(&env, &program, "app");
        let files = vec![content_hash(app.source), content_hash(app.test_suite)];
        let cold = TypeChecker::new(&env, &program, CheckOptions::default()).check_labeled("app");
        let mut cache = CheckCache::new();
        let frozen: Vec<_> = selected
            .iter()
            .zip(&cold.methods)
            .map(|((owner, def), verdict)| {
                let merkle = g1.merkle(owner, &def.name, def.singleton).expect("in graph");
                (owner.clone(), *def, merkle, verdict)
            })
            .collect();
        cache.record_app(app.name, env_hash(&env), files.clone(), &frozen, &cold.store);

        let mut replayed = Vec::new();
        let mut misses = Vec::new();
        let mut store = rdl_types::TypeStore::new();
        for (owner, def) in &selected {
            let merkle = g2.merkle(owner, &def.name, def.singleton).expect("in graph");
            match cache.replay(
                app.name,
                &env2,
                env_hash(&env2),
                &files,
                owner,
                def,
                merkle,
                &mut store,
            ) {
                Some(result) => replayed.push(((owner.clone(), def.name.clone()), result)),
                None => misses.push((owner.clone(), *def)),
            }
        }
        let missed_ids: BTreeSet<_> = misses
            .iter()
            .map(|(owner, def)| (owner.clone(), def.name.clone(), def.singleton))
            .collect();
        // Only labeled methods are checked (and therefore replayed);
        // unlabeled fixture methods can depend on `elem` too, but they never
        // enter the cache.
        let labeled: BTreeSet<MethodId> = selected
            .iter()
            .map(|(owner, def)| (owner.clone(), def.name.clone(), def.singleton))
            .collect();
        let expected_misses: BTreeSet<_> = dependents.intersection(&labeled).cloned().collect();
        assert_eq!(
            missed_ids, expected_misses,
            "{}: the re-check set must be exactly `elem`'s labeled dependents",
            app.name
        );

        let rechecked =
            TypeChecker::new(&env2, &program, CheckOptions::default()).check_methods(&misses);
        let scratch =
            TypeChecker::new(&env2, &program, CheckOptions::default()).check_labeled("app");
        let render = |errors: Vec<&comprdl::TypeErrorInfo>| -> String {
            errors.iter().map(|e| format!("{e:?}\n")).collect()
        };
        let mut incremental_errors: Vec<&comprdl::TypeErrorInfo> =
            replayed.iter().flat_map(|(_, m)| m.errors.iter()).collect();
        incremental_errors.extend(rechecked.errors());
        let mut scratch_errors = scratch.errors();
        let key = |e: &&comprdl::TypeErrorInfo| format!("{e:?}");
        incremental_errors.sort_by_key(key);
        scratch_errors.sort_by_key(key);
        assert_eq!(
            render(incremental_errors),
            render(scratch_errors),
            "{}: incremental diagnostics diverged after the helper edit",
            app.name
        );
    }
    assert!(
        covered_dependents > 0,
        "at least one corpus app must have methods depending on `elem`"
    );
}

/// The end-to-end acceptance path: cold corpus run → save → fresh-process
/// load → warm run re-checks **zero** methods with byte-identical output →
/// one-method edit re-checks exactly that method plus its transitive
/// dependents, still byte-identical to a from-scratch run of the edited
/// source — runtime blames included (the edited app, Sequel, blames by
/// design).
#[test]
fn disk_cache_replays_byte_identical_and_edits_invalidate_minimally() {
    let dir = temp_dir("e2e");
    let path = dir.join("check-cache.bin");

    // Cold: empty cache, everything checked; matches the from-scratch
    // harness byte for byte.
    let mut cache = CheckCache::load(&path);
    assert!(cache.is_empty(), "no file yet, must load empty");
    let (cold_rows, cold_stats) = table2_incremental(&mut cache).expect("cold corpus run");
    for s in &cold_stats {
        assert_eq!(s.comp.replayed, 0, "{}: cold run must replay nothing", s.app);
        assert_eq!(s.comp.checked(), s.comp.total, "{}", s.app);
    }
    let scratch_rows = corpus::table2().expect("from-scratch corpus run");
    assert_eq!(
        stable_report(&cold_rows),
        stable_report(&scratch_rows),
        "cold incremental output diverged from the from-scratch harness"
    );
    cache.save(&path).expect("save cache");

    // Warm: a fresh load (fresh-process simulation) replays every verdict.
    let mut warm_cache = CheckCache::load(&path);
    assert!(!warm_cache.is_empty(), "saved cache must load");
    let (warm_rows, warm_stats) = table2_incremental(&mut warm_cache).expect("warm corpus run");
    for s in &warm_stats {
        assert!(
            s.all_replayed(),
            "{}: warm run must re-check zero methods: comp {:?} plain {:?}",
            s.app,
            s.comp,
            s.plain
        );
    }
    assert_eq!(
        stable_report(&warm_rows),
        stable_report(&cold_rows),
        "warm replayed output diverged from the cold run"
    );

    // Edit one method of the blaming app and re-run it incrementally
    // against the warm cache.
    let apps = corpus::apps::all();
    let app = apps.iter().find(|a| a.name == "Sequel").expect("Sequel app");
    let env = app.build_env();
    let (program, _, _) = app.parse();
    let selected = TypeChecker::labeled_methods(&env, &program, "app");
    let (edited_name, edited_src) = selected
        .iter()
        .find_map(|(_, def)| {
            with_method_edit(app.source, &def.name).map(|src| (def.name.clone(), src))
        })
        .expect("some labeled method has an editable def line");

    // The expected invalidation set is the Merkle diff between the original
    // and edited parses: the edited method plus its transitive callers.
    let (edited_program, _, _) = app.parse_with_source(&edited_src);
    let before: BTreeMap<_, _> =
        DepGraph::build(&env, &program).method_merkles().into_iter().collect();
    let after: BTreeMap<_, _> =
        DepGraph::build(&env, &edited_program).method_merkles().into_iter().collect();
    let labeled: BTreeSet<_> = selected
        .iter()
        .map(|(owner, def)| (owner.clone(), def.name.clone(), def.singleton))
        .collect();
    let expected: BTreeSet<_> =
        labeled.iter().filter(|id| before.get(*id) != after.get(*id)).cloned().collect();
    assert!(
        expected.iter().any(|(_, name, _)| name == &edited_name),
        "the edited method itself must be invalidated"
    );
    assert!(expected.len() < labeled.len(), "a one-method edit must not invalidate every method");

    let memo = Arc::new(comprdl::SharedMemo::new());
    let (edited_row, edited_stats) =
        evaluate_app_incremental(app, Some(&edited_src), &mut warm_cache, &memo)
            .expect("incremental run of the edited app");
    for (label, pass) in [("comp", &edited_stats.comp), ("plain", &edited_stats.plain)] {
        let checked: BTreeSet<_> = pass.checked_methods.iter().cloned().collect();
        assert_eq!(
            checked, expected,
            "{label}: re-checked set must be exactly the edited method + dependents"
        );
        assert_eq!(pass.replayed, pass.total - expected.len(), "{label}: the rest replays");
    }

    // Byte-identity gate, blames included: a from-scratch run (empty cache)
    // of the same edited source must render the same row.
    let mut empty = CheckCache::new();
    let (scratch_row, scratch_stats) = evaluate_app_incremental(
        app,
        Some(&edited_src),
        &mut empty,
        &Arc::new(comprdl::SharedMemo::new()),
    )
    .expect("from-scratch run of the edited app");
    assert_eq!(scratch_stats.comp.replayed, 0);
    assert_eq!(
        stable_report(std::slice::from_ref(&edited_row)),
        stable_report(std::slice::from_ref(&scratch_row)),
        "edited incremental row diverged from the edited from-scratch row"
    );
    assert!(
        !edited_row.runtime_blames.is_empty(),
        "Sequel's suite blames by design — the gate must cover blame output"
    );

    // The refreshed cache now validates the edited source: another fresh
    // load replays the edited app fully.
    warm_cache.save(&path).expect("re-save cache");
    let mut reloaded = CheckCache::load(&path);
    let (_, again) =
        evaluate_app_incremental(app, Some(&edited_src), &mut reloaded, &memo).expect("re-run");
    assert!(again.all_replayed(), "the refreshed cache must replay the edited app: {again:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// One step of a seeded edit script.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    /// A semantic edit to one labeled method of the current source.
    Edit,
    /// Layout-only noise over the current source.
    Noise,
    /// Back to the pristine source.
    Revert,
}

/// Multi-step edit scripts against one on-disk cache: per app, a seeded
/// script of four steps drawn from method edits, layout noise and reverts.
/// After every step the incremental row is byte-identical to an
/// empty-cache run of the same source, and both checking passes re-check
/// exactly the labeled methods whose Merkle hash moved since the previous
/// step — nothing at all after a layout-only step.
#[test]
fn seeded_edit_scripts_match_from_scratch_runs_at_every_step() {
    let dir = temp_dir("script");
    let render = |row: &corpus::Table2Row| stable_report(std::slice::from_ref(row));
    let fresh_memo = || Arc::new(comprdl::SharedMemo::new());
    for (app_idx, app) in corpus::apps::all().iter().enumerate() {
        let env = app.build_env();
        let (program, _, _) = app.parse();
        let mut editable: Vec<String> = TypeChecker::labeled_methods(&env, &program, "app")
            .into_iter()
            .map(|(_, def)| def.name.clone())
            .filter(|name| with_method_edit(app.source, name).is_some())
            .collect();
        editable.sort();
        editable.dedup();
        assert!(!editable.is_empty(), "{}: no editable labeled method", app.name);
        // The labeled methods of a source, with their Merkle hashes.
        let labeled_merkles = |source: &str| -> BTreeMap<MethodId, u64> {
            let (program, _, _) = app.parse_with_source(source);
            let merkles: BTreeMap<_, _> =
                DepGraph::build(&env, &program).method_merkles().into_iter().collect();
            TypeChecker::labeled_methods(&env, &program, "app")
                .into_iter()
                .map(|(owner, def)| {
                    let id = (owner, def.name.clone(), def.singleton);
                    let merkle = merkles[&id];
                    (id, merkle)
                })
                .collect()
        };

        let path = dir.join(format!("{app_idx}.bin"));
        let mut cache = CheckCache::new();
        evaluate_app_incremental(app, None, &mut cache, &fresh_memo()).expect("cold run");
        cache.save(&path).expect("save cache");

        let mut rng = test_rng::Rng::new(0x5eed_0000 + ((app_idx as u64) << 1) + 1);
        let mut current = app.source.to_string();
        for step_no in 0..4 {
            let step = [Step::Edit, Step::Noise, Step::Revert][rng.below(3) as usize];
            let next = match step {
                Step::Edit => {
                    let name = &editable[rng.below(editable.len() as u64) as usize];
                    with_method_edit(&current, name).expect("edits keep every def line")
                }
                Step::Noise => with_layout_noise(&current, rng.next_u64()),
                Step::Revert => app.source.to_string(),
            };
            let at = format!("{} step {step_no} ({step:?})", app.name);

            let mut cache = CheckCache::load(&path);
            let (row, stats) =
                evaluate_app_incremental(app, Some(&next), &mut cache, &fresh_memo())
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
            cache.save(&path).expect("save cache");
            let (scratch, _) =
                evaluate_app_incremental(app, Some(&next), &mut CheckCache::new(), &fresh_memo())
                    .unwrap_or_else(|e| panic!("{at}: from-scratch run: {e}"));
            assert_eq!(render(&row), render(&scratch), "{at}: diverged from a from-scratch run");

            let before = labeled_merkles(&current);
            let moved: BTreeSet<MethodId> = labeled_merkles(&next)
                .into_iter()
                .filter(|(id, merkle)| before.get(id) != Some(merkle))
                .map(|(id, _)| id)
                .collect();
            if step == Step::Noise {
                assert!(moved.is_empty(), "{at}: layout noise moved a Merkle hash: {moved:?}");
            }
            for (pass, stats) in [("comp", &stats.comp), ("plain", &stats.plain)] {
                let checked: BTreeSet<MethodId> = stats.checked_methods.iter().cloned().collect();
                assert_eq!(checked, moved, "{at}: {pass} re-check set must be the Merkle diff");
            }
            current = next;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Twitter's annotations with the `@handle` instance variable retyped.
fn twitter_with_retyped_handle(env: &mut comprdl::CompRdl) {
    (corpus::apps::twitter::app().annotate)(env);
    env.var_type("TwitterStream", "handle", "String or Symbol");
}

/// A `var_type` edit moves the environment hash, so a warm run against a
/// cache recorded under the old annotation re-checks every method instead
/// of replaying verdicts computed against the old ivar type, and renders
/// the same row as an empty-cache run.
#[test]
fn var_type_edit_rechecks_every_method() {
    let memo = || Arc::new(comprdl::SharedMemo::new());
    let pristine = corpus::apps::twitter::app();
    let mut cache = CheckCache::new();
    evaluate_app_incremental(&pristine, None, &mut cache, &memo()).expect("cold run");
    let (_, warm) =
        evaluate_app_incremental(&pristine, None, &mut cache, &memo()).expect("warm run");
    assert!(warm.all_replayed(), "the unedited app must replay: {warm:?}");

    let edited =
        corpus::App { annotate: twitter_with_retyped_handle, ..corpus::apps::twitter::app() };
    let (row, stats) =
        evaluate_app_incremental(&edited, None, &mut cache, &memo()).expect("edited run");
    for (pass, s) in [("comp", &stats.comp), ("plain", &stats.plain)] {
        assert!(s.total > 0, "{pass}: no labeled methods");
        assert_eq!((s.replayed, s.checked()), (0, s.total), "{pass}: every method re-checked");
    }
    let (scratch, _) = evaluate_app_incremental(&edited, None, &mut CheckCache::new(), &memo())
        .expect("from-scratch run");
    assert_eq!(
        stable_report(std::slice::from_ref(&row)),
        stable_report(std::slice::from_ref(&scratch)),
        "the re-checked row diverged from an empty-cache run"
    );
}
