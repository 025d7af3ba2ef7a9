//! Property tests for the lint suite over the corpus: parallel linting must
//! be byte-identical to sequential, and layout-only edits must replay every
//! lint verdict from the persistent cache (semhash-keyed) with re-anchored
//! spans — through a real temp file, like a fresh process would.

use comprdl::persist::content_hash;
use comprdl::CheckCache;
use corpus::{
    findings_to_records, lint_bag, lint_pass_with_summaries, record_to_diagnostic,
    with_layout_noise,
};
use diagnostics::DiagnosticBag;

const SEEDS: [u64; 3] = [3, 0x5eed, 0xdead_beef];

fn render(bag: &DiagnosticBag) -> String {
    bag.iter().map(|d| format!("{d}\n")).collect()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lints-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The parallel lint pass splits methods across workers but merges results
/// back into method order; the rendered warnings must be byte-identical to
/// a sequential pass for every app and any worker count.
#[test]
fn parallel_lint_findings_are_byte_identical_to_sequential() {
    let mut total_findings = 0usize;
    for app in corpus::apps::all() {
        let (program, _, _) = app.parse();
        let baseline = lint_bag(&lint_pass_with_summaries(&program, None, 1));
        total_findings += baseline.len();
        for threads in [2, 3, 4, 8] {
            assert_eq!(
                render(&baseline),
                render(&lint_bag(&lint_pass_with_summaries(&program, None, threads))),
                "{} with {threads} workers: parallel lint output diverged",
                app.name
            );
        }
    }
    assert!(total_findings >= 5, "the corpus seeds at least five lint findings");
}

/// Layout-only noise (seeded comments, blank lines, trailing whitespace)
/// moves every byte offset but no semantic hash, so a cache recorded
/// against the original source must replay **every** lint verdict for the
/// noisy source — spans re-anchored against the noisy parse — rendering
/// byte-identically to linting the noisy source from scratch.  The cache
/// round-trips through a real file in between, like a fresh process.
#[test]
fn layout_noise_replays_every_lint_verdict_through_a_real_cache_file() {
    let dir = temp_dir("replay");
    for app in corpus::apps::all() {
        // Cold: lint the original parse and persist the verdicts.
        let (program, _, _) = app.parse();
        let files = vec![content_hash(app.source), content_hash(app.test_suite)];
        let methods = program.methods();
        let records: Vec<_> = methods
            .iter()
            .map(|(owner, def)| {
                let fresh = analysis::lint_method(owner, def);
                let semhash = ruby_syntax::method_hash(def);
                (owner.clone(), *def, semhash, findings_to_records(&fresh))
            })
            .collect();
        let mut cache = CheckCache::new();
        cache.record_lints(app.name, files, &records);
        let path = dir.join(format!("{}.bin", app.name.replace(['.', '/'], "_")));
        cache.save(&path).expect("save cache");

        for seed in SEEDS {
            let noisy_src = with_layout_noise(app.source, seed);
            assert_ne!(noisy_src, app.source, "{}: noise must actually edit", app.name);
            let (noisy, _, noisy_diags) = app.parse_with_source(&noisy_src);
            assert!(
                noisy_diags.is_empty(),
                "{} seed {seed}: noisy source broke: {:?}",
                app.name,
                noisy_diags
            );
            let noisy_files = vec![content_hash(&noisy_src), content_hash(app.test_suite)];

            // Fresh-process simulation: load from disk, replay everything.
            let loaded = CheckCache::load(&path);
            let mut replayed = DiagnosticBag::new();
            for (owner, def) in &noisy.methods() {
                let semhash = ruby_syntax::method_hash(def);
                let recs = loaded
                    .replay_lints(app.name, &noisy_files, owner, def, semhash)
                    .unwrap_or_else(|| {
                        panic!(
                            "{} seed {seed}: layout-only noise must replay `{}.{}`",
                            app.name, owner, def.name
                        )
                    });
                replayed.extend(recs.iter().map(record_to_diagnostic));
            }
            replayed.sort_by_span_then_code();

            // The oracle: lint the noisy parse from scratch.
            let fresh = lint_bag(&lint_pass_with_summaries(&noisy, None, 1));
            assert_eq!(
                render(&fresh),
                render(&replayed),
                "{} seed {seed}: replayed lint warnings diverged from a fresh lint of the \
                 noisy source",
                app.name
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A semantic edit (an injected assignment) moves the edited method's
/// semantic hash, so its lint verdict must refuse to replay while every
/// other method's verdict still does.
#[test]
fn semantic_edit_invalidates_exactly_the_edited_methods_lints() {
    let apps = corpus::apps::all();
    let app = apps.iter().find(|a| a.name == "Journey").expect("Journey app");
    let (program, _, _) = app.parse();
    let files = vec![content_hash(app.source), content_hash(app.test_suite)];
    let records: Vec<_> = program
        .methods()
        .iter()
        .map(|(owner, def)| {
            let fresh = analysis::lint_method(owner, def);
            let semhash = ruby_syntax::method_hash(def);
            (owner.clone(), *def, semhash, findings_to_records(&fresh))
        })
        .collect();
    let mut cache = CheckCache::new();
    cache.record_lints(app.name, files, &records);

    let edited_src = corpus::with_method_edit(app.source, "prompt").expect("prompt has a def");
    let (edited, _, _) = app.parse_with_source(&edited_src);
    let edited_files = vec![content_hash(&edited_src), content_hash(app.test_suite)];
    let mut misses = Vec::new();
    for (owner, def) in &edited.methods() {
        let semhash = ruby_syntax::method_hash(def);
        if cache.replay_lints(app.name, &edited_files, owner, def, semhash).is_none() {
            misses.push(def.name.clone());
        }
    }
    assert_eq!(misses, vec!["prompt".to_string()], "only the edited method re-lints");
}
