//! Error-resilience demo, asserted against a checked-in snapshot.
//!
//! Three degradation paths, each expected to be silent and surgical:
//! a syntax error poisons one method per corpus app while the rest of the
//! file parses and checks; an injected worker panic degrades one parallel
//! harness row to an `ICE0001` placeholder without aborting the others;
//! seeded corruption of the on-disk check cache always loads as a silent
//! cold re-check.  Output is compared against
//! `crates/corpus/examples/recovery.expected` (rerun with
//! `UPDATE_RECOVERY=1` to rewrite it).  CI runs this example, so the
//! snapshot is load-bearing.

use std::path::PathBuf;

fn snapshot_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/recovery.expected")
}

/// The first method whose poisoning is clean: exactly one `PARSE0002` and
/// every method slot still present in the recovered parse.
fn breakable_method(app: &corpus::App) -> Option<(String, String)> {
    let (base_prog, _, _) = app.parse();
    let base_count = base_prog.methods().len();
    for (_, def) in &base_prog.methods() {
        let Some(broken) = corpus::with_broken_method(app.source, &def.name) else { continue };
        let (prog, _, diags) = app.parse_with_source(&broken);
        if diags.len() == 1 && diags[0].code == "PARSE0002" && prog.methods().len() == base_count {
            return Some((def.name.clone(), broken));
        }
    }
    None
}

fn parser_recovery_section() -> String {
    let mut out = String::from("== parser recovery: one poisoned method per app ==\n");
    for app in corpus::apps::all() {
        let env = app.build_env();
        let (program, _, _) = app.parse();
        let healthy = comprdl::TypeChecker::new(&env, &program, comprdl::CheckOptions::default())
            .check_labeled("app")
            .methods_checked();

        let (name, broken_src) =
            breakable_method(&app).expect("every corpus app has a breakable method");
        let (broken_prog, _, diags) = app.parse_with_source(&broken_src);
        let checked =
            comprdl::TypeChecker::new(&env, &broken_prog, comprdl::CheckOptions::default())
                .check_labeled("app")
                .methods_checked();
        out.push_str(&format!(
            "{}: broke `{}` -> {} slots intact, {} of {} labeled methods still checked\n",
            app.name,
            name,
            broken_prog.methods().len(),
            checked,
            healthy,
        ));
        for d in &diags {
            out.push_str(&format!("    {d}\n"));
        }
    }
    out
}

fn panic_isolation_section() -> String {
    let mut out = String::from("== worker panic isolation ==\n");
    let plan = corpus::FaultPlan::none().with_app("Journey");
    // The injected panic is expected; keep its backtrace out of the output.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let rows = corpus::table2_parallel(&std::sync::Arc::new(comprdl::SharedMemo::new()), &plan)
        .expect("a worker panic must not abort the harness");
    std::panic::set_hook(prev);

    let ice_rows: Vec<_> =
        rows.iter().filter(|r| r.diagnostics.iter().any(|d| d.code == "ICE0001")).collect();
    out.push_str(&format!(
        "injected a panic into `Journey`: {}/{} rows returned, {} degraded\n",
        rows.len(),
        rows.len(),
        ice_rows.len()
    ));
    for row in &ice_rows {
        for d in row.diagnostics.iter() {
            out.push_str(&format!("    ICE: {d}\n"));
        }
    }
    out
}

fn cache_corruption_section() -> String {
    let mut out = String::from("== cache corruption durability ==\n");
    let apps = corpus::apps::all();
    let app = &apps[0];
    let mut cache = comprdl::CheckCache::new();
    let memo = std::sync::Arc::new(comprdl::SharedMemo::new());
    corpus::evaluate_app_incremental(app, None, &mut cache, &memo).expect("cold run");

    let dir = std::env::temp_dir().join(format!("recovery-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("check-cache.bin");
    cache.save(&path).expect("save cache");
    let pristine = std::fs::read(&path).expect("read cache");

    let seeds = 12u64;
    let mut cold = 0usize;
    for seed in 0..seeds {
        std::fs::write(&path, comprdl::corrupt(&pristine, seed)).expect("write damaged cache");
        let loaded = comprdl::CheckCache::load(&path);
        if loaded == cache {
            // The seeded damage happened to rewrite bytes with their own
            // values; the checksum (rightly) still accepts the file.
        } else {
            assert!(
                loaded.is_empty(),
                "seed {seed}: a corrupted cache must load empty, never partially"
            );
            cold += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    out.push_str(&format!(
        "{cold}/{seeds} seeded corruptions detected -> silent cold re-check; \
         the rest left the bytes intact (0 panics, 0 wrong replays)\n"
    ));
    out
}

fn main() {
    let report = format!(
        "{}{}{}",
        parser_recovery_section(),
        panic_isolation_section(),
        cache_corruption_section()
    );
    print!("{report}");

    let path = snapshot_path();
    if std::env::var("UPDATE_RECOVERY").is_ok() {
        std::fs::write(&path, &report).expect("write snapshot");
        println!("snapshot updated: {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e} (run with UPDATE_RECOVERY=1)", path.display()));
    assert_eq!(
        report, expected,
        "recovery report diverged from the checked-in snapshot; rerun with UPDATE_RECOVERY=1 \
         if the change is intentional"
    );
    println!("recovery report matches the checked-in snapshot");
}
