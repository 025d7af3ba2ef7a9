//! Incremental re-checking of the corpus against a persistent
//! [`CheckCache`], plus the seeded source edits the incremental tests and
//! benchmarks drive it with.
//!
//! An incremental run is the corpus driver ([`crate::evaluate_app`]) with
//! a cache: it re-checks only the methods whose **Merkle dependency hash**
//! moved since the cached run and replays the rest (see [`crate::driver`]
//! for the two phases), so its [`crate::stable_report`] is byte-identical
//! to a from-scratch run.

use crate::app::App;
use crate::driver::{evaluate_app, AppRecheck};
use crate::harness::{HarnessError, Table2Row};
use comprdl::{CheckCache, SharedMemo};
use std::sync::Arc;

/// Runs the full evaluation for one app incrementally against `cache`
/// (sequential checking), optionally with its source replaced by
/// `source_override` (the edited-file scenario), and records the (possibly
/// refreshed) verdicts back into `cache`.  See [`crate::evaluate_app`].
///
/// # Errors
///
/// See [`crate::evaluate_app`].
pub fn evaluate_app_incremental(
    app: &App,
    source_override: Option<&str>,
    cache: &mut CheckCache,
    memo: &Arc<SharedMemo>,
) -> Result<(Table2Row, AppRecheck), HarnessError> {
    evaluate_app(app, source_override, 1, memo, Some(cache))
}

/// Runs the whole corpus incrementally against `cache` (all checked runs
/// sharing one runtime memo, like [`crate::table2`]), returning the Table 2
/// rows plus the per-app replay/re-check counters.  The caller owns loading
/// and saving the cache ([`CheckCache::load`] / [`CheckCache::save`]).
///
/// # Errors
///
/// See [`crate::evaluate_app`].
pub fn table2_incremental(
    cache: &mut CheckCache,
) -> Result<(Vec<Table2Row>, Vec<AppRecheck>), HarnessError> {
    let memo = Arc::new(SharedMemo::new());
    let runs: Vec<(Table2Row, AppRecheck)> = crate::apps::all()
        .iter()
        .map(|app| evaluate_app(app, None, 1, &memo, Some(&mut *cache)))
        .collect::<Result<_, _>>()?;
    Ok(runs.into_iter().unzip())
}

// ---------------------------------------------------------------------------
// Seeded edit injection
// ---------------------------------------------------------------------------

/// Applies seeded **layout-only** noise to a source file: comment lines
/// before method definitions, blank lines after `end`, trailing whitespace.
/// Every byte offset downstream of an insertion moves, but no semantic hash
/// may — that invariant is what the property tests pin down.
pub fn with_layout_noise(source: &str, seed: u64) -> String {
    let mut rng = test_rng::Rng::new(seed | 1);
    let mut out = String::new();
    for line in source.lines() {
        let trimmed = line.trim_start();
        let indent = &line[..line.len() - trimmed.len()];
        if trimmed.starts_with("def ") && rng.below(2) == 0 {
            out.push_str(indent);
            out.push_str(&format!("# noise {}\n", rng.below(10_000)));
        }
        out.push_str(line);
        if rng.below(4) == 0 {
            out.push_str("  ");
        }
        out.push('\n');
        if trimmed == "end" && rng.below(2) == 0 {
            out.push('\n');
        }
    }
    out
}

/// Injects a **syntax error** into the named method by overwriting its
/// first body line with an unparsable one (a stray `)`) padded with spaces
/// to exactly the original line's byte length, so every span *outside* the
/// poisoned method keeps its byte offsets and line numbers — which is what
/// lets the robustness tests assert byte-identical diagnostics for every
/// other method.  Returns `None` when no `def <method>` line exists or the
/// def line has no body line after it.
pub fn with_broken_method(source: &str, method: &str) -> Option<String> {
    let plain = format!("def {method}(");
    let singleton = format!("def self.{method}(");
    let lines: Vec<&str> = source.lines().collect();
    let def_idx = lines.iter().position(|line| {
        let t = line.trim_start();
        t.starts_with(&plain) || t.starts_with(&singleton)
    })?;
    let body = lines.get(def_idx + 1)?;
    if body.trim() == "end" {
        // Overwriting the `end` of an empty method would unbalance the
        // whole file instead of poisoning one def.
        return None;
    }
    let mut broken = String::from("  )");
    while broken.len() < body.len() {
        broken.push(' ');
    }
    let mut out = String::new();
    for (i, line) in lines.iter().enumerate() {
        out.push_str(if i == def_idx + 1 { &broken } else { line });
        out.push('\n');
    }
    Some(out)
}

/// Injects a **semantic** edit into the named method: a harmless local
/// assignment as the first body statement.  The method still parses, still
/// type checks to the same verdict shape, and its test suite still passes —
/// but its structural hash (and therefore the Merkle hash of the method and
/// every transitive caller) moves.  Returns `None` when no `def <method>`
/// line exists.
pub fn with_method_edit(source: &str, method: &str) -> Option<String> {
    let plain = format!("def {method}(");
    let singleton = format!("def self.{method}(");
    let mut out = String::new();
    let mut hit = false;
    for line in source.lines() {
        out.push_str(line);
        out.push('\n');
        let trimmed = line.trim_start();
        if !hit && (trimmed.starts_with(&plain) || trimmed.starts_with(&singleton)) {
            out.push_str("  __edit_probe = 1\n");
            hit = true;
        }
    }
    hit.then_some(out)
}
