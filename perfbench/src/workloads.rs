//! The three workloads, each with its known answers.
//!
//! A workload is set up once per measurement (inputs generated from the
//! seed, reference reports computed), then runs passes: whole corpus or app
//! evaluations, each one the unit the benchmark times.  A pass is correct
//! when its `corpus::stable_report` is byte-identical to the reference for
//! its input, and the references themselves are checked in setup against
//! hand-written facts, not against the checker under test.

use crate::dense::{self, DenseApp};
use crate::recipe;
use crate::trace::Tracer;
use comprdl::{CheckCache, SharedMemo, TypeChecker};
use corpus::{App, Table2Row};
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub trait Workload {
    /// Passes in one script cycle; pass `i` runs step `i % cycle_len()`.
    fn cycle_len(&self) -> usize {
        1
    }
    /// One pass through the public entry point, tracing off.
    fn run(&mut self, step: usize) -> Result<Vec<Table2Row>, String>;
    /// The same pass through the traced recipe.
    fn run_traced(&mut self, step: usize, tr: &Tracer) -> Result<Vec<Table2Row>, String>;
    /// The known `stable_report` of `step`.
    fn expected(&self, step: usize) -> &str;
    /// Size of the on-disk check cache (0 for workloads without one).
    fn cache_bytes(&self) -> u64 {
        0
    }
}

pub fn setup(name: &str, seed: u64, work_dir: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "batch_cold" => Box::new(BatchCold::setup()?),
        "edit_script" => Box::new(EditScript::setup(seed, work_dir)?),
        "dense_app" => Box::new(Dense::setup(seed)?),
        other => {
            return Err(format!(
                "unknown workload `{other}`; one of batch_cold, edit_script, dense_app"
            ))
        }
    })
}

/// The hand-written facts every full corpus evaluation must show: each app
/// reports its seeded error count (three in all), only Sequel's migrating
/// suite blames (three times), and plain RDL needs at least twice the casts.
fn check_corpus_facts(rows: &[Table2Row]) -> Result<(), String> {
    let apps = corpus::apps::all();
    if rows.len() != apps.len() {
        return Err(format!("{} rows for {} apps", rows.len(), apps.len()));
    }
    for (app, row) in apps.iter().zip(rows) {
        let blames = if app.name == "Sequel" { 3 } else { 0 };
        if row.program != app.name
            || row.errors() != app.expected_errors
            || row.runtime_blames.len() != blames
        {
            return Err(format!(
                "{}: {} errors and {} blames, expected {} and {blames}",
                row.program,
                row.errors(),
                row.runtime_blames.len(),
                app.expected_errors
            ));
        }
    }
    let errors: usize = rows.iter().map(Table2Row::errors).sum();
    let casts: usize = rows.iter().map(|r| r.casts).sum();
    let casts_rdl: usize = rows.iter().map(|r| r.casts_rdl).sum();
    if errors != 3 || casts_rdl < 2 * casts {
        return Err(format!("{errors} errors (expected 3), casts {casts} vs RDL {casts_rdl}"));
    }
    Ok(())
}

/// `batch_cold`: one sequential, from-scratch Table 2 pass over the eight
/// corpus apps (`corpus::table2`).  The corpus is fixed, so the seed picks
/// nothing here.
struct BatchCold {
    expected: String,
}

impl BatchCold {
    fn setup() -> Result<Self, String> {
        let rows = corpus::table2().map_err(|e| e.to_string())?;
        check_corpus_facts(&rows)?;
        Ok(BatchCold { expected: corpus::stable_report(&rows) })
    }
}

impl Workload for BatchCold {
    fn run(&mut self, _step: usize) -> Result<Vec<Table2Row>, String> {
        corpus::table2().map_err(|e| e.to_string())
    }

    fn run_traced(&mut self, _step: usize, tr: &Tracer) -> Result<Vec<Table2Row>, String> {
        tr.span("pass", || {
            let memo = Arc::new(SharedMemo::new());
            let rows = corpus::apps::all()
                .iter()
                .map(|app| recipe::app_shared(app, &memo, tr))
                .collect::<Result<Vec<_>, _>>()?;
            recipe::count_memo(tr, &memo);
            Ok(rows)
        })
    }

    fn expected(&self, _step: usize) -> &str {
        &self.expected
    }
}

/// Script steps per `edit_script` cycle.
const EDIT_STEPS: usize = 12;

/// One step of the edit script: corpus app `app` with one of its labeled
/// methods edited, plus layout noise.
struct EditStep {
    app: usize,
    source: String,
    expected: String,
}

/// `edit_script`: each pass loads the on-disk `CheckCache`, evaluates the
/// corpus incrementally with one app's source replaced by the step's edit,
/// and saves the cache for the next step.  Every step edits a fresh copy of
/// the untouched sources.
struct EditScript {
    apps: Vec<App>,
    steps: Vec<EditStep>,
    cache_path: PathBuf,
}

/// `corpus::evaluate_app_incremental` over every app, all sharing one fresh
/// memo (as `corpus::table2_incremental` does), with `edit` applied.
fn incremental_pass(
    apps: &[App],
    edit: Option<&EditStep>,
    cache: &mut CheckCache,
) -> Result<Vec<Table2Row>, String> {
    let memo = Arc::new(SharedMemo::new());
    apps.iter()
        .enumerate()
        .map(|(i, app)| {
            let source = edit.filter(|e| e.app == i).map(|e| e.source.as_str());
            corpus::evaluate_app_incremental(app, source, cache, &memo)
                .map(|(row, _)| row)
                .map_err(|e| e.to_string())
        })
        .collect()
}

impl EditScript {
    fn setup(seed: u64, work_dir: &Path) -> Result<Self, String> {
        let apps = corpus::apps::all();
        let mut rng = crate::rng(seed, 0xed17);
        let mut steps = Vec::with_capacity(EDIT_STEPS);
        for _ in 0..EDIT_STEPS {
            let idx = rng.below(apps.len() as u64) as usize;
            let app = &apps[idx];
            let env = app.build_env();
            let (program, _, _) = app.parse();
            let mut names: Vec<String> = TypeChecker::labeled_methods(&env, &program, "app")
                .into_iter()
                .map(|(_, def)| def.name.clone())
                .filter(|name| corpus::with_method_edit(app.source, name).is_some())
                .collect();
            names.sort();
            names.dedup();
            if names.is_empty() {
                return Err(format!("{}: no editable labeled method", app.name));
            }
            let method = &names[rng.below(names.len() as u64) as usize];
            let edited = corpus::with_method_edit(app.source, method).expect("filtered above");
            let source = corpus::with_layout_noise(&edited, rng.next_u64());
            // The reference: a from-scratch run of the same sources with an
            // empty cache, which must itself show the corpus facts.
            let edit = EditStep { app: idx, source, expected: String::new() };
            let rows = incremental_pass(&apps, Some(&edit), &mut CheckCache::new())?;
            check_corpus_facts(&rows)?;
            steps.push(EditStep { expected: corpus::stable_report(&rows), ..edit });
        }
        // The cold fill: the untouched corpus, saved for the first step.
        let cache_path = work_dir.join(format!("edit-cache-{}.bin", std::process::id()));
        let mut cache = CheckCache::new();
        incremental_pass(&apps, None, &mut cache)?;
        cache.save(&cache_path).map_err(|e| format!("saving the cache: {e}"))?;
        Ok(EditScript { apps, steps, cache_path })
    }
}

impl Workload for EditScript {
    fn cycle_len(&self) -> usize {
        self.steps.len()
    }

    fn run(&mut self, step: usize) -> Result<Vec<Table2Row>, String> {
        let mut cache = CheckCache::load(&self.cache_path);
        let rows = incremental_pass(&self.apps, Some(&self.steps[step]), &mut cache)?;
        cache.save(&self.cache_path).map_err(|e| format!("saving the cache: {e}"))?;
        Ok(rows)
    }

    fn run_traced(&mut self, step: usize, tr: &Tracer) -> Result<Vec<Table2Row>, String> {
        let edit = &self.steps[step];
        tr.span("pass", || {
            let mut cache = tr.span("persist.load", || CheckCache::load(&self.cache_path));
            let memo = Arc::new(SharedMemo::new());
            let rows = self
                .apps
                .iter()
                .enumerate()
                .map(|(i, app)| {
                    let source = (edit.app == i).then_some(edit.source.as_str());
                    recipe::app_incremental(app, source, &mut cache, &memo, tr)
                })
                .collect::<Result<Vec<_>, _>>()?;
            tr.span("persist.save", || cache.save(&self.cache_path))
                .map_err(|e| format!("saving the cache: {e}"))?;
            recipe::count_memo(tr, &memo);
            Ok(rows)
        })
    }

    fn expected(&self, step: usize) -> &str {
        &self.steps[step].expected
    }

    fn cache_bytes(&self) -> u64 {
        std::fs::metadata(&self.cache_path).map_or(0, |m| m.len())
    }
}

impl Drop for EditScript {
    fn drop(&mut self) {
        // Best effort: a leftover file only wastes space in the work dir.
        let _ = std::fs::remove_file(&self.cache_path);
    }
}

/// `dense_app`: the static pipeline over a generated app with
/// [`dense::METHODS`] checked methods.
struct Dense {
    app: DenseApp,
    expected: String,
    untraced: Tracer,
}

impl Dense {
    fn setup(seed: u64) -> Result<Self, String> {
        let app = dense::generate(seed);
        let untraced = Tracer::off();
        let row = recipe::dense_pass(&app, &untraced);
        if row.errors() != app.ill_typed || row.methods != app.methods.len() {
            return Err(format!(
                "dense app: {} errors over {} methods, expected {} over {}",
                row.errors(),
                row.methods,
                app.ill_typed,
                app.methods.len()
            ));
        }
        let expected = corpus::stable_report(&[row]);
        Ok(Dense { app, expected, untraced })
    }
}

impl Workload for Dense {
    fn run(&mut self, _step: usize) -> Result<Vec<Table2Row>, String> {
        Ok(vec![recipe::dense_pass(&self.app, &self.untraced)])
    }

    fn run_traced(&mut self, _step: usize, tr: &Tracer) -> Result<Vec<Table2Row>, String> {
        tr.span("pass", || Ok(vec![recipe::dense_pass(&self.app, tr)]))
    }

    fn expected(&self, _step: usize) -> &str {
        &self.expected
    }
}
