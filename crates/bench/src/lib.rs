//! Shared helpers for the benchmark harness.
//!
//! The benchmarks under `benches/` time the paper's tables and ablations
//! and single layers of the checker.  Correctness gates live in
//! `cargo test`, and the end-to-end benchmark is `perfbench/`.

#![warn(missing_docs)]

pub mod results;

use comprdl::{CheckConfig, CheckOptions, TypeChecker};
use ruby_interp::Interpreter;

/// Type checks one corpus app with the given options and returns the result.
pub fn check_app(app: &corpus::App, options: CheckOptions) -> comprdl::ProgramCheckResult {
    let (env, program) = prepare_app(app);
    check_prepared(&env, &program, options)
}

/// Builds an app's environment and parses its source once, so benches can
/// time the *checking* phase alone (environment assembly re-parses hundreds
/// of annotation strings and would otherwise dominate the measurement).
/// Parsing uses the two-file view ([`corpus::App::parse`]), matching the
/// harness.
pub fn prepare_app(app: &corpus::App) -> (comprdl::CompRdl, ruby_syntax::Program) {
    let env = app.build_env();
    let (program, _sources, _diags) = app.parse();
    (env, program)
}

/// Type checks a prepared app (see [`prepare_app`]) sequentially.
pub fn check_prepared(
    env: &comprdl::CompRdl,
    program: &ruby_syntax::Program,
    options: CheckOptions,
) -> comprdl::ProgramCheckResult {
    TypeChecker::new(env, program, options).check_labeled("app")
}

/// Type checks a prepared app (see [`prepare_app`]) with `threads` workers.
pub fn check_prepared_parallel(
    env: &comprdl::CompRdl,
    program: &ruby_syntax::Program,
    threads: usize,
) -> comprdl::ProgramCheckResult {
    let selected = TypeChecker::labeled_methods(env, program, "app");
    TypeChecker::check_methods_parallel(
        env,
        program,
        CheckOptions::default(),
        &selected,
        threads,
        &[],
    )
}

/// Number of timed samples per benchmark: 2 when `BENCH_SMOKE` is set in
/// the environment (CI runs the benches as a correctness smoke test), the
/// given default otherwise.
pub fn sample_size(default: usize) -> usize {
    if std::env::var_os("BENCH_SMOKE").is_some() {
        2
    } else {
        default
    }
}

/// Builds a Discourse-schema workload with `methods` checked methods, each
/// performing several DB query calls whose comp types evaluate over a small
/// set of distinct query shapes.  The six paper apps are deliberately tiny
/// (a handful of call sites each); this models the density of a real Rails
/// app, where the same `where` / `exists?` comp types are evaluated at
/// hundreds of call sites — the workload both the evaluation cache and the
/// per-method threading are for.
pub fn scale_workload(methods: usize) -> (comprdl::CompRdl, ruby_syntax::Program) {
    use db_types::{ColumnType, DbRegistry};

    let mut db = DbRegistry::new();
    db.add_table(
        "users",
        &[
            ("id", ColumnType::Integer),
            ("username", ColumnType::String),
            ("staged", ColumnType::Boolean),
        ],
    );
    db.add_table(
        "emails",
        &[
            ("id", ColumnType::Integer),
            ("email", ColumnType::String),
            ("user_id", ColumnType::Integer),
        ],
    );
    db.add_model("User", "users");
    db.add_model("Email", "emails");
    db.add_association("User", "emails", "emails");

    let mut env = comprdl::CompRdl::new();
    comprdl::stdlib::register_all(&mut env);
    db_types::register_all(&mut env, std::sync::Arc::new(db));

    let mut src = String::from("class User < ActiveRecord::Base\n");
    for i in 0..methods {
        env.type_sig_singleton("User", &format!("m{i}"), "(String) -> %bool", Some("app"));
        // Four query call sites per method, including a raw-SQL `where`
        // whose comp type runs the embedded SQL type checker — the
        // expensive evaluation the cache is most valuable for.
        src.push_str(&format!(
            "  def self.m{i}(name)\n    \
             a = User.exists?({{ username: name }})\n    \
             b = User.where({{ staged: true }}).exists?({{ username: name }})\n    \
             c = User.joins(:emails).exists?({{ username: name, emails: {{ email: name }} }})\n    \
             d = User.where('username = ? AND id IN (SELECT user_id FROM emails WHERE email = ?)', name, name).exists?()\n    \
             a || b || c || d\n  end\n"
        ));
    }
    src.push_str("end\n");
    let program = ruby_syntax::parse_program_strict(&src).expect("generated workload parses");
    (env, program)
}

/// Runs one corpus app's test suite under the given dynamic-check
/// configuration (or completely unchecked when `config` is `None`),
/// returning the number of dynamic checks executed.
///
/// The `None` path deliberately skips static checking entirely: it is the
/// "no checks" baseline the overhead benches compare against, so it must
/// not pay for the checker inside a timed iteration.
pub fn run_app_suite(app: &corpus::App, config: Option<CheckConfig>) -> u64 {
    if config.is_some() {
        let (env, program) = prepare_app(app);
        let result = check_prepared(&env, &program, CheckOptions::default());
        run_prepared_suite(&env, &program, &result, config)
    } else {
        // No environment assembly either: `build_env` re-parses hundreds of
        // annotation strings, which the unchecked run never consumes.
        let (program, _sources, _diags) = app.parse();
        let interp = Interpreter::new(program);
        interp.eval_program().expect("suite passes");
        interp.checks_performed()
    }
}

/// Runs a prepared app's test suite (environment, program and checking
/// result built once via [`prepare_app`] + the checker), so benches can time
/// the suite run alone.  Returns the number of dynamic checks executed.
pub fn run_prepared_suite(
    env: &comprdl::CompRdl,
    program: &ruby_syntax::Program,
    checked: &comprdl::ProgramCheckResult,
    config: Option<CheckConfig>,
) -> u64 {
    match config {
        Some(config) => run_prepared_suite_shared(
            env,
            program,
            checked,
            config,
            &std::sync::Arc::new(comprdl::SharedMemo::new()),
            0,
        ),
        None => {
            let interp = Interpreter::new(program.clone());
            interp.eval_program().expect("suite passes");
            interp.checks_performed()
        }
    }
}

/// Like [`run_prepared_suite`], but the hook records into the given
/// [`comprdl::SharedMemo`] under `namespace` — so repeated iterations (and
/// other apps' runs) replay from one warm memo, the configuration the
/// `checked_vs_unchecked` bench measures and CI smoke-tests.
pub fn run_prepared_suite_shared(
    env: &comprdl::CompRdl,
    program: &ruby_syntax::Program,
    checked: &comprdl::ProgramCheckResult,
    config: CheckConfig,
    memo: &std::sync::Arc<comprdl::SharedMemo>,
    namespace: u64,
) -> u64 {
    let mut interp = Interpreter::new(program.clone());
    let hook = comprdl::make_hook_shared(
        checked.checks(),
        checked.store.clone(),
        env.classes.clone(),
        env.helpers.clone(),
        config,
        memo.clone(),
        namespace,
    );
    interp.set_hook(hook);
    interp.eval_program().expect("suite passes");
    interp.checks_performed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_drive_the_corpus() {
        let app = &corpus::apps::all()[0];
        let result = check_app(app, CheckOptions::default());
        assert!(result.methods_checked() > 0);
        assert_eq!(run_app_suite(app, None), 0);
        assert!(run_app_suite(app, Some(CheckConfig::default())) > 0);
    }

    #[test]
    fn the_eval_cache_agrees_with_uncached_checking_and_hits_on_the_scale_workload() {
        let (env, program) = scale_workload(40);
        let cached = check_prepared(&env, &program, CheckOptions::default());
        let uncached = check_prepared(
            &env,
            &program,
            CheckOptions { use_eval_cache: false, ..CheckOptions::default() },
        );
        let shape = |r: &comprdl::ProgramCheckResult| {
            let errors: Vec<String> = r.errors().iter().map(|e| e.to_string()).collect();
            (errors, r.total_casts(), r.methods_checked())
        };
        assert_eq!(shape(&cached), shape(&uncached));
        assert!(cached.cache_stats.hits > cached.cache_stats.misses, "{:?}", cached.cache_stats);
    }
}
