//! Shared helpers for the benchmark harness.
//!
//! The benchmarks under `benches/` time the paper's tables and ablations,
//! the threaded checker and the shared run-time check memo; `memo_churn`
//! also records its medians and memo counters in `BENCH_SHARED_MEMO.json`
//! ([`results`]).  The benches only time: correctness gates live in
//! `cargo test`, and the end-to-end benchmark is `perfbench/`.

#![warn(missing_docs)]

pub mod results;

use comprdl::{CheckConfig, CheckOptions, TypeChecker};
use ruby_interp::{Interpreter, ResolvedProgram};
use std::rc::Rc;

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

/// Runs a prepared app's test suite (environment, resolved program and
/// checking result built once via [`prepare_app`], [`ResolvedProgram::new`]
/// and [`check_prepared`]), so benches time the suite run alone, as the
/// corpus driver does.  With `config`, the checker's inserted dynamic
/// checks run through a hook with a private memo; with `None`, no hook is
/// installed.  Returns the number of dynamic checks executed.
pub fn run_prepared_suite(
    env: &comprdl::CompRdl,
    suite: &Rc<ResolvedProgram>,
    checked: &comprdl::ProgramCheckResult,
    config: Option<CheckConfig>,
) -> u64 {
    let mut interp = Interpreter::with_program(suite.clone());
    if let Some(config) = config {
        interp.set_hook(comprdl::make_hook(
            checked.checks(),
            checked.store.clone(),
            env.classes.clone(),
            env.helpers.clone(),
            config,
        ));
    }
    interp.eval_program().expect("suite passes");
    interp.checks_performed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_drive_the_corpus() {
        let (env, program) = prepare_app(&corpus::apps::all()[0]);
        let result = check_prepared(&env, &program, CheckOptions::default());
        assert!(result.methods_checked() > 0);
        let suite = Rc::new(ResolvedProgram::new(&program));
        assert_eq!(run_prepared_suite(&env, &suite, &result, None), 0);
        assert!(run_prepared_suite(&env, &suite, &result, Some(CheckConfig::default())) > 0);
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
        let parallel = check_prepared_parallel(&env, &program, 4);
        // The workload type checks cleanly, so the inserted checks (site and
        // rendered expected type, in program order) carry the comparison.
        let shape = |r: &comprdl::ProgramCheckResult| {
            let errors: Vec<String> = r.errors().iter().map(|e| e.to_string()).collect();
            let checks: Vec<_> = r
                .methods
                .iter()
                .flat_map(|m| &m.checks)
                .map(|c| (c.site, r.store.render(&c.expected_return)))
                .collect();
            (errors, r.total_casts(), r.methods_checked(), checks)
        };
        let sequential = shape(&cached);
        assert_eq!(sequential.3.len(), 280, "seven inserted checks per method");
        assert_eq!(shape(&uncached), sequential, "the eval cache changed the result");
        assert_eq!(shape(&parallel), sequential, "4-thread checking changed the result");
        assert!(cached.cache_stats.hits > cached.cache_stats.misses, "{:?}", cached.cache_stats);
    }
}
