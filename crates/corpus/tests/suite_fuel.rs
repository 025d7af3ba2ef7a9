//! Pins each corpus app's test-suite cost in interpreter fuel (one unit per
//! AST node evaluated) and its dynamic-check count.  The suite must pass with
//! exactly `fuel` units and time out with one fewer, with and without the
//! inserted checks, so any change to how many nodes the interpreter
//! evaluates, or to which calls it checks, fails here.

use comprdl::{CheckConfig, CheckOptions, TypeChecker};
use ruby_interp::{ErrorKind, Interpreter};

/// (app, fuel, dynamic checks) for every corpus app, in Table 2 order.  The
/// checks sum to 1102, perfbench's `runtime.dynamic_checks` for a
/// `batch_cold` pass.
const PINS: [(&str, u64, u64); 8] = [
    ("Wikipedia", 1078, 145),
    ("Twitter", 1014, 126),
    ("Discourse", 873, 51),
    ("Huginn", 561, 18),
    ("Code.org", 1500, 67),
    ("Journey", 667, 22),
    ("Redmine", 20097, 488),
    ("Sequel", 4571, 185),
];

#[test]
fn every_suite_burns_its_pinned_fuel_and_runs_its_pinned_checks() {
    let apps = corpus::apps::all();
    assert_eq!(apps.len(), PINS.len());
    for (app, (name, fuel, checks)) in apps.iter().zip(PINS) {
        assert_eq!(app.name, name);
        let env = app.build_env();
        let (program, _, _) = app.parse();
        let comp = TypeChecker::new(&env, &program, CheckOptions::default()).check_labeled("app");
        // Blame is collected, not raised: the Sequel suite blames by design.
        let run = |fuel: u64, hooked: bool| {
            let mut interp = Interpreter::new(program.clone());
            interp.set_fuel(fuel);
            if hooked {
                interp.set_hook(comprdl::make_hook(
                    comp.checks(),
                    comp.store.clone(),
                    env.classes.clone(),
                    env.helpers.clone(),
                    CheckConfig { raise_blame: false, ..CheckConfig::default() },
                ));
            }
            interp.eval_program().map(|_| interp.checks_performed())
        };
        for hooked in [false, true] {
            let performed = run(fuel, hooked)
                .unwrap_or_else(|e| panic!("{name} (hook: {hooked}): suite fails on {fuel}: {e}"));
            assert_eq!(performed, if hooked { checks } else { 0 }, "{name} (hook: {hooked})");
            let short = run(fuel - 1, hooked).expect_err("one unit short must time out");
            assert_eq!(short.kind, ErrorKind::Timeout, "{name} (hook: {hooked}): {short}");
        }
    }
}
