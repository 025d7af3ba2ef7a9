//! Type-level constant folding agrees with the interpreter: the core
//! library's folding helpers type an operation with constant operands as
//! the value the interpreter computes for it, and checked programs whose
//! operations fold neither report type errors nor blame at run time.

use comprdl::{eval_comp_type, type_of_value, CheckOptions, CompRdl, TlcValue, TypeChecker};
use rdl_types::TypeStore;
use ruby_interp::{Interpreter, Value};

fn core_env() -> CompRdl {
    let mut env = CompRdl::new();
    comprdl::stdlib::register_all(&mut env);
    env
}

/// Ruby source for a literal of `v`.
fn literal(v: &Value) -> String {
    match v {
        Value::Int(i64::MIN) => "(0 - 9223372036854775807 - 1)".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        other => other.inspect(),
    }
}

/// What the interpreter computes for `src`, or `None` when it raises.
fn run(src: &str) -> Option<Value> {
    let program = ruby_syntax::parse_program_strict(src).expect("parse");
    Interpreter::new(program).eval_program().ok()
}

/// Evaluates the comp expression `helper_call` with each operand bound
/// to the type of its value, and the interpreter's `operation` over the
/// same values, and requires the folded type to render as the type of the
/// interpreter's result, or as `fallback` when the interpreter raises.
fn assert_folds(
    env: &CompRdl,
    helper_call: &str,
    operation: &str,
    operands: &[(&str, &Value)],
    fallback: &str,
) {
    let mut store = TypeStore::new();
    let bindings = operands
        .iter()
        .map(|(name, v)| (name.to_string(), TlcValue::Type(type_of_value(v, &mut store))))
        .collect();
    let expr = ruby_syntax::parse_expr(helper_call).expect("parse");
    let folded = eval_comp_type(&mut store, &env.classes, &env.helpers, bindings, &expr)
        .unwrap_or_else(|e| panic!("{helper_call}: {e}"));
    let assignments: String =
        operands.iter().map(|(name, v)| format!("{name} = {}\n", literal(v))).collect();
    let case = format!("{assignments}{operation}");
    let expected = match run(&case) {
        Some(v) => {
            let t = type_of_value(&v, &mut store);
            store.render(&t)
        }
        None => fallback.to_string(),
    };
    assert_eq!(store.render(&folded), expected, "{helper_call} over\n{case}");
}

#[test]
fn folded_types_are_the_types_of_what_the_interpreter_computes() {
    let env = core_env();
    let numbers: Vec<Value> = [7, -7, 2, -2, 0, 3, 9_007_199_254_740_993, i64::MAX, i64::MIN]
        .into_iter()
        .map(Value::Int)
        .chain([2.5, -0.5, 0.0, -7.5].into_iter().map(Value::Float))
        .collect();
    for a in &numbers {
        for b in &numbers {
            let operands = [("a", a), ("b", b)];
            let both_int = matches!((a, b), (Value::Int(_), Value::Int(_)));
            let fallback = if both_int { "Integer" } else { "Float" };
            for op in ["+", "-", "*", "/", "%", "**"] {
                assert_folds(
                    &env,
                    &format!("fold(a, b, :{op})"),
                    &format!("a {op} b"),
                    &operands,
                    fallback,
                );
            }
            for op in ["<", ">", "<=", ">=", "=="] {
                let call = format!("fold_cmp(a, b, :{op})");
                assert_folds(&env, &call, &format!("a {op} b"), &operands, "%bool");
            }
        }
    }

    let strings: Vec<Value> =
        ["", "ab", " Hi there\n", "h\u{e9}llo"].into_iter().map(Value::str).collect();
    let ops = ["upcase", "downcase", "capitalize", "strip", "chomp", "reverse"];
    for s in &strings {
        for op in ops.iter().chain(&["to_s", "to_str", "freeze", "dup"]) {
            let call = format!("str_op(s, :{op})");
            assert_folds(&env, &call, &format!("s.{op}()"), &[("s", s)], "String");
        }
        assert_folds(&env, "str_len(s)", "s.length()", &[("s", s)], "Integer");
        for t in &strings {
            assert_folds(&env, "str_concat(s, t)", "s + t", &[("s", s), ("t", t)], "String");
        }
    }
}

/// Checks `src`'s `app` methods against `env`, then runs it under the
/// inserted checks; returns the type errors and the blames.
fn check_and_run(env: &CompRdl, src: &str) -> (Vec<String>, Vec<String>) {
    let program = ruby_syntax::parse_program_strict(src).expect("parse");
    let result = TypeChecker::new(env, &program, CheckOptions::default()).check_labeled("app");
    let errors = result.errors().iter().map(|e| e.to_string()).collect();
    let config = comprdl::CheckConfig { raise_blame: false, ..comprdl::CheckConfig::default() };
    let hook = comprdl::make_hook(
        result.checks(),
        result.store.clone(),
        env.classes.clone(),
        env.helpers.clone(),
        config,
    );
    let mut interp = Interpreter::new(program);
    interp.set_hook(hook.clone());
    interp.eval_program().unwrap_or_else(|e| panic!("{src}: {e}"));
    let blames = hook.take_blames().iter().map(|b| b.message.clone()).collect();
    (errors, blames)
}

#[test]
fn folded_integer_operations_check_and_run_without_false_reports() {
    let mut env = core_env();
    env.type_sig("Object", "half", "() -> Integer", Some("app"));
    env.type_sig("Object", "rem", "() -> Integer", Some("app"));
    env.type_sig("Object", "quot", "(Integer) -> Integer", Some("app"));
    for src in [
        "def half()\n  7 / 2\nend\nassert_equal(3, half())\n",
        "def rem()\n  x = -7 % 2\n  x\nend\nassert_equal(1, rem())\n",
        "def quot(n)\n  n / 2\nend\nassert_equal(3, quot(7))\n",
    ] {
        let (errors, blames) = check_and_run(&env, src);
        assert!(errors.is_empty(), "{src}: {errors:?}");
        assert!(blames.is_empty(), "{src}: {blames:?}");
    }
}

#[test]
fn unary_minus_is_typed_folded_and_checked() {
    let mut env = core_env();
    env.type_sig("Object", "neg", "(Integer) -> Integer", Some("app"));
    env.type_sig("Object", "negf", "(Float) -> Float", Some("app"));
    env.type_sig("Object", "square", "() -> Integer", Some("app"));
    let src = "def neg(x)\n  -x\nend\ndef negf(x)\n  -x\nend\ndef square()\n  -2 ** 2\nend\n\
               assert_equal(-5, neg(5))\nassert_equal(-2.5, negf(2.5))\n\
               assert_equal(-4, square())\n";
    let (errors, blames) = check_and_run(&env, src);
    assert!(errors.is_empty(), "{errors:?}");
    assert!(blames.is_empty(), "{blames:?}");

    // `-2 ** 2` folds to the singleton the program computes.
    let program = ruby_syntax::parse_program_strict("def square()\n  -2 ** 2\nend\n").unwrap();
    env.type_sig("Object", "square", "() -> String", Some("app"));
    let result = TypeChecker::new(&env, &program, CheckOptions::default()).check_labeled("app");
    let messages: Vec<String> = result.errors().iter().map(|e| e.message.clone()).collect();
    assert_eq!(messages, ["body has type `-4` but the method is declared to return `String`"]);
    assert_eq!(run("x = 5\n-x"), Some(Value::Int(-5)));
    assert_eq!(run("-2 ** 2"), Some(Value::Int(-4)));
}

#[test]
fn a_tuple_index_out_of_range_from_either_end_is_nil() {
    let mut env = core_env();
    // `Array#[]`'s comp type indexes a tuple through the `idx` helper.
    let tuple = Value::array(vec![Value::Int(1), Value::str("a")]);
    for i in [-10, -3, -2, -1, 0, 1, 2, 10] {
        let operands = [("a", &tuple), ("i", &Value::Int(i))];
        assert_folds(&env, "idx(a, i)", "a[i]", &operands, "nil");
    }
    env.type_sig("Object", "far", "() -> Integer", Some("app"));
    let src = "def far()\n  [1, 'a'][-10]\nend\nassert_equal(nil, far())\n";
    let (errors, blames) = check_and_run(&env, src);
    assert!(errors.is_empty(), "{errors:?}");
    assert!(blames.is_empty(), "{blames:?}");
}
