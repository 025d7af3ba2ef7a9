//! Comp-type annotations for `Integer` and `Float` (paper Table 1: 108 and
//! 98 methods).
//!
//! These lift arithmetic to the type level when the operands have singleton
//! types, effectively performing constant folding during type checking
//! (paper §2.4 "Constant Folding"); in the common non-singleton case they
//! fall back to the usual numeric types.

use crate::env::CompRdl;
use rdl_types::{PurityEffect, TermEffect};

/// Shared arithmetic / comparison annotations for both numeric classes.
const ARITH: &[(&str, &str)] = &[
    ("+", "(t<:Numeric) -> «fold(tself, t, :+)»"),
    ("-", "(t<:Numeric) -> «fold(tself, t, :-)»"),
    ("*", "(t<:Numeric) -> «fold(tself, t, :*)»"),
    ("/", "(t<:Numeric) -> «fold(tself, t, :/)»"),
    ("%", "(t<:Numeric) -> «fold(tself, t, :%)»"),
    ("**", "(t<:Numeric) -> «fold(tself, t, :**)»"),
    ("modulo", "(t<:Numeric) -> «fold(tself, t, :%)»"),
    ("divmod", "(t<:Numeric) -> Array<Numeric>"),
    ("fdiv", "(t<:Numeric) -> Float"),
    ("<", "(t<:Numeric) -> «fold_cmp(tself, t, :<)»"),
    (">", "(t<:Numeric) -> «fold_cmp(tself, t, :>)»"),
    ("<=", "(t<:Numeric) -> «fold_cmp(tself, t, :<=)»"),
    (">=", "(t<:Numeric) -> «fold_cmp(tself, t, :>=)»"),
    ("==", "(t<:Object) -> «fold_cmp(tself, t, :==)»"),
    ("!=", "(t<:Object) -> %bool"),
    ("<=>", "(t<:Numeric) -> Integer or nil"),
    ("eql?", "(t<:Object) -> %bool"),
    ("equal?", "(t<:Object) -> %bool"),
    ("coerce", "(t<:Numeric) -> Array<Numeric>"),
    ("abs", "() -> «self_type(tself)»"),
    ("magnitude", "() -> «self_type(tself)»"),
    ("abs2", "() -> «fold(tself, tself, :*)»"),
    ("zero?", "() -> «fold_cmp(tself, Singleton.new(0), :==)»"),
    ("positive?", "() -> «fold_cmp(tself, Singleton.new(0), :>)»"),
    ("negative?", "() -> «fold_cmp(tself, Singleton.new(0), :<)»"),
    ("nonzero?", "() -> «maybe(self_type(tself))»"),
    ("finite?", "() -> %bool"),
    ("infinite?", "() -> Integer or nil"),
    ("nan?", "() -> %bool"),
    ("to_i", "() -> Integer"),
    ("to_int", "() -> Integer"),
    ("to_f", "() -> Float"),
    ("to_r", "() -> Object"),
    ("to_c", "() -> Object"),
    ("to_s", "() -> String"),
    ("inspect", "() -> String"),
    ("hash", "() -> Integer"),
    ("floor", "(?Integer) -> Integer"),
    ("ceil", "(?Integer) -> Integer"),
    ("round", "(?Integer) -> Integer"),
    ("truncate", "(?Integer) -> Integer"),
    ("divide_by?", "(t<:Numeric) -> %bool"),
    ("between?", "(Numeric, Numeric) -> %bool"),
    ("clamp", "(Numeric, Numeric) -> «self_type(tself)»"),
    ("step", "(Numeric, ?Numeric) { (Numeric) -> Object } -> «self_type(tself)»"),
    ("min", "(t<:Numeric) -> Numeric"),
    ("max", "(t<:Numeric) -> Numeric"),
    ("integer?", "() -> %bool"),
    ("real?", "() -> %bool"),
    ("real", "() -> «self_type(tself)»"),
    ("imaginary", "() -> Integer"),
    ("numerator", "() -> Integer"),
    ("denominator", "() -> Integer"),
    ("quo", "(t<:Numeric) -> Numeric"),
    ("remainder", "(t<:Numeric) -> «self_type(tself)»"),
    ("frozen?", "() -> %bool"),
    ("freeze", "() -> «self_type(tself)»"),
    ("dup", "() -> «self_type(tself)»"),
    ("clone", "() -> «self_type(tself)»"),
    ("class", "() -> Class"),
    ("nil?", "() -> false"),
    ("singleton_class", "() -> Class"),
    ("tap", "() { (Numeric) -> Object } -> «self_type(tself)»"),
    ("then", "() { (Numeric) -> Object } -> Object"),
    ("instance_of?", "(t<:Object) -> %bool"),
    ("is_a?", "(t<:Object) -> %bool"),
    ("kind_of?", "(t<:Object) -> %bool"),
    ("respond_to?", "(t<:Object) -> %bool"),
    ("send", "(t<:Object, *Object) -> Object"),
    ("method", "(t<:Object) -> Object"),
    ("methods", "() -> Array<Symbol>"),
    ("display", "() -> nil"),
];

/// Integer-only annotations.
const INTEGER_ONLY: &[(&str, &str)] = &[
    ("succ", "() -> «fold(tself, Singleton.new(1), :+)»"),
    ("next", "() -> «fold(tself, Singleton.new(1), :+)»"),
    ("pred", "() -> «fold(tself, Singleton.new(1), :-)»"),
    ("times", "() { (Integer) -> Object } -> Integer"),
    ("upto", "(Integer) { (Integer) -> Object } -> Integer"),
    ("downto", "(Integer) { (Integer) -> Object } -> Integer"),
    ("even?", "() -> %bool"),
    ("odd?", "() -> %bool"),
    ("ord", "() -> «self_type(tself)»"),
    ("chr", "() -> String"),
    ("digits", "(?Integer) -> Array<Integer>"),
    ("bit_length", "() -> Integer"),
    ("gcd", "(Integer) -> Integer"),
    ("lcm", "(Integer) -> Integer"),
    ("gcdlcm", "(Integer) -> Array<Integer>"),
    ("pow", "(t<:Numeric, ?Integer) -> «fold(tself, t, :**)»"),
    ("div", "(t<:Numeric) -> Integer"),
    ("&", "(Integer) -> Integer"),
    ("|", "(Integer) -> Integer"),
    ("^", "(Integer) -> Integer"),
    ("~", "() -> Integer"),
    ("<<", "(Integer) -> Integer"),
    (">>", "(Integer) -> Integer"),
    ("[]", "(Integer) -> Integer"),
    ("allbits?", "(Integer) -> %bool"),
    ("anybits?", "(Integer) -> %bool"),
    ("nobits?", "(Integer) -> %bool"),
    ("to_s2", "(?Integer) -> String"),
    ("size", "() -> Integer"),
    ("integer_sqrt", "() -> Integer"),
    ("rationalize", "(?Float) -> Object"),
    ("lcm_with?", "(Integer) -> %bool"),
    ("prime_like?", "() -> %bool"),
];

/// Float-only annotations.
const FLOAT_ONLY: &[(&str, &str)] = &[
    ("nan_or_zero?", "() -> %bool"),
    ("prev_float", "() -> Float"),
    ("next_float", "() -> Float"),
    ("rationalize", "(?Float) -> Object"),
    ("angle", "() -> Numeric"),
    ("arg", "() -> Numeric"),
    ("phase", "() -> Numeric"),
    ("quo_float", "(t<:Numeric) -> Float"),
    ("floor_digits", "(Integer) -> Float"),
    ("ceil_digits", "(Integer) -> Float"),
    ("round_digits", "(Integer) -> Float"),
    ("truncate_digits", "(Integer) -> Float"),
    ("to_big", "() -> Float"),
    ("exponent", "() -> Integer"),
    ("fraction", "() -> Float"),
    ("eps_eq?", "(Float) -> %bool"),
    ("signbit?", "() -> %bool"),
    ("copysign", "(Float) -> Float"),
    ("ldexp", "(Integer) -> Float"),
    ("frexp", "() -> Array<Numeric>"),
    ("hypot", "(Float) -> Float"),
    ("sqrt_approx", "() -> Float"),
    ("cbrt_approx", "() -> Float"),
];

const BLOCKDEP: &[&str] = &["times", "upto", "downto", "step", "tap", "then"];

/// Unary minus (`-x` parses as `x.-@`), annotated once on the common
/// superclass: it folds like `0 - x`.
const UNARY_MINUS: &str = "() -> «fold(Singleton.new(0), tself, :-)»";

/// Registers the Integer and Float annotation sets, and unary minus on
/// `Numeric`, into `env`.
pub fn register(env: &mut CompRdl) {
    for (class, extra) in [("Integer", INTEGER_ONLY), ("Float", FLOAT_ONLY)] {
        for (name, sig) in ARITH.iter().chain(extra.iter()) {
            let term =
                if BLOCKDEP.contains(name) { TermEffect::BlockDep } else { TermEffect::Terminates };
            env.type_sig_with_effects(class, name, sig, term, PurityEffect::Pure);
        }
    }
    env.type_sig_with_effects(
        "Numeric",
        "-@",
        UNARY_MINUS,
        TermEffect::Terminates,
        PurityEffect::Pure,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::CompRdl;

    #[test]
    fn registers_both_numeric_classes() {
        let mut env = CompRdl::new();
        crate::stdlib::register_native_helpers(&mut env);
        env.register_helpers_ruby(crate::stdlib::RUBY_HELPERS);
        register(&mut env);
        assert!(env.annotation_count("Integer") >= 100);
        assert!(env.annotation_count("Float") >= 90);
    }

    #[test]
    fn no_duplicate_method_names() {
        for extra in [INTEGER_ONLY, FLOAT_ONLY] {
            let mut names: Vec<&str> = ARITH.iter().chain(extra.iter()).map(|(n, _)| *n).collect();
            let before = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(before, names.len(), "duplicate numeric annotations");
        }
    }
}
