//! # rdl-types
//!
//! The RDL type language used by the CompRDL-rs reproduction of *"Type-Level
//! Computations for Ruby Libraries"* (PLDI 2019): the type representation
//! (nominal, singleton, generic, union, optional, variable, tuple, finite
//! hash and const string types), the class hierarchy, subtyping and joins,
//! the mutable [`TypeStore`] with promotion and weak updates, method
//! signatures with comp types and effects, and a parser for the textual
//! annotation language.
//!
//! Subtyping ([`Subtyper::is_subtype`]), digests ([`TypeStore::fingerprint`])
//! and rendering ([`TypeStore::render`]) are plain structural walks over
//! [`Type`] trees.  Store-backed parts are read through the store on every
//! visit, so a promotion or weak update is visible to the next query; the
//! store's [`generation`](TypeStore::generation) counter is what callers
//! that cache derived results compare against.  The crate holds no global
//! state.
//!
//! ## Quick start
//!
//! ```
//! use rdl_types::{ClassTable, Subtyper, Type, TypeStore, parse_method_sig};
//!
//! let classes = ClassTable::with_builtins();
//! let store = TypeStore::new();
//! let sub = Subtyper::new(&classes);
//! assert!(sub.is_subtype(&store, &Type::sym("emails"), &Type::nominal("Symbol")));
//!
//! let sig = parse_method_sig("(t<:Symbol) -> «schema_type(tself)»").unwrap();
//! assert!(sig.is_comp());
//! ```

#![warn(missing_docs)]

pub mod class;
pub mod fingerprint;
pub mod name;
pub mod parse;
pub mod sig;
pub mod store;
pub mod subtype;
pub mod ty;

pub use class::{ClassInfo, ClassTable};
pub use fingerprint::Fingerprint;
pub use name::Name;
pub use parse::{parse_method_sig, parse_type_expr, SigParseError};
pub use sig::{
    render_blame, AnnotationTable, CompSpec, EffectJoin, EffectLookup, EffectTable, MethodKind,
    MethodSig, MethodSummary, ParamSig, PurityEffect, Taint, TermEffect, TypeExpr,
};
pub use store::{ConstStringData, Constraint, FiniteHashData, StoreShift, TupleData, TypeStore};
pub use subtype::Subtyper;
pub use ty::{ConstStringId, FiniteHashId, HashKey, SingVal, TupleId, Type};

// Deterministic property tests. The container has no crates.io access, so
// instead of `proptest` these use a seeded xorshift generator to draw a few
// thousand random store-free types and assert the same algebraic properties
// a shrinking property tester would.
#[cfg(test)]
mod proptests {
    use super::*;

    use test_rng::Rng;

    fn leaf_type(rng: &mut Rng) -> Type {
        match rng.below(19) {
            0 => Type::Top,
            1 => Type::Bot,
            2 => Type::Bool,
            3 => Type::nominal("Object"),
            4 => Type::nominal("String"),
            5 => Type::nominal("Integer"),
            6 => Type::nominal("Float"),
            7 => Type::nominal("Numeric"),
            8 => Type::nominal("Symbol"),
            9 => Type::nominal("Array"),
            10 => Type::nominal("Hash"),
            11 => Type::sym("emails"),
            12 => Type::sym("users"),
            13 => Type::int(0),
            14 => Type::int(42),
            15 => Type::nil(),
            16 => Type::Singleton(SingVal::True),
            17 => Type::Singleton(SingVal::False),
            _ => Type::class_of("User"),
        }
    }

    fn arb_type(rng: &mut Rng, depth: u32) -> Type {
        if depth == 0 || rng.below(2) == 0 {
            return leaf_type(rng);
        }
        match rng.below(3) {
            0 => Type::array(arb_type(rng, depth - 1)),
            1 => Type::hash(arb_type(rng, depth - 1), arb_type(rng, depth - 1)),
            _ => {
                let n = 1 + rng.below(3) as usize;
                Type::union((0..n).map(|_| arb_type(rng, depth - 1)))
            }
        }
    }

    const CASES: usize = 2000;

    /// Subtyping is reflexive, and everything is below Top / above Bot.
    #[test]
    fn subtyping_reflexive_top_bot() {
        let classes = ClassTable::with_builtins();
        let store = TypeStore::new();
        let sub = Subtyper::new(&classes);
        let mut rng = Rng::new(0xC0FFEE);
        for _ in 0..CASES {
            let t = arb_type(&mut rng, 3);
            assert!(sub.is_subtype(&store, &t, &t), "{t} not <= itself");
            assert!(sub.is_subtype(&store, &t, &Type::Top), "{t} not <= Top");
            assert!(sub.is_subtype(&store, &Type::Bot, &t), "Bot not <= {t}");
        }
    }

    /// Subtyping is transitive on the generated fragment.
    #[test]
    fn subtyping_transitive() {
        let classes = ClassTable::with_builtins();
        let store = TypeStore::new();
        let sub = Subtyper::new(&classes);
        let mut rng = Rng::new(0xBADCAB);
        for _ in 0..CASES {
            let a = arb_type(&mut rng, 2);
            let b = arb_type(&mut rng, 2);
            let c = arb_type(&mut rng, 2);
            if sub.is_subtype(&store, &a, &b) && sub.is_subtype(&store, &b, &c) {
                assert!(sub.is_subtype(&store, &a, &c), "transitivity failed: {a} <= {b} <= {c}");
            }
        }
    }

    /// The join is an upper bound of both inputs.
    #[test]
    fn lub_is_upper_bound() {
        let classes = ClassTable::with_builtins();
        let store = TypeStore::new();
        let sub = Subtyper::new(&classes);
        let mut rng = Rng::new(0xFEED01);
        for _ in 0..CASES {
            let a = arb_type(&mut rng, 3);
            let b = arb_type(&mut rng, 3);
            let j = sub.lub(&store, &a, &b);
            assert!(sub.is_subtype(&store, &a, &j), "{a} not <= lub {j}");
            assert!(sub.is_subtype(&store, &b, &j), "{b} not <= lub {j}");
        }
    }

    /// Union normalization is idempotent and order insensitive.
    #[test]
    fn union_normalization() {
        let mut rng = Rng::new(0xD00DAD);
        for _ in 0..CASES {
            let a = arb_type(&mut rng, 3);
            let b = arb_type(&mut rng, 3);
            let c = arb_type(&mut rng, 3);
            let u1 = Type::union([a.clone(), b.clone(), c.clone()]);
            let u2 = Type::union([c, a, b]);
            assert_eq!(u1, u2);
            assert_eq!(Type::union([u1.clone()]), u1);
        }
    }

    /// Rendering a store-free type through the store prints exactly its
    /// `Display` form.
    #[test]
    fn store_free_render_matches_display() {
        let store = TypeStore::new();
        let mut rng = Rng::new(0x1D0C0DE);
        for _ in 0..CASES {
            let a = arb_type(&mut rng, 3);
            assert_eq!(store.render(&a), a.to_string(), "store-free render must equal Display");
        }
    }

    /// Display of a type round-trips through the annotation parser for
    /// store-free types.
    #[test]
    fn display_parses_back() {
        let mut rng = Rng::new(0x5EED5A);
        for _ in 0..CASES {
            let t = arb_type(&mut rng, 3);
            let printed = t.to_string();
            let reparsed = parse_type_expr(&printed);
            assert!(reparsed.is_ok(), "failed to reparse {printed}");
            let mut store = TypeStore::new();
            let t2 = reparsed.unwrap().instantiate(&mut store);
            assert_eq!(t2.to_string(), printed);
        }
    }
}
