//! # comprdl
//!
//! A Rust implementation of **CompRDL** — *"Type-Level Computations for Ruby
//! Libraries"* (PLDI 2019).  CompRDL extends the RDL type system with *comp
//! types*: library method signatures containing Ruby expressions that are
//! evaluated during type checking to produce precise types.  Because the
//! annotated library methods are not themselves type checked, CompRDL
//! inserts run-time checks at their call sites to preserve soundness.
//!
//! The crate provides:
//!
//! * [`CompRdl`] — the environment of classes, annotations and type-level
//!   helper methods (the analogue of RDL's global tables),
//! * [`tlc`] — the type-level computation evaluator,
//! * [`checker`] — the static type checker, which evaluates comp types at
//!   call sites, performs weak updates, counts casts and records the dynamic
//!   checks to insert,
//! * [`termination`] — the termination / purity analysis for type-level code
//!   (paper §4),
//! * [`runtime`] — value/type membership tests and the
//!   [`runtime::CompRdlHook`] that enforces inserted checks when a program
//!   runs under [`ruby_interp`],
//! * [`stdlib`] — comp-type annotation sets for the Ruby core library
//!   (Array, Hash, String, Integer, Float; paper Table 1), parsed once per
//!   process and shared by every environment.
//!
//! ## Quick start
//!
//! ```
//! use comprdl::{CheckOptions, CompRdl, TypeChecker};
//!
//! let mut env = CompRdl::new();
//! comprdl::stdlib::register_all(&mut env);
//! env.type_sig("Object", "page", "() -> { info: Array<String>, title: String }", None);
//! env.type_sig("Object", "image_url", "() -> String", Some("app"));
//!
//! let program = ruby_syntax::parse_program_strict(
//!     "def image_url()\n  page()[:info].first\nend\n",
//! ).unwrap();
//! let result = TypeChecker::new(&env, &program, CheckOptions::default()).check_all_annotated();
//! assert!(result.errors().is_empty());
//! assert_eq!(result.total_casts(), 0);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod checker;
pub mod env;
pub mod memo;
pub mod persist;
pub mod runtime;
pub mod semdep;
pub mod stdlib;
pub mod termination;
pub mod tlc;

pub use cache::CacheStats;
pub use checker::{
    CheckOptions, ErrorCategory, MethodCheckResult, ProgramCheckResult, TypeChecker, TypeErrorInfo,
};
pub use env::CompRdl;
pub use memo::{memo_namespace, MemoKey, MemoTable, NamespaceStats, SharedMemo};
pub use persist::{corrupt, CheckCache, EffectRecord, LintRecord};
/// The record of a method's inferred effects, under the name perfbench's
/// recipe (`perfbench/src/recipe.rs`) imports it by.
pub use rdl_types::MethodSummary as InferredEffect;
pub use runtime::{
    make_hook, make_hook_shared, type_of_value, value_fingerprint, value_matches, BlameDiagnostic,
    CheckConfig, CompRdlHook, ConsistencyCheck, InsertedCheck,
};
pub use semdep::{env_hash, DepGraph};
pub use termination::{
    annotation_conflicts, builtin_effects, explicit_effects, EffectEnv, EffectSource,
    EffectViolation, ExplicitEffects, TerminationChecker, ViolationKind,
};
pub use tlc::{eval_comp_type, HelperRegistry, MetaKind, TlcCtx, TlcError, TlcValue};
