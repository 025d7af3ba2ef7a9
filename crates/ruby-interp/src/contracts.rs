//! The dynamic-check (contract) interface.
//!
//! CompRDL does not type check the bodies of comp-type-annotated library
//! methods; instead it wraps calls to them in run-time checks (paper §2.4,
//! §3).  The rewriting step lives in the `comprdl` crate; the interpreter
//! only needs a way to be told "this call site is checked" and to invoke the
//! checks, which is what [`DynamicCheckHook`] provides.  Keeping the hook as
//! a trait also lets the evaluation harness run the same test suite with and
//! without checks to measure their overhead (Table 2).

use crate::value::Value;
use ruby_syntax::Span;

/// Callbacks invoked by the interpreter around checked call sites.
pub trait DynamicCheckHook {
    /// Whether the call at `site` carries any dynamic check.
    fn has_check(&self, site: Span) -> bool;

    /// Invoked before a checked call, with the evaluated receiver and
    /// arguments.  This is where CompRDL re-evaluates the comp type on the
    /// same inputs to detect mutation of type-level state (§4 "Heap
    /// Mutation").
    ///
    /// # Errors
    ///
    /// Returning `Err` raises blame at the call site.
    fn before_call(&self, site: Span, recv: &Value, args: &[Value]) -> Result<(), String>;

    /// Invoked after a checked call with the value it returned, to check the
    /// value against the computed return type.
    ///
    /// # Errors
    ///
    /// Returning `Err` raises blame at the call site.
    fn after_call(&self, site: Span, ret: &Value) -> Result<(), String>;
}
