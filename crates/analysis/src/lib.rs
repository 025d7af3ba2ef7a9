//! # analysis
//!
//! Flow-sensitive static analysis for the CompRDL-rs reproduction: a
//! per-method control-flow-graph builder ([`cfg::Cfg`]) over the
//! `ruby-syntax` AST, a generic worklist dataflow solver
//! ([`dataflow::solve`]) parameterised over a small lattice trait
//! ([`dataflow::DataflowProblem`]), and the first lint suite built on top
//! ([`lints`]): definite assignment, unused variables, dead assignments,
//! unreachable code and a SQL-interpolation taint lint that validates
//! rebuilt fragments with [`sql_tc::parse_condition`].
//!
//! Findings render as [`diagnostics::Severity::Warning`] diagnostics with
//! stable `LINT01xx` codes; the corpus driver runs the suite across its
//! worker threads and freezes verdicts into the persistent check cache so
//! a warm incremental run re-lints nothing (see `comprdl::persist` and
//! `corpus::driver`).  A verdict is keyed by the method's Merkle hash
//! from `comprdl::semdep`, which covers everything the method calls
//! (`LINT0105` follows taint through calls).  A method the program defines
//! more than once has no Merkle hash, so it is linted afresh every run and
//! never recorded.
//!
//! ```
//! let p = ruby_syntax::parse_program_strict(
//!     "def m(c)\n  if c\n    x = 1\n  end\n  x + 1\nend\n",
//! )
//! .unwrap();
//! let index = ruby_syntax::ProgramIndex::new(&p);
//! let lints = analysis::lint_methods(index.methods(), None, 1);
//! assert_eq!(lints[0].findings[0].code, analysis::USE_BEFORE_DEF);
//! ```

#![warn(missing_docs)]

mod bits;
pub mod cfg;
pub mod dataflow;
pub mod lints;
pub mod summaries;

pub use cfg::{BasicBlock, BlockId, Cfg};
pub use dataflow::{solve, DataflowProblem, Direction, Solution};
pub use lints::{
    lint_method, lint_method_with_summaries, lint_methods, note_for, LintFinding, MethodLints,
    DEAD_ASSIGNMENT, SQL_TAINT, UNREACHABLE_CODE, UNUSED_VARIABLE, USE_BEFORE_DEF,
};
pub use summaries::{render_blame, MethodSummary, ProgramSummaries, TaintSummary};
