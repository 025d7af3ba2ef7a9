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
pub use rdl_types::{render_blame, MethodSummary};
pub use summaries::ProgramSummaries;

use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `items` on `threads` worker threads (1 = on the calling
/// thread).  Workers claim items from an atomic index and the results are
/// merged back in `items` order, so every thread count returns the same
/// vector.
fn map_claimed<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(items.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, f(item)));
                    }
                    out
                })
            })
            .collect();
        for worker in workers {
            for (i, r) in worker.join().expect("worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots.into_iter().map(|r| r.expect("every item claimed")).collect()
}
