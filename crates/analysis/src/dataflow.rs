//! A generic worklist dataflow solver over [`Cfg`]s.
//!
//! A [`DataflowProblem`] supplies the lattice (an initial optimistic
//! [`top`](DataflowProblem::top) fact that is the identity of
//! [`join`](DataflowProblem::join)), the boundary fact at the entry
//! (forward) or exit (backward) block, and a per-statement transfer
//! function.  [`solve`] iterates to the least fixed point with a
//! deterministic FIFO worklist, so two runs over the same CFG always
//! produce identical solutions — a requirement for the byte-identical
//! sequential-vs-parallel lint gate in the corpus harness.
//!
//! Unreachable blocks keep their `top` fact (they are seeded but never
//! receive a boundary contribution), which makes must-analyses vacuously
//! true and may-analyses vacuously false inside dead code; the dead code
//! itself is reported separately via [`Cfg::reachable`].

use crate::cfg::Cfg;
use ruby_syntax::Expr;
use std::collections::VecDeque;

/// Which way facts propagate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from the entry along the edges (e.g. definite assignment).
    Forward,
    /// Facts flow from the exit against the edges (e.g. liveness).
    Backward,
}

/// One dataflow analysis: lattice, boundary and transfer.
pub trait DataflowProblem<'a> {
    /// The lattice element attached to each program point.
    type Fact: Clone + PartialEq;

    /// Forward or backward.
    fn direction(&self) -> Direction;

    /// The fact at the boundary block (entry for forward, exit for
    /// backward) — e.g. "the parameters are assigned".
    fn boundary(&self) -> Self::Fact;

    /// The optimistic initial fact; must be the identity of
    /// [`join`](DataflowProblem::join) (the full universe for an
    /// intersection join, the empty set for a union join).
    fn top(&self) -> Self::Fact;

    /// Merges `from` into `into` at a control-flow merge point.
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact);

    /// Applies one statement's effect to the fact in flow order (the solver
    /// visits statements in reverse for backward problems).
    fn transfer(&self, stmt: &'a Expr, fact: &mut Self::Fact);
}

/// The fixed-point facts at each block boundary.
#[derive(Debug)]
pub struct Solution<F> {
    /// The fact on entry to each block (before its first statement).
    pub block_in: Vec<F>,
    /// The fact on exit from each block (after its last statement).
    pub block_out: Vec<F>,
}

/// Runs `problem` to its least fixed point over `cfg`.
pub fn solve<'a, P: DataflowProblem<'a>>(cfg: &Cfg<'a>, problem: &P) -> Solution<P::Fact> {
    let n = cfg.blocks.len();
    let forward = problem.direction() == Direction::Forward;
    let mut block_in: Vec<P::Fact> = (0..n).map(|_| problem.top()).collect();
    let mut block_out: Vec<P::Fact> = (0..n).map(|_| problem.top()).collect();

    // Seed every block once, in flow order, so even blocks whose computed
    // fact equals `top` are processed; after that, a block re-enters the
    // queue only when a fact it consumes has changed.
    let mut work: VecDeque<usize> = if forward { (0..n).collect() } else { (0..n).rev().collect() };
    let mut queued = vec![true; n];

    while let Some(b) = work.pop_front() {
        queued[b] = false;
        let boundary_block = if forward { cfg.entry } else { cfg.exit };
        let sources = if forward { &cfg.blocks[b].preds } else { &cfg.blocks[b].succs };
        let mut fact = if b == boundary_block {
            problem.boundary()
        } else {
            let mut acc = problem.top();
            for &s in sources {
                let src = if forward { &block_out[s] } else { &block_in[s] };
                problem.join(&mut acc, src);
            }
            acc
        };
        if forward {
            block_in[b] = fact.clone();
            for stmt in &cfg.blocks[b].stmts {
                problem.transfer(stmt, &mut fact);
            }
        } else {
            block_out[b] = fact.clone();
            for stmt in cfg.blocks[b].stmts.iter().rev() {
                problem.transfer(stmt, &mut fact);
            }
        }
        let dest = if forward { &mut block_out[b] } else { &mut block_in[b] };
        if *dest != fact {
            *dest = fact;
            let consumers = if forward { &cfg.blocks[b].succs } else { &cfg.blocks[b].preds };
            for &c in consumers {
                if !queued[c] {
                    queued[c] = true;
                    work.push_back(c);
                }
            }
        }
    }
    Solution { block_in, block_out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruby_syntax::{parse_program_strict, ExprKind, LValue, Name};
    use std::collections::BTreeSet;

    /// A toy definite-assignment problem: a name is "defined" after any
    /// statement-position assignment to it.
    struct Defined {
        universe: BTreeSet<Name>,
        params: BTreeSet<Name>,
    }

    impl<'a> DataflowProblem<'a> for Defined {
        type Fact = BTreeSet<Name>;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn boundary(&self) -> Self::Fact {
            self.params.clone()
        }
        fn top(&self) -> Self::Fact {
            self.universe.clone()
        }
        fn join(&self, into: &mut Self::Fact, from: &Self::Fact) {
            into.retain(|n| from.contains(n));
        }
        fn transfer(&self, stmt: &'a Expr, fact: &mut Self::Fact) {
            if let ExprKind::Assign { target: LValue::Local(n), .. } = &stmt.kind {
                fact.insert(n.clone());
            }
        }
    }

    use crate::cfg::Cfg;
    use ruby_syntax::Expr;

    #[test]
    fn branch_only_definitions_do_not_survive_the_join() {
        let p = parse_program_strict(
            "def m(c)\n  a = 1\n  if c\n    b = 2\n  else\n    a = 3\n  end\n  a\nend\n",
        )
        .expect("parse");
        let def = p.methods()[0].1;
        let cfg = Cfg::build(&def.body);
        let universe: BTreeSet<Name> = ["a", "b", "c"].into_iter().map(Name::from).collect();
        let params: BTreeSet<Name> = [Name::from("c")].into();
        let sol = solve(&cfg, &Defined { universe, params });
        let at_exit = &sol.block_in[cfg.exit];
        assert!(at_exit.contains("a"), "assigned on every path: {at_exit:?}");
        assert!(at_exit.contains("c"), "parameters are always defined");
        assert!(!at_exit.contains("b"), "only assigned on the then-branch: {at_exit:?}");
    }

    /// A minimal backward liveness problem (union join, use-inserting
    /// transfer) for the convergence tests below.
    struct Live;

    impl<'a> DataflowProblem<'a> for Live {
        type Fact = BTreeSet<Name>;
        fn direction(&self) -> Direction {
            Direction::Backward
        }
        fn boundary(&self) -> Self::Fact {
            BTreeSet::new()
        }
        fn top(&self) -> Self::Fact {
            BTreeSet::new()
        }
        fn join(&self, into: &mut Self::Fact, from: &Self::Fact) {
            into.extend(from.iter().cloned());
        }
        fn transfer(&self, stmt: &'a Expr, fact: &mut Self::Fact) {
            stmt.walk(&mut |e| {
                if let ExprKind::Ident(n) = &e.kind {
                    fact.insert(n.clone());
                }
            });
        }
    }

    /// Liveness over a loop whose body holds `break`/`next` nested in
    /// short-circuit conditions: the solver must still reach a fixed point
    /// (the back edge plus the break/next edges form multiple cycles), and
    /// the loop-carried variable stays live at the head.
    #[test]
    fn liveness_converges_across_short_circuit_break_and_next_edges() {
        for src in [
            "def m(n)\n  while n > 0\n    done && break\n    n = n - 1\n  end\n  n\nend\n",
            "def m(n)\n  while n > 0\n    skip || next\n    n = n - 1\n  end\n  n\nend\n",
        ] {
            let p = parse_program_strict(src).expect("parse");
            let def = p.methods()[0].1;
            let cfg = Cfg::build(&def.body);
            let sol = solve(&cfg, &Live);
            // `n` is read by the condition, the decrement and the tail, so
            // it is live on entry to the loop head from every direction.
            let head = (0..cfg.blocks.len())
                .find(|&b| cfg.blocks[b].succs.len() == 2 && cfg.blocks[b].preds.len() >= 2)
                .expect("loop head");
            assert!(sol.block_in[head].contains("n"), "src={src:?}: {:?}", sol.block_in[head]);
            assert!(sol.block_in[cfg.exit].is_empty(), "nothing is live past the exit");
        }
    }

    /// Liveness with a `return` inside an `elsif` arm: the early-exit edge
    /// must not leak the tail's uses into the returning arm.
    #[test]
    fn liveness_converges_with_return_from_an_elsif_arm() {
        let p = parse_program_strict(
            "def m(c)\n  if c == 1\n    x = 1\n  elsif c == 2\n    return 9\n  else\n    x = 3\n  end\n  x\nend\n",
        )
        .expect("parse");
        let def = p.methods()[0].1;
        let cfg = Cfg::build(&def.body);
        let sol = solve(&cfg, &Live);
        let ret = cfg
            .blocks
            .iter()
            .position(|b| b.stmts.iter().any(|s| matches!(s.kind, ExprKind::Return(_))))
            .expect("return block");
        assert!(
            !sol.block_out[ret].contains("x"),
            "x is not live after a return: {:?}",
            sol.block_out[ret]
        );
        assert!(sol.block_in[cfg.entry].contains("c"), "the scrutinee is live at entry");
    }

    #[test]
    fn loop_body_facts_reach_the_fixed_point() {
        let p = parse_program_strict("def m(n)\n  while n > 0\n    x = 1\n  end\n  x\nend\n")
            .expect("parse");
        let def = p.methods()[0].1;
        let cfg = Cfg::build(&def.body);
        let universe: BTreeSet<Name> = ["n", "x"].into_iter().map(Name::from).collect();
        let params: BTreeSet<Name> = [Name::from("n")].into();
        let sol = solve(&cfg, &Defined { universe, params });
        assert!(
            !sol.block_in[cfg.exit].contains("x"),
            "a zero-trip loop never assigns x: {:?}",
            sol.block_in[cfg.exit]
        );
    }
}
