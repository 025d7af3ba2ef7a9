//! Interprocedural effect summaries over the name-resolved call graph.
//!
//! The lint suite and the CompRDL termination checker both consult an
//! *effect environment* — which methods terminate, which are pure, and
//! (for `LINT0105`) how taint moves through a call.  Before this module
//! that environment was a hand-maintained annotation table where every
//! unknown method defaulted to impure/non-terminating.  [`infer`] replaces
//! the default with a bottom-up, summary-based analysis:
//!
//! 1. build the name-resolved call graph of the program from the identifier
//!    walk ([`ruby_syntax::walk_method`]) that `comprdl::semdep::DepGraph`
//!    hashes too: a method calls the names it calls, its operators and each
//!    identifier the walk resolves as a possible call; a called name has an
//!    edge to every same-named method,
//! 2. condense it into strongly connected components (Tarjan), and
//! 3. walk the SCCs in emission order (callees before callers) computing a
//!    [`MethodSummary`] per method (`rdl_types`' record, which the type
//!    checker installs and the check cache stores; the crate re-exports
//!    it):
//!
//!    * **termination** — loop-free and every callee terminates;
//!      `:blockdep` iterators are conditional on their block (which is part
//!      of the caller's own body, so its loops and calls are already
//!      covered); a body that `yield`s is itself `:blockdep`; any recursion
//!      cycle is pessimistically non-terminating,
//!    * **purity** — no instance/class/global/receiver writes and only
//!      pure callees, resolved per-SCC: the component starts pessimistic
//!      and is refined to pure only when *no* member carries a write and
//!      every extra-component callee is pure,
//!    * **taint** — which parameters (or the receiver) may flow into a SQL
//!      sink or into the return value, iterated to a least fixpoint inside
//!      each cyclic SCC starting from the empty transfer; an acyclic
//!      one-method component reads only earlier, final components, so one
//!      walk is exact.
//!
//! Verdicts use `rdl_types`' effect vocabulary ([`TermEffect`],
//! [`PurityEffect`]).  The seed, the trusted effects of names the program
//! does not define, is any [`EffectLookup`]: in the corpus, the type
//! checker's own explicit layer (`comprdl::explicit_effects`), read by
//! reference.  It is only looked up, never iterated, so no hash order can
//! reach the output.
//!
//! The taint walk computes on bit sets ([`ruby_syntax::Bits`]) in the
//! summary's own encoding ([`Taint`]): an origin set has bit 0 for the
//! receiver and bit `i + 1` for parameter `i`, and a method's locals hold
//! their origin sets by their slot in the method's [`Locals`] table, so the
//! walk copies no name and its origin sets allocate nothing below 64
//! parameters.  It resolves each identifier with
//! [`Scope::resolve`], the walk's own resolver, so every name it looks up
//! as a call is a call-graph edge.
//!
//! Every non-`Terminates`/non-`Pure` verdict carries a *blame chain*: the
//! call path from the method to the root cause, rendered as
//! `a → b → @x=` by [`render_blame`].  Determinism rests on positions, not
//! on hash order: origin bits are parameter positions and iterate in
//! ascending order, local slots are sorted by name, a name's call targets
//! come in program order (`ProgramIndex::definitions_named`; the index's
//! hash maps are only probed), methods keep `Program::methods()` order and
//! SCCs are processed in Tarjan emission order, so two runs (or a sequential
//! and a parallel run) produce byte-identical [`render`] output.  A
//! method's SCC id belongs to the current program's call graph, so
//! [`ProgramSummaries::scc_ids`] keeps it, not the summary.
//!
//! [`infer`]: ProgramSummaries::infer
//! [`render`]: ProgramSummaries::render

use rdl_types::{render_blame, EffectLookup, MethodSummary, PurityEffect, Taint, TermEffect};
use ruby_syntax::{
    walk_method, Bits, Event, Expr, ExprKind, LValue, Locals, MethodDef, MethodId, Param, Program,
    ProgramIndex, Resolved, Scope,
};
use std::collections::{BTreeMap, BTreeSet};

/// Method names treated as SQL sinks (their first argument is a SQL
/// condition fragment) — kept in sync with the `LINT0105` sink list.
pub const SQL_SINKS: &[&str] = &["where", "find_by_sql", "having", "filter", "exclude"];

// ---------------------------------------------------------------------------
// Per-method local facts (the parallel-extractable part)
// ---------------------------------------------------------------------------

/// What one walk of a method finds out about its effects, with the local
/// table the taint walk resolves against; names are borrowed from it.
#[derive(Debug, Clone)]
struct LocalFacts<'p> {
    /// `while` anywhere in the body (including nested blocks).
    has_while: bool,
    /// `yield` anywhere in the body — makes the method `:blockdep`.
    has_yield: bool,
    /// Called names in first-occurrence walk order: calls, operator
    /// assignments and the identifier reads the walk resolves as calls.
    calls: Vec<&'p str>,
    /// The first non-local write in walk order.
    first_write: Option<&'p LValue>,
    /// The method's parameters and assigned locals.
    locals: Locals<'p>,
}

/// A non-local write as a blame token: `@x=`, `$g=`, `C=`, `[]=` or
/// `.name=`.
fn write_token(target: &LValue) -> String {
    match target {
        LValue::IVar(n) => format!("@{n}="),
        LValue::GVar(n) => format!("${n}="),
        LValue::Const(n) | LValue::Local(n) => format!("{n}="),
        LValue::Index { .. } => "[]=".to_string(),
        LValue::Attr { name, .. } => format!(".{name}="),
    }
}

fn collect_facts(def: &MethodDef) -> LocalFacts<'_> {
    let locals = Locals::of(def);
    let (mut has_while, mut has_yield) = (false, false);
    let (mut calls, mut first_write) = (Vec::new(), None);
    if def.poisoned {
        // A poisoned body is a recovery placeholder, not the user's code,
        // so nothing can be proven about it.  The pseudo-callee
        // `<unparsed>` can never resolve (it is not a lexable identifier),
        // which routes both termination and purity to the conservative
        // `Unknown`-callee verdict with a self-explanatory blame chain.
        calls.push("<unparsed>");
    } else {
        walk_method(def, &mut Scope::new(&locals), &mut |event| {
            let name = match event {
                Event::Read(_, name, resolved) if resolved.calls() => name,
                Event::Call(name) => name,
                Event::Write(target) => {
                    first_write.get_or_insert(target);
                    return;
                }
                Event::While => {
                    has_while = true;
                    return;
                }
                Event::Yield => {
                    has_yield = true;
                    return;
                }
                _ => return,
            };
            if !calls.contains(&name.as_str()) {
                calls.push(name.as_str());
            }
        });
    }
    LocalFacts { has_while, has_yield, calls, first_write, locals }
}

// ---------------------------------------------------------------------------
// Tarjan SCC condensation (iterative)
// ---------------------------------------------------------------------------

/// Computes SCCs of `edges` (adjacency lists over `0..n`), returned in
/// emission order: every edge leaving a component points into an
/// earlier-emitted component, so walking the result front to back visits
/// callees before callers.
fn tarjan_sccs(n: usize, edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS frames: (node, next-edge cursor).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        frames.push((root, 0));
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if let Some(&w) = edges[v].get(*cursor) {
                *cursor += 1;
                if index[w] == UNSET {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

// ---------------------------------------------------------------------------
// ProgramSummaries
// ---------------------------------------------------------------------------

/// Inferred summaries for every method of one program, with the program's
/// index, which resolves their by-name lookups.
#[derive(Debug, Clone, Default)]
pub struct ProgramSummaries<'p> {
    /// The program's methods, identities and by-name call targets.
    index: ProgramIndex<'p>,
    /// Summaries in `Program::methods()` order.
    methods: Vec<MethodSummary>,
    /// Each method's name-resolved callees (indices into `methods`,
    /// ascending, self-edges included).
    edges: Vec<Vec<usize>>,
    /// Each method's SCC id in Tarjan emission order (callees first).
    scc_ids: Vec<usize>,
}

impl<'p> ProgramSummaries<'p> {
    /// Infers summaries for every method of `program`, trusting `seed` for
    /// names the program does not define.  Per-method local facts are
    /// extracted on `threads` worker threads (1 = on the calling thread;
    /// atomic work claiming, results merged in method-index order), so
    /// every thread count renders byte-identically.
    pub fn infer(program: &'p Program, seed: &dyn EffectLookup, threads: usize) -> Self {
        let index = ProgramIndex::new(program);
        let facts = crate::map_claimed(index.methods(), threads, |&(_, def)| collect_facts(def));
        Self::solve(index, seed, &facts, &BTreeMap::new()).0
    }

    /// Incremental inference: summaries in `fixed` (keyed by
    /// `(owner, name, singleton)`) are installed verbatim instead of being
    /// recomputed; everything else is inferred against them.  Returns the
    /// summaries and how many methods were actually (re-)summarized.
    ///
    /// Soundness: a caller may only fix a summary whose method's
    /// *transitive* dependency closure is unchanged (the corpus keys
    /// records on `semdep` Merkle hashes, which hash exactly that
    /// closure), so a fixed method can never depend on a recomputed one.
    /// SCC ids come from the current program's call graph alone, so a warm
    /// run renders byte-identically to a cold run.
    pub fn infer_with_baseline(
        program: &'p Program,
        seed: &dyn EffectLookup,
        fixed: &BTreeMap<MethodId, MethodSummary>,
    ) -> (Self, usize) {
        let index = ProgramIndex::new(program);
        let facts: Vec<_> = index.methods().iter().map(|&(_, def)| collect_facts(def)).collect();
        Self::solve(index, seed, &facts, fixed)
    }

    fn solve(
        index: ProgramIndex<'p>,
        seed: &dyn EffectLookup,
        facts: &[LocalFacts],
        fixed: &BTreeMap<MethodId, MethodSummary>,
    ) -> (Self, usize) {
        let methods = index.methods();
        let n = methods.len();
        // Name-resolved call edges: one edge per same-named program method
        // (self-edges kept — they are real recursion).
        let edges: Vec<Vec<usize>> = facts
            .iter()
            .map(|f| {
                let mut out: Vec<usize> =
                    f.calls.iter().flat_map(|name| index.definitions_named(name)).collect();
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect();
        let sccs = tarjan_sccs(n, &edges);

        let mut scc_of = vec![0usize; n];
        for (s, members) in sccs.iter().enumerate() {
            for &m in members {
                scc_of[m] = s;
            }
        }

        // The baseline's summaries by method; every definition of a fixed
        // identity gets its summary.  Nothing to probe without a baseline.
        let mut fixed_of: Vec<Option<&MethodSummary>> = Vec::new();
        if !fixed.is_empty() {
            fixed_of.resize(n, None);
            for ((owner, name, singleton), summary) in fixed {
                for i in index.definitions_named(name) {
                    let (o, def) = methods[i];
                    if o == owner && def.singleton == *singleton {
                        fixed_of[i] = Some(summary);
                    }
                }
            }
        }

        let mut out: Vec<Option<MethodSummary>> = (0..n).map(|_| None).collect();
        let mut summarized = 0usize;
        for (s, members) in sccs.iter().enumerate() {
            // Replay: a whole component is installed from `fixed` only when
            // every member is covered (a partial hit could hide a changed
            // cycle peer — impossible under Merkle keying, but cheap to
            // enforce).
            let all_fixed = !fixed_of.is_empty() && members.iter().all(|&m| fixed_of[m].is_some());
            if all_fixed {
                for &m in members {
                    out[m] = fixed_of[m].cloned();
                }
                continue;
            }
            summarized += members.len();
            let cyclic = members.len() > 1 || edges[members[0]].contains(&members[0]);

            // Termination + purity, component at a time.
            Self::solve_term_purity(
                &index, seed, facts, &edges, &scc_of, s, members, cyclic, &mut out,
            );
            // Taint: a least fixpoint inside a cyclic SCC, one walk otherwise.
            solve_taint(&index, facts, members, cyclic, &mut out);
        }

        let methods: Vec<MethodSummary> =
            out.into_iter().map(|m| m.expect("every method summarized")).collect();
        (ProgramSummaries { index, methods, edges, scc_ids: scc_of }, summarized)
    }

    #[allow(clippy::too_many_arguments)]
    fn solve_term_purity(
        index: &ProgramIndex,
        seed: &dyn EffectLookup,
        facts: &[LocalFacts],
        edges: &[Vec<usize>],
        scc_of: &[usize],
        s: usize,
        members: &[usize],
        cyclic: bool,
        out: &mut [Option<MethodSummary>],
    ) {
        let methods = index.methods();
        // --- termination -------------------------------------------------
        // A cycle is pessimistically non-terminating: without a size-change
        // argument recursion cannot be proven to bottom out.
        let mut terms: BTreeMap<usize, (TermEffect, Vec<String>)> = BTreeMap::new();
        for &m in members {
            let (_, def) = &methods[m];
            let f = &facts[m];
            let verdict = if f.has_while {
                (TermEffect::MayDiverge, vec![def.name.clone(), "while loop".to_string()])
            } else if cyclic {
                let peer = edges[m]
                    .iter()
                    .copied()
                    .find(|&w| scc_of[w] == s)
                    .map(|w| methods[w].1.name.clone())
                    .unwrap_or_else(|| def.name.clone());
                (
                    TermEffect::MayDiverge,
                    vec![def.name.clone(), format!("recursive cycle via `{peer}`")],
                )
            } else {
                let mut verdict = (
                    if f.has_yield { TermEffect::BlockDep } else { TermEffect::Terminates },
                    Vec::new(),
                );
                // A called name resolves to the program's methods of that
                // name, else to the seed, else to nothing (unknown).
                'calls: for name in &f.calls {
                    if index.defines_name(name) {
                        for t in index.definitions_named(name) {
                            let callee = out[t].as_ref().expect("callee SCC emitted first");
                            if callee.term == TermEffect::MayDiverge {
                                let mut blame = vec![def.name.clone()];
                                blame.extend(callee.term_blame.iter().cloned());
                                verdict = (TermEffect::MayDiverge, blame);
                                break 'calls;
                            }
                        }
                        continue;
                    }
                    match seed.effects(name) {
                        // A `:blockdep` iterator's block is part of this
                        // body, so its loops and calls are already walked.
                        Some((term, _)) if term != TermEffect::MayDiverge => {}
                        Some(_) => {
                            verdict = (
                                TermEffect::MayDiverge,
                                vec![
                                    def.name.clone(),
                                    format!("`{name}` (annotated non-terminating)"),
                                ],
                            );
                            break 'calls;
                        }
                        None => {
                            verdict = (
                                TermEffect::MayDiverge,
                                vec![def.name.clone(), format!("`{name}` (unknown)")],
                            );
                            break 'calls;
                        }
                    }
                }
                verdict
            };
            terms.insert(m, verdict);
        }

        // --- purity ------------------------------------------------------
        // Pessimistically-then-refined: assume the component impure, then
        // clear it only if no member writes and no extra-component callee
        // is impure.  The first cause in member order becomes the blame.
        let mut cause: Option<(usize, Vec<String>)> = None; // (member, tail)
        'scan: for &m in members {
            let (_, def) = &methods[m];
            let f = &facts[m];
            if let Some(target) = f.first_write {
                cause = Some((m, vec![def.name.clone(), write_token(target)]));
                break 'scan;
            }
            for name in &f.calls {
                if index.defines_name(name) {
                    for t in index.definitions_named(name) {
                        if scc_of[t] == s {
                            continue; // intra-component: refined away
                        }
                        let callee = out[t].as_ref().expect("callee SCC emitted first");
                        if callee.purity == PurityEffect::Impure {
                            let mut blame = vec![def.name.clone()];
                            blame.extend(callee.purity_blame.iter().cloned());
                            cause = Some((m, blame));
                            break 'scan;
                        }
                    }
                    continue;
                }
                match seed.effects(name) {
                    Some((_, PurityEffect::Pure)) => {}
                    Some(_) => {
                        cause = Some((
                            m,
                            vec![def.name.clone(), format!("`{name}` (annotated impure)")],
                        ));
                        break 'scan;
                    }
                    None => {
                        cause = Some((m, vec![def.name.clone(), format!("`{name}` (unknown)")]));
                        break 'scan;
                    }
                }
            }
        }

        for &m in members {
            let (owner, def) = &methods[m];
            let (term, term_blame) = terms.remove(&m).expect("termination computed");
            let (purity, purity_blame) = match &cause {
                None => (PurityEffect::Pure, Vec::new()),
                Some((c, tail)) if *c == m => (PurityEffect::Impure, tail.clone()),
                Some((_, tail)) => {
                    // Another member carries the cause: route through it.
                    let mut blame = vec![def.name.clone()];
                    blame.extend(tail.iter().cloned());
                    (PurityEffect::Impure, blame)
                }
            };
            out[m] = Some(MethodSummary {
                owner: owner.to_string(),
                name: def.name.clone(),
                singleton: def.singleton,
                term,
                purity,
                term_blame,
                purity_blame,
                taint: Taint::default(),
            });
        }
    }

    /// The summary for one method, if the program defines it.
    /// A redefined method's summary is its last definition's.
    pub fn get(&self, owner: &str, name: &str, singleton: bool) -> Option<&MethodSummary> {
        self.index.identity(owner, name, singleton).map(|d| &self.methods[d.last])
    }

    /// All summaries, in `Program::methods()` order.
    pub fn iter(&self) -> impl Iterator<Item = &MethodSummary> {
        self.methods.iter()
    }

    /// Number of summarized methods.
    pub fn len(&self) -> usize {
        self.methods.len()
    }

    /// True when the program has no methods.
    pub fn is_empty(&self) -> bool {
        self.methods.is_empty()
    }

    /// Each method's SCC id in the condensed call graph, in
    /// `Program::methods()` order (the order of [`iter`](Self::iter)).
    /// Ids count from 0 in Tarjan emission order, callees first.
    pub fn scc_ids(&self) -> &[usize] {
        &self.scc_ids
    }

    /// Number of SCCs in the condensed call graph.
    pub fn scc_count(&self) -> usize {
        self.scc_ids.iter().max().map_or(0, |&s| s + 1)
    }

    /// The name-resolved method→method call edges inference propagated
    /// along, as deduplicated sorted `(caller, callee)` id pairs
    /// (`(owner, name, singleton)` each; self-edges included), computed on
    /// demand.  Exposed so callers can cross-check this call graph against
    /// the dependency graph (`comprdl::semdep::DepGraph`).
    pub fn call_edges(&self) -> Vec<(MethodId, MethodId)> {
        let id = |i: usize| {
            let m = &self.methods[i];
            (m.owner.clone(), m.name.clone(), m.singleton)
        };
        let edges: BTreeSet<_> = self
            .edges
            .iter()
            .enumerate()
            .flat_map(|(from, tos)| tos.iter().map(move |&to| (from, to)))
            .map(|(from, to)| (id(from), id(to)))
            .collect();
        edges.into_iter().collect()
    }

    /// The joined taint transfer for a bare name (the union over every
    /// same-named method — calls are name-resolved), or `None` when the
    /// program does not define the name.
    pub fn taint_for_name(&self, name: &str) -> Option<Taint> {
        if !self.index.defines_name(name) {
            return None;
        }
        let mut joined = Taint::default();
        for t in self.index.definitions_named(name) {
            joined.join(&self.methods[t].taint);
        }
        Some(joined)
    }

    /// A stable, human-readable rendering of every summary — the
    /// byte-identity surface for the sequential-vs-parallel and
    /// cold-vs-warm gates.
    pub fn render(&self) -> String {
        let mut lines = Vec::with_capacity(self.methods.len());
        let mut ordered: Vec<(&MethodSummary, usize)> =
            self.methods.iter().zip(self.scc_ids.iter().copied()).collect();
        ordered.sort_by(|(a, _), (b, _)| {
            (&a.owner, &a.name, a.singleton).cmp(&(&b.owner, &b.name, b.singleton))
        });
        for (m, scc) in ordered {
            let sep = if m.singleton { "." } else { "#" };
            let term = match m.term {
                TermEffect::Terminates => "+",
                TermEffect::BlockDep => "blockdep",
                TermEffect::MayDiverge => "-",
            };
            let purity = match m.purity {
                PurityEffect::Pure => "+",
                PurityEffect::Impure => "-",
            };
            let set = |params: &mut dyn Iterator<Item = usize>| {
                params.map(|i| i.to_string()).collect::<Vec<_>>().join(",")
            };
            let mut line = format!(
                "{}{}{}: term={} pure={} ret={{{}}} sink={{{}}}",
                m.owner,
                sep,
                m.name,
                term,
                purity,
                set(&mut m.taint.params_to_return()),
                set(&mut m.taint.params_to_sink()),
            );
            if m.taint.self_to_return() {
                line.push_str(" self>ret");
            }
            if m.taint.self_to_sink() {
                line.push_str(" self>sink");
            }
            line.push_str(&format!(" scc={scc}"));
            if !m.term_blame.is_empty() {
                line.push_str(&format!("\n  diverges via {}", render_blame(&m.term_blame)));
            }
            if !m.purity_blame.is_empty() {
                line.push_str(&format!("\n  impure via {}", render_blame(&m.purity_blame)));
            }
            lines.push(line);
        }
        lines.join("\n")
    }
}

/// Solves the taint of one component's `members`, whose summaries hold
/// the empty transfer, where every earlier component's summary is final.
/// A cyclic component iterates to a least fixpoint from the empty transfer
/// (members only grow, so this converges).  An acyclic one reads only
/// earlier components, so one walk is exact.
fn solve_taint(
    index: &ProgramIndex,
    facts: &[LocalFacts],
    members: &[usize],
    cyclic: bool,
    out: &mut [Option<MethodSummary>],
) {
    loop {
        let mut changed = false;
        for &m in members {
            // Calls are name-resolved: join every same-named method.
            let lookup = |name: &str| {
                if !index.defines_name(name) {
                    return None;
                }
                let mut joined = Taint::default();
                for callee in index.definitions_named(name).filter_map(|t| out[t].as_ref()) {
                    joined.join(&callee.taint);
                }
                Some(joined)
            };
            let fresh = method_taint(index.methods()[m].1, &facts[m].locals, &lookup);
            let taint = &mut out[m].as_mut().expect("summarized above").taint;
            if *taint != fresh {
                *taint = fresh;
                changed = true;
            }
        }
        if !cyclic || !changed {
            break;
        }
    }
}

// ---------------------------------------------------------------------------
// Per-method taint transfer
// ---------------------------------------------------------------------------

/// A method's taint origins, encoded as a [`Taint`]'s sides: bit
/// [`Taint::RECV`] is the receiver (`self`, instance state), bit `i + 1`
/// is parameter `i`.
type Origins = Bits;

/// One method's taint state; names are borrowed from its body (`'d`).
struct TaintCtx<'c, 'd> {
    params: &'d [Param],
    /// Each slot's origins, by its slot in the method's [`Locals`] table.
    locals: Vec<Origins>,
    sink: Origins,
    ret: Origins,
    /// Whether a local, the sink or the return set grew in this walk.
    changed: bool,
    lookup: &'c dyn Fn(&str) -> Option<Taint>,
}

impl TaintCtx<'_, '_> {
    /// The non-block parameter `name`'s index; the last one wins if two
    /// share a name.
    fn param(&self, name: &str) -> Option<usize> {
        self.params.iter().rposition(|p| !p.block && p.name == name)
    }

    fn grow_sink(&mut self, o: &Origins) {
        self.changed |= self.sink.union(o);
    }

    fn grow_ret(&mut self, o: &Origins) {
        self.changed |= self.ret.union(o);
    }
}

/// Computes the taint transfer of one method body given `lookup` for the
/// (current) summaries of called program methods.  Flow-insensitive: the
/// body is re-walked until the local origin sets stop growing, which makes
/// the result a may-over-approximation on loops and branches.
fn method_taint(def: &MethodDef, locals: &Locals, lookup: &dyn Fn(&str) -> Option<Taint>) -> Taint {
    // Unknown body ⇒ conservative pass-through: every argument and the
    // receiver may reach the return value.  Sinks stay clear — claiming a
    // SQL sink inside unparsed code would manufacture phantom LINT0105
    // findings in every caller.
    if def.poisoned {
        let mut ret: Origins =
            def.params.iter().enumerate().filter(|(_, p)| !p.block).map(|(i, _)| i + 1).collect();
        ret.insert(Taint::RECV);
        return Taint { ret, sink: Origins::new() };
    }
    let mut ctx = TaintCtx {
        params: &def.params,
        locals: vec![Origins::new(); locals.names().len()],
        sink: Origins::new(),
        ret: Origins::new(),
        changed: false,
        lookup,
    };
    loop {
        ctx.changed = false;
        // Parameter defaults run first.  What a default evaluates to does
        // not flow into its parameter, but its calls may reach a sink.
        let mut scope = Scope::new(locals);
        for default in def.params.iter().filter_map(|p| p.default.as_ref()) {
            taint_origins(default, &mut ctx, &mut scope);
        }
        for (i, stmt) in def.body.iter().enumerate() {
            let o = taint_origins(stmt, &mut ctx, &mut scope);
            if i + 1 == def.body.len() {
                // The tail statement is the implicit return value.
                ctx.grow_ret(&o);
            }
        }
        if !ctx.changed {
            break;
        }
    }
    Taint { ret: ctx.ret, sink: ctx.sink }
}

fn taint_origins<'d>(
    e: &'d Expr,
    ctx: &mut TaintCtx<'_, 'd>,
    scope: &mut Scope<'_, 'd>,
) -> Origins {
    match &e.kind {
        // A bare identifier resolves as the call graph's walk resolves it,
        // so every name looked up as a call is a call-graph edge.  A local
        // read before its first assignment joins the local's origins with
        // the call's.
        ExprKind::Ident(n) => match scope.resolve(n) {
            Resolved::Shadowed => Origins::new(),
            Resolved::Param(_) => {
                ctx.param(n).map_or_else(Origins::new, |i| Origins::single(i + 1))
            }
            Resolved::Local { slot, call } => {
                let mut o = ctx.locals[slot].clone();
                if call {
                    o.union(&call_origins(None, n, &[], ctx, scope));
                }
                o
            }
            Resolved::Call => call_origins(None, n, &[], ctx, scope),
        },
        ExprKind::SelfExpr | ExprKind::IVar(_) => Origins::single(Taint::RECV),
        ExprKind::Array(items) => {
            let mut o = Origins::new();
            for item in items {
                o.union(&taint_origins(item, ctx, scope));
            }
            o
        }
        ExprKind::Hash(pairs) => {
            let mut o = Origins::new();
            for (k, v) in pairs {
                o.union(&taint_origins(k, ctx, scope));
                o.union(&taint_origins(v, ctx, scope));
            }
            o
        }
        ExprKind::Assign { target, value } | ExprKind::OpAssign { target, value, .. } => {
            // What is written into a container or an attribute is not
            // followed, but the target's receiver and index are evaluated
            // first, and their calls may reach a sink.
            if let LValue::Index { recv, index } = target {
                taint_origins(recv, ctx, scope);
                taint_origins(index, ctx, scope);
            } else if let LValue::Attr { recv, .. } = target {
                taint_origins(recv, ctx, scope);
            }
            let mut o = taint_origins(value, ctx, scope);
            if let LValue::Local(n) = target {
                if let Some(slot) = scope.assign(n) {
                    if let ExprKind::OpAssign { .. } = e.kind {
                        // `x op= v` reads `x` too.
                        o.union(&ctx.locals[slot]);
                        if let Some(i) = ctx.param(n) {
                            o.insert(i + 1);
                        }
                    }
                    ctx.changed |= ctx.locals[slot].union(&o);
                }
            }
            o
        }
        ExprKind::Call { recv, name, args, block } => {
            let recv_o = recv.as_ref().map(|r| taint_origins(r, ctx, scope));
            let o = call_origins(recv_o, name, args, ctx, scope);
            if let Some(b) = block {
                scope.enter_block(&b.params);
                for stmt in &b.body {
                    taint_origins(stmt, ctx, scope);
                }
                scope.leave_block();
            }
            o
        }
        ExprKind::BoolOp { lhs, rhs, .. } => {
            let mut o = taint_origins(lhs, ctx, scope);
            o.union(&taint_origins(rhs, ctx, scope));
            o
        }
        ExprKind::Not(inner) | ExprKind::TypeCast { expr: inner, .. } => {
            taint_origins(inner, ctx, scope)
        }
        ExprKind::If { arms, else_body } | ExprKind::Case { subject: _, arms, else_body } => {
            if let ExprKind::Case { subject, .. } = &e.kind {
                taint_origins(subject, ctx, scope);
            }
            let mut o = Origins::new();
            for arm in arms {
                taint_origins(&arm.cond, ctx, scope);
                for (i, stmt) in arm.body.iter().enumerate() {
                    let so = taint_origins(stmt, ctx, scope);
                    if i + 1 == arm.body.len() {
                        o.union(&so);
                    }
                }
            }
            for (i, stmt) in else_body.iter().enumerate() {
                let so = taint_origins(stmt, ctx, scope);
                if i + 1 == else_body.len() {
                    o.union(&so);
                }
            }
            o
        }
        ExprKind::While { cond, body } => {
            taint_origins(cond, ctx, scope);
            for stmt in body {
                taint_origins(stmt, ctx, scope);
            }
            Origins::new()
        }
        ExprKind::Return(Some(v)) => {
            let o = taint_origins(v, ctx, scope);
            ctx.grow_ret(&o);
            Origins::new()
        }
        ExprKind::Yield(args) => {
            for arg in args {
                taint_origins(arg, ctx, scope);
            }
            Origins::new()
        }
        ExprKind::Lambda(b) => {
            scope.enter_block(&b.params);
            for stmt in &b.body {
                taint_origins(stmt, ctx, scope);
            }
            scope.leave_block();
            Origins::new()
        }
        _ => Origins::new(),
    }
}

/// Walks a call's arguments, adds its sink flows and returns the origins
/// of its result.  A summarized callee moves each input exactly along its
/// transfer; any other callee (unknown or core library) derives its result
/// from every input.  `recv` is the walked receiver; a call without one
/// targets `self`, so the callee's receiver flows are this method's.
fn call_origins<'d>(
    recv: Option<Origins>,
    name: &str,
    args: &'d [Expr],
    ctx: &mut TaintCtx<'_, 'd>,
    scope: &mut Scope<'_, 'd>,
) -> Origins {
    let sql_sink = SQL_SINKS.contains(&name);
    let Some(callee) = (ctx.lookup)(name) else {
        let mut o = recv.unwrap_or_default();
        for (i, arg) in args.iter().enumerate() {
            let a = taint_origins(arg, ctx, scope);
            if sql_sink && i == 0 {
                ctx.grow_sink(&a);
            }
            o.union(&a);
        }
        return o;
    };
    let recv = recv.unwrap_or_else(|| Origins::single(Taint::RECV));
    let mut o = Origins::new();
    if callee.sink.contains(Taint::RECV) {
        ctx.grow_sink(&recv);
    }
    if callee.ret.contains(Taint::RECV) {
        o.union(&recv);
    }
    for (i, arg) in args.iter().enumerate() {
        let a = taint_origins(arg, ctx, scope);
        if (sql_sink && i == 0) || callee.sink.contains(i + 1) {
            ctx.grow_sink(&a);
        }
        if callee.ret.contains(i + 1) {
            o.union(&a);
        }
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdl_types::EffectTable;
    use ruby_syntax::parse_program_strict;

    fn seed() -> EffectTable {
        let mut s = EffectTable::new();
        for name in ["+", "-", "*", "==", ">", "<", "length", "map", "first"] {
            let term = if name == "map" { TermEffect::BlockDep } else { TermEffect::Terminates };
            s.insert(name.to_string(), (term, PurityEffect::Pure));
        }
        s.insert("push".to_string(), (TermEffect::Terminates, PurityEffect::Impure));
        s
    }

    /// The summaries of `src`, whose program lives as long as the test
    /// process (summaries borrow the program they index).
    fn infer_src(src: &str) -> ProgramSummaries<'static> {
        let p = Box::leak(Box::new(parse_program_strict(src).expect("parse")));
        ProgramSummaries::infer(p, &seed(), 1)
    }

    /// The SCC id of the top-level method `name`.
    fn scc(s: &ProgramSummaries, name: &str) -> usize {
        s.scc_ids()[s.iter().position(|m| m.name == name).expect("summarized")]
    }

    /// The parameters that flow into `m`'s return value.
    fn ret(m: &MethodSummary) -> Vec<usize> {
        m.taint.params_to_return().collect()
    }

    /// The parameters that flow into a SQL sink inside `m`.
    fn sink(m: &MethodSummary) -> Vec<usize> {
        m.taint.params_to_sink().collect()
    }

    #[test]
    fn straight_line_pure_method_terminates() {
        let s = infer_src("def m(x)\n  y = x + 1\n  y * 2\nend\n");
        let m = s.get("Object", "m", false).unwrap();
        assert_eq!(m.term, TermEffect::Terminates);
        assert_eq!(m.purity, PurityEffect::Pure);
        assert!(m.term_blame.is_empty() && m.purity_blame.is_empty());
    }

    #[test]
    fn while_loop_blames_itself() {
        let s = infer_src("def spin(n)\n  while n > 0\n    n = n - 1\n  end\n  n\nend\n");
        let m = s.get("Object", "spin", false).unwrap();
        assert_eq!(m.term, TermEffect::MayDiverge);
        assert_eq!(render_blame(&m.term_blame), "spin \u{2192} while loop");
        assert_eq!(m.purity, PurityEffect::Pure, "looping is not impurity");
    }

    #[test]
    fn divergence_propagates_through_calls_with_blame() {
        let s = infer_src(
            "def a(x)\n  b(x)\nend\ndef b(x)\n  c(x)\nend\ndef c(x)\n  while x\n    x = x\n  end\nend\n",
        );
        let a = s.get("Object", "a", false).unwrap();
        assert_eq!(a.term, TermEffect::MayDiverge);
        assert_eq!(render_blame(&a.term_blame), "a \u{2192} b \u{2192} c \u{2192} while loop");
    }

    #[test]
    fn impurity_propagates_with_blame_path() {
        let s = infer_src("def a(x)\n  b(x)\nend\ndef b(x)\n  @x = x\n  x\nend\n");
        let a = s.get("Object", "a", false).unwrap();
        assert_eq!(a.purity, PurityEffect::Impure);
        assert_eq!(render_blame(&a.purity_blame), "a \u{2192} b \u{2192} @x=");
        let b = s.get("Object", "b", false).unwrap();
        assert_eq!(render_blame(&b.purity_blame), "b \u{2192} @x=");
    }

    #[test]
    fn mutual_recursion_converges_to_a_pessimistic_cycle() {
        // The acceptance-criteria fixpoint test: a ↔ b must converge and
        // both land in one SCC with a cycle blame.
        let s = infer_src(
            "def even(n)\n  if n == 0\n    true\n  else\n    odd(n - 1)\n  end\nend\ndef odd(n)\n  if n == 0\n    false\n  else\n    even(n - 1)\n  end\nend\n",
        );
        let even = s.get("Object", "even", false).unwrap();
        let odd = s.get("Object", "odd", false).unwrap();
        assert_eq!(scc(&s, "even"), scc(&s, "odd"), "mutual recursion is one component");
        assert_eq!(even.term, TermEffect::MayDiverge);
        assert_eq!(odd.term, TermEffect::MayDiverge);
        assert!(
            render_blame(&even.term_blame).contains("recursive cycle"),
            "{:?}",
            even.term_blame
        );
        // No writes anywhere: the pessimistic purity start refines to pure.
        assert_eq!(even.purity, PurityEffect::Pure);
        assert_eq!(odd.purity, PurityEffect::Pure);
    }

    #[test]
    fn self_recursion_is_a_cycle_too() {
        let s = infer_src("def down(n)\n  down(n - 1)\nend\n");
        let m = s.get("Object", "down", false).unwrap();
        assert_eq!(m.term, TermEffect::MayDiverge);
        assert!(render_blame(&m.term_blame).contains("recursive cycle via `down`"));
    }

    #[test]
    fn cycle_purity_refines_but_member_write_poisons_the_component() {
        let s = infer_src("def a(x)\n  b(x)\nend\ndef b(x)\n  @log = x\n  a(x)\nend\n");
        let a = s.get("Object", "a", false).unwrap();
        let b = s.get("Object", "b", false).unwrap();
        assert_eq!(scc(&s, "a"), scc(&s, "b"));
        assert_eq!(a.purity, PurityEffect::Impure);
        assert_eq!(b.purity, PurityEffect::Impure);
        assert_eq!(render_blame(&b.purity_blame), "b \u{2192} @log=");
        // `a` routes through the member that carries the write.
        assert_eq!(render_blame(&a.purity_blame), "a \u{2192} b \u{2192} @log=");
    }

    #[test]
    fn unknown_callee_is_pessimistic() {
        let s = infer_src("def m(x)\n  mystery(x)\nend\n");
        let m = s.get("Object", "m", false).unwrap();
        assert_eq!(m.term, TermEffect::MayDiverge);
        assert_eq!(m.purity, PurityEffect::Impure);
        assert!(render_blame(&m.term_blame).contains("`mystery` (unknown)"));
    }

    #[test]
    fn seeded_impure_callee_blames_the_annotation() {
        let s = infer_src("def m(xs, x)\n  xs.push(x)\nend\n");
        let m = s.get("Object", "m", false).unwrap();
        assert_eq!(m.purity, PurityEffect::Impure);
        assert_eq!(render_blame(&m.purity_blame), "m \u{2192} `push` (annotated impure)");
        assert_eq!(m.term, TermEffect::Terminates, "push terminates");
    }

    #[test]
    fn a_diverging_call_in_a_parameter_default_may_diverge() {
        let s =
            infer_src("def spin()\n  while true\n    1\n  end\nend\ndef m(x = spin())\n  x\nend\n");
        let m = s.get("Object", "m", false).unwrap();
        assert_eq!(m.term, TermEffect::MayDiverge);
        assert_eq!(render_blame(&m.term_blame), "m \u{2192} spin \u{2192} while loop");
    }

    #[test]
    fn an_impure_call_in_a_parameter_default_is_impure() {
        let s = infer_src("def w(a, b = a.push(1))\n  b\nend\n");
        let w = s.get("Object", "w", false).unwrap();
        assert_eq!(w.purity, PurityEffect::Impure);
        assert_eq!(render_blame(&w.purity_blame), "w \u{2192} `push` (annotated impure)");
    }

    #[test]
    fn yielding_method_is_blockdep() {
        let s = infer_src("def each_twice(x)\n  yield(x)\n  yield(x)\nend\n");
        let m = s.get("Object", "each_twice", false).unwrap();
        assert_eq!(m.term, TermEffect::BlockDep);
    }

    #[test]
    fn blockdep_iterator_with_loop_free_block_terminates() {
        let s = infer_src("def m(xs)\n  xs.map { |v| v + 1 }\nend\n");
        let m = s.get("Object", "m", false).unwrap();
        assert_eq!(m.term, TermEffect::Terminates);
        let s = infer_src("def m(xs, n)\n  xs.map { |v| spin(n) }\nend\ndef spin(n)\n  while n\n    n = n\n  end\nend\n");
        let m = s.get("Object", "m", false).unwrap();
        assert_eq!(m.term, TermEffect::MayDiverge, "the block's calls are part of the body");
    }

    #[test]
    fn taint_param_to_return_through_concat() {
        let s = infer_src("def build(q)\n  'title = ' + q\nend\n");
        let m = s.get("Object", "build", false).unwrap();
        assert_eq!((ret(m), sink(m)), (vec![0], vec![]), "{:?}", m.taint);
    }

    #[test]
    fn taint_param_to_sink_directly_and_transitively() {
        let s = infer_src(
            "def self.apply(frag)\n  Topic.where(frag)\nend\ndef self.search(q)\n  apply('title = ' + q)\nend\n",
        );
        let apply = s.get("Object", "apply", true).unwrap();
        assert_eq!(sink(apply), [0], "{:?}", apply.taint);
        let search = s.get("Object", "search", true).unwrap();
        assert_eq!(
            sink(search),
            [0],
            "the sink transfer must propagate through the call: {:?}",
            search.taint
        );
    }

    #[test]
    fn taint_return_transfer_is_precise_for_known_callees() {
        // `constant` ignores its parameter, so q does not reach the return
        // of `m` — the summary is *more* precise than the conservative
        // any-arg rule.
        let s = infer_src("def constant(q)\n  42\nend\ndef m(q)\n  constant(q)\nend\n");
        let m = s.get("Object", "m", false).unwrap();
        assert_eq!(ret(m), [], "{:?}", m.taint);
    }

    #[test]
    fn taint_through_locals_and_branches() {
        let s = infer_src(
            "def pick(a, b, c)\n  if c\n    v = a\n  else\n    v = 'x'\n  end\n  v\nend\n",
        );
        let m = s.get("Object", "pick", false).unwrap();
        assert_eq!(ret(m), [0]);
    }

    #[test]
    fn receiver_flows_are_tracked() {
        let s = infer_src("def frag()\n  @prefix + 'x'\nend\ndef m()\n  where(frag())\nend\n");
        let f = s.get("Object", "frag", false).unwrap();
        assert!(f.taint.self_to_return());
        let m = s.get("Object", "m", false).unwrap();
        assert!(m.taint.self_to_sink(), "{:?}", m.taint);
    }

    #[test]
    fn recursive_taint_reaches_a_fixpoint() {
        let s = infer_src(
            "def a(q, n)\n  if n == 0\n    q\n  else\n    b(q, n - 1)\n  end\nend\ndef b(q, n)\n  a(q, n)\nend\n",
        );
        let a = s.get("Object", "a", false).unwrap();
        let b = s.get("Object", "b", false).unwrap();
        assert_eq!(ret(a), [0], "{:?}", a.taint);
        assert_eq!(ret(b), [0], "{:?}", b.taint);
    }

    #[test]
    fn parallel_inference_is_byte_identical() {
        let src = "def a(x)\n  b(x)\nend\ndef b(x)\n  c(x)\nend\ndef c(x)\n  while x\n    x = x\n  end\nend\ndef self.search(q)\n  Topic.where('t = ' + q)\nend\ndef even(n)\n  odd(n)\nend\ndef odd(n)\n  even(n)\nend\n";
        let p = parse_program_strict(src).expect("parse");
        let seq = ProgramSummaries::infer(&p, &seed(), 1);
        for threads in [2, 4, 8] {
            let par = ProgramSummaries::infer(&p, &seed(), threads);
            assert_eq!(seq.render(), par.render(), "threads={threads}");
        }
    }

    #[test]
    fn baseline_replay_skips_fixed_methods_and_renders_identically() {
        let src = "def a(x)\n  b(x)\nend\ndef b(x)\n  @x = x\nend\ndef lone(y)\n  y + 1\nend\n";
        let p = parse_program_strict(src).expect("parse");
        let cold = ProgramSummaries::infer(&p, &seed(), 1);
        // Freeze everything, replay everything: 0 re-summarized.
        let fixed: BTreeMap<_, _> = cold
            .iter()
            .map(|m| ((m.owner.clone(), m.name.clone(), m.singleton), m.clone()))
            .collect();
        let (warm, n) = ProgramSummaries::infer_with_baseline(&p, &seed(), &fixed);
        assert_eq!(n, 0, "warm run must re-summarize nothing");
        assert_eq!(cold.render(), warm.render());
        // Drop one method from the baseline: exactly it is re-summarized
        // (its dependents were not dropped here; the corpus driver drops
        // them via Merkle invalidation).
        let mut partial = fixed.clone();
        partial.remove(&("Object".to_string(), "lone".to_string(), false));
        let (warm, n) = ProgramSummaries::infer_with_baseline(&p, &seed(), &partial);
        assert_eq!(n, 1);
        assert_eq!(cold.render(), warm.render());
    }

    #[test]
    fn taint_name_lookup_joins_candidates() {
        let src = "class A\n  def go(x)\n    x\n  end\nend\nclass B\n  def go(x)\n    @x = x\n    where('t = ' + x)\n  end\nend\n";
        let s = infer_src(src);
        let t = s.taint_for_name("go").unwrap();
        assert!(t.params_to_sink().eq([0]));
        assert!(s.taint_for_name("nonexistent").is_none());
    }

    /// A bare identifier that names a block parameter is not a call: the
    /// call graph has no edge for it, so a same-named method may be
    /// summarized later and must not be looked up.  A local read before its
    /// assignment in walk order is a call and a local read at once, so the
    /// local's flow still reaches the return.
    #[test]
    fn identifiers_the_call_graph_does_not_call_are_not_looked_up() {
        for (src, want) in [
            ("def m(x)\n  z = y\n  y = x\n  z\nend\ndef y()\n  1\nend\n", vec![0]),
            ("def m(&blk)\n  blk\nend\ndef blk()\n  1\nend\n", vec![]),
        ] {
            let p = parse_program_strict(src).expect("parse");
            let sums = ProgramSummaries::infer(&p, &seed(), 1);
            let m = sums.get("Object", "m", false).unwrap();
            assert_eq!(m.term, TermEffect::Terminates, "{src:?}: {m:?}");
            assert_eq!(ret(m), want, "{src:?}: {m:?}");
            assert_eq!(sums.render(), ProgramSummaries::infer(&p, &seed(), 4).render());
            let lints = crate::lint_methods(&p.methods(), Some(&sums), 1);
            assert_eq!(lints.len(), 2, "{src:?}");
        }
    }

    /// The interpreter calls `y()` at `z = y` while the local `y` is unset,
    /// so the summary must see that call: a looping `y` makes `m` diverge.
    /// A read after the assignment, or in a later trip round a loop, reads
    /// the local and keeps its flow.
    #[test]
    fn a_local_read_before_its_first_assignment_is_a_call() {
        let y = "def y()\n  while true\n    1\n  end\nend\n";
        let s = infer_src(&format!("{y}def m(x)\n  z = y\n  y = x\n  z\nend\n"));
        let m = s.get("Object", "m", false).unwrap();
        assert_eq!(m.term, TermEffect::MayDiverge, "{m:?}");
        assert_eq!(render_blame(&m.term_blame), "m \u{2192} y \u{2192} while loop");
        let s = infer_src(&format!("{y}def m(x)\n  y = x\n  z = y\n  z\nend\n"));
        let m = s.get("Object", "m", false).unwrap();
        assert_eq!((m.term, ret(m)), (TermEffect::Terminates, vec![0]), "{m:?}");
        let s = infer_src(&format!(
            "{y}def m(q, c)\n  while c\n    z = y\n    y = q\n  end\n  z\nend\n"
        ));
        let m = s.get("Object", "m", false).unwrap();
        assert_eq!(ret(m), [0], "{m:?}");
    }

    /// An assignment target's receiver and index run before the write, and
    /// a parameter default before the body, so a sink call in them reaches
    /// the summary, and a caller that concatenates into the argument gets
    /// `LINT0105`.
    #[test]
    fn sinks_in_assignment_targets_and_parameter_defaults_reach_the_summary() {
        for f in [
            "def self.f(frag)\n    Topic.where(frag).first.name = 1\n  end",
            "def self.f(frag, h)\n    h[Topic.where(frag)] = 1\n  end",
            "def self.f(frag, r = Topic.where(frag))\n    r\n  end",
        ] {
            let src =
                format!("class Topic\n  {f}\n  def self.g(x)\n    f('a = ' + x)\n  end\nend\n");
            let p = parse_program_strict(&src).expect("parse");
            let sums = ProgramSummaries::infer(&p, &seed(), 1);
            let summary = sums.get("Topic", "f", true).unwrap();
            assert_eq!(sink(summary), [0], "{f}: {summary:?}");
            let lints = crate::lint_methods(&p.methods(), Some(&sums), 1);
            let g = lints.iter().find(|m| m.name == "g").unwrap();
            let codes: Vec<&str> = g.findings.iter().map(|f| f.code.as_str()).collect();
            assert_eq!(codes, [crate::SQL_TAINT], "{f}");
        }
    }

    #[test]
    fn render_is_stable_and_mentions_blames() {
        let s = infer_src("def a(x)\n  b(x)\nend\ndef b(x)\n  @x = x\nend\n");
        let r = s.render();
        assert_eq!(r, s.render());
        assert!(r.contains("impure via a \u{2192} b \u{2192} @x="), "{r}");
    }
}
