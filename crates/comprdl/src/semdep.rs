//! Semantic dependency tracking: Merkle hashes over the call/helper graph.
//!
//! [`DepGraph`] assigns every program method a **Merkle hash** — a digest of
//! its own structural hash ([`ruby_syntax::method_hash`]) combined with the
//! structural hashes of everything its check verdict can depend on:
//!
//! - other program methods it calls (name-resolved, conservatively across
//!   all owners),
//! - the signatures of annotated library methods it calls, and
//! - the comp-type helper methods those signatures' `«...»` expressions
//!   reference, transitively through helper-to-helper calls.
//!
//! A method's Merkle hash is unchanged **iff** nothing in that transitive
//! closure changed, which is exactly the condition under which a previous
//! check verdict can be replayed.  Conversely, editing one comp-type helper
//! changes the Merkle hash of precisely the methods that can reach it — its
//! transitive dependents — and of nothing else.
//!
//! The graph is name-based and deliberately conservative: an unresolvable
//! or dynamic call contributes no edge (the checker never sees through it
//! either), and a name that resolves to several candidates contributes an
//! edge to each.  Over-approximation costs a spurious re-check; it never
//! costs soundness.
//!
//! Nothing the shared libraries contribute is hashed per build.  Every
//! annotation's digest ([`rdl_types::MethodSig::digest`]) and every
//! helper's hash is computed when it is registered and stored with it
//! ([`rdl_types::AnnotationTable`], [`HelperRegistry`]), and the core and
//! DB-DSL libraries are registered once per process.  A build hashes the
//! program's methods, adds nodes only for the annotations and helpers
//! their calls can reach, and computes Merkle hashes for program methods
//! only.  A native helper has no AST, so its hash is its name plus
//! [`NATIVE_HELPER_REVISION`].  A native helper that captures state — each
//! DB helper captures its app's schema — is registered with a digest of
//! that state ([`HelperRegistry::register_native_with_state`]), and its
//! hash covers it: a schema edit moves the Merkle hash of exactly the
//! methods that reach a schema-reading helper.
//!
//! [`env_hash`] digests the rest of the environment (class hierarchy,
//! method/ivar/gvar annotations) and [`TLC_REVISION`], the revision of the
//! type-level evaluator every comp type runs on.  Helper *bodies* are
//! intentionally excluded from it: a helper edit must invalidate only the
//! methods that reach the helper through the graph, not the whole
//! environment.

use crate::env::CompRdl;
use crate::tlc::HelperRegistry;
use rdl_types::{MethodSig, TypeExpr};
use ruby_syntax::{
    method_hash, walk_method, Event, Expr, ExprKind, Locals, MethodDef, MethodId, Name, Program,
    ProgramIndex, Resolved, Scope, SemHasher,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Bump when the behaviour of any *native* (Rust) helper changes in a way
/// that affects check verdicts.  Native helpers have no AST to hash, so this
/// tag is their stand-in body hash.  `crates/corpus/tests/native_helpers.rs`
/// pins this revision together with a digest of every native helper's
/// outputs over a fixed input table: a change to what a native helper
/// computes fails there until this is bumped and both are re-pinned.
pub const NATIVE_HELPER_REVISION: u32 = 3;

/// Bump in any change to what the type-level evaluator ([`crate::tlc`])
/// computes, or to what the [`ruby_interp::call_native`] methods it
/// reaches compute.  The evaluator has no AST to hash either, and every
/// comp type runs on it, so [`env_hash`] covers this revision: a bump makes
/// every cached verdict miss, and the cache re-checks instead of replaying
/// a verdict the change could alter.  Revision 1: `==`, `!=`, `case`/`when`
/// and `Array#include?` compare Integer, Float, String and Symbol values as
/// Ruby's `==` does (`2 == 2.0`).  Revision 2: a Ruby helper's body sees
/// only its own parameters and locals, not the calling comp type's `tself`
/// and binders.
pub const TLC_REVISION: u32 = 2;

/// One node of the graph — a program method, an annotated library-method
/// signature, or a comp-type helper.  The three kinds share a
/// representation; what distinguishes them is which index map
/// (`DepGraph::methods` / `helpers`) points at them, or, for annotations,
/// that a method's call edge does.
#[derive(Debug)]
struct Node {
    /// Structural hash of this node alone (no dependencies).
    base: u64,
    /// Outgoing dependency edges (indices into `nodes`).
    deps: Vec<usize>,
}

/// The semantic dependency graph of one program checked against one
/// environment.  See the module docs for the invalidation model.
#[derive(Debug)]
pub struct DepGraph {
    /// Program method nodes come first, one per definition in program
    /// order: indices `0..merkles.len()`.
    nodes: Vec<Node>,
    /// The node of every method identity the program defines exactly once.
    methods: BTreeMap<MethodId, usize>,
    /// The helpers some program method reaches.
    helpers: BTreeMap<String, usize>,
    /// The Merkle hash of every program method node, by node index.
    merkles: Vec<u64>,
}

impl DepGraph {
    /// Builds the dependency graph for `program` checked under `env`.
    pub fn build(env: &CompRdl, program: &Program) -> DepGraph {
        let mut b = Builder { registry: &env.helpers, nodes: Vec::new(), helpers: BTreeMap::new() };

        // Program method nodes, one per definition, with the names each
        // body may call.
        let index = ProgramIndex::new(program);
        let calls: Vec<BTreeSet<Name>> = index
            .methods()
            .iter()
            .map(|&(_, def)| {
                b.add_node(method_hash(def));
                called_names(def)
            })
            .collect();
        let method_count = b.nodes.len();

        // Called-name → annotation nodes.  Only annotations whose method
        // name some body calls are reachable, so only they get nodes.  An
        // annotation's base is its stored digest; its edges point at every
        // helper its comp exprs mention.
        let mut annotations: HashMap<&str, Vec<usize>> = HashMap::new();
        let called: HashSet<&str> = calls.iter().flatten().map(Name::as_str).collect();
        for ((_, _, name), sig, digest) in env.annotations.iter_digests() {
            if !called.contains(name) {
                continue;
            }
            let idx = b.add_node(digest);
            let mut helper_names = BTreeSet::new();
            for_each_comp_expr(sig, &mut |expr| {
                collect_helper_refs(expr, &env.helpers, &mut helper_names);
            });
            for hn in helper_names {
                let to = b.helper(&hn).expect("collected helper refs are registered");
                b.nodes[idx].deps.push(to);
            }
            annotations.entry(name).or_default().push(idx);
        }

        // Name-based call edges: to every definition of the called name, on
        // any owner, and to every annotation of it.
        for (from, callees) in calls.iter().enumerate() {
            for callee in callees {
                let annotated = annotations.get(callee.as_str()).into_iter().flatten().copied();
                for to in index.definitions_named(callee).chain(annotated) {
                    if to != from {
                        b.nodes[from].deps.push(to);
                    }
                }
            }
        }

        // A redefined identity gets no Merkle hash: its definitions have
        // different dependencies, and a verdict keyed by the identity could
        // replay one definition's verdict for the other.
        let method_idx = index
            .methods()
            .iter()
            .enumerate()
            .filter(|&(_, &(owner, def))| {
                index.identity(owner, &def.name, def.singleton).is_some_and(|d| d.count == 1)
            })
            .map(|(i, &(owner, def))| ((owner.to_string(), def.name.clone(), def.singleton), i))
            .collect();

        let mut g = DepGraph {
            merkles: Vec::new(),
            nodes: b.nodes,
            methods: method_idx,
            helpers: b.helpers,
        };
        g.merkles = (0..method_count).map(|i| g.compute_merkle(i)).collect();
        g
    }

    /// `H(sorted base hashes of the reachable node set, self included)` —
    /// cycle-safe by construction (the reachable *set* is what is hashed,
    /// not a recursive digest).
    fn compute_merkle(&self, start: usize) -> u64 {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![start];
        seen[start] = true;
        let mut bases = Vec::new();
        while let Some(i) = stack.pop() {
            bases.push(self.nodes[i].base);
            for &d in &self.nodes[i].deps {
                if !seen[d] {
                    seen[d] = true;
                    stack.push(d);
                }
            }
        }
        bases.sort_unstable();
        bases.dedup();
        let mut h = SemHasher::new();
        h.write_usize(bases.len());
        for base in bases {
            h.write_u64(base);
        }
        h.finish()
    }

    /// The Merkle hash of a program method, or `None` if the program does
    /// not define it exactly once.
    pub fn merkle(&self, owner: &str, name: &str, singleton: bool) -> Option<u64> {
        self.methods
            .get(&(owner.to_string(), name.to_string(), singleton))
            .map(|&i| self.merkles[i])
    }

    /// Every program method defined exactly once, with its Merkle hash, in
    /// `(owner, name, singleton)` order.
    pub fn method_merkles(&self) -> Vec<(MethodId, u64)> {
        self.methods.iter().map(|(id, &i)| (id.clone(), self.merkles[i])).collect()
    }

    /// The name-resolved method→method call edges of the program, as
    /// deduplicated `(caller, callee)` id pairs in sorted order.  They are a
    /// superset of the `analysis` crate's effect-summary call edges: both
    /// come from the same identifier walk ([`ruby_syntax::walk_method`]),
    /// and the summaries keep only the reads it resolves as calls.
    pub fn method_call_edges(&self) -> Vec<(MethodId, MethodId)> {
        let by_idx: BTreeMap<usize, &MethodId> =
            self.methods.iter().map(|(id, &i)| (i, id)).collect();
        let mut out = BTreeSet::new();
        for (id, &from) in &self.methods {
            for &to in &self.nodes[from].deps {
                if let Some(&callee) = by_idx.get(&to) {
                    out.insert((id.clone(), callee.clone()));
                }
            }
        }
        out.into_iter().collect()
    }

    /// The program methods whose check verdicts depend (transitively) on the
    /// named helper — exactly the set a helper edit invalidates.
    pub fn helper_dependents(&self, helper: &str) -> Vec<MethodId> {
        let Some(&target) = self.helpers.get(helper) else {
            return Vec::new();
        };
        self.methods
            .iter()
            .filter(|(_, &from)| self.reaches(from, target))
            .map(|(id, _)| id.clone())
            .collect()
    }

    fn reaches(&self, from: usize, target: usize) -> bool {
        if from == target {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![from];
        seen[from] = true;
        while let Some(i) = stack.pop() {
            if i == target {
                return true;
            }
            for &d in &self.nodes[i].deps {
                if !seen[d] {
                    seen[d] = true;
                    stack.push(d);
                }
            }
        }
        false
    }
}

struct Builder<'e> {
    registry: &'e HelperRegistry,
    nodes: Vec<Node>,
    helpers: BTreeMap<String, usize>,
}

impl Builder<'_> {
    fn add_node(&mut self, base: u64) -> usize {
        self.nodes.push(Node { base, deps: Vec::new() });
        self.nodes.len() - 1
    }

    /// The node of helper `name`, added on first reach with its stored hash
    /// as base and, for a Ruby helper, its helper → helper edges (native
    /// helpers are leaves).  `None` if no such helper is registered.
    fn helper(&mut self, name: &str) -> Option<usize> {
        if let Some(&idx) = self.helpers.get(name) {
            return Some(idx);
        }
        // Natives first, as `TlcCtx::call_helper` resolves them.
        let (base, def) = match self.registry.native_hash(name) {
            Some(base) => (base, None),
            None => {
                let (def, base) = self.registry.ruby_helper(name)?;
                (base, Some(def))
            }
        };
        let idx = self.add_node(base);
        self.helpers.insert(name.to_string(), idx);
        for callee in def.map(called_names).unwrap_or_default() {
            if let Some(to) = self.helper(&callee) {
                self.nodes[idx].deps.push(to);
            }
        }
        Some(idx)
    }
}

/// The dependency-graph hash of native helper `name`: its name,
/// [`NATIVE_HELPER_REVISION`] and, for a helper that captures state, the
/// digest of that state.  [`HelperRegistry`] computes it once, when the
/// helper is registered.
pub(crate) fn native_helper_hash(name: &str, state: Option<u64>) -> u64 {
    let mut h = SemHasher::new();
    h.write_str("native-helper");
    h.write_str(name);
    h.write_u64(u64::from(NATIVE_HELPER_REVISION));
    if let Some(state) = state {
        h.write_u64(state);
    }
    h.finish()
}

/// The names a method may invoke, from the identifier walk
/// ([`ruby_syntax::walk_method`]): every called name and every identifier
/// read, parameters and locals included, so the walk runs under an empty
/// table.  A read that a block or lambda parameter hides is left out: the
/// checker binds those parameters in the body too, so it never types such
/// a read as a call.  Callers filter against the set of names that
/// actually resolve, so the over-approximation only ever adds edges for
/// name collisions — sound, at worst one spurious re-check.
fn called_names(def: &MethodDef) -> BTreeSet<Name> {
    let mut out = BTreeSet::new();
    walk_method(def, &mut Scope::new(&Locals::default()), &mut |event| match event {
        Event::Read(_, _, Resolved::Shadowed) => {}
        Event::Call(name) | Event::Read(_, name, _) => {
            out.insert(name.clone());
        }
        _ => {}
    });
    out
}

/// Calls `f` on every `«...»` comp expression nested anywhere in the
/// signature (params, return, block signature).
fn for_each_comp_expr(sig: &MethodSig, f: &mut impl FnMut(&Expr)) {
    for p in &sig.params {
        for_each_comp_in_type(&p.ty, f);
    }
    for_each_comp_in_type(&sig.ret, f);
    if let Some(block) = &sig.block {
        for_each_comp_expr(block, f);
    }
}

fn for_each_comp_in_type(te: &TypeExpr, f: &mut impl FnMut(&Expr)) {
    match te {
        TypeExpr::Comp(spec) => {
            f(&spec.expr);
            for_each_comp_in_type(&spec.bound, f);
        }
        TypeExpr::Generic(_, args) | TypeExpr::Union(args) | TypeExpr::Tuple(args) => {
            for a in args {
                for_each_comp_in_type(a, f);
            }
        }
        TypeExpr::Optional(t) | TypeExpr::Vararg(t) => for_each_comp_in_type(t, f),
        TypeExpr::FiniteHash(entries) => {
            for (_, v) in entries {
                for_each_comp_in_type(v, f);
            }
        }
        TypeExpr::Simple(_) | TypeExpr::ConstString(_) => {}
    }
}

/// Collects every helper name the expression references (as a call or bare
/// identifier), filtered to names registered in `helpers`.
fn collect_helper_refs(expr: &Expr, helpers: &HelperRegistry, out: &mut BTreeSet<Name>) {
    expr.walk(&mut |e| match &e.kind {
        ExprKind::Call { name, .. } | ExprKind::Ident(name) if helpers.contains(name) => {
            out.insert(name.clone());
        }
        _ => {}
    });
}

/// Digest of the checking environment *excluding helper bodies*: the
/// type-level evaluator's [`TLC_REVISION`], the class hierarchy and every
/// method / ivar / gvar annotation.  A persisted check cache is only
/// replayable against an environment with the same hash; helper edits are
/// tracked at method granularity by [`DepGraph`] instead.  Method
/// annotations enter as their stored digests, sorted as integers.
pub fn env_hash(env: &CompRdl) -> u64 {
    let mut h = SemHasher::new();
    h.write_str("env");
    h.write_u64(u64::from(TLC_REVISION));
    let class_names: Vec<&str> = env.classes.names().collect();
    h.write_usize(class_names.len());
    for name in &class_names {
        h.write_str(name);
        h.write_usize(env.classes.ancestors(name).count());
        for a in env.classes.ancestors(name) {
            h.write_str(a);
        }
        h.write_bool(env.classes.is_model(name));
    }
    // Annotation digests were computed at registration; sorting them as
    // integers makes the fold independent of the table's `HashMap` order.
    let mut digests: Vec<u64> = env.annotations.iter_digests().map(|(_, _, d)| d).collect();
    digests.sort_unstable();
    h.write_usize(digests.len());
    for digest in digests {
        h.write_u64(digest);
    }
    let vars: Vec<_> = env.annotations.var_types().collect();
    h.write_usize(vars.len());
    for (owner, name, ty) in vars {
        h.write_str(owner);
        h.write_str(name);
        h.write_str(&ty.to_string());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdl_types::{PurityEffect, TermEffect};

    fn env_with_helpers() -> CompRdl {
        let mut env = CompRdl::new();
        env.register_helpers_ruby(
            "def leaf(x)\n  x\nend\ndef mid(x)\n  leaf(x)\nend\ndef top(x)\n  mid(x)\nend\n",
        );
        env.type_sig("Widget", "frob", "(t<:Object) -> «top(targs[0])»", None);
        env.add_class("Widget", "Object");
        env
    }

    fn program() -> Program {
        ruby_syntax::parse_program_strict(
            "def uses_frob(w)\n  w.frob(1)\nend\ndef plain(x)\n  x\nend\ndef calls_plain(x)\n  plain(x)\nend\n",
        )
        .unwrap()
    }

    #[test]
    fn helper_edit_moves_exactly_its_dependents() {
        let env = env_with_helpers();
        let prog = program();
        let g1 = DepGraph::build(&env, &prog);

        // Re-register `leaf` with a different body.
        let mut env2 = env_with_helpers();
        env2.register_helpers_ruby("def leaf(x)\n  x + 0\nend\n");
        let g2 = DepGraph::build(&env2, &prog);

        // `uses_frob` reaches leaf via frob → top → mid → leaf.
        assert_ne!(
            g1.merkle("Object", "uses_frob", false),
            g2.merkle("Object", "uses_frob", false)
        );
        // The others never touch a helper; their hashes must not move.
        assert_eq!(g1.merkle("Object", "plain", false), g2.merkle("Object", "plain", false));
        assert_eq!(
            g1.merkle("Object", "calls_plain", false),
            g2.merkle("Object", "calls_plain", false)
        );
    }

    #[test]
    fn helper_dependents_is_the_transitive_closure() {
        let env = env_with_helpers();
        let g = DepGraph::build(&env, &program());
        let deps = g.helper_dependents("leaf");
        assert_eq!(deps, vec![("Object".to_string(), "uses_frob".to_string(), false)]);
        assert!(g.helper_dependents("no_such_helper").is_empty());
    }

    #[test]
    fn method_edit_invalidates_callers_transitively() {
        let env = env_with_helpers();
        let g1 = DepGraph::build(&env, &program());
        let edited = ruby_syntax::parse_program_strict(
            "def uses_frob(w)\n  w.frob(1)\nend\ndef plain(x)\n  x + 1\nend\ndef calls_plain(x)\n  plain(x)\nend\n",
        )
        .unwrap();
        let g2 = DepGraph::build(&env, &edited);
        assert_ne!(g1.merkle("Object", "plain", false), g2.merkle("Object", "plain", false));
        assert_ne!(
            g1.merkle("Object", "calls_plain", false),
            g2.merkle("Object", "calls_plain", false),
            "caller must be invalidated with its callee"
        );
        assert_eq!(
            g1.merkle("Object", "uses_frob", false),
            g2.merkle("Object", "uses_frob", false),
            "unrelated method must keep its hash"
        );
    }

    #[test]
    fn layout_edits_do_not_move_merkles() {
        let env = env_with_helpers();
        let g1 = DepGraph::build(&env, &program());
        let noisy = ruby_syntax::parse_program_strict(
            "# comment\n\ndef uses_frob(w)\n  w.frob(1)   # trailing\nend\n\n\ndef plain(x)\n  x\nend\ndef calls_plain(x)\n  plain(x)\nend\n",
        )
        .unwrap();
        let g2 = DepGraph::build(&env, &noisy);
        assert_eq!(g1.method_merkles(), g2.method_merkles());
    }

    #[test]
    fn env_hash_tracks_annotations_not_helpers() {
        let e1 = env_with_helpers();
        let mut e2 = env_with_helpers();
        e2.register_helpers_ruby("def leaf(x)\n  x + 0\nend\n");
        assert_eq!(env_hash(&e1), env_hash(&e2), "helper bodies are graph-tracked, not env-wide");

        let mut e3 = env_with_helpers();
        e3.type_sig("Widget", "other", "(Integer) -> Integer", None);
        assert_ne!(env_hash(&e1), env_hash(&e3));

        // The fold sorts the stored digests, so the order annotations were
        // registered in (and hence the table's `HashMap` order) cannot
        // leak into it.
        let registered = |order: &mut dyn Iterator<Item = usize>| {
            let mut env = env_with_helpers();
            for i in order {
                env.type_sig("Widget", &format!("m{i}"), "(Integer) -> Integer", None);
            }
            env_hash(&env)
        };
        assert_eq!(registered(&mut (0..64)), registered(&mut (0..64).rev()));

        // A change to only the label, `terminates:` or `pure:` moves it.
        let annotated = |label: Option<&str>, term: TermEffect, purity: PurityEffect| {
            let mut sig = rdl_types::parse_method_sig("(Integer) -> Integer")
                .unwrap()
                .with_term(term)
                .with_purity(purity);
            sig.typecheck_label = label.map(str::to_string);
            let mut env = env_with_helpers();
            env.annotations.add_instance("Widget", "other", sig);
            env_hash(&env)
        };
        let base = annotated(None, TermEffect::Terminates, PurityEffect::Pure);
        assert_eq!(base, annotated(None, TermEffect::Terminates, PurityEffect::Pure));
        for (what, moved) in [
            ("label", annotated(Some("app"), TermEffect::Terminates, PurityEffect::Pure)),
            ("terminates:", annotated(None, TermEffect::MayDiverge, PurityEffect::Pure)),
            ("pure:", annotated(None, TermEffect::Terminates, PurityEffect::Impure)),
        ] {
            assert_ne!(base, moved, "a {what}-only change must move env_hash");
        }
    }

    #[test]
    fn env_hash_tracks_ivar_and_gvar_annotations() {
        let typed = |ivar: &str, gvar: &str| {
            let mut env = env_with_helpers();
            env.var_type("Widget", "name", ivar);
            env.global_type("$mode", gvar);
            env_hash(&env)
        };
        let base = typed("String", "Symbol");
        assert_eq!(base, typed("String", "Symbol"), "equal annotations hash equally");
        assert_ne!(base, env_hash(&env_with_helpers()), "adding a var annotation moves it");
        assert_ne!(base, typed("Integer", "Symbol"), "a var_type change moves it");
        assert_ne!(base, typed("String", "Integer"), "a global_type change moves it");
    }
}
