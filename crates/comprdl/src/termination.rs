//! Termination and purity checking for type-level code (paper §4, Fig. 6).
//!
//! CompRDL guarantees that type checking terminates by restricting what
//! type-level code (comp-type expressions and their helper methods) may do:
//!
//! * no `while` loops,
//! * calls only to methods whose termination effect is `:+` (always
//!   terminates), or `:blockdep` iterators whose block is pure,
//! * pure methods may not write instance, class or global variables, and may
//!   only call other pure methods,
//! * recursion in type-level code is assumed absent (and cut off at run time
//!   by the evaluator's depth bound).
//!
//! The effect environment has two layers: *explicit* effects and
//! *inferred* effects ([`InferredEffect`] summaries computed
//! interprocedurally by the `analysis` crate and installed via
//! [`EffectEnv::install_inferred`]).  [`explicit_effects`] builds the
//! explicit layer, which the summary inference is seeded with too: the
//! builtins, overridden by `terminates:`/`pure:` annotations, overridden in
//! turn by registered helpers.  Annotations that share a bare name are
//! joined pessimistically, not overwritten.  Explicit entries always win;
//! inferred entries fill in for un-annotated methods; names present in
//! neither layer stay pessimistic (`:-` / impure), and their violations
//! say so ("no summary and no annotation for …") instead of reading like a
//! proven divergence.  When an explicit annotation claims a *stronger*
//! effect than the inferred summary, [`annotation_conflicts`] reports a
//! `TERM0004` warning rendering the inferred blame chain.

use crate::env::CompRdl;
use rdl_types::{EffectTable, PurityEffect, TermEffect};
use ruby_syntax::{Expr, ExprKind, MethodDef, Span};
use std::collections::HashMap;
use std::fmt;

/// What kind of effect restriction a violation breaks; each kind has its
/// own stable diagnostic code so tooling can filter and count them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A looping construct (`while`) in type-level code → `TERM0001`.
    Loop,
    /// A call to a method not known to terminate → `TERM0002`.
    NonTerminatingCall,
    /// An impure write or impure call where purity is required (including
    /// inside a `:blockdep` iterator's block) → `TERM0003`.
    Impure,
    /// An explicit `terminates:`/`pure:` annotation claims a strictly
    /// stronger effect than the interprocedural summary inferred for the
    /// same method → `TERM0004` (rendered as a warning: the annotation is
    /// trusted, but the disagreement is surfaced with the inferred blame
    /// chain).
    AnnotationConflict,
}

impl ViolationKind {
    /// The stable diagnostic code for this violation kind.
    pub fn code(self) -> &'static str {
        match self {
            ViolationKind::Loop => "TERM0001",
            ViolationKind::NonTerminatingCall => "TERM0002",
            ViolationKind::Impure => "TERM0003",
            ViolationKind::AnnotationConflict => "TERM0004",
        }
    }
}

/// A termination / purity violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EffectViolation {
    /// Which restriction was broken (determines the diagnostic code).
    pub kind: ViolationKind,
    /// Description of what went wrong.
    pub message: String,
    /// Where the offending expression is.
    pub span: Span,
}

impl EffectViolation {
    /// 1-based source line of the violation.
    pub fn line(&self) -> u32 {
        self.span.line
    }
}

impl fmt::Display for EffectViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.span.line, self.message)
    }
}

impl From<EffectViolation> for diagnostics::Diagnostic {
    fn from(v: EffectViolation) -> Self {
        let d = if v.kind == ViolationKind::AnnotationConflict {
            diagnostics::Diagnostic::warning(v.kind.code(), v.message.clone())
                .with_label(v.span, "annotation disagrees with the inferred summary")
                .with_note(
                    "the explicit annotation wins; re-check it or drop it to use the \
                     inferred effect",
                )
        } else {
            diagnostics::Diagnostic::error(v.kind.code(), v.message.clone())
                .with_label(v.span, "in type-level code")
        };
        d.with_note("type-level computations must provably terminate and be pure (paper \u{a7}4)")
    }
}

/// An interprocedurally inferred effect summary for one method name, as
/// produced by the `analysis` crate's call-graph fixpoint and handed to
/// [`EffectEnv::install_inferred`].
///
/// The blame chains start with the method itself and end with the
/// root-cause token (e.g. `["a", "b", "@x="]` renders as
/// `a → b → @x=`); they are empty when the corresponding effect is the
/// good verdict (terminates / pure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferredEffect {
    /// Bare method name the summary applies to (worst-case joined over all
    /// same-named definitions, matching how effects are looked up).
    pub name: String,
    /// Inferred termination effect.
    pub term: TermEffect,
    /// Inferred purity effect.
    pub purity: PurityEffect,
    /// Call chain to the divergence root cause (empty when `term` is not
    /// [`TermEffect::MayDiverge`]).
    pub term_blame: Vec<String>,
    /// Call chain to the impurity root cause (empty when `purity` is
    /// [`PurityEffect::Pure`]).
    pub purity_blame: Vec<String>,
}

/// Renders a blame chain as `a → b → @x=`.
fn render_chain(chain: &[String]) -> String {
    chain.join(" \u{2192} ")
}

/// Where an effect verdict for a name came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EffectSource {
    /// An explicit entry: builtin, annotation, or registered helper.
    Explicit,
    /// An installed interprocedural summary.
    Inferred,
    /// Neither layer knows the name; the pessimistic default applies.
    Unknown,
}

/// The core library and type-level reflection methods the standard
/// annotations use, with their effects.
const BUILTINS: [(TermEffect, PurityEffect, &[&str]); 3] = [
    // Pure, terminating reflection / query methods usable in type-level
    // code.
    (
        TermEffect::Terminates,
        PurityEffect::Pure,
        &[
            "is_a?",
            "kind_of?",
            "instance_of?",
            "nil?",
            "==",
            "!=",
            "val",
            "value",
            "elts",
            "entries",
            "params",
            "param",
            "base",
            "value_type",
            "key_type",
            "elem_type",
            "elems",
            "merge",
            "[]",
            "keys",
            "values",
            "first",
            "last",
            "length",
            "size",
            "empty?",
            "include?",
            "key?",
            "has_key?",
            "to_s",
            "to_sym",
            "name",
            "new",
            "union",
            "subtype_of?",
            "canonical",
            "to_type",
            "upcase",
            "downcase",
            "+",
            "-",
            "*",
            "<",
            ">",
            "<=",
            ">=",
            "fetch",
            "dig",
            "freeze",
            "class",
        ],
    ),
    // Iterators terminate iff their block does and is pure.
    (
        TermEffect::BlockDep,
        PurityEffect::Pure,
        &[
            "map",
            "each",
            "select",
            "reject",
            "find",
            "detect",
            "collect",
            "all?",
            "any?",
            "none?",
            "reduce",
            "inject",
            "sort_by",
            "group_by",
            "each_pair",
            "each_with_index",
            "times",
            "upto",
        ],
    ),
    // Mutators are impure (and must not appear inside pure blocks).
    (
        TermEffect::Terminates,
        PurityEffect::Impure,
        &[
            "push", "<<", "pop", "shift", "unshift", "concat", "store", "[]=", "delete", "merge!",
            "update", "gsub!", "sub!", "clear",
        ],
    ),
];

/// Builds the explicit effect layer for `env`: the builtins, then every
/// `terminates:`/`pure:` annotation, then every registered type-level
/// helper (trusted to terminate and be pure), each layer overriding the
/// one before it.  Effects are keyed by bare name, so a name annotated on
/// several classes gets the pessimistic join of its annotations
/// ([`TermEffect::join`], [`PurityEffect::join`]) and the table does not
/// depend on the annotation table's iteration order.
///
/// [`TypeChecker::new`](crate::TypeChecker::new) and the corpus's summary
/// inference seed both start from this table, so the checker and the
/// inference trust exactly the same effects.
pub fn explicit_effects(env: &CompRdl) -> EffectTable {
    let mut table = EffectTable::with_capacity(env.annotations.method_count());
    for ((_, _, name), sig) in env.annotations.iter() {
        match table.get_mut(name) {
            Some((term, purity)) => {
                *term = term.join(sig.term);
                *purity = purity.join(sig.purity);
            }
            None => {
                table.insert(name.to_string(), (sig.term, sig.purity));
            }
        }
    }
    // The builtins are the bottom layer: they fill in only the names no
    // annotation claims, so the join above never mixes one in.
    for (term, purity, names) in BUILTINS {
        for &name in names {
            if !table.contains_key(name) {
                table.insert(name.to_string(), (term, purity));
            }
        }
    }
    for name in env.helpers.names() {
        table.insert(name, (TermEffect::Terminates, PurityEffect::Pure));
    }
    table
}

/// The effect environment: method name → (termination, purity).
///
/// Effects are looked up by bare method name, mirroring how the paper's
/// annotations attach `terminates:` / `pure:` labels to methods.  Lookup
/// precedence is explicit → inferred → pessimistic default.
#[derive(Debug, Clone, Default)]
pub struct EffectEnv {
    effects: EffectTable,
    inferred: HashMap<String, InferredEffect>,
}

impl EffectEnv {
    /// Creates an empty environment.
    pub fn new() -> Self {
        EffectEnv::default()
    }

    /// An environment holding only the builtin effects: the explicit layer
    /// of an environment with no annotations and no helpers.
    pub fn with_builtins() -> Self {
        EffectEnv::from_explicit(explicit_effects(&CompRdl::new()))
    }

    /// An environment whose explicit layer is `effects` (see
    /// [`explicit_effects`]) and whose inferred layer is empty.
    pub fn from_explicit(effects: EffectTable) -> Self {
        EffectEnv { effects, inferred: HashMap::new() }
    }

    /// Sets the explicit effects for a method name.
    pub fn set(&mut self, method: &str, term: TermEffect, purity: PurityEffect) {
        self.effects.insert(method.to_string(), (term, purity));
    }

    /// Installs interprocedural effect summaries below the explicit layer.
    /// A duplicate name is joined pessimistically (worse termination /
    /// purity wins, keeping the blame of the entry that forced it).
    pub fn install_inferred(&mut self, effects: impl IntoIterator<Item = InferredEffect>) {
        for e in effects {
            match self.inferred.entry(e.name.clone()) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(e);
                }
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    let cur = o.get_mut();
                    if e.term > cur.term {
                        cur.term = e.term;
                        cur.term_blame = e.term_blame;
                    }
                    if e.purity > cur.purity {
                        cur.purity = e.purity;
                        cur.purity_blame = e.purity_blame;
                    }
                }
            }
        }
    }

    /// The termination effect for a method (explicit wins over inferred;
    /// unknown methods default to `:-`, may diverge).
    pub fn termination(&self, method: &str) -> TermEffect {
        self.effects
            .get(method)
            .map(|(t, _)| *t)
            .or_else(|| self.inferred.get(method).map(|e| e.term))
            .unwrap_or(TermEffect::MayDiverge)
    }

    /// The purity effect for a method (explicit wins over inferred;
    /// unknown methods default to impure).
    pub fn purity(&self, method: &str) -> PurityEffect {
        self.effects
            .get(method)
            .map(|(_, p)| *p)
            .or_else(|| self.inferred.get(method).map(|e| e.purity))
            .unwrap_or(PurityEffect::Impure)
    }

    /// Where the verdict for `method` comes from.
    pub fn source(&self, method: &str) -> EffectSource {
        if self.effects.contains_key(method) {
            EffectSource::Explicit
        } else if self.inferred.contains_key(method) {
            EffectSource::Inferred
        } else {
            EffectSource::Unknown
        }
    }

    /// The installed inferred summary for `method`, if any (the explicit
    /// layer may still shadow it for lookups).
    pub fn inferred(&self, method: &str) -> Option<&InferredEffect> {
        self.inferred.get(method)
    }

    /// Number of explicitly annotated methods.
    pub fn len(&self) -> usize {
        self.effects.len()
    }

    /// Number of installed inferred summaries.
    pub fn inferred_len(&self) -> usize {
        self.inferred.len()
    }

    /// True if no explicit effects are registered.
    pub fn is_empty(&self) -> bool {
        self.effects.is_empty()
    }
}

/// Compares an explicit `terminates:`/`pure:` annotation against the
/// inferred summary for the same method and returns `TERM0004` violations
/// when the annotation claims a strictly stronger effect than inference
/// could establish (annotated `:+` but inferred `:-` / annotated pure but
/// inferred impure).  The messages render the inferred blame chain, e.g.
/// `inferred impure via a → b → @x=`.
pub fn annotation_conflicts(
    name: &str,
    claimed_term: TermEffect,
    claimed_purity: PurityEffect,
    inferred: &InferredEffect,
    span: Span,
) -> Vec<EffectViolation> {
    let mut out = Vec::new();
    if claimed_term != TermEffect::MayDiverge && inferred.term == TermEffect::MayDiverge {
        let claim = if claimed_term == TermEffect::Terminates { ":+" } else { ":blockdep" };
        out.push(EffectViolation {
            kind: ViolationKind::AnnotationConflict,
            message: format!(
                "`{name}` is annotated `terminates: {claim}` but inferred non-terminating \
                 via {}",
                render_chain(&inferred.term_blame)
            ),
            span,
        });
    }
    if claimed_purity == PurityEffect::Pure && inferred.purity == PurityEffect::Impure {
        out.push(EffectViolation {
            kind: ViolationKind::AnnotationConflict,
            message: format!(
                "`{name}` is annotated `pure: :+` but inferred impure via {}",
                render_chain(&inferred.purity_blame)
            ),
            span,
        });
    }
    out
}

/// The termination / purity checker.
#[derive(Debug, Clone)]
pub struct TerminationChecker {
    env: EffectEnv,
}

impl TerminationChecker {
    /// Creates a checker over the given effect environment.
    pub fn new(env: EffectEnv) -> Self {
        TerminationChecker { env }
    }

    /// Creates a checker with the builtin effect environment.
    pub fn with_builtins() -> Self {
        TerminationChecker::new(EffectEnv::with_builtins())
    }

    /// A mutable view of the effect environment (to register helper
    /// effects).
    pub fn env_mut(&mut self) -> &mut EffectEnv {
        &mut self.env
    }

    /// Checks that a type-level expression terminates; returns all
    /// violations found.
    pub fn check_expr(&self, expr: &Expr) -> Vec<EffectViolation> {
        let mut out = Vec::new();
        self.walk_termination(expr, &mut out);
        out
    }

    /// Checks a helper method definition: its body must terminate, and if
    /// `require_pure` is set it must also be pure.
    pub fn check_helper(&self, def: &MethodDef, require_pure: bool) -> Vec<EffectViolation> {
        let mut out = Vec::new();
        for e in &def.body {
            self.walk_termination(e, &mut out);
            if require_pure {
                self.walk_purity(e, &mut out);
            }
        }
        out
    }

    /// Checks that a block body is pure (no writes to non-local state and no
    /// impure calls) — the condition under which a `:blockdep` iterator
    /// terminates.
    pub fn check_block_purity(&self, body: &[Expr]) -> Vec<EffectViolation> {
        let mut out = Vec::new();
        for e in body {
            self.walk_purity(e, &mut out);
        }
        out
    }

    fn walk_termination(&self, expr: &Expr, out: &mut Vec<EffectViolation>) {
        expr.walk(&mut |e| match &e.kind {
            ExprKind::While { .. } => out.push(EffectViolation {
                kind: ViolationKind::Loop,
                message: "type-level code may not use looping constructs".to_string(),
                span: e.span,
            }),
            ExprKind::Call { name, block, .. } => match self.env.termination(name) {
                TermEffect::Terminates => {}
                TermEffect::MayDiverge => {
                    let message = match self.env.source(name) {
                        EffectSource::Unknown => format!(
                            "no summary and no annotation for `{name}`; the call is assumed \
                             non-terminating"
                        ),
                        EffectSource::Inferred => {
                            let chain = self
                                .env
                                .inferred(name)
                                .map(|i| render_chain(&i.term_blame))
                                .unwrap_or_default();
                            format!("call to `{name}`, inferred non-terminating via {chain}")
                        }
                        EffectSource::Explicit => format!(
                            "call to `{name}`, which is not known to terminate (`terminates: :-`)"
                        ),
                    };
                    out.push(EffectViolation {
                        kind: ViolationKind::NonTerminatingCall,
                        message,
                        span: e.span,
                    })
                }
                TermEffect::BlockDep => {
                    if let Some(block) = block {
                        let impurities = self.check_block_purity(&block.body);
                        for v in impurities {
                            out.push(EffectViolation {
                                kind: ViolationKind::Impure,
                                message: format!(
                                    "iterator `{name}` requires a pure block: {}",
                                    v.message
                                ),
                                span: v.span,
                            });
                        }
                    }
                }
            },
            _ => {}
        });
        let _ = expr;
    }

    fn walk_purity(&self, expr: &Expr, out: &mut Vec<EffectViolation>) {
        expr.walk(&mut |e| match &e.kind {
            ExprKind::Assign { target, .. } | ExprKind::OpAssign { target, .. } => match target {
                ruby_syntax::LValue::IVar(name) => out.push(EffectViolation {
                    kind: ViolationKind::Impure,
                    message: format!("writes instance variable @{name}"),
                    span: e.span,
                }),
                ruby_syntax::LValue::GVar(name) => out.push(EffectViolation {
                    kind: ViolationKind::Impure,
                    message: format!("writes global variable ${name}"),
                    span: e.span,
                }),
                ruby_syntax::LValue::Const(name) => out.push(EffectViolation {
                    kind: ViolationKind::Impure,
                    message: format!("writes constant {name}"),
                    span: e.span,
                }),
                ruby_syntax::LValue::Index { .. } | ruby_syntax::LValue::Attr { .. } => {
                    out.push(EffectViolation {
                        kind: ViolationKind::Impure,
                        message: "mutates the receiver of an index/attribute assignment"
                            .to_string(),
                        span: e.span,
                    })
                }
                ruby_syntax::LValue::Local(_) => {}
            },
            ExprKind::Call { name, .. } if self.env.purity(name) == PurityEffect::Impure => {
                let message = match self.env.source(name) {
                    EffectSource::Unknown => format!(
                        "no summary and no annotation for `{name}`; the call is assumed impure"
                    ),
                    EffectSource::Inferred => {
                        let chain = self
                            .env
                            .inferred(name)
                            .map(|i| render_chain(&i.purity_blame))
                            .unwrap_or_default();
                        format!("calls `{name}`, inferred impure via {chain}")
                    }
                    EffectSource::Explicit => format!("calls impure method `{name}`"),
                };
                out.push(EffectViolation { kind: ViolationKind::Impure, message, span: e.span });
            }
            _ => {}
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruby_syntax::{parse_expr, parse_program_strict};

    fn checker() -> TerminationChecker {
        let mut c = TerminationChecker::with_builtins();
        // Figure 6 setup: m1/m2 terminate, m3 may diverge.
        c.env_mut().set("m1", TermEffect::Terminates, PurityEffect::Pure);
        c.env_mut().set("m2", TermEffect::Terminates, PurityEffect::Pure);
        c.env_mut().set("m3", TermEffect::MayDiverge, PurityEffect::Impure);
        c
    }

    #[test]
    fn terminating_calls_are_allowed() {
        let c = checker();
        assert!(c.check_expr(&parse_expr("m2()").unwrap()).is_empty());
        assert!(c.check_expr(&parse_expr("m1() == m2()").unwrap()).is_empty());
    }

    #[test]
    fn diverging_calls_are_rejected() {
        let c = checker();
        let violations = c.check_expr(&parse_expr("m3()").unwrap());
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("m3"));
    }

    #[test]
    fn loops_are_rejected() {
        let c = checker();
        let violations = c.check_expr(&parse_expr("while x\n m1()\nend").unwrap());
        assert!(violations.iter().any(|v| v.message.contains("looping")));
    }

    #[test]
    fn blockdep_iterator_with_pure_block_is_allowed() {
        let c = checker();
        let violations = c.check_expr(&parse_expr("array.map { |val| val + 1 }").unwrap());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn blockdep_iterator_with_impure_block_is_rejected() {
        // Figure 6 line 15: `array.map { |val| array.push(4) }` is rejected
        // because the block calls the impure method push.
        let c = checker();
        let violations = c.check_expr(&parse_expr("array.map { |val| array.push(4) }").unwrap());
        assert!(violations.iter().any(|v| v.message.contains("push")), "{violations:?}");
    }

    #[test]
    fn purity_rejects_state_writes() {
        let c = checker();
        let program = parse_program_strict("def helper(t)\n  @cache = t\n  t\nend\n").unwrap();
        let (_, def) = &program.methods()[0];
        let violations = c.check_helper(def, true);
        assert!(violations.iter().any(|v| v.message.contains("@cache")));

        let program = parse_program_strict("def helper(t)\n  $global = t\nend\n").unwrap();
        let (_, def) = &program.methods()[0];
        assert!(!c.check_helper(def, true).is_empty());

        let program = parse_program_strict("def helper(t)\n  local = t\n  local\nend\n").unwrap();
        let (_, def) = &program.methods()[0];
        assert!(c.check_helper(def, true).is_empty());
    }

    #[test]
    fn nested_violations_are_found() {
        let c = checker();
        let e = parse_expr("if m1() then m3() else m2() end").unwrap();
        let violations = c.check_expr(&e);
        assert_eq!(violations.len(), 1);
    }

    #[test]
    fn effect_env_defaults() {
        let env = EffectEnv::with_builtins();
        assert_eq!(env.termination("unknown_method"), TermEffect::MayDiverge);
        assert_eq!(env.purity("unknown_method"), PurityEffect::Impure);
        assert_eq!(env.termination("map"), TermEffect::BlockDep);
        assert_eq!(env.purity("push"), PurityEffect::Impure);
        assert!(!env.is_empty());
    }

    /// Each violation kind has its own stable diagnostic code; pin the
    /// code/message pairs so downstream tooling can rely on them.
    #[test]
    fn violation_kinds_map_to_distinct_codes() {
        let c = checker();

        // Loop → TERM0001.
        let vs = c.check_expr(&parse_expr("while x\n m1()\nend").unwrap());
        let v = vs.iter().find(|v| v.kind == ViolationKind::Loop).expect("loop violation");
        assert_eq!(v.message, "type-level code may not use looping constructs");
        let d = diagnostics::Diagnostic::from(v.clone());
        assert_eq!(d.code, "TERM0001");

        // Non-terminating call → TERM0002.
        let vs = c.check_expr(&parse_expr("m3()").unwrap());
        let v = vs
            .iter()
            .find(|v| v.kind == ViolationKind::NonTerminatingCall)
            .expect("diverging-call violation");
        assert_eq!(v.message, "call to `m3`, which is not known to terminate (`terminates: :-`)");
        assert_eq!(diagnostics::Diagnostic::from(v.clone()).code, "TERM0002");

        // Impure write → TERM0003, both directly and wrapped by an iterator.
        let program = parse_program_strict("def helper(t)\n  @cache = t\n  t\nend\n").unwrap();
        let (_, def) = &program.methods()[0];
        let vs = c.check_helper(def, true);
        let v = vs.iter().find(|v| v.kind == ViolationKind::Impure).expect("impure violation");
        assert_eq!(v.message, "writes instance variable @cache");
        assert_eq!(diagnostics::Diagnostic::from(v.clone()).code, "TERM0003");

        let vs = c.check_expr(&parse_expr("array.map { |val| array.push(4) }").unwrap());
        let v = vs.iter().find(|v| v.kind == ViolationKind::Impure).expect("blockdep violation");
        assert_eq!(v.message, "iterator `map` requires a pure block: calls impure method `push`");
        assert_eq!(diagnostics::Diagnostic::from(v.clone()).code, "TERM0003");
    }

    /// Satellite: a violation on a name *neither* annotated nor summarized
    /// must say so, instead of reading identically to a proven violation.
    #[test]
    fn unknown_callees_say_there_is_no_summary_or_annotation() {
        let c = checker();

        let vs = c.check_expr(&parse_expr("mystery()").unwrap());
        assert_eq!(vs.len(), 1);
        assert_eq!(
            vs[0].message,
            "no summary and no annotation for `mystery`; the call is assumed non-terminating"
        );
        assert_eq!(vs[0].kind, ViolationKind::NonTerminatingCall);

        let vs = c.check_block_purity(&[parse_expr("mystery()").unwrap()]);
        assert_eq!(vs.len(), 1);
        assert_eq!(
            vs[0].message,
            "no summary and no annotation for `mystery`; the call is assumed impure"
        );
        assert_eq!(vs[0].kind, ViolationKind::Impure);

        // An explicitly annotated non-terminating method keeps the original
        // wording — the split is only for unknown names.
        let vs = c.check_expr(&parse_expr("m3()").unwrap());
        assert_eq!(
            vs[0].message,
            "call to `m3`, which is not known to terminate (`terminates: :-`)"
        );
    }

    /// Inferred summaries fill in below explicit annotations: a summarized
    /// helper becomes callable without an annotation, a bad summary renders
    /// its blame chain, and an explicit entry still shadows the summary.
    #[test]
    fn inferred_effects_fill_in_below_explicit_annotations() {
        let mut c = checker();
        c.env_mut().install_inferred([
            InferredEffect {
                name: "summed_helper".into(),
                term: TermEffect::Terminates,
                purity: PurityEffect::Pure,
                term_blame: Vec::new(),
                purity_blame: Vec::new(),
            },
            InferredEffect {
                name: "writer".into(),
                term: TermEffect::Terminates,
                purity: PurityEffect::Impure,
                term_blame: Vec::new(),
                purity_blame: vec!["writer".into(), "@x=".into()],
            },
            InferredEffect {
                name: "spinner".into(),
                term: TermEffect::MayDiverge,
                purity: PurityEffect::Pure,
                term_blame: vec!["spinner".into(), "while loop".into()],
                purity_blame: Vec::new(),
            },
            // The explicit layer says m3 diverges; this optimistic summary
            // must NOT override it.
            InferredEffect {
                name: "m3".into(),
                term: TermEffect::Terminates,
                purity: PurityEffect::Pure,
                term_blame: Vec::new(),
                purity_blame: Vec::new(),
            },
        ]);

        assert!(c.check_expr(&parse_expr("summed_helper()").unwrap()).is_empty());
        assert_eq!(c.env_mut().source("summed_helper"), EffectSource::Inferred);

        let vs = c.check_expr(&parse_expr("spinner()").unwrap());
        assert_eq!(
            vs[0].message,
            "call to `spinner`, inferred non-terminating via spinner \u{2192} while loop"
        );

        let vs = c.check_block_purity(&[parse_expr("writer()").unwrap()]);
        assert_eq!(vs[0].message, "calls `writer`, inferred impure via writer \u{2192} @x=");

        // Explicit wins: m3 still diverges despite the optimistic summary.
        let vs = c.check_expr(&parse_expr("m3()").unwrap());
        assert_eq!(vs.len(), 1);
        assert_eq!(
            vs[0].message,
            "call to `m3`, which is not known to terminate (`terminates: :-`)"
        );
    }

    /// Duplicate installs join pessimistically, keeping the forcing blame.
    #[test]
    fn duplicate_inferred_installs_join_worst_case() {
        let mut env = EffectEnv::new();
        env.install_inferred([
            InferredEffect {
                name: "h".into(),
                term: TermEffect::Terminates,
                purity: PurityEffect::Pure,
                term_blame: Vec::new(),
                purity_blame: Vec::new(),
            },
            InferredEffect {
                name: "h".into(),
                term: TermEffect::MayDiverge,
                purity: PurityEffect::Impure,
                term_blame: vec!["h".into(), "while loop".into()],
                purity_blame: vec!["h".into(), "$g=".into()],
            },
        ]);
        assert_eq!(env.termination("h"), TermEffect::MayDiverge);
        assert_eq!(env.purity("h"), PurityEffect::Impure);
        let i = env.inferred("h").unwrap();
        assert_eq!(i.term_blame, vec!["h".to_string(), "while loop".to_string()]);
        assert_eq!(i.purity_blame, vec!["h".to_string(), "$g=".to_string()]);
        assert_eq!(env.inferred_len(), 1);
    }

    /// TERM0004: an annotation claiming a strictly stronger effect than the
    /// inferred summary is surfaced as a *warning* with the inferred chain.
    #[test]
    fn annotation_conflicts_render_the_inferred_chain_as_term0004_warnings() {
        let inferred = InferredEffect {
            name: "a".into(),
            term: TermEffect::MayDiverge,
            purity: PurityEffect::Impure,
            term_blame: vec!["a".into(), "b".into(), "while loop".into()],
            purity_blame: vec!["a".into(), "b".into(), "@x=".into()],
        };
        let span = Span::new(0, 1, 1);
        let vs =
            annotation_conflicts("a", TermEffect::Terminates, PurityEffect::Pure, &inferred, span);
        assert_eq!(vs.len(), 2);
        assert_eq!(
            vs[0].message,
            "`a` is annotated `terminates: :+` but inferred non-terminating via a \u{2192} b \
             \u{2192} while loop"
        );
        assert_eq!(
            vs[1].message,
            "`a` is annotated `pure: :+` but inferred impure via a \u{2192} b \u{2192} @x="
        );
        for v in &vs {
            assert_eq!(v.kind, ViolationKind::AnnotationConflict);
            let d = diagnostics::Diagnostic::from(v.clone());
            assert_eq!(d.code, "TERM0004");
            assert_eq!(d.severity, diagnostics::Severity::Warning);
        }

        // Agreement (or an annotation weaker than inference) is silent.
        let good = InferredEffect {
            name: "a".into(),
            term: TermEffect::Terminates,
            purity: PurityEffect::Pure,
            term_blame: Vec::new(),
            purity_blame: Vec::new(),
        };
        assert!(annotation_conflicts("a", TermEffect::Terminates, PurityEffect::Pure, &good, span)
            .is_empty());
        assert!(annotation_conflicts(
            "a",
            TermEffect::MayDiverge,
            PurityEffect::Impure,
            &inferred,
            span
        )
        .is_empty());
    }
}
