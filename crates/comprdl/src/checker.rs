//! The CompRDL static type checker.
//!
//! Given a Ruby-subset [`Program`], a set of method type annotations (some
//! of which use comp types), and a selection of methods to check, the
//! checker:
//!
//! * type checks each selected method body against its signature,
//! * evaluates comp types at library call sites to obtain precise argument
//!   and return types (paper §2.1–§2.3),
//! * runs the termination checker on every comp type it evaluates (§4),
//! * records the dynamic checks that must be inserted at calls to
//!   non-type-checked library methods (§2.4, §3.2),
//! * performs weak updates (with constraint replay) when tuple / finite hash
//!   / const string typed values are mutated (§4), and
//! * accounts for type casts: explicit `RDL.type_cast` calls and the
//!   implicit casts that *would* be required when precision is lost
//!   (used to reproduce the "Casts" vs "Casts (RDL)" columns of Table 2).

use crate::cache::{CacheKey, CacheStats, CompTypeCache};
use crate::env::CompRdl;
use crate::runtime::{ConsistencyCheck, InsertedCheck};
use crate::termination::{explicit_effects, EffectEnv, EffectViolation, TerminationChecker};
use crate::tlc::{eval_comp_type, TlcError, TlcValue};
use rdl_types::{
    HashKey, MethodKind, MethodSig, MethodSummary, Name, ParamSig, SingVal, Subtyper, Type,
    TypeExpr, TypeStore,
};
use ruby_syntax::{BinOp, Expr, ExprKind, LValue, MethodDef, Program, ProgramIndex, Span};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// What kind of type error was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCategory {
    /// A reference to an undefined constant (e.g. the Journey `Field` bug).
    UndefinedConstant,
    /// A call to a method the receiver's type does not have.
    NoMethod,
    /// An argument's type does not match the (possibly computed) parameter
    /// type.
    ArgumentType,
    /// The method body's type does not match its declared return type
    /// (e.g. the Code.org `current_user` documentation bug).
    ReturnType,
    /// A comp type failed to evaluate.
    CompType,
    /// A weak update invalidated a previously asserted constraint.
    WeakUpdate,
    /// Type-level code failed the termination / purity check.
    Termination,
    /// Wrong number of arguments.
    Arity,
    /// An embedded SQL string failed to type check (§2.3).
    Sql,
}

impl ErrorCategory {
    /// Stable diagnostic code for this category of type error.
    pub fn code(self) -> &'static str {
        match self {
            ErrorCategory::UndefinedConstant => "TYP0001",
            ErrorCategory::NoMethod => "TYP0002",
            ErrorCategory::ArgumentType => "TYP0003",
            ErrorCategory::ReturnType => "TYP0004",
            ErrorCategory::CompType => "TYP0005",
            ErrorCategory::WeakUpdate => "TYP0006",
            ErrorCategory::Termination => "TYP0007",
            ErrorCategory::Arity => "TYP0008",
            ErrorCategory::Sql => "TYP0009",
        }
    }
}

/// A type error found by the checker.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeErrorInfo {
    /// Which category of error.
    pub category: ErrorCategory,
    /// Class owning the method being checked.
    pub class: String,
    /// Name of the method being checked.
    pub method: String,
    /// Human readable message.
    pub message: String,
    /// Where in the checked source the error points.
    pub span: Span,
}

impl TypeErrorInfo {
    /// 1-based source line of the error (the start of its span).
    pub fn line(&self) -> u32 {
        self.span.line
    }
}

impl fmt::Display for TypeErrorInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}#{} (line {}): {:?}: {}",
            self.class, self.method, self.span.line, self.category, self.message
        )
    }
}

impl std::error::Error for TypeErrorInfo {}

impl From<TypeErrorInfo> for diagnostics::Diagnostic {
    fn from(e: TypeErrorInfo) -> Self {
        diagnostics::Diagnostic::error(e.category.code(), e.message.clone())
            .with_label(e.span, format!("while checking `{}#{}`", e.class, e.method))
    }
}

/// Options controlling a checking run.
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// Evaluate comp types (`true`) or fall back to their static bounds as
    /// plain RDL would (`false`).
    pub use_comp_types: bool,
    /// When precision is lost (receiver or argument typed `Object`,
    /// `%dyn`, a union, or a promoted container), silently count an
    /// *implicit cast* instead of reporting an error — this models the cast
    /// a programmer would have to insert and is how the "Casts (RDL)" column
    /// is produced.
    pub count_implicit_casts: bool,
    /// Memoize comp-type evaluations keyed on (method, resolved receiver
    /// type, resolved argument types); see [`crate::cache`].  Disable to get
    /// the paper's re-evaluate-at-every-call-site behaviour, the reference
    /// that tests compare cached checking against.
    pub use_eval_cache: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions { use_comp_types: true, count_implicit_casts: true, use_eval_cache: true }
    }
}

/// Results for a single checked method.
#[derive(Debug, Clone)]
pub struct MethodCheckResult {
    /// Owning class.
    pub class: String,
    /// Method name.
    pub method: String,
    /// Whether the method is a class (singleton) method.
    pub singleton: bool,
    /// Errors found.
    pub errors: Vec<TypeErrorInfo>,
    /// Number of explicit `RDL.type_cast` calls in the body.
    pub explicit_casts: usize,
    /// Number of implicit casts that had to be assumed (precision losses).
    pub implicit_casts: usize,
    /// Dynamic checks to insert for this method's call sites.
    pub checks: Vec<InsertedCheck>,
    /// Lines of code of the method body.
    pub loc: usize,
}

impl MethodCheckResult {
    /// Merges verdicts minted against another store: absorbs `from` into
    /// `store`, shifts every inserted check's store-backed expected types by
    /// the absorb's id shift, and moves each `(index, result)` into its
    /// slot.  The parallel checker merges its worker stores this way, and
    /// the corpus driver merges freshly checked methods into the store its
    /// cache replays thawed into.
    pub fn absorb_into(
        slots: &mut [Option<MethodCheckResult>],
        store: &mut TypeStore,
        from: TypeStore,
        results: impl IntoIterator<Item = (usize, MethodCheckResult)>,
    ) {
        let shift = store.absorb(from);
        for (idx, mut result) in results {
            for check in &mut result.checks {
                check.expected_return = shift.apply(&check.expected_return);
                if let Some(consistency) = &mut check.consistency {
                    consistency.expected = shift.apply(&consistency.expected);
                }
            }
            slots[idx] = Some(result);
        }
    }
}

/// Results for a whole checking run.
#[derive(Debug)]
pub struct ProgramCheckResult {
    /// Per-method results.
    pub methods: Vec<MethodCheckResult>,
    /// The type store built during checking (needed by the dynamic-check
    /// hook so inserted checks can resolve store-backed types).
    pub store: TypeStore,
    /// Comp-type evaluation cache counters for the run (summed across
    /// workers for a parallel run; all zeros when the cache is disabled).
    pub cache_stats: CacheStats,
}

impl ProgramCheckResult {
    /// All errors across methods.
    pub fn errors(&self) -> Vec<&TypeErrorInfo> {
        self.methods.iter().flat_map(|m| m.errors.iter()).collect()
    }

    /// Total number of explicit casts.
    pub fn explicit_casts(&self) -> usize {
        self.methods.iter().map(|m| m.explicit_casts).sum()
    }

    /// Total number of implicit casts (precision losses).
    pub fn implicit_casts(&self) -> usize {
        self.methods.iter().map(|m| m.implicit_casts).sum()
    }

    /// Total casts a programmer would need (explicit + implicit).
    pub fn total_casts(&self) -> usize {
        self.explicit_casts() + self.implicit_casts()
    }

    /// All dynamic checks to insert.
    pub fn checks(&self) -> Vec<InsertedCheck> {
        self.methods.iter().flat_map(|m| m.checks.iter().cloned()).collect()
    }

    /// Number of methods checked.
    pub fn methods_checked(&self) -> usize {
        self.methods.len()
    }

    /// Total lines of code across checked methods.
    pub fn total_loc(&self) -> usize {
        self.methods.iter().map(|m| m.loc).sum()
    }
}

/// The type checker.
///
/// The environment (`env`) and program are shared, immutable inputs; the
/// checker indexes the program once ([`ProgramIndex`]), so resolving a
/// call to a program method is a hash probe.  The store, termination
/// checker and comp-type cache are the run's mutable state.  A parallel run
/// ([`TypeChecker::check_methods_parallel`]) gives every worker thread its
/// own `TypeChecker` over the same shared inputs and merges the per-worker
/// stores afterwards.
pub struct TypeChecker<'a> {
    env: &'a CompRdl,
    /// The program's methods and classes.
    index: ProgramIndex<'a>,
    options: CheckOptions,
    store: TypeStore,
    termination: TerminationChecker,
    cache: CompTypeCache<'a>,
}

struct MethodCtx {
    class: String,
    method: String,
    singleton: bool,
    locals: HashMap<Name, Type>,
    errors: Vec<TypeErrorInfo>,
    explicit_casts: usize,
    implicit_casts: usize,
    checks: Vec<InsertedCheck>,
    return_types: Vec<Type>,
    block_param_types: HashMap<Name, Type>,
}

impl<'a> TypeChecker<'a> {
    /// Creates a checker for `program` using the annotations, helpers and
    /// class table in `env`.  Its effect environment starts from
    /// [`explicit_effects`]`(env)`, the same table the summary inference
    /// is seeded with.
    pub fn new(env: &'a CompRdl, program: &'a Program, options: CheckOptions) -> Self {
        TypeChecker {
            env,
            index: ProgramIndex::new(program),
            options,
            store: TypeStore::new(),
            termination: TerminationChecker::new(EffectEnv::from_explicit(explicit_effects(env))),
            cache: CompTypeCache::default(),
        }
    }

    /// Installs interprocedural effect summaries (see
    /// [`MethodSummary`]) below the explicit layer of this
    /// checker's effect environment: annotations, builtins and registered
    /// helpers still win, but un-annotated methods with a summary become
    /// callable from type-level code, and violations on summarized-bad
    /// methods render the inferred blame chain.
    pub fn install_inferred_effects(&mut self, effects: &[MethodSummary]) {
        self.termination.env_mut().install_inferred(effects.iter().cloned());
    }

    /// Compares every explicit `terminates:`/`pure:` annotation in `env`
    /// against the inferred summaries and returns the `TERM0004`
    /// annotation-conflict warnings (annotated strictly stronger than
    /// inferred), each anchored at the annotated method's definition span.
    /// Output is sorted by (class, method, singleton) so it is
    /// deterministic regardless of program and annotation-table order.
    ///
    /// Only annotations whose `(class, kind, name)` the program *defines*
    /// are compared: a core-library annotation (say, a pure `where`) must
    /// not conflict with an unrelated same-named method an app defines on
    /// its own class.  The summary lookup itself stays name-keyed — the
    /// same pessimistic-join approximation the effect environment uses
    /// everywhere else — so a conflict means "some program method by this
    /// name is inferred weaker than this annotation claims".
    pub fn effect_conflicts(
        env: &CompRdl,
        program: &Program,
        effects: &[MethodSummary],
    ) -> Vec<EffectViolation> {
        let mut inferred = EffectEnv::new();
        inferred.install_inferred(effects.iter().cloned());
        // Probe the annotation table once per program method identity, at
        // its first definition, so the cost tracks the program rather than
        // the shared libraries.
        let index = ProgramIndex::new(program);
        let mut annotated: Vec<_> = index
            .methods()
            .iter()
            .enumerate()
            .filter_map(|(i, &(owner, def))| {
                let key = (owner, def.name.as_str(), def.singleton);
                index.identity(key.0, key.1, key.2).filter(|d| d.first == i)?;
                let kind = if def.singleton { MethodKind::Singleton } else { MethodKind::Instance };
                let sig = env.annotations.get_exact(owner, kind, &def.name)?;
                Some((key, sig, def.span))
            })
            .collect();
        annotated.sort_unstable_by_key(|(key, ..)| *key);
        let mut out = Vec::new();
        for ((_, name, _), sig, span) in annotated {
            let Some(inf) = inferred.inferred(name) else { continue };
            out.extend(crate::termination::annotation_conflicts(
                name, sig.term, sig.purity, inf, span,
            ));
        }
        out
    }

    /// The methods a `check_labeled(label)` run selects, in program order.
    /// Poisoned methods (parse recovery replaced their body with an error
    /// placeholder) are excluded: their one `PARSE0002` diagnostic already
    /// covers them, and checking a placeholder body would only manufacture
    /// spurious type errors on top of the syntax error.  Exposed so drivers
    /// (see `corpus::evaluate_app`) can partition the work list into
    /// replayable and must-check subsets before handing the latter to
    /// [`TypeChecker::check_methods_parallel`].
    pub fn labeled_methods<'p>(
        env: &CompRdl,
        program: &'p Program,
        label: &str,
    ) -> Vec<(String, &'p MethodDef)> {
        Self::labeled_in(env, &ProgramIndex::new(program), Some(label))
    }

    /// The unpoisoned annotated methods of `index` whose annotation has
    /// `label` (any label for `None`), in program order.
    fn labeled_in<'p>(
        env: &CompRdl,
        index: &ProgramIndex<'p>,
        label: Option<&str>,
    ) -> Vec<(String, &'p MethodDef)> {
        let mut selected = Vec::with_capacity(index.methods().len());
        for &(owner, def) in index.methods() {
            if def.poisoned {
                continue;
            }
            let kind = if def.singleton { MethodKind::Singleton } else { MethodKind::Instance };
            let labeled = env
                .annotations
                .lookup(&env.classes, owner, kind, &def.name)
                .is_some_and(|(_, sig)| label.is_none() || sig.typecheck_label.as_deref() == label);
            if labeled {
                selected.push((owner.to_string(), def));
            }
        }
        selected
    }

    /// Checks exactly the given `(owner, def)` methods, in the given order.
    ///
    /// This is the incremental entry point: a driver that replays cached
    /// verdicts for unchanged methods calls this with only the methods whose
    /// Merkle hash moved.  Each method is checked exactly as
    /// [`TypeChecker::check_labeled`] would have checked it.
    pub fn check_methods(mut self, selected: &[(String, &MethodDef)]) -> ProgramCheckResult {
        let mut methods = Vec::new();
        for (owner, def) in selected {
            methods.push(self.check_method_def(owner, def));
        }
        ProgramCheckResult { methods, store: self.store, cache_stats: self.cache.stats() }
    }

    /// Checks every method in the program that carries a `typecheck:` label
    /// in its annotation, mirroring `RDL.do_typecheck`.
    pub fn check_labeled(self, label: &str) -> ProgramCheckResult {
        let selected = Self::labeled_in(self.env, &self.index, Some(label));
        self.check_methods(&selected)
    }

    /// Like [`TypeChecker::check_methods`] with `effects` installed (see
    /// [`TypeChecker::install_inferred_effects`]), but on `threads` scoped
    /// workers that pull methods off a shared work queue (work stealing — a
    /// worker that finishes a cheap method immediately grabs the next).
    /// Each worker has its own [`TypeStore`] and comp-type cache, while the
    /// class table, annotations and helpers are shared by reference.  Worker
    /// stores are merged afterwards ([`MethodCheckResult::absorb_into`]) and
    /// results come back in `selected` order, so the output is deterministic
    /// regardless of how the work was distributed.  With one thread (or one
    /// method) the check runs on the calling thread.
    pub fn check_methods_parallel(
        env: &CompRdl,
        program: &Program,
        options: CheckOptions,
        selected: &[(String, &MethodDef)],
        threads: usize,
        effects: &[MethodSummary],
    ) -> ProgramCheckResult {
        let workers = threads.clamp(1, selected.len().max(1));
        if workers == 1 {
            let mut checker = TypeChecker::new(env, program, options);
            checker.install_inferred_effects(effects);
            return checker.check_methods(selected);
        }

        // One worker's output: indexed method results, its private store,
        // and its cache counters.
        type WorkerOutput = (Vec<(usize, MethodCheckResult)>, TypeStore, CacheStats);
        let next = AtomicUsize::new(0);
        let worker_outputs: Vec<WorkerOutput> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut checker = TypeChecker::new(env, program, options);
                        checker.install_inferred_effects(effects);
                        let mut out = Vec::new();
                        loop {
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            let Some((owner, def)) = selected.get(idx) else { break };
                            out.push((idx, checker.check_method_def(owner, def)));
                        }
                        (out, checker.store, checker.cache.stats())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("checker worker panicked")).collect()
        });

        let mut store = TypeStore::new();
        let mut cache_stats = CacheStats::default();
        let mut slots: Vec<Option<MethodCheckResult>> = selected.iter().map(|_| None).collect();
        for (results, worker_store, worker_stats) in worker_outputs {
            cache_stats = cache_stats.merged(worker_stats);
            MethodCheckResult::absorb_into(&mut slots, &mut store, worker_store, results);
        }
        ProgramCheckResult { methods: slots.into_iter().flatten().collect(), store, cache_stats }
    }

    /// Checks all annotated methods defined in the program (any label).
    /// Poisoned methods are skipped, as in `check_labeled`.
    pub fn check_all_annotated(self) -> ProgramCheckResult {
        let selected = Self::labeled_in(self.env, &self.index, None);
        self.check_methods(&selected)
    }

    fn check_method_def(&mut self, owner: &str, def: &MethodDef) -> MethodCheckResult {
        let kind = if def.singleton { MethodKind::Singleton } else { MethodKind::Instance };
        // The signature is borrowed from the env, which outlives the checker.
        let env = self.env;
        let sig = env.annotations.lookup(&env.classes, owner, kind, &def.name).map(|(_, sig)| sig);

        let mut ctx = MethodCtx {
            class: owner.to_string(),
            method: def.name.clone(),
            singleton: def.singleton,
            locals: HashMap::new(),
            errors: Vec::new(),
            explicit_casts: 0,
            implicit_casts: 0,
            checks: Vec::new(),
            return_types: Vec::new(),
            block_param_types: HashMap::new(),
        };

        // Bind parameters from the signature (or Dynamic when unannotated).
        let declared_ret = match sig {
            Some(sig) => {
                for (i, p) in def.params.iter().enumerate() {
                    let ty = sig
                        .params
                        .get(i)
                        .map(|ps| self.instantiate_param(ps))
                        .unwrap_or(Type::Dynamic);
                    ctx.locals.insert(p.name.clone(), ty);
                }
                self.instantiate(&sig.ret)
            }
            None => {
                for p in &def.params {
                    ctx.locals.insert(p.name.clone(), Type::Dynamic);
                }
                Type::Dynamic
            }
        };

        // Check the body.
        let mut body_ty = Type::nil();
        for e in &def.body {
            body_ty = self.infer(&mut ctx, e);
        }

        // The method's result is the join of the final expression and every
        // `return`.
        let sub = Subtyper::new(&self.env.classes);
        let mut result_ty = body_ty;
        for t in ctx.return_types.clone() {
            result_ty = sub.lub(&self.store, &result_ty, &t);
        }
        if !matches!(declared_ret, Type::Dynamic) {
            let ok = sub.is_subtype(&self.store, &result_ty, &declared_ret);
            if !ok && self.is_imprecise(&result_ty) && self.options.count_implicit_casts {
                // A cast on the returned expression would make this check —
                // count it rather than reporting a (false positive) error.
                ctx.implicit_casts += 1;
            } else if !ok {
                ctx.errors.push(TypeErrorInfo {
                    category: ErrorCategory::ReturnType,
                    class: ctx.class.clone(),
                    method: ctx.method.clone(),
                    message: format!(
                        "body has type `{}` but the method is declared to return `{}`",
                        self.store.render(&result_ty),
                        self.store.render(&declared_ret)
                    ),
                    span: def.span,
                });
            }
        }

        MethodCheckResult {
            class: ctx.class,
            method: ctx.method,
            singleton: ctx.singleton,
            errors: ctx.errors,
            explicit_casts: ctx.explicit_casts,
            implicit_casts: ctx.implicit_casts,
            checks: ctx.checks,
            loc: def
                .body
                .iter()
                .map(|e| e.span.line)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                + 2,
        }
    }

    fn instantiate(&mut self, te: &TypeExpr) -> Type {
        te.instantiate(&mut self.store)
    }

    fn instantiate_param(&mut self, ps: &ParamSig) -> Type {
        match self.instantiate(&ps.ty) {
            Type::Optional(inner) | Type::Vararg(inner) => *inner,
            other => other,
        }
    }

    fn self_type(&self, ctx: &MethodCtx) -> Type {
        if ctx.singleton {
            Type::class_of(ctx.class.clone())
        } else {
            Type::nominal(ctx.class.clone())
        }
    }

    fn error(&self, ctx: &mut MethodCtx, category: ErrorCategory, span: Span, message: String) {
        ctx.errors.push(TypeErrorInfo {
            category,
            class: ctx.class.clone(),
            method: ctx.method.clone(),
            message,
            span,
        });
    }

    /// True when a type is "imprecise" — the situations where plain RDL
    /// loses track and a programmer cast would be required.
    fn is_imprecise(&self, t: &Type) -> bool {
        match self.store.resolve(t) {
            Type::Dynamic | Type::Top | Type::Union(_) => true,
            Type::Nominal(n) => n == "Object" || n == "BasicObject",
            Type::Generic { base, args } => {
                (base == "Hash" || base == "Array")
                    && args.iter().any(|a| self.is_imprecise_shallow(a))
            }
            _ => false,
        }
    }

    fn is_imprecise_shallow(&self, t: &Type) -> bool {
        matches!(self.store.resolve(t), Type::Dynamic | Type::Top | Type::Union(_))
            || matches!(self.store.resolve(t), Type::Nominal(n) if n == "Object")
    }

    fn precision_loss(&self, ctx: &mut MethodCtx, span: Span, what: &str, ty: &Type) -> Type {
        if self.options.count_implicit_casts {
            ctx.implicit_casts += 1;
            Type::Dynamic
        } else {
            self.error(
                ctx,
                ErrorCategory::NoMethod,
                span,
                format!(
                    "{what} has imprecise type `{}`; a type cast is required",
                    self.store.render(ty)
                ),
            );
            Type::Dynamic
        }
    }

    // ------------------------------------------------------------------
    // Inference
    // ------------------------------------------------------------------

    fn infer(&mut self, ctx: &mut MethodCtx, expr: &Expr) -> Type {
        match &expr.kind {
            // Recovery placeholder: poisoned methods are filtered before
            // checking, so this only appears if a caller checks one anyway.
            // Dynamic keeps the degradation silent rather than cascading.
            ExprKind::Error => Type::Dynamic,
            ExprKind::Nil => Type::nil(),
            ExprKind::True => Type::Singleton(SingVal::True),
            ExprKind::False => Type::Singleton(SingVal::False),
            ExprKind::Int(i) => Type::int(*i),
            ExprKind::Float(f) => Type::Singleton(SingVal::float(*f)),
            ExprKind::Str(s) => self.store.new_const_string(s.clone()),
            ExprKind::Sym(s) => Type::sym(s.clone()),
            ExprKind::Array(items) => {
                let elems = items.iter().map(|e| self.infer(ctx, e)).collect();
                self.store.new_tuple(elems)
            }
            ExprKind::Hash(pairs) => self.infer_hash(ctx, pairs),
            ExprKind::SelfExpr => self.self_type(ctx),
            ExprKind::Ident(name) => {
                if let Some(t) = ctx.locals.get(name) {
                    return t.clone();
                }
                if let Some(t) = ctx.block_param_types.get(name) {
                    return t.clone();
                }
                self.infer_call(ctx, expr, None, name, &[], None)
            }
            ExprKind::IVar(name) => match self.env.annotations.ivar(&ctx.class, name) {
                Some(te) => {
                    let te = te.clone();
                    self.instantiate(&te)
                }
                None => Type::Dynamic,
            },
            ExprKind::GVar(name) => match self.env.annotations.gvar(name) {
                Some(te) => {
                    let te = te.clone();
                    self.instantiate(&te)
                }
                None => Type::Dynamic,
            },
            ExprKind::Const(path) => {
                let joined = match &path[..] {
                    [name] => name.clone(),
                    _ => Name::from(path.join("::")),
                };
                if self.env.classes.contains(&joined) || self.index.defines_class(&joined) {
                    Type::class_of(joined)
                } else {
                    self.error(
                        ctx,
                        ErrorCategory::UndefinedConstant,
                        expr.span,
                        format!("uninitialized constant {joined}"),
                    );
                    Type::Dynamic
                }
            }
            ExprKind::Assign { target, value } => {
                let value_ty = self.infer(ctx, value);
                self.check_assign(ctx, expr.span, target, value_ty.clone());
                value_ty
            }
            ExprKind::OpAssign { target, op, value } => {
                let value_ty = self.infer(ctx, value);
                let current = self.infer_lvalue_read(ctx, expr.span, target);
                let new_ty = if op == "||" {
                    Type::union([current, value_ty])
                } else {
                    // Numeric / concatenation operators preserve the class.
                    Type::union([current, value_ty])
                };
                self.check_assign(ctx, expr.span, target, new_ty.clone());
                new_ty
            }
            ExprKind::Call { recv, name, args, block } => {
                self.infer_call(ctx, expr, recv.as_deref(), name, args, block.as_deref())
            }
            ExprKind::BoolOp { op, lhs, rhs } => {
                let l = self.infer(ctx, lhs);
                let r = self.infer(ctx, rhs);
                match op {
                    BinOp::And => Type::union([r, Type::Singleton(SingVal::False), Type::nil()]),
                    BinOp::Or => Type::union([l, r]),
                }
            }
            ExprKind::Not(inner) => {
                self.infer(ctx, inner);
                Type::Bool
            }
            ExprKind::If { arms, else_body } => {
                let mut branch_types = Vec::new();
                for arm in arms {
                    self.infer(ctx, &arm.cond);
                    let mut t = Type::nil();
                    for e in &arm.body {
                        t = self.infer(ctx, e);
                    }
                    branch_types.push(t);
                }
                let mut t = Type::nil();
                for e in else_body {
                    t = self.infer(ctx, e);
                }
                branch_types.push(t);
                let sub = Subtyper::new(&self.env.classes);
                sub.lub_all(&self.store, &branch_types)
            }
            ExprKind::Case { subject, arms, else_body } => {
                self.infer(ctx, subject);
                let mut branch_types = Vec::new();
                for arm in arms {
                    self.infer(ctx, &arm.cond);
                    let mut t = Type::nil();
                    for e in &arm.body {
                        t = self.infer(ctx, e);
                    }
                    branch_types.push(t);
                }
                let mut t = Type::nil();
                for e in else_body {
                    t = self.infer(ctx, e);
                }
                branch_types.push(t);
                let sub = Subtyper::new(&self.env.classes);
                sub.lub_all(&self.store, &branch_types)
            }
            ExprKind::While { cond, body } => {
                self.infer(ctx, cond);
                for e in body {
                    self.infer(ctx, e);
                }
                Type::nil()
            }
            ExprKind::Return(value) => {
                let t = match value {
                    Some(v) => self.infer(ctx, v),
                    None => Type::nil(),
                };
                ctx.return_types.push(t);
                Type::Bot
            }
            ExprKind::Yield(args) => {
                for a in args {
                    self.infer(ctx, a);
                }
                Type::Dynamic
            }
            ExprKind::Break | ExprKind::Next => Type::nil(),
            ExprKind::Lambda(block) => {
                self.infer_block_body(ctx, Some(block), &Type::Dynamic);
                Type::nominal("Proc")
            }
            ExprKind::TypeCast { expr: inner, ty } => {
                self.infer(ctx, inner);
                ctx.explicit_casts += 1;
                match rdl_types::parse_type_expr(ty) {
                    Ok(te) => self.instantiate(&te),
                    Err(e) => {
                        self.error(
                            ctx,
                            ErrorCategory::ArgumentType,
                            expr.span,
                            format!("invalid cast annotation {ty:?}: {e}"),
                        );
                        Type::Dynamic
                    }
                }
            }
        }
    }

    fn infer_hash(&mut self, ctx: &mut MethodCtx, pairs: &[(Expr, Expr)]) -> Type {
        let mut entries = Vec::new();
        let mut literal_keys = true;
        let mut key_types = Vec::new();
        let mut val_types = Vec::new();
        for (k, v) in pairs {
            let vt = self.infer(ctx, v);
            match &k.kind {
                ExprKind::Sym(s) => entries.push((HashKey::Sym(s.clone()), vt.clone())),
                ExprKind::Str(s) => entries.push((HashKey::Str(s.into()), vt.clone())),
                ExprKind::Int(i) => entries.push((HashKey::Int(*i), vt.clone())),
                _ => {
                    literal_keys = false;
                    key_types.push(self.infer(ctx, k));
                }
            }
            val_types.push(vt);
        }
        if literal_keys {
            self.store.new_finite_hash(entries)
        } else {
            Type::hash(Type::union(key_types), Type::union(val_types))
        }
    }

    fn infer_lvalue_read(&mut self, ctx: &mut MethodCtx, span: Span, target: &LValue) -> Type {
        match target {
            LValue::Local(name) => ctx.locals.get(name).cloned().unwrap_or(Type::nil()),
            LValue::IVar(name) => match self.env.annotations.ivar(&ctx.class, name) {
                Some(te) => {
                    let te = te.clone();
                    self.instantiate(&te)
                }
                None => Type::Dynamic,
            },
            LValue::GVar(name) => match self.env.annotations.gvar(name) {
                Some(te) => {
                    let te = te.clone();
                    self.instantiate(&te)
                }
                None => Type::Dynamic,
            },
            LValue::Const(_) => Type::Dynamic,
            LValue::Index { recv, index } => {
                let r = recv.clone();
                let i = index.clone();
                let call = Expr::new(
                    ExprKind::Call {
                        recv: Some(r),
                        name: Name::from("[]"),
                        args: vec![(*i).clone()],
                        block: None,
                    },
                    span,
                );
                self.infer(ctx, &call)
            }
            LValue::Attr { .. } => Type::Dynamic,
        }
    }

    fn check_assign(&mut self, ctx: &mut MethodCtx, span: Span, target: &LValue, value_ty: Type) {
        match target {
            LValue::Local(name) => {
                ctx.locals.insert(name.clone(), value_ty);
            }
            LValue::IVar(name) => {
                if let Some(te) = self.env.annotations.ivar(&ctx.class, name) {
                    let te = te.clone();
                    let declared = self.instantiate(&te);
                    let sub = Subtyper::new(&self.env.classes);
                    if !sub.constrain(&mut self.store, &value_ty, &declared, "ivar assignment") {
                        self.error(
                            ctx,
                            ErrorCategory::ArgumentType,
                            span,
                            format!(
                                "cannot assign `{}` to @{name} declared as `{}`",
                                self.store.render(&value_ty),
                                self.store.render(&declared)
                            ),
                        );
                    }
                }
            }
            LValue::GVar(name) => {
                if let Some(te) = self.env.annotations.gvar(name) {
                    let te = te.clone();
                    let declared = self.instantiate(&te);
                    let sub = Subtyper::new(&self.env.classes);
                    if !sub.constrain(&mut self.store, &value_ty, &declared, "global assignment") {
                        self.error(
                            ctx,
                            ErrorCategory::ArgumentType,
                            span,
                            format!(
                                "cannot assign `{}` to ${name} declared as `{}`",
                                self.store.render(&value_ty),
                                self.store.render(&declared)
                            ),
                        );
                    }
                }
            }
            LValue::Const(_) => {}
            LValue::Index { recv, index } => {
                let recv_ty = self.infer(ctx, recv);
                let index_ty = self.infer(ctx, index);
                self.weak_update(ctx, span, &recv_ty, &index_ty, value_ty);
            }
            LValue::Attr { recv, .. } => {
                self.infer(ctx, recv);
            }
        }
    }

    /// Performs a weak update on a store-backed receiver type (paper §4) and
    /// replays its recorded constraints, reporting any that no longer hold.
    fn weak_update(
        &mut self,
        ctx: &mut MethodCtx,
        span: Span,
        recv_ty: &Type,
        index_ty: &Type,
        value_ty: Type,
    ) {
        let replay = match (self.store.resolve(recv_ty), index_ty) {
            (Type::Tuple(_), Type::Singleton(SingVal::Int(i))) => {
                let Type::Tuple(id) = recv_ty else { return };
                Some(self.store.weak_update_tuple(*id, (*i).max(0) as usize, value_ty))
            }
            (Type::FiniteHash(_), Type::Singleton(SingVal::Sym(s))) => {
                let Type::FiniteHash(id) = recv_ty else { return };
                Some(self.store.weak_update_hash(*id, HashKey::Sym(s.clone()), value_ty))
            }
            (Type::FiniteHash(_), Type::Singleton(SingVal::Int(i))) => {
                let Type::FiniteHash(id) = recv_ty else { return };
                Some(self.store.weak_update_hash(*id, HashKey::Int(*i), value_ty))
            }
            _ => None,
        };
        if let Some(constraints) = replay {
            let sub = Subtyper::new(&self.env.classes);
            for violated in sub.replay(&self.store, &constraints) {
                self.error(
                    ctx,
                    ErrorCategory::WeakUpdate,
                    span,
                    format!(
                        "weak update invalidates earlier constraint `{} <= {}` (from {})",
                        self.store.render(&violated.lhs),
                        self.store.render(&violated.rhs),
                        violated.origin
                    ),
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Method calls
    // ------------------------------------------------------------------

    /// Maps a receiver type to the (class, method kind) used for signature
    /// lookup.
    fn receiver_class(&mut self, recv_ty: &Type) -> Option<(Name, MethodKind)> {
        match self.store.resolve(recv_ty) {
            Type::Singleton(SingVal::Class(c)) => Some((c, MethodKind::Singleton)),
            Type::Singleton(v) => Some((v.class_of().into(), MethodKind::Instance)),
            Type::Nominal(n) => Some((n, MethodKind::Instance)),
            Type::Generic { base, .. } => Some((base, MethodKind::Instance)),
            Type::Tuple(_) => Some(("Array".into(), MethodKind::Instance)),
            Type::FiniteHash(_) => Some(("Hash".into(), MethodKind::Instance)),
            Type::ConstString(_) => Some(("String".into(), MethodKind::Instance)),
            Type::Bool => Some(("Boolean".into(), MethodKind::Instance)),
            _ => None,
        }
    }

    /// The signature a call of `name` on `recv_ty` is checked against, with
    /// its declaring class.  Both are borrowed from the env, which outlives
    /// the checker, so a call site copies nothing.
    fn lookup_signature(&mut self, recv_ty: &Type, name: &str) -> Option<(&'a str, &'a MethodSig)> {
        let env = self.env;
        let (class, kind) = self.receiver_class(recv_ty)?;
        if let Some(found) = env.annotations.lookup(&env.classes, &class, kind, name) {
            return Some(found);
        }
        // DB query methods: a model class's singleton methods and a
        // `Table<T>` relation's instance methods are both typed via the
        // `Table` annotations (paper §2.1: `tself` may be a class singleton
        // or a Table type).
        let is_model_class = kind == MethodKind::Singleton && env.classes.is_model(&class);
        let is_table = class == "Table" || class == "Sequel::Dataset";
        if is_model_class || is_table {
            for dsl in ["Table", "Sequel::Dataset"] {
                if let Some(found) =
                    env.annotations.lookup(&env.classes, dsl, MethodKind::Instance, name)
                {
                    return Some(found);
                }
            }
        }
        None
    }

    fn infer_call(
        &mut self,
        ctx: &mut MethodCtx,
        expr: &Expr,
        recv: Option<&Expr>,
        name: &str,
        args: &[Expr],
        block: Option<&ruby_syntax::Block>,
    ) -> Type {
        // `Klass.new` constructs an instance.
        let recv_ty = match recv {
            Some(r) => self.infer(ctx, r),
            None => self.self_type(ctx),
        };
        let arg_types: Vec<Type> = args.iter().map(|a| self.infer(ctx, a)).collect();

        if name == "new" {
            if let Type::Singleton(SingVal::Class(c)) = self.store.resolve(&recv_ty) {
                self.infer_block_body(ctx, block, &Type::Dynamic);
                return Type::nominal(c);
            }
        }

        let resolved_recv = self.store.resolve(&recv_ty);

        // Look up a signature.
        let sig = self.lookup_signature(&recv_ty, name);

        let result = match sig {
            Some((owner, sig)) => self.check_against_signature(
                ctx, expr, owner, name, sig, &recv_ty, args, &arg_types, block,
            ),
            None => {
                // Unannotated method: if the program defines it, treat the
                // call as unchecked (Dynamic); if the receiver is imprecise,
                // count the cast a programmer would need; otherwise, when
                // the receiver type is a structural type without that
                // method, report an error.
                let defined_in_program = self.call_target_defined(&recv_ty, name);
                if defined_in_program
                    || matches!(resolved_recv, Type::Dynamic | Type::Var(_))
                    || matches!(&resolved_recv, Type::Singleton(SingVal::Nil))
                {
                    self.infer_block_body(ctx, block, &Type::Dynamic);
                    Type::Dynamic
                } else if self.is_imprecise(&recv_ty) {
                    self.infer_block_body(ctx, block, &Type::Dynamic);
                    self.precision_loss(ctx, expr.span, &format!("receiver of `{name}`"), &recv_ty)
                } else if KERNEL_METHODS.contains(&name) {
                    self.infer_block_body(ctx, block, &Type::Dynamic);
                    Type::Dynamic
                } else if self.known_structural_miss(&resolved_recv, name) {
                    self.error(
                        ctx,
                        ErrorCategory::NoMethod,
                        expr.span,
                        format!(
                            "undefined method `{name}` for type `{}`",
                            self.store.render(&resolved_recv)
                        ),
                    );
                    Type::Dynamic
                } else {
                    // Unknown method on a user class without annotations —
                    // assume it exists but is untyped.
                    self.infer_block_body(ctx, block, &Type::Dynamic);
                    Type::Dynamic
                }
            }
        };
        result
    }

    /// True if the receiver's class (or the program) defines the method as
    /// ordinary user code.
    fn call_target_defined(&mut self, recv_ty: &Type, name: &str) -> bool {
        let Some((class, kind)) = self.receiver_class(recv_ty) else { return false };
        self.index.defines_in_chain(&class, name, kind == MethodKind::Singleton)
    }

    /// True when the receiver is a core structural type (tuple, finite hash,
    /// const string, Array/Hash/String/Integer generic) for which we have a
    /// full annotation set, so a missing method is a genuine error.
    fn known_structural_miss(&self, recv: &Type, _name: &str) -> bool {
        matches!(
            recv,
            Type::Tuple(_) | Type::FiniteHash(_) | Type::ConstString(_) | Type::Generic { .. }
        ) || matches!(recv, Type::Nominal(n) if ["String", "Integer", "Float", "Symbol", "Array", "Hash"].contains(&n.as_str()))
    }

    /// The bindings the comp types of `sig` run under at a call: `tself`
    /// bound to the resolved receiver type, then each binder bound to its
    /// argument's resolved type (`nil` for a missing argument).
    fn comp_bindings(
        &self,
        sig: &'a MethodSig,
        recv_ty: &Type,
        arg_types: &[Type],
    ) -> Vec<(&'a str, Type)> {
        let mut bindings = vec![("tself", self.store.resolve(recv_ty))];
        for (i, p) in sig.params.iter().enumerate() {
            if let Some(binder) = &p.binder {
                let at = arg_types.get(i).map_or_else(Type::nil, |t| self.store.resolve(t));
                bindings.push((binder.as_str(), at));
            }
        }
        bindings
    }

    /// Evaluates the comp type `slot` at the call `call` under `bindings`
    /// (see [`TypeChecker::comp_bindings`]).  It runs the termination check
    /// and answers from the evaluation cache when the slot was already
    /// evaluated under structurally equal bindings (see [`crate::cache`]).
    /// A failed evaluation is reported as a `TYP0009` error when SQL failed
    /// to check and as `TYP0005` otherwise, and yields `None`.
    fn eval_comp(
        &mut self,
        ctx: &mut MethodCtx,
        call: &Expr,
        args: &[Expr],
        slot: &'a Expr,
        bindings: &[(&str, Type)],
    ) -> Option<Type> {
        self.run_termination_check(ctx, call.span, slot);
        let key = (self.options.use_eval_cache && self.cache.note_evaluation(slot))
            .then(|| CacheKey::build(slot, bindings.iter().map(|(_, t)| t), &self.store));
        let cached = key.as_ref().and_then(|key| self.cache.lookup(key, &self.store));
        let result = match cached {
            // Store-backed parts of a cached result get fresh ids: handing
            // out the original ids would alias mutable state across call
            // sites, so a weak update at one site would silently change
            // another site's type.  The copies start constraint-free,
            // exactly like the ids a fresh evaluation would have allocated,
            // and share the cached content copy-on-write, so a hit costs a
            // store entry per store-backed part, not a copy of the type.
            Some(cached) => {
                cached.map(|t| if t.contains_store_backed() { self.store.deep_copy(&t) } else { t })
            }
            None => {
                let env = bindings
                    .iter()
                    .map(|(name, t)| (name.to_string(), TlcValue::Type(t.clone())))
                    .collect();
                let result = eval_comp_type(
                    &mut self.store,
                    &self.env.classes,
                    &self.env.helpers,
                    env,
                    slot,
                );
                if let Some(key) = key {
                    self.cache.insert(key, result.clone(), &self.store);
                }
                result
            }
        };
        match result {
            Ok(t) => Some(t),
            Err(e) => {
                let category = if e.message.contains("SQL") {
                    ErrorCategory::Sql
                } else {
                    ErrorCategory::CompType
                };
                let span = self.comp_error_span(&e, call.span, args);
                self.error(ctx, category, span, e.message);
                None
            }
        }
    }

    /// The source span to report a failed comp-type evaluation at.  SQL
    /// fragment errors carry a span relative to the raw fragment string;
    /// map it through the string-literal argument that supplied the
    /// fragment so the diagnostic points at the offending SQL inside the
    /// original Ruby literal.  Everything else points at the call.
    fn comp_error_span(&self, e: &TlcError, call_span: Span, args: &[Expr]) -> Span {
        let Some(frag) = e.sql_span else { return call_span };
        let Some(lit) = args.iter().find(|a| matches!(a.kind, ExprKind::Str(_))) else {
            return call_span;
        };
        // The literal's span covers the quotes; its content starts one byte
        // in.  (Escape sequences would shift content offsets, but raw SQL
        // fragments do not use them.)
        let content_start = lit.span.start + 1;
        let start = content_start + frag.start;
        let end = (content_start + frag.end).min(lit.span.end.saturating_sub(1).max(start));
        // The mapped span stays in the literal's source file.
        Span::in_file(
            lit.span.file,
            start,
            end.max(start + 1),
            lit.span.line + frag.line.saturating_sub(1),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn check_against_signature(
        &mut self,
        ctx: &mut MethodCtx,
        expr: &Expr,
        owner: &str,
        name: &str,
        sig: &'a MethodSig,
        recv_ty: &Type,
        args: &[Expr],
        arg_types: &[Type],
        block: Option<&ruby_syntax::Block>,
    ) -> Type {
        // Arity.
        if !sig.accepts_arity(args.len()) {
            self.error(
                ctx,
                ErrorCategory::Arity,
                expr.span,
                format!(
                    "wrong number of arguments to `{name}` (given {}, expected {})",
                    args.len(),
                    sig.params.len()
                ),
            );
        }

        // Build the generic substitution from the receiver (e.g. `Hash<k,v>`).
        let substitution = self.generic_substitution(recv_ty);

        // The comp types' bindings, resolved before any argument check can
        // promote an argument, and only for a signature with comp types.
        let bindings = (self.options.use_comp_types && sig.is_comp())
            .then(|| self.comp_bindings(sig, recv_ty, arg_types));

        // Parameter types.
        let mut param_types = Vec::with_capacity(sig.params.len());
        for p in &sig.params {
            // Optional / vararg wrappers are transparent for comp evaluation.
            let inner_ty = match &p.ty {
                TypeExpr::Optional(t) | TypeExpr::Vararg(t) => t.as_ref(),
                other => other,
            };
            let t = match (inner_ty, &bindings) {
                (TypeExpr::Comp(spec), Some(bindings)) => {
                    self.eval_comp(ctx, expr, args, &spec.expr, bindings).unwrap_or(Type::Dynamic)
                }
                _ => {
                    let t = self.instantiate_param(p);
                    t.subst(&|v| substitution.get(v).cloned())
                }
            };
            param_types.push(t);
        }

        // Check arguments against parameters.
        for (i, at) in arg_types.iter().enumerate() {
            let Some(pt) = param_types.get(i).or_else(|| param_types.last()) else { continue };
            if pt.is_ground() {
                let ok = {
                    let sub = Subtyper::new(&self.env.classes);
                    sub.constrain(&mut self.store, at, pt, format_args!("argument {i} of {name}"))
                };
                if !ok {
                    if self.is_imprecise(at) && self.options.count_implicit_casts {
                        ctx.implicit_casts += 1;
                    } else {
                        self.error(
                            ctx,
                            ErrorCategory::ArgumentType,
                            args.get(i).map(|a| a.span).unwrap_or(expr.span),
                            format!(
                                "argument {} of `{}` has type `{}` but `{}` is expected",
                                i + 1,
                                name,
                                self.store.render(at),
                                self.store.render(pt)
                            ),
                        );
                    }
                }
            }
        }

        // Block body.
        let block_elem = self.block_element_type(recv_ty);
        self.infer_block_body(ctx, block, &block_elem);

        // Return type.
        let (ret_ty, consistency) = match (&sig.ret, &bindings) {
            (TypeExpr::Comp(spec), Some(bindings)) => {
                match self.eval_comp(ctx, expr, args, &spec.expr, bindings) {
                    Some(t) => {
                        let consistency = ConsistencyCheck {
                            ret_expr: Arc::clone(&spec.expr),
                            binders: sig.params.iter().map(|p| p.binder.clone()).collect(),
                            expected: t.clone(),
                        };
                        (t, Some(consistency))
                    }
                    None => (Type::Dynamic, None),
                }
            }
            _ => {
                let t = self.instantiate(&sig.ret);
                let t = t.subst(&|v| {
                    if v == "self" {
                        Some(self.store.resolve(recv_ty))
                    } else {
                        substitution.get(v).cloned()
                    }
                });
                let t = if t.is_ground() { t } else { Type::Dynamic };
                (t, None)
            }
        };

        // Calls to library (non-type-checked) methods get a dynamic check
        // (λC rules C-AppLib / C-App-Comp); statically checked user methods
        // do not (C-AppUD).
        let callee_is_checked_user_method = sig.typecheck_label.is_some();
        if !callee_is_checked_user_method && !matches!(ret_ty, Type::Dynamic) {
            ctx.checks.push(InsertedCheck {
                site: expr.span,
                description: format!("{owner}#{name}"),
                expected_return: ret_ty.clone(),
                consistency,
            });
        }

        ret_ty
    }

    fn run_termination_check(&mut self, ctx: &mut MethodCtx, span: Span, expr: &Expr) {
        for violation in self.termination.check_expr(expr) {
            self.error(
                ctx,
                ErrorCategory::Termination,
                span,
                format!("type-level code may not terminate: {violation}"),
            );
        }
    }

    fn generic_substitution(&mut self, recv_ty: &Type) -> HashMap<Name, Type> {
        let mut map = HashMap::new();
        if let Type::Generic { base, args } = self.store.resolve(recv_ty) {
            if let Some(info) = self.env.classes.get(&base) {
                for (param, arg) in info.type_params.iter().zip(args.iter()) {
                    map.insert(param.clone(), arg.clone());
                }
            }
        }
        // Tuples and finite hashes behave as Array/Hash for type variables.
        match self.store.resolve(recv_ty) {
            Type::Tuple(id) => {
                let elem = Type::union(self.store.tuple(id).elems.iter().cloned());
                map.insert("a".into(), if elem == Type::Bot { Type::object() } else { elem });
            }
            Type::FiniteHash(id) => {
                map.insert("k".into(), Type::nominal("Symbol"));
                let entries = &self.store.finite_hash(id).entries;
                let vals = Type::union(entries.iter().map(|(_, v)| v.clone()));
                map.insert("v".into(), if vals == Type::Bot { Type::object() } else { vals });
            }
            Type::ConstString(_) | Type::Nominal(_) => {}
            _ => {}
        }
        map
    }

    fn block_element_type(&mut self, recv_ty: &Type) -> Type {
        match self.store.resolve(recv_ty) {
            Type::Generic { base, args } if base == "Array" && args.len() == 1 => args[0].clone(),
            Type::Tuple(id) => {
                let elem = Type::union(self.store.tuple(id).elems.iter().cloned());
                if elem == Type::Bot {
                    Type::Dynamic
                } else {
                    elem
                }
            }
            _ => Type::Dynamic,
        }
    }

    /// Infers a block's or a lambda's body with its parameters bound to
    /// `elem_ty`.
    fn infer_block_body(
        &mut self,
        ctx: &mut MethodCtx,
        block: Option<&ruby_syntax::Block>,
        elem_ty: &Type,
    ) {
        if let Some(b) = block {
            let saved: Vec<(Name, Option<Type>)> = b
                .params
                .iter()
                .map(|p| (p.clone(), ctx.block_param_types.get(p).cloned()))
                .collect();
            for p in &b.params {
                ctx.block_param_types.insert(p.clone(), elem_ty.clone());
            }
            for e in &b.body {
                self.infer(ctx, e);
            }
            for (p, old) in saved {
                match old {
                    Some(t) => ctx.block_param_types.insert(p, t),
                    None => ctx.block_param_types.remove(&p),
                };
            }
        }
    }
}

/// Kernel-level methods that never produce "no method" errors.
const KERNEL_METHODS: &[&str] = &[
    "puts",
    "print",
    "p",
    "raise",
    "require",
    "require_relative",
    "lambda",
    "proc",
    "rand",
    "assert",
    "assert_equal",
    "refute",
    "attr_accessor",
    "attr_reader",
    "attr_writer",
    "loop",
    "freeze",
    "format",
    "sleep",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::CompRdl;
    use crate::termination::tests::summary;

    fn env_with_stdlib() -> CompRdl {
        let mut env = CompRdl::new();
        crate::stdlib::register_all(&mut env);
        env
    }

    fn check_src(env: &CompRdl, src: &str, options: CheckOptions) -> ProgramCheckResult {
        let program = ruby_syntax::parse_program_strict(src).expect("parse");
        TypeChecker::new(env, &program, options).check_all_annotated()
    }

    #[test]
    fn simple_method_checks() {
        let mut env = env_with_stdlib();
        env.type_sig_singleton("Object", "double", "(Integer) -> Integer", Some("app"));
        let res = check_src(&env, "def self.double(x)\n  x * 2\nend\n", CheckOptions::default());
        assert_eq!(res.methods_checked(), 1);
        assert!(res.errors().is_empty(), "{:?}", res.errors());
    }

    #[test]
    fn return_type_mismatch_is_reported() {
        let mut env = env_with_stdlib();
        env.type_sig_singleton("Object", "answer", "() -> String", Some("app"));
        let res = check_src(&env, "def self.answer()\n  42\nend\n", CheckOptions::default());
        assert_eq!(res.errors().len(), 1);
        assert_eq!(res.errors()[0].category, ErrorCategory::ReturnType);
    }

    #[test]
    fn undefined_constant_is_reported() {
        let mut env = env_with_stdlib();
        env.type_sig_singleton("Object", "broken", "() -> Object", Some("app"));
        let res = check_src(
            &env,
            "def self.broken()\n  TotallyMissingConst\nend\n",
            CheckOptions::default(),
        );
        assert!(res.errors().iter().any(|e| e.category == ErrorCategory::UndefinedConstant));
    }

    #[test]
    fn annotation_conflicts_are_found_and_anchored_at_the_definition() {
        use rdl_types::{PurityEffect, TermEffect};
        let mut env = env_with_stdlib();
        env.type_sig_with_effects(
            "Object",
            "fast",
            "() -> Integer",
            TermEffect::Terminates,
            PurityEffect::Pure,
        );
        // `fast` actually loops and writes an ivar; inference disagrees
        // with the annotation on both effects.
        let program = ruby_syntax::parse_program_strict(
            "def fast()\n  while true\n    @n = 1\n  end\n  0\nend\n",
        )
        .expect("parse");
        let effects = [summary(
            "fast",
            (TermEffect::MayDiverge, PurityEffect::Impure),
            &["fast", "while loop"],
            &["fast", "@n="],
        )];
        let conflicts = TypeChecker::effect_conflicts(&env, &program, &effects);
        assert_eq!(conflicts.len(), 2, "{conflicts:?}");
        assert!(conflicts.iter().all(|v| v.kind == crate::ViolationKind::AnnotationConflict));
        let def_span = program.methods()[0].1.span;
        assert!(conflicts.iter().all(|v| v.span == def_span), "anchored at the definition");
        assert!(conflicts[0].message.contains("inferred non-terminating via fast \u{2192} while"));

        // Annotations whose claims inference agrees with stay silent, as do
        // annotated methods with no summary at all.
        let agreeing = [summary("fast", (TermEffect::Terminates, PurityEffect::Pure), &[], &[])];
        assert!(TypeChecker::effect_conflicts(&env, &program, &agreeing).is_empty());
        assert!(TypeChecker::effect_conflicts(&env, &program, &[]).is_empty());
    }

    #[test]
    fn effect_conflicts_are_pinned_across_classes_kinds_and_redefinitions() {
        use rdl_types::{PurityEffect, TermEffect};
        let mut env = env_with_stdlib();
        let strong = |sig: &str| {
            rdl_types::parse_method_sig(sig)
                .expect("sig parses")
                .with_term(TermEffect::Terminates)
                .with_purity(PurityEffect::Pure)
        };
        env.annotations.add_instance("Zed", "run", strong("() -> Integer"));
        env.annotations.add_singleton("Zed", "run", strong("() -> Integer"));
        env.annotations.add_instance("Alpha", "run", strong("() -> Integer"));
        env.annotations.add_instance("Alpha", "save", strong("() -> Integer"));
        // `Beta#run` below has no annotation, so it stays silent although
        // `run` is inferred weaker; `Gamma#run` is annotated, but the
        // program defines no `Gamma`.
        env.annotations.add_instance("Gamma", "run", strong("() -> Integer"));
        // Program order differs from the (class, name, singleton) output
        // order, the singleton `Zed.run` comes before the instance one, and
        // `Alpha#save` is defined twice: the first definition anchors it.
        let program = ruby_syntax::parse_program_strict(
            "class Zed\n  def self.run()\n    0\n  end\n  def run()\n    1\n  end\nend\n\
             class Alpha\n  def save()\n    @x = 1\n  end\n  def run()\n    2\n  end\n  \
             def save()\n    3\n  end\nend\n\
             class Beta\n  def run()\n    4\n  end\nend\n",
        )
        .expect("parse");
        let effects = [
            summary(
                "run",
                (TermEffect::MayDiverge, PurityEffect::Impure),
                &["run", "while loop"],
                &["run", "@n="],
            ),
            summary("save", (TermEffect::Terminates, PurityEffect::Impure), &[], &["save", "@x="]),
        ];
        let rendered: Vec<String> = TypeChecker::effect_conflicts(&env, &program, &effects)
            .iter()
            .map(ToString::to_string)
            .collect();
        let term = "`run` is annotated `terminates: :+` but inferred non-terminating via \
                    run \u{2192} while loop";
        let run_impure = "`run` is annotated `pure: :+` but inferred impure via run \u{2192} @n=";
        let save_impure =
            "`save` is annotated `pure: :+` but inferred impure via save \u{2192} @x=";
        assert_eq!(
            rendered,
            [
                format!("line 13: {term}"),
                format!("line 13: {run_impure}"),
                format!("line 10: {save_impure}"),
                format!("line 5: {term}"),
                format!("line 5: {run_impure}"),
                format!("line 2: {term}"),
                format!("line 2: {run_impure}"),
            ]
        );
    }

    #[test]
    fn figure2_needs_no_cast_with_comp_types_but_one_without() {
        // Figure 2: page[:info].first
        let mut env = env_with_stdlib();
        env.type_sig("Object", "page", "() -> { info: Array<String>, title: String }", None);
        env.type_sig_singleton("Object", "noop", "() -> Object", None);
        env.type_sig("Object", "image_url", "() -> String", Some("app"));
        let src = "def image_url()\n  page()[:info].first\nend\n";

        // With comp types: no errors, no casts needed.
        let res = check_src(&env, src, CheckOptions::default());
        assert!(res.errors().is_empty(), "{:?}", res.errors());
        assert_eq!(res.total_casts(), 0);
        assert!(!res.checks().is_empty());

        // Without comp types (plain RDL): the finite hash is accessed via
        // `Hash#[] : (k) -> v`, so `first` is called on `Array<String> or
        // String` and a cast is required.
        let res =
            check_src(&env, src, CheckOptions { use_comp_types: false, ..CheckOptions::default() });
        assert!(res.total_casts() >= 1, "expected an implicit cast, got {res:?}");
    }

    /// A lambda binds its parameters in its body, so a read of one there is
    /// no call on `self` and costs no cast, with comp types or without.
    #[test]
    fn a_lambda_parameter_read_needs_no_cast() {
        let mut env = env_with_stdlib();
        env.type_sig("Object", "m", "(Integer) -> Integer", Some("app"));
        let src = "def m(x)\n  ->(v) { v }\n  x\nend\n";
        for use_comp_types in [true, false] {
            let options = CheckOptions { use_comp_types, ..CheckOptions::default() };
            let res = check_src(&env, src, options);
            assert!(res.errors().is_empty(), "{:?}", res.errors());
            assert_eq!(res.total_casts(), 0, "comp types {use_comp_types}: {res:?}");
        }
    }

    #[test]
    fn explicit_cast_is_counted_and_silences_imprecision() {
        let mut env = env_with_stdlib();
        env.type_sig("Object", "page", "() -> { info: Array<String>, title: String }", None);
        env.type_sig("Object", "image_url", "() -> String", Some("app"));
        let src = "def image_url()\n  RDL.type_cast(page()[:info], \"Array<String>\").first\nend\n";
        let res =
            check_src(&env, src, CheckOptions { use_comp_types: false, ..CheckOptions::default() });
        assert_eq!(res.explicit_casts(), 1);
        assert!(res.errors().is_empty(), "{:?}", res.errors());
    }

    #[test]
    fn weak_update_reports_violated_constraints() {
        let mut env = env_with_stdlib();
        env.type_sig("Object", "mutate", "() -> Object", Some("app"));
        env.type_sig("Object", "use_strings", "(Array<String>) -> Object", None);
        // `a` is a [Integer, String] tuple constrained to Array<Integer or
        // String> by the call; the weak update a[0] = 1.5 widens element 0
        // to include Float which violates the recorded constraint.
        let src = "def mutate()\n  a = [1, 'foo']\n  use_strings(a)\n  a[0] = 1.5\n  a\nend\n";
        let mut env2 = env;
        env2.type_sig("Object", "use_strings", "(Array<Integer or String>) -> Object", None);
        let res = check_src(&env2, src, CheckOptions::default());
        assert!(
            res.errors().iter().any(|e| e.category == ErrorCategory::WeakUpdate),
            "{:?}",
            res.errors()
        );
    }

    #[test]
    fn arity_errors_are_reported() {
        let mut env = env_with_stdlib();
        env.type_sig_singleton("Object", "caller", "() -> Object", Some("app"));
        env.type_sig_singleton("Object", "helper", "(Integer, Integer) -> Integer", None);
        let res = check_src(&env, "def self.caller()\n  helper(1)\nend\n", CheckOptions::default());
        assert!(res.errors().iter().any(|e| e.category == ErrorCategory::Arity));
    }

    #[test]
    fn argument_type_errors_are_reported() {
        let mut env = env_with_stdlib();
        env.type_sig_singleton("Object", "caller", "() -> Object", Some("app"));
        env.type_sig_singleton("Object", "wants_string", "(String) -> String", None);
        let res = check_src(
            &env,
            "def self.caller()\n  wants_string(42)\nend\n",
            CheckOptions::default(),
        );
        assert!(res.errors().iter().any(|e| e.category == ErrorCategory::ArgumentType));
    }

    #[test]
    fn comp_eval_cache_hits_and_matches_uncached() {
        let mut env = env_with_stdlib();
        env.type_sig("Object", "page", "() -> { info: Array<String>, title: String }", None);
        env.type_sig("Object", "image_url", "() -> String", Some("app"));
        env.type_sig("Object", "other_url", "() -> String", Some("app"));
        env.type_sig("Object", "third_url", "() -> String", Some("app"));
        // Three methods performing the same finite-hash lookup: the keyed
        // cache engages from the slot's second evaluation, so the third
        // must come from the cache.
        let src = "def image_url()\n  page()[:info].first\nend\n\
                   def other_url()\n  page()[:info].first\nend\n\
                   def third_url()\n  page()[:info].first\nend\n";
        let program = ruby_syntax::parse_program_strict(src).expect("parse");

        let cached = TypeChecker::new(&env, &program, CheckOptions::default()).check_labeled("app");
        assert!(cached.cache_stats.hits > 0, "expected cache hits, got {:?}", cached.cache_stats);

        let uncached = TypeChecker::new(
            &env,
            &program,
            CheckOptions { use_eval_cache: false, ..CheckOptions::default() },
        )
        .check_labeled("app");
        assert_eq!(uncached.cache_stats, crate::cache::CacheStats::default());

        // Same verdicts either way.
        let render = |r: &ProgramCheckResult| {
            r.methods
                .iter()
                .map(|m| {
                    let errs: Vec<String> = m.errors.iter().map(|e| e.to_string()).collect();
                    format!(
                        "{}#{} errs={errs:?} casts={}/{} checks={}",
                        m.class,
                        m.method,
                        m.explicit_casts,
                        m.implicit_casts,
                        m.checks.len()
                    )
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(render(&cached), render(&uncached));
    }

    #[test]
    fn cache_hits_do_not_alias_mutable_results_across_sites() {
        // Three call sites evaluate the same comp type to a store-backed
        // finite hash; the third site then weakly updates its result.  With
        // naive result sharing the update would mutate the id the second
        // site's dynamic check references; re-interning on hit keeps every
        // site's types independent, so cached and uncached runs agree.
        let mut env = env_with_stdlib();
        env.type_sig("Object", "page", "() -> { info: Integer }", None);
        for m in ["a", "b", "c"] {
            env.type_sig("Object", m, "() -> Object", Some("app"));
        }
        let src = "def a()\n  page().merge({ b: 1 })\nend\n\
                   def b()\n  page().merge({ b: 1 })\nend\n\
                   def c()\n  h = page().merge({ b: 1 })\n  h[:b] = 'x'\n  h\nend\n";
        let program = ruby_syntax::parse_program_strict(src).expect("parse");
        let render = |r: &ProgramCheckResult| {
            let mut out: Vec<String> = r
                .methods
                .iter()
                .flat_map(|m| {
                    m.checks.iter().map(|c| {
                        format!(
                            "{}/{} -> {}",
                            m.method,
                            c.description,
                            r.store.render(&c.expected_return)
                        )
                    })
                })
                .collect();
            out.extend(r.errors().iter().map(|e| e.to_string()));
            out
        };
        let cached = TypeChecker::new(&env, &program, CheckOptions::default()).check_labeled("app");
        let uncached = TypeChecker::new(
            &env,
            &program,
            CheckOptions { use_eval_cache: false, ..CheckOptions::default() },
        )
        .check_labeled("app");
        assert!(cached.cache_stats.hits > 0, "{:?}", cached.cache_stats);
        assert_eq!(render(&cached), render(&uncached));
    }

    #[test]
    fn parallel_checking_matches_sequential() {
        let mut env = env_with_stdlib();
        env.type_sig("Object", "page", "() -> { info: Array<String>, title: String }", None);
        for m in ["a", "b", "c", "d", "e"] {
            env.type_sig_singleton("Object", m, "() -> String", Some("app"));
        }
        let src = (b'a'..=b'e')
            .map(|c| format!("def self.{}()\n  page()[:info].first\nend\n", c as char))
            .collect::<String>();
        let program = ruby_syntax::parse_program_strict(&src).expect("parse");

        let sequential =
            TypeChecker::new(&env, &program, CheckOptions::default()).check_labeled("app");
        let selected = TypeChecker::labeled_methods(&env, &program, "app");
        let parallel = TypeChecker::check_methods_parallel(
            &env,
            &program,
            CheckOptions::default(),
            &selected,
            4,
            &[],
        );

        assert_eq!(sequential.methods_checked(), parallel.methods_checked());
        let names =
            |r: &ProgramCheckResult| r.methods.iter().map(|m| m.method.clone()).collect::<Vec<_>>();
        assert_eq!(names(&sequential), names(&parallel), "method order must be program order");
        assert_eq!(sequential.total_casts(), parallel.total_casts());
        assert_eq!(sequential.errors().len(), parallel.errors().len());
        // The merged store must resolve every inserted check's types: a
        // store-backed expected-return type resolving without panicking and
        // matching the sequential rendering is the merge invariant.
        let seq_checks: Vec<String> = sequential
            .checks()
            .iter()
            .map(|c| {
                format!("{} -> {}", c.description, sequential.store.render(&c.expected_return))
            })
            .collect();
        let par_checks: Vec<String> = parallel
            .checks()
            .iter()
            .map(|c| format!("{} -> {}", c.description, parallel.store.render(&c.expected_return)))
            .collect();
        assert_eq!(seq_checks, par_checks);
    }

    #[test]
    fn a_same_named_singleton_method_does_not_hide_the_instance_method() {
        // `run` calls the instance method `helper` on self, whose type
        // `Object` is imprecise.  The program defines that method, so the
        // call is unchecked: no cast and no error, whichever of the two
        // same-named definitions comes first.
        let mut env = env_with_stdlib();
        env.type_sig("Object", "run", "() -> Object", Some("app"));
        let singleton = "def self.helper()\n  1\nend\n";
        let instance = "def helper()\n  2\nend\n";
        for defs in [[singleton, instance], [instance, singleton]] {
            let src = format!("{}{}def run()\n  helper\nend\n", defs[0], defs[1]);
            for count_implicit_casts in [true, false] {
                let options = CheckOptions { count_implicit_casts, ..CheckOptions::default() };
                let res = check_src(&env, &src, options);
                let case = format!("{src:?} with {options:?}");
                assert_eq!(res.methods_checked(), 1, "{case}");
                assert!(res.errors().is_empty(), "{case}: {:?}", res.errors());
                assert_eq!(res.total_casts(), 0, "{case}");
            }
        }
    }

    #[test]
    fn checks_are_inserted_for_library_calls_only() {
        let mut env = env_with_stdlib();
        env.type_sig_singleton("Object", "top", "() -> Integer", Some("app"));
        // `checked_helper` is itself statically checked, so calls to it need
        // no dynamic check; Array#first is a library method, so it does.
        env.type_sig_singleton("Object", "checked_helper", "() -> Integer", Some("app"));
        let src = "def self.top()\n  xs = [1, 2, 3]\n  xs.first + checked_helper()\nend\n\
                   def self.checked_helper()\n  7\nend\n";
        let res = check_src(&env, src, CheckOptions::default());
        assert!(res.errors().is_empty(), "{:?}", res.errors());
        let descriptions: Vec<String> =
            res.checks().iter().map(|c| c.description.clone()).collect();
        assert!(descriptions.iter().any(|d| d.contains("first")));
        assert!(!descriptions.iter().any(|d| d.contains("checked_helper")));
    }

    #[test]
    fn a_shovel_call_gets_a_dynamic_check_as_push_does() {
        let mut env = env_with_stdlib();
        env.type_sig_singleton(
            "Object",
            "add",
            "(Array<Integer>, Integer) -> Array<Integer>",
            None,
        );
        for (call, description) in [("xs << v", "Array#<<"), ("xs.push(v)", "Array#push")] {
            let src = format!("def self.add(xs, v)\n  {call}\nend\n");
            let res = check_src(&env, &src, CheckOptions::default());
            assert!(res.errors().is_empty(), "{call}: {:?}", res.errors());
            let start = src.find(call).unwrap();
            let checks = res.checks();
            let sites: Vec<_> =
                checks.iter().map(|c| (c.description.as_str(), c.site.start, c.site.end)).collect();
            assert_eq!(sites, [(description, start, start + call.len())], "{call}");
        }
    }
}
