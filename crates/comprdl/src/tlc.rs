//! The type-level computation (comp type) evaluator.
//!
//! Comp types are Ruby expressions that run *during type checking* and
//! produce RDL types (paper §2).  Type-level code manipulates type objects
//! reflectively — `tself.is_a?(FiniteHash)`, `t.val`, `tself.elts[t.val]`,
//! `Generic.new(Table, schema_type(tself).merge({t.val => schema_type(t)}))`
//! — and may call *helper methods* such as `schema_type`, which the paper
//! counts separately in Table 1.
//!
//! The evaluator interprets the Ruby-subset expression with a small value
//! universe in which RDL [`Type`]s are first-class values, and dispatches
//! helper calls either to native Rust helpers or to helpers written in the
//! Ruby subset and registered with the [`HelperRegistry`].  The methods of
//! Integer, Float, String and Symbol values run in the interpreter's own
//! core library ([`ruby_interp::call_native`]), so type-level code computes
//! what the program would, and a method that raises is a [`TlcError`].

use crate::termination::{EffectEnv, ExplicitEffects, TerminationChecker};
use rdl_types::{
    ClassTable, HashKey, PurityEffect, SingVal, Subtyper, TermEffect, Type, TypeStore,
};
use ruby_interp::Value;
use ruby_syntax::{BinOp, Expr, ExprKind, MethodDef, Span};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Maximum number of AST nodes a single comp-type evaluation may visit.
/// Together with the termination checker (§4) this guarantees type checking
/// terminates.
const TLC_FUEL: u64 = 200_000;

/// An error raised while evaluating type-level code.
#[derive(Debug, Clone, PartialEq)]
pub struct TlcError {
    /// Human readable description.
    pub message: String,
    /// Where in the type-level source the evaluation failed, when known.
    /// [`TlcCtx::eval`] attaches the span of the innermost failing
    /// expression automatically.
    pub span: Option<Span>,
    /// When the error came from checking an embedded SQL fragment: where in
    /// the *raw fragment string* the problem is.  The static checker maps
    /// this through the string literal that supplied the fragment so the
    /// diagnostic points into the original Ruby source.
    pub sql_span: Option<Span>,
}

impl TlcError {
    /// Creates an error with no location (yet).
    pub fn new(message: impl Into<String>) -> Self {
        TlcError { message: message.into(), span: None, sql_span: None }
    }

    /// Attaches a location, replacing any existing one.
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Attaches a span relative to an embedded SQL fragment string.
    pub fn with_sql_span(mut self, span: Span) -> Self {
        if !span.is_dummy() {
            self.sql_span = Some(span);
        }
        self
    }

    /// Attaches a location only if none is set, so the innermost (most
    /// precise) span wins as an error propagates outwards.
    pub fn or_span(mut self, span: Span) -> Self {
        if self.span.is_none() && !span.is_dummy() {
            self.span = Some(span);
        }
        self
    }
}

impl fmt::Display for TlcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type-level computation error: {}", self.message)?;
        if let Some(span) = self.span {
            write!(f, " (at {span})")?;
        }
        Ok(())
    }
}

impl std::error::Error for TlcError {}

impl From<TlcError> for diagnostics::Diagnostic {
    fn from(e: TlcError) -> Self {
        let mut d = diagnostics::Diagnostic::error("TLC0001", e.message.clone());
        if let Some(span) = e.span {
            d = d.with_label(span, "while evaluating this type-level expression");
        }
        d.with_note("the span is relative to the type-level (comp type) source")
    }
}

/// Result type for type-level evaluation.
pub type TlcResult<T = TlcValue> = Result<T, TlcError>;

/// The RDL type-node classes that type-level code can test against with
/// `is_a?` and construct with `.new`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaKind {
    /// `Singleton` — singleton types (symbols, integers, class objects...).
    Singleton,
    /// `Nominal` — plain class types.
    Nominal,
    /// `Generic` — generic instantiations such as `Table<T>`.
    Generic,
    /// `FiniteHash` — heterogeneous hash types.
    FiniteHash,
    /// `Tuple` — heterogeneous array types.
    Tuple,
    /// `ConstString` — const string types.
    ConstString,
    /// `Union` — union types.
    Union,
    /// `Optional` — optional argument types.
    Optional,
}

impl MetaKind {
    fn from_name(name: &str) -> Option<MetaKind> {
        Some(match name {
            "Singleton" => MetaKind::Singleton,
            "Nominal" => MetaKind::Nominal,
            "Generic" => MetaKind::Generic,
            "FiniteHash" => MetaKind::FiniteHash,
            "Tuple" => MetaKind::Tuple,
            "ConstString" => MetaKind::ConstString,
            "Union" => MetaKind::Union,
            "Optional" => MetaKind::Optional,
            _ => return None,
        })
    }
}

/// A value in the type-level universe.
#[derive(Debug, Clone, PartialEq)]
pub enum TlcValue {
    /// `nil`.
    Nil,
    /// A boolean.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A string.
    Str(String),
    /// A symbol.
    Sym(String),
    /// An array of type-level values.
    Array(Vec<TlcValue>),
    /// A hash of type-level values.
    Hash(Vec<(TlcValue, TlcValue)>),
    /// An RDL type as a first-class value.
    Type(Type),
    /// A reference to an ordinary class (e.g. `Table`, `String`, `User`).
    ClassRef(String),
    /// A reference to one of the RDL type-node classes.
    MetaClass(MetaKind),
}

impl TlcValue {
    /// Ruby truthiness.
    pub fn truthy(&self) -> bool {
        !matches!(self, TlcValue::Nil | TlcValue::Bool(false))
    }

    /// Converts the value to an RDL type, if it denotes one.  Hashes of
    /// `symbol => type` convert to finite hash types; class references
    /// convert to nominal types; symbols, numbers and strings convert to
    /// singleton / const-string types.
    pub fn into_type(self, store: &mut TypeStore) -> TlcResult<Type> {
        match self {
            TlcValue::Type(t) => Ok(t),
            TlcValue::ClassRef(name) => Ok(class_ref_type(&name)),
            TlcValue::Sym(s) => Ok(Type::sym(s)),
            TlcValue::Int(i) => Ok(Type::int(i)),
            TlcValue::Float(f) => Ok(Type::Singleton(SingVal::float(f))),
            TlcValue::Str(s) => Ok(store.new_const_string(s)),
            TlcValue::Bool(true) => Ok(Type::Singleton(SingVal::True)),
            TlcValue::Bool(false) => Ok(Type::Singleton(SingVal::False)),
            TlcValue::Nil => Ok(Type::nil()),
            TlcValue::Hash(pairs) => {
                let mut entries = Vec::with_capacity(pairs.len());
                for (k, v) in pairs {
                    let key = match k {
                        TlcValue::Sym(s) => HashKey::Sym(s.into()),
                        TlcValue::Str(s) => HashKey::Str(s.into()),
                        TlcValue::Int(i) => HashKey::Int(i),
                        other => {
                            return Err(TlcError::new(format!(
                                "cannot use {other:?} as a finite hash key"
                            )))
                        }
                    };
                    let vt = v.into_type(store)?;
                    entries.push((key, vt));
                }
                Ok(store.new_finite_hash(entries))
            }
            TlcValue::Array(items) => {
                let mut elems = Vec::with_capacity(items.len());
                for item in items {
                    elems.push(item.into_type(store)?);
                }
                Ok(store.new_tuple(elems))
            }
            TlcValue::MetaClass(_) => Err(TlcError::new("a type-node class is not itself a type")),
        }
    }

    /// Ruby's `eql?`: structural equality, which finite-hash keys use, so
    /// `2` and `2.0` are different keys.
    fn eql(&self, other: &TlcValue) -> bool {
        self == other
    }

    /// Ruby's `==`: two Integer, Float, String or Symbol values compare as
    /// the interpreter's `==` does ([`ruby_interp::call_native`]), so
    /// `2 == 2.0`; any other pair compares structurally.
    fn ruby_eq(&self, other: &TlcValue) -> bool {
        match (scalar_value(self), scalar_value(other)) {
            (Some(a), Some(b)) => {
                matches!(ruby_interp::call_native(&a, "==", &[b]), Ok(Some(Value::Bool(true))))
            }
            _ => self == other,
        }
    }
}

/// The base-class nominal/special type named by a class reference in
/// type-level code.
fn class_ref_type(name: &str) -> Type {
    match name {
        "Boolean" => Type::Bool,
        "NilClass" => Type::nil(),
        _ => Type::nominal(name),
    }
}

/// A native helper method callable from type-level code.  Helpers are
/// `Send + Sync` behind an [`Arc`] so a [`HelperRegistry`] can be shared
/// across the threads of a parallel checking run.
pub type NativeHelper = Arc<dyn Fn(&mut TlcCtx<'_>, &[TlcValue]) -> TlcResult + Send + Sync>;

/// The registry of helper methods usable inside comp types (Table 1 counts
/// these per library).
///
/// Each helper is stored with its dependency-graph hash, computed once when
/// it is registered (see [`crate::semdep`]): a Ruby helper's structural
/// [`ruby_syntax::method_hash`], a native helper's name, revision tag and
/// captured-state digest.  [`HelperRegistry::merge`] shares helpers and
/// their hashes by `Arc`, so a library registered once is hashed once.
#[derive(Default, Clone)]
pub struct HelperRegistry {
    native: Shared<NativeEntry>,
    ruby: Shared<RubyEntry>,
    /// Lines of type-level Ruby code contributed by registered Ruby helpers
    /// (used for Table 1 LoC accounting).
    ruby_loc: usize,
}

/// Helper name → entry, shared by [`Arc`] between the registries a
/// library is merged into; a registration copies the map only while it is
/// shared ([`Arc::make_mut`]).
type Shared<E> = Arc<HashMap<String, Arc<E>>>;

/// Merges `from` into `into`, `from`'s entries winning.  An empty `into`
/// takes `from`'s map by one `Arc` clone.
fn merge_shared<E>(into: &mut Shared<E>, from: &Shared<E>) {
    if into.is_empty() {
        *into = Arc::clone(from);
    } else if !from.is_empty() && !Arc::ptr_eq(into, from) {
        let into = Arc::make_mut(into);
        for (name, entry) in from.iter() {
            into.insert(name.clone(), Arc::clone(entry));
        }
    }
}

struct NativeEntry {
    f: NativeHelper,
    hash: u64,
}

struct RubyEntry {
    def: MethodDef,
    hash: u64,
}

impl fmt::Debug for HelperRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HelperRegistry")
            .field("native", &self.native.keys().collect::<Vec<_>>())
            .field("ruby", &self.ruby.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl HelperRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        HelperRegistry::default()
    }

    /// Registers a native (Rust) helper that captures no state: its
    /// behaviour is fixed by its code, which
    /// [`crate::semdep::NATIVE_HELPER_REVISION`] stands in for.
    pub fn register_native(
        &mut self,
        name: &str,
        f: impl Fn(&mut TlcCtx<'_>, &[TlcValue]) -> TlcResult + Send + Sync + 'static,
    ) {
        self.insert_native(name, None, Arc::new(f));
    }

    /// Registers a native helper whose results also depend on state it
    /// captures (a DB schema, say); `state` is a stable digest of that
    /// state.  The helper's dependency-graph hash covers `state`, so an
    /// edit to the state re-checks exactly the methods that reach it.
    pub fn register_native_with_state(
        &mut self,
        name: &str,
        state: u64,
        f: impl Fn(&mut TlcCtx<'_>, &[TlcValue]) -> TlcResult + Send + Sync + 'static,
    ) {
        self.insert_native(name, Some(state), Arc::new(f));
    }

    fn insert_native(&mut self, name: &str, state: Option<u64>, f: NativeHelper) {
        let hash = crate::semdep::native_helper_hash(name, state);
        Arc::make_mut(&mut self.native).insert(name.to_string(), Arc::new(NativeEntry { f, hash }));
    }

    /// Registers helper methods written in the Ruby subset; `src` is parsed
    /// and each top-level `def` becomes a callable helper.
    ///
    /// Type-level code must terminate and be pure (paper §4), so each
    /// helper body is checked as comp types are
    /// ([`TerminationChecker::check_helper`] with purity required) against
    /// the builtin effects, with every helper already registered and every
    /// `def` in `src` trusted to terminate and be pure.  Recursion between
    /// helpers is therefore trusted here; evaluation fuel cuts it off at
    /// run time instead.
    ///
    /// # Errors
    ///
    /// Returns a [`TlcError`] if `src` does not parse, or naming the helper
    /// and its violations if a body may loop, calls a method not known to
    /// terminate or be pure, or writes non-local state.
    pub fn register_ruby(&mut self, src: &str) -> TlcResult<()> {
        let program = ruby_syntax::parse_program_strict(src)
            .map_err(|e| TlcError::new(format!("helper source does not parse: {e}")))?;
        let methods = program.methods();
        self.check_bodies(&methods)?;
        self.ruby_loc += ruby_syntax::count_loc(src);
        let ruby = Arc::make_mut(&mut self.ruby);
        for (_, m) in methods {
            let hash = ruby_syntax::method_hash(m);
            ruby.insert(m.name.clone(), Arc::new(RubyEntry { def: m.clone(), hash }));
        }
        Ok(())
    }

    /// Checks that every body of `defs` terminates and is pure, trusting
    /// the builtins, the helpers registered so far and `defs` themselves.
    fn check_bodies(&self, defs: &[(String, &MethodDef)]) -> TlcResult<()> {
        let mut effects = EffectEnv::from_explicit(ExplicitEffects::of_helpers(self));
        for (_, def) in defs {
            effects.set(&def.name, TermEffect::Terminates, PurityEffect::Pure);
        }
        let checker = TerminationChecker::new(effects);
        for (_, def) in defs {
            let violations: Vec<String> =
                checker.check_helper(def, true).iter().map(ToString::to_string).collect();
            if !violations.is_empty() {
                return Err(TlcError::new(format!(
                    "helper `{}` must terminate and be pure: {}",
                    def.name,
                    violations.join("; ")
                )));
            }
        }
        Ok(())
    }

    /// Merges every helper of `other` into `self` (later registrations
    /// win).  Helpers and their hashes are shared with `other`, not copied:
    /// a map `self` has no entries in yet takes `other`'s by one `Arc`
    /// clone.  `other`'s Ruby helper LoC adds to this registry's.
    pub fn merge(&mut self, other: &HelperRegistry) {
        merge_shared(&mut self.native, &other.native);
        merge_shared(&mut self.ruby, &other.ruby);
        self.ruby_loc += other.ruby_loc;
    }

    /// Number of registered helper methods.
    pub fn len(&self) -> usize {
        self.native.len() + self.ruby.len()
    }

    /// True if no helpers are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Names of all registered helpers.
    pub fn names(&self) -> Vec<String> {
        let mut out: Vec<String> = self.native.keys().chain(self.ruby.keys()).cloned().collect();
        out.sort();
        out.dedup();
        out
    }

    /// Names of the registered native helpers, sorted.  A native helper
    /// has no AST to hash, so [`crate::semdep::NATIVE_HELPER_REVISION`]
    /// stands in for its behaviour.
    pub fn native_names(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.native.keys().map(String::as_str).collect();
        out.sort_unstable();
        out
    }

    /// Lines of Ruby helper code registered.
    pub fn ruby_loc(&self) -> usize {
        self.ruby_loc
    }

    fn get_native(&self, name: &str) -> Option<NativeHelper> {
        self.native.get(name).map(|entry| Arc::clone(&entry.f))
    }

    fn get_ruby(&self, name: &str) -> Option<Arc<RubyEntry>> {
        self.ruby.get(name).cloned()
    }

    /// Whether a helper with the given name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.native.contains_key(name) || self.ruby.contains_key(name)
    }

    /// A Ruby-subset helper's definition and its structural hash
    /// ([`ruby_syntax::method_hash`]), computed when it was registered.
    pub(crate) fn ruby_helper(&self, name: &str) -> Option<(&MethodDef, u64)> {
        self.ruby.get(name).map(|entry| (&entry.def, entry.hash))
    }

    /// A native helper's dependency-graph hash
    /// ([`crate::semdep::native_helper_hash`]), computed when it was
    /// registered.
    pub(crate) fn native_hash(&self, name: &str) -> Option<u64> {
        self.native.get(name).map(|entry| entry.hash)
    }
}

/// Evaluation context handed to native helpers and used internally by the
/// evaluator.
pub struct TlcCtx<'a> {
    /// The type store (helpers may allocate finite hash / tuple types).
    pub store: &'a mut TypeStore,
    /// The class hierarchy.
    pub classes: &'a ClassTable,
    /// The helper registry.
    pub helpers: &'a HelperRegistry,
    /// Extra named bindings visible to type-level code (`tself`, binders).
    pub bindings: HashMap<String, TlcValue>,
    fuel: u64,
    depth: u32,
    /// The stack of Ruby-subset helpers currently being evaluated, with the
    /// span of each helper's definition.  The whole evaluation shares one
    /// fuel budget (helper-to-helper calls do not get a fresh one), so when
    /// the budget runs out this identifies the helper that was burning fuel.
    helper_stack: Vec<(String, Span)>,
}

/// Maximum helper-call nesting depth.  CompRDL assumes type-level code does
/// not recurse (paper §4); a small bound turns accidental recursion into an
/// error instead of a stack overflow.
const MAX_HELPER_DEPTH: u32 = 64;

impl<'a> TlcCtx<'a> {
    /// Creates a context with the given bindings.
    pub fn new(
        store: &'a mut TypeStore,
        classes: &'a ClassTable,
        helpers: &'a HelperRegistry,
        bindings: HashMap<String, TlcValue>,
    ) -> Self {
        TlcCtx {
            store,
            classes,
            helpers,
            bindings,
            fuel: TLC_FUEL,
            depth: 0,
            helper_stack: Vec::new(),
        }
    }

    /// The error reported when the shared fuel budget runs out: names the
    /// helper that was executing (the whole evaluation shares one budget, so
    /// a generic message would blame the outermost comp type instead of the
    /// helper actually looping) and carries the helper definition's span.
    fn fuel_exhausted(&self) -> TlcError {
        match self.helper_stack.last() {
            Some((name, span)) => TlcError::new(format!(
                "type-level computation exceeded its step budget while evaluating helper `{name}` \
                 (helper-to-helper calls share one budget)"
            ))
            .with_span(*span),
            None => TlcError::new("type-level computation exceeded its step budget"),
        }
    }

    fn burn(&mut self) -> TlcResult<()> {
        if self.fuel == 0 {
            return Err(self.fuel_exhausted());
        }
        self.fuel -= 1;
        Ok(())
    }

    /// Evaluates a type-level expression to a value.
    ///
    /// # Errors
    ///
    /// Returns a [`TlcError`] if the expression goes wrong (unknown method,
    /// unbound variable, fuel exhaustion, ...).
    pub fn eval(&mut self, expr: &Expr) -> TlcResult {
        self.eval_inner(expr).map_err(|e| e.or_span(expr.span))
    }

    fn eval_inner(&mut self, expr: &Expr) -> TlcResult {
        self.burn()?;
        match &expr.kind {
            ExprKind::Nil => Ok(TlcValue::Nil),
            ExprKind::True => Ok(TlcValue::Bool(true)),
            ExprKind::False => Ok(TlcValue::Bool(false)),
            ExprKind::Int(i) => Ok(TlcValue::Int(*i)),
            ExprKind::Float(f) => Ok(TlcValue::Float(*f)),
            ExprKind::Str(s) => Ok(TlcValue::Str(s.clone())),
            ExprKind::Sym(s) => Ok(TlcValue::Sym(s.to_string())),
            ExprKind::Array(items) => {
                let mut out = Vec::with_capacity(items.len());
                for i in items {
                    out.push(self.eval(i)?);
                }
                Ok(TlcValue::Array(out))
            }
            ExprKind::Hash(pairs) => {
                let mut out = Vec::with_capacity(pairs.len());
                for (k, v) in pairs {
                    out.push((self.eval(k)?, self.eval(v)?));
                }
                Ok(TlcValue::Hash(out))
            }
            ExprKind::SelfExpr => self
                .bindings
                .get("tself")
                .cloned()
                .ok_or_else(|| TlcError::new("`self` is not bound in type-level code")),
            ExprKind::Ident(name) => {
                if let Some(v) = self.bindings.get(name.as_str()) {
                    return Ok(v.clone());
                }
                self.call_helper(name, &[])
            }
            ExprKind::GVar(name) => {
                self.bindings.get(&format!("${name}")).cloned().ok_or_else(|| {
                    TlcError::new(format!("unbound global ${name} in type-level code"))
                })
            }
            ExprKind::IVar(name) => {
                self.bindings.get(&format!("@{name}")).cloned().ok_or_else(|| {
                    TlcError::new(format!("unbound ivar @{name} in type-level code"))
                })
            }
            ExprKind::Const(path) => {
                let joined = path.join("::");
                if let Some(kind) = MetaKind::from_name(&joined) {
                    return Ok(TlcValue::MetaClass(kind));
                }
                Ok(TlcValue::ClassRef(joined))
            }
            ExprKind::BoolOp { op, lhs, rhs } => {
                let l = self.eval(lhs)?;
                match op {
                    BinOp::And => {
                        if l.truthy() {
                            self.eval(rhs)
                        } else {
                            Ok(l)
                        }
                    }
                    BinOp::Or => {
                        if l.truthy() {
                            Ok(l)
                        } else {
                            self.eval(rhs)
                        }
                    }
                }
            }
            ExprKind::Not(e) => Ok(TlcValue::Bool(!self.eval(e)?.truthy())),
            ExprKind::If { arms, else_body } => {
                for arm in arms {
                    if self.eval(&arm.cond)?.truthy() {
                        return self.eval_body(&arm.body);
                    }
                }
                self.eval_body(else_body)
            }
            ExprKind::Case { subject, arms, else_body } => {
                let s = self.eval(subject)?;
                for arm in arms {
                    let c = self.eval(&arm.cond)?;
                    if c.ruby_eq(&s) {
                        return self.eval_body(&arm.body);
                    }
                }
                self.eval_body(else_body)
            }
            ExprKind::Return(Some(e)) => self.eval(e),
            ExprKind::Return(None) => Ok(TlcValue::Nil),
            ExprKind::Assign { target, value } => {
                let v = self.eval(value)?;
                if let ruby_syntax::LValue::Local(name) = target {
                    self.bindings.insert(name.to_string(), v.clone());
                    Ok(v)
                } else {
                    Err(TlcError::new(
                        "type-level code may only assign to local variables (purity)",
                    ))
                }
            }
            ExprKind::Call { recv, name, args, .. } => {
                let mut arg_vals = Vec::with_capacity(args.len());
                for a in args {
                    arg_vals.push(self.eval(a)?);
                }
                match recv {
                    None => self.call_helper(name, &arg_vals),
                    Some(r) => {
                        // `RDL.helper(...)` is routed to the helper registry.
                        if let ExprKind::Const(path) = &r.kind {
                            if path == &["RDL".to_string()] {
                                return self.call_helper(name, &arg_vals);
                            }
                        }
                        let recv_val = self.eval(r)?;
                        self.call_method(&recv_val, name, &arg_vals)
                    }
                }
            }
            ExprKind::While { .. } => {
                Err(TlcError::new("type-level code may not use loops (termination)"))
            }
            ExprKind::TypeCast { expr, .. } => self.eval(expr),
            other => {
                Err(TlcError::new(format!("unsupported construct in type-level code: {other:?}")))
            }
        }
    }

    fn eval_body(&mut self, body: &[Expr]) -> TlcResult {
        let mut last = TlcValue::Nil;
        for e in body {
            last = self.eval(e)?;
        }
        Ok(last)
    }

    /// Calls a helper method by name (native first, then Ruby-subset).
    ///
    /// # Errors
    ///
    /// Returns a [`TlcError`] if the helper is unknown or fails.
    pub fn call_helper(&mut self, name: &str, args: &[TlcValue]) -> TlcResult {
        if let Some(f) = self.helpers.get_native(name) {
            return f(self, args);
        }
        if let Some(helper) = self.helpers.get_ruby(name) {
            let def = &helper.def;
            if self.depth >= MAX_HELPER_DEPTH {
                return Err(TlcError::new(format!(
                    "type-level computation exceeded its step budget in helper `{name}` \
                     (recursive helper?)"
                ))
                .with_span(def.span));
            }
            // A helper is a Ruby method: its body sees its own parameters
            // and locals, not the caller's bindings.  The caller's scope is
            // restored on every exit, a failed default argument included.
            self.depth += 1;
            self.helper_stack.push((name.to_string(), def.span));
            let caller = std::mem::take(&mut self.bindings);
            let result = self.bind_params(def, args).and_then(|()| self.eval_body(&def.body));
            self.bindings = caller;
            self.helper_stack.pop();
            self.depth -= 1;
            return result;
        }
        Err(TlcError::new(format!("unknown helper method `{name}` in type-level code")))
    }

    /// Binds a Ruby helper's parameters in the current scope: each to its
    /// argument, else to its default evaluated in that scope (so it sees the
    /// parameters before it), else to `nil`.
    fn bind_params(&mut self, def: &MethodDef, args: &[TlcValue]) -> TlcResult<()> {
        for (i, p) in def.params.iter().enumerate() {
            let v = match (args.get(i), &p.default) {
                (Some(v), _) => v.clone(),
                (None, Some(default)) => self.eval(default)?,
                (None, None) => TlcValue::Nil,
            };
            self.bindings.insert(p.name.to_string(), v);
        }
        Ok(())
    }

    // ---- methods on type-level values -----------------------------------

    /// Renders a type for an error message with store-backed parts expanded
    /// structurally, so messages are independent of store allocation order.
    fn show(&self, t: &Type) -> String {
        self.store.render(t)
    }

    fn call_method(&mut self, recv: &TlcValue, name: &str, args: &[TlcValue]) -> TlcResult {
        match name {
            "==" => return Ok(TlcValue::Bool(recv.ruby_eq(&args[0]))),
            "!=" => return Ok(TlcValue::Bool(!recv.ruby_eq(&args[0]))),
            "nil?" => return Ok(TlcValue::Bool(matches!(recv, TlcValue::Nil))),
            "is_a?" | "kind_of?" | "instance_of?" => return self.is_a(recv, args),
            _ => {}
        }
        match recv {
            TlcValue::Type(t) => self.type_method(t, name, args),
            TlcValue::Hash(pairs) => self.hash_method(pairs, name, args),
            TlcValue::Array(items) => self.array_method(items, name, args),
            TlcValue::Int(_) | TlcValue::Float(_) | TlcValue::Str(_) | TlcValue::Sym(_) => {
                scalar_method(recv, name, args)
            }
            TlcValue::MetaClass(kind) => self.metaclass_method(*kind, name, args),
            TlcValue::ClassRef(class) => match name {
                "new" => Err(TlcError::new(format!(
                    "type-level code cannot instantiate ordinary class {class}"
                ))),
                "to_s" | "name" => Ok(TlcValue::Str(class.clone())),
                "to_type" => Ok(TlcValue::Type(class_ref_type(class))),
                _ => {
                    // Fall back to a helper with an explicit receiver, e.g.
                    // `DBSchema.table_type(...)`.
                    let qualified = format!("{class}.{name}");
                    if self.helpers.contains(&qualified) {
                        self.call_helper(&qualified, args)
                    } else {
                        self.call_helper(name, args)
                    }
                }
            },
            TlcValue::Nil => Err(TlcError::new(format!("undefined method `{name}` for nil"))),
            TlcValue::Bool(_) => Err(TlcError::new(format!("unknown method `{name}` on boolean"))),
        }
    }

    fn is_a(&mut self, recv: &TlcValue, args: &[TlcValue]) -> TlcResult {
        let target = args.first().ok_or_else(|| TlcError::new("is_a? requires an argument"))?;
        let result = match (recv, target) {
            (TlcValue::Type(t), TlcValue::MetaClass(kind)) => {
                let t = self.store.resolve(t);
                match kind {
                    MetaKind::Singleton => {
                        t.is_singleton()
                            || matches!(t, Type::ConstString(id) if self.store.const_string_value(id).is_some())
                    }
                    MetaKind::Nominal => matches!(t, Type::Nominal(_)),
                    MetaKind::Generic => matches!(t, Type::Generic { .. }),
                    MetaKind::FiniteHash => matches!(t, Type::FiniteHash(_)),
                    MetaKind::Tuple => matches!(t, Type::Tuple(_)),
                    MetaKind::ConstString => matches!(t, Type::ConstString(_)),
                    MetaKind::Union => matches!(t, Type::Union(_)),
                    MetaKind::Optional => matches!(t, Type::Optional(_)),
                }
            }
            (TlcValue::Type(t), TlcValue::ClassRef(class)) => {
                let sub = Subtyper::new(self.classes);
                sub.is_subtype(self.store, t, &class_ref_type(class))
            }
            (TlcValue::Sym(_), TlcValue::ClassRef(c)) => c == "Symbol",
            (TlcValue::Str(_), TlcValue::ClassRef(c)) => c == "String",
            (TlcValue::Int(_), TlcValue::ClassRef(c)) => c == "Integer" || c == "Numeric",
            (TlcValue::Float(_), TlcValue::ClassRef(c)) => c == "Float" || c == "Numeric",
            (TlcValue::Hash(_), TlcValue::ClassRef(c)) => c == "Hash",
            (TlcValue::Array(_), TlcValue::ClassRef(c)) => c == "Array",
            _ => false,
        };
        Ok(TlcValue::Bool(result))
    }

    fn metaclass_method(&mut self, kind: MetaKind, name: &str, args: &[TlcValue]) -> TlcResult {
        if name != "new" {
            return Err(TlcError::new(format!("unknown method `{name}` on type-node class")));
        }
        match kind {
            MetaKind::Nominal => {
                let class = expect_class_name(args, 0)?;
                Ok(TlcValue::Type(class_ref_type(&class)))
            }
            MetaKind::Singleton => {
                let arg = args.first().cloned().unwrap_or(TlcValue::Nil);
                let t = match arg {
                    TlcValue::Sym(s) => Type::sym(s),
                    TlcValue::Int(i) => Type::int(i),
                    TlcValue::Float(f) => Type::Singleton(SingVal::float(f)),
                    TlcValue::Str(s) => self.store.new_const_string(s),
                    TlcValue::ClassRef(c) => Type::class_of(c),
                    TlcValue::Bool(true) => Type::Singleton(SingVal::True),
                    TlcValue::Bool(false) => Type::Singleton(SingVal::False),
                    TlcValue::Nil => Type::nil(),
                    other => {
                        return Err(TlcError::new(format!(
                            "cannot build a singleton type from {other:?}"
                        )))
                    }
                };
                Ok(TlcValue::Type(t))
            }
            MetaKind::Generic => {
                let base = expect_class_name(args, 0)?;
                let mut params = Vec::new();
                for a in &args[1..] {
                    params.push(a.clone().into_type(self.store)?);
                }
                Ok(TlcValue::Type(Type::Generic { base: base.into(), args: params }))
            }
            MetaKind::FiniteHash => {
                let arg = args.first().cloned().unwrap_or(TlcValue::Hash(vec![]));
                Ok(TlcValue::Type(arg.into_type(self.store)?))
            }
            MetaKind::Tuple => {
                let mut elems = Vec::new();
                for a in args {
                    elems.push(a.clone().into_type(self.store)?);
                }
                Ok(TlcValue::Type(self.store.new_tuple(elems)))
            }
            MetaKind::ConstString => {
                let s = match args.first() {
                    Some(TlcValue::Str(s)) => s.clone(),
                    _ => return Err(TlcError::new("ConstString.new requires a string")),
                };
                Ok(TlcValue::Type(self.store.new_const_string(s)))
            }
            MetaKind::Union => {
                let mut members = Vec::new();
                for a in args {
                    members.push(a.clone().into_type(self.store)?);
                }
                Ok(TlcValue::Type(Type::union(members)))
            }
            MetaKind::Optional => {
                let t = args
                    .first()
                    .cloned()
                    .unwrap_or(TlcValue::Type(Type::Top))
                    .into_type(self.store)?;
                Ok(TlcValue::Type(Type::Optional(Box::new(t))))
            }
        }
    }

    fn type_method(&mut self, t: &Type, name: &str, args: &[TlcValue]) -> TlcResult {
        let resolved = self.store.resolve(t);
        match name {
            // The singleton's underlying value.
            "val" | "value" => match &resolved {
                Type::Singleton(SingVal::Sym(s)) => Ok(TlcValue::Sym(s.to_string())),
                Type::Singleton(SingVal::Int(i)) => Ok(TlcValue::Int(*i)),
                Type::Singleton(SingVal::Class(c)) => Ok(TlcValue::ClassRef(c.to_string())),
                Type::Singleton(SingVal::True) => Ok(TlcValue::Bool(true)),
                Type::Singleton(SingVal::False) => Ok(TlcValue::Bool(false)),
                Type::Singleton(SingVal::Nil) => Ok(TlcValue::Nil),
                Type::Singleton(SingVal::FloatBits(b)) => Ok(TlcValue::Float(f64::from_bits(*b))),
                Type::ConstString(id) => match self.store.const_string_value(*id) {
                    Some(s) => Ok(TlcValue::Str(s.to_string())),
                    None => Err(TlcError::new("const string no longer has a known value")),
                },
                other => {
                    Err(TlcError::new(format!("`{}` is not a singleton type", self.show(other))))
                }
            },
            // Finite hash entries as a `symbol => type` hash.
            "elts" | "entries" => match &resolved {
                Type::FiniteHash(id) => {
                    let data = self.store.finite_hash(*id).clone();
                    let pairs = data
                        .entries
                        .iter()
                        .map(|(k, v)| {
                            let key = match k {
                                HashKey::Sym(s) => TlcValue::Sym(s.to_string()),
                                HashKey::Str(s) => TlcValue::Str(s.to_string()),
                                HashKey::Int(i) => TlcValue::Int(*i),
                            };
                            (key, TlcValue::Type(v.clone()))
                        })
                        .collect();
                    Ok(TlcValue::Hash(pairs))
                }
                other => Err(TlcError::new(format!("`{}` has no elts", self.show(other)))),
            },
            // Generic parameters.
            "params" => match &resolved {
                Type::Generic { args, .. } => {
                    Ok(TlcValue::Array(args.iter().map(|a| TlcValue::Type(a.clone())).collect()))
                }
                other => {
                    Err(TlcError::new(format!("`{}` has no type parameters", self.show(other))))
                }
            },
            "param" => match &resolved {
                Type::Generic { args, .. } if !args.is_empty() => {
                    Ok(TlcValue::Type(args[0].clone()))
                }
                other => {
                    Err(TlcError::new(format!("`{}` has no type parameters", self.show(other))))
                }
            },
            "base" => match &resolved {
                Type::Generic { base, .. } => Ok(TlcValue::ClassRef(base.to_string())),
                Type::Nominal(n) => Ok(TlcValue::ClassRef(n.to_string())),
                Type::Singleton(SingVal::Class(c)) => Ok(TlcValue::ClassRef(c.to_string())),
                other => Err(TlcError::new(format!("`{}` has no base class", self.show(other)))),
            },
            // The union of a finite hash's value types / a Hash generic's
            // value parameter; `Hash<Symbol, Object>` in the fallback case.
            "value_type" => Ok(TlcValue::Type(self.value_type_of(&resolved))),
            "key_type" => Ok(TlcValue::Type(self.key_type_of(&resolved))),
            // The union of a tuple's element types / an Array generic's
            // parameter.
            "elem_type" | "element_type" => Ok(TlcValue::Type(self.elem_type_of(&resolved))),
            // Tuple element list.
            "elems" => match &resolved {
                Type::Tuple(id) => {
                    let data = self.store.tuple(*id).clone();
                    Ok(TlcValue::Array(
                        data.elems.iter().map(|e| TlcValue::Type(e.clone())).collect(),
                    ))
                }
                other => {
                    Err(TlcError::new(format!("`{}` has no tuple elements", self.show(other))))
                }
            },
            // Merge a finite hash type with a hash of additional entries,
            // yielding a new finite hash type (used by `joins`).
            "merge" => {
                let extra = args
                    .first()
                    .cloned()
                    .ok_or_else(|| TlcError::new("merge requires an argument"))?;
                self.merge_types(&resolved, extra)
            }
            // Indexing a finite hash type by a key symbol yields the value
            // type for that key (used by `Hash#[]`'s comp type).
            "[]" => {
                let key = args.first().cloned().unwrap_or(TlcValue::Nil);
                self.index_type(&resolved, key)
            }
            "union" | "union_with" => {
                let other = args
                    .first()
                    .cloned()
                    .ok_or_else(|| TlcError::new("union requires an argument"))?
                    .into_type(self.store)?;
                Ok(TlcValue::Type(Type::union([resolved, other])))
            }
            "canonical" | "to_type" => Ok(TlcValue::Type(resolved)),
            "to_s" | "name" | "inspect" => Ok(TlcValue::Str(resolved.to_string())),
            "keys" => match &resolved {
                Type::FiniteHash(id) => {
                    let data = self.store.finite_hash(*id).clone();
                    Ok(TlcValue::Array(
                        data.entries
                            .iter()
                            .map(|(k, _)| match k {
                                HashKey::Sym(s) => TlcValue::Sym(s.to_string()),
                                HashKey::Str(s) => TlcValue::Str(s.to_string()),
                                HashKey::Int(i) => TlcValue::Int(*i),
                            })
                            .collect(),
                    ))
                }
                other => Err(TlcError::new(format!("`{}` has no keys", self.show(other)))),
            },
            "size" | "length" => match &resolved {
                Type::Tuple(id) => Ok(TlcValue::Int(self.store.tuple(*id).elems.len() as i64)),
                Type::FiniteHash(id) => {
                    Ok(TlcValue::Int(self.store.finite_hash(*id).entries.len() as i64))
                }
                other => Err(TlcError::new(format!("`{}` has no size", self.show(other)))),
            },
            "subtype_of?" | "<=" => {
                let other = args
                    .first()
                    .cloned()
                    .ok_or_else(|| TlcError::new("subtype_of? requires an argument"))?
                    .into_type(self.store)?;
                let sub = Subtyper::new(self.classes);
                Ok(TlcValue::Bool(sub.is_subtype(self.store, &resolved, &other)))
            }
            other => Err(TlcError::new(format!(
                "unknown method `{other}` on type `{}`",
                self.show(&resolved)
            ))),
        }
    }

    fn value_type_of(&mut self, t: &Type) -> Type {
        match t {
            Type::FiniteHash(id) => {
                let data = self.store.finite_hash(*id);
                Type::union(data.entries.iter().map(|(_, v)| v.clone()))
            }
            Type::Generic { base, args } if base == "Hash" && args.len() == 2 => args[1].clone(),
            _ => Type::object(),
        }
    }

    fn key_type_of(&mut self, t: &Type) -> Type {
        match t {
            Type::FiniteHash(id) => {
                let data = self.store.finite_hash(*id);
                Type::union(data.entries.iter().map(|(k, _)| match k {
                    HashKey::Sym(s) => Type::sym(s.clone()),
                    HashKey::Str(_) => Type::nominal("String"),
                    HashKey::Int(i) => Type::int(*i),
                }))
            }
            Type::Generic { base, args } if base == "Hash" && args.len() == 2 => args[0].clone(),
            _ => Type::object(),
        }
    }

    fn elem_type_of(&mut self, t: &Type) -> Type {
        match t {
            Type::Tuple(id) => {
                let data = self.store.tuple(*id);
                let u = Type::union(data.elems.iter().cloned());
                if u == Type::Bot {
                    Type::object()
                } else {
                    u
                }
            }
            Type::Generic { base, args } if base == "Array" && args.len() == 1 => args[0].clone(),
            _ => Type::object(),
        }
    }

    fn merge_types(&mut self, t: &Type, extra: TlcValue) -> TlcResult {
        let mut entries = match t {
            Type::FiniteHash(id) => self.store.finite_hash(*id).entries.to_vec(),
            Type::Generic { base, .. } if base == "Hash" => Vec::new(),
            other => {
                return Err(TlcError::new(format!(
                    "cannot merge into non-hash type `{}`",
                    self.show(other)
                )))
            }
        };
        let extra_entries: Vec<(HashKey, Type)> = match extra {
            TlcValue::Hash(pairs) => {
                let mut out = Vec::with_capacity(pairs.len());
                for (k, v) in pairs {
                    let key = match k {
                        TlcValue::Sym(s) => HashKey::Sym(s.into()),
                        TlcValue::Str(s) => HashKey::Str(s.into()),
                        TlcValue::Int(i) => HashKey::Int(i),
                        other => return Err(TlcError::new(format!("invalid hash key {other:?}"))),
                    };
                    out.push((key, v.into_type(self.store)?));
                }
                out
            }
            TlcValue::Type(Type::FiniteHash(id)) => self.store.finite_hash(id).entries.to_vec(),
            other => return Err(TlcError::new(format!("cannot merge {other:?} into a hash type"))),
        };
        for (k, v) in extra_entries {
            match entries.iter_mut().find(|(ek, _)| *ek == k) {
                Some(slot) => slot.1 = v,
                None => entries.push((k, v)),
            }
        }
        Ok(TlcValue::Type(self.store.new_finite_hash(entries)))
    }

    fn index_type(&mut self, t: &Type, key: TlcValue) -> TlcResult {
        match t {
            Type::FiniteHash(id) => {
                let hk = match &key {
                    TlcValue::Sym(s) => HashKey::Sym(s.into()),
                    TlcValue::Str(s) => HashKey::Str(s.into()),
                    TlcValue::Int(i) => HashKey::Int(*i),
                    TlcValue::Type(Type::Singleton(SingVal::Sym(s))) => HashKey::Sym(s.clone()),
                    TlcValue::Type(Type::Singleton(SingVal::Int(i))) => HashKey::Int(*i),
                    other => return Err(TlcError::new(format!("invalid hash key {other:?}"))),
                };
                match self.store.finite_hash(*id).get(&hk) {
                    Some(v) => Ok(TlcValue::Type(v.clone())),
                    None => Ok(TlcValue::Type(Type::nil())),
                }
            }
            Type::Tuple(id) => match key {
                TlcValue::Int(i) | TlcValue::Type(Type::Singleton(SingVal::Int(i))) => {
                    let elems = &self.store.tuple(*id).elems;
                    let elem = position(elems.len(), i).and_then(|p| elems.get(p));
                    Ok(TlcValue::Type(elem.cloned().unwrap_or_else(Type::nil)))
                }
                other => Err(TlcError::new(format!("invalid tuple index {other:?}"))),
            },
            Type::Generic { base, args } if base == "Hash" && args.len() == 2 => {
                Ok(TlcValue::Type(args[1].clone()))
            }
            Type::Generic { base, args } if base == "Array" && args.len() == 1 => {
                Ok(TlcValue::Type(args[0].clone()))
            }
            other => Err(TlcError::new(format!("cannot index type `{}`", self.show(other)))),
        }
    }

    fn hash_method(
        &mut self,
        pairs: &[(TlcValue, TlcValue)],
        name: &str,
        args: &[TlcValue],
    ) -> TlcResult {
        match name {
            "[]" => {
                let key = args.first().cloned().unwrap_or(TlcValue::Nil);
                Ok(pairs
                    .iter()
                    .find(|(k, _)| k.eql(&key))
                    .map(|(_, v)| v.clone())
                    .unwrap_or(TlcValue::Nil))
            }
            "merge" => {
                let mut out = pairs.to_vec();
                if let Some(TlcValue::Hash(other)) = args.first() {
                    for (k, v) in other {
                        match out.iter_mut().find(|(ek, _)| ek.eql(k)) {
                            Some(slot) => slot.1 = v.clone(),
                            None => out.push((k.clone(), v.clone())),
                        }
                    }
                }
                Ok(TlcValue::Hash(out))
            }
            "keys" => Ok(TlcValue::Array(pairs.iter().map(|(k, _)| k.clone()).collect())),
            "values" => Ok(TlcValue::Array(pairs.iter().map(|(_, v)| v.clone()).collect())),
            "key?" | "has_key?" | "include?" => {
                let key = args.first().cloned().unwrap_or(TlcValue::Nil);
                Ok(TlcValue::Bool(pairs.iter().any(|(k, _)| k.eql(&key))))
            }
            "size" | "length" => Ok(TlcValue::Int(pairs.len() as i64)),
            "empty?" => Ok(TlcValue::Bool(pairs.is_empty())),
            "to_type" => TlcValue::Hash(pairs.to_vec()).into_type(self.store).map(TlcValue::Type),
            other => Err(TlcError::new(format!("unknown method `{other}` on type-level hash"))),
        }
    }

    fn array_method(&mut self, items: &[TlcValue], name: &str, args: &[TlcValue]) -> TlcResult {
        match name {
            "[]" | "at" => {
                let item = position(items.len(), expect_int(args, 0)?).and_then(|p| items.get(p));
                Ok(item.cloned().unwrap_or(TlcValue::Nil))
            }
            "first" => Ok(items.first().cloned().unwrap_or(TlcValue::Nil)),
            "last" => Ok(items.last().cloned().unwrap_or(TlcValue::Nil)),
            "size" | "length" => Ok(TlcValue::Int(items.len() as i64)),
            "empty?" => Ok(TlcValue::Bool(items.is_empty())),
            "include?" => {
                let target = args.first().cloned().unwrap_or(TlcValue::Nil);
                Ok(TlcValue::Bool(items.iter().any(|i| i.ruby_eq(&target))))
            }
            "union_type" => {
                let mut types = Vec::new();
                for item in items {
                    types.push(item.clone().into_type(self.store)?);
                }
                Ok(TlcValue::Type(Type::union(types)))
            }
            other => Err(TlcError::new(format!("unknown method `{other}` on type-level array"))),
        }
    }
}

/// The position index `i` names in a sequence of `len` elements, counting
/// back from the end when `i` is negative, as `Array#[]` does.  `None`
/// when `i` is before the start; an index past the end gives a position
/// that `get` misses.
fn position(len: usize, i: i64) -> Option<usize> {
    usize::try_from(if i < 0 { len as i64 + i } else { i }).ok()
}

/// Runs the Integer, Float, String or Symbol method `name` of a scalar
/// as the interpreter does ([`ruby_interp::call_native`]), so type-level
/// code computes what the program would.
fn scalar_method(recv: &TlcValue, name: &str, args: &[TlcValue]) -> TlcResult {
    let recv = to_value(recv)?;
    let args = args.iter().map(to_value).collect::<TlcResult<Vec<_>>>()?;
    match ruby_interp::call_native(&recv, name, &args) {
        Ok(Some(v)) => from_value(&v),
        Ok(None) => Err(TlcError::new(format!(
            "unknown method `{name}` on type-level {}",
            recv.class_name()
        ))),
        Err(ruby_interp::Control::Error(e)) => {
            Err(TlcError::new(format!("{}#{name} raised: {}", recv.class_name(), e.message)))
        }
        Err(other) => Err(TlcError::new(format!("{}#{name}: {other:?}", recv.class_name()))),
    }
}

/// The interpreter value of an Integer, Float, String or Symbol; `None`
/// for any other type-level value.
fn scalar_value(v: &TlcValue) -> Option<Value> {
    match v {
        TlcValue::Int(_) | TlcValue::Float(_) | TlcValue::Str(_) | TlcValue::Sym(_) => {
            to_value(v).ok()
        }
        _ => None,
    }
}

/// The interpreter value a type-level scalar stands for.
fn to_value(v: &TlcValue) -> TlcResult<Value> {
    Ok(match v {
        TlcValue::Nil => Value::Nil,
        TlcValue::Bool(b) => Value::Bool(*b),
        TlcValue::Int(i) => Value::Int(*i),
        TlcValue::Float(f) => Value::Float(*f),
        TlcValue::Str(s) => Value::str(s.as_str()),
        TlcValue::Sym(s) => Value::Sym(s.as_str().into()),
        other => return Err(TlcError::new(format!("{other:?} has no run-time value"))),
    })
}

/// The type-level value of what a scalar method returned.
fn from_value(v: &Value) -> TlcResult {
    Ok(match v {
        Value::Nil => TlcValue::Nil,
        Value::Bool(b) => TlcValue::Bool(*b),
        Value::Int(i) => TlcValue::Int(*i),
        Value::Float(f) => TlcValue::Float(*f),
        Value::Str(s) => TlcValue::Str(s.borrow().clone()),
        Value::Sym(s) => TlcValue::Sym(s.to_string()),
        Value::Array(items) => {
            TlcValue::Array(items.borrow().iter().map(from_value).collect::<TlcResult<_>>()?)
        }
        Value::Class(c) => TlcValue::ClassRef(c.to_string()),
        other => {
            return Err(TlcError::new(format!("{} is not a type-level value", other.class_name())))
        }
    })
}

fn expect_int(args: &[TlcValue], i: usize) -> TlcResult<i64> {
    match args.get(i) {
        Some(TlcValue::Int(n)) => Ok(*n),
        other => Err(TlcError::new(format!("expected an integer argument, got {other:?}"))),
    }
}

fn expect_class_name(args: &[TlcValue], i: usize) -> TlcResult<String> {
    match args.get(i) {
        Some(TlcValue::ClassRef(c)) => Ok(c.clone()),
        Some(TlcValue::Str(s)) => Ok(s.clone()),
        Some(TlcValue::Sym(s)) => Ok(s.clone()),
        Some(TlcValue::MetaClass(_)) | None => Err(TlcError::new("expected a class name argument")),
        Some(other) => Err(TlcError::new(format!("expected a class name, got {other:?}"))),
    }
}

/// Evaluates a comp-type expression with the given bindings and converts the
/// result to a [`Type`].
///
/// # Errors
///
/// Returns a [`TlcError`] if evaluation fails or the result does not denote
/// a type.
pub fn eval_comp_type(
    store: &mut TypeStore,
    classes: &ClassTable,
    helpers: &HelperRegistry,
    bindings: HashMap<String, TlcValue>,
    expr: &Expr,
) -> Result<Type, TlcError> {
    let mut ctx = TlcCtx::new(store, classes, helpers, bindings);
    let value = ctx.eval(expr)?;
    value.into_type(ctx.store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruby_syntax::parse_expr;

    fn eval_with(
        bindings: Vec<(&str, TlcValue)>,
        helpers: &HelperRegistry,
        store: &mut TypeStore,
        src: &str,
    ) -> Result<Type, TlcError> {
        let classes = ClassTable::with_builtins();
        let expr = parse_expr(src).expect("parse");
        let bindings = bindings.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        eval_comp_type(store, &classes, helpers, bindings, &expr)
    }

    #[test]
    fn literal_and_constructor_forms() {
        let helpers = HelperRegistry::new();
        let mut store = TypeStore::new();
        assert_eq!(
            eval_with(vec![], &helpers, &mut store, "Nominal.new(Table)").unwrap(),
            Type::nominal("Table")
        );
        assert_eq!(
            eval_with(vec![], &helpers, &mut store, "Singleton.new(:emails)").unwrap(),
            Type::sym("emails")
        );
        let t = eval_with(vec![], &helpers, &mut store, "Generic.new(Array, Nominal.new(String))")
            .unwrap();
        assert_eq!(t, Type::array(Type::nominal("String")));
        let u = eval_with(
            vec![],
            &helpers,
            &mut store,
            "Union.new(Nominal.new(Integer), Nominal.new(String))",
        )
        .unwrap();
        assert!(matches!(u, Type::Union(_)));
    }

    #[test]
    fn conditional_on_singleton_receiver() {
        // The Bool.∧ example from §3.1.
        let helpers = HelperRegistry::new();
        let mut store = TypeStore::new();
        let src = "if (tself == Singleton.new(true)) && (a == Singleton.new(true))\n\
                     Singleton.new(true)\n\
                   elsif (tself == Singleton.new(false)) || (a == Singleton.new(false))\n\
                     Singleton.new(false)\n\
                   else\n\
                     Boolean\n\
                   end";
        let t = eval_with(
            vec![
                ("tself", TlcValue::Type(Type::Singleton(SingVal::True))),
                ("a", TlcValue::Type(Type::Singleton(SingVal::True))),
            ],
            &helpers,
            &mut store,
            src,
        )
        .unwrap();
        assert_eq!(t, Type::Singleton(SingVal::True));
        let t = eval_with(
            vec![
                ("tself", TlcValue::Type(Type::Bool)),
                ("a", TlcValue::Type(Type::Singleton(SingVal::True))),
            ],
            &helpers,
            &mut store,
            src,
        )
        .unwrap();
        assert_eq!(t, Type::Bool);
    }

    #[test]
    fn finite_hash_indexing_comp_type() {
        // The Hash#[] comp type from §2.2.
        let helpers = HelperRegistry::new();
        let mut store = TypeStore::new();
        let page_ty = store.new_finite_hash(vec![
            (HashKey::Sym("info".into()), Type::array(Type::nominal("String"))),
            (HashKey::Sym("title".into()), Type::nominal("String")),
        ]);
        let src = "if tself.is_a?(FiniteHash) && t.is_a?(Singleton)\n\
                     tself.elts[t.val]\n\
                   else\n\
                     tself.value_type\n\
                   end";
        let t = eval_with(
            vec![
                ("tself", TlcValue::Type(page_ty.clone())),
                ("t", TlcValue::Type(Type::sym("info"))),
            ],
            &helpers,
            &mut store,
            src,
        )
        .unwrap();
        assert_eq!(t, Type::array(Type::nominal("String")));
        // Fallback arm: a plain Hash<Symbol, String> receiver.
        let t = eval_with(
            vec![
                (
                    "tself",
                    TlcValue::Type(Type::hash(Type::nominal("Symbol"), Type::nominal("String"))),
                ),
                ("t", TlcValue::Type(Type::nominal("Symbol"))),
            ],
            &helpers,
            &mut store,
            src,
        )
        .unwrap();
        assert_eq!(t, Type::nominal("String"));
    }

    #[test]
    fn merge_builds_joined_schema() {
        let helpers = HelperRegistry::new();
        let mut store = TypeStore::new();
        let users = store.new_finite_hash(vec![
            (HashKey::Sym("id".into()), Type::nominal("Integer")),
            (HashKey::Sym("username".into()), Type::nominal("String")),
        ]);
        let emails =
            store.new_finite_hash(vec![(HashKey::Sym("email".into()), Type::nominal("String"))]);
        let src = "Generic.new(Table, tself.merge({ t.val => targ }))";
        let expr = parse_expr(src).unwrap();
        let classes = ClassTable::with_builtins();
        let mut bindings = HashMap::new();
        bindings.insert("tself".to_string(), TlcValue::Type(users));
        bindings.insert("t".to_string(), TlcValue::Type(Type::sym("emails")));
        bindings.insert("targ".to_string(), TlcValue::Type(emails));
        let t = eval_comp_type(&mut store, &classes, &helpers, bindings, &expr).unwrap();
        match t {
            Type::Generic { base, args } => {
                assert_eq!(base, "Table");
                let Type::FiniteHash(id) = args[0] else { panic!("expected a finite hash") };
                let data = store.finite_hash(id);
                assert_eq!(data.entries.len(), 3);
                assert!(data.get(&HashKey::Sym("emails".into())).is_some());
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn native_and_ruby_helpers() {
        let mut helpers = HelperRegistry::new();
        helpers.register_native("always_string", |_ctx, _args| {
            Ok(TlcValue::Type(Type::nominal("String")))
        });
        helpers
            .register_ruby(
                "def pick(t)\n  if t.is_a?(Singleton) then t else Nominal.new(Object) end\nend\n",
            )
            .unwrap();
        assert_eq!(helpers.len(), 2);
        assert!(helpers.contains("pick"));
        assert!(helpers.ruby_loc() >= 3);

        let mut store = TypeStore::new();
        assert_eq!(
            eval_with(vec![], &helpers, &mut store, "always_string()").unwrap(),
            Type::nominal("String")
        );
        assert_eq!(
            eval_with(vec![("x", TlcValue::Type(Type::sym("a")))], &helpers, &mut store, "pick(x)")
                .unwrap(),
            Type::sym("a")
        );
        assert_eq!(
            eval_with(
                vec![("x", TlcValue::Type(Type::nominal("String")))],
                &helpers,
                &mut store,
                "pick(x)"
            )
            .unwrap(),
            Type::nominal("Object")
        );
    }

    #[test]
    fn ruby_helpers_do_not_see_the_callers_bindings() {
        let mut helpers = HelperRegistry::new();
        helpers.register_ruby("def peek()\n  tself\nend\n").unwrap();
        let mut store = TypeStore::new();
        let tself = vec![("tself", TlcValue::Type(Type::int(3)))];
        let err = eval_with(tself, &helpers, &mut store, "peek()").unwrap_err();
        assert!(err.message.contains("`tself`"), "{}", err.message);
    }

    #[test]
    fn a_failed_default_argument_restores_the_callers_scope() {
        let mut helpers = HelperRegistry::new();
        helpers.register_ruby("def pair(a, b = a.length)\n  [a, b]\nend\n").unwrap();
        let classes = ClassTable::with_builtins();
        let mut store = TypeStore::new();
        let caller: HashMap<String, TlcValue> = [("tself".to_string(), TlcValue::Int(1))].into();
        let mut ctx = TlcCtx::new(&mut store, &classes, &helpers, caller.clone());
        assert!(ctx.call_helper("pair", &[TlcValue::Nil]).is_err(), "nil has no `length`");
        assert_eq!(ctx.bindings, caller);
        assert_eq!((ctx.depth, ctx.helper_stack.len()), (0, 0));
        // The default sees the parameters before it.
        let pair = ctx.call_helper("pair", &[TlcValue::Str("abc".into())]).unwrap();
        assert_eq!(pair, TlcValue::Array(vec![TlcValue::Str("abc".into()), TlcValue::Int(3)]));
    }

    #[test]
    fn loops_and_unknown_helpers_are_rejected() {
        let helpers = HelperRegistry::new();
        let mut store = TypeStore::new();
        assert!(eval_with(vec![], &helpers, &mut store, "while true\n 1\nend").is_err());
        assert!(eval_with(vec![], &helpers, &mut store, "mystery_helper(1)").is_err());
    }

    #[test]
    fn recursion_is_cut_off_by_fuel() {
        let mut helpers = HelperRegistry::new();
        helpers.register_ruby("def loop_forever(t)\n  loop_forever(t)\nend\n").unwrap();
        let mut store = TypeStore::new();
        let err = eval_with(
            vec![("x", TlcValue::Type(Type::Top))],
            &helpers,
            &mut store,
            "loop_forever(x)",
        )
        .unwrap_err();
        assert!(err.message.contains("step budget"));
        // The whole evaluation shares one budget, so the report must name
        // the helper that was burning it and point at its definition.
        assert!(err.message.contains("loop_forever"), "{}", err.message);
        assert!(err.span.is_some(), "exhaustion must carry the helper's span");
    }

    #[test]
    fn fuel_exhaustion_names_the_running_helper() {
        // Mutually recursive helpers exhaust the shared budget; the error
        // must blame one of the helpers involved, not the outer comp type.
        let mut helpers = HelperRegistry::new();
        helpers
            .register_ruby("def spin(t)\n  spin2(t)\nend\ndef spin2(t)\n  spin(t)\nend\n")
            .unwrap();
        let mut store = TypeStore::new();
        let err =
            eval_with(vec![("x", TlcValue::Type(Type::Top))], &helpers, &mut store, "spin(x)")
                .unwrap_err();
        assert!(err.message.contains("step budget"), "{}", err.message);
        assert!(
            err.message.contains("spin"),
            "expected the originating helper's name in: {}",
            err.message
        );
        assert!(err.span.is_some());
    }

    #[test]
    fn helper_bodies_must_terminate_and_be_pure() {
        let rejected = [
            ("def spin(t)\n  while true\n    t\n  end\nend\n", "spin", 1),
            ("def calls_out(t)\n  mystery(t)\nend\n", "calls_out", 2),
            ("def remembers(t)\n  @seen = t\n  t\nend\n", "remembers", 1),
        ];
        for (src, name, violations) in rejected {
            let mut helpers = HelperRegistry::new();
            let err = helpers.register_ruby(src).unwrap_err();
            assert!(err.message.contains(&format!("helper `{name}`")), "{}", err.message);
            assert_eq!(err.message.matches("line ").count(), violations, "{}", err.message);
            assert!(helpers.is_empty(), "{name}: a rejected source registers nothing");
        }
        // Builtins, helpers registered before and defs of the same source
        // may all be called, recursively too.
        let mut helpers = HelperRegistry::new();
        helpers.register_native("always_string", |_ctx, _args| {
            Ok(TlcValue::Type(Type::nominal("String")))
        });
        helpers
            .register_ruby(
                "def outer(t)\n  n = t.length\n  inner(always_string(n))\nend\n\
                 def inner(t)\n  outer(t)\nend\n",
            )
            .unwrap();
        assert_eq!(helpers.len(), 3);
    }

    #[test]
    fn helper_registry_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HelperRegistry>();
        assert_send_sync::<crate::env::CompRdl>();
    }

    #[test]
    fn tuple_first_comp_type() {
        let helpers = HelperRegistry::new();
        let mut store = TypeStore::new();
        let tuple = store.new_tuple(vec![Type::nominal("Integer"), Type::nominal("String")]);
        let src = "if tself.is_a?(Tuple) then tself.elems.first else tself.elem_type end";
        let t =
            eval_with(vec![("tself", TlcValue::Type(tuple))], &helpers, &mut store, src).unwrap();
        assert_eq!(t, Type::nominal("Integer"));
        let t = eval_with(
            vec![("tself", TlcValue::Type(Type::array(Type::Bool)))],
            &helpers,
            &mut store,
            src,
        )
        .unwrap();
        assert_eq!(t, Type::Bool);
    }

    #[test]
    fn is_a_against_ordinary_classes() {
        let helpers = HelperRegistry::new();
        let mut store = TypeStore::new();
        let src = "if t.is_a?(Symbol) then Singleton.new(:ok) else Nominal.new(String) end";
        let t = eval_with(vec![("t", TlcValue::Type(Type::sym("x")))], &helpers, &mut store, src)
            .unwrap();
        assert_eq!(t, Type::sym("ok"));
        let t = eval_with(
            vec![("t", TlcValue::Type(Type::nominal("Integer")))],
            &helpers,
            &mut store,
            src,
        )
        .unwrap();
        assert_eq!(t, Type::nominal("String"));
    }

    #[test]
    fn a_float_literal_is_a_float() {
        let helpers = HelperRegistry::new();
        let mut store = TypeStore::new();
        let t = eval_with(vec![], &helpers, &mut store, "Singleton.new(2.5)").unwrap();
        assert_eq!(t, Type::Singleton(SingVal::float(2.5)));
    }

    #[test]
    fn a_float_singletons_val_is_its_float() {
        let helpers = HelperRegistry::new();
        let mut store = TypeStore::new();
        let f = TlcValue::Type(Type::Singleton(SingVal::float(2.5)));
        let src =
            "if t.val.is_a?(Float) then Singleton.new(t.val * 2) else Nominal.new(Integer) end";
        let t = eval_with(vec![("t", f)], &helpers, &mut store, src).unwrap();
        assert_eq!(t, Type::Singleton(SingVal::float(5.0)));
    }

    #[test]
    fn scalar_equality_follows_ruby_and_hash_keys_stay_eql() {
        let helpers = HelperRegistry::new();
        let mut store = TypeStore::new();
        let cases = [
            ("Singleton.new(2 == 2.0)", Type::Singleton(SingVal::True)),
            ("Singleton.new(2.0 != 2)", Type::Singleton(SingVal::False)),
            ("Singleton.new(:a == 'a')", Type::Singleton(SingVal::False)),
            ("Singleton.new('ab' == 'ab')", Type::Singleton(SingVal::True)),
            ("case 2.0\nwhen 1\n :one\nwhen 2\n :two\nelse\n :other\nend", Type::sym("two")),
            ("Singleton.new([1, 2].include?(2.0))", Type::Singleton(SingVal::True)),
            // Hash keys compare as `eql?` does: `2` and `2.0` are apart.
            ("Singleton.new({2 => :a}.key?(2.0))", Type::Singleton(SingVal::False)),
            ("Singleton.new({2 => :a}[2])", Type::sym("a")),
            ("Singleton.new({2 => :a}[2.0])", Type::nil()),
        ];
        for (src, want) in cases {
            assert_eq!(eval_with(vec![], &helpers, &mut store, src), Ok(want), "{src}");
        }
    }

    #[test]
    fn integer_overflow_in_type_level_code_is_an_error() {
        let helpers = HelperRegistry::new();
        let mut store = TypeStore::new();
        let src = "Singleton.new(Singleton.new(9223372036854775807).val + 1)";
        let err = eval_with(vec![], &helpers, &mut store, src).unwrap_err();
        assert!(err.message.contains("overflows Integer"), "{err}");
    }
}
