//! Run-time side of CompRDL: mapping interpreter values to RDL types,
//! checking values against types, and the [`CompRdlHook`] that enforces the
//! dynamic checks inserted by the static checker (paper §2.4, §3, §4).
//!
//! ## The run-time check memo
//!
//! The paper's Table 2 measures the overhead of these dynamic checks on real
//! test suites, and the naive implementation pays O(structure of the value)
//! at **every** hit: `before_call` re-interns the receiver/argument types
//! into the shared [`TypeStore`] and re-evaluates the comp type, and
//! `after_call` re-walks the returned value against the expected type.  The
//! hook therefore memoizes both callbacks per call site, keyed on a stable
//! structural fingerprint of the values that flowed through the site
//! ([`value_fingerprint`]): a test suite that calls `User.exists?` a
//! thousand times with the same-shaped rows pays for one evaluation and 999
//! table hits.
//!
//! Invalidation mirrors [`crate::cache`]: every memo entry records the
//! [`TypeStore::generation`] it was computed at, and a lookup that finds an
//! entry from an older generation evicts it and re-evaluates — a schema
//! change between calls (§4 "Heap Mutation") can never replay a stale
//! verdict.  The same generation guard makes [`type_of_value`] interning
//! non-amplifying: repeated hits with structurally identical values reuse
//! the store ids minted the first time instead of growing the store
//! unboundedly across a run.
//!
//! ## Sharing the memo across hooks
//!
//! The memo itself lives in a [`SharedMemo`]: a `Send + Sync` registry
//! of bounded per-namespace tables, each behind its own lock (see the
//! [`crate::memo`] module docs), that any number of hooks (e.g. the
//! per-app hooks of the parallel corpus harness, or the warm re-runs of
//! the overhead harness) can share through an [`Arc`].  Each namespace
//! keys its entries on `(site, value fingerprint)`; hooks that must never
//! exchange verdicts (different programs whose spans collide) use
//! different namespaces, while replays of the *same* program reuse one
//! namespace so a warm memo serves every run.
//!
//! Two stamps guard every shared entry:
//!
//! * the owning hook's [`TypeStore::generation`], exactly as before, and
//! * the **namespace's epoch**, bumped whenever any hook *of that
//!   namespace* observes a store mutation ([`CompRdlHook::mutate_store`]
//!   and comp-type evaluations that mutate type-level state both bump it).
//!
//! A lookup that finds either stamp stale evicts the entry and
//! re-evaluates, so a mid-suite migration can never replay a stale
//! verdict — and, because the epoch is per namespace, one app's migration
//! no longer flushes any *other* app's warm entries.  That isolation is
//! sound because namespaces never share keys: an entry is only ever
//! replayed by hooks of the namespace that recorded it, and within one
//! namespace every hook is a deterministic replay of the same program
//! against the same starting store, whose mutations all bump the same
//! counter (equal generations then imply equal store states).
//!
//! ## Blame as diagnostics
//!
//! Check failures are recorded as [`BlameDiagnostic`]s — carrying the
//! interpreter's call-site [`Span`] and a stable code — and convert via
//! `From` into [`diagnostics::Diagnostic`], so runtime blame renders as
//! annotated snippets through `diagnostics::render_in` exactly like every
//! static error.  Memoized replays return the recorded diagnostic verbatim:
//! replayed blame is byte-identical to freshly evaluated blame, including
//! its span, and is delivered in execution order.

use crate::cache::CacheStats;
use crate::memo::{MemoTable, NamespaceState, SharedMemo};
use crate::tlc::{eval_comp_type, HelperRegistry, TlcValue};
use diagnostics::Diagnostic;
use rdl_types::{ClassTable, Fingerprint, HashKey, SingVal, Subtyper, Type, TypeStore};
use ruby_interp::{DynamicCheckHook, Value};
use ruby_syntax::Span;
use std::cell::{Cell, Ref, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// The containers a walk over a runtime value is inside of, innermost
/// first.  Runtime values can be self-referential (`a = [1]; a << a`), so a
/// walk that meets a container already on its path stops there.  Each link
/// lives in the frame of the walk's call that entered it, so the guard
/// never allocates.
struct Path<'a> {
    here: *const (),
    up: Option<&'a Path<'a>>,
}

impl Path<'_> {
    /// Whether the container `id` is on the path that ends at `path`.
    fn contains(path: Option<&Path<'_>>, id: *const ()) -> bool {
        std::iter::successors(path, |p| p.up).any(|p| p.here == id)
    }
}

/// Computes the (precise) RDL type of a runtime value.  Containers produce
/// store-backed tuple / finite hash types; strings produce const strings.
/// A container met again inside itself types as its promoted form,
/// `Array<Object>` or `Hash<Object, Object>`, which [`value_matches`]
/// accepts for it.
pub fn type_of_value(value: &Value, store: &mut TypeStore) -> Type {
    type_of_value_on(value, store, None)
}

fn type_of_value_on(value: &Value, store: &mut TypeStore, path: Option<&Path<'_>>) -> Type {
    match value {
        Value::Nil => Type::nil(),
        Value::Bool(true) => Type::Singleton(SingVal::True),
        Value::Bool(false) => Type::Singleton(SingVal::False),
        Value::Int(i) => Type::int(*i),
        Value::Float(f) => Type::Singleton(SingVal::float(*f)),
        Value::Sym(s) => Type::sym(&**s),
        Value::Str(s) => store.new_const_string(s.borrow().clone()),
        Value::Array(items) => {
            let here = Rc::as_ptr(items).cast();
            if Path::contains(path, here) {
                return Type::array(Type::object());
            }
            let path = Some(&Path { here, up: path });
            let elems = items.borrow().iter().map(|v| type_of_value_on(v, store, path)).collect();
            store.new_tuple(elems)
        }
        Value::Hash(pairs) => {
            let here = Rc::as_ptr(pairs).cast();
            if Path::contains(path, here) {
                return Type::hash(Type::object(), Type::object());
            }
            let path = Some(&Path { here, up: path });
            let mut entries = Vec::new();
            let mut irregular = false;
            for (k, v) in pairs.borrow().iter() {
                let key = match k {
                    Value::Sym(s) => HashKey::Sym(s.to_string()),
                    Value::Str(s) => HashKey::Str(s.borrow().clone()),
                    Value::Int(i) => HashKey::Int(*i),
                    _ => {
                        irregular = true;
                        break;
                    }
                };
                entries.push((key, type_of_value_on(v, store, path)));
            }
            if irregular {
                Type::hash(Type::object(), Type::object())
            } else {
                store.new_finite_hash(entries)
            }
        }
        Value::Object(_) => Type::nominal(value.class_name()),
        Value::Class(c) => Type::class_of(&**c),
        Value::Lambda(_) => Type::nominal("Proc"),
    }
}

/// A stable structural fingerprint of a runtime value, used to key the
/// per-call-site check memo: two values digest identically exactly when
/// [`type_of_value`] would map them to structurally identical types, their
/// [`Value::inspect`] renderings agree, and [`value_matches`] cannot tell
/// them apart against any type.  Mutable containers are digested by current
/// content, so an in-place mutation changes the fingerprint.
pub fn value_fingerprint(value: &Value) -> u64 {
    let mut fp = Fingerprint::new();
    hash_value(&mut fp, value);
    fp.finish()
}

fn hash_value(fp: &mut Fingerprint, value: &Value) {
    hash_value_on(fp, value, None);
}

/// A container met again inside itself digests as a back-reference marker
/// for its kind, so the digest terminates, and values that
/// [`type_of_value`] promotes differently digest differently.
fn hash_value_on(fp: &mut Fingerprint, value: &Value, path: Option<&Path<'_>>) {
    match value {
        Value::Nil => fp.write_u8(0),
        Value::Bool(false) => fp.write_u8(1),
        Value::Bool(true) => fp.write_u8(2),
        Value::Int(i) => {
            fp.write_u8(3);
            fp.write_i64(*i);
        }
        Value::Float(f) => {
            fp.write_u8(4);
            fp.write_u64(f.to_bits());
        }
        Value::Sym(s) => {
            fp.write_u8(5);
            fp.write_str(s);
        }
        Value::Str(s) => {
            fp.write_u8(6);
            fp.write_str(&s.borrow());
        }
        Value::Array(items) => {
            let here = Rc::as_ptr(items).cast();
            if Path::contains(path, here) {
                fp.write_u8(0xFE);
                return;
            }
            let path = Some(&Path { here, up: path });
            fp.write_u8(7);
            let items = items.borrow();
            fp.write_usize(items.len());
            for v in items.iter() {
                hash_value_on(fp, v, path);
            }
        }
        Value::Hash(pairs) => {
            let here = Rc::as_ptr(pairs).cast();
            if Path::contains(path, here) {
                fp.write_u8(0xFD);
                return;
            }
            let path = Some(&Path { here, up: path });
            fp.write_u8(8);
            let pairs = pairs.borrow();
            fp.write_usize(pairs.len());
            for (k, v) in pairs.iter() {
                hash_value_on(fp, k, path);
                hash_value_on(fp, v, path);
            }
        }
        // Only the class name matters: `type_of_value` maps objects to their
        // nominal type, `value_matches` only consults the class, and
        // `inspect` prints `#<Class>`.
        Value::Object(_) => {
            fp.write_u8(9);
            fp.write_str(&value.object_class().unwrap_or_default());
        }
        Value::Class(c) => {
            fp.write_u8(10);
            fp.write_str(c);
        }
        // All lambdas type as `Proc` and inspect as `#<Proc>`.
        Value::Lambda(_) => fp.write_u8(11),
    }
}

/// Whether `value`'s class is `class` or a subclass of it.  A builtin value
/// names a static class and an object lends its own, so no class name is
/// copied.
fn is_instance_of(value: &Value, class: &str, classes: &ClassTable) -> bool {
    match value.object_class() {
        Some(own) => classes.is_subclass(&own, class),
        None => classes.is_subclass(value.builtin_class_name().unwrap_or_default(), class),
    }
}

/// Checks whether a runtime value inhabits a type.  This is the membership
/// test used by the inserted dynamic checks (`⌈A⌉e.m(e)` in λC).
pub fn value_matches(value: &Value, ty: &Type, store: &TypeStore, classes: &ClassTable) -> bool {
    let ty = store.resolve(ty);
    match &ty {
        Type::Top | Type::Dynamic | Type::Var(_) => true,
        Type::Bot => false,
        Type::Bool => matches!(value, Value::Bool(_)),
        Type::Optional(inner) | Type::Vararg(inner) => {
            matches!(value, Value::Nil) || value_matches(value, inner, store, classes)
        }
        Type::Union(members) => members.iter().any(|m| value_matches(value, m, store, classes)),
        Type::Singleton(sv) => match (sv, value) {
            (SingVal::Nil, Value::Nil) => true,
            (SingVal::True, Value::Bool(true)) => true,
            (SingVal::False, Value::Bool(false)) => true,
            (SingVal::Int(i), Value::Int(j)) => i == j,
            (SingVal::FloatBits(b), Value::Float(f)) => f64::from_bits(*b) == *f,
            (SingVal::Sym(s), Value::Sym(t)) => **s == **t,
            (SingVal::Class(c), Value::Class(d)) => **c == **d,
            _ => false,
        },
        Type::ConstString(id) => match (store.const_string_value(*id), value) {
            (Some(expected), Value::Str(actual)) => *actual.borrow() == expected,
            (None, Value::Str(_)) => true,
            _ => false,
        },
        Type::Nominal(class) => {
            // `nil` is allowed wherever an object is expected (λC); blame for
            // nil flows from actual method invocation instead.
            if matches!(value, Value::Nil) {
                return true;
            }
            is_instance_of(value, class, classes)
                || (class == "Boolean" && matches!(value, Value::Bool(_)))
        }
        Type::Generic { base, args } => match (base.as_str(), value) {
            ("Array", Value::Array(items)) => {
                let elem = args.first().cloned().unwrap_or(Type::Top);
                items.borrow().iter().all(|v| value_matches(v, &elem, store, classes))
            }
            ("Hash", Value::Hash(pairs)) => {
                let kt = args.first().cloned().unwrap_or(Type::Top);
                let vt = args.get(1).cloned().unwrap_or(Type::Top);
                pairs.borrow().iter().all(|(k, v)| {
                    value_matches(k, &kt, store, classes) && value_matches(v, &vt, store, classes)
                })
            }
            // A `Table<T>` value is modelled by whatever object the ORM
            // returns (a relation object or an array of rows).
            ("Table", _) => true,
            ("Enumerator", Value::Array(_)) => true,
            (other, v) => matches!(v, Value::Nil) || is_instance_of(v, other, classes),
        },
        Type::Tuple(id) => match value {
            Value::Array(items) => {
                let data = store.tuple(*id);
                let items = items.borrow();
                items.len() == data.elems.len()
                    && items
                        .iter()
                        .zip(data.elems.iter())
                        .all(|(v, t)| value_matches(v, t, store, classes))
            }
            Value::Nil => true,
            _ => false,
        },
        Type::FiniteHash(id) => match value {
            Value::Hash(_) => {
                let data = store.finite_hash(*id);
                data.entries.iter().all(|(k, t)| {
                    let key = match k {
                        HashKey::Sym(s) => Value::Sym(s.as_str().into()),
                        HashKey::Str(s) => Value::str(s.clone()),
                        HashKey::Int(i) => Value::Int(*i),
                    };
                    match value.hash_get(&key) {
                        Some(v) => value_matches(&v, t, store, classes),
                        None => {
                            matches!(t, Type::Optional(_))
                                || matches!(t, Type::Singleton(SingVal::Nil))
                        }
                    }
                })
            }
            Value::Nil => true,
            _ => false,
        },
    }
}

/// A dynamic check attached to one rewritten call site.
#[derive(Debug, Clone)]
pub struct InsertedCheck {
    /// The call site's span (used as its identity).
    pub site: Span,
    /// Human readable description of the call (`Hash#[]`, `Table#joins`...).
    pub description: String,
    /// The return type computed at type-check time; the returned value must
    /// inhabit it.
    pub expected_return: Type,
    /// If the signature used a comp type, the information needed to
    /// re-evaluate it at run time for the consistency check (§4).
    pub consistency: Option<ConsistencyCheck>,
}

/// Re-evaluation data for the comp-type consistency check.
#[derive(Debug, Clone)]
pub struct ConsistencyCheck {
    /// The comp-type expression for the return position.
    pub ret_expr: ruby_syntax::Expr,
    /// Binder names of the parameters, in positional order (bound to the
    /// run-time types of the arguments when re-evaluating).
    pub binders: Vec<Option<String>>,
    /// The type the comp type evaluated to at type-check time.
    pub expected: Type,
}

/// Configuration for which categories of checks the hook enforces and how
/// they execute; used by the ablation and overhead benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// Check returned values against the computed return type.
    pub return_checks: bool,
    /// Re-evaluate comp types at run time and compare (heap-mutation guard).
    pub consistency_checks: bool,
    /// Memoize per-site check outcomes keyed on value fingerprints (see the
    /// module docs).  Disable to get the paper's pay-at-every-hit baseline
    /// that `corpus::table2_overhead` measures against.
    pub memoize: bool,
    /// Raise blame as an error at the call site (`true`, the λC semantics)
    /// or record it and let execution continue (`false`, used by the
    /// overhead harness to compare complete blame sets across runs).
    pub raise_blame: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            return_checks: true,
            consistency_checks: true,
            memoize: true,
            raise_blame: true,
        }
    }
}

/// Diagnostic code of a failed return check (`RT0101`).
pub const BLAME_RETURN: &str = "RT0101";
/// Diagnostic code of a failed §4 consistency check (`RT0102`).
pub const BLAME_CONSISTENCY: &str = "RT0102";
/// Diagnostic code of a comp type that failed to evaluate at run time
/// (`RT0103`).
pub const BLAME_EVAL: &str = "RT0103";

/// One runtime blame: the failed check's message together with the
/// interpreter's call-site [`Span`] and a stable diagnostic code.
///
/// Blame flows through the same diagnostics spine as every static error:
/// `From<BlameDiagnostic> for Diagnostic` turns it into a span-carrying
/// [`Diagnostic`] that `diagnostics::render_in` renders as an annotated
/// snippet.  Memoized replays reproduce the recorded value verbatim, so two
/// runs that blame at the same sites produce byte-identical diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlameDiagnostic {
    /// The checked call site the blame was raised at.
    pub site: Span,
    /// Stable code: [`BLAME_RETURN`], [`BLAME_CONSISTENCY`] or
    /// [`BLAME_EVAL`].
    pub code: &'static str,
    /// The headline message (store-backed types rendered structurally).
    pub message: String,
}

impl BlameDiagnostic {
    fn new(code: &'static str, site: Span, message: String) -> Self {
        BlameDiagnostic { site, code, message }
    }
}

impl std::fmt::Display for BlameDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl From<BlameDiagnostic> for Diagnostic {
    fn from(blame: BlameDiagnostic) -> Diagnostic {
        Diagnostic::error(blame.code, blame.message)
            .with_label(blame.site, "blame raised at this checked call")
    }
}

/// A cached [`type_of_value`] result, reused while the store generation is
/// unchanged so repeated hits stop allocating fresh store ids.  The table
/// maps run-time **values** to store-backed types minted in this hook's
/// own store.
#[derive(Debug, Clone)]
struct CachedValueType {
    ty: Type,
    generation: u64,
}

/// The [`DynamicCheckHook`] implementation installed into the interpreter
/// for programs rewritten by CompRDL.
///
/// Checks are keyed by their full [`Span`] — including the source-file id —
/// so multi-file programs whose byte offsets coincide across files can never
/// fire a check at the wrong site.
///
/// The check memo lives in an [`Arc<SharedMemo>`]: by default a private one,
/// but [`CompRdlHook::with_shared_memo`] lets many hooks — across threads
/// and across warm re-runs — share a single table (see the module docs).
pub struct CompRdlHook {
    checks: HashMap<Span, InsertedCheck>,
    store: RefCell<TypeStore>,
    classes: ClassTable,
    helpers: HelperRegistry,
    config: CheckConfig,
    blames: RefCell<Vec<BlameDiagnostic>>,
    /// The memo-shared state of this hook's namespace — its verdicts, epoch
    /// and aggregate counters — resolved once at construction so the
    /// per-call paths never touch the memo's namespace registry.
    ns: Arc<NamespaceState>,
    /// Value-fingerprint → cached type.  Per-hook, *not* shared: the cached
    /// [`Type`]s hold ids of this hook's own store, which mean nothing to a
    /// sibling hook's store.
    value_types: RefCell<HashMap<u64, CachedValueType>>,
    /// This hook's own hit / miss / invalidation counters (the shared memo
    /// additionally aggregates across hooks).
    stats: Cell<CacheStats>,
}

impl CompRdlHook {
    /// Builds a hook from the checks produced by the static checker, with a
    /// private memo.
    pub fn new(
        checks: Vec<InsertedCheck>,
        store: TypeStore,
        classes: ClassTable,
        helpers: HelperRegistry,
        config: CheckConfig,
    ) -> Self {
        Self::with_shared_memo(
            checks,
            store,
            classes,
            helpers,
            config,
            Arc::new(SharedMemo::new()),
            0,
        )
    }

    /// Builds a hook whose check memo is the given [`SharedMemo`], under the
    /// given namespace.  Hooks evaluating the *same program* (warm re-runs,
    /// or one run per harness thread) should share a namespace (see
    /// [`crate::memo_namespace`]); unrelated programs must not, since their spans
    /// can collide.
    pub fn with_shared_memo(
        checks: Vec<InsertedCheck>,
        store: TypeStore,
        classes: ClassTable,
        helpers: HelperRegistry,
        config: CheckConfig,
        memo: Arc<SharedMemo>,
        namespace: u64,
    ) -> Self {
        let map = checks.into_iter().map(|c| (c.site, c)).collect();
        let ns = memo.namespace_state(namespace);
        CompRdlHook {
            checks: map,
            store: RefCell::new(store),
            classes,
            helpers,
            config,
            blames: RefCell::new(Vec::new()),
            ns,
            value_types: RefCell::new(HashMap::new()),
            stats: Cell::new(CacheStats::default()),
        }
    }

    /// Borrows the blame diagnostics produced so far, in execution order
    /// (also raised as errors at the call sites unless
    /// [`CheckConfig::raise_blame`] is off).  A borrow, not a clone: the
    /// overhead harness polls this per run per mode, and cloning the whole
    /// vector each time was measurable on blame-heavy suites.
    ///
    /// Drop the returned [`Ref`] before driving any further checked calls:
    /// delivering a blame needs the mutable side of the same `RefCell`, so
    /// a borrow held across `before_call` / `after_call` panics.  Harnesses
    /// that read the blames exactly once after a run should use
    /// [`CompRdlHook::take_blames`] instead.
    pub fn blames(&self) -> Ref<'_, [BlameDiagnostic]> {
        Ref::map(self.blames.borrow(), |v| v.as_slice())
    }

    /// Number of blames recorded so far.
    pub fn blame_count(&self) -> usize {
        self.blames.borrow().len()
    }

    /// Takes ownership of the recorded blame diagnostics (leaving the hook's
    /// list empty).  Harnesses that consume the blames exactly once should
    /// prefer this over [`CompRdlHook::blames`] + clone.
    pub fn take_blames(&self) -> Vec<BlameDiagnostic> {
        std::mem::take(&mut *self.blames.borrow_mut())
    }

    /// Hit / miss / invalidation counters of *this hook's* memo lookups (all
    /// zeros when [`CheckConfig::memoize`] is off).  [`SharedMemo::stats`]
    /// aggregates across every sharing hook.
    pub fn memo_stats(&self) -> CacheStats {
        self.stats.get()
    }

    /// Number of store-backed types currently interned in the hook's store.
    /// The memo keeps this from growing per-hit; the overhead harness
    /// asserts it.
    pub fn store_size(&self) -> usize {
        self.store.borrow().len()
    }

    /// Runs `f` against the hook's type store.  This models type-level state
    /// mutating *between* calls (§4 "Heap Mutation" — e.g. a migration
    /// changing a table's schema mid-run); if `f` mutates the store (its
    /// generation moves), the hook's **namespace epoch** is bumped so no
    /// hook of this namespace can replay a verdict recorded before the
    /// mutation.  Other namespaces' warm entries are untouched — they never
    /// share keys with this one.
    pub fn mutate_store<R>(&self, f: impl FnOnce(&mut TypeStore) -> R) -> R {
        let mut store = self.store.borrow_mut();
        let before = store.generation();
        let result = f(&mut store);
        if store.generation() != before {
            self.ns.bump_epoch();
        }
        result
    }

    fn note_hit(&self) {
        let mut stats = self.stats.get();
        stats.hits += 1;
        self.stats.set(stats);
    }

    fn note_miss(&self, invalidated: bool) {
        let mut stats = self.stats.get();
        stats.misses += 1;
        if invalidated {
            stats.invalidations += 1;
        }
        self.stats.set(stats);
    }

    /// Records a blame and either raises it (the default λC behaviour) or
    /// swallows it so the run can continue collecting the full blame set.
    /// Delivery happens at call time for replays and fresh evaluations
    /// alike, so the recorded blame *sequence* is execution order in both.
    fn deliver(&self, outcome: Result<(), BlameDiagnostic>) -> Result<(), String> {
        match outcome {
            Ok(()) => Ok(()),
            Err(blame) => {
                let raised = self.config.raise_blame.then(|| blame.message.clone());
                self.blames.borrow_mut().push(blame);
                match raised {
                    Some(message) => Err(message),
                    None => Ok(()),
                }
            }
        }
    }

    /// [`type_of_value`] with generation-guarded interning: while the store
    /// is unmutated, structurally identical values map to the *same* store
    /// ids instead of freshly allocated ones.
    fn type_of_value_cached(&self, store: &mut TypeStore, value: &Value) -> Type {
        let fp = value_fingerprint(value);
        let mut table = self.value_types.borrow_mut();
        if let Some(interned) = table.get(&fp) {
            if interned.generation == store.generation() {
                return interned.ty.clone();
            }
        }
        let ty = type_of_value(value, store);
        table.insert(fp, CachedValueType { ty: ty.clone(), generation: store.generation() });
        ty
    }

    /// Evaluates the §4 consistency check, returning `Err` with the blame
    /// diagnostic (not yet recorded) on failure.
    fn eval_consistency(
        &self,
        check: &InsertedCheck,
        consistency: &ConsistencyCheck,
        recv: &Value,
        args: &[Value],
    ) -> Result<(), BlameDiagnostic> {
        let mut store = self.store.borrow_mut();
        let mut bindings: HashMap<String, TlcValue> = HashMap::new();
        {
            let recv_ty = if self.config.memoize {
                self.type_of_value_cached(&mut store, recv)
            } else {
                type_of_value(recv, &mut store)
            };
            bindings.insert("tself".to_string(), TlcValue::Type(recv_ty));
            for (i, binder) in consistency.binders.iter().enumerate() {
                if let Some(name) = binder {
                    let arg_ty = match args.get(i) {
                        Some(v) if self.config.memoize => self.type_of_value_cached(&mut store, v),
                        Some(v) => type_of_value(v, &mut store),
                        None => Type::nil(),
                    };
                    bindings.insert(name.clone(), TlcValue::Type(arg_ty));
                }
            }
        }
        let recomputed = eval_comp_type(
            &mut store,
            &self.classes,
            &self.helpers,
            bindings,
            &consistency.ret_expr,
        );
        match recomputed {
            Ok(t) => {
                // The comp type may legitimately compute a *more precise*
                // type at run time than it did statically (singleton
                // receivers); it must never compute an incompatible one.
                let sub = Subtyper::new(&self.classes);
                if sub.is_subtype(&store, &t, &consistency.expected)
                    || sub.is_subtype(&store, &consistency.expected, &t)
                {
                    Ok(())
                } else {
                    // Render store-backed types structurally: raw `Display`
                    // leaks store ids (`#fhash7`), which differ between
                    // memoized and unmemoized runs and mean nothing to the
                    // user.
                    Err(BlameDiagnostic::new(
                        BLAME_CONSISTENCY,
                        check.site,
                        format!(
                            "{}: comp type evaluated to `{}` at run time but `{}` at \
                             type-check time",
                            check.description,
                            store.render(&t),
                            store.render(&consistency.expected)
                        ),
                    ))
                }
            }
            Err(e) => Err(BlameDiagnostic::new(
                BLAME_EVAL,
                check.site,
                format!("{}: comp type failed at run time: {}", check.description, e),
            )),
        }
    }
}

impl std::fmt::Debug for CompRdlHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompRdlHook").field("checks", &self.checks.len()).finish()
    }
}

impl DynamicCheckHook for CompRdlHook {
    fn has_check(&self, site: Span) -> bool {
        self.checks.contains_key(&site)
    }

    fn before_call(&self, site: Span, recv: &Value, args: &[Value]) -> Result<(), String> {
        if !self.config.consistency_checks {
            return Ok(());
        }
        let Some(check) = self.checks.get(&site) else { return Ok(()) };
        let Some(consistency) = &check.consistency else { return Ok(()) };

        let key = self.config.memoize.then(|| {
            let mut fp = Fingerprint::new();
            hash_value(&mut fp, recv);
            fp.write_usize(args.len());
            for a in args {
                hash_value(&mut fp, a);
            }
            (site, fp.finish())
        });
        let stamp = key.map(|_| (self.store.borrow().generation(), self.ns.epoch()));
        if let (Some(key), Some((generation, _))) = (&key, stamp) {
            let (cached, invalidated) = self.ns.lookup(MemoTable::Before, key, generation);
            match cached {
                Some(outcome) => {
                    self.note_hit();
                    return self.deliver(outcome);
                }
                None => self.note_miss(invalidated),
            }
        }

        let generation_before = self.store.borrow().generation();
        let outcome = self.eval_consistency(check, consistency, recv, args);
        let mutated = self.store.borrow().generation() != generation_before;
        if mutated {
            // The evaluation itself mutated type-level state (comp-type
            // helpers hold `&mut TypeStore` — e.g. an in-band schema
            // migration).  Every hook of this namespace must re-validate.
            self.ns.bump_epoch();
        }
        if let (false, Some(key), Some((generation, epoch))) = (mutated, key, stamp) {
            // Record the verdict stamped with the generation/epoch read
            // before evaluation.  A verdict whose evaluation *mutated* the
            // store is never recorded at all: replaying it would skip the
            // evaluation's side effect, and although its pre-mutation stamp
            // makes it stale for this hook, a sibling hook that sampled the
            // epoch in the window before the bump above could still match
            // the stamp and replay it — so the only safe entry is no entry.
            // The next call re-evaluates, exactly like the unmemoized
            // baseline.
            self.ns.insert(MemoTable::Before, &key, generation, epoch, &outcome);
        }
        self.deliver(outcome)
    }

    fn after_call(&self, site: Span, ret: &Value) -> Result<(), String> {
        if !self.config.return_checks {
            return Ok(());
        }
        let Some(check) = self.checks.get(&site) else { return Ok(()) };

        let key = self.config.memoize.then(|| (site, value_fingerprint(ret)));
        let stamp = key.map(|_| (self.store.borrow().generation(), self.ns.epoch()));
        if let (Some(key), Some((generation, _))) = (&key, stamp) {
            let (cached, invalidated) = self.ns.lookup(MemoTable::After, key, generation);
            match cached {
                Some(outcome) => {
                    self.note_hit();
                    return self.deliver(outcome);
                }
                None => self.note_miss(invalidated),
            }
        }

        let store = self.store.borrow();
        let outcome = if value_matches(ret, &check.expected_return, &store, &self.classes) {
            Ok(())
        } else {
            Err(BlameDiagnostic::new(
                BLAME_RETURN,
                check.site,
                format!(
                    "{}: returned {} which is not a {}",
                    check.description,
                    ret.inspect(),
                    store.render(&check.expected_return)
                ),
            ))
        };
        drop(store);
        if let (Some(key), Some((generation, epoch))) = (key, stamp) {
            self.ns.insert(MemoTable::After, &key, generation, epoch, &outcome);
        }
        self.deliver(outcome)
    }
}

/// Convenience constructor: wraps checks in an [`Rc`] ready to hand to
/// [`ruby_interp::Interpreter::set_hook`], with a private memo.
pub fn make_hook(
    checks: Vec<InsertedCheck>,
    store: TypeStore,
    classes: ClassTable,
    helpers: HelperRegistry,
    config: CheckConfig,
) -> Rc<CompRdlHook> {
    Rc::new(CompRdlHook::new(checks, store, classes, helpers, config))
}

/// Like [`make_hook`], but recording into the given [`SharedMemo`] under
/// `namespace` (see [`crate::memo_namespace`]).  This is what the corpus harnesses
/// use so every per-app hook — across threads and across warm re-runs —
/// shares one memo.
pub fn make_hook_shared(
    checks: Vec<InsertedCheck>,
    store: TypeStore,
    classes: ClassTable,
    helpers: HelperRegistry,
    config: CheckConfig,
    memo: Arc<SharedMemo>,
    namespace: u64,
) -> Rc<CompRdlHook> {
    Rc::new(CompRdlHook::with_shared_memo(checks, store, classes, helpers, config, memo, namespace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::memo_namespace;

    fn classes() -> ClassTable {
        let mut ct = ClassTable::with_builtins();
        ct.add_model_class("User", "ActiveRecord::Base");
        ct
    }

    #[test]
    fn type_of_value_forms() {
        let mut store = TypeStore::new();
        assert_eq!(type_of_value(&Value::Int(3), &mut store), Type::int(3));
        assert_eq!(type_of_value(&Value::Sym("a".into()), &mut store), Type::sym("a"));
        assert!(matches!(type_of_value(&Value::str("x"), &mut store), Type::ConstString(_)));
        assert!(matches!(
            type_of_value(&Value::array(vec![Value::Int(1)]), &mut store),
            Type::Tuple(_)
        ));
        assert!(matches!(
            type_of_value(&Value::hash(vec![(Value::Sym("a".into()), Value::Int(1))]), &mut store),
            Type::FiniteHash(_)
        ));
        assert_eq!(type_of_value(&Value::new_object("User"), &mut store), Type::nominal("User"));
        assert_eq!(type_of_value(&Value::Class("User".into()), &mut store), Type::class_of("User"));
    }

    #[test]
    fn self_referential_containers_type_as_their_promoted_form() {
        let mut store = TypeStore::new();
        let classes = classes();
        let push = |array: &Value, item: Value| {
            let Value::Array(items) = array else { unreachable!() };
            items.borrow_mut().push(item);
        };
        // a = [1]; a.push(a)
        let a = Value::array(vec![Value::Int(1)]);
        push(&a, a.clone());
        let ty = type_of_value(&a, &mut store);
        let Type::Tuple(id) = ty else { panic!("{ty}") };
        assert_eq!(store.tuple(id).elems, [Type::int(1), Type::array(Type::object())]);
        assert!(value_matches(&a, &ty, &store, &classes));
        // h = {}; h[:a] = h
        let h = Value::hash(vec![]);
        h.hash_set(Value::Sym("a".into()), h.clone());
        let ty = type_of_value(&h, &mut store);
        let Type::FiniteHash(id) = ty else { panic!("{ty}") };
        let promoted = Type::hash(Type::object(), Type::object());
        assert_eq!(store.finite_hash(id).get(&HashKey::Sym("a".into())), Some(&promoted));
        assert!(value_matches(&h, &ty, &store, &classes));
        // [{a: <the array>}] and [<h>] meet different containers again, so
        // they type apart and must digest apart.
        let x = Value::array(vec![]);
        push(&x, Value::hash(vec![(Value::Sym("a".into()), x.clone())]));
        let y = Value::array(vec![h.clone()]);
        let (tx, ty) = (type_of_value(&x, &mut store), type_of_value(&y, &mut store));
        assert_ne!(store.render(&tx), store.render(&ty));
        assert_ne!(value_fingerprint(&x), value_fingerprint(&y));
    }

    #[test]
    fn value_matching_basics() {
        let store = TypeStore::new();
        let classes = classes();
        assert!(value_matches(&Value::Int(5), &Type::nominal("Integer"), &store, &classes));
        assert!(value_matches(&Value::Int(5), &Type::nominal("Numeric"), &store, &classes));
        assert!(!value_matches(&Value::Int(5), &Type::nominal("String"), &store, &classes));
        assert!(value_matches(&Value::Bool(true), &Type::Bool, &store, &classes));
        assert!(value_matches(&Value::Nil, &Type::nominal("String"), &store, &classes));
        assert!(value_matches(
            &Value::str("x"),
            &Type::union([Type::nominal("String"), Type::nominal("Integer")]),
            &store,
            &classes
        ));
        assert!(!value_matches(
            &Value::Sym("x".into()),
            &Type::union([Type::nominal("String"), Type::nominal("Integer")]),
            &store,
            &classes
        ));
    }

    #[test]
    fn value_matching_containers() {
        let mut store = TypeStore::new();
        let classes = classes();
        let arr = Value::array(vec![Value::str("a"), Value::str("b")]);
        assert!(value_matches(&arr, &Type::array(Type::nominal("String")), &store, &classes));
        assert!(!value_matches(&arr, &Type::array(Type::nominal("Integer")), &store, &classes));

        let tuple_ty = store.new_tuple(vec![Type::nominal("Integer"), Type::nominal("String")]);
        let tup = Value::array(vec![Value::Int(1), Value::str("x")]);
        assert!(value_matches(&tup, &tuple_ty, &store, &classes));
        let wrong = Value::array(vec![Value::str("x"), Value::Int(1)]);
        assert!(!value_matches(&wrong, &tuple_ty, &store, &classes));

        let fh = store.new_finite_hash(vec![
            (HashKey::Sym("info".into()), Type::array(Type::nominal("String"))),
            (HashKey::Sym("title".into()), Type::nominal("String")),
        ]);
        let page = Value::hash(vec![
            (Value::Sym("info".into()), Value::array(vec![Value::str("u")])),
            (Value::Sym("title".into()), Value::str("t")),
        ]);
        assert!(value_matches(&page, &fh, &store, &classes));
        let bad_page = Value::hash(vec![(Value::Sym("title".into()), Value::str("t"))]);
        assert!(!value_matches(&bad_page, &fh, &store, &classes));
    }

    #[test]
    fn hook_checks_return_types() {
        let mut store = TypeStore::new();
        let site = Span::new(10, 20, 3);
        let check = InsertedCheck {
            site,
            description: "Hash#[]".to_string(),
            expected_return: Type::array(Type::nominal("String")),
            consistency: None,
        };
        let _ = &mut store;
        let hook = CompRdlHook::new(
            vec![check],
            store,
            classes(),
            HelperRegistry::new(),
            CheckConfig::default(),
        );
        assert!(hook.has_check(site));
        assert!(!hook.has_check(Span::new(0, 1, 1)));
        let good = Value::array(vec![Value::str("a")]);
        assert!(hook.after_call(site, &good).is_ok());
        let bad = Value::str("not an array");
        let err = hook.after_call(site, &bad).unwrap_err();
        assert!(err.contains("Hash#[]"));
        assert_eq!(hook.blames().len(), 1);
    }

    #[test]
    fn hook_consistency_check_detects_schema_change() {
        // Simulates §4: the comp type consults mutable state (bound helper)
        // whose answer changes between type checking and the call.
        let mut helpers = HelperRegistry::new();
        helpers.register_native("current_schema", |ctx, _args| {
            // Reads the binding `$schema_columns` (set from the "DB").
            Ok(ctx
                .bindings
                .get("$schema_columns")
                .cloned()
                .unwrap_or(crate::tlc::TlcValue::Type(Type::nominal("String"))))
        });
        let site = Span::new(1, 2, 1);
        let expr = ruby_syntax::parse_expr("current_schema()").unwrap();
        let check = InsertedCheck {
            site,
            description: "Table#where".to_string(),
            expected_return: Type::object(),
            consistency: Some(ConsistencyCheck {
                ret_expr: expr,
                binders: vec![],
                expected: Type::nominal("Integer"),
            }),
        };
        let hook = CompRdlHook::new(
            vec![check],
            TypeStore::new(),
            classes(),
            helpers,
            CheckConfig::default(),
        );
        // The helper returns String (default binding) but type checking saw
        // Integer — the consistency check must blame.
        let err = hook.before_call(site, &Value::Class("User".into()), &[]).unwrap_err();
        assert!(err.contains("type-check time"));
    }

    #[test]
    fn value_fingerprint_tracks_structure_and_mutation() {
        let a = Value::array(vec![Value::Int(1), Value::str("x")]);
        let b = Value::array(vec![Value::Int(1), Value::str("x")]);
        assert_eq!(value_fingerprint(&a), value_fingerprint(&b), "distinct Rcs, same structure");
        assert_ne!(
            value_fingerprint(&a),
            value_fingerprint(&Value::array(vec![Value::str("x"), Value::Int(1)]))
        );
        // In-place mutation changes the digest.
        let before = value_fingerprint(&a);
        if let Value::Array(items) = &a {
            items.borrow_mut().push(Value::Nil);
        }
        assert_ne!(value_fingerprint(&a), before);
        // Nesting is not flattened away.
        let flat = Value::array(vec![Value::Int(1), Value::Int(2)]);
        let nested = Value::array(vec![Value::array(vec![Value::Int(1), Value::Int(2)])]);
        assert_ne!(value_fingerprint(&flat), value_fingerprint(&nested));
    }

    #[test]
    fn cyclic_values_fingerprint_and_check_without_overflowing() {
        // `a = []; a << a` is expressible in the interpreted subset; the
        // default-on memo must not turn a check the unmemoized hook handled
        // fine into a stack overflow.
        let cyclic = Value::array(vec![Value::Int(1)]);
        if let Value::Array(items) = &cyclic {
            items.borrow_mut().push(cyclic.clone());
        }
        let other = Value::array(vec![Value::Int(1)]);
        if let Value::Array(items) = &other {
            items.borrow_mut().push(other.clone());
        }
        assert_eq!(
            value_fingerprint(&cyclic),
            value_fingerprint(&other),
            "structurally identical cycles digest identically"
        );
        assert_ne!(
            value_fingerprint(&cyclic),
            value_fingerprint(&Value::array(vec![Value::Int(1)]))
        );

        let site = Span::new(2, 4, 1);
        let check = InsertedCheck {
            site,
            description: "Array#dup".to_string(),
            expected_return: Type::nominal("Array"),
            consistency: None,
        };
        let hook = CompRdlHook::new(
            vec![check],
            TypeStore::new(),
            classes(),
            HelperRegistry::new(),
            CheckConfig::default(),
        );
        for _ in 0..3 {
            assert!(hook.after_call(site, &cyclic).is_ok());
        }
        assert!(hook.memo_stats().hits >= 2);
    }

    #[test]
    fn repeated_hits_are_memoized_and_do_not_grow_the_store() {
        let site = Span::new(10, 20, 3);
        let check = InsertedCheck {
            site,
            description: "Array#map".to_string(),
            expected_return: Type::array(Type::nominal("String")),
            consistency: None,
        };
        let hook = CompRdlHook::new(
            vec![check],
            TypeStore::new(),
            classes(),
            HelperRegistry::new(),
            CheckConfig::default(),
        );
        let value = Value::array(vec![Value::str("a"), Value::str("b")]);
        for _ in 0..5 {
            assert!(hook.after_call(site, &value).is_ok());
        }
        let stats = hook.memo_stats();
        assert_eq!((stats.misses, stats.hits), (1, 4), "{stats:?}");
        let size_after_first = hook.store_size();
        for _ in 0..5 {
            assert!(hook.after_call(site, &value).is_ok());
        }
        assert_eq!(hook.store_size(), size_after_first, "store must not grow per hit");
    }

    #[test]
    fn memoized_blame_replays_are_byte_identical() {
        let site = Span::new(1, 2, 1);
        let mut store = TypeStore::new();
        // A store-backed expected type, so the message exercises the
        // structural rendering rather than the raw-id Display.
        let expected = store.new_finite_hash(vec![(
            rdl_types::HashKey::Sym("id".into()),
            Type::nominal("Integer"),
        )]);
        let check = InsertedCheck {
            site,
            description: "Table#first".to_string(),
            expected_return: expected,
            consistency: None,
        };
        let hook = CompRdlHook::new(
            vec![check],
            store,
            classes(),
            HelperRegistry::new(),
            CheckConfig { raise_blame: false, ..CheckConfig::default() },
        );
        let bad = Value::Int(7);
        for _ in 0..3 {
            assert!(hook.after_call(site, &bad).is_ok(), "raise_blame off must not raise");
        }
        let blames = hook.blames();
        assert_eq!(blames.len(), 3, "every hit records a blame");
        assert_eq!(blames[0], blames[1], "replayed blame must equal the fresh one verbatim");
        assert_eq!(blames[1], blames[2]);
        assert_eq!(blames[0].site, site, "blame carries the call-site span");
        assert_eq!(blames[0].code, BLAME_RETURN);
        assert!(
            blames[0].message.contains("{ id: Integer }"),
            "structural rendering: {}",
            blames[0]
        );
        assert!(!blames[0].message.contains("#fhash"), "no raw store ids: {}", blames[0]);
        // The Diagnostic conversion is identical for replayed and fresh
        // blame — same code, message and primary span.
        let diags: Vec<Diagnostic> = blames.iter().cloned().map(Diagnostic::from).collect();
        assert_eq!(diags[0], diags[2]);
        assert_eq!(diags[0].primary_span(), site);
        assert_eq!(diags[0].code, BLAME_RETURN);
        drop(blames);
        assert!(hook.memo_stats().hits >= 2);
        assert_eq!(hook.blame_count(), 3);
        assert_eq!(hook.take_blames().len(), 3, "take_blames hands ownership once");
        assert_eq!(hook.blame_count(), 0, "...leaving the hook's list empty");
    }

    #[test]
    fn unmemoized_config_matches_memoized_blames() {
        let site = Span::new(4, 9, 2);
        let mk = |memoize: bool| {
            let check = InsertedCheck {
                site,
                description: "Hash#[]".to_string(),
                expected_return: Type::nominal("Integer"),
                consistency: None,
            };
            CompRdlHook::new(
                vec![check],
                TypeStore::new(),
                classes(),
                HelperRegistry::new(),
                CheckConfig { memoize, raise_blame: false, ..CheckConfig::default() },
            )
        };
        let memoized = mk(true);
        let unmemoized = mk(false);
        // The schedule interleaves passing and failing values, with the
        // failing ones repeating so the memoized hook *replays* blames: the
        // recorded sequence (not just the set) must match the baseline's
        // execution order byte for byte.
        for v in [Value::str("a"), Value::Int(1), Value::str("a"), Value::str("b")] {
            let _ = memoized.after_call(site, &v);
            let _ = unmemoized.after_call(site, &v);
        }
        assert_eq!(&*memoized.blames(), &*unmemoized.blames());
        assert_eq!(unmemoized.memo_stats(), CacheStats::default(), "memo off records nothing");
    }

    #[test]
    fn store_generation_bump_invalidates_the_runtime_memo() {
        // §4 heap mutation: the comp type consults a const string in the
        // store; promoting it between calls changes the verdict, which the
        // memo must not replay over.
        let mut store = TypeStore::new();
        let marker = store.new_const_string("users");
        let marker_for_helper = marker.clone();
        let mut helpers = HelperRegistry::new();
        helpers.register_native("schema_marker", move |ctx, _args| {
            let t = match &marker_for_helper {
                Type::ConstString(id) => match ctx.store.const_string_value(*id) {
                    Some(_) => Type::nominal("Integer"),
                    None => Type::nominal("String"),
                },
                _ => unreachable!(),
            };
            Ok(crate::tlc::TlcValue::Type(t))
        });
        let site = Span::new(1, 2, 1);
        let check = InsertedCheck {
            site,
            description: "Table#where".to_string(),
            expected_return: Type::object(),
            consistency: Some(ConsistencyCheck {
                ret_expr: ruby_syntax::parse_expr("schema_marker()").unwrap(),
                binders: vec![],
                expected: Type::nominal("Integer"),
            }),
        };
        let hook = CompRdlHook::new(
            vec![check],
            store,
            classes(),
            helpers,
            CheckConfig { raise_blame: false, ..CheckConfig::default() },
        );
        let recv = Value::Class("User".into());

        // Two calls: evaluate once, replay once, both consistent.
        assert!(hook.before_call(site, &recv, &[]).is_ok());
        assert!(hook.before_call(site, &recv, &[]).is_ok());
        assert_eq!(hook.blames().len(), 0);
        assert_eq!(hook.memo_stats().hits, 1);

        // Mutate type-level state between calls: the marker promotes, the
        // helper now answers String, and the memoized Ok must be evicted.
        hook.mutate_store(|s| {
            let Type::ConstString(id) = &marker else { unreachable!() };
            s.promote_const_string(*id);
        });
        assert!(hook.before_call(site, &recv, &[]).is_ok(), "raise_blame off");
        assert_eq!(hook.blames().len(), 1, "stale Ok must not be replayed");
        assert!(hook.blames()[0].message.contains("type-check time"), "{:?}", hook.blames());
        assert_eq!(hook.blames()[0].code, BLAME_CONSISTENCY);
        assert_eq!(hook.memo_stats().invalidations, 1);
    }

    #[test]
    fn sites_in_different_files_do_not_collide() {
        // Two spans with identical offsets in different files: the check is
        // registered for file 1 only, so the byte-identical span in file 0
        // must neither report a check nor fire one.
        let site_app = Span::in_file(1, 10, 20, 3);
        let site_other = Span::in_file(0, 10, 20, 3);
        let check = InsertedCheck {
            site: site_app,
            description: "Array#first".to_string(),
            expected_return: Type::nominal("Integer"),
            consistency: None,
        };
        let hook = CompRdlHook::new(
            vec![check],
            TypeStore::new(),
            classes(),
            HelperRegistry::new(),
            CheckConfig::default(),
        );
        assert!(hook.has_check(site_app));
        assert!(!hook.has_check(site_other), "same offsets, different file");
        assert!(hook.after_call(site_other, &Value::str("wrong")).is_ok());
        assert!(hook.after_call(site_app, &Value::str("wrong")).is_err());
    }

    #[test]
    fn check_config_disables_categories() {
        let site = Span::new(5, 6, 1);
        let check = InsertedCheck {
            site,
            description: "Array#first".to_string(),
            expected_return: Type::nominal("Integer"),
            consistency: None,
        };
        let hook = CompRdlHook::new(
            vec![check],
            TypeStore::new(),
            classes(),
            HelperRegistry::new(),
            CheckConfig {
                return_checks: false,
                consistency_checks: false,
                ..CheckConfig::default()
            },
        );
        assert!(hook.after_call(site, &Value::str("wrong type")).is_ok());
    }

    fn simple_check(site: Span) -> InsertedCheck {
        InsertedCheck {
            site,
            description: "Array#map".to_string(),
            expected_return: Type::array(Type::nominal("String")),
            consistency: None,
        }
    }

    fn hook_on(memo: &Arc<SharedMemo>, namespace: u64, site: Span) -> CompRdlHook {
        CompRdlHook::with_shared_memo(
            vec![simple_check(site)],
            TypeStore::new(),
            classes(),
            HelperRegistry::new(),
            CheckConfig { raise_blame: false, ..CheckConfig::default() },
            memo.clone(),
            namespace,
        )
    }

    #[test]
    fn warm_hooks_replay_from_the_shared_memo() {
        // Two hooks over the same program (same namespace, identical fresh
        // stores): the second is a warm re-run and must hit immediately,
        // reproducing the identical blame diagnostic.
        let memo = Arc::new(SharedMemo::new());
        let site = Span::new(10, 20, 3);
        let cold = hook_on(&memo, memo_namespace("app"), site);
        let good = Value::array(vec![Value::str("a")]);
        let bad = Value::Int(9);
        assert!(cold.after_call(site, &good).is_ok());
        assert!(cold.after_call(site, &bad).is_ok(), "raise_blame off records instead");
        assert_eq!(
            cold.memo_stats(),
            CacheStats { hits: 0, misses: 2, invalidations: 0, evictions: 0 }
        );

        let warm = hook_on(&memo, memo_namespace("app"), site);
        assert!(warm.after_call(site, &good).is_ok());
        assert!(warm.after_call(site, &bad).is_ok());
        assert_eq!(
            warm.memo_stats(),
            CacheStats { hits: 2, misses: 0, invalidations: 0, evictions: 0 },
            "a warm re-run must be served entirely from the shared memo"
        );
        assert_eq!(&*warm.blames(), &*cold.blames(), "replayed blame is byte-identical");
        assert_eq!(memo.stats().hits, 2);
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn namespaces_isolate_programs_with_colliding_spans() {
        // Two *different* programs whose check sites collide byte-for-byte:
        // sharing one memo must never exchange verdicts between them.
        let memo = Arc::new(SharedMemo::new());
        let site = Span::new(10, 20, 3);
        let a = hook_on(&memo, memo_namespace("app-a"), site);
        let value = Value::array(vec![Value::str("x")]);
        assert!(a.after_call(site, &value).is_ok());

        let b = hook_on(&memo, memo_namespace("app-b"), site);
        assert!(b.after_call(site, &value).is_ok());
        assert_eq!(
            b.memo_stats(),
            CacheStats { hits: 0, misses: 1, invalidations: 0, evictions: 0 },
            "a different namespace must not hit app-a's entry"
        );
        assert_eq!(memo.len(), 2, "one entry per namespace");
    }

    #[test]
    fn one_hooks_mutation_invalidates_its_own_namespace() {
        // The namespace epoch: hook A's store mutation must keep hook B —
        // same shared memo, *same namespace* — from replaying entries
        // recorded before it; B re-validates against its own store instead.
        let memo = Arc::new(SharedMemo::new());
        let site = Span::new(1, 5, 1);
        let ns = memo_namespace("app");
        let a = hook_on(&memo, ns, site);
        let b = hook_on(&memo, ns, site);
        let value = Value::array(vec![Value::str("x")]);
        assert!(a.after_call(site, &value).is_ok());
        assert!(b.after_call(site, &value).is_ok());
        assert_eq!(
            b.memo_stats(),
            CacheStats { hits: 1, misses: 0, invalidations: 0, evictions: 0 }
        );

        a.mutate_store(|s| {
            let t = s.new_tuple(vec![Type::nominal("Integer")]);
            let Type::Tuple(id) = t else { unreachable!() };
            s.promote_tuple(id);
        });
        assert_eq!(memo.namespace_epoch(ns), 1, "an observed store mutation bumps the epoch");

        assert!(b.after_call(site, &value).is_ok());
        assert_eq!(
            b.memo_stats(),
            CacheStats { hits: 1, misses: 1, invalidations: 1, evictions: 0 },
            "b's pre-mutation entry was evicted, not replayed"
        );
        // A no-op mutate_store (generation unchanged) must not thrash the
        // epoch.
        a.mutate_store(|s| s.generation());
        assert_eq!(memo.namespace_epoch(ns), 1);
    }

    #[test]
    fn one_hooks_mutation_leaves_other_namespaces_warm() {
        // Per-namespace epochs: app A's migration must not flush app B's
        // warm entries — B keeps replaying its own verdicts at full hit
        // rate (namespaces never share keys, so this is sound).
        let memo = Arc::new(SharedMemo::new());
        let site = Span::new(1, 5, 1);
        let a = hook_on(&memo, memo_namespace("app-a"), site);
        let b = hook_on(&memo, memo_namespace("app-b"), site);
        let value = Value::array(vec![Value::str("x")]);
        assert!(a.after_call(site, &value).is_ok());
        assert!(b.after_call(site, &value).is_ok());

        a.mutate_store(|s| {
            let t = s.new_tuple(vec![Type::nominal("Integer")]);
            let Type::Tuple(id) = t else { unreachable!() };
            s.promote_tuple(id);
        });
        assert_eq!(memo.namespace_epoch(memo_namespace("app-a")), 1);
        assert_eq!(memo.namespace_epoch(memo_namespace("app-b")), 0, "b's epoch is untouched");

        assert!(b.after_call(site, &value).is_ok());
        assert_eq!(
            b.memo_stats(),
            CacheStats { hits: 1, misses: 1, invalidations: 0, evictions: 0 },
            "b's warm entry must survive a's migration"
        );
        // A's own entry is gone, exactly as before.
        assert!(a.after_call(site, &value).is_ok());
        assert_eq!(a.memo_stats().invalidations, 1);
    }

    #[test]
    fn entry_recorded_just_before_a_concurrent_bump_is_rejected() {
        // The stale-epoch acceptance window: a hook samples its namespace
        // epoch *before* evaluating, and the entry it records carries that
        // sample.  If the epoch is bumped concurrently (here: out-of-band
        // through the memo, mid-evaluation), the recorded entry is already
        // stale at insert time — the next lookup must re-read the (bumped)
        // namespace epoch and reject it rather than replay it.
        let memo = Arc::new(SharedMemo::new());
        let ns = memo_namespace("app");
        let memo_for_helper = memo.clone();
        let fired = std::sync::atomic::AtomicBool::new(false);
        let mut helpers = HelperRegistry::new();
        helpers.register_native("bump_once", move |_ctx, _args| {
            if !fired.swap(true, std::sync::atomic::Ordering::SeqCst) {
                memo_for_helper.bump_namespace_epoch(ns);
            }
            Ok(crate::tlc::TlcValue::Type(Type::nominal("Integer")))
        });
        let site = Span::new(1, 2, 1);
        let check = InsertedCheck {
            site,
            description: "Table#where".to_string(),
            expected_return: Type::object(),
            consistency: Some(ConsistencyCheck {
                ret_expr: ruby_syntax::parse_expr("bump_once()").unwrap(),
                binders: vec![],
                expected: Type::nominal("Integer"),
            }),
        };
        let hook = CompRdlHook::with_shared_memo(
            vec![check],
            TypeStore::new(),
            classes(),
            helpers,
            CheckConfig { raise_blame: false, ..CheckConfig::default() },
            memo.clone(),
            ns,
        );
        let recv = Value::Class("User".into());
        // First call: miss, evaluates; the helper bumps the namespace epoch
        // mid-evaluation, so the entry is recorded with a pre-bump stamp.
        assert!(hook.before_call(site, &recv, &[]).is_ok());
        // Second call: the pre-bump entry must be rejected (invalidation),
        // not replayed, and a fresh entry recorded at the new epoch.
        assert!(hook.before_call(site, &recv, &[]).is_ok());
        // Third call: the fresh entry replays.
        assert!(hook.before_call(site, &recv, &[]).is_ok());
        assert_eq!(
            hook.memo_stats(),
            CacheStats { hits: 1, misses: 2, invalidations: 1, evictions: 0 },
            "the entry recorded just before the concurrent bump must be rejected"
        );
        assert_eq!(hook.blames().len(), 0, "the verdicts themselves are consistent");
    }
}
