//! Method signatures, comp types, effects, inferred effect summaries and
//! the annotation table.
//!
//! A CompRDL method annotation such as
//!
//! ```text
//! type Table, :joins, "(t<:Symbol) -> «if t.is_a?(Singleton) then ... end»"
//! ```
//!
//! is represented as a [`MethodSig`] whose parameter and return positions
//! hold [`TypeExpr`]s: either ordinary (static) types or *comp types* —
//! Ruby-subset expressions evaluated during type checking (paper §2).
//!
//! Because tuple / finite-hash / const-string types are store-backed (see
//! [`TypeStore`]), signatures store a structural [`TypeExpr`] and are
//! *instantiated* into a concrete [`Type`] against a particular store when
//! they are used.

use crate::class::ClassTable;
use crate::name::Name;
use crate::store::TypeStore;
use crate::ty::{HashKey, Type};
use ruby_syntax::{Bits, Expr, SemHasher};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Termination effect of a method (paper §4, Fig. 6).
///
/// Each discriminant is the effect's byte tag ([`TermEffect::tag`]), which
/// [`MethodSig::digest`] and the check cache's effect section write, so
/// changing one moves every annotation digest and changes the cache
/// format.  Variants are declared from most to least certain: the derived
/// order is the pessimism order and [`TermEffect::join`] is its maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(u8)]
pub enum TermEffect {
    /// `:+` — the method always terminates.
    Terminates = 0,
    /// `:blockdep` — an iterator that terminates iff its block terminates
    /// and is pure.
    BlockDep = 1,
    /// `:-` — the method may diverge.
    #[default]
    MayDiverge = 2,
}

impl TermEffect {
    /// The byte tag: 0 terminates, 1 block-dependent, 2 may diverge.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// The effect whose [`tag`](Self::tag) is `tag`, or `None` for a byte
    /// that is no tag.
    pub fn from_tag(tag: u8) -> Option<TermEffect> {
        [TermEffect::Terminates, TermEffect::BlockDep, TermEffect::MayDiverge]
            .into_iter()
            .find(|e| e.tag() == tag)
    }

    /// The pessimistic join: the less certain of the two effects.
    pub fn join(self, other: TermEffect) -> TermEffect {
        self.max(other)
    }
}

/// Purity effect of a method (paper §4).
///
/// Tags and order work as for [`TermEffect`]: the discriminant is the byte
/// tag, and `Pure` sorts before `Impure`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(u8)]
pub enum PurityEffect {
    /// `:+` — the method writes no instance/class/global state and calls
    /// only pure methods.
    Pure = 0,
    /// `:-` — the method may mutate state.
    #[default]
    Impure = 1,
}

impl PurityEffect {
    /// The byte tag: 0 pure, 1 impure.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// The effect whose [`tag`](Self::tag) is `tag`, or `None` for a byte
    /// that is no tag.
    pub fn from_tag(tag: u8) -> Option<PurityEffect> {
        [PurityEffect::Pure, PurityEffect::Impure].into_iter().find(|e| e.tag() == tag)
    }

    /// The pessimistic join: impure if either effect is.
    pub fn join(self, other: PurityEffect) -> PurityEffect {
        self.max(other)
    }
}

/// How values move through one method: which of its inputs may reach a SQL
/// sink and which its return value.  Each side is a set of inputs: bit
/// [`Taint::RECV`] is the receiver (`self`, instance state included) and
/// bit `i + 1` is parameter `i`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Taint {
    /// Inputs that may flow into the return value.
    pub ret: Bits,
    /// Inputs that may flow into a SQL sink, directly or through a callee.
    pub sink: Bits,
}

impl Taint {
    /// The receiver's bit.
    pub const RECV: usize = 0;

    /// Parameter indices that may flow into the return value, ascending.
    pub fn params_to_return(&self) -> impl Iterator<Item = usize> + '_ {
        params(&self.ret)
    }

    /// Parameter indices that may flow into a SQL sink, ascending.
    pub fn params_to_sink(&self) -> impl Iterator<Item = usize> + '_ {
        params(&self.sink)
    }

    /// Whether the receiver may flow into the return value.
    pub fn self_to_return(&self) -> bool {
        self.ret.contains(Taint::RECV)
    }

    /// Whether the receiver may flow into a SQL sink.
    pub fn self_to_sink(&self) -> bool {
        self.sink.contains(Taint::RECV)
    }

    /// Adds every flow of `other`.
    pub fn join(&mut self, other: &Taint) {
        self.ret.union(&other.ret);
        self.sink.union(&other.sink);
    }
}

/// The parameter indices among `inputs`, ascending.
fn params(inputs: &Bits) -> impl Iterator<Item = usize> + '_ {
    inputs.iter().filter(|&b| b != Taint::RECV).map(|b| b - 1)
}

/// The inferred effects of one method: what the interprocedural summary
/// inference computes, what a type checker's inferred effect layer installs
/// below the explicit one, and what the check cache stores.
///
/// The blame chains start with the method itself and end with the
/// root-cause token (`["a", "b", "@x="]` renders as `a → b → @x=`, see
/// [`render_blame`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MethodSummary {
    /// Enclosing class (`"Object"` for top-level methods).
    pub owner: String,
    /// Method name.
    pub name: String,
    /// Whether it is a `def self.` method.
    pub singleton: bool,
    /// Termination effect.
    pub term: TermEffect,
    /// Purity effect.
    pub purity: PurityEffect,
    /// Call path to the divergence root cause (empty unless `term` is
    /// [`TermEffect::MayDiverge`]).
    pub term_blame: Vec<String>,
    /// Call path to the impurity root cause (empty when `purity` is
    /// [`PurityEffect::Pure`]).
    pub purity_blame: Vec<String>,
    /// How its inputs flow.
    pub taint: Taint,
}

/// Renders a blame chain the way diagnostics quote it: `a → b → @x=`.
pub fn render_blame(chain: &[String]) -> String {
    chain.join(" \u{2192} ")
}

/// Trusted effects keyed by bare method name, built one name at a time
/// (a test's seed, say).  The explicit layer the checker and the summary
/// inference share is read by reference instead (see [`EffectLookup`]).
pub type EffectTable = HashMap<String, (TermEffect, PurityEffect)>;

/// A source of trusted effects, looked up by bare method name: what the
/// interprocedural summary inference is seeded with.  An [`EffectTable`]
/// is one; so is `comprdl`'s explicit layer, which reads an environment's
/// helpers, its [`EffectJoin`] and the builtins by reference.
pub trait EffectLookup {
    /// The trusted effects of `name`, if this source knows the name.
    fn effects(&self, name: &str) -> Option<(TermEffect, PurityEffect)>;
}

impl EffectLookup for EffectTable {
    fn effects(&self, name: &str) -> Option<(TermEffect, PurityEffect)> {
        self.get(name).copied()
    }
}

/// Bare method name → the pessimistic join ([`TermEffect::join`],
/// [`PurityEffect::join`]) of the declared effects of every signature an
/// [`AnnotationTable`] registers under that name, on any class and of
/// either kind.  The table keeps it up to date as signatures are added and
/// merged.  The map is shared by [`Arc`]: cloning it, or merging a table
/// into an empty one, copies nothing, so a library's join is computed once
/// and read by every environment it is merged into.
#[derive(Debug, Clone, Default)]
pub struct EffectJoin(Arc<HashMap<Arc<str>, (TermEffect, PurityEffect)>>);

impl EffectJoin {
    /// The joined effects of the signatures named `name`, if any.
    pub fn get(&self, name: &str) -> Option<&(TermEffect, PurityEffect)> {
        self.0.get(name)
    }

    /// Joins one more signature's effects into `name`'s.
    fn add(&mut self, name: &str, effects: (TermEffect, PurityEffect)) {
        let map = Arc::make_mut(&mut self.0);
        match map.get_mut(name) {
            Some(joined) => *joined = join_effects(*joined, effects),
            None => {
                map.insert(name.into(), effects);
            }
        }
    }

    /// Sets `name`'s join to `effects`, recomputed from scratch.
    fn set(&mut self, name: &str, effects: (TermEffect, PurityEffect)) {
        if self.get(name) != Some(&effects) {
            Arc::make_mut(&mut self.0).insert(name.into(), effects);
        }
    }

    /// Joins every name of `other` into this join.  Into an empty join,
    /// `other`'s map is shared rather than copied.
    fn merge(&mut self, other: &EffectJoin) {
        if self.0.is_empty() {
            self.0 = Arc::clone(&other.0);
        } else if !other.0.is_empty() && !Arc::ptr_eq(&self.0, &other.0) {
            let map = Arc::make_mut(&mut self.0);
            for (name, &effects) in other.0.iter() {
                map.entry(Arc::clone(name))
                    .and_modify(|joined| *joined = join_effects(*joined, effects))
                    .or_insert(effects);
            }
        }
    }
}

/// The pessimistic join of two `(termination, purity)` pairs.
fn join_effects(
    (term, purity): (TermEffect, PurityEffect),
    (other_term, other_purity): (TermEffect, PurityEffect),
) -> (TermEffect, PurityEffect) {
    (term.join(other_term), purity.join(other_purity))
}

/// A type-level computation: a Ruby-subset expression evaluated during type
/// checking to produce a type.
#[derive(Debug, Clone, PartialEq)]
pub struct CompSpec {
    /// The parsed type-level expression, shared with every run-time check
    /// that re-evaluates it.
    pub expr: Arc<Expr>,
    /// The original source text between `«` and `»`.
    pub source: String,
    /// A static fallback bound used when comp-type evaluation is disabled
    /// (plain-RDL mode) and by λC-style checking of the comp type itself.
    pub bound: Box<TypeExpr>,
}

/// A structural type expression as written in an annotation.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeExpr {
    /// An ordinary type that needs no store allocation.
    Simple(Type),
    /// A generic instantiation whose arguments may themselves need
    /// instantiation, e.g. `Table<{id: Integer}>`.
    Generic(Name, Vec<TypeExpr>),
    /// A union of type expressions.
    Union(Vec<TypeExpr>),
    /// An optional parameter type `?T`.
    Optional(Box<TypeExpr>),
    /// A vararg parameter type `*T`.
    Vararg(Box<TypeExpr>),
    /// A tuple type `[T1, ..., Tn]` (instantiates to a store-backed tuple).
    Tuple(Vec<TypeExpr>),
    /// A finite hash type `{ a: T1, b: T2 }` (store-backed).
    FiniteHash(Vec<(HashKey, TypeExpr)>),
    /// A const string type with a known literal value (store-backed).
    ConstString(String),
    /// A type-level computation `«expr»`.
    Comp(CompSpec),
}

impl TypeExpr {
    /// A simple nominal type expression.
    pub fn nominal(name: &str) -> TypeExpr {
        TypeExpr::Simple(Type::nominal(name))
    }

    /// True if this expression (or any nested part of it) is a comp type.
    pub fn has_comp(&self) -> bool {
        match self {
            TypeExpr::Comp(_) => true,
            TypeExpr::Generic(_, args) | TypeExpr::Union(args) | TypeExpr::Tuple(args) => {
                args.iter().any(TypeExpr::has_comp)
            }
            TypeExpr::Optional(t) | TypeExpr::Vararg(t) => t.has_comp(),
            TypeExpr::FiniteHash(entries) => entries.iter().any(|(_, t)| t.has_comp()),
            _ => false,
        }
    }

    /// Instantiates the expression into a concrete [`Type`], allocating
    /// store entries for tuples, finite hashes and const strings.  Comp
    /// types instantiate to their static *bound* (callers that want to run
    /// the computation do so via the CompRDL type-level evaluator instead).
    pub fn instantiate(&self, store: &mut TypeStore) -> Type {
        match self {
            TypeExpr::Simple(t) => t.clone(),
            TypeExpr::Generic(base, args) => Type::Generic {
                base: base.clone(),
                args: args.iter().map(|a| a.instantiate(store)).collect(),
            },
            TypeExpr::Union(ts) => Type::union(ts.iter().map(|t| t.instantiate(store))),
            TypeExpr::Optional(t) => Type::Optional(Box::new(t.instantiate(store))),
            TypeExpr::Vararg(t) => Type::Vararg(Box::new(t.instantiate(store))),
            TypeExpr::Tuple(ts) => {
                let elems = ts.iter().map(|t| t.instantiate(store)).collect();
                store.new_tuple(elems)
            }
            TypeExpr::FiniteHash(entries) => {
                let entries =
                    entries.iter().map(|(k, t)| (k.clone(), t.instantiate(store))).collect();
                store.new_finite_hash(entries)
            }
            TypeExpr::ConstString(s) => store.new_const_string(s.clone()),
            TypeExpr::Comp(spec) => spec.bound.instantiate(store),
        }
    }
}

impl fmt::Display for TypeExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeExpr::Simple(t) => write!(f, "{t}"),
            TypeExpr::Generic(base, args) => {
                write!(f, "{base}<")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ">")
            }
            TypeExpr::Union(ts) => {
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " or ")?;
                    }
                    write!(f, "{t}")?;
                }
                Ok(())
            }
            TypeExpr::Optional(t) => write!(f, "?{t}"),
            TypeExpr::Vararg(t) => write!(f, "*{t}"),
            TypeExpr::Tuple(ts) => {
                write!(f, "[")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, "]")
            }
            TypeExpr::FiniteHash(entries) => {
                write!(f, "{{ ")?;
                for (i, (k, t)) in entries.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k} {t}")?;
                }
                write!(f, " }}")
            }
            TypeExpr::ConstString(s) => write!(f, "{s:?}"),
            TypeExpr::Comp(spec) => write!(f, "«{}»", spec.source),
        }
    }
}

/// A single parameter of a method signature.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSig {
    /// The binder name (`t` in `t<:Symbol`) that the return comp type may
    /// refer to; `None` when the parameter is unnamed.
    pub binder: Option<String>,
    /// The parameter's type expression.
    pub ty: TypeExpr,
}

impl ParamSig {
    /// An unnamed parameter with the given type expression.
    pub fn unnamed(ty: TypeExpr) -> Self {
        ParamSig { binder: None, ty }
    }

    /// True if the parameter is optional (`?T`).
    pub fn is_optional(&self) -> bool {
        matches!(self.ty, TypeExpr::Optional(_))
    }

    /// True if the parameter is a vararg (`*T`).
    pub fn is_vararg(&self) -> bool {
        matches!(self.ty, TypeExpr::Vararg(_))
    }
}

/// Whether a signature describes an instance method or a class (singleton)
/// method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// An ordinary instance method (`A#m`).
    Instance,
    /// A class method (`A.m`).
    Singleton,
}

/// A full method type signature.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodSig {
    /// Parameter signatures in positional order.
    pub params: Vec<ParamSig>,
    /// The return type expression.
    pub ret: TypeExpr,
    /// The block parameter's signature, if the method takes a block.
    pub block: Option<Box<MethodSig>>,
    /// Termination effect annotation.
    pub term: TermEffect,
    /// Purity effect annotation.
    pub purity: PurityEffect,
    /// The original annotation source string (for error messages and LoC
    /// accounting).
    pub source: String,
    /// Label controlling when the method body itself is statically checked
    /// (mirrors RDL's `typecheck:` argument); `None` means the body is
    /// trusted and calls are dynamically checked instead.
    pub typecheck_label: Option<String>,
}

impl MethodSig {
    /// A signature with only static types and default effects.
    pub fn simple(params: Vec<TypeExpr>, ret: TypeExpr) -> Self {
        MethodSig {
            params: params.into_iter().map(ParamSig::unnamed).collect(),
            ret,
            block: None,
            term: TermEffect::default(),
            purity: PurityEffect::default(),
            source: String::new(),
            typecheck_label: None,
        }
    }

    /// True if any position of the signature uses a comp type.
    pub fn is_comp(&self) -> bool {
        self.ret.has_comp() || self.params.iter().any(|p| p.ty.has_comp())
    }

    /// Number of required (non-optional, non-vararg) parameters.
    pub fn required_arity(&self) -> usize {
        self.params.iter().filter(|p| !p.is_optional() && !p.is_vararg()).count()
    }

    /// True if the signature accepts a call with `n` positional arguments.
    pub fn accepts_arity(&self, n: usize) -> bool {
        let required = self.required_arity();
        let has_vararg = self.params.iter().any(|p| p.is_vararg());
        n >= required && (has_vararg || n <= self.params.len())
    }

    /// Sets the termination effect (builder style).
    pub fn with_term(mut self, term: TermEffect) -> Self {
        self.term = term;
        self
    }

    /// Sets the purity effect (builder style).
    pub fn with_purity(mut self, purity: PurityEffect) -> Self {
        self.purity = purity;
        self
    }

    /// Sets the typecheck label (builder style).
    pub fn with_label(mut self, label: &str) -> Self {
        self.typecheck_label = Some(label.to_string());
        self
    }

    /// The digest of this signature registered as `class`'s `method`: its
    /// identity, source text (which embeds every comp expression),
    /// typecheck label and declared effects.  [`AnnotationTable`] computes
    /// it once per registration and hands it out with the signature; it is
    /// stable across processes, so cache keys may be built from it.
    pub fn digest(&self, class: &str, kind: MethodKind, method: &str) -> u64 {
        let mut h = SemHasher::new();
        h.write_str("annotation");
        h.write_str(class);
        h.write_u8(match kind {
            MethodKind::Instance => 0,
            MethodKind::Singleton => 1,
        });
        h.write_str(method);
        h.write_str(&self.source);
        match &self.typecheck_label {
            Some(l) => {
                h.write_u8(1);
                h.write_str(l);
            }
            None => h.write_u8(0),
        }
        // The declared effects are *not* part of `source`, but effect
        // summaries (and verdicts built on them) are seeded from the claims,
        // so an effect-only annotation change must move the digest.
        h.write_u8(self.term.tag());
        h.write_u8(self.purity.tag());
        h.finish()
    }
}

/// The global annotation table: method signatures plus variable type
/// annotations, mirroring RDL's global tables populated by `type`, `var_type`
/// and `global_type` calls.
///
/// **Shared by reference.**  Signatures are held behind [`Arc`], together
/// with their [`MethodSig::digest`], and each class's name → signature map
/// (and name → variable type map) is an `Arc` of its own.
/// [`AnnotationTable::merge`] therefore clones one `Arc` per class rather
/// than copying entries or re-hashing, and a later registration on a
/// shared class copies only that class's map ([`Arc::make_mut`]): library
/// annotation sets parsed and digested once can back any number of tables.
///
/// **The effect join.**  Next to the maps, the table keeps the
/// [`EffectJoin`] of its signatures' declared effects by bare name.
/// Registering a new key joins its effects in; replacing a
/// `(class, kind, name)` key with one whose effects differ re-joins that
/// name over the entries that remain, so the join is exact however the
/// table was filled.  Equality compares the signatures and variable types
/// by value; the join follows from them.
///
/// **Lookups borrow.**  Signatures are keyed kind → class → method name,
/// and variable types class → name, so every probe takes `&str` names and
/// allocates nothing, on a hit or a miss.  [`AnnotationTable::lookup`]
/// walks [`ClassTable::ancestors`] and hands out the declaring class and
/// the `&MethodSig` as borrows of this table, so a caller holding the
/// table for `'a` can keep both for `'a` instead of copying them.
#[derive(Debug, Clone, Default)]
pub struct AnnotationTable {
    /// Indexed by `MethodKind as usize`: instance, then singleton methods.
    methods: [ByClass<Arc<Annotation>>; 2],
    ivars: ByClass<TypeExpr>,
    gvars: HashMap<String, TypeExpr>,
    effects: EffectJoin,
}

impl PartialEq for AnnotationTable {
    fn eq(&self, other: &Self) -> bool {
        self.methods == other.methods && self.ivars == other.ivars && self.gvars == other.gvars
    }
}

/// Class name → that class's member name → `T`, shared by [`Arc`].
type ByClass<T> = HashMap<String, Arc<HashMap<String, T>>>;

/// The member map of `class`, created if absent and copied first if it is
/// shared with another table.
fn class_map_mut<'t, T: Clone>(
    by_class: &'t mut ByClass<T>,
    class: &str,
) -> &'t mut HashMap<String, T> {
    if !by_class.contains_key(class) {
        by_class.insert(class.to_string(), Arc::default());
    }
    Arc::make_mut(by_class.get_mut(class).expect("inserted above"))
}

/// Merges `from` into `into`, `from`'s entries winning.  A class `into`
/// lacks, or holds as the very same map, takes `from`'s `Arc`; only a
/// class both sides declare differently is copied and merged entry by
/// entry, and `replaced` sees each entry that overwrites one of `into`'s
/// as `(name, old, new)`.
fn merge_by_class<T: Clone>(
    into: &mut ByClass<T>,
    from: &ByClass<T>,
    mut replaced: impl FnMut(&str, &T, &T),
) {
    for (class, theirs) in from {
        match into.get_mut(class.as_str()) {
            None => {
                into.insert(class.clone(), Arc::clone(theirs));
            }
            Some(mine) if Arc::ptr_eq(mine, theirs) => {}
            Some(mine) => {
                let mine = Arc::make_mut(mine);
                for (name, value) in theirs.iter() {
                    if let Some(old) = mine.insert(name.clone(), value.clone()) {
                        replaced(name, &old, value);
                    }
                }
            }
        }
    }
}

/// A registered signature and its digest, computed at registration.
#[derive(Debug, PartialEq)]
struct Annotation {
    sig: MethodSig,
    digest: u64,
}

impl Annotation {
    fn effects(&self) -> (TermEffect, PurityEffect) {
        (self.sig.term, self.sig.purity)
    }
}

impl AnnotationTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        AnnotationTable::default()
    }

    /// Registers an instance method signature (`A#m`).
    pub fn add_instance(&mut self, class: &str, method: &str, sig: MethodSig) {
        self.add(class, MethodKind::Instance, method, sig);
    }

    /// Registers a class method signature (`A.m`).
    pub fn add_singleton(&mut self, class: &str, method: &str, sig: MethodSig) {
        self.add(class, MethodKind::Singleton, method, sig);
    }

    fn add(&mut self, class: &str, kind: MethodKind, method: &str, sig: MethodSig) {
        let digest = sig.digest(class, kind, method);
        let annotation = Arc::new(Annotation { sig, digest });
        let effects = annotation.effects();
        let by_name = class_map_mut(&mut self.methods[kind as usize], class);
        match by_name.insert(method.to_string(), annotation) {
            None => self.effects.add(method, effects),
            Some(old) if old.effects() == effects => {}
            Some(_) => self.rejoin(method),
        }
    }

    /// Recomputes `name`'s effect join over every signature registered
    /// under that name (after one of them was replaced).
    fn rejoin(&mut self, name: &str) {
        let joined = self
            .methods
            .iter()
            .flat_map(HashMap::values)
            .filter_map(|by_name| by_name.get(name))
            .map(|a| a.effects())
            .reduce(join_effects);
        // A replacement leaves the replacing signature, so the name stays.
        self.effects.set(name, joined.expect("a replaced name keeps its replacement"));
    }

    /// Registers an instance variable type (`var_type :@x, "T"`).
    pub fn add_ivar(&mut self, class: &str, name: &str, ty: TypeExpr) {
        class_map_mut(&mut self.ivars, class).insert(name.to_string(), ty);
    }

    /// Registers a global variable type.
    pub fn add_gvar(&mut self, name: &str, ty: TypeExpr) {
        self.gvars.insert(name.to_string(), ty);
    }

    /// Looks up a method signature declared *exactly* on `class`.
    pub fn get_exact(&self, class: &str, kind: MethodKind, method: &str) -> Option<&MethodSig> {
        self.methods[kind as usize].get(class)?.get(method).map(|a| &a.sig)
    }

    /// Looks up a method signature on `class` or the nearest of its
    /// [`ClassTable::ancestors`] that declares one, and returns it with the
    /// declaring class.  Both are borrowed from this table; the probe
    /// allocates nothing.
    pub fn lookup<'t>(
        &'t self,
        classes: &ClassTable,
        class: &str,
        kind: MethodKind,
        method: &str,
    ) -> Option<(&'t str, &'t MethodSig)> {
        let by_class = &self.methods[kind as usize];
        classes.ancestors(class).find_map(|anc| {
            let (owner, by_name) = by_class.get_key_value(anc)?;
            Some((owner.as_str(), &by_name.get(method)?.sig))
        })
    }

    /// The declared effects of every signature, joined by bare name.
    pub fn effect_join(&self) -> &EffectJoin {
        &self.effects
    }

    /// Looks up an instance variable type.
    pub fn ivar(&self, class: &str, name: &str) -> Option<&TypeExpr> {
        self.ivars.get(class)?.get(name)
    }

    /// Looks up a global variable type.
    pub fn gvar(&self, name: &str) -> Option<&TypeExpr> {
        self.gvars.get(name)
    }

    /// The signatures registered for `class`, of both kinds.
    fn declared_on<'t>(&'t self, class: &'t str) -> impl Iterator<Item = &'t Annotation> {
        self.methods
            .iter()
            .filter_map(move |m| m.get(class))
            .flat_map(|by_name| by_name.values())
            .map(|a| &**a)
    }

    /// Number of method signatures registered for a specific class.
    pub fn method_count_for(&self, class: &str) -> usize {
        self.declared_on(class).count()
    }

    /// Number of registered signatures for a class that use comp types.
    pub fn comp_count_for(&self, class: &str) -> usize {
        self.declared_on(class).filter(|a| a.sig.is_comp()).count()
    }

    /// Every registered signature with its `(class, kind, method)` key, in
    /// no particular order.
    fn entries(&self) -> impl Iterator<Item = ((&str, MethodKind, &str), &Annotation)> {
        let kinds = [MethodKind::Instance, MethodKind::Singleton];
        kinds.into_iter().zip(&self.methods).flat_map(|(kind, by_class)| {
            by_class.iter().flat_map(move |(class, by_name)| {
                by_name
                    .iter()
                    .map(move |(method, a)| ((class.as_str(), kind, method.as_str()), &**a))
            })
        })
    }

    /// Iterates over every registered method signature.
    pub fn iter(&self) -> impl Iterator<Item = ((&str, MethodKind, &str), &MethodSig)> {
        self.entries().map(|(key, a)| (key, &a.sig))
    }

    /// Iterates over every registered method signature together with its
    /// [`MethodSig::digest`], which was computed when it was registered.
    pub fn iter_digests(
        &self,
    ) -> impl Iterator<Item = ((&str, MethodKind, &str), &MethodSig, u64)> {
        self.entries().map(|(key, a)| (key, &a.sig, a.digest))
    }

    /// Every variable type annotation as `(owner, name, type)`, sorted by
    /// owner then name: instance variables under their class, globals
    /// under the empty owner.
    pub fn var_types(&self) -> impl Iterator<Item = (&str, &str, &TypeExpr)> {
        let mut vars: Vec<(&str, &str, &TypeExpr)> = self
            .ivars
            .iter()
            .flat_map(|(class, by_name)| {
                by_name.iter().map(move |(name, ty)| (class.as_str(), name.as_str(), ty))
            })
            .chain(self.gvars.iter().map(|(name, ty)| ("", name.as_str(), ty)))
            .collect();
        vars.sort_by_key(|&(owner, name, _)| (owner, name));
        vars.into_iter()
    }

    /// Merges all annotations from `other` into `self` (later registrations
    /// win).  Each class map `self` lacks is shared with `other` by one
    /// `Arc` clone, and so is the effect join when `self` has none yet;
    /// signatures and their digests are never copied or recomputed.  A
    /// name whose signature was replaced by one with other effects is
    /// re-joined.
    pub fn merge(&mut self, other: &AnnotationTable) {
        let mut rejoin: Vec<String> = Vec::new();
        for (mine, theirs) in self.methods.iter_mut().zip(&other.methods) {
            merge_by_class(mine, theirs, |name, old, new| {
                if old.effects() != new.effects() {
                    rejoin.push(name.to_string());
                }
            });
        }
        merge_by_class(&mut self.ivars, &other.ivars, |_, _, _| {});
        for (k, v) in &other.gvars {
            self.gvars.insert(k.clone(), v.clone());
        }
        self.effects.merge(&other.effects);
        for name in rejoin {
            self.rejoin(&name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig_returning(ret: TypeExpr) -> MethodSig {
        MethodSig::simple(vec![], ret)
    }

    #[test]
    fn instantiation_allocates_store_entries() {
        let mut store = TypeStore::new();
        let te = TypeExpr::FiniteHash(vec![
            (
                HashKey::Sym("info".into()),
                TypeExpr::Generic("Array".into(), vec![TypeExpr::nominal("String")]),
            ),
            (HashKey::Sym("title".into()), TypeExpr::nominal("String")),
        ]);
        let t = te.instantiate(&mut store);
        assert!(matches!(t, Type::FiniteHash(_)));
        assert_eq!(store.len(), 1);
        // Instantiating twice yields distinct store objects.
        let t2 = te.instantiate(&mut store);
        assert_ne!(t, t2);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn comp_detection() {
        let comp = TypeExpr::Comp(CompSpec {
            expr: Arc::new(ruby_syntax::parse_expr("schema_type(tself)").unwrap()),
            source: "schema_type(tself)".into(),
            bound: Box::new(TypeExpr::nominal("Object")),
        });
        assert!(comp.has_comp());
        let sig = MethodSig::simple(vec![comp], TypeExpr::nominal("Boolean"));
        assert!(sig.is_comp());
        let plain =
            MethodSig::simple(vec![TypeExpr::nominal("String")], TypeExpr::nominal("String"));
        assert!(!plain.is_comp());
    }

    #[test]
    fn arity_with_optionals_and_varargs() {
        let sig = MethodSig {
            params: vec![
                ParamSig::unnamed(TypeExpr::nominal("String")),
                ParamSig::unnamed(TypeExpr::Optional(Box::new(TypeExpr::nominal("Integer")))),
            ],
            ..MethodSig::simple(vec![], TypeExpr::nominal("String"))
        };
        assert_eq!(sig.required_arity(), 1);
        assert!(sig.accepts_arity(1));
        assert!(sig.accepts_arity(2));
        assert!(!sig.accepts_arity(3));
        assert!(!sig.accepts_arity(0));

        let var = MethodSig {
            params: vec![ParamSig::unnamed(TypeExpr::Vararg(Box::new(TypeExpr::nominal(
                "Object",
            ))))],
            ..MethodSig::simple(vec![], TypeExpr::nominal("Object"))
        };
        assert!(var.accepts_arity(0));
        assert!(var.accepts_arity(5));
    }

    #[test]
    fn annotation_lookup_walks_ancestors() {
        let mut classes = ClassTable::with_builtins();
        classes.add_model_class("User", "ActiveRecord::Base");
        let mut table = AnnotationTable::new();
        table.add_singleton(
            "ActiveRecord::Base",
            "exists?",
            sig_returning(TypeExpr::Simple(Type::Bool)),
        );
        table.add_instance("Array", "first", sig_returning(TypeExpr::nominal("Object")));

        let (owner, _) = table
            .lookup(&classes, "User", MethodKind::Singleton, "exists?")
            .expect("inherited signature");
        assert_eq!(owner, "ActiveRecord::Base");
        assert!(table.lookup(&classes, "User", MethodKind::Instance, "exists?").is_none());
        assert!(table.lookup(&classes, "Array", MethodKind::Instance, "first").is_some());
    }

    #[test]
    fn counting_and_merge() {
        let mut a = AnnotationTable::new();
        a.add_instance("Hash", "[]", sig_returning(TypeExpr::nominal("Object")));
        let mut b = AnnotationTable::new();
        b.add_instance("Hash", "keys", sig_returning(TypeExpr::nominal("Array")));
        b.add_gvar("$schema", TypeExpr::nominal("Hash"));
        a.merge(&b);
        assert_eq!(a.iter().count(), 2);
        assert_eq!(a.method_count_for("Hash"), 2);
        assert!(a.gvar("$schema").is_some());
        // Merged signatures are shared, not copied.
        assert!(std::ptr::eq(
            a.get_exact("Hash", MethodKind::Instance, "keys").unwrap(),
            b.get_exact("Hash", MethodKind::Instance, "keys").unwrap(),
        ));
        // Each stored digest is the one its signature computes.
        for ((class, kind, method), sig, digest) in a.iter_digests() {
            assert_eq!(digest, sig.digest(class, kind, method));
        }
        // Merging one kind of a name keeps the other kind.
        let mut c = AnnotationTable::new();
        c.add_singleton("Hash", "keys", sig_returning(TypeExpr::nominal("Integer")));
        a.merge(&c);
        assert_eq!((a.iter().count(), a.method_count_for("Hash")), (3, 3));
        assert!(std::ptr::eq(
            a.get_exact("Hash", MethodKind::Instance, "keys").unwrap(),
            b.get_exact("Hash", MethodKind::Instance, "keys").unwrap(),
        ));
        assert!(a.get_exact("Hash", MethodKind::Singleton, "keys").is_some());
    }

    #[test]
    fn a_merged_library_is_shared_per_class_until_written() {
        use PurityEffect::{Impure, Pure};
        use TermEffect::{MayDiverge, Terminates};
        let with = |term, purity| {
            sig_returning(TypeExpr::nominal("Object")).with_term(term).with_purity(purity)
        };
        let mut lib = AnnotationTable::new();
        lib.add_instance("Hash", "first", with(Terminates, Pure));
        lib.add_instance("Array", "first", with(Terminates, Pure));
        lib.add_ivar("Hash", "@size", TypeExpr::nominal("Integer"));
        let mut app = AnnotationTable::new();
        app.merge(&lib);
        let shared = |app: &AnnotationTable, class: &str| {
            Arc::ptr_eq(&app.methods[0][class], &lib.methods[0][class])
        };
        assert!(shared(&app, "Hash") && shared(&app, "Array"));
        assert!(Arc::ptr_eq(&app.ivars["Hash"], &lib.ivars["Hash"]));
        assert!(Arc::ptr_eq(&app.effects.0, &lib.effects.0));

        // A write copies the class it touches and the join, nothing else,
        // and re-joins a replaced name over what remains.
        app.add_instance("Array", "first", with(MayDiverge, Impure));
        assert!(shared(&app, "Hash") && !shared(&app, "Array"));
        assert_eq!(app.effect_join().get("first"), Some(&(MayDiverge, Impure)));
        assert_eq!(lib.effect_join().get("first"), Some(&(Terminates, Pure)));
        app.add_instance("Array", "first", with(Terminates, Pure));
        assert_eq!(app.effect_join().get("first"), Some(&(Terminates, Pure)));
        assert_eq!(app, lib);
    }
}
