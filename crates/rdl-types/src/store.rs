//! The mutable type store.
//!
//! RDL represents tuple, finite hash and const string types as *objects*
//! that may be mutated (weak updates, §4 of the paper) and *promoted* to
//! `Array`, `Hash` and `String` respectively when an operation outside the
//! precise fragment is applied.  Aliasing matters: in
//!
//! ```ruby
//! a = [1, 'foo']; if ... then b = a end; a[0] = 'one'
//! ```
//!
//! the types of `a` and `b` share one tuple object, so mutating it affects
//! both.  The [`TypeStore`] reproduces this sharing: store-backed types are
//! indices into the store, and every constraint asserted against them is
//! recorded so it can be *replayed* after a weak update or promotion.

use crate::fingerprint::Fingerprint;
use crate::name::Name;
use crate::ty::{ConstStringId, FiniteHashId, HashKey, SingVal, TupleId, Type};
use std::borrow::Cow;
use std::sync::Arc;

/// A recorded subtyping constraint `lhs <= rhs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    /// The left-hand side of the constraint.
    pub lhs: Type,
    /// The right-hand side of the constraint.
    pub rhs: Type,
    /// A human readable description of where the constraint came from,
    /// shared by the records one assertion makes.
    pub origin: Name,
}

/// Data backing a tuple type.
#[derive(Debug, Clone, PartialEq)]
pub struct TupleData {
    /// Element types, in order; copy-on-write, shared by the deep copies
    /// of this tuple until one of them is weakly updated.
    pub elems: Arc<Vec<Type>>,
    /// If the tuple was promoted, the `Array<T>` type it was promoted to.
    pub promoted: Option<Type>,
    /// Constraints asserted against this tuple.
    pub constraints: Vec<Constraint>,
}

/// Data backing a finite hash type.
#[derive(Debug, Clone, PartialEq)]
pub struct FiniteHashData {
    /// Known entries in insertion order; copy-on-write, shared by the deep
    /// copies of this hash until one of them is weakly updated.
    pub entries: Arc<Vec<(HashKey, Type)>>,
    /// The "rest" type for open finite hashes (`{ a: X, **rest }`), if any.
    pub rest: Option<Box<Type>>,
    /// If the hash was promoted, the `Hash<K, V>` type it was promoted to.
    pub promoted: Option<Type>,
    /// Constraints asserted against this hash.
    pub constraints: Vec<Constraint>,
}

impl FiniteHashData {
    /// Looks up the type of a key.
    pub fn get(&self, key: &HashKey) -> Option<&Type> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, t)| t)
    }
}

/// Data backing a const string type.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstStringData {
    /// The string contents, if still known precisely.
    pub value: Option<String>,
    /// Whether the const string has been promoted to plain `String`.
    pub promoted: bool,
    /// Constraints asserted against this const string.
    pub constraints: Vec<Constraint>,
}

/// The store of mutable (tuple / finite hash / const string) types.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TypeStore {
    tuples: Vec<TupleData>,
    hashes: Vec<FiniteHashData>,
    strings: Vec<ConstStringData>,
    /// Named type-level slots: mutable global state addressable by name,
    /// the analogue of RDL's type-level globals (e.g. a schema version a
    /// migration flips).  A first-write-ordered `Vec`, so two stores
    /// compare equal exactly when they applied the same writes in the same
    /// order — which deterministic replays of one program do.
    named: Vec<(String, Type)>,
    /// Bumped on every mutation that can change what a store-backed type
    /// *means* (promotion, weak update, named-slot update).  Caches keyed on
    /// store-backed types compare this against the generation they captured
    /// at insert time and treat any difference as an invalidation, so cached
    /// results can never go stale (plain allocation does not bump it — a
    /// fresh id cannot alter the meaning of an existing one).
    generation: u64,
}

/// Id offsets returned by [`TypeStore::absorb`]: how far the absorbed
/// store's tuple / finite hash / const string ids were shifted.  Apply with
/// [`StoreShift::apply`] to every [`Type`] that was minted against the
/// absorbed store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreShift {
    /// Offset added to absorbed [`TupleId`]s.
    pub tuples: u32,
    /// Offset added to absorbed [`FiniteHashId`]s.
    pub hashes: u32,
    /// Offset added to absorbed [`ConstStringId`]s.
    pub strings: u32,
}

impl StoreShift {
    /// True when absorbing did not move any ids (absorbing into an empty
    /// store).
    pub fn is_identity(&self) -> bool {
        *self == StoreShift::default()
    }

    /// Rewrites every store-backed id inside `ty` by this shift.
    pub fn apply(&self, ty: &Type) -> Type {
        if self.is_identity() {
            return ty.clone();
        }
        match ty {
            Type::Tuple(id) => Type::Tuple(TupleId(id.0 + self.tuples)),
            Type::FiniteHash(id) => Type::FiniteHash(FiniteHashId(id.0 + self.hashes)),
            Type::ConstString(id) => Type::ConstString(ConstStringId(id.0 + self.strings)),
            Type::Generic { base, args } => Type::Generic {
                base: base.clone(),
                args: args.iter().map(|a| self.apply(a)).collect(),
            },
            Type::Union(ts) => Type::Union(ts.iter().map(|t| self.apply(t)).collect()),
            Type::Optional(t) => Type::Optional(Box::new(self.apply(t))),
            Type::Vararg(t) => Type::Vararg(Box::new(self.apply(t))),
            other => other.clone(),
        }
    }

    fn apply_constraint(&self, c: &Constraint) -> Constraint {
        Constraint { lhs: self.apply(&c.lhs), rhs: self.apply(&c.rhs), origin: c.origin.clone() }
    }
}

impl TypeStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TypeStore::default()
    }

    // ---- creation -------------------------------------------------------

    /// Allocates a new tuple type with the given element types.
    pub fn new_tuple(&mut self, elems: Vec<Type>) -> Type {
        let id = TupleId(self.tuples.len() as u32);
        self.tuples.push(TupleData {
            elems: Arc::new(elems),
            promoted: None,
            constraints: Vec::new(),
        });
        Type::Tuple(id)
    }

    /// Allocates a new finite hash type with the given entries.
    pub fn new_finite_hash(&mut self, entries: Vec<(HashKey, Type)>) -> Type {
        let id = FiniteHashId(self.hashes.len() as u32);
        self.hashes.push(FiniteHashData {
            entries: Arc::new(entries),
            rest: None,
            promoted: None,
            constraints: Vec::new(),
        });
        Type::FiniteHash(id)
    }

    /// Allocates a new const string type for the given literal.
    pub fn new_const_string(&mut self, value: impl Into<String>) -> Type {
        let id = ConstStringId(self.strings.len() as u32);
        self.strings.push(ConstStringData {
            value: Some(value.into()),
            promoted: false,
            constraints: Vec::new(),
        });
        Type::ConstString(id)
    }

    // ---- access ---------------------------------------------------------

    /// The data backing a tuple type.
    pub fn tuple(&self, id: TupleId) -> &TupleData {
        &self.tuples[id.0 as usize]
    }

    /// The data backing a finite hash type.
    pub fn finite_hash(&self, id: FiniteHashId) -> &FiniteHashData {
        &self.hashes[id.0 as usize]
    }

    /// The data backing a const string type.
    pub fn const_string(&self, id: ConstStringId) -> &ConstStringData {
        &self.strings[id.0 as usize]
    }

    /// The known literal value of a const string, unless promoted.
    pub fn const_string_value(&self, id: ConstStringId) -> Option<&str> {
        let data = self.const_string(id);
        if data.promoted {
            None
        } else {
            data.value.as_deref()
        }
    }

    /// Resolves one level of promotion: a promoted tuple / finite hash /
    /// const string resolves to its promoted type, everything else resolves
    /// to itself.
    pub fn resolve(&self, ty: &Type) -> Type {
        self.resolved(ty).into_owned()
    }

    /// [`TypeStore::resolve`] without the copy: only a promoted const
    /// string needs a fresh value, everything else is borrowed.
    pub(crate) fn resolved<'a>(&'a self, ty: &'a Type) -> Cow<'a, Type> {
        match ty {
            Type::Tuple(id) => Cow::Borrowed(self.tuple(*id).promoted.as_ref().unwrap_or(ty)),
            Type::FiniteHash(id) => {
                Cow::Borrowed(self.finite_hash(*id).promoted.as_ref().unwrap_or(ty))
            }
            Type::ConstString(id) if self.const_string(*id).promoted => {
                Cow::Owned(Type::nominal("String"))
            }
            _ => Cow::Borrowed(ty),
        }
    }

    /// The number of allocated store-backed types (used by stats / tests).
    pub fn len(&self) -> usize {
        self.tuples.len() + self.hashes.len() + self.strings.len()
    }

    /// True if nothing has been allocated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current mutation generation: incremented by every promotion and
    /// weak update.  Consumers that cache anything derived from store-backed
    /// types must revalidate when this changes.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    fn bump_generation(&mut self) {
        self.generation += 1;
    }

    // ---- named slots -----------------------------------------------------

    /// The type currently held in the named type-level slot `name`, if set.
    pub fn named(&self, name: &str) -> Option<&Type> {
        self.named.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// Sets the named type-level slot `name` to `ty`.  Like a weak update,
    /// this changes what type-level state *means*, so it bumps the
    /// generation — unless the slot already holds an equal type, in which
    /// case the write is a no-op (re-running an idempotent migration must
    /// not invalidate every generation-guarded cache again).
    pub fn set_named(&mut self, name: &str, ty: Type) {
        match self.named.iter_mut().find(|(n, _)| n == name) {
            Some((_, existing)) => {
                if *existing == ty {
                    return;
                }
                *existing = ty;
            }
            None => self.named.push((name.to_string(), ty)),
        }
        self.bump_generation();
    }

    // ---- merging --------------------------------------------------------

    /// Appends every type from `other` into this store, returning the id
    /// shift that must be applied to types minted against `other`.  Used by
    /// the parallel checker to merge per-worker stores into the single store
    /// the dynamic-check hook resolves against.
    pub fn absorb(&mut self, other: TypeStore) -> StoreShift {
        let shift = StoreShift {
            tuples: self.tuples.len() as u32,
            hashes: self.hashes.len() as u32,
            strings: self.strings.len() as u32,
        };
        for t in other.tuples {
            self.tuples.push(TupleData {
                elems: Arc::new(t.elems.iter().map(|e| shift.apply(e)).collect()),
                promoted: t.promoted.as_ref().map(|p| shift.apply(p)),
                constraints: t.constraints.iter().map(|c| shift.apply_constraint(c)).collect(),
            });
        }
        for h in other.hashes {
            self.hashes.push(FiniteHashData {
                entries: Arc::new(
                    h.entries.iter().map(|(k, v)| (k.clone(), shift.apply(v))).collect(),
                ),
                rest: h.rest.as_ref().map(|r| Box::new(shift.apply(r))),
                promoted: h.promoted.as_ref().map(|p| shift.apply(p)),
                constraints: h.constraints.iter().map(|c| shift.apply_constraint(c)).collect(),
            });
        }
        for s in other.strings {
            self.strings.push(ConstStringData {
                value: s.value,
                promoted: s.promoted,
                constraints: s.constraints.iter().map(|c| shift.apply_constraint(c)).collect(),
            });
        }
        for (name, ty) in other.named {
            // Named slots are global type-level state.  Workers fork with
            // *fresh* stores, so a slot in `other` is one the worker itself
            // wrote; the first absorbed writer lands it and later writers
            // are dropped.  That reproduces sequential checking only while
            // at most one worker writes a given slot per merge — program-
            // order overwrites cannot be reconstructed from absorb order —
            // so helpers that write slots during *checking* must be
            // single-writer (runtime-gated writes, like the corpus's
            // singleton-gated migration helper, never reach this path).
            if self.named(&name).is_none() {
                let ty = shift.apply(&ty);
                self.named.push((name, ty));
            }
        }
        // Keep the counter monotonic across the merge so generation-guarded
        // caches built against either source remain conservative.
        self.generation += other.generation;
        shift
    }

    /// Recursively copies every store-backed type inside `ty` into fresh
    /// store entries, returning a type with the same structure but brand-new
    /// ids.  The copies start with **no recorded constraints** — exactly
    /// like ids a fresh evaluation would have allocated.  Used by the
    /// comp-type cache on hits: handing out the originally cached ids would
    /// alias mutable state across call sites (a weak update at one site
    /// would change another site's type).
    ///
    /// A copy shares its source's content wherever it can: a level that
    /// holds no store-backed type (the entries of a flat hash, the elements
    /// of a tuple of plain types) is the source's copy-on-write `Arc`, which
    /// the first weak update of either side un-shares, and only a level
    /// that holds a store-backed type is rebuilt around the copies of those.
    /// An id reached twice maps to one copy, so aliasing inside `ty`
    /// survives; copying a type with one store-backed part allocates no
    /// table of copies, only its fresh store entry.
    pub fn deep_copy(&mut self, ty: &Type) -> Type {
        self.deep_copy_inner(ty, &mut Copies::default())
    }

    fn deep_copy_inner(&mut self, ty: &Type, copies: &mut Copies) -> Type {
        match ty {
            Type::Tuple(_) | Type::FiniteHash(_) | Type::ConstString(_) => match copies.get(ty) {
                Some(copy) => copy.clone(),
                None => self.copy_store_backed(ty, copies),
            },
            Type::Generic { base, args } => Type::Generic {
                base: base.clone(),
                args: args.iter().map(|a| self.deep_copy_inner(a, copies)).collect(),
            },
            Type::Union(ts) => {
                Type::Union(ts.iter().map(|t| self.deep_copy_inner(t, copies)).collect())
            }
            Type::Optional(t) => Type::Optional(Box::new(self.deep_copy_inner(t, copies))),
            Type::Vararg(t) => Type::Vararg(Box::new(self.deep_copy_inner(t, copies))),
            other => other.clone(),
        }
    }

    /// The fresh copy of one store-backed `ty` (see [`TypeStore::deep_copy`]).
    /// The entry is allocated, sharing the source's content, and noted in
    /// `copies` before its children are visited, so self-referential data
    /// maps to the new id instead of recursing forever.
    fn copy_store_backed(&mut self, ty: &Type, copies: &mut Copies) -> Type {
        match ty {
            Type::Tuple(id) => {
                let data = &self.tuples[id.0 as usize];
                let (elems, promoted) = (Arc::clone(&data.elems), data.promoted.clone());
                let new_id = TupleId(self.tuples.len() as u32);
                self.tuples.push(TupleData {
                    elems: Arc::clone(&elems),
                    promoted: None,
                    constraints: Vec::new(),
                });
                copies.insert(ty.clone(), Type::Tuple(new_id));
                if elems.iter().any(Type::contains_store_backed) {
                    let copied = elems.iter().map(|e| self.deep_copy_inner(e, copies)).collect();
                    self.tuples[new_id.0 as usize].elems = Arc::new(copied);
                }
                self.tuples[new_id.0 as usize].promoted = self.copy_promoted(promoted, copies);
                Type::Tuple(new_id)
            }
            Type::FiniteHash(id) => {
                let data = &self.hashes[id.0 as usize];
                let (entries, rest, promoted) =
                    (Arc::clone(&data.entries), data.rest.clone(), data.promoted.clone());
                let new_id = FiniteHashId(self.hashes.len() as u32);
                self.hashes.push(FiniteHashData {
                    entries: Arc::clone(&entries),
                    rest: None,
                    promoted: None,
                    constraints: Vec::new(),
                });
                copies.insert(ty.clone(), Type::FiniteHash(new_id));
                if entries.iter().any(|(_, v)| v.contains_store_backed()) {
                    let copied = entries
                        .iter()
                        .map(|(k, v)| (k.clone(), self.deep_copy_inner(v, copies)))
                        .collect();
                    self.hashes[new_id.0 as usize].entries = Arc::new(copied);
                }
                let rest = rest.map(|r| {
                    if r.contains_store_backed() {
                        Box::new(self.deep_copy_inner(&r, copies))
                    } else {
                        r
                    }
                });
                self.hashes[new_id.0 as usize].rest = rest;
                self.hashes[new_id.0 as usize].promoted = self.copy_promoted(promoted, copies);
                Type::FiniteHash(new_id)
            }
            Type::ConstString(id) => {
                let data = &self.strings[id.0 as usize];
                let (value, promoted) = (data.value.clone(), data.promoted);
                let new_id = ConstStringId(self.strings.len() as u32);
                self.strings.push(ConstStringData { value, promoted, constraints: Vec::new() });
                copies.insert(ty.clone(), Type::ConstString(new_id));
                Type::ConstString(new_id)
            }
            other => unreachable!("`{other}` is not store-backed"),
        }
    }

    /// The copy of a promoted view: itself unless it holds a store-backed
    /// type.
    fn copy_promoted(&mut self, promoted: Option<Type>, copies: &mut Copies) -> Option<Type> {
        promoted
            .map(|p| if p.contains_store_backed() { self.deep_copy_inner(&p, copies) } else { p })
    }

    // ---- display --------------------------------------------------------

    /// Renders a type with store-backed parts expanded structurally:
    /// `[Integer, String]` for tuples, `{ info: Array<String> }` for finite
    /// hashes, `"literal"` for const strings.  Unlike [`Type`]'s `Display`
    /// (which prints raw store ids such as `#fhash3`), this output is
    /// independent of allocation order, so diagnostics built from it are
    /// byte-identical across cached / uncached and parallel / sequential
    /// runs.
    pub fn render(&self, ty: &Type) -> String {
        let mut out = String::new();
        self.render_into(ty, &mut Vec::new(), &mut out);
        out
    }

    fn render_into(&self, ty: &Type, visiting: &mut Vec<Type>, out: &mut String) {
        use std::fmt::Write;
        // Weak updates can make a store-backed type reference itself
        // (`a[0] = a`); fall back to the raw id display on re-entry.
        if ty.is_store_backed() && visiting.contains(ty) {
            let _ = write!(out, "{ty}");
            return;
        }
        match &*self.resolved(ty) {
            Type::Tuple(id) => {
                visiting.push(ty.clone());
                out.push('[');
                for (i, e) in self.tuple(*id).elems.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    self.render_into(e, visiting, out);
                }
                out.push(']');
                visiting.pop();
            }
            Type::FiniteHash(id) => {
                visiting.push(ty.clone());
                let data = self.finite_hash(*id);
                out.push_str("{ ");
                for (i, (k, v)) in data.entries.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{k} ");
                    self.render_into(v, visiting, out);
                }
                if data.entries.is_empty() {
                    // `{  }` reads badly; normalise the empty hash.
                    out.truncate(out.len() - 2);
                    out.push('{');
                }
                out.push_str(" }");
                visiting.pop();
            }
            Type::ConstString(id) => match self.const_string_value(*id) {
                Some(v) => {
                    let _ = write!(out, "{v:?}");
                }
                None => out.push_str("String"),
            },
            Type::Generic { base, args } => {
                let _ = write!(out, "{base}<");
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    self.render_into(a, visiting, out);
                }
                out.push('>');
            }
            Type::Union(ts) => {
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" or ");
                    }
                    self.render_into(t, visiting, out);
                }
            }
            Type::Optional(t) => {
                out.push('?');
                self.render_into(t, visiting, out);
            }
            Type::Vararg(t) => {
                out.push('*');
                self.render_into(t, visiting, out);
            }
            other => {
                let _ = write!(out, "{other}");
            }
        }
    }

    /// A stable structural digest of `ty` under this store's **current**
    /// contents: store-backed ids are resolved to their content (so two
    /// freshly allocated ids with identical structure digest identically),
    /// while any weak update or promotion changes the digest.  Cheaper than
    /// building the [`TypeStore::render`] string when only an identity is
    /// needed; the comp-type evaluation cache keys every binding on it.
    /// Being a 64-bit digest, distinct structures *can* collide (probability
    /// ~2⁻⁶⁴ per pair) — acceptable for cache keys, not for anything
    /// security-sensitive.
    ///
    /// The digest is *Merkle-composable*: each node digests its own tag and
    /// payload plus the **digests** of its children (written as `u64`s),
    /// rather than splicing child bytes into one flat stream, so the digest
    /// of every store-free node is a pure function of its structure.
    pub fn fingerprint(&self, ty: &Type) -> u64 {
        self.digest_of(ty, &mut Vec::new())
    }

    fn digest_of(&self, ty: &Type, visiting: &mut Vec<Type>) -> u64 {
        // Weak updates can make a store-backed type reference itself; digest
        // the raw id on re-entry, mirroring `render_into`.
        if ty.is_store_backed() && visiting.contains(ty) {
            let mut fp = Fingerprint::new();
            fp.write_u8(0xFE);
            fp.write_str(&ty.to_string());
            return fp.finish();
        }
        let mut fp = Fingerprint::new();
        match &*self.resolved(ty) {
            Type::Top => fp.write_u8(0),
            Type::Bot => fp.write_u8(1),
            Type::Bool => fp.write_u8(2),
            Type::Dynamic => fp.write_u8(3),
            Type::Nominal(n) => {
                fp.write_u8(4);
                fp.write_str(n);
            }
            Type::Var(v) => {
                fp.write_u8(5);
                fp.write_str(v);
            }
            Type::Singleton(sv) => {
                fp.write_u8(6);
                match sv {
                    SingVal::Nil => fp.write_u8(0),
                    SingVal::True => fp.write_u8(1),
                    SingVal::False => fp.write_u8(2),
                    SingVal::Int(i) => {
                        fp.write_u8(3);
                        fp.write_i64(*i);
                    }
                    SingVal::FloatBits(b) => {
                        fp.write_u8(4);
                        fp.write_u64(*b);
                    }
                    SingVal::Sym(s) => {
                        fp.write_u8(5);
                        fp.write_str(s);
                    }
                    SingVal::Class(c) => {
                        fp.write_u8(6);
                        fp.write_str(c);
                    }
                }
            }
            Type::Generic { base, args } => {
                fp.write_u8(7);
                fp.write_str(base);
                fp.write_usize(args.len());
                for a in args {
                    let d = self.digest_of(a, visiting);
                    fp.write_u64(d);
                }
            }
            Type::Union(ts) => {
                fp.write_u8(8);
                fp.write_usize(ts.len());
                for t in ts {
                    let d = self.digest_of(t, visiting);
                    fp.write_u64(d);
                }
            }
            Type::Optional(t) => {
                fp.write_u8(9);
                let d = self.digest_of(t, visiting);
                fp.write_u64(d);
            }
            Type::Vararg(t) => {
                fp.write_u8(10);
                let d = self.digest_of(t, visiting);
                fp.write_u64(d);
            }
            Type::Tuple(id) => {
                visiting.push(ty.clone());
                fp.write_u8(11);
                let data = self.tuple(*id);
                fp.write_usize(data.elems.len());
                for e in data.elems.iter() {
                    let d = self.digest_of(e, visiting);
                    fp.write_u64(d);
                }
                visiting.pop();
            }
            Type::FiniteHash(id) => {
                visiting.push(ty.clone());
                fp.write_u8(12);
                let data = self.finite_hash(*id);
                fp.write_usize(data.entries.len());
                for (k, v) in data.entries.iter() {
                    match k {
                        HashKey::Sym(s) => {
                            fp.write_u8(0);
                            fp.write_str(s);
                        }
                        HashKey::Str(s) => {
                            fp.write_u8(1);
                            fp.write_str(s);
                        }
                        HashKey::Int(i) => {
                            fp.write_u8(2);
                            fp.write_i64(*i);
                        }
                    }
                    let d = self.digest_of(v, visiting);
                    fp.write_u64(d);
                }
                match &data.rest {
                    Some(rest) => {
                        fp.write_u8(1);
                        let d = self.digest_of(rest, visiting);
                        fp.write_u64(d);
                    }
                    None => fp.write_u8(0),
                }
                visiting.pop();
            }
            Type::ConstString(id) => match self.const_string_value(*id) {
                Some(v) => {
                    fp.write_u8(13);
                    fp.write_str(v);
                }
                // Promoted const strings behave as plain `String`.
                None => {
                    fp.write_u8(4);
                    fp.write_str("String");
                }
            },
        }
        fp.finish()
    }

    // ---- constraints ----------------------------------------------------

    /// Records a constraint against a store-backed type so it can be
    /// replayed after weak updates (§4: "we use this same mechanism to
    /// replay previous constraints on these types whenever they are
    /// mutated").
    pub fn record_constraint(&mut self, on: &Type, lhs: Type, rhs: Type, origin: impl Into<Name>) {
        let c = Constraint { lhs, rhs, origin: origin.into() };
        match on {
            Type::Tuple(id) => self.tuples[id.0 as usize].constraints.push(c),
            Type::FiniteHash(id) => self.hashes[id.0 as usize].constraints.push(c),
            Type::ConstString(id) => self.strings[id.0 as usize].constraints.push(c),
            _ => {}
        }
    }

    // ---- promotion ------------------------------------------------------

    /// Promotes a tuple to `Array<T>` where `T` is the union of its element
    /// types, and returns the promoted type.
    pub fn promote_tuple(&mut self, id: TupleId) -> Type {
        let data = &self.tuples[id.0 as usize];
        if let Some(p) = &data.promoted {
            return p.clone();
        }
        let elem = Type::union(data.elems.iter().cloned());
        let elem = if elem == Type::Bot { Type::object() } else { elem };
        let promoted = Type::array(elem);
        self.tuples[id.0 as usize].promoted = Some(promoted.clone());
        self.bump_generation();
        promoted
    }

    /// Promotes a finite hash to `Hash<K, V>` and returns the promoted type.
    pub fn promote_finite_hash(&mut self, id: FiniteHashId) -> Type {
        let data = &self.hashes[id.0 as usize];
        if let Some(p) = &data.promoted {
            return p.clone();
        }
        let mut key_types: Vec<Type> = Vec::new();
        let mut val_types: Vec<Type> = Vec::new();
        for (k, v) in data.entries.iter() {
            key_types.push(match k {
                HashKey::Sym(_) => Type::nominal("Symbol"),
                HashKey::Str(_) => Type::nominal("String"),
                HashKey::Int(_) => Type::nominal("Integer"),
            });
            val_types.push(v.clone());
        }
        if let Some(rest) = &data.rest {
            val_types.push((**rest).clone());
        }
        let key =
            if key_types.is_empty() { Type::nominal("Symbol") } else { Type::union(key_types) };
        let val = if val_types.is_empty() { Type::object() } else { Type::union(val_types) };
        let promoted = Type::hash(key, val);
        self.hashes[id.0 as usize].promoted = Some(promoted.clone());
        self.bump_generation();
        promoted
    }

    /// Promotes a const string to plain `String`.
    pub fn promote_const_string(&mut self, id: ConstStringId) -> Type {
        if !self.strings[id.0 as usize].promoted {
            self.strings[id.0 as usize].promoted = true;
            self.bump_generation();
        }
        Type::nominal("String")
    }

    /// Promotes any store-backed type; other types are returned unchanged.
    pub fn promote(&mut self, ty: &Type) -> Type {
        match ty {
            Type::Tuple(id) => self.promote_tuple(*id),
            Type::FiniteHash(id) => self.promote_finite_hash(*id),
            Type::ConstString(id) => self.promote_const_string(*id),
            other => other.clone(),
        }
    }

    // ---- weak updates ---------------------------------------------------

    /// Weakly updates element `index` of a tuple with `new_ty`: the element
    /// type becomes the union of its old type and `new_ty` (§4).  Indexes
    /// past the end extend the tuple.  Returns the constraints that must be
    /// replayed.
    pub fn weak_update_tuple(
        &mut self,
        id: TupleId,
        index: usize,
        new_ty: Type,
    ) -> Vec<Constraint> {
        let data = &mut self.tuples[id.0 as usize];
        let elems = Arc::make_mut(&mut data.elems);
        if index < elems.len() {
            let old = elems[index].clone();
            elems[index] = Type::union([old, new_ty]);
        } else {
            elems.push(new_ty);
        }
        if data.promoted.is_some() {
            // Keep the promoted view in sync.
            let elem = Type::union(data.elems.iter().cloned());
            data.promoted = Some(Type::array(elem));
        }
        let constraints = data.constraints.clone();
        self.bump_generation();
        constraints
    }

    /// Weakly updates the value type of `key` in a finite hash (adding the
    /// key if absent).  Returns the constraints that must be replayed.
    pub fn weak_update_hash(
        &mut self,
        id: FiniteHashId,
        key: HashKey,
        new_ty: Type,
    ) -> Vec<Constraint> {
        let data = &mut self.hashes[id.0 as usize];
        let entries = Arc::make_mut(&mut data.entries);
        match entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => {
                let old = v.clone();
                *v = Type::union([old, new_ty]);
            }
            None => entries.push((key, new_ty)),
        }
        if data.promoted.is_some() {
            let vals = Type::union(data.entries.iter().map(|(_, v)| v.clone()));
            data.promoted = Some(Type::hash(Type::nominal("Symbol"), vals));
        }
        let constraints = data.constraints.clone();
        self.bump_generation();
        constraints
    }

    /// Records that a const string was mutated (e.g. `<<` or `gsub!`): its
    /// precise value is forgotten and it behaves as `String` from now on.
    /// Returns the constraints that must be replayed.
    pub fn weak_update_const_string(&mut self, id: ConstStringId) -> Vec<Constraint> {
        let data = &mut self.strings[id.0 as usize];
        data.value = None;
        data.promoted = true;
        let constraints = data.constraints.clone();
        self.bump_generation();
        constraints
    }
}

/// The copies one [`TypeStore::deep_copy`] made so far, source → copy.  The
/// first is kept inline, so copying a type with one store-backed part
/// allocates no table.
#[derive(Default)]
struct Copies {
    first: Option<(Type, Type)>,
    rest: Vec<(Type, Type)>,
}

impl Copies {
    fn get(&self, source: &Type) -> Option<&Type> {
        self.first.iter().chain(&self.rest).find(|(s, _)| s == source).map(|(_, copy)| copy)
    }

    fn insert(&mut self, source: Type, copy: Type) {
        match self.first {
            None => self.first = Some((source, copy)),
            Some(_) => self.rest.push((source, copy)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ty::SingVal;

    #[test]
    fn tuple_promotion_unions_elements() {
        let mut store = TypeStore::new();
        let t = store.new_tuple(vec![Type::nominal("Integer"), Type::nominal("String")]);
        let Type::Tuple(id) = t else { panic!() };
        let p = store.promote_tuple(id);
        assert_eq!(
            p,
            Type::array(Type::union([Type::nominal("Integer"), Type::nominal("String")]))
        );
        assert_eq!(store.resolve(&t), p);
    }

    #[test]
    fn finite_hash_promotion() {
        let mut store = TypeStore::new();
        let t = store.new_finite_hash(vec![
            (HashKey::Sym("info".into()), Type::array(Type::nominal("String"))),
            (HashKey::Sym("title".into()), Type::nominal("String")),
        ]);
        let Type::FiniteHash(id) = t else { panic!() };
        let p = store.promote_finite_hash(id);
        match p {
            Type::Generic { base, args } => {
                assert_eq!(base, "Hash");
                assert_eq!(args[0], Type::nominal("Symbol"));
                assert!(matches!(&args[1], Type::Union(_)));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn const_string_tracks_value_until_promoted() {
        let mut store = TypeStore::new();
        let t = store.new_const_string("SELECT * FROM users");
        let Type::ConstString(id) = t else { panic!() };
        assert_eq!(store.const_string_value(id), Some("SELECT * FROM users"));
        store.weak_update_const_string(id);
        assert_eq!(store.const_string_value(id), None);
        assert_eq!(store.resolve(&t), Type::nominal("String"));
    }

    #[test]
    fn weak_update_tuple_unions_element() {
        let mut store = TypeStore::new();
        let t = store.new_tuple(vec![Type::nominal("Integer"), Type::nominal("String")]);
        let Type::Tuple(id) = t else { panic!() };
        store.record_constraint(&t, Type::Var("alpha".into()), t.clone(), "test");
        let replay = store.weak_update_tuple(id, 0, Type::nominal("String"));
        assert_eq!(replay.len(), 1);
        assert_eq!(
            store.tuple(id).elems[0],
            Type::union([Type::nominal("Integer"), Type::nominal("String")])
        );
    }

    #[test]
    fn weak_update_hash_adds_missing_keys() {
        let mut store = TypeStore::new();
        let t = store.new_finite_hash(vec![(HashKey::Sym("a".into()), Type::int(1))]);
        let Type::FiniteHash(id) = t else { panic!() };
        store.weak_update_hash(id, HashKey::Sym("b".into()), Type::nominal("String"));
        assert_eq!(store.finite_hash(id).entries.len(), 2);
        store.weak_update_hash(id, HashKey::Sym("a".into()), Type::nominal("Integer"));
        let a_ty = store.finite_hash(id).get(&HashKey::Sym("a".into())).unwrap().clone();
        assert_eq!(a_ty, Type::union([Type::Singleton(SingVal::Int(1)), Type::nominal("Integer")]));
    }

    #[test]
    fn promotion_is_idempotent() {
        let mut store = TypeStore::new();
        let t = store.new_tuple(vec![Type::nominal("Integer")]);
        let Type::Tuple(id) = t else { panic!() };
        let p1 = store.promote_tuple(id);
        let p2 = store.promote_tuple(id);
        assert_eq!(p1, p2);
    }

    #[test]
    fn generation_tracks_promotions_and_weak_updates() {
        let mut store = TypeStore::new();
        let g0 = store.generation();
        let t = store.new_tuple(vec![Type::nominal("Integer")]);
        let h = store.new_finite_hash(vec![(HashKey::Sym("a".into()), Type::int(1))]);
        let s = store.new_const_string("sql");
        assert_eq!(store.generation(), g0, "allocation must not bump the generation");
        let Type::Tuple(tid) = t else { panic!() };
        let Type::FiniteHash(hid) = h else { panic!() };
        let Type::ConstString(sid) = s else { panic!() };
        store.weak_update_tuple(tid, 0, Type::nominal("String"));
        assert_eq!(store.generation(), g0 + 1);
        store.weak_update_hash(hid, HashKey::Sym("b".into()), Type::nil());
        assert_eq!(store.generation(), g0 + 2);
        store.promote_tuple(tid);
        assert_eq!(store.generation(), g0 + 3);
        // Idempotent re-promotion does not bump.
        store.promote_tuple(tid);
        assert_eq!(store.generation(), g0 + 3);
        store.promote_const_string(sid);
        assert_eq!(store.generation(), g0 + 4);
        store.promote_const_string(sid);
        assert_eq!(store.generation(), g0 + 4);
    }

    #[test]
    fn absorb_shifts_ids_and_nested_types() {
        let mut base = TypeStore::new();
        base.new_tuple(vec![Type::nominal("Integer")]);
        base.new_const_string("left");

        let mut other = TypeStore::new();
        let inner = other.new_const_string("right");
        let tup = other.new_tuple(vec![inner.clone(), Type::nominal("Float")]);
        other.record_constraint(&tup, tup.clone(), Type::nominal("Array"), "merge-test");

        let shift = base.absorb(other);
        assert_eq!(shift, StoreShift { tuples: 1, hashes: 0, strings: 1 });
        let moved_tup = shift.apply(&tup);
        let Type::Tuple(id) = moved_tup else { panic!() };
        let data = base.tuple(id);
        // The tuple's inner const-string id was shifted along with it.
        assert_eq!(data.elems[0], shift.apply(&inner));
        let Type::ConstString(sid) = &data.elems[0] else { panic!("{:?}", data.elems) };
        assert_eq!(base.const_string_value(*sid), Some("right"));
        assert_eq!(data.constraints.len(), 1);
        assert_eq!(data.constraints[0].lhs, shift.apply(&tup));
    }

    #[test]
    fn render_is_structural_and_id_free() {
        let mut store = TypeStore::new();
        let s = store.new_const_string("SELECT 1");
        let t = store.new_tuple(vec![Type::nominal("Integer"), s.clone()]);
        let h = store.new_finite_hash(vec![
            (HashKey::Sym("info".into()), Type::array(Type::nominal("String"))),
            (HashKey::Sym("items".into()), t.clone()),
        ]);
        assert_eq!(store.render(&s), "\"SELECT 1\"");
        assert_eq!(store.render(&t), "[Integer, \"SELECT 1\"]");
        assert_eq!(store.render(&h), "{ info: Array<String>, items: [Integer, \"SELECT 1\"] }");
        assert!(!store.render(&Type::hash(Type::nominal("Symbol"), h.clone())).contains("#fhash"));
        // Promoted types render through their promoted view.
        let Type::Tuple(id) = t else { panic!() };
        store.promote_tuple(id);
        assert!(store.render(&t).starts_with("Array<"));
        // Self-referential data falls back to the id display instead of
        // recursing forever.
        let cyc = store.new_tuple(vec![]);
        let Type::Tuple(cid) = cyc else { panic!() };
        store.weak_update_tuple(cid, 0, cyc.clone());
        assert_eq!(store.render(&cyc), "[#tuple1]");
    }

    #[test]
    fn fingerprint_is_structural_and_mutation_sensitive() {
        let mut store = TypeStore::new();
        let h1 = store.new_finite_hash(vec![(HashKey::Sym("id".into()), Type::int(1))]);
        let h2 = store.new_finite_hash(vec![(HashKey::Sym("id".into()), Type::int(1))]);
        assert_ne!(h1, h2, "distinct ids");
        assert_eq!(
            store.fingerprint(&h1),
            store.fingerprint(&h2),
            "structurally identical store types must share a fingerprint"
        );
        assert_ne!(store.fingerprint(&h1), store.fingerprint(&Type::nominal("Hash")));

        // A weak update changes the digest of the mutated id only.
        let before = store.fingerprint(&h1);
        let Type::FiniteHash(id2) = h2 else { panic!() };
        store.weak_update_hash(id2, HashKey::Sym("id".into()), Type::nominal("String"));
        assert_eq!(store.fingerprint(&h1), before);
        assert_ne!(store.fingerprint(&h2), before);

        // Promotion digests through the promoted view; a promoted const
        // string digests as plain String.
        let s = store.new_const_string("users");
        let plain = store.fingerprint(&Type::nominal("String"));
        assert_ne!(store.fingerprint(&s), plain);
        let Type::ConstString(sid) = s else { panic!() };
        store.promote_const_string(sid);
        assert_eq!(store.fingerprint(&s), plain);

        // Self-referential data terminates.
        let cyc = store.new_tuple(vec![]);
        let Type::Tuple(cid) = cyc else { panic!() };
        store.weak_update_tuple(cid, 0, cyc.clone());
        let _ = store.fingerprint(&cyc);
    }

    /// Pins the exact digest values of representative types.  Fingerprints
    /// key the runtime memo and the comp-type cache, and seeded tests and
    /// the corpus harness rely on them being identical on every host:
    /// `Fingerprint` must stay free of platform-width dependence (all
    /// `usize` payloads are written through `write_u64`) and of seeded
    /// hashing.  If this test fails, either the digest scheme changed on
    /// purpose (update the constants and say so in the changelog) or a
    /// platform-dependent write slipped in (fix it).
    #[test]
    fn pinned_digests_are_platform_independent() {
        let mut store = TypeStore::new();
        let array_union =
            Type::array(Type::union([Type::nominal("Integer"), Type::nominal("String")]));
        assert_eq!(store.fingerprint(&array_union), 0xd5ba11b112b3d7db);
        assert_eq!(store.fingerprint(&Type::sym("emails")), 0x0992f94c31f758f7);
        assert_eq!(store.fingerprint(&Type::Optional(Box::new(Type::Bool))), 0xcc329528f9d224ac);
        assert_eq!(store.fingerprint(&Type::nominal("String")), 0xd7702accc6e07c68);
        let h = store.new_finite_hash(vec![
            (HashKey::Sym("id".into()), Type::nominal("Integer")),
            (HashKey::Str("name".into()), Type::nominal("String")),
        ]);
        assert_eq!(store.fingerprint(&h), 0x4a0dfba4b90988d6);
        let s = store.new_const_string("SELECT 1");
        assert_eq!(store.fingerprint(&s), 0xc0a6ae7c1b2c25bb);
    }

    /// Weakly updates every store-backed level of `ty`: a new key on each
    /// finite hash, a widened first element on each tuple.
    fn weak_update_every_level(store: &mut TypeStore, ty: &Type) {
        match ty {
            Type::FiniteHash(id) => {
                let entries = store.finite_hash(*id).entries.clone();
                for (_, v) in entries.iter() {
                    weak_update_every_level(store, v);
                }
                store.weak_update_hash(*id, HashKey::Sym("added".into()), Type::nil());
            }
            Type::Tuple(id) => {
                store.weak_update_tuple(*id, 0, Type::nominal("String"));
            }
            _ => {}
        }
    }

    /// What a weak update may change: the top level's content, the digest
    /// and the rendering of every level.
    fn observed(store: &TypeStore, ty: &Type) -> (String, u64, String) {
        let content = match ty {
            Type::FiniteHash(id) => format!("{:?}", store.finite_hash(*id).entries),
            Type::Tuple(id) => format!("{:?}", store.tuple(*id).elems),
            other => panic!("{other} is not a hash or tuple"),
        };
        (content, store.fingerprint(ty), store.render(ty))
    }

    #[test]
    fn a_deep_copy_and_its_source_unshare_on_weak_update() {
        let mut store = TypeStore::new();
        let flat = store.new_finite_hash(vec![
            (HashKey::Sym("id".into()), Type::nominal("Integer")),
            (HashKey::Str("name".into()), Type::nominal("String")),
        ]);
        let emails =
            store.new_finite_hash(vec![(HashKey::Sym("email".into()), Type::nominal("String"))]);
        let nested = store.new_finite_hash(vec![
            (HashKey::Sym("id".into()), Type::nominal("Integer")),
            (HashKey::Sym("emails".into()), Type::Optional(Box::new(emails.clone()))),
            (HashKey::Sym("primary".into()), emails),
        ]);
        let tuple = store.new_tuple(vec![Type::int(1), Type::sym("a")]);
        for original in [flat, nested, tuple] {
            // Weak-update the copy, then the original.
            for update_copy in [true, false] {
                let copy = store.deep_copy(&original);
                assert_ne!(copy, original, "a copy gets a fresh id");
                let (_, fp, render) = observed(&store, &original);
                assert_eq!(observed(&store, &copy).1, fp);
                assert_eq!(observed(&store, &copy).2, render);
                let (updated, kept) =
                    if update_copy { (&copy, &original) } else { (&original, &copy) };
                let before = observed(&store, kept);
                weak_update_every_level(&mut store, updated);
                assert_eq!(observed(&store, kept), before, "{render}: the other side moved");
                assert_ne!(observed(&store, updated).1, before.1, "{render}: no update");
            }
        }
    }

    #[test]
    fn named_slots_bump_generation_only_on_change() {
        let mut store = TypeStore::new();
        assert_eq!(store.named("schema.version"), None);
        let g0 = store.generation();
        store.set_named("schema.version", Type::int(1));
        assert_eq!(store.named("schema.version"), Some(&Type::int(1)));
        assert_eq!(store.generation(), g0 + 1, "first write is a mutation");
        store.set_named("schema.version", Type::int(1));
        assert_eq!(store.generation(), g0 + 1, "idempotent rewrite must not bump");
        store.set_named("schema.version", Type::nominal("String"));
        assert_eq!(store.named("schema.version"), Some(&Type::nominal("String")));
        assert_eq!(store.generation(), g0 + 2, "a changed slot is a weak update");
        store.set_named("other", Type::Bool);
        assert_eq!(store.generation(), g0 + 3);
        assert_eq!(store.named("schema.version"), Some(&Type::nominal("String")));
    }

    #[test]
    fn absorb_carries_named_slots_with_shifted_ids() {
        let mut base = TypeStore::new();
        base.new_const_string("occupy-a-string-id");
        base.set_named("shared", Type::int(1));

        let mut other = TypeStore::new();
        let s = other.new_const_string("v2");
        other.set_named("schema", s.clone());
        other.set_named("shared", Type::int(2));

        let shift = base.absorb(other);
        // The absorbed slot's store-backed type was shifted into the base
        // store's id space.
        let moved = base.named("schema").cloned().unwrap();
        assert_eq!(moved, shift.apply(&s));
        let Type::ConstString(id) = moved else { panic!() };
        assert_eq!(base.const_string_value(id), Some("v2"));
        // On collision the receiving store wins.
        assert_eq!(base.named("shared"), Some(&Type::int(1)));
    }

    #[test]
    fn empty_collections_promote_sensibly() {
        let mut store = TypeStore::new();
        let t = store.new_tuple(vec![]);
        let p = store.promote(&t);
        assert_eq!(p, Type::array(Type::object()));
        let h = store.new_finite_hash(vec![]);
        let p = store.promote(&h);
        assert_eq!(p, Type::hash(Type::nominal("Symbol"), Type::object()));
    }
}
