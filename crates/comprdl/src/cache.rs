//! The comp-type evaluation cache.
//!
//! CompRDL evaluates type-level computations at *every* library call site
//! (paper §2), so a checking run over a real program evaluates the same comp
//! type for the same receiver / argument types over and over — e.g. every
//! `User.where(...)` call re-derives the `users` schema hash.  This module
//! memoizes those evaluations.
//!
//! ## Key
//!
//! An evaluation is identified by its **slot** — the `«…»` expression of
//! one parameter or return position of one signature — plus the
//! **resolved** binding environment the expression runs under (`tself`,
//! then each binder in parameter order).  The cache lives inside one
//! `TypeChecker` and dies with it; the checker borrows its environment
//! immutably for its whole life, so every slot is an expression at a fixed
//! address and the cache compares slots by that address.  Two call sites
//! with the same key run the same expression, backed by the same helper
//! bodies, over the same inputs, and must produce the same result.  Two
//! signatures whose comp types read alike are still two slots.  The
//! on-disk cache ([`crate::persist`]) stores whole method verdicts, never
//! these entries.
//!
//! Every binding is keyed by its structural digest
//! ([`TypeStore::fingerprint`] — cheaper than building the
//! [`TypeStore::render`] string, and inducing the same equivalence up to
//! the ~2⁻⁶⁴-per-pair collision probability of a 64-bit digest).
//! Store-backed bindings digest their content rather than their raw ids:
//! every call site allocates fresh ids for literal hashes and tuples, so
//! id-based keys would never match, while structurally identical inputs
//! are exactly the ones that evaluate identically.  A weak update changes
//! the structure and therefore the key, so mutated receivers never match
//! stale entries.
//!
//! ## Adaptivity
//!
//! Building a key costs a fingerprint per binding, which is pure overhead
//! for a slot evaluated only once — the common case in small programs.  So
//! the keyed cache engages for a slot only from its second evaluation on;
//! the first goes straight to the evaluator and counts as a miss.
//!
//! ## Hits
//!
//! A hit never hands out the cached result's store ids: finite hashes and
//! tuples are mutable (§4), so two call sites sharing an id would see each
//! other's weak updates.  The checker gives every hit fresh, constraint-free
//! ids with [`TypeStore::deep_copy`], which copies no string and no content
//! that holds no store-backed type: names are shared [`rdl_types::Name`]s,
//! and a hash's entries or a tuple's elements are a copy-on-write `Arc`
//! shared with the cached result until either side is weakly updated.  A
//! hit on a flat `Table<{ … }>` therefore costs one store entry and the
//! rebuilt `Table<…>` node, and only a level that holds a store-backed type
//! (the joined schema of `joins`) is rebuilt around the copies.
//!
//! ## Invalidation
//!
//! Store-backed types (tuples, finite hashes, const strings) are mutable:
//! weak updates and promotions change what an id *means* without changing
//! the id (§4).  Every such mutation bumps the
//! [`TypeStore::generation`] counter, and any cache entry whose key **or**
//! result mentions a store-backed type records the generation it was
//! inserted at.  A lookup that finds a store-dependent entry from an older
//! generation evicts it and reports a miss, so cached results can never go
//! stale — at worst a mutation costs one re-evaluation per affected key.

use crate::tlc::TlcError;
use rdl_types::{Type, TypeStore};
use ruby_syntax::Expr;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// A comp-type slot, compared and hashed by the address of its expression.
#[derive(Clone, Copy)]
struct Slot<'a>(&'a Expr);

impl PartialEq for Slot<'_> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Slot<'_> {}

impl Hash for Slot<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::ptr::hash(self.0, state);
    }
}

/// The identity of one comp-type evaluation.  See the module docs for why
/// these fields pin down the result.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey<'a> {
    slot: Slot<'a>,
    /// Each binding's [`TypeStore::fingerprint`], in the order the slot's
    /// signature fixes (`tself`, then each binder).
    bindings: Vec<u64>,
    /// Whether any binding mentioned a store-backed type (used for
    /// generation guarding).
    store_backed_inputs: bool,
}

impl<'a> CacheKey<'a> {
    /// Builds the key of evaluating `slot` under the resolved `bindings`.
    pub(crate) fn build<'t>(
        slot: &'a Expr,
        bindings: impl IntoIterator<Item = &'t Type>,
        store: &TypeStore,
    ) -> CacheKey<'a> {
        let mut store_backed_inputs = false;
        let bindings = bindings
            .into_iter()
            .map(|t| {
                store_backed_inputs |= t.contains_store_backed();
                store.fingerprint(t)
            })
            .collect();
        CacheKey { slot: Slot(slot), bindings, store_backed_inputs }
    }
}

#[derive(Debug, Clone)]
struct CacheEntry {
    result: Result<Type, TlcError>,
    /// True when the key or the result mentions a store-backed type; such
    /// entries are only valid while the store generation is unchanged.
    store_dependent: bool,
    generation: u64,
}

/// Hit / miss / invalidation / eviction counters of the comp-type cache and
/// of the run-time check memo ([`crate::SharedMemo`]), exposed so perfbench
/// and tests can verify a cache is actually doing work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to evaluation.
    pub misses: u64,
    /// Entries removed because a stamp (the store generation, or a memo
    /// namespace's epoch) moved past them; every invalidation is also
    /// counted as a miss.
    pub invalidations: u64,
    /// Entries dropped because a memo namespace reached its capacity (the
    /// comp-type cache never evicts).
    pub evictions: u64,
}

impl CacheStats {
    /// Sums two stat blocks (used when merging parallel workers or memo
    /// namespaces).
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            invalidations: self.invalidations + other.invalidations,
            evictions: self.evictions + other.evictions,
        }
    }

    /// Total lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate as a fraction in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// The memoization table for comp-type evaluations, owned by one checking
/// run (parallel workers each own their own cache alongside their own
/// [`TypeStore`]).
#[derive(Default)]
pub(crate) struct CompTypeCache<'a> {
    entries: HashMap<CacheKey<'a>, CacheEntry>,
    /// The slots evaluated so far (see "Adaptivity" in the module docs).
    seen: HashSet<Slot<'a>>,
    stats: CacheStats,
}

impl<'a> CompTypeCache<'a> {
    /// Records one evaluation of `slot` and reports whether the keyed cache
    /// should engage for it: `false` for the slot's first evaluation (the
    /// caller evaluates directly and builds no key), `true` afterwards.
    pub(crate) fn note_evaluation(&mut self, slot: &'a Expr) -> bool {
        if self.seen.insert(Slot(slot)) {
            self.stats.misses += 1;
            false
        } else {
            true
        }
    }

    /// Looks up a previous evaluation.  Store-dependent entries whose
    /// generation no longer matches `store` are evicted and reported as
    /// misses.
    pub(crate) fn lookup(
        &mut self,
        key: &CacheKey<'a>,
        store: &TypeStore,
    ) -> Option<Result<Type, TlcError>> {
        match self.entries.get(key) {
            Some(entry) if entry.store_dependent && entry.generation != store.generation() => {
                self.entries.remove(key);
                self.stats.invalidations += 1;
                self.stats.misses += 1;
                None
            }
            Some(entry) => {
                self.stats.hits += 1;
                Some(entry.result.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Records the result of an evaluation under `key`.
    pub(crate) fn insert(
        &mut self,
        key: CacheKey<'a>,
        result: Result<Type, TlcError>,
        store: &TypeStore,
    ) {
        let store_dependent =
            key.store_backed_inputs || matches!(&result, Ok(t) if t.contains_store_backed());
        self.entries
            .insert(key, CacheEntry { result, store_dependent, generation: store.generation() });
    }

    /// Counters accumulated so far.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdl_types::{HashKey, TypeExpr};

    /// The return comp type of a freshly parsed signature: every call
    /// parses a new expression, so every call yields a distinct slot.
    fn slot() -> Expr {
        let sig = rdl_types::parse_method_sig("(t<:Object) -> «idx(tself, t)»").unwrap();
        let TypeExpr::Comp(spec) = sig.ret else { panic!("a comp return type") };
        Expr::clone(&spec.expr)
    }

    fn key_for<'a>(slot: &'a Expr, store: &TypeStore, tself: &Type) -> CacheKey<'a> {
        CacheKey::build(slot, [tself], store)
    }

    #[test]
    fn hit_after_insert_and_stats() {
        let mut store = TypeStore::new();
        let mut cache = CompTypeCache::default();
        let (this, other) = (slot(), slot());
        assert!(this == other, "two slots with identical text");
        // Each slot's first evaluation skips the keyed cache and counts as
        // a miss; the other slot reads alike but is another annotation's.
        assert!(!cache.note_evaluation(&this));
        assert!(cache.note_evaluation(&this));
        assert!(!cache.note_evaluation(&other));
        let hash = store.new_finite_hash(vec![(HashKey::Sym("id".into()), Type::int(1))]);
        let key = key_for(&this, &store, &hash);
        assert!(cache.lookup(&key, &store).is_none());
        cache.insert(key, Ok(Type::nominal("String")), &store);
        // The other slot shares no entry with this one.
        assert!(cache.lookup(&key_for(&other, &store, &hash), &store).is_none());
        // This slot hits under structurally equal bindings: a fresh hash
        // with the same content.
        let equal = store.new_finite_hash(vec![(HashKey::Sym("id".into()), Type::int(1))]);
        let key = key_for(&this, &store, &equal);
        assert_eq!(cache.lookup(&key, &store), Some(Ok(Type::nominal("String"))));
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 1, misses: 4, invalidations: 0, evictions: 0 }
        );
    }

    #[test]
    fn structurally_identical_store_types_share_a_key() {
        // Every call site allocates fresh ids for literal hashes; the cache
        // must still hit across sites when the *content* is identical.
        let mut store = TypeStore::new();
        let slot = slot();
        let h1 = store.new_finite_hash(vec![(HashKey::Sym("id".into()), Type::int(1))]);
        let h2 = store.new_finite_hash(vec![(HashKey::Sym("id".into()), Type::int(1))]);
        assert_ne!(h1, h2, "distinct ids");
        assert!(key_for(&slot, &store, &h1) == key_for(&slot, &store, &h2));
        // Mutating one of them changes its fingerprint, so it stops
        // matching entries recorded for the old content.
        let Type::FiniteHash(id) = h2 else { panic!() };
        store.weak_update_hash(id, HashKey::Sym("id".into()), Type::nominal("String"));
        assert!(key_for(&slot, &store, &h1) != key_for(&slot, &store, &h2));
    }

    #[test]
    fn promotion_invalidates_store_backed_keys() {
        let mut store = TypeStore::new();
        let mut cache = CompTypeCache::default();
        let slot = slot();
        let hash = store.new_finite_hash(vec![(HashKey::Sym("id".into()), Type::int(1))]);
        let key = key_for(&slot, &store, &hash);
        cache.insert(key.clone(), Ok(Type::nominal("Integer")), &store);
        assert!(cache.lookup(&key, &store).is_some());

        // Promoting the hash bumps the generation; the entry must die.
        let Type::FiniteHash(id) = hash else { panic!() };
        store.promote_finite_hash(id);
        assert!(cache.lookup(&key, &store).is_none(), "stale entry survived promotion");
        assert_eq!(cache.stats().invalidations, 1);
        assert!(cache.entries.is_empty());
    }

    #[test]
    fn weak_update_invalidates_store_backed_results() {
        let mut store = TypeStore::new();
        let mut cache = CompTypeCache::default();
        let slot = slot();
        // Key is store-free, but the *result* is a store-backed schema hash.
        let key = key_for(&slot, &store, &Type::class_of("User"));
        let schema = store.new_finite_hash(vec![(HashKey::Sym("id".into()), Type::int(1))]);
        cache.insert(key.clone(), Ok(schema.clone()), &store);
        assert!(cache.lookup(&key, &store).is_some());

        let Type::FiniteHash(id) = schema else { panic!() };
        store.weak_update_hash(id, HashKey::Sym("name".into()), Type::nominal("String"));
        assert!(cache.lookup(&key, &store).is_none(), "stale entry survived weak update");
    }

    #[test]
    fn store_free_entries_survive_mutations() {
        let mut store = TypeStore::new();
        let mut cache = CompTypeCache::default();
        let slot = slot();
        let key = key_for(&slot, &store, &Type::class_of("User"));
        cache.insert(key.clone(), Ok(Type::nominal("Integer")), &store);
        let t = store.new_tuple(vec![Type::int(1)]);
        let Type::Tuple(id) = t else { panic!() };
        store.promote_tuple(id);
        assert!(
            cache.lookup(&key, &store).is_some(),
            "store-free entries need not die on unrelated mutations"
        );
    }

    #[test]
    fn errors_are_cached_too() {
        let store = TypeStore::new();
        let mut cache = CompTypeCache::default();
        let slot = slot();
        let key = key_for(&slot, &store, &Type::nominal("String"));
        cache.insert(key.clone(), Err(TlcError::new("boom")), &store);
        assert_eq!(cache.lookup(&key, &store), Some(Err(TlcError::new("boom"))));
    }
}
