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
//! An evaluation is identified by `(owner class, method name, position)` —
//! position being a parameter index or the return slot, which pins down the
//! comp-type *expression* — plus the **resolved** binding environment the
//! expression runs under (`tself` and each binder, in sorted name order),
//! plus the **semantic hash** of the comp expression and its transitive
//! helper closure ([`crate::semdep::comp_semantic_hash`]).  Two call sites
//! with the same key run the same expression — *the same text, backed by
//! the same helper bodies* — over the same inputs and must produce the same
//! result.  Keying on the semantic hash instead of a process-lifetime
//! counter is what lets these entries round-trip through the on-disk cache
//! ([`crate::persist`]): an entry survives a restart exactly as long as
//! nothing it depends on was edited.
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

use crate::tlc::{TlcError, TlcValue};
use rdl_types::{Type, TypeStore};
use std::collections::HashMap;

/// Which comp-type slot of a signature an evaluation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompPosition {
    /// The comp type of the `i`-th parameter.
    Param(u8),
    /// The comp type of the return position.
    Ret,
}

/// The identity of one comp-type evaluation.  See the module docs for why
/// these fields pin down the result.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    owner: String,
    method: String,
    position: CompPosition,
    /// Semantic hash of the comp expression plus its transitive helper
    /// closure ([`crate::semdep::comp_semantic_hash`]).  An edit to the
    /// expression or any helper it can reach changes this value, so stale
    /// entries simply stop matching instead of needing eager eviction.
    semantic: u64,
    /// `(name, digest)` bindings in sorted name order, each digest the
    /// binding's [`TypeStore::fingerprint`].
    bindings: Vec<(String, u64)>,
    /// Whether any binding mentioned a store-backed type (used for
    /// generation guarding).
    store_backed_inputs: bool,
}

impl CacheKey {
    /// Builds a key from the binding environment handed to the evaluator.
    /// Returns `None` when a binding holds a non-type value (no such
    /// bindings are produced by the checker today, but native helpers could
    /// see richer environments; refusing to cache keeps this conservative).
    pub fn build(
        owner: &str,
        method: &str,
        position: CompPosition,
        semantic: u64,
        bindings: &HashMap<String, TlcValue>,
        store: &TypeStore,
    ) -> Option<CacheKey> {
        let mut store_backed_inputs = false;
        let mut resolved: Vec<(String, u64)> = Vec::with_capacity(bindings.len());
        for (name, value) in bindings {
            match value {
                TlcValue::Type(t) => {
                    store_backed_inputs |= t.contains_store_backed();
                    resolved.push((name.clone(), store.fingerprint(t)));
                }
                _ => return None,
            }
        }
        resolved.sort_by(|a, b| a.0.cmp(&b.0));
        Some(CacheKey {
            owner: owner.to_string(),
            method: method.to_string(),
            position,
            semantic,
            bindings: resolved,
            store_backed_inputs,
        })
    }

    fn depends_on_store(&self) -> bool {
        self.store_backed_inputs
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

/// Hit / miss / invalidation counters, exposed so benches and tests can
/// verify the cache is actually doing work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to evaluation.
    pub misses: u64,
    /// Entries evicted because the store generation moved past them.
    pub invalidations: u64,
}

impl CacheStats {
    /// Sums two stat blocks (used when merging parallel workers).
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            invalidations: self.invalidations + other.invalidations,
        }
    }
}

/// The memoization table for comp-type evaluations, owned by one checking
/// run (parallel workers each own their own cache alongside their own
/// [`TypeStore`]).
#[derive(Debug, Clone, Default)]
pub struct CompTypeCache {
    entries: HashMap<CacheKey, CacheEntry>,
    /// Per-slot evaluation counts, linearly scanned (a program uses a few
    /// dozen comp-type slots at most).  Keying a lookup costs allocations
    /// (binding clones, fingerprints), which is pure overhead for slots
    /// that are only ever evaluated once — the common case in small
    /// programs — so the keyed machinery only engages from a slot's second
    /// evaluation on.
    slots: Vec<(String, String, CompPosition, u32)>,
    stats: CacheStats,
}

impl CompTypeCache {
    /// An empty cache.
    pub fn new() -> Self {
        CompTypeCache::default()
    }

    /// Records one evaluation of the `(owner, method, position)` slot and
    /// reports whether the keyed cache should engage for it: `false` for
    /// the slot's first evaluation (no repetition proven yet — the caller
    /// should evaluate directly and skip key building), `true` afterwards.
    pub fn note_evaluation(&mut self, owner: &str, method: &str, position: CompPosition) -> bool {
        for (o, m, p, count) in &mut self.slots {
            if *p == position && o == owner && m == method {
                *count += 1;
                return true;
            }
        }
        self.slots.push((owner.to_string(), method.to_string(), position, 1));
        self.stats.misses += 1;
        false
    }

    /// Looks up a previous evaluation.  Store-dependent entries whose
    /// generation no longer matches `store` are evicted and reported as
    /// misses.
    pub fn lookup(&mut self, key: &CacheKey, store: &TypeStore) -> Option<Result<Type, TlcError>> {
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
    pub fn insert(&mut self, key: CacheKey, result: Result<Type, TlcError>, store: &TypeStore) {
        let store_dependent =
            key.depends_on_store() || matches!(&result, Ok(t) if t.contains_store_backed());
        self.entries
            .insert(key, CacheEntry { result, store_dependent, generation: store.generation() });
    }

    /// The number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdl_types::HashKey;

    fn key_for(store: &TypeStore, tself: &Type) -> CacheKey {
        key_for_sem(store, tself, 0xfeed)
    }

    fn key_for_sem(store: &TypeStore, tself: &Type, semantic: u64) -> CacheKey {
        let mut bindings = HashMap::new();
        bindings.insert("tself".to_string(), TlcValue::Type(tself.clone()));
        CacheKey::build("Table", "where", CompPosition::Param(0), semantic, &bindings, store)
            .unwrap()
    }

    #[test]
    fn hit_after_insert_and_stats() {
        let store = TypeStore::new();
        let mut cache = CompTypeCache::new();
        let key = key_for(&store, &Type::class_of("User"));
        assert!(cache.lookup(&key, &store).is_none());
        cache.insert(key.clone(), Ok(Type::nominal("String")), &store);
        assert_eq!(cache.lookup(&key, &store), Some(Ok(Type::nominal("String"))));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1, invalidations: 0 });
    }

    #[test]
    fn non_type_bindings_refuse_to_build_a_key() {
        let store = TypeStore::new();
        let mut bindings = HashMap::new();
        bindings.insert("tself".to_string(), TlcValue::Sym("x".to_string()));
        assert!(CacheKey::build("Hash", "[]", CompPosition::Ret, 0, &bindings, &store).is_none());
    }

    #[test]
    fn semantic_hash_partitions_the_key_space() {
        // The same slot and bindings under an edited comp expression (or
        // helper closure) must not hit entries recorded for the old one.
        let store = TypeStore::new();
        let mut cache = CompTypeCache::new();
        let old = key_for_sem(&store, &Type::class_of("User"), 1);
        cache.insert(old.clone(), Ok(Type::nominal("String")), &store);
        let new = key_for_sem(&store, &Type::class_of("User"), 2);
        assert!(cache.lookup(&new, &store).is_none());
        assert!(cache.lookup(&old, &store).is_some());
    }

    #[test]
    fn structurally_identical_store_types_share_a_key() {
        // Every call site allocates fresh ids for literal hashes; the cache
        // must still hit across sites when the *content* is identical.
        let mut store = TypeStore::new();
        let h1 = store.new_finite_hash(vec![(HashKey::Sym("id".into()), Type::int(1))]);
        let h2 = store.new_finite_hash(vec![(HashKey::Sym("id".into()), Type::int(1))]);
        assert_ne!(h1, h2, "distinct ids");
        assert_eq!(key_for(&store, &h1), key_for(&store, &h2));
        // Mutating one of them changes its fingerprint, so it stops
        // matching entries recorded for the old content.
        let Type::FiniteHash(id) = h2 else { panic!() };
        store.weak_update_hash(id, HashKey::Sym("id".into()), Type::nominal("String"));
        assert_ne!(key_for(&store, &h1), key_for(&store, &h2));
    }

    #[test]
    fn promotion_invalidates_store_backed_keys() {
        let mut store = TypeStore::new();
        let mut cache = CompTypeCache::new();
        let hash = store.new_finite_hash(vec![(HashKey::Sym("id".into()), Type::int(1))]);
        let key = key_for(&store, &hash);
        cache.insert(key.clone(), Ok(Type::nominal("Integer")), &store);
        assert!(cache.lookup(&key, &store).is_some());

        // Promoting the hash bumps the generation; the entry must die.
        let Type::FiniteHash(id) = hash else { panic!() };
        store.promote_finite_hash(id);
        assert!(cache.lookup(&key, &store).is_none(), "stale entry survived promotion");
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn weak_update_invalidates_store_backed_results() {
        let mut store = TypeStore::new();
        let mut cache = CompTypeCache::new();
        // Key is store-free, but the *result* is a store-backed schema hash.
        let key = key_for(&store, &Type::class_of("User"));
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
        let mut cache = CompTypeCache::new();
        let key = key_for(&store, &Type::class_of("User"));
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
        let mut cache = CompTypeCache::new();
        let key = key_for(&store, &Type::nominal("String"));
        cache.insert(key.clone(), Err(TlcError::new("boom")), &store);
        assert_eq!(cache.lookup(&key, &store), Some(Err(TlcError::new("boom"))));
    }
}
