//! The run-time check memo shared by every [`CompRdlHook`] constructed over
//! it: one bounded, `Send + Sync` table of check verdicts per namespace,
//! keyed on `(call site, value fingerprint)` within the `before_call` or
//! `after_call` table.
//!
//! [`CompRdlHook`]: crate::runtime::CompRdlHook
//!
//! ## One lock per namespace
//!
//! A namespace is one program ([`memo_namespace`] of its name): every hook
//! replaying that program shares its verdicts, and no other program ever
//! sees them.  Each namespace's [`NamespaceState`] keeps its verdicts and
//! counters behind one `Mutex`, next to its epoch.  The verdict table is
//! keyed by `(table, call site, value fingerprint)` and hashes with
//! [`ruby_syntax::fxhash`]: the keys come from the program being checked,
//! so SipHash's HashDoS resistance buys nothing, and a lookup is on the
//! path of every checked call.  A hook resolves its namespace's state
//! once, at construction, so a lookup or insert takes that namespace's
//! lock and no other: not the [`SharedMemo`] registry's, not another
//! namespace's.  The corpus harnesses run one thread per app, so two
//! threads only meet on a lock when they replay the same program.
//!
//! ## Per-namespace epochs
//!
//! A hook's [`mutate_store`] (or a comp-type evaluation that mutates
//! type-level state mid-flight) bumps its own namespace's epoch, and a
//! lookup judges freshness against the caller's store generation and the
//! namespace's current epoch.  This is sound because namespaces never
//! share keys: an entry is only ever replayed by hooks of the namespace
//! that recorded it, and those hooks are deterministic replays of one
//! program whose mutations all bump the same counter.  A migration in app
//! A cannot invalidate, and does not flush, app B's entries.
//!
//! [`mutate_store`]: crate::runtime::CompRdlHook::mutate_store
//!
//! ## Bounded namespaces
//!
//! A namespace holds at most [`SharedMemo::NAMESPACE_CAPACITY`] entries.
//! Inserting a new key into a full namespace clears that namespace's table
//! and counts the dropped entries as evictions; other namespaces keep
//! theirs.  An evicted entry costs its next reader a re-evaluation, never
//! a different verdict, so long-lived runs hold memo memory bounded.

use crate::cache::CacheStats;
use crate::runtime::BlameDiagnostic;
use rdl_types::Fingerprint;
use ruby_syntax::{FxHashMap, Span};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Derives a stable memo namespace from a program / app name, so replays of
/// the same program share entries while unrelated programs never do.
pub fn memo_namespace(name: &str) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write_str(name);
    fp.finish()
}

/// Memo keys within one namespace: `(call site, value fingerprint)`.  Each
/// namespace owns its table, so programs whose spans collide (every corpus
/// app starts at file 0, offset 0) never exchange verdicts.
pub type MemoKey = (Span, u64);

/// Which callback's verdicts a memo operation addresses (`before_call`
/// consistency checks vs `after_call` return checks); part of the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoTable {
    /// `before_call` outcomes, keyed on the receiver+argument fingerprint.
    Before,
    /// `after_call` outcomes, keyed on the return-value fingerprint.
    After,
}

/// A point-in-time snapshot of one namespace's counters and epoch, labeled
/// with the app name it was registered under (see
/// [`SharedMemo::register_namespace`]).
#[derive(Debug, Clone, PartialEq)]
pub struct NamespaceStats {
    /// The label the namespace was registered with (empty for namespaces
    /// that were only ever derived from a raw id).
    pub label: String,
    /// The namespace id ([`memo_namespace`] of the label, for registered
    /// namespaces).
    pub namespace: u64,
    /// The namespace's current epoch: how many store mutations its hooks
    /// have observed.
    pub epoch: u64,
    /// The namespace's counters.
    pub stats: CacheStats,
}

/// One recorded verdict and the stamps it was recorded at.
#[derive(Debug)]
struct Entry {
    generation: u64,
    epoch: u64,
    outcome: Result<(), BlameDiagnostic>,
}

/// A namespace's verdicts and counters, guarded together by one lock.
#[derive(Debug, Default)]
struct Table {
    entries: FxHashMap<(MemoTable, Span, u64), Entry>,
    stats: CacheStats,
}

/// One namespace's verdicts, counters and epoch.  Hooks (and direct
/// [`NamespaceState::lookup`] callers) resolve their namespace's state
/// once via [`SharedMemo::namespace_state`] and then never touch the
/// registry again.
#[derive(Debug, Default)]
pub struct NamespaceState {
    label: OnceLock<String>,
    epoch: AtomicU64,
    table: Mutex<Table>,
}

impl NamespaceState {
    /// The namespace's current epoch.  Entries recorded at an older epoch
    /// are stale: some hook of this namespace's store has mutated since.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Advances the namespace's epoch, invalidating (lazily, on next
    /// lookup) every entry recorded under it.  Other namespaces' entries
    /// are untouched — they never share keys with this one.
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    fn table(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up a verdict, removing a stamp-stale entry (a store mutation
    /// between calls must force re-evaluation, §4).  Returns the recorded
    /// outcome (if fresh) and whether a stale entry was removed; a removal
    /// counts as a miss and an invalidation.
    ///
    /// Freshness compares the entry's stamps against the caller's store
    /// `generation` and the namespace's current epoch, read under the
    /// namespace lock: an entry recorded just before a concurrent bump is
    /// rejected, and an entry a sibling hook recorded at the newest epoch
    /// is never removed.
    pub fn lookup(
        &self,
        table: MemoTable,
        key: &MemoKey,
        generation: u64,
    ) -> (Option<Result<(), BlameDiagnostic>>, bool) {
        let key = (table, key.0, key.1);
        let mut guard = self.table();
        let t = &mut *guard;
        let epoch = self.epoch();
        match t.entries.get(&key) {
            Some(entry) if entry.generation == generation && entry.epoch == epoch => {
                t.stats.hits += 1;
                (Some(entry.outcome.clone()), false)
            }
            Some(_) => {
                t.entries.remove(&key);
                t.stats.misses += 1;
                t.stats.invalidations += 1;
                (None, true)
            }
            None => {
                t.stats.misses += 1;
                (None, false)
            }
        }
    }

    /// Records a verdict for `key`, stamped with the caller's store
    /// `generation` and the namespace `epoch` the caller sampled before
    /// evaluating, replacing any entry a sibling recorded meanwhile.  A new
    /// key that would take the namespace past
    /// [`SharedMemo::NAMESPACE_CAPACITY`] first clears the namespace's
    /// table and counts the dropped entries as evictions.
    pub fn insert(
        &self,
        table: MemoTable,
        key: &MemoKey,
        generation: u64,
        epoch: u64,
        outcome: &Result<(), BlameDiagnostic>,
    ) {
        let key = (table, key.0, key.1);
        let mut t = self.table();
        if t.entries.len() >= SharedMemo::NAMESPACE_CAPACITY && !t.entries.contains_key(&key) {
            t.stats.evictions += t.entries.len() as u64;
            t.entries.clear();
        }
        t.entries.insert(key, Entry { generation, epoch, outcome: outcome.clone() });
    }

    fn snapshot(&self, namespace: u64) -> NamespaceStats {
        NamespaceStats {
            label: self.label.get().cloned().unwrap_or_default(),
            namespace,
            epoch: self.epoch(),
            stats: self.table().stats,
        }
    }
}

/// The run-time check memo shared by every
/// [`CompRdlHook`](crate::runtime::CompRdlHook) constructed over it: a
/// registry of namespaces, each with its own verdicts (see the module docs).
#[derive(Default)]
pub struct SharedMemo {
    namespaces: Mutex<HashMap<u64, Arc<NamespaceState>>>,
}

impl SharedMemo {
    /// The most entries one namespace holds: comfortably above any corpus
    /// app's live-entry count, while bounding a long-lived run to a few
    /// megabytes of memo per program.
    pub const NAMESPACE_CAPACITY: usize = 16 * 1024;

    /// An empty memo.
    pub fn new() -> Self {
        SharedMemo::default()
    }

    fn registry(&self) -> MutexGuard<'_, HashMap<u64, Arc<NamespaceState>>> {
        self.namespaces.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Total number of recorded entries across all namespaces.
    pub fn len(&self) -> usize {
        self.registry().values().map(|ns| ns.table().entries.len()).sum()
    }

    /// True when no entries are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registers (or re-labels) the namespace for `name` and returns its
    /// id — [`memo_namespace`]`(name)`.  Harnesses register each app's
    /// name so [`SharedMemo::namespace_stats`] can report per-app rows.
    pub fn register_namespace(&self, name: &str) -> u64 {
        let id = memo_namespace(name);
        self.namespace_state(id).label.get_or_init(|| name.to_string());
        id
    }

    /// The current epoch of `namespace` (0 if it has never been touched).
    pub fn namespace_epoch(&self, namespace: u64) -> u64 {
        self.namespace_state(namespace).epoch()
    }

    /// Advances `namespace`'s epoch, lazily invalidating every entry
    /// recorded under it — and only under it.  Hooks call this through
    /// [`mutate_store`](crate::runtime::CompRdlHook::mutate_store)
    /// whenever a store mutation is observed; harnesses can call it
    /// directly to model an out-of-band type-level change to one program.
    pub fn bump_namespace_epoch(&self, namespace: u64) {
        self.namespace_state(namespace).bump_epoch();
    }

    /// Aggregate hit / miss / invalidation / eviction counters across
    /// every namespace (and therefore every hook) sharing this memo.
    pub fn stats(&self) -> CacheStats {
        self.registry()
            .values()
            .fold(CacheStats::default(), |total, ns| total.merged(ns.table().stats))
    }

    /// Per-namespace counter snapshots, sorted by label then namespace id
    /// so the rendering is deterministic.
    pub fn namespace_stats(&self) -> Vec<NamespaceStats> {
        let mut rows: Vec<NamespaceStats> =
            self.registry().iter().map(|(id, state)| state.snapshot(*id)).collect();
        rows.sort_by(|a, b| a.label.cmp(&b.label).then(a.namespace.cmp(&b.namespace)));
        rows
    }

    /// The shared state of `namespace`, created on first use.  Hooks
    /// resolve this once at construction; per-lookup paths never touch
    /// the registry lock.
    pub fn namespace_state(&self, namespace: u64) -> Arc<NamespaceState> {
        self.registry().entry(namespace).or_default().clone()
    }
}

impl std::fmt::Debug for SharedMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Each `let` drops its registry guard before the next one locks:
        // `len()` takes the registry lock too, and it is not reentrant.
        let namespaces = self.registry().len();
        let len = self.len();
        f.debug_struct("SharedMemo").field("namespaces", &namespaces).field("len", &len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::BLAME_RETURN;

    fn key(n: usize, fp: u64) -> MemoKey {
        (Span::new(n * 10, n * 10 + 5, n as u32 + 1), fp)
    }

    fn blame(msg: &str) -> BlameDiagnostic {
        BlameDiagnostic { site: Span::new(1, 2, 1), code: BLAME_RETURN, message: msg.to_string() }
    }

    #[test]
    fn insert_then_lookup_roundtrips_ok_and_blame() {
        let memo = SharedMemo::new();
        let ns = memo.namespace_state(7);
        let k_ok = key(1, 11);
        let k_bad = key(2, 22);
        ns.insert(MemoTable::After, &k_ok, 0, 0, &Ok(()));
        ns.insert(MemoTable::After, &k_bad, 0, 0, &Err(blame("nope")));
        assert_eq!(ns.lookup(MemoTable::After, &k_ok, 0), (Some(Ok(())), false));
        let (got, _) = ns.lookup(MemoTable::After, &k_bad, 0);
        assert_eq!(got, Some(Err(blame("nope"))));
        // The before/after tables are distinct key spaces.
        let (got, evicted) = ns.lookup(MemoTable::Before, &k_ok, 0);
        assert_eq!((got, evicted), (None, false));
        assert_eq!(memo.len(), 2);
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn stale_generation_and_stale_epoch_both_invalidate() {
        let memo = SharedMemo::new();
        let ns = memo.namespace_state(7);
        let k = key(1, 11);
        ns.insert(MemoTable::After, &k, 0, 0, &Ok(()));
        // Newer generation: stale.
        assert_eq!(ns.lookup(MemoTable::After, &k, 1), (None, true));
        ns.insert(MemoTable::After, &k, 1, 0, &Ok(()));
        // Namespace epoch bump: stale.
        ns.bump_epoch();
        assert_eq!(ns.lookup(MemoTable::After, &k, 1), (None, true));
        assert_eq!(memo.len(), 0);
        assert_eq!(memo.stats().invalidations, 2);
    }

    #[test]
    fn epoch_bumps_do_not_cross_namespaces() {
        let memo = SharedMemo::new();
        let ns_a = memo.namespace_state(1);
        let ns_b = memo.namespace_state(2);
        let k = key(1, 11);
        ns_a.insert(MemoTable::After, &k, 0, ns_a.epoch(), &Ok(()));
        ns_b.insert(MemoTable::After, &k, 0, ns_b.epoch(), &Ok(()));
        memo.bump_namespace_epoch(1);
        assert_eq!(
            ns_a.lookup(MemoTable::After, &k, 0),
            (None, true),
            "a's entry is stale after a's bump"
        );
        assert_eq!(
            ns_b.lookup(MemoTable::After, &k, 0),
            (Some(Ok(())), false),
            "b's entry must survive a's bump"
        );
        assert_eq!(memo.namespace_epoch(1), 1);
        assert_eq!(memo.namespace_epoch(2), 0);
    }

    #[test]
    fn capacity_overflow_evicts_instead_of_growing() {
        const CAP: usize = SharedMemo::NAMESPACE_CAPACITY;
        let memo = SharedMemo::new();
        let ns = memo.namespace_state(7);
        // Two and a half namespaces' worth of distinct keys: the bound is
        // reached twice, and each time the full table is dropped.
        let keys = (CAP * 5 / 2) as u64;
        for fp in 0..keys {
            ns.insert(MemoTable::After, &key(1, fp), 0, 0, &Ok(()));
        }
        assert_eq!(memo.len(), CAP / 2, "capacity is a hard bound");
        assert_eq!(memo.stats().evictions, 2 * CAP as u64, "overflow must evict");
        // Re-recording a key that is present never evicts, even when full.
        for fp in keys..keys + (CAP / 2) as u64 {
            ns.insert(MemoTable::After, &key(1, fp), 0, 0, &Ok(()));
        }
        ns.insert(MemoTable::After, &key(1, keys), 0, 0, &Ok(()));
        assert_eq!((memo.len(), memo.stats().evictions), (CAP, 2 * CAP as u64));
        // Evicted keys miss rather than erroring; only the entries
        // recorded since the last clear still hit.
        let hits = (0..keys + (CAP / 2) as u64)
            .filter(|fp| ns.lookup(MemoTable::After, &key(1, *fp), 0).0.is_some())
            .count();
        assert_eq!(hits, CAP);
    }

    #[test]
    fn debug_formatting_returns_and_reports_sizes() {
        let memo = SharedMemo::new();
        assert_eq!(format!("{memo:?}"), "SharedMemo { namespaces: 0, len: 0 }");
        memo.namespace_state(7).insert(MemoTable::After, &key(1, 11), 0, 0, &Ok(()));
        memo.namespace_state(8);
        assert_eq!(format!("{memo:?}"), "SharedMemo { namespaces: 2, len: 1 }");
    }

    #[test]
    fn registered_namespaces_report_labeled_stats() {
        let memo = SharedMemo::new();
        let a = memo.register_namespace("app-a");
        let b = memo.register_namespace("app-b");
        assert_eq!(a, memo_namespace("app-a"));
        let ns_a = memo.namespace_state(a);
        ns_a.insert(MemoTable::After, &key(1, 1), 0, 0, &Ok(()));
        let _ = ns_a.lookup(MemoTable::After, &key(1, 1), 0);
        memo.bump_namespace_epoch(b);
        let rows = memo.namespace_stats();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label, "app-a");
        assert_eq!((rows[0].stats.hits, rows[0].epoch), (1, 0));
        assert_eq!(rows[1].label, "app-b");
        assert_eq!((rows[1].stats.hits, rows[1].epoch), (0, 1));
    }
}
