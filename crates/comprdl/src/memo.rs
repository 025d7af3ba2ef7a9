//! The concurrent run-time check memo shared by every [`CompRdlHook`]
//! constructed over it: a sharded, bounded, `Send + Sync` table of check
//! verdicts keyed on `(namespace, call site, value fingerprint)`.
//!
//! [`CompRdlHook`]: crate::runtime::CompRdlHook
//!
//! ## Lock-free reads (seqlock shards)
//!
//! The PR 4 memo guarded each shard's `HashMap` with a `Mutex`, so every
//! warm *read* — the overwhelmingly common operation on a long-lived server
//! — serialized on a lock and paid SipHash over the whole key.  Each shard
//! is now an **open-addressed slot array** read without any lock: every
//! slot carries an odd/even **sequence word** (`seq`), and its key, stamp
//! and flag fields are plain atomics.
//!
//! * **Readers** load `seq` (odd means a writer is mid-update: spin
//!   briefly, then treat the slot as unusable — a miss is always sound),
//!   load the fields, and re-check `seq`; a changed word means the read
//!   was torn and the reader retries.  A consistent, key-matching,
//!   fresh-stamped snapshot is a hit with no lock acquired.
//! * **Writers** (miss/insert, stale-entry removal, eviction) take the
//!   shard's write `Mutex`, bump `seq` to odd, update the fields, and bump
//!   it back to even.  Writes only happen on misses and invalidations, so
//!   the lock is off the warm path entirely.
//!
//! Blame payloads (`Err` verdicts carry an owned [`BlameDiagnostic`])
//! cannot be read as a torn-tolerant word, so each slot keeps its blame in
//! a tiny per-slot `Mutex<Option<Arc<..>>>` touched **only** when the
//! verdict is a blame — the `Ok` fast path never locks anything, and a
//! blame replay contends on one slot, never on a shard.
//!
//! ## Per-namespace epochs
//!
//! PR 4's epoch was a single global counter: any hook's store mutation
//! lazily flushed *every* namespace's warm entries, so one app's mid-suite
//! migration cost the other seven apps their hit rate.  The epoch is now
//! **per namespace** — a hook's [`mutate_store`] (or a comp-type
//! evaluation that mutates type-level state mid-flight) bumps only its own
//! namespace's counter, and a lookup re-reads that namespace's epoch (not
//! a global one) when judging freshness.  This is sound because namespaces
//! never share keys: an entry is only ever replayed by hooks of the
//! namespace that recorded it, and those hooks are deterministic replays
//! of one program whose mutations all bump the same counter.  A migration
//! in app A literally cannot invalidate — and no longer flushes — app B's
//! entries.
//!
//! [`mutate_store`]: crate::runtime::CompRdlHook::mutate_store
//!
//! ## Bounded shards (CLOCK eviction)
//!
//! PR 4's `HashMap` shards grew without bound.  Slot arrays are now
//! **fixed-capacity** ([`SharedMemo::with_capacity`]); a key probes a
//! short window of slots, and an insert that finds its window full evicts
//! by **second-chance (CLOCK)**: every hit sets the slot's referenced
//! flag, the victim scan clears flags until it finds an unreferenced slot,
//! and the evicted entry simply costs its next reader a re-evaluation —
//! eviction can never change a verdict, only the hit rate.  Long-lived
//! runs therefore hold memo memory constant.

use crate::runtime::BlameDiagnostic;
use rdl_types::Fingerprint;
use ruby_syntax::Span;
use std::collections::HashMap;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Derives a stable memo namespace from a program / app name, so replays of
/// the same program share entries while unrelated programs never do.
pub fn memo_namespace(name: &str) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write_str(name);
    fp.finish()
}

/// Memo keys: `(namespace, call site, value fingerprint)`.  The namespace
/// keeps programs whose spans collide (every corpus app starts at file 0,
/// offset 0) from ever exchanging verdicts.
pub type MemoKey = (u64, Span, u64);

/// Which callback's verdicts a memo operation addresses (`before_call`
/// consistency checks vs `after_call` return checks); part of the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoTable {
    /// `before_call` outcomes, keyed on the receiver+argument fingerprint.
    Before,
    /// `after_call` outcomes, keyed on the return-value fingerprint.
    After,
}

/// Aggregate counters of one [`SharedMemo`] (or one namespace within it):
/// hits, misses, stamp invalidations, and capacity evictions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that fell through to evaluation.
    pub misses: u64,
    /// Entries removed because a stamp (store generation or namespace
    /// epoch) moved past them; every invalidation is also counted as a
    /// miss.
    pub invalidations: u64,
    /// Entries displaced by capacity pressure (the CLOCK second-chance
    /// victim scan), attributed to the namespace that *owned* the evicted
    /// entry.
    pub evictions: u64,
}

impl MemoStats {
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
    pub stats: MemoStats,
}

/// Per-namespace shared state: the epoch its entries are stamped with and
/// the counters its lookups update.  Hooks (and direct [`SharedMemo::lookup`]
/// callers) resolve their namespace's state once via
/// [`SharedMemo::namespace_state`] and then never touch the registry map
/// again.
#[derive(Debug, Default)]
pub struct NamespaceState {
    label: Mutex<String>,
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
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

    fn snapshot(&self, namespace: u64) -> NamespaceStats {
        NamespaceStats {
            label: self.label.lock().unwrap_or_else(|e| e.into_inner()).clone(),
            namespace,
            epoch: self.epoch(),
            stats: MemoStats {
                hits: self.hits.load(Ordering::Relaxed),
                misses: self.misses.load(Ordering::Relaxed),
                invalidations: self.invalidations.load(Ordering::Relaxed),
                evictions: self.evictions.load(Ordering::Relaxed),
            },
        }
    }
}

/// Slot flag bits (stored in [`Slot::flags`], seqlock-guarded except for
/// the referenced bit, which readers set with a lock-free RMW on hit).
const FLAG_OCCUPIED: u64 = 1;
/// Set when the slot belongs to the `after_call` table (part of the key).
const FLAG_AFTER: u64 = 2;
/// Set when the verdict is a blame (the payload lives in [`Slot::blame`]).
const FLAG_BLAME: u64 = 4;
/// CLOCK second-chance bit: set on every hit, cleared by the victim scan.
const FLAG_REFERENCED: u64 = 8;

/// How many consecutive slots a key may occupy (its probe window), and
/// therefore how many slots a lookup scans.  Bounded probing is what makes
/// eviction safe: a key is only ever found inside its own window, so
/// displacing any slot can only turn someone's hit into a miss.
const PROBE_WINDOW: usize = 8;

/// How many times a reader retries a torn or mid-write slot before giving
/// up and treating it as a miss (sound: a miss just re-evaluates).
const SPIN_LIMIT: usize = 64;

/// One seqlock-guarded slot of a shard's open-addressed entry table.
///
/// All fields except `blame` are atomics written only by the shard's
/// (mutex-serialized) writers inside an odd `seq` window and read by
/// anyone; `blame` is the out-of-line payload for `Err` verdicts, guarded
/// by its own per-slot mutex so the `Ok` fast path never locks.
#[derive(Debug, Default)]
struct Slot {
    /// Sequence word: `0` = never written, odd = writer mid-update, other
    /// even = stable.  Monotonically increasing.
    seq: AtomicU64,
    flags: AtomicU64,
    ns: AtomicU64,
    fp: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
    line_file: AtomicU64,
    generation: AtomicU64,
    epoch: AtomicU64,
    blame: Mutex<Option<Arc<BlameDiagnostic>>>,
}

/// A validated (untorn) copy of one slot's seqlock-guarded fields.
struct SlotSnapshot {
    flags: u64,
    ns: u64,
    fp: u64,
    start: u64,
    end: u64,
    line_file: u64,
    generation: u64,
    epoch: u64,
    blame: Option<Arc<BlameDiagnostic>>,
}

impl Slot {
    /// Seqlock read: returns a consistent snapshot, or `None` if the slot
    /// stayed torn / mid-write for [`SPIN_LIMIT`] attempts (callers treat
    /// that as a miss).
    fn read(&self) -> Option<SlotSnapshot> {
        for _ in 0..SPIN_LIMIT {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let flags = self.flags.load(Ordering::Relaxed);
            let snap = SlotSnapshot {
                flags,
                ns: self.ns.load(Ordering::Relaxed),
                fp: self.fp.load(Ordering::Relaxed),
                start: self.start.load(Ordering::Relaxed),
                end: self.end.load(Ordering::Relaxed),
                line_file: self.line_file.load(Ordering::Relaxed),
                generation: self.generation.load(Ordering::Relaxed),
                epoch: self.epoch.load(Ordering::Relaxed),
                // Only blame-carrying verdicts pay for the per-slot lock;
                // the clone is an `Arc` bump, and the seq re-check below
                // rejects the snapshot if a writer replaced the payload
                // while we held it.
                blame: if flags & FLAG_BLAME != 0 {
                    self.blame.lock().unwrap_or_else(|e| e.into_inner()).clone()
                } else {
                    None
                },
            };
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == s1 {
                return Some(snap);
            }
            std::hint::spin_loop();
        }
        None
    }

    /// Whether this (consistent) snapshot holds exactly `key` in `table`.
    fn snapshot_matches(snap: &SlotSnapshot, table: MemoTable, key: &MemoKey) -> bool {
        let (namespace, site, fp) = key;
        snap.flags & FLAG_OCCUPIED != 0
            && ((snap.flags & FLAG_AFTER != 0) == matches!(table, MemoTable::After))
            && snap.ns == *namespace
            && snap.fp == *fp
            && snap.start == site.start as u64
            && snap.end == site.end as u64
            && snap.line_file == pack_line_file(site)
    }

    /// Writes `key` + verdict into the slot under the seqlock write
    /// protocol.  Caller must hold the shard's write mutex.
    fn write(
        &self,
        table: MemoTable,
        key: &MemoKey,
        generation: u64,
        epoch: u64,
        outcome: &Result<(), BlameDiagnostic>,
    ) {
        let (namespace, site, fp) = key;
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        self.ns.store(*namespace, Ordering::Relaxed);
        self.fp.store(*fp, Ordering::Relaxed);
        self.start.store(site.start as u64, Ordering::Relaxed);
        self.end.store(site.end as u64, Ordering::Relaxed);
        self.line_file.store(pack_line_file(site), Ordering::Relaxed);
        self.generation.store(generation, Ordering::Relaxed);
        self.epoch.store(epoch, Ordering::Relaxed);
        let mut flags = FLAG_OCCUPIED | FLAG_REFERENCED;
        if matches!(table, MemoTable::After) {
            flags |= FLAG_AFTER;
        }
        let blame = match outcome {
            Ok(()) => None,
            Err(b) => {
                flags |= FLAG_BLAME;
                Some(Arc::new(b.clone()))
            }
        };
        *self.blame.lock().unwrap_or_else(|e| e.into_inner()) = blame;
        self.flags.store(flags, Ordering::Relaxed);
        self.seq.store(s + 2, Ordering::Release);
    }

    /// Marks the slot empty under the seqlock write protocol.  Caller must
    /// hold the shard's write mutex.
    fn clear(&self) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        self.flags.store(0, Ordering::Relaxed);
        *self.blame.lock().unwrap_or_else(|e| e.into_inner()) = None;
        self.seq.store(s + 2, Ordering::Release);
    }
}

/// Packs a span's line and file id into one slot word.
fn pack_line_file(site: &Span) -> u64 {
    (u64::from(site.line) << 32) | u64::from(site.file)
}

/// Writer-side shard state, serialized by the shard mutex.
#[derive(Debug, Default)]
struct WriterState {
    /// CLOCK hand: rotates the victim-scan start within the probe window
    /// so eviction pressure does not always land on the window's first
    /// slot.
    clock: usize,
    /// Evictions not yet attributed to their namespace's counters, keyed
    /// by the displaced entry's namespace.  Tallied here — under the shard
    /// lock the evicting insert already holds — and drained to the
    /// namespace registry lazily by the stats readers, so the write path
    /// never touches the global registry mutex (under sustained capacity
    /// pressure that lock would otherwise serialize every shard's
    /// evicting inserts).
    pending_evictions: HashMap<u64, u64>,
}

/// One shard: a fixed-size open-addressed slot array (power-of-two length)
/// read lock-free, plus the write mutex that serializes inserts, stale
/// removals and evictions.
#[derive(Debug)]
struct Shard {
    slots: Box<[Slot]>,
    mask: usize,
    len: AtomicUsize,
    writer: Mutex<WriterState>,
}

impl Shard {
    fn new(slots: usize) -> Self {
        Shard {
            slots: (0..slots).map(|_| Slot::default()).collect(),
            mask: slots - 1,
            len: AtomicUsize::new(0),
            writer: Mutex::new(WriterState::default()),
        }
    }
}

/// The concurrent run-time check memo shared by every
/// [`CompRdlHook`](crate::runtime::CompRdlHook) constructed over it (see
/// the module docs for the read path, epoch and eviction design).
pub struct SharedMemo {
    shards: Box<[Shard]>,
    namespaces: Mutex<HashMap<u64, Arc<NamespaceState>>>,
}

impl SharedMemo {
    /// Default shard count: enough that one thread per corpus app rarely
    /// contends on the write path, small enough that shard occupancy stats
    /// stay readable.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Default total capacity (entries across all shards): comfortably
    /// above the live-entry count of the whole corpus harness, while
    /// bounding a long-lived server run to a few megabytes of memo.
    pub const DEFAULT_CAPACITY: usize = 16 * 1024;

    /// A memo with [`SharedMemo::DEFAULT_SHARDS`] shards and
    /// [`SharedMemo::DEFAULT_CAPACITY`] capacity.
    pub fn new() -> Self {
        SharedMemo::with_settings(Self::DEFAULT_SHARDS, Self::DEFAULT_CAPACITY)
    }

    /// A memo with `shards` shards (clamped to at least 1) at the default
    /// capacity.
    pub fn with_shards(shards: usize) -> Self {
        SharedMemo::with_settings(shards, Self::DEFAULT_CAPACITY)
    }

    /// A memo bounded to roughly `entries` recorded verdicts across the
    /// default shard count.  Capacity is a hard bound enforced by CLOCK
    /// second-chance eviction, never by refusing inserts: overflow costs
    /// hit rate, not correctness.
    pub fn with_capacity(entries: usize) -> Self {
        SharedMemo::with_settings(Self::DEFAULT_SHARDS, entries)
    }

    /// Full-control constructor: `shards` shards (≥ 1) and a total
    /// capacity of roughly `entries` slots (rounded up to a power of two
    /// per shard, at least the probe window).
    pub fn with_settings(shards: usize, entries: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = entries.div_ceil(shards).next_power_of_two().max(PROBE_WINDOW);
        SharedMemo {
            shards: (0..shards).map(|_| Shard::new(per_shard)).collect(),
            namespaces: Mutex::new(HashMap::new()),
        }
    }

    /// Total slot capacity (the hard bound on recorded entries).
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.slots.len()).sum()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Entries currently recorded per shard, in shard order.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.len.load(Ordering::Relaxed)).collect()
    }

    /// Total number of recorded entries across all shards.
    pub fn len(&self) -> usize {
        self.shard_sizes().iter().sum()
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
        let state = self.namespace_state(id);
        let mut label = state.label.lock().unwrap_or_else(|e| e.into_inner());
        if label.is_empty() {
            *label = name.to_string();
        }
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
    pub fn stats(&self) -> MemoStats {
        self.flush_evictions();
        let map = self.namespaces.lock().unwrap_or_else(|e| e.into_inner());
        let mut total = MemoStats::default();
        for state in map.values() {
            let s = state.snapshot(0).stats;
            total.hits += s.hits;
            total.misses += s.misses;
            total.invalidations += s.invalidations;
            total.evictions += s.evictions;
        }
        total
    }

    /// Per-namespace counter snapshots, sorted by label then namespace id
    /// so the rendering is deterministic.
    pub fn namespace_stats(&self) -> Vec<NamespaceStats> {
        self.flush_evictions();
        let map = self.namespaces.lock().unwrap_or_else(|e| e.into_inner());
        let mut rows: Vec<NamespaceStats> =
            map.iter().map(|(id, state)| state.snapshot(*id)).collect();
        drop(map);
        rows.sort_by(|a, b| a.label.cmp(&b.label).then(a.namespace.cmp(&b.namespace)));
        rows
    }

    /// The shared state of `namespace`, created on first use.  Hooks
    /// resolve this once at construction; per-lookup paths never touch
    /// the registry lock.
    pub fn namespace_state(&self, namespace: u64) -> Arc<NamespaceState> {
        let mut map = self.namespaces.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(namespace).or_default().clone()
    }

    /// Hashes the full key — including the value fingerprint and the
    /// before/after table tag — so a hot call site's entries spread across
    /// shards instead of serializing on one.
    fn key_hash(table: MemoTable, key: &MemoKey) -> u64 {
        let (namespace, site, value_fp) = key;
        let mut fp = Fingerprint::new();
        fp.write_u64(*namespace);
        fp.write_usize(site.start);
        fp.write_usize(site.end);
        fp.write_u64(u64::from(site.file));
        fp.write_u64(*value_fp);
        fp.write_u8(match table {
            MemoTable::Before => 0,
            MemoTable::After => 1,
        });
        fp.finish()
    }

    fn shard_for(&self, hash: u64) -> &Shard {
        &self.shards[(hash % self.shards.len() as u64) as usize]
    }

    /// The base slot index of `hash`'s probe window within its shard.
    fn slot_index(shard: &Shard, hash: u64) -> usize {
        // Remix: the low bits already picked the shard, so fold the high
        // half in before masking down to a slot.
        (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & shard.mask
    }

    /// Looks up a verdict, evicting stamp-stale entries (a store mutation
    /// between calls must force re-evaluation, §4).  Returns the recorded
    /// outcome (if fresh) and whether a stale entry was evicted.
    ///
    /// Freshness compares the entry's stamps against the caller's store
    /// `generation` and the **namespace's current epoch**, re-read here
    /// (from `ns`, the caller's namespace state) rather than taken from
    /// any earlier sample: an entry recorded just before a concurrent bump
    /// must be rejected, and a caller holding a stale epoch sample must
    /// not evict an entry a sibling hook just recorded at the newest epoch
    /// (the removal path re-reads the epoch once more under the shard
    /// lock before touching the slot).
    ///
    /// Public so the `memo_churn` bench can drive the read path directly;
    /// `ns` must be [`SharedMemo::namespace_state`] of the key's namespace.
    pub fn lookup(
        &self,
        table: MemoTable,
        key: &MemoKey,
        generation: u64,
        ns: &NamespaceState,
    ) -> (Option<Result<(), BlameDiagnostic>>, bool) {
        let hash = Self::key_hash(table, key);
        let shard = self.shard_for(hash);
        let base = Self::slot_index(shard, hash);
        let epoch = ns.epoch();
        for i in 0..PROBE_WINDOW {
            let slot = &shard.slots[(base + i) & shard.mask];
            let snap = match slot.read() {
                Some(snap) => snap,
                // Persistently torn: a writer held the slot mid-update for
                // the whole spin budget (e.g. it was preempted).  Wait it
                // out behind the shard write mutex — once acquired no
                // writer is active, so the re-read is consistent — keeping
                // hit/miss counts deterministic under contention.
                None => {
                    let held = shard.writer.lock().unwrap_or_else(|e| e.into_inner());
                    let reread = slot.read();
                    drop(held);
                    match reread {
                        Some(snap) => snap,
                        None => continue,
                    }
                }
            };
            if !Slot::snapshot_matches(&snap, table, key) {
                continue;
            }
            if snap.generation == generation && snap.epoch == epoch {
                slot.flags.fetch_or(FLAG_REFERENCED, Ordering::Relaxed);
                ns.hits.fetch_add(1, Ordering::Relaxed);
                let outcome = match snap.blame {
                    Some(blame) => Err((*blame).clone()),
                    None => Ok(()),
                };
                return (Some(outcome), false);
            }
            // Stale stamps: remove the entry under the shard lock (unless
            // a sibling refreshed it in the meantime).
            let held = shard.writer.lock().unwrap_or_else(|e| e.into_inner());
            let removed = Self::remove_if_stale(shard, base, table, key, generation, ns);
            drop(held);
            ns.misses.fetch_add(1, Ordering::Relaxed);
            if removed {
                ns.invalidations.fetch_add(1, Ordering::Relaxed);
            }
            return (None, removed);
        }
        ns.misses.fetch_add(1, Ordering::Relaxed);
        (None, false)
    }

    /// Re-probes `key`'s window (from `base`, the slot index the caller
    /// already derived from the key hash) and clears its slot if —
    /// re-checked under the shard write mutex, with the namespace epoch
    /// re-read — its stamps are still stale.  Returns whether an entry was
    /// removed.
    ///
    /// Caller must hold the shard's write mutex.
    fn remove_if_stale(
        shard: &Shard,
        base: usize,
        table: MemoTable,
        key: &MemoKey,
        generation: u64,
        ns: &NamespaceState,
    ) -> bool {
        let epoch = ns.epoch();
        for i in 0..PROBE_WINDOW {
            let slot = &shard.slots[(base + i) & shard.mask];
            // Holding the write mutex means no writer is active; the read
            // cannot stay torn.
            let Some(snap) = slot.read() else { continue };
            if !Slot::snapshot_matches(&snap, table, key) {
                continue;
            }
            if snap.generation == generation && snap.epoch == epoch {
                return false; // a sibling refreshed it; keep it
            }
            slot.clear();
            shard.len.fetch_sub(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Records a verdict for `key`, stamped with the caller's store
    /// `generation` and the namespace `epoch` the caller sampled before
    /// evaluating.  Takes the shard write mutex; if the probe window is
    /// full, evicts by second-chance and attributes the eviction to the
    /// displaced entry's namespace.
    pub fn insert(
        &self,
        table: MemoTable,
        key: &MemoKey,
        generation: u64,
        epoch: u64,
        outcome: &Result<(), BlameDiagnostic>,
    ) {
        let hash = Self::key_hash(table, key);
        let shard = self.shard_for(hash);
        let base = Self::slot_index(shard, hash);
        let mut writer = shard.writer.lock().unwrap_or_else(|e| e.into_inner());
        // First pass: overwrite the key in place if present (a sibling may
        // have inserted while we evaluated), else remember the first empty
        // slot.  The whole window is scanned before an empty slot is used,
        // so a key can never occupy two slots.
        let mut empty = None;
        for i in 0..PROBE_WINDOW {
            let idx = (base + i) & shard.mask;
            let slot = &shard.slots[idx];
            let Some(snap) = slot.read() else { continue };
            if snap.flags & FLAG_OCCUPIED == 0 {
                empty.get_or_insert(idx);
                continue;
            }
            if Slot::snapshot_matches(&snap, table, key) {
                slot.write(table, key, generation, epoch, outcome);
                return;
            }
        }
        if let Some(idx) = empty {
            shard.slots[idx].write(table, key, generation, epoch, outcome);
            shard.len.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Window full: CLOCK second-chance.  Clear referenced bits until
        // an unreferenced slot turns up; two passes guarantee a victim
        // (after the first pass every bit is clear).
        let start = writer.clock % PROBE_WINDOW;
        writer.clock = (writer.clock + 1) % PROBE_WINDOW;
        let mut victim = (base + start) & shard.mask;
        'scan: for _pass in 0..2 {
            for i in 0..PROBE_WINDOW {
                let idx = (base + (start + i) % PROBE_WINDOW) & shard.mask;
                let slot = &shard.slots[idx];
                let flags = slot.flags.load(Ordering::Relaxed);
                if flags & FLAG_REFERENCED != 0 {
                    slot.flags.store(flags & !FLAG_REFERENCED, Ordering::Relaxed);
                } else {
                    victim = idx;
                    break 'scan;
                }
            }
        }
        let displaced = shard.slots[victim].ns.load(Ordering::Relaxed);
        *writer.pending_evictions.entry(displaced).or_insert(0) += 1;
        shard.slots[victim].write(table, key, generation, epoch, outcome);
    }

    /// Drains every shard's pending eviction tally into the namespace
    /// counters.  Called by the stats readers; each shard lock is held
    /// only long enough to take the tally, and the registry lock is never
    /// nested inside it.
    fn flush_evictions(&self) {
        for shard in self.shards.iter() {
            let pending = {
                let mut writer = shard.writer.lock().unwrap_or_else(|e| e.into_inner());
                std::mem::take(&mut writer.pending_evictions)
            };
            for (namespace, count) in pending {
                self.namespace_state(namespace).evictions.fetch_add(count, Ordering::Relaxed);
            }
        }
    }
}

impl Default for SharedMemo {
    fn default() -> Self {
        SharedMemo::new()
    }
}

impl std::fmt::Debug for SharedMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedMemo")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::BLAME_RETURN;

    fn key(ns: u64, n: usize, fp: u64) -> MemoKey {
        (ns, Span::new(n * 10, n * 10 + 5, n as u32 + 1), fp)
    }

    fn blame(msg: &str) -> BlameDiagnostic {
        BlameDiagnostic { site: Span::new(1, 2, 1), code: BLAME_RETURN, message: msg.to_string() }
    }

    #[test]
    fn insert_then_lookup_roundtrips_ok_and_blame() {
        let memo = SharedMemo::new();
        let ns = memo.namespace_state(7);
        let k_ok = key(7, 1, 11);
        let k_bad = key(7, 2, 22);
        memo.insert(MemoTable::After, &k_ok, 0, 0, &Ok(()));
        memo.insert(MemoTable::After, &k_bad, 0, 0, &Err(blame("nope")));
        assert_eq!(memo.lookup(MemoTable::After, &k_ok, 0, &ns), (Some(Ok(())), false));
        let (got, _) = memo.lookup(MemoTable::After, &k_bad, 0, &ns);
        assert_eq!(got, Some(Err(blame("nope"))));
        // The before/after tables are distinct key spaces.
        let (got, evicted) = memo.lookup(MemoTable::Before, &k_ok, 0, &ns);
        assert_eq!((got, evicted), (None, false));
        assert_eq!(memo.len(), 2);
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn stale_generation_and_stale_epoch_both_invalidate() {
        let memo = SharedMemo::new();
        let ns = memo.namespace_state(7);
        let k = key(7, 1, 11);
        memo.insert(MemoTable::After, &k, 0, 0, &Ok(()));
        // Newer generation: stale.
        assert_eq!(memo.lookup(MemoTable::After, &k, 1, &ns), (None, true));
        memo.insert(MemoTable::After, &k, 1, 0, &Ok(()));
        // Namespace epoch bump: stale.
        ns.bump_epoch();
        assert_eq!(memo.lookup(MemoTable::After, &k, 1, &ns), (None, true));
        assert_eq!(memo.len(), 0);
        assert_eq!(memo.stats().invalidations, 2);
    }

    #[test]
    fn epoch_bumps_do_not_cross_namespaces() {
        let memo = SharedMemo::new();
        let ns_a = memo.namespace_state(1);
        let ns_b = memo.namespace_state(2);
        let ka = key(1, 1, 11);
        let kb = key(2, 1, 11);
        memo.insert(MemoTable::After, &ka, 0, ns_a.epoch(), &Ok(()));
        memo.insert(MemoTable::After, &kb, 0, ns_b.epoch(), &Ok(()));
        memo.bump_namespace_epoch(1);
        assert_eq!(
            memo.lookup(MemoTable::After, &ka, 0, &ns_a),
            (None, true),
            "a's entry is stale after a's bump"
        );
        assert_eq!(
            memo.lookup(MemoTable::After, &kb, 0, &ns_b),
            (Some(Ok(())), false),
            "b's entry must survive a's bump"
        );
        assert_eq!(memo.namespace_epoch(1), 1);
        assert_eq!(memo.namespace_epoch(2), 0);
    }

    #[test]
    fn capacity_overflow_evicts_instead_of_growing() {
        // One shard, minimal capacity: the probe window *is* the shard.
        let memo = SharedMemo::with_settings(1, PROBE_WINDOW);
        assert_eq!(memo.capacity(), PROBE_WINDOW);
        let ns = memo.namespace_state(7);
        // All keys share one site so fingerprints alone vary: they still
        // spread over the whole window via the slot hash, and overflow
        // must displace rather than grow.
        for fp in 0..(PROBE_WINDOW as u64 * 4) {
            memo.insert(MemoTable::After, &key(7, 1, fp), 0, 0, &Ok(()));
        }
        assert!(memo.len() <= PROBE_WINDOW, "capacity is a hard bound");
        let stats = memo.stats();
        assert!(stats.evictions > 0, "overflow must evict: {stats:?}");
        // Evicted keys miss (and re-insert) rather than erroring.
        let mut hits = 0;
        for fp in 0..(PROBE_WINDOW as u64 * 4) {
            if let (Some(Ok(())), _) = memo.lookup(MemoTable::After, &key(7, 1, fp), 0, &ns) {
                hits += 1;
            }
        }
        assert!(hits > 0 && hits <= PROBE_WINDOW);
    }

    #[test]
    fn second_chance_prefers_unreferenced_victims() {
        let memo = SharedMemo::with_settings(1, PROBE_WINDOW);
        let ns = memo.namespace_state(7);
        for fp in 0..PROBE_WINDOW as u64 {
            memo.insert(MemoTable::After, &key(7, 1, fp), 0, 0, &Ok(()));
        }
        // Clear every referenced bit (one full victim scan's worth of
        // pressure), then touch fp=3 so it is the one entry with its bit
        // set again.
        memo.insert(MemoTable::After, &key(7, 2, 100), 0, 0, &Ok(()));
        let (got, _) = memo.lookup(MemoTable::After, &key(7, 1, 3), 0, &ns);
        let touched_survived = got.is_some();
        // More pressure: the next eviction must spare the just-touched
        // entry (if it survived the first round).
        memo.insert(MemoTable::After, &key(7, 2, 101), 0, 0, &Ok(()));
        if touched_survived {
            let (got, _) = memo.lookup(MemoTable::After, &key(7, 1, 3), 0, &ns);
            assert!(got.is_some(), "a referenced entry must get its second chance");
        }
        assert!(memo.stats().evictions >= 2);
    }

    #[test]
    fn readers_fall_back_to_miss_when_a_slot_stays_torn() {
        // Simulate a writer that died mid-update (odd seq, write mutex
        // free): the reader exhausts its spin budget, takes the lock
        // fallback, finds the slot still torn, and reports a sound miss
        // instead of spinning forever or returning torn data.
        let memo = SharedMemo::with_settings(1, PROBE_WINDOW);
        let ns = memo.namespace_state(7);
        let k = key(7, 1, 11);
        memo.insert(MemoTable::After, &k, 0, 0, &Ok(()));
        for slot in memo.shards[0].slots.iter() {
            let s = slot.seq.load(Ordering::Relaxed);
            slot.seq.store(s + 1, Ordering::Relaxed);
        }
        let (got, evicted) = memo.lookup(MemoTable::After, &k, 0, &ns);
        assert_eq!((got, evicted), (None, false), "torn slots must read as a sound miss");
        // The "writer" finishes; the entry is visible again.
        for slot in memo.shards[0].slots.iter() {
            let s = slot.seq.load(Ordering::Relaxed);
            slot.seq.store(s + 1, Ordering::Relaxed);
        }
        assert_eq!(memo.lookup(MemoTable::After, &k, 0, &ns), (Some(Ok(())), false));
    }

    #[test]
    fn registered_namespaces_report_labeled_stats() {
        let memo = SharedMemo::new();
        let a = memo.register_namespace("app-a");
        let b = memo.register_namespace("app-b");
        assert_eq!(a, memo_namespace("app-a"));
        let ns_a = memo.namespace_state(a);
        memo.insert(MemoTable::After, &key(a, 1, 1), 0, 0, &Ok(()));
        let _ = memo.lookup(MemoTable::After, &key(a, 1, 1), 0, &ns_a);
        memo.bump_namespace_epoch(b);
        let rows = memo.namespace_stats();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label, "app-a");
        assert_eq!((rows[0].stats.hits, rows[0].epoch), (1, 0));
        assert_eq!(rows[1].label, "app-b");
        assert_eq!((rows[1].stats.hits, rows[1].epoch), (0, 1));
    }
}
