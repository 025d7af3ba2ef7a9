//! The global hash-consing type interner.
//!
//! Every check in this system — static comp-type evaluation and the
//! inserted dynamic checks alike — bottoms out in structural walks over
//! [`Type`] trees: subtyping recurses, fingerprinting digests every node,
//! rendering rebuilds strings.  Once the memo layers read lock-free (PR 5)
//! those walks *are* the hot path.  This module makes identity a handle
//! instead of a traversal:
//!
//! * [`intern`] deduplicates `Type` nodes bottom-up into a **global,
//!   append-only arena**, so two structurally equal trees — built on any
//!   thread, at any time — always map to the same [`TypeId`].  Structural
//!   equality becomes id equality, and `is_subtype` can short-circuit on
//!   id-equal nodes.
//! * Each interned node carries a **precomputed structural fingerprint**
//!   (the same Merkle digest [`TypeStore::fingerprint`] computes by
//!   walking), so fingerprinting a store-free type is a field read.
//! * Each interned node lazily caches its **rendered string** (identical
//!   to [`TypeStore::render`] for store-free types), so blame formatting
//!   stops re-walking.
//!
//! ## Store-backed types
//!
//! Tuple / finite-hash / const-string types are *mutable* (weak updates,
//! promotion — §4 of the paper) and their ids are **per-store**: two
//! different [`TypeStore`]s can both hold `#fhash0` with different
//! content.  Such nodes are interned as opaque raw-id leaves and flagged
//! [`NodeInfo::store_backed`]; their precomputed digest and render are
//! meaningless and never exposed ([`NodeInfo::digest`] /
//! [`NodeInfo::render`] return `None`).  Fingerprinting and rendering
//! store-involving types stays the store's job (which has its own
//! generation-stamped caches).
//!
//! ## Concurrency
//!
//! The arena is process-global and append-only.  Node data lives in a
//! chunked pointer table read entirely lock-free (an `Acquire` load per
//! chunk and per slot); the dedup maps are sharded `RwLock`s taken briefly
//! on the intern path only.  Nothing is ever removed: the arena is bounded
//! by the number of *distinct* types the process constructs, which the
//! checking workloads bound by program size, not by run length.
//!
//! [`TypeStore`]: crate::store::TypeStore
//! [`TypeStore::fingerprint`]: crate::store::TypeStore::fingerprint
//! [`TypeStore::render`]: crate::store::TypeStore::render

use crate::fingerprint::Fingerprint;
use crate::ty::{SingVal, Type};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

/// Handle of an interned type node in the global arena.  Two types intern
/// to the same id **iff** they are structurally equal, so `==` on ids is
/// structural equality in O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(u32);

impl TypeId {
    /// The raw arena index (stable for the life of the process).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// The shallow, child-id form of one interned type node.  Children are
/// [`TypeId`]s, so consumers (the id-space subtype checker, renderers)
/// walk the arena without ever rebuilding owned [`Type`] trees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// `%any`.
    Top,
    /// `%bot`.
    Bot,
    /// `%bool`.
    Bool,
    /// `%dyn`.
    Dynamic,
    /// A nominal class type.
    Nominal(Box<str>),
    /// A singleton type.
    Singleton(SingVal),
    /// A generic instantiation; `args` are interned children.
    Generic {
        /// The base class name.
        base: Box<str>,
        /// Interned type arguments.
        args: Box<[TypeId]>,
    },
    /// A union of interned members (normalized order preserved from the
    /// source [`Type::Union`]).
    Union(Box<[TypeId]>),
    /// `?T`.
    Optional(TypeId),
    /// `*T`.
    Vararg(TypeId),
    /// A type variable.
    Var(Box<str>),
    /// An opaque per-store tuple id (see the module docs).
    Tuple(u32),
    /// An opaque per-store finite hash id.
    FiniteHash(u32),
    /// An opaque per-store const string id.
    ConstString(u32),
}

/// Immutable data recorded for one interned node.
pub struct NodeInfo {
    node: Node,
    digest: u64,
    store_backed: bool,
    render: OnceLock<Box<str>>,
}

impl NodeInfo {
    /// The shallow node (children as [`TypeId`]s).
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// True when this node or any descendant is a store-backed (mutable)
    /// type, whose meaning lives in a [`TypeStore`](crate::TypeStore)
    /// rather than in the arena.
    pub fn store_backed(&self) -> bool {
        self.store_backed
    }

    /// The precomputed structural fingerprint — identical to what
    /// [`TypeStore::fingerprint`](crate::TypeStore::fingerprint) computes
    /// by walking — or `None` for store-backed nodes (their digest depends
    /// on store content the arena cannot see).
    pub fn digest(&self) -> Option<u64> {
        if self.store_backed {
            None
        } else {
            Some(self.digest)
        }
    }

    /// The cached rendered form — identical to
    /// [`TypeStore::render`](crate::TypeStore::render) for store-free
    /// types — or `None` for store-backed nodes.  Computed on first use,
    /// then a pointer read.
    pub fn render(&self) -> Option<&str> {
        if self.store_backed {
            return None;
        }
        Some(self.render.get_or_init(|| {
            let mut out = String::new();
            render_into(&self.node, &mut out);
            out.into_boxed_str()
        }))
    }
}

/// Interning / arena counters, exposed so benches and tests can verify
/// the arena is deduplicating rather than growing per call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Distinct nodes interned so far (the arena size).
    pub nodes: u64,
    /// Intern calls answered by an existing node.
    pub hits: u64,
    /// Intern calls that allocated a new node.
    pub misses: u64,
}

// ---- arena storage ------------------------------------------------------

/// Nodes per chunk (kept small so a lightly used process allocates a few
/// KB of pointer table, not megabytes of slots).
const CHUNK: usize = 1024;
/// Maximum chunks: `CHUNK * CHUNKS` (≈ 4M) distinct nodes per process —
/// far above any real checking workload's distinct-type count.
const CHUNKS: usize = 4096;
/// Dedup map shards; interning takes exactly one shard lock.
const MAP_SHARDS: usize = 64;

struct Chunk {
    slots: [AtomicPtr<NodeInfo>; CHUNK],
}

impl Chunk {
    fn new() -> Box<Chunk> {
        Box::new(Chunk { slots: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())) })
    }
}

/// Pass-through hasher for pre-hashed `u64` map keys.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("pre-hashed keys are written as u64");
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// One dedup shard: node hash → candidate ids (almost always exactly one;
/// genuine 64-bit collisions fall back to a short scan).
type ShardMap = HashMap<u64, Vec<u32>, BuildHasherDefault<PreHashed>>;

struct Arena {
    chunks: [AtomicPtr<Chunk>; CHUNKS],
    shards: [RwLock<ShardMap>; MAP_SHARDS],
    /// Whole-tree prehash → candidate root ids: a warm re-intern of an
    /// already-seen tree costs one hash walk plus one lock-free lockstep
    /// verification against the arena, instead of a dedup-shard probe per
    /// node.  Bounded by the arena itself (one entry per distinct root).
    trees: [RwLock<ShardMap>; MAP_SHARDS],
    /// Serializes chunk installation (id allocation itself happens under
    /// the owning map shard's write lock; the publish order below makes
    /// nodes visible before their ids escape).
    chunk_alloc: Mutex<()>,
    count: AtomicU32,
    hits: AtomicU64,
    misses: AtomicU64,
}

fn arena() -> &'static Arena {
    static ARENA: OnceLock<Arena> = OnceLock::new();
    ARENA.get_or_init(|| Arena {
        chunks: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
        shards: std::array::from_fn(|_| RwLock::new(ShardMap::default())),
        trees: std::array::from_fn(|_| RwLock::new(ShardMap::default())),
        chunk_alloc: Mutex::new(()),
        count: AtomicU32::new(0),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
    })
}

impl Arena {
    fn chunk(&self, index: usize) -> Option<&Chunk> {
        let ptr = self.chunks[index].load(Ordering::Acquire);
        if ptr.is_null() {
            None
        } else {
            // Published with `Release` below and never freed.
            Some(unsafe { &*ptr })
        }
    }

    fn ensure_chunk(&self, index: usize) -> &Chunk {
        if let Some(chunk) = self.chunk(index) {
            return chunk;
        }
        let _guard = self.chunk_alloc.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(chunk) = self.chunk(index) {
            return chunk;
        }
        let fresh = Box::leak(Chunk::new());
        self.chunks[index].store(fresh, Ordering::Release);
        fresh
    }

    /// The published node for `id`.  Ids only escape after publication,
    /// so a valid id always resolves.
    fn node(&self, id: u32) -> &'static NodeInfo {
        let chunk = self
            .chunk(id as usize / CHUNK)
            .expect("interned id must point into an allocated chunk");
        let ptr = chunk.slots[id as usize % CHUNK].load(Ordering::Acquire);
        debug_assert!(!ptr.is_null(), "interned id must be published");
        unsafe { &*ptr }
    }
}

// ---- interning ----------------------------------------------------------

/// A borrowed candidate node: lets the hot lookup path hash and compare
/// without allocating the owned [`Node`] it would insert on a miss.
enum NodeKey<'a> {
    Leaf(u8),
    Nominal(&'a str),
    Singleton(&'a SingVal),
    Generic { base: &'a str, args: &'a [TypeId] },
    Union(&'a [TypeId]),
    Wrapper(u8, TypeId),
    Var(&'a str),
    StoreBacked(u8, u32),
}

/// Leaf tags (shared between hashing and the owned node constructors).
const TAG_TOP: u8 = 0;
const TAG_BOT: u8 = 1;
const TAG_BOOL: u8 = 2;
const TAG_DYNAMIC: u8 = 3;
const TAG_OPTIONAL: u8 = 9;
const TAG_VARARG: u8 = 10;
const TAG_TUPLE: u8 = 11;
const TAG_FINITE_HASH: u8 = 12;
const TAG_CONST_STRING: u8 = 13;

fn write_sing_val(fp: &mut Fingerprint, sv: &SingVal) {
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

impl NodeKey<'_> {
    /// The dedup-map hash: over node shape and **child ids** (not child
    /// digests), so it is cheap and independent of the structural
    /// fingerprint scheme.
    fn map_hash(&self) -> u64 {
        let mut fp = Fingerprint::new();
        match self {
            NodeKey::Leaf(tag) => fp.write_u8(*tag),
            NodeKey::Nominal(n) => {
                fp.write_u8(4);
                fp.write_str(n);
            }
            NodeKey::Singleton(sv) => {
                fp.write_u8(6);
                write_sing_val(&mut fp, sv);
            }
            NodeKey::Generic { base, args } => {
                fp.write_u8(7);
                fp.write_str(base);
                fp.write_usize(args.len());
                for a in *args {
                    fp.write_u32(a.0);
                }
            }
            NodeKey::Union(args) => {
                fp.write_u8(8);
                fp.write_usize(args.len());
                for a in *args {
                    fp.write_u32(a.0);
                }
            }
            NodeKey::Wrapper(tag, inner) => {
                fp.write_u8(*tag);
                fp.write_u32(inner.0);
            }
            NodeKey::Var(v) => {
                fp.write_u8(5);
                fp.write_str(v);
            }
            NodeKey::StoreBacked(tag, raw) => {
                fp.write_u8(*tag);
                fp.write_u32(*raw);
            }
        }
        fp.finish()
    }

    fn matches(&self, node: &Node) -> bool {
        match (self, node) {
            (NodeKey::Leaf(TAG_TOP), Node::Top)
            | (NodeKey::Leaf(TAG_BOT), Node::Bot)
            | (NodeKey::Leaf(TAG_BOOL), Node::Bool)
            | (NodeKey::Leaf(TAG_DYNAMIC), Node::Dynamic) => true,
            (NodeKey::Nominal(a), Node::Nominal(b)) => *a == &**b,
            (NodeKey::Singleton(a), Node::Singleton(b)) => *a == b,
            (NodeKey::Generic { base, args }, Node::Generic { base: b, args: bs }) => {
                *base == &**b && *args == &**bs
            }
            (NodeKey::Union(args), Node::Union(bs)) => *args == &**bs,
            (NodeKey::Wrapper(TAG_OPTIONAL, a), Node::Optional(b)) => a == b,
            (NodeKey::Wrapper(TAG_VARARG, a), Node::Vararg(b)) => a == b,
            (NodeKey::Var(a), Node::Var(b)) => *a == &**b,
            (NodeKey::StoreBacked(TAG_TUPLE, a), Node::Tuple(b))
            | (NodeKey::StoreBacked(TAG_FINITE_HASH, a), Node::FiniteHash(b))
            | (NodeKey::StoreBacked(TAG_CONST_STRING, a), Node::ConstString(b)) => a == b,
            _ => false,
        }
    }

    fn to_node(&self) -> Node {
        match self {
            NodeKey::Leaf(TAG_TOP) => Node::Top,
            NodeKey::Leaf(TAG_BOT) => Node::Bot,
            NodeKey::Leaf(TAG_BOOL) => Node::Bool,
            NodeKey::Leaf(_) => Node::Dynamic,
            NodeKey::Nominal(n) => Node::Nominal((*n).into()),
            NodeKey::Singleton(sv) => Node::Singleton((*sv).clone()),
            NodeKey::Generic { base, args } => {
                Node::Generic { base: (*base).into(), args: (*args).into() }
            }
            NodeKey::Union(args) => Node::Union((*args).into()),
            NodeKey::Wrapper(TAG_OPTIONAL, inner) => Node::Optional(*inner),
            NodeKey::Wrapper(_, inner) => Node::Vararg(*inner),
            NodeKey::Var(v) => Node::Var((*v).into()),
            NodeKey::StoreBacked(TAG_TUPLE, raw) => Node::Tuple(*raw),
            NodeKey::StoreBacked(TAG_FINITE_HASH, raw) => Node::FiniteHash(*raw),
            NodeKey::StoreBacked(_, raw) => Node::ConstString(*raw),
        }
    }
}

/// The structural (Merkle) fingerprint of a node from its children's
/// digests — the composition [`TypeStore::fingerprint`] mirrors when it
/// walks store-involving trees.
///
/// [`TypeStore::fingerprint`]: crate::store::TypeStore::fingerprint
fn compute_digest(key: &NodeKey<'_>, a: &Arena) -> (u64, bool) {
    let mut fp = Fingerprint::new();
    let mut store_backed = false;
    let mut child = |fp: &mut Fingerprint, id: TypeId| {
        let info = a.node(id.0);
        store_backed |= info.store_backed;
        fp.write_u64(info.digest);
    };
    match key {
        NodeKey::Leaf(tag) => fp.write_u8(*tag),
        NodeKey::Nominal(n) => {
            fp.write_u8(4);
            fp.write_str(n);
        }
        NodeKey::Var(v) => {
            fp.write_u8(5);
            fp.write_str(v);
        }
        NodeKey::Singleton(sv) => {
            fp.write_u8(6);
            write_sing_val(&mut fp, sv);
        }
        NodeKey::Generic { base, args } => {
            fp.write_u8(7);
            fp.write_str(base);
            fp.write_usize(args.len());
            for id in *args {
                child(&mut fp, *id);
            }
        }
        NodeKey::Union(args) => {
            fp.write_u8(8);
            fp.write_usize(args.len());
            for id in *args {
                child(&mut fp, *id);
            }
        }
        NodeKey::Wrapper(tag, inner) => {
            fp.write_u8(*tag);
            child(&mut fp, *inner);
        }
        NodeKey::StoreBacked(tag, raw) => {
            // Placeholder digest, never exposed: the node's meaning lives
            // in a store the arena cannot see.
            store_backed = true;
            fp.write_u8(0xFD);
            fp.write_u8(*tag);
            fp.write_u32(*raw);
        }
    }
    (fp.finish(), store_backed)
}

fn intern_key(key: &NodeKey<'_>) -> TypeId {
    let a = arena();
    let hash = key.map_hash();
    let shard = &a.shards[(hash as usize) % MAP_SHARDS];
    if let Some(ids) = shard.read().unwrap_or_else(|e| e.into_inner()).get(&hash) {
        for id in ids {
            if key.matches(&a.node(*id).node) {
                a.hits.fetch_add(1, Ordering::Relaxed);
                return TypeId(*id);
            }
        }
    }
    let mut map = shard.write().unwrap_or_else(|e| e.into_inner());
    let ids = map.entry(hash).or_default();
    for id in ids.iter() {
        if key.matches(&a.node(*id).node) {
            a.hits.fetch_add(1, Ordering::Relaxed);
            return TypeId(*id);
        }
    }
    let (digest, store_backed) = compute_digest(key, a);
    let id = a.count.fetch_add(1, Ordering::Relaxed);
    assert!((id as usize) < CHUNK * CHUNKS, "type intern arena exhausted");
    let info = Box::leak(Box::new(NodeInfo {
        node: key.to_node(),
        digest,
        store_backed,
        render: OnceLock::new(),
    }));
    let chunk = a.ensure_chunk(id as usize / CHUNK);
    // Publish the node before its id escapes (the map insert below and
    // every parent that embeds this id happen after this store).
    chunk.slots[id as usize % CHUNK].store(info, Ordering::Release);
    ids.push(id);
    a.misses.fetch_add(1, Ordering::Relaxed);
    TypeId(id)
}

/// A flat structural prehash of a whole [`Type`] tree, keying the
/// [`Arena::trees`] cache.  Only a prehash: candidates are always verified
/// with [`tree_eq`], so collisions cost a scan, never a wrong id.
fn tree_hash_into(ty: &Type, fp: &mut Fingerprint) {
    match ty {
        Type::Top => fp.write_u8(TAG_TOP),
        Type::Bot => fp.write_u8(TAG_BOT),
        Type::Bool => fp.write_u8(TAG_BOOL),
        Type::Dynamic => fp.write_u8(TAG_DYNAMIC),
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
            write_sing_val(fp, sv);
        }
        Type::Generic { base, args } => {
            fp.write_u8(7);
            fp.write_str(base);
            fp.write_usize(args.len());
            for a in args {
                tree_hash_into(a, fp);
            }
        }
        Type::Union(ts) => {
            fp.write_u8(8);
            fp.write_usize(ts.len());
            for t in ts {
                tree_hash_into(t, fp);
            }
        }
        Type::Optional(t) => {
            fp.write_u8(TAG_OPTIONAL);
            tree_hash_into(t, fp);
        }
        Type::Vararg(t) => {
            fp.write_u8(TAG_VARARG);
            tree_hash_into(t, fp);
        }
        Type::Tuple(id) => {
            fp.write_u8(TAG_TUPLE);
            fp.write_u32(id.0);
        }
        Type::FiniteHash(id) => {
            fp.write_u8(TAG_FINITE_HASH);
            fp.write_u32(id.0);
        }
        Type::ConstString(id) => {
            fp.write_u8(TAG_CONST_STRING);
            fp.write_u32(id.0);
        }
    }
}

/// Lockstep structural equality between an owned [`Type`] tree and an
/// interned subtree — entirely lock-free (`Acquire` chunk/slot loads only),
/// which is what makes the warm re-intern path cheap.
fn tree_eq(ty: &Type, id: TypeId, a: &Arena) -> bool {
    match (ty, &a.node(id.0).node) {
        (Type::Top, Node::Top)
        | (Type::Bot, Node::Bot)
        | (Type::Bool, Node::Bool)
        | (Type::Dynamic, Node::Dynamic) => true,
        (Type::Nominal(x), Node::Nominal(y)) => x.as_str() == &**y,
        (Type::Var(x), Node::Var(y)) => x.as_str() == &**y,
        (Type::Singleton(x), Node::Singleton(y)) => x == y,
        (Type::Generic { base, args }, Node::Generic { base: b, args: ids }) => {
            base.as_str() == &**b
                && args.len() == ids.len()
                && args.iter().zip(ids.iter()).all(|(t, i)| tree_eq(t, *i, a))
        }
        (Type::Union(ts), Node::Union(ids)) => {
            ts.len() == ids.len() && ts.iter().zip(ids.iter()).all(|(t, i)| tree_eq(t, *i, a))
        }
        (Type::Optional(t), Node::Optional(i)) | (Type::Vararg(t), Node::Vararg(i)) => {
            tree_eq(t, *i, a)
        }
        (Type::Tuple(x), Node::Tuple(y)) => x.0 == *y,
        (Type::FiniteHash(x), Node::FiniteHash(y)) => x.0 == *y,
        (Type::ConstString(x), Node::ConstString(y)) => x.0 == *y,
        _ => false,
    }
}

/// Interns a type tree, returning the id of its root node.  Structurally
/// equal trees always return equal ids.
///
/// A tree seen before (by any thread) is answered from the whole-tree
/// cache: one prehash walk plus one lock-free verification.  First sight
/// falls back to the bottom-up per-node walk (one dedup-map lookup per
/// node, allocating only nodes the arena has never seen).
pub fn intern(ty: &Type) -> TypeId {
    let a = arena();
    let mut fp = Fingerprint::new();
    tree_hash_into(ty, &mut fp);
    let hash = fp.finish();
    let shard = &a.trees[(hash as usize) % MAP_SHARDS];
    if let Some(ids) = shard.read().unwrap_or_else(|e| e.into_inner()).get(&hash) {
        for id in ids {
            if tree_eq(ty, TypeId(*id), a) {
                a.hits.fetch_add(1, Ordering::Relaxed);
                return TypeId(*id);
            }
        }
    }
    let id = intern_tree(ty);
    let mut map = shard.write().unwrap_or_else(|e| e.into_inner());
    let ids = map.entry(hash).or_default();
    if !ids.contains(&id.0) {
        ids.push(id.0);
    }
    id
}

/// The bottom-up per-node intern walk (the whole-tree cache's miss path).
fn intern_tree(ty: &Type) -> TypeId {
    match ty {
        Type::Top => intern_key(&NodeKey::Leaf(TAG_TOP)),
        Type::Bot => intern_key(&NodeKey::Leaf(TAG_BOT)),
        Type::Bool => intern_key(&NodeKey::Leaf(TAG_BOOL)),
        Type::Dynamic => intern_key(&NodeKey::Leaf(TAG_DYNAMIC)),
        Type::Nominal(n) => intern_key(&NodeKey::Nominal(n)),
        Type::Singleton(sv) => intern_key(&NodeKey::Singleton(sv)),
        Type::Generic { base, args } => {
            let ids: Vec<TypeId> = args.iter().map(intern).collect();
            intern_key(&NodeKey::Generic { base, args: &ids })
        }
        Type::Union(ts) => {
            let ids: Vec<TypeId> = ts.iter().map(intern).collect();
            intern_key(&NodeKey::Union(&ids))
        }
        Type::Optional(t) => {
            let inner = intern(t);
            intern_key(&NodeKey::Wrapper(TAG_OPTIONAL, inner))
        }
        Type::Vararg(t) => {
            let inner = intern(t);
            intern_key(&NodeKey::Wrapper(TAG_VARARG, inner))
        }
        Type::Var(v) => intern_key(&NodeKey::Var(v)),
        Type::Tuple(id) => intern_key(&NodeKey::StoreBacked(TAG_TUPLE, id.0)),
        Type::FiniteHash(id) => intern_key(&NodeKey::StoreBacked(TAG_FINITE_HASH, id.0)),
        Type::ConstString(id) => intern_key(&NodeKey::StoreBacked(TAG_CONST_STRING, id.0)),
    }
}

/// The immutable info recorded for an interned id.
pub fn info(id: TypeId) -> &'static NodeInfo {
    arena().node(id.0)
}

/// Current arena / dedup counters.
pub fn stats() -> InternStats {
    let a = arena();
    InternStats {
        nodes: u64::from(a.count.load(Ordering::Relaxed)),
        hits: a.hits.load(Ordering::Relaxed),
        misses: a.misses.load(Ordering::Relaxed),
    }
}

// ---- rendering ----------------------------------------------------------

/// Renders a store-free node exactly as [`Type`]'s `Display` (and
/// therefore exactly as [`TypeStore::render`](crate::TypeStore::render),
/// which coincides with `Display` on store-free types).
fn render_into(node: &Node, out: &mut String) {
    match node {
        Node::Top => out.push_str("%any"),
        Node::Bot => out.push_str("%bot"),
        Node::Bool => out.push_str("%bool"),
        Node::Dynamic => out.push_str("%dyn"),
        Node::Nominal(n) => out.push_str(n),
        Node::Var(v) => out.push_str(v),
        Node::Singleton(sv) => {
            let _ = write!(out, "{sv}");
        }
        Node::Generic { base, args } => {
            out.push_str(base);
            out.push('<');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_into(&info(*a).node, out);
            }
            out.push('>');
        }
        Node::Union(ts) => {
            for (i, t) in ts.iter().enumerate() {
                if i > 0 {
                    out.push_str(" or ");
                }
                render_into(&info(*t).node, out);
            }
        }
        Node::Optional(t) => {
            out.push('?');
            render_into(&info(*t).node, out);
        }
        Node::Vararg(t) => {
            out.push('*');
            render_into(&info(*t).node, out);
        }
        // Unreachable through `NodeInfo::render` (store-backed nodes
        // return `None`), but keep the raw-id form for debugging walks.
        Node::Tuple(id) => {
            let _ = write!(out, "#tuple{id}");
        }
        Node::FiniteHash(id) => {
            let _ = write!(out, "#fhash{id}");
        }
        Node::ConstString(id) => {
            let _ = write!(out, "#cstr{id}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ty::TupleId;

    #[test]
    fn equal_trees_intern_to_equal_ids() {
        let a = Type::array(Type::union([Type::nominal("Integer"), Type::nominal("String")]));
        let b = Type::array(Type::union([Type::nominal("Integer"), Type::nominal("String")]));
        assert_eq!(intern(&a), intern(&b));
        let c = Type::array(Type::nominal("Integer"));
        assert_ne!(intern(&a), intern(&c));
    }

    #[test]
    fn digests_match_equality_and_render_matches_display() {
        let types = [
            Type::Top,
            Type::nil(),
            Type::sym("emails"),
            Type::class_of("User"),
            Type::Optional(Box::new(Type::Bool)),
            Type::Vararg(Box::new(Type::nominal("String"))),
            Type::hash(Type::nominal("Symbol"), Type::union([Type::int(1), Type::nil()])),
            Type::Var("t".into()),
        ];
        for t in &types {
            let id = intern(t);
            let info = info(id);
            assert!(!info.store_backed());
            assert_eq!(info.render().unwrap(), t.to_string(), "render mismatch for {t}");
            assert_eq!(info.digest(), Some(info.digest().unwrap()));
        }
        // Distinct structures get distinct digests (w.h.p.).
        let d1 = info(intern(&types[2])).digest().unwrap();
        let d2 = info(intern(&types[3])).digest().unwrap();
        assert_ne!(d1, d2);
    }

    #[test]
    fn store_backed_nodes_are_flagged_and_opaque() {
        let t = Type::Tuple(TupleId(3));
        let id = intern(&t);
        assert!(info(id).store_backed());
        assert_eq!(info(id).digest(), None);
        assert_eq!(info(id).render(), None);
        let wrapped = Type::array(t.clone());
        let wid = intern(&wrapped);
        assert!(info(wid).store_backed(), "store-backedness must propagate to parents");
        // Same raw id under a different store-backed kind is a different
        // node.
        let h = Type::FiniteHash(crate::ty::FiniteHashId(3));
        assert_ne!(intern(&h), id);
    }

    #[test]
    fn interning_is_idempotent_and_counts_hits() {
        let t = Type::array(Type::nominal("Float"));
        let first = intern(&t);
        // The arena is global and other tests intern into it concurrently,
        // so the node count can move between two reads for reasons that
        // have nothing to do with `t`.  One quiet window out of a few shows
        // that re-interning itself adds nothing.
        let quiet = (0..20).any(|_| {
            let before = stats();
            for _ in 0..10 {
                assert_eq!(intern(&t), first);
            }
            let after = stats();
            assert!(after.hits >= before.hits + 10);
            after.nodes == before.nodes
        });
        assert!(quiet, "re-interning must not grow the arena");
    }

    #[test]
    fn concurrent_interning_agrees_on_ids() {
        let mk = |i: usize| {
            Type::hash(
                Type::sym(format!("k{}", i % 7)),
                Type::union([Type::int(i as i64 % 5), Type::nominal("String")]),
            )
        };
        let ids: Vec<Vec<TypeId>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(move || (0..64).map(|i| intern(&mk(i))).collect::<Vec<_>>()))
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panics")).collect()
        });
        for other in &ids[1..] {
            assert_eq!(&ids[0], other, "all threads must agree on interned ids");
        }
    }
}
