//! The persistent on-disk check cache.
//!
//! [`CheckCache`] serializes per-method check verdicts — errors, cast
//! counts and the inserted dynamic checks — to a compact, versioned binary
//! file, keyed by each method's **Merkle hash** (see [`crate::semdep`]).  A
//! later process loads the file and *replays* every method whose Merkle
//! hash is unchanged instead of re-checking it, so editing one method of an
//! eight-app corpus re-checks one method (plus its transitive dependents).
//!
//! ## Staleness model: die silently
//!
//! Nothing in the file is trusted.  Every condition that could make a
//! stored verdict wrong simply makes [`CheckCache::replay`] return `None`,
//! and the caller re-checks the method from scratch:
//!
//! * unreadable / truncated / wrong-magic / wrong-version /
//!   checksum-mismatched file → the whole cache loads as empty,
//! * the app's environment digest ([`crate::semdep::env_hash`]) moved →
//!   every entry for that app misses,
//! * the method's Merkle hash moved (its body, a callee, a signature or a
//!   comp-type helper changed) → that entry misses,
//! * a span, type or consistency check cannot be faithfully reconstructed
//!   against the *current* parse and environment → that entry misses.
//!
//! ## Span re-anchoring
//!
//! Verdicts must replay **byte-identical** to a from-scratch check even
//! when an edit elsewhere in the file shifted this method's byte offsets.
//! Raw offsets are therefore never the primary encoding: each span is
//! stored as a `SpanRef` against the method's canonical node table
//! ([`ruby_syntax::method_span_nodes`]) — "node 7" or "node 7, +3 bytes"
//! — and resolved against the *new* parse at replay time.  Since a replay
//! requires an unchanged semantic hash, the two parses walk isomorphic
//! trees and the node indices line up exactly.
//!
//! ## File identity
//!
//! `Span.file` ids are process-local (allocation order in a `SourceSet`).
//! The file stores a per-app table of source **content hashes** in id
//! order; replay maps saved ids to current ids by content, so reordering
//! the file list never invalidates anything, while editing a file simply
//! changes its hash (and, through the semantic hashes, the Merkle keys of
//! the methods inside it).

use crate::checker::{ErrorCategory, MethodCheckResult, TypeErrorInfo};
use crate::env::CompRdl;
use crate::runtime::{ConsistencyCheck, InsertedCheck};
use rdl_types::{HashKey, MethodKind, SingVal, Type, TypeExpr, TypeStore};
use ruby_syntax::{method_span_nodes, Expr, MethodDef, SemHasher, Span};
use std::collections::BTreeMap;
use std::path::Path;

/// Bump on any change to the binary layout; older files load as empty.
///
/// History: v1 stored only type-check verdicts; v2 added the per-app lint
/// section (`LINT01xx` findings keyed by plain semantic hash, replayed by
/// [`CheckCache::replay_lints`]); v3 added the per-app effect-summary
/// section (interprocedural termination/purity/taint summaries keyed by
/// Merkle hash, replayed by [`CheckCache::replay_effects`]) and re-keyed
/// lints from plain semantic hash to Merkle hash (lints became
/// interprocedural through taint summaries); v4 added the whole-file
/// FNV-1a checksum trailer, so random byte corruption anywhere in the file
/// (not just in the header) degrades to an empty load — a silent cold
/// re-check — instead of risking a structurally-parseable-but-wrong replay.
pub const FORMAT_VERSION: u32 = 4;

const MAGIC: &[u8; 8] = b"CRDLCHK\x01";

/// Size of the checksum trailer appended after the body.
const CHECKSUM_LEN: usize = 8;

/// FNV-1a over raw bytes (the whole-file checksum of the trailer).
fn bytes_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Maximum freeze/thaw recursion depth; deeper (or cyclic) store-backed
/// types refuse to serialize and fall back to re-checking.
const MAX_TYPE_DEPTH: u32 = 64;

/// FNV-1a content hash used to identify source files across processes.
pub fn content_hash(src: &str) -> u64 {
    let mut h = SemHasher::new();
    h.write_str(src);
    h.finish()
}

// ---------------------------------------------------------------------------
// In-memory model
// ---------------------------------------------------------------------------

/// A span re-anchorable against a method's canonical node table; see the
/// module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SpanRef {
    /// `Span::dummy()`.
    Dummy,
    /// Exactly the span of node `i` of the method's node table.
    Node(u32),
    /// A sub-span of node `i`: byte offsets relative to the node's start,
    /// line relative to the node's line (SQL fragments inside string
    /// literals).
    Derived { node: u32, dstart: u64, dend: u64, dline: u32 },
    /// Raw coordinates (file is an index into the app's content-hash
    /// table).  Fallback only; a span outside the checked method.
    Absolute { file: u32, start: u64, end: u64, line: u32 },
}

/// A self-contained (store-free) rendering of a [`Type`], reconstructible
/// in any later store via fresh allocations.
#[derive(Debug, Clone, PartialEq)]
enum TypeTree {
    Top,
    Bot,
    Bool,
    Dynamic,
    Nominal(String),
    Singleton(SingVal),
    Generic(String, Vec<TypeTree>),
    Union(Vec<TypeTree>),
    Optional(Box<TypeTree>),
    Vararg(Box<TypeTree>),
    Var(String),
    Tuple(Vec<TypeTree>),
    FiniteHash(Vec<(HashKey, TypeTree)>),
    ConstString(String),
}

#[derive(Debug, Clone, PartialEq)]
struct ErrorEntry {
    category: ErrorCategory,
    message: String,
    span: SpanRef,
}

#[derive(Debug, Clone, PartialEq)]
struct CheckEntry {
    site: SpanRef,
    description: String,
    expected_return: TypeTree,
    /// `Some(expected)` when the original check carried a consistency
    /// check; its `ret_expr` and `binders` are rebuilt from the current
    /// environment at replay time.
    consistency_expected: Option<TypeTree>,
}

#[derive(Debug, Clone, PartialEq)]
struct MethodEntry {
    owner: String,
    name: String,
    singleton: bool,
    merkle: u64,
    errors: Vec<ErrorEntry>,
    explicit_casts: u64,
    implicit_casts: u64,
    checks: Vec<CheckEntry>,
}

/// One lint finding as frozen / replayed by the cache: plain data, so the
/// lint layer (`crates/analysis`) and this crate need no dependency on one
/// another — the corpus harness converts at the boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintRecord {
    /// Stable `LINT01xx` code.
    pub code: String,
    /// Headline message.
    pub message: String,
    /// Primary label text.
    pub label: String,
    /// Primary label span (resolved against the current parse on replay).
    pub span: Span,
}

#[derive(Debug, Clone, PartialEq)]
struct LintFindingEntry {
    code: String,
    message: String,
    label: String,
    span: SpanRef,
}

#[derive(Debug, Clone, PartialEq)]
struct LintMethodEntry {
    owner: String,
    name: String,
    singleton: bool,
    /// The caller's semantic key for the verdict.  Since the SQL-taint lint
    /// became interprocedural (it consults effect summaries of callees),
    /// the corpus harness keys lints on the method's **Merkle** hash —
    /// unchanged key ⇔ unchanged transitive call closure; purely
    /// intraprocedural callers may still key on plain
    /// [`ruby_syntax::method_hash`].
    semhash: u64,
    findings: Vec<LintFindingEntry>,
}

/// One interprocedural effect summary as frozen / replayed by the cache —
/// plain data (like [`LintRecord`]) so the inference layer
/// (`crates/analysis`) and this crate stay mutually independent; the corpus
/// harness converts at the boundary.  Effects carry no spans, so unlike
/// check and lint verdicts they need no re-anchoring: the blame chains are
/// stable strings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EffectRecord {
    /// Owner class of the summarized method.
    pub owner: String,
    /// Method name.
    pub name: String,
    /// Class-level (`def self.`) method?
    pub singleton: bool,
    /// The method's Merkle hash at summary time; unchanged hash ⇔ unchanged
    /// transitive dependency closure ⇔ the summary is replayable.
    pub merkle: u64,
    /// Termination verdict: 0 = terminates, 1 = block-dependent,
    /// 2 = may diverge.
    pub term: u8,
    /// Purity verdict: 0 = pure, 1 = impure.
    pub purity: u8,
    /// Call chain to the divergence root cause (empty when `term != 2`).
    pub term_blame: Vec<String>,
    /// Call chain to the impurity root cause (empty when `purity == 0`).
    pub purity_blame: Vec<String>,
    /// Parameter indices that flow into the return value.
    pub taint_return: Vec<u32>,
    /// Parameter indices that flow into a SQL sink inside the method.
    pub taint_sink: Vec<u32>,
    /// Receiver state flows into the return value.
    pub self_to_return: bool,
    /// Receiver state flows into a SQL sink.
    pub self_to_sink: bool,
}

#[derive(Debug, Clone, Default, PartialEq)]
struct AppEntry {
    env_hash: u64,
    /// Source content hashes in `Span.file` id order at save time.
    files: Vec<u64>,
    methods: Vec<MethodEntry>,
    /// Lint verdicts, including methods with zero findings (so a warm run
    /// can replay "nothing to report" without re-linting).
    lints: Vec<LintMethodEntry>,
    /// Effect summaries, keyed per record by Merkle hash (span-free, so
    /// they survive any layout edit unchanged).
    effects: Vec<EffectRecord>,
}

/// The persistent check cache: per-app method verdicts keyed by Merkle
/// hash.  See the module docs for the staleness model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckCache {
    apps: BTreeMap<String, AppEntry>,
}

impl CheckCache {
    /// An empty cache.
    pub fn new() -> Self {
        CheckCache::default()
    }

    /// Loads a cache file; any unreadable, truncated, wrong-magic,
    /// wrong-version or checksum-mismatched file silently loads as empty.
    pub fn load(path: &Path) -> CheckCache {
        std::fs::read(path).ok().and_then(|bytes| Self::from_bytes(&bytes)).unwrap_or_default()
    }

    /// Serializes and atomically writes the cache: the bytes go to a
    /// temporary file in the same directory, which is then renamed over
    /// `path`, so an interrupted run can never leave a truncated file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        atomic_write(path, &self.to_bytes())
    }

    /// True when the cache holds no app entries.
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    /// The number of stored method verdicts for `app`.
    pub fn method_count(&self, app: &str) -> usize {
        self.apps.get(app).map(|a| a.methods.len()).unwrap_or(0)
    }

    /// Records (replacing any previous entry) the verdicts of one app's
    /// checking run.
    ///
    /// * `env_hash` — [`crate::semdep::env_hash`] of the environment the
    ///   run used.
    /// * `file_hashes` — [`content_hash`] of each source file, indexed by
    ///   its `Span.file` id.
    /// * `methods` — `(owner, definition, merkle, verdict)` per checked
    ///   method; the definition supplies the node table spans are encoded
    ///   against, `store` resolves the verdict's store-backed types.
    ///
    /// Methods whose verdict cannot be faithfully serialized (exotic
    /// store-backed types, spans outside the known files) are skipped: they
    /// will simply be re-checked next run.
    pub fn record_app(
        &mut self,
        app: &str,
        env_hash: u64,
        file_hashes: Vec<u64>,
        methods: &[(String, &MethodDef, u64, &MethodCheckResult)],
        store: &TypeStore,
    ) {
        // Lint verdicts recorded earlier in the run (or a previous run over
        // identical sources) survive; a different file table means the lint
        // spans were encoded against other content, so they are dropped.
        let lints = match self.apps.get(app) {
            Some(prev) if prev.files == file_hashes => prev.lints.clone(),
            _ => Vec::new(),
        };
        // Effect summaries are span-free and guarded per record by their
        // Merkle hash, so they survive regardless of the file table.
        let effects = self.apps.get(app).map(|p| p.effects.clone()).unwrap_or_default();
        let mut entry =
            AppEntry { env_hash, files: file_hashes, methods: Vec::new(), lints, effects };
        for (owner, def, merkle, result) in methods {
            if let Some(m) = freeze_method(owner, def, *merkle, result, store, &entry.files) {
                entry.methods.push(m);
            }
        }
        self.apps.insert(app.to_string(), entry);
    }

    /// Records (replacing any previous lint section) one app's lint
    /// verdicts, keyed by each method's plain semantic hash.
    ///
    /// Every method is recorded — including those with zero findings — so
    /// that a warm run replays the empty verdict instead of re-linting.
    /// A method whose finding spans cannot be encoded against its node
    /// table is skipped (it will simply be re-linted next run).  If
    /// `file_hashes` differs from the table the app's check verdicts were
    /// recorded against, those verdicts are dropped: both sections must
    /// describe the same sources.
    pub fn record_lints(
        &mut self,
        app: &str,
        file_hashes: Vec<u64>,
        methods: &[(String, &MethodDef, u64, Vec<LintRecord>)],
    ) {
        let entry = self.apps.entry(app.to_string()).or_default();
        if entry.files != file_hashes {
            entry.methods.clear();
            entry.files = file_hashes;
        }
        entry.lints.clear();
        for (owner, def, semhash, records) in methods {
            let nodes = method_span_nodes(def);
            let findings: Option<Vec<LintFindingEntry>> = records
                .iter()
                .map(|f| {
                    Some(LintFindingEntry {
                        code: f.code.clone(),
                        message: f.message.clone(),
                        label: f.label.clone(),
                        span: span_ref(f.span, &nodes, &entry.files)?,
                    })
                })
                .collect();
            if let Some(findings) = findings {
                entry.lints.push(LintMethodEntry {
                    owner: owner.clone(),
                    name: def.name.clone(),
                    singleton: def.singleton,
                    semhash: *semhash,
                    findings,
                });
            }
        }
    }

    /// Replays the stored lint verdict for one method, with every finding
    /// span re-anchored against the current parse, or `None` when the
    /// method is unknown or its semantic hash moved.
    pub fn replay_lints(
        &self,
        app: &str,
        current_files: &[u64],
        owner: &str,
        def: &MethodDef,
        semhash: u64,
    ) -> Option<Vec<LintRecord>> {
        let entry = self.apps.get(app)?;
        let m = entry
            .lints
            .iter()
            .find(|m| m.owner == owner && m.name == def.name && m.singleton == def.singleton)?;
        if m.semhash != semhash {
            return None;
        }
        let remap: Vec<Option<u32>> = entry
            .files
            .iter()
            .map(|h| current_files.iter().position(|c| c == h).map(|i| i as u32))
            .collect();
        let nodes = method_span_nodes(def);
        m.findings
            .iter()
            .map(|f| {
                Some(LintRecord {
                    code: f.code.clone(),
                    message: f.message.clone(),
                    label: f.label.clone(),
                    span: resolve_span(&f.span, &nodes, &remap)?,
                })
            })
            .collect()
    }

    /// The number of stored lint verdicts (methods, not findings) for `app`.
    pub fn lint_method_count(&self, app: &str) -> usize {
        self.apps.get(app).map(|a| a.lints.len()).unwrap_or(0)
    }

    /// Records (replacing any previous effect section) one app's inferred
    /// effect summaries.  Every summarized method is recorded — including
    /// the all-clear ones — so a warm run replays "terminates, pure, no
    /// taint" without re-summarizing.
    pub fn record_effects(&mut self, app: &str, records: Vec<EffectRecord>) {
        self.apps.entry(app.to_string()).or_default().effects = records;
    }

    /// Replays the stored effect summary for one method, or `None` when the
    /// method is unknown or its Merkle hash moved (its body, a transitive
    /// callee, a signature or a comp-type helper changed — exactly the
    /// conditions under which the interprocedural summary could differ).
    pub fn replay_effects(
        &self,
        app: &str,
        owner: &str,
        name: &str,
        singleton: bool,
        merkle: u64,
    ) -> Option<EffectRecord> {
        let entry = self.apps.get(app)?;
        entry
            .effects
            .iter()
            .find(|e| {
                e.owner == owner && e.name == name && e.singleton == singleton && e.merkle == merkle
            })
            .cloned()
    }

    /// The number of stored effect summaries for `app`.
    pub fn effect_method_count(&self, app: &str) -> usize {
        self.apps.get(app).map(|a| a.effects.len()).unwrap_or(0)
    }

    /// Replays the stored verdict for one method, or `None` when anything
    /// is stale (see the module docs for the full list of conditions).
    ///
    /// * `current_files` — [`content_hash`] of each *current* source file
    ///   in `Span.file` id order; saved file ids are remapped by content.
    /// * `def` — the method's definition in the **current** parse; spans
    ///   re-anchor against its node table, and `loc` is recomputed from it.
    /// * thawed store-backed types are freshly allocated in `store`.
    #[allow(clippy::too_many_arguments)]
    pub fn replay(
        &self,
        app: &str,
        env: &CompRdl,
        env_hash: u64,
        current_files: &[u64],
        owner: &str,
        def: &MethodDef,
        merkle: u64,
        store: &mut TypeStore,
    ) -> Option<MethodCheckResult> {
        let entry = self.apps.get(app)?;
        if entry.env_hash != env_hash {
            return None;
        }
        let m = entry
            .methods
            .iter()
            .find(|m| m.owner == owner && m.name == def.name && m.singleton == def.singleton)?;
        if m.merkle != merkle {
            return None;
        }
        // Saved file id → current file id, matched by content hash.
        let remap: Vec<Option<u32>> = entry
            .files
            .iter()
            .map(|h| current_files.iter().position(|c| c == h).map(|i| i as u32))
            .collect();
        let nodes = method_span_nodes(def);

        let mut errors = Vec::with_capacity(m.errors.len());
        for e in &m.errors {
            errors.push(TypeErrorInfo {
                category: e.category,
                class: owner.to_string(),
                method: def.name.clone(),
                message: e.message.clone(),
                span: resolve_span(&e.span, &nodes, &remap)?,
            });
        }
        let mut checks = Vec::with_capacity(m.checks.len());
        for c in &m.checks {
            let consistency = match &c.consistency_expected {
                Some(expected) => {
                    let (ret_expr, binders) = rebuild_consistency_shape(env, &c.description)?;
                    Some(ConsistencyCheck { ret_expr, binders, expected: thaw(expected, store) })
                }
                None => None,
            };
            checks.push(InsertedCheck {
                site: resolve_span(&c.site, &nodes, &remap)?,
                description: c.description.clone(),
                expected_return: thaw(&c.expected_return, store),
                consistency,
            });
        }
        Some(MethodCheckResult {
            class: owner.to_string(),
            method: def.name.clone(),
            singleton: def.singleton,
            errors,
            explicit_casts: m.explicit_casts as usize,
            implicit_casts: m.implicit_casts as usize,
            checks,
            loc: def
                .body
                .iter()
                .map(|e| e.span.line)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                + 2,
        })
    }

    // -- binary format ------------------------------------------------------

    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.bytes.extend_from_slice(MAGIC);
        w.put_u32(FORMAT_VERSION);
        w.put_u32(self.apps.len() as u32);
        for (name, app) in &self.apps {
            w.put_str(name);
            w.put_u64(app.env_hash);
            w.put_u32(app.files.len() as u32);
            for f in &app.files {
                w.put_u64(*f);
            }
            w.put_u32(app.methods.len() as u32);
            for m in &app.methods {
                w.put_str(&m.owner);
                w.put_str(&m.name);
                w.put_u8(u8::from(m.singleton));
                w.put_u64(m.merkle);
                w.put_u32(m.errors.len() as u32);
                for e in &m.errors {
                    w.put_u8(cat_tag(e.category));
                    w.put_str(&e.message);
                    put_span(&mut w, &e.span);
                }
                w.put_u64(m.explicit_casts);
                w.put_u64(m.implicit_casts);
                w.put_u32(m.checks.len() as u32);
                for c in &m.checks {
                    put_span(&mut w, &c.site);
                    w.put_str(&c.description);
                    put_type(&mut w, &c.expected_return);
                    match &c.consistency_expected {
                        Some(t) => {
                            w.put_u8(1);
                            put_type(&mut w, t);
                        }
                        None => w.put_u8(0),
                    }
                }
            }
            w.put_u32(app.lints.len() as u32);
            for l in &app.lints {
                w.put_str(&l.owner);
                w.put_str(&l.name);
                w.put_u8(u8::from(l.singleton));
                w.put_u64(l.semhash);
                w.put_u32(l.findings.len() as u32);
                for f in &l.findings {
                    w.put_str(&f.code);
                    w.put_str(&f.message);
                    w.put_str(&f.label);
                    put_span(&mut w, &f.span);
                }
            }
            w.put_u32(app.effects.len() as u32);
            for e in &app.effects {
                w.put_str(&e.owner);
                w.put_str(&e.name);
                w.put_u8(u8::from(e.singleton));
                w.put_u64(e.merkle);
                w.put_u8(e.term);
                w.put_u8(e.purity);
                put_str_list(&mut w, &e.term_blame);
                put_str_list(&mut w, &e.purity_blame);
                put_u32_list(&mut w, &e.taint_return);
                put_u32_list(&mut w, &e.taint_sink);
                w.put_u8(u8::from(e.self_to_return));
                w.put_u8(u8::from(e.self_to_sink));
            }
        }
        // v4 trailer: FNV-1a checksum of every byte before it.
        let checksum = bytes_hash(&w.bytes);
        w.put_u64(checksum);
        w.bytes
    }

    fn from_bytes(bytes: &[u8]) -> Option<CheckCache> {
        // The last 8 bytes are a checksum of everything before them; verify
        // it before parsing so an interior bit flip can never yield a
        // structurally valid but wrong cache (it degrades to a cold
        // re-check instead).
        if bytes.len() < CHECKSUM_LEN {
            return None;
        }
        let (body, trailer) = bytes.split_at(bytes.len() - CHECKSUM_LEN);
        if bytes_hash(body) != u64::from_le_bytes(trailer.try_into().ok()?) {
            return None;
        }
        let bytes = body;
        let mut r = Reader { bytes, pos: 0 };
        if r.take(MAGIC.len())? != MAGIC.as_slice() {
            return None;
        }
        if r.get_u32()? != FORMAT_VERSION {
            return None;
        }
        let app_count = r.get_u32()?;
        let mut apps = BTreeMap::new();
        for _ in 0..app_count {
            let name = r.get_str()?;
            let env_hash = r.get_u64()?;
            let file_count = r.get_u32()?;
            let mut files = Vec::with_capacity(file_count.min(1024) as usize);
            for _ in 0..file_count {
                files.push(r.get_u64()?);
            }
            let method_count = r.get_u32()?;
            let mut methods = Vec::with_capacity(method_count.min(1024) as usize);
            for _ in 0..method_count {
                let owner = r.get_str()?;
                let mname = r.get_str()?;
                let singleton = r.get_u8()? != 0;
                let merkle = r.get_u64()?;
                let error_count = r.get_u32()?;
                let mut errors = Vec::with_capacity(error_count.min(1024) as usize);
                for _ in 0..error_count {
                    errors.push(ErrorEntry {
                        category: cat_from_tag(r.get_u8()?)?,
                        message: r.get_str()?,
                        span: get_span(&mut r)?,
                    });
                }
                let explicit_casts = r.get_u64()?;
                let implicit_casts = r.get_u64()?;
                let check_count = r.get_u32()?;
                let mut checks = Vec::with_capacity(check_count.min(1024) as usize);
                for _ in 0..check_count {
                    let site = get_span(&mut r)?;
                    let description = r.get_str()?;
                    let expected_return = get_type(&mut r, 0)?;
                    let consistency_expected = match r.get_u8()? {
                        0 => None,
                        1 => Some(get_type(&mut r, 0)?),
                        _ => return None,
                    };
                    checks.push(CheckEntry {
                        site,
                        description,
                        expected_return,
                        consistency_expected,
                    });
                }
                methods.push(MethodEntry {
                    owner,
                    name: mname,
                    singleton,
                    merkle,
                    errors,
                    explicit_casts,
                    implicit_casts,
                    checks,
                });
            }
            let lint_count = r.get_u32()?;
            let mut lints = Vec::with_capacity(lint_count.min(1024) as usize);
            for _ in 0..lint_count {
                let owner = r.get_str()?;
                let lname = r.get_str()?;
                let singleton = r.get_u8()? != 0;
                let semhash = r.get_u64()?;
                let finding_count = r.get_u32()?;
                let mut findings = Vec::with_capacity(finding_count.min(1024) as usize);
                for _ in 0..finding_count {
                    findings.push(LintFindingEntry {
                        code: r.get_str()?,
                        message: r.get_str()?,
                        label: r.get_str()?,
                        span: get_span(&mut r)?,
                    });
                }
                lints.push(LintMethodEntry { owner, name: lname, singleton, semhash, findings });
            }
            let effect_count = r.get_u32()?;
            let mut effects = Vec::with_capacity(effect_count.min(1024) as usize);
            for _ in 0..effect_count {
                let owner = r.get_str()?;
                let ename = r.get_str()?;
                let singleton = r.get_u8()? != 0;
                let merkle = r.get_u64()?;
                let term = r.get_u8()?;
                let purity = r.get_u8()?;
                if term > 2 || purity > 1 {
                    return None;
                }
                effects.push(EffectRecord {
                    owner,
                    name: ename,
                    singleton,
                    merkle,
                    term,
                    purity,
                    term_blame: get_str_list(&mut r)?,
                    purity_blame: get_str_list(&mut r)?,
                    taint_return: get_u32_list(&mut r)?,
                    taint_sink: get_u32_list(&mut r)?,
                    self_to_return: r.get_u8()? != 0,
                    self_to_sink: r.get_u8()? != 0,
                });
            }
            apps.insert(name, AppEntry { env_hash, files, methods, lints, effects });
        }
        // Trailing garbage means the file is not ours.
        if r.pos != bytes.len() {
            return None;
        }
        Some(CheckCache { apps })
    }
}

/// Writes `bytes` to a temporary sibling of `path` and renames it into
/// place, so readers never observe a partially written file.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let file_name = path.file_name().and_then(|n| n.to_str()).unwrap_or("out");
    let tmp = path.with_file_name(format!(".{file_name}.tmp{}", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Deterministically corrupts a serialized cache file for durability tests.
///
/// The seed selects one of five corruption modes — truncation, random bit
/// flips, garbage magic bytes, garbage version bytes, or garbage interior
/// (Merkle/verdict) bytes — and every mode's damage sites are drawn from the
/// same seeded generator, so a failing seed reproduces exactly.  The
/// contract under test: for *every* seed, [`CheckCache::load`] of the
/// corrupted bytes is a silent cold re-check (an empty or checksum-valid
/// cache), never a panic and never a wrong replay.
pub fn corrupt(bytes: &[u8], seed: u64) -> Vec<u8> {
    let mut rng = test_rng::Rng::new(seed | 1);
    let mut out = bytes.to_vec();
    if out.is_empty() {
        return out;
    }
    match rng.below(5) {
        // Truncate to a strict prefix (possibly empty).
        0 => {
            let keep = rng.below(out.len() as u64) as usize;
            out.truncate(keep);
        }
        // Flip 1..=8 random bits anywhere in the file.
        1 => {
            let flips = 1 + rng.below(8) as usize;
            for _ in 0..flips {
                let i = rng.below(out.len() as u64) as usize;
                out[i] ^= 1 << rng.below(8);
            }
        }
        // Garbage over the magic.
        2 => {
            for b in out.iter_mut().take(MAGIC.len()) {
                *b = rng.next_u64() as u8;
            }
        }
        // Garbage over the version word.
        3 => {
            for b in out.iter_mut().skip(MAGIC.len()).take(4) {
                *b = rng.next_u64() as u8;
            }
        }
        // Garbage over a random interior run (hits Merkle keys, counts,
        // strings — whatever lives there).
        _ => {
            let start = rng.below(out.len() as u64) as usize;
            let len = (1 + rng.below(16) as usize).min(out.len() - start);
            for b in out.iter_mut().skip(start).take(len) {
                *b = rng.next_u64() as u8;
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Freezing (save side)
// ---------------------------------------------------------------------------

fn freeze_method(
    owner: &str,
    def: &MethodDef,
    merkle: u64,
    result: &MethodCheckResult,
    store: &TypeStore,
    files: &[u64],
) -> Option<MethodEntry> {
    let nodes = method_span_nodes(def);
    let mut errors = Vec::with_capacity(result.errors.len());
    for e in &result.errors {
        errors.push(ErrorEntry {
            category: e.category,
            message: e.message.clone(),
            span: span_ref(e.span, &nodes, files)?,
        });
    }
    let mut checks = Vec::with_capacity(result.checks.len());
    for c in &result.checks {
        checks.push(CheckEntry {
            site: span_ref(c.site, &nodes, files)?,
            description: c.description.clone(),
            expected_return: freeze(&c.expected_return, store, 0)?,
            consistency_expected: match &c.consistency {
                Some(cc) => Some(freeze(&cc.expected, store, 0)?),
                None => None,
            },
        });
    }
    Some(MethodEntry {
        owner: owner.to_string(),
        name: def.name.clone(),
        singleton: def.singleton,
        merkle,
        errors,
        explicit_casts: result.explicit_casts as u64,
        implicit_casts: result.implicit_casts as u64,
        checks,
    })
}

fn span_ref(span: Span, nodes: &[Span], files: &[u64]) -> Option<SpanRef> {
    if span.is_dummy() {
        return Some(SpanRef::Dummy);
    }
    if let Some(i) = nodes.iter().position(|n| *n == span) {
        return Some(SpanRef::Node(i as u32));
    }
    // Tightest enclosing node, first index on ties — deterministic, and the
    // same choice is available to any save of an isomorphic parse.
    let mut best: Option<(usize, usize)> = None; // (width, index)
    for (i, n) in nodes.iter().enumerate() {
        if n.file == span.file && n.start <= span.start && span.end <= n.end && n.line <= span.line
        {
            let width = n.end - n.start;
            if best.map(|(w, _)| width < w).unwrap_or(true) {
                best = Some((width, i));
            }
        }
    }
    if let Some((_, i)) = best {
        let n = nodes[i];
        return Some(SpanRef::Derived {
            node: i as u32,
            dstart: (span.start - n.start) as u64,
            dend: (span.end - n.start) as u64,
            dline: span.line - n.line,
        });
    }
    // Outside the method entirely: raw coordinates, valid only while the
    // file's content hash is unchanged.
    if (span.file as usize) >= files.len() {
        return None;
    }
    Some(SpanRef::Absolute {
        file: span.file,
        start: span.start as u64,
        end: span.end as u64,
        line: span.line,
    })
}

fn freeze(ty: &Type, store: &TypeStore, depth: u32) -> Option<TypeTree> {
    if depth > MAX_TYPE_DEPTH {
        return None;
    }
    // Resolve promotions first: a promoted tuple/hash/string *is* its
    // promoted type, and serializing the promotion result is both simpler
    // and exactly what a fresh evaluation would have produced.
    match store.resolve(ty) {
        Type::Top => Some(TypeTree::Top),
        Type::Bot => Some(TypeTree::Bot),
        Type::Bool => Some(TypeTree::Bool),
        Type::Dynamic => Some(TypeTree::Dynamic),
        Type::Nominal(n) => Some(TypeTree::Nominal(n)),
        Type::Singleton(v) => Some(TypeTree::Singleton(v)),
        Type::Generic { base, args } => Some(TypeTree::Generic(
            base,
            args.iter().map(|a| freeze(a, store, depth + 1)).collect::<Option<Vec<_>>>()?,
        )),
        Type::Union(parts) => Some(TypeTree::Union(
            parts.iter().map(|p| freeze(p, store, depth + 1)).collect::<Option<Vec<_>>>()?,
        )),
        Type::Optional(t) => Some(TypeTree::Optional(Box::new(freeze(&t, store, depth + 1)?))),
        Type::Vararg(t) => Some(TypeTree::Vararg(Box::new(freeze(&t, store, depth + 1)?))),
        Type::Var(v) => Some(TypeTree::Var(v)),
        Type::Tuple(id) => {
            let data = store.tuple(id);
            Some(TypeTree::Tuple(
                data.elems
                    .iter()
                    .map(|e| freeze(e, store, depth + 1))
                    .collect::<Option<Vec<_>>>()?,
            ))
        }
        Type::FiniteHash(id) => {
            let data = store.finite_hash(id);
            if data.rest.is_some() {
                // `new_finite_hash` cannot reproduce a rest type; refuse
                // rather than approximate.
                return None;
            }
            Some(TypeTree::FiniteHash(
                data.entries
                    .iter()
                    .map(|(k, v)| Some((k.clone(), freeze(v, store, depth + 1)?)))
                    .collect::<Option<Vec<_>>>()?,
            ))
        }
        Type::ConstString(id) => store.const_string(id).value.clone().map(TypeTree::ConstString),
    }
}

// ---------------------------------------------------------------------------
// Thawing (load side)
// ---------------------------------------------------------------------------

fn resolve_span(r: &SpanRef, nodes: &[Span], remap: &[Option<u32>]) -> Option<Span> {
    match r {
        SpanRef::Dummy => Some(Span::dummy()),
        SpanRef::Node(i) => nodes.get(*i as usize).copied(),
        SpanRef::Derived { node, dstart, dend, dline } => {
            let n = nodes.get(*node as usize)?;
            Some(Span::in_file(
                n.file,
                n.start + *dstart as usize,
                n.start + *dend as usize,
                n.line + dline,
            ))
        }
        SpanRef::Absolute { file, start, end, line } => {
            let current = (*remap.get(*file as usize)?)?;
            Some(Span::in_file(current, *start as usize, *end as usize, *line))
        }
    }
}

fn thaw(tree: &TypeTree, store: &mut TypeStore) -> Type {
    match tree {
        TypeTree::Top => Type::Top,
        TypeTree::Bot => Type::Bot,
        TypeTree::Bool => Type::Bool,
        TypeTree::Dynamic => Type::Dynamic,
        TypeTree::Nominal(n) => Type::Nominal(n.clone()),
        TypeTree::Singleton(v) => Type::Singleton(v.clone()),
        TypeTree::Generic(base, args) => Type::Generic {
            base: base.clone(),
            args: args.iter().map(|a| thaw(a, store)).collect(),
        },
        TypeTree::Union(parts) => Type::Union(parts.iter().map(|p| thaw(p, store)).collect()),
        TypeTree::Optional(t) => Type::Optional(Box::new(thaw(t, store))),
        TypeTree::Vararg(t) => Type::Vararg(Box::new(thaw(t, store))),
        TypeTree::Var(v) => Type::Var(v.clone()),
        TypeTree::Tuple(elems) => {
            let elems = elems.iter().map(|e| thaw(e, store)).collect();
            store.new_tuple(elems)
        }
        TypeTree::FiniteHash(entries) => {
            let entries = entries.iter().map(|(k, v)| (k.clone(), thaw(v, store))).collect();
            store.new_finite_hash(entries)
        }
        TypeTree::ConstString(v) => store.new_const_string(v.clone()),
    }
}

/// Rebuilds a consistency check's `ret_expr` and `binders` from the current
/// environment: the persisted `description` is `"Owner#method"`, whose
/// annotation's comp return expression is exactly what the checker cloned
/// when it built the original check.  `None` when the annotation is gone,
/// no longer a direct comp return, or ambiguous between method kinds.
fn rebuild_consistency_shape(
    env: &CompRdl,
    description: &str,
) -> Option<(Expr, Vec<Option<String>>)> {
    let (owner, method) = description.split_once('#')?;
    let mut found: Option<(Expr, Vec<Option<String>>)> = None;
    for kind in [MethodKind::Instance, MethodKind::Singleton] {
        let Some(sig) = env.annotations.get_exact(owner, kind, method) else { continue };
        let TypeExpr::Comp(spec) = &sig.ret else { continue };
        let shape =
            (spec.expr.clone(), sig.params.iter().map(|p| p.binder.clone()).collect::<Vec<_>>());
        match &found {
            None => found = Some(shape),
            Some(prev) => {
                // Both kinds annotated with comp returns: only usable when
                // they agree on the shape the runtime hook needs.
                if ruby_syntax::expr_hash(&prev.0) != ruby_syntax::expr_hash(&shape.0)
                    || prev.1 != shape.1
                {
                    return None;
                }
            }
        }
    }
    found
}

fn cat_tag(c: ErrorCategory) -> u8 {
    match c {
        ErrorCategory::UndefinedConstant => 0,
        ErrorCategory::NoMethod => 1,
        ErrorCategory::ArgumentType => 2,
        ErrorCategory::ReturnType => 3,
        ErrorCategory::CompType => 4,
        ErrorCategory::WeakUpdate => 5,
        ErrorCategory::Termination => 6,
        ErrorCategory::Arity => 7,
        ErrorCategory::Sql => 8,
    }
}

fn cat_from_tag(t: u8) -> Option<ErrorCategory> {
    Some(match t {
        0 => ErrorCategory::UndefinedConstant,
        1 => ErrorCategory::NoMethod,
        2 => ErrorCategory::ArgumentType,
        3 => ErrorCategory::ReturnType,
        4 => ErrorCategory::CompType,
        5 => ErrorCategory::WeakUpdate,
        6 => ErrorCategory::Termination,
        7 => ErrorCategory::Arity,
        8 => ErrorCategory::Sql,
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Little-endian wire primitives
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    fn put_u8(&mut self, v: u8) {
        self.bytes.push(v);
    }
    fn put_u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.bytes.extend_from_slice(s.as_bytes());
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Some(out)
    }
    fn get_u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn get_u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    fn get_u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn get_str(&mut self) -> Option<String> {
        let len = self.get_u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }
}

fn put_str_list(w: &mut Writer, list: &[String]) {
    w.put_u32(list.len() as u32);
    for s in list {
        w.put_str(s);
    }
}

fn get_str_list(r: &mut Reader<'_>) -> Option<Vec<String>> {
    let n = r.get_u32()?;
    let mut out = Vec::with_capacity(n.min(1024) as usize);
    for _ in 0..n {
        out.push(r.get_str()?);
    }
    Some(out)
}

fn put_u32_list(w: &mut Writer, list: &[u32]) {
    w.put_u32(list.len() as u32);
    for v in list {
        w.put_u32(*v);
    }
}

fn get_u32_list(r: &mut Reader<'_>) -> Option<Vec<u32>> {
    let n = r.get_u32()?;
    let mut out = Vec::with_capacity(n.min(1024) as usize);
    for _ in 0..n {
        out.push(r.get_u32()?);
    }
    Some(out)
}

fn put_span(w: &mut Writer, s: &SpanRef) {
    match s {
        SpanRef::Dummy => w.put_u8(0),
        SpanRef::Node(i) => {
            w.put_u8(1);
            w.put_u32(*i);
        }
        SpanRef::Derived { node, dstart, dend, dline } => {
            w.put_u8(2);
            w.put_u32(*node);
            w.put_u64(*dstart);
            w.put_u64(*dend);
            w.put_u32(*dline);
        }
        SpanRef::Absolute { file, start, end, line } => {
            w.put_u8(3);
            w.put_u32(*file);
            w.put_u64(*start);
            w.put_u64(*end);
            w.put_u32(*line);
        }
    }
}

fn get_span(r: &mut Reader<'_>) -> Option<SpanRef> {
    Some(match r.get_u8()? {
        0 => SpanRef::Dummy,
        1 => SpanRef::Node(r.get_u32()?),
        2 => SpanRef::Derived {
            node: r.get_u32()?,
            dstart: r.get_u64()?,
            dend: r.get_u64()?,
            dline: r.get_u32()?,
        },
        3 => SpanRef::Absolute {
            file: r.get_u32()?,
            start: r.get_u64()?,
            end: r.get_u64()?,
            line: r.get_u32()?,
        },
        _ => return None,
    })
}

fn put_type(w: &mut Writer, t: &TypeTree) {
    match t {
        TypeTree::Top => w.put_u8(0),
        TypeTree::Bot => w.put_u8(1),
        TypeTree::Bool => w.put_u8(2),
        TypeTree::Dynamic => w.put_u8(3),
        TypeTree::Nominal(n) => {
            w.put_u8(4);
            w.put_str(n);
        }
        TypeTree::Singleton(v) => {
            w.put_u8(5);
            put_singval(w, v);
        }
        TypeTree::Generic(base, args) => {
            w.put_u8(6);
            w.put_str(base);
            w.put_u32(args.len() as u32);
            for a in args {
                put_type(w, a);
            }
        }
        TypeTree::Union(parts) => {
            w.put_u8(7);
            w.put_u32(parts.len() as u32);
            for p in parts {
                put_type(w, p);
            }
        }
        TypeTree::Optional(inner) => {
            w.put_u8(8);
            put_type(w, inner);
        }
        TypeTree::Vararg(inner) => {
            w.put_u8(9);
            put_type(w, inner);
        }
        TypeTree::Var(v) => {
            w.put_u8(10);
            w.put_str(v);
        }
        TypeTree::Tuple(elems) => {
            w.put_u8(11);
            w.put_u32(elems.len() as u32);
            for e in elems {
                put_type(w, e);
            }
        }
        TypeTree::FiniteHash(entries) => {
            w.put_u8(12);
            w.put_u32(entries.len() as u32);
            for (k, v) in entries {
                put_hashkey(w, k);
                put_type(w, v);
            }
        }
        TypeTree::ConstString(v) => {
            w.put_u8(13);
            w.put_str(v);
        }
    }
}

fn get_type(r: &mut Reader<'_>, depth: u32) -> Option<TypeTree> {
    if depth > MAX_TYPE_DEPTH {
        return None;
    }
    Some(match r.get_u8()? {
        0 => TypeTree::Top,
        1 => TypeTree::Bot,
        2 => TypeTree::Bool,
        3 => TypeTree::Dynamic,
        4 => TypeTree::Nominal(r.get_str()?),
        5 => TypeTree::Singleton(get_singval(r)?),
        6 => {
            let base = r.get_str()?;
            let n = r.get_u32()?;
            let mut args = Vec::with_capacity(n.min(1024) as usize);
            for _ in 0..n {
                args.push(get_type(r, depth + 1)?);
            }
            TypeTree::Generic(base, args)
        }
        7 => {
            let n = r.get_u32()?;
            let mut parts = Vec::with_capacity(n.min(1024) as usize);
            for _ in 0..n {
                parts.push(get_type(r, depth + 1)?);
            }
            TypeTree::Union(parts)
        }
        8 => TypeTree::Optional(Box::new(get_type(r, depth + 1)?)),
        9 => TypeTree::Vararg(Box::new(get_type(r, depth + 1)?)),
        10 => TypeTree::Var(r.get_str()?),
        11 => {
            let n = r.get_u32()?;
            let mut elems = Vec::with_capacity(n.min(1024) as usize);
            for _ in 0..n {
                elems.push(get_type(r, depth + 1)?);
            }
            TypeTree::Tuple(elems)
        }
        12 => {
            let n = r.get_u32()?;
            let mut entries = Vec::with_capacity(n.min(1024) as usize);
            for _ in 0..n {
                let k = get_hashkey(r)?;
                let v = get_type(r, depth + 1)?;
                entries.push((k, v));
            }
            TypeTree::FiniteHash(entries)
        }
        13 => TypeTree::ConstString(r.get_str()?),
        _ => return None,
    })
}

fn put_singval(w: &mut Writer, v: &SingVal) {
    match v {
        SingVal::Nil => w.put_u8(0),
        SingVal::True => w.put_u8(1),
        SingVal::False => w.put_u8(2),
        SingVal::Int(i) => {
            w.put_u8(3);
            w.put_u64(*i as u64);
        }
        SingVal::FloatBits(b) => {
            w.put_u8(4);
            w.put_u64(*b);
        }
        SingVal::Sym(s) => {
            w.put_u8(5);
            w.put_str(s);
        }
        SingVal::Class(c) => {
            w.put_u8(6);
            w.put_str(c);
        }
    }
}

fn get_singval(r: &mut Reader<'_>) -> Option<SingVal> {
    Some(match r.get_u8()? {
        0 => SingVal::Nil,
        1 => SingVal::True,
        2 => SingVal::False,
        3 => SingVal::Int(r.get_u64()? as i64),
        4 => SingVal::FloatBits(r.get_u64()?),
        5 => SingVal::Sym(r.get_str()?),
        6 => SingVal::Class(r.get_str()?),
        _ => return None,
    })
}

fn put_hashkey(w: &mut Writer, k: &HashKey) {
    match k {
        HashKey::Sym(s) => {
            w.put_u8(0);
            w.put_str(s);
        }
        HashKey::Str(s) => {
            w.put_u8(1);
            w.put_str(s);
        }
        HashKey::Int(i) => {
            w.put_u8(2);
            w.put_u64(*i as u64);
        }
    }
}

fn get_hashkey(r: &mut Reader<'_>) -> Option<HashKey> {
    Some(match r.get_u8()? {
        0 => HashKey::Sym(r.get_str()?),
        1 => HashKey::Str(r.get_str()?),
        2 => HashKey::Int(r.get_u64()? as i64),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{CheckOptions, TypeChecker};

    fn env() -> CompRdl {
        let mut env = CompRdl::new();
        crate::stdlib::register_all(&mut env);
        env.type_sig("Object", "page", "() -> { info: Array<String>, title: String }", None);
        env.type_sig("Object", "image_url", "() -> String", Some("app"));
        env
    }

    const SRC: &str = "def image_url()\n  page()[:info].first\nend\n";

    fn check(
        env: &CompRdl,
        src: &str,
    ) -> (crate::checker::ProgramCheckResult, ruby_syntax::Program) {
        let program = ruby_syntax::parse_program_strict(src).unwrap();
        let result = TypeChecker::new(env, &program, CheckOptions::default()).check_labeled("app");
        (result, program)
    }

    fn record(cache: &mut CheckCache, env: &CompRdl, src: &str) -> u64 {
        let (result, program) = check(env, src);
        let g = crate::semdep::DepGraph::build(env, &program);
        let files = vec![content_hash(src)];
        let methods: Vec<(String, &MethodDef, u64, &MethodCheckResult)> = program
            .methods()
            .iter()
            .filter_map(|(owner, def)| {
                let r = result.methods.iter().find(|m| m.method == def.name)?;
                let merkle = g.merkle(owner, &def.name, def.singleton)?;
                Some((owner.clone(), *def, merkle, r))
            })
            .collect();
        let env_h = crate::semdep::env_hash(env);
        cache.record_app("unit", env_h, files, &methods, &result.store);
        env_h
    }

    fn replay_all(
        cache: &CheckCache,
        env: &CompRdl,
        env_h: u64,
        src: &str,
    ) -> Vec<Option<MethodCheckResult>> {
        let program = ruby_syntax::parse_program_strict(src).unwrap();
        let g = crate::semdep::DepGraph::build(env, &program);
        let files = vec![content_hash(src)];
        let mut store = TypeStore::new();
        program
            .methods()
            .iter()
            .map(|(owner, def)| {
                let merkle = g.merkle(owner, &def.name, def.singleton)?;
                cache.replay("unit", env, env_h, &files, owner, def, merkle, &mut store)
            })
            .collect()
    }

    #[test]
    fn round_trip_is_byte_identical_through_disk() {
        let env = env();
        let mut cache = CheckCache::new();
        let env_h = record(&mut cache, &env, SRC);

        let dir = std::env::temp_dir().join(format!("comprdl-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.bin");
        cache.save(&path).unwrap();
        let loaded = CheckCache::load(&path);
        assert_eq!(loaded, cache, "binary round trip must be lossless");
        std::fs::remove_dir_all(&dir).ok();

        let (fresh, _) = check(&env, SRC);
        let replayed = replay_all(&loaded, &env, env_h, SRC);
        assert_eq!(replayed.len(), 1);
        let replayed = replayed[0].clone().expect("unchanged method must replay");
        let orig = &fresh.methods[0];
        assert_eq!(replayed.errors, orig.errors);
        assert_eq!(replayed.explicit_casts, orig.explicit_casts);
        assert_eq!(replayed.implicit_casts, orig.implicit_casts);
        assert_eq!(replayed.loc, orig.loc);
        assert_eq!(replayed.checks.len(), orig.checks.len());
        for (r, o) in replayed.checks.iter().zip(&orig.checks) {
            assert_eq!(r.site, o.site);
            assert_eq!(r.description, o.description);
        }
    }

    #[test]
    fn layout_edit_still_replays_with_reanchored_spans() {
        let env = env();
        let mut cache = CheckCache::new();
        let env_h = record(&mut cache, &env, SRC);

        // Same method, pushed down by comments: spans shift, semantics
        // don't.  The replayed spans must match a from-scratch check of the
        // *edited* source, not the original one.
        let shifted = format!("# header\n# more\n\n{SRC}");
        let (fresh, _) = check(&env, &shifted);
        let replayed = replay_all(&cache, &env, env_h, &shifted)[0]
            .clone()
            .expect("layout edit must not invalidate");
        let orig = &fresh.methods[0];
        assert_eq!(replayed.checks.len(), orig.checks.len());
        for (r, o) in replayed.checks.iter().zip(&orig.checks) {
            assert_eq!(r.site, o.site, "span must re-anchor to the new parse");
            assert_eq!(r.expected_return, o.expected_return);
        }
        assert_eq!(replayed.errors, orig.errors);
        assert_eq!(replayed.loc, orig.loc);
    }

    #[test]
    fn semantic_edit_refuses_to_replay() {
        let env = env();
        let mut cache = CheckCache::new();
        let env_h = record(&mut cache, &env, SRC);
        let edited = "def image_url()\n  page()[:title]\nend\n";
        assert!(replay_all(&cache, &env, env_h, edited)[0].is_none());
    }

    #[test]
    fn env_change_refuses_to_replay() {
        let env = env();
        let mut cache = CheckCache::new();
        let _ = record(&mut cache, &env, SRC);
        let mut env2 = env;
        env2.type_sig("Object", "extra", "() -> Integer", None);
        let env_h2 = crate::semdep::env_hash(&env2);
        assert!(replay_all(&cache, &env2, env_h2, SRC)[0].is_none());
    }

    #[test]
    fn garbage_and_truncation_load_as_empty() {
        let dir = std::env::temp_dir().join(format!("comprdl-persist-g-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.bin");

        assert!(CheckCache::load(&path).is_empty(), "missing file");
        std::fs::write(&path, b"not a cache file").unwrap();
        assert!(CheckCache::load(&path).is_empty(), "bad magic");

        let env = env();
        let mut cache = CheckCache::new();
        let _ = record(&mut cache, &env, SRC);
        let bytes = cache.to_bytes();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(CheckCache::load(&path).is_empty(), "truncated");

        let mut versioned = bytes.clone();
        versioned[8] ^= 0xff; // corrupt FORMAT_VERSION
        std::fs::write(&path, &versioned).unwrap();
        assert!(CheckCache::load(&path).is_empty(), "wrong version");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interior_corruption_is_caught_by_the_checksum_trailer() {
        // The v4 property: a bit flip *inside* the body — e.g. in a stored
        // Merkle key or cast counter, where the structure still parses —
        // must be rejected, not replayed wrong.
        let env = env();
        let mut cache = CheckCache::new();
        let _ = record(&mut cache, &env, SRC);
        let bytes = cache.to_bytes();
        assert!(CheckCache::from_bytes(&bytes).is_some(), "pristine bytes parse");

        for pos in [bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
            let mut hit = bytes.clone();
            hit[pos] ^= 0x01;
            assert!(
                CheckCache::from_bytes(&hit).is_none(),
                "single bit flip at byte {pos} must invalidate the whole file"
            );
        }
    }

    #[test]
    fn seeded_corruption_always_degrades_to_a_cold_recheck() {
        let env = env();
        let mut cache = CheckCache::new();
        let _ = record(&mut cache, &env, SRC);
        let bytes = cache.to_bytes();

        let mut rejected = 0usize;
        for seed in 0..500u64 {
            let mutant = corrupt(&bytes, seed);
            // The load contract under every corruption mode: either the
            // corruption is detected (None → empty cache → cold re-check)
            // or the bytes survived untouched and the cache is exactly the
            // original — never a panic, never a different cache.
            match CheckCache::from_bytes(&mutant) {
                None => rejected += 1,
                Some(loaded) => {
                    assert_eq!(mutant, bytes, "seed {seed}: altered bytes parsed");
                    assert_eq!(loaded, cache, "seed {seed}: wrong replay");
                }
            }
        }
        assert!(rejected > 400, "corruption should almost always be detected: {rejected}/500");
    }

    #[test]
    fn corruption_is_deterministic_in_its_seed() {
        let env = env();
        let mut cache = CheckCache::new();
        let _ = record(&mut cache, &env, SRC);
        let bytes = cache.to_bytes();
        for seed in [0u64, 1, 17, 0xdead_beef] {
            assert_eq!(corrupt(&bytes, seed), corrupt(&bytes, seed), "seed {seed}");
        }
    }

    fn lint_records_for(src: &str) -> Vec<(String, ruby_syntax::Program, u64, Vec<LintRecord>)> {
        // A hand-rolled "lint" result: one finding anchored at the span of
        // the method's first body statement (a node-table span) and one at a
        // sub-span inside it (derived).
        let program = ruby_syntax::parse_program_strict(src).unwrap();
        let (owner, def) = &program.methods()[0];
        let first = def.body.first().expect("body");
        let sub =
            Span::in_file(first.span.file, first.span.start, first.span.start + 2, first.span.line);
        let records = vec![
            LintRecord {
                code: "LINT0102".into(),
                message: "local variable `x` is never used".into(),
                label: "assigned here but never read".into(),
                span: first.span,
            },
            LintRecord {
                code: "LINT0101".into(),
                message: "`x` may be used before it is assigned".into(),
                label: "used here".into(),
                span: sub,
            },
        ];
        vec![(owner.clone(), program.clone(), ruby_syntax::method_hash(def), records)]
    }

    #[test]
    fn lint_round_trip_replays_byte_identically_through_disk() {
        let src = "def m()\n  x = 1\n  2\nend\n";
        let mut cache = CheckCache::new();
        let recs = lint_records_for(src);
        let (owner, program, semhash, records) = &recs[0];
        let def = program.methods()[0].1;
        let files = vec![content_hash(src)];
        cache.record_lints(
            "unit",
            files.clone(),
            &[(owner.clone(), def, *semhash, records.clone())],
        );
        assert_eq!(cache.lint_method_count("unit"), 1);

        let dir = std::env::temp_dir().join(format!("comprdl-persist-l-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.bin");
        cache.save(&path).unwrap();
        let loaded = CheckCache::load(&path);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(loaded, cache, "binary round trip must be lossless");

        let replayed = loaded.replay_lints("unit", &files, owner, def, *semhash).expect("replays");
        assert_eq!(&replayed, records, "same parse: spans replay verbatim");
    }

    #[test]
    fn lint_replay_reanchors_spans_after_layout_edit() {
        let src = "def m()\n  x = 1\n  2\nend\n";
        let mut cache = CheckCache::new();
        let recs = lint_records_for(src);
        let (owner, program, semhash, records) = &recs[0];
        let def = program.methods()[0].1;
        cache.record_lints(
            "unit",
            vec![content_hash(src)],
            &[(owner.clone(), def, *semhash, records.clone())],
        );

        let shifted_src = format!("# header comment\n\n{src}");
        let shifted = ruby_syntax::parse_program_strict(&shifted_src).unwrap();
        let sdef = shifted.methods()[0].1;
        assert_eq!(ruby_syntax::method_hash(sdef), *semhash, "layout edit keeps the hash");
        let replayed = cache
            .replay_lints("unit", &[content_hash(&shifted_src)], owner, sdef, *semhash)
            .expect("layout edit must not invalidate lints");
        let new_first = sdef.body.first().unwrap().span;
        assert_eq!(replayed[0].span, new_first, "node span re-anchors to the new parse");
        assert_eq!(replayed[1].span.start, new_first.start, "derived span follows its node");
        assert_eq!(replayed[1].span.end, new_first.start + 2);
        assert_eq!(replayed[0].code, records[0].code);
        assert_eq!(replayed[0].message, records[0].message);
    }

    #[test]
    fn lint_replay_refuses_on_semantic_edit() {
        let src = "def m()\n  x = 1\n  2\nend\n";
        let mut cache = CheckCache::new();
        let recs = lint_records_for(src);
        let (owner, program, semhash, records) = &recs[0];
        let def = program.methods()[0].1;
        cache.record_lints(
            "unit",
            vec![content_hash(src)],
            &[(owner.clone(), def, *semhash, records.clone())],
        );
        let edited_src = "def m()\n  x = 9\n  2\nend\n";
        let edited = ruby_syntax::parse_program_strict(edited_src).unwrap();
        let edef = edited.methods()[0].1;
        let new_hash = ruby_syntax::method_hash(edef);
        assert_ne!(new_hash, *semhash);
        assert!(cache
            .replay_lints("unit", &[content_hash(edited_src)], owner, edef, new_hash)
            .is_none());
    }

    #[test]
    fn record_app_preserves_lints_recorded_against_the_same_sources() {
        let env = env();
        let mut cache = CheckCache::new();
        // Lints first (the parallel harness can finish either pass first)...
        let recs = lint_records_for(SRC);
        let (owner, program, semhash, records) = &recs[0];
        let def = program.methods()[0].1;
        cache.record_lints(
            "unit",
            vec![content_hash(SRC)],
            &[(owner.clone(), def, *semhash, records.clone())],
        );
        // ...then the check verdicts for the same sources.
        let env_h = record(&mut cache, &env, SRC);
        assert_eq!(cache.lint_method_count("unit"), 1, "record_app must keep the lint section");
        assert!(cache.replay_lints("unit", &[content_hash(SRC)], owner, def, *semhash).is_some());
        // Check replay still works too.
        assert!(replay_all(&cache, &env, env_h, SRC)[0].is_some());
    }

    #[test]
    fn empty_lint_verdicts_replay_as_empty_not_none() {
        let src = "def m()\n  1\nend\n";
        let program = ruby_syntax::parse_program_strict(src).unwrap();
        let (owner, def) = &program.methods()[0];
        let semhash = ruby_syntax::method_hash(def);
        let mut cache = CheckCache::new();
        cache.record_lints(
            "unit",
            vec![content_hash(src)],
            &[(owner.clone(), *def, semhash, Vec::new())],
        );
        let replayed = cache.replay_lints("unit", &[content_hash(src)], owner, def, semhash);
        assert_eq!(replayed, Some(Vec::new()), "clean methods replay without re-linting");
    }

    fn sample_effects() -> Vec<EffectRecord> {
        vec![
            EffectRecord {
                owner: "Object".into(),
                name: "helper".into(),
                singleton: false,
                merkle: 0xdead_beef,
                term: 0,
                purity: 0,
                ..EffectRecord::default()
            },
            EffectRecord {
                owner: "Talk".into(),
                name: "spin".into(),
                singleton: true,
                merkle: 42,
                term: 2,
                purity: 1,
                term_blame: vec!["spin".into(), "while loop".into()],
                purity_blame: vec!["spin".into(), "inner".into(), "@x=".into()],
                taint_return: vec![0, 2],
                taint_sink: vec![1],
                self_to_return: true,
                self_to_sink: false,
            },
        ]
    }

    #[test]
    fn effect_summaries_round_trip_and_replay_by_merkle() {
        let mut cache = CheckCache::new();
        cache.record_effects("unit", sample_effects());
        assert_eq!(cache.effect_method_count("unit"), 2);

        let dir = std::env::temp_dir().join(format!("comprdl-persist-e-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.bin");
        cache.save(&path).unwrap();
        let loaded = CheckCache::load(&path);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(loaded, cache, "binary round trip must be lossless");

        let r = loaded.replay_effects("unit", "Talk", "spin", true, 42).expect("replays");
        assert_eq!(r, sample_effects()[1]);
        // A moved Merkle hash (any transitive dependency change) misses.
        assert!(loaded.replay_effects("unit", "Talk", "spin", true, 43).is_none());
        // Wrong kind misses.
        assert!(loaded.replay_effects("unit", "Talk", "spin", false, 42).is_none());
    }

    #[test]
    fn record_app_preserves_the_effect_section() {
        let env = env();
        let mut cache = CheckCache::new();
        cache.record_effects("unit", sample_effects());
        let _ = record(&mut cache, &env, SRC);
        assert_eq!(cache.effect_method_count("unit"), 2, "record_app must keep the effect section");
        assert!(cache.replay_effects("unit", "Object", "helper", false, 0xdead_beef).is_some());
    }

    #[test]
    fn file_reordering_does_not_invalidate() {
        // Replay keyed by content hash: the same source at a different
        // Span.file id / file-table position still replays.
        let env = env();
        let mut cache = CheckCache::new();
        let env_h = record(&mut cache, &env, SRC);
        let program = ruby_syntax::parse_program_strict(SRC).unwrap();
        let g = crate::semdep::DepGraph::build(&env, &program);
        // Current process: some other file occupies id 0.
        let files = vec![content_hash("something else"), content_hash(SRC)];
        let mut store = TypeStore::new();
        let (owner, def) = &program.methods()[0];
        let merkle = g.merkle(owner, &def.name, def.singleton).unwrap();
        assert!(cache
            .replay("unit", &env, env_h, &files, owner, def, merkle, &mut store)
            .is_some());
    }
}
