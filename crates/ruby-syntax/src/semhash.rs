//! Structural ("semantic") hashing of parsed methods.
//!
//! [`method_hash`] digests a [`MethodDef`] by walking its AST and feeding
//! every *semantically meaningful* field — names, literals, operators, the
//! tree shape — into a FNV-1a style 64-bit hasher, while skipping every
//! [`Span`].  Comments and whitespace never reach the AST (the lexer drops
//! them), so two parses that differ only in layout, comments, byte offsets,
//! line numbers or span file ids produce **identical** hashes; any edit that
//! changes what the method *does* changes the hash.
//!
//! This is the foundation of incremental re-checking (see
//! `comprdl::semdep`): a method whose semantic hash — and the hashes of
//! everything it transitively depends on — is unchanged can replay its
//! previous check verdict instead of being re-checked.
//!
//! The hash is deterministic across processes and platforms (no pointer or
//! `HashMap`-order dependence), which is what lets it key an on-disk cache.

use crate::ast::{Block, CondArm, Expr, ExprKind, LValue, MethodDef, Param, Program};
use crate::span::Span;

/// A FNV-1a 64-bit hasher with length-prefixed, tag-disambiguated writes.
///
/// Not a `std::hash::Hasher`: `std`'s `Hasher` contract does not promise
/// cross-process stability for `SipHash` keys, and the semantic hash must
/// be stable enough to key an on-disk cache.
#[derive(Debug, Clone)]
pub struct SemHasher(u64);

impl SemHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        SemHasher(Self::OFFSET)
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
    }

    /// Absorbs a `u64`, little-endian.
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Absorbs an `i64` by bit pattern.
    pub fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    /// Absorbs a `usize` widened to 64 bits.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs a string, length-prefixed so `("a", "bc")` and `("ab", "c")`
    /// digest differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        for b in s.as_bytes() {
            self.write_u8(*b);
        }
    }

    /// Absorbs a bool.
    pub fn write_bool(&mut self, b: bool) {
        self.write_u8(u8::from(b));
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        // One final avalanche round (splitmix64) so near-identical inputs
        // do not produce near-identical outputs.
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl Default for SemHasher {
    fn default() -> Self {
        SemHasher::new()
    }
}

/// The semantic identity of one method in a program: where it lives
/// (`owner`/`name`/`singleton`) and the structural hash of its definition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MethodHash {
    /// The enclosing class (`"Object"` for top-level methods).
    pub owner: String,
    /// The method name.
    pub name: String,
    /// Whether it is a class-level (`def self.name`) method.
    pub singleton: bool,
    /// The structural hash of the definition (spans excluded).
    pub hash: u64,
}

impl Program {
    /// The semantic hash of every method in the program, in source order.
    ///
    /// Two programs that differ only in whitespace, comments or source
    /// positions report identical hash lists; see the module docs.
    pub fn method_hashes(&self) -> Vec<MethodHash> {
        self.methods()
            .into_iter()
            .map(|(owner, def)| MethodHash {
                owner,
                name: def.name.clone(),
                singleton: def.singleton,
                hash: method_hash(def),
            })
            .collect()
    }
}

/// Structurally hashes a method definition, skipping every span.
pub fn method_hash(def: &MethodDef) -> u64 {
    let mut h = SemHasher::new();
    hash_method(&mut h, def);
    h.finish()
}

/// Structurally hashes a single expression tree, skipping every span.
pub fn expr_hash(e: &Expr) -> u64 {
    let mut h = SemHasher::new();
    hash_expr(&mut h, e);
    h.finish()
}

fn hash_method(h: &mut SemHasher, def: &MethodDef) {
    h.write_u8(0xA0);
    h.write_str(&def.name);
    h.write_bool(def.singleton);
    // The poison marker is part of the semantic identity: a method whose
    // body stopped parsing must hash differently from every well-formed
    // version of itself, so the incremental cache can never replay a stale
    // verdict for it (and a repaired method re-checks as an edit).
    h.write_bool(def.poisoned);
    h.write_usize(def.params.len());
    for p in &def.params {
        hash_param(h, p);
    }
    hash_body(h, &def.body);
}

fn hash_param(h: &mut SemHasher, p: &Param) {
    h.write_str(&p.name);
    h.write_bool(p.block);
    match &p.default {
        Some(d) => {
            h.write_u8(1);
            hash_expr(h, d);
        }
        None => h.write_u8(0),
    }
}

fn hash_body(h: &mut SemHasher, body: &[Expr]) {
    h.write_usize(body.len());
    for e in body {
        hash_expr(h, e);
    }
}

fn hash_lvalue(h: &mut SemHasher, lv: &LValue) {
    match lv {
        LValue::Local(n) => {
            h.write_u8(0);
            h.write_str(n);
        }
        LValue::IVar(n) => {
            h.write_u8(1);
            h.write_str(n);
        }
        LValue::GVar(n) => {
            h.write_u8(2);
            h.write_str(n);
        }
        LValue::Const(n) => {
            h.write_u8(3);
            h.write_str(n);
        }
        LValue::Index { recv, index } => {
            h.write_u8(4);
            hash_expr(h, recv);
            hash_expr(h, index);
        }
        LValue::Attr { recv, name } => {
            h.write_u8(5);
            hash_expr(h, recv);
            h.write_str(name);
        }
    }
}

fn hash_block(h: &mut SemHasher, b: &Block) {
    h.write_usize(b.params.len());
    for p in &b.params {
        h.write_str(p);
    }
    hash_body(h, &b.body);
}

fn hash_arms(h: &mut SemHasher, arms: &[CondArm]) {
    h.write_usize(arms.len());
    for arm in arms {
        hash_expr(h, &arm.cond);
        hash_body(h, &arm.body);
    }
}

fn hash_expr(h: &mut SemHasher, e: &Expr) {
    // Every variant writes a distinct tag byte first, so trees with the
    // same leaves but different shapes cannot collide structurally.  The
    // span is deliberately not written.
    match &e.kind {
        ExprKind::Nil => h.write_u8(0),
        ExprKind::True => h.write_u8(1),
        ExprKind::False => h.write_u8(2),
        ExprKind::Int(i) => {
            h.write_u8(3);
            h.write_i64(*i);
        }
        ExprKind::Float(f) => {
            h.write_u8(4);
            h.write_u64(f.to_bits());
        }
        ExprKind::Str(s) => {
            h.write_u8(5);
            h.write_str(s);
        }
        ExprKind::Sym(s) => {
            h.write_u8(6);
            h.write_str(s);
        }
        ExprKind::Array(items) => {
            h.write_u8(7);
            hash_body(h, items);
        }
        ExprKind::Hash(pairs) => {
            h.write_u8(8);
            h.write_usize(pairs.len());
            for (k, v) in pairs {
                hash_expr(h, k);
                hash_expr(h, v);
            }
        }
        ExprKind::SelfExpr => h.write_u8(9),
        ExprKind::Ident(n) => {
            h.write_u8(10);
            h.write_str(n);
        }
        ExprKind::IVar(n) => {
            h.write_u8(11);
            h.write_str(n);
        }
        ExprKind::GVar(n) => {
            h.write_u8(12);
            h.write_str(n);
        }
        ExprKind::Const(path) => {
            h.write_u8(13);
            h.write_usize(path.len());
            for seg in path {
                h.write_str(seg);
            }
        }
        ExprKind::Assign { target, value } => {
            h.write_u8(14);
            hash_lvalue(h, target);
            hash_expr(h, value);
        }
        ExprKind::OpAssign { target, op, value } => {
            h.write_u8(15);
            hash_lvalue(h, target);
            h.write_str(op);
            hash_expr(h, value);
        }
        ExprKind::Call { recv, name, args, block } => {
            h.write_u8(16);
            match recv {
                Some(r) => {
                    h.write_u8(1);
                    hash_expr(h, r);
                }
                None => h.write_u8(0),
            }
            h.write_str(name);
            hash_body(h, args);
            match block {
                Some(b) => {
                    h.write_u8(1);
                    hash_block(h, b);
                }
                None => h.write_u8(0),
            }
        }
        ExprKind::BoolOp { op, lhs, rhs } => {
            h.write_u8(17);
            h.write_u8(match op {
                crate::ast::BinOp::And => 0,
                crate::ast::BinOp::Or => 1,
            });
            hash_expr(h, lhs);
            hash_expr(h, rhs);
        }
        ExprKind::Not(inner) => {
            h.write_u8(18);
            hash_expr(h, inner);
        }
        ExprKind::If { arms, else_body } => {
            h.write_u8(19);
            hash_arms(h, arms);
            hash_body(h, else_body);
        }
        ExprKind::Case { subject, arms, else_body } => {
            h.write_u8(20);
            hash_expr(h, subject);
            hash_arms(h, arms);
            hash_body(h, else_body);
        }
        ExprKind::While { cond, body } => {
            h.write_u8(21);
            hash_expr(h, cond);
            hash_body(h, body);
        }
        ExprKind::Return(value) => {
            h.write_u8(22);
            match value {
                Some(v) => {
                    h.write_u8(1);
                    hash_expr(h, v);
                }
                None => h.write_u8(0),
            }
        }
        ExprKind::Yield(args) => {
            h.write_u8(23);
            hash_body(h, args);
        }
        ExprKind::Break => h.write_u8(24),
        ExprKind::Next => h.write_u8(25),
        ExprKind::Lambda(b) => {
            h.write_u8(26);
            hash_block(h, b);
        }
        ExprKind::TypeCast { expr, ty } => {
            h.write_u8(27);
            hash_expr(h, expr);
            h.write_str(ty);
        }
        ExprKind::Error => h.write_u8(28),
    }
}

/// The canonical node-span table of a method: index `0` is the definition's
/// own span, followed by the span of every body expression in pre-order.
///
/// Two parses of semantically identical sources (equal [`method_hash`])
/// walk identical trees, so a node *index* recorded against one parse
/// resolves to the corresponding node of the other — that is how the
/// persisted check cache re-anchors diagnostic and check-site spans onto a
/// re-parsed file whose byte offsets have shifted (see `comprdl::persist`).
pub fn method_span_nodes(def: &MethodDef) -> Vec<Span> {
    let mut nodes = vec![def.span];
    for e in &def.body {
        e.walk(&mut |node| nodes.push(node.span));
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program_strict;

    fn hashes(src: &str) -> Vec<MethodHash> {
        parse_program_strict(src).expect("parse").method_hashes()
    }

    #[test]
    fn layout_only_edits_hash_identically() {
        let a = hashes("def m(x)\n  x + 1\nend\n");
        let b = hashes("# leading comment\n\ndef m(x)\n\n  # inner comment\n  x + 1\n\nend\n");
        assert_eq!(a, b);
    }

    #[test]
    fn file_ids_and_offsets_do_not_matter() {
        let src = "def m(x)\n  x + 1\nend\n";
        let a = hashes(src);
        let (shifted, diags) = crate::parse_program_in_file(&format!("\n\n\n{src}"), 7);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(a, shifted.method_hashes());
    }

    #[test]
    fn semantic_edits_change_the_hash() {
        let base = hashes("def m(x)\n  x + 1\nend\n");
        for changed in [
            "def m(x)\n  x + 2\nend\n",    // literal
            "def m(x)\n  x - 1\nend\n",    // operator (method name)
            "def m(y)\n  y + 1\nend\n",    // parameter rename
            "def self.m(x)\n  x + 1\nend", // singleton-ness
        ] {
            assert_ne!(base[0].hash, hashes(changed)[0].hash, "edit not detected: {changed:?}");
        }
    }

    #[test]
    fn sibling_methods_hash_independently() {
        let both = hashes("def a()\n  1\nend\ndef b()\n  2\nend\n");
        let edited = hashes("def a()\n  1\nend\ndef b()\n  3\nend\n");
        assert_eq!(both[0].hash, edited[0].hash, "editing b must not move a's hash");
        assert_ne!(both[1].hash, edited[1].hash);
    }

    #[test]
    fn span_nodes_cover_def_and_body_preorder() {
        let p = parse_program_strict("def m(x)\n  x + 1\nend\n").expect("parse");
        let (_, def) = p.methods()[0];
        let nodes = method_span_nodes(def);
        assert_eq!(nodes[0], def.span);
        // `x + 1` is a call node with a receiver and one argument.
        assert_eq!(nodes.len(), 1 + def.body.iter().map(|e| e.node_count()).sum::<usize>());
    }

    #[test]
    fn span_node_indices_are_stable_under_layout_edits() {
        let a = parse_program_strict("def m(x)\n  x + 1\nend\n").expect("parse");
        let b = parse_program_strict("# c\n\ndef m(x)\n  # c\n  x + 1\nend\n").expect("parse");
        let (na, nb) = (method_span_nodes(a.methods()[0].1), method_span_nodes(b.methods()[0].1));
        assert_eq!(na.len(), nb.len(), "isomorphic trees must enumerate the same node count");
    }

    #[test]
    fn poisoned_methods_hash_differently_from_every_clean_version() {
        // A poisoned method must never collide with a well-formed method of
        // the same name — otherwise the incremental cache could replay a
        // stale verdict across a break/repair cycle.
        let (broken, diags) = crate::parse_program_in_file("def m()\n  1 +\nend\n", 0);
        assert_eq!(diags.len(), 1);
        let poisoned = broken.method_hashes();
        assert!(broken.methods()[0].1.poisoned);
        let clean = hashes("def m()\n  1\nend\n");
        assert_ne!(poisoned[0].hash, clean[0].hash);
        // Repairing the method restores a hash identical to the never-broken
        // parse of the same source.
        let repaired = hashes("def m()\n  1\nend\n");
        assert_eq!(clean[0].hash, repaired[0].hash);
    }

    #[test]
    fn item_granularity() {
        // Hash of a method nested in a class equals the hash of the same
        // method at top level: the owner is part of MethodHash, not of the
        // structural digest, so moving a method between classes is an
        // identity change, not a body change.
        let top = hashes("def m()\n  1\nend\n");
        let nested = hashes("class C\n  def m()\n    1\n  end\nend\n");
        assert_eq!(top[0].hash, nested[0].hash);
        assert_ne!(top[0].owner, nested[0].owner);
    }

    #[test]
    fn program_items_are_exhaustive() {
        // A compile-time reminder: adding an ExprKind variant must update
        // `hash_expr`.  The match there is non-wildcard, so this test only
        // documents the intent.
        let _ = crate::ast::Item::Expr(Expr::int(1));
    }
}
