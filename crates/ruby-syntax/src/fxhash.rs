//! A fast hasher for in-memory maps keyed by names, spans and
//! fingerprints.
//!
//! `std`'s default `RandomState` runs SipHash-1-3 with a per-process random
//! key.  The key buys resistance to HashDoS: an attacker who picks the keys
//! cannot force collisions without knowing it.  The interpreter's and the
//! run-time checks' maps gain nothing from that, because their keys come
//! from the program being checked: method, global, constant and
//! instance-variable names, call-site [`Span`](crate::Span)s and value
//! fingerprints.  On those maps SipHash is most of a lookup's cost.
//!
//! [`FxHasher`] is the multiply-rotate hash of Firefox and rustc: it mixes
//! one machine word at a time with a rotate, a xor and a multiply, and has
//! no key, so it also hashes the same way in every process.
//!
//! Only in-memory lookup tables use it.  A map whose iteration order can
//! reach a digest or a file (`semdep::env_hash`, the Merkle hashes, the
//! check cache) keeps `RandomState`, so that two processes iterate it in
//! different orders and an order-dependent digest shows up as a cache miss.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier Firefox's and rustc's Fx hash use.
const MULTIPLIER: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hash: each word is folded in as `(hash.rotate_left(5) ^ word) *
/// MULTIPLIER`.  Byte strings are read eight bytes at a time.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some((word, rest)) = bytes.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*word));
            bytes = rest;
        }
        if let Some((word, rest)) = bytes.split_first_chunk::<4>() {
            self.add(u64::from(u32::from_le_bytes(*word)));
            bytes = rest;
        }
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s; a map with this state allocates nothing until its
/// first insert, as a `HashMap::new()` does.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`].  Create one with
/// `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Span;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash + ?Sized>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_and_near_keys_apart() {
        assert_eq!(fx("users"), fx(&String::from("users")));
        assert_eq!(fx(&Span::new(3, 9, 1)), fx(&Span::new(3, 9, 1)));
        // Lengths that exercise the 8-, 4- and 1-byte tails.
        let names = ["", "a", "ab", "abcd", "abcde", "abcdefgh", "abcdefghi", "abcdefghijkl"];
        let mut hashes: Vec<u64> = names.iter().map(fx).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), names.len());
        let spans =
            [Span::new(3, 9, 1), Span::new(3, 9, 0), Span::new(9, 3, 1), Span::new(4, 9, 1)];
        let mut hashes: Vec<u64> = spans.iter().map(fx).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), spans.len());
    }

    #[test]
    fn maps_behave_as_std_ones() {
        let mut map: FxHashMap<String, usize> = FxHashMap::default();
        for i in 0..1000 {
            map.insert(format!("m{i}"), i);
        }
        assert_eq!(map.len(), 1000);
        assert!((0..1000).all(|i| map.get(&*format!("m{i}")) == Some(&i)));
        assert_eq!(map.get("m1000"), None);
    }
}
