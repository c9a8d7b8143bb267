//! A small deterministic hasher for the lookup-only substream maps.
//!
//! The tagged and unaliased predictors ([`crate::assoc`],
//! [`crate::ideal`]) and the last-use-distance walk key hash maps by
//! `(address, history)` pairs and only ever look entries up: the maps are
//! never iterated, so the hasher changes speed, not output. The default
//! SipHash resists keys crafted to collide, which here can only come from
//! a crafted trace slowing down its own simulation; a multiply-rotate
//! hash of the two words costs a fraction of it per lookup.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An odd 64-bit multiplier with well-spread bits.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiply-add hashing of whole words; `finish` rotates the
/// well-mixed high product bits down to the bucket-selecting low bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairHasher {
    hash: u64,
}

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.hash = self.hash.wrapping_add(n).wrapping_mul(K);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A map keyed by `(address, history)` substream pairs under
/// [`PairHasher`].
pub type PairMap<V> = HashMap<(u64, u64), V, BuildHasherDefault<PairHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn deterministic_and_order_sensitive() {
        let build = BuildHasherDefault::<PairHasher>::default();
        assert_eq!(build.hash_one((1u64, 2u64)), build.hash_one((1u64, 2u64)));
        assert_ne!(build.hash_one((1u64, 2u64)), build.hash_one((2u64, 1u64)));
    }

    #[test]
    fn low_bits_spread_over_high_address_bits() {
        // Addresses differing only above bit 20 must still land in many
        // distinct low-bit buckets.
        let build = BuildHasherDefault::<PairHasher>::default();
        let buckets: std::collections::BTreeSet<u64> = (0..256u64)
            .map(|i| build.hash_one((i << 20, 0u64)) & 0xff)
            .collect();
        assert!(buckets.len() > 128, "only {} of 256 buckets", buckets.len());
    }

    #[test]
    fn byte_writes_hash_like_words() {
        let mut a = PairHasher::default();
        a.write(&7u64.to_le_bytes());
        let mut b = PairHasher::default();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }
}
