//! A fixed, fast hasher for integer-keyed simulator tables.
//!
//! The standard `HashMap` seeds SipHash with per-process random keys, which
//! buys collision resistance against crafted keys. Simulator tables are
//! keyed by flow hashes and LBAs the simulation itself generates, so that
//! protection is dead weight on the hot path: [`IntHasher`] is one folded
//! multiply per word, the same in every process.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Folded-multiply hasher for integer keys (one 64x64->128 multiply per
/// word, high half XORed into the low half).
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9E37_79B9_7F4A_7C15;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }
}

/// A `HashMap` keyed by simulator-generated integers, hashed with
/// [`IntHasher`].
///
/// Only for maps whose iteration order never reaches output: iteration
/// follows the hash, so a report or a count built by iterating one would
/// change with the hasher. Keep the default hasher for keys that come from
/// outside the program.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` counterpart of [`IntMap`], with the same restriction: only
/// for sets whose iteration order never reaches output.
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(key: u64) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(key)
    }

    #[test]
    fn hashes_agree_across_instances() {
        let (a, b) = (
            BuildHasherDefault::<IntHasher>::default(),
            BuildHasherDefault::<IntHasher>::default(),
        );
        for key in [0u64, 1, 42, u64::MAX, 0x1234_5678_9abc_def0] {
            assert_eq!(a.hash_one(key), b.hash_one(key));
            assert_eq!(a.hash_one(key), hash(key));
        }
        // Distinct keys, distinct hashes: the fold keeps the key's bits.
        assert_ne!(hash(0), hash(1));
    }

    #[test]
    fn sequential_keys_spread_over_bucket_and_control_bits() {
        // A hashbrown table indexes buckets with the low bits and keeps
        // the top 7 bits as the control tag; sequential flow ids and LBAs
        // (stride 1, from zero and from a high base) must spread over
        // both.
        for base in [0u64, 1 << 40] {
            let keys = || (base..base + 65_536).map(hash);
            let mut low = vec![false; 1 << 16];
            let mut top = [false; 128];
            for h in keys() {
                low[(h & 0xFFFF) as usize] = true;
                top[(h >> 57) as usize] = true;
            }
            let low_distinct = low.iter().filter(|&&seen| seen).count();
            let top_distinct = top.iter().filter(|&&seen| seen).count();
            // Uniform random hashes fill ~41,400 of the 65,536 low values.
            assert!(low_distinct > 40_000, "base {base}: {low_distinct} low");
            assert_eq!(top_distinct, 128, "base {base}");
            // A small table (1,024 buckets) sees no clustering either.
            let mut small = [0u32; 1 << 10];
            for h in keys().take(1 << 10) {
                small[(h & 0x3FF) as usize] += 1;
            }
            let worst = small.iter().max().copied().unwrap_or(0);
            assert!(worst <= 8, "base {base}: {worst} keys in one bucket");
        }
    }
}
