//! Fast non-cryptographic hashing for hot-path maps.
//!
//! The reservoir probes its dedup set and cursor map on **every** appended
//! event; `std`'s default SipHash costs more than the rest of the append
//! fast path combined. This is the FxHash construction (rotate + xor +
//! multiply, as used by rustc) — not DoS-resistant, which is fine for
//! internal maps keyed by ids the system itself assigns.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with the [`FxHasher`] (drop-in for hot-path maps).
pub type FastHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` with the [`FxHasher`].
pub type FastHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

/// `HashMap` with the [`KeyHasher`], for byte-string keys.
pub type KeyHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<KeyHasher>>;

const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// FxHash: one rotate-xor-multiply per word of input.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(tail) | ((rem.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// splitmix64-style avalanche finalizer: every input bit moves every
/// output bit.
#[inline]
pub fn finalize(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// [`FxHasher`] with a [`finalize`] round, for byte-string keys.
///
/// A hash table picks a bucket by a hash's low bits, and Fx's multiply
/// carries a changed input bit only to the bits above it. Keys that differ
/// only in the upper bytes of their last word — `…card-00012345`, whose
/// last word holds the rank's last five digits — then share their low
/// bits: 50 000 such keys fall into 50 buckets and probe through one
/// another. The finalizer spreads every byte into the low bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyHasher(FxHasher);

impl Hasher for KeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    #[inline]
    fn finish(&self) -> u64 {
        finalize(self.0.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_set_work() {
        let mut m: FastHashMap<u64, &str> = FastHashMap::default();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        let mut s: FastHashSet<u64> = FastHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }

    #[test]
    fn sequential_ids_spread() {
        // Low bits (bucket selectors) must differ across sequential keys.
        let mut low_bits = FastHashSet::default();
        for i in 0u64..1024 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            low_bits.insert(h.finish() & 0x3ff);
        }
        assert!(low_bits.len() > 512, "got {} distinct buckets", low_bits.len());
    }

    #[test]
    fn keys_that_differ_in_their_last_word_spread() {
        // The engine's row keys: a group id, flags and `card-NNNNNNNN`.
        let low_bits = |hash: fn(&[u8]) -> u64| {
            let mut buckets = FastHashSet::default();
            for rank in 0u32..4096 {
                let mut key = vec![0, 0, 0, 0, 0, 1, 4, 13];
                key.extend_from_slice(format!("card-{rank:08}").as_bytes());
                buckets.insert(hash(&key) & 0xfff);
            }
            buckets.len()
        };
        let fx = low_bits(|k| {
            let mut h = FxHasher::default();
            h.write(k);
            h.finish()
        });
        let mixed = low_bits(|k| {
            let mut h = KeyHasher::default();
            h.write(k);
            h.finish()
        });
        assert!(fx <= 50, "Fx alone: {fx} of 4096 buckets");
        assert!(mixed > 2048, "finalized: {mixed} of 4096 buckets");
    }

    #[test]
    fn byte_slices_include_length() {
        let mut a = FxHasher::default();
        a.write(b"ab");
        let mut b = FxHasher::default();
        b.write(b"ab\0");
        assert_ne!(a.finish(), b.finish(), "length must disambiguate tails");
    }
}
