//! Bloom filters for SSTable point-read short-circuiting.
//!
//! Each SSTable carries one bloom filter over all of its keys. A negative
//! answer lets [`crate::Db::get`] skip the table entirely, which matters
//! when the LSM has several sorted runs — the same optimization RocksDB
//! relies on for the paper's read-modify-write aggregation pattern.
//!
//! Double hashing (Kirsch–Mitzenmacher) derives the `k` probe positions from
//! two 64-bit halves of a single 128-bit-ish hash, the standard construction
//! used by LevelDB/RocksDB.

use bytes::{Buf, BufMut};
use railgun_types::encode::{get_uvarint, put_uvarint};
use railgun_types::{RailgunError, Result};

/// A fixed-size bloom filter built over a batch of keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: u64,
    num_hashes: u32,
}

/// FNV-1a 64-bit, seeded; cheap and adequate for bloom probing.
#[inline]
fn fnv1a(seed: u64, data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl BloomFilter {
    /// The two hashes all of `key`'s probe positions derive from.
    pub fn probe_hashes(key: &[u8]) -> (u64, u64) {
        (fnv1a(0x51ed_270b, key), fnv1a(0xb492_b66f, key) | 1) // odd stride
    }

    /// Build a filter sized for `keys.len()` keys at `bits_per_key`.
    pub fn build<K: AsRef<[u8]>>(keys: &[K], bits_per_key: usize) -> Self {
        let hashes: Vec<_> = keys
            .iter()
            .map(|k| Self::probe_hashes(k.as_ref()))
            .collect();
        Self::build_from_hashes(&hashes, bits_per_key)
    }

    /// [`BloomFilter::build`] from each key's [`BloomFilter::probe_hashes`],
    /// so a table writer need not keep the keys until it knows their count.
    pub fn build_from_hashes(hashes: &[(u64, u64)], bits_per_key: usize) -> Self {
        let n = hashes.len().max(1);
        let num_bits = (n * bits_per_key).max(64) as u64;
        // k = ln2 * bits/key, clamped to a sane range.
        let num_hashes = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 30);
        let mut filter = BloomFilter {
            bits: vec![0u64; num_bits.div_ceil(64) as usize],
            num_bits,
            num_hashes,
        };
        for &(h1, h2) in hashes {
            for bit in filter.probes(h1, h2) {
                filter.bits[(bit / 64) as usize] |= 1u64 << (bit % 64);
            }
        }
        filter
    }

    /// Bit positions probed for a key with hashes `(h1, h2)`.
    fn probes(&self, h1: u64, h2: u64) -> impl Iterator<Item = u64> {
        let num_bits = self.num_bits;
        (0..u64::from(self.num_hashes)).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % num_bits)
    }

    /// True if `key` *may* be present; false means definitely absent.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.may_contain_hashed(Self::probe_hashes(key))
    }

    /// [`BloomFilter::may_contain`] for a key whose
    /// [`BloomFilter::probe_hashes`] are `(h1, h2)`, so a lookup that
    /// visits several tables hashes its key once.
    pub fn may_contain_hashed(&self, (h1, h2): (u64, u64)) -> bool {
        self.probes(h1, h2)
            .all(|bit| self.bits[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0)
    }

    /// Serialize to `buf` (varint header + raw words).
    pub fn encode(&self, buf: &mut impl BufMut) {
        put_uvarint(buf, self.num_bits);
        put_uvarint(buf, u64::from(self.num_hashes));
        put_uvarint(buf, self.bits.len() as u64);
        for w in &self.bits {
            buf.put_u64_le(*w);
        }
    }

    /// Deserialize a filter written by [`BloomFilter::encode`].
    pub fn decode(buf: &mut impl Buf) -> Result<Self> {
        let num_bits = get_uvarint(buf)?;
        let num_hashes = get_uvarint(buf)? as u32;
        let words = get_uvarint(buf)? as usize;
        if num_bits == 0 || num_hashes == 0 || words != num_bits.div_ceil(64) as usize {
            return Err(RailgunError::Corruption("malformed bloom header".into()));
        }
        if buf.remaining() < words * 8 {
            return Err(RailgunError::Corruption("truncated bloom bits".into()));
        }
        let mut bits = Vec::with_capacity(words);
        for _ in 0..words {
            bits.push(buf.get_u64_le());
        }
        Ok(BloomFilter {
            bits,
            num_bits,
            num_hashes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let keys: Vec<Vec<u8>> = (0..1000u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let f = BloomFilter::build(&keys, 10);
        for k in &keys {
            assert!(f.may_contain(k));
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let keys: Vec<Vec<u8>> = (0..1000u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let f = BloomFilter::build(&keys, 10);
        let fp = (1000..11_000u32)
            .filter(|i| f.may_contain(&i.to_le_bytes()))
            .count();
        // 10 bits/key should give ~1% FPR; allow generous 4%.
        assert!(fp < 400, "false positive rate too high: {fp}/10000");
    }

    #[test]
    fn empty_key_set_is_valid() {
        let f = BloomFilter::build::<&[u8]>(&[], 10);
        // May return either answer but must not panic.
        let _ = f.may_contain(b"anything");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let keys: Vec<Vec<u8>> = (0..64u32).map(|i| format!("key{i}").into_bytes()).collect();
        let f = BloomFilter::build(&keys, 12);
        let mut buf = Vec::new();
        f.encode(&mut buf);
        let g = BloomFilter::decode(&mut &buf[..]).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn decode_rejects_truncation() {
        let f = BloomFilter::build(&[b"k".to_vec()], 10);
        let mut buf = Vec::new();
        f.encode(&mut buf);
        buf.truncate(buf.len() - 1);
        assert!(BloomFilter::decode(&mut &buf[..]).is_err());
    }
}
