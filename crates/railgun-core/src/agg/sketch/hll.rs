//! HyperLogLog cardinality sketch, sparse until an eighth of its
//! registers are set.
//!
//! Standard-error model: `σ ≈ 1.04 / √m` with `m = 2^p` registers, so
//! `countDistinct(x) approx 0.02` picks the smallest `p` whose σ is at
//! or below the asked-for error. While at most `m/8` registers are set
//! the sketch holds just those, as (index, rank) pairs sorted by index
//! (HLL++'s sparse form, Heule et al., EDBT 2013); past that it is
//! promoted once to `m` 6-bit packed registers (6 KB at p = 13). The form
//! is a function of the registers alone, so equal registers encode to
//! equal bytes whatever the insert, merge or decode order. Inserting the
//! same hash twice is a no-op, which makes replay after a crash
//! idempotent by construction.

use railgun_types::{RailgunError, Result};

use super::PaneSketch;

/// Smallest supported precision (16 registers).
pub const MIN_PRECISION: u8 = 4;
/// Largest supported precision (65 536 registers, 48 KB).
pub const MAX_PRECISION: u8 = 16;
/// High bit of a blob's precision byte: the sparse form follows.
const SPARSE: u8 = 0x80;
/// `2^0` in the 64.64 fixed point of the dense harmonic sum.
const ONE: u128 = 1 << 64;

/// Map a configured relative error (basis points, `err_bp = err · 10⁴`)
/// to the smallest register precision whose standard error covers it,
/// plus one guard bit: near the linear-counting crossover (`n ≈ 2.5m`)
/// the raw estimator's bias exceeds σ (the region HLL++ patches with an
/// empirical bias table), and doubling `m` pushes the crossover past it.
pub fn precision_for_err_bp(err_bp: u32) -> u8 {
    let err = f64::from(err_bp) / 10_000.0;
    let m_needed = (1.04 / err).powi(2);
    let p = m_needed.log2().ceil() as i64 + 1;
    p.clamp(i64::from(MIN_PRECISION), i64::from(MAX_PRECISION)) as u8
}

#[derive(Debug, Clone, PartialEq)]
pub struct Hll {
    p: u8,
    regs: Regs,
}

#[derive(Debug, Clone, PartialEq)]
enum Regs {
    /// [`pair`] of every nonzero register, ascending; at most `m/8`.
    Sparse(Vec<u32>),
    /// `2^p` 6-bit registers packed little-end-first, kept with the
    /// estimator's inputs: `Σ 2^-reg[i]` in 64.64 fixed point (exact, so
    /// order-free) and the number of zero registers.
    Dense { packed: Vec<u8>, sum: u128, zeros: u32 },
}

/// A sparse entry: index above rank, so entries sort by index.
#[inline]
fn pair(i: usize, rank: u8) -> u32 {
    (i as u32) << 8 | u32::from(rank)
}

#[inline]
fn get6(packed: &[u8], i: usize) -> u8 {
    let bit = i * 6;
    let lo = u16::from(packed[bit / 8]);
    let hi = u16::from(*packed.get(bit / 8 + 1).unwrap_or(&0));
    (((lo | (hi << 8)) >> (bit % 8)) & 0x3f) as u8
}

#[inline]
fn set6(packed: &mut [u8], i: usize, v: u8) {
    let (byte, shift) = (i * 6 / 8, i * 6 % 8);
    let word = u16::from(packed[byte]) | packed.get(byte + 1).map_or(0, |b| u16::from(*b) << 8);
    let word = (word & !(0x3f << shift)) | (u16::from(v) << shift);
    packed[byte] = word as u8;
    if let Some(b) = packed.get_mut(byte + 1) {
        *b = (word >> 8) as u8;
    }
}

/// One merge-join of two sparse lists; an index in both keeps the larger
/// rank.
fn merge_pairs(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        // An exhausted side reads as an index past every real one.
        let x = a.get(i).copied().unwrap_or(u32::MAX);
        let y = b.get(j).copied().unwrap_or(u32::MAX);
        i += usize::from(x >> 8 <= y >> 8);
        j += usize::from(y >> 8 <= x >> 8);
        out.push(if x >> 8 == y >> 8 { x.max(y) } else { x.min(y) });
    }
    out
}

impl Hll {
    pub fn new(p: u8) -> Self {
        Hll {
            p: p.clamp(MIN_PRECISION, MAX_PRECISION),
            regs: Regs::Sparse(Vec::new()),
        }
    }

    pub fn precision(&self) -> u8 {
        self.p
    }

    /// Register `i` becomes `max(reg[i], rank)`.
    fn raise(&mut self, i: usize, rank: u8) {
        match &mut self.regs {
            Regs::Dense { packed, sum, zeros } => {
                let old = get6(packed, i);
                if rank > old {
                    *sum = *sum - (ONE >> old) + (ONE >> rank);
                    *zeros -= u32::from(old == 0);
                    set6(packed, i, rank);
                }
            }
            Regs::Sparse(pairs) => match pairs.binary_search_by_key(&(i as u32), |e| e >> 8) {
                Ok(k) => pairs[k] = pairs[k].max(pair(i, rank)),
                Err(_) if rank == 0 => {}
                Err(k) => {
                    pairs.insert(k, pair(i, rank));
                    self.settle();
                }
            },
        }
    }

    /// Promote a sparse sketch past `m/8` registers to the dense form.
    fn settle(&mut self) {
        let m = 1usize << self.p;
        let Regs::Sparse(pairs) = &self.regs else {
            return;
        };
        if pairs.len() <= m / 8 {
            return;
        }
        let mut packed = vec![0; m * 6 / 8];
        let zeros = (m - pairs.len()) as u32;
        let mut sum = u128::from(zeros) * ONE;
        for &e in pairs {
            set6(&mut packed, (e >> 8) as usize, e as u8);
            sum += ONE >> (e as u8);
        }
        self.regs = Regs::Dense { packed, sum, zeros };
    }

    /// Record a (pre-finalized) 64-bit hash. Idempotent for repeated
    /// hashes.
    pub fn insert_hash(&mut self, h: u64) {
        let idx = (h >> (64 - self.p)) as usize;
        let rest = h << self.p;
        // Rank of the first set bit in the remaining 64 - p bits; all
        // zero ⇒ the maximum rank. Always ≤ 61 for p ≥ 4, fits 6 bits.
        let rho = if rest == 0 {
            64 - self.p + 1
        } else {
            rest.leading_zeros() as u8 + 1
        };
        self.raise(idx, rho);
    }

    /// Current cardinality estimate, with the standard linear-counting
    /// small-range correction. O(1) in both forms.
    pub fn estimate(&self) -> i64 {
        let m = (1usize << self.p) as f64;
        let zeros = match &self.regs {
            // ≤ m/8 registers set, so Σ 2^-reg ≥ 7m/8: the raw estimate
            // is under 0.83m, always in the linear-counting range.
            Regs::Sparse(pairs) => m - pairs.len() as f64,
            Regs::Dense { sum, zeros, .. } => {
                let alpha = match 1usize << self.p {
                    16 => 0.673,
                    32 => 0.697,
                    64 => 0.709,
                    _ => 0.7213 / (1.0 + 1.079 / m),
                };
                let raw = alpha * m * m / (*sum as f64 / ONE as f64);
                if raw > 2.5 * m || *zeros == 0 {
                    return raw.round() as i64;
                }
                f64::from(*zeros)
            }
        };
        (m * (m / zeros).ln()).round() as i64
    }
}

impl PaneSketch for Hll {
    fn fresh(&self) -> Self {
        Hll::new(self.p)
    }

    fn params_match(&self, other: &Self) -> bool {
        self.p == other.p
    }

    /// Register-wise max: exactly the sketch of the union of the two
    /// input streams, hence associative and commutative (pinned by
    /// proptests). Sparse ∪ sparse is one merge-join.
    fn merge_from(&mut self, other: &Self) {
        debug_assert_eq!(self.p, other.p, "merging HLLs of different precision");
        match (&self.regs, &other.regs) {
            (Regs::Sparse(a), Regs::Sparse(b)) => {
                self.regs = Regs::Sparse(merge_pairs(a, b));
                self.settle();
            }
            (_, Regs::Sparse(b)) => b.iter().for_each(|&e| self.raise((e >> 8) as usize, e as u8)),
            (_, Regs::Dense { packed, .. }) => {
                (0..1 << self.p).for_each(|i| self.raise(i, get6(packed, i)));
            }
        }
    }

    /// Layout: `[p | SPARSE][n: u16 LE][(index: u16 LE, rank: u8) × n]`,
    /// or `[p][registers: 2^p·6/8 bytes]`. The dense sum and zero count
    /// are recomputed on decode, so the roundtrip is byte-identical by
    /// construction.
    fn encode(&self, buf: &mut Vec<u8>) {
        match &self.regs {
            Regs::Sparse(pairs) => {
                buf.push(self.p | SPARSE);
                buf.extend_from_slice(&(pairs.len() as u16).to_le_bytes());
                for &e in pairs {
                    buf.extend_from_slice(&[(e >> 8) as u8, (e >> 16) as u8, e as u8]);
                }
            }
            Regs::Dense { packed, .. } => {
                buf.push(self.p);
                buf.extend_from_slice(packed);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self> {
        use bytes::Buf;
        let bad = |what: String| Err(RailgunError::Corruption(format!("bad HLL blob: {what}")));
        if !buf.has_remaining() {
            return bad("empty".into());
        }
        let head = buf.get_u8();
        let p = head & !SPARSE;
        if !(MIN_PRECISION..=MAX_PRECISION).contains(&p) {
            return bad(format!("precision {p}"));
        }
        let (m, max_rank) = (1usize << p, 64 - p + 1);
        let mut hll = Hll::new(p);
        if head & SPARSE == 0 {
            // Raising each set register lands in the form they take now,
            // so a blob from before the sparse form (all were dense) with
            // few registers set decodes sparse.
            let Some(packed) = buf.get(..m * 6 / 8) else {
                return bad("truncated registers".into());
            };
            for i in 0..m {
                match get6(packed, i) {
                    0 => {}
                    r if r > max_rank => return bad(format!("register {r}")),
                    r => hll.raise(i, r),
                }
            }
            buf.advance(m * 6 / 8);
            return Ok(hll);
        }
        if buf.remaining() < 2 {
            return bad("truncated".into());
        }
        let n = usize::from(buf.get_u16_le());
        if n > m / 8 || buf.remaining() < n * 3 {
            return bad(format!("{n} sparse registers"));
        }
        let mut pairs = Vec::with_capacity(n);
        for _ in 0..n {
            let (i, r) = (usize::from(buf.get_u16_le()), buf.get_u8());
            if i >= m || pairs.last().is_some_and(|&e| e >> 8 >= i as u32) || r == 0 || r > max_rank {
                return bad(format!("sparse register {i} = {r} out of order or range"));
            }
            pairs.push(pair(i, r));
        }
        hll.regs = Regs::Sparse(pairs);
        Ok(hll)
    }

    fn heap_bytes(&self) -> usize {
        match &self.regs {
            Regs::Sparse(v) => v.capacity() * 4,
            Regs::Dense { packed, .. } => packed.capacity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::finalize;
    use super::*;
    use proptest::prelude::*;

    /// The dense-only sketch as it was before the sparse form, kept as the
    /// reference: the same registers and estimate for any input, and the
    /// same bytes wherever the new sketch is dense.
    #[derive(Clone)]
    struct RefHll {
        p: u8,
        registers: Vec<u8>,
        sum: f64,
        zeros: u32,
    }

    impl RefHll {
        fn new(p: u8) -> Self {
            let m = 1usize << p;
            RefHll {
                p,
                registers: vec![0; (m * 6).div_ceil(8)],
                sum: m as f64,
                zeros: m as u32,
            }
        }

        fn get(&self, i: usize) -> u8 {
            get6(&self.registers, i)
        }

        fn insert_hash(&mut self, h: u64) {
            let idx = (h >> (64 - self.p)) as usize;
            let rest = h << self.p;
            let rho = if rest == 0 {
                64 - self.p + 1
            } else {
                rest.leading_zeros() as u8 + 1
            };
            let old = self.get(idx);
            if rho > old {
                self.sum += f64::from_bits((1023 - u64::from(rho)) << 52)
                    - f64::from_bits((1023 - u64::from(old)) << 52);
                if old == 0 {
                    self.zeros -= 1;
                }
                set6(&mut self.registers, idx, rho);
            }
        }

        fn estimate(&self) -> i64 {
            let m = (1usize << self.p) as f64;
            let alpha = match 1usize << self.p {
                16 => 0.673,
                32 => 0.697,
                64 => 0.709,
                _ => 0.7213 / (1.0 + 1.079 / m),
            };
            let raw = alpha * m * m / self.sum;
            let est = if raw <= 2.5 * m && self.zeros > 0 {
                m * (m / f64::from(self.zeros)).ln()
            } else {
                raw
            };
            est.round() as i64
        }

        fn encode(&self, buf: &mut Vec<u8>) {
            buf.push(self.p);
            buf.extend_from_slice(&self.registers);
        }
    }

    /// Every register of `h`, whichever form it is in.
    fn registers(h: &Hll) -> Vec<u8> {
        let mut out = vec![0; 1 << h.p];
        match &h.regs {
            Regs::Sparse(pairs) => {
                for &e in pairs {
                    out[(e >> 8) as usize] = e as u8;
                }
            }
            Regs::Dense { packed, .. } => {
                for (i, r) in out.iter_mut().enumerate() {
                    *r = get6(packed, i);
                }
            }
        }
        out
    }

    fn is_sparse(h: &Hll) -> bool {
        matches!(h.regs, Regs::Sparse(_))
    }

    fn bytes(h: &Hll) -> Vec<u8> {
        let mut b = Vec::new();
        h.encode(&mut b);
        b
    }

    #[test]
    fn precision_for_error_matches_sigma_model() {
        // σ model picks 2% → p=12, 1% → p=14, 10% → p=7; the crossover
        // guard bit adds one to each.
        assert_eq!(precision_for_err_bp(200), 13);
        assert_eq!(precision_for_err_bp(100), 15);
        assert_eq!(precision_for_err_bp(1000), 8);
        // Clamped at both ends.
        assert_eq!(precision_for_err_bp(5000), MIN_PRECISION);
        assert_eq!(precision_for_err_bp(1), MAX_PRECISION);
    }

    #[test]
    fn registers_pack_and_unpack() {
        let mut packed = vec![0; 16 * 6 / 8];
        for i in 0..16 {
            set6(&mut packed, i, (i as u8 * 3) % 64);
        }
        for i in 0..16 {
            assert_eq!(get6(&packed, i), (i as u8 * 3) % 64, "register {i}");
        }
    }

    #[test]
    fn estimates_within_a_few_sigma() {
        for &n in &[100u64, 10_000, 200_000] {
            let mut h = Hll::new(12);
            for i in 0..n {
                h.insert_hash(finalize(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            }
            let est = h.estimate() as f64;
            let sigma = 1.04 / (4096f64).sqrt();
            let err = (est - n as f64).abs() / n as f64;
            assert!(
                err < 4.0 * sigma,
                "n={n}: estimate {est} off by {:.2}% (> 4σ)",
                err * 100.0
            );
        }
    }

    #[test]
    fn insert_is_idempotent() {
        let mut h = Hll::new(10);
        for i in 0..1000u64 {
            h.insert_hash(finalize(i));
        }
        let snap = h.clone();
        for i in 0..1000u64 {
            h.insert_hash(finalize(i));
        }
        assert_eq!(h, snap, "replaying the same hashes must not change state");
    }

    #[test]
    fn merge_equals_union() {
        let mut a = Hll::new(11);
        let mut b = Hll::new(11);
        let mut union = Hll::new(11);
        for i in 0..5000u64 {
            let h = finalize(i);
            if i % 2 == 0 {
                a.insert_hash(h);
            } else {
                b.insert_hash(h);
            }
            union.insert_hash(h);
        }
        a.merge_from(&b);
        assert_eq!(a, union);
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        // 500 values at p=9 are dense, 20 sparse.
        for n in [500u64, 20] {
            let mut h = Hll::new(9);
            for i in 0..n {
                h.insert_hash(finalize(i));
            }
            assert_eq!(is_sparse(&h), n == 20);
            let a = bytes(&h);
            let back = Hll::decode(&mut a.as_slice()).unwrap();
            assert_eq!(back, h);
            assert_eq!(a, bytes(&back));
        }
    }

    #[test]
    fn decode_rejects_truncation_and_bad_precision() {
        assert!(Hll::decode(&mut [].as_slice()).is_err());
        assert!(Hll::decode(&mut [3u8].as_slice()).is_err());
        assert!(Hll::decode(&mut [12u8, 0, 0].as_slice()).is_err());
        assert!(Hll::decode(&mut [3 | SPARSE, 0, 0].as_slice()).is_err());
        assert!(Hll::decode(&mut [12 | SPARSE, 1].as_slice()).is_err());
    }

    #[test]
    fn promotes_once_past_an_eighth_of_the_registers() {
        let mut h = Hll::new(6);
        let mut i = 0u64;
        while registers(&h).iter().filter(|&&r| r != 0).count() < 8 {
            h.insert_hash(finalize(i));
            i += 1;
            assert!(is_sparse(&h), "8 of 64 registers fit the sparse form");
        }
        assert_eq!(bytes(&h).len(), 1 + 2 + 8 * 3);
        while is_sparse(&h) {
            h.insert_hash(finalize(i));
            i += 1;
        }
        assert_eq!(registers(&h).iter().filter(|&&r| r != 0).count(), 9);
        assert_eq!(bytes(&h).len(), 1 + 64 * 6 / 8);
    }

    /// A hash: often one of a small pool (so multisets repeat), else any
    /// 64 bits, and sometimes a rest of all zeros (the maximum rank).
    fn hash() -> impl Strategy<Value = u64> {
        prop_oneof![
            (0u64..300).prop_map(finalize),
            any::<u64>(),
            any::<u16>().prop_map(|x| u64::from(x) << 48),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For any hash multiset, any split of it into panes and any
        /// merge order: the registers and estimate are the reference's,
        /// and the bytes are the same whatever the order (and the
        /// reference's own wherever the sketch is dense).
        #[test]
        fn sparse_and_dense_match_the_dense_reference(
            p in 4u8..=12,
            hashes in proptest::collection::vec((hash(), 0usize..8), 0..1200),
            order in proptest::collection::vec(any::<u64>(), 8),
        ) {
            let mut reference = RefHll::new(p);
            let mut whole = Hll::new(p);
            let mut panes = vec![Hll::new(p); 8];
            for &(h, pane) in &hashes {
                reference.insert_hash(h);
                whole.insert_hash(h);
                panes[pane].insert_hash(h);
            }
            // Merge the panes in index order and in a shuffled order.
            let mut shuffled: Vec<usize> = (0..8).collect();
            shuffled.sort_by_key(|&i| order[i]);
            let mut merged = Vec::new();
            for ord in [(0..8).collect::<Vec<_>>(), shuffled] {
                let mut acc = whole.fresh();
                for i in ord {
                    acc.merge_from(&panes[i]);
                }
                merged.push(acc);
            }
            let want = bytes(&whole);
            let mut reference_bytes = Vec::new();
            reference.encode(&mut reference_bytes);
            let reference_registers: Vec<u8> = (0..1 << p).map(|i| reference.get(i)).collect();
            for h in merged.iter().chain([&whole]) {
                prop_assert_eq!(&registers(h), &reference_registers);
                prop_assert_eq!(h.estimate(), reference.estimate());
                prop_assert_eq!(&bytes(h), &want, "the same registers encode to the same bytes");
                let back = Hll::decode(&mut want.as_slice()).unwrap();
                prop_assert_eq!(&back, h);
            }
            let nonzero = registers(&whole).iter().filter(|&&r| r != 0).count();
            prop_assert_eq!(is_sparse(&whole), nonzero <= (1 << p) / 8);
            if !is_sparse(&whole) {
                prop_assert_eq!(&want, &reference_bytes, "the dense form is the old blob");
            }
            // The reference's (always dense) blob decodes to the same sketch.
            let old = Hll::decode(&mut reference_bytes.as_slice()).unwrap();
            prop_assert_eq!(&old, &whole);
            // A pane merged into a dense sketch, and a dense one into a pane.
            for pane in &panes {
                let mut a = pane.clone();
                a.merge_from(&whole);
                prop_assert_eq!(&a, &whole);
                let mut b = whole.clone();
                b.merge_from(pane);
                prop_assert_eq!(&b, &whole);
            }
        }

        /// Damaged sparse blobs fail with `Corruption` (or, where the damage
        /// still leaves a valid sketch, decode) — they never panic.
        #[test]
        fn damaged_sparse_blobs_never_panic(
            p in 4u8..=12,
            hashes in proptest::collection::vec(any::<u64>(), 2..64),
            damage in 0u8..7,
            at in any::<u64>(),
            byte in any::<u8>(),
        ) {
            let mut h = Hll::new(p);
            for &x in &hashes {
                h.insert_hash(x);
            }
            prop_assume!(is_sparse(&h));
            let mut blob = bytes(&h);
            let n = usize::from(u16::from_le_bytes([blob[1], blob[2]]));
            prop_assume!(n >= 2);
            let k = (at % n as u64) as usize;
            let entry = 3 + 3 * k;
            let must_fail = match damage {
                // Two pairs swapped: out of order.
                0 => {
                    let next = 3 + 3 * ((k + 1) % n);
                    for b in 0..3 {
                        blob.swap(entry + b, next + b);
                    }
                    true
                }
                // An index at or past m.
                1 => {
                    let idx = (1u16 << p).saturating_add(u16::from(byte));
                    blob[entry..entry + 2].copy_from_slice(&idx.to_le_bytes());
                    true
                }
                // Rank 0, or past 64 - p + 1.
                2 => {
                    blob[entry + 2] = 0;
                    true
                }
                3 => {
                    blob[entry + 2] = 64 - p + 2 + byte % 64;
                    true
                }
                // More pairs than m/8.
                4 => {
                    let claimed = (1 << p) / 8 + 1 + u16::from(byte);
                    blob[1..3].copy_from_slice(&claimed.to_le_bytes());
                    true
                }
                // A cut tail.
                5 => {
                    blob.truncate((at % blob.len() as u64) as usize);
                    true
                }
                // Any byte replaced.
                _ => {
                    let i = (at % blob.len() as u64) as usize;
                    blob[i] = byte;
                    false
                }
            };
            let got = Hll::decode(&mut blob.as_slice());
            if must_fail {
                prop_assert!(matches!(got, Err(RailgunError::Corruption(_))), "damage {damage}: {got:?}");
            } else if let Ok(back) = got {
                // What decodes is canonical: it re-encodes to a blob that decodes to itself.
                prop_assert_eq!(Hll::decode(&mut bytes(&back).as_slice()).unwrap(), back);
            }
        }
    }
}
