//! KLL-style quantile sketch for `percentile(field, p)`.
//!
//! A ladder of capacity-bounded buffers: level `i` holds items of
//! weight `2^i`, kept sorted. When a level fills, a **deterministic
//! alternating compaction** promotes every other item to the next level
//! — the starting parity cycles through a plain counter instead of a
//! coin flip, so two replays of the same event sequence produce
//! byte-identical sketches (the property `restore_or_replay` needs).
//! With per-level capacity 128 the observed rank error is well under 1%
//! at 10⁶ samples; memory is O(cap · log(n / cap)) regardless of n.

use std::cmp::Ordering;

use railgun_types::{encode, RailgunError, Result};

use super::PaneSketch;

/// Per-level buffer capacity (even, so compaction halves exactly).
const LEVEL_CAP: usize = 128;
/// Sanity bound for decode (level 40 ⇒ ~10¹⁴ weighted items).
const MAX_LEVELS: usize = 40;

#[derive(Debug, Clone, PartialEq)]
pub struct QuantSketch {
    /// `levels[i]` holds items of weight `2^i`, sorted ascending.
    levels: Vec<Vec<f64>>,
    /// Total items inserted (weighted count equals this by invariant).
    count: u64,
    /// Compaction counter; its low bit is the next compaction's parity.
    compactions: u64,
}

impl Default for QuantSketch {
    fn default() -> Self {
        QuantSketch {
            levels: vec![Vec::new()],
            count: 0,
            compactions: 0,
        }
    }
}

impl QuantSketch {
    /// Insert one sample. Amortized O(log n) with no allocation beyond
    /// buffer growth; non-finite samples are ignored.
    pub fn insert(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        sorted_insert(&mut self.levels[0], x);
        self.cascade();
    }

    fn cascade(&mut self) {
        let mut i = 0;
        while i < self.levels.len() {
            if self.levels[i].len() < LEVEL_CAP {
                i += 1;
                continue;
            }
            let parity = (self.compactions & 1) as usize;
            self.compactions += 1;
            let buf = std::mem::take(&mut self.levels[i]);
            if self.levels.len() == i + 1 {
                self.levels.push(Vec::new());
            }
            // Promote items at parity, parity+2, … — an ascending
            // subsequence of a sorted buffer, merged into the (sorted)
            // next level.
            let promoted: Vec<f64> = buf.into_iter().skip(parity).step_by(2).collect();
            merge_sorted(&mut self.levels[i + 1], &promoted);
            i += 1;
        }
    }

    /// Estimate the value at `rank` (`0.0..=1.0`): the first item, in
    /// value order (`f64::total_cmp`), at which the weight walked reaches
    /// `rank` of the total. Every level is sorted, so the levels are
    /// walked merged from whichever end is nearer the rank — a p99 passes
    /// about 1% of the weight. `taken` is the walk's per-level cursor,
    /// reused across calls.
    pub fn estimate(&self, rank: f64, taken: &mut Vec<usize>) -> Option<f64> {
        let levels = self.levels.iter().enumerate();
        let total: u64 = levels.map(|(l, b)| (b.len() as u64) << l).sum();
        if total == 0 {
            return None;
        }
        let target = (rank.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        // Ascending, the answer is where the weight reaches `target`;
        // descending, where it passes `total - target`.
        let x = if target <= total / 2 {
            self.walk(target, Ordering::Less, taken)
        } else {
            self.walk(total - target + 1, Ordering::Greater, taken)
        };
        if x != 0.0 {
            return Some(x);
        }
        // A level keeps `-0.0` and `0.0` in arrival order; in value order
        // every `-0.0` comes first.
        let negative: u64 = self
            .levels
            .iter()
            .enumerate()
            .map(|(l, b)| (b.iter().filter(|x| x.is_sign_negative()).count() as u64) << l)
            .sum();
        Some(if negative >= target { -0.0 } else { 0.0 })
    }

    /// Merge the levels from their `first`-ordered ends (`Less`:
    /// ascending) and return the item at which the weight taken reaches
    /// `need` (at most the total).
    fn walk(&self, need: u64, first: Ordering, taken: &mut Vec<usize>) -> f64 {
        taken.clear();
        taken.resize(self.levels.len(), 0);
        let mut weight = 0u64;
        loop {
            let mut next: Option<(usize, f64)> = None;
            for (l, buf) in self.levels.iter().enumerate() {
                if taken[l] == buf.len() {
                    continue;
                }
                let x = match first {
                    Ordering::Less => buf[taken[l]],
                    _ => buf[buf.len() - 1 - taken[l]],
                };
                if next.is_none_or(|(_, y)| x.total_cmp(&y) == first) {
                    next = Some((l, x));
                }
            }
            let (l, x) = next.expect("the walk stops at the total weight");
            taken[l] += 1;
            weight += 1 << l;
            if weight >= need {
                return x;
            }
        }
    }
}

fn sorted_insert(buf: &mut Vec<f64>, x: f64) {
    let pos = buf.partition_point(|&y| y <= x);
    buf.insert(pos, x);
}

fn merge_sorted(dst: &mut Vec<f64>, add: &[f64]) {
    if add.is_empty() {
        return;
    }
    let old = std::mem::take(dst);
    dst.reserve(old.len() + add.len());
    let (mut a, mut b) = (old.into_iter().peekable(), add.iter().copied().peekable());
    loop {
        match (a.peek(), b.peek()) {
            (Some(&x), Some(&y)) if x <= y => {
                dst.push(x);
                a.next();
            }
            (_, Some(&y)) => {
                dst.push(y);
                b.next();
            }
            (Some(&x), None) => {
                dst.push(x);
                a.next();
            }
            (None, None) => break,
        }
    }
}

impl PaneSketch for QuantSketch {
    fn fresh(&self) -> Self {
        QuantSketch::default()
    }

    /// Merge level-wise (sorted merge), then compact any overfull
    /// levels with the same deterministic cascade.
    fn merge_from(&mut self, other: &Self) {
        while self.levels.len() < other.levels.len() {
            self.levels.push(Vec::new());
        }
        for (i, buf) in other.levels.iter().enumerate() {
            merge_sorted(&mut self.levels[i], buf);
        }
        self.count += other.count;
        self.compactions = self.compactions.wrapping_add(other.compactions);
        self.cascade();
    }

    /// Layout: `[count][compactions][nlevels][(len, f64 LE…)*]`.
    fn encode(&self, buf: &mut Vec<u8>) {
        encode::put_uvarint(buf, self.count);
        encode::put_uvarint(buf, self.compactions);
        encode::put_uvarint(buf, self.levels.len() as u64);
        for lvl in &self.levels {
            encode::put_uvarint(buf, lvl.len() as u64);
            for x in lvl {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self> {
        use bytes::Buf;
        let count = encode::get_uvarint(buf)?;
        let compactions = encode::get_uvarint(buf)?;
        let nlevels = encode::get_uvarint(buf)? as usize;
        if nlevels == 0 || nlevels > MAX_LEVELS {
            return Err(RailgunError::Corruption(format!(
                "bad quantile level count {nlevels}"
            )));
        }
        let mut levels = Vec::with_capacity(nlevels);
        for _ in 0..nlevels {
            let n = encode::get_uvarint(buf)? as usize;
            if n > 2 * LEVEL_CAP || buf.remaining() < n * 8 {
                return Err(RailgunError::Corruption("truncated quantile level".into()));
            }
            let mut lvl = Vec::with_capacity(n);
            for _ in 0..n {
                lvl.push(f64::from_le_bytes(buf[..8].try_into().unwrap()));
                buf.advance(8);
            }
            // NaN never passes the insert filter, so its presence (or
            // any out-of-order pair) marks a corrupt blob.
            if lvl.iter().any(|x| x.is_nan()) || lvl.windows(2).any(|w| w[0] > w[1]) {
                return Err(RailgunError::Corruption("unsorted quantile level".into()));
            }
            levels.push(lvl);
        }
        Ok(QuantSketch {
            levels,
            count,
            compactions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_first_compaction() {
        let mut q = QuantSketch::default();
        for i in 0..100 {
            q.insert(f64::from(i));
        }
        let mut scratch = Vec::new();
        assert_eq!(q.estimate(0.5, &mut scratch), Some(49.0));
        assert_eq!(q.estimate(0.99, &mut scratch), Some(98.0));
        assert_eq!(q.estimate(0.0, &mut scratch), Some(0.0));
        assert_eq!(q.estimate(1.0, &mut scratch), Some(99.0));
    }

    /// The estimate as one walk over every weighted item sorted.
    fn sorted_reference(q: &QuantSketch, rank: f64) -> Option<f64> {
        let mut items: Vec<(f64, u64)> = Vec::new();
        for (lvl, buf) in q.levels.iter().enumerate() {
            items.extend(buf.iter().map(|&x| (x, 1u64 << lvl)));
        }
        items.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: u64 = items.iter().map(|(_, w)| w).sum();
        let target = (rank.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        items
            .iter()
            .scan(0, |seen, &(x, w)| {
                *seen += w;
                Some((*seen, x))
            })
            .find(|&(seen, _)| seen >= target)
            .map(|(_, x)| x)
    }

    #[test]
    fn the_merged_walk_answers_as_the_sorted_walk() {
        // Repeats and both signed zeros, through compactions and a merge,
        // at ranks from either end: the same bits as sorting every item.
        let mut state = 7u64;
        let mut sample = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            match (state >> 33) % 13 {
                0 => 0.0,
                1 => -0.0,
                r => ((state >> 40) % 500) as f64 - 200.0 + r as f64,
            }
        };
        let (mut a, mut b) = (QuantSketch::default(), QuantSketch::default());
        let mut scratch = Vec::new();
        let ranks: Vec<f64> = (0..=10_000)
            .step_by(61)
            .chain([1, 5_000, 9_900, 9_999, 10_000])
            .map(|bp| f64::from(bp) / 10_000.0)
            .collect();
        let mut check = |q: &QuantSketch| {
            for &rank in &ranks {
                let got = q.estimate(rank, &mut scratch).map(f64::to_bits);
                let want = sorted_reference(q, rank).map(f64::to_bits);
                assert_eq!(got, want, "rank {rank}");
            }
        };
        check(&a);
        for n in 0..4_000 {
            if n % 3 == 0 { &mut b } else { &mut a }.insert(sample());
            if n % 101 == 0 {
                check(&a);
            }
        }
        a.merge_from(&b);
        check(&a);
    }

    #[test]
    fn rank_error_small_at_scale() {
        let mut q = QuantSketch::default();
        let n = 100_000u64;
        // Deterministic shuffled-ish order via a multiplicative walk.
        for i in 0..n {
            q.insert((i.wrapping_mul(48271) % n) as f64);
        }
        let mut scratch = Vec::new();
        for &rank in &[0.5, 0.9, 0.99, 0.999] {
            let est = q.estimate(rank, &mut scratch).unwrap();
            let rank_err = (est / n as f64 - rank).abs();
            assert!(
                rank_err < 0.02,
                "rank {rank}: estimate {est} ⇒ rank error {rank_err:.4}"
            );
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let build = || {
            let mut q = QuantSketch::default();
            for i in 0..10_000u64 {
                q.insert((i.wrapping_mul(16807) % 4096) as f64);
            }
            q
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn merge_matches_model_roughly() {
        let mut a = QuantSketch::default();
        let mut b = QuantSketch::default();
        for i in 0..5_000 {
            a.insert(f64::from(i));
            b.insert(f64::from(i + 5_000));
        }
        a.merge_from(&b);
        assert_eq!(a.count, 10_000);
        let mut scratch = Vec::new();
        let med = a.estimate(0.5, &mut scratch).unwrap();
        assert!((med - 5_000.0).abs() < 300.0, "median after merge: {med}");
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let mut q = QuantSketch::default();
        for i in 0..3_000 {
            q.insert(f64::from(i % 701));
        }
        let mut a = Vec::new();
        q.encode(&mut a);
        let back = QuantSketch::decode(&mut a.as_slice()).unwrap();
        assert_eq!(back, q);
        let mut b = Vec::new();
        back.encode(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(QuantSketch::decode(&mut [].as_slice()).is_err());
        let mut buf = Vec::new();
        encode::put_uvarint(&mut buf, 1); // count
        encode::put_uvarint(&mut buf, 0); // compactions
        encode::put_uvarint(&mut buf, 0); // nlevels = 0
        assert!(QuantSketch::decode(&mut buf.as_slice()).is_err());
    }
}
