//! HDR-style latency histograms.
//!
//! Log-bucketed histogram with bounded relative error (~1% by default),
//! good for the 0.1 ms – 100 s range the paper's figures span. Latencies
//! are recorded in microseconds; percentile extraction follows the same
//! cumulative-count walk HdrHistogram uses.
//!
//! Originally part of `railgun-sim`, the histogram moved here so the real
//! engine's telemetry plane (see [`crate::metrics`]) and the simulated
//! testbed share one percentile vocabulary.

/// A log-linear histogram over `u64` values (microseconds by convention).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// `sub_bucket_bits` linear sub-buckets per power-of-two bucket.
    sub_bucket_bits: u32,
    counts: Vec<u64>,
    total: u64,
    max: u64,
    min: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(7) // 128 sub-buckets ≈ 0.8% relative error
    }
}

impl Histogram {
    /// Create a histogram with `2^sub_bucket_bits` linear sub-buckets per
    /// octave (precision/size trade-off).
    pub fn new(sub_bucket_bits: u32) -> Self {
        let sub_bucket_bits = sub_bucket_bits.clamp(2, 12);
        let buckets = 64 - sub_bucket_bits; // octaves above the linear range
        let size = ((buckets as usize) + 1) << sub_bucket_bits;
        Histogram {
            sub_bucket_bits,
            counts: vec![0; size],
            total: 0,
            max: 0,
            min: u64::MAX,
            sum: 0,
        }
    }

    /// Bucket index for `value` under a `sub_bucket_bits` layout — shared
    /// with [`crate::metrics::AtomicHistogram`] so both record into
    /// identical bucket positions.
    #[inline]
    pub(crate) fn bucket_index(sub_bucket_bits: u32, value: u64) -> usize {
        let bits = sub_bucket_bits;
        let sub_count = 1u64 << bits;
        if value < sub_count {
            return value as usize;
        }
        // value in [2^e, 2^{e+1}), e >= bits; mantissa m in
        // [sub_count, 2*sub_count) after shifting.
        let e = 63 - value.leading_zeros();
        let m = value >> (e - bits);
        (((e - bits + 1) as usize) << bits) + (m - sub_count) as usize
    }

    /// The (clamped sub-bucket bits, bucket count) of this histogram —
    /// lets [`crate::metrics::AtomicHistogram`] mirror the exact layout.
    pub(crate) fn layout(&self) -> (u32, usize) {
        (self.sub_bucket_bits, self.counts.len())
    }

    /// Rebuild a histogram from raw bucket counts (an
    /// [`crate::metrics::AtomicHistogram`] snapshot). `total` is derived
    /// from the counts; `min`/`max`/`sum` are taken as given, except
    /// that an inverted `min > max` pair with non-zero counts — a
    /// snapshot racing a concurrent record between its count and its
    /// min/max updates — is clamped to `min == max` so `percentile`'s
    /// `[min, max]` clamp cannot invert into garbage (`u64::MAX`).
    pub(crate) fn from_raw_parts(
        sub_bucket_bits: u32,
        counts: Vec<u64>,
        max: u64,
        min: u64,
        sum: u128,
    ) -> Self {
        let total: u64 = counts.iter().sum();
        let min = if total > 0 { min.min(max) } else { min };
        Histogram {
            sub_bucket_bits,
            counts,
            total,
            max,
            min,
            sum,
        }
    }

    #[inline]
    fn index_of(&self, value: u64) -> usize {
        Self::bucket_index(self.sub_bucket_bits, value)
    }

    /// Representative (upper-bound) value of bucket `idx`.
    fn value_of(&self, idx: usize) -> u64 {
        let bits = self.sub_bucket_bits;
        let sub_count = 1u64 << bits;
        if (idx as u64) < sub_count {
            return idx as u64;
        }
        let block = (idx >> bits) as u32; // >= 1
        let rem = idx as u64 & (sub_count - 1);
        let shift = block - 1;
        let m = rem + sub_count;
        (m << shift) + (1u64 << shift) - 1
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        let idx = self.index_of(value).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
        self.sum += u128::from(value);
    }

    /// Record `n` occurrences of one value.
    pub fn record_n(&mut self, value: u64, n: u64) {
        let idx = self.index_of(value).min(self.counts.len() - 1);
        self.counts[idx] += n;
        self.total += n;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
        self.sum += u128::from(value) * u128::from(n);
    }

    /// Value at quantile `q` in [0, 1].
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return self.value_of(idx).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max
        }
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Arithmetic mean of recorded values.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Merge another histogram into this one (same configuration).
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.sub_bucket_bits, other.sub_bucket_bits,
            "histograms must share configuration"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
        self.sum += other.sum;
    }

    /// The paper's standard percentile ladder (Figures 8/9 x-axis).
    pub const PAPER_PERCENTILES: [f64; 10] = [
        0.0, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 0.9999, 0.99999, 1.0,
    ];

    /// Values at [`Histogram::PAPER_PERCENTILES`].
    pub fn paper_series(&self) -> Vec<u64> {
        Self::PAPER_PERCENTILES
            .iter()
            .map(|&q| if q == 0.0 { self.min() } else { self.percentile(q) })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn exact_for_small_values() {
        let mut h = Histogram::default();
        for v in 0..100u64 {
            h.record(v);
        }
        // p50 of 0..99 = the 50th smallest value (1-indexed) = 49.
        assert_eq!(h.percentile(0.5), 49);
        assert_eq!(h.percentile(1.0), 99);
        assert_eq!(h.min(), 0);
        assert_eq!(h.count(), 100);
    }

    #[test]
    fn bounded_relative_error_for_large_values() {
        let mut h = Histogram::default();
        for i in 0..10_000u64 {
            h.record(1_000_000 + i * 100); // 1.0s .. 2.0s in µs
        }
        let p50 = h.percentile(0.5) as f64;
        let expect = 1_500_000.0;
        assert!(
            (p50 - expect).abs() / expect < 0.02,
            "p50 {p50} vs {expect}"
        );
        let p999 = h.percentile(0.999) as f64;
        let expect = 1_999_000.0;
        assert!(
            (p999 - expect).abs() / expect < 0.02,
            "p999 {p999} vs {expect}"
        );
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = Histogram::default();
        let mut x = 42u64;
        for _ in 0..50_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record(x % 10_000_000);
        }
        let mut prev = 0;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0] {
            let v = h.percentile(q);
            assert!(v >= prev, "p{q} = {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn mean_and_sum() {
        let mut h = Histogram::default();
        h.record(10);
        h.record(20);
        h.record(30);
        assert_eq!(h.mean(), 20.0);
    }

    #[test]
    fn record_n_weights() {
        let mut h = Histogram::default();
        h.record_n(5, 99);
        h.record_n(1_000, 1);
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(0.5), 5);
        assert!(h.percentile(0.999) >= 990);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in 0..50u64 {
            a.record(v);
        }
        for v in 50..100u64 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.percentile(0.5), 49);
        assert_eq!(a.max(), 99);
    }

    #[test]
    fn paper_series_has_ten_points() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v * 100);
        }
        let series = h.paper_series();
        assert_eq!(series.len(), 10);
        assert!(series.windows(2).all(|w| w[0] <= w[1]));
    }
}
