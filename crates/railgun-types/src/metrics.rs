//! Near-zero-cost latency recording for the engine's telemetry plane.
//!
//! The real engine (front-end, processor units, reservoir, state store)
//! records stage latencies into [`AtomicHistogram`]s through cheap
//! [`Recorder`] handles. The design goals, in order:
//!
//! 1. **Off is free.** A disabled recorder holds no histogram; its
//!    [`Recorder::start`] returns `None` without reading the clock and
//!    [`Recorder::finish`] is a no-op, so telemetry off costs the hot
//!    paths nothing (mad-bench's `cpu_us_per_event` bound holds them).
//! 2. **On is cheap and lock-free.** Recording is one clock read plus a
//!    handful of relaxed atomic operations on the stage's histogram.
//!    Writers never block each other or snapshot readers.
//! 3. **Snapshots are plain data.** [`AtomicHistogram::snapshot`] freezes
//!    the counts into an ordinary [`Histogram`], which percentile
//!    extraction and merging already handle.
//!
//! Counters ([`Counter`]) follow the same pattern for plain event counts
//! (e.g. the reservoir's cold-drain chunk misses).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::histogram::Histogram;

/// A concurrently-writable log-bucketed histogram.
///
/// Same bucketing as [`Histogram`] (to which it snapshots), but every
/// field is atomic: any number of threads may [`AtomicHistogram::record`]
/// while others snapshot. All operations use relaxed ordering — counts
/// are statistics, not synchronization.
pub struct AtomicHistogram {
    sub_bucket_bits: u32,
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
    sum: AtomicU64,
}

impl std::fmt::Debug for AtomicHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicHistogram")
            .field("count", &self.total.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram::new(7) // mirror Histogram::default(): ~0.8% error
    }
}

impl AtomicHistogram {
    /// Create a histogram with `2^sub_bucket_bits` linear sub-buckets per
    /// octave (same layout as [`Histogram::new`]).
    pub fn new(sub_bucket_bits: u32) -> Self {
        // Reuse Histogram's clamping and sizing so snapshots always merge.
        let template = Histogram::new(sub_bucket_bits);
        let (bits, size) = template.layout();
        let mut counts = Vec::with_capacity(size);
        counts.resize_with(size, || AtomicU64::new(0));
        AtomicHistogram {
            sub_bucket_bits: bits,
            counts,
            total: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one value (microseconds by convention). Lock-free.
    pub fn record(&self, value: u64) {
        let idx = Histogram::bucket_index(self.sub_bucket_bits, value)
            .min(self.counts.len() - 1);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Freeze the current counts into a plain [`Histogram`].
    ///
    /// Concurrent recording keeps running; a snapshot taken mid-record
    /// may be off by the in-flight sample (counts are read
    /// bucket-by-bucket). A record caught between its count and its
    /// min/max updates can leave the snapshot with an inverted
    /// `min > max` pair; the rebuild clamps that to `min == max` so
    /// percentiles degrade by at most the in-flight sample instead of
    /// inverting into `u64::MAX`.
    pub fn snapshot(&self) -> Histogram {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        Histogram::from_raw_parts(
            self.sub_bucket_bits,
            counts,
            self.max.load(Ordering::Relaxed),
            self.min.load(Ordering::Relaxed),
            u128::from(self.sum.load(Ordering::Relaxed)),
        )
    }
}

/// A cheap, cloneable handle for recording durations into a shared
/// [`AtomicHistogram`] — or into nothing at all.
///
/// The engine passes recorders down through configuration structs
/// (`ReservoirConfig`, `DbOptions`, unit configs); the default
/// ([`Recorder::disabled`]) records nothing and costs nothing:
///
/// ```
/// use railgun_types::metrics::Recorder;
///
/// let off = Recorder::disabled();
/// let t = off.start();          // None — the clock is never read
/// off.finish(t);                // no-op
/// assert!(!off.is_enabled());
///
/// let on = Recorder::enabled();
/// let t = on.start();
/// on.finish(t);                 // one sample recorded
/// assert_eq!(on.snapshot().unwrap().count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Recorder(Option<Arc<AtomicHistogram>>);

impl Recorder {
    /// A recorder that records nothing (the default).
    pub fn disabled() -> Self {
        Recorder(None)
    }

    /// A recorder backed by a fresh default-precision histogram.
    pub fn enabled() -> Self {
        Recorder(Some(Arc::new(AtomicHistogram::default())))
    }

    /// A recorder backed by an existing shared histogram.
    pub fn shared(hist: Arc<AtomicHistogram>) -> Self {
        Recorder(Some(hist))
    }

    /// True iff samples are being collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Begin timing a stage. Returns `None` — without touching the clock —
    /// when disabled; pass the result to [`Recorder::finish`].
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.0.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Finish timing a stage started with [`Recorder::start`], recording
    /// the elapsed microseconds (when enabled).
    #[inline]
    pub fn finish(&self, started: Option<Instant>) {
        if let (Some(hist), Some(t)) = (&self.0, started) {
            hist.record(t.elapsed().as_micros() as u64);
        }
    }

    /// Record an already-measured value in microseconds (when enabled).
    #[inline]
    pub fn record(&self, micros: u64) {
        if let Some(hist) = &self.0 {
            hist.record(micros);
        }
    }

    /// Snapshot the backing histogram, if enabled.
    pub fn snapshot(&self) -> Option<Histogram> {
        self.0.as_ref().map(|h| h.snapshot())
    }
}

/// A cheap, cloneable, optionally-disabled event counter — the counting
/// sibling of [`Recorder`], used for plain occurrence counts such as the
/// reservoir's cold-drain chunk misses.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A counter that counts nothing (the default).
    pub fn disabled() -> Self {
        Counter(None)
    }

    /// A counter starting at zero.
    pub fn enabled() -> Self {
        Counter(Some(Arc::new(AtomicU64::new(0))))
    }

    /// True iff counts are being collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Add `n` to the counter (when enabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment the counter by one (when enabled).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current count (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// The standard reporting ladder extracted from a latency histogram —
/// the percentiles the paper's MAD requirement is stated over (§2, §5),
/// in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyLadder {
    /// Number of samples the ladder summarizes.
    pub count: u64,
    /// Median.
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// 99.9th percentile.
    pub p999_us: u64,
    /// 99.99th percentile.
    pub p9999_us: u64,
    /// Largest sample.
    pub max_us: u64,
    /// Arithmetic mean.
    pub mean_us: f64,
}

impl LatencyLadder {
    /// Extract the ladder from a histogram.
    pub fn from_histogram(h: &Histogram) -> Self {
        LatencyLadder {
            count: h.count(),
            p50_us: h.percentile(0.50),
            p90_us: h.percentile(0.90),
            p95_us: h.percentile(0.95),
            p99_us: h.percentile(0.99),
            p999_us: h.percentile(0.999),
            p9999_us: h.percentile(0.9999),
            max_us: h.max(),
            mean_us: h.mean(),
        }
    }
}

impl From<&Histogram> for LatencyLadder {
    fn from(h: &Histogram) -> Self {
        LatencyLadder::from_histogram(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_histogram_matches_plain_histogram() {
        let atomic = AtomicHistogram::default();
        let mut plain = Histogram::default();
        let mut x = 7u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x % 5_000_000;
            atomic.record(v);
            plain.record(v);
        }
        let snap = atomic.snapshot();
        assert_eq!(snap.count(), plain.count());
        assert_eq!(snap.max(), plain.max());
        assert_eq!(snap.min(), plain.min());
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(snap.percentile(q), plain.percentile(q), "p{q}");
        }
    }

    #[test]
    fn atomic_histogram_concurrent_recording() {
        let hist = Arc::new(AtomicHistogram::default());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&hist);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + i % 100);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(hist.snapshot().count(), 40_000);
    }

    #[test]
    fn torn_snapshot_with_inverted_min_max_stays_sane() {
        // Simulate a snapshot racing record(): the bucket count landed
        // but min/max were not updated yet (min still u64::MAX, max 0).
        let h = Histogram::from_raw_parts(7, {
            let mut c = vec![0u64; Histogram::new(7).layout().1];
            c[10] = 1;
            c
        }, 0, u64::MAX, 10);
        assert_eq!(h.count(), 1);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 0, "clamped, not u64::MAX (q={q})");
        }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        assert!(r.start().is_none());
        r.finish(None);
        r.record(123);
        assert!(r.snapshot().is_none());
    }

    #[test]
    fn enabled_recorder_collects() {
        let r = Recorder::enabled();
        let t = r.start();
        assert!(t.is_some());
        r.finish(t);
        r.record(250);
        let snap = r.snapshot().unwrap();
        assert_eq!(snap.count(), 2);
        assert!(snap.max() >= 250);
        // Clones share the histogram.
        let r2 = r.clone();
        r2.record(1);
        assert_eq!(r.snapshot().unwrap().count(), 3);
    }

    #[test]
    fn counter_modes() {
        let off = Counter::disabled();
        off.incr();
        assert_eq!(off.get(), 0);
        let on = Counter::enabled();
        on.incr();
        on.add(4);
        assert_eq!(on.get(), 5);
        let shared = on.clone();
        shared.incr();
        assert_eq!(on.get(), 6);
    }

    #[test]
    fn ladder_extraction() {
        let mut h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let ladder = LatencyLadder::from_histogram(&h);
        assert_eq!(ladder.count, 10_000);
        assert!(ladder.p50_us <= ladder.p99_us);
        assert!(ladder.p99_us <= ladder.p999_us);
        assert!(ladder.p999_us <= ladder.p9999_us);
        assert!(ladder.p9999_us <= ladder.max_us);
        assert_eq!(ladder.max_us, 10_000);
    }
}
