//! Mergeable sketch kernels for approximate aggregators.
//!
//! Three summaries back the approximate plan leaves (ROADMAP: "sketch
//! family as first-class Agg plan nodes", blueprint: Memento, PAPERS.md):
//!
//! * [`hll::Hll`] — HyperLogLog cardinality for `countDistinct … approx`;
//! * [`topk::TopKSketch`] — space-saving heavy hitters for `topK`;
//! * [`quantile::QuantSketch`] — a KLL-style quantile summary for
//!   `percentile`.
//!
//! All three are **mergeable** (pane sharing and checkpoint compaction
//! come for free), allocate only at creation/growth (never per event),
//! and are **deterministic**: hashing goes through
//! [`railgun_types::hash::FxHasher`] with a fixed avalanche finalizer, and
//! quantile compaction parity is a counter, not an RNG — so a checkpoint
//! restore + suffix replay and a full replay converge to byte-identical
//! state (pinned by `tests/crash_recovery.rs`).
//!
//! ## Window modes
//!
//! Insert-only sketches cannot evict a single event, so sliding windows
//! use a **pane ring** ([`PaneRing`]): the window is cut into
//! [`NPANES`] insert-only panes plus an incrementally-maintained merged
//! view. Inserts hit the event's pane *and* the merged view (O(1)); an
//! insert or a read first prunes whole expired panes and rebuilds the
//! merged view only when the live-pane set actually changed — amortized
//! once per pane width (an evicted event touches no sketch). Expiry is
//! therefore pane-granular: the reported window covers
//! `[window, window + pane_width)`, the same trade Memento makes.
//! Tumbling windows need no ring (the state key already carries the
//! bucket) and infinite windows never expire — both run one sketch.

pub mod hll;
pub mod quantile;
pub mod topk;

use railgun_types::{RailgunError, Result, Value};

use hll::Hll;
use quantile::QuantSketch;
use topk::TopKSketch;

/// Panes per sliding window (pane width = window size / `NPANES`).
pub const NPANES: i64 = 8;

/// Hard cap on live panes (backfill/late-event safety net; normal
/// operation needs at most `NPANES + 1`).
const MAX_PANES: usize = 64;

/// splitmix64-style avalanche finalizer. FxHash is a fine bucket mixer
/// but its low bits are not uniform enough for HLL register selection /
/// rank extraction; one finalizer round fixes that.
#[inline]
pub fn finalize(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic 64-bit hash of a value, allocation-free. Type-tagged so
/// `Int(1)` and `Float(1.0)` stay distinct, matching the exact
/// `countDistinct` path (which compares encoded bytes).
pub fn hash_value(v: &Value) -> u64 {
    use std::hash::Hasher;
    let mut h = railgun_types::hash::FxHasher::default();
    match v {
        Value::Null => h.write_u8(0),
        Value::Bool(b) => {
            h.write_u8(1);
            h.write_u8(u8::from(*b));
        }
        Value::Int(n) => {
            h.write_u8(2);
            h.write_u64(*n as u64);
        }
        Value::Float(f) => {
            h.write_u8(3);
            h.write_u64(f.to_bits());
        }
        Value::Str(s) => {
            h.write_u8(4);
            h.write(s.as_bytes());
        }
    }
    finalize(h.finish())
}

/// A sketch that can live in a [`PaneRing`].
pub trait PaneSketch: Sized {
    /// An empty sketch with the same parameters.
    fn fresh(&self) -> Self;
    /// True iff `other` has the same parameters (a parameterless sketch
    /// keeps this default).
    fn params_match(&self, _other: &Self) -> bool {
        true
    }
    /// Fold `other` into `self` (same parameters).
    fn merge_from(&mut self, other: &Self);
    fn encode(&self, buf: &mut Vec<u8>);
    fn decode(buf: &mut &[u8]) -> Result<Self>;
    /// Heap bytes the sketch holds, about.
    fn heap_bytes(&self) -> usize;
}

/// Ring of insert-only panes plus an incrementally-maintained merged
/// view over all live panes (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct PaneRing<S> {
    pane_ms: i64,
    /// `(pane start ms, sketch)`, ascending by start.
    panes: Vec<(i64, S)>,
    /// Merge of every live pane; rebuilt only when panes are pruned.
    merged: S,
}

impl<S: PaneSketch> PaneRing<S> {
    pub fn new(pane_ms: i64, proto: S) -> Self {
        PaneRing {
            pane_ms: pane_ms.max(1),
            panes: Vec::new(),
            merged: proto,
        }
    }

    /// The merged view over all live panes.
    pub fn merged(&self) -> &S {
        &self.merged
    }

    /// Apply `op` to the pane owning `ts_ms` and to the merged view.
    pub fn apply(&mut self, ts_ms: i64, mut op: impl FnMut(&mut S)) {
        let start = ts_ms.div_euclid(self.pane_ms) * self.pane_ms;
        // The arriving event's pane is almost always the newest: search
        // from the back.
        let slot = match self.panes.iter().rposition(|(s, _)| *s <= start) {
            Some(i) if self.panes[i].0 == start => i,
            Some(i) => {
                self.panes.insert(i + 1, (start, self.merged.fresh()));
                i + 1
            }
            None => {
                self.panes.insert(0, (start, self.merged.fresh()));
                0
            }
        };
        op(&mut self.panes[slot].1);
        op(&mut self.merged);
        if self.panes.len() > MAX_PANES {
            self.panes.remove(0);
            self.rebuild();
        }
    }

    /// Drop panes that ended at or before `lower_ms` and rebuild the
    /// merged view if any died. Returns true iff the view changed.
    pub fn prune(&mut self, lower_ms: i64) -> bool {
        let dead = self
            .panes
            .iter()
            .take_while(|(s, _)| s.saturating_add(self.pane_ms) <= lower_ms)
            .count();
        if dead == 0 {
            return false;
        }
        self.panes.drain(..dead);
        self.rebuild();
        true
    }

    fn rebuild(&mut self) {
        let mut merged = self.merged.fresh();
        for (_, pane) in &self.panes {
            merged.merge_from(pane);
        }
        self.merged = merged;
    }

    fn heap_bytes(&self) -> usize {
        let panes = self.panes.iter().map(|(_, s)| s.heap_bytes()).sum::<usize>();
        self.panes.capacity() * std::mem::size_of::<(i64, S)>() + panes + self.merged.heap_bytes()
    }

    pub fn encode(&self, buf: &mut Vec<u8>) {
        railgun_types::encode::put_ivarint(buf, self.pane_ms);
        railgun_types::encode::put_uvarint(buf, self.panes.len() as u64);
        for (start, pane) in &self.panes {
            railgun_types::encode::put_ivarint(buf, *start);
            pane.encode(buf);
        }
    }

    /// Decode a ring written by [`PaneRing::encode`]. `proto` supplies
    /// the ring's parameters, which every pane must share; the merged
    /// view is rebuilt deterministically from the panes.
    pub fn decode(buf: &mut &[u8], proto: S) -> Result<Self> {
        let pane_ms = railgun_types::encode::get_ivarint(buf)?;
        if pane_ms <= 0 {
            return Err(RailgunError::Corruption("bad pane width".into()));
        }
        let n = railgun_types::encode::get_uvarint(buf)? as usize;
        if n > MAX_PANES {
            return Err(RailgunError::Corruption(format!("{n} panes in blob")));
        }
        let mut panes = Vec::with_capacity(n);
        let mut prev = i64::MIN;
        for _ in 0..n {
            let start = railgun_types::encode::get_ivarint(buf)?;
            if start <= prev {
                return Err(RailgunError::Corruption("panes out of order".into()));
            }
            prev = start;
            let pane = S::decode(buf)?;
            if !pane.params_match(&proto) {
                return Err(RailgunError::Corruption("a pane unlike its ring".into()));
            }
            panes.push((start, pane));
        }
        let mut ring = PaneRing {
            pane_ms,
            panes,
            merged: proto,
        };
        ring.rebuild();
        Ok(ring)
    }
}

// ---------------------------------------------------------------------------
// SketchState: the per-(leaf, entity) aux-CF blob
// ---------------------------------------------------------------------------

/// Which sketch a plan leaf needs, with its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SketchKind {
    /// HLL with `precision` register bits.
    Distinct { precision: u8 },
    TopK { k: u32 },
    Quantile,
}

const BLOB_HLL: u8 = 1;
const BLOB_HLL_PANES: u8 = 2;
const BLOB_TOPK: u8 = 3;
const BLOB_TOPK_PANES: u8 = 4;
const BLOB_QUANT: u8 = 5;
const BLOB_QUANT_PANES: u8 = 6;

/// The serialized sketch payload of one (leaf, entity): a single sketch
/// (tumbling/infinite windows) or a [`PaneRing`] (sliding windows).
/// This is the aux-CF blob that replaces the exact path's
/// one-entry-per-distinct-value layout.
#[derive(Debug, Clone, PartialEq)]
pub enum SketchState {
    Hll(Hll),
    HllPanes(PaneRing<Hll>),
    TopK(TopKSketch),
    TopKPanes(PaneRing<TopKSketch>),
    Quant(QuantSketch),
    QuantPanes(PaneRing<QuantSketch>),
}

impl SketchState {
    /// Fresh state for a leaf. `pane_ms = None` selects single-sketch
    /// mode (tumbling/infinite windows); `Some(w)` a sliding pane ring.
    pub fn new(kind: SketchKind, pane_ms: Option<i64>) -> Self {
        match (kind, pane_ms) {
            (SketchKind::Distinct { precision }, None) => SketchState::Hll(Hll::new(precision)),
            (SketchKind::Distinct { precision }, Some(w)) => {
                SketchState::HllPanes(PaneRing::new(w, Hll::new(precision)))
            }
            (SketchKind::TopK { k }, None) => SketchState::TopK(TopKSketch::new(k)),
            (SketchKind::TopK { k }, Some(w)) => {
                SketchState::TopKPanes(PaneRing::new(w, TopKSketch::new(k)))
            }
            (SketchKind::Quantile, None) => SketchState::Quant(QuantSketch::default()),
            (SketchKind::Quantile, Some(w)) => {
                SketchState::QuantPanes(PaneRing::new(w, QuantSketch::default()))
            }
        }
    }

    /// True iff this blob matches what `kind` + window mode expect — a
    /// mismatch means the aux CF holds a stale/foreign blob.
    pub fn matches(&self, kind: SketchKind, sliding: bool) -> bool {
        match (self, kind) {
            (SketchState::Hll(_), SketchKind::Distinct { .. }) => !sliding,
            (SketchState::HllPanes(_), SketchKind::Distinct { .. }) => sliding,
            (SketchState::TopK(_), SketchKind::TopK { .. }) => !sliding,
            (SketchState::TopKPanes(_), SketchKind::TopK { .. }) => sliding,
            (SketchState::Quant(_), SketchKind::Quantile) => !sliding,
            (SketchState::QuantPanes(_), SketchKind::Quantile) => sliding,
            _ => false,
        }
    }

    /// Record a distinct-count hash (HLL modes).
    pub fn insert_hash(&mut self, h: u64, ts_ms: i64) -> Result<()> {
        match self {
            SketchState::Hll(s) => s.insert_hash(h),
            SketchState::HllPanes(ring) => ring.apply(ts_ms, |s| s.insert_hash(h)),
            _ => return Err(kind_mismatch("countDistinct")),
        }
        Ok(())
    }

    /// Current cardinality estimate (HLL modes).
    pub fn distinct_estimate(&self) -> Result<i64> {
        match self {
            SketchState::Hll(s) => Ok(s.estimate()),
            SketchState::HllPanes(ring) => Ok(ring.merged().estimate()),
            _ => Err(kind_mismatch("countDistinct")),
        }
    }

    /// Record a heavy-hitter observation (topK modes).
    pub fn insert_topk(&mut self, v: &Value, h: u64, ts_ms: i64) -> Result<()> {
        match self {
            SketchState::TopK(s) => s.insert(v, h),
            SketchState::TopKPanes(ring) => ring.apply(ts_ms, |s| s.insert(v, h)),
            _ => return Err(kind_mismatch("topK")),
        }
        Ok(())
    }

    /// The current top-`k` report (topK modes; see [`TopKSketch::report`]).
    pub fn topk_report(&self) -> Result<String> {
        match self {
            SketchState::TopK(s) => Ok(s.report()),
            SketchState::TopKPanes(ring) => Ok(ring.merged().report()),
            _ => Err(kind_mismatch("topK")),
        }
    }

    /// Record a sample (percentile modes).
    pub fn insert_sample(&mut self, x: f64, ts_ms: i64) -> Result<()> {
        match self {
            SketchState::Quant(s) => s.insert(x),
            SketchState::QuantPanes(ring) => ring.apply(ts_ms, |s| s.insert(x)),
            _ => return Err(kind_mismatch("percentile")),
        }
        Ok(())
    }

    /// Current estimate of the `rank` quantile (`0.0..=1.0`), using
    /// `scratch` for the walk's cursors (percentile modes).
    pub fn quantile_estimate(&self, rank: f64, scratch: &mut Vec<usize>) -> Result<Option<f64>> {
        match self {
            SketchState::Quant(s) => Ok(s.estimate(rank, scratch)),
            SketchState::QuantPanes(ring) => Ok(ring.merged().estimate(rank, scratch)),
            _ => Err(kind_mismatch("percentile")),
        }
    }

    /// Drop expired panes (sliding modes; no-op for single sketches).
    /// Returns true iff the merged view changed.
    pub fn prune(&mut self, lower_ms: i64) -> bool {
        match self {
            SketchState::HllPanes(ring) => ring.prune(lower_ms),
            SketchState::TopKPanes(ring) => ring.prune(lower_ms),
            SketchState::QuantPanes(ring) => ring.prune(lower_ms),
            _ => false,
        }
    }

    /// Heap bytes the sketch holds, about (what the state cache counts).
    pub fn heap_bytes(&self) -> usize {
        match self {
            SketchState::Hll(s) => s.heap_bytes(),
            SketchState::HllPanes(ring) => ring.heap_bytes(),
            SketchState::TopK(s) => s.heap_bytes(),
            SketchState::TopKPanes(ring) => ring.heap_bytes(),
            SketchState::Quant(s) => s.heap_bytes(),
            SketchState::QuantPanes(ring) => ring.heap_bytes(),
        }
    }

    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            SketchState::Hll(s) => {
                buf.push(BLOB_HLL);
                s.encode(buf);
            }
            SketchState::HllPanes(ring) => {
                buf.push(BLOB_HLL_PANES);
                railgun_types::encode::put_uvarint(buf, u64::from(ring.merged().precision()));
                ring.encode(buf);
            }
            SketchState::TopK(s) => {
                buf.push(BLOB_TOPK);
                s.encode(buf);
            }
            SketchState::TopKPanes(ring) => {
                buf.push(BLOB_TOPK_PANES);
                railgun_types::encode::put_uvarint(buf, u64::from(ring.merged().k()));
                ring.encode(buf);
            }
            SketchState::Quant(s) => {
                buf.push(BLOB_QUANT);
                s.encode(buf);
            }
            SketchState::QuantPanes(ring) => {
                buf.push(BLOB_QUANT_PANES);
                ring.encode(buf);
            }
        }
    }

    pub fn decode(buf: &mut &[u8]) -> Result<Self> {
        use bytes::Buf;
        if !buf.has_remaining() {
            return Err(RailgunError::Corruption("empty sketch blob".into()));
        }
        Ok(match buf.get_u8() {
            BLOB_HLL => SketchState::Hll(Hll::decode(buf)?),
            // A header value past its type reads as 0, which is out of range.
            BLOB_HLL_PANES => {
                let p = u8::try_from(railgun_types::encode::get_uvarint(buf)?).unwrap_or(0);
                if !(hll::MIN_PRECISION..=hll::MAX_PRECISION).contains(&p) {
                    return Err(RailgunError::Corruption("bad HLL ring precision".into()));
                }
                SketchState::HllPanes(PaneRing::decode(buf, Hll::new(p))?)
            }
            BLOB_TOPK => SketchState::TopK(TopKSketch::decode(buf)?),
            BLOB_TOPK_PANES => {
                let k = u32::try_from(railgun_types::encode::get_uvarint(buf)?).unwrap_or(0);
                if k == 0 {
                    return Err(RailgunError::Corruption("bad topK ring k".into()));
                }
                SketchState::TopKPanes(PaneRing::decode(buf, TopKSketch::new(k))?)
            }
            BLOB_QUANT => SketchState::Quant(QuantSketch::decode(buf)?),
            BLOB_QUANT_PANES => {
                SketchState::QuantPanes(PaneRing::decode(buf, QuantSketch::default())?)
            }
            other => {
                return Err(RailgunError::Corruption(format!(
                    "unknown sketch blob tag {other}"
                )))
            }
        })
    }
}

fn kind_mismatch(what: &str) -> RailgunError {
    RailgunError::Corruption(format!("sketch blob does not match a {what} leaf"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finalizer_spreads_low_bits() {
        let mut low = std::collections::HashSet::new();
        for i in 0u64..4096 {
            low.insert(finalize(i) & 0xfff);
        }
        assert!(low.len() > 2500, "got {} distinct low-12-bit values", low.len());
    }

    #[test]
    fn hash_value_distinguishes_types_and_values() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(1),
            Value::Float(1.0),
            Value::Str("1".into()),
            Value::Str("2".into()),
        ];
        let hashes: std::collections::HashSet<u64> = vals.iter().map(hash_value).collect();
        assert_eq!(hashes.len(), vals.len());
        assert_eq!(hash_value(&Value::Int(7)), hash_value(&Value::Int(7)));
    }

    #[test]
    fn pane_ring_prunes_and_rebuilds() {
        let mut ring = PaneRing::new(10, Hll::new(8));
        for ts in [0i64, 5, 12, 25, 31] {
            ring.apply(ts, |s| s.insert_hash(finalize(ts as u64)));
        }
        assert_eq!(ring.merged().estimate(), 5);
        // Everything below 20ms dies (panes [0,10) and [10,20)).
        assert!(ring.prune(20));
        assert_eq!(ring.merged().estimate(), 2, "events at 25 and 31 remain");
        assert!(!ring.prune(20), "second prune is a no-op");
    }

    #[test]
    fn sketch_state_roundtrips_byte_identically() {
        let mut states = [
            SketchState::new(SketchKind::Distinct { precision: 10 }, None),
            SketchState::new(SketchKind::Distinct { precision: 10 }, Some(100)),
            SketchState::new(SketchKind::TopK { k: 3 }, None),
            SketchState::new(SketchKind::TopK { k: 3 }, Some(100)),
            SketchState::new(SketchKind::Quantile, None),
            SketchState::new(SketchKind::Quantile, Some(100)),
        ];
        for (i, st) in states.iter_mut().enumerate() {
            for j in 0..200i64 {
                let v = Value::Int(j % 37);
                match st {
                    SketchState::Hll(_) | SketchState::HllPanes(_) => {
                        st.insert_hash(hash_value(&v), j).unwrap()
                    }
                    SketchState::TopK(_) | SketchState::TopKPanes(_) => {
                        st.insert_topk(&v, hash_value(&v), j).unwrap()
                    }
                    _ => st.insert_sample(j as f64, j).unwrap(),
                }
            }
            let mut a = Vec::new();
            st.encode(&mut a);
            let back = SketchState::decode(&mut a.as_slice()).unwrap();
            let mut b = Vec::new();
            back.encode(&mut b);
            assert_eq!(a, b, "state {i} must roundtrip byte-identically");
            // Pane rings rebuild their merged view canonically on decode
            // (the live view reflects insertion order), so structural
            // equality is only guaranteed from the second decode onward.
            let again = SketchState::decode(&mut b.as_slice()).unwrap();
            assert_eq!(back, again, "state {i} decode must be stable");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(SketchState::decode(&mut [].as_slice()).is_err());
        assert!(SketchState::decode(&mut [99u8].as_slice()).is_err());
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn encoded(st: &SketchState) -> Vec<u8> {
        let mut b = Vec::new();
        st.encode(&mut b);
        b
    }

    /// Blobs written before the sparse form (every HLL dense), pinned as
    /// that code wrote them: 7 values at p=4 (dense: more than m/8 = 2
    /// registers set), 2 values at p=4, and an 8-pane ring at p=5 whose
    /// pane `k` saw `k + 1` values (the first panes fit the sparse form).
    const PARENT_DENSE: &str = "01047d0000800000000008000100";
    const PARENT_FEW: &str = "0104002000000000002000000000";
    const PARENT_RING: &str = "\
        0205140800053c000000000000000000000000000000000000000000000014050100000010000000\
        00000000000000000000000000000000280540000000000000000000000000000000000000100000\
        00043c05010000000000001000000000000000401000000000000000500500000000000040000001\
        00000000000110000000000000086405000000000000c0000002000000000800000080000000000c\
        78054000000000040000008000008020000000004000000300008c01050000004000008000000100\
        00010000011000430000000000";

    #[test]
    fn parent_dense_blobs_decode_to_the_same_estimate_and_one_canonical_form() {
        for (hex, estimate, canonical_len) in
            [(PARENT_DENSE, 6, 14), (PARENT_FEW, 2, 10), (PARENT_RING, 34, 155)]
        {
            let parent = unhex(hex);
            let st = SketchState::decode(&mut parent.as_slice()).unwrap();
            assert_eq!(st.distinct_estimate().unwrap(), estimate, "{hex}");
            let canonical = encoded(&st);
            assert_eq!(canonical.len(), canonical_len, "{hex}");
            let again = SketchState::decode(&mut canonical.as_slice()).unwrap();
            assert_eq!(again, st);
            assert_eq!(encoded(&again), canonical);
        }
        // A dense sketch's blob is the parent's, byte for byte; two
        // registers re-encode as two (index, rank) pairs.
        let canonical = |hex| encoded(&SketchState::decode(&mut unhex(hex).as_slice()).unwrap());
        assert_eq!(canonical(PARENT_DENSE), unhex(PARENT_DENSE));
        assert_eq!(canonical(PARENT_FEW), unhex("018402000200020a0002"));
    }

    #[test]
    fn ring_blobs_with_foreign_panes_or_bad_headers_are_corruption() {
        let corrupt = |blob: &[u8]| {
            matches!(
                SketchState::decode(&mut &blob[..]),
                Err(RailgunError::Corruption(_))
            )
        };
        // A p=13 ring holding p=5 panes used to panic rebuilding the view.
        let mut ring = unhex(PARENT_RING);
        ring[1] = 13;
        assert!(corrupt(&ring));
        // Precision out of range, or past u8 (269 used to truncate to 13).
        for p in [3u64, 17, 269, 1 << 40] {
            let mut blob = vec![BLOB_HLL_PANES];
            railgun_types::encode::put_uvarint(&mut blob, p);
            blob.extend_from_slice(&unhex(PARENT_RING)[2..]);
            assert!(corrupt(&blob), "p={p}");
        }
        // topK: a k=3 ring holding a k=5 pane, and k of 0 or past u32
        // (2^32 + 3 used to truncate to 3).
        let mut st = SketchState::new(SketchKind::TopK { k: 5 }, Some(100));
        st.insert_topk(&Value::Int(1), hash_value(&Value::Int(1)), 0).unwrap();
        let blob = encoded(&st);
        for k in [3u64, 0, (1 << 32) + 3] {
            let mut bad = vec![BLOB_TOPK_PANES];
            railgun_types::encode::put_uvarint(&mut bad, k);
            bad.extend_from_slice(&blob[2..]);
            assert!(corrupt(&bad), "k={k}");
        }
        let mut good = vec![BLOB_TOPK_PANES];
        railgun_types::encode::put_uvarint(&mut good, 5);
        good.extend_from_slice(&blob[2..]);
        assert_eq!(SketchState::decode(&mut good.as_slice()).unwrap(), st);
    }
}
