//! Incremental window aggregators (paper §4.1.3).
//!
//! Every aggregator supports O(1)-ish `insert` and `evict` so real-time
//! sliding windows can update metrics with exactly the events entering and
//! leaving the window — never recomputing from scratch (the failure mode of
//! the Flink custom solution \[21\], reproduced in `railgun-baseline`).
//!
//! State is serialized to bytes and stored in the task processor's state
//! store. The paper describes one key per metric and entity ("each key
//! holds the aggregation current value for the specific window and the
//! specific entity"); all leaves under one group-by node are updated by
//! the same events for the same entity, so here they share **one row per
//! (group-by node, entity)**: a sequence of slots, each a leaf id followed
//! by that leaf's state ([`encode_slot`] / [`decode_row`]). Auxiliary data
//! stays per leaf, keyed by the row key with the group prefix replaced by
//! the leaf prefix:
//!
//! * `avg` carries a count; `stdDev` the Welford triple \[50\];
//! * `max`/`min` a monotonic deque \[30\] ([`deque`]);
//! * `countDistinct` keeps per-value counts in a dedicated **column
//!   family** of the state store;
//! * the approximate family (`countDistinct … approx`, `topK`,
//!   `percentile`) keeps **one serialized sketch blob** per
//!   (leaf, entity) in the same column family ([`sketch`]), cached
//!   in memory ([`AggScratch`]) and flushed at checkpoints.

pub mod deque;
pub mod sketch;

use std::cell::RefCell;

use bytes::Buf;
use railgun_store::{ColumnFamilyId, Db};
use railgun_types::encode::{
    get_ivarint, get_uvarint, get_value, put_ivarint, put_uvarint, put_value,
};
use railgun_types::hash::FastHashMap;
use railgun_types::{RailgunError, Result, Value};

use crate::lang::AggFunc;
use deque::{max_keeps, min_keeps, MinMaxDeque};
use sketch::{SketchKind, SketchState};

/// Per-task scratch shared by every aggregator the task drives: reusable
/// key/estimate buffers (no per-event allocation on the aux paths) and
/// the in-memory sketch cache.
///
/// The cache is the reason the approximate path can beat the exact one:
/// a sketch blob is kilobytes, so decoding and re-encoding it per event
/// would drown the O(1) kernel update. Instead blobs live here between
/// events and hit the store only at checkpoints (`flush`) or on cache
/// eviction. Crash safety is unaffected: recovery always starts from a
/// checkpoint image (which sees a flushed cache) or from an empty store
/// with a full ordered replay, and the kernels are deterministic under
/// replay, so both arms converge (pinned by `tests/crash_recovery.rs`).
#[derive(Default)]
pub struct AggScratch {
    /// Reusable aux/blob key buffer (the exact path's per-event
    /// `aux_key` allocation removed).
    key_buf: RefCell<Vec<u8>>,
    /// Reusable encode buffer for blob flushes.
    blob_buf: RefCell<Vec<u8>>,
    /// Reusable per-level cursors for quantile estimates.
    rank_buf: RefCell<Vec<usize>>,
    /// state key → live sketch, with a dirty bit since the last flush.
    cache: RefCell<FastHashMap<Vec<u8>, (SketchState, bool)>>,
}

/// Max cached sketches per task before least-recently-inserted entries
/// are flushed out (bounds memory at ~tens of MB worst case).
const SKETCH_CACHE_CAP: usize = 1024;

impl AggScratch {
    /// Run `f` against the live sketch for `state_key`, loading the blob
    /// from the store (or creating a fresh sketch) on cache miss. Panes
    /// the window has left are pruned first, on every touch: they age
    /// with the window, not with the entity's traffic. The sketch is
    /// marked dirty — it reaches the store on the next `flush` — only if
    /// the prune changed it or `f` is an `insert`: a read leaves an
    /// unchanged sketch clean.
    fn with_sketch<R>(
        &self,
        ctx: &AggContext<'_>,
        kind: SketchKind,
        insert: bool,
        f: impl FnOnce(&mut SketchState, &AggScratch) -> Result<R>,
    ) -> Result<R> {
        let mut cache = self.cache.borrow_mut();
        if !cache.contains_key(ctx.state_key) {
            if cache.len() >= SKETCH_CACHE_CAP {
                self.flush_locked(&mut cache, ctx.db, ctx.aux_cf)?;
                cache.clear();
            }
            let sliding = ctx.window_ms > 0;
            let loaded = {
                let mut key = self.key_buf.borrow_mut();
                blob_key_into(&mut key, ctx.state_key);
                ctx.db.get(ctx.aux_cf, &key)?
            };
            let sketch = match loaded {
                Some(raw) => {
                    let st = SketchState::decode(&mut raw.as_slice())?;
                    if !st.matches(kind, sliding) {
                        return Err(RailgunError::Corruption(
                            "sketch blob does not match leaf parameters".into(),
                        ));
                    }
                    st
                }
                None => SketchState::new(
                    kind,
                    sliding.then(|| (ctx.window_ms / sketch::NPANES).max(1)),
                ),
            };
            cache.insert(ctx.state_key.to_vec(), (sketch, false));
        }
        let (sketch, dirty) = cache.get_mut(ctx.state_key).expect("just inserted");
        *dirty |= sketch.prune(ctx.window_lower_ms) | insert;
        f(sketch, self)
    }

    /// Write every dirty cached sketch to the aux CF. Called on
    /// checkpoint so the on-disk image is complete.
    pub fn flush(&self, db: &Db, aux_cf: ColumnFamilyId) -> Result<()> {
        self.flush_locked(&mut self.cache.borrow_mut(), db, aux_cf)
    }

    fn flush_locked(
        &self,
        cache: &mut FastHashMap<Vec<u8>, (SketchState, bool)>,
        db: &Db,
        aux_cf: ColumnFamilyId,
    ) -> Result<()> {
        let mut key = self.key_buf.borrow_mut();
        let mut blob = self.blob_buf.borrow_mut();
        for (state_key, (sketch, dirty)) in cache.iter_mut() {
            if !*dirty {
                continue;
            }
            blob_key_into(&mut key, state_key);
            blob.clear();
            sketch.encode(&mut blob);
            db.put(aux_cf, &key, &blob)?;
            *dirty = false;
        }
        Ok(())
    }

    /// Drop cached sketches whose (leaf) state key starts with `prefix`
    /// (query unregistration; the store-side blobs fall out of the aux
    /// CF's filtered compaction).
    pub fn drop_prefix(&self, prefix: &[u8]) {
        self.cache
            .borrow_mut()
            .retain(|k, _| !k.starts_with(prefix));
    }
}

/// Where an aggregator's auxiliary data lives, plus the window geometry
/// sketch-backed aggregators need for pane routing.
pub struct AggContext<'a> {
    pub db: &'a Db,
    /// Column family for `countDistinct` per-value counts and sketch
    /// blobs.
    pub aux_cf: ColumnFamilyId,
    /// The state key of this (leaf, entity) — the group's row key under
    /// the leaf prefix; aux keys are derived from it.
    pub state_key: &'a [u8],
    /// Timestamp (ms) of the event being inserted/evicted.
    pub event_ts_ms: i64,
    /// Lower bound (ms) of the live window (events below are expired).
    pub window_lower_ms: i64,
    /// Sliding-window size in ms; `0` means tumbling/infinite (sketches
    /// run in single-sketch mode, no pane ring).
    pub window_ms: i64,
    /// Per-task scratch buffers and the sketch cache.
    pub scratch: &'a AggScratch,
}

impl<'a> AggContext<'a> {
    /// Context for a tumbling/infinite-window leaf (no pane ring).
    pub fn new(
        db: &'a Db,
        aux_cf: ColumnFamilyId,
        state_key: &'a [u8],
        scratch: &'a AggScratch,
    ) -> Self {
        AggContext {
            db,
            aux_cf,
            state_key,
            event_ts_ms: 0,
            window_lower_ms: i64::MIN,
            window_ms: 0,
            scratch,
        }
    }

    /// Attach sliding-window geometry (event timestamp, window lower
    /// bound, window size) for pane-ring routing.
    pub fn windowed(mut self, event_ts_ms: i64, window_lower_ms: i64, window_ms: i64) -> Self {
        self.event_ts_ms = event_ts_ms;
        self.window_lower_ms = window_lower_ms;
        self.window_ms = window_ms;
        self
    }
}

/// In-memory aggregation state for one (metric leaf, entity).
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    Count { count: i64 },
    Sum { sum: f64 },
    Avg { sum: f64, count: i64 },
    StdDev { count: i64, mean: f64, m2: f64 },
    Max { deque: MinMaxDeque },
    Min { deque: MinMaxDeque },
    Last { count: i64, last: Option<Value> },
    Prev {
        count: i64,
        last: Option<Value>,
        prev: Option<Value>,
    },
    CountDistinct { distinct: i64 },
    /// HLL-backed `countDistinct … approx` with its configured error
    /// (basis points). The sketch-backed leaves hold only their
    /// parameters: the sketch lives in the aux CF as one blob per (leaf,
    /// entity), and [`AggState::value`] estimates from it.
    ApproxDistinct { err_bp: u32 },
    /// Space-saving `topK`.
    TopK { k: u32 },
    /// Quantile-sketch `percentile` at the configured rank (basis points
    /// of a percent, `9900` = p99).
    Percentile { rank_bp: u32 },
}

const TAG_COUNT: u8 = 1;
const TAG_SUM: u8 = 2;
const TAG_AVG: u8 = 3;
const TAG_STDDEV: u8 = 4;
const TAG_MAX: u8 = 5;
const TAG_MIN: u8 = 6;
const TAG_LAST: u8 = 7;
const TAG_PREV: u8 = 8;
const TAG_DISTINCT: u8 = 9;
const TAG_APPROX_DISTINCT: u8 = 10;
const TAG_TOPK: u8 = 11;
const TAG_PERCENTILE: u8 = 12;

impl AggState {
    /// Fresh state for a function.
    pub fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggState::Count { count: 0 },
            AggFunc::Sum => AggState::Sum { sum: 0.0 },
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
            AggFunc::StdDev => AggState::StdDev {
                count: 0,
                mean: 0.0,
                m2: 0.0,
            },
            AggFunc::Max => AggState::Max {
                deque: MinMaxDeque::default(),
            },
            AggFunc::Min => AggState::Min {
                deque: MinMaxDeque::default(),
            },
            AggFunc::Last => AggState::Last {
                count: 0,
                last: None,
            },
            AggFunc::Prev => AggState::Prev {
                count: 0,
                last: None,
                prev: None,
            },
            AggFunc::CountDistinct => AggState::CountDistinct { distinct: 0 },
            AggFunc::ApproxCountDistinct { err_bp } => AggState::ApproxDistinct { err_bp },
            AggFunc::TopK { k } => AggState::TopK { k },
            AggFunc::Percentile { rank_bp } => AggState::Percentile { rank_bp },
        }
    }

    /// Apply an entering value. `v` is `None` for `count(*)` over an event
    /// with no projected field; NULL values are ignored by value
    /// aggregations (SQL semantics).
    pub fn insert(&mut self, v: Option<&Value>, ctx: &AggContext<'_>) -> Result<()> {
        match self {
            AggState::Count { count } => {
                // count(*) counts rows; count(field) counts non-null.
                if v.is_none_or(|v| !v.is_null()) {
                    *count += 1;
                }
            }
            AggState::Sum { sum } => {
                if let Some(x) = v.and_then(Value::as_f64) {
                    *sum += x;
                }
            }
            AggState::Avg { sum, count } => {
                if let Some(x) = v.and_then(Value::as_f64) {
                    *sum += x;
                    *count += 1;
                }
            }
            AggState::StdDev { count, mean, m2 } => {
                if let Some(x) = v.and_then(Value::as_f64) {
                    *count += 1;
                    let d = x - *mean;
                    *mean += d / *count as f64;
                    *m2 += d * (x - *mean);
                }
            }
            AggState::Max { deque } => {
                if let Some(v) = v.filter(|v| !v.is_null()) {
                    deque.insert(v, max_keeps);
                }
            }
            AggState::Min { deque } => {
                if let Some(v) = v.filter(|v| !v.is_null()) {
                    deque.insert(v, min_keeps);
                }
            }
            AggState::Last { count, last } => {
                if let Some(v) = v.filter(|v| !v.is_null()) {
                    *count += 1;
                    *last = Some(v.clone());
                }
            }
            AggState::Prev { count, last, prev } => {
                if let Some(v) = v.filter(|v| !v.is_null()) {
                    *count += 1;
                    *prev = last.take();
                    *last = Some(v.clone());
                }
            }
            AggState::CountDistinct { distinct } => {
                if let Some(v) = v.filter(|v| !v.is_null()) {
                    let mut key = ctx.scratch.key_buf.borrow_mut();
                    aux_key_into(&mut key, ctx.state_key, v);
                    let n = read_u64(ctx.db, ctx.aux_cf, &key)?;
                    if n == 0 {
                        *distinct += 1;
                    }
                    write_u64(ctx.db, ctx.aux_cf, &key, n + 1)?;
                }
            }
            // Sketch inserts update the sketch and compute nothing: the
            // reply estimates once, when it reads the leaf.
            AggState::ApproxDistinct { err_bp } => {
                if let Some(v) = v.filter(|v| !v.is_null()) {
                    let h = sketch::hash_value(v);
                    ctx.scratch
                        .with_sketch(ctx, distinct_kind(*err_bp), true, |st, _| {
                            st.insert_hash(h, ctx.event_ts_ms)
                        })?;
                }
            }
            AggState::TopK { k } => {
                if let Some(v) = v.filter(|v| !v.is_null()) {
                    let h = sketch::hash_value(v);
                    ctx.scratch
                        .with_sketch(ctx, SketchKind::TopK { k: *k }, true, |st, _| {
                            st.insert_topk(v, h, ctx.event_ts_ms)
                        })?;
                }
            }
            AggState::Percentile { .. } => {
                if let Some(x) = v.and_then(Value::as_f64) {
                    ctx.scratch
                        .with_sketch(ctx, SketchKind::Quantile, true, |st, _| {
                            st.insert_sample(x, ctx.event_ts_ms)
                        })?;
                }
            }
        }
        Ok(())
    }

    /// Apply an expiring value. Must mirror a previous `insert` with the
    /// same value (the window operator guarantees this).
    pub fn evict(&mut self, v: Option<&Value>, ctx: &AggContext<'_>) -> Result<()> {
        match self {
            AggState::Count { count } => {
                if v.is_none_or(|v| !v.is_null()) {
                    *count -= 1;
                }
            }
            AggState::Sum { sum } => {
                if let Some(x) = v.and_then(Value::as_f64) {
                    *sum -= x;
                }
            }
            AggState::Avg { sum, count } => {
                if let Some(x) = v.and_then(Value::as_f64) {
                    *sum -= x;
                    *count -= 1;
                    if *count == 0 {
                        *sum = 0.0;
                    }
                }
            }
            AggState::StdDev { count, mean, m2 } => {
                if let Some(x) = v.and_then(Value::as_f64) {
                    if *count <= 1 {
                        *count = 0;
                        *mean = 0.0;
                        *m2 = 0.0;
                    } else {
                        let n = *count as f64;
                        let mean_new = (n * *mean - x) / (n - 1.0);
                        *m2 -= (x - *mean) * (x - mean_new);
                        if *m2 < 0.0 {
                            *m2 = 0.0; // numeric guard
                        }
                        *mean = mean_new;
                        *count -= 1;
                    }
                }
            }
            AggState::Max { deque } | AggState::Min { deque } => {
                if v.is_some_and(|v| !v.is_null()) {
                    deque.evict();
                }
            }
            AggState::Last { count, last } => {
                if v.is_some_and(|v| !v.is_null()) {
                    *count -= 1;
                    if *count <= 0 {
                        *last = None;
                    }
                }
            }
            AggState::Prev { count, last, prev } => {
                if v.is_some_and(|v| !v.is_null()) {
                    *count -= 1;
                    if *count <= 1 {
                        *prev = None;
                    }
                    if *count <= 0 {
                        *last = None;
                    }
                }
            }
            AggState::CountDistinct { distinct } => {
                if let Some(v) = v.filter(|v| !v.is_null()) {
                    let mut key = ctx.scratch.key_buf.borrow_mut();
                    aux_key_into(&mut key, ctx.state_key, v);
                    let n = read_u64(ctx.db, ctx.aux_cf, &key)?;
                    if n <= 1 {
                        ctx.db.delete(ctx.aux_cf, &key)?;
                        if n == 1 {
                            *distinct -= 1;
                        }
                    } else {
                        write_u64(ctx.db, ctx.aux_cf, &key, n - 1)?;
                    }
                }
            }
            // Sketches cannot evict single events, and need not be touched
            // for one: sliding windows drop whole panes once the window
            // has left them (pane-granular expiry, see [`sketch`]), on
            // the sketch's next insert or read.
            AggState::ApproxDistinct { .. }
            | AggState::TopK { .. }
            | AggState::Percentile { .. } => {}
        }
        Ok(())
    }

    /// The current aggregation result. Exact leaves answer from their own
    /// state and ignore `ctx`; a sketch leaf loads its sketch (from the
    /// scratch cache or the aux CF), prunes it to `ctx`'s window and
    /// estimates.
    pub fn value(&self, ctx: &AggContext<'_>) -> Result<Value> {
        Ok(match self {
            AggState::Count { count } => Value::Int(*count),
            AggState::Sum { sum } => Value::Float(*sum),
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float(*sum / *count as f64)
                }
            }
            AggState::StdDev { count, m2, .. } => {
                if *count < 2 {
                    if *count == 1 {
                        Value::Float(0.0)
                    } else {
                        Value::Null
                    }
                } else {
                    // Sample standard deviation (Welford's corrected sums).
                    Value::Float((m2 / (*count as f64 - 1.0)).sqrt())
                }
            }
            AggState::Max { deque } | AggState::Min { deque } => {
                deque.extreme().cloned().unwrap_or(Value::Null)
            }
            AggState::Last { last, .. } => last.clone().unwrap_or(Value::Null),
            AggState::Prev { prev, .. } => prev.clone().unwrap_or(Value::Null),
            AggState::CountDistinct { distinct } => Value::Int(*distinct),
            AggState::ApproxDistinct { err_bp } => Value::Int(ctx.scratch.with_sketch(
                ctx,
                distinct_kind(*err_bp),
                false,
                |st, _| st.distinct_estimate(),
            )?),
            AggState::TopK { k } => Value::Str(ctx.scratch.with_sketch(
                ctx,
                SketchKind::TopK { k: *k },
                false,
                |st, _| st.topk_report(),
            )?),
            AggState::Percentile { rank_bp } => {
                let rank = f64::from(*rank_bp) / 10_000.0;
                ctx.scratch
                    .with_sketch(ctx, SketchKind::Quantile, false, |st, scratch| {
                        st.quantile_estimate(rank, &mut scratch.rank_buf.borrow_mut())
                    })?
                    .map_or(Value::Null, Value::Float)
            }
        })
    }

    /// Serialize into `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            AggState::Count { count } => {
                buf.push(TAG_COUNT);
                put_ivarint(buf, *count);
            }
            AggState::Sum { sum } => {
                buf.push(TAG_SUM);
                buf.extend_from_slice(&sum.to_le_bytes());
            }
            AggState::Avg { sum, count } => {
                buf.push(TAG_AVG);
                buf.extend_from_slice(&sum.to_le_bytes());
                put_ivarint(buf, *count);
            }
            AggState::StdDev { count, mean, m2 } => {
                buf.push(TAG_STDDEV);
                put_ivarint(buf, *count);
                buf.extend_from_slice(&mean.to_le_bytes());
                buf.extend_from_slice(&m2.to_le_bytes());
            }
            AggState::Max { deque } => {
                buf.push(TAG_MAX);
                deque.encode(buf);
            }
            AggState::Min { deque } => {
                buf.push(TAG_MIN);
                deque.encode(buf);
            }
            AggState::Last { count, last } => {
                buf.push(TAG_LAST);
                put_ivarint(buf, *count);
                put_opt_value(buf, last);
            }
            AggState::Prev { count, last, prev } => {
                buf.push(TAG_PREV);
                put_ivarint(buf, *count);
                put_opt_value(buf, last);
                put_opt_value(buf, prev);
            }
            AggState::CountDistinct { distinct } => {
                buf.push(TAG_DISTINCT);
                put_ivarint(buf, *distinct);
            }
            // The sketch tags keep the layout of rows that cached an
            // estimate, with that part empty: estimate 0, no topK entries,
            // no percentile.
            AggState::ApproxDistinct { err_bp } => {
                buf.push(TAG_APPROX_DISTINCT);
                put_ivarint(buf, 0);
                put_uvarint(buf, u64::from(*err_bp));
            }
            AggState::TopK { k } => {
                buf.push(TAG_TOPK);
                put_uvarint(buf, u64::from(*k));
                put_uvarint(buf, 0);
            }
            AggState::Percentile { rank_bp } => {
                buf.push(TAG_PERCENTILE);
                put_uvarint(buf, u64::from(*rank_bp));
                buf.push(0);
            }
        }
    }

    /// Deserialize from bytes written by [`AggState::encode`].
    pub fn decode(mut buf: &[u8]) -> Result<Self> {
        Self::decode_from(&mut buf)
    }

    /// [`AggState::decode`] off the front of `buf`, leaving the cursor
    /// after the state (the slots of a group row follow one another).
    fn decode_from(buf: &mut &[u8]) -> Result<Self> {
        if buf.is_empty() {
            return Err(RailgunError::Corruption("empty aggregator state".into()));
        }
        let tag = buf.get_u8();
        Ok(match tag {
            TAG_COUNT => AggState::Count {
                count: get_ivarint(buf)?,
            },
            TAG_SUM => AggState::Sum { sum: get_f64(buf)? },
            TAG_AVG => AggState::Avg {
                sum: get_f64(buf)?,
                count: get_ivarint(buf)?,
            },
            TAG_STDDEV => AggState::StdDev {
                count: get_ivarint(buf)?,
                mean: get_f64(buf)?,
                m2: get_f64(buf)?,
            },
            TAG_MAX => AggState::Max {
                deque: MinMaxDeque::decode(buf)?,
            },
            TAG_MIN => AggState::Min {
                deque: MinMaxDeque::decode(buf)?,
            },
            TAG_LAST => AggState::Last {
                count: get_ivarint(buf)?,
                last: get_opt_value(buf)?,
            },
            TAG_PREV => AggState::Prev {
                count: get_ivarint(buf)?,
                last: get_opt_value(buf)?,
                prev: get_opt_value(buf)?,
            },
            TAG_DISTINCT => AggState::CountDistinct {
                distinct: get_ivarint(buf)?,
            },
            // A row written when rows cached the sketch estimates still
            // decodes: the cached value is read and dropped.
            TAG_APPROX_DISTINCT => {
                get_ivarint(buf)?;
                AggState::ApproxDistinct {
                    err_bp: get_uvarint(buf)? as u32,
                }
            }
            TAG_TOPK => {
                let k = get_uvarint(buf)? as u32;
                let n = get_uvarint(buf)?;
                if n > u64::from(k) {
                    return Err(RailgunError::Corruption("topK snapshot too long".into()));
                }
                for _ in 0..n {
                    get_value(buf)?;
                    get_ivarint(buf)?;
                }
                AggState::TopK { k }
            }
            TAG_PERCENTILE => {
                let rank_bp = get_uvarint(buf)? as u32;
                if get_opt_value_tag(buf)? {
                    get_f64(buf)?;
                }
                AggState::Percentile { rank_bp }
            }
            other => {
                return Err(RailgunError::Corruption(format!(
                    "unknown aggregator tag {other}"
                )))
            }
        })
    }
}

/// The sketch an `approx` distinct count with error `err_bp` runs.
fn distinct_kind(err_bp: u32) -> SketchKind {
    SketchKind::Distinct {
        precision: sketch::hll::precision_for_err_bp(err_bp),
    }
}

/// Append one slot of a group row: the leaf id, then that leaf's state.
pub fn encode_slot(row: &mut Vec<u8>, leaf: u32, state: &AggState) {
    put_uvarint(row, u64::from(leaf));
    state.encode(row);
}

/// Decode a group row (a run of [`encode_slot`] slots) into `slots`,
/// replacing its previous content; a min/max reuses the deque of its kind
/// found at its position. On error `slots` holds part of the decode.
pub fn decode_row(mut row: &[u8], slots: &mut Vec<(u32, AggState)>) -> Result<()> {
    let mut n = 0;
    while !row.is_empty() {
        let leaf = u32::try_from(get_uvarint(&mut row)?)
            .map_err(|_| RailgunError::Corruption("leaf id out of range in group row".into()))?;
        match (row.first(), slots.get_mut(n)) {
            (Some(&TAG_MAX), Some((at, AggState::Max { deque })))
            | (Some(&TAG_MIN), Some((at, AggState::Min { deque }))) => {
                *at = leaf;
                row.advance(1);
                deque.decode_into(&mut row)?;
            }
            (_, Some(slot)) => *slot = (leaf, AggState::decode_from(&mut row)?),
            (_, None) => slots.push((leaf, AggState::decode_from(&mut row)?)),
        }
        n += 1;
    }
    slots.truncate(n);
    Ok(())
}

fn put_opt_value(buf: &mut Vec<u8>, v: &Option<Value>) {
    match v {
        Some(v) => {
            buf.push(1);
            put_value(buf, v);
        }
        None => buf.push(0),
    }
}

fn get_opt_value(buf: &mut impl Buf) -> Result<Option<Value>> {
    if !buf.has_remaining() {
        return Err(RailgunError::Corruption("truncated option".into()));
    }
    match buf.get_u8() {
        0 => Ok(None),
        1 => Ok(Some(get_value(buf)?)),
        other => Err(RailgunError::Corruption(format!(
            "bad option tag {other}"
        ))),
    }
}

fn get_f64(buf: &mut impl Buf) -> Result<f64> {
    if buf.remaining() < 8 {
        return Err(RailgunError::Corruption("truncated f64".into()));
    }
    Ok(buf.get_f64_le())
}

fn get_opt_value_tag(buf: &mut impl Buf) -> Result<bool> {
    if !buf.has_remaining() {
        return Err(RailgunError::Corruption("truncated option".into()));
    }
    match buf.get_u8() {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(RailgunError::Corruption(format!("bad option tag {other}"))),
    }
}

/// Auxiliary CF key for a countDistinct value, written into a reusable
/// buffer: the state key length-prefixed (collision-free) followed by
/// the encoded value.
fn aux_key_into(key: &mut Vec<u8>, state_key: &[u8], v: &Value) {
    key.clear();
    put_uvarint(key, state_key.len() as u64);
    key.extend_from_slice(state_key);
    put_value(key, v);
}

/// Auxiliary CF key for a (leaf, entity) sketch blob: the length-
/// prefixed state key with **no** value suffix. Every exact aux key
/// appends at least one encoded-value byte after the same prefix, so
/// blob keys can never collide with per-value count keys even when both
/// families share the aux CF.
fn blob_key_into(key: &mut Vec<u8>, state_key: &[u8]) {
    key.clear();
    put_uvarint(key, state_key.len() as u64);
    key.extend_from_slice(state_key);
}

/// Test helper: the blob-form aux key for `state_key` (used by the
/// horizon-filter tests to build aux keys without an `AggContext`).
#[cfg(test)]
pub(crate) fn blob_key_for_tests(state_key: &[u8]) -> Vec<u8> {
    let mut key = Vec::new();
    blob_key_into(&mut key, state_key);
    key
}

/// An exact-`countDistinct` counter (0 when absent): exactly 8 bytes LE.
fn read_u64(db: &Db, cf: ColumnFamilyId, key: &[u8]) -> Result<u64> {
    match db.get_in(cf, key, |raw| <[u8; 8]>::try_from(raw).map_err(|_| raw.len()))? {
        None => Ok(0),
        Some(Ok(b)) => Ok(u64::from_le_bytes(b)),
        Some(Err(len)) => Err(RailgunError::Corruption(format!(
            "countDistinct counter of {len} bytes, expected 8"
        ))),
    }
}

fn write_u64(db: &Db, cf: ColumnFamilyId, key: &[u8], v: u64) -> Result<()> {
    db.put(cf, key, &v.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use railgun_store::DbOptions;

    fn test_db(name: &str) -> Db {
        let dir = std::env::temp_dir().join(format!("railgun-agg-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        Db::open(&dir, DbOptions::default()).unwrap()
    }

    fn ctx<'a>(db: &'a Db, cf: ColumnFamilyId, scratch: &'a AggScratch) -> AggContext<'a> {
        AggContext::new(db, cf, b"leaf0/card-1", scratch)
    }

    fn f(v: f64) -> Value {
        Value::Float(v)
    }

    #[test]
    fn count_star_and_count_field() {
        let db = test_db("count");
        let scratch = AggScratch::default();
        let c = ctx(&db, Db::DEFAULT_CF, &scratch);
        let mut star = AggState::new(AggFunc::Count);
        star.insert(None, &c).unwrap();
        star.insert(None, &c).unwrap();
        assert_eq!(star.value(&c).unwrap(), Value::Int(2));
        star.evict(None, &c).unwrap();
        assert_eq!(star.value(&c).unwrap(), Value::Int(1));

        let mut field = AggState::new(AggFunc::Count);
        field.insert(Some(&Value::Null), &c).unwrap();
        field.insert(Some(&f(1.0)), &c).unwrap();
        assert_eq!(
            field.value(&c).unwrap(),
            Value::Int(1),
            "count(field) skips NULL"
        );
    }

    #[test]
    fn sum_avg_roundtrip() {
        let db = test_db("sumavg");
        let scratch = AggScratch::default();
        let c = ctx(&db, Db::DEFAULT_CF, &scratch);
        let mut sum = AggState::new(AggFunc::Sum);
        let mut avg = AggState::new(AggFunc::Avg);
        for x in [10.0, 20.0, 30.0] {
            sum.insert(Some(&f(x)), &c).unwrap();
            avg.insert(Some(&f(x)), &c).unwrap();
        }
        assert_eq!(sum.value(&c).unwrap(), f(60.0));
        assert_eq!(avg.value(&c).unwrap(), f(20.0));
        sum.evict(Some(&f(10.0)), &c).unwrap();
        avg.evict(Some(&f(10.0)), &c).unwrap();
        assert_eq!(sum.value(&c).unwrap(), f(50.0));
        assert_eq!(avg.value(&c).unwrap(), f(25.0));
        // Empty average is NULL.
        avg.evict(Some(&f(20.0)), &c).unwrap();
        avg.evict(Some(&f(30.0)), &c).unwrap();
        assert_eq!(avg.value(&c).unwrap(), Value::Null);
    }

    #[test]
    fn stddev_matches_naive_under_slide() {
        let db = test_db("stddev");
        let scratch = AggScratch::default();
        let c = ctx(&db, Db::DEFAULT_CF, &scratch);
        let xs: Vec<f64> = (0..100).map(|i| ((i * 37) % 41) as f64).collect();
        let mut st = AggState::new(AggFunc::StdDev);
        const W: usize = 20;
        for i in 0..xs.len() {
            st.insert(Some(&f(xs[i])), &c).unwrap();
            if i >= W {
                st.evict(Some(&f(xs[i - W])), &c).unwrap();
            }
            let start = if i >= W { i - W + 1 } else { 0 };
            let win = &xs[start..=i];
            if win.len() >= 2 {
                let mean = win.iter().sum::<f64>() / win.len() as f64;
                let var =
                    win.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
                        / (win.len() - 1) as f64;
                let expect = var.sqrt();
                let got = st.value(&c).unwrap().as_f64().unwrap();
                assert!(
                    (got - expect).abs() < 1e-6,
                    "step {i}: got {got}, expected {expect}"
                );
            }
        }
    }

    #[test]
    fn minmax_track_window() {
        let db = test_db("minmax");
        let scratch = AggScratch::default();
        let c = ctx(&db, Db::DEFAULT_CF, &scratch);
        let mut mx = AggState::new(AggFunc::Max);
        let mut mn = AggState::new(AggFunc::Min);
        for x in [5.0, 1.0, 9.0, 3.0] {
            mx.insert(Some(&f(x)), &c).unwrap();
            mn.insert(Some(&f(x)), &c).unwrap();
        }
        assert_eq!(mx.value(&c).unwrap(), f(9.0));
        assert_eq!(mn.value(&c).unwrap(), f(1.0));
        // Evict 5.0 and 1.0 (arrival order).
        for x in [5.0, 1.0] {
            mx.evict(Some(&f(x)), &c).unwrap();
            mn.evict(Some(&f(x)), &c).unwrap();
        }
        assert_eq!(mx.value(&c).unwrap(), f(9.0));
        assert_eq!(mn.value(&c).unwrap(), f(3.0));
    }

    #[test]
    fn last_and_prev() {
        let db = test_db("lastprev");
        let scratch = AggScratch::default();
        let c = ctx(&db, Db::DEFAULT_CF, &scratch);
        let mut last = AggState::new(AggFunc::Last);
        let mut prev = AggState::new(AggFunc::Prev);
        for x in [1.0, 2.0, 3.0] {
            last.insert(Some(&f(x)), &c).unwrap();
            prev.insert(Some(&f(x)), &c).unwrap();
        }
        assert_eq!(last.value(&c).unwrap(), f(3.0));
        assert_eq!(prev.value(&c).unwrap(), f(2.0));
        // Window empties entirely.
        for x in [1.0, 2.0, 3.0] {
            last.evict(Some(&f(x)), &c).unwrap();
            prev.evict(Some(&f(x)), &c).unwrap();
        }
        assert_eq!(last.value(&c).unwrap(), Value::Null);
        assert_eq!(prev.value(&c).unwrap(), Value::Null);
    }

    #[test]
    fn count_distinct_uses_aux_cf() {
        let db = test_db("distinct");
        let aux = db.create_cf("distinct-aux").unwrap();
        let scratch = AggScratch::default();
        let c = ctx(&db, aux, &scratch);
        let mut d = AggState::new(AggFunc::CountDistinct);
        for addr in ["a", "b", "a", "c", "a"] {
            d.insert(Some(&Value::Str(addr.into())), &c).unwrap();
        }
        assert_eq!(d.value(&c).unwrap(), Value::Int(3));
        // Evict one "a": still 3 distinct (two "a"s remain).
        d.evict(Some(&Value::Str("a".into())), &c).unwrap();
        assert_eq!(d.value(&c).unwrap(), Value::Int(3));
        // Evict "b": down to 2.
        d.evict(Some(&Value::Str("b".into())), &c).unwrap();
        assert_eq!(d.value(&c).unwrap(), Value::Int(2));
        // Aux CF has entries for remaining values only.
        assert!(db.scan_prefix(aux, &[]).unwrap().len() == 2);
    }

    #[test]
    fn distinct_states_do_not_collide_across_keys() {
        let db = test_db("distinct-iso");
        let aux = db.create_cf("aux").unwrap();
        let scratch = AggScratch::default();
        let c1 = AggContext::new(&db, aux, b"leaf0/cardA", &scratch);
        let c2 = AggContext::new(&db, aux, b"leaf0/cardB", &scratch);
        let mut d1 = AggState::new(AggFunc::CountDistinct);
        let mut d2 = AggState::new(AggFunc::CountDistinct);
        d1.insert(Some(&Value::Str("x".into())), &c1).unwrap();
        d2.insert(Some(&Value::Str("x".into())), &c2).unwrap();
        d1.evict(Some(&Value::Str("x".into())), &c1).unwrap();
        assert_eq!(d1.value(&c1).unwrap(), Value::Int(0));
        assert_eq!(d2.value(&c2).unwrap(), Value::Int(1), "cardB unaffected by cardA");
    }

    #[test]
    fn all_states_encode_decode() {
        let db = test_db("codec");
        let scratch = AggScratch::default();
        // One state key per func: sketch-backed states cache their blob
        // under the context's state key, so sharing one across kinds
        // would (correctly) trip the kind-mismatch check.
        for (i, func) in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::StdDev,
            AggFunc::Max,
            AggFunc::Min,
            AggFunc::Last,
            AggFunc::Prev,
            AggFunc::CountDistinct,
            AggFunc::ApproxCountDistinct { err_bp: 200 },
            AggFunc::TopK { k: 3 },
            AggFunc::Percentile { rank_bp: 9900 },
        ]
        .into_iter()
        .enumerate()
        {
            let key = format!("leaf{i}/k");
            let c = AggContext::new(&db, Db::DEFAULT_CF, key.as_bytes(), &scratch);
            let mut s = AggState::new(func);
            for x in [4.0, 2.0, 7.0] {
                s.insert(Some(&f(x)), &c).unwrap();
            }
            let mut buf = Vec::new();
            s.encode(&mut buf);
            let back = AggState::decode(&buf).unwrap();
            assert_eq!(s, back, "{func:?}");
            assert_eq!(s.value(&c).unwrap(), back.value(&c).unwrap());
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(AggState::decode(&[]).is_err());
        assert!(AggState::decode(&[200]).is_err());
    }

    #[test]
    fn rows_that_cached_sketch_values_decode_and_reencode_empty() {
        let unhex = |s: &str| -> Vec<u8> {
            (0..s.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
                .collect()
        };
        // A row as written while rows cached each sketch leaf's value:
        // leaf 0 a sum of 2.5, leaf 1 an approx distinct count at 2%
        // caching 3, leaf 2 a top-5 caching `m1=3,7=1`, leaf 3 a p99
        // caching 99.5.
        const CACHED: &str = "00020000000000000440010a06c801020b050205026d3106030e02030cac4d0100\
            00000000e05840";
        // The same slots now: the same layout, each cached part empty.
        const EMPTY: &str = "00020000000000000440010a00c801020b0500030cac4d00";
        let want = vec![
            (0, AggState::Sum { sum: 2.5 }),
            (1, AggState::ApproxDistinct { err_bp: 200 }),
            (2, AggState::TopK { k: 5 }),
            (3, AggState::Percentile { rank_bp: 9900 }),
        ];
        for hex in [CACHED, EMPTY] {
            let mut slots = Vec::new();
            decode_row(&unhex(hex), &mut slots).unwrap();
            assert_eq!(slots, want, "{hex}");
            let mut row = Vec::new();
            for (leaf, state) in &slots {
                encode_slot(&mut row, *leaf, state);
            }
            assert_eq!(row, unhex(EMPTY));
        }
        // A cached topK longer than its k stays corruption.
        assert!(AggState::decode(&unhex("0b010205026d3106030e02")).is_err());
    }

    #[test]
    fn approx_distinct_is_exact_at_small_cardinality() {
        let db = test_db("approx-small");
        let aux = db.create_cf("distinct-aux").unwrap();
        let scratch = AggScratch::default();
        let c = ctx(&db, aux, &scratch);
        let mut d = AggState::new(AggFunc::ApproxCountDistinct { err_bp: 200 });
        for addr in ["a", "b", "a", "c", "a", "b"] {
            d.insert(Some(&Value::Str(addr.into())), &c).unwrap();
        }
        // Linear counting makes tiny cardinalities exact.
        assert_eq!(d.value(&c).unwrap(), Value::Int(3));
    }

    #[test]
    fn topk_reports_heaviest_first() {
        let db = test_db("topk-state");
        let aux = db.create_cf("distinct-aux").unwrap();
        let scratch = AggScratch::default();
        let c = ctx(&db, aux, &scratch);
        let mut t = AggState::new(AggFunc::TopK { k: 2 });
        for (name, n) in [("a", 5), ("b", 9), ("c", 2)] {
            for _ in 0..n {
                t.insert(Some(&Value::Str(name.into())), &c).unwrap();
            }
        }
        assert_eq!(t.value(&c).unwrap(), Value::Str("b=9,a=5".into()));
    }

    #[test]
    fn percentile_tracks_the_distribution() {
        let db = test_db("pct-state");
        let aux = db.create_cf("distinct-aux").unwrap();
        let scratch = AggScratch::default();
        let c = ctx(&db, aux, &scratch);
        let mut p = AggState::new(AggFunc::Percentile { rank_bp: 5000 });
        for i in 0..101 {
            p.insert(Some(&f(f64::from(i))), &c).unwrap();
        }
        assert_eq!(p.value(&c).unwrap(), f(50.0));
    }

    #[test]
    fn sliding_sketch_expires_whole_panes() {
        let db = test_db("approx-slide");
        let aux = db.create_cf("distinct-aux").unwrap();
        let scratch = AggScratch::default();
        let mut d = AggState::new(AggFunc::ApproxCountDistinct { err_bp: 200 });
        // 80ms window → 10ms panes. 8 distinct values, one per pane.
        for i in 0..8i64 {
            let c = ctx(&db, aux, &scratch).windowed(i * 10, i * 10 - 80, 80);
            d.insert(Some(&Value::Int(i)), &c).unwrap();
        }
        let c = ctx(&db, aux, &scratch).windowed(70, -10, 80);
        assert_eq!(d.value(&c).unwrap(), Value::Int(8));
        // Window advances: everything below 40ms expires (4 panes die).
        let c = ctx(&db, aux, &scratch).windowed(110, 40, 80);
        d.evict(Some(&Value::Int(0)), &c).unwrap();
        assert_eq!(d.value(&c).unwrap(), Value::Int(4));
    }

    #[test]
    fn sliding_sketch_prunes_on_insert_after_a_quiet_spell() {
        let db = test_db("approx-quiet");
        let aux = db.create_cf("distinct-aux").unwrap();
        let scratch = AggScratch::default();
        let mut d = AggState::new(AggFunc::ApproxCountDistinct { err_bp: 200 });
        for i in 0..8i64 {
            let c = ctx(&db, aux, &scratch).windowed(i * 10, i * 10 - 80, 80);
            d.insert(Some(&Value::Int(i)), &c).unwrap();
        }
        let c = ctx(&db, aux, &scratch).windowed(70, -10, 80);
        assert_eq!(d.value(&c).unwrap(), Value::Int(8));
        // The window moves far past every pane while this key sees no
        // eviction (its expiring events fell to the late policy, say);
        // the next insert must not report the long-gone panes.
        let c = ctx(&db, aux, &scratch).windowed(1_000, 920, 80);
        d.insert(Some(&Value::Int(99)), &c).unwrap();
        assert_eq!(d.value(&c).unwrap(), Value::Int(1));
    }

    #[test]
    fn a_read_leaves_a_sketch_clean_unless_its_prune_drops_a_pane() {
        // A flush writes what changed. Each insert used to mark its sketch
        // dirty; a reply's read of an unchanged sketch must not.
        let db = test_db("sketch-dirty");
        let aux = db.create_cf("distinct-aux").unwrap();
        let scratch = AggScratch::default();
        let mut d = AggState::new(AggFunc::ApproxCountDistinct { err_bp: 200 });
        // An 80 ms window: 10 ms panes, one value in each of 8.
        let at = |ts: i64| ctx(&db, aux, &scratch).windowed(ts, ts - 80, 80);
        for i in 0..8i64 {
            d.insert(Some(&Value::Int(i)), &at(i * 10)).unwrap();
        }
        scratch.flush(&db, aux).unwrap();
        let key = blob_key_for_tests(b"leaf0/card-1");
        let stored = || db.get(aux, &key).unwrap().expect("flushed");
        db.put(aux, &key, b"marker").unwrap();
        assert_eq!(d.value(&at(75)).unwrap(), Value::Int(8));
        scratch.flush(&db, aux).unwrap();
        assert_eq!(stored(), b"marker", "a read that dropped no pane is not written");
        // The window's lower bound reaches 25: panes [0, 10) and [10, 20)
        // die on this read, and the next flush writes the pruned sketch.
        assert_eq!(d.value(&at(105)).unwrap(), Value::Int(6));
        scratch.flush(&db, aux).unwrap();
        assert_ne!(stored(), b"marker");
    }

    #[test]
    fn sketch_cache_flushes_and_reloads() {
        // Past m/8 registers set, the flushed state is one blob of the
        // same size whatever it counted (6 160 B of key + value at 2%);
        // below, it is sparse and smaller. The estimate is inside the
        // configured error — linear counting makes 50 exact.
        for n in [50i64, 10_000, 1_000_000] {
            let db = test_db(&format!("sketch-flush-{n}"));
            let aux = db.create_cf("distinct-aux").unwrap();
            let scratch = AggScratch::default();
            let mut d = AggState::new(AggFunc::ApproxCountDistinct { err_bp: 200 });
            let c = AggContext::new(&db, aux, b"leaf0/entity0", &scratch);
            for i in 0..n {
                d.insert(Some(&Value::Int(i)), &c).unwrap();
            }
            assert!(
                db.scan_prefix(aux, &[]).unwrap().is_empty(),
                "no store traffic before flush"
            );
            scratch.flush(&db, aux).unwrap();
            let blobs = db.scan_prefix(aux, &[]).unwrap();
            assert_eq!(blobs.len(), 1, "one blob per (leaf, entity)");
            let size = blobs[0].0.len() + blobs[0].1.len();
            if n == 50 {
                // `[tag, p | sparse flag, ..]`
                assert_ne!(blobs[0].1[1] & 0x80, 0, "50 values are sparse");
                assert!(size < 6_160, "n={n}: {size} B");
            } else {
                assert_eq!(size, 6_160, "n={n}");
            }
            let est = d.value(&c).unwrap().as_i64().unwrap();
            let err = (est - n).abs() as f64 / n as f64;
            assert!(err <= 0.02, "n={n}: estimate {est} is {:.2}% off", err * 100.0);
            assert!(n > 50 || est == n, "small cardinality is exact");
            // A brand-new scratch (fresh task) reloads the flushed sketch.
            let scratch2 = AggScratch::default();
            let c2 = AggContext::new(&db, aux, b"leaf0/entity0", &scratch2);
            d.insert(Some(&Value::Int(0)), &c2).unwrap();
            assert_eq!(d.value(&c2).unwrap(), Value::Int(est), "estimate survives reload");
        }
    }

    #[test]
    fn a_sliding_sketch_of_twenty_values_flushes_under_a_kilobyte() {
        // 200 events over a 5-min window (8 panes), cycling through 20
        // values: eight dense panes made this ≈ 49 KB.
        let db = test_db("sketch-sparse-slide");
        let aux = db.create_cf("distinct-aux").unwrap();
        let scratch = AggScratch::default();
        let mut d = AggState::new(AggFunc::ApproxCountDistinct { err_bp: 200 });
        const W: i64 = 300_000;
        for i in 0..200i64 {
            let ts = i * 1_500;
            let c = ctx(&db, aux, &scratch).windowed(ts, ts - W, W);
            d.insert(Some(&Value::Int(i % 20)), &c).unwrap();
        }
        let last = 199 * 1_500;
        let c = ctx(&db, aux, &scratch).windowed(last, last - W, W);
        assert_eq!(d.value(&c).unwrap(), Value::Int(20));
        scratch.flush(&db, aux).unwrap();
        let blobs = db.scan_prefix(aux, &[]).unwrap();
        let size = blobs[0].0.len() + blobs[0].1.len();
        assert!(size < 1024, "{size} B");
    }

    #[test]
    fn a_malformed_distinct_counter_is_corruption() {
        // A short counter used to panic the worker; a long one lost its
        // extra bytes silently.
        let db = test_db("distinct-bad-counter");
        let aux = db.create_cf("distinct-aux").unwrap();
        let scratch = AggScratch::default();
        let c = ctx(&db, aux, &scratch);
        let v = Value::Str("a".into());
        let mut key = Vec::new();
        aux_key_into(&mut key, c.state_key, &v);
        for len in [3usize, 9] {
            db.put(aux, &key, &vec![1u8; len]).unwrap();
            let mut d = AggState::new(AggFunc::CountDistinct);
            let want = format!("countDistinct counter of {len} bytes, expected 8");
            match d.insert(Some(&v), &c) {
                Err(RailgunError::Corruption(m)) => assert_eq!(m, want),
                other => panic!("insert over {len} B: {other:?}"),
            }
            match d.evict(Some(&v), &c) {
                Err(RailgunError::Corruption(m)) => assert_eq!(m, want),
                other => panic!("evict over {len} B: {other:?}"),
            }
        }
    }

    #[test]
    fn nulls_are_ignored_by_value_aggs() {
        let db = test_db("nulls");
        let scratch = AggScratch::default();
        let c = ctx(&db, Db::DEFAULT_CF, &scratch);
        for func in [AggFunc::Sum, AggFunc::Avg, AggFunc::Max, AggFunc::Min] {
            let mut s = AggState::new(func);
            s.insert(Some(&Value::Null), &c).unwrap();
            s.evict(Some(&Value::Null), &c).unwrap();
            // Still pristine.
            assert_eq!(s, AggState::new(func), "{func:?}");
        }
    }
}
