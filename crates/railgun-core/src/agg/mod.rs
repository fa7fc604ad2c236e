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
//!   (leaf, entity) in the same column family ([`sketch`]).
//!
//! Rows and sketches live decoded in the task's state cache
//! ([`AggScratch`]) between checkpoints; the store sees one only when the
//! cache evicts it or a checkpoint writes everything back.

pub mod deque;
pub mod sketch;

use std::cell::RefCell;
use std::hash::Hasher;
use std::mem::size_of;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use bytes::Buf;
use railgun_store::{ColumnFamilyId, Db};
use railgun_types::encode::{
    get_ivarint, get_uvarint, get_value, put_ivarint, put_uvarint, put_value,
};
use railgun_types::hash::{FastHashMap, FxHasher};
use railgun_types::{RailgunError, Result, Value};

use crate::lang::AggFunc;
use crate::metrics::SharedTaskStats;
use deque::{max_keeps, min_keeps, MinMaxDeque};
use sketch::{SketchKind, SketchState};

/// Bytes of decoded state one task keeps in memory, as [`AggScratch`]
/// counts them. A task whose keys outnumber it holds all of it, so it is
/// what the cache adds to the heap per task: in a sweep of 256–512 KiB,
/// 384 KiB bought `wide_plan` most of the throughput 512 KiB did while
/// holding `cold_window`'s heap (four tasks of 12 500 cards) to about +7%.
pub(crate) const STATE_CACHE_BYTES: usize = 384 << 10;

/// Per-task scratch shared by every aggregator the task drives — reusable
/// key and rank buffers (no per-event allocation on the aux paths) — and
/// the task's one **state cache**: decoded group rows (under their row
/// key) and sketches (under their leaf's state key) in one ring with a
/// byte budget and per-entry CLOCK eviction.
///
/// An update changes the cached state in place and marks it dirty; the
/// store sees it only when the cache evicts it (written back on its own:
/// a row to the default CF, a sketch to its aux-CF blob) or when
/// [`AggScratch::write_back`] runs before a checkpoint or a dead-state
/// reclaim. Crash safety is unaffected: recovery always starts from a
/// checkpoint image (written after a write-back) or from an empty store
/// with a full ordered replay, and the kernels are deterministic under
/// replay, so both arms converge (pinned by `tests/crash_recovery.rs`).
///
/// The budget counts an entry's heap close to what it holds (key, slots,
/// deques, sketch buffers, allocator headers); the cache keeps at most one
/// entry beyond it. Hits, reads on a miss and write-backs count into the
/// owning task's [`SharedTaskStats`].
pub struct AggScratch {
    /// Reusable aux/blob key buffer (the exact path's per-event
    /// `aux_key` allocation removed).
    key_buf: RefCell<Vec<u8>>,
    /// Reusable per-level cursors for quantile estimates.
    rank_buf: RefCell<Vec<usize>>,
    cache: RefCell<StateCache>,
}

impl Default for AggScratch {
    fn default() -> Self {
        Self::new(STATE_CACHE_BYTES, Arc::default())
    }
}

/// Where write-backs go: the store and its aux CF.
type Store<'a> = (&'a Db, ColumnFamilyId);

/// One cached state.
enum Cached {
    /// A group's row, its slots as [`decode_row`] gives them.
    Row(Vec<(u32, AggState)>),
    /// Boxed: a row entry then costs less than half the bytes.
    Sketch(Box<SketchState>),
}

struct Entry {
    /// [`key_hash`] of `key`: where the index files the entry.
    hash: u64,
    key: Vec<u8>,
    state: Cached,
    /// What the budget counts for the entry.
    bytes: usize,
    /// Changed since the store last saw it.
    dirty: bool,
    /// CLOCK credit: hand passes the entry survives, set by an update (a
    /// reply's read right after an update is no second use) to about what
    /// its miss costs: a sketch, whose blob decodes and encodes whole,
    /// two; a row one.
    credit: u8,
}

/// Heap bytes an entry costs beyond its buffers' capacity: itself, its
/// index slot and the allocator's headers of its key and state.
const ENTRY_BYTES: usize = size_of::<Entry>() + 16 + 32;

impl Entry {
    fn heap_bytes(&self) -> usize {
        ENTRY_BYTES
            + self.key.capacity()
            + match &self.state {
                Cached::Row(slots) => {
                    slots.capacity() * size_of::<(u32, AggState)>()
                        + slots.iter().map(|(_, s)| s.heap_bytes()).sum::<usize>()
                }
                Cached::Sketch(sketch) => size_of::<SketchState>() + sketch.heap_bytes(),
            }
    }
}

#[derive(Default)]
struct StateCache {
    budget: usize,
    /// Sum of the entries' `bytes`.
    bytes: usize,
    entries: Vec<Entry>,
    /// Entry position by hash. Two keys of one hash never share the
    /// cache: the second evicts the first.
    index: FastHashMap<u64, u32>,
    /// The CLOCK hand.
    hand: usize,
    /// Encode buffer and aux key of a write-back.
    buf: Vec<u8>,
    blob_key: Vec<u8>,
    stats: Arc<SharedTaskStats>,
}

/// The index hash of a row key or, with `sketch`, a leaf's state key (the
/// two share a key space).
fn key_hash(key: &[u8], sketch: bool) -> u64 {
    let mut h = FxHasher::default();
    h.write_u8(sketch as u8);
    h.write(key);
    h.finish()
}

impl StateCache {
    /// The position of the entry under `key` (checked at `hint` first,
    /// without hashing), credited if `update`.
    fn find(&mut self, key: &[u8], sketch: bool, hint: usize, update: bool) -> Option<usize> {
        let is = |e: &Entry| e.key == key && matches!(e.state, Cached::Sketch(_)) == sketch;
        let at = match self.entries.get(hint).filter(|e| is(e)) {
            Some(_) => hint,
            None => {
                let hash = key_hash(key, sketch);
                let at = *self.index.get(&hash)? as usize;
                is(&self.entries[at]).then_some(at)?
            }
        };
        if update {
            self.entries[at].credit = 1 + sketch as u8;
        }
        Some(at)
    }

    /// A position for a new entry filed under `hash`: a new one while the
    /// budget has room, else the entry of the same hash or the CLOCK's
    /// victim, written back first. Its buffers stay for the caller to
    /// reuse; a failed write-back leaves it as it was.
    fn claim(&mut self, hash: u64, store: Store<'_>) -> Result<usize> {
        let at = match self.index.get(&hash) {
            Some(&at) => at as usize,
            None if self.bytes < self.budget || self.entries.is_empty() => {
                let (key, state) = (Vec::new(), Cached::Row(Vec::new()));
                self.entries.push(Entry { hash, key, state, bytes: 0, dirty: false, credit: 0 });
                self.index.insert(hash, self.entries.len() as u32 - 1);
                return Ok(self.entries.len() - 1);
            }
            None => self.victim(usize::MAX),
        };
        self.write_back(at, store)?;
        let e = &mut self.entries[at];
        self.index.remove(&e.hash);
        self.index.insert(hash, at as u32);
        self.bytes -= std::mem::take(&mut e.bytes);
        (e.hash, e.credit) = (hash, 0);
        Ok(at)
    }

    /// The next entry other than `keep` without credit, taking one from
    /// each entry the hand passes over.
    fn victim(&mut self, keep: usize) -> usize {
        loop {
            let at = self.hand % self.entries.len();
            self.hand = at + 1;
            match &mut self.entries[at].credit {
                _ if at == keep => {}
                0 => return at,
                credit => *credit -= 1,
            }
        }
    }

    /// Write entry `at` to the store if it is dirty; a failure leaves it
    /// dirty.
    fn write_back(&mut self, at: usize, (db, aux_cf): Store<'_>) -> Result<()> {
        let e = &mut self.entries[at];
        if !e.dirty {
            return Ok(());
        }
        self.buf.clear();
        match &e.state {
            Cached::Row(slots) => {
                for (leaf, state) in slots {
                    encode_slot(&mut self.buf, *leaf, state);
                }
                db.put(Db::DEFAULT_CF, &e.key, &self.buf)?;
            }
            Cached::Sketch(sketch) => {
                sketch.encode(&mut self.buf);
                blob_key_into(&mut self.blob_key, &e.key);
                db.put(aux_cf, &self.blob_key, &self.buf)?;
            }
        }
        e.dirty = false;
        self.stats.state_writes.fetch_add(1, Relaxed);
        Ok(())
    }

    /// Drop entry `at` unwritten; the last entry takes its position.
    fn remove(&mut self, at: usize) {
        let e = self.entries.swap_remove(at);
        self.index.remove(&e.hash);
        self.bytes -= e.bytes;
        if let Some(moved) = self.entries.get(at) {
            self.index.insert(moved.hash, at as u32);
        }
    }

    /// Count entry `at` anew after a touch, then evict others (written
    /// back) until the rest fit the budget. Returns `at`'s position.
    fn settle(&mut self, mut at: usize, store: Store<'_>) -> Result<usize> {
        let bytes = self.entries[at].heap_bytes();
        self.bytes = self.bytes + bytes - std::mem::replace(&mut self.entries[at].bytes, bytes);
        while self.bytes - self.entries[at].bytes > self.budget {
            let victim = self.victim(at);
            self.write_back(victim, store)?;
            if at == self.entries.len() - 1 {
                at = victim;
            }
            self.remove(victim);
        }
        self.stats.state_cache_bytes.store(self.bytes as u64, Relaxed);
        Ok(at)
    }
}

impl AggScratch {
    /// A scratch whose cache holds `budget` bytes (0 holds one entry),
    /// counting into `stats`.
    pub(crate) fn new(budget: usize, stats: Arc<SharedTaskStats>) -> Self {
        let cache = StateCache { budget, stats, ..StateCache::default() };
        AggScratch {
            key_buf: RefCell::default(),
            rank_buf: RefCell::default(),
            cache: RefCell::new(cache),
        }
    }

    /// Run `f` on the state cached under `key` (a row, or with `sketch` a
    /// sketch), `load`ing it on a miss into the buffers of the entry it
    /// replaces. `hint` is where the entry was last found; it is set to
    /// where it is. `f` also says whether it changed the state (only then,
    /// or after a load, is the entry counted anew). An `f` or a `load`
    /// that fails drops the entry unwritten: a torn update never reaches
    /// the store.
    #[allow(clippy::too_many_arguments)]
    fn touch<R>(
        &self,
        store: Store<'_>,
        key: &[u8],
        sketch: bool,
        hint: &mut usize,
        update: bool,
        load: impl FnOnce(&mut Cached) -> Result<()>,
        f: impl FnOnce(&mut Cached) -> Result<(R, bool)>,
    ) -> Result<R> {
        // Only a sketch state in a slot of a row being touched comes back
        // here while the cache is in use: a row its leaf could not write.
        let cache = &mut *self.cache.try_borrow_mut().map_err(|_| {
            RailgunError::Corruption("a row slot holds a sketch its leaf does not have".into())
        })?;
        let found = cache.find(key, sketch, *hint, update);
        let at = match found {
            Some(at) => {
                cache.stats.state_cache_hits.fetch_add(1, Relaxed);
                at
            }
            None => {
                let at = cache.claim(key_hash(key, sketch), store)?;
                cache.stats.state_reads.fetch_add(1, Relaxed);
                let e = &mut cache.entries[at];
                e.key.clear();
                e.key.extend_from_slice(key);
                if let Err(err) = load(&mut e.state) {
                    cache.remove(at);
                    return Err(err);
                }
                at
            }
        };
        match f(&mut cache.entries[at].state) {
            Ok((out, changed)) => {
                cache.entries[at].dirty |= changed;
                *hint = match changed || found.is_none() {
                    true => cache.settle(at, store)?,
                    false => at,
                };
                Ok(out)
            }
            Err(err) => {
                cache.remove(at);
                Err(err)
            }
        }
    }

    /// Run `f` on the slots of the group row under `key`, loading it from
    /// the default CF on a miss; `hint` as for [`AggScratch::touch`].
    /// With `update` the row is marked dirty.
    pub(crate) fn with_row<R>(
        &self,
        store: Store<'_>,
        key: &[u8],
        hint: &mut usize,
        update: bool,
        f: impl FnOnce(&mut Vec<(u32, AggState)>) -> Result<R>,
    ) -> Result<R> {
        let load = |state: &mut Cached| {
            if let Cached::Sketch(_) = state {
                *state = Cached::Row(Vec::new());
            }
            let Cached::Row(slots) = state else { unreachable!() };
            // (Decoded into the replaced entry's slots, reusing its deques.)
            match store.0.get_in(Db::DEFAULT_CF, key, |raw| decode_row(raw, slots))? {
                Some(decoded) => decoded,
                None => {
                    slots.clear();
                    Ok(())
                }
            }
        };
        self.touch(store, key, false, hint, update, load, |state| match state {
            Cached::Row(slots) => Ok((f(slots)?, update)),
            Cached::Sketch(_) => unreachable!(),
        })
    }

    /// Run `f` against the live sketch for `ctx.state_key`, loading its
    /// blob from the aux CF (or creating a fresh sketch) on a miss. Panes
    /// the window has left are pruned first, on every touch: they age
    /// with the window, not with the entity's traffic. The sketch is
    /// marked dirty only if the prune changed it or `f` is an `insert`: a
    /// read leaves an unchanged sketch clean.
    fn with_sketch<R>(
        &self,
        ctx: &AggContext<'_>,
        kind: SketchKind,
        insert: bool,
        f: impl FnOnce(&mut SketchState, &AggScratch) -> Result<R>,
    ) -> Result<R> {
        let sliding = ctx.window_ms > 0;
        let load = |state: &mut Cached| {
            let mut key = self.key_buf.borrow_mut();
            blob_key_into(&mut key, ctx.state_key);
            let sketch = match ctx.db.get(ctx.aux_cf, &key)? {
                Some(raw) => SketchState::decode(&mut raw.as_slice())?,
                None => SketchState::new(
                    kind,
                    sliding.then(|| (ctx.window_ms / sketch::NPANES).max(1)),
                ),
            };
            if !sketch.matches(kind, sliding) {
                return Err(RailgunError::Corruption(
                    "sketch blob does not match leaf parameters".into(),
                ));
            }
            *state = Cached::Sketch(Box::new(sketch));
            Ok(())
        };
        let (store, mut hint) = ((ctx.db, ctx.aux_cf), usize::MAX);
        self.touch(store, ctx.state_key, true, &mut hint, insert, load, |state| {
            let Cached::Sketch(sketch) = state else { unreachable!() };
            let changed = sketch.prune(ctx.window_lower_ms) | insert;
            Ok((f(sketch, self)?, changed))
        })
    }

    /// Write every dirty entry back to the store: before a checkpoint
    /// image, so it holds the current state, and before a dead-state
    /// reclaim. An entry whose write fails stays dirty and fails the
    /// call.
    pub fn write_back(&self, db: &Db, aux_cf: ColumnFamilyId) -> Result<()> {
        let cache = &mut *self.cache.borrow_mut();
        (0..cache.entries.len()).try_for_each(|at| cache.write_back(at, (db, aux_cf)))
    }

    /// Drop the cached sketches whose (leaf) state key starts with
    /// `prefix`, unwritten (query unregistration: the store-side blobs fall
    /// out of the aux CF's filtered compaction, and a write-back must not
    /// bring them back).
    pub(crate) fn drop_sketches(&self, prefix: &[u8]) {
        let cache = &mut *self.cache.borrow_mut();
        let mut at = 0;
        while let Some(e) = cache.entries.get(at) {
            match matches!(e.state, Cached::Sketch(_)) && e.key.starts_with(prefix) {
                true => cache.remove(at),
                false => at += 1,
            }
        }
    }

    /// Empty the cache, unwritten (after a [`AggScratch::write_back`]).
    pub(crate) fn clear(&self) {
        let cache = &mut *self.cache.borrow_mut();
        (cache.bytes, cache.hand) = (0, 0);
        cache.entries.clear();
        cache.index.clear();
        cache.stats.state_cache_bytes.store(0, Relaxed);
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
    /// Per-task scratch buffers and the state cache.
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
    /// state cache or the aux CF), prunes it to `ctx`'s window and
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

    /// Heap bytes the state holds beyond itself (a min/max deque's).
    fn heap_bytes(&self) -> usize {
        match self {
            AggState::Max { deque } | AggState::Min { deque } => deque.heap_bytes(),
            _ => 0,
        }
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
        // A write-back writes what changed. Each insert used to mark its sketch
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
        scratch.write_back(&db, aux).unwrap();
        let key = blob_key_for_tests(b"leaf0/card-1");
        let stored = || db.get(aux, &key).unwrap().expect("flushed");
        db.put(aux, &key, b"marker").unwrap();
        assert_eq!(d.value(&at(75)).unwrap(), Value::Int(8));
        scratch.write_back(&db, aux).unwrap();
        assert_eq!(stored(), b"marker", "a read that dropped no pane is not written");
        // The window's lower bound reaches 25: panes [0, 10) and [10, 20)
        // die on this read, and the next write-back writes the pruned sketch.
        assert_eq!(d.value(&at(105)).unwrap(), Value::Int(6));
        scratch.write_back(&db, aux).unwrap();
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
            scratch.write_back(&db, aux).unwrap();
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
        scratch.write_back(&db, aux).unwrap();
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

    /// The cache's books balance: `bytes` is the sum of its entries', each
    /// counted as it stands, the index files every entry at its position,
    /// and the accounted bytes exceed the budget by at most one entry.
    fn check_books(scratch: &AggScratch) {
        let cache = scratch.cache.borrow();
        let largest = cache.entries.iter().map(|e| e.bytes).max().unwrap_or(0);
        let (bytes, budget) = (cache.bytes, cache.budget);
        assert!(bytes <= budget.saturating_add(largest), "{bytes} B > {budget} + {largest}");
        assert_eq!(bytes, cache.entries.iter().map(|e| e.bytes).sum::<usize>());
        assert_eq!(cache.index.len(), cache.entries.len());
        for (at, e) in cache.entries.iter().enumerate() {
            assert_eq!(cache.index[&e.hash] as usize, at);
            assert_eq!(e.bytes, e.heap_bytes());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Whatever its budget, the state cache keeps within it but for one
        /// entry, and what it writes back is what a cache that never
        /// evicts writes: the same rows (a sum and a max per key) and the
        /// same sketches (a distinct count under the same key bytes as the
        /// row, which the cache keeps apart).
        #[test]
        fn the_state_cache_keeps_its_budget_and_writes_what_it_was_given(
            budget in 0usize..12_000,
            ops in proptest::collection::vec((0u8..24, proptest::prelude::any::<bool>(), -40i64..40), 1..160),
        ) {
            use proptest::prelude::*;
            let dbs = [test_db("cache-budget-small"), test_db("cache-budget-all")];
            let aux: Vec<_> = dbs.iter().map(|db| db.create_cf("aux").unwrap()).collect();
            let scratches = [AggScratch::new(budget, Arc::default()), AggScratch::new(usize::MAX, Arc::default())];
            let mut hints = [usize::MAX; 2];
            for (card, sketch, x) in ops {
                let key = format!("card-{card}");
                let v = Value::Int(x);
                let mut seen = Vec::new();
                for (i, scratch) in scratches.iter().enumerate() {
                    let ctx = AggContext::new(&dbs[i], aux[i], key.as_bytes(), scratch);
                    let value = match sketch {
                        true => {
                            let mut d = AggState::new(AggFunc::ApproxCountDistinct { err_bp: 200 });
                            d.insert(Some(&v), &ctx).unwrap();
                            d.value(&ctx).unwrap()
                        }
                        false => scratch
                            .with_row((&dbs[i], aux[i]), key.as_bytes(), &mut hints[i], true, |slots| {
                                if slots.is_empty() {
                                    slots.push((0, AggState::new(AggFunc::Sum)));
                                    slots.push((1, AggState::new(AggFunc::Max)));
                                }
                                for (_, state) in slots.iter_mut() {
                                    state.insert(Some(&v), &ctx)?;
                                }
                                slots[0].1.value(&ctx)
                            })
                            .unwrap(),
                    };
                    seen.push(value);
                    check_books(scratch);
                }
                prop_assert_eq!(&seen[0], &seen[1]);
            }
            for (i, scratch) in scratches.iter().enumerate() {
                scratch.write_back(&dbs[i], aux[i]).unwrap();
            }
            for cf in [Db::DEFAULT_CF, aux[0]] {
                prop_assert_eq!(dbs[0].scan_prefix(cf, &[]).unwrap(), dbs[1].scan_prefix(cf, &[]).unwrap());
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
