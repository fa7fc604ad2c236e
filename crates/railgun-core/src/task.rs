//! Task processors (paper §4.1).
//!
//! A task processor computes **all metrics of one (topic, partition)**. It
//! owns, share-nothing: an event reservoir, a state store, and the task
//! plan DAG. Everything runs on the processor unit's single thread.
//!
//! ## Window mechanics
//!
//! Evaluation is event-driven: a new event with timestamp `T` evaluates
//! every window at `T_eval = T + 1ms` (the "moment right after" the event,
//! §2). Per window, with size `ws` and delay `d`:
//!
//! * `upper = T + 1 − d`, `lower = upper − ws`;
//! * the **tail** cursor advances to `lower`, yielding expiring events;
//! * the **head** cursor advances to `upper`, yielding entering events
//!   (the arriving event itself for plain sliding windows; older events
//!   crossing the delayed boundary for `delayed by` windows; historic
//!   events during metric backfill);
//! * an arriving event already *behind* the head bound but inside the
//!   window (a late event) is inserted directly — the reservoir guarantees
//!   the head cursor skipped it, so it enters exactly once.
//!
//! The tail-side contract with the reservoir (see
//! `railgun-reservoir::reservoir` docs) guarantees every inserted event is
//! yielded for eviction exactly once, so incremental aggregators stay
//! exact.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use railgun_reservoir::{AppendOutcome, Cursor, Reservoir, ReservoirConfig};
use railgun_store::{CfOptions, ColumnFamilyId, Db, DbOptions, RealFs, StoreFs};
use railgun_types::{
    Counter, Event, RailgunError, Result, Schema, TimeDelta, Timestamp, Value,
};

use crate::agg::{decode_row, encode_slot, AggContext, AggScratch, AggState, STATE_CACHE_BYTES};
use crate::api::{
    decode_reply, put_reply_entity, put_reply_head, put_reply_header, AggregationResult, QueryId,
};
use crate::horizon::{AuxKeyFilter, StateHorizon, StateKeyFilter};
use crate::keys::{id_prefix, set_prefix, state_key_into};
use crate::lang::{Query, WindowKind, WindowSpec};
use crate::metrics::{SharedTaskStats, TaskStatsRegistry};
use crate::plan::{GroupId, LeafId, MetricHandle, Plan, WindowId};

/// Tuning for a task processor.
#[derive(Debug, Clone)]
pub struct TaskConfig {
    pub reservoir: ReservoirConfig,
    pub store: DbOptions,
    /// Run reservoir truncation every this many events (0 = never).
    pub truncate_every: u64,
    /// Extra retention beyond the largest window (safety margin).
    pub retention_margin: TimeDelta,
    /// Registry new task processors publish their [`SharedTaskStats`] to,
    /// making [`TaskStats`] reachable cluster-wide (even while the
    /// threaded runtime owns the processors). The default is a private
    /// registry per config; the cluster injects its shared one.
    pub stats_registry: TaskStatsRegistry,
    /// Bumped when [`TaskProcessor::restore_or_replay`] rejects a missing,
    /// partial or corrupt checkpoint and falls back to a full topic replay.
    /// Disabled by default; the cluster injects its telemetry counter.
    pub checkpoint_fallbacks: Counter,
}

impl Default for TaskConfig {
    fn default() -> Self {
        TaskConfig {
            reservoir: ReservoirConfig::default(),
            store: DbOptions::default(),
            truncate_every: 4096,
            retention_margin: TimeDelta::from_minutes(1),
            stats_registry: TaskStatsRegistry::default(),
            checkpoint_fallbacks: Counter::disabled(),
        }
    }
}

/// How [`TaskProcessor::restore_or_replay`] recovered a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreOutcome {
    /// The checkpoint image was complete, opened and matched the plan: the
    /// caller only replays events from the checkpoint's recorded offset
    /// onward.
    FromCheckpoint,
    /// The checkpoint was missing, partial or corrupt, or written under
    /// another plan numbering: the task started empty and the caller must
    /// replay the topic from the beginning.
    FullReplay,
}

/// Monotonic counters for one task processor (a point-in-time snapshot
/// of its [`SharedTaskStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskStats {
    pub events_processed: u64,
    pub duplicates: u64,
    pub late_dropped: u64,
    pub inserts: u64,
    pub evictions: u64,
    /// Store reads of the state cache's misses (a group row or a sketch
    /// blob).
    pub state_reads: u64,
    /// The state cache's write-backs: of an evicted dirty entry, or of
    /// every dirty entry before a checkpoint or a dead-state reclaim.
    pub state_writes: u64,
}

/// A task's state cache ([`AggScratch`]): the lookups it answered from
/// memory, and the bytes it holds as its budget counts them. Kept apart
/// from [`TaskStats`], which the benchmark package builds field by field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateCacheStats {
    pub state_cache_hits: u64,
    pub state_cache_bytes: u64,
}

struct WindowRuntime {
    head: Cursor,
    tail: Option<Cursor>,
    /// Head bound before the current event's advance — the authority for
    /// the direct-insert rule (see module docs).
    head_bound: Timestamp,
    /// Monotonic lower bound the tail cursor has reached. Insertion gates
    /// compare against this (not the current event's instantaneous lower
    /// bound) so a late or rewritten event is inserted iff the tail will
    /// still yield it for eviction — keeping insert/evict exactly paired.
    tail_bound: Timestamp,
}

/// Computes all metrics of one (topic, partition).
pub struct TaskProcessor {
    schema: Schema,
    plan: Plan,
    reservoir: Reservoir,
    db: Db,
    aux_cf: ColumnFamilyId,
    /// One runtime per plan window node, index-aligned with
    /// `plan.windows`. `None` = the window died with its last query
    /// (cursors dropped, §5.2's iterator count shrinks accordingly).
    windows: Vec<Option<WindowRuntime>>,
    config: TaskConfig,
    /// Shared atomic counters, published to the config's registry so the
    /// metrics plane can read them while a worker thread owns this task.
    stats: Arc<SharedTaskStats>,
    events_since_truncate: u64,
    /// Per-window scratch buffers reused across events (hot path).
    expired_bufs: Vec<Vec<Event>>,
    entering_buf: Vec<Event>,
    /// Schema positions the live plan reads (filters, group-by fields,
    /// aggregated fields), ascending; see [`TaskProcessor::plan_changed`].
    read_set: Vec<usize>,
    /// The scratch row events are projected into, once per DAG walk:
    /// schema-long, only the `read_set` slots ever written (the rest stay
    /// NULL), string buffers reused from event to event.
    fields: Vec<Value>,
    /// Scratch keys: the row key of the group being updated or reported,
    /// and the same key under a leaf prefix (aux-CF key derivation).
    row_key: Vec<u8>,
    key_buf: Vec<u8>,
    /// Per plan group node (index-aligned with `plan.groups`), where in
    /// the state cache its row was last found: the reply finds the row
    /// the event just updated without hashing its key again.
    row_hints: Vec<usize>,
    /// Each registered metric's result head ([`put_reply_head`]), encoded
    /// per plan change in reply order (leaves by id, then refs); per
    /// result, the leaf it reports and where its head ends.
    head_bytes: Vec<u8>,
    heads: Vec<(LeafId, usize)>,
    /// Each live group's entity and each live leaf's value, encoded once
    /// per reply, and their spans in `parts` by group and by leaf id.
    parts: Vec<u8>,
    entity_at: Vec<(usize, usize)>,
    value_at: Vec<(usize, usize)>,
    /// Scratch reply [`TaskProcessor::process_event`] decodes.
    reply_buf: Vec<u8>,
    /// Per-task scratch for aggregator aux keys, and the state cache that
    /// holds decoded rows and sketches between checkpoints (see
    /// [`AggScratch`]).
    agg_scratch: AggScratch,
    /// Shared expiry watermarks read by the store's compaction filters
    /// (see [`crate::horizon`]): expired tumbling buckets and the state
    /// of unregistered queries are dropped during compactions instead of
    /// costing a point delete each.
    horizon: Arc<StateHorizon>,
    meta_cf: ColumnFamilyId,
}

/// Name of the auxiliary column family for `countDistinct`.
const AUX_CF_NAME: &str = "distinct-aux";

/// Name of the metadata column family (the plan fingerprint, tiny).
const META_CF_NAME: &str = "task-meta";

/// Meta-CF key holding [`Plan::fingerprint`] as of the last checkpoint.
/// State rows are keyed by positional plan ids, so an image is only
/// usable under a plan that numbers its live leaves the same way
/// ([`TaskProcessor::plan_matches_image`]).
const PLAN_KEY: &[u8] = b"plan";

/// Install the watermark compaction filters and derived per-CF tuning on
/// a task's store options. Tuning derives from the global knobs (so a
/// config that sets `memtable_budget_bytes` keeps governing the default
/// CF): the aux CF gets a quarter of the write budget, a lazier
/// compaction trigger, and denser blooms (point-lookup heavy); the meta
/// CF stays tiny. Caller-supplied `cf_options` entries win, but still
/// get the horizon filter if they did not set one — the reclaim path
/// relies on it.
fn install_horizon_filters(opts: &mut DbOptions, horizon: &Arc<StateHorizon>) {
    let derived: [(&str, CfOptions); 3] = [
        (
            "default",
            CfOptions {
                memtable_budget_bytes: opts.memtable_budget_bytes,
                compaction_trigger: opts.compaction_trigger,
                bloom_bits_per_key: opts.bloom_bits_per_key,
                filter: Some(Arc::new(StateKeyFilter(Arc::clone(horizon)))),
            },
        ),
        (
            AUX_CF_NAME,
            CfOptions {
                memtable_budget_bytes: (opts.memtable_budget_bytes / 4).max(64 << 10),
                compaction_trigger: opts.compaction_trigger.saturating_add(2),
                bloom_bits_per_key: match opts.bloom_bits_per_key {
                    0 => 0, // blooms disabled (ablation) — keep them off
                    b => b + 2,
                },
                filter: Some(Arc::new(AuxKeyFilter(Arc::clone(horizon)))),
            },
        ),
        (META_CF_NAME, CfOptions::meta()),
    ];
    for (name, cf) in derived {
        match opts.cf_options.iter_mut().find(|(n, _)| n == name) {
            Some((_, existing)) => {
                if existing.filter.is_none() {
                    existing.filter = cf.filter;
                }
            }
            None => opts.cf_options.push((name.to_owned(), cf)),
        }
    }
}

impl TaskProcessor {
    /// Open (or recover) a task processor rooted at `dir`. The (topic,
    /// partition) it serves is the caller's bookkeeping — the processor
    /// has no use for it (the parameters stay because the benchmark
    /// package calls this signature).
    pub fn open(
        dir: &Path,
        _topic: &str,
        _partition: u32,
        schema: Schema,
        config: TaskConfig,
    ) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        let reservoir = Reservoir::open(
            &dir.join("reservoir"),
            schema.clone(),
            config.reservoir.clone(),
        )?;
        let horizon = StateHorizon::new();
        let mut store_opts = config.store.clone();
        install_horizon_filters(&mut store_opts, &horizon);
        let db = Db::open(&dir.join("store"), store_opts)?;
        let aux_cf = match db.cf_by_name(AUX_CF_NAME) {
            Some(cf) => cf,
            None => db.create_cf(AUX_CF_NAME)?,
        };
        let meta_cf = match db.cf_by_name(META_CF_NAME) {
            Some(cf) => cf,
            None => db.create_cf(META_CF_NAME)?,
        };
        let stats = Arc::new(SharedTaskStats::default());
        config.stats_registry.register(&stats);
        let agg_scratch = AggScratch::new(STATE_CACHE_BYTES, Arc::clone(&stats));
        Ok(TaskProcessor {
            schema,
            plan: Plan::new(),
            reservoir,
            db,
            aux_cf,
            windows: Vec::new(),
            config,
            stats,
            events_since_truncate: 0,
            expired_bufs: Vec::new(),
            entering_buf: Vec::new(),
            read_set: Vec::new(),
            fields: Vec::new(),
            row_key: Vec::with_capacity(32),
            key_buf: Vec::with_capacity(32),
            row_hints: Vec::new(),
            head_bytes: Vec::new(),
            heads: Vec::new(),
            parts: Vec::new(),
            entity_at: Vec::new(),
            value_at: Vec::new(),
            reply_buf: Vec::new(),
            agg_scratch,
            horizon,
            meta_cf,
        })
    }

    /// Reclaim the state behind the pending dead set: write the state
    /// cache back and empty it (so no cached row or sketch of a dead node
    /// reaches the store later), rewrite the rows of live groups without
    /// their dead leaves' slots, flush the memtables (filters only see
    /// SSTables), compact the filtered CFs so dead groups' rows and dead
    /// leaves' aux keys vanish, then forget the set. One that fails
    /// part-way keeps the set and runs again at the next checkpoint.
    fn reclaim_dead_state(&self) -> Result<()> {
        self.agg_scratch.write_back(&self.db, self.aux_cf)?;
        self.agg_scratch.clear();
        let mut slots = Vec::new();
        let mut row = Vec::new();
        for (group, dead_leaves) in self.horizon.pending_strips() {
            for (key, raw) in self.db.scan_prefix(Db::DEFAULT_CF, &id_prefix(group))? {
                decode_row(&raw, &mut slots)?;
                row.clear();
                for (leaf, state) in &slots {
                    if !dead_leaves.contains(leaf) {
                        encode_slot(&mut row, *leaf, state);
                    }
                }
                if row.len() != raw.len() {
                    self.db.put(Db::DEFAULT_CF, &key, &row)?;
                }
            }
        }
        self.db.flush()?;
        self.db.compact_cf(Db::DEFAULT_CF)?;
        self.db.compact_cf(self.aux_cf)?;
        self.horizon.clear_dead();
        Ok(())
    }

    /// The stream schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Register a query's metrics on this task under an anonymous id
    /// derived from the query (convenience for single-process and
    /// test use; the cluster path assigns front-end ids and calls
    /// [`TaskProcessor::attach_query`]).
    pub fn register_query(&mut self, query: &Query) -> Result<Vec<MetricHandle>> {
        self.attach_query(derived_query_id(query), query)
    }

    /// Attach a query's metrics to this task under `id` — the one way a
    /// query reaches a live task's plan. Its new leaves fill from events
    /// already in the reservoir (§6's future work, supported here via the
    /// reservoir's random reads). Re-attaching the same id is
    /// idempotent. A restored task gets its queries back through
    /// [`TaskProcessor::restore_or_replay`] instead: its state already
    /// holds what a backfill would add again.
    pub fn attach_query(&mut self, id: QueryId, query: &Query) -> Result<Vec<MetricHandle>> {
        self.attach(id, query, true)
    }

    /// [`TaskProcessor::attach_query`], or with `backfill` false the
    /// re-attach of a query whose state came with a checkpoint image.
    ///
    /// Either way a new window's cursors start where the image's source
    /// left them after its newest event `T`: the tail at the window's
    /// lower bound for `T`, and the head at its upper bound
    /// `T + 1ms − delay`, which the head bound records as already flowed
    /// (this keeps the late-arrival direct-insert path and any later
    /// backfill right). A backfill then inserts the window's content
    /// into the query's new leaves, whether their window is new or not.
    fn attach(&mut self, id: QueryId, query: &Query, backfill: bool) -> Result<Vec<MetricHandle>> {
        let pre_leaf_count = self.plan.leaves.len();
        let handles = self.plan.add_query(id, query, &self.schema)?;
        // Create runtimes for any window nodes added by this query.
        while self.windows.len() < self.plan.windows.len() {
            let spec = self.plan.windows[self.windows.len()].spec;
            let max_seen = self.reservoir.max_seen_ts();
            // An empty reservoir has no history to skip.
            let upper = match max_seen {
                Timestamp::MIN => Timestamp::MIN,
                t => t.saturating_add(TimeDelta::from_millis(1)).saturating_sub(spec.delay),
            };
            let lower = match spec.kind {
                WindowKind::Sliding(ws) | WindowKind::Tumbling(ws) => upper.saturating_sub(ws),
                WindowKind::Infinite => Timestamp::MIN,
            };
            let head = self.reservoir.cursor_at(upper);
            let tail = match spec.kind {
                WindowKind::Sliding(_) => Some(self.reservoir.cursor_at(lower)),
                _ => None,
            };
            self.windows.push(Some(WindowRuntime {
                head,
                tail,
                head_bound: upper,
                tail_bound: lower,
            }));
        }
        self.row_hints.resize(self.plan.groups.len(), usize::MAX);
        self.plan_changed();
        // Brand-new leaves get no events from their window's head cursor,
        // which starts (or already is) past the window's content, so they
        // backfill that content directly — otherwise a new metric would
        // silently start from zero. A query's leaves all hang off one
        // group node; the ones it shares with earlier queries
        // (`< pre_leaf_count`) are already live. On re-attach the leaf
        // state arrived with the image; nothing to do.
        if let Some(new) = handles.iter().find(|h| backfill && h.leaf >= pre_leaf_count) {
            self.backfill_group(self.plan.leaves[new.leaf].group, pre_leaf_count)?;
        }
        Ok(handles)
    }

    /// Replay the current content of an existing window into the fresh
    /// leaves (`>= first_new`) of one of its groups — filter applied,
    /// inserts only, the group's other slots untouched. The window's
    /// in-content range is derived from its runtime bounds: events
    /// already inserted (`ts < head_bound`) and not yet evicted.
    fn backfill_group(&mut self, gid: GroupId, first_new: LeafId) -> Result<()> {
        let fid = self.plan.groups[gid].filter;
        let wid = self.plan.filters[fid].window;
        let Some(wr) = self.windows[wid].as_ref() else {
            return Ok(());
        };
        let upper = wr.head_bound;
        if upper == Timestamp::MIN {
            // The reservoir was empty when the window opened and nothing
            // has flowed through it since: there is no content to insert.
            return Ok(());
        }
        let spec = self.plan.windows[wid].spec;
        let lower = match spec.kind {
            WindowKind::Sliding(_) => wr.tail_bound,
            // Only the bucket the window currently reports matters.
            WindowKind::Tumbling(ws) => (upper - TimeDelta::from_millis(1)).align_down(ws),
            WindowKind::Infinite => Timestamp::MIN,
        };
        let cursor = self.reservoir.cursor_at(lower);
        let mut events = Vec::new();
        cursor.advance_upto_into(upper, &mut events);
        drop(cursor);
        let mut fields = std::mem::take(&mut self.fields);
        for event in &events {
            event.project(&self.read_set, &mut fields);
            let passes = match &self.plan.filters[fid].expr {
                Some(expr) => expr.matches(&fields),
                None => true,
            };
            if passes {
                self.update_group(gid, event.ts, &fields, true, first_new)?;
            }
        }
        self.fields = fields;
        Ok(())
    }

    /// The plan gained or lost nodes: recompute which schema positions it
    /// reads and the head of every result a reply carries, and size the
    /// scratch row to the schema.
    fn plan_changed(&mut self) {
        let plan = &self.plan;
        self.head_bytes.clear();
        self.heads.clear();
        for (leaf, node) in plan.leaves.iter().enumerate() {
            for r in &node.refs {
                put_reply_head(&mut self.head_bytes, r.query, r.index, &r.name);
                self.heads.push((leaf, self.head_bytes.len()));
            }
        }
        self.entity_at.resize(plan.groups.len(), (0, 0));
        self.value_at.resize(plan.leaves.len(), (0, 0));
        let set = &mut self.read_set;
        set.clear();
        for group in plan.groups.iter().filter(|g| !g.leaves.is_empty()) {
            set.extend_from_slice(&group.field_indexes);
            set.extend(group.leaves.iter().filter_map(|&l| plan.leaves[l].field_index));
            if let Some(expr) = &plan.filters[group.filter].expr {
                expr.field_indexes(set);
            }
        }
        set.sort_unstable();
        set.dedup();
        self.fields.clear();
        self.fields.resize(self.schema.len(), Value::Null);
    }

    /// Tear down a registered query: detach its metrics from the plan,
    /// delete the aggregator state of leaves nothing else shares, and
    /// drop the reservoir cursors of windows no other query uses.
    ///
    /// Returns `true` iff the query had metrics on this task.
    pub fn unregister_query(&mut self, id: QueryId) -> Result<bool> {
        let diff = self.plan.remove_query(id);
        if diff.removed_refs == 0 {
            return Ok(false);
        }
        // Dead state is reclaimed through the compaction filters rather
        // than per-key point deletes: mark the nodes dead, then reclaim. A
        // group whose last leaf died loses its rows in the default CF's
        // merge; a leaf that died inside a live group has its slot
        // stripped from that group's rows. The aux CF needs no scan at
        // all: its filter decodes the embedded state key, so counters and
        // sketch blobs of dead leaves fall out of the same merge. Nothing
        // is persisted: a task comes back only from an image, and images
        // are written after the reclaim.
        if !diff.dead_leaves.is_empty() {
            for &leaf in &diff.dead_leaves {
                let gid = self.plan.leaves[leaf].group;
                // Drop cached sketches unwritten, so no write-back can
                // resurrect blobs the compaction drops.
                self.agg_scratch.drop_sketches(&id_prefix(leaf as u32));
                self.horizon.add_dead_leaf(gid as u32, leaf as u32);
                if self.plan.groups[gid].leaves.is_empty() {
                    self.horizon.add_dead_group(gid as u32);
                }
            }
            self.reclaim_dead_state()?;
        }
        for &wid in &diff.dead_windows {
            // Dropping the runtime drops its head/tail cursors — the
            // §5.2(b) iterator count shrinks immediately.
            self.windows[wid] = None;
        }
        self.plan_changed();
        Ok(true)
    }

    /// The ids of the queries registered on this task.
    pub fn query_ids(&self) -> Vec<QueryId> {
        self.plan.query_ids()
    }

    /// [`TaskProcessor::process_event_into`], decoded: the event's results
    /// and duplicate flag, read back from the reply bytes a unit would
    /// publish for it.
    pub fn process_event(&mut self, event: &Event) -> Result<(Vec<AggregationResult>, bool)> {
        let mut buf = std::mem::take(&mut self.reply_buf);
        buf.clear();
        let reply = self
            .process_event_into(event, 0, "", &mut buf)
            .and_then(|_| decode_reply(&buf));
        self.reply_buf = buf;
        let reply = reply?;
        Ok((reply.results, reply.duplicate))
    }

    /// Process one event end to end — advance windows, store the event,
    /// update every aggregation — and append its reply to `out`: request
    /// `request_id` answered from `source_topic`, with one result per
    /// registered metric for this event's entities, written straight from
    /// the plan, the event's fields and the state rows. Returns whether
    /// the event was a duplicate.
    ///
    /// On error `out` may end in part of a reply: the unit writes through
    /// [`BatchFrameBuilder::try_push_with`](railgun_types::encode::BatchFrameBuilder::try_push_with),
    /// which cuts it off.
    pub fn process_event_into(
        &mut self,
        event: &Event,
        request_id: u64,
        source_topic: &str,
        out: &mut Vec<u8>,
    ) -> Result<bool> {
        self.schema.check_row(event)?;
        let t_eval = event.ts + TimeDelta::from_millis(1);
        self.stats.events_processed.fetch_add(1, Ordering::Relaxed);

        // Phase 1: advance every tail (expirations) BEFORE the append, so
        // an event stored below a tail's new bound is behind that tail.
        let nwindows = self.windows.len();
        self.expired_bufs.resize_with(nwindows, Vec::new);
        for wid in 0..nwindows {
            let spec = self.plan.windows[wid].spec;
            self.expired_bufs[wid].clear();
            let Some(wr) = self.windows[wid].as_mut() else {
                continue; // window torn down with its last query
            };
            if let (WindowKind::Sliding(ws), Some(tail)) = (spec.kind, wr.tail.as_ref()) {
                let lower = t_eval - spec.delay - ws;
                tail.advance_upto_into(lower, &mut self.expired_bufs[wid]);
                // A tail that could not load a cold chunk has stopped
                // expiring: every answer from here on would only grow.
                if let Some(e) = tail.take_error() {
                    return Err(e);
                }
                wr.tail_bound = wr.tail_bound.max(lower);
            }
        }

        // Phase 2: append to the reservoir (dedup + late policy; it copies
        // the row out of the bus frame). Only the stored timestamp is
        // tracked here; the event is cloned again just on the rare
        // direct-insert path below.
        let outcome = self.reservoir.append(event.clone())?;
        let (effective_ts, duplicate) = match outcome {
            AppendOutcome::Appended => (Some(event.ts), false),
            AppendOutcome::LateRewritten(ts) => (Some(ts), false),
            AppendOutcome::Duplicate => {
                self.stats.duplicates.fetch_add(1, Ordering::Relaxed);
                (None, true)
            }
            AppendOutcome::LateDiscarded => {
                self.stats.late_dropped.fetch_add(1, Ordering::Relaxed);
                (None, false)
            }
        };

        // Phase 3: per window, collect entering events and apply the DAG.
        for wid in 0..nwindows {
            if self.windows[wid].is_none() {
                continue;
            }
            let spec = self.plan.windows[wid].spec;
            let upper = t_eval - spec.delay;
            let wr = self.windows[wid].as_mut().expect("checked above");
            let head_bound_pre = wr.head_bound;
            let mut entering = std::mem::take(&mut self.entering_buf);
            entering.clear();
            wr.head.advance_upto_into(upper, &mut entering);
            if let Some(e) = wr.head.take_error() {
                return Err(e);
            }
            wr.head_bound = wr.head_bound.max(upper);
            // Direct insert of a late (or timestamp-rewritten) arrival that
            // the head skips: it was stored behind the head's bound
            // (ts < head_bound_pre). The lower gate is the tail cursor's
            // *monotonic* bound: an event at or above it will be yielded
            // for eviction exactly once, so inserting it here keeps the
            // streams paired; anything below it was skipped by the tail too
            // and must not enter.
            let tail_gate = wr.tail_bound;
            if let Some(ts) = effective_ts {
                if ts < head_bound_pre && ts >= tail_gate {
                    // Same row, stamped with the time it was stored under.
                    let mut stored = event.clone();
                    stored.ts = ts;
                    entering.push(stored);
                }
            }
            // Expire first, then insert (same relative order as the
            // physical streams; aggregators only need each stream's own
            // order to be consistent).
            let expired = std::mem::take(&mut self.expired_bufs[wid]);
            for e in &expired {
                self.apply_dag(wid, e, false)?;
            }
            for e in &entering {
                self.apply_dag(wid, e, true)?;
            }
            self.stats.evictions.fetch_add(expired.len() as u64, Ordering::Relaxed);
            self.stats.inserts.fetch_add(entering.len() as u64, Ordering::Relaxed);
            self.expired_bufs[wid] = expired;
            self.entering_buf = entering;
        }

        // Phase 4: the reply, for this event's entities.
        put_reply_header(out, request_id, source_topic, duplicate, self.heads.len());
        self.write_results(event, t_eval, out)?;

        // Phase 5: periodic retention.
        self.events_since_truncate += 1;
        if self.config.truncate_every > 0
            && self.events_since_truncate >= self.config.truncate_every
        {
            self.events_since_truncate = 0;
            self.maybe_truncate(t_eval)?;
        }
        Ok(duplicate)
    }

    /// [`TaskProcessor::process_event`] over a run of events in arrival
    /// order, handing each event's `(index, results, duplicate)` to `sink`
    /// as it completes.
    ///
    /// Window semantics are per-event — every event's reply reflects the
    /// window state *at that event* (tail advance, append, head advance,
    /// DAG, reply) — so a run is processed one event after the other.
    pub fn process_batch<'a, I, F>(&mut self, events: I, mut sink: F) -> Result<()>
    where
        I: IntoIterator<Item = &'a Event>,
        F: FnMut(usize, Vec<AggregationResult>, bool),
    {
        for (idx, event) in events.into_iter().enumerate() {
            let (results, duplicate) = self.process_event(event)?;
            sink(idx, results, duplicate);
        }
        Ok(())
    }

    /// Walk the DAG below window `wid` for one entering/expiring event,
    /// projected once into the scratch row for every node of the walk.
    fn apply_dag(&mut self, wid: WindowId, event: &Event, insert: bool) -> Result<()> {
        // (Lent out for the walk; an error on the way costs the next event
        // a fresh scratch row, nothing else.)
        let mut fields = std::mem::take(&mut self.fields);
        event.project(&self.read_set, &mut fields);
        let nfilters = self.plan.windows[wid].filters.len();
        for fi in 0..nfilters {
            let fid = self.plan.windows[wid].filters[fi];
            let passes = match &self.plan.filters[fid].expr {
                Some(expr) => expr.matches(&fields),
                None => true,
            };
            if !passes {
                continue;
            }
            let ngroups = self.plan.filters[fid].groups.len();
            for gi in 0..ngroups {
                let gid = self.plan.filters[fid].groups[gi];
                self.update_group(gid, event.ts, &fields, insert, 0)?;
            }
        }
        self.fields = fields;
        Ok(())
    }

    /// One update of the row of (`gid`, the event's entity), the event
    /// given as its timestamp and its projection (`fields`): apply the
    /// insert/evict to every live leaf of the group with id `>=
    /// first_leaf` (0 = all; a backfill passes its first new leaf). The
    /// row is updated in place in the state cache and marked dirty; the
    /// store sees it when the cache evicts it or at the next checkpoint.
    /// Slots of leaves no longer in the group are dropped on the way; a
    /// live leaf the row does not know yet starts from its empty state.
    /// A sketch leaf's slot holds only its parameters: its insert goes to
    /// its sketch, after the row (an evict touches no sketch).
    fn update_group(
        &mut self,
        gid: GroupId,
        ts: Timestamp,
        fields: &[Value],
        insert: bool,
        first_leaf: LeafId,
    ) -> Result<()> {
        let group = &self.plan.groups[gid];
        let wid = self.plan.filters[group.filter].window;
        let spec = self.plan.windows[wid].spec;
        let bucket = match spec.kind {
            WindowKind::Tumbling(ws) => Some(ts.align_down(ws)),
            _ => None,
        };
        let entity = group.field_indexes.iter().map(|&i| &fields[i]);
        state_key_into(&mut self.row_key, gid as u32, bucket, entity);
        // Sketch-backed leaves route inserts into time panes and expire
        // whole panes once the tail bound passes them.
        let sliding = match spec.kind {
            WindowKind::Sliding(ws) => Some((
                ws.as_millis(),
                match &self.windows[wid] {
                    Some(wr) => wr.tail_bound.as_millis(),
                    None => i64::MIN,
                },
            )),
            _ => None,
        };
        let (leaves, key, scratch) = (&self.plan.leaves, &mut self.key_buf, &self.agg_scratch);
        let (db, aux_cf) = (&self.db, self.aux_cf);
        let apply = |leaf: u32, state: &mut AggState, key: &[u8]| {
            let mut ctx = AggContext::new(db, aux_cf, key, scratch);
            if let Some((ws, lower)) = sliding {
                ctx = ctx.windowed(ts.as_millis(), lower, ws);
            }
            let field_value = leaves[leaf as usize].field_index.map(|i| &fields[i]);
            match insert {
                true => state.insert(field_value, &ctx),
                false => state.evict(field_value, &ctx),
            }
        };
        key.clear();
        key.extend_from_slice(&self.row_key);
        let hint = &mut self.row_hints[gid];
        scratch.with_row((db, aux_cf), &self.row_key, hint, true, |slots| {
            // Line the slots up with the group's walk list.
            for (i, &leaf) in group.leaves.iter().enumerate() {
                match slots[i..].iter().position(|s| s.0 == leaf as u32) {
                    Some(at) => slots.swap(i, i + at),
                    None => {
                        slots.push((leaf as u32, AggState::new(leaves[leaf].func)));
                        let last = slots.len() - 1;
                        slots.swap(i, last);
                    }
                }
            }
            slots.truncate(group.leaves.len());
            for (leaf, state) in slots.iter_mut() {
                if *leaf as usize >= first_leaf && !leaves[*leaf as usize].func.is_sketch() {
                    set_prefix(key, *leaf);
                    apply(*leaf, state, key)?;
                }
            }
            Ok(())
        })?;
        let sketches = group.leaves.iter().filter(|&&l| l >= first_leaf && leaves[l].func.is_sketch());
        for &leaf in sketches.filter(|_| insert) {
            set_prefix(key, leaf as u32);
            apply(leaf as u32, &mut AggState::new(leaves[leaf].func), key)?;
        }
        Ok(())
    }

    /// Write one result per registered metric for the event's entities,
    /// each as copies of bytes encoded once: its head (per plan change),
    /// its group's entity and its leaf's value (both per event, into
    /// `parts`). Each group's row is found in the state cache once —
    /// where the event's update just left it, when that is the row being
    /// reported — and loaded on a miss (the filter rejected the event, the
    /// window is delayed, the event was late or a duplicate, or the row
    /// was evicted since).
    fn write_results(&mut self, event: &Event, t_eval: Timestamp, out: &mut Vec<u8>) -> Result<()> {
        event.project(&self.read_set, &mut self.fields);
        let fields = &self.fields;
        let (leaves, parts, scratch) = (&self.plan.leaves, &mut self.parts, &self.agg_scratch);
        let (db, aux_cf, key) = (&self.db, self.aux_cf, &mut self.key_buf);
        let value_at = &mut self.value_at;
        let exact = AggContext::new(db, aux_cf, &[], scratch);
        parts.clear();
        for (gid, group) in self.plan.groups.iter().enumerate() {
            if group.leaves.is_empty() {
                continue; // unregistered
            }
            let wid = self.plan.filters[group.filter].window;
            let spec = self.plan.windows[wid].spec;
            let entity = group.field_indexes.iter().map(|&i| &fields[i]);
            let start = parts.len();
            put_reply_entity(parts, entity.clone());
            self.entity_at[gid] = (start, parts.len());
            state_key_into(&mut self.row_key, gid as u32, collect_bucket(spec, t_eval), entity);
            let hint = &mut self.row_hints[gid];
            scratch.with_row((db, aux_cf), &self.row_key, hint, false, |slots| {
                for &leaf in group.leaves.iter().filter(|&&l| !leaves[l].func.is_sketch()) {
                    let start = parts.len();
                    match slots.iter().find(|s| s.0 == leaf as u32) {
                        Some((_, state)) => state.put_value(&exact, parts)?,
                        None => AggState::new(leaves[leaf].func).put_value(&exact, parts)?,
                    }
                    value_at[leaf] = (start, parts.len());
                }
                Ok(())
            })?;
            key.clear();
            key.extend_from_slice(&self.row_key);
            for &leaf in group.leaves.iter().filter(|&&l| leaves[l].func.is_sketch()) {
                set_prefix(key, leaf as u32);
                let mut ctx = AggContext::new(db, aux_cf, key, scratch);
                if let (WindowKind::Sliding(ws), Some(wr)) = (spec.kind, &self.windows[wid]) {
                    let lower = wr.tail_bound.as_millis();
                    ctx = ctx.windowed(t_eval.as_millis(), lower, ws.as_millis());
                }
                let start = parts.len();
                AggState::new(leaves[leaf].func).put_value(&ctx, parts)?;
                value_at[leaf] = (start, parts.len());
            }
        }
        let mut head_start = 0;
        for &(leaf, head_end) in &self.heads {
            let (entity, value) = (self.entity_at[leaves[leaf].group], value_at[leaf]);
            out.extend_from_slice(&self.head_bytes[head_start..head_end]);
            out.extend_from_slice(&parts[entity.0..entity.1]);
            out.extend_from_slice(&parts[value.0..value.1]);
            head_start = head_end;
        }
        Ok(())
    }

    fn maybe_truncate(&mut self, t_eval: Timestamp) -> Result<()> {
        if self.plan.has_infinite_window() {
            return Ok(()); // keep full history
        }
        // Only live windows bound retention; a torn-down window must not
        // keep pinning history. With no live metrics nothing bounds
        // retention — and future metrics may backfill from any depth — so
        // keep everything.
        let mut max_span = TimeDelta::ZERO;
        let mut any_live = false;
        for w in self.plan.windows.iter().filter(|w| !w.filters.is_empty()) {
            any_live = true;
            let span = match w.spec.kind {
                WindowKind::Sliding(ws) | WindowKind::Tumbling(ws) => ws + w.spec.delay,
                WindowKind::Infinite => return Ok(()),
            };
            if span > max_span {
                max_span = span;
            }
        }
        if !any_live {
            return Ok(());
        }
        let before = t_eval - max_span - self.config.retention_margin;
        // Advance the store's expiry watermark in lockstep with the
        // reservoir bound: a tumbling bucket older than the retention
        // horizon can never be read again (results are only collected at
        // the evaluation boundary), so the next compaction drops its
        // state instead of carrying it forever.
        self.horizon.advance_bucket_expiry(before.as_millis());
        self.reservoir.truncate_before(before)?;
        Ok(())
    }

    /// Block until the reservoir's queued chunk writes are done (and the
    /// chunks cached as written). Benches call this before measuring so the
    /// cache starts at its configured capacity — the paper's runs start
    /// from a fully-persisted checkpoint load.
    pub fn drain_reservoir_io(&self) -> Result<()> {
        self.reservoir.flush_io()?;
        Ok(())
    }

    /// Checkpoint reservoir and state store together (§4.1.3) into `dir`:
    /// the whole task, hard links to its immutable files plus its open and
    /// transition chunks. The state cache writes every dirty row and sketch
    /// back first — the only time the store sees a state the cache has not
    /// evicted; one that fails stays dirty and fails the checkpoint. The
    /// reservoir half lands (and its directory is fsynced) before the store
    /// half starts, so the store's completeness marker, written last,
    /// vouches for the whole image.
    pub fn checkpoint(&self, dir: &Path) -> Result<()> {
        std::fs::create_dir_all(dir)?;
        // Finish any pending dead-state reclaim first: the image must not
        // ship dead state, whose ids a restored plan may hand out again.
        if self.horizon.has_dead() {
            self.reclaim_dead_state()?;
        }
        // Rows and sketches live in the state cache between checkpoints;
        // write the dirty ones back so the image carries the current state.
        self.agg_scratch.write_back(&self.db, self.aux_cf)?;
        self.db
            .put(self.meta_cf, PLAN_KEY, self.plan.fingerprint().as_bytes())?;
        self.reservoir.checkpoint(&dir.join("reservoir"))?;
        self.db.checkpoint(&dir.join("store"))?;
        Ok(())
    }

    /// True iff the plan numbers its live leaves exactly as the plan that
    /// wrote the checkpoint image this task was restored from. A query
    /// unregistered before the image (its ids are skipped there, handed
    /// out again here) or registered after it (no state in the image)
    /// makes the answer `false`. An image without a recorded fingerprint
    /// only matches an empty plan.
    fn plan_matches_image(&self) -> Result<bool> {
        let recorded = self.db.get(self.meta_cf, PLAN_KEY)?.unwrap_or_default();
        Ok(recorded == self.plan.fingerprint().as_bytes())
    }

    /// Restore a task processor from a checkpoint directory (as written by
    /// [`TaskProcessor::checkpoint`]) into a fresh data directory: both
    /// halves of the image are hard-linked back (copied where the
    /// filesystem refuses a link), as its files are immutable. Events
    /// after the checkpoint must be replayed from the messaging layer; the
    /// image's queries come back through
    /// [`TaskProcessor::restore_or_replay`].
    pub fn restore_from_checkpoint(
        ckpt: &Path,
        dir: &Path,
        topic: &str,
        partition: u32,
        schema: Schema,
        config: TaskConfig,
    ) -> Result<Self> {
        if dir.exists() && dir.read_dir()?.next().is_some() {
            return Err(RailgunError::InvalidArgument(format!(
                "restore target {} is not empty",
                dir.display()
            )));
        }
        for half in ["reservoir", "store"] {
            let to = dir.join(half);
            std::fs::create_dir_all(&to)?;
            for name in RealFs.read_dir_files(&ckpt.join(half))? {
                RealFs.hard_link_or_copy(&ckpt.join(half).join(&name), &to.join(&name))?;
            }
        }
        Self::open(dir, topic, partition, schema, config)
    }

    /// Restore the task from the image at `ckpt` and re-attach `queries`,
    /// the one way a task comes back from a checkpoint (§4.2's recovery
    /// flow, and the elastic-membership handover: a unit that gains a task
    /// restores the newest image and replays only the tail past the
    /// record's offset). The restored task answers as the image's source
    /// would have: the image holds its whole reservoir and state, and
    /// each window's cursors start where the source's stood.
    ///
    /// The image is used only if its store carries the completeness
    /// marker ([`railgun_store::checkpoint::is_complete`] — the empty
    /// `wal.log` is written after every other file of the image), it opens
    /// ([`TaskProcessor::open`]; opening the store checks every table),
    /// and the re-attached plan numbers its leaves as the image's did. An
    /// image that is missing, partial or damaged bumps
    /// `TaskConfig::checkpoint_fallbacks`. In any of these cases the
    /// target is wiped and a fresh task with `queries` attached (and
    /// backfilled) is returned with [`RestoreOutcome::FullReplay`]: the
    /// caller replays the topic from the beginning — slow, never wrong.
    pub fn restore_or_replay(
        ckpt: &Path,
        dir: &Path,
        schema: Schema,
        config: TaskConfig,
        queries: &[(QueryId, &Query)],
    ) -> Result<(Self, RestoreOutcome)> {
        let complete = railgun_store::checkpoint::is_complete(&RealFs, &ckpt.join("store"));
        let restored = complete.then(|| {
            Self::restore_from_checkpoint(ckpt, dir, "", 0, schema.clone(), config.clone())
        });
        match restored {
            Some(Ok(mut tp)) => {
                for (id, query) in queries {
                    tp.attach(*id, query, false)?;
                }
                if tp.plan_matches_image()? {
                    return Ok((tp, RestoreOutcome::FromCheckpoint));
                }
            }
            _ => config.checkpoint_fallbacks.incr(),
        }
        // Leave nothing of the failed restore behind — `open` would
        // otherwise recover the half-linked image as if it were real data.
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        let mut tp = Self::open(dir, "", 0, schema, config)?;
        for (id, query) in queries {
            tp.attach_query(*id, query)?;
        }
        Ok((tp, RestoreOutcome::FullReplay))
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> TaskStats {
        self.stats.snapshot()
    }

    /// State-cache statistics snapshot.
    pub fn state_cache_stats(&self) -> StateCacheStats {
        self.stats.state_cache()
    }

    /// Reservoir statistics (memory accounting for §5.2).
    pub fn reservoir_stats(&self) -> railgun_reservoir::ReservoirStats {
        self.reservoir.stats()
    }

    /// State-store statistics.
    pub fn store_stats(&self) -> railgun_store::DbStats {
        self.db.stats()
    }

    /// Number of live plan leaves.
    pub fn leaf_count(&self) -> usize {
        self.plan.leaf_count()
    }

    /// Number of live reservoir cursors (the paper's "iterators", §5.2(b)).
    pub fn iterator_count(&self) -> usize {
        self.reservoir.stats().cursors
    }
}

/// The tumbling bucket a window reports at `t_eval`: the one containing
/// the (delay-shifted) eval point.
fn collect_bucket(spec: WindowSpec, t_eval: Timestamp) -> Option<Timestamp> {
    match spec.kind {
        WindowKind::Tumbling(ws) => {
            Some((t_eval - spec.delay - TimeDelta::from_millis(1)).align_down(ws))
        }
        _ => None,
    }
}

/// Stable anonymous id for direct (non-cluster) registrations: an FxHash
/// of the query's `Debug` form, with the high bit set so it can never
/// collide with front-end-assigned ids (front-end ids embed node ids,
/// which stay far below 2^31).
fn derived_query_id(query: &Query) -> QueryId {
    use std::hash::Hasher;
    let mut h = railgun_types::hash::FxHasher::default();
    h.write(format!("{query:?}").as_bytes());
    QueryId(h.finish() | (1 << 63))
}

/// Helper: a fresh unique data dir under the system temp dir (tests).
pub fn temp_task_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "railgun-task-{}-{tag}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::parse_query;
    use railgun_reservoir::Codec;
    use railgun_types::{EventId, FieldType};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("cardId", FieldType::Str),
            ("merchantId", FieldType::Str),
            ("amount", FieldType::Float),
        ])
        .unwrap()
    }

    fn proc(tag: &str) -> TaskProcessor {
        TaskProcessor::open(
            &temp_task_dir(tag),
            "payments--cardId",
            0,
            schema(),
            TaskConfig::default(),
        )
        .unwrap()
    }

    fn ev(id: u64, ts_ms: i64, card: &str, merchant: &str, amount: f64) -> Event {
        Event::new(
            EventId(id),
            Timestamp::from_millis(ts_ms),
            vec![
                Value::Str(card.into()),
                Value::Str(merchant.into()),
                Value::Float(amount),
            ],
        )
    }

    fn result_value(results: &[AggregationResult], name_prefix: &str) -> Value {
        results
            .iter()
            .find(|r| r.name.starts_with(name_prefix))
            .unwrap_or_else(|| panic!("no result named {name_prefix}*"))
            .value
            .clone()
    }

    #[test]
    fn q1_sum_and_count_per_card() {
        let mut tp = proc("q1");
        let q = parse_query(
            "SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        tp.register_query(&q).unwrap();
        let (r, _) = tp.process_event(&ev(1, 1_000, "A", "m1", 10.0)).unwrap();
        assert_eq!(result_value(&r, "sum(amount)"), Value::Float(10.0));
        assert_eq!(result_value(&r, "count(*)"), Value::Int(1));
        let (r, _) = tp.process_event(&ev(2, 2_000, "A", "m2", 15.0)).unwrap();
        assert_eq!(result_value(&r, "sum(amount)"), Value::Float(25.0));
        assert_eq!(result_value(&r, "count(*)"), Value::Int(2));
        // Different card: independent state.
        let (r, _) = tp.process_event(&ev(3, 3_000, "B", "m1", 100.0)).unwrap();
        assert_eq!(result_value(&r, "sum(amount)"), Value::Float(100.0));
        assert_eq!(result_value(&r, "count(*)"), Value::Int(1));
    }

    #[test]
    fn sliding_window_expires_events() {
        let mut tp = proc("expiry");
        let q = parse_query(
            "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 1 min",
        )
        .unwrap();
        tp.register_query(&q).unwrap();
        for (id, ts) in [(1, 0i64), (2, 10_000), (3, 50_000)] {
            tp.process_event(&ev(id, ts, "A", "m", 1.0)).unwrap();
        }
        // At t=75s the window lower bound is 15.001s: events at 0s and 10s
        // expired, events at 50s and 75s remain.
        let (r, _) = tp.process_event(&ev(4, 75_000, "A", "m", 1.0)).unwrap();
        assert_eq!(result_value(&r, "count(*)"), Value::Int(2));
        assert!(tp.stats().evictions >= 2);
    }

    #[test]
    fn figure_1_semantics_sliding_window_catches_all_five() {
        // The paper's Figure 1: events at minutes 1,2,3,4 and one "just
        // inside" the 5-min window. A real-time sliding window sees all 5.
        let mut tp = proc("fig1");
        let q = parse_query(
            "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        tp.register_query(&q).unwrap();
        let minutes = [60_000i64, 120_000, 180_000, 240_000];
        for (i, ts) in minutes.iter().enumerate() {
            tp.process_event(&ev(i as u64, *ts, "A", "m", 1.0)).unwrap();
        }
        // e5 arrives at 5:59.999 — within 5 minutes of e1 (1:00).
        let (r, _) = tp
            .process_event(&ev(9, 359_999, "A", "m", 1.0))
            .unwrap();
        assert_eq!(
            result_value(&r, "count(*)"),
            Value::Int(5),
            "real-time sliding window must include all 5 events"
        );
        // Two ms later e1 (ts=60000) has fallen out of the window, so the
        // count stays at 5 even though a new event arrived.
        let (r, _) = tp.process_event(&ev(10, 360_001, "A", "m", 1.0)).unwrap();
        assert_eq!(result_value(&r, "count(*)"), Value::Int(5));
    }

    #[test]
    fn shared_window_multiple_group_bys() {
        // Q1 + Q2 of Example 1 on one task.
        let mut tp = proc("example1");
        tp.register_query(
            &parse_query(
                "SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER sliding 5 min",
            )
            .unwrap(),
        )
        .unwrap();
        tp.register_query(
            &parse_query(
                "SELECT avg(amount) FROM payments GROUP BY merchantId OVER sliding 5 min",
            )
            .unwrap(),
        )
        .unwrap();
        tp.process_event(&ev(1, 1_000, "A", "m1", 10.0)).unwrap();
        let (r, _) = tp.process_event(&ev(2, 2_000, "B", "m1", 30.0)).unwrap();
        // Card B: sum=30, count=1. Merchant m1: avg=(10+30)/2=20.
        assert_eq!(result_value(&r, "sum(amount)"), Value::Float(30.0));
        assert_eq!(result_value(&r, "count(*)"), Value::Int(1));
        assert_eq!(result_value(&r, "avg(amount)"), Value::Float(20.0));
    }

    #[test]
    fn filter_applies_to_inserts_and_evictions() {
        let mut tp = proc("filter");
        let q = parse_query(
            "SELECT count(*) FROM payments WHERE amount > 50 GROUP BY cardId OVER sliding 1 min",
        )
        .unwrap();
        tp.register_query(&q).unwrap();
        tp.process_event(&ev(1, 0, "A", "m", 100.0)).unwrap(); // passes
        let (r, _) = tp.process_event(&ev(2, 1_000, "A", "m", 10.0)).unwrap(); // filtered
        assert_eq!(result_value(&r, "count(*)"), Value::Int(1));
        // After expiry of the passing event the count returns to 0.
        let (r, _) = tp.process_event(&ev(3, 61_001, "A", "m", 10.0)).unwrap();
        assert_eq!(result_value(&r, "count(*)"), Value::Int(0));
    }

    #[test]
    fn duplicates_do_not_double_count() {
        let mut tp = proc("dup");
        let q = parse_query(
            "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        tp.register_query(&q).unwrap();
        tp.process_event(&ev(7, 1_000, "A", "m", 1.0)).unwrap();
        let (r, dup) = tp.process_event(&ev(7, 1_000, "A", "m", 1.0)).unwrap();
        assert!(dup);
        assert_eq!(result_value(&r, "count(*)"), Value::Int(1));
        assert_eq!(tp.stats().duplicates, 1);
    }

    #[test]
    fn tumbling_window_resets_each_bucket() {
        let mut tp = proc("tumbling");
        let q = parse_query(
            "SELECT count(*) FROM payments GROUP BY cardId OVER tumbling 1 min",
        )
        .unwrap();
        tp.register_query(&q).unwrap();
        let (r, _) = tp.process_event(&ev(1, 10_000, "A", "m", 1.0)).unwrap();
        assert_eq!(result_value(&r, "count(*)"), Value::Int(1));
        let (r, _) = tp.process_event(&ev(2, 30_000, "A", "m", 1.0)).unwrap();
        assert_eq!(result_value(&r, "count(*)"), Value::Int(2));
        // Next minute bucket starts fresh.
        let (r, _) = tp.process_event(&ev(3, 70_000, "A", "m", 1.0)).unwrap();
        assert_eq!(result_value(&r, "count(*)"), Value::Int(1));
    }

    #[test]
    fn infinite_window_never_expires() {
        let mut tp = proc("infinite");
        let q = parse_query(
            "SELECT countDistinct(merchantId) FROM payments GROUP BY cardId OVER infinite",
        )
        .unwrap();
        tp.register_query(&q).unwrap();
        tp.process_event(&ev(1, 0, "A", "m1", 1.0)).unwrap();
        tp.process_event(&ev(2, 86_400_000, "A", "m2", 1.0)).unwrap(); // 1 day later
        let (r, _) = tp
            .process_event(&ev(3, 30 * 86_400_000, "A", "m1", 1.0))
            .unwrap();
        assert_eq!(result_value(&r, "countDistinct"), Value::Int(2));
        assert_eq!(tp.stats().evictions, 0);
    }

    #[test]
    fn delayed_window_lags_behind() {
        let mut tp = proc("delayed");
        let q = parse_query(
            "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 1 min delayed by 1 min",
        )
        .unwrap();
        tp.register_query(&q).unwrap();
        // Event at t=0 enters the delayed window only when T_eval - 60s
        // passes it, i.e. for events after ~t=60s.
        let (r, _) = tp.process_event(&ev(1, 0, "A", "m", 1.0)).unwrap();
        assert_eq!(result_value(&r, "count(*)"), Value::Int(0), "own event not visible yet");
        let (r, _) = tp.process_event(&ev(2, 30_000, "A", "m", 1.0)).unwrap();
        assert_eq!(result_value(&r, "count(*)"), Value::Int(0));
        // At t=70s the delayed window covers [70s-60s-60s, 70s-60s) = [-50s, 10s):
        // contains the t=0 event only.
        let (r, _) = tp.process_event(&ev(3, 70_000, "A", "m", 1.0)).unwrap();
        assert_eq!(result_value(&r, "count(*)"), Value::Int(1));
    }

    #[test]
    fn backfill_new_metric_from_existing_events() {
        let mut tp = proc("backfill");
        let q1 = parse_query(
            "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        tp.register_query(&q1).unwrap();
        for i in 0..5 {
            tp.process_event(&ev(i, 1_000 + i as i64 * 100, "A", "m", 2.0))
                .unwrap();
        }
        // New metric registered later must see the stored events.
        let q2 = parse_query(
            "SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding 10 min",
        )
        .unwrap();
        tp.register_query(&q2).unwrap();
        let (r, _) = tp.process_event(&ev(99, 2_000, "A", "m", 2.0)).unwrap();
        // 5 backfilled events + this one = 6 × 2.0.
        assert_eq!(result_value(&r, "sum(amount)"), Value::Float(12.0));
    }

    #[test]
    fn all_aggregations_together() {
        let mut tp = proc("allaggs");
        let q = parse_query(
            "SELECT count(amount), sum(amount), avg(amount), stdDev(amount), max(amount), \
             min(amount), last(amount), prev(amount), countDistinct(merchantId) \
             FROM payments GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        tp.register_query(&q).unwrap();
        tp.process_event(&ev(1, 1_000, "A", "m1", 10.0)).unwrap();
        tp.process_event(&ev(2, 2_000, "A", "m2", 30.0)).unwrap();
        let (r, _) = tp.process_event(&ev(3, 3_000, "A", "m1", 20.0)).unwrap();
        assert_eq!(result_value(&r, "count(amount)"), Value::Int(3));
        assert_eq!(result_value(&r, "sum(amount)"), Value::Float(60.0));
        assert_eq!(result_value(&r, "avg(amount)"), Value::Float(20.0));
        assert_eq!(result_value(&r, "max(amount)"), Value::Float(30.0));
        assert_eq!(result_value(&r, "min(amount)"), Value::Float(10.0));
        assert_eq!(result_value(&r, "last(amount)"), Value::Float(20.0));
        assert_eq!(result_value(&r, "prev(amount)"), Value::Float(30.0));
        assert_eq!(result_value(&r, "countDistinct"), Value::Int(2));
        let std = result_value(&r, "stdDev(amount)").as_f64().unwrap();
        assert!((std - 10.0).abs() < 1e-9, "sample stddev of 10,30,20 = 10");
    }

    #[test]
    fn checkpoint_and_restore() {
        let mut tp = proc("ckpt-src2");
        let q = parse_query(
            "SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        tp.register_query(&q).unwrap();
        for i in 0..10 {
            tp.process_event(&ev(i, 1_000 * i as i64, "A", "m", 1.0))
                .unwrap();
        }
        let ckpt = temp_task_dir("ckpt-dir2");
        tp.checkpoint(&ckpt).unwrap();
        drop(tp);
        let (mut tp2, outcome) = TaskProcessor::restore_or_replay(
            &ckpt,
            &temp_task_dir("ckpt-restore2"),
            schema(),
            TaskConfig::default(),
            &[(derived_query_id(&q), &q)],
        )
        .unwrap();
        assert_eq!(outcome, RestoreOutcome::FromCheckpoint);
        // The restored state holds the ten events; the next one adds one.
        let (r, _) = tp2.process_event(&ev(100, 10_000, "A", "m", 1.0)).unwrap();
        assert_eq!(result_value(&r, "sum(amount)"), Value::Float(11.0));
    }

    #[test]
    fn stats_track_state_access_pattern() {
        // Paper §4.1.3: keys accessed per event == number of DAG leaves;
        // here the leaves of a group-by node share one row.
        let mut tp = proc("statskeys");
        tp.register_query(
            &parse_query(
                "SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER sliding 5 min",
            )
            .unwrap(),
        )
        .unwrap();
        tp.register_query(
            &parse_query(
                "SELECT avg(amount) FROM payments GROUP BY merchantId OVER sliding 5 min",
            )
            .unwrap(),
        )
        .unwrap();
        let (before, hits) = (tp.stats(), tp.state_cache_stats().state_cache_hits);
        tp.process_event(&ev(1, 1_000, "A", "m", 5.0)).unwrap();
        let after = tp.stats();
        // 3 leaves under 2 group nodes → 2 rows updated (no expiry yet),
        // each missed once and read from the store; the reply finds both
        // where the updates left them. Neither is written before the
        // checkpoint writes both back.
        assert_eq!(after.state_reads - before.state_reads, 2);
        assert_eq!(after.state_writes - before.state_writes, 0);
        assert_eq!(tp.state_cache_stats().state_cache_hits - hits, 2);
        tp.checkpoint(&temp_task_dir("statskeys-ckpt")).unwrap();
        assert_eq!(tp.stats().state_writes - before.state_writes, 2);
    }

    #[test]
    fn hot_plan_costs_two_reads_and_two_writes_per_event() {
        // The benchmark's `hot_saturate` plan: one group of three leaves
        // per card on one sliding window. In steady state every arrival
        // expires one older event of another card. With a one-entry state
        // cache every update misses: one row read each, and one
        // write-back of the row it evicts — what every update cost before
        // rows were cached. The reply finds the row just updated. With the
        // default cache all seven rows stay: no store traffic at all.
        for (budget, reads, writes, hits) in [(0, 200, 200, 100), (STATE_CACHE_BYTES, 0, 0, 300)] {
            let mut tp = proc("hot-plan-counts");
            tp.agg_scratch = AggScratch::new(budget, Arc::clone(&tp.stats));
            for q in [
                "SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER sliding 5 min",
                "SELECT avg(amount) FROM payments GROUP BY cardId OVER sliding 5 min",
            ] {
                tp.register_query(&parse_query(q).unwrap()).unwrap();
            }
            // One event per second: the window holds 300.
            let mk = |i: u64| ev(i, 1_000 * i as i64, &format!("card-{}", i % 7), "m", 1.0);
            for i in 0..400 {
                tp.process_event(&mk(i)).unwrap();
            }
            let (before, cache) = (tp.stats(), tp.state_cache_stats());
            for i in 400..500 {
                let (r, _) = tp.process_event(&mk(i)).unwrap();
                assert_eq!(r.len(), 3);
            }
            let after = tp.stats();
            assert_eq!(after.inserts - before.inserts, 100);
            assert_eq!(after.evictions - before.evictions, 100);
            assert_eq!(after.state_reads - before.state_reads, reads, "budget {budget}");
            assert_eq!(after.state_writes - before.state_writes, writes, "budget {budget}");
            let hits_now = tp.state_cache_stats().state_cache_hits;
            assert_eq!(hits_now - cache.state_cache_hits, hits, "budget {budget}");
        }
    }

    #[test]
    fn unregister_tears_down_state_and_cursors() {
        let mut tp = proc("unregister");
        let q1 = parse_query(
            "SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        let q2 = parse_query(
            "SELECT countDistinct(merchantId) FROM payments GROUP BY cardId OVER infinite",
        )
        .unwrap();
        let h1 = tp.register_query(&q1).unwrap();
        let h2 = tp.register_query(&q2).unwrap();
        let qid1 = h1[0].query;
        let qid2 = h2[0].query;
        assert_eq!(tp.query_ids(), {
            let mut ids = vec![qid1, qid2];
            ids.sort_unstable();
            ids
        });
        for i in 0..5 {
            tp.process_event(&ev(i, 1_000 * i as i64, "A", "m", 2.0)).unwrap();
        }
        let cursors_before = tp.iterator_count();
        assert_eq!(tp.leaf_count(), 3);

        // Tear q1 down: its sliding window (head+tail cursors) dies, its
        // group's rows (both leaves' state) are deleted, q2 keeps serving.
        assert!(tp.unregister_query(qid1).unwrap());
        assert_eq!(tp.leaf_count(), 1, "only countDistinct remains");
        assert!(
            tp.iterator_count() < cursors_before,
            "dead window must drop its cursors ({} -> {})",
            cursors_before,
            tp.iterator_count()
        );
        // Default-CF rows of the dead group (prefix 0) are gone; the
        // surviving group's (prefix 1) are not.
        assert!(tp
            .db
            .scan_prefix(Db::DEFAULT_CF, &id_prefix(0))
            .unwrap()
            .is_empty());
        assert!(!tp
            .db
            .scan_prefix(Db::DEFAULT_CF, &id_prefix(1))
            .unwrap()
            .is_empty());

        // Replies no longer carry q1's aggregations.
        let (r, _) = tp.process_event(&ev(100, 6_000, "A", "m2", 3.0)).unwrap();
        assert!(r.iter().all(|a| a.query == qid2), "{r:?}");
        assert_eq!(result_value(&r, "countDistinct"), Value::Int(2));

        // Unregistering twice is a no-op.
        assert!(!tp.unregister_query(qid1).unwrap());
    }

    #[test]
    fn unregister_count_distinct_clears_aux_state() {
        let mut tp = proc("unregister-aux");
        let q = parse_query(
            "SELECT countDistinct(merchantId) FROM payments GROUP BY cardId OVER infinite",
        )
        .unwrap();
        let h = tp.register_query(&q).unwrap();
        tp.process_event(&ev(1, 0, "A", "m1", 1.0)).unwrap();
        tp.process_event(&ev(2, 1_000, "A", "m2", 1.0)).unwrap();
        assert!(!tp.db.scan_prefix(tp.aux_cf, &[]).unwrap().is_empty());
        tp.unregister_query(h[0].query).unwrap();
        assert!(
            tp.db.scan_prefix(tp.aux_cf, &[]).unwrap().is_empty(),
            "aux counters torn down with the leaf"
        );
        // Reclaim went through the compaction filters, not point deletes.
        assert!(
            tp.store_stats().filter_dropped > 0,
            "unregister must reclaim via filtered compaction"
        );
    }

    /// The leaf ids found in the slots of every row under group `gid`.
    fn slot_leaves(tp: &TaskProcessor, gid: u32) -> Vec<Vec<u32>> {
        let mut slots = Vec::new();
        tp.db
            .scan_prefix(Db::DEFAULT_CF, &id_prefix(gid))
            .unwrap()
            .iter()
            .map(|(_, raw)| {
                decode_row(raw, &mut slots).unwrap();
                slots.iter().map(|s| s.0).collect()
            })
            .collect()
    }

    #[test]
    fn unregister_out_of_live_group_strips_the_slot() {
        let mut tp = proc("unregister-slot");
        let q_sum = parse_query(
            "SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        let q_cd = parse_query(
            "SELECT countDistinct(merchantId) FROM payments GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        tp.register_query(&q_sum).unwrap();
        let h_cd = tp.register_query(&q_cd).unwrap();
        for i in 0..6 {
            let card = if i % 2 == 0 { "A" } else { "B" };
            tp.process_event(&ev(i, 1_000 * i as i64, card, &format!("m{i}"), 2.0))
                .unwrap();
        }
        // The rows reach the store at a checkpoint.
        assert!(slot_leaves(&tp, 0).is_empty());
        tp.checkpoint(&temp_task_dir("unregister-slot-ckpt")).unwrap();
        assert_eq!(slot_leaves(&tp, 0), vec![vec![0, 1], vec![0, 1]]);
        assert!(!tp.db.scan_prefix(tp.aux_cf, &[]).unwrap().is_empty());

        // The group lives on through `sum`: its rows stay, minus slot 1.
        assert!(tp.unregister_query(h_cd[0].query).unwrap());
        assert_eq!(slot_leaves(&tp, 0), vec![vec![0], vec![0]]);
        assert!(
            tp.db.scan_prefix(tp.aux_cf, &[]).unwrap().is_empty(),
            "the dead leaf's counters fall out of the aux compaction"
        );
        assert!(tp.store_stats().filter_dropped > 0);
        assert!(!tp.horizon.has_dead());

        // A later aggregation on the same group gets a fresh leaf id and
        // backfills only its own slot.
        let q_max = parse_query(
            "SELECT max(amount) FROM payments GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        let writes_before = tp.stats().state_writes;
        tp.register_query(&q_max).unwrap();
        assert_eq!(tp.stats().state_writes, writes_before, "6 backfilled events, no write");
        tp.checkpoint(&temp_task_dir("unregister-slot-ckpt2")).unwrap();
        assert_eq!(
            tp.stats().state_writes - writes_before,
            2,
            "each row once, at the checkpoint"
        );
        assert_eq!(slot_leaves(&tp, 0), vec![vec![0, 2], vec![0, 2]]);
        let (r, _) = tp.process_event(&ev(100, 7_000, "A", "m", 5.0)).unwrap();
        assert_eq!(result_value(&r, "sum(amount)"), Value::Float(11.0));
        assert_eq!(result_value(&r, "max(amount)"), Value::Float(5.0));
        assert_eq!(r.len(), 2, "{r:?}");
    }

    #[test]
    fn elastic_handover_matches_lockstep_twin_under_expiry() {
        // The elastic-membership handover path (checkpoint →
        // restore_or_replay) on a task whose store has been through
        // watermark expiry *and* dead-leaf filtering: the restored
        // processor's per-event results must stay
        // byte-identical to a lockstep twin that only ever ran the
        // surviving query.
        let cfg = || TaskConfig {
            truncate_every: 1, // retention (and the expiry watermark) advance every event
            retention_margin: TimeDelta::from_secs(5),
            ..TaskConfig::default()
        };
        let qt = parse_query(
            "SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER tumbling 1 min",
        )
        .unwrap();
        let qx = parse_query(
            "SELECT countDistinct(merchantId) FROM payments GROUP BY cardId OVER sliding 2 min",
        )
        .unwrap();
        let (tid, xid) = (QueryId(7), QueryId(8));
        let mut primary = TaskProcessor::open(
            &temp_task_dir("elastic-expiry-primary"),
            "payments--cardId",
            0,
            schema(),
            cfg(),
        )
        .unwrap();
        primary.attach_query(tid, &qt).unwrap();
        primary.attach_query(xid, &qx).unwrap();
        let mut twin = TaskProcessor::open(
            &temp_task_dir("elastic-expiry-twin"),
            "payments--cardId",
            0,
            schema(),
            cfg(),
        )
        .unwrap();
        twin.attach_query(tid, &qt).unwrap();

        let mk = |i: u64| {
            ev(
                i,
                (i as i64) * 10_000, // one event per 10 s → many 1-min buckets
                "A",
                &format!("m{}", i % 5),
                (i % 7) as f64,
            )
        };
        let only_t = |r: Vec<AggregationResult>| -> Vec<AggregationResult> {
            r.into_iter().filter(|a| a.query == tid).collect()
        };
        for i in 0..30 {
            let e = mk(i);
            let rp = only_t(primary.process_event(&e).unwrap().0);
            let rt = only_t(twin.process_event(&e).unwrap().0);
            assert_eq!(rp, rt, "pre-unregister divergence at event {i}");
        }
        // Tear down the side query: its group dies and is reclaimed by
        // the compaction filters (eager flush + compact).
        assert!(primary.unregister_query(xid).unwrap());
        assert!(
            primary.store_stats().filter_dropped > 0,
            "dead-leaf reclaim must go through the filter"
        );
        for i in 30..60 {
            let e = mk(i);
            let rp = only_t(primary.process_event(&e).unwrap().0);
            let rt = only_t(twin.process_event(&e).unwrap().0);
            assert_eq!(rp, rt, "post-unregister divergence at event {i}");
        }
        // Force a maintenance cycle so buckets behind the watermark are
        // physically dropped, then prove live results are unaffected.
        let dropped_before = primary.store_stats().filter_dropped;
        primary.db.flush().unwrap();
        primary.db.compact_cf(Db::DEFAULT_CF).unwrap();
        assert!(
            primary.store_stats().filter_dropped > dropped_before,
            "expired tumbling buckets must fall out of the compaction"
        );

        // Handover: checkpoint, restore into a fresh dir, reattach.
        let ckpt = temp_task_dir("elastic-expiry-ckpt");
        primary.checkpoint(&ckpt).unwrap();
        drop(primary);
        let (mut restored, outcome) = TaskProcessor::restore_or_replay(
            &ckpt,
            &temp_task_dir("elastic-expiry-restore"),
            schema(),
            cfg(),
            &[(tid, &qt)],
        )
        .unwrap();
        // The unregistered query was the last one registered, so the
        // survivor keeps the ids a fresh plan gives it: the image is usable.
        assert_eq!(outcome, RestoreOutcome::FromCheckpoint);
        for i in 60..90 {
            let e = mk(i);
            let rr = only_t(restored.process_event(&e).unwrap().0);
            let rt = only_t(twin.process_event(&e).unwrap().0);
            assert_eq!(rr, rt, "post-handover divergence at event {i}");
        }
    }

    #[test]
    fn reregistration_after_unregister_starts_fresh_with_backfill() {
        let mut tp = proc("rereg");
        let q = parse_query(
            "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        let h = tp.register_query(&q).unwrap();
        for i in 0..4 {
            tp.process_event(&ev(i, 1_000 + 100 * i as i64, "A", "m", 1.0))
                .unwrap();
        }
        tp.unregister_query(h[0].query).unwrap();
        // Re-register (the derived id is the same — that's fine, the old
        // plan nodes are dead): a fresh leaf backfills from the reservoir.
        tp.register_query(&q).unwrap();
        let (r, _) = tp.process_event(&ev(99, 2_000, "A", "m", 1.0)).unwrap();
        assert_eq!(
            result_value(&r, "count(*)"),
            Value::Int(5),
            "4 backfilled + 1 new"
        );
    }

    #[test]
    fn new_leaf_on_live_shared_window_backfills() {
        // q1 keeps the 5-min window alive; q2 is unregistered and then
        // re-registered onto the *same live* window — its fresh leaf must
        // backfill the window's current content to stay exact.
        let mut tp = proc("shared-backfill");
        let q1 = parse_query(
            "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        let q2 = parse_query(
            "SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        tp.register_query(&q1).unwrap();
        let h2 = tp.register_query(&q2).unwrap();
        for i in 0..4 {
            tp.process_event(&ev(i, 1_000 + 100 * i as i64, "A", "m", 2.5))
                .unwrap();
        }
        tp.unregister_query(h2[0].query).unwrap();
        tp.register_query(&q2).unwrap();
        let (r, _) = tp.process_event(&ev(99, 2_000, "A", "m", 2.5)).unwrap();
        assert_eq!(
            result_value(&r, "sum(amount)"),
            Value::Float(12.5),
            "4 backfilled in-window events + 1 new"
        );
        assert_eq!(result_value(&r, "count(*)"), Value::Int(5), "q1 untouched");

        // Same mechanism for a genuinely new aggregation added late to a
        // live window (not just re-registration).
        let q3 = parse_query(
            "SELECT max(amount) FROM payments GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        tp.register_query(&q3).unwrap();
        let (r, _) = tp.process_event(&ev(100, 3_000, "A", "m", 1.0)).unwrap();
        assert_eq!(result_value(&r, "max(amount)"), Value::Float(2.5));
    }

    #[test]
    fn a_query_that_opens_a_window_on_a_live_task_counts_only_the_window() {
        // Events at 0..=10 s, then a 5 s window opens: at 13 s it holds
        // the events at 9, 10 and 13 s. The ones at 5..=8 s expired before
        // the next event; they were never inserted, so they must be
        // neither evicted nor inserted.
        let mut tp = proc("attach-opens-window");
        for i in 0..=10u64 {
            let (ts, amount) = (i as i64 * 1_000, 100.0 - i as f64);
            tp.process_event(&ev(i, ts, "A", &format!("m{i}"), amount)).unwrap();
        }
        let q = parse_query(
            "SELECT countDistinct(merchantId), max(amount), stdDev(amount), count(*) \
             FROM payments GROUP BY cardId OVER sliding 5 sec",
        )
        .unwrap();
        tp.register_query(&q).unwrap();
        let (r, _) = tp.process_event(&ev(11, 13_000, "A", "m13", 1.0)).unwrap();
        assert_eq!(result_value(&r, "countDistinct"), Value::Int(3));
        assert_eq!(result_value(&r, "max"), Value::Float(91.0));
        assert_eq!(result_value(&r, "count"), Value::Int(3));
        let Value::Float(sd) = result_value(&r, "stdDev") else {
            panic!("stdDev of three values is a float")
        };
        assert!((sd - 51.6753).abs() < 1e-3, "stdDev of 91, 90, 1: {sd}");
        let (r, _) = tp.process_event(&ev(12, 13_500, "A", "m14", 1.0)).unwrap();
        assert_eq!(result_value(&r, "countDistinct"), Value::Int(4));
    }

    #[test]
    fn results_are_keyed_by_query_and_index() {
        let mut tp = proc("keyed");
        let q = parse_query(
            "SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        let handles = tp.register_query(&q).unwrap();
        let (r, _) = tp.process_event(&ev(1, 1_000, "A", "m", 7.5)).unwrap();
        let qid = handles[0].query;
        assert_eq!(
            crate::api::find_keyed(&r, qid, 0).unwrap().value,
            Value::Float(7.5)
        );
        assert_eq!(
            crate::api::find_keyed(&r, qid, 1).unwrap().value,
            Value::Int(1)
        );
        assert!(crate::api::find_keyed(&r, qid, 2).is_none());
    }

    /// Write garbage where card `A`'s sketch of each of `leaves` lives,
    /// so that any load of one fails.
    fn spoil_sketches_of_a(tp: &TaskProcessor, leaves: impl IntoIterator<Item = LeafId>) {
        for leaf in leaves {
            let key = crate::keys::state_key(leaf as u32, None, &[Value::from("A")]);
            let blob_key = crate::agg::blob_key_for_tests(&key);
            tp.db.put(tp.aux_cf, &blob_key, b"\xff").unwrap();
        }
    }

    #[test]
    fn an_event_that_fails_mid_reply_leaves_no_partial_record() {
        // `sum` is answered first; then the topK leaf reads its sketch,
        // which is garbage. The filter keeps the event out of the sketch,
        // so the reply is the first to read it.
        let mut tp = proc("fail-mid-reply");
        let q = |text| parse_query(text).unwrap();
        tp.attach_query(
            QueryId(1),
            &q("SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding 5 min"),
        )
        .unwrap();
        let topk = q("SELECT topK(merchantId, 3) FROM payments WHERE amount > 50 \
                      GROUP BY cardId OVER sliding 5 min");
        let topk = tp.attach_query(QueryId(2), &topk).unwrap();
        spoil_sketches_of_a(&tp, [topk[0].leaf]);
        let mut frame = railgun_types::encode::BatchFrameBuilder::new();
        frame.push_with(|buf| buf.extend_from_slice(b"an earlier reply"));
        let failed = frame.try_push_with(|buf| {
            tp.process_event_into(&ev(1, 1_000, "A", "m", 10.0), 7, "payments--cardId", buf)
                .map(drop)
        });
        let corrupt = matches!(failed, Err(RailgunError::Corruption(_)));
        assert!(corrupt, "{failed:?}");
        let frame = frame.finish();
        assert_eq!(frame.len(), 1);
        assert_eq!(frame.slice(0).as_ref(), b"an earlier reply");
    }

    #[test]
    fn a_row_slot_holding_a_sketch_for_an_exact_leaf_is_corruption() {
        // Card A's row says leaf 0 (a sum) is a topK: its update must fail
        // typed, not re-enter the state cache the row is held in.
        let mut tp = proc("slot-kind-mismatch");
        let q = parse_query("SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding 5 min")
            .unwrap();
        tp.register_query(&q).unwrap();
        let mut row = Vec::new();
        encode_slot(&mut row, 0, &AggState::TopK { k: 3 });
        let key = crate::keys::state_key(0, None, &[Value::from("A")]);
        tp.db.put(Db::DEFAULT_CF, &key, &row).unwrap();
        let err = tp.process_event(&ev(1, 1_000, "A", "m", 1.0)).unwrap_err();
        assert!(matches!(err, RailgunError::Corruption(_)), "{err}");
        // The row was dropped unwritten; card B is unaffected.
        let (r, _) = tp.process_event(&ev(2, 2_000, "B", "m", 2.0)).unwrap();
        assert_eq!(result_value(&r, "sum(amount)"), Value::Float(2.0));
    }

    #[test]
    fn expiry_alone_never_loads_a_sketch() {
        // Card A's sketches reach the store at a checkpoint; the restored
        // task starts with an empty state cache, and the stored blobs are
        // then spoiled. B's events slide the window past all of A's: the
        // evictions must not load A's sketches (they used to, to cache a
        // fresh estimate in A's row).
        let q = parse_query(
            "SELECT countDistinct(merchantId) approx 0.02, topK(merchantId, 3), \
             percentile(amount, 50) FROM payments GROUP BY cardId OVER sliding 1 min",
        )
        .unwrap();
        let dir = temp_task_dir("expiry-no-load");
        let mut tp =
            TaskProcessor::open(&dir, "payments--cardId", 0, schema(), TaskConfig::default())
                .unwrap();
        let leaves: Vec<LeafId> = tp
            .attach_query(QueryId(1), &q)
            .unwrap()
            .iter()
            .map(|h| h.leaf)
            .collect();
        for i in 0..5 {
            tp.process_event(&ev(i, i as i64 * 1_000, "A", &format!("m{i}"), 1.0))
                .unwrap();
        }
        let ckpt = temp_task_dir("expiry-no-load-ckpt");
        tp.checkpoint(&ckpt).unwrap();
        drop(tp);
        let (mut tp, _) = TaskProcessor::restore_or_replay(
            &ckpt,
            &temp_task_dir("expiry-no-load-restored"),
            schema(),
            TaskConfig::default(),
            &[(QueryId(1), &q)],
        )
        .unwrap();
        spoil_sketches_of_a(&tp, leaves);
        for i in 0..10 {
            tp.process_event(&ev(100 + i, 70_000 + i as i64 * 1_000, "B", "m", 1.0))
                .unwrap();
        }
        assert_eq!(tp.stats().evictions, 5, "every event of A expired");
        // A's own next event does read them, and finds the garbage.
        let err = tp
            .process_event(&ev(200, 80_000, "A", "m", 1.0))
            .unwrap_err();
        assert!(matches!(err, RailgunError::Corruption(_)), "{err}");
    }

    #[test]
    fn a_duplicate_after_its_panes_expired_reports_the_pruned_estimate() {
        // An 80 s window has 10 s panes. A's only event (1 s) leaves the
        // window at 81.001 s, its pane [0, 10 s) only at 90.001 s.
        let mut tp = proc("dup-after-expiry");
        tp.register_query(
            &parse_query(
                "SELECT countDistinct(merchantId) approx 0.02 FROM payments \
                 GROUP BY cardId OVER sliding 80 sec",
            )
            .unwrap(),
        )
        .unwrap();
        tp.process_event(&ev(1, 1_000, "A", "m1", 1.0)).unwrap();
        // A's event expires, its pane is still live.
        tp.process_event(&ev(2, 82_000, "B", "m1", 1.0)).unwrap();
        // The pane has left the window; nothing of A was left to evict.
        tp.process_event(&ev(3, 95_000, "B", "m1", 1.0)).unwrap();
        let (r, dup) = tp.process_event(&ev(1, 1_000, "A", "m1", 1.0)).unwrap();
        assert!(dup);
        // Rows used to cache the estimate, and this reply reported 1: the
        // value cached when A's event was evicted at 82 s, its pane live.
        assert_eq!(result_value(&r, "countDistinct"), Value::Int(0));
    }

    #[test]
    fn an_image_after_unregistration_holds_no_dead_row_slot_or_blob() {
        // Rows and sketches of the dead leaves are dirty in the state cache
        // when their queries go (or, with a one-entry cache, some were
        // written back already): the next image must hold none of them.
        let q = |text| parse_query(text).unwrap();
        for budget in [0, STATE_CACHE_BYTES] {
            let mut tp = proc("no-resurrection");
            tp.agg_scratch = AggScratch::new(budget, Arc::clone(&tp.stats));
            let live = "SELECT sum(amount), countDistinct(merchantId) FROM payments \
                        GROUP BY cardId OVER sliding 5 min";
            tp.attach_query(QueryId(1), &q(live)).unwrap();
            // Leaves inside the live group: a slot and two sketches.
            let inside = q("SELECT max(amount), countDistinct(merchantId) approx 0.02, \
                            topK(merchantId, 3) FROM payments GROUP BY cardId OVER sliding 5 min");
            let inside = tp.attach_query(QueryId(2), &inside).unwrap();
            // A group of its own, which dies whole.
            let own = q("SELECT count(*), percentile(amount, 50) FROM payments \
                         GROUP BY cardId OVER sliding 1 min");
            let own = tp.attach_query(QueryId(3), &own).unwrap();
            let card = |i: u64| ["A", "B", "C"][i as usize % 3];
            for i in 0..40 {
                let e = ev(i, 1_000 * i as i64, card(i), &format!("m{}", i % 5), i as f64);
                tp.process_event(&e).unwrap();
            }
            let dead: Vec<u32> = inside.iter().chain(&own).map(|h| h.leaf as u32).collect();
            let dead_group = tp.plan.leaves[own[0].leaf].group as u32;
            assert!(tp.unregister_query(QueryId(2)).unwrap());
            assert!(tp.unregister_query(QueryId(3)).unwrap());
            for i in 40..50 {
                tp.process_event(&ev(i, 1_000 * i as i64, card(i), "m9", 1.0)).unwrap();
            }
            let ckpt = temp_task_dir("no-resurrection-ckpt");
            tp.checkpoint(&ckpt).unwrap();
            let image = TaskProcessor::restore_from_checkpoint(
                &ckpt,
                &temp_task_dir("no-resurrection-image"),
                "",
                0,
                schema(),
                TaskConfig::default(),
            )
            .unwrap();
            let rows = image.db.scan_prefix(Db::DEFAULT_CF, &[]).unwrap();
            assert_eq!(rows.len(), 3, "budget {budget}: one live row per card");
            let mut slots = Vec::new();
            for (key, raw) in &rows {
                assert!(!key.starts_with(&id_prefix(dead_group)), "budget {budget}");
                decode_row(raw, &mut slots).unwrap();
                assert!(slots.iter().all(|s| !dead.contains(&s.0)), "budget {budget}: {slots:?}");
            }
            let aux = image.db.scan_prefix(image.aux_cf, &[]).unwrap();
            assert!(!aux.is_empty(), "the live exact countDistinct keeps its counters");
            for (key, _) in &aux {
                // Length-prefixed state key, its first four bytes the leaf.
                let mut state_key = &key[..];
                railgun_types::encode::get_uvarint(&mut state_key).unwrap();
                let leaf = u32::from_be_bytes(state_key[..4].try_into().unwrap());
                assert!(!dead.contains(&leaf), "budget {budget}: a blob of dead leaf {leaf}");
            }
        }
    }

    /// One step of a schedule [`a_one_entry_cache_answers_like_an_unbounded_one`]
    /// drives through two tasks.
    #[derive(Debug, Clone)]
    enum Step {
        /// An event `dt` ms after the last, stored `late` ms behind it.
        Event { dt: i64, late: i64, card: u8, merchant: u8, amount: u8 },
        /// An earlier event again.
        Duplicate(usize),
        Register(usize),
        Unregister(usize),
        /// Checkpoint both tasks and restore each from its image.
        Checkpoint,
    }

    const SCHEDULE_QUERIES: [&str; 4] = [
        "SELECT sum(amount), count(*), min(amount), max(amount) FROM payments \
         GROUP BY cardId OVER sliding 10 sec",
        "SELECT countDistinct(merchantId) approx 0.02, topK(merchantId, 3), \
         percentile(amount, 90) FROM payments GROUP BY cardId OVER sliding 10 sec",
        "SELECT countDistinct(merchantId), avg(amount) FROM payments WHERE amount > 20 \
         GROUP BY cardId OVER sliding 5 sec delayed by 1 sec",
        "SELECT count(*), last(amount), prev(amount) FROM payments \
         GROUP BY merchantId OVER tumbling 4 sec",
    ];

    fn arb_step() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::prelude::*;
        let event = (0i64..1_500, 0i64..4, 0i64..3_000, 0u8..6, 0u8..8, 0u8..60)
            .prop_map(|(dt, late, by, card, merchant, amount)| Step::Event {
                dt,
                late: if late == 0 { by } else { 0 },
                card,
                merchant,
                amount,
            });
        prop_oneof![
            12 => event,
            2 => any::<usize>().prop_map(Step::Duplicate),
            1 => (0usize..4).prop_map(Step::Register),
            1 => (0usize..4).prop_map(Step::Unregister),
            1 => Just(Step::Checkpoint),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// A task whose state cache holds one entry (every update a miss,
        /// every miss a write-back) and one whose cache holds everything
        /// (nothing written before a checkpoint) answer a schedule of late
        /// and duplicate events, registrations, unregistrations,
        /// re-registrations and checkpoint-and-restores byte for byte, and
        /// each image, restored under the other's budget, answers like the
        /// other.
        #[test]
        fn a_one_entry_cache_answers_like_an_unbounded_one(
            steps in proptest::collection::vec(arb_step(), 1..120),
        ) {
            static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
            let case = CASE.fetch_add(1, Ordering::Relaxed);
            let queries: Vec<Query> = SCHEDULE_QUERIES.iter().map(|q| parse_query(q).unwrap()).collect();
            let budgets = [0, usize::MAX];
            let dir = |what: &str| temp_task_dir(&format!("schedule-{case}-{what}"));
            let mut tasks = budgets.map(|budget| {
                let mut tp = TaskProcessor::open(&dir(&format!("{budget}")), "", 0, schema(), TaskConfig::default()).unwrap();
                tp.agg_scratch = AggScratch::new(budget, Arc::clone(&tp.stats));
                tp
            });
            let (mut order, mut log, mut now) = (Vec::<usize>::new(), Vec::<Event>::new(), 10_000i64);
            let feed = |tasks: &mut [TaskProcessor; 2], log: &mut Vec<Event>, e: Event| {
                let replies = tasks.each_mut().map(|tp| {
                    let mut out = Vec::new();
                    tp.process_event_into(&e, 7, "payments", &mut out).unwrap();
                    out
                });
                assert_eq!(replies[0], replies[1], "{e:?}");
                log.push(e);
            };
            for (n, step) in steps.into_iter().enumerate() {
                match step {
                    Step::Event { dt, late, card, merchant, amount } => {
                        now += dt;
                        let e = ev(log.len() as u64, now - late, &format!("c{card}"), &format!("m{merchant}"), f64::from(amount));
                        feed(&mut tasks, &mut log, e);
                    }
                    Step::Duplicate(i) if !log.is_empty() => {
                        let e = log[i % log.len()].clone();
                        feed(&mut tasks, &mut log, e);
                    }
                    Step::Duplicate(_) => {}
                    Step::Register(q) => {
                        for tp in &mut tasks {
                            tp.attach_query(QueryId(q as u64 + 1), &queries[q]).unwrap();
                        }
                        if !order.contains(&q) {
                            order.push(q);
                        }
                    }
                    Step::Unregister(q) => {
                        for tp in &mut tasks {
                            tp.unregister_query(QueryId(q as u64 + 1)).unwrap();
                        }
                        order.retain(|&o| o != q);
                    }
                    Step::Checkpoint => {
                        let attached: Vec<(QueryId, &Query)> =
                            order.iter().map(|&q| (QueryId(q as u64 + 1), &queries[q])).collect();
                        let images = [dir(&format!("ckpt-{n}-a")), dir(&format!("ckpt-{n}-b"))];
                        for (tp, image) in tasks.iter().zip(&images) {
                            tp.checkpoint(image).unwrap();
                        }
                        // Each image comes back under the other's budget.
                        let restored = [1, 0].map(|i| {
                            let (mut tp, outcome) = TaskProcessor::restore_or_replay(
                                &images[i], &dir(&format!("restored-{n}-{i}")), schema(), TaskConfig::default(), &attached,
                            ).unwrap();
                            tp.agg_scratch = AggScratch::new(budgets[1 - i], Arc::clone(&tp.stats));
                            if outcome == RestoreOutcome::FullReplay {
                                for e in &log {
                                    tp.process_event(e).unwrap();
                                }
                            }
                            (tp, outcome)
                        });
                        assert_eq!(restored[0].1, restored[1].1);
                        tasks = restored.map(|(tp, _)| tp);
                    }
                }
            }
        }
    }

    /// The codec is a choice of cost. One stream goes through a task that
    /// compresses its chunks and one that stores them verbatim: rows of
    /// 100 random floats, whose chunk bodies save under an eighth of their
    /// first 4 KiB and go out as literal runs, between runs of rows that
    /// carry only the three queried fields and compress well; late and
    /// duplicate events; a window several chunks long over a 2-chunk
    /// cache, so that tails read cold frames. Every reply is byte for byte
    /// the same, and again after each task is restored mid-stream from the
    /// other's image.
    #[test]
    fn answers_do_not_depend_on_the_codec() {
        let names: Vec<String> = (0..97).map(|i| format!("x{i}")).collect();
        let mut fields = vec![
            ("cardId", FieldType::Str),
            ("merchantId", FieldType::Str),
            ("amount", FieldType::Float),
        ];
        fields.extend(names.iter().map(|n| (n.as_str(), FieldType::Float)));
        let schema = Schema::from_pairs(&fields).unwrap();
        let config = |codec| TaskConfig {
            reservoir: ReservoirConfig {
                chunk_target_events: 64,
                cache_capacity_chunks: 2,
                codec,
                ..ReservoirConfig::default()
            },
            ..TaskConfig::default()
        };
        let queries = [
            "SELECT sum(amount), count(*), countDistinct(merchantId), max(amount) \
             FROM payments GROUP BY cardId OVER sliding 30 sec",
            "SELECT sum(x7), min(x96), avg(x40) FROM payments GROUP BY merchantId \
             OVER sliding 20 sec",
        ]
        .map(|q| parse_query(q).unwrap());
        let attached: Vec<(QueryId, &Query)> =
            queries.iter().enumerate().map(|(i, q)| (QueryId(i as u64 + 1), q)).collect();
        let codecs = [Codec::RailZ, Codec::None];
        let dir = |what: &str| temp_task_dir(&format!("codec-{what}"));
        let mut tasks = codecs.map(|codec| {
            let mut tp =
                TaskProcessor::open(&dir(&format!("{codec:?}")), "", 0, schema.clone(), config(codec))
                    .unwrap();
            for (id, query) in &attached {
                tp.attach_query(*id, query).unwrap();
            }
            tp
        });
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut log: Vec<Event> = Vec::new();
        for i in 0..2_000u64 {
            if i == 1_000 {
                let images = codecs.map(|codec| dir(&format!("image-{codec:?}")));
                for (tp, image) in tasks.iter().zip(&images) {
                    tp.checkpoint(image).unwrap();
                }
                // A frame names its codec: each image restores under the
                // other's, and both kinds of frame then share a reservoir.
                tasks = [1, 0].map(|from| {
                    let codec = codecs[1 - from];
                    let (tp, outcome) = TaskProcessor::restore_or_replay(
                        &images[from],
                        &dir(&format!("restored-{codec:?}")),
                        schema.clone(),
                        config(codec),
                        &attached,
                    )
                    .unwrap();
                    assert_eq!(outcome, RestoreOutcome::FromCheckpoint);
                    tp
                });
            }
            let r = next();
            let event = if r.is_multiple_of(17) && !log.is_empty() {
                log[(r >> 8) as usize % log.len()].clone()
            } else {
                let late = if r.is_multiple_of(13) { (r >> 20) % 8_000 } else { 0 };
                let wide = (i / 48).is_multiple_of(2);
                let mut values = vec![
                    Value::Str(format!("c{}", r % 7)),
                    Value::Str(format!("m{}", (r >> 4) % 11)),
                    Value::Float(((r >> 12) % 400) as f64 * 0.25),
                ];
                values.extend((0..97).map(|_| match wide {
                    true => Value::Float((next() >> 11) as f64 / (1u64 << 53) as f64),
                    false => Value::Null,
                }));
                Event::new(EventId(i), Timestamp::from_millis(100 * i as i64 - late as i64), values)
            };
            let replies = tasks.each_mut().map(|tp| {
                let mut out = Vec::new();
                tp.process_event_into(&event, i, "payments", &mut out).unwrap();
                out
            });
            assert_eq!(replies[0], replies[1], "event {i}");
            log.push(event);
        }
        for tp in &tasks {
            let cache = tp.reservoir_stats().cache;
            assert!(cache.misses + cache.prefetch_inserts > 0, "no tail read a cold frame");
        }
    }

    #[test]
    fn rejects_schema_violations() {
        let mut tp = proc("badschema");
        let bad = Event::new(
            EventId(1),
            Timestamp::from_millis(0),
            vec![Value::Int(1)], // wrong arity
        );
        assert!(tp.process_event(&bad).is_err());
    }

    #[test]
    fn a_cold_chunk_that_fails_to_load_fails_the_event() {
        // A window several chunks long over a one-chunk cache, every chunk
        // sealed into a file of its own: the tail reads disk.
        let dir = temp_task_dir("coldfail");
        let mut tp = TaskProcessor::open(
            &dir,
            "payments--cardId",
            0,
            schema(),
            TaskConfig {
                reservoir: ReservoirConfig {
                    chunk_target_events: 8,
                    file_target_bytes: 1,
                    cache_capacity_chunks: 1,
                    prefetch: false,
                    ..ReservoirConfig::default()
                },
                ..TaskConfig::default()
            },
        )
        .unwrap();
        let q = parse_query("SELECT count(*) FROM payments GROUP BY cardId OVER sliding 1 min")
            .unwrap();
        tp.register_query(&q).unwrap();
        // 40 s of events, one a second: chunks 0..5, nothing expires yet.
        for i in 0..40 {
            tp.process_event(&ev(i, i as i64 * 1_000, "A", "m", 1.0)).unwrap();
        }
        tp.drain_reservoir_io().unwrap();
        // The tail still holds chunk 0; chunk 2 (events 16..24) is only on
        // disk. Flip one byte of it.
        let segment = dir.join("reservoir").join("seg-00000002.rail");
        let mut raw = std::fs::read(&segment).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x40;
        std::fs::write(&segment, raw).unwrap();
        // Slide the window over chunk 0 and into chunk 1: still fine.
        let (r, _) = tp.process_event(&ev(100, 70_000, "A", "m", 1.0)).unwrap();
        assert_eq!(result_value(&r, "count(*)"), Value::Int(30));
        assert_eq!(tp.reservoir_stats().failed_loads, 0);
        // ... and into chunk 2: the event fails, typed, naming the place,
        // instead of being answered with a count that can only grow.
        let err = tp.process_event(&ev(101, 80_000, "A", "m", 1.0)).unwrap_err();
        assert!(matches!(err, RailgunError::Corruption(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("seg-00000002.rail:0") && msg.contains("crc"), "{msg}");
        assert_eq!(tp.reservoir_stats().failed_loads, 1);
        // The bound was not committed: the next event runs into it again.
        assert!(tp.process_event(&ev(102, 81_000, "A", "m", 1.0)).is_err());
        assert_eq!(tp.reservoir_stats().failed_loads, 2);
    }
}
