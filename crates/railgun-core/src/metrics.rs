//! The engine's telemetry and SLO plane.
//!
//! The paper's whole premise is operating under **MAD requirements** —
//! millisecond-level latency percentiles that must hold while windows
//! grow (§2). This module lets the *real* engine observe itself against
//! that bar (the simulation harness has always had histograms; the engine
//! did not):
//!
//! * [`EngineTelemetry`] — the shared recording hub a cluster wires
//!   through every layer: front-end enqueue→reply latency (per
//!   [`QueryId`]), unit pump poll/process, reservoir append and
//!   cold-drain chunk misses, store memtable flush;
//! * [`TaskStatsRegistry`] / [`SharedTaskStats`] — cluster-wide,
//!   always-on task counters, readable even while the threaded runtime
//!   owns the task processors (previously `TaskStats` was write-only
//!   from the public API in threaded mode);
//! * [`MetricsSnapshot`] — the typed point-in-time view returned by
//!   [`Cluster::metrics_snapshot`](crate::cluster::Cluster::metrics_snapshot)
//!   and [`Session::metrics`](crate::session::Session::metrics).
//!
//! ## Cost contract
//!
//! Telemetry is **off by default** and free when off: disabled
//! [`Recorder`]s never read the clock, per-request timestamps are not
//! taken, and no per-query state is allocated — pump-mode determinism and
//! the PR-2 hot-path numbers are unaffected. Two things are deliberately
//! always on, because they live off the hot path and close observability
//! holes that existed before this plane:
//!
//! * task counters ([`SharedTaskStats`]): uncontended relaxed atomic
//!   increments, one writer per task, replacing the plain-field counters
//!   that already existed;
//! * backpressure/SLO-breach counters: touched only on error paths and
//!   SLO-tracked completions.
//!
//! Registering an SLO (`.with_slo` on the query builder) switches on
//! request timing for the front-ends even when stage telemetry is off —
//! a latency budget cannot be policed without a clock.
//!
//! ## Overload policy
//!
//! A registered SLO feeds a documented escalation rule: the front-end
//! refuses new work with
//! [`RailgunError::Backpressure`](railgun_types::RailgunError::Backpressure)
//! (counted in
//! [`EngineCounters::backpressure_rejections`]) **before** its in-flight
//! table fills, as soon as both hold:
//!
//! 1. at least half the `max_in_flight` budget is occupied, and
//! 2. the *oldest* in-flight request has been outstanding longer than
//!    [`SLO_OVERLOAD_MULTIPLIER`] × the strictest registered SLO budget.
//!
//! Rationale: once the oldest request is that far past the tightest
//! budget, every queued request behind it is already doomed to breach —
//! accepting more work only grows the queue (and the breach count)
//! without ever meeting the budget. Escalating early keeps the queue
//! bounded near the point where latency targets are still salvageable,
//! which is the M in MAD (§2).
//!
//! ## Snapshot semantics
//!
//! Snapshots are cheap, lock-light reads of monotonically-increasing
//! counters and histograms; two successive snapshots never go backwards.
//! Histograms for disabled stages are present but empty. Per-query
//! entries appear on first tracked completion (or SLO registration) and
//! persist for the cluster's lifetime — an unregistered query keeps its
//! history in the snapshot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;
use railgun_types::{
    AtomicHistogram, Counter, FastHashMap, Histogram, LatencyLadder, Recorder, TimeDelta,
};

use crate::api::{AggregationResult, QueryId};
use crate::task::{StateCacheStats, TaskStats};

/// Escalate to backpressure once the oldest in-flight request exceeds
/// this multiple of the strictest registered SLO budget (and the
/// front-end is at least half full). See the [module docs](self).
pub const SLO_OVERLOAD_MULTIPLIER: u64 = 4;

/// Always-on, lock-free counters of one task processor — the atomic
/// successor of the plain-field counters [`TaskStats`] used to be
/// collected into.
///
/// One writer (the owning task processor's thread), any number of
/// snapshot readers: every field is a relaxed [`AtomicU64`], so the
/// counters stay readable through a [`TaskStatsRegistry`] even while the
/// threaded runtime owns the processor.
#[derive(Debug, Default)]
pub struct SharedTaskStats {
    pub(crate) events_processed: AtomicU64,
    pub(crate) duplicates: AtomicU64,
    pub(crate) late_dropped: AtomicU64,
    pub(crate) inserts: AtomicU64,
    pub(crate) evictions: AtomicU64,
    pub(crate) state_reads: AtomicU64,
    pub(crate) state_writes: AtomicU64,
    pub(crate) state_cache_hits: AtomicU64,
    /// A gauge: what the state cache holds now.
    pub(crate) state_cache_bytes: AtomicU64,
}

impl SharedTaskStats {
    /// Point-in-time copy as the plain [`TaskStats`] POD.
    pub fn snapshot(&self) -> TaskStats {
        TaskStats {
            events_processed: self.events_processed.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
            late_dropped: self.late_dropped.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            state_reads: self.state_reads.load(Ordering::Relaxed),
            state_writes: self.state_writes.load(Ordering::Relaxed),
        }
    }

    /// Point-in-time copy of the state-cache counters.
    pub fn state_cache(&self) -> StateCacheStats {
        StateCacheStats {
            state_cache_hits: self.state_cache_hits.load(Ordering::Relaxed),
            state_cache_bytes: self.state_cache_bytes.load(Ordering::Relaxed),
        }
    }
}

/// A cluster-wide registry of live task processors' [`SharedTaskStats`].
///
/// Task processors register themselves at open (via
/// `TaskConfig::stats_registry`); the registry holds weak references, so
/// a processor dropped in a rebalance stops contributing without any
/// unregistration protocol. [`TaskStatsRegistry::aggregate`] sums the
/// survivors — that sum is what [`MetricsSnapshot::tasks`] reports.
#[derive(Debug, Clone, Default)]
pub struct TaskStatsRegistry(Arc<Mutex<Vec<Weak<SharedTaskStats>>>>);

impl TaskStatsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Track a task processor's counters (weakly).
    pub fn register(&self, stats: &Arc<SharedTaskStats>) {
        let mut slots = self.0.lock();
        slots.retain(|w| w.strong_count() > 0);
        slots.push(Arc::downgrade(stats));
    }

    /// Run `f` on every live registered task processor's counters.
    fn each(&self, mut f: impl FnMut(&SharedTaskStats)) {
        let mut slots = self.0.lock();
        slots.retain(|w| w.strong_count() > 0);
        slots.iter().filter_map(Weak::upgrade).for_each(|s| f(&s));
    }

    /// Sum the counters of every live registered task processor.
    pub fn aggregate(&self) -> TaskStats {
        let mut total = TaskStats::default();
        self.each(|stats| {
            let s = stats.snapshot();
            total.events_processed += s.events_processed;
            total.duplicates += s.duplicates;
            total.late_dropped += s.late_dropped;
            total.inserts += s.inserts;
            total.evictions += s.evictions;
            total.state_reads += s.state_reads;
            total.state_writes += s.state_writes;
        });
        total
    }

    /// Sum the state-cache counters of every live registered task
    /// processor.
    pub fn aggregate_state_cache(&self) -> StateCacheStats {
        let mut total = StateCacheStats::default();
        self.each(|stats| {
            let s = stats.state_cache();
            total.state_cache_hits += s.state_cache_hits;
            total.state_cache_bytes += s.state_cache_bytes;
        });
        total
    }

    /// Number of live registered task processors.
    pub fn len(&self) -> usize {
        let mut slots = self.0.lock();
        slots.retain(|w| w.strong_count() > 0);
        slots.len()
    }

    /// True iff no live task processor is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-query latency tracking: histogram, optional SLO budget, breach
/// and completion counters. Entries are shared (`Arc`) between the hub
/// and per-front-end caches, so recording needs no registry lock.
#[derive(Debug, Default)]
pub(crate) struct QueryTelemetry {
    latency: AtomicHistogram,
    /// SLO budget in microseconds; 0 = none registered.
    slo_us: AtomicU64,
    breaches: AtomicU64,
    completed: AtomicU64,
}

impl QueryTelemetry {
    /// Record one completion against this query (and the hub's global
    /// breach counter when over budget).
    fn record_completion(&self, hub: &EngineTelemetry, elapsed_us: u64) {
        self.latency.record(elapsed_us);
        self.completed.fetch_add(1, Ordering::Relaxed);
        let slo = self.slo_us.load(Ordering::Relaxed);
        if slo > 0 && elapsed_us > slo {
            self.breaches.fetch_add(1, Ordering::Relaxed);
            hub.slo_breaches.incr();
        }
    }
}

/// The shared recording hub of one cluster.
///
/// Created by [`Cluster::new`](crate::cluster::Cluster::new) (enabled per
/// `ClusterConfig::telemetry`) and threaded through every layer: the
/// front-ends time enqueue→reply per request and per [`QueryId`], the
/// processor units time poll/process, and the reservoir/store recorders
/// are injected into their configs. See the [module docs](self) for the
/// cost contract.
#[derive(Debug)]
pub struct EngineTelemetry {
    enabled: bool,
    frontend_e2e: Recorder,
    unit_poll: Recorder,
    unit_process: Recorder,
    reservoir_append: Recorder,
    store_flush: Recorder,
    chunk_misses: Counter,
    backpressure: Counter,
    slo_breaches: Counter,
    /// Reply records a front-end could not decode and skipped (always
    /// on — an error path).
    undecodable_replies: Counter,
    /// Op records front-ends skipped (always on — an error path).
    skipped_ops: Counter,
    /// Events per flushed front-end ingest batch. Always on: one sample
    /// per batch (not per event) and no clock read, so it rides the
    /// amortized flush path for free — like the task counters.
    batch_size: Recorder,
    /// Events published by front-ends in batches of ≥ 2 (batch-of-1
    /// flushes are the unbatched baseline and are not counted).
    frontend_batched: Counter,
    /// Events processed by units in same-task runs of ≥ 2 per poll.
    unit_batched: Counter,
    /// Corrupt/partial checkpoints that degraded to a full topic replay
    /// (always on).
    checkpoint_fallbacks: Counter,
    /// Gained tasks restored from a checkpoint image on rebalance
    /// (always on — one event per handover, far off the hot path).
    handovers: Counter,
    /// Tail events handovers still replayed after restoring (always on).
    tail_replayed: Counter,
    /// Handovers that found a checkpoint record but degraded to a full
    /// replay because the image failed validation (always on).
    handover_fallbacks: Counter,
    /// Scheduled drains that completed (always on).
    drains: Counter,
    /// Strictest registered SLO budget in µs (0 = none) — the overload
    /// policy's reference point, read on every `send_event`.
    strictest_slo_us: AtomicU64,
    per_query: Mutex<FastHashMap<QueryId, Arc<QueryTelemetry>>>,
    tasks: TaskStatsRegistry,
}

impl EngineTelemetry {
    /// Build the hub. With `enabled == false` every stage recorder is
    /// disabled (free); the always-on pieces (task counters, error-path
    /// counters) remain live.
    pub fn new(enabled: bool) -> Self {
        let recorder = || {
            if enabled {
                Recorder::enabled()
            } else {
                Recorder::disabled()
            }
        };
        EngineTelemetry {
            enabled,
            frontend_e2e: recorder(),
            unit_poll: recorder(),
            unit_process: recorder(),
            reservoir_append: recorder(),
            store_flush: recorder(),
            chunk_misses: if enabled {
                Counter::enabled()
            } else {
                Counter::disabled()
            },
            backpressure: Counter::enabled(),
            slo_breaches: Counter::enabled(),
            undecodable_replies: Counter::enabled(),
            skipped_ops: Counter::enabled(),
            batch_size: Recorder::enabled(),
            frontend_batched: Counter::enabled(),
            unit_batched: Counter::enabled(),
            checkpoint_fallbacks: Counter::enabled(),
            handovers: Counter::enabled(),
            tail_replayed: Counter::enabled(),
            handover_fallbacks: Counter::enabled(),
            drains: Counter::enabled(),
            strictest_slo_us: AtomicU64::new(0),
            per_query: Mutex::new(FastHashMap::default()),
            tasks: TaskStatsRegistry::new(),
        }
    }

    /// True iff stage telemetry was enabled at construction.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The unit-pump poll recorder (for unit configs).
    pub fn unit_poll_recorder(&self) -> Recorder {
        self.unit_poll.clone()
    }

    /// The unit per-message process recorder (for unit configs).
    pub fn unit_process_recorder(&self) -> Recorder {
        self.unit_process.clone()
    }

    /// The reservoir append recorder (for `ReservoirConfig`).
    pub fn reservoir_append_recorder(&self) -> Recorder {
        self.reservoir_append.clone()
    }

    /// The store flush recorder (for `DbOptions`).
    pub fn store_flush_recorder(&self) -> Recorder {
        self.store_flush.clone()
    }

    /// The reservoir cold-drain chunk-miss counter (for
    /// `ReservoirConfig`).
    pub fn chunk_miss_counter(&self) -> Counter {
        self.chunk_misses.clone()
    }

    /// The cluster-wide task-stats registry (for `TaskConfig`).
    pub fn task_registry(&self) -> TaskStatsRegistry {
        self.tasks.clone()
    }

    /// The batch-size recorder: front-ends record the event count of
    /// every flushed ingest batch and units the length of every same-task
    /// run (always on — one sample per batch or run).
    pub fn batch_size_recorder(&self) -> Recorder {
        self.batch_size.clone()
    }

    /// Counter of events front-ends published in batches of ≥ 2.
    pub fn frontend_batched_counter(&self) -> Counter {
        self.frontend_batched.clone()
    }

    /// Counter of events units processed in same-task runs of ≥ 2 (for
    /// unit configs).
    pub fn unit_batched_counter(&self) -> Counter {
        self.unit_batched.clone()
    }

    /// Counter of checkpoint restores that degraded to full replay (for
    /// `TaskConfig::checkpoint_fallbacks`).
    pub fn checkpoint_fallback_counter(&self) -> Counter {
        self.checkpoint_fallbacks.clone()
    }

    /// Counter of rebalance-gained tasks restored from a checkpoint
    /// image (for `UnitConfig::handovers`).
    pub fn handover_counter(&self) -> Counter {
        self.handovers.clone()
    }

    /// Counter of tail events handovers replayed after restoring (for
    /// `UnitConfig::tail_replayed`).
    pub fn tail_replayed_counter(&self) -> Counter {
        self.tail_replayed.clone()
    }

    /// Counter of handovers that degraded to a full replay (for
    /// `UnitConfig::handover_fallbacks`).
    pub fn handover_fallback_counter(&self) -> Counter {
        self.handover_fallbacks.clone()
    }

    /// Counter of completed scheduled drains (bumped by
    /// `Cluster::drain_node`).
    pub fn drain_counter(&self) -> Counter {
        self.drains.clone()
    }

    /// True iff front-ends should timestamp requests: stage telemetry is
    /// on, or at least one SLO budget is registered (a budget cannot be
    /// policed without a clock).
    #[inline]
    pub fn wants_request_timing(&self) -> bool {
        self.enabled || self.strictest_slo_us.load(Ordering::Relaxed) > 0
    }

    /// The strictest registered SLO budget in µs (0 = none).
    #[inline]
    pub fn strictest_slo_us(&self) -> u64 {
        self.strictest_slo_us.load(Ordering::Relaxed)
    }

    /// Register (or tighten/replace) the latency budget of `id`.
    pub fn set_slo(&self, id: QueryId, budget: TimeDelta) {
        let us = (budget.as_millis().max(0) as u64).saturating_mul(1_000).max(1);
        self.entry(id).slo_us.store(us, Ordering::Relaxed);
        // Recompute the strictest budget across all entries (SLO updates
        // are rare control-plane events; a full walk is fine).
        let strictest = self
            .per_query
            .lock()
            .values()
            .map(|q| q.slo_us.load(Ordering::Relaxed))
            .filter(|&us| us > 0)
            .min()
            .unwrap_or(0);
        self.strictest_slo_us.store(strictest, Ordering::Relaxed);
    }

    /// Count a refused send (front-end at capacity or SLO overload).
    pub fn count_backpressure(&self) {
        self.backpressure.incr();
    }

    /// Count a reply record a front-end skipped because it did not decode.
    pub fn count_undecodable_reply(&self) {
        self.undecodable_replies.incr();
    }

    /// Count an op record a front-end could not decode or apply.
    pub fn count_skipped_op(&self) {
        self.skipped_ops.incr();
    }

    fn entry(&self, id: QueryId) -> Arc<QueryTelemetry> {
        Arc::clone(
            self.per_query
                .lock()
                .entry(id)
                .or_insert_with(|| Arc::new(QueryTelemetry::default())),
        )
    }

    /// Record one completed request: `elapsed_us` of enqueue→reply, plus
    /// a per-query sample (and SLO breach check) for every distinct query
    /// appearing in the reply.
    pub fn observe_completion(&self, aggregations: &[AggregationResult], elapsed_us: u64) {
        let mut scratch = FastHashMap::default();
        self.observe_completion_cached(&mut scratch, aggregations, elapsed_us);
    }

    /// [`EngineTelemetry::observe_completion`] with a caller-owned cache
    /// of per-query entries (keyed by stable [`QueryId`]), so steady-state
    /// recording touches the hub's registry mutex only the first time a
    /// front-end sees a query — keeping the reply-drain path lock-free as
    /// the cost contract promises. Entries are shared `Arc`s, so SLO
    /// budgets set after caching still apply.
    pub(crate) fn observe_completion_cached(
        &self,
        cache: &mut FastHashMap<QueryId, Arc<QueryTelemetry>>,
        aggregations: &[AggregationResult],
        elapsed_us: u64,
    ) {
        self.frontend_e2e.record(elapsed_us);
        // Replies are small (one entry per metric ref); a linear distinct
        // scan beats allocating a set.
        let mut seen: Vec<QueryId> = Vec::with_capacity(4);
        for agg in aggregations {
            if seen.contains(&agg.query) {
                continue;
            }
            seen.push(agg.query);
            let q = cache
                .entry(agg.query)
                .or_insert_with(|| self.entry(agg.query));
            q.record_completion(self, elapsed_us);
        }
    }

    /// Assemble the typed point-in-time view.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let stage = |r: &Recorder| r.snapshot().unwrap_or_default();
        let mut queries: Vec<QueryMetrics> = self
            .per_query
            .lock()
            .iter()
            .map(|(&id, q)| {
                let slo_us = q.slo_us.load(Ordering::Relaxed);
                QueryMetrics {
                    id,
                    latency: q.latency.snapshot(),
                    slo: (slo_us > 0).then(|| TimeDelta::from_millis((slo_us / 1_000) as i64)),
                    breaches: q.breaches.load(Ordering::Relaxed),
                    completed: q.completed.load(Ordering::Relaxed),
                }
            })
            .collect();
        queries.sort_by_key(|q| q.id);
        MetricsSnapshot {
            telemetry_enabled: self.enabled,
            stages: StageLatencies {
                frontend_e2e: stage(&self.frontend_e2e),
                unit_poll: stage(&self.unit_poll),
                unit_process: stage(&self.unit_process),
                reservoir_append: stage(&self.reservoir_append),
                store_wal_append: Histogram::default(),
                store_flush: stage(&self.store_flush),
            },
            counters: EngineCounters {
                backpressure_rejections: self.backpressure.get(),
                slo_breaches: self.slo_breaches.get(),
                undecodable_replies: self.undecodable_replies.get(),
                skipped_ops: self.skipped_ops.get(),
                reservoir_chunk_misses: self.chunk_misses.get(),
            },
            batching: BatchingMetrics {
                batch_size: self.batch_size.snapshot().unwrap_or_default(),
                frontend_batched_events: self.frontend_batched.get(),
                unit_batched_events: self.unit_batched.get(),
            },
            recovery: RecoveryCounters {
                checkpoint_fallbacks: self.checkpoint_fallbacks.get(),
            },
            elastic: ElasticCounters {
                handovers_completed: self.handovers.get(),
                tail_events_replayed: self.tail_replayed.get(),
                handover_fallbacks: self.handover_fallbacks.get(),
                drains_completed: self.drains.get(),
            },
            tasks: self.tasks.aggregate(),
            state_cache: self.tasks.aggregate_state_cache(),
            queries,
        }
    }
}

/// Observability of the batched ingest path (always on — everything here
/// is recorded once per batch, never per event).
#[derive(Debug, Clone, Default)]
pub struct BatchingMetrics {
    /// Batch sizes, not latencies, from two sources in one histogram:
    /// events per flushed front-end ingest batch, and events per same-task
    /// run a processor unit processed. A p50 of 1 means batches of one on
    /// at least one side; the two counters below tell the sides apart.
    pub batch_size: Histogram,
    /// Events front-ends published in batches of ≥ 2.
    pub frontend_batched_events: u64,
    /// Events processor units handled in same-task runs of ≥ 2.
    pub unit_batched_events: u64,
}

/// Per-stage latency histograms (µs). Disabled stages are present but
/// empty (`count() == 0`).
#[derive(Debug, Clone, Default)]
pub struct StageLatencies {
    /// Front-end enqueue→reply, whole requests (all queries).
    pub frontend_e2e: Histogram,
    /// Processor-unit active-consumer poll duration, per pump.
    pub unit_poll: Histogram,
    /// Processor-unit per-message task processing duration.
    pub unit_process: Histogram,
    /// Reservoir append (lock wait included).
    pub reservoir_append: Histogram,
    /// Always empty: the state store keeps no write-ahead log. Kept
    /// only because the benchmark package reads it.
    pub store_wal_append: Histogram,
    /// State-store memtable flush.
    pub store_flush: Histogram,
}

/// Engine-level event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Sends refused with `Backpressure` (cap reached or SLO overload).
    pub backpressure_rejections: u64,
    /// Completions that exceeded their query's SLO budget (all queries).
    pub slo_breaches: u64,
    /// Reply records front-ends skipped because they did not decode; the
    /// rest of their poll was still delivered (always on).
    pub undecodable_replies: u64,
    /// Op records front-ends skipped because they did not decode or could
    /// not be applied; the ops behind them still applied (always on).
    pub skipped_ops: u64,
    /// Reservoir chunk-cache misses (cold drains that had to touch disk).
    /// Populated only while stage telemetry is enabled.
    pub reservoir_chunk_misses: u64,
}

/// Crash-recovery counters (always on — recovery runs once per restore,
/// far off the hot path, and every one of these events means data on
/// disk was not what the engine left there). Zero across the board is
/// the healthy steady state; anything else deserves a look at the node's
/// disk before it becomes a pattern.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Checkpoint restores that found a corrupt/partial image and
    /// degraded to a full topic replay instead of wedging.
    pub checkpoint_fallbacks: u64,
}

/// Elastic-membership counters (always on — every one of these events is
/// a rebalance-scale occurrence, far off the hot path). Together they
/// tell the Figure 10 story in numbers: how often state moved by image
/// instead of replay, how short the replayed tails were, and how many
/// planned drains completed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElasticCounters {
    /// Rebalance-gained tasks restored from a checkpoint image (the fast
    /// arm; the task replayed only the tail past the recorded offset).
    pub handovers_completed: u64,
    /// Tail events those handovers still replayed. Divide by
    /// `handovers_completed` for the mean tail length — the drain
    /// protocol exists to keep this near zero.
    pub tail_events_replayed: u64,
    /// Handovers that found a checkpoint record but fell back to a full
    /// replay because the image failed validation (the degraded arm; a
    /// cold boot with no record counts as neither).
    pub handover_fallbacks: u64,
    /// Scheduled drains that completed (`Cluster::drain_node`).
    pub drains_completed: u64,
}

/// Latency ladder and SLO standing of one registered query.
#[derive(Debug, Clone)]
pub struct QueryMetrics {
    /// The stable id replies key this query's aggregations by.
    pub id: QueryId,
    /// Enqueue→reply latency of requests whose replies carried this
    /// query's aggregations (µs).
    pub latency: Histogram,
    /// The registered SLO budget, if any (millisecond resolution).
    pub slo: Option<TimeDelta>,
    /// Completions that exceeded the budget.
    pub breaches: u64,
    /// Tracked completions.
    pub completed: u64,
}

impl QueryMetrics {
    /// The standard percentile ladder of this query's latency.
    pub fn ladder(&self) -> LatencyLadder {
        LatencyLadder::from_histogram(&self.latency)
    }
}

/// A typed point-in-time view of the engine's telemetry. Obtained from
/// [`Cluster::metrics_snapshot`](crate::cluster::Cluster::metrics_snapshot)
/// or [`Session::metrics`](crate::session::Session::metrics); see the
/// [module docs](self) for snapshot semantics.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Whether stage telemetry was enabled for this cluster.
    pub telemetry_enabled: bool,
    /// Per-stage latency histograms.
    pub stages: StageLatencies,
    /// Engine-level counters.
    pub counters: EngineCounters,
    /// Batched-ingest observability: batch-size histogram and per-stage
    /// batched-event counters (always on).
    pub batching: BatchingMetrics,
    /// Crash-recovery counters: checkpoint fallbacks (always on).
    pub recovery: RecoveryCounters,
    /// Elastic-membership counters: handovers, replayed tails and drains
    /// (always on).
    pub elastic: ElasticCounters,
    /// Aggregated counters over every live task processor (always on).
    pub tasks: TaskStats,
    /// The state caches of every live task processor, summed (always on).
    pub state_cache: StateCacheStats,
    /// Per-query ladders, in [`QueryId`] order.
    pub queries: Vec<QueryMetrics>,
}

impl MetricsSnapshot {
    /// The metrics of one query, if it has been tracked.
    pub fn query(&self, id: QueryId) -> Option<&QueryMetrics> {
        self.queries.iter().find(|q| q.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use railgun_types::Value;

    fn agg(query: QueryId) -> AggregationResult {
        AggregationResult {
            query,
            index: 0,
            name: "count(*)".into(),
            entity: vec![Value::Str("e".into())].into(),
            value: Value::Int(1),
        }
    }

    #[test]
    fn disabled_hub_has_empty_stages_but_live_counters() {
        let t = EngineTelemetry::new(false);
        assert!(!t.is_enabled());
        assert!(!t.wants_request_timing());
        t.count_backpressure();
        let snap = t.snapshot();
        assert_eq!(snap.stages.frontend_e2e.count(), 0);
        assert_eq!(snap.counters.backpressure_rejections, 1);
    }

    #[test]
    fn slo_registration_enables_request_timing_and_breach_counting() {
        let t = EngineTelemetry::new(false);
        let q = QueryId(7);
        t.set_slo(q, TimeDelta::from_millis(5));
        assert!(t.wants_request_timing());
        assert_eq!(t.strictest_slo_us(), 5_000);
        // Under budget: completion tracked, no breach.
        t.observe_completion(&[agg(q)], 1_000);
        // Over budget: breach.
        t.observe_completion(&[agg(q)], 9_000);
        let snap = t.snapshot();
        let qm = snap.query(q).expect("tracked");
        assert_eq!(qm.completed, 2);
        assert_eq!(qm.breaches, 1);
        assert_eq!(qm.slo, Some(TimeDelta::from_millis(5)));
        assert_eq!(snap.counters.slo_breaches, 1);
        assert!(qm.ladder().max_us >= 9_000);
    }

    #[test]
    fn strictest_slo_tracks_minimum() {
        let t = EngineTelemetry::new(false);
        t.set_slo(QueryId(1), TimeDelta::from_millis(100));
        t.set_slo(QueryId(2), TimeDelta::from_millis(10));
        assert_eq!(t.strictest_slo_us(), 10_000);
        t.set_slo(QueryId(2), TimeDelta::from_millis(500));
        assert_eq!(t.strictest_slo_us(), 100_000);
    }

    #[test]
    fn completion_dedups_query_ids_within_one_reply() {
        let t = EngineTelemetry::new(true);
        let q = QueryId(3);
        // Two aggregations of the same query in one reply (multi-SELECT)
        // count as ONE completion.
        t.observe_completion(&[agg(q), agg(q)], 500);
        assert_eq!(t.snapshot().query(q).unwrap().completed, 1);
    }

    #[test]
    fn registry_aggregates_live_tasks_only() {
        let reg = TaskStatsRegistry::new();
        let a = Arc::new(SharedTaskStats::default());
        let b = Arc::new(SharedTaskStats::default());
        reg.register(&a);
        reg.register(&b);
        a.events_processed.fetch_add(3, Ordering::Relaxed);
        b.events_processed.fetch_add(4, Ordering::Relaxed);
        assert_eq!(reg.aggregate().events_processed, 7);
        assert_eq!(reg.len(), 2);
        drop(b);
        assert_eq!(reg.aggregate().events_processed, 3);
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
    }

    #[test]
    fn recovery_counters_flow_into_snapshot() {
        let t = EngineTelemetry::new(false);
        // Recovery counters are always on, even with stage telemetry off:
        // the injected handles must observably reach the snapshot.
        t.checkpoint_fallback_counter().incr();
        let snap = t.snapshot();
        assert_eq!(
            snap.recovery,
            RecoveryCounters {
                checkpoint_fallbacks: 1,
            }
        );
    }

    #[test]
    fn elastic_counters_flow_into_snapshot() {
        let t = EngineTelemetry::new(false);
        // Elastic counters are always on, even with stage telemetry off.
        t.handover_counter().incr();
        t.tail_replayed_counter().add(42);
        t.handover_fallback_counter().incr();
        t.drain_counter().incr();
        let snap = t.snapshot();
        assert_eq!(
            snap.elastic,
            ElasticCounters {
                handovers_completed: 1,
                tail_events_replayed: 42,
                handover_fallbacks: 1,
                drains_completed: 1,
            }
        );
    }

    #[test]
    fn snapshots_are_monotone() {
        let t = EngineTelemetry::new(true);
        t.observe_completion(&[agg(QueryId(1))], 100);
        let s1 = t.snapshot();
        t.observe_completion(&[agg(QueryId(1))], 200);
        t.count_backpressure();
        let s2 = t.snapshot();
        assert!(s2.stages.frontend_e2e.count() > s1.stages.frontend_e2e.count());
        assert!(
            s2.counters.backpressure_rejections > s1.counters.backpressure_rejections
        );
        assert!(s2.query(QueryId(1)).unwrap().completed > s1.query(QueryId(1)).unwrap().completed);
    }
}
