//! The traced run (`--trace 1`): the per-layer metrics.
//!
//! Every number here is taken from outside the engine, through its public
//! API, three ways (the letters are used in `README.md`):
//!
//! * **S** — counters the engine already keeps, read around a threaded run
//!   with `telemetry = true` (and the same run with it off, whose ratio is
//!   the tracing overhead);
//! * **P** — pump mode: the benchmark owns a `MessageBus`, a `FrontEnd`
//!   and a `ProcessorUnit` on one thread and puts a span around each call,
//!   so the three calls plus the loop's own time add up to the wall time;
//! * **R** — isolated replay: one layer's public function called in a
//!   loop on the workload's own events and keys.
//!
//! Spans are kept in memory and written to `trace-<workload>.json` at the
//! end.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use railgun_core::agg::{AggContext, AggScratch, AggState};
use railgun_core::api::{encode_event_request, reply_topic_name, topic_name};
use railgun_core::frontend::FrontEnd;
use railgun_core::keys::state_key;
use railgun_core::unit::{ProcessorUnit, UnitConfig};
use railgun_core::{
    parse_query, AggFunc, EngineTelemetry, EventRequest, MetricsSnapshot, RailgunStrategy,
    TaskProcessor, TaskStats,
};
use railgun_messaging::{
    partition_for_key, BatchEntry, BusClock, BusConfig, BusStats, Consumer, MessageBus, Producer,
    TopicPartition,
};
use railgun_reservoir::{Reservoir, ReservoirStats};
use railgun_store::{Db, DbStats};
use railgun_types::encode::{get_event, put_event, put_value};
use railgun_types::{BatchFrameBuilder, Event, EventId, Histogram, Result, Timestamp};

use crate::e2e::{self, Engine, RawClient};
use crate::gen::{self, EventGen};
use crate::oracle::{self, Oracle};
use crate::report::{Metric, Report};
use crate::stats::{self, ThreadCpu};
use crate::trace::Trace;
use crate::workloads::{Load, Spec, MAX_IN_FLIGHT, PARTITIONS, STREAM};

/// Measured segments of each threaded run (telemetry on, telemetry off);
/// the pump run does one segment's events.
const SEGMENTS: usize = 3;
/// Events of a depth-1 (one request at a time) latency probe.
const PROBE_EVENTS: u64 = 1_500;
/// Spans the pump run may add to the trace before it stops recording one
/// per call.
const MAX_CALL_SPANS: usize = 30_000;

pub fn run(spec: &Spec, seed: u64, seconds: f64, work: &Path, out: &Path) -> Result<Report> {
    let gen = spec.generator(seed);
    let mut trace = Trace::new();
    let mut report = Report::new(spec.name, seed, true);
    let canary_before = crate::canary_ns();

    // S: the threaded run, traced and untraced, over the same segments of
    // the same size as the end-to-end run's.
    let events = spec.segment(seconds);
    let traced = threaded(
        spec,
        &gen,
        seed,
        &work.join("traced"),
        true,
        events,
        &mut trace,
    )?;
    let plain = threaded(
        spec,
        &gen,
        seed,
        &work.join("plain"),
        false,
        events,
        &mut trace,
    )?;
    // One pump cycle handles what the threaded run keeps in flight: the
    // closed loop's depth, or rate x reply time under the open loop.
    let in_flight = match spec.load {
        Load::Closed { depth } => depth,
        Load::Open { rate_eps } => {
            let p50_s = stats::percentile_sorted(&traced.latency_ns, 50.0) as f64 / 1e9;
            ((rate_eps * p50_s).ceil() as usize).clamp(1, 64)
        }
    };
    let pump = pumped(
        spec,
        &gen,
        &work.join("pump"),
        in_flight,
        events,
        &mut trace,
    )?;
    let replay = replays(spec, &gen, &work.join("replay"), &mut trace)?;
    let canary_ratio = crate::canary_ns() / canary_before;

    let events = traced.events.max(1) as f64;
    let tasks = &traced.task_delta;
    let reads_per_event = tasks.state_reads as f64 / events;
    let writes_per_event = tasks.state_writes as f64 / events;
    let inserts_per_event = tasks.inserts as f64 / events;
    let evictions_per_event = tasks.evictions as f64 / events;
    let cache = &traced.reservoir.cache;
    let chunk_miss_ratio = cache.misses as f64 / (cache.hits + cache.misses).max(1) as f64;
    // What one event spends below the task, rebuilt from the replays and
    // the counted operations: one append, one head and one tail drain per
    // entering / expiring event, one get and one put per state access.
    let tail_drain_ns = if chunk_miss_ratio > 0.01 {
        replay.drain_cold_ns
    } else {
        replay.drain_hot_ns
    };
    let below_task_ns = replay.append_ns
        + inserts_per_event * replay.drain_hot_ns
        + evictions_per_event * tail_drain_ns
        + reads_per_event * replay.get_mem_ns
        + writes_per_event * replay.put_ns;
    let pump_sum_ns = pump.send_ns + pump.unit_ns + pump.frontend_ns;
    let wall = traced.wall_ns.max(1) as f64;

    report.correct = traced.verdict.correct();
    report.attempted = traced.events + traced.failed + pump.events;
    report.failed = traced.failed;
    report.note(format!(
        "S: {} events threaded with telemetry on ({:.0} ev/s), off ({:.0} ev/s); P: {} events pumped in batches of {}",
        traced.events, traced.throughput_eps, plain.throughput_eps, pump.events, pump.batch
    ));
    report.note(traced.verdict.summary());
    let ns = |name, v| Metric::new(name, v, "ns");
    let ms = |name, v| Metric::new(name, v, "ms");
    let us = |name, v| Metric::new(name, v, "us");
    let count = |name, v| Metric::new(name, v, "count");
    let ratio = |name, v| Metric::new(name, v, "ratio");
    let lat = |p: f64| stats::percentile_sorted(&traced.latency_ns, p) as f64 / 1e3;
    report.metrics = vec![
        ns("types.encode_event_ns", replay.encode_ns),
        ns("types.decode_event_ns", replay.decode_ns),
        ns("types.schema_check_ns", replay.schema_check_ns),
        Metric::new("types.frame_bytes_per_event", replay.frame_bytes, "B"),
        ns("messaging.publish_b1_ns", replay.publish_b1_ns),
        ns("messaging.publish_b64_ns", replay.publish_b64_ns),
        ns("messaging.poll_ns", replay.poll_ns),
        us("messaging.wake_latency_p50_us", replay.wake_p50_us),
        count(
            "messaging.records_per_batch",
            traced.bus.records_produced as f64 / traced.bus.batches_produced.max(1) as f64,
        ),
        Metric::new(
            "messaging.bytes_per_event",
            traced.bus.bytes_produced as f64 / events,
            "B",
        ),
        count("messaging.rebalances", traced.bus.rebalances as f64),
        ns("reservoir.append_ns", replay.append_ns),
        ns("reservoir.append_batch64_ns", replay.append_batch64_ns),
        ns("reservoir.drain_hot_ns", replay.drain_hot_ns),
        ns("reservoir.drain_cold_ns", replay.drain_cold_ns),
        ms("reservoir.checkpoint_ms", replay.reservoir_checkpoint_ms),
        ratio("reservoir.chunk_miss_ratio", chunk_miss_ratio),
        count("reservoir.prefetch_inserts", cache.prefetch_inserts as f64),
        count("reservoir.cache_evictions", cache.evictions as f64),
        Metric::new(
            "reservoir.bytes_written_per_event",
            traced.reservoir.bytes_written as f64 / traced.reservoir.appended.max(1) as f64,
            "B",
        ),
        Metric::new(
            "reservoir.memory_bytes",
            traced.reservoir.memory_bytes as f64,
            "B",
        ),
        count(
            "reservoir.events_in_memory",
            traced.reservoir.events_in_memory as f64,
        ),
        count(
            "reservoir.late_discarded",
            traced.reservoir.late_discarded as f64,
        ),
        ns("store.put_ns", replay.put_ns),
        ns("store.get_mem_ns", replay.get_mem_ns),
        ns("store.get_sst_ns", replay.get_sst_ns),
        ns("store.get_miss_ns", replay.get_miss_ns),
        ms("store.flush_ms", replay.flush_ms),
        ms("store.compact_ms", replay.compact_ms),
        ms("store.checkpoint_ms", replay.store_checkpoint_ms),
        count("store.reads_per_event", reads_per_event),
        count("store.writes_per_event", writes_per_event),
        count("store.flushes", traced.store.flushes as f64),
        count("store.compactions", traced.store.compactions as f64),
        count("store.filter_dropped", traced.store.filter_dropped as f64),
        count("store.sst_count", traced.store.sst_count as f64),
        Metric::new("store.sst_bytes", traced.store.sst_bytes as f64, "B"),
        Metric::new(
            "store.memtable_bytes",
            traced.store.memtable_bytes as f64,
            "B",
        ),
        ns(
            "store.wal_append_ns",
            traced.cluster.stages.store_wal_append.mean() * 1e3,
        ),
        ns("core.task.process_event_ns", replay.process_event_ns),
        ns("core.task.process_batch64_ns", replay.process_batch64_ns),
        ns("core.task.self_ns", replay.process_event_ns - below_task_ns),
        ms("core.task.checkpoint_ms", replay.task_checkpoint_ms),
        ms("core.task.restore_ms", replay.task_restore_ms),
        count("core.task.inserts_per_event", inserts_per_event),
        count("core.task.evictions_per_event", evictions_per_event),
        count("core.task.late_dropped", tasks.late_dropped as f64),
        ns("core.agg.sum_ns", replay.agg_sum_ns),
        ns("core.agg.count_distinct_exact_ns", replay.agg_distinct_ns),
        ns("core.agg.hll_ns", replay.agg_hll_ns),
        ns("core.agg.topk_ns", replay.agg_topk_ns),
        ns("core.agg.quantile_ns", replay.agg_quantile_ns),
        ns("core.frontend.send_ns", pump.send_ns),
        ns("core.frontend.pump_ns", pump.frontend_ns),
        count("core.frontend.batch_size_p50", traced.frontend_batch_p50),
        count(
            "core.frontend.backpressure_rejections",
            traced.backpressure as f64,
        ),
        ns("core.unit.pump_ns", pump.unit_ns),
        ns(
            "core.unit.overhead_ns",
            pump.unit_ns - replay.process_event_ns,
        ),
        count("core.unit.run_len_p50", traced.unit_run_p50),
        us(
            "core.unit.poll_us_mean",
            traced.cluster.stages.unit_poll.mean(),
        ),
        us(
            "core.unit.process_us_mean",
            traced.cluster.stages.unit_process.mean(),
        ),
        us(
            "core.runtime.handoff_us",
            (traced.probe_p50_ns - pump.probe_p50_ns) / 1e3,
        ),
        ratio(
            "core.runtime.unit_busy_ratio",
            traced.busy_ns[0] as f64 / wall,
        ),
        ratio(
            "core.runtime.client_busy_ratio",
            traced.busy_ns[1] as f64 / wall,
        ),
        ratio(
            "core.runtime.io_busy_ratio",
            traced.busy_ns[2] as f64 / wall,
        ),
        ns("ledger.pump_sum_ns", pump_sum_ns),
        ratio(
            "ledger.unattributed_ratio",
            1.0 - pump_sum_ns / pump.wall_ns.max(1.0),
        ),
        ratio(
            "trace.overhead_ratio",
            // Both runs measured the same segments of the same stream:
            // compare like with like, and let one disturbed pair not decide.
            stats::median(
                &traced
                    .segment_eps
                    .iter()
                    .zip(&plain.segment_eps)
                    .map(|(on, off)| on / off.max(1.0))
                    .collect::<Vec<f64>>(),
            ),
        ),
        us("client.reply_p90_us", lat(90.0)),
        us("client.reply_p99_us", lat(99.0)),
        us("client.reply_p999_us", lat(99.9)),
        us("client.reply_max_us", lat(100.0)),
        count("client.samples", traced.latency_ns.len() as f64),
        ratio("client.segment_spread", stats::spread(&traced.segment_eps)),
        us("client.gen_lag_max_us", traced.gen_lag_max_ns as f64 / 1e3),
        count("client.backlog_max", traced.backlog_max as f64),
        count("client.stalls_over_1ms", traced.stalls as f64),
        ratio("client.noise_canary_ratio", canary_ratio),
        Metric::new("client.rss_growth_mb", traced.rss_growth_mb, "MB"),
        count("oracle.checked", traced.verdict.checked as f64),
        count("oracle.known_defects", traced.verdict.known_defects as f64),
    ];
    report.extras = vec![
        ns("ledger.pump_wall_ns", pump.wall_ns),
        ns("ledger.below_task_ns", below_task_ns),
        count("trace.spans", trace.len() as f64),
    ];
    trace
        .write(
            &out.join(format!("trace-{}.json", spec.name)),
            spec.name,
            seed,
        )
        .map_err(railgun_types::RailgunError::Io)?;
    Ok(report)
}

// ---------------------------------------------------------------------------
// S: threaded run
// ---------------------------------------------------------------------------

struct Threaded {
    events: u64,
    failed: u64,
    wall_ns: u64,
    throughput_eps: f64,
    segment_eps: Vec<f64>,
    latency_ns: Vec<u64>,
    gen_lag_max_ns: u64,
    backlog_max: u64,
    stalls: u64,
    /// Engine counters of the measured segments only (prefill deducted).
    bus: BusStats,
    task_delta: TaskStats,
    backpressure: u64,
    frontend_batch_p50: f64,
    unit_run_p50: f64,
    /// The cluster's telemetry at the end (stage histograms).
    cluster: MetricsSnapshot,
    /// Summed over the four tasks, read after the unit thread stopped.
    reservoir: ReservoirStats,
    store: DbStats,
    /// On-CPU ns of [unit thread, client thread, reservoir I/O threads].
    busy_ns: [u64; 3],
    /// p50 of a depth-1 closed loop on the same cluster.
    probe_p50_ns: f64,
    /// `VmHWM` after the segments − `VmRSS` before the boot. Only the
    /// first threaded run of the process has a high-water mark of its own.
    rss_growth_mb: f64,
    verdict: oracle::Verdict,
}

fn threaded(
    spec: &Spec,
    gen: &EventGen,
    seed: u64,
    data: &Path,
    telemetry: bool,
    events: u64,
    trace: &mut Trace,
) -> Result<Threaded> {
    let root = trace.open(
        if telemetry {
            "threaded.traced"
        } else {
            "threaded.plain"
        },
        None,
        0,
    );
    let hub = Arc::new(EngineTelemetry::new(telemetry));
    let client_hub = Arc::clone(&hub);
    let (mut engine, _) = Engine::setup_with(spec, gen, data, telemetry, |session| {
        RawClient::connect(session.cluster().bus(), spec, client_hub)
    })?;
    let mut oracle = Oracle::new(spec, gen, seed);
    let bus_before = engine.session.cluster().bus().stats();
    let cluster_before = engine.session.metrics();
    let frontend_before = hub.snapshot();
    let main_tid = std::process::id();
    let mut out = Threaded {
        events: 0,
        failed: 0,
        wall_ns: 0,
        throughput_eps: 0.0,
        segment_eps: Vec::new(),
        latency_ns: Vec::new(),
        gen_lag_max_ns: 0,
        backlog_max: 0,
        stalls: 0,
        bus: BusStats::default(),
        task_delta: TaskStats::default(),
        backpressure: 0,
        frontend_batch_p50: 0.0,
        unit_run_p50: 0.0,
        cluster: cluster_before.clone(),
        reservoir: ReservoirStats::default(),
        store: DbStats::default(),
        busy_ns: [0; 3],
        probe_p50_ns: 0.0,
        rss_growth_mb: 0.0,
        verdict: oracle::Verdict::default(),
    };
    for _ in 0..SEGMENTS {
        let from = engine.driver.next_index;
        let batch = gen.batch(from, from + events);
        let keep_from = from + events.saturating_sub(oracle::CHECK_TAIL);
        oracle.start_segment();
        let cpu_before = stats::thread_cpu();
        let start = trace.now();
        let seg = engine
            .driver
            .run_segment(spec.load, batch, &mut |index, aggregations| {
                if index >= keep_from {
                    oracle.offer(index, &gen.core(index), aggregations);
                }
            });
        trace.record(
            "threaded.segment",
            Some(root),
            out.segment_eps.len() as u64,
            start,
            trace.now(),
        );
        let cpu_after = stats::thread_cpu();
        add_busy(&mut out.busy_ns, &cpu_before, &cpu_after, main_tid);
        engine.trim_bus()?;
        out.events += seg.replied;
        out.failed += seg.failed;
        out.wall_ns += seg.wall_ns;
        out.segment_eps.push(seg.throughput_eps());
        out.gen_lag_max_ns = out.gen_lag_max_ns.max(seg.gen_lag_max_ns);
        out.backlog_max = out.backlog_max.max(seg.backlog_max);
        out.stalls += seg.stalls_over_1ms;
        out.latency_ns.extend(seg.latency_ns);
    }
    out.latency_ns.sort_unstable();
    out.rss_growth_mb =
        stats::status_bytes("VmHWM").saturating_sub(engine.rss_before) as f64 / (1 << 20) as f64;
    // The median segment.
    out.throughput_eps = stats::median(&out.segment_eps);

    let bus_after = engine.session.cluster().bus().stats();
    out.bus = BusStats {
        records_produced: bus_after.records_produced - bus_before.records_produced,
        bytes_produced: bus_after.bytes_produced - bus_before.bytes_produced,
        records_consumed: bus_after.records_consumed - bus_before.records_consumed,
        batches_produced: bus_after.batches_produced - bus_before.batches_produced,
        rebalances: bus_after.rebalances,
    };
    out.cluster = engine.session.metrics();
    let (a, b) = (&out.cluster.tasks, &cluster_before.tasks);
    out.task_delta = TaskStats {
        events_processed: a.events_processed - b.events_processed,
        duplicates: a.duplicates - b.duplicates,
        late_dropped: a.late_dropped - b.late_dropped,
        inserts: a.inserts - b.inserts,
        evictions: a.evictions - b.evictions,
        state_reads: a.state_reads - b.state_reads,
        state_writes: a.state_writes - b.state_writes,
    };
    let frontend_after = hub.snapshot();
    out.backpressure = frontend_after.counters.backpressure_rejections;
    out.frontend_batch_p50 = delta_p50(
        &frontend_before.batching.batch_size,
        &frontend_after.batching.batch_size,
    );
    out.unit_run_p50 = delta_p50(
        &cluster_before.batching.batch_size,
        &out.cluster.batching.batch_size,
    );

    // One request at a time: the reply path with nothing to overlap.
    let probe = gen.batch(
        engine.driver.next_index,
        engine.driver.next_index + PROBE_EVENTS,
    );
    let seg = engine
        .driver
        .run_segment(Load::Closed { depth: 1 }, probe, &mut |_, _| {});
    out.probe_p50_ns = stats::percentile_sorted(&seg.latency_ns, 50.0) as f64;

    engine.stop()?;
    for unit in engine
        .session
        .cluster()
        .nodes()
        .iter()
        .flat_map(|n| n.units())
    {
        for tp in unit.active_tasks() {
            let Some(task) = unit.task(tp) else { continue };
            add_reservoir(&mut out.reservoir, &task.reservoir_stats());
            add_store(&mut out.store, &task.store_stats());
        }
    }
    if telemetry {
        out.verdict = oracle.check(spec, gen, &engine.queries, &data.with_extension("oracle"))?;
        for example in &out.verdict.examples {
            eprintln!("mad-bench: mismatch: {example}");
        }
    }
    engine.destroy();
    trace.close(root);
    Ok(out)
}

/// Add the on-CPU time gained by [unit, client, reservoir I/O] threads.
fn add_busy(busy: &mut [u64; 3], before: &[ThreadCpu], after: &[ThreadCpu], main_tid: u32) {
    busy[0] += stats::cpu_delta(before, after, |t| t.name.starts_with(e2e::UNIT_THREADS));
    busy[1] += stats::cpu_delta(before, after, |t| t.tid == main_tid);
    busy[2] += stats::cpu_delta(before, after, |t| t.name.starts_with(e2e::IO_THREADS));
}

fn add_reservoir(sum: &mut ReservoirStats, s: &ReservoirStats) {
    sum.appended += s.appended;
    sum.late_discarded += s.late_discarded;
    sum.bytes_written += s.bytes_written;
    sum.events_in_memory += s.events_in_memory;
    sum.memory_bytes += s.memory_bytes;
    sum.cache.hits += s.cache.hits;
    sum.cache.misses += s.cache.misses;
    sum.cache.prefetch_inserts += s.cache.prefetch_inserts;
    sum.cache.evictions += s.cache.evictions;
}

fn add_store(sum: &mut DbStats, s: &DbStats) {
    sum.memtable_bytes += s.memtable_bytes;
    sum.sst_count += s.sst_count;
    sum.sst_bytes += s.sst_bytes;
    sum.flushes += s.flushes;
    sum.compactions += s.compactions;
    sum.filter_dropped += s.filter_dropped;
}

/// Samples at or below `value`, from the public percentile function alone
/// (the histogram does not expose its buckets).
fn count_le(h: &Histogram, value: u64) -> u64 {
    let total = h.count();
    if total == 0 || h.percentile(0.0) > value {
        return 0;
    }
    // Largest k with the k-th smallest sample <= value.
    let (mut lo, mut hi) = (1u64, total);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if h.percentile(mid as f64 / total as f64) <= value {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// Median of the samples `after` holds beyond those `before` held (the
/// engine's histograms cannot be reset, and the prefill fills them too).
fn delta_p50(before: &Histogram, after: &Histogram) -> f64 {
    let added = after.count().saturating_sub(before.count());
    if added == 0 {
        return 0.0;
    }
    // Batch sizes are small integers, which the histogram keeps exactly.
    (1..=after.max())
        .find(|&v| (count_le(after, v) - count_le(before, v)) * 2 >= added)
        .unwrap_or(after.max()) as f64
}

// ---------------------------------------------------------------------------
// P: pump mode
// ---------------------------------------------------------------------------

struct Pumped {
    events: u64,
    batch: usize,
    /// Per event, from the spans.
    send_ns: f64,
    unit_ns: f64,
    frontend_ns: f64,
    wall_ns: f64,
    probe_p50_ns: f64,
}

/// The three parts of a node, assembled as `Cluster::new` assembles them
/// but owned here, on one thread, so every call can carry a span.
struct Parts {
    bus: MessageBus,
    frontend: FrontEnd,
    unit: ProcessorUnit,
}

fn assemble(spec: &Spec, data: &Path) -> Result<Parts> {
    std::fs::remove_dir_all(data).ok();
    let bus = MessageBus::new(BusConfig {
        session_timeout_ms: 10_000,
        clock: BusClock::Auto,
    });
    let hub = Arc::new(EngineTelemetry::new(false));
    let mut frontend = FrontEnd::new(
        &bus,
        0,
        MAX_IN_FLIGHT,
        spec.batch_policy(),
        Arc::clone(&hub),
    )?;
    let mut task = spec.task_config();
    task.stats_registry = hub.task_registry();
    let mut unit = ProcessorUnit::new(
        &bus,
        UnitConfig {
            node: 0,
            unit: 0,
            data_dir: data.to_path_buf(),
            task,
            max_poll: 256,
            checkpoint_every: spec.checkpoint_every,
            poll_recorder: hub.unit_poll_recorder(),
            process_recorder: hub.unit_process_recorder(),
            batch_size: hub.batch_size_recorder(),
            batched_events: hub.unit_batched_counter(),
            handovers: hub.handover_counter(),
            tail_replayed: hub.tail_replayed_counter(),
            handover_fallbacks: hub.handover_fallback_counter(),
        },
        Arc::new(RailgunStrategy::new(1)),
    )?;
    frontend.create_stream(
        &bus,
        STREAM,
        gen::schema(spec.full_payload),
        spec.partitioners,
        PARTITIONS,
        1,
    )?;
    for q in spec.queries {
        frontend.register_query(q)?;
    }
    let tasks = PARTITIONS as usize * spec.partitioners.len();
    for _ in 0..64 {
        unit.pump()?;
        frontend.pump()?;
        if unit.active_tasks().len() == tasks {
            return Ok(Parts {
                bus,
                frontend,
                unit,
            });
        }
    }
    Err(railgun_types::RailgunError::Engine(
        "the pumped unit never got its tasks".into(),
    ))
}

impl Parts {
    /// Send `events` in batches of `batch`, pumping the unit and the
    /// front-end until each batch is answered. With a trace, every call
    /// gets a span under `parent`. Returns ns spent in [sends, unit pumps,
    /// front-end pumps].
    fn drive(
        &mut self,
        events: e2e::Events,
        batch: usize,
        mut spans: Option<(&mut Trace, usize)>,
    ) -> Result<[u64; 3]> {
        let mut spent = [0u64; 3];
        let mut ids = Vec::with_capacity(batch);
        let mut events = events.into_iter().peekable();
        let mut batch_no = 0u64;
        while events.peek().is_some() {
            ids.clear();
            let t0 = Instant::now();
            let s0 = spans.as_ref().map(|(t, _)| t.now());
            for (ts, values) in events.by_ref().take(batch) {
                ids.push(self.frontend.send_event(STREAM, ts, values)?);
            }
            spent[0] += t0.elapsed().as_nanos() as u64;
            if let (Some((t, parent)), Some(s0)) = (spans.as_mut(), s0) {
                let now = t.now();
                t.record("frontend.send", Some(*parent), batch_no, s0, now);
            }
            let mut turns = 0;
            while !ids.is_empty() {
                let t1 = Instant::now();
                let s1 = spans.as_ref().map(|(t, _)| t.now());
                self.unit.pump()?;
                let t2 = Instant::now();
                let s2 = spans.as_ref().map(|(t, _)| t.now());
                self.frontend.pump()?;
                let t3 = Instant::now();
                spent[1] += (t2 - t1).as_nanos() as u64;
                spent[2] += (t3 - t2).as_nanos() as u64;
                if let (Some((t, parent)), Some(s1), Some(s2)) = (spans.as_mut(), s1, s2) {
                    let now = t.now();
                    t.record("unit.pump", Some(*parent), batch_no, s1, s2);
                    t.record("frontend.pump", Some(*parent), batch_no, s2, now);
                }
                ids.retain(|id| self.frontend.try_take(*id).is_none());
                turns += 1;
                if turns > 10_000 {
                    return Err(railgun_types::RailgunError::Engine(
                        "a pumped batch was never answered".into(),
                    ));
                }
            }
            batch_no += 1;
        }
        Ok(spent)
    }
}

fn pumped(
    spec: &Spec,
    gen: &EventGen,
    data: &Path,
    batch: usize,
    events: u64,
    trace: &mut Trace,
) -> Result<Pumped> {
    let root = trace.open("pump", None, 0);
    let mut parts = assemble(spec, data)?;
    parts.drive(gen.batch(0, spec.prefill), 64, None)?;
    e2e::trim_bus(&parts.bus)?;
    let mut next = spec.prefill;
    let mut out = Pumped {
        events: 0,
        batch,
        send_ns: 0.0,
        unit_ns: 0.0,
        frontend_ns: 0.0,
        wall_ns: 0.0,
        probe_p50_ns: 0.0,
    };
    let mut spent = [0u64; 3];
    let mut wall_ns = 0u64;
    // Spans are per batch; a tenth of a segment at a time keeps the gaps
    // (event building, bus trimming) out of the measured wall time.
    let step = (events / 10).max(batch as u64);
    for segment_no in 0..10 {
        let batch_events = gen.batch(next, next + step);
        next += step;
        let segment = trace.open("pump.segment", Some(root), segment_no);
        // Every call is timed; only the first MAX_CALL_SPANS get a span of
        // their own, so the trace file stays a few MB.
        let spans = (trace.len() < MAX_CALL_SPANS).then_some((&mut *trace, segment));
        let s = parts.drive(batch_events, batch, spans)?;
        trace.close(segment);
        wall_ns += trace.duration(segment);
        for (total, part) in spent.iter_mut().zip(s) {
            *total += part;
        }
        out.events += step;
        e2e::trim_bus(&parts.bus)?;
    }
    let n = out.events as f64;
    out.send_ns = spent[0] as f64 / n;
    out.unit_ns = spent[1] as f64 / n;
    out.frontend_ns = spent[2] as f64 / n;
    out.wall_ns = wall_ns as f64 / n;

    let mut probe = Vec::with_capacity(PROBE_EVENTS as usize);
    for event in gen.batch(next, next + PROBE_EVENTS) {
        let t = Instant::now();
        parts.drive(vec![event], 1, None)?;
        probe.push(t.elapsed().as_nanos() as u64);
    }
    probe.sort_unstable();
    out.probe_p50_ns = stats::percentile_sorted(&probe, 50.0) as f64;
    trace.close(root);
    drop(parts);
    std::fs::remove_dir_all(data).ok();
    Ok(out)
}

// ---------------------------------------------------------------------------
// R: isolated replays
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Replays {
    encode_ns: f64,
    decode_ns: f64,
    schema_check_ns: f64,
    frame_bytes: f64,
    publish_b1_ns: f64,
    publish_b64_ns: f64,
    poll_ns: f64,
    wake_p50_us: f64,
    append_ns: f64,
    append_batch64_ns: f64,
    drain_hot_ns: f64,
    drain_cold_ns: f64,
    reservoir_checkpoint_ms: f64,
    put_ns: f64,
    get_mem_ns: f64,
    get_sst_ns: f64,
    get_miss_ns: f64,
    flush_ms: f64,
    compact_ms: f64,
    store_checkpoint_ms: f64,
    process_event_ns: f64,
    process_batch64_ns: f64,
    task_checkpoint_ms: f64,
    task_restore_ms: f64,
    agg_sum_ns: f64,
    agg_distinct_ns: f64,
    agg_hll_ns: f64,
    agg_topk_ns: f64,
    agg_quantile_ns: f64,
}

/// Times `ops` operations done by `f`, as one span; ns per operation.
fn per_op(
    trace: &mut Trace,
    name: &'static str,
    parent: usize,
    id: u64,
    ops: usize,
    f: impl FnOnce(),
) -> f64 {
    let ((), ns) = trace.time(name, Some(parent), id, f);
    ns as f64 / ops.max(1) as f64
}

/// Median ns per operation over `reps` spans of `ops` operations each.
fn median_per_op(
    trace: &mut Trace,
    name: &'static str,
    parent: usize,
    reps: u64,
    ops: usize,
    mut f: impl FnMut(u64),
) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|rep| per_op(trace, name, parent, rep, ops, || f(rep)))
        .collect();
    stats::median(&samples)
}

fn ms_of(
    trace: &mut Trace,
    name: &'static str,
    parent: usize,
    f: impl FnOnce() -> Result<()>,
) -> Result<f64> {
    let (result, ns) = trace.time(name, Some(parent), 0, f);
    result?;
    Ok(ns as f64 / 1e6)
}

/// The workload's events that the front-end would route to partition 0 of
/// the card topic — exactly what that task sees — from `from` on.
fn partition0(gen: &EventGen, from: u64, want: usize) -> Vec<Event> {
    let mut out = Vec::with_capacity(want);
    let mut key = Vec::with_capacity(16);
    let mut i = from;
    while out.len() < want {
        let (ts, values) = gen.event(i);
        key.clear();
        put_value(&mut key, &values[0]);
        if partition_for_key(&key, PARTITIONS) == 0 {
            out.push(Event::new(EventId(i + 1), ts, values));
        }
        i += 1;
    }
    out
}

fn replays(spec: &Spec, gen: &EventGen, work: &Path, trace: &mut Trace) -> Result<Replays> {
    std::fs::remove_dir_all(work).ok();
    std::fs::create_dir_all(work)?;
    let mut r = Replays::default();
    let schema = gen::schema(spec.full_payload);
    // Enough events to outgrow the chunk cache (so a cold drain exists):
    // compact events fill chunks by count, 103-field ones by bytes.
    let per_chunk = if spec.full_payload { 64 } else { 256 };
    let own = if spec.smoke {
        partition0(gen, 0, 2_000)
    } else {
        partition0(
            gen,
            0,
            (spec.cache_capacity_chunks * per_chunk * 3 / 2).clamp(8_000, 100_000),
        )
    };
    let sample = &own[..own
        .len()
        .min(if spec.full_payload { 2_000 } else { 20_000 })];

    // -- types ---------------------------------------------------------------
    let root = trace.open("replay.types", None, 0);
    let mut buf = Vec::with_capacity(2048);
    r.encode_ns = median_per_op(trace, "types.encode_event", root, 5, sample.len(), |_| {
        for e in sample {
            buf.clear();
            put_event(&mut buf, std::hint::black_box(e));
        }
    });
    let encoded: Vec<Vec<u8>> = sample
        .iter()
        .map(|e| {
            let mut b = Vec::new();
            put_event(&mut b, e);
            b
        })
        .collect();
    r.decode_ns = median_per_op(trace, "types.decode_event", root, 5, encoded.len(), |_| {
        for b in &encoded {
            std::hint::black_box(get_event(&mut &b[..]).expect("own encoding decodes"));
        }
    });
    r.schema_check_ns = median_per_op(trace, "types.schema_check", root, 5, sample.len(), |_| {
        for e in sample {
            schema
                .check_values(std::hint::black_box(e.values()))
                .expect("generated events fit the schema");
        }
    });
    let requests: Vec<Vec<u8>> = sample
        .iter()
        .enumerate()
        .map(|(i, e)| {
            encode_event_request(&EventRequest {
                request_id: i as u64 + 1,
                reply_topic: reply_topic_name(0),
                event: e.clone(),
            })
        })
        .collect();
    r.frame_bytes = requests.iter().map(Vec::len).sum::<usize>() as f64 / requests.len() as f64;
    trace.close(root);

    // -- messaging -----------------------------------------------------------
    let root = trace.open("replay.messaging", None, 0);
    let bus = MessageBus::new(BusConfig {
        session_timeout_ms: 10_000,
        clock: BusClock::Auto,
    });
    bus.create_topic("replay", PARTITIONS, 1)?;
    let producer = Producer::new(bus.clone());
    let mut consumer = Consumer::new(bus.clone());
    consumer.assign(
        (0..PARTITIONS)
            .map(|p| TopicPartition::new("replay", p))
            .collect(),
    );
    // One shared frame, sliced per record, as the front-end publishes.
    let mut frame = BatchFrameBuilder::new();
    for req in &requests {
        frame.push_with(|b| b.extend_from_slice(req));
    }
    let frame = frame.finish();
    let entry = |i: usize| BatchEntry {
        partition: i as u32 % PARTITIONS,
        key: Vec::new(),
        payload: frame.slice(i),
    };
    let mut entries = Vec::with_capacity(64);
    let mut polled = Vec::with_capacity(256);
    let drain = |consumer: &mut Consumer, polled: &mut Vec<_>| -> Result<usize> {
        let mut n = 0;
        loop {
            polled.clear();
            consumer.poll_into(256, polled)?;
            if polled.is_empty() {
                return Ok(n);
            }
            n += polled.len();
        }
    };
    let mut poll_samples = Vec::new();
    for (name, size, slot) in [
        ("messaging.publish_b1", 1usize, 0usize),
        ("messaging.publish_b64", 64, 1),
    ] {
        let mut samples = Vec::new();
        for rep in 0..5u64 {
            samples.push(per_op(trace, name, root, rep, frame.len(), || {
                for start in (0..frame.len()).step_by(size) {
                    entries.extend((start..(start + size).min(frame.len())).map(entry));
                    producer
                        .send_batch("replay", &mut entries)
                        .expect("topic exists");
                }
            }));
            let (n, ns) = trace.time("messaging.poll", Some(root), rep, || {
                drain(&mut consumer, &mut polled)
            });
            poll_samples.push(ns as f64 / n?.max(1) as f64);
            e2e::trim_bus(&bus)?;
        }
        *[&mut r.publish_b1_ns, &mut r.publish_b64_ns][slot] = stats::median(&samples);
    }
    r.poll_ns = stats::median(&poll_samples);
    r.wake_p50_us = wake_latency_p50_us(&bus, trace, root)?;
    trace.close(root);

    // -- reservoir -----------------------------------------------------------
    let root = trace.open("replay.reservoir", None, 0);
    let cfg = spec.task_config().reservoir;
    let single = Reservoir::open(&work.join("reservoir-a"), schema.clone(), cfg.clone())?;
    r.append_ns = per_op(trace, "reservoir.append", root, 0, own.len(), || {
        for e in &own {
            single.append(e.clone()).expect("append");
        }
    });
    let batched = Reservoir::open(&work.join("reservoir-b"), schema.clone(), cfg)?;
    r.append_batch64_ns = per_op(
        trace,
        "reservoir.append_batch64",
        root,
        0,
        own.len(),
        || {
            for chunk in own.chunks(64) {
                batched
                    .append_batch(chunk.iter().cloned())
                    .expect("append_batch");
            }
        },
    );
    drop(batched);
    single.flush_io()?;
    // The newest events are resident (open chunk + cache), the oldest are
    // only on disk.
    let resident = single.stats().events_in_memory.min(own.len());
    let hot_from = own.len() - resident * 3 / 4;
    let mut drained = Vec::with_capacity(own.len());
    let cursor = single.cursor_at(own[hot_from].ts);
    r.drain_hot_ns = per_op(
        trace,
        "reservoir.drain_hot",
        root,
        0,
        own.len() - hot_from,
        || {
            cursor.advance_upto_into(Timestamp::MAX, &mut drained);
        },
    );
    drop(cursor);
    let cold_to = own.len() - resident;
    if cold_to > 0 {
        drained.clear();
        let cursor = single.cursor_at_start();
        let bound = own[cold_to].ts;
        r.drain_cold_ns = per_op(trace, "reservoir.drain_cold", root, 0, cold_to, || {
            // Chunk by chunk, as a sliding window's tail does.
            let mut at = own[0].ts;
            while at < bound {
                at = Timestamp::from_millis(
                    (at.as_millis() + 64 * spec.spacing_ms).min(bound.as_millis()),
                );
                cursor.advance_upto_into(at, &mut drained);
            }
        });
    }
    r.reservoir_checkpoint_ms = ms_of(trace, "reservoir.checkpoint", root, || {
        single.checkpoint(&work.join("reservoir-ckpt"))
    })?;
    drop(single);
    trace.close(root);

    // -- store ---------------------------------------------------------------
    let root = trace.open("replay.store", None, 0);
    let db = Db::open(&work.join("store"), spec.task_config().store)?;
    let keys: Vec<Vec<u8>> = own
        .iter()
        .map(|e| state_key(0, None, &e.values()[..1]))
        .collect();
    let mut value = Vec::new();
    AggState::Sum { sum: 1234.25 }.encode(&mut value);
    r.put_ns = per_op(trace, "store.put", root, 0, keys.len(), || {
        for k in &keys {
            db.put(Db::DEFAULT_CF, k, &value).expect("put");
        }
    });
    // The last few hundred keys written are still in the memtable whatever
    // its budget; after a flush every key is in an SSTable only.
    let recent = &keys[keys.len() - 512..];
    let gets = |name, rep, keys: &[Vec<u8>], expect: bool, trace: &mut Trace| {
        per_op(trace, name, root, rep, keys.len(), || {
            for k in keys {
                assert_eq!(
                    db.get_in(Db::DEFAULT_CF, k, |v| v.len())
                        .expect("get")
                        .is_some(),
                    expect
                );
            }
        })
    };
    r.get_mem_ns = stats::median(
        &(0..5)
            .map(|rep| gets("store.get_mem", rep, recent, true, trace))
            .collect::<Vec<_>>(),
    );
    r.flush_ms = ms_of(trace, "store.flush", root, || db.flush())?;
    r.get_sst_ns = stats::median(
        &(0..3)
            .map(|rep| {
                gets(
                    "store.get_sst",
                    rep,
                    &keys[..keys.len().min(4096)],
                    true,
                    trace,
                )
            })
            .collect::<Vec<_>>(),
    );
    let absent: Vec<Vec<u8>> = own[..own.len().min(4096)]
        .iter()
        .map(|e| state_key(9_999, None, &e.values()[..1]))
        .collect();
    r.get_miss_ns = stats::median(
        &(0..3)
            .map(|rep| gets("store.get_miss", rep, &absent, false, trace))
            .collect::<Vec<_>>(),
    );
    // A second table, so the compaction has something to merge.
    for k in &keys[..keys.len() / 2] {
        db.put(Db::DEFAULT_CF, k, &value)?;
    }
    db.flush()?;
    r.compact_ms = ms_of(trace, "store.compact", root, || {
        db.compact_cf(Db::DEFAULT_CF)
    })?;
    r.store_checkpoint_ms = ms_of(trace, "store.checkpoint", root, || {
        db.checkpoint(&work.join("store-ckpt"))
    })?;
    drop(db);
    trace.close(root);

    // -- core.task -----------------------------------------------------------
    let root = trace.open("replay.task", None, 0);
    let topic = topic_name(STREAM, "cardId");
    let mut task = TaskProcessor::open(
        &work.join("task"),
        &topic,
        0,
        schema.clone(),
        spec.task_config(),
    )?;
    for q in spec.queries {
        let q = parse_query(q)?;
        if q.group_by.iter().any(|f| f == "cardId") {
            task.register_query(&q)?;
        }
    }
    // A quarter of the stream's prefill fills this task's windows.
    let warm = (spec.prefill / u64::from(PARTITIONS)) as usize;
    let timed = match (spec.smoke, spec.full_payload) {
        (true, _) => 200,
        (false, true) => 2_000,
        (false, false) => 8_000,
    };
    let stream = partition0(gen, 0, warm + 2 * timed);
    for e in &stream[..warm] {
        task.process_event(e)?;
    }
    r.process_event_ns = per_op(trace, "task.process_event", root, 0, timed, || {
        for e in &stream[warm..warm + timed] {
            std::hint::black_box(task.process_event(e).expect("process_event"));
        }
    });
    r.process_batch64_ns = per_op(trace, "task.process_batch64", root, 0, timed, || {
        for chunk in stream[warm + timed..].chunks(64) {
            task.process_batch(chunk, |_, results, _| {
                std::hint::black_box(results);
            })
            .expect("process_batch");
        }
    });
    let image = work.join("task-ckpt");
    r.task_checkpoint_ms = ms_of(trace, "task.checkpoint", root, || task.checkpoint(&image))?;
    drop(task);
    r.task_restore_ms = ms_of(trace, "task.restore", root, || {
        TaskProcessor::restore_from_checkpoint(
            &image,
            &work.join("task-restored"),
            &topic,
            0,
            schema.clone(),
            spec.task_config(),
        )
        .map(drop)
    })?;
    trace.close(root);

    // -- core.agg ------------------------------------------------------------
    let root = trace.open("replay.agg", None, 0);
    let db = Db::open(&work.join("agg"), railgun_store::DbOptions::default())?;
    let aux = db.create_cf("aux")?;
    let scratch = AggScratch::default();
    // A distinct leaf id per kernel keeps their aux keys apart; field 1
    // is the merchant, field 2 the amount.
    let kernel = |name, leaf: u32, func: AggFunc, field: usize, trace: &mut Trace| {
        agg_kernel(
            trace,
            name,
            root,
            &db,
            aux,
            &scratch,
            leaf,
            func,
            field,
            &own[..own.len().min(12_000)],
        )
    };
    r.agg_sum_ns = kernel("agg.sum", 1, AggFunc::Sum, 2, trace)?;
    r.agg_distinct_ns = kernel(
        "agg.count_distinct_exact",
        2,
        AggFunc::CountDistinct,
        1,
        trace,
    )?;
    r.agg_hll_ns = kernel(
        "agg.hll",
        3,
        AggFunc::ApproxCountDistinct { err_bp: 200 },
        1,
        trace,
    )?;
    r.agg_topk_ns = kernel("agg.topk", 4, AggFunc::TopK { k: 5 }, 1, trace)?;
    r.agg_quantile_ns = kernel(
        "agg.quantile",
        5,
        AggFunc::Percentile { rank_bp: 9_900 },
        2,
        trace,
    )?;
    drop(db);
    trace.close(root);

    std::fs::remove_dir_all(work).ok();
    Ok(r)
}

/// One aggregator kernel under a one-minute sliding window over the
/// workload's own events and cards (so dense head cards and sparse tail
/// cards mix as they do in the engine): events that left the window are
/// evicted from their card's state, then the arrival is inserted into
/// its card's. The first half of `events` fills the window; the result is
/// ns per event of the second half (one insert and about one evict).
#[allow(clippy::too_many_arguments)]
fn agg_kernel<'a>(
    trace: &mut Trace,
    name: &'static str,
    parent: usize,
    db: &Db,
    aux: railgun_store::ColumnFamilyId,
    scratch: &AggScratch,
    leaf: u32,
    func: AggFunc,
    field: usize,
    events: &'a [Event],
) -> Result<f64> {
    const WINDOW_MS: i64 = 60_000;
    let card = |e: &Event| {
        e.values()[0]
            .as_str()
            .expect("cardId is a string")
            .to_owned()
    };
    let mut states: std::collections::HashMap<String, (Vec<u8>, AggState)> = Default::default();
    let mut window: std::collections::VecDeque<&Event> = Default::default();
    let mut step = |e: &'a Event| -> Result<()> {
        let now = e.ts.as_millis();
        let lower = now + 1 - WINDOW_MS;
        while window.front().is_some_and(|old| old.ts.as_millis() < lower) {
            let old = window.pop_front().expect("front exists");
            let (key, state) = states.get_mut(&card(old)).expect("inserted earlier");
            let ctx = AggContext::new(db, aux, key, scratch).windowed(
                old.ts.as_millis(),
                lower,
                WINDOW_MS,
            );
            state.evict(Some(&old.values()[field]), &ctx)?;
        }
        let (key, state) = states
            .entry(card(e))
            .or_insert_with(|| (state_key(leaf, None, &e.values()[..1]), AggState::new(func)));
        let ctx = AggContext::new(db, aux, key, scratch).windowed(now, lower, WINDOW_MS);
        state.insert(Some(&e.values()[field]), &ctx)?;
        window.push_back(e);
        Ok(())
    };
    let (fill, timed) = events.split_at(events.len() / 2);
    for e in fill {
        step(e)?;
    }
    let (result, ns) = trace.time(name, Some(parent), 0, || {
        timed.iter().try_for_each(&mut step)
    });
    result?;
    Ok(ns as f64 / timed.len().max(1) as f64)
}

/// Send → a consumer parked in `poll_blocking` returns, two threads on
/// the one core, as generator and unit are under the open loop, whose
/// latency this explains.
fn wake_latency_p50_us(bus: &MessageBus, trace: &mut Trace, parent: usize) -> Result<f64> {
    const ROUNDS: usize = 400;
    const WAITER: &str = "madb-waiter";
    bus.create_topic("wake", 1, 1)?;
    let parked = Arc::new(AtomicBool::new(false));
    let (tx, rx) = std::sync::mpsc::channel::<Instant>();
    let mut consumer = Consumer::new(bus.clone());
    consumer.assign(vec![TopicPartition::new("wake", 0)]);
    let flag = Arc::clone(&parked);
    let span = trace.open("messaging.wake_latency", Some(parent), 0);
    let mut samples = Vec::with_capacity(ROUNDS);
    std::thread::scope(|scope| -> Result<()> {
        let waiter = std::thread::Builder::new()
            .name(WAITER.into())
            .spawn_scoped(scope, move || -> Result<()> {
                for _ in 0..ROUNDS {
                    flag.store(true, Ordering::SeqCst);
                    let polled = consumer.poll_blocking(1, Duration::from_secs(5))?;
                    let woke = Instant::now();
                    if polled.messages.is_empty() || tx.send(woke).is_err() {
                        break;
                    }
                }
                Ok(())
            })
            .map_err(railgun_types::RailgunError::Io)?;
        let producer = Producer::new(bus.clone());
        for _ in 0..ROUNDS {
            while !parked.swap(false, Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // Give the waiter time to find the topic empty and park.
            std::thread::sleep(Duration::from_micros(300));
            let sent = Instant::now();
            producer.send_to_partition("wake", 0, &[], vec![0u8; 8])?;
            match rx.recv_timeout(Duration::from_secs(5)) {
                Ok(woke) => {
                    samples.push(woke.saturating_duration_since(sent).as_nanos() as f64 / 1e3)
                }
                Err(_) => break,
            }
        }
        waiter.join().expect("the waiter does not panic")
    })?;
    trace.close(span);
    Ok(stats::median(&samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_p50_sees_only_the_samples_added_since() {
        let mut before = Histogram::default();
        for _ in 0..1000 {
            before.record(64);
        }
        let mut after = before.clone();
        for v in [1, 2, 2, 3, 3, 3, 3, 9] {
            after.record(v);
        }
        assert_eq!(count_le(&after, 3), 7);
        assert_eq!(count_le(&after, 63), 8);
        assert_eq!(count_le(&after, 64), 1008);
        assert_eq!(delta_p50(&before, &after), 3.0);
        assert_eq!(delta_p50(&before, &before), 0.0);
        assert_eq!(delta_p50(&Histogram::default(), &before), 64.0);
    }
}
