//! In-process cluster harness.
//!
//! Assembles a whole Railgun deployment — message bus, nodes of processor
//! units, the shared sticky assignment strategy — behind a facade used by
//! the examples, the integration tests, and the benchmark drivers.
//!
//! Every request goes through a [`ClusterClient`]: a front-end (§3.1)
//! with its own reply topic over the shared bus. The cluster owns one,
//! front-end id 0, behind its stream, query and send calls; each
//! [`Cluster::client`] is another, for a client thread of its own.
//!
//! Two execution modes (DESIGN.md § "Execution modes"):
//!
//! * **pump** (default) — a collect pumps every node's units and the
//!   cluster's client until the reply is in, mirroring the six steps of
//!   Figure 3 deterministically;
//! * **threaded** — [`Cluster::start`] spawns one worker thread per
//!   processor unit; a collect parks on the bus until the reply is in.
//!
//! Both run one collect loop; only its wait step differs.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use railgun_messaging::{BusClock, BusConfig, MessageBus};
use railgun_types::{RailgunError, Result, Schema, TimeDelta, Timestamp, Value};

use crate::api::QueryId;
use crate::frontend::{BatchPolicy, ClientResponse, FrontEnd, RegisteredQuery};
use crate::metrics::{EngineTelemetry, MetricsSnapshot};
use crate::node::Node;
use crate::rebalance::RailgunStrategy;
use crate::runtime::health;
use crate::task::TaskConfig;

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    pub nodes: u32,
    pub units_per_node: u32,
    /// Partitions per event topic (the cluster's concurrency level, §4).
    pub partitions: u32,
    /// Total task copies (1 = no replicas; the paper deploys 3).
    pub replication: usize,
    /// Root directory for all task data (default: a temp dir).
    pub data_root: PathBuf,
    pub task: TaskConfig,
    /// Messaging session timeout (failure detection).
    pub session_timeout_ms: u64,
    /// Per-task checkpoint cadence in events (0 disables; §4.1.3).
    pub checkpoint_every: u64,
    /// Bus clock mode. [`BusClock::Manual`] (default) keeps tests and the
    /// simulation deterministic; the threaded runtime typically wants
    /// [`BusClock::Auto`] so heartbeats and session expiry follow wall
    /// time without an external driver.
    pub clock: BusClock,
    /// Per-front-end cap on in-flight requests (backpressure; see
    /// `FrontEnd`).
    pub max_in_flight: usize,
    /// Front-end ingest coalescing policy: pipelined sends are staged and
    /// published as one batch per topic, bounded by
    /// [`BatchPolicy::max_events`] / [`BatchPolicy::max_delay`], or when
    /// a collect has to wait. One-in-flight traffic flushes per event
    /// regardless, so it costs nothing there (see DESIGN.md § "Batched
    /// ingest").
    pub batch: BatchPolicy,
    /// Wall-clock deadline for blocking collects in threaded mode.
    pub collect_timeout_ms: u64,
    /// Enable the telemetry plane: stage latency histograms (front-end
    /// enqueue→reply, unit poll/process, reservoir append, store
    /// flush), per-query ladders, and the chunk-miss counter. Off by
    /// default — the off state records nothing and never reads the clock
    /// (see the `metrics` module's cost contract). Snapshot with
    /// [`Cluster::metrics_snapshot`].
    pub telemetry: bool,
}

impl ClusterConfig {
    /// One node, one unit, one partition — the doc-example setup.
    pub fn single_node() -> Self {
        ClusterConfig {
            nodes: 1,
            units_per_node: 1,
            partitions: 1,
            replication: 1,
            ..ClusterConfig::default()
        }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 1,
            units_per_node: 2,
            partitions: 4,
            replication: 1,
            data_root: std::env::temp_dir().join(format!(
                "railgun-cluster-{}-{:?}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos())
                    .unwrap_or(0)
            )),
            task: TaskConfig::default(),
            session_timeout_ms: 10_000,
            checkpoint_every: 0,
            clock: BusClock::Manual,
            max_in_flight: 1_024,
            batch: BatchPolicy::default(),
            collect_timeout_ms: 10_000,
            telemetry: false,
        }
    }
}

/// Front-end ids of [`Cluster::client`]s start here; the cluster's own
/// client is 0, which keeps every query id it assigns a one-byte uvarint
/// on the wire.
const CLIENT_ID_BASE: u32 = 1 << 20;

/// An in-process Railgun cluster.
pub struct Cluster {
    bus: MessageBus,
    nodes: Vec<Node>,
    strategy: Arc<RailgunStrategy>,
    config: ClusterConfig,
    telemetry: Arc<EngineTelemetry>,
    /// The cluster's own client (front-end id 0): every stream, query and
    /// send call of the cluster goes through it.
    client: ClusterClient,
    next_node_id: u32,
    next_client_id: u32,
}

impl Cluster {
    /// Boot a cluster per `config`.
    pub fn new(mut config: ClusterConfig) -> Result<Self> {
        let bus = MessageBus::new(BusConfig {
            session_timeout_ms: config.session_timeout_ms,
            clock: config.clock,
        });
        let telemetry = Arc::new(EngineTelemetry::new(config.telemetry));
        // Inject the hub's recorders into the task substrates' configs so
        // every task processor of every node records into the shared
        // stage histograms (all disabled no-ops when telemetry is off).
        config.task.stats_registry = telemetry.task_registry();
        config.task.reservoir.append_recorder = telemetry.reservoir_append_recorder();
        config.task.reservoir.chunk_miss_counter = telemetry.chunk_miss_counter();
        config.task.store.flush_recorder = telemetry.store_flush_recorder();
        config.task.checkpoint_fallbacks = telemetry.checkpoint_fallback_counter();
        let strategy = Arc::new(RailgunStrategy::new(config.replication));
        // Built first: a front-end creates the ops and checkpoint topics
        // every unit subscribes to.
        let failed = Arc::new(AtomicBool::new(false));
        let client = ClusterClient::connect(&bus, 0, &config, Arc::clone(&telemetry), failed)?;
        let nodes = (0..config.nodes)
            .map(|id| Node::new(&bus, id, &config, &strategy, &telemetry))
            .collect::<Result<_>>()?;
        Ok(Cluster {
            bus,
            nodes,
            strategy,
            telemetry,
            client,
            next_node_id: config.nodes,
            next_client_id: CLIENT_ID_BASE,
            config,
        })
    }

    /// Snapshot the cluster's telemetry: per-stage latency histograms,
    /// per-query percentile ladders keyed by [`QueryId`], engine counters
    /// and aggregated task stats. Cheap; counters are monotonic between
    /// snapshots. Stage histograms are empty unless
    /// `ClusterConfig::telemetry` was set (task stats are always live).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.telemetry.snapshot()
    }

    /// Register (or replace) the latency budget of query `id`:
    /// completions slower than `budget` count as SLO breaches (per query
    /// and in [`crate::metrics::EngineCounters::slo_breaches`]), and the
    /// front-ends escalate [`RailgunError::Backpressure`] under overload
    /// per the documented policy (see the `metrics` module docs).
    pub fn set_query_slo(&mut self, id: QueryId, budget: TimeDelta) {
        self.telemetry.set_slo(id, budget);
    }

    /// The shared message bus (benches/diagnostics).
    pub fn bus(&self) -> &MessageBus {
        &self.bus
    }

    /// The shared assignment strategy (diagnostics).
    pub fn strategy(&self) -> &Arc<RailgunStrategy> {
        &self.strategy
    }

    /// Register a stream and wait for every unit to learn about it.
    pub fn create_stream(
        &mut self,
        stream: &str,
        schema: Schema,
        partitioners: &[&str],
    ) -> Result<()> {
        let partitions = self.config.partitions;
        let replication = self.config.replication as u32;
        self.client.frontend.create_stream(
            &self.bus,
            stream,
            schema,
            partitioners,
            partitions,
            replication,
        )?;
        self.settle()
    }

    /// Register a textual query and propagate it to every unit. Returns
    /// the query's stable id — the key its aggregations carry in replies
    /// and the handle for [`Cluster::unregister_query`].
    pub fn register_query(&mut self, query_text: &str) -> Result<QueryId> {
        let id = self.client.register_query(query_text)?;
        self.settle()?;
        Ok(id)
    }

    /// Unregister a query everywhere: its aggregations disappear from
    /// replies and every task tears down its aggregator state and any
    /// window cursors nothing else shares.
    pub fn unregister_query(&mut self, id: QueryId) -> Result<()> {
        self.client.unregister_query(id)?;
        self.settle()
    }

    /// Live query registrations, in id order.
    pub fn queries(&self) -> Vec<RegisteredQuery> {
        self.client.queries()
    }

    /// Schema of a registered stream, if known.
    pub fn stream_schema(&self, stream: &str) -> Option<Schema> {
        self.client.frontend.stream_schema(stream)
    }

    /// Remove a stream: broadcasts the deletion (units drop its task
    /// processors) and deletes its event topics.
    pub fn delete_stream(&mut self, stream: &str) -> Result<()> {
        self.client.frontend.delete_stream(&self.bus, stream)?;
        self.settle()
    }

    /// Pump every node and the cluster's client a few times so
    /// ops/rebalances propagate. In threaded mode the units apply ops
    /// asynchronously on their worker threads, so this only drives the
    /// client (registrations are picked up within the workers' wakeup
    /// latency).
    pub fn settle(&mut self) -> Result<()> {
        for _ in 0..4 {
            pump_round(&mut self.nodes, &mut self.client.frontend)?;
        }
        Ok(())
    }

    /// Start the threaded runtime: every processor unit of every node
    /// moves onto its own OS thread (§3.2). Idempotent. The deterministic
    /// pump path remains available after [`Cluster::stop`].
    pub fn start(&mut self) -> Result<()> {
        for node in &mut self.nodes {
            node.start(&self.client.failed)?;
        }
        Ok(())
    }

    /// Stop the threaded runtime (if running) and return to pump mode with
    /// all unit state intact. Idempotent; propagates worker panics/errors,
    /// after which the cluster is healthy again.
    pub fn stop(&mut self) -> Result<()> {
        let mut result = Ok(());
        for node in &mut self.nodes {
            if let Err(e) = node.stop() {
                result = Err(e);
            }
        }
        self.client.failed.store(false, Ordering::Release);
        result
    }

    /// True while any node runs its units on worker threads.
    pub fn is_running(&self) -> bool {
        self.nodes.iter().any(Node::is_running)
    }

    /// Send one event and wait for its aggregations — a thin synchronous
    /// wrapper around [`Cluster::send_async`] + [`Cluster::collect`].
    pub fn send(
        &mut self,
        stream: &str,
        ts: Timestamp,
        values: Vec<Value>,
    ) -> Result<ClientResponse> {
        let id = self.send_async(stream, ts, values)?;
        self.collect(id)
    }

    /// Fire-and-correlate: publish one event through the cluster's client
    /// and return its request id immediately. Many requests can be
    /// outstanding at once, bounded by `ClusterConfig::max_in_flight`
    /// ([`RailgunError::Backpressure`] when exceeded — collect and retry).
    pub fn send_async(
        &mut self,
        stream: &str,
        ts: Timestamp,
        values: Vec<Value>,
    ) -> Result<u64> {
        self.client.send_async(stream, ts, values)
    }

    /// Non-blocking collect: claim the response for `request_id` if it is
    /// complete, and only otherwise pump once (every node's units in pump
    /// mode, and the cluster's client) and try again.
    pub fn try_collect(&mut self, request_id: u64) -> Result<Option<ClientResponse>> {
        let frontend = &mut self.client.frontend;
        if let Some(done) = frontend.try_take(request_id) {
            return Ok(Some(done));
        }
        pump_round(&mut self.nodes, frontend)?;
        Ok(frontend.try_take(request_id))
    }

    /// Abandon an outstanding request: frees its in-flight slot (and any
    /// already-completed response). Call after a collect timeout so
    /// repeated failures cannot wedge the front-end in permanent
    /// backpressure. Returns true if anything was dropped.
    pub fn cancel(&mut self, request_id: u64) -> bool {
        self.client.cancel(request_id)
    }

    /// Blocking collect: the one collect loop of [`ClusterClient::collect`].
    /// Threaded, it parks on the bus as a client's does. In pump mode its
    /// wait step pumps every node and the cluster's client, round after
    /// round while the last one did any work (a replaying task can need
    /// thousands), and fails at the first idle one.
    pub fn collect(&mut self, request_id: u64) -> Result<ClientResponse> {
        if self.is_running() {
            return self.client.collect(request_id);
        }
        let (nodes, mut rounds) = (&mut self.nodes, 0u64);
        self.client.collect_with(request_id, |client, _| {
            rounds += 1;
            if pump_round(nodes, &mut client.frontend)? {
                return Ok(());
            }
            Err(RailgunError::Engine(format!(
                "no reply for request {request_id} after {rounds} pump round(s), the last one idle"
            )))
        })
    }

    /// Create an independent client handle with its own front-end and
    /// reply topic. Clients are cheap, own their request-id space, and are
    /// `Send` — spawn one per client thread against a started cluster to
    /// drive many in-flight requests concurrently.
    pub fn client(&mut self) -> Result<ClusterClient> {
        let id = self.next_client_id;
        self.next_client_id += 1;
        let failed = Arc::clone(&self.client.failed);
        ClusterClient::connect(&self.bus, id, &self.config, Arc::clone(&self.telemetry), failed)
    }

    /// Advance the logical clock (heartbeat/failure detection).
    pub fn advance_time(&self, now_ms: u64) {
        self.bus.advance_to(now_ms);
    }

    /// Kill a node abruptly (no goodbye): its consumers simply stop
    /// heartbeating; the bus expels them after the session timeout. Worker
    /// threads (if the node was threaded) are joined first — stopping a
    /// worker never unsubscribes its consumers, so the failure detection
    /// path is exercised identically in both modes. A request outstanding
    /// across the kill is answered once a survivor holds its partition.
    pub fn kill_node(&mut self, idx: usize) -> Result<()> {
        if idx >= self.nodes.len() {
            return Err(RailgunError::InvalidArgument(format!("no node {idx}")));
        }
        let _ = self.nodes.remove(idx).stop();
        Ok(())
    }

    /// Scheduled drain (planned scale-down, the opposite of
    /// [`Cluster::kill_node`]): move a node's tasks off **before**
    /// removing it, so nothing is lost and the handover tail is short.
    ///
    /// Protocol, in order:
    ///
    /// 1. mark the node draining in the assignment strategy — concurrent
    ///    rebalances can no longer hand it new work;
    /// 2. flush a final checkpoint of every task with progress past its
    ///    last image (forced — works with periodic checkpoints disabled)
    ///    and publish the records;
    /// 3. leave the consumer groups, triggering the rebalance that moves
    ///    the tasks to survivors — which restore from the images of
    ///    step 2 and replay only what arrived mid-drain;
    /// 4. remove the node and settle.
    ///
    /// Returns the number of checkpoint images flushed in step 2. A
    /// request outstanding across the drain is answered by the survivor
    /// that takes its partition over.
    pub fn drain_node(&mut self, idx: usize) -> Result<usize> {
        if idx >= self.nodes.len() {
            return Err(RailgunError::InvalidArgument(format!("no node {idx}")));
        }
        if self.nodes.len() == 1 {
            return Err(RailgunError::InvalidArgument(
                "cannot drain the last node".into(),
            ));
        }
        let node_id = self.nodes[idx].id;
        self.strategy.set_draining(node_id);
        let flushed = match self.nodes[idx].drain_units() {
            Ok(f) => f,
            Err(e) => {
                // Abort: the node keeps serving (its consumers are still
                // in the groups); un-mark it so it gets work again.
                self.strategy.clear_draining(node_id);
                return Err(e);
            }
        };
        self.nodes.remove(idx);
        self.strategy.clear_draining(node_id);
        self.settle()?;
        self.telemetry.drain_counter().incr();
        Ok(flushed)
    }

    /// Add a fresh node to the running cluster (elasticity). If the
    /// cluster is running threaded, the new node starts threaded too.
    pub fn add_node(&mut self) -> Result<u32> {
        let id = self.next_node_id;
        self.next_node_id += 1;
        let mut node = Node::new(&self.bus, id, &self.config, &self.strategy, &self.telemetry)?;
        if self.is_running() {
            node.start(&self.client.failed)?;
        }
        self.nodes.push(node);
        self.settle()?;
        Ok(id)
    }

    /// Live nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }
}

/// Pump every node's units (pump mode; threaded, the workers do) and
/// then `frontend` once. True if any of them did work.
fn pump_round(nodes: &mut [Node], frontend: &mut FrontEnd) -> Result<bool> {
    let mut busy = false;
    for node in nodes {
        busy |= node.pump()?;
    }
    Ok(frontend.pump()? || busy)
}

/// A client of a (typically started) cluster: its own front-end, reply
/// topic and request-id space over the shared bus.
///
/// Created with [`Cluster::client`]; `Send`, so each client thread owns
/// one and drives many in-flight requests against the worker threads
/// without touching the `Cluster` itself. Collection only pumps this
/// client's own front-end, so against a *pump-mode* cluster someone else
/// must still drive the processor units (the harness's `settle`).
pub struct ClusterClient {
    frontend: FrontEnd,
    bus: MessageBus,
    collect_timeout: Duration,
    /// The cluster's worker-failure flag: raised by any worker that
    /// fails, checked each time a collect has to wait.
    failed: Arc<AtomicBool>,
}

impl ClusterClient {
    /// Front-end `id` over `bus`, knowing every stream and query
    /// registered before it.
    fn connect(
        bus: &MessageBus,
        id: u32,
        config: &ClusterConfig,
        telemetry: Arc<EngineTelemetry>,
        failed: Arc<AtomicBool>,
    ) -> Result<Self> {
        let mut frontend = FrontEnd::new(bus, id, config.max_in_flight, config.batch, telemetry)?;
        frontend.sync_ops()?;
        Ok(ClusterClient {
            frontend,
            bus: bus.clone(),
            collect_timeout: Duration::from_millis(config.collect_timeout_ms),
            failed,
        })
    }

    /// Publish one event; returns its request id immediately. Bounded by
    /// the front-end's in-flight cap ([`RailgunError::Backpressure`]).
    pub fn send_async(
        &mut self,
        stream: &str,
        ts: Timestamp,
        values: Vec<Value>,
    ) -> Result<u64> {
        self.frontend.send_event(stream, ts, values)
    }

    /// Non-blocking collect: claim `request_id` if it is complete, and
    /// only otherwise publish what is staged, drain the replies and try
    /// again ([`FrontEnd::take_or_pump`]).
    pub fn try_collect(&mut self, request_id: u64) -> Result<Option<ClientResponse>> {
        self.frontend.take_or_pump(request_id)
    }

    /// Blocking collect: claim the response if it is complete; otherwise
    /// publish what is staged and park on the bus wakeup path until the
    /// response arrives, a worker of the cluster fails, or the client's
    /// collect timeout elapses.
    pub fn collect(&mut self, request_id: u64) -> Result<ClientResponse> {
        let deadline = Instant::now() + self.collect_timeout;
        self.collect_with(request_id, |client, seen| {
            health(&client.failed)?;
            let now = Instant::now();
            if now >= deadline {
                return Err(RailgunError::Engine(format!(
                    "no reply for request {request_id} within {:?}",
                    client.collect_timeout
                )));
            }
            let wait = (deadline - now).min(Duration::from_millis(50));
            client.bus.wait_for_activity(seen, wait);
            Ok(())
        })
    }

    /// The one collect loop: claim the response if it is complete, else
    /// publish what is staged and read the replies
    /// ([`FrontEnd::take_or_pump`]), and if it is still not complete run
    /// `wait` and go round again. `wait` gets the bus version sampled
    /// before the pump, so a reply published mid-pump is not slept
    /// through; its error ends the collect and frees the request's
    /// in-flight slot.
    fn collect_with(
        &mut self,
        request_id: u64,
        mut wait: impl FnMut(&mut Self, u64) -> Result<()>,
    ) -> Result<ClientResponse> {
        loop {
            let seen = self.bus.version();
            if let Some(done) = self.frontend.take_or_pump(request_id)? {
                return Ok(done);
            }
            if let Err(e) = wait(self, seen) {
                // A reply that never came must not count against the
                // backpressure cap forever.
                self.cancel(request_id);
                return Err(e);
            }
        }
    }

    /// Synchronous convenience: [`ClusterClient::send_async`] +
    /// [`ClusterClient::collect`].
    pub fn send(
        &mut self,
        stream: &str,
        ts: Timestamp,
        values: Vec<Value>,
    ) -> Result<ClientResponse> {
        let id = self.send_async(stream, ts, values)?;
        self.collect(id)
    }

    /// Abandon an outstanding request, freeing its in-flight slot (called
    /// automatically when [`ClusterClient::collect`] times out).
    pub fn cancel(&mut self, request_id: u64) -> bool {
        self.frontend.abandon(request_id)
    }

    /// Register a textual query through this client's front-end.
    ///
    /// **Propagation is asynchronous**: the registration travels the ops
    /// topic and each worker applies it on its next pump, so an event
    /// sent immediately after this returns may still be processed under
    /// the old plan (its reply then lacks the new query's aggregations).
    /// [`Cluster::register_query`] settles the ops topic before
    /// returning; clients of a threaded cluster have no such barrier —
    /// registrations converge within the workers' wakeup latency.
    pub fn register_query(&mut self, query_text: &str) -> Result<QueryId> {
        self.frontend.register_query(query_text)
    }

    /// Unregister a query by id. Propagation is asynchronous — see
    /// [`ClusterClient::register_query`]; replies may carry the query's
    /// aggregations until every worker has applied the teardown.
    pub fn unregister_query(&mut self, id: QueryId) -> Result<()> {
        self.frontend.unregister_query(id)
    }

    /// Live query registrations this client knows of (kept current as
    /// its front-end pumps the ops topic).
    pub fn queries(&self) -> Vec<RegisteredQuery> {
        self.frontend.queries()
    }
}
