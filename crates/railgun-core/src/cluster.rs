//! In-process cluster harness.
//!
//! Assembles a whole Railgun deployment — message bus, nodes, processor
//! units, the shared sticky assignment strategy — behind a facade used by
//! the examples, the integration tests, and the benchmark drivers.
//!
//! Two execution modes (DESIGN.md § "Execution modes"):
//!
//! * **pump** (default) — `send` pumps the cluster inline until the reply
//!   for the event has been collected, mirroring the six steps of
//!   Figure 3 deterministically;
//! * **threaded** — [`Cluster::start`] spawns one worker thread per
//!   processor unit; clients then pipeline many requests with
//!   [`Cluster::send_async`] / [`Cluster::try_collect`] (or per-thread
//!   [`ClusterClient`]s) while the synchronous `send` keeps working as a
//!   thin wrapper.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use railgun_messaging::{BusClock, BusConfig, MessageBus};
use railgun_types::{RailgunError, Result, Schema, TimeDelta, Timestamp, Value};

use crate::api::QueryId;
use crate::frontend::{BatchPolicy, ClientResponse, FrontEnd, RegisteredQuery};
use crate::lang::Query;
use crate::metrics::{EngineTelemetry, MetricsSnapshot};
use crate::node::Node;
use crate::rebalance::RailgunStrategy;
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

/// Correlation handle for an asynchronous send: which node's front-end
/// owns the request (by stable node **id**, so tickets survive other
/// nodes being killed or drained), and its id there. Request ids
/// are per-front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket {
    pub node: u32,
    pub request_id: u64,
}

/// Client ids start here so their reply topics and event-id namespaces
/// never collide with node front-ends (node ids are small and dense).
const CLIENT_ID_BASE: u32 = 1 << 20;

/// An in-process Railgun cluster.
pub struct Cluster {
    bus: MessageBus,
    nodes: Vec<Node>,
    strategy: Arc<RailgunStrategy>,
    config: ClusterConfig,
    telemetry: Arc<EngineTelemetry>,
    /// Ids of nodes that have left (killed or drained):
    /// collects against their tickets fail promptly with
    /// [`RailgunError::NodeLost`] instead of timing out.
    departed: Vec<u32>,
    next_node_id: u32,
    next_client_id: u32,
    rr_node: usize,
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
        let mut nodes = Vec::with_capacity(config.nodes as usize);
        for id in 0..config.nodes {
            nodes.push(Node::new(
                &bus,
                id,
                &config,
                Arc::clone(&strategy),
                Arc::clone(&telemetry),
            )?);
        }
        Ok(Cluster {
            bus,
            nodes,
            strategy,
            telemetry,
            departed: Vec::new(),
            next_node_id: config.nodes,
            next_client_id: CLIENT_ID_BASE,
            config,
            rr_node: 0,
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
        self.nodes[0].frontend_mut().create_stream(
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
        let id = self.nodes[0].frontend_mut().register_query(query_text)?;
        self.settle()?;
        Ok(id)
    }

    /// Register a builder-constructed query (see
    /// [`crate::lang::QueryBuilder`]) and propagate it to every unit.
    pub fn register(&mut self, query: &Query) -> Result<QueryId> {
        let id = self.nodes[0].frontend_mut().register_query_ast(query)?;
        self.settle()?;
        Ok(id)
    }

    /// Unregister a query everywhere: its aggregations disappear from
    /// replies and every task tears down its aggregator state and any
    /// window cursors nothing else shares.
    pub fn unregister_query(&mut self, id: QueryId) -> Result<()> {
        self.nodes[0].frontend_mut().unregister_query(id)?;
        self.settle()
    }

    /// Live query registrations, in id order.
    pub fn queries(&self) -> Vec<RegisteredQuery> {
        self.nodes[0].frontend().queries()
    }

    /// Schema of a registered stream, if known.
    pub fn stream_schema(&self, stream: &str) -> Option<Schema> {
        self.nodes[0].frontend().stream_schema(stream)
    }

    /// Remove a stream: broadcasts the deletion (units drop its task
    /// processors) and deletes its event topics.
    pub fn delete_stream(&mut self, stream: &str) -> Result<()> {
        self.nodes[0].frontend_mut().delete_stream(&self.bus, stream)?;
        self.settle()
    }

    /// Pump every node a few times so ops/rebalances propagate. In
    /// threaded mode the units apply ops asynchronously on their worker
    /// threads, so this only drives the front-ends (registrations are
    /// picked up within the workers' wakeup latency).
    pub fn settle(&mut self) -> Result<()> {
        for _ in 0..4 {
            self.pump_round()?;
        }
        Ok(())
    }

    /// Start the threaded runtime: every processor unit of every node
    /// moves onto its own OS thread (§3.2). Idempotent. The deterministic
    /// pump path remains available after [`Cluster::stop`].
    pub fn start(&mut self) -> Result<()> {
        for node in &mut self.nodes {
            node.start()?;
        }
        Ok(())
    }

    /// Stop the threaded runtime (if running) and return to pump mode with
    /// all unit state intact. Idempotent; propagates worker panics/errors.
    pub fn stop(&mut self) -> Result<()> {
        let mut result = Ok(());
        for node in &mut self.nodes {
            if let Err(e) = node.stop() {
                result = Err(e);
            }
        }
        result
    }

    /// True while any node runs its units on worker threads.
    pub fn is_running(&self) -> bool {
        self.nodes.iter().any(Node::is_running)
    }

    /// Send one event through a front-end (round-robin across nodes) and
    /// wait for its aggregations — a thin synchronous wrapper around
    /// [`Cluster::send_async`] + [`Cluster::collect`].
    pub fn send(
        &mut self,
        stream: &str,
        ts: Timestamp,
        values: Vec<Value>,
    ) -> Result<ClientResponse> {
        let ticket = self.send_async(stream, ts, values)?;
        self.collect(ticket)
    }

    /// Send through a specific node's front-end and wait for the reply.
    pub fn send_via(
        &mut self,
        node_idx: usize,
        stream: &str,
        ts: Timestamp,
        values: Vec<Value>,
    ) -> Result<ClientResponse> {
        let ticket = self.send_async_via(node_idx, stream, ts, values)?;
        self.collect(ticket)
    }

    /// Fire-and-correlate: publish one event through a round-robin
    /// front-end and return a [`Ticket`] immediately. Many requests can be
    /// outstanding at once, bounded per front-end by
    /// `ClusterConfig::max_in_flight` ([`RailgunError::Backpressure`]
    /// when exceeded — collect and retry).
    pub fn send_async(
        &mut self,
        stream: &str,
        ts: Timestamp,
        values: Vec<Value>,
    ) -> Result<Ticket> {
        let node_idx = self.rr_node % self.nodes.len();
        self.rr_node += 1;
        self.send_async_via(node_idx, stream, ts, values)
    }

    /// [`Cluster::send_async`] through a specific node's front-end.
    pub fn send_async_via(
        &mut self,
        node_idx: usize,
        stream: &str,
        ts: Timestamp,
        values: Vec<Value>,
    ) -> Result<Ticket> {
        if node_idx >= self.nodes.len() {
            return Err(RailgunError::InvalidArgument(format!("no node {node_idx}")));
        }
        let request_id = self.nodes[node_idx]
            .frontend_mut()
            .send_event(stream, ts, values)?;
        Ok(Ticket {
            node: self.nodes[node_idx].id,
            request_id,
        })
    }

    /// Resolve a ticket's owning node to its current index. A ticket
    /// whose front-end left the cluster (killed or drained)
    /// fails promptly with [`RailgunError::NodeLost`] — the reply will
    /// never come, so making the caller wait out the collect timeout
    /// would only serialize the loss; one that never existed is an
    /// [`RailgunError::InvalidArgument`].
    fn ticket_node(&self, ticket: Ticket) -> Result<usize> {
        self.nodes
            .iter()
            .position(|n| n.id == ticket.node)
            .ok_or_else(|| {
                if self.departed.contains(&ticket.node) {
                    RailgunError::NodeLost(format!(
                        "node {} left the cluster with request {} outstanding — \
                         resend through a surviving node",
                        ticket.node, ticket.request_id
                    ))
                } else {
                    RailgunError::InvalidArgument(format!(
                        "ticket for unknown node {}",
                        ticket.node
                    ))
                }
            })
    }

    /// Non-blocking collect: claim the response for `ticket` if it is
    /// complete, and only otherwise pump once and try again. A call that
    /// claims without pumping skips the worker health check, so a failed
    /// worker surfaces at the next collect that has to wait.
    pub fn try_collect(&mut self, ticket: Ticket) -> Result<Option<ClientResponse>> {
        let idx = self.ticket_node(ticket)?;
        Ok(self.take_or_pump(idx, ticket.request_id)?.0)
    }

    /// [`FrontEnd::take_or_pump`] for node `idx`'s front-end, where the
    /// pump is that node's when threaded (workers drive the units; its pump
    /// health-checks them) and every node's in pump mode. The flag is true
    /// if it claimed or the pump did work.
    fn take_or_pump(
        &mut self,
        idx: usize,
        request_id: u64,
    ) -> Result<(Option<ClientResponse>, bool)> {
        if let Some(done) = self.nodes[idx].frontend_mut().try_take(request_id) {
            return Ok((Some(done), true));
        }
        let busy = if self.is_running() {
            self.nodes[idx].pump()?
        } else {
            self.pump_round()?
        };
        Ok((self.nodes[idx].frontend_mut().try_take(request_id), busy))
    }

    /// Pump every node once (pump mode). True if any node did work.
    fn pump_round(&mut self) -> Result<bool> {
        let mut busy = false;
        for node in &mut self.nodes {
            busy |= node.pump()?;
        }
        Ok(busy)
    }

    /// Abandon an outstanding request: frees its in-flight slot (and any
    /// already-completed response). Call after a collect timeout so
    /// repeated failures cannot wedge the front-end in permanent
    /// backpressure. Returns true if anything was dropped.
    pub fn cancel(&mut self, ticket: Ticket) -> bool {
        self.ticket_node(ticket)
            .map(|idx| self.nodes[idx].frontend_mut().abandon(ticket.request_id))
            .unwrap_or(false)
    }

    /// Blocking collect. A response that is already complete is claimed
    /// at once, without publishing the stage or polling the bus (see
    /// [`FrontEnd::take_or_pump`]). Otherwise, in pump mode this pumps
    /// round after round while the last one did any work (a replaying task
    /// can need thousands) and fails at the first idle one; in threaded
    /// mode it parks on the bus wakeup path until the reply arrives or
    /// `collect_timeout_ms` elapses, health-checking the owning node's
    /// workers each time it has to wait.
    pub fn collect(&mut self, ticket: Ticket) -> Result<ClientResponse> {
        let timeout = Duration::from_millis(self.config.collect_timeout_ms);
        let mut rounds = 0u64;
        let reply = if self.is_running() {
            let bus = self.bus.clone();
            wait_reply(&bus, timeout, || self.try_collect(ticket))?
        } else {
            let idx = self.ticket_node(ticket)?;
            loop {
                let (reply, busy) = self.take_or_pump(idx, ticket.request_id)?;
                if reply.is_some() {
                    break reply;
                }
                rounds += 1;
                if !busy {
                    break None;
                }
            }
        };
        reply.ok_or_else(|| {
            // Free the in-flight slot: a reply that never came must not
            // count against the backpressure cap forever.
            self.cancel(ticket);
            let waited = if self.is_running() {
                format!("within {timeout:?}")
            } else {
                format!("after {rounds} pump round(s), the last one idle")
            };
            RailgunError::Engine(format!(
                "no reply for request {} on node {} {waited}",
                ticket.request_id, ticket.node
            ))
        })
    }

    /// Create an independent client handle with its own front-end and
    /// reply topic. Clients are cheap, own their request-id space, and are
    /// `Send` — spawn one per client thread against a started cluster to
    /// drive many in-flight requests concurrently.
    pub fn client(&mut self) -> Result<ClusterClient> {
        let id = self.next_client_id;
        self.next_client_id += 1;
        let mut frontend = FrontEnd::new(
            &self.bus,
            id,
            self.config.max_in_flight,
            self.config.batch,
            Arc::clone(&self.telemetry),
        )?;
        // Learn every stream registered before this client existed.
        frontend.sync_ops()?;
        Ok(ClusterClient {
            frontend,
            bus: self.bus.clone(),
            collect_timeout: Duration::from_millis(self.config.collect_timeout_ms),
        })
    }

    /// Advance the logical clock (heartbeat/failure detection).
    pub fn advance_time(&self, now_ms: u64) {
        self.bus.advance_to(now_ms);
    }

    /// Take node `idx` out of the cluster, remembering its id as departed.
    fn remove_node(&mut self, idx: usize) -> Result<Node> {
        if idx >= self.nodes.len() {
            return Err(RailgunError::InvalidArgument(format!("no node {idx}")));
        }
        let node = self.nodes.remove(idx);
        self.departed.push(node.id);
        Ok(node)
    }

    /// Kill a node abruptly (no goodbye): its consumers simply stop
    /// heartbeating; the bus expels them after the session timeout. Worker
    /// threads (if the node was threaded) are joined first — stopping a
    /// worker never unsubscribes its consumers, so the failure detection
    /// path is exercised identically in both modes. Tickets owned by the
    /// killed front-end fail on their next collect with
    /// [`RailgunError::NodeLost`].
    pub fn kill_node(&mut self, idx: usize) -> Result<()> {
        let _ = self.remove_node(idx)?.stop();
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
    /// Returns the number of checkpoint images flushed in step 2.
    /// Tickets still outstanding on the drained front-end fail with
    /// [`RailgunError::NodeLost`] — under live ingest, collect before
    /// draining the node you are sending through, or resend.
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
        self.remove_node(idx)?;
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
        let mut node = Node::new(
            &self.bus,
            id,
            &self.config,
            Arc::clone(&self.strategy),
            Arc::clone(&self.telemetry),
        )?;
        if self.is_running() {
            node.start()?;
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

/// Poll for a reply until it arrives or `timeout` elapses, parked on the
/// bus wakeup path in between — the one blocking wait behind
/// [`Cluster::collect`] (threaded mode) and [`ClusterClient::collect`].
/// The bus version is sampled *before* each poll, so a reply published
/// mid-poll re-polls at once instead of being slept through. `None` =
/// timed out.
fn wait_reply(
    bus: &MessageBus,
    timeout: Duration,
    mut poll: impl FnMut() -> Result<Option<ClientResponse>>,
) -> Result<Option<ClientResponse>> {
    let deadline = Instant::now() + timeout;
    loop {
        let seen = bus.version();
        if let Some(reply) = poll()? {
            return Ok(Some(reply));
        }
        let now = Instant::now();
        if now >= deadline {
            return Ok(None);
        }
        bus.wait_for_activity(seen, (deadline - now).min(Duration::from_millis(50)));
    }
}

/// An independent client of a (typically started) cluster: its own
/// front-end, reply topic and request-id space over the shared bus.
///
/// Created with [`Cluster::client`]; `Send`, so each client thread owns
/// one and drives many in-flight requests against the worker threads
/// without touching the `Cluster` itself. Collection only pumps this
/// client's own front-end, so against a *pump-mode* cluster someone else
/// must still drive the processor units (the harness's `pump`/`settle`).
pub struct ClusterClient {
    frontend: FrontEnd,
    bus: MessageBus,
    collect_timeout: Duration,
}

impl ClusterClient {
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
    /// response arrives or the client's collect timeout elapses.
    pub fn collect(&mut self, request_id: u64) -> Result<ClientResponse> {
        let frontend = &mut self.frontend;
        let reply = wait_reply(&self.bus, self.collect_timeout, || {
            frontend.take_or_pump(request_id)
        })?;
        reply.ok_or_else(|| {
            self.cancel(request_id);
            RailgunError::Engine(format!(
                "client: no reply for request {request_id} within {:?}",
                self.collect_timeout
            ))
        })
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

    /// Register a builder-constructed query through this client's
    /// front-end. Propagation is asynchronous — see
    /// [`ClusterClient::register_query`].
    pub fn register(&mut self, query: &Query) -> Result<QueryId> {
        self.frontend.register_query_ast(query)
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
