//! # railgun-core — the Railgun streaming engine
//!
//! The paper's main contribution (§3, §4): a distributed streaming engine
//! computing **accurate, per-event aggregations over real-time sliding
//! windows** with millisecond tail latencies. This crate assembles the
//! substrates ([`railgun_reservoir`], [`railgun_store`],
//! [`railgun_messaging`]) into the engine proper:
//!
//! * [`lang`] — the SQL-like query language of Figure 4;
//! * [`expr`] — the filter expression language (jexl substitute);
//! * [`agg`] — incremental aggregators with O(1) insert/evict;
//! * [`plan`] — shared-prefix task plan DAGs (Figure 6);
//! * [`task`] — task processors: reservoir + state store + plan (§4.1);
//! * [`unit`](mod@unit) — processor units running Algorithm 1;
//! * [`rebalance`] — the sticky, locality-aware assignment strategy
//!   (Figure 7);
//! * [`frontend`] — the front-end layer routing events to partitioner
//!   topics and collecting replies (§3.1), with a pipelined request
//!   table;
//! * [`runtime`] — the threaded execution runtime: one OS thread per
//!   processor unit, parked on the bus wakeup path when idle (§3.2);
//! * [`node`] / [`cluster`] — node assembly and an in-process cluster
//!   harness used by examples, tests and benches, running either
//!   deterministically pumped or threaded (`start`/`stop`). Elastic
//!   membership (Figure 10) is three calls there: a node joins with
//!   [`Cluster::add_node`], leaves planned with [`Cluster::drain_node`]
//!   (final images, then the handover) or fails with
//!   [`Cluster::kill_node`]; a task gained in the rebalance restores
//!   its newest image in [`unit`](mod@unit) and replays only the tail;
//! * [`api`] — client-facing types and wire encodings, including the
//!   stable [`QueryId`]s that key reply aggregations;
//! * [`metrics`] — the telemetry and SLO plane: in-engine stage latency
//!   histograms, per-query percentile ladders and budget-breach
//!   counters, and the documented overload policy;
//! * [`session`] — the typed client facade: session handles, the
//!   programmatic query builder's registration path, schema-checked
//!   named-field event building, and keyed typed replies.

pub mod agg;
pub mod api;
pub mod cluster;
pub mod expr;
pub mod frontend;
pub mod horizon;
pub mod keys;
pub mod lang;
pub mod metrics;
pub mod node;
pub mod plan;
pub mod rebalance;
pub mod runtime;
pub mod session;
pub mod task;
pub mod unit;

pub use api::{find_keyed, AggregationResult, EventRequest, OpRequest, QueryId, Reply};
pub use cluster::{Cluster, ClusterClient, ClusterConfig, Ticket};
pub use frontend::{BatchPolicy, ClientResponse};
pub use metrics::{
    BatchingMetrics, ElasticCounters, EngineCounters, EngineTelemetry, MetricsSnapshot,
    QueryMetrics, RecoveryCounters, SharedTaskStats, StageLatencies, TaskStatsRegistry,
};
pub use runtime::Runtime;
pub use lang::{
    parse_query, Agg, AggFunc, Query, QueryBuilder, Window, WindowKind, WindowSpec,
};
pub use plan::{MetricHandle, MetricRef, Plan, PlanDiff};
pub use rebalance::RailgunStrategy;
pub use session::{EventBuilder, QueryHandle, Session, StreamEvent, StreamHandle};
pub use task::{RestoreOutcome, StateCacheStats, TaskConfig, TaskProcessor, TaskStats};
