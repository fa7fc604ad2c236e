//! # Railgun
//!
//! A distributed streaming engine with **accurate real-time sliding
//! windows** under **MAD** requirements — **M**sec-level tail latencies,
//! **A**ccurate event-by-event window aggregations, **D**istributed and
//! fault-tolerant operation. This library is a from-scratch Rust
//! reproduction of *"Railgun: managing large streaming windows under MAD
//! requirements"* (Gomes, Oliveirinha, Cardoso, Bizarro — Feedzai, VLDB
//! 2021, arXiv:2106.12626).
//!
//! This facade crate re-exports the public API of the workspace crates:
//!
//! * [`types`] — events, values, schemas, timestamps.
//! * [`store`] — the embedded LSM state store (RocksDB substitute).
//! * [`reservoir`] — the disk-backed event reservoir with eager chunk
//!   caching and head/tail window iterators.
//! * [`messaging`] — the Kafka-substitute messaging layer: partitioned
//!   topics, consumer groups, sticky rebalancing, replay.
//! * [`engine`] — the Railgun engine proper: query language, task plans,
//!   aggregators, task processors, processor units, front-end, cluster.
//! * [`baseline`] — Flink-like hopping-window and rescan baselines used by
//!   the paper's evaluation.
//!
//! The engine observes itself through the telemetry & SLO plane
//! ([`engine::metrics`]): build the cluster with
//! `ClusterConfig::telemetry = true`, attach latency budgets with the
//! query builder's `.with_slo(...)`, and snapshot per-stage histograms
//! and per-query percentile ladders with [`Session::metrics`] — see the
//! README's "Observing latency" quickstart and DESIGN.md § "Telemetry &
//! SLO plane".
//!
//! [`Session::metrics`]: engine::session::Session::metrics
//!
//! ## Quickstart
//!
//! The typed client API: a [`Session`] owns the cluster and hands out
//! stream and query **handles**. Queries are built programmatically
//! (compiling to exactly the plan the text parser would produce), events
//! are built by field name and schema-checked, and replies are addressed
//! by `(query handle, SELECT index)` — no display-name string matching:
//!
//! ```
//! use railgun::engine::lang::{mins, Agg, Query, Window};
//! use railgun::engine::ClusterConfig;
//! use railgun::types::{FieldType, Timestamp};
//! use railgun::Session;
//!
//! let mut session = Session::new(ClusterConfig::single_node()).unwrap();
//!
//! // Register the `payments` stream with a `cardId` partitioner.
//! let payments = session.create_stream(
//!     "payments",
//!     &[
//!         ("cardId", FieldType::Str),
//!         ("merchantId", FieldType::Str),
//!         ("amount", FieldType::Float),
//!     ],
//!     &["cardId"],
//! ).unwrap();
//!
//! // Q1 of the paper: per-card sum and count over a 5-minute sliding window.
//! let per_card = session.register(
//!     Query::select(Agg::sum("amount"))
//!         .select(Agg::count())
//!         .from("payments")
//!         .group_by(["cardId"])
//!         .over(Window::sliding(mins(5))),
//! ).unwrap();
//!
//! // Send a named-field event and read the aggregations back, keyed.
//! let event = payments
//!     .event(Timestamp::from_millis(1_000))
//!     .set("cardId", "card-1")
//!     .set("merchantId", "m-1")
//!     .set("amount", 25.0)
//!     .build()
//!     .unwrap();
//! let reply = session.send(event).unwrap();
//! assert_eq!(reply.get_f64(&per_card, 0), Some(25.0)); // sum(amount)
//! assert_eq!(reply.get_i64(&per_card, 1), Some(1));    // count(*)
//!
//! // Full lifecycle: list and unregister — tasks tear the metrics down.
//! assert_eq!(session.queries().len(), 1);
//! session.unregister(&per_card).unwrap();
//! assert!(session.queries().is_empty());
//! ```
//!
//! The builder writes Figure 4 text, and `Session::register` registers it
//! through the one textual front door, [`Session::register_text`]. The
//! positional `Cluster::send(stream, ts, values)` path still works as a
//! thin shim under the typed facade.
//!
//! [`Session::register_text`]: engine::session::Session::register_text
//!
//! ## Threaded runtime
//!
//! `Cluster::start` moves every processor unit onto its own OS thread
//! (the paper's one-thread-per-unit discipline, §3.2); clients then
//! pipeline many in-flight requests with `send_async`/`collect` instead
//! of one blocking round-trip at a time (see DESIGN.md § "Execution
//! modes"):
//!
//! ```
//! use railgun::engine::{Cluster, ClusterConfig};
//! use railgun::types::{FieldType, Schema, Timestamp, Value};
//!
//! let mut cluster = Cluster::new(ClusterConfig::single_node()).unwrap();
//! let schema = Schema::from_pairs(&[
//!     ("cardId", FieldType::Str),
//!     ("amount", FieldType::Float),
//! ]).unwrap();
//! cluster.create_stream("payments", schema, &["cardId"]).unwrap();
//! let per_card = cluster.register_query(
//!     "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 5 minutes",
//! ).unwrap();
//!
//! cluster.start().unwrap(); // one worker thread per processor unit
//! let mut client = cluster.client().unwrap();
//! // Pipeline a window of requests, then collect by request id.
//! let ids: Vec<u64> = (0..8)
//!     .map(|i| {
//!         client.send_async(
//!             "payments",
//!             Timestamp::from_millis(1_000 + i),
//!             vec![Value::from("card-1"), Value::from(1.0)],
//!         ).unwrap()
//!     })
//!     .collect();
//! for id in ids {
//!     let reply = client.collect(id).unwrap();
//!     assert!(reply.get_i64(per_card, 0).is_some(), "keyed count present");
//! }
//! cluster.stop().unwrap(); // deterministic pump mode remains available
//! ```

pub use railgun_baseline as baseline;
pub use railgun_core as engine;
pub use railgun_messaging as messaging;
pub use railgun_reservoir as reservoir;
pub use railgun_store as store;
pub use railgun_types as types;

// The typed client API, re-exported at the crate root (the engine module
// remains the full toolbox).
pub use railgun_core::{
    ClientResponse, EventBuilder, MetricsSnapshot, QueryHandle, QueryId, QueryMetrics, Session,
    StreamEvent, StreamHandle,
};
