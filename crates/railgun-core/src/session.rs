//! Typed client session over an in-process cluster.
//!
//! [`Session`] is the misuse-resistant front door to Railgun: it owns a
//! [`Cluster`] and hands out **handles** —
//!
//! * [`StreamHandle`] — a registered stream plus its schema; mints
//!   schema-checked [`EventBuilder`]s so events are built by **field
//!   name** instead of positional `Vec<Value>`;
//! * [`QueryHandle`] — a registered query's stable [`QueryId`] plus its
//!   AST; addresses its aggregations in replies by `(id, index)` and
//!   drives the unregister lifecycle.
//!
//! Replies are [`ClientResponse`]s whose typed accessors take the handle
//! (`reply.get_f64(&per_card, 0)`), so client code never string-matches
//! on display names:
//!
//! ```
//! use railgun_core::lang::{mins, Agg, Query, Window};
//! use railgun_core::session::Session;
//! use railgun_core::ClusterConfig;
//! use railgun_types::{FieldType, Timestamp};
//!
//! let mut session = Session::new(ClusterConfig::single_node()).unwrap();
//! let payments = session
//!     .create_stream(
//!         "payments",
//!         &[("cardId", FieldType::Str), ("amount", FieldType::Float)],
//!         &["cardId"],
//!     )
//!     .unwrap();
//! let per_card = session
//!     .register(
//!         Query::select(Agg::sum("amount"))
//!             .select(Agg::count())
//!             .from("payments")
//!             .group_by(["cardId"])
//!             .over(Window::sliding(mins(5))),
//!     )
//!     .unwrap();
//!
//! let event = payments
//!     .event(Timestamp::from_millis(1_000))
//!     .set("cardId", "card-1")
//!     .set("amount", 25.0)
//!     .build()
//!     .unwrap();
//! let reply = session.send(event).unwrap();
//! assert_eq!(reply.get_f64(&per_card, 0), Some(25.0)); // sum(amount)
//! assert_eq!(reply.get_i64(&per_card, 1), Some(1));    // count(*)
//!
//! session.unregister(&per_card).unwrap();
//! let event = payments
//!     .event(Timestamp::from_millis(2_000))
//!     .set("cardId", "card-1")
//!     .set("amount", 5.0)
//!     .build()
//!     .unwrap();
//! let reply = session.send(event).unwrap();
//! assert_eq!(reply.get(&per_card, 0), None); // unregistered: gone
//! ```
//!
//! The positional path ([`Cluster::send`]) remains available — the
//! session is a facade, not a fork; [`Session::cluster_mut`] exposes the
//! full cluster API (threaded start/stop, async clients, node churn).

use std::sync::Arc;

use railgun_types::{
    FieldType, RailgunError, Result, Schema, Timestamp, Value,
};

use crate::api::QueryId;
use crate::cluster::{Cluster, ClusterConfig};
use crate::frontend::ClientResponse;
use crate::lang::{Query, QueryBuilder};
use crate::metrics::MetricsSnapshot;

/// A typed client session owning an in-process [`Cluster`].
pub struct Session {
    cluster: Cluster,
}

impl Session {
    /// Boot a cluster per `config` and open a session on it.
    pub fn new(config: ClusterConfig) -> Result<Self> {
        Ok(Session {
            cluster: Cluster::new(config)?,
        })
    }

    /// The underlying cluster (diagnostics).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable access to the underlying cluster — the escape hatch to
    /// everything the facade doesn't wrap (threaded `start`/`stop`,
    /// per-thread async [`crate::cluster::ClusterClient`]s, node churn).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Register a stream from `(name, type)` field pairs and return its
    /// handle. The first fields listed in `partitioners` must be schema
    /// fields; stream and partitioner names must not contain `--`.
    pub fn create_stream(
        &mut self,
        name: &str,
        fields: &[(&str, FieldType)],
        partitioners: &[&str],
    ) -> Result<StreamHandle> {
        let schema = Schema::from_pairs(fields)?;
        self.create_stream_with_schema(name, schema, partitioners)
    }

    /// Register a stream from a pre-built [`Schema`].
    pub fn create_stream_with_schema(
        &mut self,
        name: &str,
        schema: Schema,
        partitioners: &[&str],
    ) -> Result<StreamHandle> {
        self.cluster.create_stream(name, schema.clone(), partitioners)?;
        Ok(StreamHandle {
            name: name.to_owned(),
            schema: Arc::new(schema),
        })
    }

    /// A handle for a stream registered earlier (possibly by another
    /// session or front-end), if this session's cluster knows it. The
    /// handle is reconstructed from the stream map of the cluster's
    /// client.
    pub fn stream(&self, name: &str) -> Result<StreamHandle> {
        self.cluster
            .stream_schema(name)
            .map(|schema| StreamHandle {
                name: name.to_owned(),
                schema: Arc::new(schema),
            })
            .ok_or_else(|| RailgunError::NotFound(format!("stream `{name}`")))
    }

    /// Register a builder's statement ([`QueryBuilder::text`]) through
    /// [`Session::register_text`], then arm the latency budget declared
    /// with [`QueryBuilder::with_slo`], if any, in the cluster's
    /// telemetry plane — see [`Session::metrics`].
    pub fn register(&mut self, query: QueryBuilder) -> Result<QueryHandle> {
        let handle = self.register_text(&query.text()?)?;
        if let Some(budget) = query.slo() {
            self.cluster.set_query_slo(handle.id, budget);
        }
        Ok(handle)
    }

    /// Register a textual query (Figure 4 syntax) and return its handle.
    pub fn register_text(&mut self, query_text: &str) -> Result<QueryHandle> {
        let query = crate::lang::parse_query(query_text)?;
        let id = self.cluster.register_query(query_text)?;
        Ok(QueryHandle { id, query })
    }

    /// Unregister a query: its aggregations disappear from replies and
    /// every task tears down its state.
    pub fn unregister(&mut self, handle: &QueryHandle) -> Result<()> {
        self.cluster.unregister_query(handle.id)
    }

    /// Every live query registration, as re-hydrated handles in id order.
    pub fn queries(&self) -> Vec<QueryHandle> {
        self.cluster
            .queries()
            .into_iter()
            .map(|r| QueryHandle {
                id: r.id,
                query: r.query,
            })
            .collect()
    }

    /// Send a built event and wait for its aggregations.
    pub fn send(&mut self, event: StreamEvent) -> Result<ClientResponse> {
        self.cluster.send(&event.stream, event.ts, event.values)
    }

    /// Snapshot the engine's telemetry: per-stage latency histograms,
    /// per-query percentile ladders keyed by [`QueryId`], SLO breach
    /// counters, and aggregated task stats.
    ///
    /// Stage histograms fill only when the cluster was built with
    /// `ClusterConfig::telemetry = true`; declaring an SLO with
    /// [`QueryBuilder::with_slo`] arms per-query tracking either way:
    ///
    /// ```
    /// use railgun_core::lang::{millis, mins, Agg, Query, Window};
    /// use railgun_core::session::Session;
    /// use railgun_core::ClusterConfig;
    /// use railgun_types::{FieldType, Timestamp};
    ///
    /// let mut config = ClusterConfig::single_node();
    /// config.telemetry = true; // stage histograms on
    /// # config.data_root = std::env::temp_dir()
    /// #     .join(format!("railgun-metrics-doc-{}", std::process::id()));
    /// # std::fs::remove_dir_all(&config.data_root).ok();
    /// let mut session = Session::new(config).unwrap();
    /// let payments = session
    ///     .create_stream("payments", &[("cardId", FieldType::Str)], &["cardId"])
    ///     .unwrap();
    /// let per_card = session
    ///     .register(
    ///         Query::select(Agg::count())
    ///             .from("payments")
    ///             .group_by(["cardId"])
    ///             .over(Window::sliding(mins(5)))
    ///             .with_slo(millis(250)), // latency budget: p(100) ≤ 250 ms
    ///     )
    ///     .unwrap();
    ///
    /// let event = payments
    ///     .event(Timestamp::from_millis(1_000))
    ///     .set("cardId", "card-1")
    ///     .build()
    ///     .unwrap();
    /// session.send(event).unwrap();
    ///
    /// let metrics = session.metrics();
    /// let q = metrics.query(per_card.id()).expect("tracked per QueryId");
    /// assert_eq!(q.completed, 1);
    /// let ladder = q.ladder(); // p50/p90/…/p99.99 in µs
    /// assert!(ladder.p50_us <= ladder.p999_us);
    /// assert_eq!(metrics.tasks.events_processed, 1);
    /// assert!(metrics.stages.frontend_e2e.count() >= 1);
    /// ```
    pub fn metrics(&self) -> MetricsSnapshot {
        self.cluster.metrics_snapshot()
    }
}

/// A registered stream: its name plus schema (shared, so handles and
/// the builders they mint are cheap). Mints schema-checked
/// [`EventBuilder`]s.
#[derive(Debug, Clone)]
pub struct StreamHandle {
    name: String,
    schema: Arc<Schema>,
}

impl StreamHandle {
    /// The stream's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stream's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Start building an event with timestamp `ts`. Fields are set by
    /// name; unset fields default to NULL. The builder shares the
    /// handle's schema (no per-event schema clone).
    pub fn event(&self, ts: Timestamp) -> EventBuilder {
        EventBuilder {
            stream: self.name.clone(),
            schema: Arc::clone(&self.schema),
            ts,
            values: vec![None; self.schema.len()],
            error: None,
        }
    }
}

/// A registered query: its stable [`QueryId`] plus the AST it was
/// registered with. Addresses its aggregations in replies by
/// `(id, SELECT index)`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryHandle {
    id: QueryId,
    query: Query,
}

impl QueryHandle {
    /// The stable id aggregations of this query are keyed by.
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// The registered query AST.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Display name of the `index`-th aggregation (as replies carry it —
    /// the same [`Query::metric_name`] the plan's metric refs use).
    pub fn metric_name(&self, index: usize) -> Option<String> {
        self.query.metric_name(index)
    }

    /// Number of aggregations in the SELECT list.
    pub fn metric_count(&self) -> usize {
        self.query.select.len()
    }
}

impl From<&QueryHandle> for QueryId {
    /// Lets reply accessors take the handle: `reply.get(&handle, 0)`.
    fn from(handle: &QueryHandle) -> QueryId {
        handle.id
    }
}

/// A named-field event builder validated against the stream schema.
///
/// `set` records the first error it hits (unknown field, type mismatch,
/// duplicate assignment) and [`EventBuilder::build`] reports it — so the
/// fluent chain stays ergonomic without silently dropping mistakes.
#[derive(Debug)]
pub struct EventBuilder {
    stream: String,
    schema: Arc<Schema>,
    ts: Timestamp,
    values: Vec<Option<Value>>,
    error: Option<RailgunError>,
}

impl EventBuilder {
    /// Set field `name` to `value`.
    pub fn set(mut self, name: &str, value: impl Into<Value>) -> Self {
        if self.error.is_some() {
            return self;
        }
        let value = value.into();
        let idx = match self.schema.index_of(name) {
            Some(i) => i,
            None => {
                self.error = Some(RailgunError::Schema(format!(
                    "unknown field `{name}` on stream `{}`",
                    self.stream
                )));
                return self;
            }
        };
        if self.values[idx].is_some() {
            self.error = Some(RailgunError::Schema(format!(
                "field `{name}` set twice"
            )));
            return self;
        }
        let decl = self.schema.fields()[idx].ty;
        if !decl.admits(&value) {
            self.error = Some(RailgunError::Schema(format!(
                "field `{name}` declared {decl:?} but value is {value:?}"
            )));
            return self;
        }
        self.values[idx] = Some(value);
        self
    }

    /// Finish the event. Unset fields become NULL (every field type
    /// admits NULL); the first `set` error, if any, is reported here.
    pub fn build(self) -> Result<StreamEvent> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let values: Vec<Value> = self
            .values
            .into_iter()
            .map(|v| v.unwrap_or(Value::Null))
            .collect();
        // The per-set checks already guarantee validity (and the
        // front-end re-validates on send), so no third full-schema pass
        // on the per-event path.
        debug_assert!(self.schema.check_values(&values).is_ok());
        Ok(StreamEvent {
            stream: self.stream,
            ts: self.ts,
            values,
        })
    }
}

/// A schema-validated event ready to send: stream, timestamp, and values
/// in schema order.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamEvent {
    pub stream: String,
    pub ts: Timestamp,
    pub values: Vec<Value>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{mins, Agg, Window};

    fn fresh_config(tag: &str) -> ClusterConfig {
        let mut cfg = ClusterConfig::single_node();
        cfg.data_root = std::env::temp_dir().join(format!(
            "railgun-session-{}-{tag}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&cfg.data_root).ok();
        cfg
    }

    fn payments_session(tag: &str) -> (Session, StreamHandle) {
        let mut session = Session::new(fresh_config(tag)).unwrap();
        let stream = session
            .create_stream(
                "payments",
                &[
                    ("cardId", FieldType::Str),
                    ("merchantId", FieldType::Str),
                    ("amount", FieldType::Float),
                ],
                &["cardId"],
            )
            .unwrap();
        (session, stream)
    }

    #[test]
    fn event_builder_validates_names_types_and_duplicates() {
        let (_, stream) = payments_session("builder");
        let ok = stream
            .event(Timestamp::from_millis(0))
            .set("cardId", "c-1")
            .set("amount", 9.5)
            .build()
            .unwrap();
        assert_eq!(
            ok.values,
            vec![Value::Str("c-1".into()), Value::Null, Value::Float(9.5)],
            "unset merchantId defaults to NULL, schema order kept"
        );
        assert!(stream
            .event(Timestamp::from_millis(0))
            .set("nope", 1)
            .build()
            .is_err());
        assert!(stream
            .event(Timestamp::from_millis(0))
            .set("amount", "not-a-float")
            .build()
            .is_err());
        assert!(stream
            .event(Timestamp::from_millis(0))
            .set("amount", 1.0)
            .set("amount", 2.0)
            .build()
            .is_err());
    }

    #[test]
    fn session_lifecycle_register_list_unregister() {
        let (mut session, stream) = payments_session("lifecycle");
        let q = session
            .register(
                Query::select(Agg::count())
                    .from("payments")
                    .group_by(["cardId"])
                    .over(Window::sliding(mins(5))),
            )
            .unwrap();
        assert_eq!(session.queries().len(), 1);
        assert_eq!(session.queries()[0].id(), q.id());
        assert_eq!(q.metric_count(), 1);
        assert_eq!(
            q.metric_name(0).unwrap(),
            "count(*) over sliding 5min"
        );

        let reply = session
            .send(
                stream
                    .event(Timestamp::from_millis(1_000))
                    .set("cardId", "A")
                    .build()
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(reply.get_i64(&q, 0), Some(1));
        assert!(!reply.duplicate);

        session.unregister(&q).unwrap();
        assert!(session.queries().is_empty());
        let reply = session
            .send(
                stream
                    .event(Timestamp::from_millis(2_000))
                    .set("cardId", "A")
                    .build()
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(reply.get(&q, 0), None, "unregistered query gone");
        // Unregistering twice errors cleanly.
        assert!(session.unregister(&q).is_err());
    }

    #[test]
    fn stream_handle_rehydrates_from_cluster() {
        let (session, _) = payments_session("rehydrate");
        let again = session.stream("payments").unwrap();
        assert_eq!(again.name(), "payments");
        assert_eq!(again.schema().len(), 3);
        assert!(session.stream("nope").is_err());
    }
}
