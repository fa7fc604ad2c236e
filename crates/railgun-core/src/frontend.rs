//! The front-end layer (paper §3.1).
//!
//! The front-end is the client's entry point: it registers streams and
//! metrics, routes every incoming event to **all of its partitioner
//! topics** (step 2 of Figure 3), collects the per-topic aggregation
//! replies from its dedicated reply topic (steps 4-5), and assembles the
//! single response returned to the client (step 6).
//!
//! Requests are fully pipelined: [`FrontEnd::send_event`] registers the
//! request in the request table and returns immediately, so one client
//! can keep many requests outstanding; a request whose last reply arrived
//! turns into its completed response in place and is claimed with
//! [`FrontEnd::try_take`]. The table is bounded (`max_in_flight`) —
//! exceeding it fails with [`RailgunError::Backpressure`] until the
//! caller collects, which is what keeps a fast producer from flooding the
//! bus under MAD load.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use railgun_messaging::{
    partition_for_key, BatchEntry, Consumer, Message, MessageBus, Producer, TopicPartition,
};
use railgun_types::encode::{put_value, BatchFrameBuilder};
use railgun_types::{EventId, FastHashMap, RailgunError, Result, Schema, Timestamp, Value};

use crate::api::{
    decode_op, encode_event_request_into, encode_op, find_keyed, query_topic, read_reply_head,
    reply_topic_name, topic_name, validate_topic_component, AggregationResult, OpRequest,
    QueryId, CHECKPOINT_TOPIC, OPS_TOPIC,
};
use crate::lang::{parse_query, Query};
use crate::metrics::{EngineTelemetry, QueryTelemetry, SLO_OVERLOAD_MULTIPLIER};

/// A completed client reply: every routed topic has answered. This is the
/// one reply type — what [`FrontEnd::try_take`], the cluster's `send` /
/// `collect` calls and [`Session::send`](crate::session::Session::send)
/// all hand back. Aggregations are keyed by `(query, SELECT index)`;
/// address them with the typed accessors, passing a [`QueryId`] or a
/// `&QueryHandle`, instead of matching on display names.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientResponse {
    pub request_id: u64,
    /// Aggregations from every topic the event was routed to, in leaf
    /// order per topic, each keyed by `(query, index)`.
    pub aggregations: Vec<AggregationResult>,
    /// True iff any task reported the event as a duplicate.
    pub duplicate: bool,
}

impl ClientResponse {
    /// The aggregation keyed `(query, index)`, if the reply carries it.
    pub fn get(&self, query: impl Into<QueryId>, index: usize) -> Option<&AggregationResult> {
        find_keyed(&self.aggregations, query.into(), index)
    }

    /// The value keyed `(query, index)` as an `f64` (ints widen).
    pub fn get_f64(&self, query: impl Into<QueryId>, index: usize) -> Option<f64> {
        self.get(query, index).and_then(|a| a.value.as_f64())
    }

    /// The value keyed `(query, index)` as an `i64`.
    pub fn get_i64(&self, query: impl Into<QueryId>, index: usize) -> Option<i64> {
        self.get(query, index).and_then(|a| a.value.as_i64())
    }

    /// The value keyed `(query, index)` as a string slice.
    pub fn get_str(&self, query: impl Into<QueryId>, index: usize) -> Option<&str> {
        self.get(query, index).and_then(|a| a.value.as_str())
    }

    /// The value keyed `(query, index)` as a bool.
    pub fn get_bool(&self, query: impl Into<QueryId>, index: usize) -> Option<bool> {
        self.get(query, index).and_then(|a| a.value.as_bool())
    }
}

/// A query registration known to a front-end (its own or replicated from
/// the ops topic).
#[derive(Debug, Clone, PartialEq)]
pub struct RegisteredQuery {
    pub id: QueryId,
    pub text: String,
    pub query: Query,
    /// Each SELECT item's [`Query::metric_name`], made once and shared by
    /// every result read with the same name.
    names: Vec<Arc<str>>,
}

impl RegisteredQuery {
    fn new(id: QueryId, text: String, query: Query) -> Self {
        let names = (0..query.select.len()).filter_map(|i| query.metric_name(i));
        let names = names.map(Arc::from).collect();
        RegisteredQuery {
            id,
            text,
            query,
            names,
        }
    }
}

/// Front-end ingest coalescing knobs (see DESIGN.md § "Batched ingest").
///
/// Staged events are flushed to the bus as one batch per topic when any
/// of these holds: `max_events` are staged, the oldest staged event is
/// `max_delay` old, every in-flight request is still staged (nothing is
/// being processed downstream, so holding adds pure latency — this is
/// what keeps closed-loop latency unregressed), or the front-end pumps.
/// A collect pumps only when its response is not complete yet
/// ([`FrontEnd::take_or_pump`]), so a closed loop deeper than one
/// stages the sends behind a run of answered collects and publishes them
/// as one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Flush once this many events are staged.
    pub max_events: usize,
    /// Flush once the oldest staged event is this old (only reached in
    /// threaded mode — pump-mode front-ends flush every pump).
    pub max_delay: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_events: 64,
            max_delay: Duration::from_micros(200),
        }
    }
}

#[derive(Debug, Clone)]
struct StreamMeta {
    schema: Schema,
    partitioners: Vec<String>,
    partitioner_indexes: Vec<usize>,
    /// Partitioner topic names, precomputed (one per partitioner), shared
    /// with every request in flight on the stream.
    topics: Arc<[String]>,
    /// Partition count of every partitioner topic of the stream.
    partitions: u32,
}

impl StreamMeta {
    /// Resolve a stream's partitioners against its schema.
    fn new(
        stream: &str,
        schema: Schema,
        partitioners: Vec<String>,
        partitions: u32,
    ) -> Result<Self> {
        // A request marks the topics yet to answer it in a u64.
        if partitioners.len() > 64 {
            let why = format!("stream `{stream}` has over 64 partitioners");
            return Err(RailgunError::InvalidArgument(why));
        }
        let mut partitioner_indexes = Vec::with_capacity(partitioners.len());
        for p in &partitioners {
            partitioner_indexes.push(schema.require(p)?);
        }
        Ok(StreamMeta {
            topics: partitioners.iter().map(|p| topic_name(stream, p)).collect(),
            schema,
            partitioners,
            partitioner_indexes,
            partitions,
        })
    }
}

/// Per-topic staging of one ingest batch: which frame records go to
/// which partition of this topic. Slots persist across flushes so their
/// allocations are reused.
struct StagedTopic {
    topic: String,
    /// `(partition, frame record index)` per staged event.
    records: Vec<(u32, usize)>,
}

/// One request's record in the front-end's table, from `send_event` to
/// `try_take` / `abandon`.
struct Request {
    /// A bit per topic of `topics` yet to answer; at 0 the request is
    /// complete and `response` awaits collection. Only a topic's first
    /// reply counts: a task replaying after a failover answers again.
    missing: u64,
    /// The topics the event was routed to, if more than one (a request
    /// routed to one topic takes any reply as that topic's).
    topics: Option<Arc<[String]>>,
    /// The response, assembled in place as replies arrive.
    response: ClientResponse,
    /// Send time, taken only when the telemetry plane wants request
    /// timing (stage telemetry on, or an SLO registered) — `None`
    /// otherwise, so the off state never reads the clock.
    sent_at: Option<Instant>,
}

impl Request {
    /// The bit of `topic` if the event was routed to it and it has not
    /// answered yet.
    fn unanswered(&self, topic: &str) -> Option<u64> {
        let i = match &self.topics {
            Some(topics) => topics.iter().position(|t| t == topic)?,
            None => 0,
        };
        Some(1 << i).filter(|bit| self.missing & bit != 0)
    }
}

/// A front-end: one client's entry point, with its own reply topic and
/// request-id space over the shared bus.
pub struct FrontEnd {
    /// Names the reply topic, and keys the query and event ids it assigns.
    id: u32,
    /// This front-end's reply topic, named once.
    reply_topic: String,
    producer: Producer,
    replies: Consumer,
    ops: Consumer,
    streams: HashMap<String, StreamMeta>,
    /// Cluster-wide query registry (kept current via the ops topic); reply
    /// results take their names from it.
    queries: FastHashMap<QueryId, RegisteredQuery>,
    /// Sequence of accepted events: the next request id and, under the
    /// front-end id, the next event id.
    next_seq: u64,
    /// Sequence for locally-assigned query ids
    /// (`id << 32 | next_query_seq`).
    next_query_seq: u32,
    /// The request table: every request sent and not yet claimed or
    /// abandoned, in flight or completed (bounded by `max_in_flight`).
    requests: FastHashMap<u64, Request>,
    /// How many entries of `requests` are still missing replies.
    in_flight: usize,
    /// Cap on `requests`: `send_event` refuses new requests past this.
    max_in_flight: usize,
    /// The cluster's telemetry hub (disabled hub when telemetry is off).
    telemetry: Arc<EngineTelemetry>,
    /// Per-front-end cache of the hub's per-query entries, so recording
    /// a completion does not take the hub's registry lock in steady
    /// state (entries are shared `Arc`s; SLO updates still apply).
    query_telemetry: railgun_types::FastHashMap<QueryId, Arc<QueryTelemetry>>,
    /// Send times of timed in-flight requests, in send order — the
    /// overload policy reads the (lazily pruned) front for the oldest
    /// outstanding request's age. Empty while request timing is off.
    inflight_ages: VecDeque<(u64, Instant)>,
    /// Ingest coalescing knobs.
    batch_policy: BatchPolicy,
    /// The shared frame every staged event is encoded into **once**, one
    /// record each; flushed slices are zero-copy views of it.
    frame: BatchFrameBuilder,
    /// Per-topic staging, in first-use order (deterministic flush order).
    staged: Vec<StagedTopic>,
    /// When the oldest staged event was staged; `None` while empty (set
    /// lazily, so the flush-every-event closed-loop path never reads the
    /// clock for it).
    staged_since: Option<Instant>,
    /// Reusable scratch for building `send_batch` entries at flush.
    flush_entries: Vec<BatchEntry>,
    /// Reusable scratch for an event's partitioner key.
    key: Vec<u8>,
    /// Reusable poll scratch for the ops and reply consumers.
    scratch: Vec<Message>,
    /// Telemetry: events per flushed batch (always on, one sample per
    /// flush).
    batch_size: railgun_types::Recorder,
    /// Telemetry: events published in batches of ≥ 2.
    batched_events: railgun_types::Counter,
}

impl FrontEnd {
    /// Create front-end `id`, creating its reply topic. `max_in_flight`
    /// bounds the request table; `batch` sets the ingest coalescing
    /// policy; `telemetry` is the cluster's shared recording hub.
    pub fn new(
        bus: &MessageBus,
        id: u32,
        max_in_flight: usize,
        batch: BatchPolicy,
        telemetry: Arc<EngineTelemetry>,
    ) -> Result<Self> {
        let reply_topic = reply_topic_name(id);
        for topic in [reply_topic.as_str(), OPS_TOPIC, CHECKPOINT_TOPIC] {
            match bus.create_topic(topic, 1, 1) {
                // Already there: the reply topic may survive a front-end
                // restart, the other two are shared with every peer.
                Err(RailgunError::InvalidArgument(_)) if bus.partition_count(topic).is_ok() => {}
                other => other?,
            }
        }
        let mut replies = Consumer::new(bus.clone());
        replies.assign(vec![TopicPartition::new(reply_topic.as_str(), 0)]);
        let mut ops = Consumer::new(bus.clone());
        ops.assign(vec![TopicPartition::new(OPS_TOPIC, 0)]);
        Ok(FrontEnd {
            id,
            reply_topic,
            producer: Producer::new(bus.clone()),
            replies,
            ops,
            streams: HashMap::new(),
            queries: FastHashMap::default(),
            next_seq: 1,
            next_query_seq: 1,
            requests: FastHashMap::default(),
            in_flight: 0,
            max_in_flight: max_in_flight.max(1),
            batch_size: telemetry.batch_size_recorder(),
            batched_events: telemetry.frontend_batched_counter(),
            telemetry,
            query_telemetry: railgun_types::FastHashMap::default(),
            inflight_ages: VecDeque::new(),
            batch_policy: BatchPolicy {
                max_events: batch.max_events.max(1),
                max_delay: batch.max_delay,
            },
            frame: BatchFrameBuilder::new(),
            staged: Vec::new(),
            staged_since: None,
            flush_entries: Vec::new(),
            key: Vec::new(),
            scratch: Vec::new(),
        })
    }

    /// Register a stream: creates its partitioner topics and broadcasts the
    /// operational request to every processor unit.
    pub fn create_stream(
        &mut self,
        bus: &MessageBus,
        stream: &str,
        schema: Schema,
        partitioners: &[&str],
        partitions: u32,
        replication: u32,
    ) -> Result<()> {
        if partitioners.is_empty() {
            return Err(RailgunError::InvalidArgument(
                "a stream needs at least one partitioner".into(),
            ));
        }
        // Stream and partitioner names both become topic-name components;
        // reject anything `parse_topic_name` would silently mis-split.
        validate_topic_component("stream", stream)?;
        for p in partitioners {
            validate_topic_component("partitioner", p)?;
        }
        let partitioners: Vec<String> = partitioners.iter().map(|s| (*s).to_owned()).collect();
        let meta = StreamMeta::new(stream, schema.clone(), partitioners.clone(), partitions)?;
        for topic in meta.topics.iter() {
            bus.create_topic(topic, partitions, replication)?;
        }
        self.publish_op(&OpRequest::CreateStream {
            stream: stream.to_owned(),
            schema,
            partitioners,
            partitions,
        })?;
        self.streams.insert(stream.to_owned(), meta);
        Ok(())
    }

    /// Register a textual query's metrics, validating it against the
    /// stream. Returns the query's stable id — the key its aggregations
    /// carry in replies, and the handle for unregistering it later.
    pub fn register_query(&mut self, query_text: &str) -> Result<QueryId> {
        let query = parse_query(query_text)?;
        self.register_parsed(query, query_text.to_owned())
    }

    /// Register a builder-constructed query. The AST is rendered to its
    /// textual form for the wire (every node parses it — the same path a
    /// hand-written statement takes), which [`QueryBuilder`]'s build-time
    /// validation guarantees is lossless.
    ///
    /// [`QueryBuilder`]: crate::lang::QueryBuilder
    pub fn register_query_ast(&mut self, query: &Query) -> Result<QueryId> {
        // Enforce the builder↔parser equivalence contract at the
        // boundary: what the nodes will parse must be exactly what was
        // built (a real check, not a debug assert — an AST that renders
        // to different semantics must never reach the ops topic).
        let text = query.check_text_roundtrip()?;
        self.register_parsed(query.clone(), text)
    }

    fn register_parsed(&mut self, query: Query, text: String) -> Result<QueryId> {
        let meta = self
            .streams
            .get(&query.stream)
            .ok_or_else(|| RailgunError::NotFound(format!("stream `{}`", query.stream)))?;
        // Validate fields and partitioner coverage up front so the client
        // gets an immediate error.
        for f in &query.group_by {
            meta.schema.require(f)?;
        }
        query_topic(&query, &meta.partitioners)?;
        let id = QueryId((u64::from(self.id) << 32) | u64::from(self.next_query_seq));
        self.next_query_seq += 1;
        self.publish_op(&OpRequest::RegisterQuery {
            id,
            query_text: text.clone(),
        })?;
        self.queries
            .insert(id, RegisteredQuery::new(id, text, query));
        Ok(id)
    }

    /// Unregister a query: broadcast the teardown op. The id must be a
    /// live registration (any front-end's — the registry replicates via
    /// the ops topic).
    pub fn unregister_query(&mut self, id: QueryId) -> Result<()> {
        if !self.queries.contains_key(&id) {
            return Err(RailgunError::NotFound(format!("query {id}")));
        }
        // Broadcast before touching the registry: if the send fails the
        // query is still running cluster-wide, and it must stay listed
        // (and re-unregisterable) here.
        self.publish_op(&OpRequest::UnregisterQuery { id })?;
        self.queries.remove(&id);
        Ok(())
    }

    /// Every live query registration this front-end knows of, in id
    /// order.
    pub fn queries(&self) -> Vec<RegisteredQuery> {
        let mut out: Vec<RegisteredQuery> = self.queries.values().cloned().collect();
        out.sort_by_key(|q| q.id);
        out
    }

    /// Remove a stream (§3.1): broadcast the deletion op and delete the
    /// stream's event topics.
    pub fn delete_stream(&mut self, bus: &MessageBus, stream: &str) -> Result<()> {
        let meta = self
            .streams
            .remove(stream)
            .ok_or_else(|| RailgunError::NotFound(format!("stream `{stream}`")))?;
        // Staged events of this stream reach the bus with the op, before
        // the topics disappear.
        self.publish_op(&OpRequest::DeleteStream {
            stream: stream.to_owned(),
        })?;
        for topic in meta.topics.iter() {
            match bus.delete_topic(topic) {
                // Already gone (another front-end deleted the stream too).
                Ok(()) | Err(RailgunError::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        self.queries.retain(|_, q| q.query.stream != stream);
        Ok(())
    }

    /// Accept one client event: validates, assigns an id, encodes the
    /// event request **once** into the shared batch frame, and stages one
    /// record per partitioner topic of the stream (step 2 of Figure 3).
    /// Returns the request id.
    ///
    /// Staged records reach the bus in batches per the front-end's
    /// [`BatchPolicy`], or at the next pump. With nothing else in flight
    /// the event is flushed at once, so a one-deep closed loop sees no
    /// added latency; a deeper one flushes when a collect first has to
    /// wait ([`FrontEnd::take_or_pump`]).
    pub fn send_event(
        &mut self,
        stream: &str,
        ts: Timestamp,
        values: Vec<Value>,
    ) -> Result<u64> {
        // Completed-but-unclaimed responses count against the cap too:
        // a fire-and-forget caller must not grow the request table
        // without bound just because its replies arrived.
        let outstanding = self.requests.len();
        if outstanding >= self.max_in_flight {
            self.telemetry.count_backpressure();
            return Err(RailgunError::Backpressure(format!(
                "front-end {} has {} requests outstanding ({} in flight, {} uncollected; cap {}); collect before sending more",
                self.id,
                outstanding,
                self.in_flight,
                outstanding - self.in_flight,
                self.max_in_flight
            )));
        }
        // SLO overload policy (see `metrics` module docs): with a latency
        // budget registered, escalate Backpressure *before* the table
        // fills once the oldest in-flight request is hopelessly past the
        // strictest budget — queueing more work can only add breaches.
        let strictest_us = self.telemetry.strictest_slo_us();
        if strictest_us > 0 && outstanding >= self.max_in_flight / 2 {
            self.prune_inflight_ages();
            if let Some((_, oldest)) = self.inflight_ages.front() {
                let oldest_us = oldest.elapsed().as_micros() as u64;
                let limit = strictest_us.saturating_mul(SLO_OVERLOAD_MULTIPLIER);
                if oldest_us > limit {
                    self.telemetry.count_backpressure();
                    return Err(RailgunError::Backpressure(format!(
                        "front-end {} in SLO overload: oldest in-flight request is {} µs old \
                         (> {}× the strictest SLO budget of {} µs) with {} outstanding; \
                         collect or shed load",
                        self.id, oldest_us, SLO_OVERLOAD_MULTIPLIER, strictest_us, outstanding
                    )));
                }
            }
        }
        let meta = self
            .streams
            .get(stream)
            .ok_or_else(|| RailgunError::NotFound(format!("stream `{stream}`")))?;
        meta.schema.check_values(&values)?;
        let request_id = self.next_seq;
        self.next_seq += 1;
        let event_id = EventId((u64::from(self.id) << 40) | request_id);
        // Encode once into the shared frame, the row written straight from
        // the caller's values; every topic's record is a zero-copy slice
        // of it after the flush.
        let record = self.frame.len();
        self.frame.push_with(|buf| {
            encode_event_request_into(buf, request_id, &self.reply_topic, event_id, ts, &values)
        });
        // Step 2 of Figure 3: one record per partitioner, partitioned by
        // the partitioner value so an entity always lands in one
        // partition. Nothing reads a record's key, so it goes out empty.
        for (t, &idx) in meta.topics.iter().zip(&meta.partitioner_indexes) {
            self.key.clear();
            put_value(&mut self.key, &values[idx]);
            let partition = partition_for_key(&self.key, meta.partitions);
            let slot = match self.staged.iter().position(|s| s.topic == *t) {
                Some(i) => i,
                None => {
                    self.staged.push(StagedTopic {
                        topic: t.clone(),
                        records: Vec::new(),
                    });
                    self.staged.len() - 1
                }
            };
            self.staged[slot].records.push((partition, record));
        }
        let missing = u64::MAX >> (64 - meta.topics.len());
        let topics = (meta.topics.len() > 1).then(|| Arc::clone(&meta.topics));
        let sent_at = self.telemetry.wants_request_timing().then(Instant::now);
        if let Some(now) = sent_at {
            // Pruning here keeps the deque bounded by the number of
            // requests genuinely in flight (amortized O(1) per send),
            // independent of whether the overload check above ever runs.
            self.prune_inflight_ages();
            self.inflight_ages.push_back((request_id, now));
        }
        self.requests.insert(
            request_id,
            Request {
                missing,
                topics,
                response: ClientResponse {
                    request_id,
                    aggregations: Vec::new(),
                    duplicate: false,
                },
                sent_at,
            },
        );
        self.in_flight += 1;
        // Flush policy. `in_flight == frame.len()` means every in-flight
        // request is still sitting in the stage — nothing is being
        // processed downstream, so holding the batch open would add pure
        // latency (this is also the first-send case, which keeps
        // closed-loop callers at one bus hop per event). Only when the
        // pipeline is genuinely busy do we coalesce, bounded by
        // `max_events` and `max_delay`.
        let flush = self.frame.len() >= self.batch_policy.max_events
            || self.in_flight == self.frame.len()
            || match self.staged_since {
                None => {
                    self.staged_since = Some(Instant::now());
                    false
                }
                Some(at) => at.elapsed() >= self.batch_policy.max_delay,
            };
        if flush {
            if let Err(e) = self.flush_staged() {
                // The caller gets no request id to `abandon`, so the slot
                // must not outlive the error.
                self.requests.remove(&request_id);
                self.in_flight -= 1;
                if sent_at.is_some() {
                    self.inflight_ages.pop_back();
                }
                return Err(e);
            }
        }
        Ok(request_id)
    }

    /// Broadcast an operational request — after everything staged, so an
    /// op never overtakes the events sent before it.
    fn publish_op(&mut self, op: &OpRequest) -> Result<()> {
        self.flush_staged()?;
        self.producer
            .send_to_partition(OPS_TOPIC, 0, &[], encode_op(op))?;
        Ok(())
    }

    /// Publish everything staged: one `send_batch` (one bus lock, one
    /// wakeup) per topic, each record a zero-copy slice of the shared
    /// frame. No-op when nothing is staged.
    fn flush_staged(&mut self) -> Result<()> {
        if self.frame.is_empty() {
            return Ok(());
        }
        self.staged_since = None;
        let frame = self.frame.finish();
        let events = frame.len() as u64;
        self.batch_size.record(events);
        if events >= 2 {
            self.batched_events.add(events);
        }
        let mut outcome = Ok(());
        for st in &mut self.staged {
            if st.records.is_empty() {
                continue;
            }
            self.flush_entries.extend(st.records.drain(..).map(
                |(partition, record)| BatchEntry {
                    partition,
                    key: Vec::new(),
                    payload: frame.slice(record),
                },
            ));
            if let Err(e) = self
                .producer
                .send_batch(&st.topic, &mut self.flush_entries)
            {
                // Keep going so the other topics' staged records are not
                // silently dropped on the floor, then surface the first
                // failure.
                self.flush_entries.clear();
                outcome = outcome.and(Err(e));
            }
        }
        outcome
    }

    /// Drop send stamps of requests that completed or were abandoned from
    /// the front of the age deque, leaving the oldest request still
    /// awaiting replies there.
    fn prune_inflight_ages(&mut self) {
        while let Some((id, _)) = self.inflight_ages.front() {
            if self.requests.get(id).is_some_and(|r| r.missing > 0) {
                break;
            }
            self.inflight_ages.pop_front();
        }
    }

    /// Publish everything staged, then drain the reply topic, completing
    /// pending requests (steps 5-6). Also applies operational requests
    /// published by other front-ends. A request whose last reply arrived
    /// completes in place in the request table — claim its response with
    /// [`FrontEnd::try_take`]. Returns true if it published staged sends or
    /// read an op or a reply.
    ///
    /// The flush is unconditional: a pump does not know which request its
    /// caller waits for. Collects that do know call
    /// [`FrontEnd::take_or_pump`], which pumps only when it must wait.
    pub fn pump(&mut self) -> Result<bool> {
        // Anything still staged goes out now: a pump is the caller coming
        // back for replies, so holding the batch open any longer only
        // delays them (and in pump mode this is the sole flush trigger,
        // which keeps pump-mode runs deterministic).
        let mut moved = !self.frame.is_empty();
        self.flush_staged()?;
        // Ops from other nodes keep this front-end's stream map current.
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        self.ops.poll_into(64, &mut buf)?;
        self.apply_remote_ops(&buf);
        moved |= !buf.is_empty();
        buf.clear();
        self.replies.poll_into(256, &mut buf)?;
        moved |= !buf.is_empty();
        for msg in buf.drain(..) {
            // One bad record must not take the rest of the poll with it:
            // skip and count it, like the units' checkpoint reader.
            let Ok(head) = read_reply_head(&msg.payload) else {
                self.telemetry.count_undecodable_reply();
                continue;
            };
            // Results go straight into the response; those for no awaiting
            // request (abandoned, or complete) or from a topic that has
            // already answered it are dropped.
            let mut req = self
                .requests
                .get_mut(&head.request_id)
                .and_then(|r| Some((r.unanswered(head.source_topic)?, r)));
            let mut dropped = Vec::new();
            let out = match &mut req {
                Some((_, req)) => &mut req.response.aggregations,
                None => &mut dropped,
            };
            let queries = &self.queries;
            let names = |q, i| queries.get(&q).and_then(|r| r.names.get(i as usize));
            let duplicate = head.duplicate;
            if head.read_results(names, out).is_err() {
                self.telemetry.count_undecodable_reply();
                continue;
            }
            let Some((topic, req)) = req else { continue };
            req.missing &= !topic;
            req.response.duplicate |= duplicate;
            if req.missing == 0 {
                self.in_flight -= 1;
                if let Some(at) = req.sent_at {
                    self.telemetry.observe_completion_cached(
                        &mut self.query_telemetry,
                        &req.response.aggregations,
                        at.elapsed().as_micros() as u64,
                    );
                }
            }
        }
        self.scratch = buf;
        Ok(moved)
    }

    /// Apply ops published by other front-ends so this one's stream map
    /// and query registry stay current. Ops are validated before
    /// broadcast, but the ops topic is durable and replayed, so an op this
    /// front-end cannot read or apply (a stream whose partitioner is not
    /// in its schema, a query text this build cannot parse) is skipped and
    /// counted: the ops polled behind it still apply. The registry then
    /// under-reports a skipped query; processing is unaffected (units
    /// parse independently).
    fn apply_remote_ops(&mut self, messages: &[Message]) {
        for msg in messages {
            let applied = match decode_op(&msg.payload) {
                Ok(OpRequest::CreateStream {
                    stream,
                    schema,
                    partitioners,
                    partitions,
                }) => match self.streams.entry(stream) {
                    Entry::Vacant(slot) => {
                        StreamMeta::new(slot.key(), schema, partitioners, partitions)
                            .map(|meta| slot.insert(meta))
                            .is_ok()
                    }
                    Entry::Occupied(_) => true,
                },
                Ok(OpRequest::DeleteStream { stream }) => {
                    self.streams.remove(&stream);
                    // Queries die with their stream, cluster-wide.
                    self.queries.retain(|_, q| q.query.stream != stream);
                    true
                }
                Ok(OpRequest::RegisterQuery { id, query_text }) => match self.queries.entry(id) {
                    Entry::Vacant(slot) => parse_query(&query_text)
                        .map(|query| slot.insert(RegisteredQuery::new(id, query_text, query)))
                        .is_ok(),
                    Entry::Occupied(_) => true,
                },
                Ok(OpRequest::UnregisterQuery { id }) => {
                    self.queries.remove(&id);
                    true
                }
                Err(_) => false,
            };
            if !applied {
                self.telemetry.count_skipped_op();
            }
        }
    }

    /// Replay the whole operational log so a freshly-created front-end
    /// (e.g. a [`crate::cluster::ClusterClient`]) learns every stream that
    /// existed before it was born.
    pub fn sync_ops(&mut self) -> Result<()> {
        let mut buf = std::mem::take(&mut self.scratch);
        loop {
            buf.clear();
            self.ops.poll_into(256, &mut buf)?;
            if buf.is_empty() {
                self.scratch = buf;
                return Ok(());
            }
            self.apply_remote_ops(&buf);
        }
    }

    /// Claim the response for `request_id` if it is complete; only if it
    /// is not, [`FrontEnd::pump`] and try again — the step of every
    /// collect. A closed loop thus claims the replies of a whole run
    /// without a bus hop, and the sends it stages behind them go out as
    /// one batch when a collect first has to wait (or earlier, by the
    /// [`BatchPolicy`] of a later send).
    pub fn take_or_pump(&mut self, request_id: u64) -> Result<Option<ClientResponse>> {
        if let Some(done) = self.try_take(request_id) {
            return Ok(Some(done));
        }
        self.pump()?;
        Ok(self.try_take(request_id))
    }

    /// Claim the completed response for `request_id`, if it has arrived.
    pub fn try_take(&mut self, request_id: u64) -> Option<ClientResponse> {
        match self.requests.entry(request_id) {
            Entry::Occupied(slot) if slot.get().missing == 0 => Some(slot.remove().response),
            _ => None,
        }
    }

    /// Abandon a request: drop its record, in flight or completed. Late
    /// replies for an abandoned id are ignored by `pump` (no record).
    /// Returns true if anything was dropped.
    pub fn abandon(&mut self, request_id: u64) -> bool {
        let dropped = self.requests.remove(&request_id);
        if dropped.as_ref().is_some_and(|r| r.missing > 0) {
            self.in_flight -= 1;
        }
        dropped.is_some()
    }

    /// Schema of a known stream.
    pub fn stream_schema(&self, stream: &str) -> Option<Schema> {
        self.streams.get(stream).map(|m| m.schema.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use railgun_types::FieldType;

    #[test]
    fn failed_flush_frees_the_in_flight_slot() {
        // B still lists a stream A deleted (B has not pumped the op yet):
        // its sends fail at the flush, after the request was registered.
        // The caller gets no id to abandon, so the slot must go with the
        // error — it used to leak, and `max_in_flight` failed sends left B
        // refusing everything with `Backpressure`.
        let bus = MessageBus::with_defaults();
        let hub = Arc::new(EngineTelemetry::new(false));
        let mut a = FrontEnd::new(&bus, 0, 2, BatchPolicy::default(), Arc::clone(&hub)).unwrap();
        let mut b = FrontEnd::new(&bus, 1, 2, BatchPolicy::default(), hub).unwrap();
        let schema = Schema::from_pairs(&[("cardId", FieldType::Str)]).unwrap();
        a.create_stream(&bus, "payments", schema, &["cardId"], 1, 1)
            .unwrap();
        b.sync_ops().unwrap();
        a.delete_stream(&bus, "payments").unwrap();
        for _ in 0..3 {
            let sent = b.send_event("payments", Timestamp::from_millis(1), vec![Value::from("c")]);
            assert!(matches!(sent, Err(RailgunError::NotFound(_))), "{sent:?}");
        }
        assert!(b.requests.is_empty() && b.in_flight == 0);
    }

    #[test]
    fn an_undecodable_reply_is_skipped_and_counted_not_the_poll_behind_it() {
        // `pump` used to return the decode error from inside the drain,
        // dropping every reply polled behind the bad one for good.
        let bus = MessageBus::with_defaults();
        let hub = Arc::new(EngineTelemetry::new(false));
        let mut fe = FrontEnd::new(&bus, 0, 8, BatchPolicy::default(), Arc::clone(&hub)).unwrap();
        let schema = Schema::from_pairs(&[("cardId", FieldType::Str)]).unwrap();
        fe.create_stream(&bus, "payments", schema, &["cardId"], 1, 1)
            .unwrap();
        let ts = Timestamp::from_millis(1);
        let id = fe.send_event("payments", ts, vec![Value::from("c")]).unwrap();
        let result = AggregationResult {
            query: QueryId(1),
            index: 0,
            name: "count(*)".into(),
            entity: vec![Value::from("c")].into(),
            value: Value::Int(1),
        };
        let reply = |request_id, results: &[AggregationResult]| {
            crate::api::encode_reply(&crate::api::Reply {
                request_id,
                source_topic: "payments--cardId".into(),
                duplicate: false,
                results: results.to_vec(),
            })
        };
        // Cut inside the second result: the first one read must not stay
        // in the response, nor count for a request nobody awaits.
        let cut = |request_id| {
            let mut bytes = reply(request_id, &[result.clone(), result.clone()]);
            bytes.pop();
            bytes
        };
        let producer = Producer::new(bus.clone());
        for payload in [vec![0xff], cut(id), cut(id + 1), reply(id, &[])] {
            producer
                .send_to_partition(&reply_topic_name(0), 0, &[], payload)
                .unwrap();
        }
        assert!(fe.pump().unwrap());
        let response = fe.try_take(id).expect("the last reply completes it");
        assert!(response.aggregations.is_empty());
        assert_eq!(hub.snapshot().counters.undecodable_replies, 3);
    }

    #[test]
    fn a_topic_that_answers_twice_counts_once() {
        // A task that replays after a failover publishes its replies again.
        // Every reply used to count: topic A's second reply completed a
        // two-topic request with A's results twice and none of B's.
        let bus = MessageBus::with_defaults();
        let hub = Arc::new(EngineTelemetry::new(false));
        let mut fe = FrontEnd::new(&bus, 0, 8, BatchPolicy::default(), hub).unwrap();
        let fields = [("cardId", FieldType::Str), ("merchantId", FieldType::Str)];
        let schema = Schema::from_pairs(&fields).unwrap();
        fe.create_stream(&bus, "payments", schema, &["cardId", "merchantId"], 1, 1)
            .unwrap();
        let values = vec![Value::from("c"), Value::from("m")];
        let id = fe.send_event("payments", Timestamp::from_millis(1), values).unwrap();
        let result = |entity: &str| AggregationResult {
            query: QueryId(1),
            index: 0,
            name: "count(*)".into(),
            entity: vec![Value::from(entity)].into(),
            value: Value::Int(1),
        };
        let producer = Producer::new(bus.clone());
        let publish = |partitioner, entity| {
            let reply = crate::api::encode_reply(&crate::api::Reply {
                request_id: id,
                source_topic: topic_name("payments", partitioner),
                duplicate: false,
                results: vec![result(entity)],
            });
            producer
                .send_to_partition(&reply_topic_name(0), 0, &[], reply)
                .unwrap();
        };
        publish("cardId", "c");
        publish("cardId", "c");
        fe.pump().unwrap();
        assert!(fe.try_take(id).is_none(), "merchantId has not answered");
        publish("merchantId", "m");
        fe.pump().unwrap();
        let response = fe.try_take(id).expect("both topics answered");
        assert_eq!(response.aggregations, vec![result("c"), result("m")]);
    }

    #[test]
    fn a_stream_of_over_64_partitioners_is_refused() {
        // A request marks the topics that answered it in a u64.
        let bus = MessageBus::with_defaults();
        let hub = Arc::new(EngineTelemetry::new(false));
        let mut fe = FrontEnd::new(&bus, 0, 8, BatchPolicy::default(), hub).unwrap();
        let names: Vec<String> = (0..65).map(|i| format!("f{i}")).collect();
        let parts: Vec<&str> = names.iter().map(String::as_str).collect();
        let fields: Vec<_> = parts.iter().map(|&n| (n, FieldType::Str)).collect();
        let schema = Schema::from_pairs(&fields).unwrap();
        let refused = fe.create_stream(&bus, "wide", schema.clone(), &parts, 1, 1);
        assert!(matches!(refused, Err(RailgunError::InvalidArgument(_))), "{refused:?}");
        fe.create_stream(&bus, "wide", schema, &parts[..64], 1, 1)
            .unwrap();
    }

    #[test]
    fn an_op_it_cannot_apply_is_skipped_and_counted_not_the_ops_behind_it() {
        // A stream whose partitioner is not in its schema used to fail
        // `apply_remote_ops` from inside the poll: B's pump returned the
        // error and B never learned of the stream A created behind it, and
        // `sync_ops` failed the same way.
        let bus = MessageBus::with_defaults();
        let hub = Arc::new(EngineTelemetry::new(false));
        let frontend =
            |node| FrontEnd::new(&bus, node, 8, BatchPolicy::default(), Arc::clone(&hub));
        let (mut a, mut b) = (frontend(0).unwrap(), frontend(1).unwrap());
        let schema = Schema::from_pairs(&[("cardId", FieldType::Str)]).unwrap();
        let foreign = encode_op(&OpRequest::CreateStream {
            stream: "refunds".into(),
            schema: schema.clone(),
            partitioners: vec!["nope".into()],
            partitions: 1,
        });
        let producer = Producer::new(bus.clone());
        for op in [foreign, vec![0xff]] {
            producer.send_to_partition(OPS_TOPIC, 0, &[], op).unwrap();
        }
        a.create_stream(&bus, "payments", schema, &["cardId"], 1, 1)
            .unwrap();
        assert!(b.pump().unwrap());
        assert!(b.stream_schema("payments").is_some());
        assert!(b.stream_schema("refunds").is_none());
        assert_eq!(hub.snapshot().counters.skipped_ops, 2);
        let mut late = frontend(2).unwrap();
        late.sync_ops().unwrap();
        assert!(late.stream_schema("payments").is_some());
        assert_eq!(hub.snapshot().counters.skipped_ops, 4);
    }
}
