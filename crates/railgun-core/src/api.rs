//! Client-facing API types and their wire encodings.
//!
//! Events, aggregation replies and operational requests all travel through
//! the messaging layer as opaque payloads; this module defines those
//! payloads. Everything is hand-rolled binary over the shared encode
//! primitives (see DESIGN.md's dependency policy).

use bytes::{Buf, BufMut};
use railgun_types::encode::{
    get_event, get_string, get_uvarint, get_value, put_bytes, put_event, put_event_values,
    put_uvarint, put_value,
};
use railgun_types::{
    Event, EventId, FieldDef, FieldType, RailgunError, Result, Schema, Timestamp, Value,
};

/// Version byte leading every [`OpRequest`] and [`Reply`] payload.
///
/// Wire version 2 introduced query lifecycle ids: `RegisterQuery` carries
/// a [`QueryId`], `UnregisterQuery` exists, and reply aggregations are
/// keyed by `(QueryId, aggregation index)`. Wire version 3 extends the
/// query grammar with the sketch-backed approximate family
/// (`countDistinct … approx`, `topK`, `percentile`): `RegisterQuery`
/// still carries text, but v3 text can name aggregations older nodes
/// cannot parse, so mixed-version replay of the ops topic must fail
/// loudly rather than half-apply. The byte value (`0xA3` = `0xA0 | 3`)
/// is deliberately outside the version-1 op-tag range (v1 ops started
/// directly with a tag, `1..=3`), so **every** v1 op — and any v2
/// payload with its `0xA2` lead byte — fails the version check with a
/// [`RailgunError::Corruption`] naming the mismatch; the ops topic is
/// the durable, replayed channel, and no old op can silently misdecode.
/// Replies are transient (produced and consumed by the same build over
/// the in-process bus, never replayed across an upgrade), so their
/// version byte is a sanity check rather than a cross-version
/// guarantee: an old reply whose leading `uvarint(request_id)` byte
/// happened to be `0xA3` would pass it.
pub const WIRE_VERSION: u8 = 0xA3;

/// Stable identifier of a registered query.
///
/// Assigned by the front-end that accepts the registration
/// (`front-end id << 32 | sequence`), broadcast with the query on the ops
/// topic, and used to address its aggregations in replies and to
/// unregister it later.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{:x}", self.0)
    }
}

/// An event wrapped with routing info, as published to event topics.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRequest {
    /// Correlates replies at the front-end (§3.1, steps 4-6).
    pub request_id: u64,
    /// Reply topic of the originating front-end node.
    pub reply_topic: String,
    pub event: Event,
}

/// One computed aggregation in a reply, addressed by
/// `(query, index)` — the registered query it belongs to and the
/// position of the aggregation in that query's SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationResult {
    /// The registered query this value belongs to.
    pub query: QueryId,
    /// Index of the aggregation in the query's SELECT list.
    pub index: u32,
    /// Display name, e.g. `sum(amount) over sliding 5min`.
    pub name: String,
    /// The entity this value belongs to (group-by values of the event).
    pub entity: Vec<Value>,
    /// Current aggregation value.
    pub value: Value,
}

/// Find the aggregation keyed `(query, index)` in a result list.
///
/// Each `(query, index)` pair appears at most once per assembled client
/// response: a query's metrics are computed on exactly one event topic,
/// and only the active task of that topic replies.
pub fn find_keyed(
    results: &[AggregationResult],
    query: QueryId,
    index: usize,
) -> Option<&AggregationResult> {
    results
        .iter()
        .find(|r| r.query == query && r.index as usize == index)
}

/// A task processor's answer for one event (sent to the reply topic).
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    pub request_id: u64,
    /// The event topic that produced this reply — the front-end counts one
    /// reply per routed topic before answering the client.
    pub source_topic: String,
    /// True iff the event was deduplicated (§3.3); values are still the
    /// current aggregations.
    pub duplicate: bool,
    pub results: Vec<AggregationResult>,
}

/// Operational request broadcast on the ops topic (§3.1, §3.3).
#[derive(Debug, Clone, PartialEq)]
pub enum OpRequest {
    /// Register a stream: creates one topic per partitioner.
    CreateStream {
        stream: String,
        schema: Schema,
        partitioners: Vec<String>,
        partitions: u32,
    },
    /// Remove a stream and its metrics.
    DeleteStream { stream: String },
    /// Register the metrics of a query under a stable id (text form;
    /// parsed at each node).
    RegisterQuery { id: QueryId, query_text: String },
    /// Remove a registered query's metrics: its aggregations disappear
    /// from replies and its aggregator state and window cursors are torn
    /// down on every task.
    UnregisterQuery { id: QueryId },
}

/// Topic name for a (stream, partitioner) pair.
pub fn topic_name(stream: &str, partitioner: &str) -> String {
    format!("{stream}--{partitioner}")
}

/// The event topic a query's metrics are computed on: that of the first
/// stream partitioner contained in the query's GROUP BY (§4 — metrics
/// only need events hashed by a *subset* of their group-by keys). The
/// front-end validates a registration with it and every unit routes the
/// query to its tasks with it, so the two can never disagree.
pub fn query_topic(query: &crate::lang::Query, partitioners: &[String]) -> Result<String> {
    partitioners
        .iter()
        .find(|p| query.group_by.contains(p))
        .map(|p| topic_name(&query.stream, p))
        .ok_or_else(|| {
            RailgunError::InvalidArgument(format!(
                "query on `{}` groups by {:?}, which contains no stream partitioner {:?} \
                 — accurate distributed metrics need a partitioner in the GROUP BY",
                query.stream, query.group_by, partitioners
            ))
        })
}

/// Split a topic name back into (stream, partitioner).
pub fn parse_topic_name(topic: &str) -> Option<(&str, &str)> {
    topic.split_once("--")
}

/// Validate a stream or partitioner name before it becomes part of a
/// topic name. Empty names and names containing the `--` topic separator
/// are rejected — [`parse_topic_name`] splits at the *first* `--`, so a
/// stream named `a--b` would silently mis-split into `("a", "b--…")`.
pub fn validate_topic_component(kind: &str, name: &str) -> Result<()> {
    if name.is_empty() {
        return Err(RailgunError::InvalidArgument(format!(
            "{kind} name must not be empty"
        )));
    }
    if name.contains("--") {
        return Err(RailgunError::InvalidArgument(format!(
            "{kind} name `{name}` must not contain `--` (reserved as the topic separator)"
        )));
    }
    Ok(())
}

/// Reply topic for a front-end node.
pub fn reply_topic_name(node: u32) -> String {
    format!("railgun-reply-{node}")
}

/// The single operational topic.
pub const OPS_TOPIC: &str = "railgun-ops";
/// Topic recording (task, offset) checkpoints (§4.1.3).
pub const CHECKPOINT_TOPIC: &str = "railgun-checkpoints";

// ---------------------------------------------------------------------------
// Encodings
// ---------------------------------------------------------------------------

/// Encode an [`EventRequest`].
pub fn encode_event_request(req: &EventRequest) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + req.event.row().len());
    put_uvarint(&mut buf, req.request_id);
    put_bytes(&mut buf, req.reply_topic.as_bytes());
    put_event(&mut buf, &req.event);
    buf
}

/// Append to `buf` what [`encode_event_request`] writes for a request
/// carrying `Event::new(event_id, ts, values)`, straight from the values —
/// the batched ingest path encodes every event of a batch once into one
/// shared frame buffer and publishes zero-copy slices of it, and builds
/// neither an [`EventRequest`] nor an [`Event`] per event.
pub fn encode_event_request_into(
    buf: &mut Vec<u8>,
    request_id: u64,
    reply_topic: &str,
    event_id: EventId,
    ts: Timestamp,
    values: &[Value],
) {
    put_uvarint(buf, request_id);
    put_bytes(buf, reply_topic.as_bytes());
    put_event_values(buf, event_id, ts, values);
}

/// Decode an [`EventRequest`]. Handed a `Bytes` (a bus record's payload),
/// the event is a slice of it: nothing of the row is copied or built.
pub fn decode_event_request(mut buf: impl Buf) -> Result<EventRequest> {
    let request_id = get_uvarint(&mut buf)?;
    let reply_topic = get_string(&mut buf)?;
    let event = get_event(&mut buf)?;
    Ok(EventRequest {
        request_id,
        reply_topic,
        event,
    })
}

/// A varint that must fit in a `u32`; `what` names it in the error.
fn get_u32(buf: &mut &[u8], what: &str) -> Result<u32> {
    u32::try_from(get_uvarint(buf)?)
        .map_err(|_| RailgunError::Corruption(format!("{what} past u32")))
}

fn check_version(buf: &mut &[u8], what: &str) -> Result<()> {
    if !buf.has_remaining() {
        return Err(RailgunError::Corruption(format!("empty {what}")));
    }
    let v = buf.get_u8();
    if v != WIRE_VERSION {
        return Err(RailgunError::Corruption(format!(
            "unsupported {what} wire version {v} (expected {WIRE_VERSION})"
        )));
    }
    Ok(())
}

/// Encode a [`Reply`], through the same two writers a task uses to write
/// its replies straight into a unit's frame.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    let (id, topic, results) = (reply.request_id, &reply.source_topic, &reply.results);
    put_reply_header(&mut buf, id, topic, reply.duplicate, results.len());
    for r in results {
        let entity = r.entity.iter();
        put_reply_result(&mut buf, r.query, r.index, &r.name, entity, &r.value);
    }
    buf
}

/// Append the part of a reply before its results; exactly `results`
/// [`put_reply_result`] calls must follow.
pub fn put_reply_header(
    buf: &mut Vec<u8>,
    request_id: u64,
    source_topic: &str,
    duplicate: bool,
    results: usize,
) {
    buf.put_u8(WIRE_VERSION);
    put_uvarint(buf, request_id);
    put_bytes(buf, source_topic.as_bytes());
    buf.put_u8(u8::from(duplicate));
    put_uvarint(buf, results as u64);
}

/// Append one [`AggregationResult`] of a reply, from borrowed parts.
pub fn put_reply_result<'a>(
    buf: &mut Vec<u8>,
    query: QueryId,
    index: u32,
    name: &str,
    entity: impl ExactSizeIterator<Item = &'a Value>,
    value: &Value,
) {
    put_uvarint(buf, query.0);
    put_uvarint(buf, u64::from(index));
    put_bytes(buf, name.as_bytes());
    put_uvarint(buf, entity.len() as u64);
    for v in entity {
        put_value(buf, v);
    }
    put_value(buf, value);
}

/// Decode a [`Reply`]: exactly one, with nothing after it. Counts are
/// not trusted: no capacity is reserved past what the bytes left could
/// hold, and an aggregation index past `u32` is `Corruption`, not
/// truncated into another key.
pub fn decode_reply(mut buf: &[u8]) -> Result<Reply> {
    check_version(&mut buf, "reply")?;
    let request_id = get_uvarint(&mut buf)?;
    let source_topic = get_string(&mut buf)?;
    let duplicate = match buf.first() {
        Some(&flag @ (0 | 1)) => flag == 1,
        _ => return Err(RailgunError::Corruption("bad reply duplicate flag".into())),
    };
    buf.advance(1);
    // Every result and entity value takes at least a byte.
    let n = get_uvarint(&mut buf)?;
    let mut results = Vec::with_capacity(n.min(buf.len() as u64) as usize);
    for _ in 0..n {
        let query = QueryId(get_uvarint(&mut buf)?);
        let index = get_u32(&mut buf, "aggregation index")?;
        let name = get_string(&mut buf)?;
        let ne = get_uvarint(&mut buf)?;
        let mut entity = Vec::with_capacity(ne.min(buf.len() as u64) as usize);
        for _ in 0..ne {
            entity.push(get_value(&mut buf)?);
        }
        let value = get_value(&mut buf)?;
        results.push(AggregationResult {
            query,
            index,
            name,
            entity,
            value,
        });
    }
    if !buf.is_empty() {
        return Err(RailgunError::Corruption(format!(
            "{} bytes after the last reply result",
            buf.len()
        )));
    }
    Ok(Reply {
        request_id,
        source_topic,
        duplicate,
        results,
    })
}

const OP_CREATE_STREAM: u8 = 1;
const OP_DELETE_STREAM: u8 = 2;
const OP_REGISTER_QUERY: u8 = 3;
const OP_UNREGISTER_QUERY: u8 = 4;

fn encode_field_type(t: FieldType) -> u8 {
    match t {
        FieldType::Bool => 0,
        FieldType::Int => 1,
        FieldType::Float => 2,
        FieldType::Str => 3,
    }
}

fn decode_field_type(b: u8) -> Result<FieldType> {
    match b {
        0 => Ok(FieldType::Bool),
        1 => Ok(FieldType::Int),
        2 => Ok(FieldType::Float),
        3 => Ok(FieldType::Str),
        other => Err(RailgunError::Corruption(format!(
            "unknown field type {other}"
        ))),
    }
}

/// Encode an [`OpRequest`].
pub fn encode_op(op: &OpRequest) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.put_u8(WIRE_VERSION);
    match op {
        OpRequest::CreateStream {
            stream,
            schema,
            partitioners,
            partitions,
        } => {
            buf.put_u8(OP_CREATE_STREAM);
            put_bytes(&mut buf, stream.as_bytes());
            put_uvarint(&mut buf, schema.fields().len() as u64);
            for f in schema.fields() {
                put_bytes(&mut buf, f.name.as_bytes());
                buf.put_u8(encode_field_type(f.ty));
            }
            put_uvarint(&mut buf, partitioners.len() as u64);
            for p in partitioners {
                put_bytes(&mut buf, p.as_bytes());
            }
            put_uvarint(&mut buf, u64::from(*partitions));
        }
        OpRequest::DeleteStream { stream } => {
            buf.put_u8(OP_DELETE_STREAM);
            put_bytes(&mut buf, stream.as_bytes());
        }
        OpRequest::RegisterQuery { id, query_text } => {
            buf.put_u8(OP_REGISTER_QUERY);
            put_uvarint(&mut buf, id.0);
            put_bytes(&mut buf, query_text.as_bytes());
        }
        OpRequest::UnregisterQuery { id } => {
            buf.put_u8(OP_UNREGISTER_QUERY);
            put_uvarint(&mut buf, id.0);
        }
    }
    buf
}

/// Decode an [`OpRequest`]. Counts are checked against the bytes left
/// before anything is reserved for them.
pub fn decode_op(mut buf: &[u8]) -> Result<OpRequest> {
    check_version(&mut buf, "op")?;
    if !buf.has_remaining() {
        return Err(RailgunError::Corruption("truncated op".into()));
    }
    match buf.get_u8() {
        OP_CREATE_STREAM => {
            let stream = get_string(&mut buf)?;
            let nf = get_uvarint(&mut buf)?;
            // A field takes at least two bytes: its name's length and type.
            let mut fields = Vec::with_capacity(nf.min(buf.len() as u64 / 2) as usize);
            for _ in 0..nf {
                let name = get_string(&mut buf)?;
                if !buf.has_remaining() {
                    return Err(RailgunError::Corruption("truncated schema".into()));
                }
                let ty = decode_field_type(buf.get_u8())?;
                fields.push(FieldDef::new(name, ty));
            }
            let np = get_uvarint(&mut buf)?;
            let mut partitioners = Vec::with_capacity(np.min(buf.len() as u64) as usize);
            for _ in 0..np {
                partitioners.push(get_string(&mut buf)?);
            }
            let partitions = get_u32(&mut buf, "partition count")?;
            Ok(OpRequest::CreateStream {
                stream,
                schema: Schema::new(fields)?,
                partitioners,
                partitions,
            })
        }
        OP_DELETE_STREAM => Ok(OpRequest::DeleteStream {
            stream: get_string(&mut buf)?,
        }),
        OP_REGISTER_QUERY => Ok(OpRequest::RegisterQuery {
            id: QueryId(get_uvarint(&mut buf)?),
            query_text: get_string(&mut buf)?,
        }),
        OP_UNREGISTER_QUERY => Ok(OpRequest::UnregisterQuery {
            id: QueryId(get_uvarint(&mut buf)?),
        }),
        other => Err(RailgunError::Corruption(format!("unknown op tag {other}"))),
    }
}

/// Checkpoint record payload for the checkpoint topic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointRecord {
    pub topic: String,
    pub partition: u32,
    pub node: u32,
    pub unit: u32,
    /// First offset NOT covered by the checkpoint (replay starts here).
    pub next_offset: u64,
    /// Filesystem location of the checkpoint data.
    pub path: String,
}

/// Encode a [`CheckpointRecord`].
pub fn encode_checkpoint(c: &CheckpointRecord) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_bytes(&mut buf, c.topic.as_bytes());
    put_uvarint(&mut buf, u64::from(c.partition));
    put_uvarint(&mut buf, u64::from(c.node));
    put_uvarint(&mut buf, u64::from(c.unit));
    put_uvarint(&mut buf, c.next_offset);
    put_bytes(&mut buf, c.path.as_bytes());
    buf
}

/// Decode a [`CheckpointRecord`].
pub fn decode_checkpoint(mut buf: &[u8]) -> Result<CheckpointRecord> {
    Ok(CheckpointRecord {
        topic: get_string(&mut buf)?,
        partition: get_u32(&mut buf, "checkpoint partition")?,
        node: get_u32(&mut buf, "checkpoint node")?,
        unit: get_u32(&mut buf, "checkpoint unit")?,
        next_offset: get_uvarint(&mut buf)?,
        path: get_string(&mut buf)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_request_roundtrip() {
        let req = EventRequest {
            request_id: 42,
            reply_topic: "railgun-reply-1".into(),
            event: Event::new(
                EventId(7),
                Timestamp::from_millis(123),
                vec![Value::Str("card".into()), Value::Float(9.5)],
            ),
        };
        let buf = encode_event_request(&req);
        assert_eq!(decode_event_request(&buf[..]).unwrap(), req);
        // From the parts, without the `Event`: the same record.
        let mut from_values = Vec::new();
        encode_event_request_into(
            &mut from_values,
            req.request_id,
            &req.reply_topic,
            req.event.id,
            req.event.ts,
            req.event.values(),
        );
        assert_eq!(from_values, buf);
    }

    #[test]
    fn a_record_written_before_rows_decodes_and_reencodes_byte_for_byte() {
        // `encode_event_request` of the commit before events were rows:
        // request 77 to reply topic 3, a string, a float, a non-ASCII
        // string, a five-byte integer and a bool.
        const RECORD: &str = "4d0f7261696c67756e2d7265706c792d33e9078c8d0605050d636172642d30303030\
            30303037040000\
            00000000e0bf0506ceb1ceb2ceb30380808080804001";
        let record: Vec<u8> = (0..RECORD.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&RECORD[i..i + 2], 16).unwrap())
            .collect();
        let want = EventRequest {
            request_id: 77,
            reply_topic: "railgun-reply-3".into(),
            event: Event::new(
                EventId(1001),
                Timestamp::from_millis(49_990),
                vec![
                    Value::Str("card-00000007".into()),
                    Value::Float(-0.5),
                    Value::Str("αβγ".into()),
                    Value::Int(1 << 40),
                    Value::Bool(false),
                ],
            ),
        };
        // From a slice (copied row) and from a `Bytes` (sliced row).
        let from_slice = decode_event_request(&record[..]).unwrap();
        let from_bytes = decode_event_request(bytes::Bytes::from(record.clone())).unwrap();
        for got in [from_slice, from_bytes] {
            assert_eq!(got, want);
            assert_eq!(got.event.values(), want.event.values());
            assert_eq!(encode_event_request(&got), record);
        }
        assert_eq!(encode_event_request(&want), record);
    }

    #[test]
    fn reply_roundtrip() {
        let reply = Reply {
            request_id: 9,
            source_topic: "payments--card".into(),
            duplicate: true,
            results: vec![
                AggregationResult {
                    query: QueryId(7),
                    index: 0,
                    name: "sum(amount) over sliding 5min".into(),
                    entity: vec![Value::Str("card-1".into())],
                    value: Value::Float(120.5),
                },
                AggregationResult {
                    query: QueryId(7),
                    index: 1,
                    name: "count(*) over sliding 5min".into(),
                    entity: vec![Value::Str("card-1".into())],
                    value: Value::Int(3),
                },
            ],
        };
        let buf = encode_reply(&reply);
        assert_eq!(decode_reply(&buf).unwrap(), reply);
        assert_eq!(
            find_keyed(&reply.results, QueryId(7), 1).unwrap().value,
            Value::Int(3)
        );
        assert!(find_keyed(&reply.results, QueryId(8), 0).is_none());
        assert!(find_keyed(&reply.results, QueryId(7), 2).is_none());
    }

    #[test]
    fn absurd_counts_and_an_index_past_u32_are_corruption() {
        let head = |results: usize| {
            let mut buf = Vec::new();
            put_reply_header(&mut buf, 9, "payments--card", false, results);
            buf
        };
        let result = |buf: &mut Vec<u8>, index: u64, entity: u64| {
            put_uvarint(buf, 7);
            put_uvarint(buf, index);
            put_bytes(buf, b"count(*)");
            put_uvarint(buf, entity);
        };
        let corrupt = |buf: &[u8]| matches!(decode_reply(buf), Err(RailgunError::Corruption(_)));
        // 2^58 results, or 2^58 entity values, used to panic the client
        // thread reserving their capacity.
        assert!(corrupt(&head(1 << 58)));
        let mut buf = head(1);
        result(&mut buf, 0, 1 << 58);
        assert!(corrupt(&buf));
        // Index 2^32 + 3 used to decode as index 3: another metric's key.
        let mut buf = head(1);
        result(&mut buf, (1 << 32) + 3, 0);
        put_value(&mut buf, &Value::Int(1));
        let err = decode_reply(&buf).unwrap_err();
        assert!(err.to_string().contains("index past u32"), "{err}");
        // The same reply at index 3 is fine, and a byte after it is not.
        let mut buf = head(1);
        result(&mut buf, 3, 0);
        put_value(&mut buf, &Value::Int(1));
        assert_eq!(decode_reply(&buf).unwrap().results[0].index, 3);
        buf.push(0);
        assert!(corrupt(&buf));
    }

    #[test]
    fn op_roundtrips() {
        let ops = vec![
            OpRequest::CreateStream {
                stream: "payments".into(),
                schema: Schema::from_pairs(&[
                    ("cardId", FieldType::Str),
                    ("amount", FieldType::Float),
                ])
                .unwrap(),
                partitioners: vec!["cardId".into(), "merchantId".into()],
                partitions: 10,
            },
            OpRequest::DeleteStream {
                stream: "payments".into(),
            },
            OpRequest::RegisterQuery {
                id: QueryId(0x1_0000_0001),
                query_text: "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 5 min"
                    .into(),
            },
            OpRequest::UnregisterQuery {
                id: QueryId(0x1_0000_0001),
            },
        ];
        for op in ops {
            let buf = encode_op(&op);
            assert_eq!(buf[0], WIRE_VERSION, "version byte leads every op");
            assert_eq!(decode_op(&buf).unwrap(), op, "{op:?}");
        }
    }

    #[test]
    fn v1_payloads_rejected_by_version_check() {
        // A version-1 op started directly with the tag byte (1..=3) —
        // all outside the 0xA3 version byte, so every v1 payload fails
        // the version check up front, never silently misdecoding.
        for tag in [1u8, 2, 3] {
            let err = decode_op(&[tag, 4, b'a', b'b', b'c', b'd']).unwrap_err();
            assert!(
                err.to_string().contains("wire version"),
                "tag {tag}: {err}"
            );
        }
        let err = decode_reply(&[1, 0, 0]).unwrap_err();
        assert!(err.to_string().contains("wire version"), "{err}");
    }

    #[test]
    fn v2_payloads_rejected_by_version_check() {
        // Wire v2 led with 0xA2; v3 (the approx-grammar bump) must
        // reject it with Corruption — a v2 node's ops cannot carry the
        // approximate aggregation forms and must not be half-applied.
        let mut v2 = encode_op(&OpRequest::RegisterQuery {
            id: QueryId(7),
            query_text: "SELECT count(*) FROM s OVER infinite".into(),
        });
        v2[0] = 0xA2;
        let err = decode_op(&v2).unwrap_err();
        assert!(
            matches!(err, RailgunError::Corruption(_)),
            "expected Corruption, got {err:?}"
        );
        assert!(err.to_string().contains("wire version"), "{err}");
    }

    #[test]
    fn topic_component_validation() {
        assert!(validate_topic_component("stream", "payments").is_ok());
        assert!(validate_topic_component("stream", "").is_err());
        assert!(validate_topic_component("stream", "pay--ments").is_err());
        assert!(validate_topic_component("partitioner", "card--id").is_err());
    }

    #[test]
    fn checkpoint_roundtrip() {
        let c = CheckpointRecord {
            topic: "payments--card".into(),
            partition: 3,
            node: 1,
            unit: 2,
            next_offset: 777,
            path: "/data/ckpt/1".into(),
        };
        assert_eq!(decode_checkpoint(&encode_checkpoint(&c)).unwrap(), c);
    }

    #[test]
    fn topic_names() {
        assert_eq!(topic_name("payments", "cardId"), "payments--cardId");
        assert_eq!(
            parse_topic_name("payments--cardId"),
            Some(("payments", "cardId"))
        );
        assert_eq!(parse_topic_name("no-separator"), None);
        assert_eq!(reply_topic_name(3), "railgun-reply-3");
    }

    #[test]
    fn corrupt_payloads_rejected() {
        assert!(decode_event_request(&[][..]).is_err());
        assert!(decode_reply(&[1]).is_err());
        assert!(decode_op(&[]).is_err());
        assert!(decode_op(&[99]).is_err());
    }

    #[test]
    fn op_and_checkpoint_decoders_check_their_counts() {
        // A field count of 2^58 used to panic reserving capacity.
        let mut op = vec![WIRE_VERSION, OP_CREATE_STREAM];
        put_bytes(&mut op, b"s");
        put_uvarint(&mut op, 1 << 58);
        assert!(matches!(decode_op(&op), Err(RailgunError::Corruption(_))));
        // 2^32 + 2 partitions used to decode as 2.
        let mut op = vec![WIRE_VERSION, OP_CREATE_STREAM];
        put_bytes(&mut op, b"s");
        put_uvarint(&mut op, 1);
        put_bytes(&mut op, b"f");
        op.put_u8(encode_field_type(FieldType::Int));
        put_uvarint(&mut op, 1);
        put_bytes(&mut op, b"f");
        let valid = op.len();
        put_uvarint(&mut op, (1 << 32) + 2);
        match decode_op(&op) {
            Err(RailgunError::Corruption(m)) => assert!(m.contains("partition count"), "{m}"),
            other => panic!("expected Corruption, got {other:?}"),
        }
        op.truncate(valid);
        put_uvarint(&mut op, 2);
        assert!(matches!(
            decode_op(&op),
            Ok(OpRequest::CreateStream { partitions: 2, .. })
        ));
        // A record for partition 2^32 + 3 used to restore partition 3's.
        let mut rec = Vec::new();
        put_bytes(&mut rec, b"payments--card");
        put_uvarint(&mut rec, (1 << 32) + 3);
        rec.extend_from_slice(&[1, 2, 9, 0]);
        assert!(matches!(
            decode_checkpoint(&rec),
            Err(RailgunError::Corruption(_))
        ));
    }
}
