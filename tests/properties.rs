//! Property-based tests (proptest) over the core data structures and the
//! cross-crate invariants they must uphold.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use railgun::engine::agg::sketch::{hll::Hll, quantile::QuantSketch, topk::TopKSketch, PaneSketch};
use railgun::engine::agg::{decode_row, encode_slot, AggContext, AggScratch, AggState};
use railgun::engine::api::{
    decode_checkpoint, decode_op, decode_reply, encode_checkpoint, encode_op, encode_reply,
    put_reply_header, read_reply_head, AggregationResult, CheckpointRecord, OpRequest, QueryId,
    Reply, WIRE_VERSION,
};
use railgun::engine::keys::{decode_state_key, state_key};
use railgun::engine::lang::AggFunc;
use railgun::reservoir::{Codec, Reservoir, ReservoirConfig};
use railgun::store::{Db, DbOptions};
use railgun::types::{AtomicHistogram, Histogram};
use railgun::types::encode;
use railgun::types::{Event, EventId, FieldDef, FieldType, Schema, Timestamp, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-zA-Z0-9_-]{0,24}".prop_map(Value::Str),
    ]
}

fn arb_field_type() -> impl Strategy<Value = FieldType> {
    prop_oneof![
        Just(FieldType::Bool),
        Just(FieldType::Int),
        Just(FieldType::Float),
        Just(FieldType::Str),
    ]
}

fn arb_op() -> impl Strategy<Value = OpRequest> {
    prop_oneof![
        (
            "[a-zA-Z][a-zA-Z0-9_]{0,12}",
            proptest::collection::vec(arb_field_type(), 1..6),
            proptest::collection::vec("[a-z]{1,8}", 1..4),
            1u32..64,
        )
            .prop_map(|(stream, types, partitioners, partitions)| {
                // Unique field names by construction.
                let fields = types
                    .iter()
                    .enumerate()
                    .map(|(i, t)| FieldDef::new(format!("f{i}"), *t))
                    .collect();
                OpRequest::CreateStream {
                    stream,
                    schema: Schema::new(fields).expect("unique names"),
                    partitioners,
                    partitions,
                }
            }),
        "[a-z]{1,12}".prop_map(|stream| OpRequest::DeleteStream { stream }),
        (any::<u64>(), "[a-zA-Z0-9_() *,>=<.-]{0,64}").prop_map(|(id, query_text)| {
            OpRequest::RegisterQuery {
                id: QueryId(id),
                query_text,
            }
        }),
        any::<u64>().prop_map(|id| OpRequest::UnregisterQuery { id: QueryId(id) }),
    ]
}

fn arb_checkpoint() -> impl Strategy<Value = CheckpointRecord> {
    (
        "[a-z-]{1,16}",
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        "[a-z0-9/-]{0,24}",
    )
        .prop_map(
            |(topic, partition, node, unit, next_offset, path)| CheckpointRecord {
                topic,
                partition,
                node,
                unit,
                next_offset,
                path,
            },
        )
}

fn arb_agg_result() -> impl Strategy<Value = AggregationResult> {
    (
        any::<u64>(),
        0u32..8,
        "[a-zA-Z0-9_() ]{0,24}",
        proptest::collection::vec(arb_value(), 0..3),
        arb_value(),
    )
        .prop_map(|(query, index, name, entity, value)| AggregationResult {
            query: QueryId(query),
            index,
            name: name.into(),
            entity: entity.into(),
            value,
        })
}

/// The name the test registry gives `(query, index)`: queries 0..3 are
/// registered with three metrics each.
fn registered_name(query: u64, index: u32) -> String {
    format!("m{query}.{index} over sliding 5min")
}

fn test_registry() -> HashMap<QueryId, Vec<Arc<str>>> {
    let names = |q| (0..3).map(|i| registered_name(q, i).into()).collect();
    (0..3).map(|q| (QueryId(q), names(q))).collect()
}

/// Read `buf` with the test registry's names into `response`, which it
/// must leave exactly as it was on error and extend by exactly what
/// `decode_reply` reads otherwise.
fn read_into_response(
    registry: &HashMap<QueryId, Vec<Arc<str>>>,
    buf: &[u8],
    response: &mut Vec<AggregationResult>,
) {
    let names = |q, i: u32| registry.get(&q).and_then(|n| n.get(i as usize));
    let before = response.clone();
    let read = read_reply_head(buf).and_then(|head| head.read_results(names, response));
    match (read, decode_reply(buf)) {
        (Ok(()), Ok(want)) => {
            assert_eq!(response[..before.len()], before[..]);
            assert_eq!(response[before.len()..], want.results[..]);
        }
        (Err(_), Err(_)) => assert_eq!(*response, before),
        (read, want) => panic!("the reader said {read:?}, decode_reply {want:?}"),
    }
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    (
        any::<u64>(),
        "[a-z-]{1,16}",
        any::<bool>(),
        proptest::collection::vec(arb_agg_result(), 0..5),
    )
        .prop_map(|(request_id, source_topic, duplicate, results)| Reply {
            request_id,
            source_topic,
            duplicate,
            results,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn varints_roundtrip(v in any::<u64>(), s in any::<i64>()) {
        let mut buf = Vec::new();
        encode::put_uvarint(&mut buf, v);
        encode::put_ivarint(&mut buf, s);
        let mut cur = &buf[..];
        prop_assert_eq!(encode::get_uvarint(&mut cur).unwrap(), v);
        prop_assert_eq!(encode::get_ivarint(&mut cur).unwrap(), s);
        prop_assert!(cur.is_empty());
    }

    #[test]
    fn values_roundtrip(v in arb_value()) {
        let mut buf = Vec::new();
        encode::put_value(&mut buf, &v);
        let got = encode::get_value(&mut &buf[..]).unwrap();
        // NaN-aware comparison.
        prop_assert!(v.key_eq(&got) || (v.is_null() && got.is_null()));
    }

    #[test]
    fn compression_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let packed = Codec::RailZ.compress(&data);
        let back = Codec::RailZ.decompress(&packed, data.len()).unwrap();
        prop_assert_eq!(back, data);
    }

    #[test]
    fn compression_roundtrips_repetitive(
        unit in proptest::collection::vec(any::<u8>(), 1..32),
        reps in 1usize..200,
    ) {
        let data: Vec<u8> = unit.iter().copied().cycle().take(unit.len() * reps).collect();
        let packed = Codec::RailZ.compress(&data);
        let back = Codec::RailZ.decompress(&packed, data.len()).unwrap();
        prop_assert_eq!(back, data);
    }

    #[test]
    fn state_keys_roundtrip(
        leaf in 0u32..10_000,
        bucket in proptest::option::of(-1_000_000_000i64..1_000_000_000),
        entity in proptest::collection::vec(arb_value(), 0..4),
    ) {
        let key = state_key(leaf, bucket.map(Timestamp::from_millis), &entity);
        let (l, b, e) = decode_state_key(&key).unwrap();
        prop_assert_eq!(l, leaf);
        prop_assert_eq!(b, bucket.map(Timestamp::from_millis));
        prop_assert_eq!(e.len(), entity.len());
        for (x, y) in e.iter().zip(&entity) {
            prop_assert!(x.key_eq(y) || (x.is_null() && y.is_null()));
        }
    }

    #[test]
    fn state_keys_injective_on_id_and_entity(
        l1 in 0u32..1000, l2 in 0u32..1000,
        e1 in "[a-z]{1,8}", e2 in "[a-z]{1,8}",
    ) {
        let k1 = state_key(l1, None, &[Value::Str(e1.clone())]);
        let k2 = state_key(l2, None, &[Value::Str(e2.clone())]);
        prop_assert_eq!(k1 == k2, l1 == l2 && e1 == e2);
    }

    /// Every `OpRequest` variant — including the v2 lifecycle ops
    /// `RegisterQuery { id, .. }` and `UnregisterQuery` — survives its
    /// wire encoding byte-exactly.
    #[test]
    fn op_requests_roundtrip(op in arb_op()) {
        let buf = encode_op(&op);
        prop_assert_eq!(buf[0], WIRE_VERSION, "version byte leads the op");
        prop_assert_eq!(decode_op(&buf).unwrap(), op);
    }

    /// Replies with keyed aggregation results roundtrip, and the keys
    /// (`QueryId`, index) survive exactly.
    #[test]
    fn replies_roundtrip(reply in arb_reply()) {
        let buf = encode_reply(&reply);
        prop_assert_eq!(buf[0], WIRE_VERSION, "version byte leads the reply");
        let decoded = decode_reply(&buf).unwrap();
        prop_assert_eq!(decoded, reply);
    }

    /// Any payload led by a non-current version byte is rejected with a
    /// decode error — old v1 payloads (which began with the op tag) can
    /// never be silently misparsed.
    #[test]
    fn bad_version_byte_is_a_decode_error(
        v in any::<u8>(),
        tail in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        prop_assume!(v != WIRE_VERSION);
        let mut buf = vec![v];
        buf.extend_from_slice(&tail);
        let op_err = decode_op(&buf).unwrap_err();
        prop_assert!(op_err.to_string().contains("wire version"), "{}", op_err);
        let reply_err = decode_reply(&buf).unwrap_err();
        prop_assert!(reply_err.to_string().contains("wire version"), "{}", reply_err);
    }

    /// A damaged reply decodes to an error or exactly, never to a panic:
    /// every cut tail is an error, a flipped bit is an error or a reply
    /// its own encoding decodes back to, and a result count other than
    /// the true one is an error however large (2^58 used to abort the
    /// client thread reserving capacity).
    #[test]
    fn damaged_replies_are_errors_or_exact_decodes(
        reply in arb_reply(),
        cut in any::<u64>(),
        flip in any::<u64>(),
        bit in 0u32..8,
        count in prop_oneof![0u64..8, any::<u64>()],
    ) {
        let buf = encode_reply(&reply);
        let len = buf.len() as u64;
        let cut = &buf[..(cut % len) as usize];
        prop_assert!(decode_reply(cut).is_err());

        let mut flipped = buf.clone();
        flipped[(flip % len) as usize] ^= 1 << bit;
        if let Ok(r) = decode_reply(&flipped) {
            let again = encode_reply(&r);
            prop_assert_eq!(encode_reply(&decode_reply(&again).unwrap()), again);
        }
        // Read into a response that already holds a reply, neither damage
        // touches what is there.
        let registry = test_registry();
        let mut response = decode_reply(&buf).unwrap().results;
        for damaged in [cut, &flipped[..]] {
            read_into_response(&registry, damaged, &mut response);
        }

        let header = |results: usize| {
            let (id, topic) = (reply.request_id, &reply.source_topic);
            let mut head = Vec::new();
            put_reply_header(&mut head, id, topic, reply.duplicate, results);
            head
        };
        let mut recounted = header(count as usize);
        recounted.extend_from_slice(&buf[header(reply.results.len()).len()..]);
        match decode_reply(&recounted) {
            Ok(r) => prop_assert!(count == reply.results.len() as u64 && r == reply),
            Err(e) => prop_assert!(count != reply.results.len() as u64, "{}", e),
        }
    }

    /// Replies read one after the other into one response give what
    /// `decode_reply` gives, result for result, whether a name matches the
    /// registry, differs from it or belongs to a query it does not know.
    /// A name that matches is the registry's own, and consecutive results
    /// of a reply that carry one entity share it.
    #[test]
    fn a_response_read_with_the_registry_is_what_decode_reply_reads(
        entities in proptest::collection::vec(proptest::collection::vec(arb_value(), 0..3), 3),
        replies in proptest::collection::vec(
            proptest::collection::vec((0u64..4, 0u32..4, any::<bool>(), 0usize..3, arb_value()), 0..8),
            1..4,
        ),
    ) {
        let registry = test_registry();
        let mut response = Vec::new();
        for (r, results) in replies.iter().enumerate() {
            let reply = Reply {
                request_id: 7,
                source_topic: format!("payments--t{r}"),
                duplicate: r % 2 == 1,
                results: results
                    .iter()
                    .map(|(q, index, registered, e, value)| AggregationResult {
                        query: QueryId(*q),
                        index: *index,
                        name: match registered {
                            true => registered_name(*q, *index),
                            false => format!("other {q}.{index}"),
                        }
                        .into(),
                        entity: entities[*e].clone().into(),
                        value: value.clone(),
                    })
                    .collect(),
            };
            let start = response.len();
            read_into_response(&registry, &encode_reply(&reply), &mut response);
            let read = &response[start..];
            prop_assert_eq!(read, &reply.results[..]);
            for (i, (got, (q, index, registered, e, _))) in read.iter().zip(results).enumerate() {
                let known = registry.get(&got.query).and_then(|n| n.get(*index as usize));
                if let (true, Some(name)) = (registered, known) {
                    prop_assert!(Arc::ptr_eq(&got.name, name), "q{} #{}", q, index);
                }
                if i > 0 && results[i - 1].3 == *e {
                    prop_assert!(Arc::ptr_eq(&got.entity, &read[i - 1].entity));
                }
            }
        }
    }

    /// Damaged op and checkpoint records fare the same: every cut tail
    /// is an error, a flipped bit is an error or a record its own
    /// encoding decodes back to, a schema field count past what the bytes
    /// hold is an error (2^58 used to panic reserving capacity), and a
    /// partition past `u32` is an error (2^32 + 3 used to decode as 3).
    #[test]
    fn damaged_ops_and_checkpoint_records_are_errors_or_exact_decodes(
        op in arb_op(),
        record in arb_checkpoint(),
        cut in any::<u64>(),
        flip in any::<u64>(),
        bit in 0u32..8,
        count in prop_oneof![0u64..8, (1u64 << 32)..(1u64 << 32) + 8, any::<u64>()],
    ) {
        let buf = encode_op(&op);
        let len = buf.len() as u64;
        prop_assert!(decode_op(&buf[..(cut % len) as usize]).is_err());
        let mut flipped = buf.clone();
        flipped[(flip % len) as usize] ^= 1 << bit;
        if let Ok(o) = decode_op(&flipped) {
            prop_assert_eq!(decode_op(&encode_op(&o)).unwrap(), o);
        }
        if let OpRequest::CreateStream { stream, schema, .. } = &op {
            let mut head = buf[..2].to_vec();
            encode::put_bytes(&mut head, stream.as_bytes());
            let at = head.len();
            encode::put_uvarint(&mut head, schema.fields().len() as u64);
            let rest = &buf[head.len()..];
            head.truncate(at);
            encode::put_uvarint(&mut head, count);
            head.extend_from_slice(rest);
            match decode_op(&head) {
                Ok(o) => {
                    prop_assert!(count <= rest.len() as u64);
                    prop_assert_eq!(decode_op(&encode_op(&o)).unwrap(), o);
                }
                Err(e) => prop_assert!(count != schema.fields().len() as u64, "{}", e),
            }
        }

        let buf = encode_checkpoint(&record);
        let len = buf.len() as u64;
        prop_assert!(decode_checkpoint(&buf[..(cut % len) as usize]).is_err());
        let mut flipped = buf.clone();
        flipped[(flip % len) as usize] ^= 1 << bit;
        if let Ok(r) = decode_checkpoint(&flipped) {
            prop_assert_eq!(decode_checkpoint(&encode_checkpoint(&r)).unwrap(), r);
        }
        let mut head = Vec::new();
        encode::put_bytes(&mut head, record.topic.as_bytes());
        let at = head.len();
        encode::put_uvarint(&mut head, u64::from(record.partition));
        let rest = &buf[head.len()..];
        head.truncate(at);
        encode::put_uvarint(&mut head, count);
        head.extend_from_slice(rest);
        match decode_checkpoint(&head) {
            Ok(r) => prop_assert!(
                u64::from(r.partition) == count
                    && r == CheckpointRecord { partition: r.partition, ..record.clone() }
            ),
            Err(e) => prop_assert!(count > u64::from(u32::MAX), "{}", e),
        }
    }

    #[test]
    fn histogram_percentiles_bounded_error(
        mut values in proptest::collection::vec(1u64..10_000_000, 10..500),
        q in 0.01f64..0.999,
    ) {
        let mut h = Histogram::default();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let exact = values[(((values.len() as f64) * q).ceil() as usize - 1).min(values.len()-1)];
        let approx = h.percentile(q);
        // Log-bucketed: bounded relative error (plus rank-rounding slack of
        // one element in either direction).
        let lo = values.iter().rev().find(|&&v| v <= exact).copied().unwrap_or(exact);
        let _ = lo;
        let rel = (approx as f64 - exact as f64).abs() / exact as f64;
        prop_assert!(rel < 0.05 || {
            // allow one-rank slack
            let pos = values.iter().position(|&v| v == exact).unwrap();
            let lo = values.get(pos.saturating_sub(1)).copied().unwrap_or(exact);
            let hi = values.get(pos + 1).copied().unwrap_or(exact);
            approx as f64 >= lo as f64 * 0.95 && approx as f64 <= hi as f64 * 1.05
        }, "q={} exact={} approx={}", q, exact, approx);
    }

    /// The documented ~1% relative-error bound, isolated from rank
    /// rounding: the bulk of the mass sits at `value` with a single far
    /// outlier above it (so min/max clamping cannot mask bucket error),
    /// and every percentile below the outlier's rank must resolve to
    /// `value`'s bucket — whose representative sits within 1% of it (the
    /// default layout's 128 sub-buckets per octave give ≤ 0.8%). Pins
    /// the bound across the move to `railgun-types`.
    #[test]
    fn histogram_percentile_within_one_percent_of_bucket(
        value in 128u64..1_000_000_000,
        n in 100u64..2_000,
        outlier_factor in 4u64..1000,
        q in 0.01f64..0.98,
    ) {
        let mut h = Histogram::default();
        h.record_n(value, n);
        h.record(value.saturating_mul(outlier_factor));
        let approx = h.percentile(q) as f64;
        let rel = (approx - value as f64).abs() / value as f64;
        prop_assert!(rel <= 0.01, "value={} q={} approx={} rel={}", value, q, approx, rel);
    }

    /// The telemetry plane's lock-free `AtomicHistogram` snapshots to a
    /// plain `Histogram` that is indistinguishable from recording the
    /// same values directly.
    #[test]
    fn atomic_histogram_snapshot_matches_plain(
        values in proptest::collection::vec(0u64..10_000_000_000, 1..300),
    ) {
        let atomic = AtomicHistogram::default();
        let mut plain = Histogram::default();
        for &v in &values {
            atomic.record(v);
            plain.record(v);
        }
        let snap = atomic.snapshot();
        prop_assert_eq!(snap.count(), plain.count());
        prop_assert_eq!(snap.min(), plain.min());
        prop_assert_eq!(snap.max(), plain.max());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            prop_assert_eq!(snap.percentile(q), plain.percentile(q), "q={}", q);
        }
    }
}

/// The exact aggregators a group row can hold, in pairs: `i ^ 1` is the
/// other one of `i`'s pair.
const EXACT: [AggFunc; 8] = [
    AggFunc::Max,
    AggFunc::Min,
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::Avg,
    AggFunc::StdDev,
    AggFunc::Last,
    AggFunc::Prev,
];

/// A group row of exact aggregators: per slot its leaf, its aggregator
/// (an index into [`EXACT`]), the values inserted and how many of them
/// were evicted again.
fn arb_exact_row() -> impl Strategy<Value = Vec<(u32, usize, Vec<i64>, usize)>> {
    proptest::collection::vec(
        (
            0u32..300,
            0..EXACT.len(),
            proptest::collection::vec(-50i64..50, 0..6),
            0usize..6,
        ),
        0..5,
    )
}

fn encode_exact_row(slots: &[(u32, usize, Vec<i64>, usize)], ctx: &AggContext<'_>) -> Vec<u8> {
    let mut row = Vec::new();
    for (leaf, func, values, evicted) in slots {
        let mut state = AggState::new(EXACT[*func]);
        for v in values {
            state.insert(Some(&Value::Int(*v)), ctx).unwrap();
        }
        for v in values.iter().take(*evicted) {
            state.evict(Some(&Value::Int(*v)), ctx).unwrap();
        }
        encode_slot(&mut row, *leaf, &state);
    }
    row
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A group row decodes into the slots another row left exactly as
    /// into an empty list, for any two rows of exact aggregators — their
    /// lengths alike or not, their tags independent, alike or swapped
    /// (max for min) — whole or with its tail cut or a bit flipped; and a
    /// whole row re-encodes byte for byte.
    #[test]
    fn a_row_decodes_into_old_slots_as_into_none(
        a in arb_exact_row(),
        b in arb_exact_row(),
        tags in 0usize..3,
        cut in any::<bool>(),
        at in any::<u64>(),
        bit in 0u32..8,
    ) {
        let dir = std::env::temp_dir().join(format!("railgun-prop-row-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        let aux = db.create_cf("aux").unwrap();
        let scratch = AggScratch::default();
        let ctx = AggContext::new(&db, aux, b"k", &scratch);
        let mut b = b;
        for (slot, old) in b.iter_mut().zip(&a).filter(|_| tags > 0) {
            slot.1 = old.1 ^ (tags - 1);
        }
        let (a, b) = (encode_exact_row(&a, &ctx), encode_exact_row(&b, &ctx));
        let mut damaged = b.clone();
        let i = (at % b.len().max(1) as u64) as usize;
        match cut {
            true => damaged.truncate(i),
            false if !b.is_empty() => damaged[i] ^= 1 << bit,
            false => {}
        }
        // A decode, re-encoded: equal encodings are equal slots, NaN or not.
        let decode = |row: &[u8], slots: &mut Vec<(u32, AggState)>| {
            decode_row(row, slots).map(|()| {
                let mut out = Vec::new();
                for (leaf, state) in slots.iter() {
                    encode_slot(&mut out, *leaf, state);
                }
                out
            })
        };
        for row in [&b, &damaged] {
            let mut reused = Vec::new();
            prop_assert_eq!(decode(&a, &mut reused).unwrap(), a.clone());
            let got = decode(row, &mut reused).ok();
            prop_assert_eq!(&got, &decode(row, &mut Vec::new()).ok());
            prop_assert!(row != &b || got.as_ref() == Some(&b));
        }
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incremental aggregators agree with a naive recompute over any
    /// windowed insert/evict pattern (sum/count/avg/min/max/stdDev).
    #[test]
    fn aggregators_match_naive_model(
        values in proptest::collection::vec(-1000i64..1000, 1..120),
        window in 1usize..40,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "railgun-prop-agg-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        let aux = db.create_cf("aux").unwrap();
        let scratch = AggScratch::default();
        let ctx = AggContext::new(&db, aux, b"k", &scratch);
        let mut sum = AggState::new(AggFunc::Sum);
        let mut count = AggState::new(AggFunc::Count);
        let mut avg = AggState::new(AggFunc::Avg);
        let mut min = AggState::new(AggFunc::Min);
        let mut max = AggState::new(AggFunc::Max);
        let mut sd = AggState::new(AggFunc::StdDev);
        for i in 0..values.len() {
            let v = Value::Float(values[i] as f64);
            for s in [&mut sum, &mut count, &mut avg, &mut min, &mut max, &mut sd] {
                s.insert(Some(&v), &ctx).unwrap();
            }
            if i >= window {
                let old = Value::Float(values[i - window] as f64);
                for s in [&mut sum, &mut count, &mut avg, &mut min, &mut max, &mut sd] {
                    s.evict(Some(&old), &ctx).unwrap();
                }
            }
            // Naive model over the current window.
            let start = i.saturating_sub(window - 1);
            let win: Vec<f64> = values[start..=i].iter().map(|&x| x as f64).collect();
            let nsum: f64 = win.iter().sum();
            prop_assert!((sum.value(&ctx).unwrap().as_f64().unwrap() - nsum).abs() < 1e-6);
            prop_assert_eq!(count.value(&ctx).unwrap().as_i64().unwrap(), win.len() as i64);
            prop_assert!((avg.value(&ctx).unwrap().as_f64().unwrap() - nsum / win.len() as f64).abs() < 1e-6);
            let nmin = win.iter().copied().fold(f64::INFINITY, f64::min);
            let nmax = win.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(min.value(&ctx).unwrap().as_f64().unwrap(), nmin);
            prop_assert_eq!(max.value(&ctx).unwrap().as_f64().unwrap(), nmax);
            if win.len() >= 2 {
                let mean = nsum / win.len() as f64;
                let var = win.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
                    / (win.len() - 1) as f64;
                prop_assert!(
                    (sd.value(&ctx).unwrap().as_f64().unwrap() - var.sqrt()).abs() < 1e-5,
                    "stddev drift"
                );
            }
        }
    }

    /// The reservoir yields every in-order appended event exactly once,
    /// in timestamp order, for any chunk-size configuration.
    #[test]
    fn reservoir_yields_each_event_once(
        deltas in proptest::collection::vec(0i64..500, 1..300),
        chunk_events in 2usize..64,
        advance_step in 1i64..2000,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "railgun-prop-res-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let schema = Schema::from_pairs(&[("x", FieldType::Int)]).unwrap();
        let cfg = ReservoirConfig {
            chunk_target_events: chunk_events,
            cache_capacity_chunks: 3,
            ..ReservoirConfig::default()
        };
        let res = Reservoir::open(&dir, schema, cfg).unwrap();
        let cursor = res.cursor_at_start();
        let mut ts = 0i64;
        let mut yielded: Vec<u64> = Vec::new();
        let mut max_ts = 0i64;
        for (i, d) in deltas.iter().enumerate() {
            ts += d;
            max_ts = ts;
            res.append(Event::new(
                EventId(i as u64),
                Timestamp::from_millis(ts),
                vec![Value::Int(i as i64)],
            ))
            .unwrap();
            // Interleave partial advances.
            if i % 7 == 3 {
                for e in cursor.advance_upto(Timestamp::from_millis(ts - advance_step)) {
                    yielded.push(e.id.0);
                }
            }
        }
        for e in cursor.advance_upto(Timestamp::from_millis(max_ts + 1)) {
            yielded.push(e.id.0);
        }
        // Every event exactly once.
        let mut sorted = yielded.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), yielded.len(), "no duplicates");
        prop_assert_eq!(yielded.len(), deltas.len(), "every event yielded");
    }

    /// The LSM store behaves like a BTreeMap under any operation sequence,
    /// including across flush/compaction, and a checkpoint taken at any
    /// point holds exactly the map at that point.
    #[test]
    fn store_matches_map_model(
        ops in proptest::collection::vec(
            (0u8..3, 0u16..64, proptest::collection::vec(any::<u8>(), 0..24)),
            1..200
        ),
        ckpt_at in 0usize..200,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "railgun-prop-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let image = dir.with_extension("image");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&image).ok();
        let mut model = std::collections::BTreeMap::new();
        let mut imaged = model.clone();
        {
            let db = Db::open(&dir, DbOptions {
                memtable_budget_bytes: 512, // force frequent flushes
                compaction_trigger: 3,
                ..DbOptions::default()
            }).unwrap();
            for (i, (op, key, value)) in ops.iter().enumerate() {
                if i == ckpt_at.min(ops.len() - 1) {
                    db.checkpoint(&image).unwrap();
                    imaged = model.clone();
                }
                let key = format!("k{key:04}").into_bytes();
                match op {
                    0 => {
                        db.put(Db::DEFAULT_CF, &key, value).unwrap();
                        model.insert(key, value.clone());
                    }
                    1 => {
                        db.delete(Db::DEFAULT_CF, &key).unwrap();
                        model.remove(&key);
                    }
                    _ => {
                        prop_assert_eq!(
                            db.get(Db::DEFAULT_CF, &key).unwrap(),
                            model.get(&key).cloned()
                        );
                    }
                }
            }
            // Full scan agrees with the model.
            let scanned = db.scan(Db::DEFAULT_CF, b"", None).unwrap();
            let expect: Vec<(Vec<u8>, Vec<u8>)> =
                model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            prop_assert_eq!(scanned, expect);
        }
        // Writes after the checkpoint, flushed or not, are not in it.
        let db = Db::open(&image, DbOptions::default()).unwrap();
        let expect: Vec<(Vec<u8>, Vec<u8>)> = imaged.into_iter().collect();
        prop_assert_eq!(db.scan(Db::DEFAULT_CF, b"", None).unwrap(), expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// HLL merge is associative and commutative: any grouping or order of
    /// partial sketches over the same streams yields identical registers
    /// (register-wise max), and hence identical bytes.
    #[test]
    fn hll_merge_is_associative_and_commutative(
        a in proptest::collection::vec(any::<u64>(), 0..400),
        b in proptest::collection::vec(any::<u64>(), 0..400),
        c in proptest::collection::vec(any::<u64>(), 0..400),
    ) {
        use railgun::engine::agg::sketch::finalize;
        let build = |xs: &[u64]| {
            let mut s = Hll::new(12);
            for &x in xs {
                s.insert_hash(finalize(x));
            }
            s
        };
        let (sa, sb, sc) = (build(&a), build(&b), build(&c));
        // (a ∪ b) ∪ c ...
        let mut left = sa.clone();
        left.merge_from(&sb);
        left.merge_from(&sc);
        // ... versus (c ∪ b) ∪ a.
        let mut right = sc.clone();
        right.merge_from(&sb);
        right.merge_from(&sa);
        let mut lb = Vec::new();
        left.encode(&mut lb);
        let mut rb = Vec::new();
        right.encode(&mut rb);
        prop_assert_eq!(lb, rb, "merge order must not change the registers");
        prop_assert_eq!(left.estimate(), right.estimate());
    }

    /// The HLL estimate stays within 4σ of the true distinct count for
    /// any input multiset (σ = 1.04/√m; the committed bench pins the
    /// configured 2σ bound on a deterministic stream).
    #[test]
    fn hll_estimate_tracks_exact_model(
        xs in proptest::collection::vec(0u64..5000, 1..2000),
    ) {
        use railgun::engine::agg::sketch::finalize;
        let mut s = Hll::new(12);
        let mut exact = std::collections::HashSet::new();
        for &x in &xs {
            s.insert_hash(finalize(x));
            exact.insert(x);
        }
        let sigma = 1.04 / f64::from(1u32 << 12).sqrt();
        let n = exact.len() as f64;
        let err = (s.estimate() as f64 - n).abs() / n;
        prop_assert!(err <= 4.0 * sigma, "relative error {err} above 4σ = {}", 4.0 * sigma);
    }

    /// All three sketch kernels roundtrip byte-identically through their
    /// wire encodings for any input stream (encode → decode → encode).
    #[test]
    fn sketch_kernels_roundtrip_byte_identically(
        xs in proptest::collection::vec(-10_000i64..10_000, 0..600),
    ) {
        use railgun::engine::agg::sketch::finalize;
        let mut h = Hll::new(10);
        let mut t = TopKSketch::new(5);
        let mut q = QuantSketch::default();
        for &x in &xs {
            let hash = finalize(x as u64);
            h.insert_hash(hash);
            t.insert(&Value::Int(x), hash);
            q.insert(x as f64);
        }
        let mut hb = Vec::new();
        h.encode(&mut hb);
        let mut hb2 = Vec::new();
        Hll::decode(&mut hb.as_slice()).unwrap().encode(&mut hb2);
        prop_assert_eq!(hb, hb2, "hll");
        let mut tb = Vec::new();
        t.encode(&mut tb);
        let mut tb2 = Vec::new();
        TopKSketch::decode(&mut tb.as_slice()).unwrap().encode(&mut tb2);
        prop_assert_eq!(tb, tb2, "topk");
        let mut qb = Vec::new();
        q.encode(&mut qb);
        let mut qb2 = Vec::new();
        QuantSketch::decode(&mut qb.as_slice()).unwrap().encode(&mut qb2);
        prop_assert_eq!(qb, qb2, "quantile");
    }
}

// ---------------------------------------------------------------------------
// Row layout: one state row per (group-by node, entity)
// ---------------------------------------------------------------------------

mod group_rows {
    use std::collections::HashMap;

    use railgun::baseline::{RescanConfig, RescanEngine};
    pub use railgun::engine::parse_query;
    use railgun::engine::{
        AggFunc, AggregationResult, QueryId, TaskConfig, TaskProcessor, WindowKind,
    };
    use railgun::store::DbOptions;
    use railgun::types::{Event, EventId, FieldType, Schema, TimeDelta, Timestamp, Value};

    const WINDOW_MS: i64 = 60_000;

    /// What an oracle reproduces of a query.
    pub enum Model {
        /// Every aggregation equals this rescan over the window; events
        /// failing `amount > over` are fed with NULL fields (which field
        /// aggregations skip), `by_merchant` adds the merchant to the key.
        Rescan {
            aggs: Aggs,
            over: Option<f64>,
            by_merchant: bool,
        },
        /// `count(*), sum(amount)` per one-minute tumbling bucket.
        Tumbling,
        /// Rides along in the row; its estimates are not compared.
        Sketch,
    }

    // Rescan field indexes: 0 = amount, 1 = merchantId.
    const AMOUNT: Option<usize> = Some(0);
    const MERCHANT: Option<usize> = Some(1);

    /// Queries that share a window, a filter or a group-by node in every
    /// combination the plan DAG has: 0-4 one group, 5 another filter, 6
    /// another window, 7 another group-by under the same filter; 8 is
    /// alone on its window, so registering it opens one.
    pub const TEMPLATES: [(&str, Model); 9] = [
        (
            "SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER sliding 1 min",
            Model::Rescan {
                aggs: &[(AggFunc::Sum, AMOUNT), (AggFunc::Count, None)],
                over: None,
                by_merchant: false,
            },
        ),
        (
            "SELECT avg(amount) FROM payments GROUP BY cardId OVER sliding 1 min",
            Model::Rescan {
                aggs: &[(AggFunc::Avg, AMOUNT)],
                over: None,
                by_merchant: false,
            },
        ),
        (
            "SELECT min(amount), max(amount) FROM payments GROUP BY cardId OVER sliding 1 min",
            Model::Rescan {
                aggs: &[(AggFunc::Min, AMOUNT), (AggFunc::Max, AMOUNT)],
                over: None,
                by_merchant: false,
            },
        ),
        (
            "SELECT countDistinct(merchantId) FROM payments GROUP BY cardId OVER sliding 1 min",
            Model::Rescan {
                aggs: &[(AggFunc::CountDistinct, MERCHANT)],
                over: None,
                by_merchant: false,
            },
        ),
        (
            "SELECT countDistinct(merchantId) approx 0.02 FROM payments GROUP BY cardId \
             OVER sliding 1 min",
            Model::Sketch,
        ),
        (
            "SELECT sum(amount), count(amount) FROM payments WHERE amount > 5 GROUP BY cardId \
             OVER sliding 1 min",
            Model::Rescan {
                aggs: &[(AggFunc::Sum, AMOUNT), (AggFunc::Count, AMOUNT)],
                over: Some(5.0),
                by_merchant: false,
            },
        ),
        (
            "SELECT count(*), sum(amount) FROM payments GROUP BY cardId OVER tumbling 1 min",
            Model::Tumbling,
        ),
        (
            "SELECT count(*) FROM payments GROUP BY cardId, merchantId OVER sliding 1 min",
            Model::Rescan {
                aggs: &[(AggFunc::Count, None)],
                over: None,
                by_merchant: true,
            },
        ),
        (
            "SELECT countDistinct(merchantId), stdDev(amount), min(amount), max(amount) \
             FROM payments GROUP BY cardId OVER sliding 30 s",
            Model::Rescan {
                aggs: &[
                    (AggFunc::CountDistinct, MERCHANT),
                    (AggFunc::StdDev, AMOUNT),
                    (AggFunc::Min, AMOUNT),
                    (AggFunc::Max, AMOUNT),
                ],
                over: None,
                by_merchant: false,
            },
        ),
    ];

    pub fn schema() -> Schema {
        Schema::from_pairs(&[
            ("cardId", FieldType::Str),
            ("merchantId", FieldType::Str),
            ("amount", FieldType::Float),
        ])
        .unwrap()
    }

    pub fn dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "railgun-prop-rows-{}-{tag}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    /// Whole-number amounts keep every sum exact, so incremental and
    /// rescanned aggregates are equal bit for bit.
    pub fn event(id: u64, ts_ms: i64, card: u8, merchant: u8, amount: u8) -> Event {
        Event::new(
            EventId(id),
            Timestamp::from_millis(ts_ms),
            vec![
                Value::Str(format!("card-{card}")),
                Value::Str(format!("m-{merchant}")),
                Value::Float(f64::from(amount)),
            ],
        )
    }

    /// The trivially-correct side: one rescan engine per template (fed
    /// every stored event from the start, so a query registered mid-stream
    /// has its history) and the tumbling buckets.
    pub struct Oracle {
        engines: Vec<Option<RescanEngine>>,
        tumbling: HashMap<(String, i64), (i64, f64)>,
    }

    impl Oracle {
        pub fn new(tag: &str) -> Self {
            let root = dir(tag);
            let engines = TEMPLATES
                .iter()
                .enumerate()
                .map(|(i, (text, model))| match model {
                    Model::Rescan { aggs, .. } => Some(
                        RescanEngine::open(
                            &root.join(format!("rescan-{i}")),
                            RescanConfig {
                                // The engine's window is [T+1ms−w, T+1ms);
                                // the rescan engine's is [T−w', T].
                                window: match parse_query(text).unwrap().window.kind {
                                    WindowKind::Sliding(w) => w - TimeDelta::from_millis(1),
                                    kind => panic!("rescan templates slide, not {kind:?}"),
                                },
                                aggs: aggs.to_vec(),
                                store: DbOptions::default(),
                                cleanup_every: 0,
                            },
                        )
                        .unwrap(),
                    ),
                    _ => None,
                })
                .collect();
            Oracle {
                engines,
                tumbling: HashMap::new(),
            }
        }

        /// Store `e` and return what each template must report for it
        /// (`None` = not modelled).
        pub fn process(&mut self, e: &Event) -> Vec<Option<Vec<Value>>> {
            let (card, merchant) = (e.values()[0].clone(), e.values()[1].clone());
            let amount = e.values()[2].as_f64().unwrap();
            TEMPLATES
                .iter()
                .zip(&mut self.engines)
                .map(|((_, model), engine)| match model {
                    Model::Rescan {
                        over, by_merchant, ..
                    } => {
                        let key = match by_merchant {
                            true => format!("{card}/{merchant}"),
                            false => card.to_string(),
                        };
                        let fields = match over {
                            Some(x) if amount <= *x => [Value::Null, Value::Null],
                            _ => [Value::Float(amount), merchant.clone()],
                        };
                        let engine = engine.as_mut().expect("rescan templates have an engine");
                        Some(engine.process(key.as_bytes(), e.ts, &fields).unwrap())
                    }
                    Model::Tumbling => {
                        let bucket = e.ts.as_millis().div_euclid(WINDOW_MS);
                        let slot = self.tumbling.entry((card.to_string(), bucket)).or_default();
                        slot.0 += 1;
                        slot.1 += amount;
                        Some(vec![Value::Int(slot.0), Value::Float(slot.1)])
                    }
                    Model::Sketch => None,
                })
                .collect()
        }
    }

    pub fn register(tp: &mut TaskProcessor, template: usize) {
        tp.attach_query(QueryId(template as u64), &parse_query(TEMPLATES[template].0).unwrap())
            .unwrap();
    }

    /// The values a reply carries for one template's query, in SELECT
    /// order.
    pub fn reported(reply: &[AggregationResult], template: usize) -> Vec<Value> {
        let mut of_query: Vec<&AggregationResult> = reply
            .iter()
            .filter(|a| a.query == QueryId(template as u64))
            .collect();
        of_query.sort_by_key(|a| a.index);
        of_query.into_iter().map(|a| a.value.clone()).collect()
    }

    pub fn open(dir: &std::path::Path) -> TaskProcessor {
        TaskProcessor::open(dir, "payments--cardId", 0, schema(), TaskConfig::default()).unwrap()
    }

    /// A rescan engine's aggregations: function and input field.
    type Aggs = &'static [(AggFunc, Option<usize>)];

    impl Model {
        /// The function of the `k`-th SELECT item, where the model names it.
        pub fn func(&self, k: usize) -> Option<AggFunc> {
            match self {
                Model::Rescan { aggs, .. } => Some(aggs[k].0),
                _ => None,
            }
        }
    }

    /// Whether a reported value agrees with the oracle's. Min/max keep a
    /// deque in arrival order; an event that arrives late but expires
    /// early leaves it off for a moment (benchmark README, known defect
    /// 2), so they are compared on in-order streams only. A stdDev kept
    /// incrementally rounds differently from a rescan's.
    pub fn matches(func: Option<AggFunc>, got: &Value, want: &Value, any_late: bool) -> bool {
        match (func, got, want) {
            (Some(AggFunc::Min | AggFunc::Max), ..) if any_late => true,
            (Some(AggFunc::StdDev), Value::Float(a), Value::Float(b)) => {
                (a - b).abs() <= 1e-6 * b.abs().max(1.0)
            }
            _ => got == want,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Plans of 2-4 queries that share a window, a filter or a group-by
    /// node, over streams with late and duplicate events, with one query
    /// registered into the live plan mid-stream (its slots backfilled
    /// into rows that already exist, or into a window it opens) and one
    /// unregistered out of it (its slots stripped, or its group's rows
    /// dropped): every exact reply equals the rescan oracle's.
    #[test]
    fn shared_group_rows_match_the_rescan_oracle(
        picks in proptest::collection::vec(0usize..9, 2..5),
        extra in 0usize..9,
        drop_pick in 0usize..4,
        churn_at in (20usize..40, 45usize..70),
        steps in proptest::collection::vec(
            (0u8..12, 0u8..3, 0u8..4, 0u8..20, 1u16..20_000, 0u16..30_000),
            80..140,
        ),
    ) {
        use group_rows::*;
        let mut live: Vec<usize> = Vec::new();
        for p in picks {
            if !live.contains(&p) {
                live.push(p);
            }
        }
        let mut tp = open(&dir("task"));
        for &t in &live {
            register(&mut tp, t);
        }
        let mut oracle = Oracle::new("oracle");
        let mut sent: Vec<Event> = Vec::new();
        let mut now_ms = 0i64;
        let mut any_late = false;
        for (i, (kind, card, merchant, amount, dt, back)) in steps.into_iter().enumerate() {
            if i == churn_at.0 && !live.contains(&extra) {
                register(&mut tp, extra);
                live.push(extra);
            }
            if i == churn_at.1 && live.len() > 1 {
                let gone = live.remove(drop_pick % live.len());
                prop_assert!(tp.unregister_query(QueryId(gone as u64)).unwrap());
            }
            if kind == 0 && !sent.is_empty() {
                // A duplicate changes nothing and is answered from the
                // current state.
                let again = sent[usize::from(back) % sent.len()].clone();
                let (_, duplicate) = tp.process_event(&again).unwrap();
                prop_assert!(duplicate);
                continue;
            }
            let late = kind == 1 && now_ms > 0;
            if !late {
                now_ms += i64::from(dt);
            }
            let ts = if late { (now_ms - i64::from(back)).max(0) } else { now_ms };
            let e = event(i as u64, ts, card, merchant, amount);
            let (reply, duplicate) = tp.process_event(&e).unwrap();
            prop_assert!(!duplicate);
            sent.push(e.clone());
            let want = oracle.process(&e);
            any_late |= late && ts < now_ms;
            if late {
                // A late event's own reply shows the windows as they are
                // at its arrival, not at its timestamp.
                continue;
            }
            let results: usize = live
                .iter()
                .map(|&t| parse_query(TEMPLATES[t].0).unwrap().select.len())
                .sum();
            prop_assert_eq!(reply.len(), results);
            for &t in &live {
                let Some(want) = want[t].as_ref() else { continue };
                let got = reported(&reply, t);
                prop_assert_eq!(got.len(), want.len());
                for (k, (got, want)) in got.iter().zip(want).enumerate() {
                    prop_assert!(
                        matches(TEMPLATES[t].1.func(k), got, want, any_late),
                        "event {} ({:?}), query `{}` item {}: {:?}, oracle {:?}, live {:?}",
                        i, e, TEMPLATES[t].0, k, got, want, live
                    );
                }
            }
        }
    }
}
