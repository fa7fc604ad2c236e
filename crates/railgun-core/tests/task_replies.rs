//! What a task replies, end to end: the reply bytes a processor unit
//! publishes are what `TaskProcessor::process_event` reports, every reply
//! carries one result per registered metric as the plan changes under
//! it, and a state image written while rows still cached each sketch
//! leaf's value answers as the engine that wrote it did.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use railgun_core::api::{
    decode_reply, encode_event_request, encode_reply, reply_topic_name, EventRequest, Reply,
};
use railgun_core::frontend::{BatchPolicy, FrontEnd};
use railgun_core::unit::{ProcessorUnit, UnitConfig};
use railgun_core::{
    parse_query, EngineTelemetry, MetricHandle, Query, QueryId, RailgunStrategy, RestoreOutcome,
    TaskConfig, TaskProcessor,
};
use railgun_messaging::{Consumer, MessageBus, Producer, TopicPartition};
use railgun_types::encode::crc32c;
use railgun_types::{Event, EventId, FieldType, Schema, Timestamp, Value};

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("railgun-task-replies-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("cardId", FieldType::Str),
        ("merchantId", FieldType::Str),
        ("amount", FieldType::Float),
    ])
    .unwrap()
}

const TOPIC: &str = "payments--cardId";

/// `wide_plan`'s card queries, with its second group-by moved onto this
/// task: 23 results per reply.
const WIDE: &[&str] = &[
    "SELECT sum(amount), count(*), avg(amount) FROM payments GROUP BY cardId OVER sliding 10 sec",
    "SELECT min(amount), max(amount) FROM payments GROUP BY cardId OVER sliding 10 sec",
    "SELECT sum(amount), count(*), avg(amount) FROM payments GROUP BY cardId OVER sliding 1 min",
    "SELECT min(amount), max(amount) FROM payments GROUP BY cardId OVER sliding 1 min",
    "SELECT sum(amount), count(*), avg(amount) FROM payments GROUP BY cardId OVER sliding 5 min",
    "SELECT min(amount), max(amount) FROM payments GROUP BY cardId OVER sliding 5 min",
    "SELECT sum(amount), count(amount) FROM payments WHERE amount > 60 GROUP BY cardId OVER sliding 5 min",
    "SELECT count(*) FROM payments GROUP BY cardId OVER tumbling 1 min",
    "SELECT countDistinct(merchantId) approx 0.02 FROM payments GROUP BY cardId OVER sliding 5 min",
    "SELECT topK(merchantId, 5) FROM payments GROUP BY cardId OVER sliding 5 min",
    "SELECT percentile(amount, 99) FROM payments GROUP BY cardId OVER sliding 5 min",
    "SELECT sum(amount), count(*) FROM payments GROUP BY cardId, merchantId OVER sliding 5 min",
];

/// Event `i` of a stream one second apart: 5 cards, 97 merchants,
/// amounts 0..=100. Every 17th event is 3 s late; event 500 repeats
/// event 450.
fn wide_event(i: u64) -> Event {
    let i = if i == 500 { 450 } else { i };
    let late = if i % 17 == 16 { 3_000 } else { 0 };
    Event::new(
        EventId(i),
        Timestamp::from_millis(i as i64 * 1_000 - late),
        vec![
            Value::from(format!("card-{}", i % 5)),
            Value::from(format!("m{}", (i * 7) % 97)),
            Value::from(((i * 37) % 101) as f64),
        ],
    )
}

#[test]
fn the_unit_publishes_what_process_event_reports() {
    let bus = MessageBus::with_defaults();
    let hub = Arc::new(EngineTelemetry::new(false));
    let mut frontend =
        FrontEnd::new(&bus, 0, 1024, BatchPolicy::default(), Arc::clone(&hub)).unwrap();
    let mut unit = ProcessorUnit::new(
        &bus,
        UnitConfig {
            node: 0,
            unit: 0,
            data_dir: temp_dir("unit"),
            task: TaskConfig::default(),
            max_poll: 256,
            checkpoint_every: 0,
            poll_recorder: hub.unit_poll_recorder(),
            process_recorder: hub.unit_process_recorder(),
            batch_size: hub.batch_size_recorder(),
            batched_events: hub.unit_batched_counter(),
            handovers: hub.handover_counter(),
            tail_replayed: hub.tail_replayed_counter(),
            handover_fallbacks: hub.handover_fallback_counter(),
        },
        Arc::new(RailgunStrategy::new(1)),
    )
    .unwrap();
    frontend
        .create_stream(&bus, "payments", schema(), &["cardId"], 1, 1)
        .unwrap();
    let mut twin =
        TaskProcessor::open(&temp_dir("twin"), TOPIC, 0, schema(), TaskConfig::default()).unwrap();
    for q in WIDE {
        let id = frontend.register_query(q).unwrap();
        twin.attach_query(id, &parse_query(q).unwrap()).unwrap();
    }
    while unit.active_tasks().is_empty() {
        unit.pump().unwrap();
    }
    let reply_topic = reply_topic_name(0);
    let mut replies = Consumer::new(bus.clone());
    replies.assign(vec![TopicPartition::new(reply_topic.as_str(), 0)]);
    let producer = Producer::new(bus.clone());
    let mut duplicates = 0;
    for i in 0..700 {
        let event = wide_event(i);
        let request = EventRequest {
            request_id: 1_000 + i,
            reply_topic: reply_topic.clone(),
            event: event.clone(),
        };
        producer
            .send_to_partition(TOPIC, 0, &[], encode_event_request(&request))
            .unwrap();
        assert_eq!(unit.pump().unwrap().active_events, 1);
        let published = replies.poll(8).unwrap().messages;
        assert_eq!(published.len(), 1, "event {i}");
        let (results, duplicate) = twin.process_event(&event).unwrap();
        assert_eq!(results.len(), 23);
        duplicates += u32::from(duplicate);
        let expected = encode_reply(&Reply {
            request_id: request.request_id,
            source_topic: TOPIC.into(),
            duplicate,
            results,
        });
        assert_eq!(
            published[0].payload.as_ref(),
            expected.as_slice(),
            "event {i}"
        );
    }
    assert_eq!(duplicates, 1);
}

/// A metric two queries share: one leaf with two refs, a third from
/// `WIDE`'s 1-minute sums.
const SHARED: &str = "SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding 1 min";

/// A query registered mid-stream, on a group of its own.
const LATER: &str =
    "SELECT max(amount), last(cardId) FROM payments GROUP BY merchantId OVER sliding 30 sec";

/// A registered metric, and the schema positions of its group-by fields.
type Registered = (MetricHandle, Vec<usize>);

/// Attach `text` as query `id` and add its metrics to `plan`.
fn attach(task: &mut TaskProcessor, plan: &mut Vec<Registered>, id: u64, text: &str) {
    let query = parse_query(text).unwrap();
    let fields = ["cardId", "merchantId", "amount"];
    let position = |f: &String| fields.iter().position(|g| g == f).unwrap();
    let group_by: Vec<usize> = query.group_by.iter().map(position).collect();
    let handles = task.attach_query(QueryId(id), &query).unwrap();
    plan.extend(handles.into_iter().map(|h| (h, group_by.clone())));
}

/// Answer `wide_event(events)` and check each reply: exactly one result
/// per metric of `plan` and no other, each entity the event's group-by
/// values.
fn answer_against(task: &mut TaskProcessor, plan: &[Registered], events: std::ops::Range<u64>) {
    let mut want: Vec<_> = plan.iter().map(|(h, _)| (h.query, h.index, h.name.as_str())).collect();
    want.sort_unstable();
    let mut buf = Vec::new();
    for i in events {
        let event = wide_event(i);
        buf.clear();
        task.process_event_into(&event, i, TOPIC, &mut buf).unwrap();
        let reply = decode_reply(&buf).unwrap();
        let mut got: Vec<_> = reply.results.iter().map(|r| (r.query, r.index, &*r.name)).collect();
        got.sort_unstable();
        assert_eq!(got, want, "event {i}");
        for r in &reply.results {
            let key = (r.query, r.index);
            let (_, group_by) = plan.iter().find(|(h, _)| (h.query, h.index) == key).unwrap();
            let entity: Vec<Value> = group_by.iter().map(|&f| event.values()[f].clone()).collect();
            assert_eq!(*r.entity, *entity, "event {i}, {}", r.name);
        }
    }
}

/// Every reply carries each registered metric's `(query, index, name)`
/// exactly once and nothing else, each with the event's group-by values
/// as its entity, while queries sharing a leaf come and go: one of two
/// sharing queries is unregistered, another query is registered, and the
/// removed text comes back under a new id.
#[test]
fn reply_heads_follow_the_plan() {
    let mut task =
        TaskProcessor::open(&temp_dir("heads"), TOPIC, 0, schema(), TaskConfig::default()).unwrap();
    let mut plan = Vec::new();
    attach(&mut task, &mut plan, 1, SHARED);
    attach(&mut task, &mut plan, 2, SHARED);
    for (n, q) in WIDE.iter().enumerate() {
        attach(&mut task, &mut plan, 10 + n as u64, q);
    }
    let shared = plan.iter().filter(|(h, _)| h.leaf == plan[0].0.leaf).count();
    assert_eq!((plan.len(), shared), (25, 3), "SHARED's leaf has three refs");
    answer_against(&mut task, &plan, 0..150);
    assert!(task.unregister_query(QueryId(1)).unwrap());
    plan.retain(|(h, _)| h.query != QueryId(1));
    answer_against(&mut task, &plan, 150..300);
    attach(&mut task, &mut plan, 3, LATER);
    answer_against(&mut task, &plan, 300..450);
    attach(&mut task, &mut plan, 4, SHARED);
    assert_eq!(plan.len(), 27);
    answer_against(&mut task, &plan, 450..600);
}

/// `PARENT_CHECKPOINT`'s plan: exact and sketch leaves over a sliding and
/// a tumbling window.
const PARENT_PLAN: &[&str] = &[
    "SELECT sum(amount), min(amount), max(amount) FROM payments GROUP BY cardId OVER sliding 5 min",
    "SELECT countDistinct(merchantId) approx 0.02, topK(merchantId, 3), percentile(amount, 90) \
     FROM payments GROUP BY cardId OVER sliding 5 min",
    "SELECT countDistinct(merchantId) approx 0.05, topK(merchantId, 2), percentile(amount, 50) \
     FROM payments GROUP BY cardId OVER tumbling 1 min",
];

/// A checkpoint of `PARENT_PLAN` after `parent_event(0..600)`, written
/// by the engine as it was while rows cached each sketch leaf's value
/// (`write_parent_checkpoint`, run against that engine).
const PARENT_CHECKPOINT: &str = "tests/fixtures/cached-sketch-values-checkpoint";

/// Events the checkpoint covers, and events answered after it.
const CHECKPOINTED: u64 = 600;
const ANSWERED: u64 = 10_000;

/// What that engine answered to `parent_event(600..10_600)` after
/// restoring the checkpoint: the CRC-32C and length of the replies'
/// concatenated encodings.
const PARENT_ANSWERS: (u32, usize) = (3_063_417_079, 5_649_178);

/// Event `i` of an in-order stream 250 ms apart, 5 cards and 97
/// merchants: each event inserts into every leaf of its card, so its
/// reply does not depend on when a sketch last had its expired panes
/// dropped.
fn parent_event(i: u64) -> Event {
    Event::new(
        EventId(i),
        Timestamp::from_millis(i as i64 * 250),
        vec![
            Value::from(format!("card-{}", i % 5)),
            Value::from(format!("m{}", (i * 7) % 97)),
            Value::from(((i * 37) % 101) as f64),
        ],
    )
}

fn parent_plan() -> Vec<(QueryId, Query)> {
    let plan = PARENT_PLAN.iter().enumerate();
    plan.map(|(id, q)| (QueryId(id as u64 + 1), parse_query(q).unwrap())).collect()
}

/// Restore `checkpoint` and answer `ANSWERED` events after it.
fn answers_after(checkpoint: &Path) -> (u32, usize) {
    let plan = parent_plan();
    let queries: Vec<(QueryId, &Query)> = plan.iter().map(|(id, q)| (*id, q)).collect();
    let (mut task, outcome) = TaskProcessor::restore_or_replay(
        checkpoint,
        &temp_dir("restored"),
        schema(),
        TaskConfig::default(),
        &queries,
    )
    .unwrap();
    assert_eq!(outcome, RestoreOutcome::FromCheckpoint);
    let mut replies = Vec::new();
    for i in CHECKPOINTED..CHECKPOINTED + ANSWERED {
        let (results, duplicate) = task.process_event(&parent_event(i)).unwrap();
        replies.extend(encode_reply(&Reply {
            request_id: i,
            source_topic: TOPIC.into(),
            duplicate,
            results,
        }));
    }
    (crc32c(&replies), replies.len())
}

#[test]
fn a_checkpoint_whose_rows_cached_sketch_values_answers_as_its_writer_did() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join(PARENT_CHECKPOINT);
    assert_eq!(answers_after(&fixture), PARENT_ANSWERS);
}

/// Writes `PARENT_CHECKPOINT` with the engine this file is built
/// against, into the directory `RAILGUN_FIXTURE_OUT` names, and prints
/// what that engine answers after it.
#[test]
#[ignore = "writes a fixture"]
fn write_parent_checkpoint() {
    let out = PathBuf::from(std::env::var("RAILGUN_FIXTURE_OUT").expect("RAILGUN_FIXTURE_OUT"));
    let mut task = TaskProcessor::open(
        &temp_dir("writer"),
        TOPIC,
        0,
        schema(),
        TaskConfig::default(),
    )
    .unwrap();
    for (id, q) in parent_plan() {
        task.attach_query(id, &q).unwrap();
    }
    for i in 0..CHECKPOINTED {
        task.process_event(&parent_event(i)).unwrap();
    }
    task.checkpoint(&out).unwrap();
    println!("answers after the checkpoint: {:?}", answers_after(&out));
}

/// Exact `countDistinct` leaves over three windows and two group-bys.
const SPILLING_PLAN: &[&str] = &[
    "SELECT countDistinct(merchantId), count(*) FROM payments GROUP BY cardId OVER sliding 1 min",
    "SELECT countDistinct(merchantId) FROM payments GROUP BY cardId OVER sliding 10 sec",
    "SELECT countDistinct(cardId) FROM payments GROUP BY merchantId OVER sliding 30 sec",
];

/// What the engine answered to `spilling_event(0..3_000)` while its
/// memtable was a B-tree and each counter update was a read and a write:
/// the CRC-32C and length of the replies' concatenated encodings.
const SPILLING_ANSWERS: (u32, usize) = (4_064_532_901, 669_146);

/// Event `i` of a stream 500 ms apart, 3 cards and 11 merchants, so each
/// (card, merchant) counter counts several events of a window. Every
/// 13th event is 2 s late; event 900 repeats event 850.
fn spilling_event(i: u64) -> Event {
    let i = if i == 900 { 850 } else { i };
    let late = if i % 13 == 12 { 2_000 } else { 0 };
    Event::new(
        EventId(i),
        Timestamp::from_millis(i as i64 * 500 - late),
        vec![
            Value::from(format!("card-{}", i % 3)),
            Value::from(format!("m{}", (i * 7) % 11)),
            Value::from((i % 50) as f64),
        ],
    )
}

/// A task whose counter column family flushes every 2 KiB and compacts
/// every third table, so most counter updates read a table.
fn spilling_config() -> TaskConfig {
    let mut config = TaskConfig::default();
    config.store.cf_options.push((
        "distinct-aux".to_owned(),
        railgun_store::CfOptions {
            memtable_budget_bytes: 2 << 10,
            compaction_trigger: 3,
            ..railgun_store::CfOptions::default()
        },
    ));
    config
}

/// Counters that live mostly in tables answer as they did when the store
/// read and wrote each one separately, across a checkpoint and restore.
#[test]
fn distinct_counters_that_spill_to_tables_answer_as_before() {
    let plan: Vec<(QueryId, Query)> = SPILLING_PLAN
        .iter()
        .enumerate()
        .map(|(n, q)| (QueryId(n as u64 + 1), parse_query(q).unwrap()))
        .collect();
    let mut replies = Vec::new();
    let mut answer = |task: &mut TaskProcessor, events: std::ops::Range<u64>| {
        for i in events {
            let (results, duplicate) = task.process_event(&spilling_event(i)).unwrap();
            replies.extend(encode_reply(&Reply {
                request_id: i,
                source_topic: TOPIC.into(),
                duplicate,
                results,
            }));
        }
    };
    let mut task = TaskProcessor::open(
        &temp_dir("spilling"),
        TOPIC,
        0,
        schema(),
        spilling_config(),
    )
    .unwrap();
    for (id, q) in &plan {
        task.attach_query(*id, q).unwrap();
    }
    answer(&mut task, 0..1_500);
    let image = temp_dir("spilling-image");
    task.checkpoint(&image).unwrap();
    let stats = task.store_stats();
    let aux = stats.per_cf.iter().find(|c| c.name == "distinct-aux").unwrap();
    assert!(stats.flushes > 20 && stats.compactions > 5, "{stats:?}");
    assert!(aux.sst_count > 0 && aux.sst_entries > 100, "{aux:?}");
    drop(task);
    let queries: Vec<(QueryId, &Query)> = plan.iter().map(|(id, q)| (*id, q)).collect();
    let (mut task, outcome) = TaskProcessor::restore_or_replay(
        &image,
        &temp_dir("spilling-restored"),
        schema(),
        spilling_config(),
        &queries,
    )
    .unwrap();
    assert_eq!(outcome, RestoreOutcome::FromCheckpoint);
    answer(&mut task, 1_500..3_000);
    assert_eq!((crc32c(&replies), replies.len()), SPILLING_ANSWERS);
}
