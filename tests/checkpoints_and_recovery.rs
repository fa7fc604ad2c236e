//! §4.1.3 / §4.2: synchronized checkpoints, the checkpoint topic, and
//! checkpoint-based task recovery.

use railgun::engine::api::{decode_checkpoint, CHECKPOINT_TOPIC};
use railgun::engine::{
    parse_query, Cluster, ClusterConfig, QueryId, RestoreOutcome, TaskConfig, TaskProcessor,
};
use railgun::messaging::{Consumer, TopicPartition};
use railgun::types::{Event, EventId, FieldType, Schema, Timestamp, Value};

fn tmp(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("railgun-ckpt-it-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn schema() -> Schema {
    Schema::from_pairs(&[("cardId", FieldType::Str), ("amount", FieldType::Float)]).unwrap()
}

#[test]
fn units_publish_checkpoint_records() {
    let mut cfg = ClusterConfig::single_node();
    cfg.data_root = tmp("publish");
    cfg.checkpoint_every = 5;
    let mut cluster = Cluster::new(cfg).unwrap();
    cluster.create_stream("payments", schema(), &["cardId"]).unwrap();
    cluster
        .register_query("SELECT count(*) FROM payments GROUP BY cardId OVER sliding 5 minutes")
        .unwrap();
    for i in 0..12 {
        cluster
            .send(
                "payments",
                Timestamp::from_millis(i * 1_000),
                vec![Value::from("card-1"), Value::from(1.0)],
            )
            .unwrap();
    }
    cluster.settle().unwrap();
    // Read the checkpoint topic directly.
    let mut consumer = Consumer::new(cluster.bus().clone());
    consumer.assign(vec![TopicPartition::new(CHECKPOINT_TOPIC, 0)]);
    let records = consumer.poll(100).unwrap().messages;
    assert!(
        !records.is_empty(),
        "checkpoints must be published every 5 events"
    );
    let rec = decode_checkpoint(&records[0].payload).unwrap();
    assert_eq!(rec.topic, "payments--cardId");
    assert!(rec.next_offset >= 5, "offset covers checkpointed events");
    // The checkpoint directory is a valid task processor image.
    let restored = TaskProcessor::restore_from_checkpoint(
        std::path::Path::new(&rec.path),
        &tmp("restore-target"),
        &rec.topic,
        rec.partition,
        schema(),
        TaskConfig::default(),
    );
    assert!(restored.is_ok(), "checkpoint restores: {:?}", restored.err());
}

#[test]
fn restored_processor_continues_from_checkpoint_plus_replay() {
    // Build a processor, checkpoint mid-stream, replay the tail into a
    // restored copy, and verify both agree — the §4.2 recovery flow.
    let dir = tmp("source");
    let q = parse_query("SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER sliding 1 hours")
        .unwrap();
    let mut source =
        TaskProcessor::open(&dir, "payments--cardId", 0, schema(), TaskConfig::default()).unwrap();
    source.attach_query(QueryId(1), &q).unwrap();
    let event = |i: u64| {
        Event::new(
            EventId(i),
            Timestamp::from_millis(i as i64 * 1_000),
            vec![Value::from("card-1"), Value::from(2.0)],
        )
    };
    for i in 0..30 {
        source.process_event(&event(i)).unwrap();
    }
    let ckpt = tmp("image");
    source.checkpoint(&ckpt).unwrap();
    // Source continues with 10 more events.
    let mut last_source = Vec::new();
    for i in 30..40 {
        let (r, _) = source.process_event(&event(i)).unwrap();
        last_source = r;
    }
    // Restore from the checkpoint and replay events 30.. (the messaging
    // layer would supply these from the checkpointed offset).
    let (mut restored, outcome) = TaskProcessor::restore_or_replay(
        &ckpt,
        &tmp("recovered"),
        schema(),
        TaskConfig::default(),
        &[(QueryId(1), &q)],
    )
    .unwrap();
    assert_eq!(outcome, RestoreOutcome::FromCheckpoint);
    let mut last_restored = Vec::new();
    for i in 30..40 {
        let (r, _) = restored.process_event(&event(i)).unwrap();
        last_restored = r;
    }
    assert_eq!(
        last_source, last_restored,
        "checkpoint + replay must converge to identical aggregations"
    );
}

#[test]
fn replayed_duplicates_after_checkpoint_are_tolerated() {
    // At-least-once: replay may overlap events still in the reservoir's
    // in-memory chunks; dedup absorbs them.
    let dir = tmp("dedup");
    let q = parse_query("SELECT count(*) FROM payments GROUP BY cardId OVER sliding 1 hours").unwrap();
    let mut tp =
        TaskProcessor::open(&dir, "payments--cardId", 0, schema(), TaskConfig::default()).unwrap();
    tp.register_query(&q).unwrap();
    for i in 0..10u64 {
        tp.process_event(&Event::new(
            EventId(i),
            Timestamp::from_millis(i as i64 * 100),
            vec![Value::from("c"), Value::from(1.0)],
        ))
        .unwrap();
    }
    // Replay the last 5 events (same ids).
    let mut final_count = Value::Null;
    for i in 5..10u64 {
        let (r, dup) = tp
            .process_event(&Event::new(
                EventId(i),
                Timestamp::from_millis(i as i64 * 100),
                vec![Value::from("c"), Value::from(1.0)],
            ))
            .unwrap();
        assert!(dup, "replayed event {i} must be flagged duplicate");
        final_count = r[0].value.clone();
    }
    assert_eq!(final_count, Value::Int(10), "no double counting");
}
