//! Crash recovery at the task/cluster seam: a unit restored from the
//! checkpoint topic must produce aggregates **byte-identical** to an
//! uninterrupted run, and a corrupt or partial checkpoint must degrade
//! gracefully to full-replay recovery — never wedge the node, never
//! silently open as an empty store.
//!
//! The store-level half of this contract (no acked write lost at any
//! crash point) lives in `railgun-store`'s crash-torture sweep; these
//! tests cover the layer above: [`TaskProcessor::restore_or_replay`]
//! validating checkpoint images before trusting them.

use railgun::engine::api::{decode_checkpoint, CHECKPOINT_TOPIC};
use railgun::engine::{
    parse_query, AggregationResult, Cluster, ClusterConfig, Query, QueryId, RestoreOutcome,
    TaskConfig, TaskProcessor,
};
use railgun::messaging::{Consumer, TopicPartition};
use railgun::types::{Counter, Event, EventId, FieldType, Schema, Timestamp, Value};

fn tmp(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("railgun-crashrec-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn schema() -> Schema {
    Schema::from_pairs(&[("cardId", FieldType::Str), ("amount", FieldType::Float)]).unwrap()
}

fn event(i: u64) -> Event {
    Event::new(
        EventId(i),
        Timestamp::from_millis(i as i64 * 1_000),
        vec![Value::from("card-1"), Value::from(2.0)],
    )
}

/// Config with an observable fallback counter.
fn config_with_counter() -> (TaskConfig, Counter) {
    let counter = Counter::enabled();
    let config = TaskConfig {
        checkpoint_fallbacks: counter.clone(),
        ..TaskConfig::default()
    };
    (config, counter)
}

fn query() -> Query {
    parse_query("SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER sliding 1 hours")
        .unwrap()
}

/// A source processor with `total` events processed and a checkpoint
/// taken after `ckpt_at` of them; returns the checkpoint dir and the
/// reply of the final event (the aggregates a recovered unit must
/// reproduce exactly).
fn source_run(tag: &str, ckpt_at: u64, total: u64) -> (std::path::PathBuf, Vec<AggregationResult>) {
    let mut source = TaskProcessor::open(
        &tmp(&format!("{tag}-src")),
        "payments--cardId",
        0,
        schema(),
        TaskConfig::default(),
    )
    .unwrap();
    source.attach_query(QueryId(1), &query()).unwrap();
    for i in 0..ckpt_at {
        source.process_event(&event(i)).unwrap();
    }
    let ckpt = tmp(&format!("{tag}-ckpt"));
    source.checkpoint(&ckpt).unwrap();
    let mut last = Vec::new();
    for i in ckpt_at..total {
        let (r, _) = source.process_event(&event(i)).unwrap();
        last = r;
    }
    (ckpt, last)
}

/// Restore via `restore_or_replay` and replay `replay_from..total`,
/// returning the outcome, the final reply, and the fallback count.
/// `replay_from` models the messaging layer: the checkpointed offset on
/// a clean restore, offset 0 on fallback.
fn recover(
    tag: &str,
    ckpt: &std::path::Path,
    replay_from: u64,
    total: u64,
) -> (RestoreOutcome, Vec<AggregationResult>, u64) {
    let (config, fallbacks) = config_with_counter();
    let (mut tp, outcome) = TaskProcessor::restore_or_replay(
        ckpt,
        &tmp(&format!("{tag}-recovered")),
        schema(),
        config,
        &[(QueryId(1), &query())],
    )
    .unwrap();
    let mut last = Vec::new();
    for i in replay_from..total {
        let (r, _) = tp.process_event(&event(i)).unwrap();
        last = r;
    }
    (outcome, last, fallbacks.get())
}

#[test]
fn complete_checkpoint_restores_and_converges_byte_identically() {
    let (ckpt, last_source) = source_run("clean", 30, 40);
    let (outcome, last_recovered, fallbacks) = recover("clean", &ckpt, 30, 40);
    assert_eq!(outcome, RestoreOutcome::FromCheckpoint);
    assert_eq!(fallbacks, 0, "no fallback on a healthy checkpoint");
    assert_eq!(
        last_source, last_recovered,
        "checkpoint + replay must converge to identical aggregations"
    );
}

#[test]
fn partial_checkpoint_missing_marker_degrades_to_full_replay() {
    let (ckpt, last_source) = source_run("partial", 30, 40);
    // A crash during checkpoint creation freezes the image before the
    // `wal.log` completeness marker lands (the marker is written last).
    std::fs::remove_file(ckpt.join("store").join("wal.log")).unwrap();
    let (outcome, last_recovered, fallbacks) = recover("partial", &ckpt, 0, 40);
    assert_eq!(outcome, RestoreOutcome::FullReplay);
    assert_eq!(fallbacks, 1, "fallback must be counted");
    assert_eq!(
        last_source, last_recovered,
        "full replay must reproduce the uninterrupted aggregates"
    );
}

#[test]
fn checkpoint_with_logged_writes_degrades_to_full_replay() {
    let (ckpt, last_source) = source_run("logged", 30, 40);
    // An image whose store still logs writes it never flushed: opening it
    // without them would drop them silently, so the store refuses it.
    std::fs::write(ckpt.join("store").join("wal.log"), b"unflushed").unwrap();
    let (outcome, last_recovered, fallbacks) = recover("logged", &ckpt, 0, 40);
    assert_eq!(outcome, RestoreOutcome::FullReplay);
    assert_eq!(fallbacks, 1, "fallback must be counted");
    assert_eq!(last_source, last_recovered);
}

#[test]
fn corrupt_checkpoint_manifest_degrades_to_full_replay() {
    let (ckpt, last_source) = source_run("corrupt", 30, 40);
    // Marker intact, but the manifest is damaged after creation (bit
    // rot / torn sector): the image opens must fail its CRC, and the
    // restore must fall back rather than wedge or open empty.
    let manifest = ckpt.join("store").join("MANIFEST");
    let bytes = std::fs::read(&manifest).unwrap();
    std::fs::write(&manifest, &bytes[..bytes.len() / 2]).unwrap();
    let (outcome, last_recovered, fallbacks) = recover("corrupt", &ckpt, 0, 40);
    assert_eq!(outcome, RestoreOutcome::FullReplay);
    assert_eq!(fallbacks, 1);
    assert_eq!(last_source, last_recovered);
}

#[test]
fn torn_reservoir_segment_degrades_to_full_replay() {
    // 512 events fill two whole 256-event chunks: the image holds one
    // segment and no open or transition chunk behind it.
    let (ckpt, last_source) = source_run("torn", 512, 520);
    let reservoir = ckpt.join("reservoir");
    let names: Vec<_> = std::fs::read_dir(&reservoir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(names, ["seg-00000000.rail"]);
    // The image links the source's segment: write a short copy in its
    // place instead of truncating the shared file.
    let segment = reservoir.join(&names[0]);
    let raw = std::fs::read(&segment).unwrap();
    std::fs::remove_file(&segment).unwrap();
    std::fs::write(&segment, &raw[..raw.len() - 3]).unwrap();
    let (outcome, last_recovered, fallbacks) = recover("torn", &ckpt, 0, 520);
    assert_eq!(outcome, RestoreOutcome::FullReplay);
    assert_eq!(fallbacks, 1, "fallback must be counted");
    assert_eq!(last_source, last_recovered);
}

#[test]
fn missing_checkpoint_dir_degrades_to_full_replay() {
    let (ckpt, last_source) = source_run("missing", 30, 40);
    std::fs::remove_dir_all(&ckpt).unwrap();
    let (outcome, last_recovered, fallbacks) = recover("missing", &ckpt, 0, 40);
    assert_eq!(outcome, RestoreOutcome::FullReplay);
    assert_eq!(fallbacks, 1);
    assert_eq!(last_source, last_recovered);
}

/// Sketch-backed aggregators (HLL / topK / percentile) hold their state
/// in an in-memory cache that is flushed to the aux CF at checkpoints.
/// Both recovery arms must converge to the uninterrupted run's
/// estimates: a clean restore continues from the flushed blobs, and a
/// damaged checkpoint degrades to full replay whose deterministic
/// kernels rebuild the exact same sketches.
#[test]
fn sketch_state_survives_checkpoint_and_full_replay() {
    const QUERY: &str = "SELECT countDistinct(amount) approx 0.02, topK(amount, 3), \
                         percentile(amount, 95) FROM payments GROUP BY cardId OVER sliding 1 hours";
    let sketch_event = |i: u64| {
        Event::new(
            EventId(i),
            Timestamp::from_millis(i as i64 * 1_000),
            vec![
                Value::from(format!("card-{}", i % 3)),
                Value::from((i * i % 97) as f64),
            ],
        )
    };
    let (ckpt_at, total) = (30u64, 48u64);

    // Uninterrupted run, checkpointing mid-stream.
    let q = parse_query(QUERY).unwrap();
    let mut source = TaskProcessor::open(
        &tmp("sketch-src"),
        "payments--cardId",
        0,
        schema(),
        TaskConfig::default(),
    )
    .unwrap();
    source.attach_query(QueryId(1), &q).unwrap();
    for i in 0..ckpt_at {
        source.process_event(&sketch_event(i)).unwrap();
    }
    let ckpt = tmp("sketch-ckpt");
    source.checkpoint(&ckpt).unwrap();
    let mut last_source = Vec::new();
    for i in ckpt_at..total {
        let (r, _) = source.process_event(&sketch_event(i)).unwrap();
        last_source = r;
    }

    // Arm 1: clean restore from the checkpoint + replay of the suffix.
    let (config, fallbacks) = config_with_counter();
    let (mut tp, outcome) = TaskProcessor::restore_or_replay(
        &ckpt,
        &tmp("sketch-restored"),
        schema(),
        config,
        &[(QueryId(1), &q)],
    )
    .unwrap();
    assert_eq!(outcome, RestoreOutcome::FromCheckpoint);
    assert_eq!(fallbacks.get(), 0);
    let mut last_restored = Vec::new();
    for i in ckpt_at..total {
        let (r, _) = tp.process_event(&sketch_event(i)).unwrap();
        last_restored = r;
    }
    assert_eq!(
        last_source, last_restored,
        "restored sketches must continue to the same estimates"
    );

    // Arm 2: the checkpoint is damaged (no completeness marker), so
    // recovery degrades to a full replay from offset zero.
    std::fs::remove_file(ckpt.join("store").join("wal.log")).unwrap();
    let (config, fallbacks) = config_with_counter();
    let (mut tp, outcome) = TaskProcessor::restore_or_replay(
        &ckpt,
        &tmp("sketch-replayed"),
        schema(),
        config,
        &[(QueryId(1), &q)],
    )
    .unwrap();
    assert_eq!(outcome, RestoreOutcome::FullReplay);
    assert_eq!(fallbacks.get(), 1);
    let mut last_replayed = Vec::new();
    for i in 0..total {
        let (r, _) = tp.process_event(&sketch_event(i)).unwrap();
        last_replayed = r;
    }
    assert_eq!(
        last_source, last_replayed,
        "deterministic kernels must rebuild identical estimates on full replay"
    );
}

/// End-to-end through the cluster: the checkpoint topic's records point
/// at images that `restore_or_replay` accepts as complete — the recovery
/// path a rebalanced unit would take.
#[test]
fn cluster_published_checkpoints_pass_restore_validation() {
    let mut cfg = ClusterConfig::single_node();
    cfg.data_root = tmp("cluster-data");
    cfg.checkpoint_every = 5;
    let mut cluster = Cluster::new(cfg).unwrap();
    cluster.create_stream("payments", schema(), &["cardId"]).unwrap();
    let text = "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 5 minutes";
    let id = cluster.register_query(text).unwrap();
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
    let mut consumer = Consumer::new(cluster.bus().clone());
    consumer.assign(vec![TopicPartition::new(CHECKPOINT_TOPIC, 0)]);
    let records = consumer.poll(100).unwrap().messages;
    assert!(!records.is_empty(), "cluster must publish checkpoints");
    let rec = decode_checkpoint(records.last().unwrap().payload.as_ref()).unwrap();
    let (config, fallbacks) = config_with_counter();
    let (tp, outcome) = TaskProcessor::restore_or_replay(
        std::path::Path::new(&rec.path),
        &tmp("cluster-restore"),
        schema(),
        config,
        &[(id, &parse_query(text).unwrap())],
    )
    .unwrap();
    assert_eq!(outcome, RestoreOutcome::FromCheckpoint);
    assert_eq!(fallbacks.get(), 0);
    assert!(rec.next_offset >= 5, "offset covers checkpointed events");
    drop(tp);
    // A clean cluster run reports an all-zero recovery plane.
    let recovery = cluster.metrics_snapshot().recovery;
    assert_eq!(recovery.checkpoint_fallbacks, 0);
}

/// A unit keeps only its newest two images per task. A peer still holding
/// an older record finds the image gone and degrades to the full-replay
/// arm — slow, never wrong.
#[test]
fn record_of_a_pruned_image_degrades_to_full_replay() {
    let mut cfg = ClusterConfig::single_node();
    cfg.data_root = tmp("pruned-data");
    cfg.checkpoint_every = 5;
    let mut cluster = Cluster::new(cfg).unwrap();
    cluster.create_stream("payments", schema(), &["cardId"]).unwrap();
    let query = "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 5 minutes";
    let id = cluster.register_query(query).unwrap();
    let query = parse_query(query).unwrap();
    let total = 22;
    for i in 0..total {
        cluster
            .send("payments", event(i).ts, event(i).values().to_vec())
            .unwrap();
    }
    cluster.settle().unwrap();
    let mut consumer = Consumer::new(cluster.bus().clone());
    consumer.assign(vec![TopicPartition::new(CHECKPOINT_TOPIC, 0)]);
    let records: Vec<_> = consumer
        .poll(100)
        .unwrap()
        .messages
        .iter()
        .map(|m| decode_checkpoint(m.payload.as_ref()).unwrap())
        .collect();
    // One card, one task: every record is an image of the same task.
    assert!(records.len() >= 4, "{} checkpoints", records.len());
    let (stale, kept) = records.split_at(records.len() - 2);
    assert!(stale.iter().all(|r| !std::path::Path::new(&r.path).exists()));
    assert!(kept.iter().all(|r| std::path::Path::new(&r.path).exists()));

    let restore = |rec: &railgun::engine::api::CheckpointRecord, tag: &str| {
        let (config, fallbacks) = config_with_counter();
        let (tp, outcome) = TaskProcessor::restore_or_replay(
            std::path::Path::new(&rec.path),
            &tmp(tag),
            schema(),
            config,
            &[(id, &query)],
        )
        .unwrap();
        (tp, outcome, fallbacks.get())
    };
    let (_, outcome, fallbacks) = restore(&kept[1], "pruned-restore-new");
    assert_eq!((outcome, fallbacks), (RestoreOutcome::FromCheckpoint, 0));
    let (mut tp, outcome, fallbacks) = restore(&stale[0], "pruned-restore-old");
    assert_eq!((outcome, fallbacks), (RestoreOutcome::FullReplay, 1));
    // The degraded arm is an empty task the caller replays from offset 0.
    let mut last = Vec::new();
    for i in 0..total {
        last = tp.process_event(&event(i)).unwrap().0;
    }
    assert_eq!(last[0].value, Value::Int(total as i64));
}

/// Process `event(i)` for `i` in `events` on both tasks and require the
/// same reply from each.
fn lockstep(
    source: &mut TaskProcessor,
    restored: &mut TaskProcessor,
    events: impl IntoIterator<Item = Event>,
) {
    for e in events {
        let want = source.process_event(&e).unwrap();
        let got = restored.process_event(&e).unwrap();
        assert_eq!(got, want, "event {:?} at {:?}", e.id, e.ts);
    }
}

/// A window that has slid past events of the image: the restored task
/// evicts exactly what its source evicts. The image used to leave out
/// the open chunk (the window's whole content here) and the cursors
/// started a millisecond early: at the first event after the restore the
/// source read 10 and the restored task 0.
#[test]
fn a_restored_task_answers_as_its_source_under_expiry() {
    let q = parse_query(
        "SELECT count(*), sum(amount) FROM payments GROUP BY cardId OVER sliding 10 sec",
    )
    .unwrap();
    let mut source = TaskProcessor::open(
        &tmp("expiry-src"),
        "payments--cardId",
        0,
        schema(),
        TaskConfig::default(),
    )
    .unwrap();
    source.attach_query(QueryId(1), &q).unwrap();
    for i in 0..300 {
        source.process_event(&event(i)).unwrap();
    }
    let ckpt = tmp("expiry-ckpt");
    source.checkpoint(&ckpt).unwrap();
    let (mut restored, outcome) = TaskProcessor::restore_or_replay(
        &ckpt,
        &tmp("expiry-restored"),
        schema(),
        TaskConfig::default(),
        &[(QueryId(1), &q)],
    )
    .unwrap();
    assert_eq!(outcome, RestoreOutcome::FromCheckpoint);
    lockstep(&mut source, &mut restored, (300..400).map(event));
}

/// Late events and duplicates across a restore, with chunks held in
/// transition for late arrivals: the image carries the open and the
/// transition chunks with their event ids, so the restored task accepts,
/// discards and flags duplicates exactly as its source does.
#[test]
fn late_and_duplicate_events_across_a_restore_match_the_source() {
    let config = || TaskConfig {
        reservoir: railgun::reservoir::ReservoirConfig {
            chunk_target_events: 16,
            transition_hold: railgun::types::TimeDelta::from_secs(20),
            ..Default::default()
        },
        ..TaskConfig::default()
    };
    let q = parse_query(
        "SELECT count(*), sum(amount), max(amount) FROM payments \
         GROUP BY cardId OVER sliding 30 sec",
    )
    .unwrap();
    // Event i arrives at i seconds. Every 7th is up to 40 s late — some
    // land in a transition chunk, some behind the frontier — and every
    // 5th repeats an event 3 to 9 arrivals back.
    let stream: Vec<Event> = (0..300u64)
        .map(|i| {
            let n = if i % 5 == 4 { i.saturating_sub(3 + i % 7) } else { i };
            let late = if n % 7 == 6 { (n * 13 % 41) as i64 * 1_000 } else { 0 };
            Event::new(
                EventId(n),
                Timestamp::from_millis((n as i64 * 1_000 - late).max(0)),
                vec![Value::from(format!("card-{}", n % 3)), Value::from((n * 37 % 101) as f64)],
            )
        })
        .collect();
    for at in [100, 137, 201] {
        let mut source = TaskProcessor::open(
            &tmp(&format!("late-src-{at}")),
            "payments--cardId",
            0,
            schema(),
            config(),
        )
        .unwrap();
        source.attach_query(QueryId(1), &q).unwrap();
        for e in &stream[..at] {
            source.process_event(e).unwrap();
        }
        let held = source.reservoir_stats();
        assert!(held.transition_events > 0 && held.open_events > 0, "{held:?}");
        let ckpt = tmp(&format!("late-ckpt-{at}"));
        source.checkpoint(&ckpt).unwrap();
        let (mut restored, outcome) = TaskProcessor::restore_or_replay(
            &ckpt,
            &tmp(&format!("late-restored-{at}")),
            schema(),
            config(),
            &[(QueryId(1), &q)],
        )
        .unwrap();
        assert_eq!(outcome, RestoreOutcome::FromCheckpoint);
        lockstep(&mut source, &mut restored, stream[at..].iter().cloned());
        let r = restored.reservoir_stats();
        assert!(r.duplicates > 0 && r.late_discarded > 0, "{r:?}");
    }
}
