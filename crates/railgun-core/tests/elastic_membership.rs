//! Elastic membership end-to-end: checkpoint-based handover on
//! scale-out, scheduled drain with zero loss under live ingest, requests
//! outstanding across a kill or a drain answered after failover, and a
//! node failing abruptly — in both execution modes.
//!
//! The zero-loss tests run a disturbed cluster in lockstep with an
//! undisturbed twin fed the identical event stream and require every
//! reply's aggregations to be byte-identical.

use std::path::Path;
use std::time::{Duration, Instant};

use railgun_core::{ClientResponse, Cluster, ClusterConfig};
use railgun_types::{FieldType, RailgunError, Schema, Timestamp, Value};

fn payments_schema() -> Schema {
    Schema::from_pairs(&[
        ("cardId", FieldType::Str),
        ("merchantId", FieldType::Str),
        ("amount", FieldType::Float),
    ])
    .unwrap()
}

fn fresh_config(tag: &str, nodes: u32, units: u32, partitions: u32) -> ClusterConfig {
    let mut cfg = ClusterConfig {
        nodes,
        units_per_node: units,
        partitions,
        ..ClusterConfig::default()
    };
    cfg.data_root = std::env::temp_dir().join(format!(
        "railgun-elastic-{}-{tag}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&cfg.data_root).ok();
    cfg
}

/// Boot a cluster with one stream and one `count(*), sum(amount)` query.
fn booted(cfg: ClusterConfig) -> Cluster {
    let mut cluster = Cluster::new(cfg).unwrap();
    cluster
        .create_stream("payments", payments_schema(), &["cardId"])
        .unwrap();
    cluster
        .register_query(
            "SELECT count(*), sum(amount) FROM payments GROUP BY cardId OVER sliding 1 hours",
        )
        .unwrap();
    cluster
}

fn card_values(card: u64) -> Vec<Value> {
    vec![
        Value::from(format!("card-{card}")),
        Value::from("m"),
        Value::from(1.0),
    ]
}

fn send_card(cluster: &mut Cluster, card: u64, ts: i64) -> ClientResponse {
    cluster
        .send("payments", Timestamp::from_millis(ts), card_values(card))
        .unwrap()
}

/// Feed both clusters the same event and require the replies'
/// aggregations to match byte for byte.
fn lockstep(cluster: &mut Cluster, twin: &mut Cluster, card: u64, ts: i64, label: &str) {
    let a = send_card(cluster, card, ts);
    let b = send_card(twin, card, ts);
    assert_eq!(
        a.aggregations, b.aggregations,
        "{label}: card {card} at t={ts} diverged from the undisturbed twin"
    );
}

#[test]
fn scale_out_restores_from_checkpoints_not_full_replay() {
    let mut cfg = fresh_config("handover", 1, 1, 4);
    cfg.checkpoint_every = 2;
    let mut cluster = booted(cfg);
    for round in 0..4 {
        for card in 0..8 {
            send_card(&mut cluster, card, round * 10_000 + card as i64 * 100);
        }
    }
    let before = cluster.metrics_snapshot().elastic;
    assert_eq!(before.handovers_completed, 0, "no rebalance yet");
    assert_eq!(before.handover_fallbacks, 0);

    // Scale out: the gained tasks must restore from published checkpoint
    // images, not replay their logs from offset 0.
    cluster.add_node().unwrap();
    cluster.settle().unwrap();
    let after = cluster.metrics_snapshot().elastic;
    assert!(
        after.handovers_completed >= 1,
        "gained tasks should restore from checkpoints, got {after:?}"
    );
    assert_eq!(after.handover_fallbacks, 0, "no image was corrupt");
    // With checkpoint_every = 2 at most one event per task sits past the
    // last image, so the replayed tail is bounded by the partition count.
    assert!(
        after.tail_events_replayed <= 4,
        "tail should be events since the last image only, got {after:?}"
    );

    // Accuracy after the handover: every card has 4 events, a fifth send
    // must report 5.
    for card in 0..8 {
        let r = send_card(&mut cluster, card, 100_000 + card as i64);
        assert_eq!(
            r.aggregations[0].value,
            Value::Int(5),
            "card {card} after scale-out"
        );
    }
}

/// A handover under a window that expires: the gained tasks evict exactly
/// what the twin's evict. Images used to leave out the open chunk (all of
/// this window's content) and the re-attached cursors started off the
/// source's: at event 301 a card read 6 where the twin read 3.
#[test]
fn scale_out_under_expiry_matches_undisturbed_twin() {
    let boot = |tag: &str| {
        let mut cfg = fresh_config(tag, 1, 1, 4);
        cfg.checkpoint_every = 50;
        let mut cluster = Cluster::new(cfg).unwrap();
        cluster
            .create_stream("payments", payments_schema(), &["cardId"])
            .unwrap();
        cluster
            .register_query("SELECT count(*) FROM payments GROUP BY cardId OVER sliding 10 sec")
            .unwrap();
        cluster
    };
    let (mut cluster, mut twin) = (boot("expiry"), boot("expiry-twin"));
    for i in 0..300i64 {
        lockstep(&mut cluster, &mut twin, (i % 4) as u64, i * 1_000, "before scale-out");
    }
    cluster.add_node().unwrap();
    cluster.settle().unwrap();
    for i in 300..400i64 {
        lockstep(&mut cluster, &mut twin, (i % 4) as u64, i * 1_000, "after scale-out");
    }
    let elastic = cluster.metrics_snapshot().elastic;
    assert!(elastic.handovers_completed >= 1, "{elastic:?}");
    assert_eq!(elastic.handover_fallbacks, 0, "{elastic:?}");
}

/// Delete every `wal.log` under `dir` (the store checkpoint completeness
/// marker), making every published image restore-invalid.
fn corrupt_images(dir: &Path) -> usize {
    let mut hit = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            hit += corrupt_images(&path);
        } else if path.file_name().is_some_and(|n| n == "wal.log") {
            std::fs::remove_file(&path).unwrap();
            hit += 1;
        }
    }
    hit
}

#[test]
fn corrupt_checkpoint_image_falls_back_to_full_replay() {
    let mut cfg = fresh_config("fallback", 1, 1, 4);
    cfg.checkpoint_every = 2;
    let data_root = cfg.data_root.clone();
    let mut cluster = booted(cfg);
    for round in 0..4 {
        for card in 0..8 {
            send_card(&mut cluster, card, round * 10_000 + card as i64 * 100);
        }
    }
    // Corrupt every published image (images live under data_root/ckpt/…;
    // live task dirs are elsewhere and stay intact).
    let corrupted = corrupt_images(&data_root.join("ckpt"));
    assert!(corrupted >= 1, "checkpoints should have been published");

    cluster.add_node().unwrap();
    cluster.settle().unwrap();
    let elastic = cluster.metrics_snapshot().elastic;
    assert!(
        elastic.handover_fallbacks >= 1,
        "corrupt images must be detected and fall back, got {elastic:?}"
    );

    // The degraded arm still converges: full replay rebuilds the exact
    // state, so the fifth send per card reports 5.
    for card in 0..8 {
        let r = send_card(&mut cluster, card, 100_000 + card as i64);
        assert_eq!(
            r.aggregations[0].value,
            Value::Int(5),
            "card {card} after full-replay fallback"
        );
    }
}

const Q_SHORT: &str = "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 30 min";
const Q_LONG: &str =
    "SELECT count(*), sum(amount) FROM payments GROUP BY cardId OVER sliding 1 hours";

/// A one-node cluster, checkpointing every 2 events per task, whose plan
/// changed while it ingested. Either `Q_SHORT` and `Q_LONG` are both
/// registered up front and `Q_SHORT` is unregistered midway (the newest
/// images are then written under a plan that skips its ids), or
/// `Q_LONG` is registered only after the newest image of every task.
fn plan_changed(tag: &str, late_register: bool) -> Cluster {
    let mut cfg = fresh_config(tag, 1, 1, 4);
    cfg.checkpoint_every = 2;
    let mut cluster = Cluster::new(cfg).unwrap();
    cluster
        .create_stream("payments", payments_schema(), &["cardId"])
        .unwrap();
    let short = cluster.register_query(Q_SHORT).unwrap();
    if !late_register {
        cluster.register_query(Q_LONG).unwrap();
    }
    for round in 0..2 {
        for card in 0..8 {
            send_card(&mut cluster, card, round * 10_000 + card as i64 * 100);
        }
    }
    if late_register {
        cluster.register_query(Q_LONG).unwrap();
    } else {
        cluster.unregister_query(short).unwrap();
        for round in 2..4 {
            for card in 0..8 {
                send_card(&mut cluster, card, round * 10_000 + card as i64 * 100);
            }
        }
    }
    cluster
}

/// Scale a plan-changed cluster out and require it to keep answering
/// exactly like a twin that went through the same plan change but no
/// membership change. State rows are keyed by positional plan ids, so
/// the published images are unusable under the plan the new node builds
/// from the live queries: the handover must notice and replay instead.
fn handover_after_plan_change(tag: &str, late_register: bool) {
    let mut cluster = plan_changed(tag, late_register);
    let mut twin = plan_changed(&format!("{tag}-twin"), late_register);
    cluster.add_node().unwrap();
    cluster.settle().unwrap();
    for round in 0..2 {
        for card in 0..8 {
            let ts = 100_000 + round * 10_000 + card as i64 * 100;
            lockstep(&mut cluster, &mut twin, card, ts, "after scale-out");
        }
    }
    let elastic = cluster.metrics_snapshot().elastic;
    assert!(
        elastic.handover_fallbacks >= 1,
        "images written under another plan numbering must be rejected, got {elastic:?}"
    );
    assert_eq!(elastic.handovers_completed, 0, "{elastic:?}");
}

#[test]
fn handover_after_unregister_matches_undisturbed_twin() {
    handover_after_plan_change("unregister", false);
}

#[test]
fn handover_after_late_register_matches_undisturbed_twin() {
    handover_after_plan_change("late-register", true);
}

#[test]
fn drain_under_live_ingest_matches_undisturbed_twin() {
    // 12 partitions over 6 units: the assignment budget gives every unit
    // exactly two, so the drained node is guaranteed to hold state.
    let mut cfg = fresh_config("drain", 3, 2, 12);
    // Co-prime with the per-partition event counts so the drain always
    // finds progress past the last periodic image.
    cfg.checkpoint_every = 7;
    let mut twin_cfg = fresh_config("drain-twin", 3, 2, 12);
    twin_cfg.checkpoint_every = 7;
    let mut cluster = booted(cfg);
    let mut twin = booted(twin_cfg);

    // 32 distinct cards so every partition (and thus every unit of the
    // node about to drain) carries state.
    for i in 0..64i64 {
        lockstep(&mut cluster, &mut twin, (i % 32) as u64, i * 1_000, "pre-drain");
    }
    // Planned scale-down mid-stream: flush final images, move the tasks,
    // remove the node. Nothing acked above may be lost.
    let flushed = cluster.drain_node(2).unwrap();
    assert!(flushed >= 1, "drain should flush uncheckpointed progress");
    assert_eq!(cluster.nodes().len(), 2);
    for i in 64..128i64 {
        lockstep(&mut cluster, &mut twin, (i % 32) as u64, i * 1_000, "post-drain");
    }
    // The survivors answer exact counts: every card has 4 events.
    for card in 0..32 {
        let r = send_card(&mut cluster, card, 200_000 + card as i64);
        assert_eq!(r.aggregations[0].value, Value::Int(5), "card {card} after drain");
    }

    let elastic = cluster.metrics_snapshot().elastic;
    assert_eq!(elastic.drains_completed, 1);
    assert_eq!(
        elastic.handover_fallbacks, 0,
        "drain-published images must all restore cleanly, got {elastic:?}"
    );
    assert!(
        elastic.handovers_completed >= 1,
        "survivors should restore the drained tasks from images, got {elastic:?}"
    );
}

#[test]
fn kill_add_drain_sequence_converges_with_replicas() {
    let mut cfg = fresh_config("churn", 3, 1, 6);
    cfg.replication = 2;
    cfg.session_timeout_ms = 1_000;
    cfg.checkpoint_every = 3;
    let mut twin_cfg = fresh_config("churn-twin", 3, 1, 6);
    twin_cfg.replication = 2;
    twin_cfg.session_timeout_ms = 1_000;
    twin_cfg.checkpoint_every = 3;
    let mut cluster = booted(cfg);
    let mut twin = booted(twin_cfg);

    let mut ts = 0i64;
    let mut burst = |cluster: &mut Cluster, twin: &mut Cluster, label: &str| {
        for _ in 0..12 {
            ts += 1_000;
            lockstep(cluster, twin, (ts / 1_000 % 6) as u64, ts, label);
        }
    };
    burst(&mut cluster, &mut twin, "steady");

    // Abrupt failure: replicas take over once the session expires.
    cluster.kill_node(1).unwrap();
    for step in 1..=10 {
        cluster.advance_time(step * 500);
        cluster.settle().unwrap();
        twin.advance_time(step * 500);
        twin.settle().unwrap();
    }
    burst(&mut cluster, &mut twin, "post-kill");

    // Scale back out; gained tasks restore from checkpoints.
    cluster.add_node().unwrap();
    burst(&mut cluster, &mut twin, "post-add");

    // Planned scale-down of a survivor (index 1 = original node 2; node
    // 0 keeps serving the ingest).
    cluster.drain_node(1).unwrap();
    burst(&mut cluster, &mut twin, "post-drain");

    let elastic = cluster.metrics_snapshot().elastic;
    assert_eq!(elastic.drains_completed, 1);
    assert!(
        elastic.handovers_completed >= 1,
        "checkpointed tasks should hand over, got {elastic:?}"
    );
}

#[test]
fn threaded_add_and_drain_converge_under_live_ingest() {
    let mut cfg = fresh_config("threaded", 2, 2, 4);
    cfg.checkpoint_every = 4;
    let mut twin_cfg = fresh_config("threaded-twin", 2, 2, 4);
    twin_cfg.checkpoint_every = 4;
    let mut cluster = booted(cfg);
    let mut twin = booted(twin_cfg); // the twin stays in pump mode
    cluster.start().unwrap();

    for i in 0..16i64 {
        lockstep(&mut cluster, &mut twin, (i % 4) as u64, i * 1_000, "threaded");
    }
    // New node joins threaded and picks work up via handover.
    cluster.add_node().unwrap();
    for i in 16..32i64 {
        lockstep(&mut cluster, &mut twin, (i % 4) as u64, i * 1_000, "threaded-add");
    }
    // Drain stops the node's workers, flushes inline, then removes it;
    // the rest of the cluster keeps running threaded.
    cluster.drain_node(1).unwrap();
    assert!(cluster.is_running(), "survivors stay threaded");
    for i in 32..48i64 {
        lockstep(&mut cluster, &mut twin, (i % 4) as u64, i * 1_000, "threaded-drain");
    }
    cluster.stop().unwrap();

    let elastic = cluster.metrics_snapshot().elastic;
    assert_eq!(elastic.drains_completed, 1);
    assert_eq!(elastic.handover_fallbacks, 0, "got {elastic:?}");
}

/// The index of the node whose unit holds the only partition.
fn owner(cluster: &Cluster) -> usize {
    cluster
        .nodes()
        .iter()
        .position(|n| !n.units()[0].active_tasks().is_empty())
        .expect("a node holds the partition")
}

/// A request outstanding when its partition's owner is killed, and one
/// outstanding when the next owner is drained, are both answered once a
/// survivor holds the partition, and every event is counted once.
#[test]
fn requests_outstanding_across_kill_and_drain_are_answered_after_failover() {
    let mut cfg = fresh_config("failover", 3, 1, 1);
    cfg.session_timeout_ms = 1_000;
    let mut cluster = booted(cfg);
    for ts in 0..3 {
        send_card(&mut cluster, 0, ts);
    }
    let send = |cluster: &mut Cluster, ts| {
        cluster
            .send_async("payments", Timestamp::from_millis(ts), card_values(0))
            .unwrap()
    };
    let killed = send(&mut cluster, 3);
    cluster.kill_node(owner(&cluster)).unwrap();
    for step in 1..=3 {
        cluster.advance_time(step * 500);
        cluster.settle().unwrap();
    }
    let r = cluster.collect(killed).unwrap();
    assert_eq!(r.aggregations[0].value, Value::Int(4), "answered after the kill");

    let drained = send(&mut cluster, 4);
    cluster.drain_node(owner(&cluster)).unwrap();
    let r = cluster.collect(drained).unwrap();
    assert_eq!(r.aggregations[0].value, Value::Int(5), "answered after the drain");
    assert_eq!(cluster.nodes().len(), 1);
    let r = send_card(&mut cluster, 0, 5);
    assert_eq!(r.aggregations[0].value, Value::Int(6), "each event counted once");
}

/// A task gained without a checkpoint replays its whole partition, at
/// `max_poll` (256) events per pump: a pump-mode collect must keep pumping
/// for as long as that takes, however many rounds it is.
#[test]
fn pump_collect_waits_out_a_full_replay() {
    const PRELOAD: i64 = 20_000; // > 64 rounds of 256 after settle's share
    let mut cfg = fresh_config("replay", 1, 1, 1);
    cfg.session_timeout_ms = 1_000;
    let mut cluster = booted(cfg);
    for ts in 0..PRELOAD {
        send_card(&mut cluster, 0, ts);
    }
    cluster.add_node().unwrap();
    // Node 0 fails without an image (checkpoints are off): once its
    // session expires the new node cold-boots the task from offset 0.
    cluster.kill_node(0).unwrap();
    for step in 1..=3 {
        cluster.advance_time(step * 500);
        cluster.settle().unwrap();
    }
    let r = send_card(&mut cluster, 0, PRELOAD);
    assert_eq!(r.aggregations[0].value, Value::Int(PRELOAD + 1), "no acked event lost");
}

/// A pipelined burst leaves more replies on the reply topic than one
/// front-end pump reads (256) after every unit has gone idle: a pump-mode
/// collect must keep pumping while the front-end still drains them. One
/// unit per partition puts each partition's last reply at the tail of its
/// unit's output, far past what the first idle round has read.
#[test]
fn pump_collect_drains_a_pipelined_burst_out_of_order() {
    const BURST: i64 = 4_000;
    let mut cfg = fresh_config("burst", 1, 4, 4);
    cfg.max_in_flight = BURST as usize;
    let mut cluster = booted(cfg);
    let ids: Vec<u64> = (0..BURST)
        .map(|ts| {
            let card = Value::from(format!("card-{}", ts % 64));
            cluster
                .send_async(
                    "payments",
                    Timestamp::from_millis(ts),
                    vec![card, Value::from("m"), Value::from(1.0)],
                )
                .unwrap()
        })
        .collect();
    let last = cluster.collect(ids[BURST as usize - 1]).unwrap();
    // card-31 was sent at t = 31, 95, …, 3 999.
    assert_eq!(last.aggregations[0].value, Value::Int(63));
    for &id in &ids[..BURST as usize - 1] {
        cluster.collect(id).unwrap();
    }
}

/// With no unit left that could answer, a pump-mode collect gives up at
/// its first idle round instead of spinning.
#[test]
fn pump_collect_without_an_owner_fails_promptly() {
    let mut cluster = booted(fresh_config("orphan", 2, 1, 1));
    // The owner of the only partition dies; its consumer stays in the
    // group until a session timeout the manual clock never reaches.
    cluster.kill_node(owner(&cluster)).unwrap();
    let start = Instant::now();
    let err = cluster
        .send("payments", Timestamp::from_millis(1_000), card_values(0))
        .unwrap_err();
    assert!(
        matches!(&err, RailgunError::Engine(m) if m.contains("pump round")),
        "expected a no-reply error naming the rounds, got {err:?}"
    );
    assert!(start.elapsed() < Duration::from_secs(2), "took {:?}", start.elapsed());
}

#[test]
fn drain_refuses_the_last_node_and_bad_indices() {
    let mut cluster = booted(fresh_config("last", 1, 1, 2));
    assert!(matches!(
        cluster.drain_node(0),
        Err(RailgunError::InvalidArgument(_))
    ));
    assert!(matches!(
        cluster.drain_node(5),
        Err(RailgunError::InvalidArgument(_))
    ));
    // Still serving after the refusals.
    let r = send_card(&mut cluster, 0, 1_000);
    assert_eq!(r.aggregations[0].value, Value::Int(1));
}
