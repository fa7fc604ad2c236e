//! Threaded-runtime integration tests: the multi-threaded execution mode
//! must produce **byte-identical aggregation results** to the
//! deterministic single-threaded pump harness on the same event
//! sequences, survive concurrent clients with many in-flight requests,
//! and start/stop/restart idempotently (DESIGN.md § "Execution modes").
//!
//! The cross-check leans on the engine's per-entity determinism: every
//! reply's aggregations depend only on that entity's event prefix (GROUP
//! BY contains the partitioner, and entity affinity keeps one entity on
//! one partition, §4), so per-entity reply sequences must match exactly
//! across execution modes and interleavings.

use std::collections::BTreeMap;

use railgun_core::{AggregationResult, Cluster, ClusterConfig};
use railgun_messaging::BusClock;
use railgun_types::{FieldType, RailgunError, Schema, Timestamp, Value};

fn payments_schema() -> Schema {
    Schema::from_pairs(&[
        ("cardId", FieldType::Str),
        ("merchantId", FieldType::Str),
        ("amount", FieldType::Float),
    ])
    .unwrap()
}

fn fresh_config(tag: &str, units: u32, partitions: u32) -> ClusterConfig {
    let mut cfg = ClusterConfig {
        nodes: 1,
        units_per_node: units,
        partitions,
        ..ClusterConfig::default()
    };
    cfg.data_root = std::env::temp_dir().join(format!(
        "railgun-threaded-{}-{tag}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&cfg.data_root).ok();
    cfg
}

fn boot(cfg: ClusterConfig) -> Cluster {
    let mut cluster = Cluster::new(cfg).unwrap();
    cluster
        .create_stream("payments", payments_schema(), &["cardId"])
        .unwrap();
    cluster
        .register_query(
            "SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
    cluster
        .register_query(
            "SELECT countDistinct(merchantId) FROM payments GROUP BY cardId OVER infinite",
        )
        .unwrap();
    cluster
}

/// Deterministic event for (entity, seq): same inputs in both runs.
fn event_values(entity: &str, seq: u64) -> (Timestamp, Vec<Value>) {
    let ts = Timestamp::from_millis(seq as i64 * 1_000 + 17);
    let values = vec![
        Value::from(entity),
        Value::from(format!("m-{}", seq % 3)),
        Value::from(1.0 + seq as f64),
    ];
    (ts, values)
}

/// N client threads × M in-flight requests against a 4-unit threaded
/// cluster; per-entity reply sequences are then cross-checked against the
/// single-threaded pump harness processing the same event sequence.
#[test]
fn stress_threaded_matches_pump_harness() {
    const THREADS: usize = 4;
    const ENTITIES_PER_THREAD: usize = 3;
    const EVENTS_PER_ENTITY: u64 = 20;
    const IN_FLIGHT: usize = 8;

    // --- Threaded run: concurrent clients, pipelined in-flight windows ---
    let mut cluster = boot(fresh_config("stress-mt", 4, 4));
    cluster.start().unwrap();
    assert!(cluster.is_running());

    let mut clients = Vec::new();
    for _ in 0..THREADS {
        clients.push(cluster.client().unwrap());
    }
    let threaded: BTreeMap<String, Vec<Vec<AggregationResult>>> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (t, mut client) in clients.into_iter().enumerate() {
            handles.push(s.spawn(move || {
                let entities: Vec<String> = (0..ENTITIES_PER_THREAD)
                    .map(|e| format!("card-{t}-{e}"))
                    .collect();
                let mut results: BTreeMap<String, Vec<(u64, Vec<AggregationResult>)>> =
                    entities.iter().map(|e| (e.clone(), Vec::new())).collect();
                // (request_id, entity, seq) in submission order; events of
                // one entity are sent in seq order, so per-entity replies
                // are a deterministic function of the prefix.
                let mut window: Vec<(u64, String, u64)> = Vec::new();
                for seq in 0..EVENTS_PER_ENTITY {
                    for entity in &entities {
                        let (ts, values) = event_values(entity, seq);
                        let id = client.send_async("payments", ts, values).unwrap();
                        window.push((id, entity.clone(), seq));
                        if window.len() >= IN_FLIGHT {
                            let (id, entity, seq) = window.remove(0);
                            let out = client.collect(id).unwrap();
                            assert!(!out.duplicate);
                            results.get_mut(&entity).unwrap()
                                .push((seq, out.aggregations));
                        }
                    }
                }
                for (id, entity, seq) in window {
                    let out = client.collect(id).unwrap();
                    results.get_mut(&entity).unwrap().push((seq, out.aggregations));
                }
                // Replies were collected in submission order per entity;
                // double-check and strip the seq tags.
                results
                    .into_iter()
                    .map(|(entity, mut seqs)| {
                        seqs.sort_by_key(|(seq, _)| *seq);
                        let ordered: Vec<Vec<AggregationResult>> =
                            seqs.into_iter().map(|(_, aggs)| aggs).collect();
                        (entity, ordered)
                    })
                    .collect::<BTreeMap<_, _>>()
            }));
        }
        let mut merged = BTreeMap::new();
        for h in handles {
            merged.extend(h.join().expect("client thread"));
        }
        merged
    });
    cluster.stop().unwrap();
    assert!(!cluster.is_running());
    assert_eq!(threaded.len(), THREADS * ENTITIES_PER_THREAD);

    // --- Pump run: same event sequence, single-threaded harness ---------
    let mut pump_cluster = boot(fresh_config("stress-pump", 4, 4));
    let mut pump: BTreeMap<String, Vec<Vec<AggregationResult>>> = BTreeMap::new();
    for t in 0..THREADS {
        for e in 0..ENTITIES_PER_THREAD {
            let entity = format!("card-{t}-{e}");
            for seq in 0..EVENTS_PER_ENTITY {
                let (ts, values) = event_values(&entity, seq);
                let out = pump_cluster.send("payments", ts, values).unwrap();
                pump.entry(entity.clone()).or_default().push(out.aggregations);
            }
        }
    }

    // --- Cross-check: byte-identical per-entity reply sequences ---------
    assert_eq!(
        threaded, pump,
        "threaded and pump harness disagree on aggregation results"
    );
}

#[test]
fn start_stop_restart_is_idempotent_and_keeps_state() {
    let mut cluster = boot(fresh_config("restart", 2, 2));

    // Pump mode first: establish state deterministically.
    let (ts, values) = event_values("card-X", 0);
    let r = cluster.send("payments", ts, values).unwrap();
    let count = |aggs: &[AggregationResult]| {
        aggs.iter()
            .find(|a| a.name.starts_with("count(*)"))
            .expect("count agg")
            .value
            .clone()
    };
    assert_eq!(count(&r.aggregations), Value::Int(1));

    // start twice (idempotent), send threaded, stop twice (idempotent).
    cluster.start().unwrap();
    cluster.start().unwrap();
    assert!(cluster.is_running());
    let (ts, values) = event_values("card-X", 1);
    let r = cluster.send("payments", ts, values).unwrap();
    assert_eq!(count(&r.aggregations), Value::Int(2), "state survived start");
    cluster.stop().unwrap();
    cluster.stop().unwrap();
    assert!(!cluster.is_running());

    // Back in pump mode: the same units continue with their state.
    let (ts, values) = event_values("card-X", 2);
    let r = cluster.send("payments", ts, values).unwrap();
    assert_eq!(count(&r.aggregations), Value::Int(3), "state survived stop");

    // Restart once more and keep counting.
    cluster.start().unwrap();
    let (ts, values) = event_values("card-X", 3);
    let r = cluster.send("payments", ts, values).unwrap();
    assert_eq!(count(&r.aggregations), Value::Int(4), "state survived restart");
    cluster.stop().unwrap();
}

#[test]
fn backpressure_bounds_in_flight_requests() {
    let mut cfg = fresh_config("backpressure", 1, 1);
    cfg.max_in_flight = 4;
    let mut cluster = boot(cfg);
    // Don't pump: requests stay in flight until the cap trips.
    let mut sent = 0u64;
    let err = loop {
        let (ts, values) = event_values("card-B", sent);
        match cluster.send_async("payments", ts, values) {
            Ok(_) => sent += 1,
            Err(e) => break e,
        }
        assert!(sent <= 4, "cap never tripped");
    };
    assert_eq!(sent, 4);
    assert!(
        matches!(err, RailgunError::Backpressure(_)),
        "expected backpressure, got {err:?}"
    );
}

#[test]
fn tickets_survive_node_removal() {
    // A request id belongs to the cluster's client, not to a node:
    // draining a node while a request is outstanding must not lose it.
    let mut cfg = fresh_config("ticketid", 1, 2);
    cfg.nodes = 2;
    let mut cluster = boot(cfg);
    // Warm the pipeline so both nodes know the stream.
    let (ts, values) = event_values("card-T", 0);
    cluster.send("payments", ts, values).unwrap();
    let (ts, values) = event_values("card-T", 1);
    let id = cluster.send_async("payments", ts, values).unwrap();
    cluster.drain_node(0).unwrap();
    assert_eq!(cluster.nodes().len(), 1);
    let out = cluster.collect(id).unwrap();
    assert!(!out.aggregations.is_empty());
}

#[test]
fn cancel_and_collection_free_backpressure_slots() {
    let mut cfg = fresh_config("cancel", 1, 1);
    cfg.max_in_flight = 2;
    let mut cluster = boot(cfg);
    let send = |cluster: &mut Cluster, seq: u64| {
        let (ts, values) = event_values("card-C", seq);
        cluster.send_async("payments", ts, values)
    };
    let t1 = send(&mut cluster, 0).unwrap();
    let t2 = send(&mut cluster, 1).unwrap();
    assert!(matches!(
        send(&mut cluster, 2),
        Err(RailgunError::Backpressure(_))
    ));
    // cancel() frees an in-flight slot even though no reply was taken.
    assert!(cluster.cancel(t1));
    let t3 = send(&mut cluster, 2).unwrap();
    // Completed-but-unclaimed responses still count against the cap:
    // settle (pumps without claiming) until both replies are in, then the
    // next send must push back.
    for _ in 0..4 {
        cluster.settle().unwrap();
    }
    assert!(matches!(
        send(&mut cluster, 3),
        Err(RailgunError::Backpressure(_))
    ));
    // Claiming a response frees its slot again.
    assert!(cluster.try_collect(t2).unwrap().is_some());
    assert!(send(&mut cluster, 3).is_ok());
    // Cleanup path: the remaining response is claimable too.
    assert!(cluster.try_collect(t3).unwrap().is_some());
}

#[test]
fn threaded_cluster_with_auto_clock_serves_requests() {
    let mut cfg = fresh_config("autoclock", 2, 2);
    cfg.clock = BusClock::Auto;
    cfg.session_timeout_ms = 200;
    let mut cluster = boot(cfg);
    cluster.start().unwrap();
    let mut client = cluster.client().unwrap();
    // Keep sending past several session timeouts: parked workers must keep
    // heartbeating under the wall clock, so nothing gets expelled and
    // every request completes.
    for seq in 0..6 {
        let (ts, values) = event_values("card-A", seq);
        let out = client.send("payments", ts, values).unwrap();
        assert!(!out.aggregations.is_empty());
        std::thread::sleep(std::time::Duration::from_millis(60));
    }
    cluster.stop().unwrap();
}

/// A cluster whose one unit fails on its worker thread: its data_root is
/// an unwritable path, so the first rebalance fails to create its task
/// processors and the worker bails through the runtime's failure path.
fn failing_cluster(tag: &str) -> Cluster {
    let mut cfg = fresh_config(tag, 1, 1);
    cfg.data_root = std::path::PathBuf::from("/proc/railgun-cannot-write-here");
    Cluster::new(cfg).unwrap()
}

#[test]
fn worker_failure_is_surfaced_and_propagated_on_stop() {
    // A collect must report the failure and stop() must propagate it
    // instead of hanging.
    let mut cluster = failing_cluster("failprop");
    // Start *before* the stream exists: the create-stream op then triggers
    // the rebalance on the worker thread, where task creation fails on the
    // unwritable root and the worker bails.
    cluster.start().unwrap();
    // Nothing in create_stream waits on a worker, so it succeeds.
    cluster
        .create_stream("payments", payments_schema(), &["cardId"])
        .unwrap();
    let (ts, values) = event_values("card-F", 0);
    let id = cluster.send_async("payments", ts, values).unwrap();
    let err = cluster.collect(id).expect_err("no unit is left to answer");
    assert!(err.to_string().contains("worker thread failed"), "{err}");
    let err = cluster.stop().expect_err("stop must report the worker failure");
    let msg = err.to_string();
    assert!(
        msg.contains("unit error") || msg.contains("unit panicked"),
        "unexpected failure report: {msg}"
    );
}

#[test]
fn a_client_collect_reports_a_failed_worker_promptly() {
    // Only the cluster's own collect used to check worker health: a
    // client waited out its 10 s collect timeout for a reply the dead
    // worker would never send.
    let mut cluster = failing_cluster("failclient");
    cluster.start().unwrap();
    cluster
        .create_stream("payments", payments_schema(), &["cardId"])
        .unwrap();
    let mut client = cluster.client().unwrap();
    let (ts, values) = event_values("card-F", 0);
    let id = client.send_async("payments", ts, values).unwrap();
    let start = std::time::Instant::now();
    let err = client.collect(id).expect_err("no unit is left to answer");
    assert!(err.to_string().contains("worker thread failed"), "{err}");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(2),
        "took {:?}",
        start.elapsed()
    );
    assert!(cluster.stop().is_err(), "stop reports the failure");
}
