//! End-to-end tests of the telemetry and SLO plane (PR 5).
//!
//! Covers both execution modes: deterministic pump mode and the threaded
//! runtime (where task processors are owned by worker threads and the
//! old `TaskStats` fields used to be unreachable).

use std::time::Duration;

use railgun_core::lang::{millis, mins, Agg, Query, Window};
use railgun_core::session::Session;
use railgun_core::{Cluster, ClusterConfig, MetricsSnapshot, QueryId};
use railgun_types::{FieldType, RailgunError, Timestamp, Value};

fn fresh_config(tag: &str) -> ClusterConfig {
    let mut cfg = ClusterConfig::single_node();
    cfg.data_root = std::env::temp_dir().join(format!(
        "railgun-metrics-{}-{tag}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&cfg.data_root).ok();
    cfg
}

fn payments_session(cfg: ClusterConfig) -> Session {
    let mut session = Session::new(cfg).unwrap();
    session
        .create_stream(
            "payments",
            &[("cardId", FieldType::Str), ("amount", FieldType::Float)],
            &["cardId"],
        )
        .unwrap();
    session
}

fn assert_monotone(earlier: &MetricsSnapshot, later: &MetricsSnapshot) {
    assert!(later.tasks.events_processed >= earlier.tasks.events_processed);
    assert!(later.tasks.inserts >= earlier.tasks.inserts);
    assert!(later.tasks.state_writes >= earlier.tasks.state_writes);
    assert!(later.state_cache.state_cache_hits >= earlier.state_cache.state_cache_hits);
    assert!(
        later.stages.frontend_e2e.count() >= earlier.stages.frontend_e2e.count()
    );
    assert!(later.counters.slo_breaches >= earlier.counters.slo_breaches);
    assert!(
        later.counters.backpressure_rejections >= earlier.counters.backpressure_rejections
    );
    for q in &earlier.queries {
        let l = later.query(q.id).expect("queries persist in snapshots");
        assert!(l.completed >= q.completed);
        assert!(l.breaches >= q.breaches);
    }
}

#[test]
fn pump_mode_metrics_per_query_and_stages() {
    let mut cfg = fresh_config("pump");
    cfg.telemetry = true;
    let mut session = payments_session(cfg);
    let q1 = session
        .register(
            Query::select(Agg::sum("amount"))
                .from("payments")
                .group_by(["cardId"])
                .over(Window::sliding(mins(5))),
        )
        .unwrap();
    let q2 = session
        .register(
            Query::select(Agg::count())
                .from("payments")
                .group_by(["cardId"])
                .over(Window::sliding(mins(1))),
        )
        .unwrap();

    let stream = session.stream("payments").unwrap();
    for i in 0..20i64 {
        let event = stream
            .event(Timestamp::from_millis(1_000 + i * 250))
            .set("cardId", format!("card-{}", i % 3).as_str())
            .set("amount", 1.5)
            .build()
            .unwrap();
        session.send(event).unwrap();
    }
    let s1 = session.metrics();
    assert!(s1.telemetry_enabled);

    // Per-query ladders keyed by QueryId.
    assert_eq!(s1.queries.len(), 2);
    let m1 = s1.query(q1.id()).expect("q1 tracked");
    let m2 = s1.query(q2.id()).expect("q2 tracked");
    assert_eq!(m1.completed, 20);
    assert_eq!(m2.completed, 20);
    assert_eq!(m1.latency.count(), 20);
    assert!(m1.ladder().p50_us <= m1.ladder().p999_us);
    assert!(s1.query(QueryId(0xDEAD)).is_none());

    // Stage histograms fill in pump mode too.
    assert_eq!(s1.stages.frontend_e2e.count(), 20);
    assert!(s1.stages.unit_process.count() >= 20);
    assert!(s1.stages.unit_poll.count() > 0);
    assert!(s1.stages.reservoir_append.count() >= 20);
    // The store keeps no write-ahead log: its stage stays empty.
    assert_eq!(s1.stages.store_wal_append.count(), 0);

    // Task counters aggregate through the registry.
    assert_eq!(s1.tasks.events_processed, 20);
    assert!(s1.tasks.inserts >= 20);
    // Rows stay in the tasks' state caches: read from the store once each,
    // then found in memory, and written back only at an eviction or a
    // checkpoint (neither happens here).
    assert!(s1.tasks.state_reads > 0);
    assert_eq!(s1.tasks.state_writes, 0);
    assert!(s1.state_cache.state_cache_hits > 0);
    assert!(s1.state_cache.state_cache_bytes > 0);

    // Monotonicity across more traffic.
    for i in 0..5i64 {
        let event = stream
            .event(Timestamp::from_millis(10_000 + i * 250))
            .set("cardId", "card-0")
            .set("amount", 2.0)
            .build()
            .unwrap();
        session.send(event).unwrap();
    }
    let s2 = session.metrics();
    assert_monotone(&s1, &s2);
    assert_eq!(s2.tasks.events_processed, 25);
    assert_eq!(s2.query(q1.id()).unwrap().completed, 25);
}

#[test]
fn telemetry_off_keeps_snapshot_counters_but_no_stage_histograms() {
    let cfg = fresh_config("off");
    let mut session = payments_session(cfg);
    session
        .register(
            Query::select(Agg::count())
                .from("payments")
                .group_by(["cardId"])
                .over(Window::sliding(mins(5))),
        )
        .unwrap();
    let stream = session.stream("payments").unwrap();
    for i in 0..4i64 {
        let event = stream
            .event(Timestamp::from_millis(1_000 + i))
            .set("cardId", "A")
            .set("amount", 1.0)
            .build()
            .unwrap();
        session.send(event).unwrap();
    }
    let snap = session.metrics();
    assert!(!snap.telemetry_enabled);
    // Stage histograms stay empty (no clock reads on the hot path)…
    assert_eq!(snap.stages.frontend_e2e.count(), 0);
    assert_eq!(snap.stages.reservoir_append.count(), 0);
    // …while the always-on task counters remain reachable.
    assert_eq!(snap.tasks.events_processed, 4);
    // No SLO and no telemetry => no per-query tracking was armed.
    assert!(snap.queries.is_empty());
}

#[test]
fn late_dropped_counter_reachable_from_snapshot() {
    let mut cfg = fresh_config("late");
    // Tiny chunks so the reservoir finalizes quickly and a far-past event
    // falls behind the finalized frontier (LatePolicy::Discard default).
    cfg.task.reservoir.chunk_target_events = 4;
    let mut session = payments_session(cfg);
    session
        .register(
            Query::select(Agg::count())
                .from("payments")
                .group_by(["cardId"])
                .over(Window::sliding(mins(5))),
        )
        .unwrap();
    let stream = session.stream("payments").unwrap();
    for i in 0..16i64 {
        let event = stream
            .event(Timestamp::from_millis(100_000 + i * 1_000))
            .set("cardId", "A")
            .set("amount", 1.0)
            .build()
            .unwrap();
        session.send(event).unwrap();
    }
    // Far older than anything finalized: dropped per policy.
    let ancient = stream
        .event(Timestamp::from_millis(1))
        .set("cardId", "A")
        .set("amount", 1.0)
        .build()
        .unwrap();
    session.send(ancient).unwrap();
    let snap = session.metrics();
    assert_eq!(
        snap.tasks.late_dropped, 1,
        "late_dropped must be readable from the public snapshot: {:?}",
        snap.tasks
    );
}

#[test]
fn slo_breach_fires_under_injected_stall() {
    let mut cfg = fresh_config("slo-breach");
    cfg.telemetry = true;
    let mut session = payments_session(cfg);
    let q = session
        .register(
            Query::select(Agg::count())
                .from("payments")
                .group_by(["cardId"])
                .over(Window::sliding(mins(5)))
                .with_slo(millis(1)),
        )
        .unwrap();
    // Injected stall: fire the event asynchronously, let nobody pump the
    // cluster past the budget, then collect — the reply completes well
    // after the 1 ms SLO.
    let ticket = session
        .cluster_mut()
        .send_async(
            "payments",
            Timestamp::from_millis(1_000),
            vec![Value::from("card-1"), Value::from(9.0)],
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    session.cluster_mut().collect(ticket).unwrap();

    let snap = session.metrics();
    let qm = snap.query(q.id()).expect("slo query tracked");
    assert_eq!(qm.slo, Some(millis(1)));
    assert_eq!(qm.completed, 1);
    assert_eq!(qm.breaches, 1, "stalled completion must breach the 1 ms SLO");
    assert_eq!(snap.counters.slo_breaches, 1);
    assert!(qm.ladder().max_us > 1_000);
}

#[test]
fn slo_overload_escalates_backpressure_before_cap() {
    let mut cfg = fresh_config("overload");
    cfg.max_in_flight = 8;
    let mut session = payments_session(cfg);
    session
        .register(
            Query::select(Agg::count())
                .from("payments")
                .group_by(["cardId"])
                .over(Window::sliding(mins(5)))
                .with_slo(millis(1)),
        )
        .unwrap();
    let cluster = session.cluster_mut();
    // Fill half the in-flight budget without pumping (injected stall).
    for i in 0..4i64 {
        cluster
            .send_async(
                "payments",
                Timestamp::from_millis(1_000 + i),
                vec![Value::from("card-1"), Value::from(1.0)],
            )
            .unwrap();
    }
    // Wait past SLO_OVERLOAD_MULTIPLIER × the 1 ms budget.
    std::thread::sleep(Duration::from_millis(25));
    let err = cluster
        .send_async(
            "payments",
            Timestamp::from_millis(9_999),
            vec![Value::from("card-1"), Value::from(1.0)],
        )
        .unwrap_err();
    assert!(
        matches!(err, RailgunError::Backpressure(_)),
        "expected SLO-overload backpressure well before the cap of 8, got: {err}"
    );
    let snap = session.metrics();
    assert!(snap.counters.backpressure_rejections >= 1);
}

#[test]
fn threaded_mode_metrics_end_to_end() {
    let mut cfg = fresh_config("threaded");
    cfg.telemetry = true;
    cfg.units_per_node = 2;
    cfg.partitions = 4;
    cfg.collect_timeout_ms = 30_000;
    let mut session = payments_session(cfg);
    let q = session
        .register(
            Query::select(Agg::sum("amount"))
                .select(Agg::count())
                .from("payments")
                .group_by(["cardId"])
                .over(Window::sliding(mins(5)))
                .with_slo(millis(30_000)),
        )
        .unwrap();

    session.cluster_mut().start().unwrap();
    let mut client = session.cluster_mut().client().unwrap();
    let mut ids = Vec::new();
    for i in 0..40i64 {
        ids.push(
            client
                .send_async(
                    "payments",
                    Timestamp::from_millis(1_000 + i * 100),
                    vec![
                        Value::from(format!("card-{}", i % 5)),
                        Value::from(2.0),
                    ],
                )
                .unwrap(),
        );
    }
    for id in ids {
        client.collect(id).unwrap();
    }
    // Snapshot while the workers still own the task processors — this is
    // exactly the state where TaskStats used to be unreachable.
    let running = session.metrics();
    assert!(session.cluster().is_running());
    assert_eq!(running.tasks.events_processed, 40);
    let qm = running.query(q.id()).expect("keyed by QueryId");
    assert_eq!(qm.completed, 40);
    assert!(qm.latency.count() == 40);
    assert_eq!(qm.breaches, 0, "generous SLO must not breach");
    assert!(running.stages.frontend_e2e.count() == 40);
    // Unit processing is sampled once per *run* of consecutive same-task
    // messages (batched ingest), so its count is between 1 and the event
    // count — and every event shows up in the batch-size histogram.
    let runs = running.stages.unit_process.count();
    assert!((1..=40).contains(&runs), "runs: {runs}");
    assert!(running.batching.batch_size.count() >= runs);
    assert!(running.stages.reservoir_append.count() >= 40);

    session.cluster_mut().stop().unwrap();
    let stopped = session.metrics();
    assert_monotone(&running, &stopped);
    assert_eq!(stopped.tasks.events_processed, 40, "stats survive stop()");
}

#[test]
fn cluster_level_snapshot_without_session() {
    let mut cfg = fresh_config("cluster-direct");
    cfg.telemetry = true;
    let mut cluster = Cluster::new(cfg).unwrap();
    cluster
        .create_stream(
            "payments",
            railgun_types::Schema::from_pairs(&[
                ("cardId", FieldType::Str),
                ("amount", FieldType::Float),
            ])
            .unwrap(),
            &["cardId"],
        )
        .unwrap();
    let id = cluster
        .register_query("SELECT count(*) FROM payments GROUP BY cardId OVER sliding 5 min")
        .unwrap();
    cluster.set_query_slo(id, millis(60_000));
    cluster
        .send(
            "payments",
            Timestamp::from_millis(1_000),
            vec![Value::from("card-1"), Value::from(1.0)],
        )
        .unwrap();
    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.query(id).unwrap().completed, 1);
    assert_eq!(snap.query(id).unwrap().breaches, 0);
    assert_eq!(snap.tasks.events_processed, 1);
}
