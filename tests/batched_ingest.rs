//! Engine-level batched-ingest identity (PR 6). The front-end coalesces
//! pipelined sends into shared-frame batches and the units process runs
//! of consecutive same-task records in one pass — all of which must be
//! *semantically invisible*: pipelined ingest has to produce replies
//! identical to one-at-a-time closed-loop ingest, in pump mode and
//! threaded mode alike. (Byte-identity of the reservoir files themselves
//! is pinned at the reservoir level in
//! `railgun-reservoir/tests/batch_identity.rs`.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use proptest::prelude::*;

use railgun::engine::{BatchPolicy, ClientResponse, Cluster, ClusterConfig};
use railgun::types::{FieldType, Schema, Timestamp, Value};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// One drawn event: (card, amount, lateness in ms).
type Drawn = (u8, u32, i64);

fn schema() -> Schema {
    Schema::from_pairs(&[("cardId", FieldType::Str), ("amount", FieldType::Float)]).unwrap()
}

fn ts(i: usize, late: i64) -> Timestamp {
    Timestamp::from_millis(10_000 + i as i64 * 50 - late)
}

fn values(card: u8, amount: u32) -> Vec<Value> {
    vec![
        Value::Str(format!("card-{card}")),
        Value::Float(f64::from(amount)),
    ]
}

fn fresh_cluster(tag: &str, batch: BatchPolicy) -> Cluster {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut cfg = ClusterConfig {
        nodes: 1,
        units_per_node: 2,
        partitions: 4,
        ..ClusterConfig::default()
    };
    cfg.batch = batch;
    cfg.data_root = std::env::temp_dir().join(format!(
        "railgun-batche2e-{}-{tag}-{n}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&cfg.data_root).ok();
    let mut cluster = Cluster::new(cfg).unwrap();
    cluster.create_stream("payments", schema(), &["cardId"]).unwrap();
    cluster
        .register_query(
            "SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
    cluster
}

/// Drive one cluster over `events`, either pipelined (all `send_async`
/// up front, so the front-end coalesces) or closed-loop (each event is a
/// synchronous `send` — a batch of one by construction). Returns every
/// reply in send order plus the processed-event count.
fn run(tag: &str, events: &[Drawn], threaded: bool, pipelined: bool) -> (Vec<ClientResponse>, u64) {
    let mut cluster = fresh_cluster(tag, BatchPolicy::default());
    if threaded {
        cluster.start().unwrap();
    }
    let mut out = Vec::with_capacity(events.len());
    if pipelined {
        let mut tickets = Vec::with_capacity(events.len());
        for (i, &(card, amount, late)) in events.iter().enumerate() {
            tickets.push(
                cluster
                    .send_async("payments", ts(i, late), values(card, amount))
                    .unwrap(),
            );
        }
        for t in tickets {
            out.push(cluster.collect(t).unwrap());
        }
    } else {
        for (i, &(card, amount, late)) in events.iter().enumerate() {
            out.push(
                cluster
                    .send("payments", ts(i, late), values(card, amount))
                    .unwrap(),
            );
        }
    }
    if threaded {
        cluster.stop().unwrap();
    }
    (out, cluster.metrics_snapshot().tasks.events_processed)
}

fn assert_identical(events: &[Drawn], threaded: bool, tag: &str) {
    let (pipelined, processed_p) = run(&format!("{tag}-pipe"), events, threaded, true);
    let (closed_loop, processed_c) = run(&format!("{tag}-seq"), events, threaded, false);
    prop_assert_eq!(pipelined, closed_loop);
    prop_assert_eq!(processed_p, processed_c);
    prop_assert_eq!(processed_p, events.len() as u64);
}

fn arb_events(max: usize) -> impl Strategy<Value = Vec<Drawn>> {
    proptest::collection::vec((0u8..5, 0u32..1_000, 0i64..300), 1..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Pump mode: pipelined (coalesced) ingest replies are identical to
    /// closed-loop ingest over out-of-order, multi-entity streams.
    #[test]
    fn pipelined_matches_closed_loop_pump_mode(events in arb_events(48)) {
        assert_identical(&events, false, "pump");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Threaded mode: same identity with the units on worker threads —
    /// per-partition log order is the send order, so replies must not
    /// depend on how the front-end or the workers happened to batch.
    #[test]
    fn pipelined_matches_closed_loop_threaded(events in arb_events(32)) {
        assert_identical(&events, true, "thr");
    }
}

/// An empty stage is a no-op: settling (pumping every node without
/// claiming replies) a freshly-built cluster flushes nothing, records
/// nothing, and leaves the cluster fully usable.
#[test]
fn empty_stage_pump_is_a_noop() {
    let mut cluster = fresh_cluster("empty", BatchPolicy::default());
    cluster.settle().unwrap();
    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.batching.batch_size.count(), 0);
    assert_eq!(snap.batching.frontend_batched_events, 0);
    let out = cluster
        .send("payments", ts(0, 0), values(1, 10))
        .unwrap();
    assert!(!out.aggregations.is_empty());
}

/// Closed-loop traffic degenerates to batches of one: the flush-when-
/// nothing-is-downstream rule publishes every send immediately, so no
/// event ever waits out `max_delay` and the batched-event counters stay
/// at zero.
#[test]
fn closed_loop_sends_are_batches_of_one() {
    let mut cluster = fresh_cluster("bof1", BatchPolicy::default());
    for i in 0..20 {
        cluster
            .send("payments", ts(i, 0), values((i % 3) as u8, 5))
            .unwrap();
    }
    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.batching.frontend_batched_events, 0);
    assert_eq!(snap.batching.batch_size.max(), 1);
}

/// The `max_delay` flush trigger: with a huge `max_events`, a stage that
/// has aged past the deadline is flushed by the next send — the whole
/// accumulated batch goes out at once, visible in the batch-size
/// histogram before any pump runs.
#[test]
fn stale_stage_is_flushed_on_max_delay() {
    let mut cluster = fresh_cluster(
        "delay",
        BatchPolicy {
            max_events: 10_000,
            max_delay: Duration::from_millis(1),
        },
    );
    let mut tickets = Vec::new();
    // First send flushes immediately (nothing is in flight); the next
    // nine stage.
    for i in 0..10 {
        tickets.push(
            cluster
                .send_async("payments", ts(i, 0), values((i % 4) as u8, 7))
                .unwrap(),
        );
    }
    std::thread::sleep(Duration::from_millis(10));
    // The stage is now older than `max_delay`: this send joins it and
    // triggers the delay flush — ten events in one batch.
    tickets.push(
        cluster
            .send_async("payments", ts(10, 0), values(0, 7))
            .unwrap(),
    );
    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.batching.frontend_batched_events, 10);
    assert_eq!(snap.batching.batch_size.max(), 10);
    for t in tickets {
        let out = cluster.collect(t).unwrap();
        assert!(!out.aggregations.is_empty());
    }
}
