//! Engine-level batched-ingest identity (PR 6). The front-end coalesces
//! pipelined sends into shared-frame batches and the units process runs
//! of consecutive same-task records in one pass — all of which must be
//! *semantically invisible*: pipelined ingest has to produce replies
//! identical to one-at-a-time closed-loop ingest, in pump mode and
//! threaded mode alike. (Byte-identity of the reservoir files themselves
//! is pinned at the reservoir level in
//! `railgun-reservoir/tests/batch_identity.rs`.)

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use proptest::prelude::*;

use railgun::engine::api::topic_name;
use railgun::engine::{BatchPolicy, ClientResponse, Cluster, ClusterConfig};
use railgun::messaging::TopicPartition;
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

/// How a run sends its events and collects the replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Drive {
    /// Every `send_async` up front, so the front-end coalesces.
    Pipelined,
    /// Each event collected before the next is sent, as by a synchronous
    /// `send`: a batch of one by construction.
    ClosedLoop,
    /// A closed loop of this depth: once that many are out, collect the
    /// oldest before sending the next.
    Window(usize),
}

/// Drive `send` and `collect` on `client` over `n` requests as `how`
/// says, returning every reply in send order. `after_first` runs once,
/// right after the first collect returns.
fn drive<C, T, R>(
    client: &mut C,
    n: usize,
    how: Drive,
    mut send: impl FnMut(&mut C, usize) -> T,
    mut collect: impl FnMut(&mut C, T) -> R,
    mut after_first: impl FnMut(&mut C),
) -> Vec<R> {
    let depth = match how {
        Drive::Pipelined => n.max(1),
        Drive::ClosedLoop => 1,
        Drive::Window(depth) => depth,
    };
    let mut out = Vec::with_capacity(n);
    let mut window = VecDeque::with_capacity(depth);
    let mut collect_oldest = |client: &mut C, window: &mut VecDeque<T>, out: &mut Vec<R>| {
        out.push(collect(client, window.pop_front().expect("one in flight")));
        if out.len() == 1 {
            after_first(client);
        }
    };
    for i in 0..n {
        window.push_back(send(client, i));
        if window.len() == depth {
            collect_oldest(client, &mut window, &mut out);
        }
    }
    while !window.is_empty() {
        collect_oldest(client, &mut window, &mut out);
    }
    out
}

/// Drive one cluster over `events` as `how` says. Returns every reply in
/// send order plus the processed-event count.
fn run(tag: &str, events: &[Drawn], threaded: bool, how: Drive) -> (Vec<ClientResponse>, u64) {
    let mut cluster = fresh_cluster(tag, BatchPolicy::default());
    if threaded {
        cluster.start().unwrap();
    }
    let out = drive(
        &mut cluster,
        events.len(),
        how,
        |cluster, i| {
            let (card, amount, late) = events[i];
            cluster
                .send_async("payments", ts(i, late), values(card, amount))
                .unwrap()
        },
        |cluster, t| cluster.collect(t).unwrap(),
        |_| {},
    );
    if threaded {
        cluster.stop().unwrap();
    }
    (out, cluster.metrics_snapshot().tasks.events_processed)
}

fn assert_identical(events: &[Drawn], threaded: bool, tag: &str) {
    let run = |name: &str, how| run(&format!("{tag}-{name}"), events, threaded, how);
    let (pipelined, processed_p) = run("pipe", Drive::Pipelined);
    let (closed_loop, processed_c) = run("seq", Drive::ClosedLoop);
    let (windowed, processed_w) = run("win", Drive::Window(8));
    prop_assert_eq!(&pipelined, &closed_loop);
    prop_assert_eq!(&windowed, &closed_loop);
    prop_assert_eq!(processed_p, processed_c);
    prop_assert_eq!(processed_w, processed_c);
    prop_assert_eq!(processed_p, events.len() as u64);
}

fn arb_events(max: usize) -> impl Strategy<Value = Vec<Drawn>> {
    proptest::collection::vec((0u8..5, 0u32..1_000, 0i64..300), 1..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Pump mode: pipelined (coalesced) ingest and a depth-8 windowed
    /// closed loop reply identically to one-at-a-time closed-loop ingest
    /// over out-of-order, multi-entity streams.
    #[test]
    fn pipelined_matches_closed_loop_pump_mode(events in arb_events(48)) {
        assert_identical(&events, false, "pump");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Threaded mode: same identities with the units on worker threads —
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

/// Front-end events published in batches of two or more so far.
fn batched(cluster: &Cluster) -> u64 {
    cluster.metrics_snapshot().batching.frontend_batched_events
}

/// Events on the bus so far: records of the stream's one event topic.
fn published(cluster: &Cluster) -> u64 {
    let topic = topic_name("payments", "cardId");
    let bus = cluster.bus();
    let partitions = bus.partition_count(&topic).unwrap();
    let end = |p| bus.end_offset(&TopicPartition::new(topic.as_str(), p)).unwrap();
    (0..partitions).map(end).sum()
}

/// A closed loop of depth 8 (collect the oldest, send the next) publishes
/// its sends in batches once it is past its first collect, driven through
/// `Cluster::collect` in pump mode. A collect whose response is already in
/// claims it without flushing the stage, so the sends behind a run of such
/// collects go out together when a collect first has to wait — in pump
/// mode, seven at a time. It used to flush on every collect: past the
/// first, every send went out alone.
#[test]
fn a_windowed_closed_loop_publishes_batches_in_pump_mode() {
    let mut cluster = fresh_cluster("win-pump", BatchPolicy::default());
    let (mut first, mut collected, mut largest) = (0, 0, 0);
    let replies = drive(
        &mut cluster,
        64,
        Drive::Window(8),
        |c, i| {
            c.send_async("payments", ts(i, 0), values((i % 5) as u8, 3))
                .unwrap()
        },
        |c, t| {
            let before = published(c);
            let reply = c.collect(t).unwrap();
            collected += 1;
            if collected > 1 {
                largest = largest.max(published(c) - before);
            }
            reply
        },
        |c| first = batched(c),
    );
    assert!(replies.iter().all(|r| !r.aggregations.is_empty()));
    assert_eq!(published(&cluster), 64);
    let since_first = batched(&cluster) - first;
    assert!(since_first >= 7, "{since_first} events batched past the first collect");
    assert!(largest >= 7, "the largest batch past the first collect was {largest}");
}

/// The same loop through a `ClusterClient` of a threaded cluster: its
/// collect claims a reply that is already in, so the sends behind a run of
/// replies read in one poll leave as one batch.
#[test]
fn a_windowed_closed_loop_publishes_batches_through_a_threaded_client() {
    let mut cluster = fresh_cluster("win-thr", BatchPolicy::default());
    cluster.start().unwrap();
    let mut client = cluster.client().unwrap();
    let mut first = 0;
    let replies = drive(
        &mut client,
        256,
        Drive::Window(8),
        |c, i| {
            c.send_async("payments", ts(i, 0), values((i % 5) as u8, 3))
                .unwrap()
        },
        |c, id| c.collect(id).unwrap(),
        |_| first = batched(&cluster),
    );
    assert!(replies.iter().all(|r| !r.aggregations.is_empty()));
    let since_first = batched(&cluster) - first;
    assert!(since_first > 0, "no event batched past the first collect");
    cluster.stop().unwrap();
}

/// A collect that finds its response complete returns without publishing
/// what is staged; the next collect that has to wait publishes it, and
/// every ticket is answered (pump mode, so each step is deterministic).
#[test]
fn events_staged_behind_an_early_return_leave_with_the_next_wait() {
    let mut cluster = fresh_cluster("early", BatchPolicy::default());
    let send = |c: &mut Cluster, i: usize| {
        c.send_async("payments", ts(i, 0), values((i % 5) as u8, 3))
            .unwrap()
    };
    // `a` goes out alone (nothing else in flight); `b` and `c` stage
    // behind it. Collecting `a` publishes them, collecting `b` answers
    // both, so `c` waits complete and unclaimed.
    let (a, b, c) = (send(&mut cluster, 0), send(&mut cluster, 1), send(&mut cluster, 2));
    cluster.collect(a).unwrap();
    cluster.collect(b).unwrap();
    // `d` goes out at once (nothing else in flight), `e` stages.
    let d = send(&mut cluster, 3);
    let e = send(&mut cluster, 4);
    let staged_at = published(&cluster);
    // `c` is complete: claimed without a flush, `e` stays staged.
    assert!(!cluster.collect(c).unwrap().aggregations.is_empty());
    assert_eq!(published(&cluster), staged_at, "an early return published the stage");
    // `d` is not: its collect waits, and publishes `e` on the way.
    assert!(!cluster.collect(d).unwrap().aggregations.is_empty());
    assert_eq!(published(&cluster), staged_at + 1);
    assert!(!cluster.collect(e).unwrap().aggregations.is_empty());
    assert_eq!(cluster.metrics_snapshot().tasks.events_processed, 5);
}
