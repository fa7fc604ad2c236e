//! Out-of-order event handling through the full task processor (§4.1.1):
//! late events are admitted while their chunk is open or in transition,
//! enter windows that still cover them, and are discarded or rewritten
//! once their chunk is finalized.

use railgun_core::{parse_query, TaskConfig, TaskProcessor};
use railgun_reservoir::{LatePolicy, ReservoirConfig};
use railgun_types::{Event, EventId, FieldType, Schema, TimeDelta, Timestamp, Value};

fn tmp(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("railgun-ooo-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn schema() -> Schema {
    Schema::from_pairs(&[("cardId", FieldType::Str), ("amount", FieldType::Float)]).unwrap()
}

fn proc(tag: &str, hold_ms: i64, policy: LatePolicy) -> TaskProcessor {
    proc_chunked(tag, 8, hold_ms, policy)
}

fn proc_chunked(tag: &str, chunk_events: usize, hold_ms: i64, policy: LatePolicy) -> TaskProcessor {
    let cfg = TaskConfig {
        reservoir: ReservoirConfig {
            chunk_target_events: chunk_events,
            transition_hold: TimeDelta::from_millis(hold_ms),
            late_policy: policy,
            ..ReservoirConfig::default()
        },
        ..TaskConfig::default()
    };
    let mut tp = TaskProcessor::open(&tmp(tag), "payments--cardId", 0, schema(), cfg).unwrap();
    tp.register_query(
        &parse_query("SELECT count(*), sum(amount) FROM payments GROUP BY cardId OVER sliding 1 min")
            .unwrap(),
    )
    .unwrap();
    tp
}

fn ev(id: u64, ts: i64, amount: f64) -> Event {
    Event::new(
        EventId(id),
        Timestamp::from_millis(ts),
        vec![Value::from("card-1"), Value::from(amount)],
    )
}

fn count_of(results: &[railgun_core::AggregationResult]) -> i64 {
    results
        .iter()
        .find(|r| r.name.starts_with("count"))
        .and_then(|r| r.value.as_i64())
        .unwrap()
}

#[test]
fn late_event_inside_window_is_counted_once() {
    let mut tp = proc("inside", 60_000, LatePolicy::Discard);
    tp.process_event(&ev(1, 10_000, 5.0)).unwrap();
    tp.process_event(&ev(2, 20_000, 5.0)).unwrap();
    // Late event at t=15s, still within the 1-min window: must count.
    let (r, _) = tp.process_event(&ev(3, 15_000, 5.0)).unwrap();
    assert_eq!(count_of(&r), 3);
    // And it must expire exactly once: at t=76s only the t=20s event plus
    // the new arrival remain (15s and 10s expired).
    let (r, _) = tp.process_event(&ev(4, 76_000, 5.0)).unwrap();
    assert_eq!(count_of(&r), 2);
    // Conservation: total inserts == total evictions + live events.
    let (r, _) = tp.process_event(&ev(5, 500_000, 5.0)).unwrap();
    assert_eq!(count_of(&r), 1, "everything old expired exactly once");
}

/// The `count(*)` each event at `stamps` reads, on a task whose chunks
/// close at 4 events.
fn counts_over_4_event_chunks(tag: &str, hold_ms: i64, stamps: &[i64]) -> Vec<i64> {
    let mut tp = proc_chunked(tag, 4, hold_ms, LatePolicy::Discard);
    let mut counts = Vec::new();
    for (id, &ts) in stamps.iter().enumerate() {
        let (r, _) = tp.process_event(&ev(id as u64, ts, 1.0)).unwrap();
        counts.push(count_of(&r));
    }
    counts
}

/// The window's head reads each event once when a same-millisecond event
/// closes a chunk and the next opens one: the one it had already read is
/// behind its bound, whichever chunk it is in.
#[test]
fn same_millisecond_events_across_a_chunk_boundary_are_counted_once() {
    let counts = counts_over_4_event_chunks("tie", 0, &[10, 20, 30, 30, 30, 40, 200_000]);
    assert_eq!(counts, [1, 2, 3, 4, 5, 6, 1]);
}

/// A late event that closes a chunk is counted once, and so is the
/// same-millisecond event after it, with or without a transition hold.
#[test]
fn a_late_event_closing_a_chunk_is_counted_once() {
    for hold_ms in [0, 60_000] {
        let tag = format!("late-close-{hold_ms}");
        let counts = counts_over_4_event_chunks(&tag, hold_ms, &[10, 20, 30, 15, 30, 40, 200_000]);
        assert_eq!(counts, [1, 2, 3, 4, 5, 6, 1], "hold {hold_ms} ms");
    }
}

#[test]
fn too_late_event_discarded_does_not_corrupt_counts() {
    let mut tp = proc("discard", 0, LatePolicy::Discard);
    // Two full chunks (8 events each) finalize immediately (hold = 0).
    for i in 0..16 {
        tp.process_event(&ev(i, 30_000 + i as i64 * 10, 1.0)).unwrap();
    }
    // ts=1ms is far behind the finalized frontier: discarded.
    let (r, _) = tp.process_event(&ev(99, 1, 1.0)).unwrap();
    assert_eq!(count_of(&r), 16, "discarded event does not count");
    assert_eq!(tp.stats().late_dropped, 1);
    // Window still expires cleanly afterwards.
    let (r, _) = tp.process_event(&ev(100, 300_000, 1.0)).unwrap();
    assert_eq!(count_of(&r), 1);
}

#[test]
fn too_late_event_rewritten_is_counted_at_new_timestamp() {
    let mut tp = proc("rewrite", 0, LatePolicy::Rewrite);
    for i in 0..16 {
        tp.process_event(&ev(i, 30_000 + i as i64 * 10, 1.0)).unwrap();
    }
    let before = tp.stats();
    let (r, _) = tp.process_event(&ev(99, 1, 2.0)).unwrap();
    // Rewritten into the acceptable range => counted.
    assert_eq!(count_of(&r), 17);
    assert_eq!(tp.stats().late_dropped, before.late_dropped);
    // Expiry stays balanced.
    let (r, _) = tp.process_event(&ev(100, 400_000, 1.0)).unwrap();
    assert_eq!(count_of(&r), 1);
}

#[test]
fn interleaved_disorder_conserves_insert_evict_balance() {
    // A jittered stream (each timestamp ±400ms around an increasing base):
    // every admitted event must be inserted and evicted exactly once.
    let mut tp = proc("jitter", 5_000, LatePolicy::Discard);
    let mut state = 0xabcdu64;
    let mut admitted = 0u64;
    for i in 0..400u64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let jitter = (state % 800) as i64 - 400;
        let ts = 10_000 + i as i64 * 100 + jitter;
        let before = tp.stats();
        tp.process_event(&ev(i, ts, 1.0)).unwrap();
        let after = tp.stats();
        if after.late_dropped == before.late_dropped {
            admitted += 1;
        }
    }
    // Push far forward: everything admitted must have expired.
    let (r, _) = tp.process_event(&ev(9_999, 10_000_000, 1.0)).unwrap();
    assert_eq!(count_of(&r), 1, "only the final event remains in window");
    let s = tp.stats();
    assert_eq!(
        s.inserts,
        s.evictions + 1,
        "inserted-but-never-evicted events would corrupt aggregates \
         (admitted={admitted})"
    );
}

#[test]
fn schema_evolution_mid_stream() {
    // Rows describe themselves, so old chunks decode after the stream's
    // schema evolves; the engine keeps serving the original plan.
    let dir = tmp("evolve");
    let cfg = TaskConfig::default();
    let mut tp = TaskProcessor::open(&dir, "payments--cardId", 0, schema(), cfg).unwrap();
    tp.register_query(
        &parse_query("SELECT count(*) FROM payments GROUP BY cardId OVER sliding 1 hours").unwrap(),
    )
    .unwrap();
    for i in 0..20 {
        tp.process_event(&ev(i, i as i64 * 1000, 1.0)).unwrap();
    }
    let (r, _) = tp.process_event(&ev(20, 20_000, 1.0)).unwrap();
    assert_eq!(count_of(&r), 21);
    // 21 events across several chunks; reservoir holds them all.
    assert_eq!(tp.reservoir_stats().appended, 21);
}
