//! Model-based test of reservoir cursors (§4.1.1, Figure 5): a cursor's
//! place is its bound, so an advance from bound `a` to `b` yields exactly
//! the stored events with `a <= ts < b` — whatever arrived in between (in
//! order, late inside or beyond the transition hold, same-millisecond
//! ties, duplicates) and wherever the chunks holding them are (open,
//! transition, pending, cached or cold). An event stored behind a
//! cursor's bound is below every later `a`, so it is never yielded.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use railgun_reservoir::{AppendOutcome, Cursor, LatePolicy, Reservoir, ReservoirConfig};
use railgun_types::{Event, EventId, FieldType, Schema, TimeDelta, Timestamp, Value};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh() -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("railgun-cursor-model-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn ev(id: u64, ts: i64) -> Event {
    let values = vec![Value::Int(id as i64)];
    Event::new(EventId(id), Timestamp::from_millis(ts), values)
}

const CURSORS: u64 = 4;

/// One step: `(kind, amount, pick)`.
///
/// * 0 — append a new id at the newest timestamp plus `amount` (0 is a
///   same-millisecond tie);
/// * 1 — append a new id `amount` ms behind the newest timestamp (inside
///   or beyond the transition hold);
/// * 2 — append the `pick`-th most recent id again (likely still in
///   memory), at the newest timestamp plus `amount`;
/// * 3 — append an id from anywhere in the history again (likely already
///   written), at the newest timestamp plus `amount`;
/// * 4 — put a new cursor in slot `pick` at the newest timestamp minus
///   `amount` (negative: past the newest event);
/// * 5 — advance the cursor in slot `pick` by `amount` ms;
/// * 6 — wait for the I/O thread (`flush_io`).
fn op() -> impl Strategy<Value = (u8, i64, u64)> {
    prop_oneof![
        8 => (0u8..1, 0i64..3, 0u64..1),
        3 => (1u8..2, 1i64..160, 0u64..1),
        1 => (2u8..3, 0i64..3, 0u64..6),
        1 => (3u8..4, 0i64..3, 0u64..1_000),
        2 => (4u8..5, -30i64..200, 0u64..CURSORS),
        4 => (5u8..6, 0i64..90, 0u64..CURSORS),
        1 => (6u8..7, 0i64..1, 0u64..1),
    ]
}

/// A live cursor and the bound the model says it has.
struct ModelCursor {
    cursor: Cursor,
    bound: Timestamp,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn an_advance_yields_exactly_the_stored_events_between_its_bounds(
        (hold, rewrite) in (0i64..3, 0u8..2),
        ops in proptest::collection::vec(op(), 1..160),
    ) {
        let dir = fresh();
        let cfg = ReservoirConfig {
            chunk_target_events: 4,
            cache_capacity_chunks: 2,
            file_target_bytes: 256,
            transition_hold: TimeDelta::from_millis(hold * 40),
            late_policy: if rewrite == 1 { LatePolicy::Rewrite } else { LatePolicy::Discard },
            ..ReservoirConfig::default()
        };
        let schema = Schema::from_pairs(&[("n", FieldType::Int)]).unwrap();
        let res = Reservoir::open(&dir, schema, cfg).unwrap();
        // Every stored event as (ts, id), and every id appended so far.
        let mut stored: Vec<(i64, u64)> = Vec::new();
        let mut ids: Vec<u64> = Vec::new();
        let mut newest = 1_000i64;
        let mut cursors: Vec<Option<ModelCursor>> = (0..CURSORS).map(|_| None).collect();
        for (kind, amount, pick) in ops {
            match kind {
                0..=3 => {
                    let ts = if kind == 1 { newest - amount } else { newest + amount };
                    let id = match kind {
                        2 if !ids.is_empty() => ids[ids.len() - 1 - (pick as usize % ids.len())],
                        3 if !ids.is_empty() => ids[pick as usize % ids.len()],
                        _ => ids.len() as u64,
                    };
                    let stored_ts = match res.append(ev(id, ts)).unwrap() {
                        AppendOutcome::Appended => Some(ts),
                        AppendOutcome::LateRewritten(at) => Some(at.as_millis()),
                        AppendOutcome::Duplicate | AppendOutcome::LateDiscarded => None,
                    };
                    if let Some(at) = stored_ts {
                        stored.push((at, id));
                        newest = newest.max(at);
                    }
                    if id == ids.len() as u64 {
                        ids.push(id);
                    }
                }
                4 => {
                    let bound = Timestamp::from_millis(newest - amount);
                    let cursor = res.cursor_at(bound);
                    cursors[pick as usize] = Some(ModelCursor { cursor, bound });
                }
                5 => {
                    let Some(c) = cursors[pick as usize].as_mut() else {
                        continue;
                    };
                    let to = c.bound + TimeDelta::from_millis(amount);
                    let mut out = Vec::new();
                    c.cursor.advance_upto_into(to, &mut out);
                    prop_assert!(c.cursor.take_error().is_none());
                    prop_assert!(
                        out.windows(2).all(|w| w[0].ts <= w[1].ts),
                        "yielded out of timestamp order"
                    );
                    let mut got: Vec<(i64, u64)> =
                        out.iter().map(|e| (e.ts.as_millis(), e.id.0)).collect();
                    let (from, to) = (c.bound.as_millis(), to.as_millis());
                    let mut want: Vec<(i64, u64)> = stored
                        .iter()
                        .copied()
                        .filter(|&(ts, _)| from <= ts && ts < to)
                        .collect();
                    got.sort_unstable();
                    want.sort_unstable();
                    prop_assert_eq!(got, want, "advance {}..{}", from, to);
                    c.bound = c.bound.max(Timestamp::from_millis(to));
                }
                _ => res.flush_io().unwrap(),
            }
        }
        drop(cursors);
        drop(res);
        std::fs::remove_dir_all(&dir).ok();
    }
}
