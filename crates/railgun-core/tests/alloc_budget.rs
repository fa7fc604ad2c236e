//! Allocation budget of the pump path (pump mode, manual bus clock): an
//! idle pump of either side allocates nothing, and one closed-loop event
//! stays under a fixed count — the same count for a 2-field stream and for
//! a 103-field one under the same query, which is the guard that nothing
//! between `send_event` and the reply builds a whole row; a third stream
//! under `wide_plan`'s card queries (a 23-result reply) has a budget of its
//! own, the guard that neither the unit writing a reply nor the front-end
//! reading it allocates per result; a fourth stream, of more cards than a
//! task's state cache holds, keeps every row insert a cache miss (the
//! victim written back, the row read into its buffers) and stays under
//! the first budget. Own test binary because it installs a counting global
//! allocator; the counter is per thread, so the reservoir's I/O thread and
//! other tests do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use railgun_core::frontend::{BatchPolicy, FrontEnd};
use railgun_core::unit::{ProcessorUnit, UnitConfig};
use railgun_core::{EngineTelemetry, RailgunStrategy, TaskConfig};
use railgun_messaging::{BusClock, BusConfig, MessageBus};
use railgun_types::{FieldType, Schema, Timestamp, Value};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain thread-local `Cell` with a
// const initializer, so touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations (and reallocations) this thread makes while `f` runs.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Most allocations one closed-loop event may cost (send → unit pump →
/// front-end pump → take), whatever its arity. The worst of 64 measured
/// 15 (2 fields), 14 (103 fields) and 17 (2 fields, every row insert a
/// state-cache miss: the victim's write-back is a store put of a new key)
/// once rows stayed decoded in the state cache; 14 and 14 once the
/// front-end read replies
/// without allocating per result and the unit read reply topics in place;
/// 20 and 20 once tasks wrote replies straight into the unit's frame; 27
/// and 27 before; 28 and 27 when events became rows; before that the
/// 2-field stream made 39 (budget 48) and every further string field one
/// more.
const EVENT_BUDGET: u64 = 17;

/// The same for an event of the `cards` stream, whose 23-result reply
/// costs the front-end what its values cost (a topK report) plus one
/// entity, not a name and an entity per result; a row that misses the
/// state cache decodes into the buffers of the entry it replaces. The
/// worst of 64 measured 31
/// once rows and sketches stayed decoded in the task's state cache
/// (neither decoded nor encoded, nor written to the store, per event); 64
/// before, 142 once tasks wrote replies straight into the unit's frame,
/// 264 before that.
const WIDE_PLAN_BUDGET: u64 = 31;

/// `wide_plan`'s card queries.
const WIDE_PLAN: &[&str] = &[
    "SELECT sum(amount), count(*), avg(amount) FROM cards GROUP BY cardId OVER sliding 10 sec",
    "SELECT min(amount), max(amount) FROM cards GROUP BY cardId OVER sliding 10 sec",
    "SELECT sum(amount), count(*), avg(amount) FROM cards GROUP BY cardId OVER sliding 1 min",
    "SELECT min(amount), max(amount) FROM cards GROUP BY cardId OVER sliding 1 min",
    "SELECT sum(amount), count(*), avg(amount) FROM cards GROUP BY cardId OVER sliding 5 min",
    "SELECT min(amount), max(amount) FROM cards GROUP BY cardId OVER sliding 5 min",
    "SELECT sum(amount), count(amount) FROM cards WHERE amount > 100 \
     GROUP BY cardId OVER sliding 5 min",
    "SELECT count(*) FROM cards GROUP BY cardId OVER tumbling 1 min",
    "SELECT countDistinct(merchantId) approx 0.02 FROM cards GROUP BY cardId OVER sliding 5 min",
    "SELECT topK(merchantId, 5) FROM cards GROUP BY cardId OVER sliding 5 min",
    "SELECT percentile(amount, 99) FROM cards GROUP BY cardId OVER sliding 5 min",
];

const PARTITIONS: u32 = 2;

/// Fields of the wide stream (the paper's dataset has 103), 35 of them
/// strings.
const WIDE_FIELDS: usize = 103;

fn wide_schema() -> Schema {
    let names: Vec<String> = (2..WIDE_FIELDS).map(|i| format!("f{i:03}")).collect();
    let mut pairs = vec![("cardId", FieldType::Str), ("amount", FieldType::Float)];
    pairs.extend(names.iter().enumerate().map(|(i, n)| {
        let ty = [FieldType::Str, FieldType::Float, FieldType::Int][i % 3];
        (n.as_str(), ty)
    }));
    let schema = Schema::from_pairs(&pairs).unwrap();
    let strings = schema.fields().iter().filter(|f| f.ty == FieldType::Str);
    assert_eq!((schema.len(), strings.count()), (WIDE_FIELDS, 35));
    schema
}

/// Cards of the miss-heavy stream: per task, several times the rows its
/// state cache holds.
const MANY_CARDS: i64 = 16_384;

/// An event of `stream` (of `cards` cards): card and amount, then filler to
/// the schema.
fn event_values(schema: &Schema, cards: i64, seq: i64) -> Vec<Value> {
    let mut values = vec![Value::from(format!("card-{}", seq % cards)), Value::from(1.0)];
    values.extend(schema.fields()[2..].iter().map(|f| match f.ty {
        FieldType::Str => Value::from(format!("v{}", seq % 50)),
        FieldType::Float => Value::from(seq as f64 * 0.25),
        _ => Value::from(seq % 1_000),
    }));
    values
}

#[test]
fn idle_pumps_allocate_nothing_and_an_event_stays_in_budget() {
    let data = std::env::temp_dir().join(format!("railgun-alloc-budget-{}", std::process::id()));
    std::fs::remove_dir_all(&data).ok();
    let bus = MessageBus::new(BusConfig {
        session_timeout_ms: 10_000,
        clock: BusClock::Manual,
    });
    let hub = Arc::new(EngineTelemetry::new(false));
    let mut frontend =
        FrontEnd::new(&bus, 0, 64, BatchPolicy::default(), Arc::clone(&hub)).unwrap();
    let mut unit = ProcessorUnit::new(
        &bus,
        UnitConfig {
            node: 0,
            unit: 0,
            data_dir: data.clone(),
            task: TaskConfig {
                stats_registry: hub.task_registry(),
                ..TaskConfig::default()
            },
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
    let narrow =
        Schema::from_pairs(&[("cardId", FieldType::Str), ("amount", FieldType::Float)]).unwrap();
    let cards = Schema::from_pairs(&[
        ("cardId", FieldType::Str),
        ("amount", FieldType::Float),
        ("merchantId", FieldType::Str),
    ])
    .unwrap();
    let streams = [
        ("payments", narrow.clone(), 7),
        ("wide", wide_schema(), 7),
        ("cards", cards, 7),
        ("many", narrow, MANY_CARDS),
    ];
    for (stream, schema, _) in &streams {
        frontend
            .create_stream(&bus, stream, schema.clone(), &["cardId"], PARTITIONS, 1)
            .unwrap();
        if *stream == "cards" {
            for q in WIDE_PLAN {
                frontend.register_query(q).unwrap();
            }
            continue;
        }
        frontend
            .register_query(&format!(
                "SELECT sum(amount), count(*) FROM {stream} GROUP BY cardId OVER sliding 5 min"
            ))
            .unwrap();
    }
    while unit.active_tasks().len() < streams.len() * PARTITIONS as usize {
        unit.pump().unwrap();
        frontend.pump().unwrap();
    }

    let mut next_ts = 0i64;
    let mut closed_loop_event = |frontend: &mut FrontEnd,
                                 unit: &mut ProcessorUnit,
                                 (stream, schema, cards): &(&str, Schema, i64)| {
            next_ts += 1_000;
            let values = event_values(schema, *cards, next_ts / 1_000);
            allocations_in(|| {
                let id = frontend
                    .send_event(stream, Timestamp::from_millis(next_ts), values)
                    .unwrap();
                unit.pump().unwrap();
                frontend.pump().unwrap();
                frontend.try_take(id).expect("one pump each answers it")
            })
            .0
        };
    // Warm-up: scratch buffers, tables and all tasks reach steady state;
    // the miss-heavy stream goes round its cards once, filling its tasks'
    // state caches.
    for _ in 0..64 {
        for stream in &streams {
            closed_loop_event(&mut frontend, &mut unit, stream);
        }
    }
    for _ in 0..MANY_CARDS {
        closed_loop_event(&mut frontend, &mut unit, &streams[3]);
    }
    let misses = hub.task_registry().aggregate().state_reads;

    let (idle_unit, report) = allocations_in(|| unit.pump().unwrap());
    assert_eq!(report.active_events, 0);
    assert_eq!(idle_unit, 0, "an idle ProcessorUnit::pump allocates");
    let (idle_frontend, moved) = allocations_in(|| frontend.pump().unwrap());
    assert!(!moved, "an idle FrontEnd::pump reports work");
    assert_eq!(idle_frontend, 0, "an idle FrontEnd::pump allocates");

    for stream in &streams {
        let worst = (0..64)
            .map(|_| closed_loop_event(&mut frontend, &mut unit, stream))
            .max()
            .expect("64 events");
        let budget = match stream.0 {
            "cards" => WIDE_PLAN_BUDGET,
            _ => EVENT_BUDGET,
        };
        println!(
            "allocations per closed-loop `{}` event of {} fields (worst of 64): {worst}",
            stream.0,
            stream.1.len()
        );
        assert!(
            worst <= budget,
            "a closed-loop `{}` event of {} fields made {worst} allocations, budget {budget}",
            stream.0,
            stream.1.len()
        );
    }
    let misses = hub.task_registry().aggregate().state_reads - misses;
    assert!(misses >= 64, "the `many` events missed the state cache {misses} times");
    drop((frontend, unit));
    std::fs::remove_dir_all(&data).ok();
}
