//! Allocation budget of the pump path (pump mode, manual bus clock): an
//! idle pump of either side allocates nothing, and one closed-loop event
//! stays under a fixed count. Own test binary because it installs a
//! counting global allocator; the counter is per thread, so the
//! reservoir's I/O thread and other tests do not disturb it.

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
/// front-end pump → take). The worst of 64 measured 39 when this test was
/// written; the commit before it made 53.
const EVENT_BUDGET: u64 = 48;

const PARTITIONS: u32 = 2;

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
    let schema =
        Schema::from_pairs(&[("cardId", FieldType::Str), ("amount", FieldType::Float)]).unwrap();
    frontend
        .create_stream(&bus, "payments", schema, &["cardId"], PARTITIONS, 1)
        .unwrap();
    frontend
        .register_query(
            "SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
    while unit.active_tasks().len() < PARTITIONS as usize {
        unit.pump().unwrap();
        frontend.pump().unwrap();
    }

    let mut next_ts = 0i64;
    let mut closed_loop_event = |frontend: &mut FrontEnd, unit: &mut ProcessorUnit| {
        next_ts += 1_000;
        let values = vec![
            Value::from(format!("card-{}", next_ts % 7)),
            Value::from(1.0),
        ];
        allocations_in(|| {
            let id = frontend
                .send_event("payments", Timestamp::from_millis(next_ts), values)
                .unwrap();
            unit.pump().unwrap();
            frontend.pump().unwrap();
            frontend.try_take(id).expect("one pump each answers it")
        })
        .0
    };
    // Warm-up: scratch buffers, tables and both tasks reach steady state.
    for _ in 0..64 {
        closed_loop_event(&mut frontend, &mut unit);
    }

    let (idle_unit, report) = allocations_in(|| unit.pump().unwrap());
    assert_eq!(report.active_events, 0);
    assert_eq!(idle_unit, 0, "an idle ProcessorUnit::pump allocates");
    let (idle_frontend, ()) = allocations_in(|| frontend.pump().unwrap());
    assert_eq!(idle_frontend, 0, "an idle FrontEnd::pump allocates");

    let worst = (0..64)
        .map(|_| closed_loop_event(&mut frontend, &mut unit))
        .max()
        .expect("64 events");
    println!("allocations per closed-loop event (worst of 64): {worst}");
    assert!(
        worst <= EVENT_BUDGET,
        "a closed-loop event made {worst} allocations, budget {EVENT_BUDGET}"
    );
    drop((frontend, unit));
    std::fs::remove_dir_all(&data).ok();
}
