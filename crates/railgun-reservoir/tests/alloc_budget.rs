//! Allocations of a cold chunk load: reading a chunk frame back from its
//! segment file, checking it, holding its events and dropping them costs
//! the same handful of allocations whether the chunk has ten events or
//! two hundred, of three fields or of a hundred and three — the events
//! are slices of the one decompressed body, not values built one by one.
//! Own test binary because it installs a counting global allocator (per
//! thread, so other tests do not disturb it).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use railgun_reservoir::format::{encode_chunk, ChunkId};
use railgun_reservoir::segment::{read_chunk_at, FileNo, SegmentWriter};
use railgun_reservoir::Codec;
use railgun_types::{Event, EventId, SchemaId, Timestamp, Value};

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

/// Most allocations one cold load may make: path, file buffer, body,
/// shared body, event vector — and nothing per event. (The commit before
/// events were rows made about 35 per 103-field event.)
const LOAD_BUDGET: u64 = 12;

/// `n` events of `arity` fields, a third of them strings, no two alike
/// (so the body compresses like real rows do, not like a test pattern).
fn events(n: u64, arity: usize) -> Vec<Event> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..n)
        .map(|i| {
            let values = (0..arity)
                .map(|f| match f % 3 {
                    0 => Value::Str(format!("card-{:08}", next() % 100_000_000)),
                    1 => Value::Float(f64::from_bits(next() >> 2)),
                    _ => Value::Int((next() % 10_000) as i64),
                })
                .collect();
            Event::new(EventId(i), Timestamp::from_millis(i as i64 * 10), values)
        })
        .collect()
}

#[test]
fn a_cold_load_allocates_the_same_whatever_the_chunk_holds() {
    let dir = std::env::temp_dir().join(format!("railgun-res-alloc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mut writer = SegmentWriter::new(&dir, 64 << 20, FileNo(0));
    let mut counts = Vec::new();
    for codec in [Codec::RailZ, Codec::None] {
        for (n, arity) in [(10u64, 3usize), (200, 3), (10, 103), (200, 103)] {
            let events = events(n, arity);
            let mut frame = Vec::new();
            encode_chunk(&mut frame, ChunkId(counts.len() as u64), SchemaId(0), codec, &events);
            let (loc, _) = writer.append(&frame).unwrap();
            let before = ALLOCATIONS.with(Cell::get);
            let chunk = read_chunk_at(&dir, loc).unwrap();
            let held = chunk.rows.len();
            drop(chunk);
            let made = ALLOCATIONS.with(Cell::get) - before;
            assert_eq!(held, n as usize);
            println!("{codec:?}, {n} events of {arity} fields: {made} allocations");
            counts.push(made);
        }
    }
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "allocations of a cold load vary with what the chunk holds: {counts:?}"
    );
    assert!(counts[0] <= LOAD_BUDGET, "{} allocations, budget {LOAD_BUDGET}", counts[0]);
    std::fs::remove_dir_all(&dir).ok();
}
