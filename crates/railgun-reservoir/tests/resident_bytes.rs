//! What resident events cost: a durable chunk in the cache is the body the
//! I/O thread wrote plus a 32-byte index entry per event, so an event held
//! there costs its row, its id/timestamp deltas and that entry — not an
//! `Event` and a row allocation of its own — and `memory_bytes` says what
//! the chunks hold. Own test binary because it installs a global allocator
//! that counts live bytes (every thread's: the I/O thread builds the
//! durable form).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use railgun_reservoir::{Reservoir, ReservoirConfig};
use railgun_types::{Event, EventId, FieldType, Schema, Timestamp, Value};

/// Bytes allocated and not yet freed, by every thread. A statistic that
/// publishes nothing else, hence `Relaxed`.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct LiveBytes;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain atomic, so touching it
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// Most a durable, cached event may hold beyond its row: a 32-byte index
/// entry, one byte each of id and timestamp delta, and its share of what
/// the reservoir keeps per chunk. (An `Event` of its own is 80 bytes before
/// its row.)
const PER_EVENT: usize = 40;

#[test]
fn a_durable_cached_event_costs_its_row_and_an_index_entry() {
    let dir = std::env::temp_dir().join(format!("railgun-res-resident-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let schema = Schema::from_pairs(&[
        ("card", FieldType::Str),
        ("amount", FieldType::Float),
        ("n", FieldType::Int),
    ])
    .unwrap();
    let n = 20_480u64;
    let cfg = ReservoirConfig {
        cache_capacity_chunks: 1 + n as usize / ReservoirConfig::default().chunk_target_events,
        ..ReservoirConfig::default()
    };
    let res = Reservoir::open(&dir, schema, cfg).unwrap();
    let before = LIVE.load(Ordering::Relaxed);
    let mut rows = 0;
    for i in 0..n {
        let e = Event::new(
            EventId(i),
            Timestamp::from_millis(i as i64 * 7),
            vec![
                Value::Str(format!("card-{:05}", i % 50_000)),
                Value::Float(i as f64 * 0.25),
                Value::Int((i % 1000) as i64),
            ],
        );
        rows += e.row().len();
        res.append(e).unwrap();
    }
    res.flush_open_chunk().unwrap();
    res.flush_io().unwrap();
    let held = (LIVE.load(Ordering::Relaxed) - before) as usize;
    let stats = res.stats();
    assert_eq!(stats.cached_events, n as usize, "every event durable and cached");
    assert_eq!(stats.events_in_memory, n as usize);
    let per_event = held as f64 / n as f64 - rows as f64 / n as f64;
    println!(
        "{n} events, {rows} row bytes: {held} bytes held ({per_event:.1} per event beyond its row), \
         memory_bytes {}",
        stats.memory_bytes
    );
    assert!(
        held <= rows + PER_EVENT * n as usize,
        "{held} bytes held for {n} events of {rows} row bytes: over {PER_EVENT} per event beyond the row"
    );
    let off = stats.memory_bytes.abs_diff(held) as f64 / held as f64;
    assert!(off <= 0.15, "memory_bytes {} is {:.0}% off the {held} bytes held", stats.memory_bytes, off * 100.0);
    drop(res);
    std::fs::remove_dir_all(&dir).ok();
}
