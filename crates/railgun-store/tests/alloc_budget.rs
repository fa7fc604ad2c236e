//! Allocation budget of the SSTable read path: a point read served from
//! a table — a hit, a key the bloom filter rejects, and a key it lets
//! through that the block then lacks — allocates nothing. Own test binary
//! because it installs a counting global allocator; the counter is per
//! thread, so other tests do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use railgun_store::bloom::BloomFilter;
use railgun_store::{Db, DbOptions};

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

#[test]
fn sst_point_reads_allocate_nothing() {
    let dir = std::env::temp_dir().join(format!("railgun-store-alloc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let opts = DbOptions::default();
    let bloom_bits = opts.bloom_bits_per_key;
    let db = Db::open(&dir, opts).unwrap();
    // ~100 B an entry: several 4 KiB blocks.
    let keys: Vec<Vec<u8>> = (0..200u32)
        .map(|i| format!("card/{i:05}").into_bytes())
        .collect();
    for k in &keys {
        db.put(Db::DEFAULT_CF, k, &[7u8; 88]).unwrap();
    }
    db.flush().unwrap();
    assert_eq!(db.stats().memtable_entries, 0);

    // The table's filter is a pure function of its keys: rebuild it to
    // pick one absent key on each side of it.
    let bloom = BloomFilter::build(&keys, bloom_bits);
    let absent = |admitted: bool| {
        (0u32..)
            .map(|i| format!("card/{i:05}x").into_bytes())
            .find(|k| bloom.may_contain(k) == admitted)
            .unwrap()
    };
    let (rejected, admitted) = (absent(false), absent(true));

    let value_len = |key: &[u8]| db.get_in(Db::DEFAULT_CF, key, <[u8]>::len).unwrap();
    let (hits, ()) = allocations_in(|| {
        for k in &keys {
            assert_eq!(value_len(k), Some(88));
        }
    });
    assert_eq!(hits, 0, "allocations over 200 SST-resident hits");
    let (n, got) = allocations_in(|| value_len(&rejected));
    assert_eq!((n, got), (0, None), "bloom-negative key");
    let (n, got) = allocations_in(|| value_len(&admitted));
    assert_eq!((n, got), (0, None), "bloom-positive absent key");

    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
