//! Chunk cache with eager read-ahead accounting.
//!
//! The reservoir keeps a bounded number of decoded chunks in memory
//! (§4.1.1, §5.2(b): "we used 220 chunk elements in Railgun's cache"). The
//! cache is an LRU over [`DecodedChunk`]s with two wrinkles:
//!
//! * chunks that are closed but not yet durable on disk are **pinned** —
//!   they are the only copy of their events, so eviction must skip them.
//!   A pinned chunk holds its events as appended; once written, the
//!   I/O thread swaps it for the body it wrote plus a row index
//!   ([`ChunkCache::unpin`]), the form a chunk read back from disk has, so
//!   every evictable chunk costs its body and 32 bytes per event;
//! * hit/miss/prefetch statistics feed the Figure 9(b) reproduction, where
//!   tail latency degrades once the number of live iterators approaches the
//!   cache capacity.
//!
//! Byte and event accounting is kept per entry at insert and swap time
//! ([`DecodedChunk::heap_bytes`]), so reading it is O(1).

use std::collections::HashMap;
use std::sync::Arc;

use crate::format::{ChunkId, DecodedChunk};

/// Cache counters (monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups satisfied from the cache.
    pub hits: u64,
    /// Lookups that required a disk load + deserialization.
    pub misses: u64,
    /// Chunks inserted by the read-ahead path.
    pub prefetch_inserts: u64,
    /// Chunks evicted to make room.
    pub evictions: u64,
}

/// Bounded LRU of decoded chunks.
pub struct ChunkCache {
    capacity: usize,
    entries: HashMap<ChunkId, CacheEntry>,
    /// Logical clock for LRU ordering.
    tick: u64,
    stats: CacheStats,
    /// Incremental accounting so [`ChunkCache::heap_bytes`] /
    /// [`ChunkCache::resident_events`] are O(1) — stats polling must never
    /// walk resident chunks (it shares the reservoir lock with ingest).
    resident_heap: usize,
    resident_events: usize,
    /// Shared telemetry mirror of [`CacheStats::misses`] — lets the
    /// engine's metrics plane observe cold-drain chunk misses without
    /// reaching into the reservoir (disabled by default).
    miss_counter: railgun_types::Counter,
}

struct CacheEntry {
    chunk: Arc<DecodedChunk>,
    last_used: u64,
    pinned: bool,
    /// Heap footprint, computed once at insert.
    heap: usize,
}

impl ChunkCache {
    /// Create a cache holding at most `capacity` chunks (min 1).
    pub fn new(capacity: usize) -> Self {
        ChunkCache {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            tick: 0,
            stats: CacheStats::default(),
            resident_heap: 0,
            resident_events: 0,
            miss_counter: railgun_types::Counter::disabled(),
        }
    }

    /// Attach a shared telemetry counter that mirrors
    /// [`CacheStats::misses`] (each miss increments both).
    pub fn set_miss_counter(&mut self, counter: railgun_types::Counter) {
        self.miss_counter = counter;
    }

    /// Configured capacity in chunks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident chunks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no chunks are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a chunk, bumping its recency and counting a hit.
    pub fn get(&mut self, id: ChunkId) -> Option<Arc<DecodedChunk>> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(&id) {
            Some(e) => {
                e.last_used = tick;
                self.stats.hits += 1;
                Some(Arc::clone(&e.chunk))
            }
            None => {
                self.stats.misses += 1;
                self.miss_counter.incr();
                None
            }
        }
    }

    /// Peek without touching recency or stats (used by memory accounting).
    pub fn contains(&self, id: ChunkId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Insert a chunk loaded on demand (after a miss).
    pub fn insert(&mut self, chunk: Arc<DecodedChunk>) {
        self.insert_inner(chunk, false, false);
    }

    /// Insert a chunk loaded by read-ahead.
    pub fn insert_prefetched(&mut self, chunk: Arc<DecodedChunk>) {
        self.stats.prefetch_inserts += 1;
        self.insert_inner(chunk, false, true);
    }

    /// Insert a freshly closed chunk that is not yet durable; it cannot be
    /// evicted until [`ChunkCache::unpin`] is called.
    pub fn insert_pinned(&mut self, chunk: Arc<DecodedChunk>) {
        self.insert_inner(chunk, true, false);
    }

    fn insert_inner(&mut self, chunk: Arc<DecodedChunk>, pinned: bool, _prefetch: bool) {
        self.tick += 1;
        let id = chunk.id;
        let heap = chunk.heap_bytes();
        let events = chunk.len();
        let entry = CacheEntry {
            chunk,
            last_used: self.tick,
            pinned,
            heap,
        };
        self.resident_heap += heap;
        self.resident_events += events;
        if let Some(prev) = self.entries.insert(id, entry) {
            self.resident_heap -= prev.heap;
            self.resident_events -= prev.chunk.len();
        }
        self.evict_to_capacity();
    }

    /// A pinned chunk is durable: hold it as `durable` (its written form,
    /// the same events in the same order, so a cursor index into either
    /// names the same event) and let it be evicted.
    pub fn unpin(&mut self, durable: Arc<DecodedChunk>) {
        if let Some(e) = self.entries.get_mut(&durable.id) {
            let heap = durable.heap_bytes();
            self.resident_heap = self.resident_heap - e.heap + heap;
            e.heap = heap;
            e.chunk = durable;
            e.pinned = false;
        }
        self.evict_to_capacity();
    }

    fn evict_to_capacity(&mut self) {
        while self.entries.len() > self.capacity {
            let victim = self
                .entries
                .iter()
                .filter(|(_, e)| !e.pinned)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(id, _)| *id);
            match victim {
                Some(id) => {
                    self.remove(id);
                    self.stats.evictions += 1;
                }
                None => break, // everything pinned; over-capacity until unpin
            }
        }
    }

    /// Drop a chunk outright (used by eviction and truncation).
    pub fn remove(&mut self, id: ChunkId) {
        if let Some(prev) = self.entries.remove(&id) {
            self.resident_heap -= prev.heap;
            self.resident_events -= prev.chunk.len();
        }
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Total heap bytes of resident chunks (O(1), maintained incrementally).
    pub fn heap_bytes(&self) -> usize {
        self.resident_heap
    }

    /// Total events resident (O(1), maintained incrementally).
    pub fn resident_events(&self) -> usize {
        self.resident_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::Codec;
    use crate::format::{encode_chunk, ChunkRows};
    use railgun_types::{Event, EventId, SchemaId, Timestamp, Value};

    fn chunk(id: u64) -> Arc<DecodedChunk> {
        Arc::new(DecodedChunk {
            id: ChunkId(id),
            schema: railgun_types::SchemaId(0),
            first_ts: Timestamp::from_millis(id as i64 * 100),
            last_ts: Timestamp::from_millis(id as i64 * 100 + 99),
            rows: ChunkRows::Pending(vec![]),
        })
    }

    #[test]
    fn unpin_swaps_in_the_durable_form_and_its_bytes() {
        let events: Vec<Event> = (0..3)
            .map(|i| Event::new(EventId(i), Timestamp::from_millis(i as i64), vec![Value::Int(7)]))
            .collect();
        let form = |rows| {
            Arc::new(DecodedChunk {
                id: ChunkId(1),
                schema: railgun_types::SchemaId(0),
                first_ts: Timestamp::from_millis(0),
                last_ts: Timestamp::from_millis(2),
                rows,
            })
        };
        let pending = form(ChunkRows::Pending(events.clone()));
        let mut frame = Vec::new();
        let block = encode_chunk(&mut frame, ChunkId(1), SchemaId(0), Codec::None, &events);
        let durable = form(ChunkRows::Block(block));
        assert!(durable.heap_bytes() < pending.heap_bytes());
        let mut c = ChunkCache::new(4);
        c.insert(chunk(2));
        c.insert_pinned(Arc::clone(&pending));
        c.unpin(Arc::clone(&durable));
        assert_eq!(c.resident_events(), 3);
        assert_eq!(c.heap_bytes(), chunk(2).heap_bytes() + durable.heap_bytes());
        let held = c.get(ChunkId(1)).unwrap();
        assert!(Arc::ptr_eq(&held, &durable));
        assert_eq!(held.events(), pending.events());
    }

    #[test]
    fn hit_and_miss_counting() {
        let mut c = ChunkCache::new(4);
        c.insert(chunk(1));
        assert!(c.get(ChunkId(1)).is_some());
        assert!(c.get(ChunkId(2)).is_none());
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ChunkCache::new(2);
        c.insert(chunk(1));
        c.insert(chunk(2));
        c.get(ChunkId(1)); // 2 is now LRU
        c.insert(chunk(3));
        assert!(c.contains(ChunkId(1)));
        assert!(!c.contains(ChunkId(2)));
        assert!(c.contains(ChunkId(3)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn pinned_chunks_survive_eviction() {
        let mut c = ChunkCache::new(2);
        c.insert_pinned(chunk(1));
        c.insert_pinned(chunk(2));
        c.insert(chunk(3)); // over capacity, but 1 and 2 are pinned
        assert!(c.contains(ChunkId(1)));
        assert!(c.contains(ChunkId(2)));
        // The unpinned chunk 3 is the only candidate.
        assert!(!c.contains(ChunkId(3)));
    }

    #[test]
    fn unpin_allows_eviction() {
        let mut c = ChunkCache::new(1);
        c.insert_pinned(chunk(1));
        c.insert(chunk(2)); // 2 evicted immediately (1 pinned)
        assert_eq!(c.len(), 1);
        c.unpin(chunk(1));
        c.insert(chunk(3));
        assert!(!c.contains(ChunkId(1)));
        assert!(c.contains(ChunkId(3)));
    }

    #[test]
    fn capacity_at_least_one() {
        let c = ChunkCache::new(0);
        assert_eq!(c.capacity(), 1);
    }

    #[test]
    fn prefetch_insert_counted() {
        let mut c = ChunkCache::new(4);
        c.insert_prefetched(chunk(9));
        assert_eq!(c.stats().prefetch_inserts, 1);
        assert!(c.contains(ChunkId(9)));
    }

    #[test]
    fn remove_drops_entry() {
        let mut c = ChunkCache::new(4);
        c.insert(chunk(1));
        c.remove(ChunkId(1));
        assert!(c.is_empty());
    }
}
