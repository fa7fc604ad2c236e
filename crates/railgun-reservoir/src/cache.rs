//! Chunk cache with eager read-ahead accounting.
//!
//! The reservoir keeps a bounded number of decoded chunks in memory
//! (§4.1.1, §5.2(b): "we used 220 chunk elements in Railgun's cache"). The
//! cache is an LRU over [`DecodedChunk`]s, and it holds only chunks that
//! are in a segment file: the I/O thread inserts a chunk once it has
//! written it, and a cursor or read-ahead once it has read it back. Either
//! way the entry is the chunk's body plus a 32-byte index entry per event,
//! and any entry may be evicted, since the disk holds it too. A chunk
//! waiting for the I/O thread is the reservoir's to hold, with the open
//! and transition chunks.
//!
//! Hit/miss/prefetch statistics feed the Figure 9(b) reproduction, where
//! tail latency degrades once the number of live iterators approaches the
//! cache capacity. Byte and event accounting is kept per entry at insert
//! time ([`DecodedChunk::heap_bytes`]), so reading it is O(1).

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

    /// Peek without touching recency or stats (used by read-ahead).
    pub fn contains(&self, id: ChunkId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Insert a chunk just written, or loaded on demand (after a miss),
    /// evicting the least recently used one if the cache is full.
    pub fn insert(&mut self, chunk: Arc<DecodedChunk>) {
        self.tick += 1;
        let id = chunk.id;
        let heap = chunk.heap_bytes();
        let events = chunk.len();
        let entry = CacheEntry {
            chunk,
            last_used: self.tick,
            heap,
        };
        self.resident_heap += heap;
        self.resident_events += events;
        if let Some(prev) = self.entries.insert(id, entry) {
            self.resident_heap -= prev.heap;
            self.resident_events -= prev.chunk.len();
        }
        if self.entries.len() > self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(id, _)| *id)
                .expect("a cache over capacity holds a chunk");
            self.remove(victim);
            self.stats.evictions += 1;
        }
    }

    /// Insert a chunk loaded by read-ahead.
    pub fn insert_prefetched(&mut self, chunk: Arc<DecodedChunk>) {
        self.stats.prefetch_inserts += 1;
        self.insert(chunk);
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
    use crate::format::encode_chunk;
    use railgun_types::{Event, EventId, SchemaId, Timestamp, Value};

    /// Chunk `id` as the I/O thread leaves it: `id + 1` events.
    fn chunk(id: u64) -> Arc<DecodedChunk> {
        let events: Vec<Event> = (0..=id)
            .map(|i| Event::new(EventId(i), Timestamp::from_millis(i as i64), vec![Value::Int(7)]))
            .collect();
        let mut frame = Vec::new();
        Arc::new(encode_chunk(&mut frame, ChunkId(id), SchemaId(0), Codec::None, &events))
    }

    #[test]
    fn bytes_and_events_follow_inserts_evictions_and_removals() {
        let mut c = ChunkCache::new(2);
        c.insert(chunk(1));
        c.insert(chunk(2));
        assert_eq!(c.resident_events(), 2 + 3);
        assert_eq!(c.heap_bytes(), chunk(1).heap_bytes() + chunk(2).heap_bytes());
        c.insert(chunk(3)); // evicts chunk 1
        assert_eq!(c.resident_events(), 3 + 4);
        c.insert(chunk(3)); // the same chunk again replaces its entry
        assert_eq!(c.len(), 2);
        assert_eq!(c.heap_bytes(), chunk(2).heap_bytes() + chunk(3).heap_bytes());
        c.remove(ChunkId(2));
        c.remove(ChunkId(3));
        assert_eq!((c.heap_bytes(), c.resident_events()), (0, 0));
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
