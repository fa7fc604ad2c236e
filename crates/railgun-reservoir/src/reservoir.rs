//! The event reservoir (paper §4.1.1).
//!
//! A reservoir stores **all events of one task processor** and hands them
//! back to windows through cheap, monotonic [`Cursor`]s. It has two parts:
//! a very small in-memory part (the open chunk receiving arrivals, chunks in
//! transition awaiting late events, chunks waiting for the I/O thread, and
//! the bounded cache of written chunks) and a potentially huge on-disk part
//! (append-only segment files of chunk frames). Regardless of window
//! size, only a tiny number of chunks is in memory — the property behind
//! "windows of years are equivalent to windows of seconds" (§4.1.1,
//! Figure 9a).
//!
//! ## Chunk lifecycle
//!
//! `Open` → (`Transition`) → `Pending` → `Durable`
//!
//! * the **open** chunk accepts arrivals (insert-sorted by timestamp);
//! * once it reaches the size target it **closes**; if a transition hold is
//!   configured it lingers, closed for new events but open for late ones
//!   (the watermark-like mechanism of §4.1.1);
//! * finalization queues the chunk for the background I/O thread as it
//!   stands, its events each with a row of its own (**pending**). The
//!   reservoir keeps holding it, with the open and transition chunks, and
//!   cursors read it there;
//! * the I/O thread frames the events (their rows copied behind id/ts
//!   deltas into one body, then compressed where that pays:
//!   [`crate::compress`]), appends the frame to the
//!   active segment file, records its location, drops the pending chunk
//!   and caches the body it wrote plus a 32-byte index entry per event
//!   (**durable**). That is the form a chunk read back from disk has.
//!   The cache holds only such chunks, and may evict any of them.
//!
//! ## Durable at the checkpoint
//!
//! A segment is fsynced once, when it is sealed: at its size target, or by
//! [`Reservoir::checkpoint`], which seals the active file so that every
//! live segment is immutable and the image is a set of hard links. The
//! open and transition chunks go into the image too, framed like a
//! segment, so a restore is the whole task: the same chunks, the same
//! dedup set, the same late-event frontier. Recovery only ever reads an
//! image (§4.2), so nothing else needs to reach the disk first.
//!
//! ## Who owns an event's bytes
//!
//! An [`Event`]'s fields are an encoded row behind a reference count
//! (`railgun_types::event`). `append` copies the row into an allocation of
//! the reservoir's own: what it is handed is a slice of a bus frame holding
//! a whole batch, which a stored slice would keep alive for as long as the
//! chunk is in memory. Open, transition and pending chunks hold such
//! events: a late event can still be inserted between those of the first
//! two, and the third holds them only until the I/O thread has written
//! them. A durable chunk holds none: it is a [`RowBlock`], one body (the
//! uncompressed body of its frame, as the I/O thread wrote it or a cold
//! load decompressed it) and an index. The events a cursor yields from it
//! slice that body, which lives as long as any of them is held, so a
//! resident event costs its row, its deltas and its index entry.
//!
//! ## Cursor semantics
//!
//! A cursor's place is a chunk and a monotonic *bound*: advancing from
//! bound `a` to `b` yields, chunk by chunk from its own, every stored
//! event with `a <= ts < b`, in timestamp order. So an event stored
//! *behind* a cursor's bound is skipped by that cursor (and the engine
//! consistently excludes it from the window — both sides compare against
//! the same bound), and an append never touches a cursor. A cursor leaves
//! a chunk once every event in it is below its bound, unless the chunk is
//! open: a late event routed to the chunk later is at or below its last
//! timestamp, so behind the bound too, and no event escapes expiry.
//!
//! ## Cold loads
//!
//! A cursor that reaches a chunk neither in memory nor cached reads it
//! with the lock held, caches it and holds it; [`Reservoir::cursor_at`]
//! reads nothing, so a cursor's first advance loads its starting chunk
//! like any other. The lock has two users: the task owning the
//! reservoir, whose appends and cursor advances all run on its unit's
//! one thread (§3.2), and the I/O thread. The task never
//! waits on the I/O thread while holding the lock (a barrier waits on the
//! channel without it), so a read under the lock delays only the I/O
//! thread's bookkeeping. The other way round, the I/O thread's read-ahead
//! reads without the lock, so the task never waits on that disk read.

use std::collections::VecDeque;
use std::fs::File;
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::Arc;

use parking_lot::Mutex;
use railgun_types::{
    Counter, Event, EventId, FastHashMap, FastHashSet, RailgunError, Recorder, Result, RowBlock,
    Schema, SchemaId, TimeDelta, Timestamp,
};

use crate::cache::{CacheStats, ChunkCache};
use crate::compress::Codec;
use crate::format::{encode_chunk, ChunkId, DecodedChunk};
use crate::segment::{
    read_chunk_at, read_chunks, scan_segments, segment_file_name, ChunkLocation, FileNo,
    SegmentWriter,
};

/// The schema id every chunk is written under. Rows describe themselves
/// (each value carries its type), so no chunk decode looks a schema up.
const SCHEMA: SchemaId = SchemaId(0);

/// Image files holding the transition chunks and the open chunk, as
/// frames like a segment's ([`Reservoir::checkpoint`]).
const TRANSITION_FILE: &str = "transition.rail";
const OPEN_FILE: &str = "open.rail";

/// What to do with an event older than the last finalized chunk (§4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatePolicy {
    /// Drop the event (default: accuracy-preserving).
    Discard,
    /// Rewrite its timestamp to the oldest acceptable position.
    Rewrite,
}

/// Reservoir tuning knobs.
#[derive(Debug, Clone)]
pub struct ReservoirConfig {
    /// Close the open chunk after this many events.
    pub chunk_target_events: usize,
    /// ... or after approximately this many bytes of event payload.
    pub chunk_target_bytes: usize,
    /// Seal segment files at this size (they become immutable).
    pub file_target_bytes: u64,
    /// Chunk cache capacity, in chunks (the paper's experiments use 220).
    pub cache_capacity_chunks: usize,
    /// Keep closed chunks open for late events for this long (event time).
    /// Zero disables the transition state.
    pub transition_hold: TimeDelta,
    /// Policy for events older than the last finalized chunk.
    pub late_policy: LatePolicy,
    /// Chunk compression codec. Under [`Codec::RailZ`] a body that saves
    /// under an eighth of its first 4 KiB is written as literals past
    /// that point ([`crate::compress`]); either codec gives the same
    /// answers, only the bytes on disk and the CPU spent differ.
    pub codec: Codec,
    /// Eagerly load the next chunk when a cursor enters a new one.
    pub prefetch: bool,
    /// Telemetry: append-latency recorder (off by default — a disabled
    /// recorder never reads the clock, keeping the PR-2 hot-path numbers
    /// intact; see `railgun_types::metrics`).
    pub append_recorder: Recorder,
    /// Telemetry: cold-drain chunk-miss counter, mirroring
    /// [`CacheStats::misses`](crate::CacheStats) into a handle the
    /// engine's metrics plane can read without reaching into the
    /// reservoir (off by default).
    pub chunk_miss_counter: Counter,
}

impl Default for ReservoirConfig {
    fn default() -> Self {
        ReservoirConfig {
            chunk_target_events: 256,
            chunk_target_bytes: 64 << 10,
            file_target_bytes: 4 << 20,
            cache_capacity_chunks: 220,
            transition_hold: TimeDelta::ZERO,
            late_policy: LatePolicy::Discard,
            codec: Codec::RailZ,
            prefetch: true,
            append_recorder: Recorder::disabled(),
            chunk_miss_counter: Counter::disabled(),
        }
    }
}

/// Outcome of [`Reservoir::append`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendOutcome {
    /// Stored normally.
    Appended,
    /// An event with this id is already in an in-memory chunk (§3.3 dedup).
    Duplicate,
    /// Older than the last finalized chunk; dropped per [`LatePolicy`].
    LateDiscarded,
    /// Older than the last finalized chunk; stored with a rewritten
    /// timestamp.
    LateRewritten(Timestamp),
}

/// Monotonic reservoir counters and gauges.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReservoirStats {
    pub appended: u64,
    pub duplicates: u64,
    pub late_discarded: u64,
    pub late_rewritten: u64,
    pub chunks_finalized: u64,
    pub files_sealed: u64,
    pub bytes_written: u64,
    /// Chunk writes that failed. The next [`Reservoir::flush_io`] or
    /// [`Reservoir::checkpoint`] fails with the first of them.
    pub failed_persists: u64,
    /// Cold chunk loads by a cursor that failed (the read, or the frame's
    /// checks); each also reaches its owner through [`Cursor::take_error`].
    pub failed_loads: u64,
    /// Read-ahead loads that failed. Nothing waits on one: the cursor that
    /// reaches the chunk loads it itself, and that load retries the read
    /// and reports its error ([`ReservoirStats::failed_loads`]).
    pub failed_prefetches: u64,
    pub durable_chunks: usize,
    pub open_events: usize,
    pub transition_events: usize,
    /// Events of finalized chunks the I/O thread has not written yet.
    pub pending_events: usize,
    pub cached_events: usize,
    pub events_in_memory: usize,
    pub memory_bytes: usize,
    pub cursors: usize,
    pub cache: CacheStats,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkState {
    Open,
    Transition,
    /// Finalized, queued for the I/O thread, held in `Inner::pending`.
    Pending,
    /// On disk at the given location.
    Durable(ChunkLocation),
}

#[derive(Debug, Clone)]
struct ChunkMeta {
    id: ChunkId,
    first_ts: Timestamp,
    last_ts: Timestamp,
    count: u32,
    state: ChunkState,
}

/// A chunk held as its events, each with a row of its own (module docs):
/// open, transition or pending.
struct EventChunk {
    id: ChunkId,
    events: Vec<Event>,
    bytes: usize,
}

struct FileInfo {
    remaining_chunks: u32,
    sealed: bool,
}

/// A cursor's place (module docs): the chunk it reads next, and its bound.
#[derive(Debug, Clone)]
struct CursorPos {
    chunk: u64,
    bound: Timestamp,
    /// Where the last drain ended: a guess at where `bound` falls in
    /// `chunk`, checked before use, never fixed up (`drain_slice`).
    hint: usize,
    /// The decoded chunk this cursor currently iterates — held by the
    /// iterator itself, as in the paper's Figure 5 ("each iterator only
    /// needs one chunk in-memory"). The cache provides read-ahead.
    held: Option<Arc<DecodedChunk>>,
    /// Read-ahead already requested for the successor of the held chunk.
    prefetch_sent: bool,
}

struct Inner {
    /// Metadata for every live chunk, ids `first_chunk_id ..` contiguous.
    chunks: VecDeque<ChunkMeta>,
    first_chunk_id: u64,
    next_chunk_id: u64,
    open: Option<EventChunk>,
    transition: Vec<EventChunk>,
    /// Finalized chunks the I/O thread has not written yet, oldest first,
    /// each shared with its `IoCmd::Persist`. A chunk whose write failed
    /// stays here.
    pending: VecDeque<Arc<EventChunk>>,
    /// Written chunks only.
    cache: ChunkCache,
    files: FastHashMap<u64, FileInfo>,
    dedup: FastHashSet<EventId>,
    cursors: FastHashMap<u64, CursorPos>,
    next_cursor_id: u64,
    max_seen_ts: Timestamp,
    min_acceptable_ts: Timestamp,
    stats: ReservoirStats,
}

impl Inner {
    /// The chunks held as events: open, transition and pending.
    fn event_chunks(&self) -> impl Iterator<Item = &EventChunk> {
        let pending = self.pending.iter().map(Arc::as_ref);
        self.open.iter().chain(&self.transition).chain(pending)
    }

    /// The events of `chunk`, if it is held as events.
    fn events_of(&self, chunk: ChunkId) -> Option<&[Event]> {
        self.event_chunks()
            .find(|c| c.id == chunk)
            .map(|c| c.events.as_slice())
    }
}

enum IoCmd {
    /// Encode, compress and append a pending chunk, then cache the body
    /// written in its place. Encoding happens on the I/O thread so the
    /// append path never pays it under the lock.
    Persist(Arc<EventChunk>),
    /// Eagerly load a chunk into the cache (read-ahead, §4.1.1).
    Prefetch(ChunkId),
    /// Reply once every command before it is done, with the first chunk
    /// write that failed since the last barrier; `seal` seals the active
    /// segment first.
    Barrier {
        seal: bool,
        reply: SyncSender<Result<()>>,
    },
    Shutdown,
}

struct Shared {
    dir: PathBuf,
    cfg: ReservoirConfig,
    inner: Mutex<Inner>,
    io_tx: Sender<IoCmd>,
}

/// The disk-backed event store of one task processor.
pub struct Reservoir {
    shared: Arc<Shared>,
    io_thread: Option<std::thread::JoinHandle<()>>,
}

impl Reservoir {
    /// Open (or create) a reservoir in `dir`, recovering the chunks of its
    /// segments and, in a restored image, its open and transition chunks.
    /// Rows describe themselves, so the schema goes unused.
    pub fn open(dir: &Path, _schema: Schema, cfg: ReservoirConfig) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        let (recovered, next_file) = scan_segments(dir)?;
        let mut chunks: VecDeque<ChunkMeta> = VecDeque::new();
        let push = |chunks: &mut VecDeque<ChunkMeta>, chunk: &DecodedChunk, state| {
            match chunks.back() {
                Some(last) if chunk.id.0 != last.id.0 + 1 => {
                    return Err(RailgunError::Corruption(format!(
                        "non-contiguous chunk ids: expected {}, found {}",
                        last.id.0 + 1,
                        chunk.id.0
                    )))
                }
                _ => {}
            }
            chunks.push_back(ChunkMeta {
                id: chunk.id,
                first_ts: chunk.first_ts,
                last_ts: chunk.last_ts,
                count: chunk.len() as u32,
                state,
            });
            Ok(())
        };
        let mut files: FastHashMap<u64, FileInfo> = FastHashMap::default();
        let mut max_seen_ts = Timestamp::MIN;
        let mut min_acceptable_ts = Timestamp::MIN;
        for rc in &recovered {
            push(&mut chunks, &rc.chunk, ChunkState::Durable(rc.location))?;
            // Every recovered file is sealed: the writer starts a fresh
            // segment, so nothing will ever be appended to them again.
            files
                .entry(rc.location.file.0)
                .or_insert(FileInfo {
                    remaining_chunks: 0,
                    sealed: true,
                })
                .remaining_chunks += 1;
            max_seen_ts = max_seen_ts.max(rc.chunk.last_ts);
            min_acceptable_ts = rc.chunk.last_ts;
        }
        let mut dedup = FastHashSet::default();
        let mut mutable = |name: &str, state: ChunkState| -> Result<Vec<EventChunk>> {
            let path = dir.join(name);
            if !path.exists() {
                return Ok(Vec::new());
            }
            let restored = read_chunks(&path)?;
            // Loaded once: from here on these chunks live in memory and
            // reach a segment as any other chunk does.
            std::fs::remove_file(&path)?;
            let mut out = Vec::with_capacity(restored.len());
            for chunk in restored {
                push(&mut chunks, &chunk, state)?;
                let events = chunk.events();
                dedup.extend(events.iter().map(|e| e.id));
                max_seen_ts = max_seen_ts.max(chunk.last_ts);
                out.push(EventChunk {
                    id: chunk.id,
                    bytes: events.iter().map(Event::heap_size).sum(),
                    events,
                });
            }
            Ok(out)
        };
        let transition = mutable(TRANSITION_FILE, ChunkState::Transition)?;
        let open = mutable(OPEN_FILE, ChunkState::Open)?.pop();
        let first_chunk_id = chunks.front().map_or(0, |m| m.id.0);
        let next_chunk_id = chunks.back().map_or(0, |m| m.id.0 + 1);
        let stats = ReservoirStats {
            durable_chunks: recovered.len(),
            files_sealed: files.len() as u64,
            ..ReservoirStats::default()
        };
        let inner = Inner {
            chunks,
            first_chunk_id,
            next_chunk_id,
            open,
            transition,
            pending: VecDeque::new(),
            cache: {
                let mut cache = ChunkCache::new(cfg.cache_capacity_chunks);
                cache.set_miss_counter(cfg.chunk_miss_counter.clone());
                cache
            },
            files,
            dedup,
            cursors: FastHashMap::default(),
            next_cursor_id: 0,
            max_seen_ts,
            min_acceptable_ts,
            stats,
        };
        let (io_tx, io_rx) = std::sync::mpsc::channel();
        let shared = Arc::new(Shared {
            dir: dir.to_path_buf(),
            cfg,
            inner: Mutex::new(inner),
            io_tx,
        });
        let io_shared = Arc::clone(&shared);
        let writer = SegmentWriter::new(dir, shared.cfg.file_target_bytes, next_file);
        let io_thread = std::thread::Builder::new()
            .name("railgun-reservoir-io".into())
            .spawn(move || io_loop(io_shared, writer, io_rx))
            .map_err(RailgunError::Io)?;
        Ok(Reservoir {
            shared,
            io_thread: Some(io_thread),
        })
    }

    /// Append one event. See [`AppendOutcome`].
    ///
    /// The common case — an event at or past the open chunk's tail — is a
    /// push plus O(1) metadata updates; only out-of-order arrivals pay the
    /// binary-search insert. No cursor is read or moved (module docs).
    ///
    /// When [`ReservoirConfig::append_recorder`] is enabled, the full
    /// append latency (lock wait included — that is what the task
    /// processor experiences) is recorded in microseconds.
    pub fn append(&self, event: Event) -> Result<AppendOutcome> {
        let timer = self.shared.cfg.append_recorder.start();
        let outcome = {
            let mut inner = self.shared.inner.lock();
            self.append_locked(&mut inner, event)
        };
        self.shared.cfg.append_recorder.finish(timer);
        outcome
    }

    /// Append a whole batch under **one** lock acquisition. Each event
    /// runs exactly the same per-event body as [`Reservoir::append`] —
    /// dedup, late policy, routing, meta refresh and transition
    /// finalization are evaluated per event — so a batch leaves
    /// byte-identical chunks to appending the same events one at a time
    /// (the invariant the batched-ingest proptests pin).
    ///
    /// Returns one [`AppendOutcome`] per event, in order. An empty batch
    /// is a no-op. When the append recorder is enabled it receives one
    /// sample covering the whole batch.
    pub fn append_batch(
        &self,
        events: impl IntoIterator<Item = Event>,
    ) -> Result<Vec<AppendOutcome>> {
        let timer = self.shared.cfg.append_recorder.start();
        let result = {
            let mut inner = self.shared.inner.lock();
            let events = events.into_iter();
            let mut outcomes = Vec::with_capacity(events.size_hint().0);
            events
                .map(|event| self.append_locked(&mut inner, event))
                .try_for_each(|outcome| outcome.map(|o| outcomes.push(o)))
                .map(|()| outcomes)
        };
        self.shared.cfg.append_recorder.finish(timer);
        result
    }

    /// The per-event append body, run with the reservoir lock held. Both
    /// [`Reservoir::append`] (batch-of-1) and [`Reservoir::append_batch`]
    /// funnel through here, which is what keeps batched and sequential
    /// ingest byte-identical by construction.
    fn append_locked(&self, inner: &mut Inner, event: Event) -> Result<AppendOutcome> {
        // Single dedup probe: insert up front, roll back on the (rare)
        // late-discard path below.
        if !inner.dedup.insert(event.id) {
            inner.stats.duplicates += 1;
            return Ok(AppendOutcome::Duplicate);
        }
        let mut outcome = AppendOutcome::Appended;
        if event.ts < inner.min_acceptable_ts {
            match self.shared.cfg.late_policy {
                LatePolicy::Discard => {
                    inner.dedup.remove(&event.id);
                    inner.stats.late_discarded += 1;
                    return Ok(AppendOutcome::LateDiscarded);
                }
                LatePolicy::Rewrite => {
                    inner.stats.late_rewritten += 1;
                    outcome = AppendOutcome::LateRewritten(inner.min_acceptable_ts);
                }
            }
        }
        // The event stays: give it a row of the reservoir's own (module
        // docs), stamped with the timestamp it is stored under.
        let mut event = event.detached();
        if let AppendOutcome::LateRewritten(ts) = outcome {
            event.ts = ts;
        }
        inner.max_seen_ts = inner.max_seen_ts.max(event.ts);

        // Routing: events at or above the open-chunk boundary (the newest
        // transition chunk's last timestamp, or the finalized frontier when
        // no transition chunks exist) go to the open chunk; older ones go to
        // the newest transition chunk that can admit them.
        let boundary = inner
            .transition
            .last()
            .and_then(|t| t.events.last().map(|e| e.ts))
            .unwrap_or(inner.min_acceptable_ts);
        inner.stats.appended += 1;
        if event.ts >= boundary {
            if inner.open.is_none() {
                let id = ChunkId(inner.next_chunk_id);
                inner.next_chunk_id += 1;
                inner.chunks.push_back(ChunkMeta {
                    id,
                    first_ts: event.ts,
                    last_ts: event.ts,
                    count: 0,
                    state: ChunkState::Open,
                });
                inner.open = Some(EventChunk {
                    id,
                    events: Vec::with_capacity(self.shared.cfg.chunk_target_events),
                    bytes: 0,
                });
            }
            let open = inner.open.as_mut().expect("just ensured");
            insert_sorted(open, event);
            refresh_meta(&mut inner.chunks, inner.first_chunk_id, open);
            self.maybe_close_open(inner);
        } else {
            // `transition` is non-empty here: with no transition chunks the
            // boundary equals `min_acceptable_ts`, and anything below that
            // was already handled by the late-event policy above.
            //
            // Route to the *oldest* transition chunk whose last event is at
            // or after `ts`. Gap timestamps go to the *newer* neighbour, so
            // an insert never raises a chunk's last timestamp: a cursor that
            // moved past the chunk has its bound above the event (module
            // docs).
            let ti = inner
                .transition
                .iter()
                .position(|t| t.events.last().is_some_and(|e| e.ts >= event.ts))
                .unwrap_or(inner.transition.len() - 1);
            let chunk = &mut inner.transition[ti];
            insert_sorted(chunk, event);
            refresh_meta(&mut inner.chunks, inner.first_chunk_id, chunk);
        }
        self.finalize_ready_transitions(inner)?;
        Ok(outcome)
    }

    fn maybe_close_open(&self, inner: &mut Inner) {
        let close = match &inner.open {
            Some(o) => {
                o.events.len() >= self.shared.cfg.chunk_target_events
                    || o.bytes >= self.shared.cfg.chunk_target_bytes
            }
            None => false,
        };
        if close {
            let open = inner.open.take().expect("checked");
            let mi = (open.id.0 - inner.first_chunk_id) as usize;
            inner.chunks[mi].state = ChunkState::Transition;
            inner.transition.push(open);
        }
    }

    /// Finalize transition chunks the watermark has passed: hand them to
    /// the I/O thread. With a zero hold, chunks finalize the moment they
    /// close (no transition state).
    fn finalize_ready_transitions(&self, inner: &mut Inner) -> Result<()> {
        let hold = self.shared.cfg.transition_hold;
        while let Some(t) = inner.transition.first() {
            let last_ts = t.events.last().map(|e| e.ts).unwrap_or(Timestamp::MIN);
            let ready = !hold.is_positive() || last_ts + hold < inner.max_seen_ts;
            if !ready {
                break;
            }
            let t = inner.transition.remove(0);
            self.finalize_chunk(inner, t)?;
        }
        Ok(())
    }

    /// Finalize a closed chunk: keep it as pending and hand it to the I/O
    /// thread, which encodes, compresses and appends it. Keeping
    /// serialization off this path means `append` never stalls behind a
    /// chunk close for more than the O(1) bookkeeping here.
    fn finalize_chunk(&self, inner: &mut Inner, chunk: EventChunk) -> Result<()> {
        debug_assert!(!chunk.events.is_empty(), "chunks close only when non-empty");
        for e in &chunk.events {
            inner.dedup.remove(&e.id);
        }
        let last_ts = chunk.events.last().expect("non-empty").ts;
        inner.stats.chunks_finalized += 1;
        inner.min_acceptable_ts = inner.min_acceptable_ts.max(last_ts);
        let mi = (chunk.id.0 - inner.first_chunk_id) as usize;
        inner.chunks[mi].state = ChunkState::Pending;
        let chunk = Arc::new(chunk);
        inner.pending.push_back(Arc::clone(&chunk));
        self.shared
            .io_tx
            .send(IoCmd::Persist(chunk))
            .map_err(|_| RailgunError::Storage("reservoir io thread is gone".into()))?;
        Ok(())
    }

    /// Force-close the open chunk (used before checkpoints and in tests).
    pub fn flush_open_chunk(&self) -> Result<()> {
        let mut inner = self.shared.inner.lock();
        let inner = &mut *inner;
        if let Some(open) = inner.open.take() {
            if open.events.is_empty() {
                // Remove the empty meta we created for it.
                inner.chunks.pop_back();
                inner.next_chunk_id -= 1;
            } else {
                let mi = (open.id.0 - inner.first_chunk_id) as usize;
                inner.chunks[mi].state = ChunkState::Transition;
                inner.transition.push(open);
            }
        }
        // Finalize *everything* in transition regardless of watermark.
        while !inner.transition.is_empty() {
            let t = inner.transition.remove(0);
            self.finalize_chunk(inner, t)?;
        }
        Ok(())
    }

    /// Block until every queued chunk write is done (written, not
    /// fsynced: a checkpoint makes segments durable). Fails with the first
    /// chunk write that failed since the last barrier.
    pub fn flush_io(&self) -> Result<()> {
        self.barrier(false)
    }

    fn barrier(&self, seal: bool) -> Result<()> {
        let (reply, rx) = std::sync::mpsc::sync_channel(1);
        self.shared
            .io_tx
            .send(IoCmd::Barrier { seal, reply })
            .map_err(|_| RailgunError::Storage("reservoir io thread is gone".into()))?;
        rx.recv()
            .map_err(|_| RailgunError::Storage("reservoir io thread died".into()))?
    }

    /// Create a cursor at bound `from`, as if it had advanced to it
    /// (module docs), in the first chunk whose last event is at or past
    /// `from`, or else in the open chunk, where the next arrival lands.
    ///
    /// No chunk is read: the first advance loads a cold starting chunk as
    /// any advance does, and reports a failure through
    /// [`Cursor::take_error`].
    pub fn cursor_at(&self, from: Timestamp) -> Cursor {
        let mut inner = self.shared.inner.lock();
        let chunk = inner
            .chunks
            .iter()
            .find(|m| m.last_ts >= from || m.state == ChunkState::Open)
            .map_or(inner.next_chunk_id, |m| m.id.0);
        let id = inner.next_cursor_id;
        inner.next_cursor_id += 1;
        let pos = CursorPos {
            chunk,
            bound: from,
            hint: 0,
            held: None,
            prefetch_sent: false,
        };
        inner.cursors.insert(id, pos);
        Cursor {
            shared: Arc::clone(&self.shared),
            id,
            error: Mutex::new(None),
        }
    }

    /// Cursor positioned at the very beginning of the stored stream.
    pub fn cursor_at_start(&self) -> Cursor {
        self.cursor_at(Timestamp::MIN)
    }

    /// Drop durable chunks entirely below `before` (event time), deleting
    /// sealed segment files that no longer hold live chunks. Chunks still
    /// ahead of any cursor are never dropped, nor is the newest finalized
    /// chunk: its last timestamp is the late-event frontier, and a
    /// checkpoint image carries the frontier in it.
    pub fn truncate_before(&self, before: Timestamp) -> Result<usize> {
        let mut inner = self.shared.inner.lock();
        let inner = &mut *inner;
        let min_cursor_chunk = inner
            .cursors
            .values()
            .map(|c| c.chunk)
            .min()
            .unwrap_or(u64::MAX);
        let mut dropped = 0;
        while let Some(front) = inner.chunks.front() {
            let loc = match front.state {
                ChunkState::Durable(loc) => loc,
                _ => break,
            };
            let newest_finalized = !matches!(
                inner.chunks.get(1).map(|m| m.state),
                Some(ChunkState::Pending | ChunkState::Durable(_))
            );
            if front.last_ts >= before || front.id.0 >= min_cursor_chunk || newest_finalized {
                break;
            }
            let id = front.id;
            inner.chunks.pop_front();
            inner.first_chunk_id = id.0 + 1;
            inner.cache.remove(id);
            inner.stats.durable_chunks = inner.stats.durable_chunks.saturating_sub(1);
            dropped += 1;
            if let Some(fi) = inner.files.get_mut(&loc.file.0) {
                fi.remaining_chunks = fi.remaining_chunks.saturating_sub(1);
                if fi.remaining_chunks == 0 && fi.sealed {
                    inner.files.remove(&loc.file.0);
                    inner.stats.files_sealed = inner.stats.files_sealed.saturating_sub(1);
                    let path = self.shared.dir.join(segment_file_name(loc.file));
                    match std::fs::remove_file(path) {
                        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
                        _ => {}
                    }
                }
            }
        }
        Ok(dropped)
    }

    /// Checkpoint the whole reservoir into `target` (§4.1.3), the one point
    /// at which it is made durable. The I/O thread seals the active
    /// segment (its one fsync), so every live segment is immutable and is
    /// hard-linked into the image (copied where the filesystem refuses a
    /// link). The transition chunks and the open chunk are framed into
    /// the image as they stand — a checkpoint closes no chunk early, so
    /// answers do not depend on how often one runs. The image directory is
    /// fsynced last. Fails with the first chunk write that failed since
    /// the last barrier, and while any chunk whose write failed is still
    /// pending: the image would miss that chunk.
    pub fn checkpoint(&self, target: &Path) -> Result<()> {
        self.barrier(true)?;
        std::fs::create_dir_all(target)?;
        let inner = self.shared.inner.lock(); // freeze truncation while linking
        if let Some(unwritten) = inner.pending.front() {
            return Err(RailgunError::Storage(format!(
                "chunk {} is in no segment: its write failed",
                unwritten.id.0
            )));
        }
        for &no in inner.files.keys() {
            let name = segment_file_name(FileNo(no));
            let (from, to) = (self.shared.dir.join(&name), target.join(&name));
            if std::fs::hard_link(&from, &to).is_err() {
                std::fs::copy(&from, &to)?;
            }
        }
        let mut frames = Vec::new();
        let mutable = [
            (TRANSITION_FILE, inner.transition.as_slice()),
            (OPEN_FILE, inner.open.as_slice()),
        ];
        for (name, chunks) in mutable.into_iter().filter(|(_, c)| !c.is_empty()) {
            frames.clear();
            for c in chunks {
                encode_chunk(&mut frames, c.id, SCHEMA, self.shared.cfg.codec, &c.events);
            }
            let mut file = File::create(target.join(name))?;
            file.write_all(&frames)?;
            file.sync_all()?;
        }
        drop(inner);
        File::open(target)?.sync_all()?;
        Ok(())
    }

    /// Statistics snapshot.
    ///
    /// Every field is either a maintained counter or an O(1) gauge (the
    /// cache keeps incremental byte/event accounting; `durable_chunks` and
    /// `files_sealed` are updated at state transitions), so polling stats
    /// never walks chunks or cached events and cannot stall ingest — the
    /// only remaining per-call work is O(#transition and pending chunks),
    /// which the watermark and the I/O thread keep tiny.
    pub fn stats(&self) -> ReservoirStats {
        let inner = self.shared.inner.lock();
        let mut s = inner.stats.clone();
        s.cache = inner.cache.stats();
        s.open_events = inner.open.as_ref().map_or(0, |o| o.events.len());
        s.transition_events = inner.transition.iter().map(|t| t.events.len()).sum();
        s.pending_events = inner.pending.iter().map(|p| p.events.len()).sum();
        s.cached_events = inner.cache.resident_events();
        s.events_in_memory =
            s.open_events + s.transition_events + s.pending_events + s.cached_events;
        s.memory_bytes =
            inner.cache.heap_bytes() + inner.event_chunks().map(|c| c.bytes).sum::<usize>();
        s.cursors = inner.cursors.len();
        s
    }

    /// Highest event timestamp ever appended.
    pub fn max_seen_ts(&self) -> Timestamp {
        self.shared.inner.lock().max_seen_ts
    }
}

impl Drop for Reservoir {
    fn drop(&mut self) {
        let _ = self.shared.io_tx.send(IoCmd::Shutdown);
        if let Some(t) = self.io_thread.take() {
            let _ = t.join();
        }
    }
}

/// Insert an event into a mutable chunk keeping timestamp order (equal
/// timestamps keep arrival order). An in-order arrival (`ts` at or past
/// the tail) is a plain push; only an out-of-order one pays the binary
/// search and memmove. Both give the order of an insert at
/// `partition_point(ts <= e.ts)` (pinned by a property test below).
fn insert_sorted(chunk: &mut EventChunk, event: Event) {
    chunk.bytes += event.heap_size();
    match chunk.events.last() {
        Some(last) if event.ts < last.ts => {
            let idx = chunk.events.partition_point(|e| e.ts <= event.ts);
            chunk.events.insert(idx, event);
        }
        _ => chunk.events.push(event),
    }
}

/// Set a mutable chunk's metadata from its events: O(1), since they are
/// sorted.
fn refresh_meta(chunks: &mut VecDeque<ChunkMeta>, first_chunk_id: u64, chunk: &EventChunk) {
    if let (Some(first), Some(last)) = (chunk.events.first(), chunk.events.last()) {
        let meta = &mut chunks[(chunk.id.0 - first_chunk_id) as usize];
        meta.first_ts = first.ts;
        meta.last_ts = last.ts;
        meta.count = chunk.events.len() as u32;
    }
}

fn durable_location(inner: &Inner, chunk: ChunkId) -> Result<ChunkLocation> {
    if chunk.0 < inner.first_chunk_id {
        return Err(RailgunError::Storage(format!(
            "chunk {} was truncated",
            chunk.0
        )));
    }
    let mi = (chunk.0 - inner.first_chunk_id) as usize;
    match inner.chunks.get(mi).map(|m| m.state) {
        Some(ChunkState::Durable(loc)) => Ok(loc),
        other => Err(RailgunError::Storage(format!(
            "chunk {} is not durable ({other:?})",
            chunk.0
        ))),
    }
}

/// Load `chunk`, which a cursor found neither resident nor cached: read
/// its frame with the lock held and cache it (module docs). A failed
/// load is counted in [`ReservoirStats::failed_loads`].
fn load_cold(dir: &Path, inner: &mut Inner, chunk: ChunkId) -> Result<Arc<DecodedChunk>> {
    match durable_location(inner, chunk).and_then(|loc| read_chunk_at(dir, loc)) {
        Ok(decoded) => {
            let decoded = Arc::new(decoded);
            inner.cache.insert(Arc::clone(&decoded));
            Ok(decoded)
        }
        Err(e) => {
            inner.stats.failed_loads += 1;
            Err(e)
        }
    }
}

/// A monotonic reading position over a reservoir's event stream.
///
/// Cursors are created by [`Reservoir::cursor_at`]; every window has one
/// for its head (entering events), a sliding one another for its tail.
pub struct Cursor {
    shared: Arc<Shared>,
    id: u64,
    /// Why the last cold load failed, until the owner takes it.
    error: Mutex<Option<RailgunError>>,
}

impl Cursor {
    /// The error (naming segment file and offset) of a cold chunk load this
    /// cursor could not complete, handed out once. Such a drain yields
    /// nothing further and does not commit its bound — a window driven by
    /// this cursor has stopped sliding — so its owner checks after every
    /// advance.
    pub fn take_error(&self) -> Option<RailgunError> {
        self.error.lock().take()
    }

    /// Yield every stored event with `previous bound <= ts < bound` into
    /// `out`, in timestamp order, and make `bound` the cursor's bound.
    /// Bounds are monotonic: a smaller-or-equal bound than a previous call
    /// yields nothing.
    ///
    /// The whole advance runs under the reservoir lock. Chunk by chunk
    /// from the cursor's own, it finds the range by binary search (module
    /// docs) and batch-copies it from chunks in memory (open, transition,
    /// pending, held or cached), and reads a cold chunk inline.
    ///
    /// A cold load that fails ends the drain short of `bound`, and the
    /// bound stays where it was, so the next advance retries the read;
    /// see [`Cursor::take_error`].
    pub fn advance_upto_into(&self, bound: Timestamp, out: &mut Vec<Event>) {
        self.advance_locked(&mut self.shared.inner.lock(), bound, out);
    }

    /// [`Cursor::advance_upto_into`] with the lock held.
    fn advance_locked(&self, inner: &mut Inner, bound: Timestamp, out: &mut Vec<Event>) {
        // Copied out and written back: taking it out of the map with
        // `remove` and re-inserting it measured slower per advance.
        let Some(mut pos) = inner.cursors.get(&self.id).cloned() else {
            return;
        };
        if pos.bound >= bound {
            return;
        }
        match self.drain(inner, &mut pos, bound, out) {
            Ok(()) => pos.bound = bound,
            Err(e) => *self.error.lock() = Some(e),
        }
        inner.cursors.insert(self.id, pos);
    }

    /// The body of [`Cursor::advance_upto_into`]: copy the events in
    /// `pos.bound..bound` into `out`, moving `pos` chunk by chunk and
    /// loading the cold ones. `pos.bound` is left to the caller.
    fn drain(
        &self,
        inner: &mut Inner,
        pos: &mut CursorPos,
        bound: Timestamp,
        out: &mut Vec<Event>,
    ) -> Result<()> {
        while (inner.first_chunk_id..inner.next_chunk_id).contains(&pos.chunk) {
            let mi = (pos.chunk - inner.first_chunk_id) as usize;
            let state = inner.chunks[mi].state;
            let chunk = ChunkId(pos.chunk);
            match state {
                ChunkState::Open | ChunkState::Transition | ChunkState::Pending => {
                    pos.held = None;
                    let events = inner
                        .events_of(chunk)
                        .expect("a chunk in no segment is held as events");
                    // A drained transition or pending chunk is safe to move
                    // past: a late event routed to it is behind the bound
                    // (module docs). The open chunk is never crossed.
                    pos.hint = drain_slice(events, pos.bound..bound, pos.hint, out);
                    if pos.hint < events.len() || state == ChunkState::Open {
                        return Ok(());
                    }
                    pos.chunk += 1;
                }
                ChunkState::Durable(_) => {
                    // Figure 5: the iterator holds its current chunk; the
                    // cache is only consulted on chunk transitions.
                    let decoded = match &pos.held {
                        Some(held) if held.id == chunk => Arc::clone(held),
                        _ => {
                            let decoded = match inner.cache.get(chunk) {
                                Some(hit) => hit,
                                None => load_cold(&self.shared.dir, inner, chunk)?,
                            };
                            pos.held = Some(Arc::clone(&decoded));
                            pos.prefetch_sent = false;
                            decoded
                        }
                    };
                    let rows = &decoded.rows;
                    let end = drain_slice(rows, pos.bound..bound, pos.hint, out);
                    pos.hint = end;
                    // Eager read-ahead, issued just-in-time (when the
                    // iterator is most of the way through its chunk) so
                    // prefetched chunks are not evicted before use.
                    if self.shared.cfg.prefetch && !pos.prefetch_sent && end * 4 >= rows.len() * 3 {
                        pos.prefetch_sent = true;
                        // Only a written chunk the cache lacks: the I/O
                        // thread drops a request for one held as events,
                        // and whether it is written yet is timing, which
                        // made this send (and the channel's allocations)
                        // timing too.
                        let next = ChunkId(pos.chunk + 1);
                        let written = inner.chunks.get(mi + 1).map(|m| m.state);
                        if matches!(written, Some(ChunkState::Durable(_)))
                            && !inner.cache.contains(next)
                        {
                            let _ = self.shared.io_tx.send(IoCmd::Prefetch(next));
                        }
                    }
                    if end < rows.len() {
                        return Ok(());
                    }
                    pos.chunk += 1;
                    pos.held = None;
                }
            }
        }
        Ok(())
    }

    /// Convenience wrapper collecting into a fresh vector.
    pub fn advance_upto(&self, bound: Timestamp) -> Vec<Event> {
        let mut out = Vec::new();
        self.advance_upto_into(bound, &mut out);
        out
    }
}

impl Drop for Cursor {
    fn drop(&mut self) {
        self.shared.inner.lock().cursors.remove(&self.id);
    }
}

/// What a cursor reads from a chunk in memory, in timestamp order: the
/// events of a chunk held as events, or the rows of a written one.
trait EventRows {
    /// Timestamp of event `i`, if there is one.
    fn ts(&self, i: usize) -> Option<Timestamp>;
    /// Index of the first event at or after `start` with `ts >= bound`.
    fn seek(&self, start: usize, bound: Timestamp) -> usize;
    /// Append (clones of) the events at `range` to `out`.
    fn copy_into(&self, range: Range<usize>, out: &mut Vec<Event>);
    /// Whether `seek(0, bound)` is `i`, checked in O(1): the event before
    /// `i` is below `bound`, and the one at `i` (if any) is not.
    fn starts_at(&self, i: usize, bound: Timestamp) -> bool {
        let below = |j| self.ts(j).is_some_and(|ts| ts < bound);
        (i == 0 || below(i - 1)) && !below(i)
    }
}

impl EventRows for [Event] {
    fn ts(&self, i: usize) -> Option<Timestamp> {
        self.get(i).map(|e| e.ts)
    }

    fn seek(&self, start: usize, bound: Timestamp) -> usize {
        start + self[start..].partition_point(|e| e.ts < bound)
    }

    fn copy_into(&self, range: Range<usize>, out: &mut Vec<Event>) {
        out.extend_from_slice(&self[range]);
    }
}

impl EventRows for RowBlock {
    fn ts(&self, i: usize) -> Option<Timestamp> {
        self.ts(i)
    }

    fn seek(&self, start: usize, bound: Timestamp) -> usize {
        self.partition_point(start, |ts| ts < bound)
    }

    fn copy_into(&self, range: Range<usize>, out: &mut Vec<Event>) {
        out.extend(range.map(|i| self.event(i)));
    }
}

/// Batch-copy the chunk's events with `ts` in `range` into `out` (binary
/// searches and one extend, not a per-event loop), the first search saved
/// when `range.start` falls at `hint`. Returns the index past the last one
/// copied: the chunk's length once every event in it is below `range.end`.
fn drain_slice(
    rows: &(impl EventRows + ?Sized),
    range: Range<Timestamp>,
    hint: usize,
    out: &mut Vec<Event>,
) -> usize {
    let start = if rows.starts_at(hint, range.start) {
        hint
    } else {
        rows.seek(0, range.start)
    };
    let end = rows.seek(start, range.end);
    rows.copy_into(start..end, out);
    end
}

fn io_loop(shared: Arc<Shared>, mut writer: SegmentWriter, rx: Receiver<IoCmd>) {
    let mut frame = Vec::new();
    // The first chunk write that failed since the last barrier: its chunk
    // stays pending, readable but in no segment.
    let mut failed: Option<RailgunError> = None;
    while let Ok(cmd) = rx.recv() {
        match cmd {
            IoCmd::Persist(pending) => {
                // Encode + compress here, off the append path. The events
                // are shared with the reservoir's pending chunk, so readers
                // are served while this runs.
                frame.clear();
                let written =
                    encode_chunk(&mut frame, pending.id, SCHEMA, shared.cfg.codec, &pending.events);
                let appended = writer.append(&frame);
                let mut inner = shared.inner.lock();
                let inner = &mut *inner;
                let (loc, sealed) = match appended {
                    Ok(appended) => appended,
                    Err(e) => {
                        inner.stats.failed_persists += 1;
                        failed.get_or_insert(e);
                        continue;
                    }
                };
                inner.stats.bytes_written += frame.len() as u64;
                // Truncation stops at the first chunk in no segment, so a
                // pending chunk's meta is live.
                let mi = (pending.id.0 - inner.first_chunk_id) as usize;
                inner.chunks[mi].state = ChunkState::Durable(loc);
                inner.stats.durable_chunks += 1;
                inner.pending.retain(|p| p.id != pending.id);
                inner
                    .files
                    .entry(loc.file.0)
                    .or_insert(FileInfo {
                        remaining_chunks: 0,
                        sealed: false,
                    })
                    .remaining_chunks += 1;
                if sealed {
                    mark_sealed(inner, loc.file);
                }
                inner.cache.insert(Arc::new(written));
            }
            IoCmd::Prefetch(chunk) => {
                // Snapshot the location under the lock, read without it.
                let loc = {
                    let inner = shared.inner.lock();
                    if inner.cache.contains(chunk) {
                        continue;
                    }
                    match durable_location(&inner, chunk) {
                        Ok(loc) => loc,
                        Err(_) => continue,
                    }
                };
                // A failed read is only counted: the cursor that asked
                // for it loads the chunk itself on arrival, and that load
                // reports the error (`Cursor::take_error`) and retries.
                let read = read_chunk_at(&shared.dir, loc);
                let mut inner = shared.inner.lock();
                match read {
                    Ok(decoded) if !inner.cache.contains(chunk) => {
                        inner.cache.insert_prefetched(Arc::new(decoded))
                    }
                    Ok(_) => {}
                    Err(_) => inner.stats.failed_prefetches += 1,
                }
            }
            IoCmd::Barrier { seal, reply } => {
                let mut result = failed.take().map_or(Ok(()), Err);
                if seal {
                    match writer.seal_active() {
                        Ok(Some(file)) => mark_sealed(&mut shared.inner.lock(), file),
                        Ok(None) => {}
                        Err(e) => result = result.and(Err(e)),
                    }
                }
                let _ = reply.send(result);
            }
            IoCmd::Shutdown => break,
        }
    }
}

/// The writer sealed `file`: it takes no more chunks, so truncation may
/// delete it once it holds no live one.
fn mark_sealed(inner: &mut Inner, file: FileNo) {
    if let Some(fi) = inner.files.get_mut(&file.0) {
        if !fi.sealed {
            fi.sealed = true;
            inner.stats.files_sealed += 1;
        }
    }
}

#[cfg(test)]
mod insert_path_tests {
    use super::*;
    use proptest::prelude::*;
    use railgun_types::{FieldType, Value};

    /// The pre-fast-path insert: always binary-search + `Vec::insert`.
    fn insert_reference(events: &mut Vec<Event>, event: Event) {
        let idx = events.partition_point(|e| e.ts <= event.ts);
        events.insert(idx, event);
    }

    fn chunk_bytes(events: &[Event]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_chunk(
            &mut out,
            ChunkId(9),
            SchemaId(1),
            crate::compress::Codec::RailZ,
            events,
        );
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The append fast path and the reference insert path must produce
        /// byte-identical finalized chunks for any arrival order, including
        /// shuffled-late inputs and timestamp ties (which keep arrival
        /// order on both paths).
        #[test]
        fn fast_path_matches_reference_insert(
            lateness in proptest::collection::vec(0i64..40, 1..200),
        ) {
            let mut fast = EventChunk {
                id: ChunkId(9),
                events: Vec::new(),
                bytes: 0,
            };
            let mut reference: Vec<Event> = Vec::new();
            for (i, late) in lateness.iter().enumerate() {
                // Mostly in-order stream with a sprinkle of late arrivals
                // (ties included: `late` may equal the step gap exactly).
                let ts = i as i64 * 10 - late;
                let e = Event::new(
                    EventId(i as u64),
                    Timestamp::from_millis(ts),
                    vec![Value::Int(i as i64)],
                );
                insert_sorted(&mut fast, e.clone());
                insert_reference(&mut reference, e);
            }
            prop_assert_eq!(&fast.events, &reference);
            prop_assert_eq!(chunk_bytes(&fast.events), chunk_bytes(&reference));
        }
    }

    #[test]
    fn ties_keep_arrival_order_and_a_late_event_goes_first() {
        let mut chunk = EventChunk {
            id: ChunkId(0),
            events: Vec::new(),
            bytes: 0,
        };
        let e = |id: u64, ts: i64| {
            Event::new(EventId(id), Timestamp::from_millis(ts), vec![Value::Int(id as i64)])
        };
        for (id, ts) in [(1, 10), (2, 10), (3, 5), (4, 10)] {
            insert_sorted(&mut chunk, e(id, ts));
        }
        let ids: Vec<u64> = chunk.events.iter().map(|ev| ev.id.0).collect();
        assert_eq!(ids, vec![3, 1, 2, 4], "ties keep arrival order");
    }

    /// A cursor part-way through a chunk the I/O thread has not written
    /// yet reads on from the same position once the chunk is written and
    /// cached: the block holds the events in the order the chunk did.
    #[test]
    fn a_cursor_keeps_its_place_when_its_pending_chunk_is_written() {
        let dir = std::env::temp_dir().join(format!("railgun-res-pending-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let schema = Schema::from_pairs(&[("n", FieldType::Int)]).unwrap();
        let cfg = ReservoirConfig {
            chunk_target_events: 4,
            prefetch: false,
            ..ReservoirConfig::default()
        };
        let res = Reservoir::open(&dir, schema, cfg).unwrap();
        let ev = |i: u64| {
            Event::new(EventId(i), Timestamp::from_millis(i as i64), vec![Value::Int(i as i64)])
        };
        let c = res.cursor_at_start();
        let mut out = Vec::new();
        {
            // With the lock held the I/O thread may write chunk 0, but it
            // cannot record it or drop the pending chunk.
            let mut inner = res.shared.inner.lock();
            for i in 0..6 {
                res.append_locked(&mut inner, ev(i)).unwrap();
            }
            assert_eq!(inner.chunks[0].state, ChunkState::Pending);
            assert_eq!(inner.pending.len(), 1);
            assert!(!inner.cache.contains(ChunkId(0)), "the cache holds written chunks only");
            c.advance_locked(&mut inner, Timestamp::from_millis(2), &mut out);
        }
        res.flush_io().unwrap();
        let s = res.stats();
        assert_eq!((s.pending_events, s.cached_events, s.open_events), (0, 4, 2));
        c.advance_upto_into(Timestamp::MAX, &mut out);
        let ids: Vec<u64> = out.iter().map(|e| e.id.0).collect();
        assert_eq!(ids, (0..6).collect::<Vec<_>>());
        drop((c, res));
        std::fs::remove_dir_all(&dir).ok();
    }
}
