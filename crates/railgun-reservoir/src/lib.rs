//! # railgun-reservoir — the disk-backed event reservoir
//!
//! Real-time sliding windows cannot discard events: every event must be
//! re-read exactly once when it expires from each window. The **event
//! reservoir** (paper §4.1.1, an evolution of the SlideM algorithm) makes
//! that affordable for windows of hours, days or years by exploiting the
//! predictable, timestamp-ordered access pattern of streaming windows:
//!
//! * arrivals accumulate in a small in-memory **open chunk**, insert-sorted
//!   by timestamp;
//! * closed chunks are framed ([`mod@format`]: the events' encoded rows behind
//!   id/timestamp deltas), **compressed** where that saves at least an
//!   eighth ([`compress`]) and appended asynchronously to immutable
//!   **segment files** ([`segment`]);
//! * windows read through [`Cursor`]s that load chunks via a bounded
//!   **cache** with eager read-ahead ([`cache`]) — in steady state the next
//!   chunk is already resident when a window needs it, so disk never sits on
//!   the latency-critical path;
//! * **late events** are admitted while their chunk is open or in
//!   transition, then discarded or timestamp-rewritten per policy;
//! * events are **deduplicated by id** against in-memory chunks, which
//!   combined with at-least-once delivery yields exactly-once processing;
//! * a **checkpoint** is the reservoir's one durability point: it seals
//!   the active segment, hard-links every live one and frames the open
//!   and transition chunks into the image, so a restore is the whole
//!   reservoir. Rows describe themselves, so there is no schema registry.
//!
//! Memory usage is bounded by the chunk cache, *independent of window
//! size* — the enabler for the paper's Figure 9(a): "windows of years are
//! equivalent to windows of seconds".
//!
//! ```
//! use railgun_reservoir::{Reservoir, ReservoirConfig};
//! use railgun_types::{Event, EventId, FieldType, Schema, Timestamp, Value};
//!
//! let dir = std::env::temp_dir().join(format!("reservoir-doc-{}", std::process::id()));
//! # std::fs::remove_dir_all(&dir).ok();
//! let schema = Schema::from_pairs(&[("amount", FieldType::Float)]).unwrap();
//! let res = Reservoir::open(&dir, schema, ReservoirConfig::default()).unwrap();
//!
//! for i in 0..10 {
//!     let e = Event::new(EventId(i), Timestamp::from_millis(i as i64 * 100),
//!                        vec![Value::Float(1.0)]);
//!     res.append(e).unwrap();
//! }
//! // A window tail: expire everything before t=500.
//! let tail = res.cursor_at_start();
//! let expired = tail.advance_upto(Timestamp::from_millis(500));
//! assert_eq!(expired.len(), 5);
//! # drop(tail); drop(res); std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod cache;
pub mod compress;
pub mod format;
pub mod reservoir;
pub mod segment;

pub use cache::CacheStats;
pub use compress::Codec;
pub use format::{ChunkId, DecodedChunk};
pub use reservoir::{
    AppendOutcome, Cursor, LatePolicy, Reservoir, ReservoirConfig, ReservoirStats,
};
