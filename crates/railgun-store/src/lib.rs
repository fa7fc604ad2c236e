//! # railgun-store — embedded LSM key-value store
//!
//! Railgun (the paper, §4.1.3) keeps per-metric aggregation state in an
//! embedded RocksDB instance. This crate is a from-scratch substitute with
//! the same shape: a log-structured merge store with
//!
//! * an in-memory, hash-indexed **memtable** per column family
//!   ([`memtable`]; key order is built only for scans and flushes) — and no
//!   write-ahead log or live manifest: the store is durable at a
//!   checkpoint and nowhere else (recovery restores the checkpoint and
//!   replays the input topic past it, as the paper does),
//! * immutable, block-structured **SSTables** with per-table bloom filters
//!   ([`sstable`], [`bloom`]),
//! * newest-wins **merge iterators** across memtable + tables ([`merge`]),
//! * size-tiered **compaction** ([`db`]),
//! * **column families** (used by `countDistinct` auxiliary state, §4.1.3)
//!   with per-CF tuning and compaction filters ([`options`]) — dead state
//!   (expired windows, unregistered queries) is dropped during merges
//!   instead of being deleted key-by-key,
//! * cheap **checkpoints** that flush, link the immutable tables and
//!   write a manifest ([`checkpoint`]), matching the paper's observation
//!   that checkpoints are efficient because data is frequently persisted
//!   anyway,
//! * a **virtual filesystem seam** ([`vfs`]) with deterministic fault
//!   injection ([`FaultFs`]) and a **crash-torture harness** ([`torture`])
//!   that proves every image recovery reads is exact by sweeping every
//!   registered crash point.
//!
//! The public entry point is [`Db`].
//!
//! ```
//! use railgun_store::{Db, DbOptions};
//! let dir = std::env::temp_dir().join(format!("railgun-doc-{}", std::process::id()));
//! let db = Db::open(&dir, DbOptions::default()).unwrap();
//! db.put(Db::DEFAULT_CF, b"k", b"v").unwrap();
//! assert_eq!(db.get(Db::DEFAULT_CF, b"k").unwrap().as_deref(), Some(&b"v"[..]));
//! # drop(db); std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod bloom;
pub mod checkpoint;
pub mod db;
pub mod memtable;
pub mod merge;
pub mod options;
pub mod sstable;
pub mod torture;
pub mod vfs;

pub use db::{CfStats, ColumnFamilyId, Db, DbOptions, DbStats};
pub use options::{CfOptions, CompactionFilter, FilterDecision};
pub use vfs::{crash_points, CrashPlan, FaultFs, RealFs, StoreFs};
