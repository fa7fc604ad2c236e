//! Shared data types for the Railgun streaming engine.
//!
//! This crate defines the vocabulary every other Railgun crate speaks:
//! [`Event`]s flowing through streams, the dynamically-typed [`Value`]s
//! carried by their fields, [`Schema`]s describing field layout (rows
//! describe themselves, so stored chunks still decode after a schema
//! evolves), millisecond-resolution [`Timestamp`]s / [`TimeDelta`]s used
//! by windows, and the common [`RailgunError`] type.
//!
//! It also hosts the shared observability vocabulary: the log-bucketed
//! [`Histogram`] (moved here from `railgun-sim`) and the near-zero-cost
//! [`metrics`] recording layer ([`Recorder`]/[`Counter`]) the engine's
//! telemetry plane records stage latencies through.
//!
//! Everything here is deliberately small and dependency-free so that the
//! storage, messaging, and engine crates can share it without coupling.

pub mod block;
pub mod encode;
pub mod error;
pub mod event;
pub mod hash;
pub mod histogram;
pub mod metrics;
pub mod schema;
pub mod time;
pub mod value;

pub use block::{RowBlock, RowBlockReader, RowBlockWriter};
pub use encode::{BatchFrame, BatchFrameBuilder};
pub use error::{RailgunError, Result};
pub use hash::{FastHashMap, FastHashSet, KeyHashMap};
pub use event::{Event, EventId};
pub use histogram::Histogram;
pub use metrics::{AtomicHistogram, Counter, LatencyLadder, Recorder};
pub use schema::{FieldDef, FieldType, Schema, SchemaId};
pub use time::{TimeDelta, Timestamp};
pub use value::Value;
