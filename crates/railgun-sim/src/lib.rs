//! # railgun-sim — the simulated testbed
//!
//! The paper evaluates Railgun on AWS: m5 instances, a Kafka broker fleet,
//! JVM heaps, 35-minute injection runs. This crate is the reproduction's
//! substitute testbed (DESIGN.md substitutions #3 and #5): the *engine
//! code measured by the benches is real*, and this crate supplies the
//! parts a laptop cannot — sustained wall-clock load, a broker fleet, a
//! garbage collector — as calibrated models:
//!
//! * [`queueing`] — FIFO servers modeling single-threaded processor units;
//! * [`latency`] — messaging-hop, GC-pause and disk-miss models calibrated
//!   against the published curves (constants documented in
//!   EXPERIMENTS.md);
//! * [`injector`] — open-loop injection with coordinated-omission-corrected
//!   measurement \[26\], as in §5;
//! * [`cluster`] — the fleet-scale composition used for Figure 10,
//!   including the broker-contention effect the paper observed at 35+
//!   nodes.

pub mod cluster;
pub mod injector;
pub mod latency;
pub mod queueing;

pub use cluster::{max_sustainable_rate, run_cluster, ClusterRunSummary, ClusterSimConfig};
pub use injector::{run_open_loop, InjectorConfig, RunSummary};
pub use latency::{DiskModel, GcModel, KafkaHopModel, LogNormal};
pub use queueing::FifoServer;
