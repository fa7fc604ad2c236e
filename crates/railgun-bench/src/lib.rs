//! # railgun-bench — the paper-figure reproductions
//!
//! Reproduces the figures of the paper's evaluation (§5) by timing real
//! engine code and composing the samples through the `railgun-sim`
//! queueing models. Each figure has a bench target (run with
//! `cargo bench -p railgun-bench --bench <name>`):
//!
//! | target | reproduces |
//! |--------|------------|
//! | `fig8_flink_vs_railgun` | Figure 8 — Flink hopping-window latency vs Railgun sliding windows at 500 ev/s |
//! | `fig9a_window_size` | Figure 9(a) — Railgun latency across window sizes 5 min → 7 days |
//! | `fig9b_iterators` | Figure 9(b) — Railgun latency across 20 → 240 reservoir iterators |
//! | `fig10_node_scaling` | Figure 10 — per-node throughput & tail latency, 1 → 50 nodes |
//!
//! Set `RAILGUN_BENCH_SCALE=full` for paper-length runs (the default
//! `quick` profile keeps every figure under a few minutes). The engine's
//! measured performance is mad-bench's job (`bash benchmark/run.sh`, see
//! `benchmark/README.md`); methodology of these figures is in
//! EXPERIMENTS.md.

pub mod figures;
pub mod workload;

pub use figures::{bench_scale, fmt_ms, print_header, print_mad_check, print_series, BenchScale, ServicePool};
pub use workload::{
    compact_schema, payments_schema, queries, FraudGenerator, WorkloadConfig, Zipf,
};
