//! Shared machinery for the per-figure benchmark harnesses.
//!
//! Each figure bench follows the same recipe (DESIGN.md substitution #5):
//!
//! 1. run *real engine code* on the synthetic fraud workload, measuring
//!    per-event service times;
//! 2. feed the measured service-time distribution into the open-loop
//!    queueing simulation at the paper's injection rate, with the
//!    calibrated messaging/GC models;
//! 3. print the paper's percentile ladder per series.
//!
//! Scale is controlled by `RAILGUN_BENCH_SCALE` (`quick` default, `full`
//! for paper-length runs).

use std::time::Instant;

use railgun_types::Histogram;

/// Measurement/simulation sizes.
#[derive(Debug, Clone, Copy)]
pub struct BenchScale {
    /// Events executed against the real engine to sample service times.
    pub measure_events: u64,
    /// Events pushed through the queueing simulation.
    pub sim_events: u64,
    /// Reservoir prefill events for steady-state window iteration.
    pub prefill_events: u64,
}

/// Resolve the scale from `RAILGUN_BENCH_SCALE` (`tiny`, `quick`, `full`).
pub fn bench_scale() -> BenchScale {
    match std::env::var("RAILGUN_BENCH_SCALE").as_deref() {
        Ok("full") => BenchScale {
            measure_events: 100_000,
            sim_events: 1_000_000,
            prefill_events: 400_000,
        },
        Ok("tiny") => BenchScale {
            measure_events: 1_500,
            sim_events: 30_000,
            prefill_events: 5_000,
        },
        _ => BenchScale {
            measure_events: 12_000,
            sim_events: 150_000,
            prefill_events: 60_000,
        },
    }
}

/// A pool of measured per-event service times, cycled by the simulator.
///
/// Resampling a measured empirical distribution keeps the simulation
/// faithful to the real engine while decoupling simulated run length from
/// (slow) real execution.
#[derive(Debug, Clone)]
pub struct ServicePool {
    samples: Vec<u64>,
}

impl ServicePool {
    /// Capture service times by timing `f(seq)` for `n` sequential events.
    pub fn measure(n: u64, mut f: impl FnMut(u64)) -> Self {
        let mut samples = Vec::with_capacity(n as usize);
        for seq in 0..n {
            let t = Instant::now();
            f(seq);
            samples.push(t.elapsed().as_micros().max(1) as u64);
        }
        ServicePool { samples }
    }

    /// Like [`ServicePool::measure`], but paces invocations at
    /// `interval_us` of wall time (timing only `f` itself). Used when the
    /// measured engine relies on background work — e.g. the reservoir's
    /// asynchronous read-ahead — that needs its real-time budget between
    /// events.
    pub fn measure_paced(n: u64, interval_us: u64, mut f: impl FnMut(u64)) -> Self {
        let mut samples = Vec::with_capacity(n as usize);
        let start = Instant::now();
        for seq in 0..n {
            let deadline = std::time::Duration::from_micros(seq * interval_us);
            while start.elapsed() < deadline {
                std::thread::yield_now();
            }
            let t = Instant::now();
            f(seq);
            samples.push(t.elapsed().as_micros().max(1) as u64);
        }
        ServicePool { samples }
    }

    /// Service time for simulated event `seq` (cycles the pool), plus a
    /// fixed surcharge in µs (used to model JVM per-state-op costs).
    pub fn sample(&self, seq: u64, surcharge_us: u64) -> u64 {
        self.samples[(seq % self.samples.len() as u64) as usize] + surcharge_us
    }

    /// Mean measured service time, µs.
    pub fn mean_us(&self) -> f64 {
        self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
    }

    /// p99 measured service time, µs.
    pub fn p99_us(&self) -> u64 {
        let mut v = self.samples.clone();
        v.sort_unstable();
        let idx = (((v.len() as f64) * 0.99) as usize).min(v.len() - 1);
        v[idx]
    }
}

/// Format µs as ms with sensible precision.
pub fn fmt_ms(us: u64) -> String {
    let ms = us as f64 / 1000.0;
    if ms < 10.0 {
        format!("{ms:.2}")
    } else if ms < 1000.0 {
        format!("{ms:.1}")
    } else {
        format!("{ms:.0}")
    }
}

/// Print the header row of the paper's percentile ladder.
pub fn print_header(figure: &str, caption: &str) {
    println!();
    println!("=== {figure}: {caption} ===");
    println!(
        "{:<28} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "series (latency in ms)",
        "p0",
        "p50",
        "p75",
        "p90",
        "p95",
        "p99",
        "p99.9",
        "p99.99",
        "p99.999",
        "p100"
    );
}

/// Print one series row using the paper's percentile ladder.
pub fn print_series(name: &str, h: &Histogram) {
    let vals = h.paper_series();
    print!("{name:<28}");
    for v in vals {
        print!(" {:>8}", fmt_ms(v));
    }
    println!();
}

/// Print a marker line showing where 250 ms @ 99.9% (the M requirement)
/// stands for a series.
pub fn print_mad_check(name: &str, h: &Histogram) {
    let p999 = h.percentile(0.999);
    let ok = p999 <= 250_000;
    println!(
        "    M requirement (<250ms @ 99.9%): {} — p99.9 = {} ms [{name}]",
        if ok { "MET" } else { "BREACHED" },
        fmt_ms(p999)
    );
}
