//! `mad-bench`: one run of one workload.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` replays the workload under spans and counters and reports
//! the per-layer metrics. Either way every metric is printed by name with
//! its unit, and the last line of standard output is the result object
//! `BENCHMARK.json` describes. See `README.md`.

mod calib;
mod e2e;
mod gen;
mod layers;
mod oracle;
mod pin;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::Path;

use report::{Metric, Report};
use workloads::{Spec, ENGINES, SEGMENTS};

/// Where a run keeps its engine data, oracle stores and traces, relative
/// to the checkout root (`run.sh` starts the program there).
const OUT: &str = "benchmark/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if workloads::find(&args.workload).is_none() {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {names:?}"));
    }
    if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
        return Err("--seconds must be between 1 and 60".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mad-bench: {e}");
            std::process::exit(2);
        }
    };
    // Everything runs on one core (see `pin`); threads inherit it.
    pin::to_one_core();
    let full = workloads::find(&args.workload).expect("checked by parse_args");
    // Smoke: the same workload at 1/50 of the events, for a quick "does
    // every metric still come out and do the replies still check".
    let scaled;
    let spec = if args.smoke {
        scaled = full.smoke();
        &scaled
    } else {
        full
    };
    let out = Path::new(OUT);
    // Every run works in a directory of its own, so runs can overlap.
    let work = out.join(format!("work-{}", std::process::id()));
    let result = if args.trace {
        layers::run(spec, args.seed, args.seconds, &work, out)
    } else {
        run_e2e(spec, args.seed, args.seconds, &work)
    };
    std::fs::remove_dir_all(&work).ok();
    match result {
        Ok(report) => report.print(),
        Err(e) => {
            eprintln!("mad-bench: {} failed: {e}", spec.name);
            std::process::exit(1);
        }
    }
}

/// The canary that tells a slow machine from a slow engine: one reading
/// of the reference kernel (`calib`), best of five, in ns.
pub fn canary_ns() -> f64 {
    let mut reference = calib::Reference::new();
    (0..5).map(|_| reference.reading()).min().unwrap_or(0) as f64
}

/// The value of each piece of work as the middle of its replicas saw it.
/// `per_engine[e][j]` is piece `j` in engine `e`: the same events in the
/// same state for every `e`. Times are first scaled by the reference
/// readings around them ([`e2e::Piece::at_nominal`]), which takes out how
/// fast the machine was just then; the median over the replicas (the mean
/// of the middle two of four) then drops a replica that a stall hit, or
/// whose readings missed a burst, on either side.
fn middle_replica(per_engine: &[Vec<e2e::Piece>], value: impl Fn(&e2e::Piece) -> f64) -> Vec<f64> {
    let pieces = per_engine.iter().map(Vec::len).min().unwrap_or(0);
    (0..pieces)
        .map(|j| {
            let replicas: Vec<f64> = per_engine.iter().map(|e| value(&e[j])).collect();
            stats::median(&replicas)
        })
        .collect()
}

fn run_e2e(spec: &Spec, seed: u64, seconds: f64, work: &Path) -> railgun_types::Result<Report> {
    let gen = spec.generator(seed);
    let mut oracle = oracle::Oracle::new(spec, &gen, seed);
    let events = spec.segment(seconds);
    let data = work.join("data");
    let mut setups: Vec<e2e::Setup> = Vec::with_capacity(ENGINES);
    let mut pieces: Vec<Vec<e2e::Piece>> = Vec::with_capacity(ENGINES);
    let mut segments: Vec<e2e::Segment> = Vec::with_capacity(ENGINES * SEGMENTS);
    let mut rss_growth_mb = 0.0;
    let mut heap_live_mb: Vec<f64> = Vec::with_capacity(ENGINES);
    let mut disk_mb: Vec<f64> = Vec::with_capacity(ENGINES);
    let mut verdict = oracle::Verdict::default();

    // Every engine replays the same stream from its start on a fresh
    // directory: set-up (timed), then SEGMENTS segments of `events` events.
    for engine_no in 0..ENGINES {
        let last = engine_no + 1 == ENGINES;
        let (mut engine, setup) = e2e::Engine::setup(spec, &gen, &data)?;
        setups.push(setup);
        pieces.push(Vec::new());
        // Disk use is a sawtooth (write-ahead logs until a flush, files
        // until a truncation), and so is what the process holds allocated
        // (sketch caches and memtables fill and empty). Both are read at
        // the segment ends, which are fixed event counts, and their mean
        // depends less than their peak on where a tooth happens to stand.
        let (mut disk, mut heap_live) = (0, 0);
        for _ in 0..SEGMENTS {
            // The replies of the last engine are the ones checked.
            let mut segment =
                engine.next_segment(spec, &gen, events, last.then_some(&mut oracle))?;
            pieces[engine_no].append(&mut segment.pieces);
            segments.push(segment);
            disk += stats::dir_bytes(&data);
            heap_live += stats::heap_live_bytes().saturating_sub(engine.heap_before);
        }
        disk_mb.push(mb(disk / SEGMENTS as u64));
        heap_live_mb.push(mb(heap_live / SEGMENTS as u64));
        // The resident set is read at the end of the first engine: the only
        // one the process has held so far, so its high-water mark is that
        // engine's.
        if engine_no == 0 {
            rss_growth_mb = mb(stats::status_bytes("VmHWM").saturating_sub(engine.rss_before));
        }
        engine.stop()?;
        if last {
            verdict = oracle.check(spec, &gen, &engine.queries, &work.join("oracle"))?;
        }
        engine.destroy();
    }
    for example in &verdict.examples {
        eprintln!("mad-bench: mismatch: {example}");
    }

    let all_pieces = || pieces.iter().flatten();
    // An open loop's wall time is its schedule's, whatever the machine.
    let wall_ns: f64 = match spec.load {
        workloads::Load::Closed { .. } => middle_replica(&pieces, |p| p.at_nominal(p.wall_ns)),
        workloads::Load::Open { .. } => middle_replica(&pieces, |p| p.wall_ns as f64),
    }
    .iter()
    .sum();
    let cpu_ns: f64 = middle_replica(&pieces, |p| p.at_nominal(p.cpu_ns))
        .iter()
        .sum();
    let p50_ns = middle_replica(&pieces, |p| p.at_nominal(p.p50_ns));
    // A stall that makes replies late in one replica of a piece is the
    // machine's; lateness the engine causes is in all of them.
    let slo_missed: f64 = middle_replica(&pieces, |p| p.slo_missed as f64)
        .iter()
        .sum();
    let setup_s: Vec<f64> = setups.iter().map(e2e::Setup::at_nominal_s).collect();

    let total = |f: fn(&e2e::Segment) -> u64| -> u64 { segments.iter().map(f).sum() };
    let most = |f: fn(&e2e::Segment) -> u64| -> u64 { segments.iter().map(f).max().unwrap_or(0) };
    let attempted = total(|s| s.replied + s.failed);
    let failed = total(|s| s.failed);
    // Every engine is sent the same events.
    let per_engine = (attempted / ENGINES as u64).max(1) as f64;
    let mut latencies: Vec<u64> = segments
        .iter()
        .flat_map(|s| s.latency_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    let us = |p: f64| stats::percentile_sorted(&latencies, p) as f64 / 1e3;
    let sum_of = |f: fn(&e2e::Piece) -> u64| -> f64 { all_pieces().map(f).sum::<u64>() as f64 };
    // How fast the machine was over the run, relative to the reference
    // machine (1 = as fast), and how far that drifted from the first
    // engine to the last.
    let speed_of = |pieces: &[e2e::Piece]| {
        let readings: Vec<f64> = pieces.iter().map(|p| p.reference_ns).collect();
        calib::nominal_over(readings.iter().sum::<f64>() / readings.len().max(1) as f64)
    };
    let speed = speed_of(&all_pieces().copied().collect::<Vec<_>>());
    let canary_ratio = speed_of(&pieces[0]) / speed_of(&pieces[ENGINES - 1]);
    let noisy = (canary_ratio - 1.0).abs() > 0.10;
    let engine_eps: Vec<f64> = (0..ENGINES)
        .map(|e| {
            let s = &segments[e * SEGMENTS..(e + 1) * SEGMENTS];
            s.iter().map(|s| s.replied).sum::<u64>() as f64 * 1e9
                / s.iter().map(|s| s.wall_ns).sum::<u64>().max(1) as f64
        })
        .collect();

    let mut report = Report::new(spec.name, seed, false);
    report.correct = verdict.correct();
    report.attempted = attempted;
    report.failed = failed;
    let list = |v: &[f64], digits: usize| {
        v.iter()
            .map(|x| format!("{x:.digits$}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.note(format!(
        "{ENGINES} engines x {SEGMENTS} segments of {events} events in pieces of {}, engine after engine; timings are at the reference machine's speed, piece by piece the median of the engines",
        spec.piece()
    ));
    report.note(format!(
        "per-engine throughput_eps, as it ran: {}",
        list(&engine_eps, 0)
    ));
    if matches!(spec.load, workloads::Load::Open { .. }) {
        // Sustainable means this does not grow from segment to segment.
        let backlog: Vec<f64> = segments.iter().map(|s| s.backlog_max as f64).collect();
        report.note(format!("per-segment backlog_max: {}", list(&backlog, 0)));
    }
    let setup_raw: Vec<f64> = setups.iter().map(|s| s.wall_ns as f64 / 1e9).collect();
    report.note(format!(
        "per-engine setup_s, as it ran: {}",
        list(&setup_raw, 3)
    ));
    report.note(format!(
        "per-engine heap_live_mb: {}",
        list(&heap_live_mb, 1)
    ));
    report.note(format!("per-engine state_disk_mb: {}", list(&disk_mb, 1)));
    report.note(verdict.summary());
    report.note(format!(
        "nproc={} pinned={} machine_speed={speed:.3} noisy={noisy}",
        pin::cores(),
        pin::pinned()
    ));
    let slo_miss_ratio = (slo_missed + failed as f64) / per_engine;
    let failed_ratio = failed as f64 / attempted.max(1) as f64;
    report.metrics = vec![
        Metric::new("throughput_eps", per_engine * 1e9 / wall_ns.max(1.0), "1/s"),
        Metric::new("reply_p50_us", stats::median(&p50_ns) / 1e3, "us"),
        Metric::new("cpu_us_per_event", cpu_ns / 1e3 / per_engine, "us"),
        Metric::new("slo_ok_ratio", 1.0 - slo_miss_ratio, "ratio"),
        Metric::new("reply_ok_ratio", 1.0 - failed_ratio, "ratio"),
        Metric::new("oracle_match_ratio", verdict.match_ratio(), "ratio"),
        Metric::new("heap_live_mb", stats::median(&heap_live_mb), "MB"),
        Metric::new("state_disk_mb", stats::median(&disk_mb), "MB"),
        Metric::new("setup_s", stats::median(&setup_s), "s"),
    ];
    // Reported for the reader, not part of the result object: the three
    // ratios under the names the issue gave them (0 on a healthy engine,
    // and the driver takes no metric that can be 0), and the tails, which
    // do not repeat within a tenth on a shared two-core box.
    let piece_p50: Vec<f64> = all_pieces().map(|p| p.p50_ns as f64 / 1e3).collect();
    report.extras = vec![
        Metric::new("slo_miss_ratio", slo_miss_ratio, "ratio"),
        Metric::new("failed_ratio", failed_ratio, "ratio"),
        Metric::new(
            "mismatch_ratio",
            verdict.mismatched as f64 / verdict.checked.max(1) as f64,
            "ratio",
        ),
        // The same as they ran on this machine at this hour, all engines
        // pooled: what the run went through, next to what the engine costs.
        Metric::new(
            "client.throughput_eps_raw",
            attempted as f64 * 1e9 / sum_of(|p| p.wall_ns).max(1.0),
            "1/s",
        ),
        Metric::new("client.reply_p50_us_raw", stats::median(&piece_p50), "us"),
        Metric::new(
            "client.cpu_us_per_event_raw",
            sum_of(|p| p.cpu_ns) / 1e3 / attempted.max(1) as f64,
            "us",
        ),
        Metric::new(
            "client.slo_miss_ratio_raw",
            (total(e2e::Segment::slo_missed) + failed) as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        Metric::new("client.setup_s_raw", stats::median(&setup_raw), "s"),
        Metric::new("client.rss_growth_mb", rss_growth_mb, "MB"),
        Metric::new("client.machine_speed", speed, "ratio"),
        Metric::new("client.reply_p90_us", us(90.0), "us"),
        Metric::new("client.reply_p99_us", us(99.0), "us"),
        Metric::new("client.reply_p999_us", us(99.9), "us"),
        Metric::new("client.reply_max_us", us(100.0), "us"),
        Metric::new("client.samples", latencies.len() as f64, "count"),
        Metric::new("client.segment_spread", stats::spread(&engine_eps), "ratio"),
        Metric::new(
            "client.gen_lag_max_us",
            most(|s| s.gen_lag_max_ns) as f64 / 1e3,
            "us",
        ),
        Metric::new(
            "client.backlog_max",
            most(|s| s.backlog_max) as f64,
            "count",
        ),
        Metric::new(
            "client.stalls_over_1ms",
            total(|s| s.stalls_over_1ms) as f64,
            "count",
        ),
        Metric::new("client.noise_canary_ratio", canary_ratio, "ratio"),
        Metric::new("oracle.checked", verdict.checked as f64, "count"),
        Metric::new(
            "oracle.known_defects",
            verdict.known_defects as f64,
            "count",
        ),
    ];
    Ok(report)
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_piece_costs_what_the_middle_of_its_replicas_took_at_the_reference_speed() {
        let piece = |wall_ns: u64, slower: f64| e2e::Piece {
            wall_ns,
            reference_ns: slower * calib::NOMINAL_NS,
            ..e2e::Piece::default()
        };
        // One piece, four replicas: two on a machine running at half
        // speed (twice the time, twice the reading), one a stall hit, one
        // whose readings missed a slow burst.
        let replicas = vec![
            vec![piece(1000, 1.0)],
            vec![piece(2000, 2.0)],
            vec![piece(9000, 1.0)],
            vec![piece(2000, 1.0)],
        ];
        assert_eq!(
            middle_replica(&replicas, |p| p.at_nominal(p.wall_ns)),
            vec![1500.0]
        );
    }
}
