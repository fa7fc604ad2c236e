//! The four workloads: what each sends, what it asks, and every engine
//! setting it depends on (pinned here, never taken from `Default`, so a
//! change of an engine default cannot silently change a workload).

use std::path::Path;
use std::time::Duration;

use railgun_core::{BatchPolicy, ClusterConfig, TaskConfig};
use railgun_messaging::BusClock;
use railgun_reservoir::{Codec, LatePolicy, ReservoirConfig};
use railgun_store::DbOptions;
use railgun_types::TimeDelta;

use crate::gen::EventGen;

pub const STREAM: &str = "payments";
pub const PARTITIONS: u32 = 4;
pub const MAX_IN_FLIGHT: usize = 4096;
/// The paper's M: a reply later than this misses the latency requirement.
pub const SLO: Duration = Duration::from_millis(250);

/// Engines set up, measured and torn down per run, one after the other:
/// each replays the same stream, so every measured segment has this many
/// replicas (and `setup_s` this many samples).
pub const ENGINES: usize = 4;
/// Measured segments per engine.
pub const SEGMENTS: usize = 15;

/// How the generator offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Keep `depth` requests outstanding; send the next when the oldest
    /// is answered.
    Closed { depth: usize },
    /// Send on a fixed schedule whatever the engine does; latency counts
    /// from each event's due time.
    Open { rate_eps: f64 },
}

#[derive(Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub full_payload: bool,
    pub cards: u32,
    pub merchants: u32,
    pub zipf_s: f64,
    /// Event-time distance between consecutive events.
    pub spacing_ms: i64,
    pub late_share: f64,
    pub late_max_ms: u64,
    pub partitioners: &'static [&'static str],
    pub queries: &'static [&'static str],
    pub load: Load,
    /// Events sent during set-up: the longest window plus the reservoir's
    /// one-minute retention margin, so that from the first measured event
    /// every arrival also expires one and disk use has levelled off.
    pub prefill: u64,
    /// Events measured per second of `--seconds`: a constant frozen a
    /// little below what the workload sustained on the box it was written
    /// on, so a run takes about `--seconds` there and is the same work on
    /// every commit (see [`Spec::segment`]). The open loop's own rate.
    pub pace_eps: u64,
    pub cache_capacity_chunks: usize,
    pub memtable_budget_bytes: usize,
    pub checkpoint_every: u64,
    pub transition_hold_ms: i64,
    /// Smoke mode: the replays of the traced run shrink too.
    pub smoke: bool,
}

/// The paper's Q1 plus one more leaf on the same window. No exact
/// `countDistinct` here: its per-(card, merchant) counters and their
/// tombstones outgrow any memtable within seconds, which turns a workload
/// meant to keep the store memory-resident into a flush-and-compaction
/// benchmark (30 000 instead of 100 000 ev/s, and ±15% between identical
/// runs). The exact distinct count lives in `cold_window`, where the
/// store is meant to work.
const HOT_QUERIES: &[&str] = &[
    "SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER sliding 5 min",
    "SELECT avg(amount) FROM payments GROUP BY cardId OVER sliding 5 min",
];

/// Why each workload exists is in `BENCHMARK.json` and `README.md`.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "hot_saturate",
        full_payload: false,
        cards: 50_000,
        merchants: 5_000,
        zipf_s: 1.05,
        // 5 min = 60 000 events, 15 000 per task: inside the 220-chunk
        // cache (56 000 events per task).
        spacing_ms: 5,
        late_share: 0.0,
        late_max_ms: 0,
        partitioners: &["cardId"],
        queries: HOT_QUERIES,
        load: Load::Closed { depth: 64 },
        prefill: 72_000,
        pace_eps: 72_000,
        cache_capacity_chunks: 220,
        memtable_budget_bytes: 4 << 20,
        checkpoint_every: 0,
        transition_hold_ms: 0,
        smoke: false,
    },
    Spec {
        name: "hot_paced",
        full_payload: false,
        cards: 50_000,
        merchants: 5_000,
        zipf_s: 1.05,
        spacing_ms: 5,
        late_share: 0.0,
        late_max_ms: 0,
        partitioners: &["cardId"],
        queries: HOT_QUERIES,
        // About a fifth of what `hot_saturate` sustains on the box this
        // was frozen on.
        load: Load::Open { rate_eps: 20_000.0 },
        prefill: 72_000,
        pace_eps: 20_000,
        cache_capacity_chunks: 220,
        memtable_budget_bytes: 4 << 20,
        checkpoint_every: 0,
        transition_hold_ms: 0,
        smoke: false,
    },
    Spec {
        name: "cold_window",
        full_payload: true,
        cards: 50_000,
        merchants: 5_000,
        zipf_s: 1.05,
        // 5 min = 30 000 events, 7 500 (about 120 chunks of 64 KiB) per
        // task against a cache of 8: the tail cursor always reads disk.
        spacing_ms: 10,
        late_share: 0.0,
        late_max_ms: 0,
        partitioners: &["cardId"],
        queries: &[
            "SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER sliding 5 min",
            "SELECT countDistinct(merchantId) FROM payments GROUP BY cardId OVER sliding 5 min",
        ],
        load: Load::Closed { depth: 64 },
        prefill: 36_000,
        pace_eps: 12_000,
        cache_capacity_chunks: 8,
        memtable_budget_bytes: 1 << 20,
        checkpoint_every: 5_000,
        transition_hold_ms: 0,
        smoke: false,
    },
    Spec {
        name: "wide_plan",
        full_payload: false,
        // Three sketch leaves per card, 1 500 sketches per task: half as
        // many again as the engine's per-task sketch cache holds (1024,
        // written back and emptied when full), so the refill after each
        // emptying is part of the workload (a fifth of its time) without
        // hiding the other 20 leaves. 1 000 cards never empty the cache
        // (10 400 ev/s against 8 500 here); 4 000 spend two fifths of the
        // time refilling it (6 400 ev/s).
        cards: 2_000,
        merchants: 5_000,
        zipf_s: 1.3,
        spacing_ms: 20,
        late_share: 0.02,
        late_max_ms: 500,
        partitioners: &["cardId", "merchantId"],
        queries: &[
            "SELECT sum(amount), count(*), avg(amount) FROM payments GROUP BY cardId OVER sliding 10 sec",
            "SELECT min(amount), max(amount) FROM payments GROUP BY cardId OVER sliding 10 sec",
            "SELECT sum(amount), count(*), avg(amount) FROM payments GROUP BY cardId OVER sliding 1 min",
            "SELECT min(amount), max(amount) FROM payments GROUP BY cardId OVER sliding 1 min",
            "SELECT sum(amount), count(*), avg(amount) FROM payments GROUP BY cardId OVER sliding 5 min",
            "SELECT min(amount), max(amount) FROM payments GROUP BY cardId OVER sliding 5 min",
            "SELECT sum(amount), count(amount) FROM payments WHERE amount > 100 GROUP BY cardId OVER sliding 5 min",
            "SELECT count(*) FROM payments GROUP BY cardId OVER tumbling 1 min",
            "SELECT countDistinct(merchantId) approx 0.02 FROM payments GROUP BY cardId OVER sliding 5 min",
            "SELECT topK(merchantId, 5) FROM payments GROUP BY cardId OVER sliding 5 min",
            "SELECT percentile(amount, 99) FROM payments GROUP BY cardId OVER sliding 5 min",
            "SELECT sum(amount), count(*) FROM payments GROUP BY merchantId OVER sliding 5 min",
        ],
        load: Load::Closed { depth: 64 },
        prefill: 18_000,
        pace_eps: 8_000,
        cache_capacity_chunks: 220,
        memtable_budget_bytes: 4 << 20,
        checkpoint_every: 0,
        transition_hold_ms: 1_000,
        smoke: false,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    pub fn generator(&self, seed: u64) -> EventGen {
        EventGen::new(
            seed,
            self.cards,
            self.merchants,
            self.zipf_s,
            self.spacing_ms,
            self.late_share,
            self.late_max_ms,
            self.full_payload,
        )
    }

    /// Events per measured segment of a run asked to measure for `seconds`:
    /// fixed by the workload and the argument, never by how fast the engine
    /// turns out to be, so two commits do the same work.
    /// A whole number of pieces.
    pub fn segment(&self, seconds: f64) -> u64 {
        let piece = self.piece() as u64;
        let events = (self.pace_eps as f64 * seconds) as u64 / (ENGINES * SEGMENTS) as u64;
        (events / piece).max(1) * piece
    }

    /// Events per piece, the grain at which replicas are compared: about
    /// 12 ms of work at the workload's pace.
    pub fn piece(&self) -> usize {
        (self.pace_eps as usize / 80).max(16)
    }

    /// This spec at 1/50 of the events (smoke mode): same names, same
    /// queries, same settings.
    pub fn smoke(&self) -> Spec {
        Spec {
            prefill: (self.prefill / 50).max(256),
            pace_eps: self.pace_eps / 50,
            smoke: true,
            ..*self
        }
    }

    pub fn batch_policy(&self) -> BatchPolicy {
        BatchPolicy {
            max_events: 64,
            max_delay: Duration::from_micros(200),
        }
    }

    pub fn task_config(&self) -> TaskConfig {
        TaskConfig {
            reservoir: ReservoirConfig {
                chunk_target_events: 256,
                chunk_target_bytes: 64 << 10,
                file_target_bytes: 4 << 20,
                cache_capacity_chunks: self.cache_capacity_chunks,
                transition_hold: TimeDelta::from_millis(self.transition_hold_ms),
                late_policy: LatePolicy::Discard,
                codec: Codec::RailZ,
                prefetch: true,
                ..ReservoirConfig::default()
            },
            store: DbOptions {
                memtable_budget_bytes: self.memtable_budget_bytes,
                bloom_bits_per_key: 10,
                compaction_trigger: 4,
                sync_wal: false,
                ..DbOptions::default()
            },
            truncate_every: 4096,
            retention_margin: TimeDelta::from_minutes(1),
            ..TaskConfig::default()
        }
    }

    /// One node, one unit: with the generator that is two busy threads,
    /// which is what a two-core box can run without the scheduler
    /// deciding the result.
    pub fn cluster_config(&self, data_root: &Path, telemetry: bool) -> ClusterConfig {
        ClusterConfig {
            nodes: 1,
            units_per_node: 1,
            partitions: PARTITIONS,
            replication: 1,
            data_root: data_root.to_path_buf(),
            task: self.task_config(),
            checkpoint_every: self.checkpoint_every,
            clock: BusClock::Auto,
            max_in_flight: MAX_IN_FLIGHT,
            batch: self.batch_policy(),
            collect_timeout_ms: 10_000,
            telemetry,
            ..ClusterConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_segment_is_sized_by_the_workload_and_the_seconds_asked_for() {
        let hot = find("hot_saturate").expect("a workload");
        // 72 000 x 20 / 60 events, in whole pieces of 900.
        assert_eq!((hot.piece(), hot.segment(20.0)), (900, 23_400));
        assert_eq!(hot.segment(40.0), 47_700);
        // The open loop measures for exactly the seconds asked for.
        let paced = find("hot_paced").expect("a workload");
        let Load::Open { rate_eps } = paced.load else {
            panic!("hot_paced is the open loop");
        };
        assert_eq!(paced.pace_eps as f64, rate_eps);
        // Smoke: 1/50 of the events under the same names.
        let smoke = hot.smoke();
        assert_eq!(
            (smoke.name, smoke.segment(20.0), smoke.prefill),
            (hot.name, 468, 1_440)
        );
    }
}
