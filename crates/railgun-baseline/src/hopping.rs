//! Hopping-window engine — the "Flink sliding window" baseline (§2.2, §5.1).
//!
//! Hopping windows approximate real-time sliding windows with a fixed set
//! of overlapping physical windows ("panes"): `windowSize / hopSize` of
//! them are active at any time. This engine mirrors how Flink executes
//! them over RocksDB:
//!
//! * every event performs a **read-modify-write of one state-store key per
//!   covering pane** — `ws/hop` state operations per event, the cost that
//!   explodes as the hop shrinks (Figure 8);
//! * a timer fires per (key, pane) when the watermark passes the pane end:
//!   the pane's result is **emitted** and its state deleted — the burst of
//!   work at hop boundaries;
//! * queries are answered from the **most recently emitted** pane, which
//!   is why the Figure 1 rule misfires: no emitted pane ever covers the
//!   five events together.
//!
//! Events themselves are *discarded* after updating the panes (the memory
//! optimization that makes hopping windows attractive — and inaccurate).

use std::collections::{BTreeSet, HashSet};
use std::path::Path;

use railgun_core::agg::{AggContext, AggScratch, AggState};
use railgun_core::lang::AggFunc;
use railgun_store::{Db, DbOptions};
use railgun_types::{RailgunError, Result, TimeDelta, Timestamp, Value};

/// Configuration of one hopping-window aggregation set.
#[derive(Debug, Clone)]
pub struct HoppingConfig {
    /// Logical window size.
    pub window: TimeDelta,
    /// Hop (slide) size; the pane count is `window / hop`.
    pub hop: TimeDelta,
    /// Aggregations: function + index of the input field in `values`
    /// (`None` = count(*)).
    pub aggs: Vec<(AggFunc, Option<usize>)>,
    pub store: DbOptions,
}

impl HoppingConfig {
    /// Number of simultaneously active panes (`windowSize / hopSize`).
    pub fn pane_count(&self) -> i64 {
        self.window / self.hop
    }
}

/// Work counters — the §5.1 cost model evidence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HoppingStats {
    pub events: u64,
    /// Pane state read-modify-writes (2 store ops each).
    pub pane_updates: u64,
    /// Timers fired (pane emissions).
    pub emissions: u64,
    /// Pane states deleted after emission.
    pub expirations: u64,
}

/// One emitted pane result.
#[derive(Debug, Clone, PartialEq)]
pub struct Emission {
    pub key: Vec<u8>,
    pub pane_start: Timestamp,
    pub pane_end: Timestamp,
    pub values: Vec<Value>,
}

/// The hopping-window baseline engine.
pub struct HoppingEngine {
    cfg: HoppingConfig,
    db: Db,
    aux_cf: railgun_store::ColumnFamilyId,
    /// (pane_end, key, pane_start) — Flink's timer service.
    timers: BTreeSet<(i64, Vec<u8>, i64)>,
    /// Panes already registered, to avoid duplicate timers.
    registered: HashSet<(Vec<u8>, i64)>,
    /// Event-time watermark (max timestamp seen).
    watermark: Timestamp,
    /// Last emitted pane per key (query answers come from here).
    last_emitted: std::collections::HashMap<Vec<u8>, Emission>,
    stats: HoppingStats,
    /// Reusable aggregator scratch (aux keys, state cache).
    scratch: AggScratch,
}

impl HoppingEngine {
    /// Open the engine with a fresh state store in `dir`.
    pub fn open(dir: &Path, cfg: HoppingConfig) -> Result<Self> {
        if !cfg.hop.is_positive() || !cfg.window.is_positive() {
            return Err(RailgunError::InvalidArgument(
                "window and hop must be positive".into(),
            ));
        }
        if cfg.window.as_millis() % cfg.hop.as_millis() != 0 {
            return Err(RailgunError::InvalidArgument(
                "hop must divide the window size".into(),
            ));
        }
        let db = Db::open(dir, cfg.store.clone())?;
        let aux_cf = match db.cf_by_name("distinct-aux") {
            Some(cf) => cf,
            None => db.create_cf("distinct-aux")?,
        };
        Ok(HoppingEngine {
            cfg,
            db,
            aux_cf,
            timers: BTreeSet::new(),
            registered: HashSet::new(),
            watermark: Timestamp::MIN,
            last_emitted: std::collections::HashMap::new(),
            stats: HoppingStats::default(),
            scratch: AggScratch::default(),
        })
    }

    /// Process one event: fire due timers, then update every covering pane.
    /// Returns the emissions triggered by this event's watermark advance.
    pub fn process(
        &mut self,
        key: &[u8],
        ts: Timestamp,
        values: &[Value],
    ) -> Result<Vec<Emission>> {
        self.stats.events += 1;
        let emissions = self.advance_watermark(ts)?;

        // Panes covering ts: starts in (ts - window, ts], aligned to hop.
        let n_panes = self.cfg.pane_count();
        let newest_start = ts.align_down(self.cfg.hop);
        for k in 0..n_panes {
            let start = newest_start - self.cfg.hop * k;
            if start + self.cfg.window <= ts {
                break; // pane already ended before this event
            }
            // Panes whose end has already been emitted are closed (late
            // event for that pane) — Flink drops these contributions.
            let end = start + self.cfg.window;
            if end <= self.watermark.align_down(self.cfg.hop) {
                continue;
            }
            self.update_pane(key, start, values)?;
        }
        Ok(emissions)
    }

    fn update_pane(&mut self, key: &[u8], start: Timestamp, values: &[Value]) -> Result<()> {
        self.stats.pane_updates += 1;
        let skey = pane_state_key(key, start);
        let mut states = match self.db.get(Db::DEFAULT_CF, &skey)? {
            Some(raw) => decode_states(&raw)?,
            None => self
                .cfg
                .aggs
                .iter()
                .map(|(f, _)| AggState::new(*f))
                .collect(),
        };
        for ((func, field), state) in self.cfg.aggs.iter().zip(states.iter_mut()) {
            let _ = func;
            let v = field.map(|i| &values[i]);
            let ctx = AggContext::new(&self.db, self.aux_cf, &skey, &self.scratch);
            state.insert(v, &ctx)?;
        }
        self.db.put(Db::DEFAULT_CF, &skey, &encode_states(&states))?;
        if self.registered.insert((key.to_vec(), start.as_millis())) {
            let end = start + self.cfg.window;
            self.timers
                .insert((end.as_millis(), key.to_vec(), start.as_millis()));
        }
        Ok(())
    }

    /// Fire every timer with `pane_end <= watermark` (new watermark = ts).
    fn advance_watermark(&mut self, ts: Timestamp) -> Result<Vec<Emission>> {
        if ts <= self.watermark {
            return Ok(Vec::new());
        }
        self.watermark = ts;
        let mut emissions = Vec::new();
        while let Some((end_ms, key, start_ms)) = self.timers.first().cloned() {
            if end_ms > ts.as_millis() {
                break;
            }
            self.timers.pop_first();
            let start = Timestamp::from_millis(start_ms);
            let skey = pane_state_key(&key, start);
            let values = match self.db.get(Db::DEFAULT_CF, &skey)? {
                Some(raw) => {
                    let ctx = AggContext::new(&self.db, self.aux_cf, &skey, &self.scratch);
                    decode_states(&raw)?
                        .iter()
                        .map(|s| s.value(&ctx))
                        .collect::<Result<_>>()?
                }
                None => Vec::new(),
            };
            let emission = Emission {
                key: key.clone(),
                pane_start: start,
                pane_end: Timestamp::from_millis(end_ms),
                values,
            };
            // Emit, then expire the pane state (allowed lateness 0).
            self.db.delete(Db::DEFAULT_CF, &skey)?;
            self.registered.remove(&(key.clone(), start_ms));
            self.stats.emissions += 1;
            self.stats.expirations += 1;
            self.last_emitted.insert(key, emission.clone());
            emissions.push(emission);
        }
        Ok(emissions)
    }

    /// The answer a rule engine would read for `key`: the most recently
    /// emitted pane (stale by up to one hop — the Figure 1 inaccuracy).
    pub fn answer(&self, key: &[u8]) -> Option<&Emission> {
        self.last_emitted.get(key)
    }

    /// Work counters.
    pub fn stats(&self) -> HoppingStats {
        self.stats
    }

    /// Currently registered (open) panes — the memory the paper calls
    /// "number of active window states" (§2.2).
    pub fn open_panes(&self) -> usize {
        self.registered.len()
    }

    /// State-store statistics.
    pub fn store_stats(&self) -> railgun_store::DbStats {
        self.db.stats()
    }
}

fn pane_state_key(key: &[u8], start: Timestamp) -> Vec<u8> {
    let mut out = Vec::with_capacity(key.len() + 9);
    out.extend_from_slice(&(key.len() as u32).to_be_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(&start.as_millis().to_be_bytes());
    out
}

fn encode_states(states: &[AggState]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(states.len() * 16);
    for s in states {
        let mut one = Vec::new();
        s.encode(&mut one);
        buf.extend_from_slice(&(one.len() as u32).to_le_bytes());
        buf.extend_from_slice(&one);
    }
    buf
}

fn decode_states(mut raw: &[u8]) -> Result<Vec<AggState>> {
    let mut out = Vec::new();
    while raw.len() >= 4 {
        let len = u32::from_le_bytes(raw[..4].try_into().expect("4b")) as usize;
        raw = &raw[4..];
        if raw.len() < len {
            return Err(RailgunError::Corruption("truncated pane state".into()));
        }
        out.push(AggState::decode(&raw[..len])?);
        raw = &raw[len..];
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("railgun-hop-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn engine(name: &str, window_min: i64, hop_min: i64) -> HoppingEngine {
        HoppingEngine::open(
            &fresh(name),
            HoppingConfig {
                window: TimeDelta::from_minutes(window_min),
                hop: TimeDelta::from_minutes(hop_min),
                aggs: vec![(AggFunc::Count, None), (AggFunc::Sum, Some(0))],
                store: DbOptions::default(),
            },
        )
        .unwrap()
    }

    const MIN: i64 = 60_000;

    #[test]
    fn pane_count_matches_paper_formula() {
        // §2.2: 60-min window, 5-min hop => 12 panes; 1-second hop => 3600.
        let e = engine("panes", 60, 5);
        assert_eq!(e.cfg.pane_count(), 12);
        let cfg = HoppingConfig {
            window: TimeDelta::from_minutes(60),
            hop: TimeDelta::from_secs(1),
            aggs: vec![],
            store: DbOptions::default(),
        };
        assert_eq!(cfg.pane_count(), 3600);
    }

    #[test]
    fn per_event_pane_updates_equal_pane_count() {
        let mut e = engine("cost", 10, 2); // 5 panes
        e.process(b"k", Timestamp::from_millis(20 * MIN), &[Value::Float(1.0)])
            .unwrap();
        // First event at a "fresh" region touches all 5 covering panes.
        assert_eq!(e.stats().pane_updates, 5);
    }

    #[test]
    fn figure_1_hopping_windows_miss_the_five_events() {
        // Figure 1's geometry: five events spanning 4.8 minutes (inside a
        // 5-minute window), but placed so that a covering pane would have
        // to start inside (1.2, 1.4] minutes — which contains no 1-minute
        // hop boundary. No physical window ever counts all 5.
        let mut e = engine("fig1", 5, 1);
        let times = [1.4, 2.5, 3.5, 4.5, 6.2];
        let mut max_emitted_count = 0i64;
        for (i, m) in times.iter().enumerate() {
            let _ = i;
            let ts = Timestamp::from_millis((m * MIN as f64) as i64);
            for em in e.process(b"card", ts, &[Value::Float(1.0)]).unwrap() {
                if let Some(Value::Int(c)) = em.values.first() {
                    max_emitted_count = max_emitted_count.max(*c);
                }
            }
        }
        // Drain remaining panes far in the future.
        for em in e
            .process(b"other", Timestamp::from_millis(20 * MIN), &[Value::Float(0.0)])
            .unwrap()
        {
            if em.key == b"card" {
                if let Some(Value::Int(c)) = em.values.first() {
                    max_emitted_count = max_emitted_count.max(*c);
                }
            }
        }
        assert!(
            max_emitted_count <= 4,
            "hopping windows must never see all 5 events, saw {max_emitted_count}"
        );
    }

    #[test]
    fn emissions_cover_correct_ranges() {
        let mut e = engine("ranges", 4, 2); // panes of 4 min every 2 min
        // Events at t=1min and t=3min for one key.
        e.process(b"k", Timestamp::from_millis(MIN), &[Value::Float(10.0)])
            .unwrap();
        e.process(b"k", Timestamp::from_millis(3 * MIN), &[Value::Float(20.0)])
            .unwrap();
        // Advance far: all panes emit.
        let emissions = e
            .process(b"z", Timestamp::from_millis(30 * MIN), &[Value::Float(0.0)])
            .unwrap();
        let for_k: Vec<&Emission> = emissions.iter().filter(|e| e.key == b"k").collect();
        assert!(!for_k.is_empty());
        for em in &for_k {
            // Pane [-2, 2): only the 1-min event (count 1, sum 10).
            if em.pane_start == Timestamp::from_millis(-2 * MIN) {
                assert_eq!(em.values[0], Value::Int(1));
                assert_eq!(em.values[1], Value::Float(10.0));
            }
            // Pane [0, 4): both events (count 2, sum 30).
            if em.pane_start == Timestamp::from_millis(0) {
                assert_eq!(em.values[0], Value::Int(2));
                assert_eq!(em.values[1], Value::Float(30.0));
            }
            // Pane [2, 6): only the 3-min event.
            if em.pane_start == Timestamp::from_millis(2 * MIN) {
                assert_eq!(em.values[0], Value::Int(1));
                assert_eq!(em.values[1], Value::Float(20.0));
            }
        }
    }

    #[test]
    fn emitted_states_are_deleted() {
        let mut e = engine("cleanup", 2, 1);
        for i in 0..10 {
            e.process(
                b"k",
                Timestamp::from_millis(i * MIN),
                &[Value::Float(1.0)],
            )
            .unwrap();
        }
        assert!(e.stats().expirations > 0);
        // Open panes bounded by pane_count (+1 during transitions) per key.
        assert!(
            e.open_panes() <= 3,
            "open panes {} should stay bounded",
            e.open_panes()
        );
    }

    #[test]
    fn answers_come_from_last_emission() {
        let mut e = engine("answers", 2, 1);
        e.process(b"k", Timestamp::from_millis(0), &[Value::Float(5.0)])
            .unwrap();
        assert!(e.answer(b"k").is_none(), "nothing emitted yet");
        // Watermark to 2min fires the pane [-1min, 1min) and [0, 2min).
        e.process(b"k", Timestamp::from_millis(2 * MIN), &[Value::Float(7.0)])
            .unwrap();
        let ans = e.answer(b"k").expect("emitted");
        assert_eq!(ans.values[0], Value::Int(1));
        assert_eq!(ans.values[1], Value::Float(5.0));
    }

    #[test]
    fn rejects_bad_config() {
        assert!(HoppingEngine::open(
            &fresh("bad1"),
            HoppingConfig {
                window: TimeDelta::from_minutes(5),
                hop: TimeDelta::from_minutes(2), // does not divide
                aggs: vec![],
                store: DbOptions::default(),
            }
        )
        .is_err());
        assert!(HoppingEngine::open(
            &fresh("bad2"),
            HoppingConfig {
                window: TimeDelta::from_minutes(5),
                hop: TimeDelta::ZERO,
                aggs: vec![],
                store: DbOptions::default(),
            }
        )
        .is_err());
    }

    #[test]
    fn distinct_keys_have_independent_panes() {
        let mut e = engine("keys", 4, 2);
        e.process(b"a", Timestamp::from_millis(MIN), &[Value::Float(1.0)])
            .unwrap();
        e.process(b"b", Timestamp::from_millis(MIN), &[Value::Float(2.0)])
            .unwrap();
        let emissions = e
            .process(b"c", Timestamp::from_millis(30 * MIN), &[Value::Float(0.0)])
            .unwrap();
        let a_total: i64 = emissions
            .iter()
            .filter(|e| e.key == b"a")
            .filter_map(|e| e.values.first().and_then(Value::as_i64))
            .max()
            .unwrap_or(0);
        let b_sum: f64 = emissions
            .iter()
            .filter(|e| e.key == b"b")
            .filter_map(|e| e.values.get(1).and_then(Value::as_f64))
            .fold(0.0, f64::max);
        assert_eq!(a_total, 1);
        assert_eq!(b_sum, 2.0);
    }
}
