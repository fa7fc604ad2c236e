//! The correctness check: replies of a sample of entities are recomputed
//! from the regenerated inputs and compared.
//!
//! Exact aggregations over sliding windows go through
//! `railgun_baseline::RescanEngine` — store every event, rescan the window
//! on each arrival; quadratic and obviously correct — and must match
//! value-for-value. The tumbling count and the sketch leaves (which the
//! rescan engine does not model) are recomputed here by a linear scan of
//! the entity's events; sketches must lie within their configured bound.
//! Only the fields the queries read (amount, merchant) are fed.
//!
//! The engine documents a sliding sketch as covering between `window` and
//! `window + window/8` (one pane) of the past, and that is the extent a
//! sketch value is held to. Two engine defects this check found are
//! tolerated but counted ([`Verdict::known_defects`], which lowers
//! `oracle_match_ratio` without failing the run): a sparse entity keeps a
//! stale pane until its next expiry (a value outside the documented extent
//! but explained by what the entity sent before it), and min/max is off
//! for a moment after a late event expires ([`late_just_expired`]).
//!
//! Because the rescan costs (events of the entity in the window)² per
//! window, entities holding more than [`HEAD_CAP`] events per window are
//! not sampled: the "head" stratum is the hottest ranks below that cap.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use railgun_baseline::{RescanConfig, RescanEngine};
use railgun_core::expr::CmpOp;
use railgun_core::lang::PExpr;
use railgun_core::{parse_query, AggFunc, AggregationResult, QueryHandle, WindowKind};
use railgun_store::DbOptions;
use railgun_types::{Result, TimeDelta, Timestamp, Value};

use crate::gen::{self, Core, EventGen, Rng, Zipf};
use crate::workloads::Spec;

/// Most events per longest window an entity may hold and still be sampled.
const HEAD_CAP: f64 = 800.0;
/// Entities sampled per group-by field.
const SAMPLE: usize = 200;
/// Replies of the last this-many events of a segment are retained.
pub const CHECK_TAIL: u64 = 8_000;
/// The whole check stops adding work after this long.
const BUDGET: Duration = Duration::from_secs(10);
/// Panes per sliding sketch window (`railgun_core::agg::sketch::NPANES`):
/// a sketch covers its window plus at most one pane of this width.
const SKETCH_PANES: i64 = 8;
/// Sketch estimates may be off by this many standard errors.
const SIGMAS: f64 = 4.0;
/// Space-saving slots for `topK(_, k)`: `max(8k, 64)`.
fn topk_slots(k: u32) -> f64 {
    (k as f64 * 8.0).max(64.0)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// Compare to output `agg` of rescan engine `engine`.
    Exact {
        engine: usize,
        agg: usize,
    },
    TumblingCount {
        size_ms: i64,
    },
    Hll {
        err: f64,
        window_ms: i64,
    },
    TopK {
        k: u32,
        window_ms: i64,
    },
    Percentile {
        rank: f64,
        window_ms: i64,
    },
}

#[derive(Debug, Clone, Copy)]
struct Leaf {
    query: usize,
    index: usize,
    by_merchant: bool,
    kind: Kind,
}

struct EngineCfg {
    by_merchant: bool,
    window_ms: i64,
    /// `WHERE amount > x`: events failing it are fed with a NULL amount,
    /// which field aggregations skip.
    amount_over: Option<f64>,
    aggs: Vec<(AggFunc, Option<usize>)>,
}

/// Outcome of the check.
#[derive(Debug, Default, Clone)]
pub struct Verdict {
    /// Values compared (mismatches and known defects included).
    pub checked: u64,
    /// Values that are wrong and that no known engine defect explains.
    pub mismatched: u64,
    /// Values that are wrong in one of the two ways the module docs name.
    pub known_defects: u64,
    /// Replies of late events: counted, not compared (a late event's own
    /// reply reflects the window at its arrival, not at its timestamp).
    pub late_replies: u64,
    pub entities: usize,
    pub seconds: f64,
    /// The time budget ran out before every retained reply was checked.
    pub truncated: bool,
    /// The first few mismatches, for the log.
    pub examples: Vec<String>,
}

impl Verdict {
    /// The run's `correct`: everything retained was checked, and nothing
    /// was wrong beyond the known defects.
    pub fn correct(&self) -> bool {
        self.mismatched == 0 && self.checked > 0 && !self.truncated
    }

    /// Share of the checked values that are right. Known defects count
    /// against it, so an engine defect that spreads shows as a lower ratio.
    pub fn match_ratio(&self) -> f64 {
        1.0 - (self.mismatched + self.known_defects) as f64 / self.checked.max(1) as f64
    }

    pub fn summary(&self) -> String {
        format!(
            "oracle: {} values of {} entities checked in {:.2} s, {} mismatched, {} known defects, {} late replies not compared{}",
            self.checked,
            self.entities,
            self.seconds,
            self.mismatched,
            self.known_defects,
            self.late_replies,
            if self.truncated {
                ", TRUNCATED by its time budget: the run is not correct"
            } else {
                ""
            }
        )
    }
}

pub struct Oracle {
    leaves: Vec<Leaf>,
    engines: Vec<EngineCfg>,
    /// `sampled[0][rank]` for cards, `sampled[1][rank]` for merchants.
    sampled: [Vec<bool>; 2],
    retained: HashMap<u64, Vec<AggregationResult>>,
    longest_window_ms: i64,
}

impl Oracle {
    pub fn new(spec: &Spec, gen: &EventGen, seed: u64) -> Self {
        let (leaves, engines) = plan(spec);
        let longest_window_ms = spec
            .queries
            .iter()
            .map(
                |q| match parse_query(q).expect("workload query parses").window.kind {
                    WindowKind::Sliding(w) | WindowKind::Tumbling(w) => w.as_millis(),
                    WindowKind::Infinite => panic!("the oracle cannot bound an infinite window"),
                },
            )
            .max()
            .unwrap_or(0);
        let window_events = (longest_window_ms / spec.spacing_ms) as f64;
        let mut rng = Rng::new(gen::mix(seed ^ 0x5A_3B1E));
        let by_merchant = leaves.iter().any(|l| l.by_merchant);
        let by_card = leaves.iter().any(|l| !l.by_merchant);
        let pick = |on: bool, z: &Zipf, rng: &mut Rng| {
            if on {
                sample(z, window_events, rng)
            } else {
                vec![false; z.len() as usize]
            }
        };
        let cards = pick(by_card, gen.cards(), &mut rng);
        let merchants = pick(by_merchant, gen.merchants(), &mut rng);
        Oracle {
            leaves,
            engines,
            sampled: [cards, merchants],
            retained: HashMap::new(),
            longest_window_ms,
        }
    }

    /// Forget the replies of the previous segment.
    pub fn start_segment(&mut self) {
        self.retained.clear();
    }

    /// Retain the reply of event `index` if one of its entities is sampled.
    pub fn offer(&mut self, index: u64, core: &Core, aggregations: &[AggregationResult]) {
        if self.sampled[0][core.card as usize] || self.sampled[1][core.merchant as usize] {
            self.retained.insert(index, aggregations.to_vec());
        }
    }

    /// Recompute and compare every retained reply. `scratch` holds the
    /// rescan engines' stores and is removed afterwards.
    pub fn check(
        &self,
        spec: &Spec,
        gen: &EventGen,
        queries: &[QueryHandle],
        scratch: &Path,
    ) -> Result<Verdict> {
        let started = Instant::now();
        let mut verdict = Verdict {
            entities: self.sampled.iter().flatten().filter(|s| **s).count(),
            ..Verdict::default()
        };
        let (Some(&first), Some(&last)) = (self.retained.keys().min(), self.retained.keys().max())
        else {
            return Ok(verdict);
        };
        // Everything that can still be inside the longest window of the
        // first checked event, late arrivals included.
        let warm = (self.longest_window_ms + spec.late_max_ms as i64) / spec.spacing_ms + 2;
        let from = first.saturating_sub(warm as u64);
        std::fs::remove_dir_all(scratch).ok();
        let mut engines = Vec::with_capacity(self.engines.len());
        for (i, cfg) in self.engines.iter().enumerate() {
            engines.push(RescanEngine::open(
                &scratch.join(format!("rescan-{i}")),
                RescanConfig {
                    // The engine's window is [T+1ms−w, T+1ms); the rescan
                    // engine's is [T−w', T].
                    window: TimeDelta::from_millis(cfg.window_ms - 1),
                    aggs: cfg.aggs.clone(),
                    store: DbOptions::default(),
                    cleanup_every: 0,
                },
            )?);
        }
        // Arrival-ordered history per sampled entity, for the leaves the
        // rescan engine does not model.
        let mut history: [HashMap<u32, Vec<Core>>; 2] = [HashMap::new(), HashMap::new()];
        let needs_history = |by_merchant: bool| {
            self.leaves
                .iter()
                .any(|l| l.by_merchant == by_merchant && !matches!(l.kind, Kind::Exact { .. }))
        };
        let needs_history = [needs_history(false), needs_history(true)];
        // Timestamps of each sampled entity's late events.
        let mut late: [HashMap<u32, Vec<i64>>; 2] = [HashMap::new(), HashMap::new()];
        // The scanned leaves need the entity's whole past (see the module
        // docs); the rescan engines only what can still be in a window.
        let start = if needs_history.contains(&true) {
            0
        } else {
            from
        };
        for i in start..=last {
            if started.elapsed() > BUDGET {
                verdict.truncated = true;
                break;
            }
            let core = gen.core(i);
            let reply = self.retained.get(&i);
            if reply.is_some() && core.late {
                verdict.late_replies += 1;
            }
            for (g, rank) in [(0usize, core.card), (1usize, core.merchant)] {
                if !self.sampled[g][rank as usize] {
                    continue;
                }
                let by_merchant = g == 1;
                let key = if by_merchant {
                    gen::merchant_id(rank)
                } else {
                    gen::card_id(rank)
                };
                if needs_history[g] {
                    history[g].entry(rank).or_default().push(core);
                }
                if core.late {
                    late[g].entry(rank).or_default().push(core.ts);
                }
                if i < from {
                    continue;
                }
                let mut exact: Vec<Option<Vec<Value>>> = vec![None; engines.len()];
                for (e, cfg) in self.engines.iter().enumerate() {
                    if cfg.by_merchant != by_merchant {
                        continue;
                    }
                    let amount = match cfg.amount_over {
                        Some(x) if core.amount <= x => Value::Null,
                        _ => Value::Float(core.amount),
                    };
                    let values = [amount, Value::Str(gen::merchant_id(core.merchant))];
                    exact[e] = Some(engines[e].process(
                        key.as_bytes(),
                        Timestamp::from_millis(core.ts),
                        &values,
                    )?);
                }
                let Some(reply) = reply.filter(|_| !core.late) else {
                    continue;
                };
                for leaf in self.leaves.iter().filter(|l| l.by_merchant == by_merchant) {
                    let got = reply
                        .iter()
                        .find(|a| {
                            a.query == queries[leaf.query].id() && a.index as usize == leaf.index
                        })
                        .map(|a| &a.value);
                    // `Some((problem, known))`: the value is wrong, and
                    // whether a known engine defect explains it.
                    let problem = match (got, leaf.kind) {
                        (None, _) => Some(("missing from the reply".to_owned(), false)),
                        (Some(got), Kind::Exact { engine, agg }) => {
                            let cfg = &self.engines[engine];
                            let want =
                                &exact[engine].as_ref().expect("engine of this group ran")[agg];
                            (!same(got, want)).then(|| {
                                let known = matches!(cfg.aggs[agg].0, AggFunc::Min | AggFunc::Max)
                                    && late_just_expired(
                                        late[g].get(&rank),
                                        core.ts,
                                        cfg.window_ms,
                                        spec.late_max_ms,
                                    );
                                (format!("got {got:?}, rescan says {want:?}"), known)
                            })
                        }
                        (Some(got), kind) => {
                            let events = history[g].get(&rank).map_or(&[][..], Vec::as_slice);
                            check_scanned(got, kind, &core, events, false).map(|problem| {
                                let stale = check_scanned(got, kind, &core, events, true).is_none();
                                (problem, stale)
                            })
                        }
                    };
                    verdict.checked += 1;
                    if let Some((_, true)) = problem {
                        verdict.known_defects += 1;
                    } else if let Some((problem, false)) = problem {
                        verdict.mismatched += 1;
                        if verdict.examples.len() < 5 {
                            verdict.examples.push(format!(
                                "event {i} ({key}) `{}` [{}]: {problem}",
                                spec.queries[leaf.query], leaf.index
                            ));
                        }
                    }
                }
            }
        }
        drop(engines);
        std::fs::remove_dir_all(scratch).ok();
        verdict.seconds = started.elapsed().as_secs_f64();
        Ok(verdict)
    }
}

/// Whether one of the entity's late events (`late`: their timestamps) left
/// a `window_ms` window within the last `late_max_ms` before `now_ms`.
///
/// The engine's min/max deque evicts in insertion order, but a late event
/// is inserted after and expires before its neighbours. From the moment
/// it expires until everything inserted before it has expired too (at
/// most the lateness cap later), the deque drops or keeps the wrong
/// element and min/max can be off — an engine defect this check found
/// (1 reply in ~25 000 on `wide_plan`). A min/max value that differs from
/// the rescan in that interval is a known defect; one that differs at any
/// other time is a mismatch.
fn late_just_expired(
    late: Option<&Vec<i64>>,
    now_ms: i64,
    window_ms: i64,
    late_max_ms: u64,
) -> bool {
    let newest = now_ms - window_ms + 1;
    let oldest = newest - late_max_ms as i64 - 2;
    late.is_some_and(|ts| ts.iter().any(|&l| l >= oldest && l <= newest))
}

/// Exact values must agree exactly; amounts are multiples of 0.25, so
/// even float sums do (`Int`/`Float` compare numerically: the rescan
/// engine reports min/max as floats).
fn same(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => x == y,
        _ => a == b,
    }
}

/// Check a leaf the rescan engine does not model against a scan of the
/// entity's `events` (arrival order, the current event last). A sketch
/// must account for everything in its window and for nothing older than
/// one more pane; with `stale_panes`, for nothing the entity never sent.
fn check_scanned(
    got: &Value,
    kind: Kind,
    now: &Core,
    events: &[Core],
    stale_panes: bool,
) -> Option<String> {
    // Events of the engine's window [T+1−w, T+1).
    let within = |w: i64| {
        events
            .iter()
            .filter(move |e| e.ts <= now.ts && e.ts > now.ts.saturating_sub(w))
    };
    // The most of the past a sliding sketch over `w` may cover.
    let extent = |w: i64| {
        if stale_panes {
            i64::MAX
        } else {
            w + w / SKETCH_PANES
        }
    };
    match kind {
        Kind::Exact { .. } => unreachable!("handled by the rescan engine"),
        Kind::TumblingCount { size_ms } => {
            let bucket = now.ts.div_euclid(size_ms) * size_ms;
            let want = events
                .iter()
                .filter(|e| e.ts >= bucket && e.ts <= now.ts)
                .count() as i64;
            (got.as_i64() != Some(want)).then(|| format!("got {got:?}, scan says {want}"))
        }
        Kind::Hll { err, window_ms } => {
            let distinct = |w: i64| {
                let mut m: Vec<u32> = within(w).map(|e| e.merchant).collect();
                m.sort_unstable();
                m.dedup();
                m.len() as f64
            };
            let lo = (distinct(window_ms) * (1.0 - SIGMAS * err)).floor() - 1.0;
            let hi = (distinct(extent(window_ms)) * (1.0 + SIGMAS * err)).ceil() + 1.0;
            match got.as_i64() {
                Some(est) if (est as f64) >= lo && (est as f64) <= hi => None,
                _ => Some(format!("got {got:?}, bound is [{lo}, {hi}]")),
            }
        }
        Kind::Percentile { rank, window_ms } => {
            let sorted = |w: i64| {
                let mut v: Vec<f64> = within(w).map(|e| e.amount).collect();
                v.sort_by(f64::total_cmp);
                v
            };
            let (narrow, wide) = (sorted(window_ms), sorted(extent(window_ms)));
            // The estimate must be a plausible value of rank ≥ rank − 5%
            // in either extent.
            let q = |v: &[f64], r: f64| v[((v.len() - 1) as f64 * r).floor() as usize];
            let lo = q(&narrow, (rank - 0.05).max(0.0)).min(q(&wide, (rank - 0.05).max(0.0)));
            let hi = wide[wide.len() - 1];
            match got.as_f64() {
                Some(est) if est >= lo && est <= hi => None,
                _ => Some(format!("got {got:?}, bound is [{lo}, {hi}]")),
            }
        }
        Kind::TopK { k, window_ms } => {
            let wide: Vec<u32> = within(extent(window_ms)).map(|e| e.merchant).collect();
            let slack = (wide.len() as f64 / topk_slots(k)).ceil() as i64 + 1;
            let Some(text) = got.as_str() else {
                return Some(format!("got {got:?}, expected a topK string"));
            };
            let mut previous = i64::MAX;
            let mut entries = 0;
            for entry in text.split(',').filter(|s| !s.is_empty()) {
                entries += 1;
                let Some((value, count)) = entry.rsplit_once('=') else {
                    return Some(format!("malformed topK entry `{entry}`"));
                };
                let Ok(count) = count.parse::<i64>() else {
                    return Some(format!("malformed topK count `{entry}`"));
                };
                let truth = wide
                    .iter()
                    .filter(|m| gen::merchant_id(**m) == value)
                    .count() as i64;
                if truth == 0 || count < 1 || count > truth + slack || count > previous {
                    return Some(format!(
                        "topK entry `{entry}`: true count {truth}, slack {slack}, previous {previous}"
                    ));
                }
                previous = count;
            }
            (entries == 0 || entries > k as usize)
                .then(|| format!("{entries} topK entries for k={k}"))
        }
    }
}

/// Turn the workload's queries into leaves and rescan-engine configs.
fn plan(spec: &Spec) -> (Vec<Leaf>, Vec<EngineCfg>) {
    let mut leaves = Vec::new();
    let mut engines: Vec<EngineCfg> = Vec::new();
    for (qi, text) in spec.queries.iter().enumerate() {
        let q = parse_query(text).expect("workload query parses");
        let by_merchant = q.group_by == ["merchantId"];
        assert!(
            by_merchant || q.group_by == ["cardId"],
            "unknown grouping in `{text}`"
        );
        let amount_over = match &q.filter {
            None => None,
            Some(PExpr::Cmp(CmpOp::Gt, field, lit)) => match (&**field, &**lit) {
                (PExpr::Field(f), PExpr::Lit(v)) if f == "amount" => v.as_f64(),
                _ => panic!("the oracle does not know the filter of `{text}`"),
            },
            Some(_) => panic!("the oracle does not know the filter of `{text}`"),
        };
        for (index, agg) in q.select.iter().enumerate() {
            let field = agg.field.as_deref().map(|f| match f {
                "amount" => 0usize,
                "merchantId" => 1,
                other => panic!("the oracle does not feed field `{other}`"),
            });
            let kind = match (q.window.kind, agg.func) {
                (WindowKind::Tumbling(w), AggFunc::Count)
                    if field.is_none() && amount_over.is_none() =>
                {
                    Kind::TumblingCount {
                        size_ms: w.as_millis(),
                    }
                }
                (WindowKind::Sliding(w), AggFunc::ApproxCountDistinct { err_bp })
                    if field == Some(1) =>
                {
                    Kind::Hll {
                        err: f64::from(err_bp) / 10_000.0,
                        window_ms: w.as_millis(),
                    }
                }
                (WindowKind::Sliding(w), AggFunc::TopK { k }) if field == Some(1) => Kind::TopK {
                    k,
                    window_ms: w.as_millis(),
                },
                (WindowKind::Sliding(w), AggFunc::Percentile { rank_bp }) if field == Some(0) => {
                    Kind::Percentile {
                        rank: f64::from(rank_bp) / 10_000.0,
                        window_ms: w.as_millis(),
                    }
                }
                (
                    WindowKind::Sliding(w),
                    AggFunc::Count
                    | AggFunc::Sum
                    | AggFunc::Avg
                    | AggFunc::Min
                    | AggFunc::Max
                    | AggFunc::CountDistinct,
                ) => {
                    // A NULLed amount cannot stand in for a filtered-out
                    // row under count(*).
                    assert!(
                        amount_over.is_none() || field == Some(0),
                        "unsupported filter use in `{text}`"
                    );
                    let window_ms = w.as_millis();
                    let engine = engines
                        .iter()
                        .position(|e| {
                            e.by_merchant == by_merchant
                                && e.window_ms == window_ms
                                && e.amount_over == amount_over
                        })
                        .unwrap_or_else(|| {
                            engines.push(EngineCfg {
                                by_merchant,
                                window_ms,
                                amount_over,
                                aggs: Vec::new(),
                            });
                            engines.len() - 1
                        });
                    engines[engine].aggs.push((agg.func, field));
                    Kind::Exact {
                        engine,
                        agg: engines[engine].aggs.len() - 1,
                    }
                }
                other => panic!("the oracle cannot check {other:?} in `{text}`"),
            };
            leaves.push(Leaf {
                query: qi,
                index,
                by_merchant,
                kind,
            });
        }
    }
    (leaves, engines)
}

/// A seed-chosen sample of ranks spanning the popularity range: 8 of the
/// 32 hottest ranks below the cost cap, the rest log-uniform over all
/// colder ranks (so middle and tail are both covered).
fn sample(zipf: &Zipf, window_events: f64, rng: &mut Rng) -> Vec<bool> {
    let n = zipf.len();
    let mut chosen = vec![false; n as usize];
    let first = (0..n)
        .find(|&r| zipf.mass(r) * window_events <= HEAD_CAP)
        .unwrap_or(n - 1);
    let head_end = (first + 32).min(n);
    let want = SAMPLE.min((n - first) as usize);
    let mut count = 0;
    while count < want.min(8) {
        let r = first + rng.below(u64::from(head_end - first)) as u32;
        count += usize::from(!std::mem::replace(&mut chosen[r as usize], true));
    }
    let (lo, hi) = (f64::from(head_end.min(n - 1)).max(1.0), f64::from(n));
    let colder = (n - head_end) as usize;
    while count < want && count < 8 + colder {
        let r = ((lo * (hi / lo).powf(rng.unit())) as u32).min(n - 1);
        count += usize::from(!std::mem::replace(&mut chosen[r as usize], true));
    }
    // A population too small for that takes what is left of its head.
    for r in first..head_end {
        if count < want {
            count += usize::from(!std::mem::replace(&mut chosen[r as usize], true));
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn every_workload_query_has_a_check() {
        for spec in &WORKLOADS {
            let (leaves, engines) = plan(spec);
            let selects: usize = spec
                .queries
                .iter()
                .map(|q| parse_query(q).unwrap().select.len())
                .sum();
            assert_eq!(leaves.len(), selects, "{}", spec.name);
            assert!(!engines.is_empty(), "{}", spec.name);
        }
    }

    #[test]
    fn sample_skips_entities_too_hot_to_rescan_and_spans_the_ranks() {
        let z = Zipf::new(50_000, 1.05);
        let chosen = sample(&z, 60_000.0, &mut Rng::new(1));
        let ranks: Vec<u32> = (0..50_000).filter(|r| chosen[*r as usize]).collect();
        assert_eq!(ranks.len(), SAMPLE);
        assert!(z.mass(ranks[0]) * 60_000.0 <= HEAD_CAP);
        assert!(ranks[0] > 0, "rank 0 holds ~6600 events per window");
        assert!(ranks.iter().filter(|r| **r < 64).count() >= 8);
        assert!(ranks.iter().any(|r| *r > 10_000));
        // Another seed, another sample.
        assert_ne!(chosen, sample(&z, 60_000.0, &mut Rng::new(2)));
        // A small population is sampled as far as it goes.
        let small = Zipf::new(50, 1.0);
        assert_eq!(
            sample(&small, 100.0, &mut Rng::new(1))
                .iter()
                .filter(|c| **c)
                .count(),
            50
        );
    }

    #[test]
    fn min_max_is_exempt_only_while_a_late_event_has_just_left_the_window() {
        // A late event at t=1000 leaves a 10 s window at t=11 000; with a
        // lateness cap of 500 ms the deque is trustworthy again by 11 502.
        let late = vec![1_000];
        let hit = |now| late_just_expired(Some(&late), now, 10_000, 500);
        assert!(!hit(10_900), "still inside the window");
        assert!(hit(11_000));
        assert!(hit(11_400));
        assert!(
            !hit(11_600),
            "everything inserted before it has expired too"
        );
        assert!(!late_just_expired(None, 11_000, 10_000, 500));
    }

    #[test]
    fn scanned_checks_accept_the_truth_and_reject_a_wrong_count() {
        let e = |ts, merchant, amount| Core {
            card: 1,
            merchant,
            amount,
            ts,
            late: false,
        };
        let events = [
            e(10_000, 1, 5.0),
            e(59_999, 2, 7.0),
            e(60_000, 2, 9.0),
            e(61_000, 3, 1.0),
        ];
        let now = events[3];
        let check = |got: Value, kind| check_scanned(&got, kind, &now, &events, false);
        let tumbling = Kind::TumblingCount { size_ms: 60_000 };
        assert_eq!(check(Value::Int(2), tumbling), None);
        assert!(check(Value::Int(3), tumbling).is_some());
        let hll = Kind::Hll {
            err: 0.02,
            window_ms: 300_000,
        };
        assert_eq!(check(Value::Int(3), hll), None);
        assert!(check(Value::Int(9), hll).is_some());
        let topk = Kind::TopK {
            k: 5,
            window_ms: 300_000,
        };
        let good = Value::Str("merch-000002=2,merch-000001=1".into());
        assert_eq!(check(good, topk), None);
        let bad = Value::Str("merch-000009=1".into());
        assert!(check(bad, topk).is_some());
        let p99 = Kind::Percentile {
            rank: 0.99,
            window_ms: 300_000,
        };
        assert_eq!(check(Value::Float(9.0), p99), None);
        assert!(check(Value::Float(0.5), p99).is_some());
    }

    #[test]
    fn a_sketch_is_held_to_its_window_plus_one_pane() {
        let e = |ts, merchant| Core {
            card: 1,
            merchant,
            amount: 1.0,
            ts,
            late: false,
        };
        // An 80 s window has 10 s panes: at t = 100 000 it may still cover
        // the event at 15 000 (one pane back) but not the one at 5 000.
        let events = [e(5_000, 1), e(15_000, 2), e(95_000, 3), e(100_000, 4)];
        let now = events[3];
        let hll = Kind::Hll {
            err: 0.02,
            window_ms: 80_000,
        };
        let check = |got: i64, stale| check_scanned(&Value::Int(got), hll, &now, &events, stale);
        assert_eq!(check(2, false), None, "the window itself");
        assert_eq!(check(3, false), None, "plus the pane before it");
        assert!(check(6, false).is_some(), "nothing older");
        // What a stale pane explains is told apart from what nothing does.
        assert_eq!(check(6, true), None);
        assert!(check(9, true).is_some());
    }

    #[test]
    fn a_truncated_or_empty_check_is_not_correct_and_known_defects_lower_the_ratio() {
        let mut v = Verdict {
            checked: 1_000,
            ..Verdict::default()
        };
        assert!(v.correct());
        assert_eq!(v.match_ratio(), 1.0);
        v.known_defects = 10;
        assert!(v.correct(), "known defects do not fail a run");
        assert_eq!(v.match_ratio(), 0.99);
        v.truncated = true;
        assert!(!v.correct());
        v.truncated = false;
        v.mismatched = 1;
        assert!(!v.correct());
        assert!(!Verdict::default().correct(), "nothing checked");
    }
}
