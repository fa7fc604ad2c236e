//! Deterministic crash-torture harness.
//!
//! The recovery claims of this crate (flush durability, atomic manifest
//! replacement, orphan quarantine, checkpoint completeness) are only as
//! good as their tests. This module proves them by brute force:
//!
//! 1. **Profile pass** — run a fixed mixed put/delete/flush/compact/
//!    expire/checkpoint workload ([`build_workload`]) over an *unarmed*
//!    [`FaultFs`], counting how often every registered crash point
//!    ([`crash_points::ALL`]) is reached. Every point must be hit at
//!    least once — a point the workload cannot reach is a hole in the
//!    sweep, and the harness fails loudly.
//! 2. **Sweep** — for each point, re-run the same workload with a
//!    [`CrashPlan`] armed at a spread of hit indices. The trip freezes
//!    the filesystem, leaving the backing directory as the exact on-disk
//!    image of a crash at that instant.
//! 3. **Recover and verify** — reopen the frozen image with [`RealFs`]
//!    and assert the contract:
//!    * each column family reads exactly the model as of its last
//!      committed flush: nothing flushed is lost, and nothing written
//!      after that flush — acknowledged or not — appears. A flush in
//!      flight at the crash may land either way, so a CF it was flushing
//!      may instead read the model with the in-flight op applied;
//!    * [`Db::verify_integrity`] passes — every SSTable decodes fully;
//!    * every *acknowledged* checkpoint is complete
//!      ([`crate::checkpoint::is_complete`]) and restores to exactly the
//!      model state at its creation; a checkpoint interrupted by the
//!      crash is either detectably incomplete or fully correct.
//!
//! A write is durable once its CF is flushed — explicitly, by a
//! checkpoint, or because the write took the CF's memtable past its
//! budget. The harness learns which by reading the CF's memtable size
//! after every acknowledged op: an empty memtable means every write to
//! the CF so far is in a committed table.
//!
//! Both column families carry a watermark-driven [`CompactionFilter`]:
//! [`Op::ExpireBefore`] advances a shared atomic horizon, and compactions
//! drop *expirable* keys (a fixed subset of the key space) whose value
//! tick is below it — the store's capacity-reclaim path. The verification
//! contract extends accordingly: an acked expired key may read back as
//! its acked value **or** be absent (the filter ran), never anything
//! else; non-expirable and fresh keys stay exact. After recovery the
//! harness additionally forces a flush + compaction of both CFs at the
//! crash-time horizon and asserts every expired key is gone and every
//! live one intact — filtered keys never resurrect, live keys are never
//! lost.
//!
//! Driven by the `crash_torture` integration test (every point, every
//! time), which also bounds the worst recovery wall-time.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use railgun_types::{RailgunError, Result};

use crate::db::{Db, DbOptions, RecoveryReport};
use crate::options::{CfOptions, CompactionFilter, FilterDecision};
use crate::vfs::{crash_points, is_injected, CrashPlan, FaultFs, RealFs, StoreFs};

/// One operation of the deterministic torture workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Write `key` (into the aux column family when `aux`); the value is
    /// derived from `(key, tick)` so overwrites are distinguishable.
    Put { aux: bool, key: u64, tick: u64 },
    /// Delete `key` (from the aux column family when `aux`).
    Delete { aux: bool, key: u64 },
    /// Flush all memtables (also fires implicitly via the tiny budget).
    Flush,
    /// Compact both column families.
    Compact,
    /// Advance the shared expiry horizon to tick `.0` — expirable keys
    /// whose last acked tick is below it become eligible for
    /// compaction-filter discard.
    ExpireBefore(u64),
    /// Create checkpoint number `.0` next to the database.
    Checkpoint(u32),
}

/// Keys in this subset of the 41-key space are subject to expiry (both
/// column families) — `key0010`, `key0025`, `key0040` land in aux.
fn expirable(key: u64) -> bool {
    key % 3 == 1
}

/// Parse `key{k:04}` back to `k`.
fn parse_key_no(key: &[u8]) -> Option<u64> {
    let digits = key.strip_prefix(b"key")?;
    std::str::from_utf8(digits).ok()?.parse().ok()
}

/// Parse the tick out of `val{k:04}-{tick:08}-…` (bytes 8..16).
fn value_tick(value: &[u8]) -> Option<u64> {
    std::str::from_utf8(value.get(8..16)?).ok()?.parse().ok()
}

/// The torture workload's watermark filter: discard expirable keys whose
/// value tick is below the shared horizon. Pure (verdict depends only on
/// the key/value pair and the current horizon) and monotonic (the
/// horizon only advances) — the [`CompactionFilter`] contract.
#[derive(Debug)]
pub struct TortureFilter {
    horizon: Arc<AtomicU64>,
}

impl CompactionFilter for TortureFilter {
    fn name(&self) -> &str {
        "torture-expiry"
    }
    fn filter(&self, key: &[u8], value: &[u8]) -> FilterDecision {
        match (parse_key_no(key), value_tick(value)) {
            (Some(k), Some(t)) if expirable(k) && t < self.horizon.load(Ordering::Relaxed) => {
                FilterDecision::Discard
            }
            _ => FilterDecision::Keep,
        }
    }
}

/// splitmix64 — the same tiny PRNG [`FaultFs`] uses for tear lengths.
fn splitmix(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The deterministic mixed workload: ~70% puts / ~20% deletes over a
/// 41-key space (so deletes and overwrites actually collide), explicit
/// flushes, compactions, and periodic checkpoints. Identical for every
/// run of the same `n` — determinism is what lets the sweep re-run the
/// exact same operation sequence per crash plan.
pub fn build_workload(n: usize) -> Vec<Op> {
    let mut rng = 0x0dd_ba11u64;
    let mut out = Vec::with_capacity(n);
    let mut ckpt = 0u32;
    for i in 0..n {
        if i % 97 == 96 {
            out.push(Op::Checkpoint(ckpt));
            ckpt += 1;
        } else if i % 61 == 60 {
            // Trail the workload by a fixed lag so some (not all) keys'
            // latest writes fall below the horizon — the 41-key space is
            // recycled fast, so a short lag keeps both populations
            // (expired and live expirable keys) present at compactions.
            out.push(Op::ExpireBefore((i as u64).saturating_sub(55)));
        } else if i % 53 == 52 {
            out.push(Op::Compact);
        } else if i % 31 == 30 {
            out.push(Op::Flush);
        } else {
            let r = splitmix(&mut rng);
            let key = splitmix(&mut rng) % 41;
            let aux = key.is_multiple_of(5);
            if r.is_multiple_of(4) {
                out.push(Op::Delete { aux, key });
            } else {
                out.push(Op::Put {
                    aux,
                    key,
                    tick: i as u64,
                });
            }
        }
    }
    out
}

fn key_bytes(key: u64) -> Vec<u8> {
    format!("key{key:04}").into_bytes()
}

fn value_bytes(key: u64, tick: u64) -> Vec<u8> {
    format!("val{key:04}-{tick:08}-{:016x}", key.wrapping_mul(tick | 1))
        .repeat(2)
        .into_bytes()
}

/// Store tuning for the torture workload: a tiny memtable budget so
/// automatic flushes and compactions fire constantly. A zero horizon
/// makes the expiry filter a no-op.
pub fn torture_opts(fs: Arc<dyn StoreFs>) -> DbOptions {
    torture_opts_with(fs, Arc::new(AtomicU64::new(0)))
}

/// [`torture_opts`] with the [`TortureFilter`] installed on both column
/// families at the given shared horizon.
pub fn torture_opts_with(fs: Arc<dyn StoreFs>, horizon: Arc<AtomicU64>) -> DbOptions {
    let cf = |horizon: &Arc<AtomicU64>| CfOptions {
        memtable_budget_bytes: 1024,
        compaction_trigger: 3,
        ..CfOptions::default()
    }
    .with_filter(Arc::new(TortureFilter {
        horizon: Arc::clone(horizon),
    }));
    DbOptions {
        memtable_budget_bytes: 1024,
        compaction_trigger: 3,
        fs,
        cf_options: vec![("default".to_owned(), cf(&horizon)), ("aux".to_owned(), cf(&horizon))],
        ..DbOptions::default()
    }
}

/// `(aux?, key)` → acked state (`None` = acked delete).
type ModelKey = (bool, Vec<u8>);
type Model = HashMap<ModelKey, Option<Vec<u8>>>;

/// Everything the workload run learned: the acked model, what of it each
/// CF committed, per-checkpoint snapshots, and what (if anything) was in
/// flight at the crash.
#[derive(Debug, Default)]
struct RunState {
    model: Model,
    /// Per CF, the model as of that CF's last committed flush.
    durable: Model,
    /// Expiry horizon at the crash (acked `ExpireBefore` high-water mark).
    horizon: u64,
    /// `(index, model, horizon)` snapshot at each *acknowledged*
    /// checkpoint.
    ckpts: Vec<(u32, Model, u64)>,
    /// Checkpoint in flight when the crash tripped.
    pending_ckpt: Option<u32>,
    /// The op in flight at the crash may have flushed these CFs (by aux
    /// flag) before it failed: each may read the model with the op
    /// applied instead of its durable state.
    landing: Option<(Model, Vec<bool>)>,
    acked_ops: usize,
    tripped: bool,
}

impl RunState {
    /// Record a put (`Some`) or delete (`None`) of `id`: acked, into the
    /// model; failed, as the op in flight, returned as its landing — only
    /// the written CF's memtable grew, so only it can have been flushed.
    fn record_write(
        &mut self,
        id: ModelKey,
        state: Option<Vec<u8>>,
        acked: bool,
    ) -> Option<(Model, Vec<bool>)> {
        let aux = id.0;
        if acked {
            self.model.insert(id, state);
            return None;
        }
        let mut applied = self.model.clone();
        applied.insert(id, state);
        Some((applied, vec![aux]))
    }
}

/// `model` with the entries of CF `aux` replaced by those of `from`.
fn adopt_cf(model: &mut Model, from: &Model, aux: bool) {
    model.retain(|(a, _), _| *a != aux);
    model.extend(
        from.iter()
            .filter(|((a, _), _)| *a == aux)
            .map(|(k, v)| (k.clone(), v.clone())),
    );
}

/// True iff the acked state `(key, value)` is fair game for the filter
/// at `horizon` — such a key may legally read back as absent.
fn may_expire(key: &[u8], value: &[u8], horizon: u64) -> bool {
    parse_key_no(key).is_some_and(expirable)
        && value_tick(value).is_some_and(|t| t < horizon)
}

/// Outcome of torturing one crash plan.
#[derive(Debug, Clone)]
pub struct PointResult {
    pub plan: CrashPlan,
    /// Whether the armed fault actually fired (always true for plans
    /// derived from the profile pass).
    pub tripped: bool,
    /// Operations acknowledged before the crash.
    pub acked_ops: usize,
    /// What the post-crash open repaired.
    pub recovery: RecoveryReport,
    /// Wall-time of the post-crash `Db::open`.
    pub recovery_micros: u128,
}

/// Outcome of a full sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// One entry per `(point, hit)` plan, in sweep order.
    pub results: Vec<PointResult>,
    /// `(point, times reached)` from the unarmed profile pass.
    pub profile: Vec<(&'static str, u64)>,
}

fn err(plan: &str, msg: String) -> RailgunError {
    RailgunError::Storage(format!("crash-torture [{plan}]: {msg}"))
}

fn run_workload(root: &Path, fs: Arc<dyn StoreFs>, ops: &[Op]) -> Result<RunState> {
    let mut st = RunState::default();
    let horizon = Arc::new(AtomicU64::new(0));
    let db = match Db::open(
        &root.join("db"),
        torture_opts_with(Arc::clone(&fs), Arc::clone(&horizon)),
    ) {
        Ok(db) => db,
        Err(e) if is_injected(&e) => {
            st.tripped = true;
            return Ok(st);
        }
        Err(e) => return Err(e),
    };
    let aux = match db.create_cf("aux") {
        Ok(id) => id,
        Err(e) if is_injected(&e) => {
            st.tripped = true;
            return Ok(st);
        }
        Err(e) => return Err(e),
    };
    for op in ops {
        // What this op would make durable, and in which CFs, if it fails
        // part-way through a flush.
        let mut landing = None;
        let r: Result<()> = match op {
            Op::Put { aux: a, key, tick } => {
                let (k, v) = (key_bytes(*key), value_bytes(*key, *tick));
                let res = db.put(if *a { aux } else { Db::DEFAULT_CF }, &k, &v);
                landing = st.record_write((*a, k), Some(v), res.is_ok());
                res
            }
            Op::Delete { aux: a, key } => {
                let k = key_bytes(*key);
                let res = db.delete(if *a { aux } else { Db::DEFAULT_CF }, &k);
                landing = st.record_write((*a, k), None, res.is_ok());
                res
            }
            Op::Flush => {
                landing = Some((st.model.clone(), vec![false, true]));
                db.flush()
            }
            Op::Compact => db
                .compact_cf(Db::DEFAULT_CF)
                .and_then(|()| db.compact_cf(aux)),
            Op::ExpireBefore(t) => {
                // Purely in-memory: cannot trip a storage fault, takes
                // effect at the next compaction.
                horizon.fetch_max(*t, Ordering::Relaxed);
                st.horizon = st.horizon.max(*t);
                Ok(())
            }
            Op::Checkpoint(ix) => {
                landing = Some((st.model.clone(), vec![false, true]));
                let res = db.checkpoint(&root.join(format!("ckpt-{ix}")));
                if res.is_ok() {
                    st.ckpts.push((*ix, st.model.clone(), st.horizon));
                } else {
                    st.pending_ckpt = Some(*ix);
                }
                res
            }
        };
        match r {
            Ok(()) => st.acked_ops += 1,
            Err(e) if is_injected(&e) => {
                st.tripped = true;
                st.landing = landing;
                break;
            }
            Err(e) => return Err(e),
        }
        // An empty memtable: every write to the CF so far is committed.
        for cf in db
            .stats()
            .per_cf
            .iter()
            .filter(|cf| cf.memtable_entries == 0)
        {
            match cf.name.as_str() {
                "default" => adopt_cf(&mut st.durable, &st.model, false),
                "aux" => adopt_cf(&mut st.durable, &st.model, true),
                _ => {}
            }
        }
    }
    Ok(st)
}

/// Check both column families of `db` against `model`.
fn verify_exact(plan: &str, db: &Db, model: &Model, horizon: u64) -> Result<()> {
    verify_cf(plan, db, false, model, horizon)?;
    verify_cf(plan, db, true, model, horizon)
}

/// Check column family `aux` of `db` against the entries of `model` for
/// it: every key reads back exactly — except an acked value below the
/// expiry horizon, which the compaction filter may already have
/// reclaimed: its value or absence are both legal, nothing else is — and
/// a full scan shows no key the model does not hold.
fn verify_cf(plan: &str, db: &Db, aux: bool, model: &Model, horizon: u64) -> Result<()> {
    let cf = if aux {
        db.cf_by_name("aux")
    } else {
        Some(Db::DEFAULT_CF)
    };
    for ((a, k), expect) in model.iter().filter(|((a, _), _)| *a == aux) {
        let got = match cf {
            Some(id) => db.get(id, k)?,
            None => None,
        };
        let expired_ok =
            got.is_none() && expect.as_deref().is_some_and(|v| may_expire(k, v, horizon));
        if got.as_deref() != expect.as_deref() && !expired_ok {
            return Err(err(
                plan,
                format!(
                    "cf(aux={a}) key {:?} expected {:?} B got {:?} B",
                    String::from_utf8_lossy(k),
                    expect.as_ref().map(|v| v.len()),
                    got.as_ref().map(|v| v.len())
                ),
            ));
        }
    }
    let Some(id) = cf else {
        return Ok(());
    };
    for (k, v) in db.scan(id, b"", None)? {
        if model.get(&(aux, k.clone())) != Some(&Some(v)) {
            return Err(err(
                plan,
                format!(
                    "cf(aux={aux}) key {:?} surfaced that no committed flush wrote",
                    String::from_utf8_lossy(&k)
                ),
            ));
        }
    }
    Ok(())
}

fn recover_and_verify(plan: &str, root: &Path, st: &RunState) -> Result<(RecoveryReport, u128)> {
    let t0 = Instant::now();
    let db = Db::open(
        &root.join("db"),
        torture_opts_with(RealFs::shared(), Arc::new(AtomicU64::new(st.horizon))),
    )
    .map_err(|e| err(plan, format!("recovery open failed: {e}")))?;
    let micros = t0.elapsed().as_micros();
    db.verify_integrity()
        .map_err(|e| err(plan, format!("integrity check failed: {e}")))?;
    // Each CF reads its durable state — or, if the op in flight was
    // flushing it, possibly that op's result. `settled` collects which.
    let mut settled = Model::new();
    for aux in [false, true] {
        let mut outcome = verify_cf(plan, &db, aux, &st.durable, st.horizon).map(|()| &st.durable);
        if let (Err(_), Some((landed, cfs))) = (&outcome, &st.landing) {
            if cfs.contains(&aux) && verify_cf(plan, &db, aux, landed, st.horizon).is_ok() {
                outcome = Ok(landed);
            }
        }
        adopt_cf(&mut settled, outcome?, aux);
    }
    // Acked checkpoints must be complete and restore byte-exactly (up to
    // expiry at their snapshot horizon).
    for (ix, snap, snap_horizon) in &st.ckpts {
        let target = root.join(format!("ckpt-{ix}"));
        if !crate::checkpoint::is_complete(&RealFs, &target) {
            return Err(err(plan, format!("acked checkpoint {ix} is incomplete")));
        }
        let cdb = Db::open(&target, torture_opts(RealFs::shared()))?;
        cdb.verify_integrity()
            .map_err(|e| err(plan, format!("checkpoint {ix} corrupt: {e}")))?;
        verify_exact(plan, &cdb, snap, *snap_horizon)?;
    }
    // An interrupted checkpoint is either detectably incomplete (the
    // restore path falls back to replay) or fully correct — never a
    // silently-wrong image.
    if let Some(ix) = st.pending_ckpt {
        let target = root.join(format!("ckpt-{ix}"));
        if crate::checkpoint::is_complete(&RealFs, &target) {
            let cdb = Db::open(&target, torture_opts(RealFs::shared()))?;
            cdb.verify_integrity()
                .map_err(|e| err(plan, format!("interrupted checkpoint {ix} corrupt: {e}")))?;
            verify_exact(plan, &cdb, &st.model, st.horizon)?;
        }
    }
    // Reclaim check: force a flush + filtered compaction of both CFs at
    // the crash-time horizon. Every expired recovered key must now be
    // gone (filtered keys never resurrect from leftover input tables) and
    // every live one must read back exactly (the filter never eats live
    // data).
    db.flush()
        .map_err(|e| err(plan, format!("post-recovery flush failed: {e}")))?;
    db.compact_cf(Db::DEFAULT_CF)
        .map_err(|e| err(plan, format!("post-recovery compact failed: {e}")))?;
    if let Some(aux) = db.cf_by_name("aux") {
        db.compact_cf(aux)
            .map_err(|e| err(plan, format!("post-recovery aux compact failed: {e}")))?;
    }
    let aux_cf = db.cf_by_name("aux");
    for ((a, k), expect) in &settled {
        let got = match (a, aux_cf) {
            (false, _) => db.get(Db::DEFAULT_CF, k)?,
            (true, Some(cf)) => db.get(cf, k)?,
            (true, None) => None,
        };
        match expect.as_deref() {
            Some(v) if may_expire(k, v, st.horizon) => {
                if got.is_some() {
                    return Err(err(
                        plan,
                        format!(
                            "expired key {:?} survived post-recovery compaction",
                            String::from_utf8_lossy(k)
                        ),
                    ));
                }
            }
            other => {
                if got.as_deref() != other {
                    return Err(err(
                        plan,
                        format!(
                            "live key {:?} damaged by post-recovery compaction",
                            String::from_utf8_lossy(k)
                        ),
                    ));
                }
            }
        }
    }
    Ok((db.recovery_report().clone(), micros))
}

fn fresh_root(root: &Path) -> Result<()> {
    std::fs::remove_dir_all(root).ok();
    std::fs::create_dir_all(root)?;
    Ok(())
}

/// Spread hit indices over `1..=max_hit`: always the first and last
/// occurrence, plus evenly spaced interior hits up to `per_point` total.
fn pick_hits(max_hit: u64, per_point: u64) -> Vec<u64> {
    let per_point = per_point.max(1);
    if max_hit <= per_point {
        return (1..=max_hit).collect();
    }
    let mut v = vec![1];
    for j in 1..per_point - 1 {
        v.push(1 + j * (max_hit - 1) / (per_point - 1));
    }
    v.push(max_hit);
    v.dedup();
    v
}

/// Run one armed plan end-to-end: fresh directory, workload to the trip,
/// recovery, full verification.
fn run_plan(root: &Path, seed: u64, plan: CrashPlan, ops: &[Op]) -> Result<PointResult> {
    let tag = format!("{}#{}", plan.point, plan.hit);
    fresh_root(root)?;
    let fault = FaultFs::new(seed);
    fault.arm(Some(plan));
    let st = run_workload(root, Arc::new(fault.clone()), ops)?;
    if !st.tripped {
        return Err(err(&tag, "plan never tripped".into()));
    }
    let (recovery, recovery_micros) = recover_and_verify(&tag, root, &st)?;
    Ok(PointResult {
        plan,
        tripped: st.tripped,
        acked_ops: st.acked_ops,
        recovery,
        recovery_micros,
    })
}

/// The full crash-point sweep.
///
/// `root` is scratch space, wiped per plan. `total_ops` sizes the
/// workload; `hits_per_point` bounds how many occurrences of each point
/// are armed (`pick_hits` spreads first/interior/last). Fails with a descriptive
/// [`RailgunError::Storage`] on the first contract violation.
pub fn sweep(root: &Path, total_ops: usize, seed: u64, hits_per_point: u64) -> Result<SweepReport> {
    let ops = build_workload(total_ops);
    // Profile pass: unarmed, must complete, counts every point's hits —
    // and doubles as the crash-free control for model verification.
    fresh_root(root)?;
    let fault = FaultFs::new(seed);
    let st = run_workload(root, Arc::new(fault.clone()), &ops)?;
    if st.tripped {
        return Err(err("profile", "unarmed run tripped a fault".into()));
    }
    recover_and_verify("profile", root, &st)?;
    let profile = fault.hit_profile();
    for point in crash_points::ALL {
        let hits = profile
            .iter()
            .find(|(p, _)| p == point)
            .map_or(0, |(_, n)| *n);
        if hits == 0 {
            return Err(err(
                "profile",
                format!("workload never reaches crash point {point} — sweep has a hole"),
            ));
        }
    }
    let mut results = Vec::new();
    for (point, max_hit) in &profile {
        for hit in pick_hits(*max_hit, hits_per_point) {
            results.push(run_plan(root, seed, CrashPlan { point, hit }, &ops)?);
        }
    }
    std::fs::remove_dir_all(root).ok();
    Ok(SweepReport { results, profile })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_mixed() {
        let a = build_workload(400);
        let b = build_workload(400);
        assert_eq!(a, b);
        let count = |f: fn(&Op) -> bool| a.iter().filter(|o| f(o)).count();
        assert!(count(|o| matches!(o, Op::Put { .. })) > 200);
        assert!(count(|o| matches!(o, Op::Delete { .. })) > 40);
        assert!(count(|o| matches!(o, Op::Flush)) >= 10);
        assert!(count(|o| matches!(o, Op::Compact)) >= 5);
        assert!(count(|o| matches!(o, Op::Checkpoint(_))) >= 4);
        // Enough horizon advances that some land above tick 0 (the first
        // two saturate to 0) — otherwise the filtered-compaction crash
        // points are unreachable.
        assert!(count(|o| matches!(o, Op::ExpireBefore(t) if *t > 0)) >= 3);
    }

    #[test]
    fn filter_predicates_parse_workload_values() {
        assert_eq!(parse_key_no(&key_bytes(7)), Some(7));
        assert_eq!(parse_key_no(b"nope"), None);
        assert_eq!(value_tick(&value_bytes(7, 123)), Some(123));
        assert_eq!(value_tick(b"short"), None);
        assert!(expirable(10) && expirable(25) && expirable(40));
        assert!(!expirable(9));
        let horizon = Arc::new(AtomicU64::new(100));
        let f = TortureFilter {
            horizon: Arc::clone(&horizon),
        };
        assert_eq!(
            f.filter(&key_bytes(10), &value_bytes(10, 50)),
            FilterDecision::Discard
        );
        assert_eq!(
            f.filter(&key_bytes(10), &value_bytes(10, 150)),
            FilterDecision::Keep
        );
        assert_eq!(
            f.filter(&key_bytes(9), &value_bytes(9, 50)),
            FilterDecision::Keep
        );
    }

    #[test]
    fn pick_hits_spreads_and_bounds() {
        assert_eq!(pick_hits(2, 3), vec![1, 2]);
        assert_eq!(pick_hits(3, 3), vec![1, 2, 3]);
        let picked = pick_hits(100, 3);
        assert_eq!(picked.first(), Some(&1));
        assert_eq!(picked.last(), Some(&100));
        assert!(picked.len() <= 3);
        assert_eq!(pick_hits(7, 1), vec![1, 7]);
    }
}
