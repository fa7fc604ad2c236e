//! Deterministic crash-torture harness.
//!
//! The store is durable at [`Db::checkpoint`] and nowhere else: recovery
//! restores the newest image and replays the topic past it, and no live
//! directory is ever reopened. So the claims to prove are about images —
//! immutable tables, the image's manifest, the completeness marker — and
//! this module proves them by brute force:
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
//!    state of a crash at that instant.
//! 3. **Verify what recovery reads** — the images, never the crashed live
//!    directory:
//!    * every *acknowledged* image is complete
//!      ([`crate::checkpoint::is_complete`]) and opens to exactly the
//!      model state at its creation, up to expiry at its horizon;
//!    * an image the crash interrupted is either detectably incomplete or
//!      exact;
//!    * every file of an acknowledged image is byte-identical to what it
//!      was at acknowledgement: later flushes, compactions and images
//!      never change a table an earlier image links;
//!    * an image restored as a task restores it (linked into a fresh
//!      directory) and forced through a flush and compaction at the
//!      crash-time horizon holds no expired key and every live one —
//!      filtered keys never resurrect, live keys are never lost.
//!
//! Both column families carry a watermark-driven [`CompactionFilter`]:
//! [`Op::ExpireBefore`] advances a shared atomic horizon, and compactions
//! drop *expirable* keys (a fixed subset of the key space) whose value
//! tick is below it — the store's capacity-reclaim path. An image taken
//! after such a compaction may lack an acked key that had expired at its
//! horizon: its value or its absence are both legal, nothing else is.
//!
//! Driven by the `crash_torture` integration test (every point, every
//! time), which also bounds the worst image open.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use railgun_types::encode::crc32c;
use railgun_types::{RailgunError, Result};

use crate::checkpoint::is_complete;
use crate::db::{Db, DbOptions};
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
/// automatic flushes and compactions fire constantly, and the
/// [`TortureFilter`] on both column families at the given shared horizon.
pub fn torture_opts(fs: Arc<dyn StoreFs>, horizon: Arc<AtomicU64>) -> DbOptions {
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

/// An acknowledged checkpoint: the model and expiry horizon at its
/// creation, and the CRC of each of its files at acknowledgement.
#[derive(Debug)]
struct Image {
    ix: u32,
    model: Model,
    horizon: u64,
    files: Vec<(String, u32)>,
}

/// Everything the workload run learned: the acked model, the acked
/// images, and the checkpoint (if any) the crash interrupted.
#[derive(Debug, Default)]
struct RunState {
    model: Model,
    /// Expiry horizon at the crash (acked `ExpireBefore` high-water mark).
    horizon: u64,
    images: Vec<Image>,
    /// Checkpoint in flight when the crash tripped.
    pending_ckpt: Option<u32>,
    acked_ops: usize,
    tripped: bool,
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
    /// Images opened and verified: every acknowledged one, and the
    /// interrupted one if it is complete.
    pub images: usize,
    /// For a crash inside a checkpoint, whether its image is complete
    /// (and was then verified exact); `None` for a crash elsewhere.
    pub interrupted_complete: Option<bool>,
    /// Wall-time of the slowest image open.
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

fn image_dir(root: &Path, ix: u32) -> PathBuf {
    root.join(format!("ckpt-{ix}"))
}

/// Each file of `dir` with the CRC of its bytes, sorted by name.
fn file_crcs(dir: &Path) -> Result<Vec<(String, u32)>> {
    let mut files = Vec::new();
    for name in RealFs.read_dir_files(dir)? {
        let crc = crc32c(&RealFs.read(&dir.join(&name))?);
        files.push((name, crc));
    }
    files.sort();
    Ok(files)
}

fn run_workload(root: &Path, fs: Arc<dyn StoreFs>, ops: &[Op]) -> Result<RunState> {
    let mut st = RunState::default();
    let horizon = Arc::new(AtomicU64::new(0));
    let db = Db::open(&root.join("db"), torture_opts(fs, Arc::clone(&horizon)))?;
    let aux = db.create_cf("aux")?;
    let cf = |a: bool| if a { aux } else { Db::DEFAULT_CF };
    for op in ops {
        let r: Result<()> = match op {
            Op::Put { aux: a, key, tick } => {
                let (k, v) = (key_bytes(*key), value_bytes(*key, *tick));
                let res = db.put(cf(*a), &k, &v);
                if res.is_ok() {
                    st.model.insert((*a, k), Some(v));
                }
                res
            }
            Op::Delete { aux: a, key } => {
                let k = key_bytes(*key);
                let res = db.delete(cf(*a), &k);
                if res.is_ok() {
                    st.model.insert((*a, k), None);
                }
                res
            }
            Op::Flush => db.flush(),
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
                let target = image_dir(root, *ix);
                let res = db.checkpoint(&target);
                match &res {
                    Ok(()) => st.images.push(Image {
                        ix: *ix,
                        model: st.model.clone(),
                        horizon: st.horizon,
                        files: file_crcs(&target)?,
                    }),
                    Err(_) => st.pending_ckpt = Some(*ix),
                }
                res
            }
        };
        match r {
            Ok(()) => st.acked_ops += 1,
            Err(e) if is_injected(&e) => {
                st.tripped = true;
                break;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(st)
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
                    "cf(aux={aux}) key {:?} surfaced that the image never held",
                    String::from_utf8_lossy(&k)
                ),
            ));
        }
    }
    Ok(())
}

/// Restore image `ix` as a task does — its files linked into a fresh
/// directory — and check it holds exactly `snap` (up to expiry at
/// `snap_horizon`); then force a flush and compaction of both column
/// families at the crash-time `horizon` and check every expired key is
/// gone and every live one intact. Returns the open's wall-time.
fn verify_image(
    plan: &str,
    root: &Path,
    ix: u32,
    snap: &Model,
    snap_horizon: u64,
    horizon: u64,
) -> Result<u128> {
    let image = image_dir(root, ix);
    let restored = root.join(format!("restored-{ix}"));
    RealFs.create_dir_all(&restored)?;
    for name in RealFs.read_dir_files(&image)? {
        RealFs.hard_link_or_copy(&image.join(&name), &restored.join(&name))?;
    }
    let t0 = Instant::now();
    let db = Db::open(
        &restored,
        torture_opts(RealFs::shared(), Arc::new(AtomicU64::new(horizon))),
    )
    .map_err(|e| err(plan, format!("image {ix} does not open: {e}")))?;
    let micros = t0.elapsed().as_micros();
    verify_cf(plan, &db, false, snap, snap_horizon)?;
    verify_cf(plan, &db, true, snap, snap_horizon)?;
    let aux_cf = db.cf_by_name("aux");
    db.flush()
        .and_then(|()| db.compact_cf(Db::DEFAULT_CF))
        .and_then(|()| aux_cf.map_or(Ok(()), |aux| db.compact_cf(aux)))
        .map_err(|e| err(plan, format!("image {ix}: reclaim failed: {e}")))?;
    for ((a, k), expect) in snap {
        let got = match (a, aux_cf) {
            (false, _) => db.get(Db::DEFAULT_CF, k)?,
            (true, Some(cf)) => db.get(cf, k)?,
            (true, None) => None,
        };
        let (ok, what) = match expect.as_deref() {
            Some(v) if may_expire(k, v, horizon) => (got.is_none(), "expired key survived"),
            other => (got.as_deref() == other, "live key damaged by"),
        };
        if !ok {
            return Err(err(
                plan,
                format!(
                    "image {ix}: {what} its reclaim: {:?}",
                    String::from_utf8_lossy(k)
                ),
            ));
        }
    }
    Ok(micros)
}

/// Check every image of the run `st` against the contract (module docs);
/// returns the images verified, whether an interrupted image was
/// complete, and the slowest open.
fn verify_images(plan: &str, root: &Path, st: &RunState) -> Result<(usize, Option<bool>, u128)> {
    let mut worst = 0;
    for img in &st.images {
        let dir = image_dir(root, img.ix);
        if !is_complete(&RealFs, &dir) {
            return Err(err(plan, format!("acked image {} is incomplete", img.ix)));
        }
        if file_crcs(&dir)? != img.files {
            return Err(err(
                plan,
                format!("image {} changed after it was acked", img.ix),
            ));
        }
        worst = worst.max(verify_image(plan, root, img.ix, &img.model, img.horizon, st.horizon)?);
    }
    // An interrupted image is either detectably incomplete (the restore
    // path falls back to replay) or exact — never a silently-wrong image.
    let interrupted_complete = st
        .pending_ckpt
        .map(|ix| is_complete(&RealFs, &image_dir(root, ix)));
    if let (Some(ix), Some(true)) = (st.pending_ckpt, interrupted_complete) {
        worst = worst.max(verify_image(plan, root, ix, &st.model, st.horizon, st.horizon)?);
    }
    let images = st.images.len() + usize::from(interrupted_complete == Some(true));
    Ok((images, interrupted_complete, worst))
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
/// full verification of the images.
fn run_plan(root: &Path, seed: u64, plan: CrashPlan, ops: &[Op]) -> Result<PointResult> {
    let tag = format!("{}#{}", plan.point, plan.hit);
    fresh_root(root)?;
    let fault = FaultFs::new(seed);
    fault.arm(Some(plan));
    let st = run_workload(root, Arc::new(fault), ops)?;
    if !st.tripped {
        return Err(err(&tag, "plan never tripped".into()));
    }
    let (images, interrupted_complete, recovery_micros) = verify_images(&tag, root, &st)?;
    Ok(PointResult {
        plan,
        tripped: st.tripped,
        acked_ops: st.acked_ops,
        images,
        interrupted_complete,
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
    verify_images("profile", root, &st)?;
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
        // two saturate to 0) — otherwise no compaction before an image
        // filters anything.
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
