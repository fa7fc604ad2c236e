//! The crash-torture sweep: crash the store at every registered crash
//! point during a mixed workload, recover from the frozen image, and
//! assert no acknowledged write is lost, integrity holds, and every
//! acknowledged checkpoint restores exactly (see `railgun_store::torture`
//! for the full contract).
//!
//! Run in release mode in CI — the sweep is ~40 full workload runs.

use railgun_store::{crash_points, torture};

const OPS: usize = 400;
const SEED: u64 = 0xC0FFEE;
const HITS_PER_POINT: u64 = 3;

#[test]
fn sweep_every_registered_crash_point() {
    let root = std::env::temp_dir().join(format!("railgun-torture-{}", std::process::id()));
    let report = torture::sweep(&root, OPS, SEED, HITS_PER_POINT).expect("crash-torture sweep");
    // Every registered point was swept (sweep() itself fails on a hole),
    // with at least first + last occurrence armed per point.
    assert!(report.profile.len() >= crash_points::ALL.len());
    let mut swept: Vec<&str> = report.results.iter().map(|r| r.plan.point).collect();
    swept.dedup();
    for point in crash_points::ALL {
        assert!(
            swept.contains(point),
            "crash point {point} missing from sweep results"
        );
    }
    assert!(
        report.results.iter().all(|r| r.tripped),
        "every armed plan must actually fire"
    );
    // The workload is long enough that some crashes land mid-flush /
    // mid-compaction: the sweep must exercise the repair paths, not just
    // clean reopens.
    assert!(
        report
            .results
            .iter()
            .any(|r| r.recovery.orphaned_sstables_quarantined > 0),
        "no sweep run exercised orphan quarantine"
    );
    assert!(
        report
            .results
            .iter()
            .any(|r| r.recovery.wal_truncated_bytes > 0),
        "no sweep run exercised torn-tail truncation"
    );
    assert!(
        report.results.iter().any(|r| r.recovery.stale_tmp_removed > 0),
        "no sweep run exercised stale-tmp removal"
    );
    // Recovery is manifest + WAL work measured in hundreds of µs: a reopen
    // anywhere near a second means it started rescanning the world.
    let worst = report.results.iter().map(|r| r.recovery_micros).max();
    assert!(
        worst.is_some_and(|us| us < 1_000_000),
        "worst crash-point recovery took {worst:?} µs (ceiling 1 s)"
    );
}

/// Same seed, same workload, same plan ⇒ identical crash image and
/// identical recovery outcome — the property that makes sweep failures
/// reproducible in isolation.
#[test]
fn sweep_is_deterministic() {
    let run = |tag: &str| {
        let root =
            std::env::temp_dir().join(format!("railgun-torture-det-{tag}-{}", std::process::id()));
        let report = torture::sweep(&root, 150, 7, 1).expect("sweep");
        report
            .results
            .iter()
            .map(|r| (r.plan, r.acked_ops, r.recovery.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run("a"), run("b"));
}
