//! The crash-torture sweep: crash the store at every registered crash
//! point during a mixed workload and check what recovery reads — every
//! acknowledged image complete and exact and never changed afterwards,
//! an interrupted image detectably incomplete or exact, expired keys gone
//! and live ones intact after a reclaim of a restored image (see
//! `railgun_store::torture` for the full contract).
//!
//! Run in release mode in CI — the sweep is ~20 full workload runs.

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
    // Some crashes land inside a checkpoint: the sweep must see both an
    // image left detectably incomplete and one completed before the
    // crash, and must have verified images, not just counted plans.
    for complete in [false, true] {
        assert!(
            report
                .results
                .iter()
                .any(|r| r.interrupted_complete == Some(complete)),
            "no sweep run left an interrupted image with complete = {complete}"
        );
    }
    assert!(report.results.iter().any(|r| r.images > 0));
    // Opening an image is manifest work plus one check of each table: an
    // open anywhere near a second means it started rescanning the world.
    let worst = report.results.iter().map(|r| r.recovery_micros).max();
    assert!(
        worst.is_some_and(|us| us < 1_000_000),
        "worst image open took {worst:?} µs (ceiling 1 s)"
    );
}

/// Same seed, same workload, same plan ⇒ identical crash state and
/// identical verification outcome — the property that makes sweep
/// failures reproducible in isolation.
#[test]
fn sweep_is_deterministic() {
    let run = |tag: &str| {
        let root =
            std::env::temp_dir().join(format!("railgun-torture-det-{tag}-{}", std::process::id()));
        let report = torture::sweep(&root, 150, 7, 1).expect("sweep");
        report
            .results
            .iter()
            .map(|r| (r.plan, r.acked_ops, r.images, r.interrupted_complete))
            .collect::<Vec<_>>()
    };
    assert_eq!(run("a"), run("b"));
}
