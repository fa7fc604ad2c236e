//! The bytes a fixed schedule leaves in a checkpoint image: puts, deletes
//! and counter updates under a 2 KiB memtable budget (so the store
//! flushes on its own), two explicit flushes and one compaction. Every
//! file of the image — each table, the manifest and the empty marker —
//! is pinned by length and CRC-32C, as the store wrote them while its
//! memtable was a B-tree and a counter update was a read and a write.
//! A memtable must flush exactly the sorted entries that one did.

use std::path::{Path, PathBuf};

use railgun_store::{Db, DbOptions};
use railgun_types::encode::crc32c;

/// `(file name, length, CRC-32C)` of every file in the image.
const PINNED_FILES: &[(&str, usize, u32)] = &[
    ("00000024.sst", 2_682, 2_231_561_327),
    ("00000025.sst", 887, 1_977_014_121),
    ("00000026.sst", 888, 1_942_115_239),
    ("00000027.sst", 891, 2_621_424_892),
    ("00000028.sst", 893, 4_092_101_799),
    ("00000029.sst", 886, 369_693_722),
    ("00000030.sst", 887, 786_466_422),
    ("00000031.sst", 885, 2_378_343_515),
    ("00000032.sst", 891, 3_514_482_694),
    ("00000033.sst", 99, 1_972_784_024),
    ("MANIFEST", 35, 1_214_729_159),
    ("wal.log", 0, 0),
];

/// Sum of the old values the schedule's counter updates returned.
const PINNED_OLD_SUM: u64 = 2_718;

fn fresh_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("railgun-image-bytes-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Set the counter at `key` to `f(old)` (0 deletes it); returns `old`.
fn update(db: &Db, key: &[u8], f: impl FnOnce(u64) -> u64) -> u64 {
    db.update_u64(Db::DEFAULT_CF, key, f).unwrap()
}

/// Run the schedule on a store in `live` and write its image to `image`;
/// returns the sum of the counters' old values.
fn run_schedule(live: &Path, image: &Path) -> u64 {
    let opts = DbOptions {
        memtable_budget_bytes: 2 << 10,
        compaction_trigger: usize::MAX,
        ..DbOptions::default()
    };
    let db = Db::open(live, opts).unwrap();
    let mut old_sum = 0;
    for i in 0..600u64 {
        let row = format!("row{:03}", (i * 37) % 101);
        let value = format!("value-{i}-{}", "x".repeat((i % 9) as usize));
        db.put(Db::DEFAULT_CF, row.as_bytes(), value.as_bytes()).unwrap();
        if i % 5 == 4 {
            let dead = format!("row{:03}", (i * 11) % 101);
            db.delete(Db::DEFAULT_CF, dead.as_bytes()).unwrap();
        }
        let counter = format!("cnt{:02}", (i * 13) % 29);
        old_sum += if i % 4 == 3 {
            update(&db, counter.as_bytes(), |n| n.saturating_sub(1))
        } else {
            update(&db, counter.as_bytes(), |n| n + 1)
        };
        if i % 7 == 6 {
            let counter = format!("cnt{:02}", i % 29);
            old_sum += update(&db, counter.as_bytes(), |n| n.saturating_sub(1));
        }
        if i == 200 || i == 400 {
            db.flush().unwrap();
        }
        if i == 450 {
            db.compact_cf(Db::DEFAULT_CF).unwrap();
        }
    }
    let stats = db.stats();
    assert_eq!(stats.compactions, 1);
    assert!(stats.flushes > 10, "{stats:?}");
    db.checkpoint(image).unwrap();
    old_sum
}

#[test]
fn a_fixed_schedule_writes_the_pinned_image() {
    let (live, image) = (fresh_dir("live"), fresh_dir("image"));
    let old_sum = run_schedule(&live, &image);
    let mut files: Vec<(String, usize, u32)> = std::fs::read_dir(&image)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let bytes = std::fs::read(&path).unwrap();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, bytes.len(), crc32c(&bytes))
        })
        .collect();
    files.sort();
    let pinned: Vec<(String, usize, u32)> = PINNED_FILES
        .iter()
        .map(|&(n, len, crc)| (n.to_owned(), len, crc))
        .collect();
    assert_eq!(files, pinned);
    assert_eq!(old_sum, PINNED_OLD_SUM);
    std::fs::remove_dir_all(&live).ok();
    std::fs::remove_dir_all(&image).ok();
}
