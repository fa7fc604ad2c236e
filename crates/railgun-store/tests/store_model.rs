//! Model-based schedule test for the store's capacity layer.
//!
//! Random put/delete/counter-update/range-scan/flush/compact/
//! expire-horizon schedules run against
//! both the real [`Db`] (with a watermark [`CompactionFilter`] on the
//! default CF) and a two-level in-memory model: a `mem` map (the
//! memtable) and a `disk` map (the merged view of all SSTables). `Flush`
//! folds `mem` into `disk`; `Compact` drops tombstones and applies the
//! filter to `disk` — exactly what a full-CF compaction does, since the
//! newest-wins merge of every SSTable *is* the `disk` map.
//!
//! After every operation the store must read back **exactly** the model
//! (both are deterministic, so no value-or-absent slack is needed):
//! compaction reclaims precisely the expired keys and never touches a
//! live one. A checkpoint taken at a random point (it flushes, so `mem`
//! folds into `disk`) must open, after the schedule has run on, as that
//! `disk` map alone, and reclaim from there like the model.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use railgun_store::{CfOptions, CompactionFilter, Db, DbOptions, FilterDecision};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

const KEYS: u64 = 48;

fn key_bytes(k: u64) -> Vec<u8> {
    format!("k{k:03}").into_bytes()
}

/// Counter keys: a class of their own, which the filter cannot parse
/// and so keeps.
fn counter_key(k: u64) -> Vec<u8> {
    format!("c{k:03}").into_bytes()
}

fn value_bytes(k: u64, stamp: u64) -> Vec<u8> {
    format!("{stamp:08}:payload-{k:03}").into_bytes()
}

/// Keys in this class are subject to watermark expiry.
fn expirable(k: u64) -> bool {
    k % 4 == 1
}

fn parse_key(key: &[u8]) -> Option<u64> {
    std::str::from_utf8(key.strip_prefix(b"k")?).ok()?.parse().ok()
}

fn parse_stamp(value: &[u8]) -> Option<u64> {
    std::str::from_utf8(value.get(..8)?).ok()?.parse().ok()
}

#[derive(Debug)]
struct StampFilter {
    horizon: Arc<AtomicU64>,
}

impl CompactionFilter for StampFilter {
    fn name(&self) -> &str {
        "model-stamp"
    }
    fn filter(&self, key: &[u8], value: &[u8]) -> FilterDecision {
        match (parse_key(key), parse_stamp(value)) {
            (Some(k), Some(s)) if expirable(k) && s < self.horizon.load(Ordering::Relaxed) => {
                FilterDecision::Discard
            }
            _ => FilterDecision::Keep,
        }
    }
}

fn store_opts(horizon: &Arc<AtomicU64>) -> DbOptions {
    DbOptions {
        // Budgets high enough that flush/compact happen only when the
        // schedule says so — the model mirrors explicit maintenance.
        memtable_budget_bytes: 1 << 30,
        compaction_trigger: usize::MAX,
        cf_options: vec![(
            "default".to_owned(),
            CfOptions {
                memtable_budget_bytes: 1 << 30,
                compaction_trigger: usize::MAX,
                ..CfOptions::default()
            }
            .with_filter(Arc::new(StampFilter {
                horizon: Arc::clone(horizon),
            })),
        )],
        ..DbOptions::default()
    }
}

/// Two-level model: `None` entries are tombstones.
#[derive(Default)]
struct Model {
    mem: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    disk: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    horizon: u64,
}

impl Model {
    fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.mem
            .get(key)
            .or_else(|| self.disk.get(key))
            .and_then(|e| e.as_deref())
    }

    /// The counter at `key` (0 when absent) and what it becomes after
    /// `f`: a write to the memtable, 0 as a tombstone.
    fn update_u64(&mut self, key: &[u8], f: impl FnOnce(u64) -> u64) -> u64 {
        let old = self
            .get(key)
            .map_or(0, |v| u64::from_le_bytes(v.try_into().unwrap()));
        let new = f(old);
        let entry = (new != 0).then(|| new.to_le_bytes().to_vec());
        self.mem.insert(key.to_vec(), entry);
        old
    }

    fn live(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut merged = self.disk.clone();
        merged.extend(self.mem.clone());
        merged
            .into_iter()
            .filter_map(|(k, e)| e.map(|v| (k, v)))
            .collect()
    }

    fn flush(&mut self) {
        let mem = std::mem::take(&mut self.mem);
        self.disk.extend(mem);
    }

    fn compact(&mut self) {
        let horizon = self.horizon;
        self.disk.retain(|k, e| match e.as_deref() {
            None => false, // tombstones drop at full compaction
            Some(v) => !(parse_key(k).is_some_and(expirable)
                && parse_stamp(v).is_some_and(|s| s < horizon)),
        });
    }
}

fn check_equiv(db: &Db, model: &Model, ctx: &str) {
    for k in 0..KEYS {
        let key = key_bytes(k);
        let got = db.get(Db::DEFAULT_CF, &key).unwrap();
        let want = model.get(&key);
        assert_eq!(
            got.as_deref(),
            want,
            "{ctx}: key {k} diverged from model (expirable={})",
            expirable(k)
        );
        let key = counter_key(k);
        let got = db.get(Db::DEFAULT_CF, &key).unwrap();
        assert_eq!(got.as_deref(), model.get(&key), "{ctx}: counter {k} diverged");
    }
    let scanned = db.scan(Db::DEFAULT_CF, b"", None).unwrap();
    assert_eq!(scanned, model.live(), "{ctx}: full scan diverged from model");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any schedule of puts/deletes/counter updates/range scans/flushes/
    /// filtered compactions/horizon advances leaves store and model
    /// identical — each counter update returns the model's old count,
    /// each range scan the model's live keys in that range, reads after
    /// compaction equal the model with the filter applied, and no live
    /// key is ever dropped.
    #[test]
    fn random_schedules_match_model(
        schedule in proptest::collection::vec((0u32..100, 0u64..KEYS, 0u64..30), 1..120),
        ckpt_at in 0usize..120,
    ) {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("railgun-store-model-{}-{n}", std::process::id()));
        let image = dir.with_extension("image");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&image).ok();

        let horizon = Arc::new(AtomicU64::new(0));
        let db = Db::open(&dir, store_opts(&horizon)).unwrap();
        let mut model = Model::default();
        let mut imaged = BTreeMap::new();
        let mut stamp = 0u64;

        for (i, (sel, k, lag)) in schedule.iter().enumerate() {
            if i == ckpt_at.min(schedule.len() - 1) {
                db.checkpoint(&image).unwrap();
                model.flush();
                imaged = model.disk.clone();
            }
            match sel {
                0..=44 => {
                    stamp += 1;
                    let v = value_bytes(*k, stamp);
                    db.put(Db::DEFAULT_CF, &key_bytes(*k), &v).unwrap();
                    model.mem.insert(key_bytes(*k), Some(v));
                }
                45..=59 => {
                    db.delete(Db::DEFAULT_CF, &key_bytes(*k)).unwrap();
                    model.mem.insert(key_bytes(*k), None);
                }
                60..=69 => {
                    // Counters of the first few keys climb; a third of
                    // the updates step down, to 0 (a delete) and stay.
                    let key = counter_key(*k % 8);
                    let f = |n: u64| if lag % 3 == 0 { n.saturating_sub(1) } else { n + 1 };
                    let old = db.update_u64(Db::DEFAULT_CF, &key, f).unwrap();
                    prop_assert_eq!(old, model.update_u64(&key, f), "op {}", i);
                }
                70..=74 => {
                    let (start, end) = (key_bytes(*k), key_bytes(k + lag));
                    let end = (lag % 5 != 0).then_some(&end[..]);
                    let got = db.scan(Db::DEFAULT_CF, &start, end).unwrap();
                    let want: Vec<_> = model
                        .live()
                        .into_iter()
                        .filter(|(key, _)| *key >= start && end.is_none_or(|e| &key[..] < e))
                        .collect();
                    prop_assert_eq!(got, want, "op {}", i);
                }
                75..=84 => {
                    db.flush().unwrap();
                    model.flush();
                }
                85..=92 => {
                    db.compact_cf(Db::DEFAULT_CF).unwrap();
                    model.compact();
                }
                _ => {
                    let h = stamp.saturating_sub(*lag);
                    // Watermarks only advance — the monotonicity half of
                    // the filter contract.
                    horizon.fetch_max(h, Ordering::Relaxed);
                    model.horizon = model.horizon.max(h);
                }
            }
            check_equiv(&db, &model, &format!("after op {i}"));
        }

        // The image holds what the model's tables held at the checkpoint,
        // whatever the schedule did after it.
        drop(db);
        let mut model = Model {
            disk: imaged,
            horizon: model.horizon,
            ..Model::default()
        };
        let horizon2 = Arc::new(AtomicU64::new(model.horizon));
        let db = Db::open(&image, store_opts(&horizon2)).unwrap();
        check_equiv(&db, &model, "after opening the image");
        prop_assert_eq!(db.stats().filter_dropped, 0, "an open must not re-count drops");
        // Reclaim on the image at the final horizon: flush + compact
        // drops exactly the expired keys, keeps every live one.
        db.flush().unwrap();
        db.compact_cf(Db::DEFAULT_CF).unwrap();
        model.flush();
        model.compact();
        check_equiv(&db, &model, "after reclaim on the image");

        drop(db);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&image).ok();
    }
}
