//! Watermark-driven compaction filters for task state.
//!
//! Each task processor shares one [`StateHorizon`] between its event
//! loop and the compaction filters installed on its store's column
//! families (the `OldestSlot` pattern from the Solana blockstore): the
//! loop advances two monotonic horizons as the computation makes
//! progress, and compactions drop every entry that fell behind — expired
//! tumbling-window buckets and the keys of unregistered queries vanish
//! during merges the store was doing anyway, instead of costing a point
//! delete (memtable entry + tombstone) each.
//!
//! Two horizons, two filters:
//!
//! * **bucket expiry** — `expire_before_ms`, advanced by the task's
//!   retention pass in lockstep with the reservoir truncation bound. A
//!   state key whose tumbling-bucket timestamp lies strictly below it
//!   can never be read again (results are only collected for current
//!   buckets), so both filters discard it.
//! * **dead plan nodes** — the default CF is keyed by **group prefix**
//!   (one row per group-by node and entity), so [`StateKeyFilter`] drops
//!   the rows of groups whose last aggregator was unregistered; the aux
//!   CF is keyed per leaf, so [`AuxKeyFilter`] decodes the state key
//!   embedded in aux/sketch keys and drops those under a dead **leaf
//!   prefix**. A leaf that died inside a still-live group additionally
//!   leaves a slot in that group's rows, which no key-only filter can
//!   remove: the task strips those by rewriting the rows
//!   ([`StateHorizon::pending_strips`]) as part of the same reclaim.
//!
//! Both honour the [`CompactionFilter`] contract (see
//! `railgun_store::options`): verdicts depend only on the key bytes and
//! the current horizon values, `expire_before_ms` only advances, and the
//! dead set is only *cleared* after the state it covers has been
//! reclaimed (slots stripped, flush + compaction of every filtered CF).
//! Within an incarnation ids are never reused. The set lives in memory
//! only: a task comes back only from a checkpoint image, and the task
//! finishes any pending reclaim before it writes one, so no image holds
//! dead state that a restored plan's ids could alias. Unparseable keys
//! are kept: the filter must never guess.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use railgun_store::{CompactionFilter, FilterDecision};
use railgun_types::encode::{get_ivarint, get_uvarint};

/// Shared expiry state between a task processor and its store's
/// compaction filters.
#[derive(Debug)]
pub struct StateHorizon {
    /// Tumbling buckets strictly below this (ms since epoch) are dead.
    /// Starts at `i64::MIN` — nothing expires until the first advance.
    expire_before_ms: AtomicI64,
    dead: Mutex<Dead>,
}

/// Plan nodes whose state awaits reclamation.
#[derive(Debug, Default)]
struct Dead {
    /// Sorted ids of group-by nodes with no live leaf left.
    groups: Vec<u32>,
    /// `(leaf, group)` of unregistered aggregators, sorted by leaf id.
    leaves: Vec<(u32, u32)>,
}

impl Dead {
    fn has_group(&self, group: u32) -> bool {
        self.groups.binary_search(&group).is_ok()
    }

    fn has_leaf(&self, leaf: u32) -> bool {
        self.leaves.binary_search_by_key(&leaf, |&(l, _)| l).is_ok()
    }
}

impl StateHorizon {
    pub fn new() -> Arc<Self> {
        Arc::new(StateHorizon {
            expire_before_ms: AtomicI64::new(i64::MIN),
            dead: Mutex::new(Dead::default()),
        })
    }

    /// Advance the bucket-expiry watermark (monotonic: a lower value is
    /// a no-op).
    pub fn advance_bucket_expiry(&self, before_ms: i64) {
        self.expire_before_ms.fetch_max(before_ms, Ordering::Relaxed);
    }

    /// Current bucket-expiry watermark in ms (`i64::MIN` = never).
    pub fn bucket_expire_before_ms(&self) -> i64 {
        self.expire_before_ms.load(Ordering::Relaxed)
    }

    /// Mark a leaf of `group` dead — its aux keys become compaction
    /// fodder, and its slot in the group's rows is due for stripping.
    pub fn add_dead_leaf(&self, group: u32, leaf: u32) {
        let mut dead = self.dead.lock();
        if let Err(ix) = dead.leaves.binary_search_by_key(&leaf, |&(l, _)| l) {
            dead.leaves.insert(ix, (leaf, group));
        }
    }

    /// Mark a whole group-by node dead — its rows become compaction
    /// fodder (its leaves are marked separately, for the aux CF).
    pub fn add_dead_group(&self, group: u32) {
        let mut dead = self.dead.lock();
        if let Err(ix) = dead.groups.binary_search(&group) {
            dead.groups.insert(ix, group);
        }
    }

    /// Whether any dead node is pending reclamation.
    pub fn has_dead(&self) -> bool {
        let dead = self.dead.lock();
        !dead.groups.is_empty() || !dead.leaves.is_empty()
    }

    /// Dead leaves of groups that are still live, as `(group, leaves)`
    /// sorted by group: the rows under each group prefix still carry
    /// those leaves' slots and must be rewritten without them.
    pub fn pending_strips(&self) -> Vec<(u32, Vec<u32>)> {
        let dead = self.dead.lock();
        let mut strips: Vec<(u32, Vec<u32>)> = Vec::new();
        for &(leaf, group) in &dead.leaves {
            if dead.has_group(group) {
                continue; // the whole row goes in the compaction
            }
            match strips.binary_search_by_key(&group, |s| s.0) {
                Ok(ix) => strips[ix].1.push(leaf),
                Err(ix) => strips.insert(ix, (group, vec![leaf])),
            }
        }
        strips
    }

    /// Forget the dead set — call only after the state it covers has
    /// been reclaimed (slots stripped, flush + compaction of every
    /// filtered CF).
    pub fn clear_dead(&self) {
        let mut dead = self.dead.lock();
        dead.groups.clear();
        dead.leaves.clear();
    }

    /// Verdict for one state key (see `crate::keys::state_key` for the
    /// layout: 4-byte id prefix, bucket tag, entity values); `is_dead`
    /// judges the id.
    fn state_key_verdict(&self, key: &[u8], is_dead: fn(&Dead, u32) -> bool) -> FilterDecision {
        if key.len() < 5 {
            return FilterDecision::Keep;
        }
        let id = u32::from_be_bytes(key[..4].try_into().expect("4b"));
        if is_dead(&self.dead.lock(), id) {
            return FilterDecision::Discard;
        }
        if key[4] == 1 {
            let mut cur = &key[5..];
            if let Ok(bucket_ms) = get_ivarint(&mut cur) {
                if bucket_ms < self.expire_before_ms.load(Ordering::Relaxed) {
                    return FilterDecision::Discard;
                }
            }
        }
        FilterDecision::Keep
    }
}

/// Compaction filter for the default (aggregation-state) CF: keys are
/// raw state keys under a group prefix.
#[derive(Debug)]
pub struct StateKeyFilter(pub Arc<StateHorizon>);

impl CompactionFilter for StateKeyFilter {
    fn name(&self) -> &str {
        "state-horizon"
    }
    fn filter(&self, key: &[u8], _value: &[u8]) -> FilterDecision {
        self.0.state_key_verdict(key, Dead::has_group)
    }
}

/// Compaction filter for the aux/sketch CF: keys embed a
/// uvarint-length-prefixed state key under a leaf prefix (see
/// `crate::agg`), judged like a default-CF key but against dead leaves.
#[derive(Debug)]
pub struct AuxKeyFilter(pub Arc<StateHorizon>);

impl CompactionFilter for AuxKeyFilter {
    fn name(&self) -> &str {
        "aux-horizon"
    }
    fn filter(&self, key: &[u8], _value: &[u8]) -> FilterDecision {
        let mut cur = key;
        let Ok(len) = get_uvarint(&mut cur) else {
            return FilterDecision::Keep;
        };
        let len = len as usize;
        if cur.len() < len {
            return FilterDecision::Keep;
        }
        self.0.state_key_verdict(&cur[..len], Dead::has_leaf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::blob_key_for_tests;
    use crate::keys::state_key;
    use railgun_types::{Timestamp, Value};

    fn entity() -> Vec<Value> {
        vec![Value::Str("host-1".into())]
    }

    #[test]
    fn bucket_expiry_is_monotonic_and_selective() {
        let h = StateHorizon::new();
        let f = StateKeyFilter(Arc::clone(&h));
        let old = state_key(3, Some(Timestamp::from_millis(1_000)), &entity());
        let new = state_key(3, Some(Timestamp::from_millis(5_000)), &entity());
        let unbucketed = state_key(3, None, &entity());
        assert_eq!(f.filter(&old, b""), FilterDecision::Keep);
        h.advance_bucket_expiry(2_000);
        assert_eq!(f.filter(&old, b""), FilterDecision::Discard);
        assert_eq!(f.filter(&new, b""), FilterDecision::Keep);
        assert_eq!(f.filter(&unbucketed, b""), FilterDecision::Keep);
        // Going backwards is a no-op.
        h.advance_bucket_expiry(500);
        assert_eq!(h.bucket_expire_before_ms(), 2_000);
        assert_eq!(f.filter(&old, b""), FilterDecision::Discard);
    }

    #[test]
    fn dead_groups_kill_rows_and_dead_leaves_kill_aux_keys() {
        let h = StateHorizon::new();
        let state = StateKeyFilter(Arc::clone(&h));
        let aux = AuxKeyFilter(Arc::clone(&h));
        // Group 7 holds leaves 20 and 21; group 8 holds leaf 22.
        let dead_row = state_key(7, None, &entity());
        let live_row = state_key(8, None, &entity());
        let dead_aux = blob_key_for_tests(&state_key(20, None, &entity()));
        let live_aux = blob_key_for_tests(&state_key(22, None, &entity()));
        assert_eq!(state.filter(&dead_row, b""), FilterDecision::Keep);
        h.add_dead_leaf(7, 20);
        assert_eq!(aux.filter(&dead_aux, b""), FilterDecision::Discard);
        assert_eq!(aux.filter(&live_aux, b""), FilterDecision::Keep);
        // One dead leaf does not kill its group's rows: the slot is
        // stripped by a rewrite instead.
        assert_eq!(state.filter(&dead_row, b""), FilterDecision::Keep);
        assert_eq!(h.pending_strips(), vec![(7, vec![20])]);
        h.add_dead_leaf(7, 21);
        h.add_dead_group(7);
        assert_eq!(state.filter(&dead_row, b""), FilterDecision::Discard);
        assert_eq!(state.filter(&live_row, b""), FilterDecision::Keep);
        assert!(h.pending_strips().is_empty(), "dead groups need no strip");
        // Ids are per kind: a dead *leaf* 8 says nothing about group 8.
        h.add_dead_leaf(9, 8);
        assert_eq!(state.filter(&live_row, b""), FilterDecision::Keep);
        assert!(h.has_dead());
        h.clear_dead();
        assert!(!h.has_dead());
        assert_eq!(state.filter(&dead_row, b""), FilterDecision::Keep);
        assert_eq!(aux.filter(&dead_aux, b""), FilterDecision::Keep);
    }

    /// Tumbling state on a real store that spills: buckets expire by
    /// watermark alone — no delete is ever issued — and the compactions
    /// (one per window turnover) reclaim exactly the dead buckets.
    #[test]
    fn bucket_expiry_reclaims_exactly_the_dead_buckets_of_a_spilling_store() {
        use railgun_store::{CfOptions, Db, DbOptions};
        const BUCKET_MS: i64 = 60_000;
        const ENTITIES: usize = 40;
        for span in [2usize, 8] {
            let dir = std::env::temp_dir()
                .join(format!("railgun-horizon-{}-{span}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let h = StateHorizon::new();
            // Organic compaction off: only the explicit turnover schedule.
            let cf = CfOptions {
                memtable_budget_bytes: 16 << 10,
                compaction_trigger: usize::MAX,
                ..CfOptions::default()
            };
            let opts = DbOptions {
                cf_options: vec![(
                    "default".to_owned(),
                    cf.with_filter(Arc::new(StateKeyFilter(Arc::clone(&h)))),
                )],
                ..DbOptions::default()
            };
            let db = Db::open(&dir, opts).unwrap();
            let buckets = span * 6;
            let mut entity = vec![Value::Int(0)];
            for b in 0..buckets {
                let bucket = Timestamp::from_millis(b as i64 * BUCKET_MS);
                for e in 0..ENTITIES {
                    entity[0] = Value::Int(e as i64);
                    db.put(Db::DEFAULT_CF, &state_key(0, Some(bucket), &entity), &[0xA5; 64])
                        .unwrap();
                }
                // Bucket boundary: keep the newest `span - 1` buckets.
                if b + 1 >= span {
                    h.advance_bucket_expiry((b + 2 - span) as i64 * BUCKET_MS);
                }
                if (b + 1) % span == 0 {
                    db.flush().unwrap();
                    db.compact_cf(Db::DEFAULT_CF).unwrap();
                }
            }
            db.flush().unwrap();
            db.compact_cf(Db::DEFAULT_CF).unwrap();
            let live = db.scan(Db::DEFAULT_CF, b"", None).unwrap().len();
            assert_eq!(live, (span - 1) * ENTITIES, "span {span}: live buckets");
            // Every entry written is live or was dropped by the filter:
            // nothing went through a delete and its tombstone.
            let written = buckets * ENTITIES;
            assert_eq!(db.stats().filter_dropped, (written - live) as u64, "span {span}");
            drop(db);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn malformed_keys_are_kept() {
        let h = StateHorizon::new();
        h.advance_bucket_expiry(i64::MAX);
        h.add_dead_group(1);
        h.add_dead_leaf(1, 1);
        let state = StateKeyFilter(Arc::clone(&h));
        let aux = AuxKeyFilter(Arc::clone(&h));
        assert_eq!(state.filter(b"", b""), FilterDecision::Keep);
        assert_eq!(state.filter(&[0, 0], b""), FilterDecision::Keep);
        // Aux key whose declared embedded length exceeds the bytes.
        assert_eq!(aux.filter(&[200, 200, 1], b""), FilterDecision::Keep);
    }
}
