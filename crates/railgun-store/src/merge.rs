//! Newest-wins k-way merge across sorted runs.
//!
//! A point-in-time read view of one column family is the memtable plus its
//! SSTables, newest first. [`MergeIter`] merges any number of sorted
//! iterators of borrowed `(key, entry)` pairs ([`KvRef`]: the runs are
//! immutable for the merge's lifetime, so it copies nothing — the caller
//! copies what it keeps); when several runs carry the same key, the run
//! with the lowest *precedence index* (newest) wins and the rest are
//! skipped. Tombstones are preserved (the caller decides whether to drop
//! them — compaction of the full set does, a partial merge must not).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::sstable::KvRef;

struct HeapItem<'a> {
    key: &'a [u8],
    entry: Option<&'a [u8]>,
    /// Lower = newer run = higher precedence.
    precedence: usize,
}

impl PartialEq for HeapItem<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.precedence == other.precedence
    }
}
impl Eq for HeapItem<'_> {}

impl Ord for HeapItem<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the smallest key pops first,
        // ties broken so the lowest precedence (newest run) pops first.
        other
            .key
            .cmp(self.key)
            .then_with(|| other.precedence.cmp(&self.precedence))
    }
}
impl PartialOrd for HeapItem<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Merging iterator over sorted runs with newest-wins shadowing.
pub struct MergeIter<'a> {
    sources: Vec<Box<dyn Iterator<Item = KvRef<'a>> + 'a>>,
    heap: BinaryHeap<HeapItem<'a>>,
    drop_tombstones: bool,
}

impl<'a> MergeIter<'a> {
    /// Build a merge over `sources`, ordered newest (index 0) to oldest.
    ///
    /// If `drop_tombstones` is set, deleted keys are omitted from the
    /// output — only valid when `sources` covers *every* run of the
    /// column family (i.e. a full compaction or a user-facing scan).
    pub fn new(
        sources: Vec<Box<dyn Iterator<Item = KvRef<'a>> + 'a>>,
        drop_tombstones: bool,
    ) -> Self {
        let mut it = MergeIter {
            sources,
            heap: BinaryHeap::new(),
            drop_tombstones,
        };
        for i in 0..it.sources.len() {
            it.advance_source(i);
        }
        it
    }

    fn advance_source(&mut self, i: usize) {
        if let Some((key, entry)) = self.sources[i].next() {
            self.heap.push(HeapItem {
                key,
                entry,
                precedence: i,
            });
        }
    }
}

impl<'a> Iterator for MergeIter<'a> {
    type Item = KvRef<'a>;

    fn next(&mut self) -> Option<KvRef<'a>> {
        loop {
            let top = self.heap.pop()?;
            self.advance_source(top.precedence);
            // Skip older duplicates of the same key.
            while let Some(peek) = self.heap.peek() {
                if peek.key == top.key {
                    let dup = self.heap.pop().expect("peeked");
                    self.advance_source(dup.precedence);
                } else {
                    break;
                }
            }
            if top.entry.is_none() && self.drop_tombstones {
                continue;
            }
            return Some((top.key, top.entry));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(
        items: Vec<(&'static str, Option<&'static str>)>,
    ) -> Box<dyn Iterator<Item = KvRef<'static>>> {
        Box::new(
            items
                .into_iter()
                .map(|(k, v)| (k.as_bytes(), v.map(str::as_bytes))),
        )
    }

    fn collect(it: MergeIter<'_>) -> Vec<(String, Option<String>)> {
        it.map(|(k, v)| {
            (
                String::from_utf8(k.to_vec()).unwrap(),
                v.map(|v| String::from_utf8(v.to_vec()).unwrap()),
            )
        })
        .collect()
    }

    #[test]
    fn merges_disjoint_runs_in_order() {
        let m = MergeIter::new(
            vec![
                run(vec![("b", Some("1"))]),
                run(vec![("a", Some("2")), ("c", Some("3"))]),
            ],
            false,
        );
        let got = collect(m);
        assert_eq!(
            got,
            vec![
                ("a".into(), Some("2".into())),
                ("b".into(), Some("1".into())),
                ("c".into(), Some("3".into())),
            ]
        );
    }

    #[test]
    fn newest_run_shadows_older() {
        let m = MergeIter::new(
            vec![
                run(vec![("k", Some("new"))]),
                run(vec![("k", Some("old"))]),
            ],
            false,
        );
        assert_eq!(collect(m), vec![("k".into(), Some("new".into()))]);
    }

    #[test]
    fn three_way_shadowing_picks_newest() {
        let m = MergeIter::new(
            vec![
                run(vec![("k", Some("v2"))]),
                run(vec![("k", Some("v1"))]),
                run(vec![("k", Some("v0"))]),
            ],
            false,
        );
        assert_eq!(collect(m), vec![("k".into(), Some("v2".into()))]);
    }

    #[test]
    fn tombstone_shadow_and_drop() {
        let sources = || {
            vec![
                run(vec![("a", None), ("b", Some("live"))]),
                run(vec![("a", Some("dead")), ("b", Some("old"))]),
            ]
        };
        // Without dropping: tombstone surfaces.
        let kept = collect(MergeIter::new(sources(), false));
        assert_eq!(
            kept,
            vec![("a".into(), None), ("b".into(), Some("live".into()))]
        );
        // With dropping: key disappears entirely.
        let dropped = collect(MergeIter::new(sources(), true));
        assert_eq!(dropped, vec![("b".into(), Some("live".into()))]);
    }

    #[test]
    fn empty_sources() {
        let m = MergeIter::new(vec![], false);
        assert_eq!(m.count(), 0);
        let m = MergeIter::new(vec![run(vec![]), run(vec![])], true);
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn resurrection_after_tombstone() {
        // Newest run re-inserts a key deleted by a middle run.
        let m = MergeIter::new(
            vec![
                run(vec![("k", Some("back"))]),
                run(vec![("k", None)]),
                run(vec![("k", Some("orig"))]),
            ],
            true,
        );
        assert_eq!(collect(m), vec![("k".into(), Some("back".into()))]);
    }
}
