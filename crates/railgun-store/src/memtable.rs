//! In-memory write buffer for one column family.
//!
//! The memtable is the mutable head of the LSM tree: the newest value (or
//! tombstone) for every recently-written key. When its approximate size
//! exceeds the configured budget, the [`crate::Db`] flushes it to an
//! immutable SSTable.
//!
//! Point reads and writes — the aggregation states' read-modify-write
//! (§4.1.3) — are one hash probe. Key order is built only when someone
//! asks for it: the first ordered read ([`MemTable::range`],
//! [`MemTable::iter`]) moves the entries into a B-tree, which serves every
//! operation until the flush ([`MemTable::drain_sorted`]) empties it, and
//! a flush of a hashed memtable sorts once. A memtable nobody scans pays
//! nothing for order; one that is scanned costs what a B-tree costs.

use std::collections::BTreeMap;
use std::ops::Bound;

use railgun_types::{KeyHashMap, RailgunError, Result};

/// A write: either a value or a deletion tombstone.
///
/// Tombstones must be retained (not just removed from the map) because an
/// older SSTable may still hold a live value for the key.
pub type Entry = Option<Vec<u8>>;

/// In-memory buffer of the most recent write per key: hash-indexed, with
/// key order on demand.
#[derive(Debug, Default)]
pub struct MemTable {
    entries: Entries,
    approx_bytes: usize,
}

/// The latest write per key: hashed (by [`railgun_types::hash::KeyHasher`])
/// until an ordered read, then sorted until the memtable is drained.
#[derive(Debug)]
enum Entries {
    Hashed(KeyHashMap<Box<[u8]>, Entry>),
    Sorted(BTreeMap<Box<[u8]>, Entry>),
}

impl Default for Entries {
    fn default() -> Self {
        Entries::Hashed(KeyHashMap::default())
    }
}

impl Entries {
    fn get(&self, key: &[u8]) -> Option<&Entry> {
        match self {
            Entries::Hashed(m) => m.get(key),
            Entries::Sorted(m) => m.get(key),
        }
    }

    fn get_mut(&mut self, key: &[u8]) -> Option<&mut Entry> {
        match self {
            Entries::Hashed(m) => m.get_mut(key),
            Entries::Sorted(m) => m.get_mut(key),
        }
    }

    fn insert(&mut self, key: &[u8], entry: Entry) {
        match self {
            Entries::Hashed(m) => m.insert(key.into(), entry),
            Entries::Sorted(m) => m.insert(key.into(), entry),
        };
    }

    fn len(&self) -> usize {
        match self {
            Entries::Hashed(m) => m.len(),
            Entries::Sorted(m) => m.len(),
        }
    }

    /// The entries in key order, sorted here if they are still hashed.
    fn sorted(&mut self) -> &BTreeMap<Box<[u8]>, Entry> {
        if let Entries::Hashed(m) = self {
            *self = Entries::Sorted(std::mem::take(m).into_iter().collect());
        }
        match self {
            Entries::Sorted(m) => m,
            Entries::Hashed(_) => unreachable!("sorted above"),
        }
    }
}

impl MemTable {
    /// Create an empty memtable.
    pub fn new() -> Self {
        MemTable::default()
    }

    /// Insert or overwrite a value. Overwrites reuse the existing value
    /// allocation — the read-modify-write pattern of aggregation states
    /// hits the same keys constantly (§4.1.3).
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        match self.entries.get_mut(key) {
            Some(slot) => overwrite(&mut self.approx_bytes, slot, Some(value)),
            None => self.insert(key, Some(value.to_vec())),
        }
    }

    /// Record a deletion tombstone.
    pub fn delete(&mut self, key: &[u8]) {
        match self.entries.get_mut(key) {
            Some(slot) => overwrite(&mut self.approx_bytes, slot, None),
            None => self.insert(key, None),
        }
    }

    /// Replace the 8-byte little-endian counter at `key` with `f(old)`
    /// (0 writes a tombstone) and return `old`, in one probe when this
    /// memtable holds a write of `key`. Otherwise `below` reads the counter
    /// from under the memtable (0 when absent). A counter that is not
    /// exactly 8 bytes is [`RailgunError::Corruption`], and nothing is
    /// written.
    pub fn update_u64(
        &mut self,
        key: &[u8],
        below: impl FnOnce() -> Result<u64>,
        f: impl FnOnce(u64) -> u64,
    ) -> Result<u64> {
        let old = match self.entries.get_mut(key) {
            Some(slot) => {
                let old = counter(slot.as_deref())?;
                let new = f(old).to_le_bytes();
                overwrite(&mut self.approx_bytes, slot, counter_bytes(&new));
                return Ok(old);
            }
            None => below()?,
        };
        let new = f(old).to_le_bytes();
        self.insert(key, counter_bytes(&new).map(<[u8]>::to_vec));
        Ok(old)
    }

    /// Add a write of a key this memtable does not hold.
    fn insert(&mut self, key: &[u8], entry: Entry) {
        // 32 bytes models the index slot and value header per entry.
        self.approx_bytes += key.len() + entry.as_ref().map_or(0, Vec::len) + 32;
        self.entries.insert(key, entry);
    }

    /// Look up the most recent write for `key`.
    ///
    /// Returns `None` if the key was never written here; `Some(None)` if the
    /// latest write is a tombstone; `Some(Some(v))` for a live value.
    pub fn get(&self, key: &[u8]) -> Option<&Entry> {
        self.entries.get(key)
    }

    /// Iterate entries (including tombstones) in key order.
    pub fn iter(&mut self) -> impl Iterator<Item = (&[u8], &Entry)> {
        self.range(&[], None)
    }

    /// Iterate entries with keys in `[start, end)` in key order.
    pub fn range<'a>(
        &'a mut self,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> impl Iterator<Item = (&'a [u8], &'a Entry)> + 'a {
        let upper = end.map_or(Bound::Unbounded, Bound::Excluded);
        self.entries
            .sorted()
            .range::<[u8], _>((Bound::Included(start), upper))
            .map(|(k, e)| (&**k, e))
    }

    /// Number of buffered entries (tombstones included).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no entries are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate memory footprint in bytes, used for flush triggering.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Drain all entries in key order, leaving the memtable empty.
    pub fn drain_sorted(&mut self) -> Vec<(Box<[u8]>, Entry)> {
        self.approx_bytes = 0;
        match std::mem::take(&mut self.entries) {
            Entries::Sorted(m) => m.into_iter().collect(),
            Entries::Hashed(m) => {
                let mut entries: Vec<_> = m.into_iter().collect();
                entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                entries
            }
        }
    }
}

/// Overwrite a held key's entry in place; its key bytes and per-entry
/// overhead were accounted when it was first inserted, so only the value
/// delta changes.
fn overwrite(approx_bytes: &mut usize, slot: &mut Entry, value: Option<&[u8]>) {
    let old_len = slot.as_ref().map_or(0, Vec::len);
    *approx_bytes = approx_bytes.saturating_sub(old_len) + value.map_or(0, <[u8]>::len);
    match (slot.as_mut(), value) {
        (Some(buf), Some(v)) => {
            buf.clear();
            buf.extend_from_slice(v);
        }
        (_, v) => *slot = v.map(<[u8]>::to_vec),
    }
}

/// The counter `raw` holds: 0 when absent, else exactly 8 bytes LE.
pub(crate) fn counter(raw: Option<&[u8]>) -> Result<u64> {
    match raw.map(<[u8; 8]>::try_from) {
        None => Ok(0),
        Some(Ok(b)) => Ok(u64::from_le_bytes(b)),
        Some(Err(_)) => Err(RailgunError::Corruption(format!(
            "counter of {} bytes, expected 8",
            raw.map_or(0, <[u8]>::len)
        ))),
    }
}

/// The value a counter of `bytes` writes: none (a tombstone) for 0.
fn counter_bytes(bytes: &[u8; 8]) -> Option<&[u8]> {
    (*bytes != [0; 8]).then_some(&bytes[..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::collections::BTreeMap;

    #[test]
    fn put_get_overwrite() {
        let mut m = MemTable::new();
        m.put(b"a", b"1");
        m.put(b"a", b"2");
        assert_eq!(m.get(b"a"), Some(&Some(b"2".to_vec())));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn tombstone_is_visible() {
        let mut m = MemTable::new();
        m.put(b"a", b"1");
        m.delete(b"a");
        assert_eq!(m.get(b"a"), Some(&None));
        assert_eq!(m.get(b"b"), None);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut m = MemTable::new();
        m.put(b"c", b"3");
        m.put(b"a", b"1");
        m.put(b"b", b"2");
        let keys: Vec<_> = m.iter().map(|(k, _)| k.to_vec()).collect();
        assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn range_bounds() {
        let mut m = MemTable::new();
        for k in [b"a", b"b", b"c", b"d"] {
            m.put(k, b"v");
        }
        let keys: Vec<_> = m.range(b"b", Some(b"d")).map(|(k, _)| k.to_vec()).collect();
        assert_eq!(keys, vec![b"b".to_vec(), b"c".to_vec()]);
        let open: Vec<_> = m.range(b"c", None).map(|(k, _)| k.to_vec()).collect();
        assert_eq!(open, vec![b"c".to_vec(), b"d".to_vec()]);
    }

    #[test]
    fn size_accounting_grows_and_resets() {
        let mut m = MemTable::new();
        assert_eq!(m.approx_bytes(), 0);
        m.put(b"key", &[0u8; 100]);
        assert_eq!(m.approx_bytes(), 3 + 100 + 32);
        m.put(b"key", &[0u8; 10]);
        m.delete(b"gone");
        assert_eq!(m.approx_bytes(), 3 + 10 + 32 + 4 + 32);
        let drained = m.drain_sorted();
        assert_eq!(drained.len(), 2);
        assert_eq!(m.approx_bytes(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn drain_is_sorted() {
        let mut m = MemTable::new();
        m.put(b"z", b"1");
        m.delete(b"a");
        let drained = m.drain_sorted();
        assert_eq!(drained[0], (b"a"[..].into(), None));
        assert_eq!(drained[1], (b"z"[..].into(), Some(b"1".to_vec())));
    }

    #[test]
    fn counter_updates_read_below_only_for_keys_not_held() {
        let mut m = MemTable::new();
        let reads = Cell::new(0);
        let below = |n: u64| {
            let reads = &reads;
            move || {
                reads.set(reads.get() + 1);
                Ok(n)
            }
        };
        assert_eq!(m.update_u64(b"c", below(5), |n| n + 1).unwrap(), 5);
        assert_eq!(m.get(b"c"), Some(&Some(6u64.to_le_bytes().to_vec())));
        assert_eq!(m.update_u64(b"c", below(99), |n| n - 6).unwrap(), 6);
        assert_eq!(m.get(b"c"), Some(&None), "0 is a tombstone");
        assert_eq!(m.update_u64(b"c", below(99), |n| n + 1).unwrap(), 0);
        assert_eq!(m.approx_bytes(), 1 + 8 + 32);
        // A key nothing holds: 0 in, 0 out is still a tombstone.
        assert_eq!(m.update_u64(b"d", below(0), |n| n).unwrap(), 0);
        assert_eq!(m.get(b"d"), Some(&None));
        m.put(b"bad", b"123");
        match m.update_u64(b"bad", below(0), |n| n + 1) {
            Err(RailgunError::Corruption(msg)) => assert_eq!(msg, "counter of 3 bytes, expected 8"),
            other => panic!("{other:?}"),
        }
        let untouched = Some(&Some(b"123".to_vec()));
        assert_eq!(m.get(b"bad"), untouched, "nothing written");
        assert_eq!(reads.get(), 2, "only the keys the memtable did not hold");
    }

    #[derive(Debug, Clone)]
    enum Op {
        Put(u8, u8),
        Delete(u8),
        Bump(u8),
        Get(u8),
        Range(u8, Option<u8>),
        Iter,
        Drain,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (0u8..40, any::<u8>()).prop_map(|(k, v)| Op::Put(k, v)),
            2 => (0u8..40).prop_map(Op::Delete),
            2 => (0u8..40).prop_map(Op::Bump),
            2 => (0u8..40).prop_map(Op::Get),
            2 => (0u8..40, proptest::option::of(0u8..40)).prop_map(|(a, b)| match b {
                Some(b) => Op::Range(a.min(b), Some(a.max(b))),
                None => Op::Range(a, None),
            }),
            1 => Just(Op::Iter),
            1 => Just(Op::Drain),
        ]
    }

    /// Keys of several lengths, so byte order differs from insertion and
    /// numeric order.
    fn key(k: u8) -> Vec<u8> {
        let mut key = vec![b'k'; usize::from(k % 3) + 1];
        key.push(k);
        key
    }

    type Model = BTreeMap<Vec<u8>, Entry>;

    fn model_bytes(model: &Model) -> usize {
        let value_bytes = |e: &Entry| e.as_ref().map_or(0, Vec::len);
        model.iter().map(|(k, e)| k.len() + value_bytes(e) + 32).sum()
    }

    fn owned<'a>(it: impl Iterator<Item = (&'a [u8], &'a Entry)>) -> Vec<(Vec<u8>, Entry)> {
        it.map(|(k, e)| (k.to_vec(), e.clone())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any schedule of writes, counter updates, point reads, ordered
        /// reads and drains reads back exactly a B-tree of the latest
        /// write per key. Ordered reads interleave with new keys,
        /// overwrites and tombstones, and drains return the memtable to
        /// its hashed form, so every operation runs in both forms; the
        /// byte accounting matches the model's.
        #[test]
        fn memtable_matches_a_btree_model(ops in proptest::collection::vec(op(), 1..200)) {
            let mut m = MemTable::new();
            let mut model = Model::new();
            for op in ops {
                match op {
                    Op::Put(k, v) => {
                        m.put(&key(k), &vec![v; usize::from(v % 5)]);
                        model.insert(key(k), Some(vec![v; usize::from(v % 5)]));
                    }
                    Op::Delete(k) => {
                        m.delete(&key(k));
                        model.insert(key(k), None);
                    }
                    Op::Bump(k) => {
                        // Under the memtable every counter reads 1.
                        let want = match model.get(&key(k)) {
                            None => Ok(1),
                            Some(e) => counter(e.as_deref()),
                        };
                        let got = m.update_u64(&key(k), || Ok(1), |n| (n + 1) % 3);
                        prop_assert_eq!(got.is_ok(), want.is_ok());
                        if let Ok(old) = want {
                            prop_assert_eq!(got.unwrap(), old);
                            let new = (old + 1) % 3;
                            model.insert(key(k), (new != 0).then(|| new.to_le_bytes().to_vec()));
                        }
                    }
                    Op::Get(k) => prop_assert_eq!(m.get(&key(k)), model.get(&key(k))),
                    Op::Range(a, b) => {
                        let (start, end) = (key(a), b.map(key));
                        if end.as_ref().is_some_and(|e| *e < start) {
                            continue;
                        }
                        let want: Vec<_> = model
                            .range::<[u8], _>((
                                Bound::Included(&start[..]),
                                end.as_deref().map_or(Bound::Unbounded, Bound::Excluded),
                            ))
                            .map(|(k, e)| (k.clone(), e.clone()))
                            .collect();
                        prop_assert_eq!(owned(m.range(&start, end.as_deref())), want);
                    }
                    Op::Iter => {
                        let want: Vec<_> = model.clone().into_iter().collect();
                        prop_assert_eq!(owned(m.iter()), want);
                    }
                    Op::Drain => {
                        let drained = m.drain_sorted().into_iter();
                        let got: Vec<_> = drained.map(|(k, e)| (k.into_vec(), e)).collect();
                        let want: Vec<_> = std::mem::take(&mut model).into_iter().collect();
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(m.len(), model.len());
                prop_assert_eq!(m.approx_bytes(), model_bytes(&model));
            }
        }
    }
}
