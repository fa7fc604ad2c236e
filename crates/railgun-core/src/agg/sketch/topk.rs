//! Space-saving heavy hitters for `topK(field, k)`.
//!
//! Classic Metwally et al. space-saving with `cap = max(8k, 64)`
//! monitored slots: a hit increments its slot; a miss over capacity
//! evicts the current minimum, charging its count as the newcomer's
//! error bound. The reported top-k counts overestimate by at most the
//! evicted minimum (`err` per slot tracks exactly that), and any value
//! with true frequency above `n / cap` is guaranteed monitored.
//!
//! Values are identified by their finalized 64-bit hash (collisions
//! conflate two values — at 2⁻⁶⁴ per pair this is far below the sketch's
//! own error). Ties in the top-k report break by hash, which makes the
//! report deterministic across replays and merge orders.

use railgun_types::{encode, RailgunError, Result, Value};
use railgun_types::hash::FastHashMap;

use super::PaneSketch;

#[derive(Debug, Clone, PartialEq)]
struct Slot {
    hash: u64,
    value: Value,
    count: i64,
    /// Overestimation bound inherited from the slot evicted for us.
    err: i64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct TopKSketch {
    k: u32,
    cap: usize,
    slots: Vec<Slot>,
    /// value-hash → slot index.
    index: FastHashMap<u64, usize>,
}

impl TopKSketch {
    pub fn new(k: u32) -> Self {
        let k = k.max(1);
        let cap = (k as usize * 8).clamp(64, 4096);
        TopKSketch {
            k,
            cap,
            slots: Vec::new(),
            index: FastHashMap::default(),
        }
    }

    pub fn k(&self) -> u32 {
        self.k
    }

    /// Record one observation of `v` (hashed as `h`). O(1) for
    /// monitored values; an eviction is a linear scan over `cap` slots.
    pub fn insert(&mut self, v: &Value, h: u64) {
        if let Some(&i) = self.index.get(&h) {
            self.slots[i].count += 1;
            return;
        }
        if self.slots.len() < self.cap {
            self.index.insert(h, self.slots.len());
            self.slots.push(Slot {
                hash: h,
                value: v.clone(),
                count: 1,
                err: 0,
            });
            return;
        }
        // Space-saving eviction: replace the minimum-count slot (ties by
        // hash for determinism) and inherit its count as our error.
        let (mut min_i, mut min) = (0usize, (i64::MAX, u64::MAX));
        for (i, s) in self.slots.iter().enumerate() {
            if (s.count, s.hash) < min {
                min = (s.count, s.hash);
                min_i = i;
            }
        }
        let old = &mut self.slots[min_i];
        self.index.remove(&old.hash);
        self.index.insert(h, min_i);
        *old = Slot {
            hash: h,
            value: v.clone(),
            count: min.0 + 1,
            err: min.0,
        };
    }

    /// The top `k` monitored slots, heaviest first; ties break by hash
    /// (unique per slot), so the order is total and the report
    /// deterministic. Only the top `k` are sorted.
    fn ranked(&self) -> Vec<&Slot> {
        let heavier = |a: &&Slot, b: &&Slot| b.count.cmp(&a.count).then(a.hash.cmp(&b.hash));
        let mut order: Vec<&Slot> = self.slots.iter().collect();
        let k = self.k as usize;
        if order.len() > k {
            order.select_nth_unstable_by(k, heavier);
            order.truncate(k);
        }
        order.sort_unstable_by(heavier);
        order
    }

    /// What a `topK` metric reports: the top `k` as `value=count` pairs,
    /// heaviest first, comma-separated.
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, s) in self.ranked().into_iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            // (`Value`'s `Display`, but for a lower-case null.)
            let _ = match &s.value {
                Value::Null => write!(out, "{sep}null={}", s.count),
                v => write!(out, "{sep}{v}={}", s.count),
            };
        }
        out
    }
}

impl PaneSketch for TopKSketch {
    fn fresh(&self) -> Self {
        TopKSketch::new(self.k)
    }

    fn params_match(&self, other: &Self) -> bool {
        (self.k, self.cap) == (other.k, other.cap)
    }

    /// Combine monitored sets: counts add for common values; the union
    /// is then cut back to `cap` keeping the heaviest (ties by hash).
    /// Exact — and order-independent — whenever the union fits in
    /// `cap`; beyond that the cut charges the usual space-saving error.
    fn merge_from(&mut self, other: &Self) {
        for s in &other.slots {
            if let Some(&i) = self.index.get(&s.hash) {
                self.slots[i].count += s.count;
                self.slots[i].err += s.err;
            } else {
                self.slots.push(s.clone());
            }
        }
        self.slots
            .sort_by(|a, b| b.count.cmp(&a.count).then(a.hash.cmp(&b.hash)));
        self.slots.truncate(self.cap);
        self.index = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| (s.hash, i))
            .collect();
    }

    /// Layout: `[k][cap][n][(hash: u64 LE, value, count, err)*]` with
    /// slots in internal order, so the roundtrip is byte-identical.
    fn encode(&self, buf: &mut Vec<u8>) {
        encode::put_uvarint(buf, u64::from(self.k));
        encode::put_uvarint(buf, self.cap as u64);
        encode::put_uvarint(buf, self.slots.len() as u64);
        for s in &self.slots {
            buf.extend_from_slice(&s.hash.to_le_bytes());
            encode::put_value(buf, &s.value);
            encode::put_ivarint(buf, s.count);
            encode::put_ivarint(buf, s.err);
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self> {
        use bytes::Buf;
        // A `k` past u32 reads as 0, which the header check rejects.
        let k = u32::try_from(encode::get_uvarint(buf)?).unwrap_or(0);
        let cap = encode::get_uvarint(buf)? as usize;
        let n = encode::get_uvarint(buf)? as usize;
        if k == 0 || cap == 0 || n > cap || cap > 1 << 20 {
            return Err(RailgunError::Corruption("bad topK sketch header".into()));
        }
        let mut slots = Vec::with_capacity(n);
        let mut index = FastHashMap::default();
        for i in 0..n {
            if buf.remaining() < 8 {
                return Err(RailgunError::Corruption("truncated topK slot".into()));
            }
            let hash = buf.get_u64_le();
            let value = encode::get_value(buf)?;
            let count = encode::get_ivarint(buf)?;
            let err = encode::get_ivarint(buf)?;
            if index.insert(hash, i).is_some() {
                return Err(RailgunError::Corruption("duplicate topK slot".into()));
            }
            slots.push(Slot {
                hash,
                value,
                count,
                err,
            });
        }
        Ok(TopKSketch {
            k,
            cap,
            slots,
            index,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::hash_value;
    use super::*;

    fn sv(s: &str) -> Value {
        Value::Str(s.to_string())
    }

    impl TopKSketch {
        /// The top `k` monitored values with their counts, heaviest first.
        fn top(&self) -> Vec<(Value, i64)> {
            let ranked = self.ranked().into_iter();
            ranked.map(|s| (s.value.clone(), s.count)).collect()
        }
    }

    #[test]
    fn the_report_renders_every_value_kind() {
        let mut tk = TopKSketch::new(5);
        for v in [
            sv("s"),
            Value::Int(-3),
            Value::Float(2.5),
            Value::Bool(true),
            Value::Null,
        ] {
            tk.insert(&v, hash_value(&v));
        }
        let report = tk.report();
        let mut parts: Vec<&str> = report.split(',').collect();
        parts.sort_unstable();
        assert_eq!(parts, ["-3=1", "2.5=1", "null=1", "s=1", "true=1"]);
    }

    #[test]
    fn exact_when_under_capacity() {
        let mut tk = TopKSketch::new(2);
        for (name, n) in [("a", 50), ("b", 30), ("c", 7)] {
            let v = sv(name);
            let h = hash_value(&v);
            for _ in 0..n {
                tk.insert(&v, h);
            }
        }
        assert_eq!(tk.top(), vec![(sv("a"), 50), (sv("b"), 30)]);
    }

    #[test]
    fn heavy_hitters_survive_eviction_pressure() {
        let mut tk = TopKSketch::new(3);
        // Three heavy keys among a long tail that forces evictions.
        for i in 0..20_000u64 {
            let v = if i % 4 == 0 {
                sv("hot1")
            } else if i % 4 == 1 {
                sv("hot2")
            } else {
                Value::Int((i % 1000) as i64)
            };
            tk.insert(&v.clone(), hash_value(&v));
        }
        let top: Vec<String> = tk
            .top()
            .iter()
            .map(|(v, _)| match v {
                Value::Str(s) => s.clone(),
                other => format!("{other:?}"),
            })
            .collect();
        assert!(top.contains(&"hot1".to_string()), "top = {top:?}");
        assert!(top.contains(&"hot2".to_string()), "top = {top:?}");
    }

    #[test]
    fn merge_is_exact_and_commutative_under_capacity() {
        let mut a = TopKSketch::new(2);
        let mut b = TopKSketch::new(2);
        for (name, n) in [("x", 10), ("y", 5)] {
            let v = sv(name);
            let h = hash_value(&v);
            for _ in 0..n {
                a.insert(&v, h);
            }
        }
        for (name, n) in [("x", 3), ("z", 8)] {
            let v = sv(name);
            let h = hash_value(&v);
            for _ in 0..n {
                b.insert(&v, h);
            }
        }
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab.top(), ba.top());
        assert_eq!(ab.top(), vec![(sv("x"), 13), (sv("z"), 8)]);
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let mut tk = TopKSketch::new(4);
        for i in 0..500u64 {
            let v = Value::Int((i % 97) as i64);
            tk.insert(&v, hash_value(&v));
        }
        let mut a = Vec::new();
        tk.encode(&mut a);
        let back = TopKSketch::decode(&mut a.as_slice()).unwrap();
        assert_eq!(back, tk);
        let mut b = Vec::new();
        back.encode(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(TopKSketch::decode(&mut [].as_slice()).is_err());
        let mut buf = Vec::new();
        encode::put_uvarint(&mut buf, 0); // k = 0
        encode::put_uvarint(&mut buf, 64);
        encode::put_uvarint(&mut buf, 0);
        assert!(TopKSketch::decode(&mut buf.as_slice()).is_err());
    }
}
