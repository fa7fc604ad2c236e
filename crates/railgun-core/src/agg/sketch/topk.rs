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
use railgun_types::hash::FastHashSet;

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
    /// Found by a scan of their hashes: at most `cap` of them, and a
    /// cached sketch costs a third less than with a hash index beside it.
    slots: Vec<Slot>,
}

impl TopKSketch {
    pub fn new(k: u32) -> Self {
        let k = k.max(1);
        let cap = (k as usize * 8).clamp(64, 4096);
        TopKSketch {
            k,
            cap,
            slots: Vec::new(),
        }
    }

    pub fn k(&self) -> u32 {
        self.k
    }

    /// Record one observation of `v` (hashed as `h`): a linear scan over
    /// at most `cap` slots.
    pub fn insert(&mut self, v: &Value, h: u64) {
        if let Some(s) = self.slots.iter_mut().find(|s| s.hash == h) {
            s.count += 1;
            return;
        }
        if self.slots.len() < self.cap {
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
        self.slots[min_i] = Slot {
            hash: h,
            value: v.clone(),
            count: min.0 + 1,
            err: min.0,
        };
    }

    /// The positions of the top `k` slots into `order`, heaviest first,
    /// ties by hash (unique per slot), by bounded insertion: a slot lighter
    /// than the `k`-th so far costs one comparison, and no more is sorted.
    fn rank_into(&self, order: &mut Vec<usize>) {
        let rank = |i: usize| (std::cmp::Reverse(self.slots[i].count), self.slots[i].hash);
        let k = self.k as usize;
        order.clear();
        for i in 0..self.slots.len() {
            let me = rank(i);
            if order.len() == k && order.last().is_some_and(|&j| me > rank(j)) {
                continue;
            }
            let at = order.partition_point(|&j| rank(j) < me);
            order.truncate(k - 1);
            order.insert(at, i);
        }
    }

    /// What a `topK` metric reports, into `out` (cleared first): the top
    /// `k` as `value=count` pairs, heaviest first, comma-separated, each
    /// value as `Display` shows it but `null`. `order` is ranking scratch:
    /// with both buffers reused, a report allocates nothing.
    pub fn render(&self, order: &mut Vec<usize>, out: &mut String) {
        use std::fmt::Write;
        self.rank_into(order);
        out.clear();
        for (n, s) in order.iter().map(|&i| &self.slots[i]).enumerate() {
            let sep = if n > 0 { "," } else { "" };
            let _ = match &s.value {
                Value::Null => write!(out, "{sep}null={}", s.count),
                v => write!(out, "{sep}{v}={}", s.count),
            };
        }
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
        self.slots.extend_from_slice(&other.slots);
        // Stable: a value in both keeps its slot here.
        self.slots.sort_by_key(|s| s.hash);
        self.slots.dedup_by(|theirs, ours| {
            let same = theirs.hash == ours.hash;
            if same {
                ours.count += theirs.count;
                ours.err += theirs.err;
            }
            same
        });
        self.slots
            .sort_by(|a, b| b.count.cmp(&a.count).then(a.hash.cmp(&b.hash)));
        self.slots.truncate(self.cap);
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
        let mut seen = FastHashSet::default();
        for _ in 0..n {
            if buf.remaining() < 8 {
                return Err(RailgunError::Corruption("truncated topK slot".into()));
            }
            let hash = buf.get_u64_le();
            let value = encode::get_value(buf)?;
            let count = encode::get_ivarint(buf)?;
            let err = encode::get_ivarint(buf)?;
            if !seen.insert(hash) {
                return Err(RailgunError::Corruption("duplicate topK slot".into()));
            }
            slots.push(Slot {
                hash,
                value,
                count,
                err,
            });
        }
        Ok(TopKSketch { k, cap, slots })
    }

    /// The slots (their values' strings not counted).
    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
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
            let mut order = Vec::new();
            self.rank_into(&mut order);
            order.iter().map(|&i| (self.slots[i].value.clone(), self.slots[i].count)).collect()
        }

        fn report(&self) -> String {
            let mut out = String::new();
            self.render(&mut Vec::new(), &mut out);
            out
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

    /// The report by the definition: every slot sorted by (count desc,
    /// hash asc), the first `k` rendered through `Value`'s `Display`.
    fn reference_report(tk: &TopKSketch) -> String {
        let mut slots: Vec<&Slot> = tk.slots.iter().collect();
        slots.sort_by(|a, b| b.count.cmp(&a.count).then(a.hash.cmp(&b.hash)));
        let pairs = slots.iter().take(tk.k as usize).map(|s| match &s.value {
            Value::Null => format!("null={}", s.count),
            v => format!("{v}={}", s.count),
        });
        pairs.collect::<Vec<_>>().join(",")
    }

    fn arb_value() -> impl proptest::strategy::Strategy<Value = Value> {
        use proptest::prelude::*;
        (0u8..4, -300i64..300).prop_map(|(kind, n)| match kind {
            0 => Value::Str(format!("m{n}")),
            1 => Value::Int(n),
            2 => Value::Float(n as f64 / 4.0),
            _ => Value::Null,
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// For any slot set (counts often tied, every value kind) and any
        /// `k` up to past the slot count, the render is the reference's,
        /// also into buffers that just held a longer render.
        #[test]
        fn the_render_is_the_fully_sorted_reference(
            slots in proptest::collection::vec(
                (proptest::prelude::any::<u64>(), arb_value(), 1i64..5),
                0..48,
            ),
            k in 1u32..56,
        ) {
            let mut slots: Vec<Slot> = slots
                .into_iter()
                .map(|(hash, value, count)| Slot { hash, value, count, err: 0 })
                .collect();
            slots.sort_by_key(|s| s.hash);
            slots.dedup_by_key(|s| s.hash);
            let mut tk = TopKSketch { k, cap: 64, slots };
            let (mut order, mut out) = (Vec::new(), String::new());
            tk.render(&mut order, &mut out);
            proptest::prop_assert_eq!(&out, &reference_report(&tk));
            // A longer render first, then the shorter into the same buffers.
            let k = std::mem::replace(&mut tk.k, 56);
            tk.render(&mut order, &mut out);
            tk.k = k.min(1 + k / 4);
            tk.render(&mut order, &mut out);
            proptest::prop_assert_eq!(&out, &reference_report(&tk));
        }
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
