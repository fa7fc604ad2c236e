//! Sliding-window min/max via a monotonic deque (paper §4.1.3, citing
//! Knuth \[30\]).
//!
//! The classic algorithm: on insert, drop dominated elements from the back;
//! on evict (in insertion order), drop the front if it has expired. Each
//! element carries its insertion sequence number so eviction works even
//! though dominated elements were removed early.

use std::collections::VecDeque;

use bytes::Buf;
use railgun_types::encode::{get_uvarint, get_value, put_uvarint, put_value};
use railgun_types::{Result, Value};

/// Monotonic deque maintaining the extreme of a sliding window in O(1)
/// amortized per operation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MinMaxDeque {
    /// Front = current extreme. Values strictly "improve" toward the front.
    deque: VecDeque<(Value, u64)>,
    /// Sequence number assigned to the next insert.
    insert_seq: u64,
    /// Number of evictions processed (elements with seq < this are gone).
    evicted: u64,
}

impl MinMaxDeque {
    /// Insert a value. `keep_back` decides whether the back survives
    /// against the newcomer: for a max-deque, `back >= new`; for a
    /// min-deque, `back <= new`.
    pub fn insert(&mut self, v: &Value, keep_back: impl Fn(&Value, &Value) -> bool) {
        while let Some((back, _)) = self.deque.back() {
            if keep_back(back, v) {
                break;
            }
            self.deque.pop_back();
        }
        self.deque.push_back((v.clone(), self.insert_seq));
        self.insert_seq += 1;
    }

    /// Evict the oldest inserted value (insertion order).
    pub fn evict(&mut self) {
        self.evicted += 1;
        while let Some((_, seq)) = self.deque.front() {
            if *seq < self.evicted {
                self.deque.pop_front();
            } else {
                break;
            }
        }
    }

    /// The current extreme, if the window is non-empty.
    pub fn extreme(&self) -> Option<&Value> {
        self.deque.front().map(|(v, _)| v)
    }

    /// Number of retained (non-dominated) elements.
    pub fn len(&self) -> usize {
        self.deque.len()
    }

    /// True iff no elements are retained.
    pub fn is_empty(&self) -> bool {
        self.deque.is_empty()
    }

    /// Serialize into `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_uvarint(buf, self.insert_seq);
        put_uvarint(buf, self.evicted);
        put_uvarint(buf, self.deque.len() as u64);
        for (v, seq) in &self.deque {
            put_value(buf, v);
            put_uvarint(buf, *seq);
        }
    }

    /// Deserialize from `buf`.
    pub fn decode(buf: &mut impl Buf) -> Result<Self> {
        let mut deque = MinMaxDeque::default();
        deque.decode_into(buf)?;
        Ok(deque)
    }

    /// [`MinMaxDeque::decode`] into `self`, reusing its buffer.
    pub fn decode_into(&mut self, buf: &mut impl Buf) -> Result<()> {
        self.insert_seq = get_uvarint(buf)?;
        self.evicted = get_uvarint(buf)?;
        let n = get_uvarint(buf)?;
        self.deque.clear();
        // An element takes at least two bytes: its value and its seq.
        self.deque
            .reserve(n.min(buf.remaining() as u64 / 2) as usize);
        for _ in 0..n {
            let v = get_value(buf)?;
            self.deque.push_back((v, get_uvarint(buf)?));
        }
        Ok(())
    }
}

/// Keep-back predicate for a max-deque.
pub fn max_keeps(back: &Value, new: &Value) -> bool {
    back.total_cmp(new) != std::cmp::Ordering::Less
}

/// Keep-back predicate for a min-deque.
pub fn min_keeps(back: &Value, new: &Value) -> bool {
    back.total_cmp(new) != std::cmp::Ordering::Greater
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vi(i: i64) -> Value {
        Value::Int(i)
    }

    #[test]
    fn max_over_sliding_window() {
        // Window of size 3 over [1, 3, 2, 5, 4, 1]: maxes are
        // 1, 3, 3, 5, 5, 5.
        let mut d = MinMaxDeque::default();
        let xs = [1i64, 3, 2, 5, 4, 1];
        let mut maxes = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            d.insert(&vi(x), max_keeps);
            if i >= 3 {
                d.evict();
            }
            maxes.push(d.extreme().unwrap().as_i64().unwrap());
        }
        assert_eq!(maxes, vec![1, 3, 3, 5, 5, 5]);
    }

    #[test]
    fn min_over_sliding_window() {
        let mut d = MinMaxDeque::default();
        let xs = [5i64, 2, 4, 1, 3, 6];
        let mut mins = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            d.insert(&vi(x), min_keeps);
            if i >= 2 {
                d.evict();
            }
            mins.push(d.extreme().unwrap().as_i64().unwrap());
        }
        // Window of size 2: [5],[5,2],[2,4],[4,1],[1,3],[3,6]
        assert_eq!(mins, vec![5, 2, 2, 1, 1, 3]);
    }

    #[test]
    fn evicting_everything_empties() {
        let mut d = MinMaxDeque::default();
        for i in 0..5 {
            d.insert(&vi(i), max_keeps);
        }
        for _ in 0..5 {
            d.evict();
        }
        assert!(d.is_empty());
        assert_eq!(d.extreme(), None);
    }

    #[test]
    fn duplicate_values_survive_eviction_correctly() {
        let mut d = MinMaxDeque::default();
        d.insert(&vi(7), max_keeps);
        d.insert(&vi(7), max_keeps);
        d.evict(); // evicts the first 7
        assert_eq!(d.extreme(), Some(&vi(7)));
        d.evict();
        assert!(d.is_empty());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut d = MinMaxDeque::default();
        for x in [3i64, 1, 4, 1, 5] {
            d.insert(&vi(x), max_keeps);
        }
        d.evict();
        let mut buf = Vec::new();
        d.encode(&mut buf);
        let e = MinMaxDeque::decode(&mut &buf[..]).unwrap();
        assert_eq!(d, e);
    }

    #[test]
    fn compare_against_naive_on_random_stream() {
        // xorshift pseudo-random stream, window 16, check against a naive
        // recompute at every step.
        let mut x = 0xdeadbeefu64;
        let mut vals: Vec<i64> = Vec::new();
        let mut d = MinMaxDeque::default();
        const W: usize = 16;
        for i in 0..500usize {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = (x % 1000) as i64;
            vals.push(v);
            d.insert(&vi(v), max_keeps);
            if i >= W {
                d.evict();
            }
            // Window now holds elements [max(0, i-W+1) ..= i].
            let start = if i >= W { i - W + 1 } else { 0 };
            let naive = *vals[start..=i].iter().max().unwrap();
            assert_eq!(d.extreme().unwrap().as_i64().unwrap(), naive, "step {i}");
        }
    }
}
