//! The reference kernel: a fixed piece of benchmark-owned work, read
//! between the measured pieces, that says how fast the machine is *now*.
//!
//! The box this runs on is a few virtual cores of a shared host. What the
//! host's other guests do changes how fast memory-bound code runs here by
//! tens of percent, for minutes at a time and in bursts of tens of
//! milliseconds (no steal time shows, and pure arithmetic does not slow
//! down: it is the caches), and no amount of repetition inside one run
//! averages out what outlasts the run. So every timing the benchmark
//! reports is scaled by how long this kernel took right before and after
//! the piece it belongs to, relative to [`NOMINAL_NS`]: a run on a slow
//! minute and a run on a fast one report the same number, and an engine
//! change still moves it, because the kernel never runs engine code.
//!
//! The kernel does the kinds of thing the engine does per event (encode
//! into a byte buffer, checksum it, update a hash-map aggregate, slide a
//! window, put and get in an ordered map, copy and re-read a batch) over
//! 1.5 MB of state of its own, which the engine's work has just pushed out
//! of the nearest caches: it slows down when the engine does (README,
//! "Noise": over an hour a run's time follows its mean reading at
//! r = 0.9-0.97), which an arithmetic spin does not.

use crate::gen::mix;
use crate::stats;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// What one [`Reference::reading`] between pieces of engine work took on
/// the box the workloads were frozen on, when it was quiet. A constant of
/// the benchmark: it only fixes the scale of the reported numbers (on that
/// box, quiet, they are the raw ones).
pub const NOMINAL_NS: f64 = 590_000.0;

/// How much faster than this machine (at a reading of `reading_ns`) the
/// reference machine is.
pub fn nominal_over(reading_ns: f64) -> f64 {
    NOMINAL_NS / reading_ns.max(1.0)
}

const KEYS: u64 = 8_000;
const WINDOW: usize = 16_000;
const OPS_PER_READING: u64 = 2_000;
const BATCH: usize = 64;

pub struct Reference {
    sums: HashMap<u64, (f64, u64)>,
    window: VecDeque<(u64, f64)>,
    tree: BTreeMap<[u8; 12], [u8; 24]>,
    frame: Vec<u8>,
    batch: Vec<u8>,
    copy: Vec<u8>,
    next: u64,
    sink: u64,
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn get_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let (mut v, mut shift) = (0u64, 0);
    while let Some(&b) = bytes.get(*at) {
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            break;
        }
        shift += 7;
    }
    v
}

impl Reference {
    /// Build the state and run it warm.
    pub fn new() -> Self {
        let mut r = Reference {
            sums: HashMap::with_capacity(KEYS as usize),
            window: VecDeque::with_capacity(WINDOW + 1),
            tree: BTreeMap::new(),
            frame: Vec::with_capacity(64),
            batch: Vec::with_capacity(BATCH * 64),
            copy: Vec::with_capacity(BATCH * 64),
            next: 0,
            sink: 0,
        };
        for _ in 0..(WINDOW as u64 / OPS_PER_READING + 4) {
            r.reading();
        }
        r
    }

    /// One reading: a fixed number of operations on the kernel's own
    /// state. Returns the CPU time it took in ns (the calling thread's own,
    /// so a thread of the engine that takes the core meanwhile does not
    /// count as a slow machine).
    pub fn reading(&mut self) -> u64 {
        let started = stats::thread_cpu_clock_ns();
        for _ in 0..OPS_PER_READING {
            let i = self.next;
            self.next += 1;
            let h = mix(i);
            // Skewed keys: the square of a uniform draw favours low ids.
            let u = (h >> 11) as f64 / (1u64 << 53) as f64;
            let key = (u * u * KEYS as f64) as u64;
            let amount = (h & 0xfff) as f64 * 0.25;
            // Encode, checksum.
            self.frame.clear();
            put_varint(&mut self.frame, key);
            put_varint(&mut self.frame, i * 5);
            self.frame.extend_from_slice(&amount.to_le_bytes());
            self.frame.extend_from_slice(&h.to_le_bytes());
            let mut sum = 0xcbf2_9ce4_8422_2325u64;
            for &b in &self.frame {
                sum = (sum ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            // Aggregate in, window slides, aggregate out.
            let agg = self.sums.entry(key).or_insert((0.0, 0));
            agg.0 += amount;
            agg.1 += 1;
            self.window.push_back((key, amount));
            if self.window.len() > WINDOW {
                let (old, was) = self.window.pop_front().expect("not empty");
                if let Some(agg) = self.sums.get_mut(&old) {
                    agg.0 -= was;
                    agg.1 -= 1;
                }
            }
            // State store: ordered map, fixed-size keys and values.
            let mut k = [0u8; 12];
            k[..4].copy_from_slice(&((h >> 63) as u32).to_be_bytes());
            k[4..].copy_from_slice(&key.to_be_bytes());
            let mut v = [0u8; 24];
            v[..8].copy_from_slice(&amount.to_le_bytes());
            v[8..16].copy_from_slice(&sum.to_le_bytes());
            if let Some(old) = self.tree.get(&k) {
                v[16..].copy_from_slice(&old[8..16]);
            }
            self.tree.insert(k, v);
            // Batch: frames copied out and read back every BATCH events.
            self.batch.extend_from_slice(&self.frame);
            if i % BATCH as u64 == BATCH as u64 - 1 {
                self.copy.clear();
                self.copy.extend_from_slice(&self.batch);
                self.batch.clear();
                let mut at = 0;
                while at < self.copy.len() {
                    self.sink ^= get_varint(&self.copy, &mut at);
                    self.sink ^= get_varint(&self.copy, &mut at);
                    at += 16;
                }
            }
            self.sink = self.sink.wrapping_add(sum);
        }
        std::hint::black_box(self.sink);
        stats::thread_cpu_clock_ns().saturating_sub(started)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip() {
        let mut buf = Vec::new();
        for v in [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut at = 0;
            assert_eq!(get_varint(&buf, &mut at), v);
            assert_eq!(at, buf.len());
        }
    }

    #[test]
    fn a_pass_is_the_same_work_every_time() {
        let mut r = Reference::new();
        let before = (r.next, r.window.len());
        assert!(r.reading() > 0);
        assert_eq!(r.next, before.0 + OPS_PER_READING);
        assert_eq!(r.window.len(), WINDOW);
        assert_eq!(before.1, WINDOW);
        assert!(r.sums.len() as u64 <= KEYS);
    }
}
