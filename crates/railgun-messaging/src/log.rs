//! Append-only partition logs.
//!
//! Kafka's core abstraction (§3.3): an ordered, replayable log per
//! (topic, partition). Consumers pull by offset, so a recovering Railgun
//! node can rewind and replay unprocessed messages without affecting other
//! consumers — the property the paper picked Kafka for.

use bytes::Bytes;

use crate::record::Record;

/// One partition's log. The broker keeps it in memory; durability of the
/// *messaging layer* is out of scope for the reproduction (the paper treats
/// Kafka as reliable infrastructure) but retention is configurable so
/// replay windows stay bounded.
#[derive(Debug, Default)]
pub struct PartitionLog {
    /// `records[i].offset == base_offset + i`.
    records: Vec<Record>,
    base_offset: u64,
    total_bytes: u64,
}

impl PartitionLog {
    /// Create an empty log.
    pub fn new() -> Self {
        PartitionLog::default()
    }

    /// Append a record, returning its offset. The payload is stored as a
    /// [`Bytes`] view, so a producer handing out slices of a shared batch
    /// frame appends without copying payload bytes.
    pub fn append(&mut self, key: Vec<u8>, payload: impl Into<Bytes>) -> u64 {
        let payload = payload.into();
        let offset = self.base_offset + self.records.len() as u64;
        self.total_bytes += (key.len() + payload.len()) as u64;
        self.records.push(Record {
            offset,
            key,
            payload,
        });
        offset
    }

    /// Read up to `max` records starting at `from` (inclusive).
    ///
    /// Offsets below the retention floor yield records from the floor
    /// upward — like Kafka's `auto.offset.reset = earliest`.
    pub fn read_from(&self, from: u64, max: usize) -> &[Record] {
        let len = self.records.len();
        let start = (from.saturating_sub(self.base_offset) as usize).min(len);
        &self.records[start..start.saturating_add(max).min(len)]
    }

    /// Next offset to be assigned (== log end offset).
    pub fn end_offset(&self) -> u64 {
        self.base_offset + self.records.len() as u64
    }

    /// Drop records below `offset` (retention).
    pub fn truncate_before(&mut self, offset: u64) {
        if offset <= self.base_offset {
            return;
        }
        let drop = ((offset - self.base_offset) as usize).min(self.records.len());
        for r in &self.records[..drop] {
            self.total_bytes -= (r.key.len() + r.payload.len()) as u64;
        }
        self.records.drain(..drop);
        self.base_offset += drop as u64;
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True iff no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total retained payload+key bytes.
    pub fn bytes(&self) -> u64 {
        self.total_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_assigns_sequential_offsets() {
        let mut log = PartitionLog::new();
        assert_eq!(log.append(vec![], b"a".to_vec()), 0);
        assert_eq!(log.append(vec![], b"b".to_vec()), 1);
        assert_eq!(log.end_offset(), 2);
    }

    #[test]
    fn read_from_respects_bounds() {
        let mut log = PartitionLog::new();
        for i in 0..10u8 {
            log.append(vec![], vec![i]);
        }
        let r = log.read_from(3, 4);
        assert_eq!(r.len(), 4);
        assert_eq!(r[0].offset, 3);
        assert_eq!(r[3].offset, 6);
        assert!(log.read_from(10, 5).is_empty());
        assert_eq!(log.read_from(8, 100).len(), 2);
    }

    #[test]
    fn replay_from_zero_is_full_history() {
        let mut log = PartitionLog::new();
        for i in 0..5u8 {
            log.append(vec![i], vec![i]);
        }
        assert_eq!(log.read_from(0, 100).len(), 5);
    }

    #[test]
    fn truncation_moves_floor() {
        let mut log = PartitionLog::new();
        for i in 0..10u8 {
            log.append(vec![], vec![i; 10]);
        }
        let bytes_before = log.bytes();
        log.truncate_before(4);
        assert_eq!(log.len(), 6);
        assert!(log.bytes() < bytes_before);
        // Reads below the floor clamp to the floor.
        let r = log.read_from(0, 2);
        assert_eq!(r[0].offset, 4);
        // Appends continue with correct offsets.
        assert_eq!(log.append(vec![], vec![]), 10);
    }

    #[test]
    fn truncate_beyond_end_empties_log() {
        let mut log = PartitionLog::new();
        log.append(vec![], vec![1]);
        log.truncate_before(100);
        assert!(log.is_empty());
        assert_eq!(log.append(vec![], vec![2]), 1);
    }
}
