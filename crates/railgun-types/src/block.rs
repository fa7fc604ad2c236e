//! Row blocks: the rows of many events in one buffer.
//!
//! A [`RowBlock`] is one [`Bytes`] body plus a 32-byte index entry per
//! event (id, timestamp, where its row lies in the body and how many
//! values it holds). The body may hold other bytes between the rows — a
//! reservoir chunk body keeps each event's id and timestamp deltas there —
//! and the block hands out [`Event`]s that are slices of it: a reference
//! count bump, no allocation and no second check.
//!
//! A block is built in one of two ways, and neither can index a row that
//! was not checked ([`crate::event`] module docs):
//! * [`RowBlockWriter`] copies the rows of existing events, which were
//!   checked when those events were built; anything written between rows
//!   goes through [`BufMut`], which only appends;
//! * [`RowBlockReader`] walks a body it is handed, and checks each row
//!   where it lies before indexing it.

use bytes::{Buf, BufMut, Bytes};

use crate::encode::check_row;
use crate::event::{Event, EventId};
use crate::time::Timestamp;
use crate::{RailgunError, Result};

/// Where one event's row lies in a block body.
#[derive(Debug, Clone, Copy)]
struct RowEntry {
    id: EventId,
    ts: Timestamp,
    offset: u32,
    len: u32,
    arity: u32,
}

const _: () = assert!(std::mem::size_of::<RowEntry>() <= 32);

/// The checked rows of a sequence of events in one body (module docs).
#[derive(Debug, Clone)]
pub struct RowBlock {
    body: Bytes,
    index: Vec<RowEntry>,
}

impl RowBlock {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True iff the block holds no event.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Timestamp of event `i`, if there is one.
    pub fn ts(&self, i: usize) -> Option<Timestamp> {
        self.index.get(i).map(|e| e.ts)
    }

    /// Event `i`, its row a slice of the body.
    #[inline]
    pub fn event(&self, i: usize) -> Event {
        let e = self.index[i];
        let start = e.offset as usize;
        Event::from_checked(e.id, e.ts, e.arity, self.body.slice(start..start + e.len as usize))
    }

    /// Index of the first event at or after `from` whose timestamp fails
    /// `pred`, the events from `from` on being partitioned by it (as
    /// [`slice::partition_point`]).
    pub fn partition_point(&self, from: usize, mut pred: impl FnMut(Timestamp) -> bool) -> usize {
        from + self.index[from..].partition_point(|e| pred(e.ts))
    }

    /// Memory the block holds: the body and the index's capacity.
    pub fn heap_bytes(&self) -> usize {
        self.body.len() + self.index.capacity() * std::mem::size_of::<RowEntry>()
    }
}

/// Builds a [`RowBlock`] from copies of events' rows. Bytes written
/// through [`BufMut`] land between rows, in order.
pub struct RowBlockWriter {
    body: Vec<u8>,
    index: Vec<RowEntry>,
}

impl RowBlockWriter {
    /// A writer for `events` rows and about `bytes` bytes of body.
    pub fn with_capacity(events: usize, bytes: usize) -> Self {
        RowBlockWriter {
            body: Vec::with_capacity(bytes),
            index: Vec::with_capacity(events),
        }
    }

    /// Append a copy of `event`'s row and index it as the next event.
    pub fn copy_row(&mut self, event: &Event) {
        let row = event.row();
        let offset = u32::try_from(self.body.len()).expect("a block body stays under 4 GiB");
        self.index.push(RowEntry {
            id: event.id,
            ts: event.ts,
            offset,
            len: row.len() as u32,
            arity: event.arity() as u32,
        });
        self.body.extend_from_slice(row);
    }

    /// The body written so far.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// The block: the body frozen, rows as indexed.
    pub fn finish(self) -> RowBlock {
        RowBlock {
            body: Bytes::from(self.body),
            index: self.index,
        }
    }
}

impl BufMut for RowBlockWriter {
    fn put_slice(&mut self, src: &[u8]) {
        self.body.extend_from_slice(src);
    }
}

/// Indexes the rows of a body where they lie. Read what precedes a row
/// through [`Buf`], then [`RowBlockReader::read_row`] checks and indexes
/// the row at the front.
pub struct RowBlockReader {
    body: Bytes,
    rest: Bytes,
    index: Vec<RowEntry>,
}

impl RowBlockReader {
    /// A reader at the front of `body`, expecting about `events` rows.
    pub fn new(body: Bytes, events: usize) -> Self {
        RowBlockReader {
            rest: body.clone(),
            body,
            index: Vec::with_capacity(events),
        }
    }

    /// Check the `arity` value images at the front of what is left of the
    /// body (as [`Event::read_row`] does), index them as the row of event
    /// (`id`, `ts`) and advance past them.
    pub fn read_row(&mut self, id: EventId, ts: Timestamp, arity: u64) -> Result<()> {
        let len = check_row(&self.rest, arity)?;
        let arity = u32::try_from(arity)
            .map_err(|_| RailgunError::Corruption(format!("{arity} fields in one event")))?;
        let offset = u32::try_from(self.body.len() - self.rest.len())
            .map_err(|_| RailgunError::Corruption("a row past 4 GiB into its block".into()))?;
        self.index.push(RowEntry {
            id,
            ts,
            offset,
            len: len as u32,
            arity,
        });
        self.rest.advance(len);
        Ok(())
    }

    /// The block of the rows read so far.
    pub fn finish(self) -> RowBlock {
        RowBlock {
            body: self.body,
            index: self.index,
        }
    }
}

impl Buf for RowBlockReader {
    fn remaining(&self) -> usize {
        self.rest.remaining()
    }

    fn chunk(&self) -> &[u8] {
        self.rest.chunk()
    }

    fn advance(&mut self, cnt: usize) {
        self.rest.advance(cnt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{get_uvarint, put_uvarint};
    use crate::value::Value;
    use proptest::prelude::*;

    /// Every value tag, empty strings included; no NaN (it is not equal
    /// to itself).
    fn value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(|f| Value::Float(if f.is_nan() { 0.5 } else { f })),
            "[a-zα-ω0-9-]{0,12}".prop_map(Value::Str),
        ]
    }

    /// Events of mixed arity (none, a few, or 103 fields) with timestamp
    /// ties and late arrivals.
    fn events() -> impl Strategy<Value = Vec<Event>> {
        let arity = prop_oneof![Just(0usize), 1usize..6, Just(103usize)];
        let one = (any::<u64>(), -3i64..3, proptest::collection::vec(value(), 103), arity);
        proptest::collection::vec(one, 0..24).prop_map(|raw| {
            let mut ts = 0;
            raw.into_iter()
                .map(|(id, step, values, arity)| {
                    ts += step;
                    Event::new(EventId(id), Timestamp::from_millis(ts), values[..arity].to_vec())
                })
                .collect()
        })
    }

    /// A body laid out as a chunk's is: each row behind framing bytes
    /// (here its arity), built through the writer.
    fn written(events: &[Event]) -> RowBlock {
        let mut w = RowBlockWriter::with_capacity(events.len(), 0);
        for e in events {
            put_uvarint(&mut w, e.arity() as u64);
            w.copy_row(e);
        }
        w.finish()
    }

    fn read(body: Bytes, events: &[Event]) -> Result<RowBlock> {
        let mut r = RowBlockReader::new(body, events.len());
        for e in events {
            let arity = get_uvarint(&mut r)?;
            r.read_row(e.id, e.ts, arity)?;
        }
        if r.has_remaining() {
            return Err(RailgunError::Corruption("trailing bytes".into()));
        }
        Ok(r.finish())
    }

    #[test]
    fn events_slice_the_body() {
        let e = |id, ts| Event::new(EventId(id), Timestamp::from_millis(ts), vec![Value::Int(ts)]);
        let block = written(&[e(1, 10), e(2, 10), e(3, 30)]);
        let (first, last) = (block.event(0), block.event(2));
        // Each entry is one arity byte and a two-byte row.
        assert_eq!(first.row().as_ptr().wrapping_add(2 * 3), last.row().as_ptr());
        assert_eq!(block.partition_point(0, |ts| ts < Timestamp::from_millis(10)), 0);
        assert_eq!(block.partition_point(1, |ts| ts <= Timestamp::from_millis(10)), 2);
        assert_eq!(block.partition_point(0, |_| true), 3);
        assert_eq!(block.heap_bytes(), 3 * 3 + 3 * std::mem::size_of::<RowEntry>());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A block written from events, and one read back from its body,
        /// hand out the events with their rows byte for byte.
        #[test]
        fn written_and_read_blocks_hold_the_events(events in events()) {
            let block = written(&events);
            let again = read(block.body.clone(), &events).unwrap();
            for b in [&block, &again] {
                prop_assert_eq!(b.len(), events.len());
                for (i, want) in events.iter().enumerate() {
                    let got = b.event(i);
                    prop_assert_eq!(&got, want);
                    prop_assert_eq!(got.row(), want.row());
                }
            }
        }

        /// A cut body is `Corruption`; a body with a byte changed is
        /// `Corruption` or rows that read back whole. Never a panic.
        #[test]
        fn damaged_bodies_are_corruption_or_exact(
            events in events(),
            cut in any::<u16>(),
            at in any::<u16>(),
            byte in any::<u8>(),
        ) {
            let body = written(&events).body.to_vec();
            prop_assume!(!body.is_empty());
            let cut = cut as usize % body.len();
            prop_assert!(matches!(
                read(Bytes::from(body[..cut].to_vec()), &events),
                Err(RailgunError::Corruption(_))
            ));
            let mut changed = body.clone();
            changed[at as usize % body.len()] = byte;
            match read(Bytes::from(changed), &events) {
                Err(e) => prop_assert!(matches!(e, RailgunError::Corruption(_))),
                Ok(block) => {
                    for e in (0..block.len()).map(|i| block.event(i)) {
                        prop_assert_eq!(e.values().len(), e.arity());
                    }
                }
            }
        }
    }
}
