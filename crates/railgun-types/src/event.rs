//! Stream events.
//!
//! An [`Event`] is one element of an unbounded stream: a unique id (used for
//! at-least-once deduplication, paper §3.3), a millisecond timestamp (used
//! for window membership), and the positional field values described by the
//! stream's schema.
//!
//! ## Rows
//!
//! The field values have one representation: the event's **row**, the
//! [`put_value`](crate::encode::put_value) images of its fields back to
//! back — byte for byte what follows the field count in a bus record
//! ([`put_event`](crate::encode::put_event)) and the id/ts deltas in a
//! reservoir chunk body. An event received from the bus or loaded from a
//! chunk is a slice of the buffer it arrived in; writing it back out is a
//! copy of those bytes; nothing in between builds the values.
//!
//! A row is checked once, when the event is built from bytes
//! ([`Event::read_row`]) or a [`RowBlock`](crate::block::RowBlock) indexes
//! it where it lies: every tag known, every varint terminated and in
//! range, every float and string inside the row, every string UTF-8,
//! exactly `arity` values. No `Event` exists with an unchecked row, which
//! is why the accessors below cannot fail. The engine reads fields through
//! [`Event::project`], which decodes only the positions its plan names;
//! [`Event::values`] builds all of them and is for tests, tools and the
//! oracle — nothing on the event path calls it.

use std::sync::{Arc, OnceLock};

use bytes::{Buf, Bytes};

use crate::encode::{check_row, next_value, put_row, RawValue, CHECKED};
use crate::time::Timestamp;
use crate::value::Value;
use crate::{RailgunError, Result};

/// Globally unique event identifier.
///
/// The front-end assigns ids; the reservoir deduplicates on them against
/// chunks still in memory, which combined with the messaging layer's
/// at-least-once delivery yields exactly-once processing (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

/// One event of a data stream.
///
/// Field values are stored positionally, in the order declared by the
/// stream's [`crate::Schema`], as an encoded row (see the module docs).
/// The row is a shared [`Bytes`], because events are fanned out to one
/// topic per partitioner (paper §4), replicated to replica tasks and handed
/// out by every reservoir cursor, and cloning must stay cheap: a clone
/// shares the row and nothing else (a [`Event::values`] view stays with
/// the event that built it).
pub struct Event {
    /// Unique id for deduplication.
    pub id: EventId,
    /// Event timestamp; windows slide on this.
    pub ts: Timestamp,
    /// Number of value images in `row`.
    arity: u32,
    /// The checked row.
    row: Bytes,
    /// [`Event::values`]' view of the row, built when first asked for.
    view: OnceLock<Arc<[Value]>>,
}

impl Event {
    /// Build an event from its parts. The values become the row; they are
    /// also kept as the [`Event::values`] view, since the callers of this
    /// constructor are the callers of that accessor.
    pub fn new(id: EventId, ts: Timestamp, values: Vec<Value>) -> Self {
        let mut row = Vec::with_capacity(values.len() * 6);
        put_row(&mut row, &values);
        Event {
            id,
            ts,
            arity: u32::try_from(values.len()).expect("an event has fewer than 2^32 fields"),
            row: Bytes::from(row),
            view: OnceLock::from(Arc::from(values)),
        }
    }

    /// Build an event whose row is the `arity` value images at the front
    /// of `buf` (`arity` as the wire states it), checking them (module
    /// docs) and advancing past them. The row is a slice of `buf` when
    /// that is a [`Bytes`], a copy otherwise.
    pub fn read_row(id: EventId, ts: Timestamp, arity: u64, buf: &mut impl Buf) -> Result<Self> {
        let len = check_row(buf.chunk(), arity)?;
        Ok(Event {
            id,
            ts,
            arity: u32::try_from(arity)
                .map_err(|_| RailgunError::Corruption(format!("{arity} fields in one event")))?,
            row: buf.copy_to_bytes(len),
            view: OnceLock::new(),
        })
    }

    /// Number of fields.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity as usize
    }

    /// The encoded row: `arity` value images back to back.
    #[inline]
    pub fn row(&self) -> &[u8] {
        &self.row
    }

    /// The value images of the row, in field order.
    pub(crate) fn raw_values(&self) -> impl Iterator<Item = RawValue<'_>> {
        let mut rest = self.row();
        (0..self.arity).map(move |_| step(&mut rest))
    }

    /// Field values in schema order: a decoded view of the whole row, built
    /// on the first call and kept. For tests, tools and the oracle — the
    /// event path reads fields through [`Event::project`].
    pub fn values(&self) -> &[Value] {
        self.view.get_or_init(|| {
            self.raw_values()
                .map(|raw| raw.to_value().expect(CHECKED))
                .collect()
        })
    }

    /// Decode the fields at `positions` (strictly ascending) into
    /// `out[position]`, leaving every other slot of `out` as it is. `out`
    /// grows with NULLs to hold the last position; a position past the
    /// event's arity reads as NULL. String slots keep their buffers, so a
    /// scratch row reused across events stops allocating once it has seen
    /// the longest strings. The walk stops at the last position asked for.
    pub fn project(&self, positions: &[usize], out: &mut Vec<Value>) {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        let Some(&last) = positions.last() else {
            return;
        };
        if out.len() <= last {
            out.resize(last + 1, Value::Null);
        }
        let mut rest = self.row();
        let mut at = 0; // position of the value image at the front of `rest`
        for &p in positions {
            if p >= self.arity() {
                out[p] = Value::Null;
                continue;
            }
            while at < p {
                step(&mut rest);
                at += 1;
            }
            step(&mut rest).store_checked(&mut out[p]);
            at += 1;
        }
    }

    /// An event whose `arity`-value row was checked before: as another
    /// event's row, or by the [`RowBlock`](crate::block::RowBlock) that
    /// indexed it.
    pub(crate) fn from_checked(id: EventId, ts: Timestamp, arity: u32, row: Bytes) -> Event {
        Event {
            id,
            ts,
            arity,
            row,
            view: OnceLock::new(),
        }
    }

    fn with_row(&self, row: Bytes) -> Event {
        Event::from_checked(self.id, self.ts, self.arity, row)
    }

    /// The same event with a row allocation of its own: what a store that
    /// outlives the buffer the event arrived in keeps (a slice would pin
    /// the whole bus frame or chunk body behind it).
    pub fn detached(&self) -> Event {
        self.with_row(Bytes::copy_from_slice(&self.row))
    }

    /// Memory this event holds: itself plus its row's bytes (its share of
    /// the buffer, when the row is a slice of one), not counting the
    /// reference counts in front of a row allocated on its own. The
    /// reservoir closes a chunk at a byte target of this, and counts it for
    /// events it keeps one by one (open, transition and pending chunks); a
    /// durable chunk is a [`RowBlock`](crate::block::RowBlock) and counts
    /// its body and index instead.
    pub fn heap_size(&self) -> usize {
        std::mem::size_of::<Event>() + self.row.len()
    }
}

impl Clone for Event {
    fn clone(&self) -> Self {
        self.with_row(self.row.clone())
    }
}

/// Step over the value image at the front of a checked row.
#[inline]
fn step<'a>(rest: &mut &'a [u8]) -> RawValue<'a> {
    next_value(rest).expect(CHECKED)
}

/// Field-wise equality, as between the decoded values (so two encodings of
/// one integer are equal, and NaN differs from itself).
impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.ts == other.ts
            && self.arity == other.arity
            && self.raw_values().eq(other.raw_values())
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event")
            .field("id", &self.id)
            .field("ts", &self.ts)
            .field("values", &self.values())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{get_event, put_event, put_value};
    use crate::schema::{FieldType, Schema};
    use proptest::prelude::*;

    #[test]
    fn cheap_clone_shares_values() {
        let e = Event::new(
            EventId(1),
            Timestamp::from_millis(5),
            vec![Value::Int(1), Value::Str("card-1".into())],
        );
        let f = e.clone();
        assert_eq!(e.row().as_ptr(), f.row().as_ptr(), "one row behind both");
        assert_eq!(e, f);
    }

    #[test]
    fn value_access() {
        let e = Event::new(EventId(7), Timestamp::from_millis(0), vec![Value::Float(2.5)]);
        assert_eq!(e.values(), &[Value::Float(2.5)]);
        assert_eq!(e.arity(), 1);
        let mut out = Vec::new();
        e.project(&[0, 1], &mut out);
        assert_eq!(out, vec![Value::Float(2.5), Value::Null], "past the arity reads NULL");
    }

    #[test]
    fn heap_size_counts_strings() {
        let small = Event::new(EventId(0), Timestamp::from_millis(0), vec![Value::Int(1)]);
        let big = Event::new(
            EventId(0),
            Timestamp::from_millis(0),
            vec![Value::Str("x".repeat(1024))],
        );
        assert!(big.heap_size() > small.heap_size() + 1000);
        assert_eq!(small.heap_size(), std::mem::size_of::<Event>() + small.row().len());
    }

    #[test]
    fn a_decoded_event_slices_the_bytes_it_came_in() {
        let e = Event::new(
            EventId(3),
            Timestamp::from_millis(9),
            vec![Value::Str("card".into()), Value::Null, Value::Float(1.5)],
        );
        let mut record = vec![0xAA]; // something before the event, as in a request
        put_event(&mut record, &e);
        record.push(0xBB); // and after
        let frame = Bytes::from(record);
        let mut cur = frame.slice(1..frame.len());
        let got = get_event(&mut cur).unwrap();
        assert_eq!(got, e);
        assert_eq!(cur.as_ref(), &[0xBB], "advanced exactly past the event");
        let base = frame.as_ref().as_ptr() as usize;
        let at = got.row().as_ptr() as usize;
        assert!(at > base && at < base + frame.len(), "the row lies inside the frame");
        // Detaching copies it out.
        let own = got.detached();
        assert_eq!(own, e);
        let at = own.row().as_ptr() as usize;
        assert!(at < base || at >= base + frame.len());
    }

    #[test]
    fn projection_reuses_string_buffers() {
        let ev = |card: &str| {
            Event::new(
                EventId(0),
                Timestamp::from_millis(0),
                vec![Value::Str(card.into()), Value::Int(4), Value::Float(0.5)],
            )
        };
        let mut out = Vec::new();
        ev("card-00000001").project(&[0, 2], &mut out);
        let Value::Str(first) = &out[0] else {
            panic!("a string")
        };
        let buffer = first.as_ptr();
        ev("card-00000002").project(&[0, 2], &mut out);
        assert_eq!(
            out,
            vec![Value::Str("card-00000002".into()), Value::Null, Value::Float(0.5)]
        );
        let Value::Str(second) = &out[0] else {
            panic!("a string")
        };
        assert_eq!(second.as_ptr(), buffer, "same buffer, new text");
    }

    fn value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            // NaN is not equal to itself; every other bit pattern is fair.
            any::<u64>().prop_map(|b| Value::Float(if f64::from_bits(b).is_nan() {
                0.25
            } else {
                f64::from_bits(b)
            })),
            "[a-zα-ω0-9-]{0,12}".prop_map(Value::Str),
        ]
    }

    fn field_type() -> impl Strategy<Value = FieldType> {
        prop_oneof![
            Just(FieldType::Bool),
            Just(FieldType::Int),
            Just(FieldType::Float),
            Just(FieldType::Str),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn new_keeps_the_values(values in proptest::collection::vec(value(), 0..24)) {
            let e = Event::new(EventId(1), Timestamp::from_millis(2), values.clone());
            prop_assert_eq!(e.values(), &values[..]);
            prop_assert_eq!(e.arity(), values.len());
            let mut row = Vec::new();
            for v in &values {
                put_value(&mut row, v);
            }
            prop_assert_eq!(e.row(), &row[..]);
        }

        #[test]
        fn encode_decode_roundtrips_from_slices_and_from_bytes(
            id in any::<u64>(),
            ts in any::<i64>(),
            values in proptest::collection::vec(value(), 0..24),
        ) {
            let e = Event::new(EventId(id), Timestamp::from_millis(ts), values.clone());
            let mut buf = Vec::new();
            put_event(&mut buf, &e);
            let mut slice = &buf[..];
            let from_slice = get_event(&mut slice).unwrap();
            prop_assert!(slice.is_empty());
            let mut shared = Bytes::from(buf.clone());
            let from_bytes = get_event(&mut shared).unwrap();
            prop_assert!(shared.is_empty());
            for got in [from_slice, from_bytes] {
                prop_assert_eq!(&got, &e);
                prop_assert_eq!(got.row(), e.row());
                // The view of a decoded event is built from the row.
                prop_assert_eq!(got.values(), &values[..]);
                let mut again = Vec::new();
                put_event(&mut again, &got);
                prop_assert_eq!(&again, &buf);
            }
        }

        #[test]
        fn projection_equals_indexing_the_values(
            values in proptest::collection::vec(value(), 0..24),
            picks in proptest::collection::vec(any::<bool>(), 30),
            stale in value(),
        ) {
            let e = Event::new(EventId(1), Timestamp::from_millis(2), values.clone());
            let decoded = {
                let mut buf = Vec::new();
                put_event(&mut buf, &e);
                get_event(&mut &buf[..]).unwrap()
            };
            let positions: Vec<usize> = (0..picks.len()).filter(|&i| picks[i]).collect();
            // Whatever a slot held before is replaced; other slots stay.
            let mut out = vec![stale.clone(); 30];
            decoded.project(&positions, &mut out);
            for (i, slot) in out.iter().enumerate() {
                let want = if !picks[i] {
                    &stale
                } else {
                    values.get(i).unwrap_or(&Value::Null)
                };
                prop_assert_eq!(slot, want, "slot {}", i);
            }
            // A scratch row that is too short grows.
            let mut short = Vec::new();
            decoded.project(&positions, &mut short);
            prop_assert_eq!(short.len(), positions.last().map_or(0, |p| p + 1));
        }

        #[test]
        fn check_row_agrees_with_check_values(
            types in proptest::collection::vec(field_type(), 0..8),
            values in proptest::collection::vec(value(), 0..8),
            conform in any::<bool>(),
        ) {
            let names: Vec<String> = (0..types.len()).map(|i| format!("f{i}")).collect();
            let pairs: Vec<(&str, FieldType)> =
                names.iter().map(String::as_str).zip(types.iter().copied()).collect();
            let schema = Schema::from_pairs(&pairs).unwrap();
            // Random rows rarely fit a random schema: half the cases bend
            // the row to the schema so the accepting side is exercised too.
            let values: Vec<Value> = if conform {
                types
                    .iter()
                    .zip(values.iter().chain(std::iter::repeat(&Value::Null)))
                    .map(|(t, v)| if t.admits(v) { v.clone() } else { Value::Null })
                    .collect()
            } else {
                values
            };
            let e = Event::new(EventId(0), Timestamp::from_millis(0), values);
            let by_values = schema.check_values(e.values());
            prop_assert_eq!(schema.check_row(&e).is_ok(), by_values.is_ok());
            if conform {
                prop_assert!(by_values.is_ok());
            }
        }

        /// Whatever is done to the bytes of a row, reading it back is an
        /// error or an event holding exactly the bytes that were read —
        /// never a panic, and never an event whose accessors could fail.
        #[test]
        fn damaged_rows_are_errors_or_exact(
            values in proptest::collection::vec(value(), 1..16),
            cut in any::<u16>(),
            at in any::<u16>(),
            byte in any::<u8>(),
        ) {
            let e = Event::new(EventId(0), Timestamp::from_millis(0), values);
            let row = e.row().to_vec();
            let mut mutated = row.clone();
            let at = at as usize % row.len();
            mutated[at] = byte;
            let cut = cut as usize % (row.len() + 1);
            for damaged in [&row[..cut], &mutated[..]] {
                let mut cur = damaged;
                match Event::read_row(e.id, e.ts, e.arity() as u64, &mut cur) {
                    Err(_) => {}
                    Ok(got) => {
                        prop_assert_eq!(got.row(), &damaged[..damaged.len() - cur.len()]);
                        prop_assert_eq!(got.values().len(), e.arity());
                        let mut all = Vec::new();
                        got.project(&(0..e.arity()).collect::<Vec<_>>(), &mut all);
                        // (Compared as text: a damaged float may be NaN.)
                        prop_assert_eq!(format!("{all:?}"), format!("{:?}", got.values()));
                    }
                }
            }
            // Every strict prefix is short of at least one value.
            if cut < row.len() {
                prop_assert!(Event::read_row(e.id, e.ts, e.arity() as u64, &mut &row[..cut]).is_err());
            }
        }
    }
}
