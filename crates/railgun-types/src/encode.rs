//! Binary encoding primitives shared by all on-disk and wire formats.
//!
//! Every persistent format in Railgun (SSTable blocks, manifests, reservoir
//! chunks, messaging records, checkpoints) is built from these primitives:
//! little-endian fixed integers, LEB128 varints, zigzag-encoded signed
//! varints, length-prefixed byte strings, and a CRC-32 (Castagnoli
//! polynomial, software implementation) for corruption detection.
//!
//! Values and events also encode here so that the reservoir chunk format and
//! the messaging layer agree on one representation.

use bytes::{Buf, BufMut, Bytes};

use crate::event::{Event, EventId};
use crate::schema::FieldType;
use crate::time::Timestamp;
use crate::value::Value;
use crate::{RailgunError, Result};

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

/// Append `v` as a LEB128 varint.
pub fn put_uvarint(buf: &mut impl BufMut, mut v: u64) {
    while v >= 0x80 {
        buf.put_u8((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    buf.put_u8(v as u8);
}

/// Decode a LEB128 varint, advancing `buf`.
pub fn get_uvarint(buf: &mut impl Buf) -> Result<u64> {
    let mut shift = 0u32;
    let mut out = 0u64;
    loop {
        if !buf.has_remaining() {
            return Err(RailgunError::Corruption("truncated varint".into()));
        }
        let b = buf.get_u8();
        if shift == 63 && b > 1 {
            return Err(RailgunError::Corruption("varint overflows u64".into()));
        }
        out |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
        if shift > 63 {
            return Err(RailgunError::Corruption("varint too long".into()));
        }
    }
}

/// Zigzag-map a signed integer to unsigned for varint encoding.
#[inline]
pub const fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub const fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append `v` as a zigzag varint.
pub fn put_ivarint(buf: &mut impl BufMut, v: i64) {
    put_uvarint(buf, zigzag(v));
}

/// Decode a zigzag varint.
pub fn get_ivarint(buf: &mut impl Buf) -> Result<i64> {
    Ok(unzigzag(get_uvarint(buf)?))
}

// ---------------------------------------------------------------------------
// Length-prefixed byte strings
// ---------------------------------------------------------------------------

/// Append a varint length prefix followed by the bytes.
pub fn put_bytes(buf: &mut impl BufMut, b: &[u8]) {
    put_uvarint(buf, b.len() as u64);
    buf.put_slice(b);
}

/// Decode a length-prefixed byte string.
pub fn get_bytes(buf: &mut impl Buf) -> Result<Vec<u8>> {
    let len = get_uvarint(buf)? as usize;
    if buf.remaining() < len {
        return Err(RailgunError::Corruption(format!(
            "byte string of {len} exceeds remaining {}",
            buf.remaining()
        )));
    }
    let mut out = vec![0u8; len];
    buf.copy_to_slice(&mut out);
    Ok(out)
}

/// Decode a length-prefixed UTF-8 string.
pub fn get_string(buf: &mut impl Buf) -> Result<String> {
    String::from_utf8(get_bytes(buf)?)
        .map_err(|_| RailgunError::Corruption("invalid utf-8 in string".into()))
}

// ---------------------------------------------------------------------------
// CRC-32C (Castagnoli), software slicing-by-8 implementation
// ---------------------------------------------------------------------------

const CRC32C_POLY: u32 = 0x82F6_3B78;

/// Eight derived lookup tables: `tables()[0]` is the classic byte-at-a-time
/// table; `tables()[k][b]` advances the CRC of byte `b` through `k` further
/// zero bytes, letting the hot loop fold 8 input bytes per iteration
/// (slicing-by-8). This runs on every chunk append and every chunk load.
fn crc_tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ CRC32C_POLY
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        for k in 1..8 {
            for i in 0..256usize {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            }
        }
        t
    })
}

/// CRC-32C of `data` (slicing-by-8; identical values to the byte-at-a-time
/// definition — the wire format is pinned by the known-vector tests).
pub fn crc32c(data: &[u8]) -> u32 {
    let t = crc_tables();
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes(c[0..4].try_into().expect("4 bytes")) ^ crc;
        let hi = u32::from_le_bytes(c[4..8].try_into().expect("4 bytes"));
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Value / Event encoding
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;

/// Append a [`Value`] in tagged binary form.
pub fn put_value(buf: &mut impl BufMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::Bool(false) => buf.put_u8(TAG_BOOL_FALSE),
        Value::Bool(true) => buf.put_u8(TAG_BOOL_TRUE),
        Value::Int(i) => {
            buf.put_u8(TAG_INT);
            put_ivarint(buf, *i);
        }
        Value::Float(f) => {
            buf.put_u8(TAG_FLOAT);
            buf.put_f64_le(*f);
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            put_bytes(buf, s.as_bytes());
        }
    }
}

/// Why walking an [`Event`]'s row cannot fail.
pub(crate) const CHECKED: &str = "the row was checked when the event was built";

/// One [`put_value`] image borrowed from the bytes it was read from. A
/// string's payload is handed out as bytes: whoever builds something from
/// it decides whether UTF-8 still has to be checked ([`check_row`]) or
/// already was (the accessors of a checked [`Event`] row).
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum RawValue<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(&'a [u8]),
}

impl RawValue<'_> {
    /// The string payload as text.
    fn text(bytes: &[u8]) -> Result<&str> {
        std::str::from_utf8(bytes)
            .map_err(|_| RailgunError::Corruption("invalid utf-8 in string".into()))
    }

    /// Store this value, read from a checked row, into `slot`, reusing
    /// the buffer of a string already there.
    pub(crate) fn store_checked(self, slot: &mut Value) {
        match (self, slot) {
            (RawValue::Str(b), Value::Str(s)) => {
                s.clear();
                s.push_str(Self::text(b).expect(CHECKED));
            }
            (raw, slot) => *slot = raw.to_value().expect(CHECKED),
        }
    }

    /// The declared type this value has; `None` for NULL.
    pub(crate) fn field_type(&self) -> Option<FieldType> {
        match self {
            RawValue::Null => None,
            RawValue::Bool(_) => Some(FieldType::Bool),
            RawValue::Int(_) => Some(FieldType::Int),
            RawValue::Float(_) => Some(FieldType::Float),
            RawValue::Str(_) => Some(FieldType::Str),
        }
    }

    /// The owned [`Value`]; fails only on a string that is not UTF-8.
    pub(crate) fn to_value(self) -> Result<Value> {
        Ok(match self {
            RawValue::Null => Value::Null,
            RawValue::Bool(b) => Value::Bool(b),
            RawValue::Int(i) => Value::Int(i),
            RawValue::Float(f) => Value::Float(f),
            RawValue::Str(b) => Value::Str(Self::text(b)?.to_owned()),
        })
    }
}

/// [`get_uvarint`] over a slice, with the one-byte case — every tag-adjacent
/// length and small integer of a row — taken without the `Buf` cursor.
#[inline]
fn slice_uvarint(row: &mut &[u8]) -> Result<u64> {
    match row.split_first() {
        Some((&b, rest)) if b < 0x80 => {
            *row = rest;
            Ok(u64::from(b))
        }
        _ => get_uvarint(row),
    }
}

/// Step over the [`put_value`] image at the front of `row`. This is the
/// one walker of encoded values: decoding a value, checking a row,
/// skipping to a field and type-checking against a schema all go through
/// it, so there is one place that knows the tags and bounds every length.
#[inline]
pub(crate) fn next_value<'a>(row: &mut &'a [u8]) -> Result<RawValue<'a>> {
    let Some((&tag, rest)) = row.split_first() else {
        return Err(RailgunError::Corruption("truncated value".into()));
    };
    *row = rest;
    match tag {
        TAG_NULL => Ok(RawValue::Null),
        TAG_BOOL_FALSE => Ok(RawValue::Bool(false)),
        TAG_BOOL_TRUE => Ok(RawValue::Bool(true)),
        TAG_INT => Ok(RawValue::Int(unzigzag(slice_uvarint(row)?))),
        TAG_FLOAT => {
            let Some((bits, rest)) = row.split_first_chunk::<8>() else {
                return Err(RailgunError::Corruption("truncated float".into()));
            };
            *row = rest;
            Ok(RawValue::Float(f64::from_le_bytes(*bits)))
        }
        TAG_STR => {
            let len = slice_uvarint(row)?;
            if len > row.len() as u64 {
                return Err(RailgunError::Corruption(format!(
                    "string of {len} exceeds remaining {}",
                    row.len()
                )));
            }
            let (text, rest) = row.split_at(len as usize);
            *row = rest;
            Ok(RawValue::Str(text))
        }
        t => Err(RailgunError::Corruption(format!("unknown value tag {t}"))),
    }
}

/// Check that `buf` starts with `arity` well-formed value images — every
/// tag known, every varint terminated and in range, every float and string
/// inside the buffer, every string UTF-8 — and return how many bytes they
/// span. An `arity` the buffer cannot hold fails at the first missing
/// value; nothing is allocated for it.
pub(crate) fn check_row(buf: &[u8], arity: u64) -> Result<usize> {
    let mut rest = buf;
    for _ in 0..arity {
        if let RawValue::Str(text) = next_value(&mut rest)? {
            RawValue::text(text)?;
        }
    }
    Ok(buf.len() - rest.len())
}

/// Decode a [`Value`] written by [`put_value`]. (Every `Buf` of the
/// vendored `bytes` shim is contiguous, so the value lies in `chunk()`.)
pub fn get_value(buf: &mut impl Buf) -> Result<Value> {
    let mut rest = buf.chunk();
    let before = rest.len();
    let value = next_value(&mut rest)?.to_value()?;
    let used = before - rest.len();
    buf.advance(used);
    Ok(value)
}

/// Append the row of `values`: their [`put_value`] images back to back.
pub(crate) fn put_row(buf: &mut impl BufMut, values: &[Value]) {
    for v in values {
        put_value(buf, v);
    }
}

fn put_event_header(buf: &mut impl BufMut, id: EventId, ts: Timestamp, arity: usize) {
    put_uvarint(buf, id.0);
    put_ivarint(buf, ts.as_millis());
    put_uvarint(buf, arity as u64);
}

/// Append an [`Event`] (id, timestamp, field count, row) in binary form.
pub fn put_event(buf: &mut impl BufMut, e: &Event) {
    put_event_header(buf, e.id, e.ts, e.arity());
    buf.put_slice(e.row());
}

/// Exactly what [`put_event`] appends for `Event::new(id, ts, values)`,
/// written straight from the values (the front-end's path: no `Event`).
pub fn put_event_values(buf: &mut impl BufMut, id: EventId, ts: Timestamp, values: &[Value]) {
    put_event_header(buf, id, ts, values.len());
    put_row(buf, values);
}

/// Decode an [`Event`] written by [`put_event`]. The row is checked here
/// ([`Event::read_row`]) and not copied when `buf` is a `Bytes`.
pub fn get_event(buf: &mut impl Buf) -> Result<Event> {
    let id = EventId(get_uvarint(buf)?);
    let ts = Timestamp::from_millis(get_ivarint(buf)?);
    let arity = get_uvarint(buf)?;
    Event::read_row(id, ts, arity, buf)
}

// ---------------------------------------------------------------------------
// Batch frames
// ---------------------------------------------------------------------------

/// Accumulates records encoded **once** into one contiguous buffer, then
/// freezes into a [`BatchFrame`] whose per-record views are zero-copy
/// slices of a single shared allocation.
///
/// This is the serialization half of the batched ingest path: the
/// front-end encodes every event request of a pump tick through one
/// builder, and each downstream hop (bus record, consumer poll, unit
/// decode) moves `Bytes` slices of the frame instead of re-encoding or
/// copying payload bytes.
#[derive(Debug, Default)]
pub struct BatchFrameBuilder {
    buf: Vec<u8>,
    /// Start offset of each record pushed so far.
    starts: Vec<usize>,
}

impl BatchFrameBuilder {
    /// A fresh, empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder pre-sized for `records` records totalling ~`bytes` bytes.
    pub fn with_capacity(records: usize, bytes: usize) -> Self {
        BatchFrameBuilder {
            buf: Vec::with_capacity(bytes),
            starts: Vec::with_capacity(records),
        }
    }

    /// Append one record by encoding it directly into the shared buffer.
    ///
    /// The closure writes the record's bytes; whatever it appends becomes
    /// the record. (An empty record is legal.)
    pub fn push_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        self.starts.push(self.buf.len());
        encode(&mut self.buf);
    }

    /// [`BatchFrameBuilder::push_with`] for an encoder that can fail
    /// part-way: on error the buffer is cut back to where the record
    /// started and no record is added, so the frame is exactly as it was.
    pub fn try_push_with<E>(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let start = self.buf.len();
        match encode(&mut self.buf) {
            Ok(()) => {
                self.starts.push(start);
                Ok(())
            }
            Err(e) => {
                self.buf.truncate(start);
                Err(e)
            }
        }
    }

    /// Number of records pushed so far.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// True iff no record has been pushed.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Total encoded bytes so far.
    pub fn bytes(&self) -> usize {
        self.buf.len()
    }

    /// Freeze into a [`BatchFrame`]: the records are copied once into one
    /// shared allocation of exactly their size. The builder is left empty
    /// and keeps its buffer, so a builder reused frame after frame stops
    /// growing it (a frame costs the same allocations whatever its
    /// records' size).
    pub fn finish(&mut self) -> BatchFrame {
        let mut bounds = std::mem::take(&mut self.starts);
        bounds.push(self.buf.len());
        let data = Bytes::copy_from_slice(&self.buf);
        self.buf.clear();
        BatchFrame { data, bounds }
    }
}

/// A frozen batch of records backed by **one** shared buffer plus an
/// offset table. [`BatchFrame::slice`] hands out each record as a
/// zero-copy [`Bytes`] view (an `Arc` bump, no byte copying), so a record
/// serialized once at the front-end travels the whole ingest path —
/// possibly fanned out to several topics — without being re-encoded.
#[derive(Debug, Clone)]
pub struct BatchFrame {
    data: Bytes,
    /// `len() + 1` offsets: record `i` spans `bounds[i]..bounds[i + 1]`.
    bounds: Vec<usize>,
}

impl BatchFrame {
    /// Number of records in the frame.
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// True iff the frame holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record `i` as a zero-copy slice of the shared buffer.
    ///
    /// # Panics
    /// If `i >= len()`.
    pub fn slice(&self, i: usize) -> Bytes {
        self.data.slice(self.bounds[i]..self.bounds[i + 1])
    }

    /// Iterate the records as zero-copy slices.
    pub fn iter(&self) -> impl Iterator<Item = Bytes> + '_ {
        (0..self.len()).map(|i| self.slice(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX / 2, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut slice = &buf[..];
            assert_eq!(get_uvarint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn ivarint_roundtrip_boundaries() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456789] {
            let mut buf = Vec::new();
            put_ivarint(&mut buf, v);
            assert_eq!(get_ivarint(&mut &buf[..]).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_small_negatives_stay_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(unzigzag(zigzag(i64::MIN)), i64::MIN);
    }

    #[test]
    fn truncated_varint_is_error() {
        let buf = [0x80u8, 0x80];
        assert!(get_uvarint(&mut &buf[..]).is_err());
    }

    #[test]
    fn overlong_varint_is_error() {
        let buf = [0xffu8; 11];
        assert!(get_uvarint(&mut &buf[..]).is_err());
    }

    #[test]
    fn bytes_roundtrip_and_truncation() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"hello");
        assert_eq!(get_bytes(&mut &buf[..]).unwrap(), b"hello");
        // claim 5 bytes but provide 2
        let bad = [5u8, b'h', b'i'];
        assert!(get_bytes(&mut &bad[..]).is_err());
    }

    #[test]
    fn crc32c_known_vector() {
        // RFC 3720 test vector: 32 bytes of zero.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        // "123456789"
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        // RFC 3720: 32 bytes of 0xFF.
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        // RFC 3720: bytes 0x00..0x1F ascending.
        let asc: Vec<u8> = (0u8..0x20).collect();
        assert_eq!(crc32c(&asc), 0x46DD_794E);
    }

    #[test]
    fn crc32c_matches_bitwise_reference_at_all_alignments() {
        // Slicing-by-8 must agree with the bit-by-bit definition for every
        // length mod 8 (covers the chunked loop + remainder tail).
        fn reference(data: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in data {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ 0x82F6_3B78
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        }
        let mut x = 0x9E3779B9u32;
        let data: Vec<u8> = (0..257)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        for len in 0..data.len() {
            assert_eq!(crc32c(&data[..len]), reference(&data[..len]), "len={len}");
        }
    }

    #[test]
    fn value_roundtrip_all_variants() {
        let vals = vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Str("αβγ".into()),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            put_value(&mut buf, v);
        }
        let mut slice = &buf[..];
        for v in &vals {
            let got = get_value(&mut slice).unwrap();
            match (v, &got) {
                (Value::Float(a), Value::Float(b)) if a.is_nan() => assert!(b.is_nan()),
                _ => assert_eq!(v, &got),
            }
        }
    }

    #[test]
    fn event_roundtrip() {
        let e = Event::new(
            EventId(99),
            Timestamp::from_millis(-5),
            vec![Value::Str("card".into()), Value::Float(1.25), Value::Null],
        );
        let mut buf = Vec::new();
        put_event(&mut buf, &e);
        let got = get_event(&mut &buf[..]).unwrap();
        assert_eq!(e, got);
    }

    #[test]
    fn unknown_tag_is_corruption() {
        let buf = [99u8];
        assert!(get_value(&mut &buf[..]).is_err());
    }

    #[test]
    fn batch_frame_roundtrips_records_zero_copy() {
        let mut b = BatchFrameBuilder::with_capacity(3, 64);
        let events: Vec<Event> = (0..3)
            .map(|i| {
                Event::new(
                    EventId(i),
                    Timestamp::from_millis(i as i64 * 10),
                    vec![Value::Int(i as i64), Value::Str(format!("e{i}"))],
                )
            })
            .collect();
        for e in &events {
            b.push_with(|buf| put_event(buf, e));
        }
        assert_eq!(b.len(), 3);
        assert!(b.bytes() > 0);
        let frame = b.finish();
        assert_eq!(frame.len(), 3);
        assert!(!frame.is_empty());
        for (i, e) in events.iter().enumerate() {
            let s = frame.slice(i);
            assert_eq!(&get_event(&mut &s[..]).unwrap(), e);
        }
        // iter() agrees with slice().
        let via_iter: Vec<Vec<u8>> = frame.iter().map(|s| s.to_vec()).collect();
        for (i, v) in via_iter.iter().enumerate() {
            assert_eq!(v.as_slice(), frame.slice(i).as_ref());
        }
        // The builder is drained and reusable.
        assert!(b.is_empty());
        b.push_with(|buf| buf.put_u8(9));
        assert_eq!(b.finish().slice(0).as_ref(), &[9]);
    }

    #[test]
    fn batch_frame_empty_and_empty_records() {
        let mut b = BatchFrameBuilder::new();
        let empty = b.finish();
        assert_eq!(empty.len(), 0);
        assert!(empty.is_empty());

        b.push_with(|_| {}); // zero-length record
        b.push_with(|buf| buf.put_slice(b"xy"));
        b.push_with(|_| {});
        let f = b.finish();
        assert_eq!(f.len(), 3);
        assert!(f.slice(0).is_empty());
        assert_eq!(f.slice(1).as_ref(), b"xy");
        assert!(f.slice(2).is_empty());
    }

    #[test]
    fn a_failed_push_leaves_the_frame_as_it_was() {
        let mut b = BatchFrameBuilder::new();
        b.push_with(|buf| buf.put_slice(b"ab"));
        let failed = b.try_push_with(|buf| {
            buf.put_slice(b"half a record");
            Err("encoder failed")
        });
        assert_eq!(failed, Err("encoder failed"));
        assert_eq!((b.len(), b.bytes()), (1, 2));
        let pushed = b.try_push_with(|buf| {
            buf.put_u8(7);
            Ok::<_, ()>(())
        });
        assert_eq!(pushed, Ok(()));
        let f = b.finish();
        assert_eq!(f.len(), 2);
        assert_eq!(f.slice(0).as_ref(), b"ab");
        assert_eq!(f.slice(1).as_ref(), &[7]);
    }
}
