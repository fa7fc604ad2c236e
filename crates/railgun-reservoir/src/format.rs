//! On-disk chunk format (version 2).
//!
//! A chunk is the reservoir's unit of I/O and caching (§4.1.1): a group of
//! contiguous events, serialized, compressed and framed with a CRC. The
//! frame layout is:
//!
//! ```text
//! [u32 LE frame length excluding this field]
//! [u32 LE crc32c of everything after the crc field]
//! header:
//!   u8 version (0x82 = v2) | u8 flags
//!   varint chunk id | varint schema id | u8 codec id
//!   varint event count | ivarint first_ts | ivarint last_ts
//!   [varint arity — only when flags has UNIFORM_ARITY]
//!   varint uncompressed body length
//! body (compressed):
//!   per event: ivarint id delta
//!              | ts delta (uvarint when SORTED_TS, ivarint otherwise)
//!              | [varint arity — only when NOT UNIFORM_ARITY] | row
//! ```
//!
//! The value bytes of the body *are* the events' rows
//! ([`railgun_types::event`]): encoding a chunk copies each row in behind
//! its deltas, and decoding decompresses the body into **one** buffer and
//! indexes it where it lies: each row is checked in place and gets a
//! 32-byte index entry, and the chunk is that body plus the index (a
//! [`RowBlock`]), handing out events that are slices of the body. The
//! encoder builds the same block from the body it writes, so a chunk the
//! I/O thread has just written is held in memory exactly as one read back
//! from disk. Loading or dropping a chunk is a fixed number of allocations
//! whatever its event count or arity.
//!
//! Two header flags amortize per-event cost for the overwhelmingly common
//! shapes (§5.2(b)): `SORTED_TS` marks a chunk whose timestamps are
//! non-decreasing, so deltas skip the zigzag mapping and halve in size;
//! `UNIFORM_ARITY` hoists the per-event value count into the header (every
//! event of one schema has the same arity in practice). Timestamps are
//! delta-encoded against the previous event either way, and the whole body
//! then runs through the chunk codec — the two layers the paper calls "a
//! data format and compression for efficient storage".
//!
//! Every size a frame states about itself is held against what the frame
//! can hold before anything is allocated for it: a frame whose CRC is
//! right and whose counts are absurd is `Corruption`, not an abort.
//!
//! ## Versioning
//!
//! The version byte has the high bit set (`0x80 | 2`), which no v1 frame
//! payload started with unless its chunk id was ≥ 128: v1 had no version
//! byte, so the payload began with the chunk-id varint, whose first byte is
//! below `0x80` for small ids. A frame of any other version — a v1 frame
//! included — fails with one "unsupported chunk format version"
//! [`RailgunError::Corruption`] (see DESIGN.md § "Chunk format v2") instead
//! of being misread; such a reservoir is re-ingested from the messaging
//! layer.

use bytes::{Buf, BufMut, Bytes};
use railgun_types::encode::{crc32c, get_ivarint, get_uvarint, put_ivarint, put_uvarint};
use railgun_types::{
    Event, EventId, RailgunError, Result, RowBlock, RowBlockReader, RowBlockWriter, SchemaId,
    Timestamp,
};

use crate::compress::Codec;

/// Sequential identifier of a chunk within one reservoir.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId(pub u64);

/// A written chunk in memory (cache entry): its frame's uncompressed body
/// and the index of the rows in it, however the chunk got there — written
/// by [`encode_chunk`] or read back by [`decode_chunk`].
#[derive(Debug)]
pub struct DecodedChunk {
    pub id: ChunkId,
    pub schema: SchemaId,
    pub first_ts: Timestamp,
    pub last_ts: Timestamp,
    /// The events, in timestamp order.
    pub rows: RowBlock,
}

impl DecodedChunk {
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    pub(crate) fn events(&self) -> Vec<Event> {
        (0..self.len()).map(|i| self.rows.event(i)).collect()
    }

    /// Heap footprint (memory accounting for the §5.2 claim): the body and
    /// the index.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.rows.heap_bytes()
    }
}

/// Version byte of the current chunk format: high bit (so no v1 frame
/// with a small chunk id reads as current) plus the version number.
pub const CHUNK_FORMAT_VERSION: u8 = 0x80 | 2;

/// Chunk timestamps are non-decreasing; ts deltas are plain uvarints.
const FLAG_SORTED_TS: u8 = 0b01;
/// Every event has the same value count, hoisted into the header.
const FLAG_UNIFORM_ARITY: u8 = 0b10;
const FLAG_MASK: u8 = FLAG_SORTED_TS | FLAG_UNIFORM_ARITY;

/// Largest uncompressed body a frame may claim. A RailZ match can expand
/// without bound, so the compressed length alone does not limit it; this
/// writer closes a chunk at `chunk_target_bytes` (64 KiB by default) plus
/// one event, five orders of magnitude below.
const MAX_BODY_BYTES: u64 = 1 << 30;

/// Serialize a chunk into `out`, returning the chunk it wrote, the body
/// indexed: what [`decode_chunk`] of the frame holds.
pub fn encode_chunk(
    out: &mut Vec<u8>,
    id: ChunkId,
    schema: SchemaId,
    codec: Codec,
    events: &[Event],
) -> DecodedChunk {
    debug_assert!(!events.is_empty(), "chunks are never empty");
    let first_ts = events.first().expect("non-empty").ts;
    let last_ts = events.last().expect("non-empty").ts;
    let sorted = events.windows(2).all(|w| w[0].ts <= w[1].ts);
    let arity = events.first().expect("non-empty").arity();
    let uniform = events.iter().all(|e| e.arity() == arity);
    let mut flags = 0u8;
    if sorted {
        flags |= FLAG_SORTED_TS;
    }
    if uniform {
        flags |= FLAG_UNIFORM_ARITY;
    }

    // Body: delta-encoded events, each row copied in as it is.
    let rows: usize = events.iter().map(|e| e.row().len()).sum();
    let mut body = RowBlockWriter::with_capacity(events.len(), rows + events.len() * 8);
    let mut prev_ts = first_ts.as_millis();
    let mut prev_id = 0u64;
    for e in events {
        put_ivarint(&mut body, e.id.0 as i64 - prev_id as i64);
        prev_id = e.id.0;
        let dt = e.ts.as_millis() - prev_ts;
        if sorted {
            put_uvarint(&mut body, dt as u64);
        } else {
            put_ivarint(&mut body, dt);
        }
        prev_ts = e.ts.as_millis();
        if !uniform {
            put_uvarint(&mut body, e.arity() as u64);
        }
        body.copy_row(e);
    }
    let compressed = codec.compress(body.body());

    // Frame directly into `out`: length and CRC are patched afterwards so
    // the payload is written exactly once (no intermediate copy).
    let start = out.len();
    out.put_u32_le(0); // frame length placeholder
    out.put_u32_le(0); // crc placeholder
    out.put_u8(CHUNK_FORMAT_VERSION);
    out.put_u8(flags);
    put_uvarint(out, id.0);
    put_uvarint(out, u64::from(schema.0));
    out.put_u8(codec.id());
    put_uvarint(out, events.len() as u64);
    put_ivarint(out, first_ts.as_millis());
    put_ivarint(out, last_ts.as_millis());
    if uniform {
        put_uvarint(out, arity as u64);
    }
    put_uvarint(out, body.body().len() as u64);
    out.put_slice(&compressed);

    let payload_len = out.len() - start - 8;
    let crc = crc32c(&out[start + 8..]);
    out[start..start + 4].copy_from_slice(&(payload_len as u32 + 4).to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    DecodedChunk {
        id,
        schema,
        first_ts,
        last_ts,
        rows: body.finish(),
    }
}

/// Result of decoding a frame: the chunk plus the total frame size consumed.
#[derive(Debug)]
pub struct DecodedFrame {
    pub chunk: DecodedChunk,
    pub frame_len: usize,
}

/// Decode one chunk frame from the front of `data`.
///
/// Returns `Ok(None)` on a cleanly truncated tail (fewer bytes than one
/// frame header) so recovery scans can stop; corrupt frames are errors.
pub fn decode_chunk(data: &[u8]) -> Result<Option<DecodedFrame>> {
    if data.len() < 8 {
        return Ok(None);
    }
    let mut cur = data;
    let frame_len = cur.get_u32_le() as usize;
    if frame_len < 4 || cur.len() < frame_len {
        return Ok(None); // torn tail
    }
    let stored_crc = cur.get_u32_le();
    let payload = &cur[..frame_len - 4];
    if crc32c(payload) != stored_crc {
        return Err(RailgunError::Corruption("chunk crc mismatch".into()));
    }
    let mut p = payload;
    if p.len() < 2 {
        return Err(RailgunError::Corruption("chunk header truncated".into()));
    }
    let version = p.get_u8();
    if version != CHUNK_FORMAT_VERSION {
        return Err(RailgunError::Corruption(format!(
            "unsupported chunk format version {:#04x} (this build reads {:#04x})",
            version, CHUNK_FORMAT_VERSION
        )));
    }
    let flags = p.get_u8();
    if flags & !FLAG_MASK != 0 {
        return Err(RailgunError::Corruption(format!(
            "unknown chunk flags {flags:#04x}"
        )));
    }
    let sorted = flags & FLAG_SORTED_TS != 0;
    let uniform = flags & FLAG_UNIFORM_ARITY != 0;
    let id = ChunkId(get_uvarint(&mut p)?);
    let schema = SchemaId(get_uvarint(&mut p)? as u32);
    if !p.has_remaining() {
        return Err(RailgunError::Corruption("chunk header truncated".into()));
    }
    let codec = Codec::from_id(p.get_u8())?;
    let count = get_uvarint(&mut p)?;
    let first_ts = Timestamp::from_millis(get_ivarint(&mut p)?);
    let last_ts = Timestamp::from_millis(get_ivarint(&mut p)?);
    let arity = if uniform {
        Some(get_uvarint(&mut p)?)
    } else {
        None
    };
    let body_len = get_uvarint(&mut p)?;
    // In the body an event is at least its two deltas and one byte per
    // field.
    let least = count.saturating_mul(arity.unwrap_or(0).saturating_add(2));
    if body_len > MAX_BODY_BYTES || least > body_len {
        return Err(RailgunError::Corruption(format!(
            "implausible chunk: {count} events of arity {arity:?} in a body of {body_len}"
        )));
    }
    let body = Bytes::from(codec.decompress(p, body_len as usize)?);

    let mut body = RowBlockReader::new(body, count as usize);
    let mut prev_ts = first_ts.as_millis();
    let mut prev_id = 0u64;
    for _ in 0..count {
        prev_id = prev_id.wrapping_add_signed(get_ivarint(&mut body)?);
        let ts_delta = if sorted {
            get_uvarint(&mut body)? as i64
        } else {
            get_ivarint(&mut body)?
        };
        prev_ts = prev_ts.wrapping_add(ts_delta);
        let nvals = match arity {
            Some(a) => a,
            None => get_uvarint(&mut body)?,
        };
        body.read_row(EventId(prev_id), Timestamp::from_millis(prev_ts), nvals)?;
    }
    if body.has_remaining() {
        return Err(RailgunError::Corruption("chunk body has trailing bytes".into()));
    }
    Ok(Some(DecodedFrame {
        chunk: DecodedChunk {
            id,
            schema,
            first_ts,
            last_ts,
            rows: body.finish(),
        },
        frame_len: frame_len + 4,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use railgun_types::encode::put_value;
    use railgun_types::Value;

    fn make_events(n: u64) -> Vec<Event> {
        (0..n)
            .map(|i| {
                Event::new(
                    EventId(1000 + i),
                    Timestamp::from_millis(50_000 + i as i64 * 13),
                    vec![
                        Value::Str(format!("card-{}", i % 7)),
                        Value::Float(9.99 + i as f64),
                        Value::Int(i as i64),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn roundtrip_both_codecs() {
        for codec in [Codec::None, Codec::RailZ] {
            let events = make_events(100);
            let mut buf = Vec::new();
            encode_chunk(&mut buf, ChunkId(5), SchemaId(2), codec, &events);
            let frame = decode_chunk(&buf).unwrap().expect("full frame");
            assert_eq!(frame.frame_len, buf.len());
            assert_eq!(frame.chunk.id, ChunkId(5));
            assert_eq!(frame.chunk.schema, SchemaId(2));
            assert_eq!(frame.chunk.events(), events);
            assert_eq!(frame.chunk.first_ts, events[0].ts);
            assert_eq!(frame.chunk.last_ts, events[99].ts);
        }
    }

    #[test]
    fn compression_shrinks_redundant_events() {
        let events = make_events(500);
        let mut plain = Vec::new();
        encode_chunk(&mut plain, ChunkId(0), SchemaId(0), Codec::None, &events);
        let mut packed = Vec::new();
        encode_chunk(&mut packed, ChunkId(0), SchemaId(0), Codec::RailZ, &events);
        assert!(
            packed.len() < plain.len(),
            "railz ({}) should beat none ({})",
            packed.len(),
            plain.len()
        );
    }

    #[test]
    fn torn_tail_returns_none() {
        let events = make_events(10);
        let mut buf = Vec::new();
        encode_chunk(&mut buf, ChunkId(1), SchemaId(0), Codec::RailZ, &events);
        for cut in [0, 3, 7, buf.len() - 1] {
            assert!(decode_chunk(&buf[..cut]).unwrap().is_none(), "cut={cut}");
        }
    }

    #[test]
    fn bit_flip_is_corruption() {
        let events = make_events(10);
        let mut buf = Vec::new();
        encode_chunk(&mut buf, ChunkId(1), SchemaId(0), Codec::RailZ, &events);
        let mut bad = buf.clone();
        bad[20] ^= 0x01;
        assert!(decode_chunk(&bad).is_err());
    }

    #[test]
    fn multiple_frames_decode_sequentially() {
        let mut buf = Vec::new();
        encode_chunk(&mut buf, ChunkId(1), SchemaId(0), Codec::RailZ, &make_events(5));
        let first_len = buf.len();
        encode_chunk(&mut buf, ChunkId(2), SchemaId(0), Codec::RailZ, &make_events(7));
        let f1 = decode_chunk(&buf).unwrap().unwrap();
        assert_eq!(f1.frame_len, first_len);
        assert_eq!(f1.chunk.id, ChunkId(1));
        let f2 = decode_chunk(&buf[f1.frame_len..]).unwrap().unwrap();
        assert_eq!(f2.chunk.id, ChunkId(2));
        assert_eq!(f2.chunk.len(), 7);
    }

    #[test]
    fn header_is_versioned() {
        let mut buf = Vec::new();
        encode_chunk(&mut buf, ChunkId(3), SchemaId(0), Codec::None, &make_events(2));
        assert_eq!(buf[8], CHUNK_FORMAT_VERSION, "version byte leads the payload");
        assert_eq!(CHUNK_FORMAT_VERSION, 0x82, "wire constant is pinned");
    }

    /// Frames `payload` with a valid CRC, so decode reaches the version
    /// check, and asserts it is the one unsupported-version corruption.
    fn expect_unsupported_version(payload: &[u8]) {
        let mut frame = Vec::new();
        frame.put_u32_le(payload.len() as u32 + 4);
        frame.put_u32_le(crc32c(payload));
        frame.put_slice(payload);
        let msg = format!("{}", decode_chunk(&frame).unwrap_err());
        assert!(msg.contains("unsupported chunk format version"), "got: {msg}");
    }

    #[test]
    fn legacy_v1_frame_is_clear_corruption() {
        // A v1-style frame: the payload starts with the chunk-id varint
        // (no version byte).
        let mut v1 = Vec::new();
        put_uvarint(&mut v1, 7u64); // v1 chunk id
        put_uvarint(&mut v1, 0u64); // v1 schema id
        v1.push(0u8); // codec None
        put_uvarint(&mut v1, 0u64); // count
        expect_unsupported_version(&v1);
    }

    #[test]
    fn unknown_future_version_is_corruption() {
        // A current frame claiming a future version.
        let mut v9 = Vec::new();
        encode_chunk(&mut v9, ChunkId(1), SchemaId(0), Codec::None, &make_events(2));
        v9.drain(..8);
        v9[0] = 0x80 | 9;
        expect_unsupported_version(&v9);
    }

    #[test]
    fn mixed_arity_events_roundtrip() {
        let events = vec![
            Event::new(EventId(1), Timestamp::from_millis(10), vec![Value::Int(1)]),
            Event::new(
                EventId(2),
                Timestamp::from_millis(20),
                vec![Value::Int(2), Value::Str("x".into())],
            ),
            Event::new(EventId(3), Timestamp::from_millis(30), vec![]),
        ];
        for codec in [Codec::None, Codec::RailZ] {
            let mut buf = Vec::new();
            encode_chunk(&mut buf, ChunkId(0), SchemaId(0), codec, &events);
            let frame = decode_chunk(&buf).unwrap().unwrap();
            assert_eq!(frame.chunk.events(), events);
        }
    }

    #[test]
    fn sorted_chunks_encode_smaller_than_v1_style_per_event_headers() {
        // The hoisted arity + uvarint deltas must beat per-event overhead:
        // uncompressed, a sorted uniform chunk saves ≥1 byte/event (arity).
        let events = make_events(500);
        let mut v2 = Vec::new();
        encode_chunk(&mut v2, ChunkId(0), SchemaId(0), Codec::None, &events);
        let mut per_event = 0usize;
        for e in &events {
            let mut one = Vec::new();
            railgun_types::encode::put_event(&mut one, e);
            per_event += one.len();
        }
        assert!(
            v2.len() + 500 <= per_event + 64,
            "v2 frame {} should undercut per-event encoding {}",
            v2.len(),
            per_event
        );
    }

    #[test]
    fn out_of_order_timestamps_survive_roundtrip() {
        // Transition chunks may hold late events; deltas can be negative.
        let events = vec![
            Event::new(EventId(1), Timestamp::from_millis(100), vec![]),
            Event::new(EventId(2), Timestamp::from_millis(90), vec![]),
            Event::new(EventId(3), Timestamp::from_millis(110), vec![]),
        ];
        let mut buf = Vec::new();
        encode_chunk(&mut buf, ChunkId(0), SchemaId(0), Codec::RailZ, &events);
        let frame = decode_chunk(&buf).unwrap().unwrap();
        assert_eq!(frame.chunk.events(), events);
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Three events covering every value tag, a NULL, an empty and a
    /// non-ASCII string, a gap in the ids and a timestamp out of order.
    fn pinned_events() -> Vec<Event> {
        let card = || Value::Str("card-00000007".into());
        let e = |id, ts, values| Event::new(EventId(id), Timestamp::from_millis(ts), values);
        vec![
            e(1000, 50_000, vec![card(), 9.75.into(), Value::Null, (-3).into(), true.into()]),
            e(1001, 49_990, vec![card(), (-0.5).into(), "αβγ".into(), (1i64 << 40).into(), false.into()]),
            e(1003, 50_013, vec![card(), Value::Null, "".into(), 0.into(), Value::Null]),
        ]
    }

    /// Frames of [`pinned_events`] as the encoder wrote them before events
    /// were rows (chunk 5, schema 2), RailZ and stored.
    const PARENT_RAILZ_FRAME: &str = "5b00000085d405fc820205020103a08d06ba8d060560000bd00f00050d636172642d300106010003370400010401000980234000030502021301151e000d00e0bf0506ceb1ceb2ceb3038001040100044001042e010f2a0006000500030000";
    const PARENT_STORED_FRAME: &str = "7200000093313ca1820205020003a08d06ba8d060560d00f00050d636172642d3030303030303037040000000000802340000305020213050d636172642d303030303030303704000000000000e0bf0506ceb1ceb2ceb30380808080804001042e050d636172642d3030303030303037000500030000";

    #[test]
    fn frames_written_before_rows_decode_and_reencode_byte_for_byte() {
        for hex in [PARENT_RAILZ_FRAME, PARENT_STORED_FRAME] {
            let raw = unhex(hex);
            let frame = decode_chunk(&raw).unwrap().expect("a whole frame");
            assert_eq!(frame.frame_len, raw.len());
            assert_eq!(frame.chunk.id, ChunkId(5));
            assert_eq!(frame.chunk.schema, SchemaId(2));
            assert_eq!(frame.chunk.events(), pinned_events());
            assert_eq!(frame.chunk.first_ts, Timestamp::from_millis(50_000));
            assert_eq!(frame.chunk.last_ts, Timestamp::from_millis(50_013));
            // Stored, the frame is header + body: the same body, byte for
            // byte, whether it is built from decoded events or fresh ones.
            let mut again = Vec::new();
            encode_chunk(&mut again, ChunkId(5), SchemaId(2), Codec::None, &frame.chunk.events());
            assert_eq!(again, unhex(PARENT_STORED_FRAME));
        }
    }

    /// Assemble a frame from parts a test chooses freely, sealed with a
    /// correct length and CRC.
    fn sealed(flags: u8, codec: Codec, count: u64, arity: Option<u64>, body_len: u64, payload: &[u8]) -> Vec<u8> {
        let mut p = vec![CHUNK_FORMAT_VERSION, flags];
        put_uvarint(&mut p, 1); // chunk id
        put_uvarint(&mut p, 0); // schema id
        p.push(codec.id());
        put_uvarint(&mut p, count);
        put_ivarint(&mut p, 100);
        put_ivarint(&mut p, 200);
        if let Some(a) = arity {
            put_uvarint(&mut p, a);
        }
        put_uvarint(&mut p, body_len);
        p.extend_from_slice(payload);
        seal(&p)
    }

    /// A frame around `payload`, with a correct length and CRC.
    fn seal(payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.put_u32_le(payload.len() as u32 + 4);
        frame.put_u32_le(crc32c(payload));
        frame.put_slice(payload);
        frame
    }

    /// The frame the encoder of the commit before row blocks wrote for
    /// `events` (chunk 7, schema 0).
    fn reference_frame(codec: Codec, events: &[Event]) -> Vec<u8> {
        let (mut p, body) = reference_parts(codec, events);
        put_uvarint(&mut p, body.len() as u64);
        p.extend_from_slice(&codec.compress(&body));
        seal(&p)
    }

    /// [`reference_frame`]'s payload up to the body length, and its
    /// uncompressed body.
    fn reference_parts(codec: Codec, events: &[Event]) -> (Vec<u8>, Vec<u8>) {
        let sorted = events.windows(2).all(|w| w[0].ts <= w[1].ts);
        let arity = events[0].arity();
        let uniform = events.iter().all(|e| e.arity() == arity);
        let mut body = Vec::new();
        let (mut prev_id, mut prev_ts) = (0u64, events[0].ts.as_millis());
        for e in events {
            put_ivarint(&mut body, e.id.0 as i64 - prev_id as i64);
            let dt = e.ts.as_millis() - prev_ts;
            if sorted {
                put_uvarint(&mut body, dt as u64);
            } else {
                put_ivarint(&mut body, dt);
            }
            if !uniform {
                put_uvarint(&mut body, e.arity() as u64);
            }
            body.put_slice(e.row());
            (prev_id, prev_ts) = (e.id.0, e.ts.as_millis());
        }
        let flags = (u8::from(sorted) * FLAG_SORTED_TS) | (u8::from(uniform) * FLAG_UNIFORM_ARITY);
        let mut p = vec![CHUNK_FORMAT_VERSION, flags];
        put_uvarint(&mut p, 7);
        put_uvarint(&mut p, 0);
        p.push(codec.id());
        put_uvarint(&mut p, events.len() as u64);
        put_ivarint(&mut p, events[0].ts.as_millis());
        put_ivarint(&mut p, events[events.len() - 1].ts.as_millis());
        if uniform {
            put_uvarint(&mut p, arity as u64);
        }
        (p, body)
    }

    /// Every value tag, empty strings included; no NaN (it is not equal
    /// to itself).
    fn value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
            "[a-zα-ω0-9-]{0,12}".prop_map(Value::Str),
        ]
    }

    /// Chunks of events of mixed arity (none, a few, or 103 fields), with
    /// id gaps, timestamp ties and late arrivals.
    fn random_events() -> impl Strategy<Value = Vec<Event>> {
        let arity = prop_oneof![Just(0usize), 1usize..6, Just(103usize)];
        let one = (0u64..1000, -3i64..4, proptest::collection::vec(value(), 103), arity);
        proptest::collection::vec(one, 1..40).prop_map(|raw| {
            let (mut id, mut ts) = (0u64, 1_000i64);
            raw.into_iter()
                .map(|(gap, step, values, arity)| {
                    (id, ts) = (id + gap, ts + step);
                    Event::new(EventId(id), Timestamp::from_millis(ts), values[..arity].to_vec())
                })
                .collect()
        })
    }

    fn assert_holds(got: impl Iterator<Item = Event>, want: &[Event]) {
        let got: Vec<Event> = got.collect();
        assert_eq!(got, want);
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.row(), w.row(), "byte-identical rows");
        }
    }

    /// A two-event body (id delta, sorted ts delta, row of two values).
    fn small_body() -> Vec<u8> {
        let mut body = Vec::new();
        for (card, n) in [("card-1", 7i64), ("card-2", 8)] {
            body.extend_from_slice(&[2, 5]);
            put_value(&mut body, &Value::Str(card.into()));
            put_value(&mut body, &Value::Int(n));
        }
        body
    }

    fn expect_corruption(frame: &[u8], what: &str) {
        match decode_chunk(frame) {
            Err(RailgunError::Corruption(_)) => {}
            other => panic!("{what}: expected Corruption, got {other:?}"),
        }
    }

    const SORTED_UNIFORM: u8 = FLAG_SORTED_TS | FLAG_UNIFORM_ARITY;

    #[test]
    fn sizes_a_frame_states_are_held_against_what_it_holds() {
        let body = small_body();
        let len = body.len() as u64;
        let railz = Codec::RailZ.compress(&body);
        // The body as written decodes.
        for (codec, payload) in [(Codec::None, &body), (Codec::RailZ, &railz)] {
            let ok = decode_chunk(&sealed(SORTED_UNIFORM, codec, 2, Some(2), len, payload));
            assert_eq!(ok.unwrap().unwrap().chunk.len(), 2);
            expect_corruption(
                &sealed(SORTED_UNIFORM, codec, 1 << 40, Some(2), len, payload),
                "absurd count",
            );
            expect_corruption(
                &sealed(SORTED_UNIFORM, codec, 2, Some(2), 1 << 40, payload),
                "absurd body length",
            );
            expect_corruption(
                &sealed(SORTED_UNIFORM, codec, 2, Some(2), (1 << 30) - 1, payload),
                "body length the payload does not decode to",
            );
            expect_corruption(
                &sealed(SORTED_UNIFORM, codec, 2, Some(1 << 19), len, payload),
                "arity larger than the body",
            );
            expect_corruption(
                &sealed(SORTED_UNIFORM, codec, 2, Some(3), len, payload),
                "arity that runs the first row into the second event",
            );
            expect_corruption(
                &sealed(SORTED_UNIFORM, codec, 1, Some(2), len, payload),
                "trailing bytes after the last event",
            );
        }
        // Per-event arity (no UNIFORM flag) larger than what is left.
        let mut ragged = vec![2, 5];
        put_uvarint(&mut ragged, 1 << 40);
        put_value(&mut ragged, &Value::Int(1));
        expect_corruption(
            &sealed(FLAG_SORTED_TS, Codec::None, 1, None, ragged.len() as u64, &ragged),
            "per-event arity larger than the body",
        );
    }

    #[test]
    fn rows_are_checked_where_they_lie() {
        let body = small_body();
        let frame = |body: &[u8]| sealed(SORTED_UNIFORM, Codec::None, 2, Some(2), body.len() as u64, body);
        assert!(decode_chunk(&frame(&body)).is_ok());
        // Cut inside the last value (and inside the string before it).
        for cut in [1, 2, 9] {
            expect_corruption(&frame(&body[..body.len() - cut]), "row cut mid-value");
        }
        let at = |needle: &[u8]| body.windows(needle.len()).position(|w| w == needle).unwrap();
        let mut bad_utf8 = body.clone();
        bad_utf8[at(b"card-2") + 2] = 0xFF;
        expect_corruption(&frame(&bad_utf8), "invalid UTF-8");
        let mut bad_tag = body.clone();
        bad_tag[2] = 0x77; // the first value's tag
        expect_corruption(&frame(&bad_tag), "unknown tag");
        let mut long_string = body.clone();
        long_string[3] = 0x7F; // the first string's length
        expect_corruption(&frame(&long_string), "string past the end");
        let mut endless_varint = body.clone();
        let int_at = body.len() - 1; // the last integer's single varint byte
        endless_varint[int_at] = 0x80;
        expect_corruption(&frame(&endless_varint), "unterminated varint");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random byte flips and truncations of a frame's payload, the CRC
        /// and length put right again: decoding is an error or a chunk
        /// whose every event reads back, never a panic or an abort.
        #[test]
        fn damaged_frames_never_panic(
            railz in any::<bool>(),
            flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..4),
            keep in any::<u16>(),
            truncate in any::<bool>(),
        ) {
            let codec = if railz { Codec::RailZ } else { Codec::None };
            let mut frame = Vec::new();
            encode_chunk(&mut frame, ChunkId(3), SchemaId(1), codec, &pinned_events());
            let mut payload = frame.split_off(8);
            for (at, byte) in flips {
                let at = at as usize % payload.len();
                payload[at] = byte;
            }
            if truncate {
                payload.truncate(keep as usize % (payload.len() + 1));
            }
            frame.clear();
            frame.put_u32_le(payload.len() as u32 + 4);
            frame.put_u32_le(crc32c(&payload));
            frame.put_slice(&payload);
            if let Ok(Some(decoded)) = decode_chunk(&frame) {
                let mut again = Vec::new();
                for e in decoded.chunk.events() {
                    prop_assert_eq!(e.values().len(), e.arity());
                }
                encode_chunk(&mut again, ChunkId(3), SchemaId(1), codec, &decoded.chunk.events());
                let back = decode_chunk(&again).unwrap().unwrap();
                // (As text: a flipped float may be NaN.)
                prop_assert_eq!(
                    format!("{:?}", back.chunk.events()),
                    format!("{:?}", decoded.chunk.events())
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A frame written through a block is the reference encoder's,
        /// byte for byte; the chunk it leaves and the one decoded from the
        /// frame hand out the events with their rows byte for byte.
        #[test]
        fn blocks_written_and_decoded_hold_the_events(events in random_events(), railz in any::<bool>()) {
            let codec = if railz { Codec::RailZ } else { Codec::None };
            let mut frame = Vec::new();
            let written = encode_chunk(&mut frame, ChunkId(7), SchemaId(0), codec, &events);
            prop_assert_eq!(&frame, &reference_frame(codec, &events));
            assert_holds(written.events().into_iter(), &events);
            let decoded = decode_chunk(&frame).unwrap().unwrap();
            prop_assert_eq!(decoded.frame_len, frame.len());
            prop_assert_eq!(
                (decoded.chunk.first_ts, decoded.chunk.last_ts),
                (written.first_ts, written.last_ts)
            );
            assert_holds(decoded.chunk.events().into_iter(), &events);
        }

        /// A body cut short (its stated length cut to match, so the codec
        /// passes it) is `Corruption`; a body with a byte changed is
        /// `Corruption` or events that read back whole. Never a panic.
        #[test]
        fn cut_or_changed_bodies_are_corruption_or_exact(
            events in random_events(),
            cut in any::<u16>(),
            at in any::<u16>(),
            byte in any::<u8>(),
        ) {
            let (header, body) = reference_parts(Codec::None, &events);
            let resealed = |body: &[u8]| {
                let mut p = header.to_vec();
                put_uvarint(&mut p, body.len() as u64);
                p.extend_from_slice(body);
                decode_chunk(&seal(&p))
            };
            let cut = cut as usize % body.len();
            prop_assert!(matches!(resealed(&body[..cut]), Err(RailgunError::Corruption(_))));
            let mut changed = body.clone();
            changed[at as usize % body.len()] = byte;
            match resealed(&changed) {
                Err(e) => prop_assert!(matches!(e, RailgunError::Corruption(_))),
                Ok(decoded) => {
                    for e in decoded.unwrap().chunk.events() {
                        prop_assert_eq!(e.values().len(), e.arity());
                    }
                }
            }
        }
    }
}
