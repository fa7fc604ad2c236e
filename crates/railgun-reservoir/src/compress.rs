//! Chunk compression.
//!
//! The paper compresses chunks "aggressively" before persisting them
//! (§4.1.1) — storage overhead matters because events are replicated across
//! task processors. We implement a small LZ77-style byte compressor
//! (`RailZ`) with a 64 KiB window and greedy one-probe matching: the same
//! family as LZ4, chosen so the decode path stays a tight copy loop (chunk
//! deserialization cost is on the read-miss path, §5.2(b)). "Aggressively"
//! here means every chunk body is offered to the compressor, and every
//! body that compresses is compressed to the end; a body that does not is
//! written as literals after a short trial (below).
//!
//! Token format (repeating until input exhausted):
//!
//! ```text
//! literal run : 0x00 | varint len | bytes
//! match       : 0x01 | varint len (>= 4) | varint distance (>= 1)
//! ```
//!
//! ## What a match has to earn
//!
//! A match token is 3 to 5 bytes (1 + the two varints; the window is
//! 64 KiB) and cuts the literal run around it in two, whose second half
//! needs a 2-byte header of its own. A match of 4 — the shortest the
//! format allows — so costs 5 to 7 bytes to save 4, and rows of short
//! strings and small integers are full of them: the body came out barely
//! smaller and slower on both sides. The encoder emits a match only when
//! it is longer than its token plus that header (6 bytes up at short
//! range, 8 at long range). That is the encoder's choice alone: the floor
//! of the format, and of the decoder, stays `MIN_MATCH` (4), so old streams
//! decode as ever and new ones are valid to every earlier reader.
//!
//! ## What compressing has to earn
//!
//! Some bodies barely compress: `cold_window`'s 103-field rows of random
//! floats saved about 6%, for about 3 µs of CPU per event on the
//! reservoir's I/O thread, while the 3-field rows of the other workloads
//! halve for about 0.24 µs. So the encoder judges a
//! body once, on its first `TRIAL_BYTES` (4 KiB): when the probes pass
//! that point, the output so far, counting the literals still pending,
//! must be at most `1 - 1 / TRIAL_SHARE` (7/8) of the input they covered.
//! If it is not, the encoder stops probing and the rest of the body goes
//! out as one literal run. That is RocksDB's rule for a block, which it
//! keeps uncompressed unless compression saves at least an eighth; here
//! the first 4 KiB stand in for the whole body, so an incompressible body
//! costs a trial instead of a full pass. Measured on one pinned core of a
//! 2-vCPU container, on the test module's `cold_row` bodies (64 events):
//! encode 2.99 → 0.16 µs per event, decode 0.68 → 0.02 µs, output 460 →
//! 488 B per event. In traced `cold_window` runs the I/O thread's busy
//! share fell from 0.21–0.23 to 0.14 and the bytes written per event rose
//! from 454 to 483.
//!
//! A long literal run is a valid stream, so the format, the decoder and
//! the codec ids did not change, and the verdict is a function of the
//! body's bytes alone: the same body always gives the same frame. A body
//! shorter than the trial, or one that saves an eighth in it, comes out
//! byte for byte as before.

use bytes::BufMut;
use railgun_types::encode::{get_uvarint, put_uvarint};
use railgun_types::{RailgunError, Result};

/// Which codec a chunk was written with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Store bytes verbatim (ablation baseline).
    None,
    /// LZ77-style compression (default).
    RailZ,
}

impl Codec {
    /// Wire id persisted in chunk headers.
    pub fn id(self) -> u8 {
        match self {
            Codec::None => 0,
            Codec::RailZ => 1,
        }
    }

    /// Decode a wire id.
    pub fn from_id(id: u8) -> Result<Codec> {
        match id {
            0 => Ok(Codec::None),
            1 => Ok(Codec::RailZ),
            other => Err(RailgunError::Corruption(format!(
                "unknown compression codec {other}"
            ))),
        }
    }

    /// Compress `input` with this codec.
    pub fn compress(self, input: &[u8]) -> Vec<u8> {
        match self {
            Codec::None => input.to_vec(),
            Codec::RailZ => compress_railz(input),
        }
    }

    /// Decompress data produced by [`Codec::compress`]; anything that
    /// does not come out at exactly `expected_len` bytes is corruption.
    pub fn decompress(self, input: &[u8], expected_len: usize) -> Result<Vec<u8>> {
        match self {
            Codec::None if input.len() == expected_len => Ok(input.to_vec()),
            Codec::None => Err(RailgunError::Corruption(format!(
                "stored body is {} bytes, expected {expected_len}",
                input.len()
            ))),
            Codec::RailZ => decompress_railz(input, expected_len),
        }
    }
}

const TOKEN_LITERAL: u8 = 0;
const TOKEN_MATCH: u8 = 1;
/// Shortest match the format allows and the decoder accepts.
const MIN_MATCH: usize = 4;
const MAX_DISTANCE: usize = 1 << 16;
/// 4096 `u32` positions = 16 KiB: the probe table stays in L1 and is cheap
/// enough to zero per chunk to live on the stack.
const HASH_BITS: u32 = 12;
/// Bytes hashed per probe: no shorter match is worth emitting.
const PROBE_BYTES: u32 = 6;
/// Header of the literal run a match splits off behind itself.
const SPLIT_COST: usize = 2;
/// Every `1 << SKIP_SHIFT` probes in a row without a match, the step over
/// the input grows by a byte (as in LZ4): stretches that do not repeat
/// cost little.
const SKIP_SHIFT: u32 = 4;
/// Input a body is judged on: once the probes pass it, compressing must
/// have saved at least `1 / TRIAL_SHARE` of it, or the rest is literals.
const TRIAL_BYTES: usize = 4096;
/// An eighth, as RocksDB asks of a block before it keeps it compressed.
const TRIAL_SHARE: usize = 8;

/// The 8 bytes at `input[at..]` (they must be there), little-endian: the
/// first [`PROBE_BYTES`] of them are its low bits.
#[inline]
fn word_at(input: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(*input[at..].first_chunk().expect("caller leaves 8 bytes"))
}

const PROBE_MASK: u64 = (1 << (8 * PROBE_BYTES)) - 1;

/// Hash of the first [`PROBE_BYTES`] of `word`.
#[inline]
fn hash(word: u64) -> usize {
    ((word & PROBE_MASK).wrapping_mul(0x9E37_79B1_85EB_CA87) >> (64 - HASH_BITS)) as usize
}

/// Length of the common prefix of `x` and `y`, compared a word at a time.
#[inline]
fn common_prefix(x: &[u8], y: &[u8]) -> usize {
    let mut n = 0;
    for (a, b) in x.chunks_exact(8).zip(y.chunks_exact(8)) {
        let diff = u64::from_le_bytes(a.try_into().expect("8 bytes"))
            ^ u64::from_le_bytes(b.try_into().expect("8 bytes"));
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + x[n..].iter().zip(&y[n..]).take_while(|(p, q)| p == q).count()
}

fn uvarint_len(v: usize) -> usize {
    (usize::BITS - (v | 1).leading_zeros()).div_ceil(7) as usize
}

fn put_literals(out: &mut Vec<u8>, lit: &[u8]) {
    if !lit.is_empty() {
        out.put_u8(TOKEN_LITERAL);
        put_uvarint(out, lit.len() as u64);
        out.put_slice(lit);
    }
}

/// Greedy LZ77 with a one-probe hash table; the module docs say when a
/// match is emitted, and when the rest of a body is not worth probing.
fn compress_railz(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() + input.len() / 64 + 16);
    // Position + 1 of the last probe with each hash; 0 = none yet.
    let mut table = [0u32; 1 << HASH_BITS];
    let (mut pos, mut literal_start, mut misses) = (0usize, 0usize, 0usize);
    // A probe reads 8 bytes; the tail behind the last one goes out as
    // literals (as does anything past what a `u32` position can name).
    let end = input.len().saturating_sub(7).min(u32::MAX as usize);
    // Two legs split at the trial, so that no probe pays for its verdict.
    let trial_end = end.min(TRIAL_BYTES);
    for stop in [trial_end, end] {
        let written = out.len() + (pos - literal_start);
        if stop != trial_end && written * TRIAL_SHARE > pos * (TRIAL_SHARE - 1) {
            break;
        }
        while pos < stop {
            let word = word_at(input, pos);
            let slot = &mut table[hash(word)];
            let candidate = (*slot as usize).wrapping_sub(1);
            *slot = pos as u32 + 1;
            let dist = pos.wrapping_sub(candidate);
            // Most candidates are hash collisions or too far back: one word
            // compare turns them away before anything is measured.
            if candidate < pos
                && dist <= MAX_DISTANCE
                && (word_at(input, candidate) ^ word) & PROBE_MASK == 0
            {
                let len = common_prefix(&input[candidate..], &input[pos..]);
                if len > 1 + uvarint_len(len) + uvarint_len(dist) + SPLIT_COST {
                    put_literals(&mut out, &input[literal_start..pos]);
                    out.put_u8(TOKEN_MATCH);
                    put_uvarint(&mut out, len as u64);
                    put_uvarint(&mut out, dist as u64);
                    pos += len;
                    (literal_start, misses) = (pos, 0);
                    // One seed inside the match, so a repeat that starts late
                    // in it is still found.
                    if pos + 8 <= input.len() {
                        table[hash(word_at(input, pos - 2))] = (pos - 2) as u32 + 1;
                    }
                    continue;
                }
            }
            misses += 1;
            pos += 1 + (misses >> SKIP_SHIFT);
        }
    }
    put_literals(&mut out, &input[literal_start..]);
    out
}

fn decompress_railz(input: &[u8], expected_len: usize) -> Result<Vec<u8>> {
    // Reserve `expected_len` only as far as the input can vouch for it;
    // a stream that expands more than fourfold grows the buffer as real
    // bytes arrive.
    let mut out = Vec::with_capacity(expected_len.min(input.len().saturating_mul(4)));
    let mut cur = input;
    while let Some((&token, rest)) = cur.split_first() {
        cur = rest;
        match token {
            TOKEN_LITERAL => {
                let len = get_uvarint(&mut cur)?;
                if len > cur.len() as u64 {
                    return Err(RailgunError::Corruption("railz literal truncated".into()));
                }
                let (lit, rest) = cur.split_at(len as usize);
                if lit.len() > expected_len - out.len() {
                    return Err(RailgunError::Corruption("railz output overrun".into()));
                }
                out.extend_from_slice(lit);
                cur = rest;
            }
            TOKEN_MATCH => {
                let len = get_uvarint(&mut cur)?;
                let dist = get_uvarint(&mut cur)?;
                if dist == 0 || dist > out.len() as u64 || len < MIN_MATCH as u64 {
                    return Err(RailgunError::Corruption("railz bad match token".into()));
                }
                if len > (expected_len - out.len()) as u64 {
                    return Err(RailgunError::Corruption("railz output overrun".into()));
                }
                let (len, dist) = (len as usize, dist as usize);
                // A match may overlap its own output (`dist < len`, an RLE
                // run): `out[start..]` is then whole periods of the run, so
                // copying from its front continues it, twice as much a round.
                let start = out.len() - dist;
                let mut left = len;
                while left > 0 {
                    let n = left.min(out.len() - start);
                    out.extend_from_within(start..start + n);
                    left -= n;
                }
            }
            other => {
                return Err(RailgunError::Corruption(format!(
                    "railz unknown token {other}"
                )))
            }
        }
    }
    if out.len() != expected_len {
        return Err(RailgunError::Corruption(format!(
            "railz length mismatch: got {}, expected {expected_len}",
            out.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use railgun_types::encode::put_value;
    use railgun_types::Value;

    /// The encoder as it was before the emit rule: every match of
    /// [`MIN_MATCH`] or more goes out. Kept as the size reference.
    fn reference_compress(input: &[u8]) -> Vec<u8> {
        const HASH_BITS: u32 = 15;
        fn hash4(data: &[u8]) -> usize {
            let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
            (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
        }
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        let mut table = vec![usize::MAX; 1 << HASH_BITS];
        let mut pos = 0usize;
        let mut literal_start = 0usize;
        while pos + MIN_MATCH <= input.len() {
            let h = hash4(&input[pos..]);
            let candidate = table[h];
            table[h] = pos;
            let mut match_len = 0;
            if candidate != usize::MAX && pos - candidate <= MAX_DISTANCE {
                let max = input.len() - pos;
                while match_len < max && input[candidate + match_len] == input[pos + match_len] {
                    match_len += 1;
                }
            }
            if match_len >= MIN_MATCH {
                put_literals(&mut out, &input[literal_start..pos]);
                out.put_u8(TOKEN_MATCH);
                put_uvarint(&mut out, match_len as u64);
                put_uvarint(&mut out, (pos - candidate) as u64);
                let end = pos + match_len;
                let mut p = pos + 1;
                while p + MIN_MATCH <= input.len() && p < end {
                    table[hash4(&input[p..])] = p;
                    p += 3;
                }
                pos = end;
                literal_start = pos;
            } else {
                pos += 1;
            }
        }
        put_literals(&mut out, &input[literal_start..]);
        out
    }

    /// The encoder as it was before the trial: every body is probed to its
    /// end. What the encoder writes for a body that passes the trial, or
    /// never reaches it, is held to this byte for byte.
    fn untrialled_compress(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() + input.len() / 64 + 16);
        let mut table = [0u32; 1 << HASH_BITS];
        let (mut pos, mut literal_start, mut misses) = (0usize, 0usize, 0usize);
        while pos + 8 <= input.len() && pos < u32::MAX as usize {
            let word = word_at(input, pos);
            let slot = &mut table[hash(word)];
            let candidate = (*slot as usize).wrapping_sub(1);
            *slot = pos as u32 + 1;
            let dist = pos.wrapping_sub(candidate);
            if candidate < pos
                && dist <= MAX_DISTANCE
                && (word_at(input, candidate) ^ word) & PROBE_MASK == 0
            {
                let len = common_prefix(&input[candidate..], &input[pos..]);
                if len > 1 + uvarint_len(len) + uvarint_len(dist) + SPLIT_COST {
                    put_literals(&mut out, &input[literal_start..pos]);
                    out.put_u8(TOKEN_MATCH);
                    put_uvarint(&mut out, len as u64);
                    put_uvarint(&mut out, dist as u64);
                    pos += len;
                    (literal_start, misses) = (pos, 0);
                    if pos + 8 <= input.len() {
                        table[hash(word_at(input, pos - 2))] = (pos - 2) as u32 + 1;
                    }
                    continue;
                }
            }
            misses += 1;
            pos += 1 + (misses >> SKIP_SHIFT);
        }
        put_literals(&mut out, &input[literal_start..]);
        out
    }

    /// The decoder as it was: one bounds-checked push per matched byte,
    /// overrun noticed after the copy. The model the slice-copying decoder
    /// is held to.
    fn reference_decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>> {
        let out = reference_tokens(input, expected_len)?;
        if out.len() != expected_len {
            return Err(RailgunError::Corruption("railz length mismatch".into()));
        }
        Ok(out)
    }

    /// The token loop of [`reference_decompress`], up to its final length
    /// check (so a test can ask what a stream decodes to).
    fn reference_tokens(input: &[u8], expected_len: usize) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        let mut cur = input;
        while !cur.is_empty() {
            let token = cur[0];
            cur = &cur[1..];
            match token {
                TOKEN_LITERAL => {
                    let len = get_uvarint(&mut cur)? as usize;
                    if cur.len() < len {
                        return Err(RailgunError::Corruption("railz literal truncated".into()));
                    }
                    out.extend_from_slice(&cur[..len]);
                    cur = &cur[len..];
                }
                TOKEN_MATCH => {
                    let len = get_uvarint(&mut cur)? as usize;
                    let dist = get_uvarint(&mut cur)? as usize;
                    if dist == 0 || dist > out.len() || len < MIN_MATCH {
                        return Err(RailgunError::Corruption("railz bad match token".into()));
                    }
                    let start = out.len() - dist;
                    for i in 0..len {
                        let b = out[start + i];
                        out.push(b);
                    }
                }
                other => {
                    return Err(RailgunError::Corruption(format!(
                        "railz unknown token {other}"
                    )))
                }
            }
            if out.len() > expected_len {
                return Err(RailgunError::Corruption("railz output overrun".into()));
            }
        }
        Ok(out)
    }

    fn roundtrip(data: &[u8]) {
        let compressed = Codec::RailZ.compress(data);
        let back = Codec::RailZ.decompress(&compressed, data.len()).unwrap();
        assert_eq!(back, data);
        // What this encoder writes, the decoder before it reads, and the
        // other way round: the format did not move.
        assert_eq!(reference_decompress(&compressed, data.len()).unwrap(), data);
        let old = reference_compress(data);
        assert_eq!(Codec::RailZ.decompress(&old, data.len()).unwrap(), data);
    }

    fn xorshift_bytes(seed: u32, n: usize) -> Vec<u8> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect()
    }

    /// A chunk body shaped like the benchmark's `cold_window` payload: per
    /// event an id/ts delta, two id strings, a float, then a hundred short
    /// categoricals, random floats, small integers and flags — many 4- and
    /// 5-byte repeats, few long ones.
    pub(crate) fn payment_body(events: usize) -> Vec<u8> {
        let noise = xorshift_bytes(0xC01D, events * 160);
        let mut noise = noise.iter().copied().cycle();
        let mut next = move || noise.next().expect("cycle");
        let mut body = Vec::new();
        for _ in 0..events {
            body.extend_from_slice(&[8, 40]); // id delta, ts delta
            body.extend_from_slice(&[5, 13]);
            body.extend_from_slice(format!("card-{:08}", u32::from(next()) * 97).as_bytes());
            body.extend_from_slice(&[5, 12]);
            body.extend_from_slice(format!("merch-{:06}", u32::from(next()) * 13).as_bytes());
            body.push(4);
            body.extend_from_slice(&[0, 0, 0, 0, 0, next(), next() & 0x7f, 0x40]);
            for field in 0..100 {
                match field % 4 {
                    0 => {
                        body.extend_from_slice(&[5, 3, b'v']);
                        body.extend_from_slice(format!("{:02}", next() % 50).as_bytes());
                    }
                    1 => {
                        body.push(4);
                        body.extend((0..8).map(|_| next()));
                    }
                    2 => body.extend_from_slice(&[3, next() | 0x80, next() & 0x0f]),
                    _ => body.push(1 + (next() & 1)),
                }
            }
        }
        body
    }

    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A chunk body of `events` rows as the I/O thread frames them: per
    /// event an id delta and a ts delta, then the row.
    fn rows_body(events: usize, seed: u64, row: fn(&mut u64) -> Vec<Value>) -> Vec<u8> {
        let mut state = seed | 1;
        let mut body = Vec::new();
        for _ in 0..events {
            body.extend_from_slice(&[1, 20]);
            for value in row(&mut state) {
                put_value(&mut body, &value);
            }
        }
        body
    }

    /// A `hot_saturate` / `wide_plan` row: card and merchant ids and an
    /// amount in quarters.
    fn hot_row(r: &mut u64) -> Vec<Value> {
        vec![
            Value::Str(format!("card-{:08}", next(r) % 2_000)),
            Value::Str(format!("merch-{:06}", next(r) % 200)),
            Value::Float((4 + next(r) % 1996) as f64 * 0.25),
        ]
    }

    /// A `cold_window` row: the hot row, seven categoricals, then short
    /// strings, random floats in [0, 1), small integers and flags in turn
    /// up to 103 fields. The floats' random mantissas leave little that
    /// repeats.
    fn cold_row(r: &mut u64) -> Vec<Value> {
        let mut row = hot_row(r);
        row.extend([
            Value::Str(["PT", "US", "GB", "DE", "FR", "ES"][next(r) as usize % 6].into()),
            Value::Str(["EUR", "USD", "GBP", "BRL"][next(r) as usize % 4].into()),
            Value::Str(["pos", "ecom", "moto", "atm"][next(r) as usize % 4].into()),
            Value::Str(["chip", "swipe", "token"][next(r) as usize % 3].into()),
            Value::Bool(next(r) % 10 < 7),
            Value::Int(3000 + (next(r) % 3000) as i64),
            Value::Str(format!("term-{:05}", next(r) % 20_000)),
        ]);
        for i in 0..93 {
            row.push(match i % 4 {
                0 => Value::Str(format!("v{}", next(r) % 50)),
                1 => Value::Float((next(r) >> 11) as f64 / (1u64 << 53) as f64),
                2 => Value::Int((next(r) % 1000) as i64),
                _ => Value::Bool(next(r) & 1 == 1),
            });
        }
        row
    }

    /// Each token of a stream: (token, bytes it decodes to).
    fn tokens(mut stream: &[u8]) -> Vec<(u8, usize)> {
        let mut out = Vec::new();
        while let Some((&token, rest)) = stream.split_first() {
            stream = rest;
            let len = get_uvarint(&mut stream).unwrap() as usize;
            if token == TOKEN_LITERAL {
                stream = &stream[len..];
            } else {
                get_uvarint(&mut stream).unwrap();
            }
            out.push((token, len));
        }
        out
    }

    #[test]
    fn a_body_that_saves_under_an_eighth_of_its_trial_is_a_compressed_prefix_and_one_literal_run() {
        // Rows of random floats, and `payment_body`'s rows of random bytes,
        // both save about 3% of their first 4 KiB.
        for body in [rows_body(64, 0xC01D, cold_row), payment_body(110)] {
            let compressed = compress_railz(&body);
            roundtrip(&body);
            let tokens = tokens(&compressed);
            let (&(last, tail), prefix) = tokens.split_last().unwrap();
            assert_eq!(last, TOKEN_LITERAL);
            assert!(prefix.iter().any(|&(token, _)| token == TOKEN_MATCH), "{tokens:?}");
            // The prefix is the trial: the literal run starts at most one
            // probe step past it.
            assert!(body.len() - tail <= TRIAL_BYTES + 64, "{} of {}", tail, body.len());
            assert!(compressed.len() <= body.len() + 8, "{} of {}", compressed.len(), body.len());
            // Probing on would have saved under an eighth of the whole body.
            assert!(untrialled_compress(&body).len() * 8 > body.len() * 7);
        }
    }

    #[test]
    fn bodies_that_pass_the_trial_or_never_reach_it_come_out_as_before() {
        let cold = rows_body(64, 0xC01D, cold_row);
        let bodies = [
            rows_body(256, 1, hot_row),
            xorshift_bytes(0xBEEF, 37).into_iter().cycle().take(20_000).collect(),
            vec![7u8; 20_000],
            // Under the trial, compressible or not.
            cold[..TRIAL_BYTES].to_vec(),
            payment_body(8),
        ];
        for body in &bodies {
            assert_eq!(compress_railz(body), untrialled_compress(body), "{} B", body.len());
        }
        // The hot rows halve: they did pass the trial.
        assert!(compress_railz(&bodies[0]).len() * 8 < bodies[0].len() * 5);
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcd");
        roundtrip(b"abcdabcdabcdabcdabcd");
    }

    #[test]
    fn roundtrip_repetitive_compresses_well() {
        let data: Vec<u8> = b"cardId=4532-".repeat(500);
        let compressed = Codec::RailZ.compress(&data);
        assert!(
            compressed.len() < data.len() / 4,
            "repetitive data should compress >4x: {} -> {}",
            data.len(),
            compressed.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_rle_overlapping_match() {
        let data = vec![7u8; 10_000];
        let compressed = Codec::RailZ.compress(&data);
        assert!(compressed.len() < 64);
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_incompressible() {
        roundtrip(&xorshift_bytes(0x12345678, 8192));
    }

    #[test]
    fn payment_rows_come_out_no_longer_than_before_and_no_longer_than_they_went_in() {
        let body = payment_body(110);
        roundtrip(&body);
        let (new, old) = (compress_railz(&body), reference_compress(&body));
        assert!(
            new.len() <= old.len(),
            "emit rule made it worse: {} > {} of {}",
            new.len(),
            old.len(),
            body.len()
        );
        assert!(new.len() < body.len(), "{} of {}", new.len(), body.len());
    }

    #[test]
    fn a_match_that_saves_nothing_is_left_as_literals() {
        // "abcd" twice with junk between: a 4-byte match exists and the
        // format allows it, but its token and the split cost more.
        let data = b"abcd-0123456789-abcd+".to_vec();
        let compressed = compress_railz(&data);
        assert_eq!(compressed[0], TOKEN_LITERAL);
        assert_eq!(compressed.len(), 2 + data.len(), "one literal run");
        // The decoder's floor is still the format's: the old encoder's
        // 4-byte match decodes.
        let old = reference_compress(&data);
        assert!(old.contains(&TOKEN_MATCH) && old.len() != compressed.len());
        assert_eq!(decompress_railz(&old, data.len()).unwrap(), data);
        let too_short = [TOKEN_LITERAL, 3, b'a', b'b', b'c', TOKEN_MATCH, 3, 3];
        assert!(decompress_railz(&too_short, 6).is_err());
    }

    #[test]
    fn codec_none_is_identity() {
        let data = b"anything at all";
        let c = Codec::None.compress(data);
        assert_eq!(c, data);
        assert_eq!(Codec::None.decompress(&c, data.len()).unwrap(), data);
        assert!(Codec::None.decompress(&c, data.len() + 1).is_err());
    }

    #[test]
    fn codec_ids_roundtrip() {
        for c in [Codec::None, Codec::RailZ] {
            assert_eq!(Codec::from_id(c.id()).unwrap(), c);
        }
        assert!(Codec::from_id(200).is_err());
    }

    #[test]
    fn corrupt_stream_rejected() {
        let data = b"hello hello hello hello hello".to_vec();
        let mut compressed = Codec::RailZ.compress(&data);
        compressed[0] = 9; // unknown token
        assert!(Codec::RailZ.decompress(&compressed, data.len()).is_err());
    }

    #[test]
    fn wrong_expected_len_rejected() {
        let data = b"hello world".to_vec();
        let compressed = Codec::RailZ.compress(&data);
        assert!(Codec::RailZ.decompress(&compressed, data.len() + 1).is_err());
        assert!(Codec::RailZ.decompress(&compressed, data.len() - 1).is_err());
    }

    #[test]
    fn an_absurd_expected_len_reserves_nothing_and_an_overrunning_match_copies_nothing() {
        let compressed = Codec::RailZ.compress(b"hello world");
        // 2^40 claimed: must come back as an error, not as an allocation.
        assert!(decompress_railz(&compressed, 1 << 40).is_err());
        // A match of 2^40 bytes into a 16-byte body is refused before the
        // first byte of it is copied.
        let mut huge = vec![TOKEN_LITERAL, 1, b'x', TOKEN_MATCH];
        put_uvarint(&mut huge, 1 << 40);
        put_uvarint(&mut huge, 1);
        assert!(decompress_railz(&huge, 16).is_err());
    }

    /// One token of a random stream: (is match, length, distance, bytes).
    fn token() -> impl Strategy<Value = (u8, u64, u64, Vec<u8>)> {
        (
            // Mostly the two real tokens, sometimes junk.
            prop_oneof![4 => Just(TOKEN_LITERAL), 4 => Just(TOKEN_MATCH), 1 => any::<u8>()],
            prop_oneof![6 => 0u64..40, 1 => 0u64..2_000],
            prop_oneof![6 => 0u64..12, 1 => 0u64..3_000],
            proptest::collection::vec(any::<u8>(), 0..24),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random token streams — overlapping runs (`dist < len`), matches
        /// reaching before the start, zero distances, lengths under the
        /// floor, literals longer than what follows, unknown tokens, a
        /// cut-off tail, a wrong expected length — decode to the same
        /// bytes, or fail together, as the byte-at-a-time decoder.
        #[test]
        fn decoder_matches_the_bytewise_reference(
            tokens in proptest::collection::vec(token(), 0..12),
            cut in any::<u16>(),
            len_skew in 0usize..4,
        ) {
            let mut stream = Vec::new();
            for (kind, len, dist, bytes) in &tokens {
                stream.push(*kind);
                if *kind == TOKEN_MATCH {
                    put_uvarint(&mut stream, *len);
                    put_uvarint(&mut stream, *dist);
                } else {
                    // Usually the true length, sometimes the random one.
                    let claimed = if len % 5 == 0 { *len } else { bytes.len() as u64 };
                    put_uvarint(&mut stream, claimed);
                    stream.extend_from_slice(bytes);
                }
            }
            if cut % 4 == 0 {
                stream.truncate(cut as usize % (stream.len() + 1));
            }
            // Learn the length the stream really decodes to, then ask for
            // it exactly or skewed.
            let true_len = reference_tokens(&stream, usize::MAX).ok().map(|out| out.len());
            let expected = match (true_len, len_skew) {
                (Some(n), 0 | 1) => n,
                (Some(n), 2) => n + 1,
                (Some(n), _) => n.saturating_sub(1),
                (None, k) => k * 7,
            };
            let want = reference_decompress(&stream, expected);
            let got = decompress_railz(&stream, expected);
            match (want, got) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "reference {a:?} vs {b:?}"),
            }
        }

        #[test]
        fn compress_then_decompress_is_identity(
            seed in any::<u32>(),
            shape in 0usize..5,
            len in 0usize..12_000,
            period in 1usize..40,
        ) {
            let data: Vec<u8> = match shape {
                0 => xorshift_bytes(seed | 1, len),
                1 => xorshift_bytes(seed | 1, period).into_iter().cycle().take(len).collect(),
                2 => vec![seed as u8; len],
                3 => payment_body(len / 500),
                _ => rows_body(len / 400, u64::from(seed), cold_row),
            };
            roundtrip(&data);
            // The verdict is a function of the bytes alone. Random bytes
            // save nothing with or without it, periodic ones and runs far
            // more than an eighth; rows may fail the trial, so only those
            // that never reach it are held to the untrialled encoder.
            let compressed = compress_railz(&data);
            prop_assert_eq!(&compressed, &compress_railz(&data));
            if shape < 3 || data.len() < TRIAL_BYTES {
                prop_assert_eq!(compressed, untrialled_compress(&data));
            }
        }
    }
}
