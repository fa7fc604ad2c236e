//! Immutable sorted-string tables.
//!
//! An SSTable is one sorted run of the LSM tree, produced by flushing a
//! memtable or by compaction. The file layout is:
//!
//! ```text
//! +--------------------+
//! | data block 0       |  entries sorted by key, ~4 KiB each,
//! | data block 1       |  trailed by a CRC-32C
//! | ...                |
//! +--------------------+
//! | index block        |  (first_key, offset, len) per data block
//! +--------------------+
//! | bloom filter       |  over all keys in the table
//! +--------------------+
//! | footer (48 bytes)  |  offsets + magic
//! +--------------------+
//! ```
//!
//! Entries carry tombstones (`None` values) so deletions shadow older runs
//! until compaction drops them.
//!
//! Readers load the file once and keep it in memory (the role RocksDB's
//! block cache plays; a bounded cache with on-demand block reads is
//! ROADMAP item 1(b)). A table is checked exactly once, when
//! [`SstReader::from_bytes`] builds the reader: footer, index CRC, then
//! every data block — its CRC-32C, the encoding of each entry, strict key
//! order and the footer's entry count. The resident bytes never change
//! afterwards, so a second check would detect nothing: `get`, `iter` and
//! `range` parse entries where they lie, and a reader cannot exist over a
//! table with a bad block.

use std::fmt::Display;
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut, Bytes};
use railgun_types::encode::{crc32c, get_bytes, get_uvarint, put_bytes, put_uvarint};
use railgun_types::{RailgunError, Result};

use crate::bloom::BloomFilter;
use crate::vfs::{FsFile, StoreFs};

const MAGIC: u64 = 0x5241_494c_5353_5401; // "RAILSST" v1
const FOOTER_LEN: usize = 48;
/// Target uncompressed size of one data block.
pub const DEFAULT_BLOCK_SIZE: usize = 4096;

/// One entry borrowed from where it lies (a resident table or a
/// memtable): the key, and `None` for a tombstone.
pub type KvRef<'a> = (&'a [u8], Option<&'a [u8]>);

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming SSTable writer. Keys must be added in strictly increasing order.
pub struct SstWriter {
    path: PathBuf,
    out: BufWriter<Box<dyn FsFile>>,
    block: Vec<u8>,
    block_size: usize,
    /// (first_key, offset, len) per finished block.
    index: Vec<(Vec<u8>, u64, u64)>,
    block_first_key: Option<Vec<u8>>,
    /// The last key added; meaningful once `entry_count > 0`.
    last_key: Vec<u8>,
    /// Bloom probe hashes of every key added.
    key_hashes: Vec<(u64, u64)>,
    offset: u64,
    entry_count: u64,
    bloom_bits_per_key: usize,
}

impl SstWriter {
    /// Create a writer for `path` on `fs`, truncating any existing file.
    pub fn create(
        fs: &dyn StoreFs,
        path: &Path,
        block_size: usize,
        bloom_bits_per_key: usize,
    ) -> Result<Self> {
        let file = fs.create(path)?;
        Ok(SstWriter {
            path: path.to_path_buf(),
            out: BufWriter::new(file),
            block: Vec::with_capacity(block_size + 256),
            block_size,
            index: Vec::new(),
            block_first_key: None,
            last_key: Vec::new(),
            key_hashes: Vec::new(),
            offset: 0,
            entry_count: 0,
            bloom_bits_per_key,
        })
    }

    /// Append an entry (`None` = tombstone); keys must arrive in strictly
    /// increasing order.
    pub fn add(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        if self.entry_count > 0 && key <= self.last_key.as_slice() {
            return Err(RailgunError::Storage(format!(
                "SstWriter keys out of order: {key:?} after {:?}",
                self.last_key
            )));
        }
        if self.block_first_key.is_none() {
            self.block_first_key = Some(key.to_vec());
        }
        put_uvarint(&mut self.block, key.len() as u64);
        // Value tag: 0 encodes a tombstone, `len + 1` a live value.
        put_uvarint(&mut self.block, value.map_or(0, |v| v.len() as u64 + 1));
        self.block.put_slice(key);
        self.block.put_slice(value.unwrap_or_default());
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.key_hashes.push(BloomFilter::probe_hashes(key));
        self.entry_count += 1;
        if self.block.len() >= self.block_size {
            self.finish_block()?;
        }
        Ok(())
    }

    fn finish_block(&mut self) -> Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let crc = crc32c(&self.block);
        self.out.write_all(&self.block)?;
        self.out.write_all(&crc.to_le_bytes())?;
        let len = self.block.len() as u64 + 4;
        let first = self
            .block_first_key
            .take()
            .expect("non-empty block has a first key");
        self.index.push((first, self.offset, len));
        self.offset += len;
        self.block.clear();
        Ok(())
    }

    /// Finish the table: write index, bloom, and footer. Returns metadata.
    pub fn finish(mut self) -> Result<SstMeta> {
        self.finish_block()?;
        // Index block.
        let mut index_buf = Vec::new();
        put_uvarint(&mut index_buf, self.index.len() as u64);
        for (first, off, len) in &self.index {
            put_bytes(&mut index_buf, first);
            put_uvarint(&mut index_buf, *off);
            put_uvarint(&mut index_buf, *len);
        }
        let index_crc = crc32c(&index_buf);
        index_buf.extend_from_slice(&index_crc.to_le_bytes());
        let index_off = self.offset;
        self.out.write_all(&index_buf)?;
        // Bloom filter.
        let bloom = BloomFilter::build_from_hashes(&self.key_hashes, self.bloom_bits_per_key);
        let mut bloom_buf = Vec::new();
        bloom.encode(&mut bloom_buf);
        let bloom_off = index_off + index_buf.len() as u64;
        self.out.write_all(&bloom_buf)?;
        // Footer.
        let mut footer = Vec::with_capacity(FOOTER_LEN);
        footer.put_u64_le(index_off);
        footer.put_u64_le(index_buf.len() as u64);
        footer.put_u64_le(bloom_off);
        footer.put_u64_le(bloom_buf.len() as u64);
        footer.put_u64_le(self.entry_count);
        footer.put_u64_le(MAGIC);
        self.out.write_all(&footer)?;
        self.out.flush()?;
        self.out.get_mut().sync_all()?;
        let smallest = self.index.first().map(|(k, _, _)| k.clone());
        let largest = (self.entry_count > 0).then_some(self.last_key);
        Ok(SstMeta {
            path: self.path,
            entry_count: self.entry_count,
            smallest,
            largest,
            file_bytes: bloom_off + bloom_buf.len() as u64 + FOOTER_LEN as u64,
        })
    }
}

/// Metadata describing a finished SSTable.
#[derive(Debug, Clone)]
pub struct SstMeta {
    pub path: PathBuf,
    pub entry_count: u64,
    pub smallest: Option<Vec<u8>>,
    pub largest: Option<Vec<u8>>,
    pub file_bytes: u64,
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

fn corrupt(msg: impl Into<String>) -> RailgunError {
    RailgunError::Corruption(msg.into())
}

/// `off..off + len` as a range of `data`, if it lies inside it.
fn region(data: &[u8], off: u64, len: u64, what: impl Display) -> Result<Range<usize>> {
    off.checked_add(len)
        .filter(|end| *end <= data.len() as u64)
        .map(|end| off as usize..end as usize)
        .ok_or_else(|| corrupt(format!("sst {what} out of range")))
}

/// The `len`-byte region of `data` at `off`, minus its trailing CRC-32C,
/// which must match. Index and data blocks share this framing.
fn crc_framed(data: &[u8], off: u64, len: u64, what: impl Display) -> Result<Range<usize>> {
    let framed = region(data, off, len, &what)?;
    if framed.len() < 4 {
        return Err(corrupt(format!("sst {what} too small")));
    }
    let payload = framed.start..framed.end - 4;
    if data[payload.end..framed.end] != crc32c(&data[payload.clone()]).to_le_bytes() {
        return Err(corrupt(format!("sst {what} crc mismatch")));
    }
    Ok(payload)
}

/// Split `len` bytes off the front of `rest`.
fn take<'a>(rest: &mut &'a [u8], len: u64) -> Result<&'a [u8]> {
    let (head, tail) = usize::try_from(len)
        .ok()
        .and_then(|len| rest.split_at_checked(len))
        .ok_or_else(|| corrupt("truncated block entry"))?;
    *rest = tail;
    Ok(head)
}

/// The block cursor — the one decoder of the entry encoding
/// (`uvarint klen, uvarint vtag, key, value`): split the next entry off
/// the front of `rest`, borrowing key and value from the block's bytes.
fn next_entry<'a>(rest: &mut &'a [u8]) -> Result<KvRef<'a>> {
    let (klen, vtag) = match **rest {
        // Both lengths under 128: one byte each (the common case).
        [k, v, ..] if k < 0x80 && v < 0x80 => {
            *rest = &rest[2..];
            (u64::from(k), u64::from(v))
        }
        _ => (get_uvarint(rest)?, get_uvarint(rest)?),
    };
    let key = take(rest, klen)?;
    let value = match vtag.checked_sub(1) {
        Some(vlen) => Some(take(rest, vlen)?),
        None => None,
    };
    Ok((key, value))
}

/// [`next_entry`] over a block of a live reader.
fn checked_entry<'a>(rest: &mut &'a [u8]) -> KvRef<'a> {
    next_entry(rest).expect("every block was decoded once in SstReader::from_bytes")
}

/// Every this-many-th entry of a block, its first included, is a restart:
/// a point read binary-searches its block's restarts and then walks at
/// most this many entries, not half the block.
const RESTART_EVERY: usize = 16;

/// Reader over one immutable SSTable, fully resident in memory.
pub struct SstReader {
    data: Bytes,
    /// (first_key, payload range in `data`, index of its first restart in
    /// `restarts`) per data block.
    index: Vec<(Vec<u8>, Range<usize>, usize)>,
    /// Offsets in `data` of every block's restarts, in order. The format
    /// carries none: they are noted while the open checks every entry.
    restarts: Vec<usize>,
    bloom: BloomFilter,
    entry_count: u64,
}

impl SstReader {
    /// Read `path` via `fs` and check it ([`SstReader::from_bytes`]); a
    /// corruption error names the file.
    pub fn open(fs: &dyn StoreFs, path: &Path) -> Result<Self> {
        Self::from_bytes(Bytes::from(fs.read(path)?)).map_err(|e| match e {
            RailgunError::Corruption(m) => corrupt(format!("{}: {m}", path.display())),
            other => other,
        })
    }

    /// Check a table already resident in memory, once and completely
    /// (see the module docs), and build its reader.
    pub fn from_bytes(data: Bytes) -> Result<Self> {
        let Some(footer_off) = data.len().checked_sub(FOOTER_LEN) else {
            return Err(corrupt("sst smaller than footer"));
        };
        let mut footer = &data[footer_off..];
        let index_off = footer.get_u64_le();
        let index_len = footer.get_u64_le();
        let bloom_off = footer.get_u64_le();
        let bloom_len = footer.get_u64_le();
        let entry_count = footer.get_u64_le();
        if footer.get_u64_le() != MAGIC {
            return Err(corrupt("bad sst magic"));
        }
        let bloom_range = region(&data[..footer_off], bloom_off, bloom_len, "bloom")?;
        let bloom = BloomFilter::decode(&mut &data[bloom_range])?;
        let mut cur = &data[crc_framed(&data[..footer_off], index_off, index_len, "index")?];
        let blocks = get_uvarint(&mut cur)?;
        let mut index = Vec::new();
        let mut restarts = Vec::new();
        let mut decoded = 0u64;
        let mut last: Option<&[u8]> = None;
        for idx in 0..blocks {
            let first = get_bytes(&mut cur)?;
            let off = get_uvarint(&mut cur)?;
            let len = get_uvarint(&mut cur)?;
            // Data blocks lie below the index.
            let block = crc_framed(
                &data[..index_off as usize],
                off,
                len,
                format_args!("block {idx}"),
            )?;
            let first_restart = restarts.len();
            let mut rest = &data[block.clone()];
            let mut n = 0;
            while !rest.is_empty() {
                if n % RESTART_EVERY == 0 {
                    restarts.push(block.end - rest.len());
                }
                n += 1;
                let (key, _) = next_entry(&mut rest)?;
                if last.is_some_and(|l| key <= l) {
                    return Err(corrupt(format!("sst block {idx} keys out of order")));
                }
                last = Some(key);
                decoded += 1;
            }
            index.push((first, block, first_restart));
        }
        if decoded != entry_count {
            return Err(corrupt(format!(
                "sst decoded {decoded} of {entry_count} entries"
            )));
        }
        Ok(SstReader {
            data,
            index,
            restarts,
            bloom,
            entry_count,
        })
    }

    /// Number of entries (tombstones included).
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// Total file size in bytes.
    pub fn file_bytes(&self) -> usize {
        self.data.len()
    }

    /// The entries of block `idx`, as they lie in the table.
    fn block(&self, idx: usize) -> Option<&[u8]> {
        let (_, payload, _) = self.index.get(idx)?;
        Some(&self.data[payload.clone()])
    }

    /// The last block whose first key is `<= key`, if any.
    fn block_for(&self, key: &[u8]) -> Option<usize> {
        self.index
            .partition_point(|(first, _, _)| first.as_slice() <= key)
            .checked_sub(1)
    }

    /// Point lookup. `None` = key not in this table; `Some(None)` =
    /// tombstone; `Some(Some(v))` = live value, borrowed from the table.
    pub fn get(&self, key: &[u8]) -> Option<Option<&[u8]>> {
        self.get_hashed(key, BloomFilter::probe_hashes(key))
    }

    /// [`SstReader::get`] for a key whose [`BloomFilter::probe_hashes`]
    /// are `hashes`, computed once for every table a lookup visits.
    pub fn get_hashed(&self, key: &[u8], hashes: (u64, u64)) -> Option<Option<&[u8]>> {
        if !self.bloom.may_contain_hashed(hashes) {
            return None;
        }
        let idx = self.block_for(key)?;
        let (_, payload, first) = &self.index[idx];
        let end = self.index.get(idx + 1).map_or(self.restarts.len(), |b| b.2);
        let restarts = &self.restarts[*first..end];
        // The block's first restart is its first key, which is <= `key`.
        let entry_at = |off: usize| checked_entry(&mut &self.data[off..payload.end]);
        let at = restarts.partition_point(|&off| entry_at(off).0 <= key);
        let mut rest = &self.data[restarts[at.checked_sub(1)?]..payload.end];
        while !rest.is_empty() {
            let (k, v) = checked_entry(&mut rest);
            if k >= key {
                return (k == key).then_some(v);
            }
        }
        None
    }

    /// Iterate every entry in key order.
    pub fn iter(&self) -> SstIter<'_> {
        self.iter_from(0)
    }

    fn iter_from(&self, next_block: usize) -> SstIter<'_> {
        SstIter {
            reader: self,
            next_block,
            rest: &[],
        }
    }

    /// Iterate entries with keys in `[start, end)`.
    pub fn range<'a>(
        &'a self,
        start: &'a [u8],
        end: Option<&'a [u8]>,
    ) -> impl Iterator<Item = KvRef<'a>> + 'a {
        self.iter_from(self.block_for(start).unwrap_or(0))
            .skip_while(move |(k, _)| *k < start)
            .take_while(move |(k, _)| end.is_none_or(|end| *k < end))
    }
}

/// Iterator over a table's entries from some block on, in key order.
pub struct SstIter<'a> {
    reader: &'a SstReader,
    next_block: usize,
    /// Undecoded remainder of the current block.
    rest: &'a [u8],
}

impl<'a> Iterator for SstIter<'a> {
    type Item = KvRef<'a>;

    fn next(&mut self) -> Option<KvRef<'a>> {
        while self.rest.is_empty() {
            self.rest = self.reader.block(self.next_block)?;
            self.next_block += 1;
        }
        Some(checked_entry(&mut self.rest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::RealFs;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("railgun-sst-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Write `entries` (sorted) as the table `<tmpdir(name)>/t.sst`.
    fn write_table<'a>(
        name: &str,
        block_size: usize,
        bloom_bits_per_key: usize,
        entries: impl IntoIterator<Item = KvRef<'a>>,
    ) -> (PathBuf, SstMeta) {
        let path = tmpdir(name).join("t.sst");
        let mut w = SstWriter::create(&RealFs, &path, block_size, bloom_bits_per_key).unwrap();
        for (k, v) in entries {
            w.add(k, v).unwrap();
        }
        let meta = w.finish().unwrap();
        (path, meta)
    }

    /// [`write_table`], read back as bytes.
    fn table_bytes<'a>(
        name: &str,
        block_size: usize,
        bloom_bits_per_key: usize,
        entries: impl IntoIterator<Item = KvRef<'a>>,
    ) -> Vec<u8> {
        std::fs::read(write_table(name, block_size, bloom_bits_per_key, entries).0).unwrap()
    }

    /// `n` keys in 256-byte blocks, every seventh a tombstone.
    fn build_table(name: &str, n: u32) -> (PathBuf, SstMeta) {
        let entries: Vec<(String, Option<String>)> = (0..n)
            .map(|i| {
                (
                    format!("key{i:06}"),
                    (i % 7 != 3).then(|| format!("value-{i}")),
                )
            })
            .collect();
        let refs = entries
            .iter()
            .map(|(k, v)| (k.as_bytes(), v.as_deref().map(str::as_bytes)));
        write_table(name, 256, 10, refs)
    }

    #[test]
    fn roundtrip_point_reads() {
        let (path, meta) = build_table("point", 500);
        assert_eq!(meta.entry_count, 500);
        let r = SstReader::open(&RealFs, &path).unwrap();
        assert_eq!(r.entry_count(), 500);
        assert_eq!(r.get(b"key000000"), Some(Some(&b"value-0"[..])));
        assert_eq!(r.get(b"key000003"), Some(None)); // tombstone
        assert_eq!(r.get(b"key000499"), Some(Some(&b"value-499"[..])));
        assert_eq!(r.get(b"absent"), None);
        assert_eq!(r.get(b"zzz"), None);
    }

    #[test]
    fn writer_rejects_unsorted_keys() {
        let dir = tmpdir("unsorted");
        let mut w = SstWriter::create(&RealFs, &dir.join("u.sst"), 256, 10).unwrap();
        w.add(b"b", Some(&[1])).unwrap();
        assert!(w.add(b"a", Some(&[2])).is_err());
        assert!(w.add(b"b", Some(&[2])).is_err()); // duplicates too
    }

    #[test]
    fn full_iteration_is_sorted_and_complete() {
        let (path, _) = build_table("iter", 300);
        let r = SstReader::open(&RealFs, &path).unwrap();
        let all: Vec<_> = r.iter().collect();
        assert_eq!(all.len(), 300);
        for w in all.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn range_iteration_bounds() {
        let (path, _) = build_table("range", 100);
        let r = SstReader::open(&RealFs, &path).unwrap();
        let slice: Vec<_> = r
            .range(b"key000010", Some(b"key000020"))
            .map(|(k, _)| k)
            .collect();
        assert_eq!(slice.len(), 10);
        assert_eq!(slice[0], b"key000010");
        assert_eq!(slice[9], b"key000019");
        // Open-ended range reaches the last key.
        assert_eq!(r.range(b"key000098", None).count(), 2);
        // A start before the first key covers the table.
        assert_eq!(r.range(b"a", None).count(), 100);
    }

    #[test]
    fn corrupted_block_detected() {
        let (path, _) = build_table("corrupt", 200);
        let mut raw = std::fs::read(&path).unwrap();
        raw[10] ^= 0xff; // flip a data byte in the first block
        std::fs::write(&path, &raw).unwrap();
        // No reader exists over a bad block: the open itself fails, and
        // says which block of which file.
        match SstReader::open(&RealFs, &path) {
            Err(RailgunError::Corruption(m)) => {
                assert!(
                    m.contains("t.sst") && m.contains("block 0 crc mismatch"),
                    "{m}"
                );
            }
            other => panic!("expected Corruption, got {:?}", other.map(|_| "a reader")),
        }
    }

    #[test]
    fn corrupted_magic_detected() {
        let (path, _) = build_table("magic", 10);
        let mut raw = std::fs::read(&path).unwrap();
        let n = raw.len();
        raw[n - 1] ^= 0xff;
        std::fs::write(&path, &raw).unwrap();
        assert!(SstReader::open(&RealFs, &path).is_err());
    }

    #[test]
    fn empty_table_is_readable() {
        let raw = table_bytes("empty", 256, 10, []);
        let r = SstReader::from_bytes(Bytes::from(raw)).unwrap();
        assert_eq!(r.entry_count(), 0);
        assert_eq!(r.get(b"k"), None);
        assert_eq!(r.iter().count(), 0);
        assert_eq!(r.range(b"", None).count(), 0);
    }

    /// A three-block table (48-byte blocks, 10 bloom bits/key) exactly as
    /// the writer before the in-place reader produced it.
    const PARENT_FORMAT_TABLE: &str = "\
        000a656d7074792d6b657901016102006162030d6162637072656669782d636861696e0909636172642f303030310001\
        020304050607341893380900636172642f303030320941636172642f30303033612076616c7565206c6f6e6720656e6f\
        75676820746f206f766572666c6f77207468652034382d6279746520626c6f636b206f6e20697473206f776e2e2e2e2e\
        88c2af4b02057a7a6c6173747c41627a0300003a09636172642f303030323a5a027a7a94010cf9f2ffa050060202eb62\
        e065f28b2c25d1000000000000a0000000000000001a00000000000000ba000000000000001300000000000000080000\
        0000000000015453534c494152";

    fn parent_format_entries() -> Vec<KvRef<'static>> {
        vec![
            (b"", Some(b"empty-key")),
            (b"a", Some(b"")),
            (b"ab", None),
            (b"abc", Some(b"prefix-chain")),
            (b"card/0001", Some(b"\x00\x01\x02\x03\x04\x05\x06\x07")),
            (b"card/0002", None),
            (
                b"card/0003",
                Some(b"a value long enough to overflow the 48-byte block on its own...."),
            ),
            (b"zz", Some(b"last")),
        ]
    }

    fn parent_format_table() -> Vec<u8> {
        (0..PARENT_FORMAT_TABLE.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&PARENT_FORMAT_TABLE[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The file format did not move: an old table reads entry for entry,
    /// and the writer (one reused key buffer, bloom from hashes) still
    /// produces it byte for byte — bloom bits included.
    #[test]
    fn parent_format_table_reads_and_is_rewritten_byte_identically() {
        let raw = parent_format_table();
        let entries = parent_format_entries();
        let r = SstReader::from_bytes(Bytes::from(raw.clone())).unwrap();
        assert_eq!(r.index.len(), 3);
        assert_eq!(r.iter().collect::<Vec<_>>(), entries);
        for (k, v) in &entries {
            assert_eq!(r.get(k), Some(*v));
        }
        assert_eq!(table_bytes("golden", 48, 10, entries), raw);
    }

    /// Every byte of a table except the bloom filter (which the format
    /// gives no checksum) is covered by the one check at open.
    #[test]
    fn any_flipped_byte_outside_the_bloom_fails_the_open() {
        let raw = parent_format_table();
        let footer = &raw[raw.len() - FOOTER_LEN..];
        let word = |i: usize| u64::from_le_bytes(footer[i * 8..][..8].try_into().unwrap()) as usize;
        let bloom = word(2)..word(2) + word(3);
        for pos in (0..raw.len()).filter(|p| !bloom.contains(p)) {
            for bit in 0..8 {
                let mut bad = raw.clone();
                bad[pos] ^= 1 << bit;
                assert!(
                    matches!(
                        SstReader::from_bytes(Bytes::from(bad)),
                        Err(RailgunError::Corruption(_))
                    ),
                    "bit {bit} of byte {pos} flipped and the table still opened"
                );
            }
        }
    }

    /// Recompute the CRC of the first (only) data block after a test
    /// rewrote its payload, so the entry decoder is what has to object.
    fn reseal_only_block(raw: &mut [u8]) {
        let footer = raw.len() - FOOTER_LEN;
        let index_off = u64::from_le_bytes(raw[footer..][..8].try_into().unwrap()) as usize;
        let crc = crc32c(&raw[..index_off - 4]);
        raw[index_off - 4..index_off].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn malformed_entries_behind_a_valid_crc_are_corruption() {
        // One block, one entry: [klen=1, vtag=13, 'k', 12 value bytes].
        let good = table_bytes(
            "malformed",
            4096,
            10,
            [(&b"k"[..], Some(&b"abcdefghijkl"[..]))],
        );
        assert_eq!(&good[..4], &[1, 13, b'k', b'a']);
        let cases: [(&str, Vec<(usize, u8)>); 6] = [
            ("key overruns the block", vec![(0, 16)]),
            ("value overruns the block", vec![(1, 14)]),
            // A value one byte shorter leaves a second entry of one byte.
            ("entry cut inside its header", vec![(1, 12)]),
            ("varint runs off the block", vec![(1, 12), (14, 0x80)]),
            (
                "varint longer than a u64",
                (0..15).map(|i| (i, 0xff)).collect(),
            ),
            // [1, 6, 'k', 5 bytes] then [1, 5, 'j', 4 bytes].
            (
                "keys out of order",
                vec![(1, 6), (8, 1), (9, 5), (10, b'j')],
            ),
        ];
        for (what, patch) in cases {
            let mut bad = good.clone();
            for (pos, byte) in patch {
                bad[pos] = byte;
            }
            reseal_only_block(&mut bad);
            assert!(
                matches!(
                    SstReader::from_bytes(Bytes::from(bad)),
                    Err(RailgunError::Corruption(_))
                ),
                "{what}"
            );
        }
    }

    static CASE: AtomicU64 = AtomicU64::new(0);

    fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            1 => Just(Vec::new()),
            // A tiny alphabet: many keys are prefixes of one another.
            12 => proptest::collection::vec(0u8..3, 1..6),
            2 => proptest::collection::vec(any::<u8>(), 1..24),
            1 => proptest::collection::vec(any::<u8>(), 300..301),
        ]
    }

    fn value_strategy() -> impl Strategy<Value = Option<Vec<u8>>> {
        prop_oneof![
            Just(None),
            Just(Some(Vec::new())),
            proptest::collection::vec(any::<u8>(), 1..60).prop_map(Some),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The block cursor against a `BTreeMap`, at the block edges:
        /// tables of 1..N blocks, and probes at, just below and just
        /// above every stored key — which covers each block's first and
        /// last key, the gap between two blocks, and both ends of the
        /// table. One bloom bit per key lets most absent probes through
        /// to the cursor.
        #[test]
        fn reader_matches_a_btreemap_model(
            entries in proptest::collection::vec((key_strategy(), value_strategy()), 0..120),
            block_size in 64usize..4096,
            bounds in proptest::collection::vec(
                (key_strategy(), proptest::option::of(key_strategy())), 8),
        ) {
            let model: BTreeMap<Vec<u8>, Option<Vec<u8>>> = entries.into_iter().collect();
            let name = format!("model-{}", CASE.fetch_add(1, Ordering::Relaxed));
            let raw = table_bytes(
                &name, block_size, 1, model.iter().map(|(k, v)| (k.as_slice(), v.as_deref())));
            std::fs::remove_dir_all(tmpdir(&name)).ok();
            let r = SstReader::from_bytes(Bytes::from(raw)).unwrap();
            let as_refs = |(k, v): (&'_ Vec<u8>, &'_ Option<Vec<u8>>)| -> (Vec<u8>, Option<Vec<u8>>) {
                (k.clone(), v.clone())
            };
            let owned = |(k, v): KvRef<'_>| (k.to_vec(), v.map(<[u8]>::to_vec));

            prop_assert_eq!(r.entry_count(), model.len() as u64);
            prop_assert_eq!(
                r.iter().map(owned).collect::<Vec<_>>(),
                model.iter().map(as_refs).collect::<Vec<_>>()
            );
            for key in model.keys() {
                let below = &key[..key.len().saturating_sub(1)];
                let above = [key.as_slice(), &[0]].concat();
                for probe in [key.as_slice(), below, &above] {
                    prop_assert_eq!(
                        r.get(probe),
                        model.get(probe).map(|v| v.as_deref()),
                        "get({:?})", probe
                    );
                }
            }
            for (start, end) in &bounds {
                let want: Vec<_> = model
                    .iter()
                    .filter(|(k, _)| *k >= start && end.as_ref().is_none_or(|e| *k < e))
                    .map(as_refs)
                    .collect();
                prop_assert_eq!(
                    r.range(start, end.as_deref()).map(owned).collect::<Vec<_>>(),
                    want,
                    "range({:?}, {:?})", start, end
                );
            }
        }

        /// Arbitrary damage to a block's payload under a matching CRC is
        /// `Corruption` or a table that still reads end to end — never a
        /// panic or an out-of-bounds slice.
        #[test]
        fn damaged_payloads_never_panic(
            entries in proptest::collection::vec((key_strategy(), value_strategy()), 1..40),
            damage in proptest::collection::vec((any::<u32>(), any::<u8>()), 1..4),
        ) {
            let model: BTreeMap<Vec<u8>, Option<Vec<u8>>> = entries.into_iter().collect();
            let name = format!("damage-{}", CASE.fetch_add(1, Ordering::Relaxed));
            let mut raw = table_bytes(
                &name, 1 << 20, 10, model.iter().map(|(k, v)| (k.as_slice(), v.as_deref())));
            std::fs::remove_dir_all(tmpdir(&name)).ok();
            let footer = raw.len() - FOOTER_LEN;
            let payload = u64::from_le_bytes(raw[footer..][..8].try_into().unwrap()) as usize - 4;
            for (pos, byte) in damage {
                raw[pos as usize % payload] = byte;
            }
            reseal_only_block(&mut raw);
            match SstReader::from_bytes(Bytes::from(raw)) {
                Ok(r) => prop_assert_eq!(r.iter().count() as u64, r.entry_count()),
                Err(e) => prop_assert!(matches!(e, RailgunError::Corruption(_)), "{e}"),
            }
        }
    }
}
