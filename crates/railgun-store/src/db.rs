//! The database facade: column families, writes, flush, compaction, and
//! scans.
//!
//! One [`Db`] corresponds to one RocksDB instance in the paper: each task
//! processor owns one (share-nothing, §4.1), holding its aggregation states
//! and auxiliary data. Writes go to the memtable and nowhere else, and the
//! table list of each column family lives only in memory: the store is
//! durable at [`Db::checkpoint`] and nowhere else. A checkpoint flushes
//! every column family, links the tables into the image and writes the
//! image's manifest — the image recovery restores (§4.2), with the
//! messaging layer's topic replaying what came after it. Reads merge the
//! memtable with the SSTables newest-first; background maintenance is
//! explicit (`flush`, `compact`) so the engine can schedule it off the
//! latency-critical path.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::{Buf, BufMut};
use parking_lot::Mutex;
use railgun_types::encode::{crc32c, get_string, get_uvarint, put_bytes, put_uvarint};
use railgun_types::{RailgunError, Recorder, Result};

use crate::bloom::BloomFilter;
use crate::memtable::{counter, MemTable};
use crate::merge::MergeIter;
use crate::options::{CfOptions, FilterDecision};
use crate::sstable::{KvRef, SstReader, SstWriter};
use crate::vfs::{RealFs, StoreFs};

/// Identifier of a column family within a [`Db`].
pub type ColumnFamilyId = u32;

/// Tuning options for a [`Db`].
#[derive(Debug, Clone)]
pub struct DbOptions {
    /// Flush a memtable once its approximate size exceeds this.
    pub memtable_budget_bytes: usize,
    /// Bloom filter density; 0 disables blooms (ablation knob).
    pub bloom_bits_per_key: usize,
    /// Compact a column family once it accumulates this many SSTables.
    pub compaction_trigger: usize,
    /// No effect: the store keeps no write-ahead log. Kept only because
    /// the benchmark package sets it.
    pub sync_wal: bool,
    /// Telemetry: memtable-flush latency recorder (off by default — a
    /// disabled recorder never reads the clock; see
    /// `railgun_types::metrics`).
    pub flush_recorder: Recorder,
    /// The filesystem seam every durable byte passes through.
    /// [`RealFs`] in production; swap in [`crate::vfs::FaultFs`] to test
    /// crash behaviour deterministically.
    pub fs: Arc<dyn StoreFs>,
    /// Per-column-family overrides, matched by CF name both at open (for
    /// CFs an image's manifest lists) and at [`Db::create_cf`]. A CF
    /// without an entry derives its [`CfOptions`] from the global fields
    /// above — existing single-policy configurations behave exactly as
    /// before.
    pub cf_options: Vec<(String, CfOptions)>,
}

impl Default for DbOptions {
    fn default() -> Self {
        DbOptions {
            memtable_budget_bytes: 4 << 20,
            bloom_bits_per_key: 10,
            compaction_trigger: 4,
            sync_wal: false,
            flush_recorder: Recorder::disabled(),
            fs: RealFs::shared(),
            cf_options: Vec::new(),
        }
    }
}

impl DbOptions {
    /// The [`CfOptions`] a column family named `name` gets: its
    /// [`DbOptions::cf_options`] entry if present, else the global fields.
    fn resolve_cf_opts(&self, name: &str) -> CfOptions {
        self.cf_options
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, o)| o.clone())
            .unwrap_or(CfOptions {
                memtable_budget_bytes: self.memtable_budget_bytes,
                compaction_trigger: self.compaction_trigger,
                bloom_bits_per_key: self.bloom_bits_per_key,
                filter: None,
            })
    }
}

/// Point-in-time statistics, used by benches and ablations. The
/// aggregate fields are exactly the column sums of [`DbStats::per_cf`]
/// (pinned by a regression test — they used to drift in multi-CF
/// databases because any over-budget CF flushed *every* CF).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DbStats {
    pub column_families: usize,
    pub memtable_bytes: usize,
    pub memtable_entries: usize,
    pub sst_count: usize,
    pub sst_entries: u64,
    pub sst_bytes: u64,
    pub flushes: u64,
    pub compactions: u64,
    /// Live entries dropped by compaction filters over this handle's
    /// lifetime (in-memory counter, not persisted across opens).
    pub filter_dropped: u64,
    /// Per-column-family breakdown, sorted by CF id.
    pub per_cf: Vec<CfStats>,
}

/// Per-column-family slice of [`DbStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CfStats {
    pub id: ColumnFamilyId,
    pub name: String,
    pub memtable_bytes: usize,
    pub memtable_entries: usize,
    pub sst_count: usize,
    pub sst_entries: u64,
    pub sst_bytes: u64,
}

struct SstHandle {
    file_no: u64,
    reader: SstReader,
}

struct CfState {
    name: String,
    opts: CfOptions,
    mem: MemTable,
    /// Newest first.
    ssts: Vec<SstHandle>,
}

/// The newest table write of `key` in `ssts` (newest first), hashing the
/// key once for every table's bloom.
fn table_get<'a>(ssts: &'a [SstHandle], key: &[u8]) -> Option<Option<&'a [u8]>> {
    if ssts.is_empty() {
        return None;
    }
    let hashes = BloomFilter::probe_hashes(key);
    ssts.iter().find_map(|h| h.reader.get_hashed(key, hashes))
}

struct Inner {
    /// Indexed by [`ColumnFamilyId`]: ids are handed out in order and no
    /// column family is ever dropped.
    cfs: Vec<CfState>,
    next_file_no: u64,
    flushes: u64,
    compactions: u64,
    filter_dropped: u64,
}

impl Inner {
    fn cf(&self, cf: ColumnFamilyId) -> Result<&CfState> {
        self.cfs.get(cf as usize).ok_or_else(|| no_such_cf(cf))
    }

    fn cf_mut(&mut self, cf: ColumnFamilyId) -> Result<&mut CfState> {
        self.cfs.get_mut(cf as usize).ok_or_else(|| no_such_cf(cf))
    }
}

fn no_such_cf(cf: ColumnFamilyId) -> RailgunError {
    RailgunError::NotFound(format!("column family {cf}"))
}

/// An embedded LSM key-value store with column families.
pub struct Db {
    dir: PathBuf,
    opts: DbOptions,
    inner: Mutex<Inner>,
}

/// The table list of every column family, as an image holds it.
pub(crate) const MANIFEST: &str = "MANIFEST";
/// Where an older store logged its unflushed writes. [`Db::open`]
/// refuses a non-empty one rather than drop what it holds; checkpoints
/// still write it empty, as their completeness marker
/// ([`crate::checkpoint`]).
pub(crate) const WAL_FILE: &str = "wal.log";
const MANIFEST_MAGIC: u64 = 0x5241_494c_4d41_4e01;

impl Db {
    /// The column family every database starts with.
    pub const DEFAULT_CF: ColumnFamilyId = 0;

    /// Open a database in `dir`: empty, or the image a [`Db::checkpoint`]
    /// wrote there.
    ///
    /// A `MANIFEST` is read only as an image's: every table it lists is
    /// checked completely, and a table with a corrupt block fails the open
    /// with [`RailgunError::Corruption`] naming the file. So does a table
    /// the manifest does not list (or any table, with no manifest), and a
    /// non-empty `wal.log` (writes an older store logged and never
    /// flushed). A refused open touches nothing in the directory.
    pub fn open(dir: &Path, opts: DbOptions) -> Result<Self> {
        let fs = Arc::clone(&opts.fs);
        fs.create_dir_all(dir)?;
        let wal = dir.join(WAL_FILE);
        if fs.exists(&wal) && fs.file_len(&wal)? > 0 {
            return Err(RailgunError::Corruption(format!(
                "{} holds logged writes this store cannot replay",
                wal.display()
            )));
        }
        let manifest_path = dir.join(MANIFEST);
        let (cfs, next_file_no) = if fs.exists(&manifest_path) {
            Self::load_manifest(fs.as_ref(), dir, &manifest_path, &opts)?
        } else {
            let default = CfState {
                name: "default".to_owned(),
                opts: opts.resolve_cf_opts("default"),
                mem: MemTable::new(),
                ssts: Vec::new(),
            };
            (vec![default], 1)
        };
        // Only an image's manifest says which tables are state: a table it
        // does not list is not part of any image this store wrote.
        let listed: HashSet<String> = cfs
            .iter()
            .flat_map(|cf| cf.ssts.iter().map(|h| sst_file_name(h.file_no)))
            .collect();
        if let Some(name) = fs
            .read_dir_files(dir)?
            .into_iter()
            .find(|name| name.ends_with(".sst") && !listed.contains(name))
        {
            return Err(RailgunError::Corruption(format!(
                "{} is a table no {MANIFEST} lists",
                dir.join(name).display()
            )));
        }
        Ok(Db {
            dir: dir.to_path_buf(),
            opts,
            inner: Mutex::new(Inner {
                cfs,
                next_file_no,
                flushes: 0,
                compactions: 0,
                filter_dropped: 0,
            }),
        })
    }

    fn load_manifest(
        fs: &dyn StoreFs,
        dir: &Path,
        path: &Path,
        opts: &DbOptions,
    ) -> Result<(Vec<CfState>, u64)> {
        let raw = fs.read(path)?;
        if raw.len() < 4 {
            return Err(RailgunError::Corruption("manifest too small".into()));
        }
        let (payload, crc_bytes) = raw.split_at(raw.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4b"));
        if crc32c(payload) != stored {
            return Err(RailgunError::Corruption("manifest crc mismatch".into()));
        }
        let mut cur = payload;
        if cur.remaining() < 8 || cur.get_u64_le() != MANIFEST_MAGIC {
            return Err(RailgunError::Corruption("bad manifest magic".into()));
        }
        let _next_cf_id = get_uvarint(&mut cur)?; // the CF count: ids are dense
        let next_file_no = get_uvarint(&mut cur)?;
        let cf_count = get_uvarint(&mut cur)?;
        let mut cfs = Vec::new();
        for id in 0..cf_count {
            if get_uvarint(&mut cur)? != id {
                return Err(RailgunError::Corruption(format!(
                    "manifest lists column family {id} out of order"
                )));
            }
            let name = get_string(&mut cur)?;
            let sst_count = get_uvarint(&mut cur)? as usize;
            let mut ssts = Vec::with_capacity(sst_count);
            for _ in 0..sst_count {
                let file_no = get_uvarint(&mut cur)?;
                let reader = SstReader::open(fs, &dir.join(sst_file_name(file_no)))?;
                ssts.push(SstHandle { file_no, reader });
            }
            cfs.push(CfState {
                opts: opts.resolve_cf_opts(&name),
                name,
                mem: MemTable::new(),
                ssts,
            });
        }
        Ok((cfs, next_file_no))
    }

    /// The manifest of the tables `inner` holds now, in the format
    /// [`Db::open`] reads.
    fn encode_manifest(inner: &Inner) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u64_le(MANIFEST_MAGIC);
        // The next CF id, then the CFs in id order.
        put_uvarint(&mut buf, inner.cfs.len() as u64);
        put_uvarint(&mut buf, inner.next_file_no);
        put_uvarint(&mut buf, inner.cfs.len() as u64);
        for (id, cf) in inner.cfs.iter().enumerate() {
            put_uvarint(&mut buf, id as u64);
            put_bytes(&mut buf, cf.name.as_bytes());
            put_uvarint(&mut buf, cf.ssts.len() as u64);
            for h in &cf.ssts {
                put_uvarint(&mut buf, h.file_no);
            }
        }
        let crc = crc32c(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Create a new column family with options resolved from
    /// [`DbOptions::cf_options`] (global fallbacks when no entry matches).
    /// Fails if the name is taken.
    pub fn create_cf(&self, name: &str) -> Result<ColumnFamilyId> {
        let mut inner = self.inner.lock();
        if inner.cfs.iter().any(|cf| cf.name == name) {
            return Err(RailgunError::InvalidArgument(format!(
                "column family `{name}` already exists"
            )));
        }
        inner.cfs.push(CfState {
            name: name.to_owned(),
            opts: self.opts.resolve_cf_opts(name),
            mem: MemTable::new(),
            ssts: Vec::new(),
        });
        Ok(inner.cfs.len() as ColumnFamilyId - 1)
    }

    /// Look up a column family id by name.
    pub fn cf_by_name(&self, name: &str) -> Option<ColumnFamilyId> {
        let inner = self.inner.lock();
        let id = inner.cfs.iter().position(|cf| cf.name == name)?;
        Some(id as ColumnFamilyId)
    }

    /// Write `key = value` in column family `cf`. Durable once a
    /// [`Db::checkpoint`] has written it into an image.
    pub fn put(&self, cf: ColumnFamilyId, key: &[u8], value: &[u8]) -> Result<()> {
        self.write(cf, |state| {
            state.mem.put(key, value);
            Ok(())
        })
    }

    /// Delete `key` in column family `cf`. Durable once a
    /// [`Db::checkpoint`] has written it into an image.
    pub fn delete(&self, cf: ColumnFamilyId, key: &[u8]) -> Result<()> {
        self.write(cf, |state| {
            state.mem.delete(key);
            Ok(())
        })
    }

    /// Read-modify-write of an 8-byte little-endian counter under one
    /// lock: reads the counter at `key` (0 when absent), writes `f(old)`
    /// (0 deletes the key) and returns `old`. When the memtable holds a
    /// write of `key` this is one probe of its slot; otherwise the tables
    /// are read once, with the key hashed once for all their blooms. A
    /// value that is not exactly 8 bytes is [`RailgunError::Corruption`],
    /// and nothing is written. Durable once a [`Db::checkpoint`] has
    /// written it into an image.
    pub fn update_u64(
        &self,
        cf: ColumnFamilyId,
        key: &[u8],
        f: impl FnOnce(u64) -> u64,
    ) -> Result<u64> {
        self.write(cf, |state| {
            let ssts = &state.ssts;
            state
                .mem
                .update_u64(key, || counter(table_get(ssts, key).flatten()), f)
        })
    }

    /// Apply one write to `cf` and flush its memtable if the write took
    /// it past its budget — the only one a write can grow.
    fn write<T>(
        &self,
        cf: ColumnFamilyId,
        apply: impl FnOnce(&mut CfState) -> Result<T>,
    ) -> Result<T> {
        let mut inner = self.inner.lock();
        let state = inner.cf_mut(cf)?;
        let out = apply(state)?;
        if state.mem.approx_bytes() <= state.opts.memtable_budget_bytes {
            return Ok(out);
        }
        let timer = self.opts.flush_recorder.start();
        let result = self.flush_cfs_locked(&mut inner, vec![cf]);
        self.opts.flush_recorder.finish(timer);
        result?;
        self.maybe_compact_locked(&mut inner)?;
        Ok(out)
    }

    /// Read the current value of `key`, if live.
    pub fn get(&self, cf: ColumnFamilyId, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_in(cf, key, <[u8]>::to_vec)
    }

    /// Read `key` and apply `f` to the value in place — the hot-path read
    /// that copies the value out of neither the memtable nor an SSTable
    /// (aggregation states are decoded directly from the borrowed bytes).
    pub fn get_in<T>(
        &self,
        cf: ColumnFamilyId,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> T,
    ) -> Result<Option<T>> {
        let inner = self.inner.lock();
        let state = inner.cf(cf)?;
        let entry = match state.mem.get(key) {
            Some(entry) => entry.as_deref(),
            None => table_get(&state.ssts, key).flatten(),
        };
        Ok(entry.map(f))
    }

    /// Scan all live keys in `[start, end)` (end `None` = unbounded),
    /// merged across memtable and SSTables, tombstones elided.
    pub fn scan(
        &self,
        cf: ColumnFamilyId,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut inner = self.inner.lock();
        let CfState { mem, ssts, .. } = inner.cf_mut(cf)?;
        let mem = mem.range(start, end).map(|(k, e)| (k, e.as_deref()));
        let mut sources: Vec<Box<dyn Iterator<Item = KvRef<'_>> + '_>> = vec![Box::new(mem)];
        for h in ssts.iter() {
            sources.push(Box::new(h.reader.range(start, end)));
        }
        Ok(MergeIter::new(sources, true)
            .filter_map(|(k, v)| Some((k.to_vec(), v?.to_vec())))
            .collect())
    }

    /// Scan all live keys sharing `prefix`.
    pub fn scan_prefix(
        &self,
        cf: ColumnFamilyId,
        prefix: &[u8],
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        match prefix_upper_bound(prefix) {
            Some(end) => self.scan(cf, prefix, Some(&end)),
            None => self.scan(cf, prefix, None),
        }
    }

    /// Flush every non-empty memtable to a new SSTable.
    pub fn flush(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        self.flush_locked(&mut inner)
    }

    fn flush_locked(&self, inner: &mut Inner) -> Result<()> {
        let cf_ids: Vec<ColumnFamilyId> = (0..inner.cfs.len() as ColumnFamilyId)
            .filter(|&id| !inner.cfs[id as usize].mem.is_empty())
            .collect();
        if cf_ids.is_empty() {
            return Ok(());
        }
        let timer = self.opts.flush_recorder.start();
        let result = self.flush_cfs_locked(inner, cf_ids);
        self.opts.flush_recorder.finish(timer);
        result
    }

    fn flush_cfs_locked(&self, inner: &mut Inner, cf_ids: Vec<ColumnFamilyId>) -> Result<()> {
        let fs = Arc::clone(&self.opts.fs);
        for id in cf_ids {
            let file_no = inner.next_file_no;
            inner.next_file_no += 1;
            let path = self.dir.join(sst_file_name(file_no));
            let cf = &mut inner.cfs[id as usize];
            let mut w = SstWriter::create(
                fs.as_ref(),
                &path,
                crate::sstable::DEFAULT_BLOCK_SIZE,
                cf.opts.bloom_bits_per_key.max(1),
            )?;
            for (k, entry) in cf.mem.drain_sorted() {
                w.add(&k, entry.as_deref())?;
            }
            w.finish()?;
            let reader = SstReader::open(fs.as_ref(), &path)?;
            cf.ssts.insert(0, SstHandle { file_no, reader });
            inner.flushes += 1;
        }
        Ok(())
    }

    fn maybe_compact_locked(&self, inner: &mut Inner) -> Result<()> {
        let ids: Vec<ColumnFamilyId> = (0..inner.cfs.len() as ColumnFamilyId)
            .filter(|&id| {
                let cf = &inner.cfs[id as usize];
                cf.ssts.len() >= cf.opts.compaction_trigger
            })
            .collect();
        for id in ids {
            self.compact_cf_locked(inner, id)?;
        }
        Ok(())
    }

    /// Merge every SSTable of `cf` into one, dropping shadowed versions,
    /// tombstones, and (when the CF has a [`CompactionFilter`]
    /// installed) every live entry the filter discards.
    ///
    /// [`CompactionFilter`]: crate::CompactionFilter
    pub fn compact_cf(&self, cf: ColumnFamilyId) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.cf(cf)?;
        self.compact_cf_locked(&mut inner, cf)
    }

    fn compact_cf_locked(&self, inner: &mut Inner, id: ColumnFamilyId) -> Result<()> {
        let filter = inner.cfs[id as usize].opts.filter.clone();
        // A filterless compaction needs at least two inputs to do useful
        // work; with a filter installed, rewriting even a single table
        // reclaims dead entries on demand.
        let min_inputs = if filter.is_some() { 1 } else { 2 };
        if inner.cfs[id as usize].ssts.len() < min_inputs {
            return Ok(());
        }
        let file_no = inner.next_file_no;
        inner.next_file_no += 1;
        let path = self.dir.join(sst_file_name(file_no));
        let fs = Arc::clone(&self.opts.fs);
        let cf = &mut inner.cfs[id as usize];
        let mut dropped = 0u64;
        {
            let sources: Vec<Box<dyn Iterator<Item = KvRef<'_>> + '_>> = cf
                .ssts
                .iter()
                .map(|h| Box::new(h.reader.iter()) as Box<dyn Iterator<Item = KvRef<'_>>>)
                .collect();
            // Tombstones can be dropped: this merge covers every sorted run
            // older than the memtable, so nothing older remains to shadow.
            let merged = MergeIter::new(sources, true);
            let mut w = SstWriter::create(
                fs.as_ref(),
                &path,
                crate::sstable::DEFAULT_BLOCK_SIZE,
                cf.opts.bloom_bits_per_key.max(1),
            )?;
            for (k, entry) in merged {
                if let (Some(flt), Some(v)) = (filter.as_deref(), entry) {
                    if flt.filter(k, v) == FilterDecision::Discard {
                        dropped += 1;
                        continue;
                    }
                }
                w.add(k, entry)?;
            }
            w.finish()?;
        }
        let old: Vec<u64> = cf.ssts.iter().map(|h| h.file_no).collect();
        let reader = SstReader::open(fs.as_ref(), &path)?;
        cf.ssts = vec![SstHandle { file_no, reader }];
        inner.compactions += 1;
        inner.filter_dropped += dropped;
        // Unlinking an input drops this directory's name for it; an image
        // that links the table keeps its own. Nothing else would notice a
        // table left behind, so only one already gone is fine.
        for no in old {
            match fs.remove_file(&self.dir.join(sst_file_name(no))) {
                Err(RailgunError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
                r => r?,
            }
        }
        Ok(())
    }

    /// Create a consistent checkpoint of the whole database in `target`:
    /// the store's one durability point.
    ///
    /// Flushes every memtable, then writes the image
    /// ([`crate::checkpoint::create`]): hard links to the tables, each
    /// fsynced when it was written and never changed after, and a manifest
    /// written fresh from the in-memory table lists. The checkpoint
    /// directory opens with [`Db::open`] — this is how a recovering task
    /// processor bootstraps (paper §4.2).
    pub fn checkpoint(&self, target: &Path) -> Result<()> {
        let mut inner = self.inner.lock();
        self.flush_locked(&mut inner)?;
        let tables: Vec<String> = inner
            .cfs
            .iter()
            .flat_map(|cf| &cf.ssts)
            .map(|h| sst_file_name(h.file_no))
            .collect();
        crate::checkpoint::create(
            self.opts.fs.as_ref(),
            &self.dir,
            target,
            &tables,
            &Self::encode_manifest(&inner),
        )
    }

    /// Current statistics snapshot. Aggregates are computed as the column
    /// sums of the per-CF breakdown, so they cannot drift from it.
    pub fn stats(&self) -> DbStats {
        let inner = self.inner.lock();
        let per_cf: Vec<CfStats> = inner
            .cfs
            .iter()
            .enumerate()
            .map(|(id, cf)| {
                let mut c = CfStats {
                    id: id as ColumnFamilyId,
                    name: cf.name.clone(),
                    memtable_bytes: cf.mem.approx_bytes(),
                    memtable_entries: cf.mem.len(),
                    sst_count: cf.ssts.len(),
                    ..CfStats::default()
                };
                for h in &cf.ssts {
                    c.sst_entries += h.reader.entry_count();
                    c.sst_bytes += h.reader.file_bytes() as u64;
                }
                c
            })
            .collect();
        let mut s = DbStats {
            column_families: inner.cfs.len(),
            flushes: inner.flushes,
            compactions: inner.compactions,
            filter_dropped: inner.filter_dropped,
            ..DbStats::default()
        };
        for c in &per_cf {
            s.memtable_bytes += c.memtable_bytes;
            s.memtable_entries += c.memtable_entries;
            s.sst_count += c.sst_count;
            s.sst_entries += c.sst_entries;
            s.sst_bytes += c.sst_bytes;
        }
        s.per_cf = per_cf;
        s
    }

    /// Directory this database lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

fn sst_file_name(no: u64) -> String {
    format!("{no:08}.sst")
}

/// Smallest byte string strictly greater than every string with `prefix`.
fn prefix_upper_bound(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut end = prefix.to_vec();
    while let Some(last) = end.last_mut() {
        if *last < 0xff {
            *last += 1;
            return Some(end);
        }
        end.pop();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn fresh_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("railgun-db-{}-{name}", std::process::id()));
        fs::remove_dir_all(&d).ok();
        d
    }

    fn small_opts() -> DbOptions {
        DbOptions {
            memtable_budget_bytes: 2048,
            compaction_trigger: 3,
            ..DbOptions::default()
        }
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let dir = fresh_dir("basic");
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        db.put(Db::DEFAULT_CF, b"k1", b"v1").unwrap();
        assert_eq!(db.get(Db::DEFAULT_CF, b"k1").unwrap(), Some(b"v1".to_vec()));
        db.delete(Db::DEFAULT_CF, b"k1").unwrap();
        assert_eq!(db.get(Db::DEFAULT_CF, b"k1").unwrap(), None);
        assert_eq!(db.get(Db::DEFAULT_CF, b"nope").unwrap(), None);
    }

    #[test]
    fn reads_span_memtable_and_ssts() {
        let dir = fresh_dir("span");
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        db.put(Db::DEFAULT_CF, b"old", b"1").unwrap();
        db.flush().unwrap();
        db.put(Db::DEFAULT_CF, b"new", b"2").unwrap();
        assert_eq!(db.get(Db::DEFAULT_CF, b"old").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(Db::DEFAULT_CF, b"new").unwrap(), Some(b"2".to_vec()));
        // Overwrite in memtable shadows the SST.
        db.put(Db::DEFAULT_CF, b"old", b"updated").unwrap();
        assert_eq!(
            db.get(Db::DEFAULT_CF, b"old").unwrap(),
            Some(b"updated".to_vec())
        );
        // Tombstone in memtable shadows the SST.
        db.delete(Db::DEFAULT_CF, b"old").unwrap();
        assert_eq!(db.get(Db::DEFAULT_CF, b"old").unwrap(), None);
    }

    #[test]
    fn restart_after_flush_reads_ssts() {
        let dir = fresh_dir("restart");
        let image = fresh_dir("restart-image");
        {
            let db = Db::open(&dir, DbOptions::default()).unwrap();
            for i in 0..100u32 {
                db.put(Db::DEFAULT_CF, format!("k{i:04}").as_bytes(), &i.to_le_bytes())
                    .unwrap();
            }
            db.flush().unwrap();
            db.checkpoint(&image).unwrap();
        }
        let db = Db::open(&image, DbOptions::default()).unwrap();
        for i in (0..100u32).step_by(7) {
            assert_eq!(
                db.get(Db::DEFAULT_CF, format!("k{i:04}").as_bytes()).unwrap(),
                Some(i.to_le_bytes().to_vec())
            );
        }
    }

    #[test]
    fn automatic_flush_and_compaction() {
        let dir = fresh_dir("autoflush");
        let db = Db::open(&dir, small_opts()).unwrap();
        for i in 0..2000u32 {
            db.put(
                Db::DEFAULT_CF,
                format!("key{i:05}").as_bytes(),
                &[0u8; 64],
            )
            .unwrap();
        }
        let stats = db.stats();
        assert!(stats.flushes > 0, "expected automatic flushes");
        assert!(stats.compactions > 0, "expected automatic compactions");
        // All data still readable.
        assert_eq!(
            db.get(Db::DEFAULT_CF, b"key00000").unwrap(),
            Some(vec![0u8; 64])
        );
        assert_eq!(
            db.get(Db::DEFAULT_CF, b"key01999").unwrap(),
            Some(vec![0u8; 64])
        );
    }

    #[test]
    fn compaction_drops_tombstones_and_duplicates() {
        let dir = fresh_dir("compact");
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        db.put(Db::DEFAULT_CF, b"a", b"1").unwrap();
        db.put(Db::DEFAULT_CF, b"b", b"1").unwrap();
        db.flush().unwrap();
        db.put(Db::DEFAULT_CF, b"a", b"2").unwrap();
        db.delete(Db::DEFAULT_CF, b"b").unwrap();
        db.flush().unwrap();
        let before = db.stats();
        assert_eq!(before.sst_count, 2);
        assert_eq!(before.sst_entries, 4);
        db.compact_cf(Db::DEFAULT_CF).unwrap();
        let after = db.stats();
        assert_eq!(after.sst_count, 1);
        assert_eq!(after.sst_entries, 1); // only a=2 survives
        assert_eq!(db.get(Db::DEFAULT_CF, b"a").unwrap(), Some(b"2".to_vec()));
        assert_eq!(db.get(Db::DEFAULT_CF, b"b").unwrap(), None);
    }

    #[test]
    fn column_families_are_isolated() {
        let dir = fresh_dir("cf");
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        let aux = db.create_cf("distinct-aux").unwrap();
        db.put(Db::DEFAULT_CF, b"k", b"default").unwrap();
        db.put(aux, b"k", b"aux").unwrap();
        assert_eq!(db.get(Db::DEFAULT_CF, b"k").unwrap(), Some(b"default".to_vec()));
        assert_eq!(db.get(aux, b"k").unwrap(), Some(b"aux".to_vec()));
        db.delete(aux, b"k").unwrap();
        assert_eq!(db.get(Db::DEFAULT_CF, b"k").unwrap(), Some(b"default".to_vec()));
        assert_eq!(db.get(aux, b"k").unwrap(), None);
    }

    #[test]
    fn column_families_survive_restart() {
        let dir = fresh_dir("cfrestart");
        let image = fresh_dir("cfrestart-image");
        let aux;
        {
            let db = Db::open(&dir, DbOptions::default()).unwrap();
            aux = db.create_cf("aux").unwrap();
            db.put(aux, b"x", b"1").unwrap();
            db.checkpoint(&image).unwrap();
        }
        let db = Db::open(&image, DbOptions::default()).unwrap();
        assert_eq!(db.cf_by_name("aux"), Some(aux));
        assert_eq!(db.get(aux, b"x").unwrap(), Some(b"1".to_vec()));
    }

    #[test]
    fn duplicate_cf_name_rejected() {
        let dir = fresh_dir("cfdup");
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        db.create_cf("aux").unwrap();
        assert!(db.create_cf("aux").is_err());
        assert!(db.create_cf("default").is_err());
    }

    #[test]
    fn unknown_cf_errors() {
        let dir = fresh_dir("cfmissing");
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        assert!(db.put(99, b"k", b"v").is_err());
        assert!(db.get(99, b"k").is_err());
        assert!(db.delete(99, b"k").is_err());
        assert!(db.scan(99, b"", None).is_err());
    }

    #[test]
    fn scan_merges_runs_and_elides_tombstones() {
        let dir = fresh_dir("scan");
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        db.put(Db::DEFAULT_CF, b"p/a", b"1").unwrap();
        db.put(Db::DEFAULT_CF, b"p/b", b"2").unwrap();
        db.put(Db::DEFAULT_CF, b"q/c", b"3").unwrap();
        db.flush().unwrap();
        db.put(Db::DEFAULT_CF, b"p/b", b"2-new").unwrap();
        db.delete(Db::DEFAULT_CF, b"p/a").unwrap();
        db.put(Db::DEFAULT_CF, b"p/d", b"4").unwrap();
        let got = db.scan_prefix(Db::DEFAULT_CF, b"p/").unwrap();
        assert_eq!(
            got,
            vec![
                (b"p/b".to_vec(), b"2-new".to_vec()),
                (b"p/d".to_vec(), b"4".to_vec()),
            ]
        );
    }

    #[test]
    fn scan_prefix_handles_0xff_prefix() {
        let dir = fresh_dir("scanff");
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        db.put(Db::DEFAULT_CF, &[0xff, 0x01], b"1").unwrap();
        db.put(Db::DEFAULT_CF, &[0xff, 0xff, 0x02], b"2").unwrap();
        db.put(Db::DEFAULT_CF, &[0x01], b"other").unwrap();
        let got = db.scan_prefix(Db::DEFAULT_CF, &[0xff]).unwrap();
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn checkpoint_is_openable_and_consistent() {
        let dir = fresh_dir("ckpt-src");
        let ckpt = fresh_dir("ckpt-dst");
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        for i in 0..50u32 {
            db.put(Db::DEFAULT_CF, format!("k{i}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        db.checkpoint(&ckpt).unwrap();
        // Writes after the checkpoint must not leak into it.
        db.put(Db::DEFAULT_CF, b"later", b"x").unwrap();
        let restored = Db::open(&ckpt, DbOptions::default()).unwrap();
        assert_eq!(
            restored.get(Db::DEFAULT_CF, b"k49").unwrap(),
            Some(49u32.to_le_bytes().to_vec())
        );
        assert_eq!(restored.get(Db::DEFAULT_CF, b"later").unwrap(), None);
    }

    #[test]
    fn stats_reflect_state() {
        let dir = fresh_dir("stats");
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        let s0 = db.stats();
        assert_eq!(s0.column_families, 1);
        assert_eq!(s0.sst_count, 0);
        db.put(Db::DEFAULT_CF, b"k", b"v").unwrap();
        assert!(db.stats().memtable_bytes > 0);
        db.flush().unwrap();
        let s1 = db.stats();
        assert_eq!(s1.memtable_entries, 0);
        assert_eq!(s1.sst_count, 1);
        assert_eq!(s1.sst_entries, 1);
        assert!(s1.sst_bytes > 0);
    }

    /// `Db::open(dir)` fails with `Corruption` naming `what` and touches
    /// nothing in `dir`.
    fn assert_refused(dir: &Path, what: &str) {
        let before = dir_image(dir);
        match Db::open(dir, DbOptions::default()) {
            Err(RailgunError::Corruption(m)) => assert!(m.contains(what), "{m}"),
            other => panic!("expected Corruption, got {:?}", other.map(|_| "a database")),
        }
        assert_eq!(
            dir_image(dir),
            before,
            "a refused open must not touch the directory"
        );
    }

    #[test]
    fn open_refuses_tables_no_manifest_lists() {
        let dir = fresh_dir("unlisted");
        let image = fresh_dir("unlisted-image");
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        db.put(Db::DEFAULT_CF, b"live", b"1").unwrap();
        db.checkpoint(&image).unwrap();
        drop(db);
        // The live directory holds a table and no manifest.
        assert_refused(&dir, &sst_file_name(1));
        // An image holding a table its manifest does not list.
        fs::copy(image.join(sst_file_name(1)), image.join("00000099.sst")).unwrap();
        assert_refused(&image, "00000099.sst");
        fs::remove_file(image.join("00000099.sst")).unwrap();
        let db = Db::open(&image, DbOptions::default()).unwrap();
        assert_eq!(db.get(Db::DEFAULT_CF, b"live").unwrap(), Some(b"1".to_vec()));
    }

    #[test]
    fn open_refuses_a_non_empty_wal_log() {
        // An older store logged writes it had not flushed: opening without
        // them would drop them silently.
        let dir = fresh_dir("walrefused");
        let image = fresh_dir("walrefused-image");
        {
            let db = Db::open(&dir, DbOptions::default()).unwrap();
            db.put(Db::DEFAULT_CF, b"a", b"1").unwrap();
            db.checkpoint(&image).unwrap();
        }
        fs::write(image.join(WAL_FILE), b"logged").unwrap();
        assert_refused(&image, WAL_FILE);
        // Empty, it is a checkpoint's completeness marker and opens.
        fs::write(image.join(WAL_FILE), b"").unwrap();
        let db = Db::open(&image, DbOptions::default()).unwrap();
        assert_eq!(db.get(Db::DEFAULT_CF, b"a").unwrap(), Some(b"1".to_vec()));
    }

    #[test]
    fn open_refuses_a_manifest_whose_column_families_are_out_of_order() {
        // Ids are handed out in order and never dropped, so every store
        // lists them densely in id order; a manifest that does not is not
        // one it wrote.
        let image = fresh_dir("cforder");
        fs::create_dir_all(&image).unwrap();
        let mut buf = Vec::new();
        buf.put_u64_le(MANIFEST_MAGIC);
        for v in [2, 1, 2] {
            put_uvarint(&mut buf, v); // next CF id, next file, CF count
        }
        for (id, name) in [(1, "aux"), (0, "default")] {
            put_uvarint(&mut buf, id);
            put_bytes(&mut buf, name.as_bytes());
            put_uvarint(&mut buf, 0);
        }
        let crc = crc32c(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        fs::write(image.join(MANIFEST), &buf).unwrap();
        assert_refused(&image, "column family 0 out of order");
    }

    fn dir_image(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| {
                (
                    p.file_name().unwrap().to_string_lossy().into_owned(),
                    fs::read(&p).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn open_refuses_a_table_with_a_corrupt_middle_block() {
        // Such a table used to open; scans then ended at the bad block
        // with `Ok`, and a compaction merged the short stream and deleted
        // the inputs — every key behind the block was lost silently.
        let image = fresh_dir("badblock");
        // An image of one table of three data blocks (~100 B an entry).
        let db = Db::open(&fresh_dir("badblock-live"), DbOptions::default()).unwrap();
        for i in 0..120u32 {
            db.put(Db::DEFAULT_CF, format!("k{i:04}").as_bytes(), &[9u8; 90])
                .unwrap();
        }
        db.checkpoint(&image).unwrap();
        assert_eq!(db.stats().sst_bytes / 4096, 2, "expected three blocks");
        drop(db);
        let sst = image.join(sst_file_name(1));
        let mut raw = fs::read(&sst).unwrap();
        raw[6000] ^= 0xff; // inside the second block
        fs::write(&sst, &raw).unwrap();
        assert_refused(&image, "00000001.sst");
        assert_refused(&image, "block 1 crc mismatch");
    }

    #[test]
    fn prefix_upper_bound_logic() {
        assert_eq!(prefix_upper_bound(b"ab"), Some(b"ac".to_vec()));
        assert_eq!(prefix_upper_bound(&[0x01, 0xff]), Some(vec![0x02]));
        assert_eq!(prefix_upper_bound(&[0xff, 0xff]), None);
        assert_eq!(prefix_upper_bound(b""), None);
    }

    /// Discards every key starting with `dead:`.
    #[derive(Debug)]
    struct DeadPrefixFilter;
    impl crate::CompactionFilter for DeadPrefixFilter {
        fn name(&self) -> &str {
            "dead-prefix"
        }
        fn filter(&self, key: &[u8], _value: &[u8]) -> crate::FilterDecision {
            if key.starts_with(b"dead:") {
                crate::FilterDecision::Discard
            } else {
                crate::FilterDecision::Keep
            }
        }
    }

    #[test]
    fn per_cf_budgets_flush_independently() {
        // Regression pin for the multi-CF stats drift: the old code
        // flushed *every* CF once any one crossed the single global
        // budget, littering idle CFs with one-entry SSTables.
        let dir = fresh_dir("percfflush");
        let opts = DbOptions {
            cf_options: vec![(
                "hot".to_owned(),
                CfOptions {
                    memtable_budget_bytes: 512,
                    compaction_trigger: 100,
                    ..CfOptions::default()
                },
            )],
            ..DbOptions::default()
        };
        let db = Db::open(&dir, opts).unwrap();
        let hot = db.create_cf("hot").unwrap();
        db.put(Db::DEFAULT_CF, b"idle-key", b"idle-value").unwrap();
        for i in 0..50u32 {
            db.put(hot, format!("h{i:03}").as_bytes(), &[7u8; 64]).unwrap();
        }
        let s = db.stats();
        let idle = s.per_cf.iter().find(|c| c.name == "default").unwrap();
        let hot_cf = s.per_cf.iter().find(|c| c.name == "hot").unwrap();
        assert!(hot_cf.sst_count > 0, "hot CF should have auto-flushed");
        assert_eq!(idle.sst_count, 0, "idle CF must not be flushed along");
        assert_eq!(idle.memtable_entries, 1);
        // Reads still correct on both sides.
        assert_eq!(
            db.get(Db::DEFAULT_CF, b"idle-key").unwrap(),
            Some(b"idle-value".to_vec())
        );
        assert_eq!(db.get(hot, b"h000").unwrap(), Some(vec![7u8; 64]));
    }

    #[test]
    fn overwrites_of_one_key_leave_at_most_one_table_on_disk() {
        // Overwriting one key never fills its memtable (that counts live
        // bytes), and nothing else on disk grows per write: the directory
        // holds at most one table.
        let dir = fresh_dir("overwrites");
        let image = fresh_dir("overwrites-image");
        let opts = DbOptions {
            memtable_budget_bytes: 4 << 10,
            ..DbOptions::default()
        };
        let db = Db::open(&dir, opts.clone()).unwrap();
        for i in 0..100_000u64 {
            db.put(Db::DEFAULT_CF, b"key", &i.to_le_bytes()).unwrap();
        }
        db.flush().unwrap();
        let files = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect::<Vec<_>>();
        assert_eq!(files, [sst_file_name(1)]);
        db.checkpoint(&image).unwrap();
        drop(db);
        let db = Db::open(&image, opts).unwrap();
        assert_eq!(
            db.get(Db::DEFAULT_CF, b"key").unwrap(),
            Some(99_999u64.to_le_bytes().to_vec())
        );
    }

    #[test]
    fn compaction_filter_drops_dead_entries() {
        let dir = fresh_dir("cfilter");
        let opts = DbOptions {
            cf_options: vec![(
                "default".to_owned(),
                CfOptions::default().with_filter(Arc::new(DeadPrefixFilter)),
            )],
            ..DbOptions::default()
        };
        let db = Db::open(&dir, opts).unwrap();
        db.put(Db::DEFAULT_CF, b"dead:a", b"1").unwrap();
        db.put(Db::DEFAULT_CF, b"live:a", b"2").unwrap();
        db.flush().unwrap();
        db.put(Db::DEFAULT_CF, b"dead:b", b"3").unwrap();
        db.put(Db::DEFAULT_CF, b"live:b", b"4").unwrap();
        db.flush().unwrap();
        // Until the compaction runs, filtered keys are still readable.
        assert_eq!(db.get(Db::DEFAULT_CF, b"dead:a").unwrap(), Some(b"1".to_vec()));
        db.compact_cf(Db::DEFAULT_CF).unwrap();
        assert_eq!(db.get(Db::DEFAULT_CF, b"dead:a").unwrap(), None);
        assert_eq!(db.get(Db::DEFAULT_CF, b"dead:b").unwrap(), None);
        assert_eq!(db.get(Db::DEFAULT_CF, b"live:a").unwrap(), Some(b"2".to_vec()));
        assert_eq!(db.get(Db::DEFAULT_CF, b"live:b").unwrap(), Some(b"4".to_vec()));
        let s = db.stats();
        assert_eq!(s.filter_dropped, 2);
        assert_eq!(s.sst_entries, 2);
    }

    #[test]
    fn filtered_compaction_rewrites_single_sstable() {
        // Without a filter a 1-SST compaction is a no-op; with one it is
        // the on-demand reclaim path.
        let dir = fresh_dir("cfilter1");
        let opts = DbOptions {
            cf_options: vec![(
                "default".to_owned(),
                CfOptions::default().with_filter(Arc::new(DeadPrefixFilter)),
            )],
            ..DbOptions::default()
        };
        let db = Db::open(&dir, opts).unwrap();
        db.put(Db::DEFAULT_CF, b"dead:x", b"1").unwrap();
        db.put(Db::DEFAULT_CF, b"live:x", b"2").unwrap();
        db.flush().unwrap();
        assert_eq!(db.stats().sst_count, 1);
        db.compact_cf(Db::DEFAULT_CF).unwrap();
        let s = db.stats();
        assert_eq!(s.sst_count, 1);
        assert_eq!(s.sst_entries, 1);
        assert_eq!(s.filter_dropped, 1);
        assert_eq!(db.get(Db::DEFAULT_CF, b"dead:x").unwrap(), None);
        assert_eq!(db.get(Db::DEFAULT_CF, b"live:x").unwrap(), Some(b"2".to_vec()));
    }

    #[test]
    fn compaction_of_single_sstable_without_filter_is_noop() {
        // Also pins the file-number leak: a bailed-out compaction must
        // not burn a file number (visible as a gap after the next flush).
        let dir = fresh_dir("compactnoop");
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        db.put(Db::DEFAULT_CF, b"k", b"v").unwrap();
        db.flush().unwrap();
        let before = db.stats();
        db.compact_cf(Db::DEFAULT_CF).unwrap();
        let after = db.stats();
        assert_eq!(before, after);
        db.put(Db::DEFAULT_CF, b"k2", b"v2").unwrap();
        db.flush().unwrap();
        // File numbers are consecutive: the no-op compaction left none.
        assert!(dir.join(sst_file_name(1)).exists());
        assert!(dir.join(sst_file_name(2)).exists());
    }

    #[test]
    fn stats_aggregates_equal_per_cf_sums() {
        let dir = fresh_dir("statsums");
        let db = Db::open(&dir, small_opts()).unwrap();
        let aux = db.create_cf("aux").unwrap();
        for i in 0..300u32 {
            db.put(Db::DEFAULT_CF, format!("k{i:04}").as_bytes(), &[3u8; 48])
                .unwrap();
            if i % 3 == 0 {
                db.put(aux, format!("x{i:04}").as_bytes(), &[4u8; 16]).unwrap();
            }
        }
        db.flush().unwrap();
        db.compact_cf(Db::DEFAULT_CF).unwrap();
        let s = db.stats();
        assert_eq!(s.per_cf.len(), s.column_families);
        assert_eq!(
            s.memtable_bytes,
            s.per_cf.iter().map(|c| c.memtable_bytes).sum::<usize>()
        );
        assert_eq!(
            s.memtable_entries,
            s.per_cf.iter().map(|c| c.memtable_entries).sum::<usize>()
        );
        assert_eq!(s.sst_count, s.per_cf.iter().map(|c| c.sst_count).sum::<usize>());
        assert_eq!(s.sst_entries, s.per_cf.iter().map(|c| c.sst_entries).sum::<u64>());
        assert_eq!(s.sst_bytes, s.per_cf.iter().map(|c| c.sst_bytes).sum::<u64>());
        // Stable across repeated snapshots with no writes in between.
        assert_eq!(db.stats(), db.stats());
    }

    #[test]
    fn cf_options_apply_to_manifest_recovered_cfs() {
        // Filters are attached by *name*, so an open re-resolves them for
        // the CFs an image's manifest lists.
        let dir = fresh_dir("cfoptsreopen");
        let image = fresh_dir("cfoptsreopen-image");
        {
            let db = Db::open(&dir, DbOptions::default()).unwrap();
            db.put(Db::DEFAULT_CF, b"dead:z", b"1").unwrap();
            db.put(Db::DEFAULT_CF, b"live:z", b"2").unwrap();
            db.checkpoint(&image).unwrap();
        }
        let opts = DbOptions {
            cf_options: vec![(
                "default".to_owned(),
                CfOptions::default().with_filter(Arc::new(DeadPrefixFilter)),
            )],
            ..DbOptions::default()
        };
        let db = Db::open(&image, opts).unwrap();
        db.compact_cf(Db::DEFAULT_CF).unwrap();
        assert_eq!(db.get(Db::DEFAULT_CF, b"dead:z").unwrap(), None);
        assert_eq!(db.get(Db::DEFAULT_CF, b"live:z").unwrap(), Some(b"2".to_vec()));
    }

    #[test]
    fn an_image_of_a_restored_image_leaves_the_first_untouched() {
        let (live, first) = (fresh_dir("reimage-live"), fresh_dir("reimage-1"));
        let (restored, second) = (fresh_dir("reimage-restored"), fresh_dir("reimage-2"));
        let db = Db::open(&live, DbOptions::default()).unwrap();
        for k in [b"a", b"b", b"c"] {
            db.put(Db::DEFAULT_CF, k, b"1").unwrap();
            db.flush().unwrap();
        }
        db.checkpoint(&first).unwrap();
        drop(db);
        let before = dir_image(&first);
        // Restore as a task does: link the image into a fresh directory.
        fs::create_dir_all(&restored).unwrap();
        for (name, _) in &before {
            fs::hard_link(first.join(name), restored.join(name)).unwrap();
        }
        let db = Db::open(&restored, DbOptions::default()).unwrap();
        db.put(Db::DEFAULT_CF, b"d", b"2").unwrap();
        db.delete(Db::DEFAULT_CF, b"a").unwrap();
        db.flush().unwrap();
        db.compact_cf(Db::DEFAULT_CF).unwrap();
        for name in before.iter().map(|(n, _)| n).filter(|n| n.ends_with(".sst")) {
            assert!(!restored.join(name).exists(), "compaction unlinks {name}");
        }
        db.checkpoint(&second).unwrap();
        drop(db);
        assert_eq!(dir_image(&first), before, "nothing writes through a link");
        let kv = |k: &[u8], v: &[u8]| (k.to_vec(), v.to_vec());
        let scan = |dir: &Path| {
            let db = Db::open(dir, DbOptions::default()).unwrap();
            db.scan(Db::DEFAULT_CF, b"", None).unwrap()
        };
        assert_eq!(scan(&first), [kv(b"a", b"1"), kv(b"b", b"1"), kv(b"c", b"1")]);
        assert_eq!(scan(&second), [kv(b"b", b"1"), kv(b"c", b"1"), kv(b"d", b"2")]);
    }

    #[test]
    fn a_compaction_that_cannot_unlink_an_input_returns_the_error() {
        let dir = fresh_dir("unlinkfail");
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        db.put(Db::DEFAULT_CF, b"a", b"1").unwrap();
        db.flush().unwrap();
        db.put(Db::DEFAULT_CF, b"b", b"2").unwrap();
        db.flush().unwrap();
        // The first input's path now holds a non-empty directory.
        let input = dir.join(sst_file_name(1));
        fs::remove_file(&input).unwrap();
        fs::create_dir_all(input.join("x")).unwrap();
        assert!(matches!(
            db.compact_cf(Db::DEFAULT_CF),
            Err(RailgunError::Io(_))
        ));
        assert_eq!(db.get(Db::DEFAULT_CF, b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(Db::DEFAULT_CF, b"b").unwrap(), Some(b"2".to_vec()));
    }
}
