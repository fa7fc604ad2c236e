//! The database facade: column families, writes, flush, compaction, and
//! scans.
//!
//! One [`Db`] corresponds to one RocksDB instance in the paper: each task
//! processor owns one (share-nothing, §4.1), holding its aggregation states
//! and auxiliary data. Writes go to the memtable and nowhere else; a write
//! is durable once its column family is flushed, and [`Db::checkpoint`]
//! flushes every column family — the image recovery restores (§4.2), with
//! the messaging layer's topic replaying what came after it. Reads merge
//! the memtable with the SSTables newest-first; background maintenance is
//! explicit (`flush`, `compact`) so the engine can schedule it off the
//! latency-critical path.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::{Buf, BufMut};
use parking_lot::Mutex;
use railgun_types::encode::{crc32c, get_string, get_uvarint, put_bytes, put_uvarint};
use railgun_types::{Counter, RailgunError, Recorder, Result};

use crate::memtable::MemTable;
use crate::merge::MergeIter;
use crate::options::{CfOptions, FilterDecision};
use crate::sstable::{KvRef, SstReader, SstWriter};
use crate::vfs::{crash_points, RealFs, StoreFs};

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
    /// Telemetry: orphaned SSTables quarantined at open (off by default).
    pub orphan_counter: Counter,
    /// Per-column-family overrides, matched by CF name both at open (for
    /// CFs recovered from the manifest) and at [`Db::create_cf`]. A CF
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
            orphan_counter: Counter::disabled(),
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

struct Inner {
    cfs: HashMap<ColumnFamilyId, CfState>,
    next_cf_id: ColumnFamilyId,
    next_file_no: u64,
    flushes: u64,
    compactions: u64,
    filter_dropped: u64,
}

/// What [`Db::open`] had to repair while bringing the on-disk image
/// online. Also surfaced through [`DbOptions::orphan_counter`] for the
/// telemetry plane.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Unreferenced `*.sst` files moved into [`QUARANTINE_DIR`].
    pub orphaned_sstables_quarantined: u64,
    /// Stale `*.tmp` files (interrupted manifest writes) deleted.
    pub stale_tmp_removed: u64,
}

/// An embedded LSM key-value store with column families.
pub struct Db {
    dir: PathBuf,
    opts: DbOptions,
    inner: Mutex<Inner>,
    recovery: RecoveryReport,
}

const MANIFEST: &str = "MANIFEST";
const MANIFEST_TMP: &str = "MANIFEST.tmp";
/// Where an older store logged its unflushed writes. [`Db::open`]
/// refuses a non-empty one rather than drop what it holds; checkpoints
/// still write it empty, as their completeness marker
/// ([`crate::checkpoint`]).
pub(crate) const WAL_FILE: &str = "wal.log";
const MANIFEST_MAGIC: u64 = 0x5241_494c_4d41_4e01;
/// Subdirectory orphaned SSTables are moved into at open — never deleted,
/// so a recovery bug can be diagnosed from the quarantined bytes.
pub const QUARANTINE_DIR: &str = "quarantine";

impl Db {
    /// The column family every database starts with.
    pub const DEFAULT_CF: ColumnFamilyId = 0;

    /// Open (or create) a database in `dir`.
    ///
    /// Recovery happens here, in order: load the manifest (the only
    /// source of truth for live SSTables) and check every table it names
    /// completely — a table with a corrupt block fails the open with
    /// [`RailgunError::Corruption`] naming the file, before anything in
    /// the directory is touched, and so does a non-empty `wal.log` (writes
    /// an older store logged and never flushed) — then sweep the
    /// directory: stale `*.tmp` files are deleted, unreferenced `*.sst`
    /// files are quarantined, never deleted. Each column family opens as
    /// of its last committed flush; writes after it are gone. What was
    /// repaired is reported via [`Db::recovery_report`].
    pub fn open(dir: &Path, opts: DbOptions) -> Result<Self> {
        let fs = Arc::clone(&opts.fs);
        fs.create_dir_all(dir)?;
        let manifest_path = dir.join(MANIFEST);
        let had_manifest = fs.exists(&manifest_path);
        let (cfs, next_cf_id, next_file_no) = if had_manifest {
            Self::load_manifest(fs.as_ref(), dir, &manifest_path, &opts)?
        } else {
            let mut cfs = HashMap::new();
            cfs.insert(
                Self::DEFAULT_CF,
                CfState {
                    name: "default".to_owned(),
                    opts: opts.resolve_cf_opts("default"),
                    mem: MemTable::new(),
                    ssts: Vec::new(),
                },
            );
            (cfs, 1, 1)
        };
        let wal = dir.join(WAL_FILE);
        if fs.exists(&wal) && fs.file_len(&wal)? > 0 {
            return Err(RailgunError::Corruption(format!(
                "{} holds logged writes this store cannot replay",
                wal.display()
            )));
        }
        // Sweep the directory before accepting writes. A crash between
        // SST creation and the manifest update leaves unreferenced
        // tables; a crash between a compaction's manifest update and
        // input deletion leaves the (now shadowed) inputs. Neither may
        // ever be read again, so move them aside.
        let mut report = RecoveryReport::default();
        let referenced: HashSet<String> = cfs
            .values()
            .flat_map(|cf| cf.ssts.iter().map(|h| sst_file_name(h.file_no)))
            .collect();
        for name in fs.read_dir_files(dir)? {
            let path = dir.join(&name);
            if name.ends_with(".tmp") {
                fs.remove_file(&path)?;
                report.stale_tmp_removed += 1;
            } else if name.ends_with(".sst") && !referenced.contains(&name) {
                let qdir = dir.join(QUARANTINE_DIR);
                fs.create_dir_all(&qdir)?;
                fs.rename(&path, &qdir.join(&name))?;
                report.orphaned_sstables_quarantined += 1;
            }
        }
        opts.orphan_counter.add(report.orphaned_sstables_quarantined);
        let db = Db {
            dir: dir.to_path_buf(),
            opts,
            inner: Mutex::new(Inner {
                cfs,
                next_cf_id,
                next_file_no,
                flushes: 0,
                compactions: 0,
                filter_dropped: 0,
            }),
            recovery: report,
        };
        if !had_manifest {
            db.write_manifest(&db.inner.lock())?;
        }
        Ok(db)
    }

    /// What the open-time recovery pass repaired (all zero on a clean
    /// open).
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    fn load_manifest(
        fs: &dyn StoreFs,
        dir: &Path,
        path: &Path,
        opts: &DbOptions,
    ) -> Result<(HashMap<ColumnFamilyId, CfState>, ColumnFamilyId, u64)> {
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
        let next_cf_id = get_uvarint(&mut cur)? as u32;
        let next_file_no = get_uvarint(&mut cur)?;
        let cf_count = get_uvarint(&mut cur)? as usize;
        let mut cfs = HashMap::with_capacity(cf_count);
        for _ in 0..cf_count {
            let cf_id = get_uvarint(&mut cur)? as u32;
            let name = get_string(&mut cur)?;
            let sst_count = get_uvarint(&mut cur)? as usize;
            let mut ssts = Vec::with_capacity(sst_count);
            for _ in 0..sst_count {
                let file_no = get_uvarint(&mut cur)?;
                let reader = SstReader::open(fs, &dir.join(sst_file_name(file_no)))?;
                ssts.push(SstHandle { file_no, reader });
            }
            let cf_opts = opts.resolve_cf_opts(&name);
            cfs.insert(
                cf_id,
                CfState {
                    name,
                    opts: cf_opts,
                    mem: MemTable::new(),
                    ssts,
                },
            );
        }
        Ok((cfs, next_cf_id, next_file_no))
    }

    fn write_manifest(&self, inner: &Inner) -> Result<()> {
        let mut buf = Vec::new();
        buf.put_u64_le(MANIFEST_MAGIC);
        put_uvarint(&mut buf, u64::from(inner.next_cf_id));
        put_uvarint(&mut buf, inner.next_file_no);
        let mut ids: Vec<_> = inner.cfs.keys().copied().collect();
        ids.sort_unstable();
        put_uvarint(&mut buf, ids.len() as u64);
        for id in ids {
            let cf = &inner.cfs[&id];
            put_uvarint(&mut buf, u64::from(id));
            put_bytes(&mut buf, cf.name.as_bytes());
            put_uvarint(&mut buf, cf.ssts.len() as u64);
            for h in &cf.ssts {
                put_uvarint(&mut buf, h.file_no);
            }
        }
        let crc = crc32c(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        let fs = &self.opts.fs;
        let tmp = self.dir.join(MANIFEST_TMP);
        {
            let mut f = fs.create(&tmp)?;
            f.write_all(&buf)?;
            f.sync_all()?;
        }
        fs.rename(&tmp, &self.dir.join(MANIFEST))?;
        // An fsync of the file does not cover its directory entry: without
        // this, a crash can roll back the rename itself (and the entries
        // of any SSTs created alongside it).
        fs.sync_dir(&self.dir)?;
        Ok(())
    }

    /// Create a new column family with options resolved from
    /// [`DbOptions::cf_options`] (global fallbacks when no entry matches).
    /// Fails if the name is taken.
    pub fn create_cf(&self, name: &str) -> Result<ColumnFamilyId> {
        let mut inner = self.inner.lock();
        if inner.cfs.values().any(|cf| cf.name == name) {
            return Err(RailgunError::InvalidArgument(format!(
                "column family `{name}` already exists"
            )));
        }
        let id = inner.next_cf_id;
        inner.next_cf_id += 1;
        inner.cfs.insert(
            id,
            CfState {
                name: name.to_owned(),
                opts: self.opts.resolve_cf_opts(name),
                mem: MemTable::new(),
                ssts: Vec::new(),
            },
        );
        self.write_manifest(&inner)?;
        Ok(id)
    }

    /// Look up a column family id by name.
    pub fn cf_by_name(&self, name: &str) -> Option<ColumnFamilyId> {
        self.inner
            .lock()
            .cfs
            .iter()
            .find(|(_, cf)| cf.name == name)
            .map(|(id, _)| *id)
    }

    /// Write `key = value` in column family `cf`. Durable once `cf` is
    /// flushed.
    pub fn put(&self, cf: ColumnFamilyId, key: &[u8], value: &[u8]) -> Result<()> {
        self.write(cf, |mem| mem.put(key, value))
    }

    /// Delete `key` in column family `cf`. Durable once `cf` is flushed.
    pub fn delete(&self, cf: ColumnFamilyId, key: &[u8]) -> Result<()> {
        self.write(cf, |mem| mem.delete(key))
    }

    /// Apply one write to `cf`'s memtable and flush that memtable if the
    /// write took it past its budget — the only one a write can grow.
    fn write(&self, cf: ColumnFamilyId, apply: impl FnOnce(&mut MemTable)) -> Result<()> {
        let mut inner = self.inner.lock();
        let state = inner
            .cfs
            .get_mut(&cf)
            .ok_or_else(|| RailgunError::NotFound(format!("column family {cf}")))?;
        apply(&mut state.mem);
        if state.mem.approx_bytes() <= state.opts.memtable_budget_bytes {
            return Ok(());
        }
        let timer = self.opts.flush_recorder.start();
        let result = self.flush_cfs_locked(&mut inner, vec![cf]);
        self.opts.flush_recorder.finish(timer);
        result?;
        self.maybe_compact_locked(&mut inner)
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
        let state = inner
            .cfs
            .get(&cf)
            .ok_or_else(|| RailgunError::NotFound(format!("column family {cf}")))?;
        if let Some(entry) = state.mem.get(key) {
            return Ok(entry.as_deref().map(f));
        }
        for h in &state.ssts {
            if let Some(entry) = h.reader.get(key) {
                return Ok(entry.map(f));
            }
        }
        Ok(None)
    }

    /// Scan all live keys in `[start, end)` (end `None` = unbounded),
    /// merged across memtable and SSTables, tombstones elided.
    pub fn scan(
        &self,
        cf: ColumnFamilyId,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let inner = self.inner.lock();
        let state = inner
            .cfs
            .get(&cf)
            .ok_or_else(|| RailgunError::NotFound(format!("column family {cf}")))?;
        let mem = state.mem.range(start, end).map(|(k, e)| (k, e.as_deref()));
        let mut sources: Vec<Box<dyn Iterator<Item = KvRef<'_>> + '_>> = vec![Box::new(mem)];
        for h in &state.ssts {
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

    /// Flush every non-empty memtable to a new SSTable: everything written
    /// so far is durable once this returns.
    pub fn flush(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        self.flush_locked(&mut inner)
    }

    fn flush_locked(&self, inner: &mut Inner) -> Result<()> {
        let cf_ids: Vec<ColumnFamilyId> = inner
            .cfs
            .iter()
            .filter(|(_, cf)| !cf.mem.is_empty())
            .map(|(id, _)| *id)
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
            let cf = inner.cfs.get_mut(&id).expect("cf exists");
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
        // SSTs are durable but unreferenced until the manifest lands; a
        // crash here leaves orphans for the open-time quarantine sweep,
        // and the flushed CFs reopen as of their previous flush.
        fs.crash_point(crash_points::FLUSH_BEFORE_MANIFEST)?;
        self.write_manifest(inner)
    }

    fn maybe_compact_locked(&self, inner: &mut Inner) -> Result<()> {
        let ids: Vec<ColumnFamilyId> = inner
            .cfs
            .iter()
            .filter(|(_, cf)| cf.ssts.len() >= cf.opts.compaction_trigger)
            .map(|(id, _)| *id)
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
        if !inner.cfs.contains_key(&cf) {
            return Err(RailgunError::NotFound(format!("column family {cf}")));
        }
        self.compact_cf_locked(&mut inner, cf)
    }

    fn compact_cf_locked(&self, inner: &mut Inner, id: ColumnFamilyId) -> Result<()> {
        let filter = inner.cfs.get(&id).expect("cf exists").opts.filter.clone();
        // A filterless compaction needs at least two inputs to do useful
        // work; with a filter installed, rewriting even a single table
        // reclaims dead entries on demand.
        let min_inputs = if filter.is_some() { 1 } else { 2 };
        if inner.cfs[&id].ssts.len() < min_inputs {
            return Ok(());
        }
        let file_no = inner.next_file_no;
        inner.next_file_no += 1;
        let path = self.dir.join(sst_file_name(file_no));
        let fs = Arc::clone(&self.opts.fs);
        let cf = inner.cfs.get_mut(&id).expect("cf exists");
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
        // The merged table is durable but the manifest still references
        // the inputs — a crash here quarantines the merged table at the
        // next open and keeps serving from the inputs.
        fs.crash_point(crash_points::COMPACT_BEFORE_MANIFEST)?;
        if dropped > 0 {
            // Same window, filter-specific: the output omits filtered
            // entries but recovery must keep serving them from the
            // still-referenced inputs (filtered keys may legally
            // reappear until the swap lands).
            fs.crash_point(crash_points::COMPACT_FILTERED_BEFORE_MANIFEST)?;
        }
        let old: Vec<u64> = cf.ssts.iter().map(|h| h.file_no).collect();
        let reader = SstReader::open(fs.as_ref(), &path)?;
        cf.ssts = vec![SstHandle { file_no, reader }];
        inner.compactions += 1;
        inner.filter_dropped += dropped;
        self.write_manifest(inner)?;
        if dropped > 0 {
            // The manifest now references only the filtered output: the
            // dropped keys must never resurrect, even with the input
            // tables still on disk (quarantined at the next open).
            fs.crash_point(crash_points::COMPACT_FILTERED_AFTER_MANIFEST)?;
        }
        // A crash here leaves the (shadowed) inputs on disk — the
        // quarantine sweep moves them aside at the next open.
        fs.crash_point(crash_points::COMPACT_BEFORE_REMOVE_OLD)?;
        for no in old {
            fs.remove_file(&self.dir.join(sst_file_name(no))).ok();
        }
        Ok(())
    }

    /// Exhaustively check on-disk invariants: every SSTable referenced by
    /// the manifest is read back from disk and checked as at open (all
    /// block CRCs verify, every entry decodes, keys strictly sorted,
    /// decoded entry count matches the footer). The crash-torture harness
    /// ([`crate::torture`]) runs this after every recovery.
    pub fn verify_integrity(&self) -> Result<()> {
        let inner = self.inner.lock();
        let fs = self.opts.fs.as_ref();
        for h in inner.cfs.values().flat_map(|cf| &cf.ssts) {
            SstReader::open(fs, &self.dir.join(sst_file_name(h.file_no)))?;
        }
        Ok(())
    }

    /// Create a consistent checkpoint of the whole database in `target`.
    ///
    /// Flushes all memtables first, then copies the manifest and every live
    /// SSTable. The checkpoint directory can itself be opened with
    /// [`Db::open`] — this is how a recovering task processor bootstraps
    /// from a peer (paper §4.2).
    pub fn checkpoint(&self, target: &Path) -> Result<()> {
        let mut inner = self.inner.lock();
        self.flush_locked(&mut inner)?;
        crate::checkpoint::create(
            self.opts.fs.as_ref(),
            &self.dir,
            target,
            &collect_files(&inner),
        )
    }

    /// Current statistics snapshot. Aggregates are computed as the column
    /// sums of the per-CF breakdown, so they cannot drift from it.
    pub fn stats(&self) -> DbStats {
        let inner = self.inner.lock();
        let mut ids: Vec<ColumnFamilyId> = inner.cfs.keys().copied().collect();
        ids.sort_unstable();
        let per_cf: Vec<CfStats> = ids
            .into_iter()
            .map(|id| {
                let cf = &inner.cfs[&id];
                let mut c = CfStats {
                    id,
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

fn collect_files(inner: &Inner) -> Vec<String> {
    let mut files = vec![MANIFEST.to_owned()];
    for cf in inner.cfs.values() {
        for h in &cf.ssts {
            files.push(sst_file_name(h.file_no));
        }
    }
    files
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
    fn unflushed_writes_are_gone_at_reopen() {
        let dir = fresh_dir("recovery");
        {
            let db = Db::open(&dir, DbOptions::default()).unwrap();
            db.put(Db::DEFAULT_CF, b"flushed", b"yes").unwrap();
            db.put(Db::DEFAULT_CF, b"doomed", b"old").unwrap();
            db.flush().unwrap();
            db.put(Db::DEFAULT_CF, b"unflushed", b"no").unwrap();
            db.delete(Db::DEFAULT_CF, b"flushed").unwrap();
            db.put(Db::DEFAULT_CF, b"doomed", b"new").unwrap();
            // Dropped without a flush: a crash.
        }
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        assert_eq!(
            db.get(Db::DEFAULT_CF, b"flushed").unwrap(),
            Some(b"yes".to_vec())
        );
        assert_eq!(
            db.get(Db::DEFAULT_CF, b"doomed").unwrap(),
            Some(b"old".to_vec())
        );
        assert_eq!(db.get(Db::DEFAULT_CF, b"unflushed").unwrap(), None);
        assert!(!dir.join(WAL_FILE).exists(), "nothing is logged");
    }

    #[test]
    fn restart_after_flush_reads_ssts() {
        let dir = fresh_dir("restart");
        {
            let db = Db::open(&dir, DbOptions::default()).unwrap();
            for i in 0..100u32 {
                db.put(Db::DEFAULT_CF, format!("k{i:04}").as_bytes(), &i.to_le_bytes())
                    .unwrap();
            }
            db.flush().unwrap();
        }
        let db = Db::open(&dir, DbOptions::default()).unwrap();
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
        let aux;
        {
            let db = Db::open(&dir, DbOptions::default()).unwrap();
            aux = db.create_cf("aux").unwrap();
            db.put(aux, b"x", b"1").unwrap();
            db.flush().unwrap();
        }
        let db = Db::open(&dir, DbOptions::default()).unwrap();
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

    #[test]
    fn open_quarantines_orphans_and_removes_stale_tmp() {
        let dir = fresh_dir("quarantine");
        {
            let db = Db::open(&dir, DbOptions::default()).unwrap();
            db.put(Db::DEFAULT_CF, b"live", b"1").unwrap();
            db.flush().unwrap();
        }
        // Simulate a crash between SST creation and the manifest update
        // (orphan) and mid-manifest-write (stale tmp).
        let live_sst = sst_file_name(1);
        fs::copy(dir.join(&live_sst), dir.join("00000099.sst")).unwrap();
        fs::write(dir.join(MANIFEST_TMP), b"partial garbage").unwrap();
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        let rep = db.recovery_report();
        assert_eq!(rep.orphaned_sstables_quarantined, 1);
        assert_eq!(rep.stale_tmp_removed, 1);
        assert!(!dir.join(MANIFEST_TMP).exists());
        assert!(!dir.join("00000099.sst").exists());
        assert!(dir.join(QUARANTINE_DIR).join("00000099.sst").exists());
        assert_eq!(db.get(Db::DEFAULT_CF, b"live").unwrap(), Some(b"1".to_vec()));
        db.verify_integrity().unwrap();
        // A clean reopen repairs nothing.
        drop(db);
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        assert_eq!(db.recovery_report().orphaned_sstables_quarantined, 0);
        assert_eq!(db.recovery_report().stale_tmp_removed, 0);
    }

    #[test]
    fn open_refuses_a_non_empty_wal_log() {
        // An older store logged writes it had not flushed: opening without
        // them would drop them silently.
        let dir = fresh_dir("walrefused");
        {
            let db = Db::open(&dir, DbOptions::default()).unwrap();
            db.put(Db::DEFAULT_CF, b"a", b"1").unwrap();
            db.flush().unwrap();
        }
        fs::write(dir.join(WAL_FILE), b"logged").unwrap();
        let before = dir_image(&dir);
        match Db::open(&dir, DbOptions::default()) {
            Err(RailgunError::Corruption(m)) => assert!(m.contains(WAL_FILE), "{m}"),
            other => panic!("expected Corruption, got {:?}", other.map(|_| "a database")),
        }
        assert_eq!(
            dir_image(&dir),
            before,
            "a refused open must not touch the directory"
        );
        // Empty, it is a checkpoint's completeness marker and opens.
        fs::write(dir.join(WAL_FILE), b"").unwrap();
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        assert_eq!(db.get(Db::DEFAULT_CF, b"a").unwrap(), Some(b"1".to_vec()));
    }

    /// A flushed table of three data blocks (~100 B an entry) in a fresh
    /// database; returns the table's path.
    fn three_block_table(dir: &Path) -> PathBuf {
        let db = Db::open(dir, DbOptions::default()).unwrap();
        for i in 0..120u32 {
            db.put(Db::DEFAULT_CF, format!("k{i:04}").as_bytes(), &[9u8; 90])
                .unwrap();
        }
        db.flush().unwrap();
        assert_eq!(db.stats().sst_bytes / 4096, 2, "expected three blocks");
        dir.join(sst_file_name(1))
    }

    fn flip_byte(path: &Path, pos: usize) {
        let mut raw = fs::read(path).unwrap();
        raw[pos] ^= 0xff;
        fs::write(path, &raw).unwrap();
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
        let dir = fresh_dir("badblock");
        let sst = three_block_table(&dir);
        flip_byte(&sst, 6000); // inside the second block
        let before = dir_image(&dir);
        match Db::open(&dir, DbOptions::default()) {
            Err(RailgunError::Corruption(m)) => {
                assert!(
                    m.contains("00000001.sst") && m.contains("block 1 crc mismatch"),
                    "{m}"
                );
            }
            other => panic!("expected Corruption, got {:?}", other.map(|_| "a database")),
        }
        assert_eq!(
            dir_image(&dir),
            before,
            "a refused open must not touch the directory"
        );
    }

    #[test]
    fn verify_integrity_reads_tables_back_from_disk() {
        let dir = fresh_dir("verifydisk");
        let sst = three_block_table(&dir);
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        db.verify_integrity().unwrap();
        flip_byte(&sst, 6000);
        assert!(matches!(
            db.verify_integrity(),
            Err(RailgunError::Corruption(_))
        ));
        // The resident copy was checked at open and still serves.
        assert_eq!(
            db.get(Db::DEFAULT_CF, b"k0119").unwrap(),
            Some(vec![9u8; 90])
        );
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
    fn partial_flush_commits_only_the_flushed_cf() {
        // A budget flush of one CF makes that CF durable and no other: at
        // reopen the flushed CF reads its writes, the idle one reads as
        // of its own last flush.
        let dir = fresh_dir("partialflush");
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
        let (aux, unflushed_hot);
        {
            let db = Db::open(&dir, opts.clone()).unwrap();
            let hot = db.create_cf("hot").unwrap();
            aux = db.create_cf("aux").unwrap();
            db.put(aux, b"flushed", b"kept").unwrap();
            db.flush().unwrap();
            db.put(aux, b"unflushed", b"lost").unwrap();
            db.delete(aux, b"flushed").unwrap();
            for i in 0..50u32 {
                db.put(hot, format!("h{i:03}").as_bytes(), &[7u8; 64])
                    .unwrap();
            }
            let s = db.stats();
            let hot_cf = s.per_cf.iter().find(|c| c.name == "hot").unwrap();
            assert!(hot_cf.sst_count > 0, "hot CF should have auto-flushed");
            unflushed_hot = hot_cf.memtable_entries;
            // Dropped without an explicit flush — simulated crash.
        }
        let db = Db::open(&dir, opts).unwrap();
        let hot = db.cf_by_name("hot").unwrap();
        assert_eq!(db.scan(hot, b"", None).unwrap().len(), 50 - unflushed_hot);
        assert_eq!(db.get(aux, b"flushed").unwrap(), Some(b"kept".to_vec()));
        assert_eq!(db.get(aux, b"unflushed").unwrap(), None);
        db.verify_integrity().unwrap();
    }

    #[test]
    fn overwrites_of_one_key_leave_at_most_one_table_on_disk() {
        // Overwriting one key never fills its memtable (that counts live
        // bytes), and nothing else on disk grows per write: the directory
        // stays at the manifest plus at most one table.
        let dir = fresh_dir("overwrites");
        let opts = DbOptions {
            memtable_budget_bytes: 4 << 10,
            ..DbOptions::default()
        };
        let db = Db::open(&dir, opts.clone()).unwrap();
        for i in 0..100_000u64 {
            db.put(Db::DEFAULT_CF, b"key", &i.to_le_bytes()).unwrap();
        }
        db.flush().unwrap();
        let mut files = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect::<Vec<_>>();
        files.sort();
        assert_eq!(files, [sst_file_name(1), MANIFEST.to_owned()]);
        drop(db);
        let db = Db::open(&dir, opts).unwrap();
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
        db.verify_integrity().unwrap();
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
        // Filters are attached by *name*, so a reopen re-resolves them for
        // CFs loaded from the manifest.
        let dir = fresh_dir("cfoptsreopen");
        {
            let db = Db::open(&dir, DbOptions::default()).unwrap();
            db.put(Db::DEFAULT_CF, b"dead:z", b"1").unwrap();
            db.put(Db::DEFAULT_CF, b"live:z", b"2").unwrap();
            db.flush().unwrap();
        }
        let opts = DbOptions {
            cf_options: vec![(
                "default".to_owned(),
                CfOptions::default().with_filter(Arc::new(DeadPrefixFilter)),
            )],
            ..DbOptions::default()
        };
        let db = Db::open(&dir, opts).unwrap();
        db.compact_cf(Db::DEFAULT_CF).unwrap();
        assert_eq!(db.get(Db::DEFAULT_CF, b"dead:z").unwrap(), None);
        assert_eq!(db.get(Db::DEFAULT_CF, b"live:z").unwrap(), Some(b"2".to_vec()));
    }
}
