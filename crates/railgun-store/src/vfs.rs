//! The store's virtual filesystem — the seam every byte of durable state
//! passes through.
//!
//! The paper frames Railgun's requirements as *mission critical* (MAD,
//! §2): a crash that silently loses acknowledged state is a correctness
//! bug, not an operational inconvenience. But durability claims are only
//! as good as their tests, and `std::fs` cannot be made to fail on cue.
//! This module fixes that by routing all store I/O — SSTable writes,
//! manifest renames, checkpoint links, directory fsyncs — through a
//! [`StoreFs`] trait with two implementations:
//!
//! * [`RealFs`] — a thin passthrough to `std::fs`. SSTables are written
//!   through a `BufWriter`, so the only added cost is one virtual call
//!   per buffer flush: zero-cost in practice.
//! * [`FaultFs`] — deterministic, seed-driven fault injection over a real
//!   backing directory: torn writes (a prefix of the buffer lands, then
//!   the write fails), failed `sync_data`/`sync_all`, failed renames,
//!   failed directory fsyncs, and explicit crash-point hooks placed at
//!   the interesting sequencing moments of flush / compaction /
//!   checkpoint. Tripping **any** fault freezes the filesystem: every
//!   subsequent operation fails, so the backing directory is exactly the
//!   on-disk image a power cut at that moment would have left. Recovery
//!   is then exercised by reopening that image with [`RealFs`].
//!
//! The set of trip sites is the **crash-point registry**
//! ([`crash_points::ALL`]): the crash-torture harness ([`crate::torture`])
//! sweeps every entry and verifies every column family recovers exactly
//! as of its last committed flush.
//!
//! ## Error contract
//!
//! Injected failures carry the [`INJECTED_TAG`] marker in their message
//! ([`is_injected`] tests for it), so harnesses can tell a deliberate
//! crash from a real bug in the recovery path — the latter must always
//! fail the test.

use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;
use railgun_types::{RailgunError, Result};

/// A writable file handle produced by a [`StoreFs`].
///
/// Implementations are plain `Write` sinks plus the two fsync flavours;
/// callers that need buffering wrap the handle in a `BufWriter`.
pub trait FsFile: Write + Send {
    /// Flush file *data* to stable storage (`fdatasync`).
    fn sync_data(&mut self) -> Result<()>;
    /// Flush file data *and metadata* to stable storage (`fsync`).
    fn sync_all(&mut self) -> Result<()>;
}

/// The filesystem operations the store layer is allowed to use.
///
/// Everything [`crate::Db`] touches on disk goes through this trait (via
/// [`crate::DbOptions::fs`]), which is what makes its recovery claims
/// testable: swap in a [`FaultFs`] and every durability assumption can be
/// violated deterministically.
pub trait StoreFs: fmt::Debug + Send + Sync {
    /// Create `path` and all missing parents.
    fn create_dir_all(&self, path: &Path) -> Result<()>;
    /// Create `path` for writing, truncating any existing file.
    fn create(&self, path: &Path) -> Result<Box<dyn FsFile>>;
    /// Read the entire contents of `path`.
    fn read(&self, path: &Path) -> Result<Vec<u8>>;
    /// Length of `path` in bytes.
    fn file_len(&self, path: &Path) -> Result<u64>;
    /// True iff `path` exists.
    fn exists(&self, path: &Path) -> bool;
    /// Atomically rename `from` to `to` (same directory).
    fn rename(&self, from: &Path, to: &Path) -> Result<()>;
    /// Remove the file at `path`.
    fn remove_file(&self, path: &Path) -> Result<()>;
    /// Hard-link `from` to `to`, falling back to a copy when the
    /// filesystem refuses links (checkpoints, [`crate::checkpoint`]).
    fn hard_link_or_copy(&self, from: &Path, to: &Path) -> Result<()>;
    /// fsync the directory itself, making renames and newly created
    /// directory entries durable (a file fsync does **not** cover its
    /// directory entry).
    fn sync_dir(&self, path: &Path) -> Result<()>;
    /// Names of the *files* directly inside `path` (subdirectories are
    /// skipped — the store never recurses).
    fn read_dir_files(&self, path: &Path) -> Result<Vec<String>>;
    /// A named sequencing hook. [`RealFs`] returns `Ok(())` unconditionally;
    /// [`FaultFs`] trips a crash here when armed on `name`. Store code
    /// places these between the distinct durability steps of flush,
    /// compaction and checkpoint creation (see [`crash_points`]).
    fn crash_point(&self, name: &'static str) -> Result<()> {
        let _ = name;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// RealFs
// ---------------------------------------------------------------------------

/// The production [`StoreFs`]: a thin passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl RealFs {
    /// A shared handle to the passthrough filesystem (what
    /// [`crate::DbOptions::default`] uses).
    pub fn shared() -> Arc<dyn StoreFs> {
        Arc::new(RealFs)
    }
}

struct RealFile(File);

impl Write for RealFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl FsFile for RealFile {
    fn sync_data(&mut self) -> Result<()> {
        self.0.sync_data()?;
        Ok(())
    }
    fn sync_all(&mut self) -> Result<()> {
        self.0.sync_all()?;
        Ok(())
    }
}

impl StoreFs for RealFs {
    fn create_dir_all(&self, path: &Path) -> Result<()> {
        std::fs::create_dir_all(path)?;
        Ok(())
    }

    fn create(&self, path: &Path) -> Result<Box<dyn FsFile>> {
        Ok(Box::new(RealFile(File::create(path)?)))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        let mut raw = Vec::new();
        File::open(path)?.read_to_end(&mut raw)?;
        Ok(raw)
    }

    fn file_len(&self, path: &Path) -> Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        std::fs::rename(from, to)?;
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> Result<()> {
        std::fs::remove_file(path)?;
        Ok(())
    }

    fn hard_link_or_copy(&self, from: &Path, to: &Path) -> Result<()> {
        if std::fs::hard_link(from, to).is_err() {
            std::fs::copy(from, to)?;
        }
        Ok(())
    }

    fn sync_dir(&self, path: &Path) -> Result<()> {
        // Opening a directory read-only and fsyncing it is the POSIX way
        // to make its entries durable; on platforms where that fails the
        // rename durability guarantee degrades gracefully (macOS HFS+
        // semantics), so errors opening the dir are not fatal.
        match File::open(path) {
            Ok(d) => {
                d.sync_all()?;
                Ok(())
            }
            Err(_) => Ok(()),
        }
    }

    fn read_dir_files(&self, path: &Path) -> Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(path)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Crash-point registry
// ---------------------------------------------------------------------------

/// The registry of every site where [`FaultFs`] can freeze the on-disk
/// image. Two flavours:
///
/// * **operation points** (`*:write`, `*:sync`, `manifest:rename`, …) trip
///   inside the corresponding [`StoreFs`] / [`FsFile`] call — a `*:write`
///   trip additionally tears the write, landing only a seed-determined
///   prefix of the buffer;
/// * **hook points** (`flush:*`, `compact:*`, `checkpoint:*`) are explicit
///   [`StoreFs::crash_point`] calls placed *between* the durability steps
///   of a compound operation, freezing the image in its intermediate
///   state.
///
/// The crash-torture harness sweeps [`crash_points::ALL`]; adding a new
/// point here automatically enrolls it.
pub mod crash_points {
    /// Torn write to an SSTable under construction.
    pub const SST_WRITE: &str = "sst:write";
    /// `sync_all` on a finished SSTable fails.
    pub const SST_SYNC: &str = "sst:sync";
    /// Torn write to `MANIFEST.tmp`.
    pub const MANIFEST_WRITE: &str = "manifest:write";
    /// `sync_all` on `MANIFEST.tmp` fails.
    pub const MANIFEST_SYNC: &str = "manifest:sync";
    /// The atomic `MANIFEST.tmp` → `MANIFEST` rename fails.
    pub const MANIFEST_RENAME: &str = "manifest:rename";
    /// The directory fsync after a manifest rename / checkpoint fails.
    pub const DIR_SYNC: &str = "dir:sync";
    /// Flush: SSTables written and synced, manifest not yet updated.
    pub const FLUSH_BEFORE_MANIFEST: &str = "flush:before-manifest";
    /// Compaction: merged SSTable written, manifest still references the
    /// inputs.
    pub const COMPACT_BEFORE_MANIFEST: &str = "compact:before-manifest";
    /// Compaction: manifest updated, input SSTables not yet deleted (the
    /// orphan-quarantine path at next open).
    pub const COMPACT_BEFORE_REMOVE_OLD: &str = "compact:before-remove-old";
    /// Filtered compaction: the merged table omits filter-discarded
    /// entries but the manifest still references the unfiltered inputs —
    /// recovery must keep serving the filtered keys from the inputs.
    /// Fires only when the compaction actually dropped entries.
    pub const COMPACT_FILTERED_BEFORE_MANIFEST: &str = "compact:filtered-before-manifest";
    /// Filtered compaction: manifest swapped to the filtered output —
    /// the dropped keys must never resurrect, even with the input tables
    /// still on disk (quarantined at the next open). Fires only when the
    /// compaction actually dropped entries.
    pub const COMPACT_FILTERED_AFTER_MANIFEST: &str = "compact:filtered-after-manifest";
    /// Checkpoint: before each file is linked/copied into the target (hit
    /// `k` freezes with `k - 1` files present — a partial checkpoint).
    pub const CHECKPOINT_MID_COPY: &str = "checkpoint:mid-copy";
    /// Checkpoint: all files present, the empty `wal.log` completeness
    /// marker not yet created.
    pub const CHECKPOINT_BEFORE_WAL_CREATE: &str = "checkpoint:before-wal-create";

    /// Every registered crash point, in sweep order.
    pub const ALL: &[&str] = &[
        SST_WRITE,
        SST_SYNC,
        MANIFEST_WRITE,
        MANIFEST_SYNC,
        MANIFEST_RENAME,
        DIR_SYNC,
        FLUSH_BEFORE_MANIFEST,
        COMPACT_BEFORE_MANIFEST,
        COMPACT_FILTERED_BEFORE_MANIFEST,
        COMPACT_FILTERED_AFTER_MANIFEST,
        COMPACT_BEFORE_REMOVE_OLD,
        CHECKPOINT_MID_COPY,
        CHECKPOINT_BEFORE_WAL_CREATE,
    ];
}

/// Marker embedded in every injected failure's message; [`is_injected`]
/// tests for it.
pub const INJECTED_TAG: &str = "railgun-fault-injected";

/// True iff `err` was produced by [`FaultFs`] fault injection (as opposed
/// to a real storage failure, which a torture harness must treat as a
/// bug).
pub fn is_injected(err: &RailgunError) -> bool {
    match err {
        RailgunError::Io(e) => e.to_string().contains(INJECTED_TAG),
        RailgunError::Storage(m) => m.contains(INJECTED_TAG),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// FaultFs
// ---------------------------------------------------------------------------

/// Where to freeze: trip on the `hit`-th time `point` is reached
/// (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// A name from [`crash_points`].
    pub point: &'static str,
    /// 1-based occurrence index of the point at which to trip.
    pub hit: u64,
}

#[derive(Debug)]
struct FaultState {
    rng: u64,
    armed: Option<CrashPlan>,
    hits: HashMap<&'static str, u64>,
    /// Set on trip: the image is frozen, every further op fails.
    crashed: bool,
}

impl FaultState {
    /// splitmix64 — tiny, seed-stable PRNG for torn-write prefix lengths.
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Count a hit of `point`; returns `Err` if the image is frozen or
    /// this hit trips the armed plan.
    fn check(&mut self, point: &'static str) -> Result<()> {
        if self.crashed {
            return Err(frozen_error());
        }
        let n = self.hits.entry(point).or_insert(0);
        *n += 1;
        let n = *n;
        if self.armed == Some(CrashPlan { point, hit: n }) {
            self.crashed = true;
            return Err(trip_error(point, n));
        }
        Ok(())
    }

    /// Like [`FaultState::check`] but for a torn write: on trip, returns
    /// the number of bytes of the in-flight buffer that still land.
    fn check_write(&mut self, point: &'static str, buf_len: usize) -> std::result::Result<(), usize> {
        if self.crashed {
            return Err(usize::MAX); // sentinel: frozen, nothing lands
        }
        let n = self.hits.entry(point).or_insert(0);
        *n += 1;
        let n = *n;
        if self.armed == Some(CrashPlan { point, hit: n }) {
            self.crashed = true;
            // A torn write lands a strict prefix (possibly empty).
            let keep = if buf_len == 0 {
                0
            } else {
                (self.next_u64() as usize) % buf_len
            };
            return Err(keep);
        }
        Ok(())
    }
}

fn trip_error(point: &str, hit: u64) -> RailgunError {
    RailgunError::Storage(format!("{INJECTED_TAG}: crash at {point} (hit {hit})"))
}

fn frozen_error() -> RailgunError {
    RailgunError::Storage(format!("{INJECTED_TAG}: filesystem frozen by earlier crash"))
}

fn io_trip_error(point: &str) -> io::Error {
    io::Error::other(format!("{INJECTED_TAG}: crash at {point}"))
}

/// Deterministic fault-injecting [`StoreFs`] over a real backing
/// directory.
///
/// Arm it with a [`CrashPlan`] and run a workload: when the plan's crash
/// point is reached for the `hit`-th time, the operation fails (tearing
/// the write in flight for `*:write` points) and the filesystem
/// **freezes** — every later operation fails too, so the backing
/// directory is the exact on-disk image of a crash at that instant.
/// Reopen it with [`RealFs`] to exercise recovery. See [`crate::torture`]
/// for the harness that sweeps all of [`crash_points::ALL`].
#[derive(Debug, Clone)]
pub struct FaultFs {
    state: Arc<Mutex<FaultState>>,
}

impl FaultFs {
    /// A fault filesystem with the given PRNG seed and no armed crash.
    pub fn new(seed: u64) -> Self {
        FaultFs {
            state: Arc::new(Mutex::new(FaultState {
                rng: seed,
                armed: None,
                hits: HashMap::new(),
                crashed: false,
            })),
        }
    }

    /// Arm (or disarm with `None`) the crash plan.
    pub fn arm(&self, plan: Option<CrashPlan>) {
        self.state.lock().armed = plan;
    }

    /// True iff a fault has tripped and the image is frozen.
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// How many times `point` has been reached so far.
    pub fn hit_count(&self, point: &'static str) -> u64 {
        *self.state.lock().hits.get(point).unwrap_or(&0)
    }

    /// All (point, hits) pairs observed so far — a profiling run uses
    /// this to enumerate the sweep space.
    pub fn hit_profile(&self) -> Vec<(&'static str, u64)> {
        let st = self.state.lock();
        let mut v: Vec<_> = st.hits.iter().map(|(&k, &n)| (k, n)).collect();
        v.sort_unstable();
        v
    }

    fn check(&self, point: &'static str) -> Result<()> {
        self.state.lock().check(point)
    }

    fn frozen_guard(&self) -> Result<()> {
        if self.state.lock().crashed {
            Err(frozen_error())
        } else {
            Ok(())
        }
    }

    /// Classify a path into its (write, sync) crash points. Any other
    /// file — the checkpoint marker, created empty and synced at once,
    /// right after its own hook point — has none.
    fn file_points(path: &Path) -> Option<(&'static str, &'static str)> {
        let name = path.file_name()?.to_string_lossy();
        if name.ends_with(".sst") {
            Some((crash_points::SST_WRITE, crash_points::SST_SYNC))
        } else if name.starts_with("MANIFEST") {
            Some((crash_points::MANIFEST_WRITE, crash_points::MANIFEST_SYNC))
        } else {
            None
        }
    }

    fn wrap(&self, path: &Path, inner: Box<dyn FsFile>) -> Box<dyn FsFile> {
        let Some((write_point, sync_point)) = Self::file_points(path) else {
            return inner;
        };
        Box::new(FaultFile {
            inner,
            state: Arc::clone(&self.state),
            write_point,
            sync_point,
        })
    }
}

struct FaultFile {
    inner: Box<dyn FsFile>,
    state: Arc<Mutex<FaultState>>,
    write_point: &'static str,
    sync_point: &'static str,
}

impl Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let verdict = self.state.lock().check_write(self.write_point, buf.len());
        match verdict {
            Ok(()) => self.inner.write(buf),
            Err(usize::MAX) => Err(io_trip_error("frozen")),
            Err(keep) => {
                // Torn write: a prefix lands, then the "process dies".
                let keep = keep.min(buf.len());
                if keep > 0 {
                    self.inner.write_all(&buf[..keep]).ok();
                    self.inner.flush().ok();
                }
                Err(io_trip_error(self.write_point))
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.state.lock().crashed {
            return Err(io_trip_error("frozen"));
        }
        self.inner.flush()
    }
}

impl FsFile for FaultFile {
    fn sync_data(&mut self) -> Result<()> {
        self.state.lock().check(self.sync_point)?;
        self.inner.sync_data()
    }
    fn sync_all(&mut self) -> Result<()> {
        self.state.lock().check(self.sync_point)?;
        self.inner.sync_all()
    }
}

impl StoreFs for FaultFs {
    fn create_dir_all(&self, path: &Path) -> Result<()> {
        self.frozen_guard()?;
        RealFs.create_dir_all(path)
    }

    fn create(&self, path: &Path) -> Result<Box<dyn FsFile>> {
        self.frozen_guard()?;
        Ok(self.wrap(path, RealFs.create(path)?))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        self.frozen_guard()?;
        RealFs.read(path)
    }

    fn file_len(&self, path: &Path) -> Result<u64> {
        self.frozen_guard()?;
        RealFs.file_len(path)
    }

    fn exists(&self, path: &Path) -> bool {
        RealFs.exists(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        if to.file_name().is_some_and(|n| n == "MANIFEST") {
            self.check(crash_points::MANIFEST_RENAME)?;
        } else {
            self.frozen_guard()?;
        }
        RealFs.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> Result<()> {
        self.frozen_guard()?;
        RealFs.remove_file(path)
    }

    fn hard_link_or_copy(&self, from: &Path, to: &Path) -> Result<()> {
        self.frozen_guard()?;
        RealFs.hard_link_or_copy(from, to)
    }

    fn sync_dir(&self, path: &Path) -> Result<()> {
        self.check(crash_points::DIR_SYNC)?;
        RealFs.sync_dir(path)
    }

    fn read_dir_files(&self, path: &Path) -> Result<Vec<String>> {
        self.frozen_guard()?;
        RealFs.read_dir_files(path)
    }

    fn crash_point(&self, name: &'static str) -> Result<()> {
        self.check(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("railgun-vfs-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn realfs_roundtrip() {
        let d = tmp("real");
        let fs = RealFs;
        let p = d.join("f");
        {
            let mut f = fs.create(&p).unwrap();
            f.write_all(b"hello").unwrap();
            f.sync_all().unwrap();
        }
        assert_eq!(fs.read(&p).unwrap(), b"hello");
        assert_eq!(fs.file_len(&p).unwrap(), 5);
        let p2 = d.join("g");
        fs.rename(&p, &p2).unwrap();
        assert!(!fs.exists(&p));
        assert!(fs.exists(&p2));
        fs.sync_dir(&d).unwrap();
        assert_eq!(fs.read_dir_files(&d).unwrap(), vec!["g".to_owned()]);
        fs.remove_file(&p2).unwrap();
        assert!(!fs.exists(&p2));
    }

    #[test]
    fn faultfs_passthrough_when_unarmed() {
        let d = tmp("pass");
        let fs = FaultFs::new(1);
        let p = d.join("00000001.sst");
        let mut f = fs.create(&p).unwrap();
        f.write_all(b"data").unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(fs.read(&p).unwrap(), b"data");
        assert!(!fs.crashed());
        assert_eq!(fs.hit_count(crash_points::SST_WRITE), 1);
        assert_eq!(fs.hit_count(crash_points::SST_SYNC), 1);
    }

    #[test]
    fn torn_write_lands_prefix_and_freezes() {
        let d = tmp("torn");
        let fs = FaultFs::new(42);
        fs.arm(Some(CrashPlan {
            point: crash_points::SST_WRITE,
            hit: 2,
        }));
        let p = d.join("00000001.sst");
        let mut f = fs.create(&p).unwrap();
        f.write_all(b"first-frame").unwrap();
        let err = f.write_all(b"second-frame").unwrap_err();
        assert!(err.to_string().contains(INJECTED_TAG));
        assert!(fs.crashed());
        // Frozen: everything fails now.
        assert!(fs.create(&d.join("x")).is_err());
        assert!(fs.read(&p).is_err());
        // The real image holds the first write plus a strict prefix of
        // the second.
        let raw = RealFs.read(&p).unwrap();
        assert!(raw.starts_with(b"first-frame"));
        assert!(raw.len() < b"first-frame".len() + b"second-frame".len());
        assert_eq!(&raw[..], &b"first-framesecond-frame"[..raw.len()]);
    }

    #[test]
    fn sync_and_rename_points_trip() {
        let d = tmp("sync");
        let fs = FaultFs::new(7);
        fs.arm(Some(CrashPlan {
            point: crash_points::MANIFEST_RENAME,
            hit: 1,
        }));
        let tmp_p = d.join("MANIFEST.tmp");
        let mut f = fs.create(&tmp_p).unwrap();
        f.write_all(b"m").unwrap();
        drop(f);
        let err = fs.rename(&tmp_p, &d.join("MANIFEST")).unwrap_err();
        assert!(is_injected(&err));
        // The rename did NOT happen.
        assert!(RealFs.exists(&tmp_p));
        assert!(!RealFs.exists(&d.join("MANIFEST")));
    }

    #[test]
    fn determinism_same_seed_same_tear() {
        let run = |seed: u64| {
            let d = tmp(&format!("det{seed}"));
            let fs = FaultFs::new(seed);
            fs.arm(Some(CrashPlan {
                point: crash_points::SST_WRITE,
                hit: 1,
            }));
            let p = d.join("00000001.sst");
            let mut f = fs.create(&p).unwrap();
            f.write_all(&[7u8; 64]).unwrap_err();
            drop(f);
            RealFs.read(&p).unwrap().len()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn registry_is_complete_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for p in crash_points::ALL {
            assert!(seen.insert(*p), "duplicate crash point {p}");
        }
        assert_eq!(crash_points::ALL.len(), 13);
    }
}
