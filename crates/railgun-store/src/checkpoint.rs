//! Checkpoints: consistent on-disk snapshots of a database.
//!
//! The paper (§4.1.3) synchronizes state-store checkpoints with reservoir
//! checkpoints and notes they are cheap because the LSM persists data
//! continuously — a checkpoint only has to capture the (immutable) SSTables
//! and the manifest. We hard-link SSTables when the filesystem allows it
//! and fall back to copying, like RocksDB's checkpoint feature.
//!
//! All I/O goes through the [`StoreFs`] seam, with crash points before
//! each file lands ([`crash_points::CHECKPOINT_MID_COPY`]) and before the
//! completeness marker — an empty `wal.log`, the name the image format
//! has always used — is created
//! ([`crash_points::CHECKPOINT_BEFORE_WAL_CREATE`]) — a partial
//! checkpoint must be detected as invalid by whoever tries to restore
//! from it, never silently opened.

use std::path::Path;

use railgun_types::{RailgunError, Result};

use crate::db::WAL_FILE;
use crate::vfs::{crash_points, StoreFs};

/// Snapshot `files` (relative names inside `src`) into `target`.
///
/// `target` must not already contain a checkpoint; it is created fresh.
/// Callers must ensure the files are immutable for the duration (the
/// [`crate::Db`] holds its lock and flushes first). The target directory
/// is fsynced at the end so the checkpoint's entries survive a crash.
pub fn create(fs: &dyn StoreFs, src: &Path, target: &Path, files: &[String]) -> Result<()> {
    if fs.exists(target) && !fs.read_dir_files(target)?.is_empty() {
        return Err(RailgunError::InvalidArgument(format!(
            "checkpoint target {} is not empty",
            target.display()
        )));
    }
    fs.create_dir_all(target)?;
    for name in files {
        // Hit `k` freezes the image with `k - 1` files present: a
        // partial checkpoint, missing its manifest or some SSTs.
        fs.crash_point(crash_points::CHECKPOINT_MID_COPY)?;
        let from = src.join(name);
        let to = target.join(name);
        // Hard links make checkpoints O(1) per file; immutability of SSTs
        // and atomic manifest replacement keep them safe.
        fs.hard_link_or_copy(&from, &to)?;
    }
    fs.crash_point(crash_points::CHECKPOINT_BEFORE_WAL_CREATE)?;
    // The empty marker says every file above landed.
    fs.create(&target.join(WAL_FILE))?.sync_all()?;
    fs.sync_dir(target)?;
    Ok(())
}

/// True iff `dir` contains a *complete* checkpoint.
///
/// Creation writes the empty `wal.log` marker last — after the manifest
/// and every SSTable, before the directory fsync — so its presence
/// implies all files landed. Restore paths must check this (and fall
/// back to full replay) instead of opening a partial image, which would
/// otherwise bootstrap as an empty database.
pub fn is_complete(fs: &dyn StoreFs, dir: &Path) -> bool {
    fs.exists(&dir.join(WAL_FILE)) && fs.exists(&dir.join("MANIFEST"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::RealFs;
    use std::fs;
    use std::path::PathBuf;

    fn fresh(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("railgun-ckptmod-{}-{name}", std::process::id()));
        fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn copies_named_files() {
        let src = fresh("src");
        let dst = fresh("dst");
        fs::create_dir_all(&src).unwrap();
        fs::write(src.join("a.sst"), b"AAA").unwrap();
        fs::write(src.join("MANIFEST"), b"MMM").unwrap();
        fs::write(src.join("ignored.tmp"), b"TTT").unwrap();
        create(&RealFs, &src, &dst, &["a.sst".into(), "MANIFEST".into()]).unwrap();
        assert_eq!(fs::read(dst.join("a.sst")).unwrap(), b"AAA");
        assert_eq!(fs::read(dst.join("MANIFEST")).unwrap(), b"MMM");
        assert!(!dst.join("ignored.tmp").exists());
        assert!(dst.join("wal.log").exists());
    }

    #[test]
    fn refuses_nonempty_target() {
        let src = fresh("src2");
        let dst = fresh("dst2");
        fs::create_dir_all(&src).unwrap();
        fs::create_dir_all(&dst).unwrap();
        fs::write(dst.join("existing"), b"x").unwrap();
        assert!(create(&RealFs, &src, &dst, &[]).is_err());
    }

    #[test]
    fn empty_target_dir_is_ok() {
        let src = fresh("src3");
        let dst = fresh("dst3");
        fs::create_dir_all(&src).unwrap();
        fs::create_dir_all(&dst).unwrap(); // exists but empty
        create(&RealFs, &src, &dst, &[]).unwrap();
        assert!(dst.join("wal.log").exists());
    }
}
