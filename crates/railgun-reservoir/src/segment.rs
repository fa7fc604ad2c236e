//! Append-only segment files holding serialized chunks.
//!
//! Chunks are appended to ordered files; once a file reaches its size
//! target it is **sealed** and never written again (§4.1.1: "files hold
//! multiple chunks of events, until they reach a fixed size, after which
//! they become immutable"). Sequential layout means the OS read-ahead
//! usually has the next chunk in page cache before the reservoir asks for
//! it — the property the paper leans on to relax hardware requirements.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use railgun_types::{RailgunError, Result, Timestamp};

use crate::format::{decode_chunk, DecodedChunk};

/// Sequential identifier of a segment file within one reservoir.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileNo(pub u64);

/// Where one chunk lives inside a segment file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkLocation {
    pub file: FileNo,
    pub offset: u64,
    pub len: u32,
}

/// Metadata for one segment file.
#[derive(Debug, Clone)]
pub struct SegmentMeta {
    pub file: FileNo,
    pub first_ts: Timestamp,
    pub last_ts: Timestamp,
    pub bytes: u64,
    pub chunk_count: u32,
    pub sealed: bool,
}

/// File name for a segment number.
pub fn segment_file_name(no: FileNo) -> String {
    format!("seg-{:08}.rail", no.0)
}

/// The writer half: appends chunk frames to the active segment, sealing
/// files at the size target.
pub struct SegmentWriter {
    dir: PathBuf,
    target_bytes: u64,
    active: Option<(FileNo, File, SegmentMeta)>,
    next_file: FileNo,
    sealed: Vec<SegmentMeta>,
}

impl SegmentWriter {
    /// Create a writer appending into `dir`, starting at `next_file`.
    pub fn new(dir: &Path, target_bytes: u64, next_file: FileNo) -> Self {
        SegmentWriter {
            dir: dir.to_path_buf(),
            target_bytes: target_bytes.max(1),
            active: None,
            next_file,
            sealed: Vec::new(),
        }
    }

    /// Append an encoded chunk frame; returns its location.
    pub fn append(
        &mut self,
        frame: &[u8],
        first_ts: Timestamp,
        last_ts: Timestamp,
    ) -> Result<ChunkLocation> {
        if self.active.is_none() {
            let no = self.next_file;
            self.next_file = FileNo(no.0 + 1);
            let path = self.dir.join(segment_file_name(no));
            let file = OpenOptions::new().create_new(true).append(true).open(path)?;
            self.active = Some((
                no,
                file,
                SegmentMeta {
                    file: no,
                    first_ts,
                    last_ts,
                    bytes: 0,
                    chunk_count: 0,
                    sealed: false,
                },
            ));
        }
        let (no, file, meta) = self.active.as_mut().expect("just ensured");
        let offset = meta.bytes;
        file.write_all(frame)?;
        meta.bytes += frame.len() as u64;
        meta.chunk_count += 1;
        meta.last_ts = last_ts;
        if meta.chunk_count == 1 {
            meta.first_ts = first_ts;
        }
        let loc = ChunkLocation {
            file: *no,
            offset,
            len: frame.len() as u32,
        };
        if meta.bytes >= self.target_bytes {
            self.seal_active()?;
        }
        Ok(loc)
    }

    /// Seal the active file (fsync + mark immutable), if any.
    pub fn seal_active(&mut self) -> Result<()> {
        if let Some((_, file, mut meta)) = self.active.take() {
            file.sync_all()?;
            meta.sealed = true;
            self.sealed.push(meta);
        }
        Ok(())
    }

    /// Flush the active file to disk without sealing.
    pub fn sync(&mut self) -> Result<()> {
        if let Some((_, file, _)) = self.active.as_mut() {
            file.sync_data()?;
        }
        Ok(())
    }

    /// Metadata of every sealed file plus the active one (if any).
    pub fn metas(&self) -> Vec<SegmentMeta> {
        let mut out = self.sealed.clone();
        if let Some((_, _, m)) = &self.active {
            out.push(m.clone());
        }
        out
    }

    /// Next file number the writer would allocate.
    pub fn next_file(&self) -> FileNo {
        self.next_file
    }

    /// Drain sealed-file metadata accumulated since the last call.
    pub fn take_sealed(&mut self) -> Vec<SegmentMeta> {
        std::mem::take(&mut self.sealed)
    }
}

/// Read one chunk frame from a segment file. Every failure — the open,
/// the read, the frame's checks — names the file and the offset.
pub fn read_chunk_at(dir: &Path, loc: ChunkLocation) -> Result<DecodedChunk> {
    let path = dir.join(segment_file_name(loc.file));
    let read = || -> Result<DecodedChunk> {
        let mut file = File::open(&path)?;
        file.seek(SeekFrom::Start(loc.offset))?;
        let mut buf = vec![0u8; loc.len as usize];
        file.read_exact(&mut buf)?;
        match decode_chunk(&buf)? {
            Some(frame) => Ok(frame.chunk),
            None => Err(RailgunError::Corruption("chunk frame truncated".into())),
        }
    };
    let place = format!("{}:{}", path.display(), loc.offset);
    read().map_err(|e| match e {
        RailgunError::Corruption(what) => RailgunError::Corruption(format!("{place}: {what}")),
        RailgunError::Io(e) => {
            RailgunError::Io(std::io::Error::new(e.kind(), format!("{place}: {e}")))
        }
        other => other,
    })
}

/// A chunk recovered from a segment scan.
pub struct RecoveredChunk {
    pub chunk: DecodedChunk,
    pub location: ChunkLocation,
}

/// Scan every `seg-*.rail` file in `dir` in order, yielding all intact
/// chunks. A torn frame at the tail of the **last** file is tolerated
/// (crash during append); torn frames elsewhere are corruption.
pub fn scan_segments(dir: &Path) -> Result<(Vec<RecoveredChunk>, Vec<SegmentMeta>, FileNo)> {
    let mut names: Vec<(FileNo, PathBuf)> = Vec::new();
    if dir.exists() {
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".rail"))
            {
                let no: u64 = num.parse().map_err(|_| {
                    RailgunError::Corruption(format!("bad segment name {name}"))
                })?;
                names.push((FileNo(no), entry.path()));
            }
        }
    }
    names.sort_by_key(|(no, _)| *no);
    let mut chunks = Vec::new();
    let mut metas = Vec::new();
    let mut next_file = FileNo(0);
    let last_idx = names.len().saturating_sub(1);
    for (idx, (no, path)) in names.iter().enumerate() {
        next_file = FileNo(no.0 + 1);
        let raw = std::fs::read(path)?;
        let mut offset = 0usize;
        let mut meta: Option<SegmentMeta> = None;
        while offset < raw.len() {
            match decode_chunk(&raw[offset..])? {
                Some(frame) => {
                    let loc = ChunkLocation {
                        file: *no,
                        offset: offset as u64,
                        len: frame.frame_len as u32,
                    };
                    let m = meta.get_or_insert(SegmentMeta {
                        file: *no,
                        first_ts: frame.chunk.first_ts,
                        last_ts: frame.chunk.last_ts,
                        bytes: 0,
                        chunk_count: 0,
                        sealed: idx != last_idx,
                    });
                    m.last_ts = frame.chunk.last_ts;
                    m.chunk_count += 1;
                    m.bytes = (offset + frame.frame_len) as u64;
                    offset += frame.frame_len;
                    chunks.push(RecoveredChunk {
                        chunk: frame.chunk,
                        location: loc,
                    });
                }
                None if idx == last_idx => break, // torn tail after crash
                None => {
                    return Err(RailgunError::Corruption(format!(
                        "torn frame in sealed segment {}",
                        path.display()
                    )))
                }
            }
        }
        if let Some(m) = meta {
            metas.push(m);
        }
    }
    Ok((chunks, metas, next_file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::Codec;
    use crate::format::{encode_chunk, ChunkId};
    use railgun_types::{Event, EventId, SchemaId, Value};

    fn fresh(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("railgun-seg-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn frame(id: u64, ts0: i64, n: u64) -> (Vec<u8>, Timestamp, Timestamp) {
        let events: Vec<Event> = (0..n)
            .map(|i| {
                Event::new(
                    EventId(id * 1000 + i),
                    Timestamp::from_millis(ts0 + i as i64),
                    vec![Value::Int(i as i64)],
                )
            })
            .collect();
        let mut buf = Vec::new();
        encode_chunk(&mut buf, ChunkId(id), SchemaId(0), Codec::RailZ, &events);
        (buf, events[0].ts, events[n as usize - 1].ts)
    }

    #[test]
    fn append_read_roundtrip() {
        let dir = fresh("rw");
        let mut w = SegmentWriter::new(&dir, 1 << 20, FileNo(0));
        let (f1, a1, b1) = frame(1, 100, 10);
        let loc1 = w.append(&f1, a1, b1).unwrap();
        let (f2, a2, b2) = frame(2, 200, 20);
        let loc2 = w.append(&f2, a2, b2).unwrap();
        w.sync().unwrap();
        let c1 = read_chunk_at(&dir, loc1).unwrap();
        assert_eq!(c1.id, ChunkId(1));
        assert_eq!(c1.events.len(), 10);
        let c2 = read_chunk_at(&dir, loc2).unwrap();
        assert_eq!(c2.id, ChunkId(2));
        assert_eq!(loc2.offset, f1.len() as u64);
    }

    #[test]
    fn files_seal_at_target_size() {
        let dir = fresh("seal");
        let mut w = SegmentWriter::new(&dir, 1, FileNo(0)); // seal every chunk
        for i in 0..5 {
            let (f, a, b) = frame(i, i as i64 * 100, 10);
            w.append(&f, a, b).unwrap();
        }
        let metas = w.metas();
        assert!(metas.len() >= 5, "each chunk should seal its file");
        assert!(metas.iter().take(metas.len() - 1).all(|m| m.sealed));
        assert_eq!(w.next_file().0 as usize, metas.len());
    }

    #[test]
    fn scan_recovers_all_chunks() {
        let dir = fresh("scan");
        {
            let mut w = SegmentWriter::new(&dir, 300, FileNo(0));
            for i in 0..8 {
                let (f, a, b) = frame(i, i as i64 * 1000, 5);
                w.append(&f, a, b).unwrap();
            }
            w.sync().unwrap();
        }
        let (chunks, metas, next_file) = scan_segments(&dir).unwrap();
        assert_eq!(chunks.len(), 8);
        assert!(chunks.windows(2).all(|w| w[0].chunk.id < w[1].chunk.id));
        assert!(!metas.is_empty());
        assert!(next_file.0 >= metas.len() as u64);
        // Every recovered location re-reads correctly.
        for rc in &chunks {
            let again = read_chunk_at(&dir, rc.location).unwrap();
            assert_eq!(again.id, rc.chunk.id);
        }
    }

    #[test]
    fn scan_tolerates_torn_tail_in_last_file() {
        let dir = fresh("torn");
        {
            let mut w = SegmentWriter::new(&dir, 1 << 20, FileNo(0));
            for i in 0..3 {
                let (f, a, b) = frame(i, i as i64 * 1000, 5);
                w.append(&f, a, b).unwrap();
            }
            w.sync().unwrap();
        }
        // Truncate the (single, active) file mid-frame.
        let path = dir.join(segment_file_name(FileNo(0)));
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 10]).unwrap();
        let (chunks, _, _) = scan_segments(&dir).unwrap();
        assert_eq!(chunks.len(), 2);
    }

    #[test]
    fn scan_empty_dir() {
        let dir = fresh("empty");
        let (chunks, metas, next_file) = scan_segments(&dir).unwrap();
        assert!(chunks.is_empty());
        assert!(metas.is_empty());
        assert_eq!(next_file, FileNo(0));
    }

    #[test]
    fn writer_resumes_after_recovery_without_collision() {
        let dir = fresh("resume");
        {
            let mut w = SegmentWriter::new(&dir, 50, FileNo(0)); // seals every chunk
            let (f, a, b) = frame(0, 0, 5);
            w.append(&f, a, b).unwrap();
        }
        let (_, _, next_file) = scan_segments(&dir).unwrap();
        let mut w = SegmentWriter::new(&dir, 50, next_file);
        let (f, a, b) = frame(1, 1000, 5);
        // Must not hit create_new collision with the existing file.
        w.append(&f, a, b).unwrap();
        let (chunks, _, _) = scan_segments(&dir).unwrap();
        assert_eq!(chunks.len(), 2);
    }
}
