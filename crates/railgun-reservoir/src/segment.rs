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

use railgun_types::{RailgunError, Result};

use crate::format::{decode_chunk, DecodedChunk, DecodedFrame};

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

/// File name for a segment number.
pub fn segment_file_name(no: FileNo) -> String {
    format!("seg-{:08}.rail", no.0)
}

/// The writer half: appends chunk frames to the active segment, sealing
/// files at the size target or when asked to (a checkpoint). The seal's
/// fsync is the only one a segment gets.
pub struct SegmentWriter {
    dir: PathBuf,
    target_bytes: u64,
    /// The active file and its length.
    active: Option<(FileNo, File, u64)>,
    next_file: FileNo,
}

impl SegmentWriter {
    /// Create a writer appending into `dir`, starting at `next_file`.
    pub fn new(dir: &Path, target_bytes: u64, next_file: FileNo) -> Self {
        SegmentWriter {
            dir: dir.to_path_buf(),
            target_bytes: target_bytes.max(1),
            active: None,
            next_file,
        }
    }

    /// Append an encoded chunk frame; returns its location and whether
    /// the append filled its file, which is then sealed.
    pub fn append(&mut self, frame: &[u8]) -> Result<(ChunkLocation, bool)> {
        if self.active.is_none() {
            let no = self.next_file;
            self.next_file = FileNo(no.0 + 1);
            let path = self.dir.join(segment_file_name(no));
            let file = OpenOptions::new().create_new(true).append(true).open(path)?;
            self.active = Some((no, file, 0));
        }
        let (no, file, bytes) = self.active.as_mut().expect("just ensured");
        let loc = ChunkLocation {
            file: *no,
            offset: *bytes,
            len: frame.len() as u32,
        };
        file.write_all(frame)?;
        *bytes += frame.len() as u64;
        let full = *bytes >= self.target_bytes;
        if full {
            self.seal_active()?;
        }
        Ok((loc, full))
    }

    /// Seal the active file, if any: fsync it and never append to it
    /// again. Returns the file sealed; a failed fsync leaves it active.
    pub fn seal_active(&mut self) -> Result<Option<FileNo>> {
        let Some((no, file, _)) = &self.active else {
            return Ok(None);
        };
        file.sync_all()?;
        let no = *no;
        self.active = None;
        Ok(Some(no))
    }

    /// Next file number the writer would allocate.
    pub fn next_file(&self) -> FileNo {
        self.next_file
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

/// Scan every `seg-*.rail` file in `dir` in order, yielding all chunks
/// and the next free file number. A reservoir is only ever opened on a
/// checkpoint image, or on a directory whose writer finished, and every
/// segment of an image is sealed whole before the image is published: a
/// torn frame anywhere, the last file's tail included, is corruption.
pub fn scan_segments(dir: &Path) -> Result<(Vec<RecoveredChunk>, FileNo)> {
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
    let mut next_file = FileNo(0);
    for (no, path) in &names {
        next_file = FileNo(no.0 + 1);
        for (offset, frame) in read_frames(path)? {
            let location = ChunkLocation {
                file: *no,
                offset,
                len: frame.frame_len as u32,
            };
            chunks.push(RecoveredChunk {
                chunk: frame.chunk,
                location,
            });
        }
    }
    Ok((chunks, next_file))
}

/// Every chunk of a file written whole and fsynced before anyone reads
/// it.
pub fn read_chunks(path: &Path) -> Result<Vec<DecodedChunk>> {
    let frames = read_frames(path)?;
    Ok(frames.into_iter().map(|(_, frame)| frame.chunk).collect())
}

/// Decode every frame of the file at `path`, with its offset. A torn
/// frame is corruption.
fn read_frames(path: &Path) -> Result<Vec<(u64, DecodedFrame)>> {
    let raw = std::fs::read(path)?;
    let mut frames = Vec::new();
    let mut offset = 0;
    while offset < raw.len() {
        match decode_chunk(&raw[offset..])? {
            Some(frame) => {
                let len = frame.frame_len;
                frames.push((offset as u64, frame));
                offset += len;
            }
            None => {
                return Err(RailgunError::Corruption(format!(
                    "torn frame in {}",
                    path.display()
                )))
            }
        }
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::Codec;
    use crate::format::{encode_chunk, ChunkId};
    use railgun_types::{Event, EventId, SchemaId, Timestamp, Value};

    fn fresh(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("railgun-seg-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn frame(id: u64, ts0: i64, n: u64) -> Vec<u8> {
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
        buf
    }

    #[test]
    fn append_read_roundtrip() {
        let dir = fresh("rw");
        let mut w = SegmentWriter::new(&dir, 1 << 20, FileNo(0));
        let f1 = frame(1, 100, 10);
        let (loc1, sealed) = w.append(&f1).unwrap();
        assert!(!sealed);
        let (loc2, _) = w.append(&frame(2, 200, 20)).unwrap();
        let c1 = read_chunk_at(&dir, loc1).unwrap();
        assert_eq!(c1.id, ChunkId(1));
        assert_eq!(c1.len(), 10);
        let c2 = read_chunk_at(&dir, loc2).unwrap();
        assert_eq!(c2.id, ChunkId(2));
        assert_eq!(loc2.offset, f1.len() as u64);
    }

    #[test]
    fn files_seal_at_target_size() {
        let dir = fresh("seal");
        let mut w = SegmentWriter::new(&dir, 1, FileNo(0)); // seal every chunk
        for i in 0..5 {
            let (loc, sealed) = w.append(&frame(i, i as i64 * 100, 10)).unwrap();
            assert_eq!((loc.file, loc.offset, sealed), (FileNo(i), 0, true));
        }
        assert_eq!(w.seal_active().unwrap(), None, "nothing left to seal");
        assert_eq!(w.next_file(), FileNo(5));
    }

    #[test]
    fn a_seal_ends_the_active_file() {
        let dir = fresh("seal-early");
        let mut w = SegmentWriter::new(&dir, 1 << 20, FileNo(0));
        w.append(&frame(0, 0, 5)).unwrap();
        assert_eq!(w.seal_active().unwrap(), Some(FileNo(0)));
        let (loc, _) = w.append(&frame(1, 1000, 5)).unwrap();
        assert_eq!((loc.file, loc.offset), (FileNo(1), 0));
    }

    #[test]
    fn scan_recovers_all_chunks() {
        let dir = fresh("scan");
        {
            let mut w = SegmentWriter::new(&dir, 300, FileNo(0));
            for i in 0..8 {
                w.append(&frame(i, i as i64 * 1000, 5)).unwrap();
            }
        }
        let (chunks, next_file) = scan_segments(&dir).unwrap();
        assert_eq!(chunks.len(), 8);
        assert!(chunks.windows(2).all(|w| w[0].chunk.id < w[1].chunk.id));
        assert!(next_file.0 > chunks.last().unwrap().location.file.0);
        // Every recovered location re-reads correctly.
        for rc in &chunks {
            let again = read_chunk_at(&dir, rc.location).unwrap();
            assert_eq!(again.id, rc.chunk.id);
        }
    }

    #[test]
    fn scan_rejects_torn_tail_in_last_file() {
        let dir = fresh("torn");
        {
            let mut w = SegmentWriter::new(&dir, 1 << 20, FileNo(0));
            for i in 0..3 {
                w.append(&frame(i, i as i64 * 1000, 5)).unwrap();
            }
        }
        // Truncate the last file mid-frame.
        let path = dir.join(segment_file_name(FileNo(0)));
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 10]).unwrap();
        assert!(matches!(scan_segments(&dir), Err(RailgunError::Corruption(_))));
        assert!(matches!(read_chunks(&path), Err(RailgunError::Corruption(_))));
    }

    #[test]
    fn scan_empty_dir() {
        let dir = fresh("empty");
        let (chunks, next_file) = scan_segments(&dir).unwrap();
        assert!(chunks.is_empty());
        assert_eq!(next_file, FileNo(0));
    }

    #[test]
    fn writer_resumes_after_recovery_without_collision() {
        let dir = fresh("resume");
        {
            let mut w = SegmentWriter::new(&dir, 50, FileNo(0)); // seals every chunk
            w.append(&frame(0, 0, 5)).unwrap();
        }
        let (_, next_file) = scan_segments(&dir).unwrap();
        let mut w = SegmentWriter::new(&dir, 50, next_file);
        // Must not hit create_new collision with the existing file.
        w.append(&frame(1, 1000, 5)).unwrap();
        let (chunks, _) = scan_segments(&dir).unwrap();
        assert_eq!(chunks.len(), 2);
    }
}
