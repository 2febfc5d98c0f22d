//! Sweep checkpoint files: crash-safe progress records for long sweeps.
//!
//! The sweep engine does not use this store: its run cache already keeps
//! every finished cell, so an interrupted sweep resumes by rerunning
//! against the same cache directory. The repo benchmark still prices the
//! store's append and take paths.
//!
//! A checkpoint is one file recording every finished cell of a sweep (or a
//! whole session of sweeps — keys are content-addressed, so one file can
//! serve any number of [`crate::sweep`] invocations). An interrupted run
//! re-opened with the same checkpoint resumes exactly where it stopped:
//! completed cells are served from the file byte-identically (the cell
//! codec's `decode(encode(x)) == x` contract), and only the remainder is
//! computed.
//!
//! # File format
//!
//! ```text
//! header:  magic "SWCK" | version u32 LE | root_seed u64 LE
//! record:  body_len u32 LE | fnv64(body) LE | body
//! body:    key digest (16 bytes, the run cache's double-FNV of the cell's
//!          key_bytes) | encoded cell output
//! ```
//!
//! The file is created atomically (temp file + rename, the run cache's
//! envelope discipline) and then grows by appending checksummed records —
//! an interrupted append leaves a truncated tail record, never a corrupt
//! prefix. The loader is tolerant by construction, mirroring the cache
//! codec: a missing file is an empty checkpoint; a bad header (wrong
//! magic/version, or a different sweep `root_seed`) discards the whole
//! file; a bad record (short, oversized, or checksum-mismatched) discards
//! that record and everything after it. Discarded cells are simply
//! recomputed — corruption can never poison a resumed sweep, and loading
//! never panics. Hard I/O failures (unwritable path) are reported as
//! [`Error::Checkpoint`], since a checkpoint the user asked for that
//! cannot be written would silently lose the crash-safety they wanted.

use crate::error::Error;
use std::collections::HashMap;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every checkpoint file.
const MAGIC: &[u8; 4] = b"SWCK";
/// Checkpoint format version; bump when the record layout changes.
const VERSION: u32 = 1;
/// Header length in bytes.
const HEADER_LEN: u64 = 4 + 4 + 8;
/// Reject absurd record lengths before allocating.
const MAX_RECORD: u32 = 1 << 28;
/// Records buffered between file flushes. Small enough that a crash loses
/// at most a moment of progress, large enough to amortise syscalls.
const FLUSH_EVERY: usize = 32;

/// What [`CheckpointStore::open`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Valid records loaded (cells that will be served without compute).
    pub loaded: usize,
    /// Whether an invalid header or record forced part (or all) of the
    /// file to be discarded and truncated away.
    pub discarded: bool,
}

/// An open checkpoint: the loaded entries plus an append handle.
///
/// Entries are *consumed* by [`take`](Self::take): the sweep engine
/// serves each completed cell once, in submission order, so a served
/// entry's memory is released immediately instead of living for the whole
/// sweep — the resume path keeps the engine's bounded-memory property.
#[derive(Debug)]
pub struct CheckpointStore {
    path: PathBuf,
    file: std::fs::File,
    entries: HashMap<[u8; 16], Vec<u8>>,
    buffer: Vec<u8>,
    unflushed: usize,
    /// What loading found (kept for progress reporting).
    pub report: LoadReport,
}

/// Serialize the fixed file header.
fn header_bytes(root_seed: u64) -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_LEN as usize);
    h.extend_from_slice(MAGIC);
    h.extend_from_slice(&VERSION.to_le_bytes());
    h.extend_from_slice(&root_seed.to_le_bytes());
    h
}

/// Parse the record stream after a valid header. Returns the entries and
/// the byte offset just past the last valid record.
fn parse_records(bytes: &[u8]) -> (HashMap<[u8; 16], Vec<u8>>, u64, bool) {
    let mut entries = HashMap::new();
    let mut at = HEADER_LEN as usize;
    loop {
        let Some(head) = bytes.get(at..at + 12) else {
            // Clean EOF (or a tail shorter than a record head).
            return (entries, at as u64, at != bytes.len());
        };
        let len = u32::from_le_bytes(head[0..4].try_into().unwrap());
        let checksum = u64::from_le_bytes(head[4..12].try_into().unwrap());
        if !(16..=MAX_RECORD).contains(&len) {
            return (entries, at as u64, true);
        }
        let Some(body) = bytes.get(at + 12..at + 12 + len as usize) else {
            return (entries, at as u64, true); // truncated tail record
        };
        if crate::sweep::fnv64(body) != checksum {
            return (entries, at as u64, true);
        }
        let digest: [u8; 16] = body[0..16].try_into().unwrap();
        entries.insert(digest, body[16..].to_vec());
        at += 12 + len as usize;
    }
}

impl CheckpointStore {
    /// Open (or create) the checkpoint at `path` for a sweep rooted at
    /// `root_seed`, loading every valid record.
    ///
    /// Corruption is tolerated (see module docs); only hard I/O failures
    /// return an error.
    pub fn open(path: &Path, root_seed: u64) -> Result<CheckpointStore, Error> {
        let err = |reason: String| Error::Checkpoint {
            path: path.to_path_buf(),
            reason,
        };
        let existing = match std::fs::read(path) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(err(format!("read: {e}"))),
        };

        let header = header_bytes(root_seed);
        let (entries, valid_len, discarded) = match &existing {
            Some(bytes) if bytes.len() >= HEADER_LEN as usize && bytes[..16] == header[..] => {
                parse_records(bytes)
            }
            // Missing file: fresh checkpoint, nothing discarded.
            None => (HashMap::new(), HEADER_LEN, false),
            // Bad magic/version/root-seed (or a file shorter than the
            // header): every record is untrusted — start over.
            Some(_) => (HashMap::new(), HEADER_LEN, true),
        };

        // (Re-)create the file atomically when starting fresh, so a crash
        // mid-create never leaves a half-written header; otherwise truncate
        // away any invalid tail and append after the valid prefix.
        if existing.is_none() || entries.is_empty() && discarded {
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir).map_err(|e| err(format!("create dir: {e}")))?;
                }
            }
            let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
            std::fs::write(&tmp, &header).map_err(|e| err(format!("create: {e}")))?;
            std::fs::rename(&tmp, path).map_err(|e| err(format!("rename: {e}")))?;
        }
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| err(format!("open for append: {e}")))?;
        if !entries.is_empty() || !discarded {
            file.set_len(valid_len)
                .map_err(|e| err(format!("truncate invalid tail: {e}")))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| err(format!("seek: {e}")))?;

        let loaded = entries.len();
        Ok(CheckpointStore {
            path: path.to_path_buf(),
            file,
            entries,
            buffer: Vec::new(),
            unflushed: 0,
            report: LoadReport { loaded, discarded },
        })
    }

    /// Serve (and consume) the entry for a cell-key digest, if recorded.
    pub fn take(&mut self, digest: &[u8; 16]) -> Option<Vec<u8>> {
        self.entries.remove(digest)
    }

    /// Record one completed cell. Buffered; an fsync'd flush happens every
    /// `FLUSH_EVERY` (32) records and at [`finalize`](Self::finalize).
    pub fn append(&mut self, digest: &[u8; 16], payload: &[u8]) -> Result<(), Error> {
        let mut body = Vec::with_capacity(16 + payload.len());
        body.extend_from_slice(digest);
        body.extend_from_slice(payload);
        self.buffer
            .extend_from_slice(&(body.len() as u32).to_le_bytes());
        self.buffer
            .extend_from_slice(&crate::sweep::fnv64(&body).to_le_bytes());
        self.buffer.extend_from_slice(&body);
        self.unflushed += 1;
        if self.unflushed >= FLUSH_EVERY {
            self.flush()?;
        }
        Ok(())
    }

    /// Write buffered records to the file.
    pub(crate) fn flush(&mut self) -> Result<(), Error> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let res = self.file.write_all(&self.buffer);
        self.buffer.clear();
        self.unflushed = 0;
        res.map_err(|e| Error::Checkpoint {
            path: self.path.clone(),
            reason: format!("append: {e}"),
        })
    }

    /// Flush and durably sync the checkpoint (end of sweep, or the final
    /// write after a cancellation).
    pub fn finalize(&mut self) -> Result<(), Error> {
        self.flush()?;
        self.file.sync_all().map_err(|e| Error::Checkpoint {
            path: self.path.clone(),
            reason: format!("sync: {e}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("swck-{}-{tag}.bin", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn digest(n: u8) -> [u8; 16] {
        [n; 16]
    }

    #[test]
    fn round_trips_records_across_reopen() {
        let path = temp_path("round-trip");
        let mut ck = CheckpointStore::open(&path, 7).unwrap();
        ck.append(&digest(1), b"one").unwrap();
        ck.append(&digest(2), b"two").unwrap();
        ck.finalize().unwrap();
        drop(ck);

        let mut ck = CheckpointStore::open(&path, 7).unwrap();
        assert_eq!(
            ck.report,
            LoadReport {
                loaded: 2,
                discarded: false
            }
        );
        assert_eq!(ck.take(&digest(1)).as_deref(), Some(&b"one"[..]));
        assert_eq!(ck.take(&digest(2)).as_deref(), Some(&b"two"[..]));
        assert_eq!(ck.take(&digest(2)), None, "entries are consumed once");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn different_root_seed_discards_the_file() {
        let path = temp_path("root-seed");
        let mut ck = CheckpointStore::open(&path, 7).unwrap();
        ck.append(&digest(1), b"one").unwrap();
        ck.finalize().unwrap();
        drop(ck);

        let ck = CheckpointStore::open(&path, 8).unwrap();
        assert_eq!(
            ck.report,
            LoadReport {
                loaded: 0,
                discarded: true
            }
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_tail_keeps_the_valid_prefix() {
        let path = temp_path("truncated");
        let mut ck = CheckpointStore::open(&path, 1).unwrap();
        ck.append(&digest(1), b"payload-one").unwrap();
        ck.append(&digest(2), b"payload-two").unwrap();
        ck.finalize().unwrap();
        drop(ck);

        let bytes = std::fs::read(&path).unwrap();
        for cut in [bytes.len() - 1, bytes.len() - 5, bytes.len() - 20] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let mut ck = CheckpointStore::open(&path, 1).unwrap();
            assert!(ck.report.discarded, "cut at {cut} must report discard");
            assert!(
                ck.take(&digest(1)).is_some(),
                "first record survives a tail cut at {cut}"
            );
            assert!(ck.take(&digest(2)).is_none(), "cut at {cut} drops the tail");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flip_discards_from_the_flipped_record_on() {
        let path = temp_path("bit-flip");
        let mut ck = CheckpointStore::open(&path, 1).unwrap();
        ck.append(&digest(1), b"payload-one").unwrap();
        ck.append(&digest(2), b"payload-two").unwrap();
        ck.finalize().unwrap();
        drop(ck);

        // Flip one byte inside the *second* record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let mut ck = CheckpointStore::open(&path, 1).unwrap();
        assert!(ck.report.discarded);
        assert!(
            ck.take(&digest(1)).is_some(),
            "records before the flip survive"
        );
        assert!(
            ck.take(&digest(2)).is_none(),
            "the flipped record is dropped"
        );

        // Flip a byte inside the header: everything goes.
        bytes[5] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let ck = CheckpointStore::open(&path, 1).unwrap();
        assert_eq!(
            ck.report,
            LoadReport {
                loaded: 0,
                discarded: true
            }
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn appending_after_a_discarded_tail_yields_a_clean_file() {
        let path = temp_path("heal");
        let mut ck = CheckpointStore::open(&path, 1).unwrap();
        ck.append(&digest(1), b"one").unwrap();
        ck.append(&digest(2), b"two").unwrap();
        ck.finalize().unwrap();
        drop(ck);

        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let mut ck = CheckpointStore::open(&path, 1).unwrap();
        ck.append(&digest(3), b"three").unwrap();
        ck.finalize().unwrap();
        drop(ck);

        let mut ck = CheckpointStore::open(&path, 1).unwrap();
        assert_eq!(
            ck.report,
            LoadReport {
                loaded: 2,
                discarded: false
            }
        );
        assert!(ck.take(&digest(1)).is_some() && ck.take(&digest(3)).is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_an_empty_checkpoint() {
        let path = temp_path("missing");
        let ck = CheckpointStore::open(&path, 1).unwrap();
        assert_eq!(
            ck.report,
            LoadReport {
                loaded: 0,
                discarded: false
            }
        );
        assert!(path.exists(), "open creates the file");
        let _ = std::fs::remove_file(&path);
    }
}
