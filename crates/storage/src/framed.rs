//! The framed log: the append-only, CRC-framed file format shared by every
//! log in a data directory (`wal-<gen>.log` and `decisions.log`), and the
//! only place its frame, torn-tail and rollback rules live.
//!
//! # Frame
//!
//! ```text
//! len u32 LE (payload bytes, 1..=MAX_FRAME), crc u32 LE (CRC-32 of the
//! payload), payload
//! ```
//!
//! A log may start with a fixed header of its own (the WAL's magic and
//! version); frames follow it back to back.
//!
//! # Torn tail
//!
//! Scanning from the first frame, the valid prefix ends at the first frame
//! whose length is zero or above [`MAX_FRAME`], that runs past end of file,
//! or whose CRC fails. A zero length is never written: an empty payload
//! checksums to `crc32(&[]) == 0`, so without the rule a zero-filled tail
//! (what a crash can leave after the file was extended) would read back as
//! phantom empty records. Everything past the valid prefix is a torn tail,
//! and [`FramedLog::recover`] cuts it off with `set_len` + `sync_data`, so
//! a later append can never land after garbage.
//!
//! # Rollback
//!
//! A failed append (short write, failed fsync, ENOSPC) may leave unknown
//! bytes past the acknowledged prefix. The log then marks itself dirty, and
//! the next append first truncates back to the acknowledged prefix and
//! syncs. An append therefore either becomes a durable frame at the end of
//! the valid prefix, or leaves no acknowledged trace — which is what makes
//! retrying a failed append safe.
//!
//! All I/O goes through the [`Vfs`], so `FaultVfs` schedules cover every
//! framed log alike.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::crc::crc32;
use crate::error::StorageError;
use crate::vfs::{Vfs, VfsFile};

/// Bytes of the `len` + `crc` words in front of every payload.
pub(crate) const FRAME_HEADER_LEN: usize = 8;

/// Upper bound on one frame's payload. A larger length word is a torn or
/// garbage tail, not an allocation request, and a larger payload is
/// refused at append time rather than written unreadable.
pub(crate) const MAX_FRAME: u32 = 64 << 20;

/// The payloads of the valid frames in `bytes`, starting at offset
/// `start`. Iteration stops at the torn tail; [`Frames::end`] is then the
/// end of the valid prefix.
pub(crate) fn frames(bytes: &[u8], start: usize) -> Frames<'_> {
    Frames { bytes, end: start }
}

/// Iterator returned by [`frames`].
pub(crate) struct Frames<'a> {
    bytes: &'a [u8],
    end: usize,
}

impl Frames<'_> {
    /// End offset of the last frame yielded (the scan's start before any).
    pub(crate) fn end(&self) -> usize {
        self.end
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let header = self.bytes.get(self.end..self.end + FRAME_HEADER_LEN)?;
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4-byte word"));
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4-byte word"));
        if len == 0 || len > MAX_FRAME {
            return None;
        }
        let start = self.end + FRAME_HEADER_LEN;
        let payload = self.bytes.get(start..start + len as usize)?;
        if crc32(payload) != crc {
            return None;
        }
        self.end = start + len as usize;
        Some(payload)
    }
}

/// An open framed log positioned for appends.
pub(crate) struct FramedLog {
    vfs: Arc<dyn Vfs>,
    file: Box<dyn VfsFile>,
    path: PathBuf,
    /// End of the acknowledged prefix: the log's header plus every synced
    /// frame.
    acked: u64,
    /// Length of the frame written but not yet synced.
    unsynced: Option<u64>,
    /// Bytes past `acked` may exist, so the next append rolls back first.
    dirty: bool,
}

impl FramedLog {
    /// Open `path` for appends, creating it when missing. An empty file
    /// first gets `header` (possibly empty), written and synced. Until
    /// [`FramedLog::recover`] runs, the whole file counts as acknowledged.
    pub(crate) fn open(
        vfs: &Arc<dyn Vfs>,
        path: &Path,
        header: &[u8],
    ) -> Result<FramedLog, StorageError> {
        let io = |e| StorageError::io(path, e);
        let mut file = vfs.open_append(path).map_err(io)?;
        let mut len = vfs.file_len(path).map_err(io)?;
        if len == 0 && !header.is_empty() {
            file.write_all(header)
                .and_then(|_| file.sync_data())
                .map_err(io)?;
            len = header.len() as u64;
        }
        Ok(FramedLog {
            vfs: Arc::clone(vfs),
            file,
            path: path.to_owned(),
            acked: len,
            unsynced: None,
            dirty: false,
        })
    }

    /// The whole file, header included.
    pub(crate) fn read(&self) -> Result<Vec<u8>, StorageError> {
        self.vfs
            .read(&self.path)
            .map_err(|e| StorageError::io(&self.path, e))
    }

    /// Hand each valid frame of `bytes` (the file as [`FramedLog::read`]
    /// returned it) from offset `start` to `visit`, then cut the torn tail
    /// off with `set_len` + `sync_data`. The valid prefix becomes the
    /// acknowledged prefix. An error from `visit` aborts the scan and
    /// leaves the file alone: a frame that passed its CRC but does not
    /// decode is corruption, not tearing.
    pub(crate) fn recover(
        &mut self,
        bytes: &[u8],
        start: usize,
        mut visit: impl FnMut(&[u8]) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        let mut valid = frames(bytes, start);
        for payload in valid.by_ref() {
            visit(payload)?;
        }
        let end = valid.end() as u64;
        if end < bytes.len() as u64 {
            self.file
                .set_len(end)
                .and_then(|_| self.file.sync_data())
                .map_err(|e| StorageError::io(&self.path, e))?;
        }
        self.acked = end;
        self.unsynced = None;
        self.dirty = false;
        Ok(())
    }

    /// Write one frame around `payload`, rolling back a failed earlier
    /// append first. The frame is not acknowledged until [`FramedLog::sync`]
    /// succeeds. Returns the frame's length in bytes.
    pub(crate) fn write(&mut self, payload: &[u8]) -> Result<u64, StorageError> {
        if payload.is_empty() || payload.len() > MAX_FRAME as usize {
            return Err(StorageError::io(
                &self.path,
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("frame payload of {} bytes", payload.len()),
                ),
            ));
        }
        if self.dirty {
            self.file
                .set_len(self.acked)
                .and_then(|_| self.file.sync_data())
                .map_err(|e| StorageError::io(&self.path, e))?;
            self.dirty = false;
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.dirty = true;
        self.unsynced = None;
        self.file
            .write_all(&frame)
            .map_err(|e| StorageError::io(&self.path, e))?;
        self.unsynced = Some(frame.len() as u64);
        Ok(frame.len() as u64)
    }

    /// Sync the frame [`FramedLog::write`] just wrote; on success it joins
    /// the acknowledged prefix. A failed sync leaves the frame
    /// unacknowledged for good: the next append rolls it back.
    pub(crate) fn sync(&mut self) -> Result<(), StorageError> {
        let unsynced = self.unsynced.take();
        self.file
            .sync_data()
            .map_err(|e| StorageError::io(&self.path, e))?;
        if let Some(len) = unsynced {
            self.acked += len;
            self.dirty = false;
        }
        Ok(())
    }

    /// End of the acknowledged prefix in bytes, header included.
    pub(crate) fn acked_len(&self) -> u64 {
        self.acked
    }

    /// Path of the underlying file.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultKind, FaultOp, FaultPlan, FaultVfs, StdVfs};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "linrec-framed-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut f = (payload.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(&crc32(payload).to_le_bytes());
        f.extend_from_slice(payload);
        f
    }

    #[test]
    fn scan_stops_at_every_torn_tail_shape() {
        let mut good = frame(b"one");
        good.extend(frame(b"two"));
        let end = good.len();
        let oversize = {
            let mut f = (MAX_FRAME + 1).to_le_bytes().to_vec();
            f.extend_from_slice(&[0; 4]);
            f
        };
        let past_eof = frame(b"three")[..10].to_vec();
        let bad_crc = {
            let mut f = frame(b"four");
            f[9] ^= 0xFF;
            f
        };
        for tail in [vec![0u8; 64], oversize, past_eof, bad_crc, vec![1, 2, 3]] {
            let mut bytes = good.clone();
            bytes.extend_from_slice(&tail);
            let mut it = frames(&bytes, 0);
            assert_eq!(it.by_ref().collect::<Vec<_>>(), [&b"one"[..], &b"two"[..]]);
            assert_eq!(it.end(), end, "tail {tail:?}");
        }
    }

    #[test]
    fn empty_and_oversize_payloads_are_refused() {
        let dir = tmpdir("refuse");
        let path = dir.join("log");
        let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
        let mut log = FramedLog::open(&vfs, &path, b"HDR").unwrap();
        assert!(log.write(b"").is_err());
        assert!(log.write(&vec![0; MAX_FRAME as usize + 1]).is_err());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 3);
        assert_eq!(log.write(b"x").unwrap(), 9);
        log.sync().unwrap();
        assert_eq!(log.acked_len(), 12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_sync_is_not_acknowledged_by_a_retried_sync() {
        let dir = tmpdir("sync");
        let path = dir.join("log");
        // Syncs: 1 = header, 2 = the first frame's (fails).
        let vfs: Arc<dyn Vfs> =
            FaultVfs::new(FaultPlan::none().fail_nth(FaultOp::Sync, 2, FaultKind::Eio));
        let mut log = FramedLog::open(&vfs, &path, b"HDR").unwrap();
        log.write(b"a").unwrap();
        assert!(log.sync().is_err());
        log.sync().unwrap();
        assert_eq!(log.acked_len(), 3, "the failed frame stays unacknowledged");
        log.write(b"b").unwrap();
        log.sync().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes, [&b"HDR"[..], &frame(b"b")].concat());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_rollback_is_retried_before_the_next_write() {
        let dir = tmpdir("rollback");
        let path = dir.join("log");
        // Writes: 1 = header, 2 = frame (torn), 3 = rollback (fails),
        // 4 = rollback, 5 = frame.
        let vfs: Arc<dyn Vfs> = FaultVfs::new(
            FaultPlan::none()
                .fail_nth(FaultOp::Write, 2, FaultKind::ShortWrite)
                .fail_nth(FaultOp::Write, 3, FaultKind::Eio),
        );
        let mut log = FramedLog::open(&vfs, &path, b"HDR").unwrap();
        assert!(log.write(b"torn frame").is_err());
        assert!(log.write(b"b").is_err(), "the rollback itself failed");
        log.write(b"c").unwrap();
        log.sync().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes, [&b"HDR"[..], &frame(b"c")].concat());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_truncates_the_torn_tail_unless_a_frame_is_rejected() {
        let dir = tmpdir("recover");
        let path = dir.join("log");
        let torn = [&b"HDR"[..], &frame(b"a"), &[0u8; 16]].concat();
        std::fs::write(&path, &torn).unwrap();
        let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
        let mut log = FramedLog::open(&vfs, &path, b"HDR").unwrap();
        let bytes = log.read().unwrap();
        let rejected = log.recover(&bytes, 3, |_| Err(StorageError::corrupt(&path, "no")));
        assert!(matches!(rejected, Err(StorageError::Corrupt { .. })));
        assert_eq!(std::fs::read(&path).unwrap(), torn, "file left alone");
        let mut seen = Vec::new();
        log.recover(&bytes, 3, |p| {
            seen.push(p.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, [b"a".to_vec()]);
        assert_eq!(log.acked_len(), 12);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 12);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
