//! `decisions.log` — an append-only journal of plan-decision records,
//! stored next to the WAL.
//!
//! Each record is one decision as UTF-8 JSON, framed by the crate's shared
//! framed log (`framed.rs`), which also owns the torn-tail and rollback
//! rules: a reader gets the longest valid frame prefix, [`DecisionLog::open`]
//! truncates a torn tail, and a failed append is cut back before the next
//! one, so later appends land after valid bytes, never after garbage. The
//! log is strictly observability data: a failed append must never fail an
//! acknowledged batch (the service counts the error and moves on).

use std::path::Path;
use std::sync::Arc;

use crate::error::StorageError;
use crate::framed::{frames, FramedLog};
use crate::vfs::Vfs;

/// File name of the decision log inside a data directory.
pub const DECISIONS_FILE: &str = "decisions.log";

/// Append handle for a data directory's `decisions.log`.
pub struct DecisionLog {
    log: FramedLog,
    appended: u64,
}

impl DecisionLog {
    /// Open (creating if missing) the decision log in `dir`. An existing
    /// file is scanned and a torn tail truncated, exactly as the WAL is.
    pub fn open(vfs: &Arc<dyn Vfs>, dir: &Path) -> Result<DecisionLog, StorageError> {
        vfs.create_dir_all(dir)
            .map_err(|e| StorageError::io(dir, e))?;
        let mut log = FramedLog::open(vfs, &dir.join(DECISIONS_FILE), &[])?;
        let bytes = log.read()?;
        log.recover(&bytes, 0, |_| Ok(()))?;
        Ok(DecisionLog { log, appended: 0 })
    }

    /// Append one JSON record as a frame and fsync it. A failed append
    /// leaves no record; the next append rolls its bytes back first.
    pub fn append(&mut self, json: &str) -> Result<(), StorageError> {
        self.log.write(json.as_bytes())?;
        self.log.sync()?;
        self.appended += 1;
        Ok(())
    }

    /// Records appended through this handle.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        self.log.path()
    }
}

/// Read every valid record from `dir`'s decision log, oldest first. A
/// missing file yields an empty list; a torn or corrupt tail ends the
/// list at the last valid frame (never an error — the log is
/// observability data and a readable prefix is always useful).
pub fn read_decision_log(vfs: &dyn Vfs, dir: &Path) -> Result<Vec<String>, StorageError> {
    let path = dir.join(DECISIONS_FILE);
    let bytes = match vfs.read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(StorageError::io(&path, e)),
    };
    // Frames are written from &str, so lossy never actually lossies; it
    // just keeps a disk-corrupted record from killing the read.
    Ok(frames(&bytes, 0)
        .map(|payload| String::from_utf8_lossy(payload).into_owned())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultKind, FaultOp, FaultPlan, FaultVfs, StdVfs};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "linrec-decisions-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_records_across_reopen() {
        let dir = temp_dir("roundtrip");
        let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
        let mut log = DecisionLog::open(&vfs, &dir).unwrap();
        log.append("{\"winner\":\"Direct\"}").unwrap();
        log.append("{\"winner\":\"DenseClosure\"}").unwrap();
        assert_eq!(log.appended(), 2);
        drop(log);
        let records = read_decision_log(vfs.as_ref(), &dir).unwrap();
        assert_eq!(
            records,
            vec![
                "{\"winner\":\"Direct\"}".to_string(),
                "{\"winner\":\"DenseClosure\"}".to_string()
            ]
        );
        // Reopen appends after the existing records.
        let mut log = DecisionLog::open(&vfs, &dir).unwrap();
        log.append("{\"winner\":\"Decomposed\"}").unwrap();
        drop(log);
        assert_eq!(read_decision_log(vfs.as_ref(), &dir).unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_log_reads_empty() {
        let dir = temp_dir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(read_decision_log(&StdVfs, &dir).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_open_and_ignored_on_read() {
        let dir = temp_dir("torn");
        let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
        let mut log = DecisionLog::open(&vfs, &dir).unwrap();
        log.append("{\"seq\":1}").unwrap();
        drop(log);
        // Simulate a torn frame: a header promising more bytes than exist.
        let path = dir.join(DECISIONS_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(b"partial");
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            read_decision_log(vfs.as_ref(), &dir).unwrap(),
            vec!["{\"seq\":1}".to_string()]
        );
        // Open truncates the torn tail; the next append is then readable.
        let mut log = DecisionLog::open(&vfs, &dir).unwrap();
        log.append("{\"seq\":2}").unwrap();
        drop(log);
        assert_eq!(
            read_decision_log(vfs.as_ref(), &dir).unwrap(),
            vec!["{\"seq\":1}".to_string(), "{\"seq\":2}".to_string()]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_frame_ends_the_readable_prefix() {
        let dir = temp_dir("corrupt");
        let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
        let mut log = DecisionLog::open(&vfs, &dir).unwrap();
        log.append("{\"seq\":1}").unwrap();
        log.append("{\"seq\":2}").unwrap();
        drop(log);
        let path = dir.join(DECISIONS_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte of the second frame.
        let n = bytes.len();
        bytes[n - 2] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            read_decision_log(vfs.as_ref(), &dir).unwrap(),
            vec!["{\"seq\":1}".to_string()]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_append_rolls_back_and_keeps_the_prefix_valid() {
        let dir = temp_dir("fault");
        let vfs: Arc<dyn Vfs> =
            FaultVfs::new(FaultPlan::none().fail_nth(FaultOp::Write, 2, FaultKind::Eio));
        let mut log = DecisionLog::open(&vfs, &dir).unwrap();
        log.append("{\"seq\":1}").unwrap();
        assert!(log.append("{\"seq\":2}").is_err());
        // The failed frame was rolled back; appends keep working and the
        // file stays a clean frame sequence.
        log.append("{\"seq\":3}").unwrap();
        drop(log);
        assert_eq!(
            read_decision_log(vfs.as_ref(), &dir).unwrap(),
            vec!["{\"seq\":1}".to_string(), "{\"seq\":3}".to_string()]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeded_chaos_always_leaves_a_valid_prefix() {
        for seed in 0..8u64 {
            let dir = temp_dir(&format!("chaos{seed}"));
            let vfs: Arc<dyn Vfs> = FaultVfs::new(FaultPlan::seeded_ops(
                seed,
                120,
                vec![FaultOp::Write, FaultOp::Sync],
            ));
            let mut log = match DecisionLog::open(&vfs, &dir) {
                Ok(log) => log,
                Err(_) => continue,
            };
            let mut acked = Vec::new();
            for i in 0..32 {
                let record = format!("{{\"seq\":{i}}}");
                if log.append(&record).is_ok() {
                    acked.push(record);
                }
            }
            drop(log);
            // Every acked record must read back, in order. Records whose
            // append *failed* may still be on disk (e.g. the frame was
            // written, the sync faulted, and the rollback faulted too),
            // so `read` may be a superset — that is loss-free too.
            let read = read_decision_log(&StdVfs, &dir).unwrap();
            let mut it = read.iter();
            for record in &acked {
                assert!(
                    it.any(|r| r == record),
                    "seed {seed}: acked record {record} lost (read back {read:?})"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn zero_filled_tail_reads_back_only_the_real_records() {
        let dir = temp_dir("zeros");
        let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
        let mut log = DecisionLog::open(&vfs, &dir).unwrap();
        log.append("{\"seq\":1}").unwrap();
        log.append("{\"seq\":2}").unwrap();
        drop(log);
        let path = dir.join(DECISIONS_FILE);
        let real = std::fs::metadata(&path).unwrap().len();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0u8; 64]);
        std::fs::write(&path, &bytes).unwrap();
        let records = vec!["{\"seq\":1}".to_string(), "{\"seq\":2}".to_string()];
        assert_eq!(read_decision_log(vfs.as_ref(), &dir).unwrap(), records);
        // Open cuts the zeros off, so the next append lands right after
        // the real records.
        let mut log = DecisionLog::open(&vfs, &dir).unwrap();
        log.append("{\"seq\":3}").unwrap();
        drop(log);
        let frame_len = 8 + "{\"seq\":3}".len() as u64;
        assert_eq!(std::fs::metadata(&path).unwrap().len(), real + frame_len);
        let mut records = records;
        records.push("{\"seq\":3}".to_string());
        assert_eq!(read_decision_log(vfs.as_ref(), &dir).unwrap(), records);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_read_fault_during_open_never_truncates_acked_records() {
        let dir = temp_dir("readfault");
        let clean: Arc<dyn Vfs> = Arc::new(StdVfs);
        let mut log = DecisionLog::open(&clean, &dir).unwrap();
        let records: Vec<String> = (0..4).map(|i| format!("{{\"seq\":{i}}}")).collect();
        for r in &records {
            log.append(r).unwrap();
        }
        drop(log);
        let fault: Arc<dyn Vfs> =
            FaultVfs::new(FaultPlan::none().fail_nth(FaultOp::Read, 1, FaultKind::Transient));
        // Either the open reports the fault, or it saw the whole file.
        if let Ok(mut log) = DecisionLog::open(&fault, &dir) {
            log.append("{\"seq\":4}").unwrap();
        }
        let read = read_decision_log(clean.as_ref(), &dir).unwrap();
        assert!(read.starts_with(&records), "acked records lost: {read:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
