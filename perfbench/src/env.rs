//! What the environment could change, pinned where the benchmark can and
//! recorded with every result where it cannot.

use crate::Ctx;
use std::path::{Path, PathBuf};

/// Environment variables the program reads and the benchmark overrides:
/// engine parallelism is set explicitly instead, and the fault-injection
/// test hook stays off.
const UNSET: [&str; 2] = ["LINREC_THREADS", "LINREC_FAULT_INJECTION"];

/// Remove [`UNSET`] from this process (and so from every server it
/// spawns), remembering what was there for the record.
pub fn pin() {
    let found: Vec<String> = UNSET
        .iter()
        .filter_map(|k| std::env::var(k).ok().map(|v| format!("{k}={v}")))
        .collect();
    for k in UNSET {
        std::env::remove_var(k);
    }
    let _ = FOUND.set(found);
}

static FOUND: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "none (not a git checkout)".to_owned())
}

/// FNV-1a over the program's sources (`crates/**/*.rs`, in path order):
/// identifies the code measured when there is no git revision.
fn source_hash() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() && !p.ends_with("target") {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for f in &files {
        for b in std::fs::read(f).unwrap_or_default() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
    }
    format!("{:016x} ({} files)", h, files.len())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split(' ');
            let (_, mnt, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt).then(|| (mnt.len(), ty.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".to_owned(), |(_, ty)| ty)
}

/// The environment record carried by every result.
pub fn record(ctx: &Ctx) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let found = FOUND.get().cloned().unwrap_or_default();
    vec![
        ("git_rev", git_rev()),
        ("source_hash", source_hash()),
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu_model()),
        (
            "data_dir_fs",
            fs_type(ctx.work.parent().unwrap_or(&ctx.work)),
        ),
        (
            "engine_parallelism",
            "sequential (Parallelism::sequential)".to_owned(),
        ),
        ("obs_enabled", linrec_obs::enabled().to_string()),
        (
            "checkpoint_policy",
            format!(
                "every {} batches or {} WAL bytes",
                crate::served::CHECKPOINT_BATCHES,
                linrec_service::CheckpointPolicy::default().max_wal_bytes
            ),
        ),
        (
            "fsync",
            "per commit (WAL append + fsync before ack)".to_owned(),
        ),
        (
            "env_unset",
            if found.is_empty() {
                format!("{} (none were set)", UNSET.join(","))
            } else {
                format!("{} (found {})", UNSET.join(","), found.join(" "))
            },
        ),
        ("run_log", ctx.log.display().to_string()),
    ]
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB (0 when unreadable).
pub fn peak_rss_mb(status: &str) -> f64 {
    std::fs::read_to_string(status)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
