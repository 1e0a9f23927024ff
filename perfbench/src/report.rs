//! Metric names, units and the result line. The names here are the ones
//! `BENCHMARK.json` declares; every run reports every one of them.

use crate::stats::{median, percentile, tail_percentile_ok, Summary};
use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), the same three on every workload.
/// "op" is the workload's unit of work: a commit (`ingest`), a read
/// (`read_mixed`), an evaluation pass (`eval_mix`); `op_ms` is its time
/// by the statistic [`OpStat`] the workload names, the one that repeats
/// best from run to run for its operations (see the README). Each result
/// also prints the minimum, median, mean, tail and throughput under the
/// workload's own names.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("op_ms", "ms"), ("peak_rss_mb", "MB")];

/// Which statistic of a workload's operation times `op_ms` declares.
pub enum OpStat {
    /// The median: reads mix asks and selects, and a read's time also
    /// depends on an ACK race on the wire that sends 1–12% of them, by
    /// run, to a second request period (see the README); the median is
    /// the typical read and does not follow that share.
    Median,
    /// The mean: commits differ in the work they do (leaves at different
    /// depths; one in 16 checkpoints under the writer lock), and a closed
    /// loop's client pays for every one of them, the stalls included.
    Mean,
    /// The fastest operation: every operation does the same work, so
    /// time above the fastest is interference from the host, whose speed
    /// alternates between phases lasting seconds to minutes.
    Min,
}

/// Per-layer metrics (`--trace 1`). A layer a workload does not use
/// reports 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("view.maintain_ms.p50", "ms"),
    ("view.maintain_ms.p95", "ms"),
    ("engine.scan_builds_per_batch", "count"),
    ("engine.col_index_builds_per_batch", "count"),
    ("engine.rounds_per_batch", "count"),
    ("engine.round_ms.mean", "ms"),
    ("service.batch_ms.p50", "ms"),
    ("service.batch_ms.p95", "ms"),
    ("service.publish_ms.p50", "ms"),
    ("service.unattributed_ms", "ms"),
    ("service.plan_drift", "count"),
    ("storage.wal_append_ms.p50", "ms"),
    ("storage.wal_fsync_ms.p50", "ms"),
    ("storage.wal_bytes_per_user_byte", "ratio"),
    ("storage.checkpoint_ms.p50", "ms"),
    ("storage.checkpoints", "count"),
    ("storage.bytes_written_per_user_byte", "ratio"),
    ("storage.dir_bytes", "bytes"),
    ("storage.recover_ms", "ms"),
    ("storage.replayed_batches", "count"),
    ("protocol.request_us.p50", "us"),
    ("protocol.request_us.p99", "us"),
    ("protocol.wire_ms.p50", "ms"),
    ("commit.wall_ms.mean", "ms"),
    ("commit.wire_ms.mean", "ms"),
    ("commit.protocol_ms.mean", "ms"),
    ("commit.maintain_ms.mean", "ms"),
    ("commit.wal_append_ms.mean", "ms"),
    ("commit.wal_fsync_ms.mean", "ms"),
    ("commit.checkpoint_ms.mean", "ms"),
    ("commit.publish_ms.mean", "ms"),
    ("commit.named_share", "ratio"),
    ("engine.execute_ms.tc_chain_1k", "ms"),
    ("engine.execute_ms.tc_sparse_20k", "ms"),
    ("engine.execute_ms.updown_d10", "ms"),
    ("engine.execute_ms.updown_d16_sel", "ms"),
    ("engine.execute_ms.shopping_400", "ms"),
    ("engine.dense_compose_ms", "ms"),
    ("engine.dense_closures", "count"),
    ("engine.useful_ratio", "ratio"),
    ("engine.plan_ms", "ms"),
    ("lint.check_ms", "ms"),
    ("engine.estimate_actual_ratio.p50", "ratio"),
    ("obs.trace_overhead_pct", "%"),
    ("process.rss_growth_mb", "MB"),
    ("harness.send_late_ms.p99", "ms"),
];

/// What one workload run produced.
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Values for [`END_TO_END`], by name.
    pub e2e: Vec<(&'static str, f64)>,
    /// The workload's metrics under their own names (`commit_p95_ms`,
    /// `read_p99_ms`, `failed_ratio`, …) with units, for the summary line.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer values by [`PER_LAYER`] name (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    /// Raw samples behind the timing metrics.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// The environment record.
    pub env: Vec<(&'static str, String)>,
    /// Facts about the inputs (plan shapes, sizes).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            e2e: Vec::new(),
            named: Vec::new(),
            layers: Vec::new(),
            samples: Vec::new(),
            env: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Count one attempted operation and its check.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// Record the operation latencies `samples` (ms): `op_ms` by
    /// `declared`, and under the workload's own `names` the minimum, the
    /// median, the mean and the `tail` percentile (noted when fewer than
    /// ten samples lie beyond it).
    pub fn op_latency(
        &mut self,
        samples: &[f64],
        names: [&'static str; 4],
        tail: f64,
        declared: OpStat,
    ) {
        let min = samples.iter().copied().reduce(f64::min).unwrap_or(0.0);
        let p50 = median(samples).unwrap_or(0.0);
        let mean = samples.iter().sum::<f64>() / samples.len().max(1) as f64;
        let tail_value = percentile(samples, tail).unwrap_or(0.0);
        if !tail_percentile_ok(samples.len(), tail) {
            self.notes.push(format!(
                "{} is p{tail} of only {} samples: fewer than ten beyond it",
                names[3],
                samples.len()
            ));
        }
        let op = match declared {
            OpStat::Median => p50,
            OpStat::Mean => mean,
            OpStat::Min => min,
        };
        self.e2e.push(("op_ms", op));
        self.named.push((names[0], min, "ms"));
        self.named.push((names[1], p50, "ms"));
        self.named.push((names[2], mean, "ms"));
        self.named.push((names[3], tail_value, "ms"));
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared layer metric {name}"
        );
        self.layers.push((name, value));
    }

    /// One human-readable line: every metric of this workload by its own
    /// name, with its unit.
    pub fn summary_line(&self) -> String {
        let mut s = format!("# {}:", self.workload);
        for (name, value, unit) in &self.named {
            let _ = write!(s, " {name}={value:.4}{unit}");
        }
        let _ = write!(
            s,
            " failed_ratio={:.4} (failed {} of {} attempted)",
            self.failed_ratio(),
            self.failed,
            self.attempted
        );
        s
    }

    /// The full record: environment, named metrics, per-layer metrics and
    /// each sample's count, median and quartiles.
    pub fn detail_json(&self) -> String {
        let mut s = format!("{{\"workload\":\"{}\",\"env\":{{", self.workload);
        for (i, (k, v)) in self.env.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(s, "{sep}\"{k}\":\"{}\"", linrec_obs::trace::json_escape(v));
        }
        s.push_str("},\"named\":{");
        for (i, (k, v, unit)) in self.named.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                s,
                "{sep}\"{k}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(*v)
            );
        }
        s.push_str("},\"samples\":{");
        for (i, (k, v)) in self.samples.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let summary = Summary::of(v).map_or("null".to_owned(), |s| s.json());
            let _ = write!(s, "{sep}\"{k}\":{summary}");
        }
        s.push_str("},\"layers\":{");
        for (i, (k, v)) in self.layers.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(s, "{sep}\"{k}\":{}", num(*v));
        }
        let _ = write!(
            s,
            "}},\"attempted\":{},\"failed\":{},\"errors\":[",
            self.attempted, self.failed
        );
        for (i, e) in self.errors.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(s, "{sep}\"{}\"", linrec_obs::trace::json_escape(e));
        }
        s.push_str("],\"notes\":[");
        for (i, n) in self.notes.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(s, "{sep}\"{}\"", linrec_obs::trace::json_escape(n));
        }
        s.push_str("]}");
        s
    }
}

/// A JSON number (non-finite values, which no metric should produce,
/// become 0 rather than invalid JSON).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The last line of standard output. With one workload the metric names
/// are the declared ones; with `--workload all` each is prefixed by its
/// workload.
pub fn result_json(outcomes: &[Outcome], trace: bool) -> String {
    let mut metrics = String::new();
    for o in outcomes {
        let prefix = if outcomes.len() > 1 {
            format!("{}/", o.workload)
        } else {
            String::new()
        };
        let values: Vec<(&str, &str, f64)> = if trace {
            PER_LAYER
                .iter()
                .map(|(n, u)| (*n, *u, lookup(&o.layers, n)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (*n, *u, lookup(&o.e2e, n)))
                .collect()
        };
        for (name, unit, value) in values {
            let sep = if metrics.is_empty() { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{prefix}{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            );
        }
    }
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0 && attempted > 0
    )
}

fn lookup(values: &[(&'static str, f64)], name: &str) -> f64 {
    values
        .iter()
        .rev()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// Append one line to the run log.
pub fn append_log(path: &std::path::Path, line: &str) {
    use std::io::Write as _;
    if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(path) {
        let _ = writeln!(f, "{line}");
    }
}
