//! `perfbench` — one benchmark for the served linrec system.
//!
//! ```text
//! perfbench --workload <ingest|read_mixed|eval_mix|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- …`). The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The lines before it name every metric of the workload
//! with its unit, plus the environment record and per-metric sample
//! statistics. `perfbench/README.md` describes the workloads, the metrics
//! and what each per-layer metric is expected to move.

mod env;
mod evalmix;
mod gen;
mod oracle;
mod report;
mod served;
mod stats;
mod trace;
mod wire;

use report::Outcome;
use std::process::ExitCode;

/// Everything a workload needs to know about its run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch space for data directories, removed when the run ends.
    pub work: std::path::PathBuf,
    /// Where the run log (server stderr included) and the span dump go.
    pub log: std::path::PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <ingest|read_mixed|eval_mix|all> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn run_one(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    // The benchmark runs from the repository root; its files stay in its
    // own directory.
    let root = std::path::Path::new("perfbench");
    let tag = format!("{workload}-seed{seed}-trace{}", u8::from(trace));
    let work = root
        .join(".work")
        .join(format!("{tag}-{}", std::process::id()));
    let logs = root.join("runs");
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    std::fs::create_dir_all(&logs).map_err(|e| format!("{}: {e}", logs.display()))?;
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        work,
        log: logs.join(format!("{tag}.log")),
    };
    std::fs::write(&ctx.log, "").map_err(|e| format!("{}: {e}", ctx.log.display()))?;
    let outcome = match workload {
        "ingest" => served::ingest(&ctx),
        "read_mixed" => served::read_mixed(&ctx),
        "eval_mix" => evalmix::run(&ctx),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let mut outcome = outcome?;
    outcome.env = env::record(&ctx);
    report::append_log(&ctx.log, &outcome.detail_json());
    for (name, samples) in &outcome.samples {
        let raw: Vec<String> = samples.iter().map(|v| format!("{v}")).collect();
        report::append_log(&ctx.log, &format!("# samples {name} [{}]", raw.join(",")));
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return match served::serve_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench serve: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next();
        match (flag.as_str(), value) {
            ("--workload", Some(v)) => workload = Some(v.clone()),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--seconds", Some(v)) => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            ("--trace", Some(v)) => trace = matches!(v.as_str(), "0" | "1").then(|| v == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    env::pin();
    let workloads: Vec<&str> = match workload.as_str() {
        "all" => vec!["ingest", "read_mixed", "eval_mix"],
        w => vec![w],
    };
    let mut outcomes = Vec::new();
    for w in workloads {
        match run_one(w, seed, seconds, trace) {
            Ok(o) => {
                println!("{}", o.summary_line());
                println!("# detail {}", o.detail_json());
                outcomes.push(o);
            }
            Err(e) => {
                eprintln!("perfbench {w}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", report::result_json(&outcomes, trace));
    if outcomes.iter().all(|o| o.failed == 0) {
        ExitCode::SUCCESS
    } else {
        for o in &outcomes {
            for e in &o.errors {
                eprintln!("perfbench {}: wrong or failed: {e}", o.workload);
            }
        }
        ExitCode::FAILURE
    }
}
