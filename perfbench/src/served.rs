//! The two served workloads, `ingest` and `read_mixed`, and the server
//! process they talk to.
//!
//! The server is this binary re-executed as `perfbench serve`: it builds
//! the seeded tree, runs the registration lint gate, opens a durable
//! service with `open_durable` and serves it with `serve_tcp` on a
//! loopback port — wired as `linrec serve --data-dir` wires it, with
//! sequential engine parallelism and a checkpoint every
//! [`CHECKPOINT_BATCHES`] batches. Its stderr goes to the run log. The
//! benchmark is a plain client of it.

use crate::gen::{self, LeafStream, Read, ReadStream, EDGE, LEAVES_PER_COMMIT, VIEW};
use crate::oracle::{self, Ancestry, Fingerprint};
use crate::report::{OpStat, Outcome};
use crate::stats::{median, percentile};
use crate::trace::{self, Readings, ServerSpan, Tracer};
use crate::wire::Conn;
use crate::Ctx;
use linrec_datalog::{Database, Symbol, Value};
use linrec_engine::{Parallelism, Plan};
use linrec_service::{CheckpointPolicy, ViewDef};
use std::collections::VecDeque;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Checkpoint policy of the served workloads.
pub const CHECKPOINT_BATCHES: u64 = 16;
/// Set-ups per run; `setup_s` is their median, the last one is measured.
const SETUPS: usize = 5;
/// Commits made after set-up and before timing starts.
const WARMUP_COMMITS: usize = 3;
/// `read_mixed` rates: reads every 5 ms (200/s), commits every 500 ms (2/s).
const READ_PERIOD: Duration = Duration::from_millis(5);
const COMMIT_PERIOD: Duration = Duration::from_millis(500);
/// `read_mixed` runs its open loop this long before timing starts.
const READ_WARMUP: Duration = Duration::from_secs(1);
/// Flight-recorder capacity of a traced server: enough to hold every span
/// of a run's timed window.
const TRACED_RECORDER: usize = 1 << 16;

fn policy() -> CheckpointPolicy {
    CheckpointPolicy {
        max_wal_batches: CHECKPOINT_BATCHES,
        ..CheckpointPolicy::default()
    }
}

fn view_def() -> ViewDef {
    ViewDef {
        name: VIEW.to_owned(),
        rules: vec![gen::view_rule()],
        seed: Symbol::new(EDGE),
    }
}

fn base_db(parent: &[u32]) -> Database {
    let mut db = Database::new();
    db.set_relation(EDGE, gen::tree_relation(parent));
    db
}

/// `perfbench serve --dir D --seed S --recorder N`: the server process.
pub fn serve_main(args: &[String]) -> Result<(), String> {
    use linrec_service::{
        open_durable, serve_tcp, spawn_degraded_probe, ServiceLimits, WorkerPool,
    };

    let arg = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    let dir = arg("--dir")?;
    let seed: u64 = arg("--seed")?.parse().map_err(|_| "bad --seed")?;
    let recorder: usize = arg("--recorder")?.parse().map_err(|_| "bad --recorder")?;
    if recorder > 0 {
        linrec_obs::trace::init_recorder(recorder);
    }
    // The benchmark never writes to our stdin; when it closes (the
    // benchmark ended, however it ended) the server ends too.
    std::thread::spawn(|| {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        std::process::exit(0);
    });

    let parent = gen::tree_parents(seed, gen::TREE_NODES);
    let db = base_db(&parent);
    let def = view_def();
    let init = db.relation(Symbol::new(EDGE)).expect("edges just set");
    let gate = linrec_lint::check_rules(&def.rules, Some(&db), Some(init));
    if !gate.diagnostics.is_empty() {
        eprint!("{}", gate.render_human());
    }
    if gate.has_errors() {
        return Err("view fails the registration lint gate".to_owned());
    }
    let started = Instant::now();
    let (service, report) = open_durable(dir, db, vec![def], Parallelism::sequential(), policy())
        .map_err(|e| e.to_string())?;
    let open_ms = started.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "store {dir}: {} in {open_ms:.2} ms (epoch {}, {} WAL batches replayed)",
        if report.from_snapshot {
            "recovered from snapshot"
        } else {
            "fresh, baseline checkpoint written"
        },
        report.epoch,
        report.replayed_batches,
    );
    let service = Arc::new(service);
    let limits = ServiceLimits::default();
    service.set_limits(limits);
    let _probe = spawn_degraded_probe(&service, limits.probe_interval);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let pool = WorkerPool::new(4);
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    println!("listening {addr} open_ms={open_ms:.3}");
    use std::io::Write as _;
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    serve_tcp(service, listener, &pool).map_err(|e| e.to_string())
}

/// A running server process.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn spawn(ctx: &Ctx, dir: &Path, recorder: usize) -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let log = std::fs::OpenOptions::new()
            .append(true)
            .open(&ctx.log)
            .map_err(|e| format!("{}: {e}", ctx.log.display()))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .arg("--dir")
            .arg(dir)
            .args(["--seed", &ctx.seed.to_string()])
            .args(["--recorder", &recorder.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("spawning the server: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = std::io::BufReader::new(stdout).read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => line
                .strip_prefix("listening ")
                .and_then(|l| l.split(' ').next())
                .map(str::to_owned),
            _ => None,
        };
        let mut server = Server {
            child,
            addr: String::new(),
        };
        match addr {
            Some(addr) => {
                server.addr = addr;
                Ok(server)
            }
            None => {
                server.stop();
                Err(format!(
                    "server did not start (see {}): {line:?}",
                    ctx.log.display()
                ))
            }
        }
    }

    /// Peak resident set of the server process (`VmHWM`), in MiB.
    fn peak_rss_mb(&self) -> f64 {
        crate::env::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A set-up server: the tree it serves, its process and a control
/// connection (for the oracle and registry reads, never timed).
struct Setup {
    server: Server,
    ctl: Conn,
    dir: PathBuf,
    parent: Vec<u32>,
}

/// Start the server [`SETUPS`] times on fresh data directories, timing
/// each from process start to the first correct read; keep the last.
fn setup(ctx: &Ctx, o: &mut Outcome) -> Result<Setup, String> {
    let parent = gen::tree_parents(ctx.seed, gen::TREE_NODES);
    let want = Ancestry::new(&parent).tuples();
    let recorder = if ctx.trace { TRACED_RECORDER } else { 0 };
    let mut secs = Vec::new();
    for i in 0..SETUPS {
        let dir = ctx.work.join(format!("data-{i}"));
        let t0 = Instant::now();
        let server = Server::spawn(ctx, &dir, recorder)?;
        let mut ctl = Conn::connect(&server.addr).map_err(|e| e.to_string())?;
        let reply = ctl
            .request(&format!("count {VIEW}\n"))
            .map_err(|e| e.to_string())?;
        secs.push(t0.elapsed().as_secs_f64());
        let got = reply.last().cloned().unwrap_or_default();
        o.check(if got == format!("ok count {want}") {
            Ok(())
        } else {
            Err(format!("set-up count: got {got:?}, want {want}"))
        });
        if i + 1 == SETUPS {
            // The memory to load and serve the view, read before any
            // commit: how much a run commits (a faster program commits
            // more in a closed loop) cannot move it, and the allocator's
            // reuse pattern under maintenance, which steps by seed, is
            // left to `process.rss_growth_mb`.
            let peak = server.peak_rss_mb();
            o.e2e.push(("peak_rss_mb", peak));
            o.named.push(("peak_rss_mb", peak, "MB"));
            o.samples.push(("setup_s", secs.clone()));
            o.e2e.push(("setup_s", median(&secs).unwrap_or(0.0)));
            o.named.push(("setup_s", median(&secs).unwrap_or(0.0), "s"));
            return Ok(Setup {
                server,
                ctl,
                dir,
                parent,
            });
        }
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
    unreachable!("SETUPS > 0")
}

/// The writer side: commits batches of fresh leaves and checks each reply.
struct Committer {
    conn: Conn,
    leaves: LeafStream,
    anc: Ancestry,
    added: Vec<(u32, u32)>,
    /// Bytes of `insert` request lines sent: the user's payload.
    user_bytes: u64,
}

/// One commit as the client saw it.
struct CommitTiming {
    /// First request sent, last reply line received.
    sent: Instant,
    done: Instant,
    check: Result<(), String>,
}

impl Committer {
    fn new(addr: &str, seed: u64, parent: &[u32]) -> Result<Committer, String> {
        Ok(Committer {
            conn: Conn::connect(addr).map_err(|e| e.to_string())?,
            leaves: LeafStream::new(seed, parent.len() as u32),
            anc: Ancestry::new(parent),
            added: Vec::new(),
            user_bytes: 0,
        })
    }

    /// Stage the next batch (one `insert` request per leaf, sent back to
    /// back) and `commit` it, then read the eleven replies.
    fn commit(&mut self) -> Result<CommitTiming, String> {
        let batch = self.leaves.batch();
        let growth: usize = batch
            .iter()
            .map(|&(p, _)| self.anc.depth(p) as usize + 1)
            .sum();
        let io = |e: std::io::Error| format!("commit connection: {e}");
        let sent = Instant::now();
        for &(p, leaf) in &batch {
            let line = format!("insert {EDGE} {p} {leaf}\n");
            self.user_bytes += line.len() as u64;
            self.conn.send(&line).map_err(io)?;
        }
        self.conn.send("commit\n").map_err(io)?;
        let mut check = Ok(());
        for _ in 0..LEAVES_PER_COMMIT {
            let r = self.conn.read_line().map_err(io)?;
            if !r.starts_with("ok staged") && check.is_ok() {
                check = Err(format!("insert: got {r:?}"));
            }
        }
        let reply = self.conn.read_line().map_err(io)?;
        let done = Instant::now();
        let check = check.and(oracle::check_commit(&reply, growth));
        for &(p, leaf) in &batch {
            self.anc.push_leaf(p, leaf);
        }
        self.added.extend(batch);
        Ok(CommitTiming { sent, done, check })
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn registry(ctl: &mut Conn) -> Result<Readings, String> {
    let lines = ctl.request("metrics\n").map_err(|e| e.to_string())?;
    Ok(trace::parse_metrics(&lines))
}

fn server_spans(ctl: &mut Conn) -> Result<Vec<ServerSpan>, String> {
    let lines = ctl
        .request(&format!("trace {TRACED_RECORDER}\n"))
        .map_err(|e| e.to_string())?;
    Ok(lines.iter().filter_map(|l| ServerSpan::parse(l)).collect())
}

/// Per-commit self times along the commit path, in ms.
#[derive(Default)]
struct CommitPath {
    /// Server time of every request on the path, in µs.
    requests_us: Vec<f64>,
    wall: Vec<f64>,
    wire: Vec<f64>,
    protocol: Vec<f64>,
    batch: Vec<f64>,
    maintain: Vec<f64>,
    wal_append: Vec<f64>,
    wal_fsync: Vec<f64>,
    checkpoint: Vec<f64>,
    checkpoint_each: Vec<f64>,
    publish: Vec<f64>,
    unattributed: Vec<f64>,
}

/// Attribute each of the last `walls.len()` commits' client wall time to
/// the layers on its path. A commit is ten `insert` requests and one
/// `commit` request on one connection, so the server's request spans for
/// those commands, in start order, group into commits. Within the
/// `commit` request's trace: `service.batch` → `view.maintain`,
/// `wal.append` (→ `wal.fsync`), `service.publish`, `store.checkpoint`.
/// Wire = client wall − the eleven request spans; protocol = request
/// spans − batch; unattributed = batch − its named children.
fn commit_path(spans: &[ServerSpan], walls: &[f64]) -> Result<CommitPath, String> {
    let per = LEAVES_PER_COMMIT + 1;
    let mut reqs: Vec<&ServerSpan> = spans
        .iter()
        .filter(|s| s.name == "request" && matches!(s.cmd.as_deref(), Some("insert" | "commit")))
        .collect();
    reqs.sort_by_key(|s| (s.start_us, s.span));
    if reqs.len() < walls.len() * per {
        return Err(format!(
            "trace holds {} commit-path requests, need {}",
            reqs.len(),
            walls.len() * per
        ));
    }
    let traces = trace::by_trace(spans);
    let mut path = CommitPath::default();
    for (group, &wall) in reqs[reqs.len() - walls.len() * per..]
        .chunks(per)
        .zip(walls)
    {
        let cmds: Vec<&str> = group.iter().filter_map(|s| s.cmd.as_deref()).collect();
        if cmds[..LEAVES_PER_COMMIT].iter().any(|c| *c != "insert") || cmds[per - 1] != "commit" {
            return Err(format!("commit-path requests out of step: {cmds:?}"));
        }
        let commit = &traces[group[per - 1].trace.as_str()];
        let sum = |name: &str| -> f64 {
            commit
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.ms())
                .sum()
        };
        let req: f64 = group.iter().map(|s| s.ms()).sum();
        path.requests_us
            .extend(group.iter().map(|s| s.dur_ns as f64 / 1e3));
        let batch = sum("service.batch");
        let (maintain, append, fsync) = (sum("view.maintain"), sum("wal.append"), sum("wal.fsync"));
        let (checkpoint, publish) = (sum("store.checkpoint"), sum("service.publish"));
        path.wall.push(wall);
        path.wire.push(wall - req);
        path.protocol.push(req - batch);
        path.batch.push(batch);
        path.maintain.push(maintain);
        path.wal_append.push(append - fsync);
        path.wal_fsync.push(fsync);
        path.checkpoint.push(checkpoint);
        if checkpoint > 0.0 {
            path.checkpoint_each.push(checkpoint);
        }
        path.publish.push(publish);
        path.unattributed
            .push(batch - maintain - append - checkpoint - publish);
    }
    Ok(path)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn p(v: &[f64], q: f64) -> f64 {
    percentile(v, q).unwrap_or(0.0)
}

/// Per-layer metrics of the commit path and of the registry deltas.
fn commit_layers(
    o: &mut Outcome,
    path: &CommitPath,
    before: &Readings,
    after: &Readings,
    user_bytes: u64,
) {
    let d = |name: &str| trace::delta(before, after, name);
    let batches = d("linrec_service_batches_total").max(1.0);
    o.layer("view.maintain_ms.p50", p(&path.maintain, 50.0));
    o.layer("view.maintain_ms.p95", p(&path.maintain, 95.0));
    trace::engine_layers(o, before, after, batches);
    o.layer("service.batch_ms.p50", p(&path.batch, 50.0));
    o.layer("service.batch_ms.p95", p(&path.batch, 95.0));
    o.layer("service.publish_ms.p50", p(&path.publish, 50.0));
    o.layer("service.unattributed_ms", mean(&path.unattributed));
    o.layer("service.plan_drift", d("linrec_service_plan_drift_total"));
    o.layer("storage.wal_append_ms.p50", p(&path.wal_append, 50.0));
    o.layer("storage.wal_fsync_ms.p50", p(&path.wal_fsync, 50.0));
    o.layer(
        "storage.wal_bytes_per_user_byte",
        d("linrec_storage_wal_append_bytes_sum") / user_bytes.max(1) as f64,
    );
    o.layer("storage.checkpoint_ms.p50", p(&path.checkpoint_each, 50.0));
    o.layer("storage.checkpoints", d("linrec_storage_checkpoints_total"));
    o.layer("commit.wall_ms.mean", mean(&path.wall));
    o.layer("commit.wire_ms.mean", mean(&path.wire));
    o.layer("commit.protocol_ms.mean", mean(&path.protocol));
    o.layer("commit.maintain_ms.mean", mean(&path.maintain));
    o.layer("commit.wal_append_ms.mean", mean(&path.wal_append));
    o.layer("commit.wal_fsync_ms.mean", mean(&path.wal_fsync));
    o.layer("commit.checkpoint_ms.mean", mean(&path.checkpoint));
    o.layer("commit.publish_ms.mean", mean(&path.publish));
    let wall: f64 = path.wall.iter().sum();
    let unattributed: f64 = path.unattributed.iter().sum();
    o.layer(
        "commit.named_share",
        if wall > 0.0 {
            1.0 - unattributed / wall
        } else {
            0.0
        },
    );
}

/// Bytes under `dir`, and the size of its newest snapshot file.
fn dir_bytes(dir: &Path) -> (u64, u64) {
    let mut total = 0;
    let mut snapshot = (0u64, 0u64); // (generation, bytes)
    for e in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let len = e.metadata().map_or(0, |m| m.len());
        total += len;
        let name = e.file_name().to_string_lossy().into_owned();
        if let Some(gen) = name
            .strip_prefix("snapshot-")
            .and_then(|n| n.strip_suffix(".snap"))
            .and_then(|g| g.parse::<u64>().ok())
        {
            snapshot = snapshot.max((gen, len));
        }
    }
    (total, snapshot.1)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for e in std::fs::read_dir(from)
        .map_err(|e| e.to_string())?
        .flatten()
    {
        std::fs::copy(e.path(), to.join(e.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The served view, fetched whole, against a from-scratch `Plan::direct`
/// fixpoint over the final EDB (base tree plus every committed leaf).
fn check_final_view(ctl: &mut Conn, parent: &[u32], c: &Committer) -> Result<(), String> {
    let mut edges = gen::tree_relation(parent);
    for &(p, leaf) in &c.added {
        edges.insert([Value::Int(i64::from(p)), Value::Int(i64::from(leaf))]);
    }
    let mut db = Database::new();
    db.set_relation(EDGE, edges.clone());
    let reference = Plan::direct(vec![gen::view_rule()])
        .execute(&db, &edges)
        .map_err(|e| e.to_string())?
        .relation;
    let want = Fingerprint::of(&reference);
    let lines = ctl
        .request(&format!("rows {VIEW} {}\n", want.count + 1))
        .map_err(|e| e.to_string())?;
    let rows = &lines[..lines.len() - 1];
    let pairs = rows.iter().filter_map(|l| {
        let mut t = l.strip_prefix("row ")?.split(' ');
        Some((t.next()?.parse().ok()?, t.next()?.parse().ok()?))
    });
    let got = Fingerprint::of_pairs(pairs);
    if got == want && lines.last() == Some(&format!("ok {} rows", want.count)) {
        Ok(())
    } else {
        Err(format!(
            "final view: served {} tuples (hash {:x}), from-scratch fixpoint {} (hash {:x})",
            got.count, got.sum, want.count, want.sum
        ))
    }
}

/// Reopen a copy of the data directory in process, timing `open_durable`
/// up to the first successful read, and check the recovered view.
fn recover(
    ctx: &Ctx,
    o: &mut Outcome,
    s: &Setup,
    tracer: &mut Tracer,
    want: usize,
) -> Result<(), String> {
    let copy = ctx.work.join("recovered");
    copy_dir(&s.dir, &copy)?;
    let before = trace::local_metrics();
    let t0 = Instant::now();
    let (service, _) = linrec_service::open_durable(
        &copy,
        base_db(&s.parent),
        vec![view_def()],
        Parallelism::sequential(),
        policy(),
    )
    .map_err(|e| format!("recovery: {e}"))?;
    let opened = Instant::now();
    let count = service.snapshot().count(VIEW).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let after = trace::local_metrics();
    let root = tracer.record("client.recover", None, t0, t1);
    tracer.record("open_durable", root, t0, opened);
    o.check(if count == want {
        Ok(())
    } else {
        Err(format!("recovered view has {count} tuples, want {want}"))
    });
    let recover_s = (t1 - t0).as_secs_f64();
    o.named.push(("recover_s", recover_s, "s"));
    o.layer(
        "storage.recover_ms",
        trace::delta(&before, &after, "linrec_storage_recover_ns_sum") / 1e6,
    );
    o.layer(
        "storage.replayed_batches",
        trace::delta(&before, &after, "linrec_storage_replayed_batches_total"),
    );
    Ok(())
}

/// Storage footprint and write amplification of a stopped server's dir.
fn storage_layers(
    o: &mut Outcome,
    dir: &Path,
    before: &Readings,
    after: &Readings,
    user_bytes: u64,
) {
    let (total, snapshot) = dir_bytes(dir);
    let wal = trace::delta(before, after, "linrec_storage_wal_append_bytes_sum");
    let checkpoints = trace::delta(before, after, "linrec_storage_checkpoints_total");
    o.layer("storage.dir_bytes", total as f64);
    o.layer(
        "storage.bytes_written_per_user_byte",
        (wal + checkpoints * snapshot as f64) / user_bytes.max(1) as f64,
    );
}

fn write_spans(ctx: &Ctx, tracer: &Tracer) {
    if ctx.trace {
        let _ = std::fs::write(ctx.log.with_extension("spans.jsonl"), tracer.jsonl());
    }
}

/// Commit [`WARMUP_COMMITS`] batches untimed.
fn warm_up(o: &mut Outcome, c: &mut Committer) -> Result<(), String> {
    for _ in 0..WARMUP_COMMITS {
        let t = c.commit()?;
        o.check(t.check);
    }
    Ok(())
}

/// How much the server's peak resident set grew after set-up.
fn rss_growth(o: &mut Outcome, server: &Server, traced: bool) {
    let setup = o
        .e2e
        .iter()
        .find(|(n, _)| *n == "peak_rss_mb")
        .map_or(0.0, |(_, v)| *v);
    let end = server.peak_rss_mb();
    o.named.push(("peak_rss_end_mb", end, "MB"));
    if traced {
        o.layer("process.rss_growth_mb", end - setup);
    }
}

/// `ingest`: closed loop, one writer connection, 10 fresh leaves per
/// commit into the 50k-node tree's ancestor view.
pub fn ingest(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::new("ingest");
    let mut s = setup(ctx, &mut o)?;
    let mut c = Committer::new(&s.server.addr, ctx.seed, &s.parent)?;
    warm_up(&mut o, &mut c)?;
    let before = registry(&mut s.ctl)?;
    let user_bytes0 = c.user_bytes;
    let mut tracer = Tracer::new(false);
    let mut lat = Vec::new();
    let mut late = Vec::new();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(ctx.seconds);
    let mut prev = start;
    while Instant::now() < end {
        // A traced run records its own spans on a pseudo-random half of
        // the commits, so that traced and untraced ones interleave (the
        // overhead guard).
        tracer.set_on(ctx.trace && trace::traced_op(lat.len()));
        let t = c.commit()?;
        o.check(t.check);
        lat.push(ms(t.done - t.sent));
        late.push(ms(t.sent.saturating_duration_since(prev)));
        tracer.record("client.commit", None, t.sent, t.done);
        prev = t.done;
    }
    let measured = (prev - start).as_secs_f64();
    let after = registry(&mut s.ctl)?;
    o.op_latency(
        &lat,
        [
            "commit_min_ms",
            "commit_p50_ms",
            "commit_mean_ms",
            "commit_p95_ms",
        ],
        95.0,
        OpStat::Mean,
    );
    o.named
        .push(("commits_per_s", lat.len() as f64 / measured, "1/s"));
    if ctx.trace {
        let spans = server_spans(&mut s.ctl)?;
        let path = commit_path(&spans, &lat)?;
        commit_layers(&mut o, &path, &before, &after, c.user_bytes - user_bytes0);
        o.layer("protocol.request_us.p50", p(&path.requests_us, 50.0));
        o.layer("protocol.request_us.p99", p(&path.requests_us, 99.0));
        o.layer("protocol.wire_ms.p50", p(&path.wire, 50.0));
        let traced = lat
            .iter()
            .enumerate()
            .map(|(i, &v)| (trace::traced_op(i), v));
        o.layer("obs.trace_overhead_pct", trace::overhead_pct(traced));
        o.layer("harness.send_late_ms.p99", p(&late, 99.0));
    }
    o.samples.push(("commit_ms", lat));
    rss_growth(&mut o, &s.server, ctx.trace);
    // Outside the timed window: the served view against a from-scratch
    // fixpoint, then crash recovery from a copy of the data directory.
    let check = check_final_view(&mut s.ctl, &s.parent, &c);
    o.check(check);
    s.server.stop();
    if ctx.trace {
        storage_layers(&mut o, &s.dir, &before, &after, c.user_bytes - user_bytes0);
    }
    recover(ctx, &mut o, &s, &mut tracer, c.anc.tuples())?;
    write_spans(ctx, &tracer);
    Ok(o)
}

/// One read as the client saw it.
struct ReadTiming {
    due: Instant,
    sent: Instant,
    done: Instant,
    traced: bool,
}

/// `read_mixed`: an open loop of reads at 200/s on one connection (nine
/// `ask` to one `select`, over base-tree nodes) beside commits at 2/s on
/// a second connection. Latency runs from each request's due time.
pub fn read_mixed(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::new("read_mixed");
    let mut s = setup(ctx, &mut o)?;
    let base = Ancestry::new(&s.parent);
    let mut c = Committer::new(&s.server.addr, ctx.seed, &s.parent)?;
    warm_up(&mut o, &mut c)?;
    let before = registry(&mut s.ctl)?;
    let user_bytes0 = c.user_bytes;
    let mut conn = Conn::connect(&s.server.addr).map_err(|e| e.to_string())?;
    let t_start = Instant::now() + Duration::from_millis(20);
    let warm_end = t_start + READ_WARMUP;
    let end = warm_end + Duration::from_secs_f64(ctx.seconds);

    // The writer: a commit due every COMMIT_PERIOD, timed from its due time.
    let writer = std::thread::spawn(
        move || -> Result<(Committer, Vec<(Instant, CommitTiming)>), String> {
            let mut out = Vec::new();
            for k in 0u32.. {
                let due = t_start + COMMIT_PERIOD * k;
                if due >= end {
                    break;
                }
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                out.push((due, c.commit()?));
            }
            Ok((c, out))
        },
    );

    // The reader: send each read when due; between sends, collect replies.
    let mut reads = ReadStream::new(ctx.seed);
    let mut inflight: VecDeque<(Instant, Instant, Read)> = VecDeque::new();
    let mut select_lines: Vec<String> = Vec::new();
    // Every read, warm-up included (their order joins them to the
    // server's request spans); only those due in the window are timed.
    let mut timings: Vec<ReadTiming> = Vec::new();
    let mut tracer = Tracer::new(false);
    let mut checks: Vec<Result<(), String>> = Vec::new();
    let drain_deadline = end + Duration::from_secs(10);
    let mut k = 0u32;
    let mut next_due = t_start;
    let io = |e: std::io::Error| format!("read connection: {e}");
    loop {
        let now = Instant::now();
        if next_due < end && now >= next_due {
            let read = reads.next(&s.parent);
            let sent = Instant::now();
            conn.send(&read.line()).map_err(io)?;
            inflight.push_back((next_due, sent, read));
            k += 1;
            next_due = t_start + READ_PERIOD * k;
            continue;
        }
        if next_due >= end && inflight.is_empty() {
            break;
        }
        let wait_until = if next_due < end {
            next_due
        } else {
            drain_deadline
        };
        let Some(line) = conn.read_line_until(wait_until).map_err(io)? else {
            if Instant::now() >= drain_deadline {
                return Err(format!(
                    "{} read replies missing at the end",
                    inflight.len()
                ));
            }
            continue;
        };
        let Some(&(due, sent, read)) = inflight.front() else {
            return Err(format!("reply with no request outstanding: {line:?}"));
        };
        let check = match read {
            Read::Ask(a, b) => oracle::check_ask(&base, a, b, &line),
            Read::Select(b) => {
                let closing = line.starts_with("ok") || line.starts_with("err");
                select_lines.push(line);
                if !closing {
                    continue;
                }
                let check = oracle::check_select(&base, b, &select_lines);
                select_lines.clear();
                check
            }
        };
        inflight.pop_front();
        let done = Instant::now();
        // A traced run records its own spans on a pseudo-random half of
        // the reads (not alternate ones: the reply path treats alternate
        // reads differently, see the README).
        let traced = ctx.trace && trace::traced_op(timings.len());
        tracer.set_on(traced);
        tracer.record("client.read", None, sent, done);
        timings.push(ReadTiming {
            due,
            sent,
            done,
            traced,
        });
        checks.push(check);
    }
    let (c, commits) = writer
        .join()
        .map_err(|_| "commit thread panicked".to_owned())??;
    for ch in checks {
        o.check(ch);
    }
    let after = registry(&mut s.ctl)?;

    let window: Vec<&ReadTiming> = timings.iter().filter(|t| t.due >= warm_end).collect();
    let all_lat: Vec<f64> = window.iter().map(|t| ms(t.done - t.due)).collect();
    // Reads completed inside the window per second of it: below 200/s
    // when replies fall behind the schedule.
    let in_window: Vec<Instant> = window
        .iter()
        .map(|t| t.done)
        .filter(|&d| d <= end)
        .collect();
    let last = in_window.iter().max().copied().unwrap_or(warm_end);
    let reads_per_s = in_window.len() as f64 / (last - warm_end).as_secs_f64().max(1e-9);
    o.op_latency(
        &all_lat,
        ["read_min_ms", "read_p50_ms", "read_mean_ms", "read_p99_ms"],
        99.0,
        OpStat::Median,
    );
    o.named.push(("reads_per_s", reads_per_s, "1/s"));
    let mut commit_lat = Vec::new();
    let mut commit_walls = Vec::new();
    for (due, t) in commits {
        if due >= warm_end {
            commit_lat.push(ms(t.done - due));
            commit_walls.push(ms(t.done - t.sent));
        }
        o.check(t.check);
    }
    o.named.push(("commit_p50_ms", p(&commit_lat, 50.0), "ms"));
    o.samples.push(("read_ms", all_lat.clone()));
    o.samples.push(("commit_ms", commit_lat));

    if ctx.trace {
        let spans = server_spans(&mut s.ctl)?;
        let mut reqs: Vec<&ServerSpan> = spans
            .iter()
            .filter(|s| s.name == "request" && matches!(s.cmd.as_deref(), Some("ask" | "select")))
            .collect();
        reqs.sort_by_key(|s| (s.start_us, s.span));
        if reqs.len() != timings.len() {
            return Err(format!(
                "trace holds {} reads, sent {}",
                reqs.len(),
                timings.len()
            ));
        }
        let (server_us, wire): (Vec<f64>, Vec<f64>) = timings
            .iter()
            .zip(&reqs)
            .filter(|(t, _)| t.due >= warm_end)
            .map(|(t, s)| (s.dur_ns as f64 / 1e3, ms(t.done - t.sent) - s.ms()))
            .unzip();
        o.layer("protocol.request_us.p50", p(&server_us, 50.0));
        o.layer("protocol.request_us.p99", p(&server_us, 99.0));
        o.layer("protocol.wire_ms.p50", p(&wire, 50.0));
        let path = commit_path(&spans, &commit_walls)?;
        commit_layers(&mut o, &path, &before, &after, c.user_bytes - user_bytes0);
        let traced = window.iter().map(|t| (t.traced, ms(t.done - t.due)));
        o.layer("obs.trace_overhead_pct", trace::overhead_pct(traced));
        let late: Vec<f64> = window.iter().map(|t| ms(t.sent - t.due)).collect();
        o.layer("harness.send_late_ms.p99", p(&late, 99.0));
        write_spans(ctx, &tracer);
    }
    rss_growth(&mut o, &s.server, ctx.trace);
    s.server.stop();
    if ctx.trace {
        storage_layers(&mut o, &s.dir, &before, &after, c.user_bytes - user_bytes0);
    }
    Ok(o)
}
