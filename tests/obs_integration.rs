//! End-to-end observability: a durable service driven through the line
//! protocol, with the metrics registry, span flight recorder, slow-request
//! accounting, and the Prometheus exposition endpoint all observed from
//! the outside.
//!
//! The core acceptance check lives in `trace_correlates_a_batch_end_to_end`:
//! one committed batch must appear in the flight recorder as a single
//! trace ID tying together protocol dispatch (`request`), the write path
//! (`service.batch`), maintenance (`view.maintain` → `engine.fixpoint`),
//! durability (`wal.append` → `wal.fsync`), and the epoch publish
//! (`service.publish`).

use linrec::engine::Parallelism;
use linrec::obs::trace::{enter_trace, TraceId};
use linrec::prelude::*;
use linrec::service::{open_durable, CheckpointPolicy, Session, ViewDef, ViewService};
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("linrec-obs-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable transitive-closure service in a fresh store directory.
fn durable_service(tag: &str) -> Arc<ViewService> {
    let mut db = Database::new();
    db.set_relation("e", Relation::from_pairs((0..8).map(|i| (i, i + 1))));
    let def = ViewDef {
        name: "tc".into(),
        rules: vec![parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap()],
        seed: Symbol::new("e"),
    };
    let (service, _report) = open_durable(
        tmpdir(tag),
        db,
        vec![def],
        Parallelism::new(1),
        CheckpointPolicy::default(),
    )
    .unwrap();
    Arc::new(service)
}

fn durable_session(tag: &str) -> Session {
    Session::new(durable_service(tag))
}

/// Extract `"trace":"t-…"` from a `span {json}` protocol line.
fn trace_of(line: &str) -> &str {
    line.split_once("\"trace\":\"")
        .expect("span line carries a trace")
        .1
        .split('"')
        .next()
        .unwrap()
}

#[test]
fn trace_correlates_a_batch_end_to_end() {
    let mut s = durable_session("trace");
    assert!(s.handle("insert e 8 9").text.starts_with("ok staged"));
    assert!(s.handle("commit").text.starts_with("ok epoch 2"));

    let text = s.handle("trace 4096").text;
    let spans: Vec<&str> = text.lines().filter(|l| l.starts_with("span ")).collect();
    assert!(
        text.lines().last().unwrap().starts_with("ok trace "),
        "{text}"
    );

    // Find a commit request span whose trace threads through the whole
    // write path, durability included. (The recorder is process-global,
    // so scan all commit traces rather than assuming the newest is ours.)
    let stages = [
        "service.batch",
        "view.maintain",
        "engine.fixpoint",
        "wal.append",
        "wal.fsync",
        "service.publish",
    ];
    let correlated = spans
        .iter()
        .filter(|l| l.contains("\"name\":\"request\"") && l.contains("\"cmd\":\"commit\""))
        .map(|l| trace_of(l))
        .any(|trace| {
            stages.iter().all(|name| {
                spans
                    .iter()
                    .any(|l| l.contains(&format!("\"name\":\"{name}\"")) && trace_of(l) == trace)
            })
        });
    assert!(correlated, "no commit trace covers {stages:?}:\n{text}");
}

/// A view planned `Decomposed` is maintained by one semi-naive resume per
/// commuting cluster; each resume must show up in the commit's trace as
/// its own `engine.fixpoint` span, and their rounds must account for the
/// view report's iterations.
#[test]
fn decomposed_maintenance_traces_one_fixpoint_per_cluster() {
    let mut db = Database::new();
    db.set_relation("down", Relation::from_pairs([(10, 11), (11, 12)]));
    db.set_relation("up", Relation::from_pairs([(1, 2), (2, 3)]));
    db.set_relation("p0", Relation::from_pairs([(2, 10), (3, 11)]));
    let service = ViewService::new(db);
    service
        .register_view(ViewDef {
            name: "updown".into(),
            rules: vec![
                parse_linear_rule("p(x,y) :- p(x,z), down(z,y).").unwrap(),
                parse_linear_rule("p(x,y) :- p(w,y), up(x,w).").unwrap(),
            ],
            seed: Symbol::new("p0"),
        })
        .unwrap();

    let trace = TraceId::next();
    let report = {
        let _scope = enter_trace(trace);
        let edge =
            |pred: &str, a: i64, b: i64| (Symbol::new(pred), vec![Value::Int(a), Value::Int(b)]);
        service
            .apply_batch([edge("up", 0, 1), edge("down", 12, 13)])
            .unwrap()
    };
    let view = &report.views[0];
    assert_eq!(view.mode, "incremental-decomposed");
    assert!(view.grown_by > 0, "the batch must grow the view");

    let (spans, _) = linrec::obs::trace::recorder().snapshot();
    let rounds: Vec<usize> = spans
        .iter()
        .filter(|s| s.trace == trace.0 && s.name == "engine.fixpoint")
        .map(|s| {
            let (_, v) = s
                .attrs
                .iter()
                .find(|(k, _)| *k == "rounds")
                .expect("engine.fixpoint carries a rounds attribute");
            v.parse().unwrap()
        })
        .collect();
    assert_eq!(rounds.len(), 2, "one engine.fixpoint per cluster");
    assert!(view.stats.iterations > 0);
    assert_eq!(rounds.iter().sum::<usize>(), view.stats.iterations);
}

#[test]
fn metrics_command_reflects_durable_work() {
    let mut s = durable_session("metrics");
    s.handle("insert e 8 9");
    assert!(s.handle("commit").text.starts_with("ok epoch 2"));

    let text = s.handle("metrics").text;
    let value = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("metric {name}=")))
            .unwrap_or_else(|| panic!("{name} missing:\n{text}"))
            .parse()
            .unwrap()
    };
    // Global registry: other tests in this binary contribute too, so ≥.
    assert!(value("linrec_service_batches_total") >= 1);
    assert!(value("linrec_storage_wal_appends_total") >= 1);
    assert!(value("linrec_storage_wal_fsync_ns_count") >= 1);
    assert!(value("linrec_engine_fixpoints_total") >= 1);
    assert!(value("linrec_service_request_ns_count") >= 1);
    // And `health` surfaces the registry-backed counters.
    let health = s.handle("health").text;
    assert!(health.contains("retries="), "{health}");
    assert!(health.contains("slow-requests="), "{health}");
    assert!(health.contains("durable=true"), "{health}");
}

#[test]
fn slow_request_threshold_counts_every_request() {
    let service = durable_service("slow");
    // Threshold zero: every request is slow by definition.
    service.set_limits(linrec::service::ServiceLimits {
        slow_request: Some(std::time::Duration::ZERO),
        ..Default::default()
    });
    let mut s = Session::new(service);
    let before = s_metrics_value("linrec_service_slow_requests_total");
    s.handle("epoch");
    s.handle("epoch");
    let after = s_metrics_value("linrec_service_slow_requests_total");
    assert!(after >= before + 2, "slow-request counter stuck at {after}");
}

/// Read one metric out of the global registry directly.
fn s_metrics_value(name: &str) -> u64 {
    linrec::obs::metrics::registry()
        .render_kv()
        .into_iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.parse().unwrap())
        .unwrap_or(0)
}

#[test]
fn prometheus_endpoint_serves_the_exposition_format() {
    let mut s = durable_session("prom");
    s.handle("insert e 8 9");
    assert!(s.handle("commit").text.starts_with("ok epoch 2"));

    let addr = linrec::obs::serve_metrics("127.0.0.1:0").unwrap();
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n")
        .unwrap();
    let mut body = String::new();
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("HTTP/1.1 200 OK"), "{line}");
    // Headers, then body until the server closes the connection.
    let mut in_body = false;
    loop {
        let mut l = String::new();
        if reader.read_line(&mut l).unwrap() == 0 {
            break;
        }
        if in_body {
            body.push_str(&l);
        } else if l == "\r\n" {
            in_body = true;
        } else if l.to_ascii_lowercase().starts_with("content-type:") {
            assert!(l.contains("text/plain; version=0.0.4"), "{l}");
        }
    }
    // Exposition format: every non-comment line is `name value`, every
    // metric is preceded by # HELP/# TYPE, and the durable batch shows.
    assert!(
        body.contains("# TYPE linrec_service_batches_total counter"),
        "{body}"
    );
    assert!(
        body.contains("# TYPE linrec_service_request_ns summary"),
        "{body}"
    );
    assert!(
        body.contains("linrec_service_request_ns{quantile=\"0.99\"}"),
        "{body}"
    );
    for l in body
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (name, value) = l
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("bad line {l:?}"));
        assert!(!name.is_empty(), "{l}");
        assert!(
            value.parse::<f64>().is_ok(),
            "non-numeric sample value in {l:?}"
        );
    }
}
