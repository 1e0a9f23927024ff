//! The traced run's two sources. The benchmark's own spans wrap its calls
//! into each layer (client request→reply, `open_durable`, the lint gate,
//! analysis + planning, plan execution); they are kept in memory and
//! written out when the run ends. The program's spans and metrics come
//! from the `linrec-obs` registry and flight recorder production already
//! fills, read over the wire (`metrics`, `trace`) or in process.

use crate::report::Outcome;
use crate::stats::median;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One benchmark-side span.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

/// In-memory span log; a disabled tracer records nothing.
pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Open a span at `start`; returns its id (to parent later spans and
    /// to close it), or `None` when tracing is off.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let at = self.us(start);
        self.spans.push(Span {
            name,
            parent,
            start_us: at,
            end_us: at,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>, end: Instant) {
        if let Some(id) = id {
            self.spans[id].end_us = self.us(end);
        }
    }

    /// Record a completed span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        let id = self.open(name, parent, start);
        self.close(id, end);
        id
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// The spans as JSON lines: id, name, parent, start and end in µs
    /// since the tracer was created.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.name, s.start_us, s.end_us
            );
        }
        out
    }
}

/// Whether the `i`-th operation of a traced run records its own spans: a
/// fixed pseudo-random half.
pub fn traced_op(i: usize) -> bool {
    let mut z = (i as u64)
        .wrapping_add(1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 1 == 1
}

/// `(traced − untraced) / untraced` of the median, in percent, over
/// `(traced, value)` samples.
pub fn overhead_pct(samples: impl IntoIterator<Item = (bool, f64)>) -> f64 {
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for (on, v) in samples {
        if on {
            traced.push(v);
        } else {
            untraced.push(v);
        }
    }
    match (median(&untraced), median(&traced)) {
        (Some(u), Some(t)) if u > 0.0 => (t - u) / u * 100.0,
        _ => 0.0,
    }
}

/// The engine's registry counters over a window of `units` batches (or
/// passes): index builds and rounds per unit, mean round time, the share
/// of derivations that were not duplicates, and the planner's lifetime
/// estimate/actual ratio.
pub fn engine_layers(o: &mut Outcome, before: &Readings, after: &Readings, units: f64) {
    let d = |name: &str| delta(before, after, name);
    o.layer(
        "engine.scan_builds_per_batch",
        d("linrec_engine_scan_builds_total") / units,
    );
    o.layer(
        "engine.col_index_builds_per_batch",
        d("linrec_engine_col_index_builds_total") / units,
    );
    o.layer(
        "engine.rounds_per_batch",
        d("linrec_engine_rounds_total") / units,
    );
    o.layer(
        "engine.round_ms.mean",
        d("linrec_engine_round_ns_sum") / d("linrec_engine_round_ns_count").max(1.0) / 1e6,
    );
    let derivations = d("linrec_engine_derivations_total");
    o.layer(
        "engine.useful_ratio",
        if derivations > 0.0 {
            1.0 - d("linrec_engine_duplicates_total") / derivations
        } else {
            0.0
        },
    );
    o.layer(
        "engine.estimate_actual_ratio.p50",
        after
            .get("linrec_engine_estimate_actual_permille_p50")
            .copied()
            .unwrap_or(0.0)
            / 1000.0,
    );
}

/// One span from the program's flight recorder.
#[derive(Debug, Clone)]
pub struct ServerSpan {
    pub trace: String,
    pub span: u64,
    pub name: String,
    pub start_us: u64,
    pub dur_ns: u64,
    pub cmd: Option<String>,
}

/// The raw value after `"key":` in a flat JSON object: a string's
/// contents, or a number's digits.
fn json_field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &json[json.find(&pat)? + pat.len()..];
    if let Some(s) = rest.strip_prefix('"') {
        Some(&s[..s.find('"')?])
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(&rest[..end])
    }
}

impl ServerSpan {
    /// Parse one `span <json>` line of the `trace` command.
    pub fn parse(line: &str) -> Option<ServerSpan> {
        let json = line.strip_prefix("span ")?;
        Some(ServerSpan {
            trace: json_field(json, "trace")?.to_owned(),
            span: json_field(json, "span")?.parse().ok()?,
            name: json_field(json, "name")?.to_owned(),
            start_us: json_field(json, "start_us")?.parse().ok()?,
            dur_ns: json_field(json, "dur_ns")?.parse().ok()?,
            cmd: json_field(json, "cmd").map(str::to_owned),
        })
    }

    pub fn ms(&self) -> f64 {
        self.dur_ns as f64 / 1e6
    }
}

/// A registry reading: metric name → value.
pub type Readings = HashMap<String, f64>;

/// Parse `metric name=value` lines (the `metrics` command).
pub fn parse_metrics(lines: &[String]) -> Readings {
    lines
        .iter()
        .filter_map(|l| l.strip_prefix("metric ")?.split_once('='))
        .filter_map(|(k, v)| Some((k.to_owned(), v.parse().ok()?)))
        .collect()
}

/// The in-process registry, read the same way.
pub fn local_metrics() -> Readings {
    linrec_obs::metrics::registry()
        .render_kv()
        .into_iter()
        .filter_map(|(k, v)| Some((k, v.parse().ok()?)))
        .collect()
}

/// `after[name] - before[name]` (0 when the metric never registered).
pub fn delta(before: &Readings, after: &Readings, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// Spans grouped by trace, each trace's spans in start order.
pub fn by_trace(spans: &[ServerSpan]) -> HashMap<&str, Vec<&ServerSpan>> {
    let mut map: HashMap<&str, Vec<&ServerSpan>> = HashMap::new();
    for s in spans {
        map.entry(s.trace.as_str()).or_default().push(s);
    }
    for v in map.values_mut() {
        v.sort_by_key(|s| (s.start_us, s.span));
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flight_recorder_lines() {
        let line = "span {\"trace\":\"t-0000002a\",\"span\":17,\"parent\":16,\"name\":\"request\",\
                    \"start_us\":1234,\"dur_ns\":56789,\"attrs\":{\"cmd\":\"commit\"}}";
        let s = ServerSpan::parse(line).unwrap();
        assert_eq!((s.trace.as_str(), s.span), ("t-0000002a", 17));
        assert_eq!(
            (s.name.as_str(), s.start_us, s.dur_ns),
            ("request", 1234, 56789)
        );
        assert_eq!(s.cmd.as_deref(), Some("commit"));
        let bare = "span {\"trace\":\"t-00000000\",\"span\":3,\"parent\":0,\"name\":\"wal.fsync\",\
                    \"start_us\":9,\"dur_ns\":1}";
        assert_eq!(ServerSpan::parse(bare).unwrap().cmd, None);
        assert!(ServerSpan::parse("ok trace 0 spans dropped=0").is_none());
    }

    #[test]
    fn about_half_of_the_operations_are_traced() {
        let traced = (0..10_000).filter(|&i| traced_op(i)).count();
        assert!((4_800..5_200).contains(&traced), "{traced}");
        // Not alternate ones: the reply path treats alternate reads alike.
        let alternate = (0..10_000)
            .filter(|&i| traced_op(i) == (i % 2 == 1))
            .count();
        assert!((4_800..5_200).contains(&alternate), "{alternate}");
    }

    #[test]
    fn metric_deltas() {
        let before = parse_metrics(&["metric a_total=3".into(), "ok metrics 1".into()]);
        let after = parse_metrics(&["metric a_total=10".into(), "metric b_sum=4".into()]);
        assert_eq!(delta(&before, &after, "a_total"), 7.0);
        assert_eq!(delta(&before, &after, "b_sum"), 4.0);
        assert_eq!(delta(&before, &after, "missing"), 0.0);
    }
}
