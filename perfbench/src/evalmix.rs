//! `eval_mix`: closed loop, in process, one thread, sequential engine
//! parallelism. Each pass runs five programs the way `linrec run` runs a
//! program: lint gate → `Analysis::of` → `plan_with(CostModel::default())`
//! → execute. No service, storage or wire is involved.

use crate::gen::{self, EvalItem};
use crate::oracle::Fingerprint;
use crate::report::{OpStat, Outcome};
use crate::stats::{median, percentile};
use crate::trace::{self, Tracer};
use crate::Ctx;
use linrec_datalog::{Database, Relation, Symbol};
use linrec_engine::{Analysis, CostModel, Parallelism, Plan};
use std::time::{Duration, Instant};

/// Per-item execution metrics, in the order of [`gen::EVAL_ITEMS`].
const EXECUTE_METRICS: [&str; 5] = [
    "engine.execute_ms.tc_chain_1k",
    "engine.execute_ms.tc_sparse_20k",
    "engine.execute_ms.updown_d10",
    "engine.execute_ms.updown_d16_sel",
    "engine.execute_ms.shopping_400",
];

/// Set-ups per run (input generation plus one warm pass each).
const SETUPS: usize = 5;

/// One pass as timed: the whole pass and its parts, in ms.
struct Pass {
    total: f64,
    lint: f64,
    plan: f64,
    execute: [f64; 5],
    results: Vec<Relation>,
    shapes: Vec<&'static str>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run every item once, in `order`, lint gate through execution.
fn pass(items: &[EvalItem], order: [usize; 5], tracer: &mut Tracer) -> Result<Pass, String> {
    let model = CostModel::default();
    let par = Parallelism::sequential();
    let started = Instant::now();
    let root = tracer.open("eval.pass", None, started);
    let mut out = Pass {
        total: 0.0,
        lint: 0.0,
        plan: 0.0,
        execute: [0.0; 5],
        results: vec![Relation::new(0); items.len()],
        shapes: vec![""; items.len()],
    };
    for i in order {
        let item = &items[i];
        let t0 = Instant::now();
        let gate = linrec_lint::check_rules(&item.rules, Some(&item.db), Some(&item.init));
        let t1 = Instant::now();
        if gate.has_errors() {
            return Err(format!(
                "{}: fails the lint gate:\n{}",
                item.name,
                gate.render_human()
            ));
        }
        let mut plan = Analysis::of(&item.rules, item.sel.as_ref())
            .plan_with(&item.db, &item.init, &model)
            .parallelize(&par, &model, &item.db, &item.init);
        let t2 = Instant::now();
        let outcome = plan
            .execute_feedback(&item.db, &item.init)
            .map_err(|e| format!("{}: {e}", item.name))?;
        let t3 = Instant::now();
        let span = tracer.open("eval.item", root, t0);
        tracer.record("lint::check_rules", span, t0, t1);
        tracer.record("Analysis::of+plan_with", span, t1, t2);
        tracer.record("Plan::execute", span, t2, t3);
        tracer.close(span, t3);
        out.lint += ms(t1 - t0);
        out.plan += ms(t2 - t1);
        out.execute[i] = ms(t3 - t2);
        out.shapes[i] = plan.shape().label();
        out.results[i] = outcome.relation;
    }
    let done = Instant::now();
    tracer.close(root, done);
    out.total = ms(done - started);
    Ok(out)
}

/// The reference answer of one item: a `Plan::direct` fixpoint, computed
/// once at set-up, with any selection applied after it.
///
/// The selected item binds column 1 to the `down` tree's root. No `down`
/// edge enters that root (checked here), so no tuple derived through
/// `down` can satisfy the selection: the selected answer is the direct
/// fixpoint over `up` alone from the selected seeds. The full fixpoint
/// over both trees would not fit in memory.
fn reference(item: &EvalItem) -> Result<Fingerprint, String> {
    let (db, init) = match &item.sel {
        None => (item.db.snapshot(), item.init.clone()),
        Some(sel) => {
            let [(1, root)] = sel.bindings() else {
                return Err(format!("{}: unexpected selection {sel:?}", item.name));
            };
            let down = item
                .db
                .relation(Symbol::new("down"))
                .ok_or("no down relation")?;
            if down.iter().any(|t| t[1] == *root) {
                return Err(format!(
                    "{}: a down edge enters the selected root",
                    item.name
                ));
            }
            let mut db = Database::new();
            if let Some(up) = item.db.relation(Symbol::new("up")) {
                db.set_relation("up", up.clone());
            }
            db.set_relation("down", Relation::new(2));
            (db, sel.apply(&item.init))
        }
    };
    let rel = Plan::direct(item.rules.clone())
        .execute(&db, &init)
        .map_err(|e| format!("{} reference: {e}", item.name))?
        .relation;
    Ok(Fingerprint::of(&match &item.sel {
        Some(sel) => sel.apply(&rel),
        None => rel,
    }))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::new("eval_mix");
    let mut off = Tracer::new(false);
    let mut order = gen::PassOrder::new(ctx.seed);
    let mut secs = Vec::new();
    let mut items = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        items = gen::eval_items();
        // Set-up passes run in item order, so that the memory read after
        // them does not depend on the seed's orders.
        pass(&items, [0, 1, 2, 3, 4], &mut off)?;
        secs.push(t0.elapsed().as_secs_f64());
    }
    let setup = median(&secs).unwrap_or(0.0);
    o.e2e.push(("setup_s", setup));
    o.named.push(("setup_s", setup, "s"));
    o.samples.push(("setup_s", secs));
    // Memory to load the items and run a pass, read before the references
    // (which are the oracle's, not the program's) are computed.
    let peak = crate::env::peak_rss_mb("/proc/self/status");
    o.e2e.push(("peak_rss_mb", peak));
    o.named.push(("peak_rss_mb", peak, "MB"));
    let refs: Vec<Fingerprint> = items.iter().map(reference).collect::<Result<_, _>>()?;

    let mut tracer = Tracer::new(false);
    let mut passes: Vec<Pass> = Vec::new();
    let mut late = Vec::new();
    let mut shapes = Vec::new();
    let before = trace::local_metrics();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(ctx.seconds);
    let mut prev = start;
    while Instant::now() < end {
        // A traced run records its own spans on a pseudo-random half.
        tracer.set_on(ctx.trace && trace::traced_op(passes.len()));
        let sent = Instant::now();
        late.push(ms(sent - prev));
        let mut p = pass(&items, order.next(), &mut tracer)?;
        prev = Instant::now();
        // Outside the timed pass: each answer against its reference.
        for ((item, rel), want) in items.iter().zip(&p.results).zip(&refs) {
            let got = Fingerprint::of(rel);
            o.check(if got == *want {
                Ok(())
            } else {
                Err(format!(
                    "{}: {} tuples (hash {:x}), reference {} (hash {:x})",
                    item.name, got.count, got.sum, want.count, want.sum
                ))
            });
        }
        shapes = std::mem::take(&mut p.shapes);
        p.results.clear();
        passes.push(p);
    }
    let after = trace::local_metrics();
    let all: Vec<f64> = passes.iter().map(|p| p.total).collect();
    let passes_per_s = all.len() as f64 / (prev - start).as_secs_f64();
    let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(0.0);
    o.op_latency(
        &all,
        [
            "eval_pass_min_ms",
            "eval_pass_ms",
            "eval_pass_mean_ms",
            "eval_pass_p90_ms",
        ],
        90.0,
        OpStat::Min,
    );
    o.named.push(("passes_per_s", passes_per_s, "1/s"));
    o.notes.extend(
        items
            .iter()
            .zip(&shapes)
            .zip(&refs)
            .map(|((item, shape), r)| format!("{}: {shape}, {} tuples", item.name, r.count)),
    );

    if ctx.trace {
        let n = passes.len().max(1) as f64;
        let d = |name: &str| trace::delta(&before, &after, name);
        for (i, name) in EXECUTE_METRICS.iter().enumerate() {
            let v: Vec<f64> = passes.iter().map(|p| p.execute[i]).collect();
            o.layer(name, median(&v).unwrap_or(0.0));
        }
        let lint: Vec<f64> = passes.iter().map(|p| p.lint).collect();
        let plan: Vec<f64> = passes.iter().map(|p| p.plan).collect();
        o.layer("lint.check_ms", median(&lint).unwrap_or(0.0));
        o.layer("engine.plan_ms", median(&plan).unwrap_or(0.0));
        o.layer(
            "engine.dense_compose_ms",
            d("linrec_engine_dense_compose_ns_sum") / n / 1e6,
        );
        o.layer(
            "engine.dense_closures",
            d("linrec_engine_dense_closures_total") / n,
        );
        trace::engine_layers(&mut o, &before, &after, n);
        let flagged = all
            .iter()
            .enumerate()
            .map(|(i, &v)| (trace::traced_op(i), v));
        o.layer("obs.trace_overhead_pct", trace::overhead_pct(flagged));
        o.layer("harness.send_late_ms.p99", p(&late, 99.0));
        o.layer(
            "process.rss_growth_mb",
            crate::env::peak_rss_mb("/proc/self/status") - peak,
        );
        let _ = std::fs::write(ctx.log.with_extension("spans.jsonl"), tracer.jsonl());
    }
    o.samples.push(("eval_pass_ms", all));
    Ok(o)
}
