//! Planner dividend across the licensed strategy space.
//!
//! For each workload this bench times **every strategy the analysis
//! licenses** — `Direct` and `Naive` are always legal; `Decomposed` and
//! `RedundancyBounded` appear where their certificates exist — plus the
//! cost-model pick (`Analysis::plan_for`), so the planner's decision can be
//! validated against ground truth. The planning cost itself (analysis +
//! certificate search) is measured separately.
//!
//! The `incremental` group measures the PR 3 serving scenario: maintaining
//! the materialized 1k-chain transitive-closure view under a 1% insert
//! batch (`linrec-service` delta maintenance, scan/index cache reused
//! across batches) against recomputing the view from scratch on the
//! post-batch EDB.
//!
//! The `parallel` group measures the PR 4 tentpole: the shard-parallel
//! semi-naive executor on the headline recursions, with **both** the
//! 1-thread and the N-thread medians emitted from this same binary
//! (`parallel/<workload>/t1` vs `parallel/<workload>/t<N>`), so the
//! derived speedup compares like with like. `N` is `LINREC_THREADS` or
//! the machine's available parallelism, floored at 4 (the acceptance
//! target is "4+ threads").
//!
//! The `persistence` group measures the PR 5 tentpole: cold-starting the
//! 1k-chain TC service from a warm checkpoint (`open_durable`: snapshot
//! load + empty WAL tail) against the from-scratch fixpoint, plus the
//! cost of writing one checkpoint generation.
//!
//! The `hardening` group measures the PR 7 tentpole: the VFS-indirection
//! cost on the WAL append path (`Store::append_batch` through
//! `StdVfs`/dyn dispatch vs a raw `std::fs` write+sync of the same
//! frame, same binary and filesystem) and the time to bring a degraded
//! 1k-chain service back to read-write after a fault clears
//! (`try_restore`: store reopen + snapshot recover).
//!
//! Every measurement is appended to `target/criterion.jsonl` (override
//! with `CRITERION_JSON`); the run writes no other file. The committed
//! `BENCH_pr*.json` summaries are history from earlier versions of this
//! bench; the end-to-end benchmark is `perfbench`.
//!
//! Deliberate coverage gap (not a silent cap): `Naive` is skipped on the
//! 1k-chain — naive evaluation re-joins the ~500k-tuple closure every one
//! of its 1000 rounds and takes minutes; the same strategy is covered on
//! the grid and shopping workloads where it terminates quickly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use linrec_engine::{rules, workload, Analysis, CostModel, Parallelism, Plan, PlanShape};

fn bench_planning_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner_analysis");
    group.sample_size(10);
    let updown = vec![rules::up_rule(), rules::down_rule()];
    let shopping = vec![rules::shopping_rule()];
    group.bench_function("analyze/updown", |b| {
        b.iter(|| Analysis::of(&updown, None).plan())
    });
    group.bench_function("analyze/shopping", |b| {
        b.iter(|| Analysis::of(&shopping, None).plan())
    });
    // Cost-based choice adds cardinality estimation on top of analysis.
    let (db, init) = workload::shopping(100, 30, 4, 99);
    let analysis = Analysis::of(&shopping, None);
    group.bench_function("plan_for/shopping", |b| {
        b.iter(|| analysis.plan_for(&db, &init))
    });
    group.finish();
}

fn bench_shopping(c: &mut Criterion) {
    let mut group = c.benchmark_group("shopping");
    group.sample_size(10);
    let rules = vec![rules::shopping_rule()];
    let analysis = Analysis::of(&rules, None);
    for people in [100i64, 400, 1600] {
        let (db, init) = workload::shopping(people, 30, 4, 99);
        let chosen = analysis.plan_for(&db, &init);
        // The cost model must have resolved the PR 1 regression: on this
        // small dense workload RedundancyBounded loses to Direct.
        assert_eq!(chosen.shape(), PlanShape::Direct);
        let strategies: Vec<(&str, Plan)> = vec![
            ("planner", chosen),
            ("direct", Plan::direct(rules.clone())),
            (
                "redundancy_bounded",
                Plan::redundancy_bounded(analysis.redundancy().expect("licensed").clone()),
            ),
            ("naive", Plan::naive(rules.clone())),
        ];
        for (name, plan) in &strategies {
            if *name == "naive" && people > 100 {
                continue; // naive is quadratic-ish in rounds; one size suffices
            }
            group.bench_with_input(BenchmarkId::new(*name, people), &people, |b, _| {
                b.iter(|| plan.execute(&db, &init).unwrap())
            });
        }
    }
    group.finish();
}

fn bench_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_tc");
    group.sample_size(10);
    let rules = vec![rules::tc_right()];
    let analysis = Analysis::of(&rules, None);
    for n in [200i64, 1000] {
        let edges = workload::chain(n);
        let db = workload::graph_db("q", edges.clone());
        let chosen = analysis.plan_for(&db, &edges);
        // Since PR 9 the full-chain seed licenses the dense bitset closure
        // (small domain, density ≈ 0.5), so "planner" here measures the
        // power-doubling kernel against the sparse strategies below.
        assert_eq!(chosen.shape(), PlanShape::DenseClosure);
        group.bench_with_input(BenchmarkId::new("planner", n), &n, |b, _| {
            b.iter(|| chosen.execute(&db, &edges).unwrap())
        });
        let direct = Plan::direct(rules.clone());
        group.bench_with_input(BenchmarkId::new("direct", n), &n, |b, _| {
            b.iter(|| direct.execute(&db, &edges).unwrap())
        });
        if n <= 200 {
            let naive = Plan::naive(rules.clone());
            group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
                b.iter(|| naive.execute(&db, &edges).unwrap())
            });
        }
    }
    group.finish();
}

fn bench_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid_tc");
    group.sample_size(10);
    let rules = vec![rules::tc_right()];
    let analysis = Analysis::of(&rules, None);
    let edges = workload::grid(20, 20);
    let db = workload::graph_db("q", edges.clone());
    let chosen = analysis.plan_for(&db, &edges);
    // PR 9: the grid's 400-node domain licenses the dense closure too.
    assert_eq!(chosen.shape(), PlanShape::DenseClosure);
    group.bench_function("planner/20x20", |b| {
        b.iter(|| chosen.execute(&db, &edges).unwrap())
    });
    let direct = Plan::direct(rules.clone());
    group.bench_function("direct/20x20", |b| {
        b.iter(|| direct.execute(&db, &edges).unwrap())
    });
    let naive = Plan::naive(rules.clone());
    group.bench_function("naive/20x20", |b| {
        b.iter(|| naive.execute(&db, &edges).unwrap())
    });
    group.finish();
}

/// PR 9 dense-vs-sparse medians, same binary: for each workload the
/// cost-model pick (the dense bitset closure — asserted) against the
/// sparse semi-naive star on identical data. Random graphs at three
/// densities pin where the word kernels pay beyond the chain/grid
/// headliners. Exactness is asserted before anything is timed.
fn bench_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense");
    group.sample_size(10);
    let rules = vec![rules::tc_right()];
    let analysis = Analysis::of(&rules, None);
    let cases: Vec<(String, linrec_datalog::Relation)> = vec![
        ("chain_1000".to_owned(), workload::chain(1000)),
        ("grid_20x20".to_owned(), workload::grid(20, 20)),
        (
            "random_200_m400".to_owned(),
            workload::random_graph(200, 400, 9),
        ),
        (
            "random_200_m2000".to_owned(),
            workload::random_graph(200, 2000, 9),
        ),
        (
            "random_200_m8000".to_owned(),
            workload::random_graph(200, 8000, 9),
        ),
    ];
    for (name, edges) in &cases {
        let db = workload::graph_db("q", edges.clone());
        let chosen = analysis.plan_for(&db, edges);
        assert_eq!(
            chosen.shape(),
            PlanShape::DenseClosure,
            "the dense gate must fire on {name}: {}",
            chosen.rationale()
        );
        let sparse = Plan::direct(rules.clone());
        let a = chosen.execute(&db, edges).unwrap();
        let b = sparse.execute(&db, edges).unwrap();
        assert_eq!(a.relation.sorted(), b.relation.sorted());
        group.bench_with_input(BenchmarkId::new(name, "planner"), name, |bch, _| {
            bch.iter(|| chosen.execute(&db, edges).unwrap())
        });
        group.bench_with_input(BenchmarkId::new(name, "sparse"), name, |bch, _| {
            bch.iter(|| sparse.execute(&db, edges).unwrap())
        });
    }
    group.finish();
}

fn bench_updown(c: &mut Criterion) {
    let mut group = c.benchmark_group("updown");
    group.sample_size(10);
    let rules = vec![rules::up_rule(), rules::down_rule()];
    let analysis = Analysis::of(&rules, None);
    for depth in [6u32, 8, 10] {
        let (db, init) = workload::up_down(depth, 7);
        let chosen = analysis.plan_for(&db, &init);
        assert!(matches!(chosen.shape(), PlanShape::Decomposed { .. }));
        let decomposed = Plan::decomposed(analysis.commutativity().expect("licensed").clone());
        let direct = Plan::direct(rules.clone());
        for (name, plan) in [
            ("planner", &chosen),
            ("decomposed", &decomposed),
            ("direct", &direct),
        ] {
            group.bench_with_input(BenchmarkId::new(name, depth), &depth, |b, _| {
                b.iter(|| plan.execute(&db, &init).unwrap())
            });
        }
    }
    group.finish();
}

/// Maintaining the 1k-chain TC view under a 1% insert batch (10 edges
/// extending the chain: ~10k new closure tuples) vs recomputing the view
/// from scratch on the post-batch EDB. The maintained view and the
/// cross-batch index cache are set up once; each iteration measures one
/// steady-state maintenance step from the same pre-batch state.
fn bench_incremental(c: &mut Criterion) {
    use linrec_datalog::hash::FastMap;
    use linrec_datalog::{Symbol, Value};
    use linrec_service::{MaintenanceMode, ViewDef};
    use std::sync::Arc;

    let mut group = c.benchmark_group("incremental");
    group.sample_size(10);
    let n = 1000i64;
    let rules = vec![rules::tc_right()];
    let mut db = linrec_engine::workload::graph_db("q", workload::chain(n));
    let def = ViewDef {
        name: "tc".into(),
        rules: rules.clone(),
        seed: Symbol::new("q"),
    };
    let mut view = linrec_service::MaintainedView::register(def, &db).unwrap();
    assert_eq!(view.mode(), &MaintenanceMode::Incremental);
    let (materialized, _) = view.materialize(&db).unwrap();
    let materialized = Arc::new(materialized);

    // The 1% batch: 10 edges extending the chain to 1010 nodes.
    let mut delta = linrec_datalog::Relation::new(2);
    for i in 0..10 {
        let t = [Value::Int(n + i), Value::Int(n + i + 1)];
        db.insert_tuple(Symbol::new("q"), t);
        delta.insert(t);
    }
    let mut deltas: FastMap<Symbol, Arc<linrec_datalog::Relation>> = FastMap::default();
    deltas.insert(Symbol::new("q"), Arc::new(delta));

    // Sanity: maintenance must agree with the from-scratch recompute.
    let seed = db.relation_or_empty(Symbol::new("q"), 2);
    let plan = Plan::direct(rules.clone());
    let scratch = plan.execute(&db, &seed).unwrap();
    let maintained = view
        .maintain(&materialized, &db, &deltas)
        .unwrap()
        .relation
        .unwrap();
    assert_eq!(maintained.sorted(), scratch.relation.sorted());

    group.bench_function("maintain/1000", |b| {
        b.iter(|| {
            view.maintain(&materialized, &db, &deltas)
                .unwrap()
                .relation
                .unwrap()
        })
    });
    group.bench_function("recompute/1000", |b| {
        b.iter(|| plan.execute(&db, &seed).unwrap())
    });
    group.finish();
}

/// PR 8 observability overhead: the same 1k-chain 1% maintenance batch as
/// `incremental/maintain/1000`, run with the metrics/tracing layer enabled
/// (the default) and with `linrec_obs::set_enabled(false)` — same binary,
/// same run, so the difference is exactly the instrumentation cost
/// (acceptance target < 2%). A primitive microbench rides along to pin
/// the per-operation costs the budget is built from.
fn bench_observability(c: &mut Criterion) {
    use linrec_datalog::hash::FastMap;
    use linrec_datalog::{Symbol, Value};
    use linrec_service::{MaintenanceMode, ViewDef};
    use std::sync::Arc;

    let mut group = c.benchmark_group("observability");
    group.sample_size(10);
    let n = 1000i64;
    let rules = vec![rules::tc_right()];
    let mut db = linrec_engine::workload::graph_db("q", workload::chain(n));
    let def = ViewDef {
        name: "tc".into(),
        rules,
        seed: Symbol::new("q"),
    };
    let mut view = linrec_service::MaintainedView::register(def, &db).unwrap();
    assert_eq!(view.mode(), &MaintenanceMode::Incremental);
    let (materialized, _) = view.materialize(&db).unwrap();
    let materialized = Arc::new(materialized);
    let mut delta = linrec_datalog::Relation::new(2);
    for i in 0..10 {
        let t = [Value::Int(n + i), Value::Int(n + i + 1)];
        db.insert_tuple(Symbol::new("q"), t);
        delta.insert(t);
    }
    let mut deltas: FastMap<Symbol, Arc<linrec_datalog::Relation>> = FastMap::default();
    deltas.insert(Symbol::new("q"), Arc::new(delta));

    linrec_obs::set_enabled(true);
    group.bench_function("maintain_instrumented/1000", |b| {
        b.iter(|| {
            view.maintain(&materialized, &db, &deltas)
                .unwrap()
                .relation
                .unwrap()
        })
    });
    linrec_obs::set_enabled(false);
    group.bench_function("maintain_disabled/1000", |b| {
        b.iter(|| {
            view.maintain(&materialized, &db, &deltas)
                .unwrap()
                .relation
                .unwrap()
        })
    });
    linrec_obs::set_enabled(true);

    // Primitive costs: one counter bump, one histogram observation, one
    // full span open/attr/close through the flight recorder.
    let counter = linrec_obs::counter("bench_obs_counter_total");
    group.bench_function("counter_inc", |b| b.iter(|| counter.inc()));
    let hist = linrec_obs::histogram("bench_obs_hist_ns");
    let mut v = 0u64;
    group.bench_function("histogram_observe", |b| {
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.observe(v >> 40)
        })
    });
    group.bench_function("span_record", |b| {
        b.iter(|| {
            let mut sp = linrec_obs::span("bench.span");
            sp.attr("k", 1);
        })
    });
    group.finish();
}

/// PR 10 plan-decision journal + drift sentinel overhead: the same
/// 1k-chain TC service with a constant-work insert batch committed through
/// the full `apply_batch` path — WAL-less, so the per-batch cost is delta
/// computation + maintenance + publish + the observability layer the
/// journal and sentinel ride on — with that layer enabled (the default)
/// and disabled in the same binary and run (acceptance target < 2%).
/// Batches insert fresh disconnected edges so every iteration does the
/// same amount of real maintenance work. The per-batch cost is dominated
/// by the copy-on-write of the ~500k-tuple closure relation, whose
/// allocator noise is both one-sided and drifting (whichever side runs
/// later pays the fragmentation of the earlier one), so back-to-back
/// bench runs cannot resolve the two-orders-smaller obs delta: instead
/// the two sides INTERLEAVE — obs toggles per batch over one service —
/// and the floor (minimum) of each side is compared. A `journal_record`
/// primitive rides along to pin the per-view per-batch journal cost.
fn bench_sentinel(c: &mut Criterion) {
    use linrec_datalog::{Symbol, Value};
    use linrec_service::{ViewDef, ViewService};

    let n = 1000i64;
    let db = linrec_engine::workload::graph_db("q", workload::chain(n));
    let def = ViewDef {
        name: "tc".into(),
        rules: vec![rules::tc_right()],
        seed: Symbol::new("q"),
    };
    let service = ViewService::new(db);
    service.register_view(def).unwrap();
    let mut next = 2_000_000i64;
    let mut batch = || {
        let mut b = Vec::with_capacity(10);
        for _ in 0..10 {
            b.push((
                Symbol::new("q"),
                vec![Value::Int(next), Value::Int(next + 1)],
            ));
            next += 2;
        }
        b
    };
    let samples = 40usize;
    let (mut on_ns, mut off_ns) = (Vec::with_capacity(samples), Vec::with_capacity(samples));
    for _ in 0..2 {
        service.apply_batch(batch()).unwrap(); // warm-up
    }
    for i in 0..2 * samples {
        let enabled = i % 2 == 0;
        linrec_obs::set_enabled(enabled);
        let t0 = std::time::Instant::now();
        service.apply_batch(batch()).unwrap();
        let ns = t0.elapsed().as_nanos() as f64;
        if enabled {
            on_ns.push(ns);
        } else {
            off_ns.push(ns);
        }
    }
    linrec_obs::set_enabled(true);
    let stats = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        (v[0], v[v.len() / 2])
    };
    let (on_min, on_median) = stats(&mut on_ns);
    let (off_min, off_median) = stats(&mut off_ns);
    for (id, min, median) in [
        ("sentinel/maintain_journaled/1000", on_min, on_median),
        ("sentinel/maintain_unjournaled/1000", off_min, off_median),
    ] {
        eprintln!(
            "{id:<60} median {:>12.1} µs   min {:>12.1} µs   ({samples} samples, interleaved)",
            median / 1e3,
            min / 1e3,
        );
    }

    let mut group = c.benchmark_group("sentinel");
    group.sample_size(40);
    let journal = linrec_obs::journal::journal();
    group.bench_function("journal_record", |b| {
        b.iter(|| journal.record("bench", "tc", "Direct", 10.0, 10, 100, String::new()))
    });
    // The exact work `observe_maintenance` adds per view per committed
    // batch: one cost-model estimate of the view's plan over the delta
    // plus one journal record (the sentinel's EWMA update is a handful of
    // float ops on top). Measured directly because the A/B floors above
    // sit on a multi-millisecond copy-on-write whose noise swamps a
    // double-digit-microsecond signal.
    let rules = vec![rules::tc_right()];
    let analysis = Analysis::of(&rules, None);
    let edges = workload::chain(n);
    let est_db = linrec_engine::workload::graph_db("q", edges.clone());
    let plan = analysis.plan_for(&est_db, &edges);
    let mut delta = linrec_datalog::Relation::new(2);
    for i in 0..10i64 {
        delta.insert([Value::Int(2_000_000 + 2 * i), Value::Int(2_000_001 + 2 * i)]);
    }
    let model = CostModel::default();
    group.bench_function("estimate_and_record/1000", |b| {
        b.iter(|| {
            let est = model.estimate(&plan, &est_db, &delta);
            journal.record(
                "maintain",
                "tc",
                "DenseClosure",
                est,
                10,
                100,
                String::new(),
            )
        })
    });
    group.finish();
}

/// Thread count for the N-thread side of the parallel groups: the
/// engine's own resolution (`LINREC_THREADS` or available parallelism),
/// floored at 4 so the acceptance comparison ("4+ threads vs 1 thread,
/// same binary") is always what gets measured.
fn parallel_threads() -> usize {
    Parallelism::from_env().threads().max(4)
}

/// Same-binary 1-thread vs N-thread medians for the headline recursions.
/// The parallel plan goes through the production path — `Plan::parallelize`
/// with the stock cost model — so what is measured includes the per-round
/// cutover gate, not a hand-tuned harness.
fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel");
    group.sample_size(10);
    let n = parallel_threads();
    let rules = vec![rules::tc_right()];
    let cases = [
        ("chain_tc_1000", workload::chain(1000)),
        ("grid_tc_20x20", workload::grid(20, 20)),
    ];
    for (name, edges) in cases {
        let db = workload::graph_db("q", edges.clone());
        let sequential = Plan::direct(rules.clone());
        let parallel = Plan::direct(rules.clone()).parallelize(
            &Parallelism::new(n),
            &CostModel::default(),
            &db,
            &edges,
        );
        assert!(
            parallel.rationale().contains("parallel:"),
            "cost model must engage parallelism on {name}: {}",
            parallel.rationale()
        );
        // Exactness guard before timing anything.
        let a = sequential.execute(&db, &edges).unwrap();
        let b = parallel.execute(&db, &edges).unwrap();
        assert_eq!(a.relation.sorted(), b.relation.sorted());
        assert_eq!(a.stats, b.stats);
        group.bench_with_input(BenchmarkId::new(name, "t1"), &1usize, |bch, _| {
            bch.iter(|| sequential.execute(&db, &edges).unwrap())
        });
        group.bench_with_input(BenchmarkId::new(name, format!("t{n}")), &n, |bch, _| {
            bch.iter(|| parallel.execute(&db, &edges).unwrap())
        });
    }
    group.finish();
}

/// The PR 5 tentpole: cold start from a warm checkpoint (snapshot load +
/// empty WAL tail, through the production `open_durable` path) vs the
/// from-scratch fixpoint the service would otherwise pay, plus the cost of
/// writing a checkpoint generation. The recovered state is asserted equal
/// to the fixpoint before anything is timed.
fn bench_persistence(c: &mut Criterion) {
    use linrec_datalog::{Database, Symbol};
    use linrec_service::{open_durable, CheckpointPolicy, ViewDef};

    let mut group = c.benchmark_group("persistence");
    group.sample_size(10);
    let n = 1000i64;
    let rules = vec![rules::tc_right()];
    let edges = workload::chain(n);
    let db = workload::graph_db("q", edges.clone());
    let def = || ViewDef {
        name: "tc".into(),
        rules: rules.clone(),
        seed: Symbol::new("q"),
    };
    let policy = CheckpointPolicy::default();
    let dir = std::env::temp_dir().join(format!("linrec-bench-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Warm the store: open fresh (writes the baseline checkpoint with the
    // materialized 500k-tuple closure), then drop — the WAL tail is empty,
    // so recover measures pure snapshot-load + registration.
    let scratch = Plan::direct(rules.clone()).execute(&db, &edges).unwrap();
    {
        let (service, report) = open_durable(
            &dir,
            db.clone(),
            vec![def()],
            Parallelism::sequential(),
            policy,
        )
        .expect("fresh open");
        assert!(!report.from_snapshot);
        assert_eq!(
            service.snapshot().view("tc").unwrap().relation.sorted(),
            scratch.relation.sorted(),
            "materialized view must equal the fixpoint"
        );
    }
    {
        // Exactness guard on the path being timed.
        let (service, report) = open_durable(
            &dir,
            Database::new(),
            vec![def()],
            Parallelism::sequential(),
            policy,
        )
        .expect("warm open");
        assert!(report.from_snapshot && report.replayed_batches == 0);
        assert_eq!(
            service.snapshot().view("tc").unwrap().relation.sorted(),
            scratch.relation.sorted(),
            "recovered view must equal the fixpoint"
        );
    }

    group.bench_function("recover/1000", |b| {
        b.iter(|| {
            let (service, _) = open_durable(
                &dir,
                Database::new(),
                vec![def()],
                Parallelism::sequential(),
                policy,
            )
            .expect("cold start");
            assert_eq!(
                service.snapshot().count("tc").unwrap() as i64,
                n * (n + 1) / 2
            );
            service
        })
    });
    group.bench_function("scratch_fixpoint/1000", |b| {
        let plan = Plan::direct(rules.clone());
        b.iter(|| plan.execute(&db, &edges).unwrap())
    });
    group.bench_function("checkpoint/1000", |b| {
        let (service, _) = open_durable(
            &dir,
            Database::new(),
            vec![def()],
            Parallelism::sequential(),
            policy,
        )
        .expect("open for checkpoint bench");
        b.iter(|| assert!(service.checkpoint_now().unwrap()))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_hardening(c: &mut Criterion) {
    use linrec_datalog::{Symbol, Value};
    use linrec_service::{
        open_durable_with_vfs, CheckpointPolicy, RetryPolicy, ServiceMode, ViewDef, ViewService,
    };
    use linrec_storage::{FaultOp, FaultPlan, FaultVfs, StdVfs, Store, Vfs};
    use std::io::Write as _;
    use std::sync::Arc;

    let mut group = c.benchmark_group("hardening");
    group.sample_size(10);

    // VFS-indirection cost on the WAL append path, same binary and same
    // filesystem on both sides: `Store::append_batch` (encode + write +
    // sync via `Arc<dyn Vfs>`/`Box<dyn VfsFile>`) against a raw
    // `std::fs` write + sync of a frame-sized buffer. The encode cost is
    // deliberately charged to the VFS side, so the derived overhead is
    // an upper bound on pure dispatch.
    let batch: Vec<(Symbol, Vec<Value>)> = (0..10)
        .map(|i| {
            (
                Symbol::new("q"),
                vec![Value::Int(2000 + i), Value::Int(2001 + i)],
            )
        })
        .collect();
    let wal_dir = std::env::temp_dir().join(format!("linrec-bench-harden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let mut store = Store::open_with(&wal_dir, Arc::new(StdVfs)).expect("open append store");
    store.recover().expect("recover fresh store");
    store.append_batch(&batch).expect("probe append");
    let (_, frame_bytes) = store.wal_pressure();
    group.bench_function("wal_append/std_vfs", |b| {
        b.iter(|| store.append_batch(&batch).expect("append via StdVfs"))
    });
    let buf = vec![0xABu8; (frame_bytes as usize).max(64)];
    let mut raw = std::fs::OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(wal_dir.join("raw-wal.bin"))
        .expect("open raw append file");
    group.bench_function("wal_append/raw_fs", |b| {
        b.iter(|| {
            raw.write_all(&buf).expect("raw write");
            raw.sync_data().expect("raw sync");
        })
    });
    drop(raw);
    let _ = std::fs::remove_dir_all(&wal_dir);

    // Time-to-recover after fault clearance: a degraded 1k-chain TC
    // service (store handle dropped after an injected ENOSPC) back to
    // read-write via `try_restore` — the reopen + snapshot recover is
    // the dominant cost. Each iteration re-poisons the plan and fails
    // one write so the next iteration starts degraded again; that
    // refused append rides along in the measurement and is small
    // against the recover.
    let n = 1000i64;
    let rules = vec![rules::tc_right()];
    let db = workload::graph_db("q", workload::chain(n));
    let def = ViewDef {
        name: "tc".into(),
        rules: rules.clone(),
        seed: Symbol::new("q"),
    };
    let rec_dir = std::env::temp_dir().join(format!("linrec-bench-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&rec_dir);
    let fault = FaultVfs::new(FaultPlan::none());
    let vfs: Arc<dyn Vfs> = fault.clone();
    let (service, _) = open_durable_with_vfs(
        &rec_dir,
        vfs,
        db,
        vec![def],
        Parallelism::sequential(),
        CheckpointPolicy::default(),
    )
    .expect("open durable for recover bench");
    service.set_retry_policy(RetryPolicy::none());
    let degrade = |service: &ViewService, fault: &FaultVfs| {
        fault.set_plan(FaultPlan::seeded_ops(1, 1000, vec![FaultOp::Write]));
        service
            .apply_batch(vec![(
                Symbol::new("q"),
                vec![Value::Int(5000), Value::Int(5001)],
            )])
            .expect_err("append under injected ENOSPC must be refused");
    };
    degrade(&service, &fault);
    assert_eq!(service.mode().0, ServiceMode::Degraded);
    group.bench_function("time_to_recover/1000", |b| {
        b.iter(|| {
            fault.clear();
            assert!(service.try_restore().expect("restore after clearance"));
            degrade(&service, &fault);
        })
    });
    group.finish();
    drop(service);
    let _ = std::fs::remove_dir_all(&rec_dir);
}

criterion_group!(
    benches,
    bench_planning_cost,
    bench_shopping,
    bench_chain,
    bench_grid,
    bench_dense,
    bench_updown,
    bench_incremental,
    bench_parallel,
    bench_persistence,
    bench_hardening,
    bench_observability,
    bench_sentinel
);

criterion_main!(benches);
