//! Parallel fixpoint ≡ sequential fixpoint (vendored proptest, seeded and
//! deterministic).
//!
//! For random rule sets, random databases, and shard counts
//! `K ∈ {1, 2, 3, 8}`, the shard-parallel semi-naive executor must produce
//! **bit-identical results and statistics** to the sequential one — for the
//! from-scratch star, for the resumed fixpoint behind incremental view
//! maintenance (`seminaive_resume` driven through the service under
//! insert batches), and for whole planner-chosen plans under
//! `Plan::with_parallelism`.
//!
//! The knobs force `min_delta = 1` so even the tiny random deltas exercise
//! the concurrent prepare → probe → merge path; CI additionally pins the
//! engine thread count via `LINREC_THREADS=4` (with `--test-threads=1`) so
//! the suite demonstrably runs on a multi-worker pool — see
//! `env_threads_are_respected` below.
//!
//! The rule spectrum mirrors `tests/incremental_props.rs`: the paper's
//! examples (transitive closure, the commuting up/down pair, a bounded
//! filter) plus randomly generated arity-2 linear rules.

use linrec::engine::{seminaive_resume, seminaive_star, seminaive_star_in, workload, Indexes};
use linrec::prelude::*;
use linrec::service::{ViewDef, ViewService};
use proptest::collection::vec;
use proptest::prelude::*;

/// Deterministic generator driving rule synthesis (SplitMix64, as in
/// `tests/planner_props.rs`).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// A random arity-2 linear rule over head `p(x0,x1)` (planner_props
/// style): recursive-atom positions copy, swap, or refresh head variables;
/// up to two nonrecursive atoms bind pairs from the pool.
fn random_rule(g: &mut Gen) -> Option<LinearRule> {
    let hv = [Var::new("x0"), Var::new("x1")];
    let fresh = [Var::new("n0"), Var::new("n1")];
    let head = Atom::from_vars("p", &hv);
    let rec_terms: Vec<Term> = (0..2)
        .map(|i| match g.below(4) {
            0 => Term::Var(hv[i]),
            1 => Term::Var(hv[(i + 1) % 2]),
            n => Term::Var(fresh[(n as usize) % 2]),
        })
        .collect();
    let pool: Vec<Var> = hv.iter().chain(fresh.iter()).copied().collect();
    let mut nonrec = Vec::new();
    for pred in ["q", "r"] {
        if g.below(3) == 0 {
            continue;
        }
        let a = pool[g.below(pool.len() as u64) as usize];
        let b = pool[g.below(pool.len() as u64) as usize];
        nonrec.push(Atom::from_vars(pred, &[a, b]));
    }
    LinearRule::from_parts(head, Atom::new("p", rec_terms), nonrec)
        .ok()
        .filter(|r| r.is_range_restricted())
}

/// Pick a rule set from the spectrum: paper examples for low `case`
/// values, random rule sets beyond.
fn rule_set(case: u64) -> Option<Vec<LinearRule>> {
    match case % 8 {
        0 => Some(vec![parse_linear_rule("p(x,y) :- p(x,z), q(z,y).").unwrap()]),
        1 => Some(vec![
            parse_linear_rule("p(x,y) :- p(x,z), q(z,y).").unwrap(),
            parse_linear_rule("p(x,y) :- p(w,y), r(x,w).").unwrap(),
        ]),
        2 => Some(vec![parse_linear_rule("p(x,y) :- p(x,y), q(x,x).").unwrap()]),
        _ => {
            let mut g = Gen(case);
            let n_rules = 1 + g.below(2) as usize;
            let rules: Vec<LinearRule> = (0..8)
                .filter_map(|_| random_rule(&mut g))
                .take(n_rules)
                .collect();
            (rules.len() == n_rules).then_some(rules)
        }
    }
}

/// A database covering the EDB predicates plus a seed, deterministic in
/// `case`.
fn base_db(rules: &[LinearRule], case: u64) -> (Database, Relation) {
    let mut db = Database::new();
    for rule in rules {
        for atom in rule.nonrec_atoms() {
            if db.relation(atom.pred).is_none() {
                db.set_relation(
                    atom.pred,
                    workload::random_graph(8, 12, case.wrapping_add(atom.pred.id() as u64)),
                );
            }
        }
    }
    let init = workload::random_graph(8, 7, case.wrapping_add(71));
    (db, init)
}

/// An always-engaging parallel knob: K shards, no delta-size gate, so the
/// concurrent path runs even on the small random deltas.
fn eager(k: usize) -> Parallelism {
    Parallelism::new(k).with_min_delta(1)
}

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Star: parallel ≡ sequential over random programs and databases,
    /// for every shard count — relations AND statistics.
    #[test]
    fn parallel_star_equals_sequential(case in 0u64..10_000) {
        let rules = rule_set(case);
        prop_assume!(rules.is_some());
        let rules = rules.unwrap();
        let (db, init) = base_db(&rules, case);
        let (seq, seq_stats) = seminaive_star(&rules, &db, &init);
        for k in SHARD_COUNTS {
            let (par, par_stats) =
                seminaive_star_in(&rules, &db, &init, None, &mut Indexes::new(), &eager(k));
            prop_assert_eq!(par.sorted(), seq.sorted(), "case {} k {}", case, k);
            prop_assert_eq!(par_stats, seq_stats, "case {} k {}: stats", case, k);
        }
    }

    /// Resume: maintaining a materialized fixpoint under a frontier delta
    /// gives identical results and stats, parallel vs sequential, with and
    /// without a round cap.
    #[test]
    fn parallel_resume_equals_sequential(
        case in 0u64..10_000,
        extra in vec((0i64..9, 0i64..9), 1..8),
        cap in proptest::option::of(1usize..4),
    ) {
        let rules = rule_set(case);
        prop_assume!(rules.is_some());
        let rules = rules.unwrap();
        let (db, init) = base_db(&rules, case);
        let (fix, _) = seminaive_star(&rules, &db, &init);
        // A frontier of arbitrary extra tuples (the resume contract only
        // needs delta ⊆ total, which union_in_place establishes).
        let mut delta = Relation::new(2);
        for &(a, b) in &extra {
            delta.insert([Value::Int(a), Value::Int(b)]);
        }
        let run = |par: &Parallelism| {
            let mut total = fix.clone();
            total.union_in_place(&delta);
            let stats = seminaive_resume(
                &rules, &db, &mut total, delta.clone(), cap, &mut Indexes::new(), par,
            );
            (total, stats)
        };
        let (seq_total, seq_stats) = run(&Parallelism::sequential());
        for k in SHARD_COUNTS {
            let (par_total, par_stats) = run(&eager(k));
            prop_assert_eq!(par_total.sorted(), seq_total.sorted(), "case {} k {}", case, k);
            prop_assert_eq!(par_stats, seq_stats, "case {} k {}: stats", case, k);
        }
    }

    /// The maintenance path end to end: a service with a parallel knob and
    /// a sequential service must publish identical views after every
    /// insert batch (this drives `seminaive_resume` through whatever
    /// maintenance form the view's certificates license — rule-sum, bounded, decomposed, or the
    /// recompute fallback).
    #[test]
    fn parallel_maintenance_equals_sequential_under_batches(
        case in 0u64..10_000,
        batches in vec(vec((0u8..4, 0i64..9, 0i64..9), 1..6), 1..4),
    ) {
        let rules = rule_set(case);
        prop_assume!(rules.is_some());
        let rules = rules.unwrap();
        let (db, init) = base_db(&rules, case);
        let mut edb = db;
        edb.set_relation("s0", init);
        let mut preds: Vec<Symbol> = vec![Symbol::new("s0")];
        for rule in &rules {
            for atom in rule.nonrec_atoms() {
                if !preds.contains(&atom.pred) {
                    preds.push(atom.pred);
                }
            }
        }
        let def = ViewDef {
            name: "v".into(),
            rules: rules.clone(),
            seed: Symbol::new("s0"),
        };
        let sequential = ViewService::new(edb.snapshot());
        sequential.register_view(def.clone()).expect("register");
        // Shard count varies with the case; min_delta 1 forces the
        // concurrent path on every non-trivial round.
        let k = SHARD_COUNTS[(case % 4) as usize];
        let parallel = ViewService::with_parallelism(edb.snapshot(), eager(k));
        parallel.register_view(def).expect("register");
        for batch in &batches {
            let inserts = |()| -> Vec<(Symbol, Vec<Value>)> {
                batch
                    .iter()
                    .map(|&(p, a, b)| {
                        (preds[p as usize % preds.len()], vec![Value::Int(a), Value::Int(b)])
                    })
                    .collect()
            };
            let a = sequential.apply_batch(inserts(())).expect("batch");
            let b = parallel.apply_batch(inserts(())).expect("batch");
            prop_assert_eq!(a.inserted, b.inserted);
            for (va, vb) in a.views.iter().zip(&b.views) {
                prop_assert_eq!(va.mode, vb.mode, "case {}", case);
                prop_assert_eq!(va.stats, vb.stats, "case {} mode {}", case, va.mode);
            }
            prop_assert_eq!(
                sequential.snapshot().view("v").unwrap().relation.sorted(),
                parallel.snapshot().view("v").unwrap().relation.sorted(),
                "case {} k {}: maintained views diverged",
                case,
                k
            );
        }
    }

    /// Whole plans: the planner's cost-model choice executed with a forced
    /// parallel knob equals its sequential execution.
    #[test]
    fn parallel_plan_execution_equals_sequential(case in 0u64..10_000) {
        let rules = rule_set(case);
        prop_assume!(rules.is_some());
        let rules = rules.unwrap();
        let (db, init) = base_db(&rules, case);
        let analysis = Analysis::of(&rules, None);
        let plan = analysis.plan_for(&db, &init);
        let seq = plan.execute(&db, &init);
        prop_assume!(seq.is_ok());
        let seq = seq.unwrap();
        for k in [2usize, 8] {
            let par_plan = analysis.plan_for(&db, &init).with_parallelism(eager(k));
            let par = par_plan.execute(&db, &init).expect("parallel execution");
            prop_assert_eq!(par.relation.sorted(), seq.relation.sorted(), "case {} k {}", case, k);
            prop_assert_eq!(par.stats, seq.stats, "case {} k {}", case, k);
        }
    }
}

/// CI forces `LINREC_THREADS=4`: when the variable is set, the env-derived
/// knob must actually be parallel with that thread count, and a fixpoint
/// through it must still be exact — this is what makes the CI run of this
/// suite exercise the concurrent path on a real multi-worker pool.
#[test]
fn env_threads_are_respected() {
    let par = Parallelism::from_env();
    if let Ok(n) = std::env::var(linrec::engine::parallel::THREADS_ENV) {
        let n: usize = n.parse().expect("LINREC_THREADS must be a number in CI");
        assert_eq!(par.threads(), n.max(1));
        assert_eq!(par.is_parallel(), n > 1);
    }
    let rules = vec![parse_linear_rule("p(x,y) :- p(x,z), q(z,y).").unwrap()];
    let edges = workload::chain(64);
    let db = workload::graph_db("q", edges.clone());
    let (seq, seq_stats) = seminaive_star(&rules, &db, &edges);
    let (par_rel, par_stats) = seminaive_star_in(
        &rules,
        &db,
        &edges,
        None,
        &mut Indexes::new(),
        &par.with_min_delta(1),
    );
    assert_eq!(par_rel.sorted(), seq.sorted());
    assert_eq!(par_stats, seq_stats);
}
