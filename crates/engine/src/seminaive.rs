//! Naive and semi-naive fixpoint evaluation (Bancilhon \[5\]), with an
//! optional shard-parallel round executor.
//!
//! `star(rules, db, init)` computes `(Σᵢ Aᵢ)* init` — the minimal solution
//! of `P = Σᵢ Aᵢ(P) ∪ init` (paper, eq. 2.3). Semi-naive applies each
//! operator only to the tuples new in the previous round, which realizes
//! the derivation-graph model of Theorem 3.1 ("the same tuple is not
//! derived through the same arc more than once"); naive evaluation re-joins
//! the whole accumulated relation each round and serves as the substrate
//! baseline (experiment E6).
//!
//! Every semi-naive evaluation in the engine and the service runs one
//! loop, [`seminaive_resume`]: from-scratch stars, bounded prefixes (a
//! round cap), the redundancy-bounded `(Bᴾ)*`, and each cluster of a
//! decomposed view's maintenance. It owns the `engine.fixpoint` span and
//! the round metrics, so every one of those phases is visible in traces.
//!
//! # Parallel rounds and the shard-by-join-key invariant
//!
//! Under a parallel knob ([`crate::parallel::Parallelism`]), each round's
//! rule applications run over `K` hash-partitioned shards of the delta on
//! the shared engine pool. This is sound for exactly the reason the paper
//! cares about commutativity: within one semi-naive round, every delta
//! tuple is an **independent** premise. A linear operator distributes
//! over union — `A(Δ₁ ∪ … ∪ Δ_K) = A(Δ₁) ∪ … ∪ A(Δ_K)` — so any partition
//! of `Δ` evaluates to the same derived set, and the per-tuple derivations
//! commute (this is the commutative case of the commutativity-
//! verification framing: operations on independently derivable tuples can
//! be reordered freely). Partitioning therefore
//! *commutes with the licensed plan*: a certificate that licenses a
//! cluster order `B* C*` speaks about the order of **operator stars**,
//! and sharding only reorders work *inside one application* of one
//! operator, never across applications. We hash on the recursive atom's
//! join-feeding column (`crate::join::partition_col`) purely for load
//! balance and probe locality — correctness holds for any partition.
//!
//! The round protocol keeps the output bit-identical to the sequential
//! executor:
//!
//! 1. **prepare** (one thread): scans revalidated, column indexes and join
//!    plans built ([`crate::join::prepare_rules`]);
//! 2. **probe** (K workers): each shard evaluates *every* rule body
//!    read-only ([`crate::join::apply_linear_rows`]), pre-filtering
//!    against the round-frozen total, into a private output buffer;
//! 3. **merge** (one thread): per rule, shard buffers fold into the next
//!    delta with a single deduplicating pass against the total's row-id
//!    table — the same `contains`/`insert` sequence the sequential loop
//!    runs, so results *and* statistics (derivations, duplicates, new
//!    tuples, per-rule attribution) are identical.
//!
//! Rounds whose delta is smaller than the cost model's cutover
//! ([`crate::planner::CostModel::parallel_cutover`]) stay sequential —
//! the fixed sharding/dispatch/merge price is only paid where the delta
//! can amortize it.

use crate::join::{apply_linear, apply_linear_rows, partition_col, prepare_rules, Indexes};
use crate::parallel::Parallelism;
use crate::profile;
use crate::stats::EvalStats;
use linrec_datalog::{Database, LinearRule, Relation, ShardView};
use std::sync::Arc;
use std::time::Instant;

/// Close out a fixpoint: fold the evaluation's stats into the engine
/// counters and annotate its span (no-op when instrumentation is off).
fn finish_fixpoint(sp: &mut linrec_obs::Span, stats: &EvalStats) {
    if !linrec_obs::enabled() {
        return;
    }
    let prof = profile::rounds();
    prof.fixpoints.inc();
    prof.rounds.inc_by(stats.iterations as u64);
    prof.derivations.inc_by(stats.derivations);
    prof.duplicates.inc_by(stats.duplicates);
    sp.attr("rounds", stats.iterations);
    sp.attr("derivations", stats.derivations);
    sp.attr("duplicates", stats.duplicates);
    sp.attr("tuples", stats.tuples);
}

/// Semi-naive least fixpoint of `init ∪ Σᵢ Aᵢ(P)`: sequential rounds over
/// a fresh scan/index cache — the reference evaluator the tests hold every
/// other path against.
pub fn seminaive_star(
    rules: &[LinearRule],
    db: &Database,
    init: &Relation,
) -> (Relation, EvalStats) {
    seminaive_star_in(
        rules,
        db,
        init,
        None,
        &mut Indexes::new(),
        &Parallelism::sequential(),
    )
}

/// [`seminaive_star`] with a round cap, a caller-provided scan/index cache
/// (so multi-phase plans over the same database materialize each EDB
/// relation only once) and a [`Parallelism`] knob. `round_cap = Some(n)`
/// yields the bounded prefix `Σ_{m=0}^{n} Aᵐ init` (boundedness and
/// redundancy-bounded plans, Theorem 4.2).
pub fn seminaive_star_in(
    rules: &[LinearRule],
    db: &Database,
    init: &Relation,
    round_cap: Option<usize>,
    indexes: &mut Indexes,
    par: &Parallelism,
) -> (Relation, EvalStats) {
    let mut total = init.clone();
    let stats = seminaive_resume(rules, db, &mut total, init.clone(), round_cap, indexes, par);
    (total, stats)
}

/// Resume a semi-naive fixpoint from an already-materialized relation —
/// the one semi-naive loop: [`seminaive_star_in`] starts it from
/// `total = delta = init`, incremental view maintenance from a
/// materialized view and its batch delta.
///
/// Preconditions (the caller's obligations, not checked):
/// * every tuple of `delta` is already in `total`;
/// * `total` is closed under the rules *except* through `delta`, i.e.
///   `Aᵢ(total) ⊆ total ∪ Aᵢ(delta)` for every rule — for linear rules
///   (union-distributive in the recursive predicate) this holds whenever
///   `total = old ∪ delta` with `old` a fixpoint of the rules over the
///   *previous* EDB and `delta` covering every rule application that
///   involves a changed EDB tuple.
///
/// Under those premises the loop extends `total` in place to the least
/// fixpoint of `init ∪ Σᵢ Aᵢ(P)` for any `init ⊆ total`, re-deriving
/// nothing reachable only from the unchanged region. New tuples are
/// appended to `total` in derivation order. `round_cap` bounds the number
/// of delta rounds: sound when a boundedness certificate guarantees the
/// fixpoint is reached within that many applications (`None` runs to
/// fixpoint). Rounds whose delta reaches `par`'s cutover run sharded on
/// the shared engine pool (module docs); results and statistics are
/// identical to the sequential rounds.
pub fn seminaive_resume(
    rules: &[LinearRule],
    db: &Database,
    total: &mut Relation,
    mut delta: Relation,
    round_cap: Option<usize>,
    indexes: &mut Indexes,
    par: &Parallelism,
) -> EvalStats {
    let mut sp = linrec_obs::span("engine.fixpoint");
    if par.is_parallel() {
        sp.attr("par", par.threads());
    }
    let prof = linrec_obs::enabled().then(profile::rounds);
    let mut round_start = prof.map(|_| Instant::now());
    let mut stats = EvalStats::default();
    while !delta.is_empty() && round_cap.is_none_or(|cap| stats.iterations < cap) {
        stats.iterations += 1;
        let delta_in = delta.len() as u64;
        delta = seminaive_round(rules, db, total, delta, indexes, par, &mut stats);
        if let (Some(p), Some(t0)) = (prof, round_start) {
            let now = Instant::now();
            p.round_ns.observe((now - t0).as_nanos() as u64);
            p.round_delta.observe(delta_in);
            round_start = Some(now);
        }
        total.union_in_place(&delta);
    }
    stats.tuples = total.len();
    finish_fixpoint(&mut sp, &stats);
    stats
}

/// One sequential semi-naive round: apply every rule to `delta`, returning
/// the next delta (tuples not yet in `total`). The caller unions it into
/// `total`.
fn sequential_round(
    rules: &[LinearRule],
    db: &Database,
    total: &Relation,
    delta: &Relation,
    indexes: &mut Indexes,
    stats: &mut EvalStats,
) -> Relation {
    let mut next_delta = Relation::new(total.arity());
    for rule in rules {
        let (derived, count) = apply_linear(rule, db, delta, indexes);
        let mut new = 0u64;
        for t in derived.iter() {
            if !total.contains(t) && next_delta.insert(t) {
                new += 1;
            }
        }
        // `new` counts tuples unseen in `total`; duplicates within
        // `derived` itself were already collapsed by the relation, so
        // recover them from the derivation count.
        stats.record(count, new);
    }
    next_delta
}

/// One semi-naive round under a [`Parallelism`] knob: apply every rule to
/// `delta`, returning the next delta (derived tuples not in `total`).
/// `total` is **not** updated — the caller unions the result in. Rounds
/// below the knob's `min_delta` (or with no pool) run the plain sequential
/// body; results and statistics are identical either way.
fn seminaive_round(
    rules: &[LinearRule],
    db: &Database,
    total: &mut Relation,
    delta: Relation,
    indexes: &mut Indexes,
    par: &Parallelism,
    stats: &mut EvalStats,
) -> Relation {
    let Some(pool) = par.pool().filter(|_| delta.len() >= par.min_delta()) else {
        return sequential_round(rules, db, total, &delta, indexes, stats);
    };
    // Prepare: all cache mutation happens here, on this thread.
    let obs_on = linrec_obs::enabled();
    let prepared = {
        let _sp = linrec_obs::span("round.prepare");
        let t0 = obs_on.then(Instant::now);
        let prepared = prepare_rules(rules, delta.arity(), db, indexes);
        if let Some(t0) = t0 {
            profile::rounds()
                .prepare_ns
                .observe(t0.elapsed().as_nanos() as u64);
        }
        prepared
    };

    // Share the round-frozen state with the workers. Nothing is copied:
    // the relations and the cache are *moved* behind `Arc`s and moved
    // back out once every worker is done.
    let rules_arc: Arc<Vec<LinearRule>> = Arc::new(rules.to_vec());
    let delta_arc = Arc::new(delta);
    let total_arc = Arc::new(std::mem::take(total));
    let idx_arc = Arc::new(std::mem::take(indexes));

    // Probe: one job per non-empty shard; each evaluates every rule body
    // read-only, pre-filtered against the frozen total.
    let ctx = linrec_obs::trace::context();
    let receivers: Vec<_> = ShardView::partition(&delta_arc, partition_col(rules), pool.threads())
        .into_iter()
        .filter(|shard| !shard.is_empty())
        .enumerate()
        .map(|(shard_no, shard)| {
            let rules = Arc::clone(&rules_arc);
            let idx = Arc::clone(&idx_arc);
            let frozen = Arc::clone(&total_arc);
            let flags = prepared.clone();
            pool.submit(move || {
                let _g = ctx.enter();
                let mut sp = linrec_obs::span("round.probe");
                sp.attr("shard", shard_no);
                let t0 = linrec_obs::enabled().then(Instant::now);
                let out = rules
                    .iter()
                    .zip(&flags)
                    .map(|(rule, &ok)| {
                        if ok {
                            apply_linear_rows(rule, shard.iter(), &idx, Some(&frozen))
                        } else {
                            (Relation::new(rule.head().arity()), 0)
                        }
                    })
                    .collect::<Vec<(Relation, u64)>>();
                if let Some(t0) = t0 {
                    profile::rounds()
                        .probe_ns
                        .observe(t0.elapsed().as_nanos() as u64);
                }
                out
            })
        })
        .collect();
    let shard_outs: Vec<Vec<(Relation, u64)>> = receivers
        .into_iter()
        .map(|rx| rx.recv().expect("parallel fixpoint worker panicked"))
        .collect();

    // Every worker has finished and dropped its clones; reclaim the
    // shared state.
    let Ok(idx) = Arc::try_unwrap(idx_arc) else {
        unreachable!("index cache still shared after round")
    };
    *indexes = idx;
    let Ok(tot) = Arc::try_unwrap(total_arc) else {
        unreachable!("total still shared after round")
    };
    *total = tot;
    drop(delta_arc);

    // Merge, rule-major so per-rule attribution matches the sequential
    // loop: a tuple derived by several rules counts as new for the first
    // and as a duplicate for the rest.
    let _sp = linrec_obs::span("round.merge");
    let t0 = obs_on.then(Instant::now);
    let mut next_delta = Relation::new(total.arity());
    for r in 0..rules.len() {
        let mut derivs = 0u64;
        let mut new = 0u64;
        for out in &shard_outs {
            let (rel, d) = &out[r];
            derivs += d;
            for t in rel.iter() {
                if next_delta.insert(t) {
                    new += 1;
                }
            }
        }
        stats.record(derivs, new);
    }
    if let Some(t0) = t0 {
        profile::rounds()
            .merge_ns
            .observe(t0.elapsed().as_nanos() as u64);
    }
    next_delta
}

/// Naive least fixpoint: re-applies every operator to the whole accumulated
/// relation until nothing changes.
pub fn naive_star(rules: &[LinearRule], db: &Database, init: &Relation) -> (Relation, EvalStats) {
    let mut stats = EvalStats::default();
    let mut indexes = Indexes::new();
    let mut total = init.clone();
    loop {
        stats.iterations += 1;
        let mut round = Relation::new(total.arity());
        for rule in rules {
            let (derived, count) = apply_linear(rule, db, &total, &mut indexes);
            let mut new = 0u64;
            for t in derived.iter() {
                if !total.contains(t) && round.insert(t) {
                    new += 1;
                }
            }
            stats.record(count, new);
        }
        if round.is_empty() {
            break;
        }
        total.union_in_place(&round);
    }
    stats.tuples = total.len();
    (total, stats)
}

/// The exact power image `Aᶜᵒᵘⁿᵗ(init)` (not accumulated), with a
/// caller-provided scan/index cache and dense byte budget.
/// `dense_budget_bytes` caps the working set of the dense fast path
/// (three `domain × words` bitset matrices) — pass the active
/// [`crate::planner::CostModel::dense_budget_bytes`] so a deployment
/// that tightened its budget never sees larger transient dense
/// allocations; `0` disables the fast path outright.
pub fn exact_power(
    rule: &LinearRule,
    db: &Database,
    init: &Relation,
    count: usize,
    stats: &mut EvalStats,
    indexes: &mut Indexes,
    dense_budget_bytes: usize,
) -> Relation {
    // Dense fast path: a composition-shaped rule's power image is
    // `init ∘ qᶜ` (or `qᶜ ∘ init`), and `qᶜ` by binary exponentiation
    // needs O(log c) matrix composes instead of c joins. Only worth the
    // two domain remaps for chains long enough that squaring saves work.
    if count >= 4 {
        if let Some(shape) = crate::dense::composition_shape(rule) {
            if let Some(rel) =
                crate::dense::exact_power(&shape, db, init, count, dense_budget_bytes, stats)
            {
                return rel;
            }
        }
    }
    let mut current = init.clone();
    for _ in 0..count {
        let (next, derivs) = apply_linear(rule, db, &current, indexes);
        stats.record(derivs, next.len() as u64);
        current = next;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrec_datalog::parse_linear_rule;

    fn tc_rule() -> LinearRule {
        parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap()
    }

    fn chain_db(n: i64) -> Database {
        let mut db = Database::new();
        db.set_relation("e", (0..n).map(|i| (i, i + 1)).collect::<Relation>());
        db
    }

    #[test]
    fn transitive_closure_of_a_chain() {
        let db = chain_db(4); // 0→1→2→3→4
        let init = db.relation_named("e").unwrap().clone();
        let (result, stats) = seminaive_star(&[tc_rule()], &db, &init);
        // All pairs i<j: C(5,2) = 10.
        assert_eq!(result.len(), 10);
        assert_eq!(stats.tuples, 10);
        // A chain admits exactly one derivation per pair: no duplicates.
        assert_eq!(stats.duplicates, 0);
    }

    #[test]
    fn naive_equals_seminaive() {
        let db = chain_db(6);
        let init = db.relation_named("e").unwrap().clone();
        let (a, sa) = seminaive_star(&[tc_rule()], &db, &init);
        let (b, sb) = naive_star(&[tc_rule()], &db, &init);
        assert_eq!(a.sorted(), b.sorted());
        // Naive re-derives everything each round: strictly more duplicates.
        assert!(sb.duplicates > sa.duplicates);
    }

    #[test]
    fn exact_power_honors_the_dense_budget() {
        let db = chain_db(40);
        let init = db.relation_named("e").unwrap().clone();
        let rule = tc_rule();
        let mut sparse_stats = EvalStats::default();
        let sparse = exact_power(
            &rule,
            &db,
            &init,
            8,
            &mut sparse_stats,
            &mut Indexes::new(),
            0,
        );
        let mut dense_stats = EvalStats::default();
        let dense = exact_power(
            &rule,
            &db,
            &init,
            8,
            &mut dense_stats,
            &mut Indexes::new(),
            crate::dense::DEFAULT_DENSE_BUDGET_BYTES,
        );
        assert_eq!(sparse.sorted(), dense.sorted());
        // One record per sparse join vs O(log c) dense composes: the
        // stats betray which path ran, so a tightened (here: zero)
        // budget demonstrably keeps the power chain off dense matrices.
        assert_eq!(
            sparse_stats.applications, 8,
            "a zero budget must stay on the sparse join path"
        );
        assert!(
            dense_stats.applications < 8,
            "the default budget licenses O(log c) dense composes"
        );
    }

    #[test]
    fn cycle_terminates() {
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(0, 1), (1, 2), (2, 0)]));
        let init = db.relation_named("e").unwrap().clone();
        let (result, _) = seminaive_star(&[tc_rule()], &db, &init);
        assert_eq!(result.len(), 9); // complete digraph on 3 nodes
    }

    #[test]
    fn two_rule_sum() {
        let up = parse_linear_rule("p(x,y) :- p(x,z), up(z,y).").unwrap();
        let down = parse_linear_rule("p(x,y) :- p(w,y), down(x,w).").unwrap();
        let mut db = Database::new();
        db.set_relation("up", Relation::from_pairs([(1, 2)]));
        db.set_relation("down", Relation::from_pairs([(0, 1)]));
        let init = Relation::from_pairs([(1, 1)]);
        let (result, _) = seminaive_star(&[up, down], &db, &init);
        // {(1,1), (1,2), (0,1), (0,2)}.
        assert_eq!(result.len(), 4);
        assert!(result.contains(&[linrec_datalog::Value::Int(0), linrec_datalog::Value::Int(2)]));
    }

    #[test]
    fn round_cap_stops_the_star_early() {
        let db = chain_db(10);
        let init = Relation::from_pairs([(0, 1)]);
        let prefix = |cap| {
            seminaive_star_in(
                &[tc_rule()],
                &db,
                &init,
                Some(cap),
                &mut Indexes::new(),
                &Parallelism::sequential(),
            )
            .0
        };
        // init ∪ A init ∪ A² init = {(0,1),(0,2),(0,3)}.
        assert_eq!(prefix(2).len(), 3);
        assert_eq!(prefix(100).len(), 10);
    }

    #[test]
    fn exact_power_is_an_image() {
        let db = chain_db(10);
        let init = Relation::from_pairs([(0, 1)]);
        let mut stats = EvalStats::default();
        let p3 = exact_power(
            &tc_rule(),
            &db,
            &init,
            3,
            &mut stats,
            &mut Indexes::new(),
            crate::dense::DEFAULT_DENSE_BUDGET_BYTES,
        );
        assert_eq!(p3.sorted(), Relation::from_pairs([(0, 4)]).sorted());
    }

    #[test]
    fn resume_extends_a_materialized_fixpoint() {
        // Materialize TC of the chain 0→…→4, then append the edge (4,5)
        // and resume from a delta seeded with the new-edge consequences:
        // the result must equal the from-scratch fixpoint on the new EDB.
        let rule = tc_rule();
        let db = chain_db(4);
        let init = db.relation_named("e").unwrap().clone();
        let (mut total, _) = seminaive_star(std::slice::from_ref(&rule), &db, &init);

        let mut db2 = db.clone();
        db2.insert_tuple(
            linrec_datalog::Symbol::new("e"),
            Relation::from_pairs([(4, 5)]).row(0),
        );
        // Seed delta: the new edge plus every rule application through it.
        let mut delta_db = db2.clone();
        delta_db.set_relation("e", Relation::from_pairs([(4, 5)]));
        let mut idx = Indexes::new();
        let (through_new, _) = apply_linear(&rule, &delta_db, &total, &mut idx);
        let mut delta = Relation::from_pairs([(4, 5)]);
        for t in through_new.iter() {
            if !total.contains(t) {
                delta.insert(t);
            }
        }
        total.union_in_place(&delta);

        let stats = seminaive_resume(
            std::slice::from_ref(&rule),
            &db2,
            &mut total,
            delta,
            None,
            &mut Indexes::new(),
            &Parallelism::sequential(),
        );
        let init2 = db2.relation_named("e").unwrap().clone();
        let (scratch, _) = seminaive_star(&[rule], &db2, &init2);
        assert_eq!(total.sorted(), scratch.sorted());
        assert_eq!(stats.tuples, total.len());
        // C(6,2) = 15 pairs.
        assert_eq!(total.len(), 15);
    }

    #[test]
    fn resume_round_cap_limits_rounds() {
        let rule = tc_rule();
        let db = chain_db(10);
        let mut total = Relation::from_pairs([(0, 1)]);
        let delta = total.clone();
        let stats = seminaive_resume(
            &[rule],
            &db,
            &mut total,
            delta,
            Some(2),
            &mut Indexes::new(),
            &Parallelism::sequential(),
        );
        assert_eq!(stats.iterations, 2);
        // init ∪ A init ∪ A² init.
        assert_eq!(total.len(), 3);
    }

    #[test]
    fn empty_init_is_empty_star() {
        let db = chain_db(3);
        let init = Relation::new(2);
        let (result, stats) = seminaive_star(&[tc_rule()], &db, &init);
        assert!(result.is_empty());
        assert_eq!(stats.iterations, 0);
    }

    /// A parallel knob that always engages (any delta size, k shards).
    fn eager(k: usize) -> Parallelism {
        Parallelism::new(k).with_min_delta(1)
    }

    /// The uncapped star under `par`, over a fresh cache.
    fn star_under(
        rules: &[LinearRule],
        db: &Database,
        init: &Relation,
        par: &Parallelism,
    ) -> (Relation, EvalStats) {
        seminaive_star_in(rules, db, init, None, &mut Indexes::new(), par)
    }

    #[test]
    fn parallel_star_is_bit_identical_to_sequential() {
        let db = chain_db(40);
        let init = db.relation_named("e").unwrap().clone();
        let (seq, seq_stats) = seminaive_star(&[tc_rule()], &db, &init);
        for k in [1usize, 2, 3, 8] {
            let (par, par_stats) = star_under(&[tc_rule()], &db, &init, &eager(k));
            assert_eq!(par.sorted(), seq.sorted(), "k={k}");
            assert_eq!(par_stats, seq_stats, "k={k}: statistics must match too");
        }
    }

    #[test]
    fn parallel_multi_rule_star_matches_and_attributes_stats_identically() {
        // Two rules that derive overlapping tuples: per-rule new/duplicate
        // attribution in the merge must mirror the sequential rule order.
        let up = parse_linear_rule("p(x,y) :- p(x,z), up(z,y).").unwrap();
        let down = parse_linear_rule("p(x,y) :- p(w,y), down(x,w).").unwrap();
        let mut db = Database::new();
        db.set_relation("up", Relation::from_pairs((0..12).map(|i| (i, i + 1))));
        db.set_relation("down", Relation::from_pairs((0..12).map(|i| (i + 1, i))));
        let init = Relation::from_pairs((0..12).map(|i| (i, i)));
        let rules = vec![up, down];
        let (seq, seq_stats) = seminaive_star(&rules, &db, &init);
        let (par, par_stats) = star_under(&rules, &db, &init, &eager(3));
        assert_eq!(par.sorted(), seq.sorted());
        assert_eq!(par_stats, seq_stats);
    }

    #[test]
    fn parallel_resume_matches_sequential_resume() {
        let rule = tc_rule();
        let db = chain_db(30);
        let init = db.relation_named("e").unwrap().clone();
        let (fix, _) = seminaive_star(std::slice::from_ref(&rule), &db, &init);
        // Extend the chain and seed the resume delta as maintenance would.
        let mut db2 = db.clone();
        for i in 30..34 {
            db2.insert_tuple(
                linrec_datalog::Symbol::new("e"),
                Relation::from_pairs([(i, i + 1)]).row(0),
            );
        }
        let mut delta_db = db2.clone();
        delta_db.set_relation("e", Relation::from_pairs((30..34).map(|i| (i, i + 1))));
        let mut seed = Relation::from_pairs((30..34).map(|i| (i, i + 1)));
        let (through_new, _) = apply_linear(&rule, &delta_db, &fix, &mut Indexes::new());
        for t in through_new.iter() {
            if !fix.contains(t) {
                seed.insert(t);
            }
        }

        let run = |par: Parallelism| {
            let mut total = fix.clone();
            total.union_in_place(&seed);
            let stats = seminaive_resume(
                std::slice::from_ref(&rule),
                &db2,
                &mut total,
                seed.clone(),
                None,
                &mut Indexes::new(),
                &par,
            );
            (total, stats)
        };
        let (seq_total, seq_stats) = run(Parallelism::sequential());
        for k in [2usize, 8] {
            let (par_total, par_stats) = run(eager(k));
            assert_eq!(par_total.sorted(), seq_total.sorted(), "k={k}");
            assert_eq!(par_stats, seq_stats, "k={k}");
        }
        // Sanity: the resume really reaches the from-scratch fixpoint.
        let init2 = db2.relation_named("e").unwrap().clone();
        let (scratch, _) = seminaive_star(&[rule], &db2, &init2);
        assert_eq!(seq_total.sorted(), scratch.sorted());
    }

    #[test]
    fn parallel_resume_respects_the_round_cap() {
        let rule = tc_rule();
        let db = chain_db(10);
        let mut total = Relation::from_pairs([(0, 1)]);
        let delta = total.clone();
        let stats = seminaive_resume(
            &[rule],
            &db,
            &mut total,
            delta,
            Some(2),
            &mut Indexes::new(),
            &eager(4),
        );
        assert_eq!(stats.iterations, 2);
        assert_eq!(total.len(), 3);
    }

    #[test]
    fn sequential_knob_runs_without_a_pool() {
        let db = chain_db(6);
        let init = db.relation_named("e").unwrap().clone();
        let (a, sa) = star_under(&[tc_rule()], &db, &init, &Parallelism::sequential());
        let (b, sb) = seminaive_star(&[tc_rule()], &db, &init);
        assert_eq!(a.sorted(), b.sorted());
        assert_eq!(sa, sb);
    }

    #[test]
    fn high_min_delta_keeps_every_round_sequential_but_exact() {
        let db = chain_db(25);
        let init = db.relation_named("e").unwrap().clone();
        let gated = Parallelism::new(4).with_min_delta(usize::MAX);
        let (a, sa) = star_under(&[tc_rule()], &db, &init, &gated);
        let (b, sb) = seminaive_star(&[tc_rule()], &db, &init);
        assert_eq!(a.sorted(), b.sorted());
        assert_eq!(sa, sb);
    }

    #[test]
    fn parallel_round_with_arity_mismatched_rule_matches_sequential() {
        // `e` stored at arity 2, second rule uses it at arity 3: the
        // prepared flag disables it in parallel rounds exactly as the
        // sequential join treats it as empty.
        let rules = vec![
            tc_rule(),
            parse_linear_rule("p(x,y) :- p(x,z), e(w,u,z).").unwrap(),
        ];
        let db = chain_db(20);
        let init = db.relation_named("e").unwrap().clone();
        let (seq, seq_stats) = seminaive_star(&rules, &db, &init);
        let (par, par_stats) = star_under(&rules, &db, &init, &eager(3));
        assert_eq!(par.sorted(), seq.sorted());
        assert_eq!(par_stats, seq_stats);
    }
}
