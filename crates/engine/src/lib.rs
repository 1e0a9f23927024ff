//! Evaluation engine for linear recursion: `Analysis → Plan → Execution`.
//!
//! Every processing strategy the paper discusses sits behind one
//! certificate-carrying pipeline ([`planner`]):
//!
//! 1. [`Analysis`] runs the paper's tests over a rule set (and optional
//!    [`Selection`]) and collects typed certificates from `linrec-core` —
//!    commutativity clusters (Theorems 5.1–5.3), separability premises
//!    (Theorems 4.1/6.1), uniform boundedness (Lemma 6.2) and recursive
//!    redundancy (Theorems 6.3/6.4).
//! 2. [`Analysis::plan`] picks a licensed [`Plan`]: `Direct`, `Naive`,
//!    `BoundedPrefix`, `Decomposed`, `Separable`, `RedundancyBounded` or a
//!    `SelectAfter` wrapper. The specialized nodes are *unconstructible*
//!    without their certificate.
//! 3. [`Plan::execute`] evaluates the tree, instrumented with the
//!    duplicate/derivation counters of Section 3.1 ([`EvalStats`]), and
//!    returns an [`ExecOutcome`] with a per-phase [`TraceStep`] record.
//!
//! # Example: decomposing a commuting recursion
//!
//! ```
//! use linrec_engine::{planner::Analysis, rules, workload, Plan};
//!
//! let (db, init) = workload::up_down(5, 42);
//! let rules = vec![rules::up_rule(), rules::down_rule()];
//!
//! // Analysis finds the Theorem 5.2 commutativity certificate…
//! let plan = Analysis::of(&rules, None).plan();
//! assert!(plan.rationale().contains("Theorem 3.1"));
//!
//! // …and the decomposed plan `up* down*` produces the same relation as
//! // the direct baseline with no more duplicates (Theorem 3.1):
//! let decomposed = plan.execute(&db, &init).unwrap();
//! let direct = Plan::direct(rules).execute(&db, &init).unwrap();
//! assert_eq!(decomposed.relation.sorted(), direct.relation.sorted());
//! assert!(decomposed.stats.duplicates <= direct.stats.duplicates);
//! ```

#![warn(missing_docs)]

pub mod decision;
pub mod dense;
pub mod derivation;
pub mod expr_eval;
pub mod join;
pub mod magic;
pub mod parallel;
pub mod planner;
pub mod pool;
pub mod profile;
pub mod program;
pub mod provenance;
pub mod rules;
pub mod selection;
pub mod seminaive;
pub mod stats;
pub mod workload;

pub use decision::{CandidateEstimate, DenseVerdict, ParallelVerdict, PlanDecision};
pub use dense::{closure_by_squaring, composition_shape, CompositionShape, CompositionSide};
pub use derivation::{trace_decomposed, trace_star, DerivationGraph};
pub use expr_eval::eval_expr;
pub use join::{apply_flat, apply_linear, apply_linear_rows, prepare_rules, Indexes};
pub use magic::{eval_selected_star, magic_applicable};
pub use parallel::Parallelism;
pub use planner::{
    Analysis, AnalysisEffort, CostModel, ExecOutcome, Plan, PlanShape, StrategyError, TraceStep,
};
pub use pool::WorkerPool;
pub use program::Program;
pub use provenance::{eval_with_provenance, Provenance, Step};
pub use selection::Selection;
pub use seminaive::{exact_power, naive_star, seminaive_resume, seminaive_star, seminaive_star_in};
pub use stats::EvalStats;
