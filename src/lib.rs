//! `mlpart` — a from-scratch Rust reproduction of *Multilevel Circuit
//! Partitioning* (Alpert, Huang, Kahng — DAC 1997).
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! * [`hypergraph`] — netlist hypergraphs, partitions, balance, metrics, I/O;
//! * [`gen`] — synthetic benchmark circuits (the Table I suite);
//! * [`fm`] — FM/CLIP iterative engines with LIFO/FIFO/Random buckets;
//! * [`cluster`] — `Match` coarsening, `Induce`, `Project`, rebalancing;
//! * [`core`] — the ML multilevel algorithm (bipartitioning + quadrisection);
//! * [`exec`] — deterministic parallel execution of independent starts,
//!   including supervised retries and resumable batches;
//! * [`checkpoint`] — the `mlpart-checkpoint-v1` on-disk format behind
//!   `mlpart --checkpoint/--resume`;
//! * [`kway`] — Sanchis-style k-way FM without lookahead;
//! * [`lsmc`] — the Large-Step Markov Chain baseline;
//! * [`place`] — the GORDIAN-analogue quadratic placer;
//! * [`obs`] — deterministic structured tracing, metrics, and run-report
//!   exporters behind `MLPART_TRACE=1` (or the CLI's tracing flags);
//! * [`fault`] — deterministic fault injection (panics and budget
//!   exhaustion at named sites) behind `MLPART_FAULTS`.
//!
//! The most common entry points are re-exported at the top level.
//!
//! # Examples
//!
//! Partition a synthetic benchmark with the paper's best configuration
//! (`ML_C`, `R = 0.5`):
//!
//! ```
//! use mlpart::{ml_bipartition, MlConfig};
//! use mlpart::gen::suite;
//! use mlpart::hypergraph::rng::seeded_rng;
//!
//! let circuit = suite::by_name("balu").expect("in suite");
//! let h = circuit.generate(42);
//! let mut rng = seeded_rng(0);
//! let (partition, result) = ml_bipartition(&h, &MlConfig::clip().with_ratio(0.5), &mut rng);
//! assert_eq!(partition.k(), 2);
//! assert!(result.cut > 0);
//! ```

#![warn(missing_docs)]

pub mod checkpoint;

pub use mlpart_cluster as cluster;
pub use mlpart_core as core;
pub use mlpart_exec as exec;
pub use mlpart_fault as fault;
pub use mlpart_fm as fm;
pub use mlpart_gen as gen;
pub use mlpart_hypergraph as hypergraph;
pub use mlpart_kway as kway;
pub use mlpart_lsmc as lsmc;
pub use mlpart_obs as obs;
pub use mlpart_place as place;

pub use mlpart_core::{
    ml_bipartition, ml_bipartition_budgeted_in, ml_kway, ml_kway_budgeted_in, preflight,
    preflight_constrained, try_ml_bipartition_budgeted_in,
    try_ml_bipartition_constrained_budgeted_in, try_ml_kway_budgeted_in,
    try_ml_kway_constrained_budgeted_in, try_recursive_ml_bisection_budgeted_in,
    try_recursive_ml_partition_budgeted_in, try_two_phase_fm_budgeted_in,
    try_two_phase_fm_constrained_budgeted_in, Budget, BudgetLimit, BudgetMeter, LevelStats,
    MlConfig, MlKwayConfig, PipelineError, PreflightError, Truncation,
};
pub use mlpart_exec::{
    run_supervised, Attempt, BatchResult, ExecError, PriorStart, ResumeState, RetryPolicy,
    RetryRecord, RunOutcome, Sink, StartDone, StartFailure, SupervisedBatch, ATTEMPT_STRIDE,
};
pub use mlpart_fm::{
    fm_partition, repair_to_feasible, BucketPolicy, Engine, FmConfig, PassStats, RefineWorkspace,
    RepairRecord,
};
pub use mlpart_hypergraph::{
    adapted_epsilon, BipartBalance, Constraints, ConstraintsError, Hypergraph, HypergraphBuilder,
    KwayBalance, ModuleId, NetId, PartBounds, Partition, DEFAULT_EPSILON,
};
