//! The ML multilevel circuit partitioning algorithm — the primary
//! contribution of *Multilevel Circuit Partitioning* (Alpert, Huang, Kahng —
//! DAC 1997).
//!
//! ML recursively coarsens a netlist hypergraph with connectivity-based
//! matching (controlled by the matching ratio `R`), partitions the coarsest
//! netlist, then uncoarsens while refining with FM or CLIP. See
//! [`ml_bipartition`] (Fig. 2 of the paper) and [`ml_kway`] (§III-C).
//!
//! Every driver is one body parameterized by its refiner (2-way FM/CLIP or
//! Sanchis k-way) and its schedule: the paper's ratio windows, or the
//! constraint-aware ε windows with fixed modules. Each pipeline has one
//! fallible root, `try_*_budgeted_in`, taking caller-owned scratch and a
//! budget meter.
//!
//! # Examples
//!
//! The `ML_C` variant with slow coarsening (the paper's best configuration,
//! Table VII):
//!
//! ```
//! use mlpart_core::{ml_bipartition, MlConfig};
//! use mlpart_hypergraph::{HypergraphBuilder, rng::seeded_rng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = HypergraphBuilder::with_unit_areas(128);
//! for base in [0usize, 64] {
//!     for i in 0..64 {
//!         b.add_net([base + i, base + (i + 1) % 64])?;
//!         b.add_net([base + i, base + (i + 3) % 64])?;
//!     }
//! }
//! b.add_net([63, 64])?;
//! let h = b.build()?;
//!
//! let cfg = MlConfig::clip().with_ratio(0.5);
//! let mut rng = seeded_rng(0);
//! let (partition, result) = ml_bipartition(&h, &cfg, &mut rng);
//! assert!(result.levels >= 2);
//! assert_eq!(partition.k(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod hierarchy;
pub mod ml;
pub mod preflight;
pub mod quadrisection;
pub mod recursive;
pub mod two_phase;
mod vcycle;

pub use error::PipelineError;
pub use hierarchy::{Coarsener, Hierarchy};
pub use ml::{
    ml_bipartition, ml_bipartition_budgeted_in, try_ml_bipartition_budgeted_in,
    try_ml_bipartition_constrained_budgeted_in, LevelStats, MlConfig, MlResult,
};
pub use preflight::{preflight, preflight_constrained, PreflightError};
pub use quadrisection::{
    ml_kway, ml_kway_budgeted_in, try_ml_kway_budgeted_in, try_ml_kway_constrained_budgeted_in,
    MlKwayConfig, MlKwayResult,
};
pub use recursive::{
    try_recursive_ml_bisection_budgeted_in, try_recursive_ml_partition_budgeted_in, RecursiveResult,
};
pub use two_phase::{
    try_two_phase_fm_budgeted_in, try_two_phase_fm_constrained_budgeted_in, TwoPhaseResult,
};

// Re-export the budget vocabulary so pipeline callers need not depend on
// `mlpart-fm` directly.
pub use mlpart_fm::{Budget, BudgetLimit, BudgetMeter, Truncation};

// Re-export the constraint vocabulary so constraint-aware callers (the CLI,
// benches, embedders) need not depend on `mlpart-hypergraph` directly.
pub use mlpart_hypergraph::{
    adapted_epsilon, Constraints, ConstraintsError, PartBounds, DEFAULT_EPSILON,
};
