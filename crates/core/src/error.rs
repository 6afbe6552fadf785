//! Typed errors for the multilevel pipeline drivers.
//!
//! Every `try_*` driver returns [`PipelineError`] instead of panicking, so
//! harnesses feeding parsed benchmarks can report bad inputs as values. The
//! four panicking forms ([`ml_bipartition`](crate::ml_bipartition),
//! [`ml_bipartition_budgeted_in`](crate::ml_bipartition_budgeted_in),
//! [`ml_kway`](crate::ml_kway) and
//! [`ml_kway_budgeted_in`](crate::ml_kway_budgeted_in)) unwrap their `try_*`
//! root through one private funnel — the single deliberate panic site of
//! this crate, kept on the analyzer's ratchet.

use std::error::Error as StdError;
use std::fmt;

use mlpart_cluster::CoarsenError;
use mlpart_hypergraph::{BuildHypergraphError, ConstraintsError};

/// Why a pipeline driver rejected its inputs (or an internal stage failed).
///
/// Display strings deliberately contain the historical panic phrases (e.g.
/// "two-phase FM requires k = 2"), so a panicking form's message names the
/// broken rule the way the old assertions did.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PipelineError {
    /// The fixed-module constraint set does not fit the hypergraph.
    Constraints(ConstraintsError),
    /// Coarsening, coalescing, or projection failed (see [`CoarsenError`]).
    Coarsen(CoarsenError),
    /// A derived sub-netlist (e.g. a recursive-bisection region extract)
    /// failed hypergraph validation.
    Netlist(BuildHypergraphError),
    /// A multi-start driver was asked for zero runs.
    NoStarts,
    /// Two part counts that must agree do not; `context` names the rule.
    KMismatch {
        /// The invariant text, e.g. `"bipartition requires k = 2"`.
        context: &'static str,
        /// The part count the rule demands.
        expected: u32,
        /// The part count actually supplied.
        got: u32,
    },
    /// A part-0 area target exceeds the total module area.
    TargetExceedsTotal {
        /// Requested area for part 0.
        target0: u64,
        /// Total area of all modules.
        total: u64,
    },
    /// A fixed module index is `>= num_modules`.
    FixedModuleOutOfRange {
        /// Offending module index.
        module: usize,
        /// Modules in the netlist.
        num_modules: usize,
    },
    /// A fixed part id is `>= k`.
    FixedPartOutOfRange {
        /// Offending part id.
        part: u32,
        /// The part count.
        k: u32,
    },
    /// Recursive bisection depth outside `1..=16`.
    BadDepth {
        /// The rejected depth.
        depth: u32,
    },
    /// An internally produced region assignment used part ids `>= k`.
    InvalidRegionIds {
        /// The part count the assignment was checked against.
        k: u32,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Constraints(e) => write!(f, "invalid constraints: {e}"),
            PipelineError::Coarsen(e) => write!(f, "coarsening failed: {e}"),
            PipelineError::Netlist(e) => write!(f, "derived netlist is invalid: {e}"),
            PipelineError::NoStarts => {
                write!(f, "multi-start search needs at least one start (runs > 0)")
            }
            PipelineError::KMismatch {
                context,
                expected,
                got,
            } => write!(f, "{context} (expected {expected}, got {got})"),
            PipelineError::TargetExceedsTotal { target0, total } => write!(
                f,
                "part-0 area target {target0} exceeds the total module area {total}"
            ),
            PipelineError::FixedModuleOutOfRange {
                module,
                num_modules,
            } => write!(
                f,
                "fixed module {module} out of range (netlist has {num_modules} modules)"
            ),
            PipelineError::FixedPartOutOfRange { part, k } => {
                write!(f, "fixed part id {part} out of range (k = {k})")
            }
            PipelineError::BadDepth { depth } => {
                write!(f, "depth must be at least 1 and at most 16, got {depth}")
            }
            PipelineError::InvalidRegionIds { k } => {
                write!(f, "recursive split must keep region ids below k = {k}")
            }
        }
    }
}

impl StdError for PipelineError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            PipelineError::Constraints(e) => Some(e),
            PipelineError::Coarsen(e) => Some(e),
            PipelineError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConstraintsError> for PipelineError {
    fn from(e: ConstraintsError) -> Self {
        PipelineError::Constraints(e)
    }
}

impl From<CoarsenError> for PipelineError {
    fn from(e: CoarsenError) -> Self {
        PipelineError::Coarsen(e)
    }
}

impl From<BuildHypergraphError> for PipelineError {
    fn from(e: BuildHypergraphError) -> Self {
        PipelineError::Netlist(e)
    }
}

/// Unwraps a pipeline result for the panicking entry points.
///
/// This is the one sanctioned panic site of `mlpart-core`: every input
/// precondition produces a [`PipelineError`] (or a [`CoarsenError`]) in the
/// `try_*` drivers, and the panicking forms funnel through here so the panic
/// message carries the typed error's Display text.
#[track_caller]
pub(crate) fn expect_valid<T, E: fmt::Display>(r: Result<T, E>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("invalid pipeline input: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_legacy_phrases() {
        let e = PipelineError::KMismatch {
            context: "bipartition requires k = 2",
            expected: 2,
            got: 3,
        };
        assert!(e.to_string().contains("bipartition requires k = 2"));
        assert!(PipelineError::NoStarts
            .to_string()
            .contains("at least one start"));
        assert!(PipelineError::BadDepth { depth: 0 }
            .to_string()
            .contains("depth must be at least 1"));
    }

    #[test]
    fn sources_chain_to_inner_errors() {
        let e = PipelineError::from(ConstraintsError::ZeroParts);
        assert!(StdError::source(&e).is_some());
        assert!(e.to_string().contains("k must be at least 1"));
        let e = PipelineError::from(CoarsenError::ClusteringMismatch {
            map_len: 3,
            num_modules: 4,
        });
        assert!(StdError::source(&e).is_some());
        let e = PipelineError::from(BuildHypergraphError::AreaOverflow);
        assert!(StdError::source(&e).is_some());
        assert_eq!(PipelineError::NoStarts, PipelineError::NoStarts);
    }

    #[test]
    #[should_panic(expected = "invalid pipeline input")]
    fn expect_valid_panics_with_display() {
        let r: Result<(), PipelineError> = Err(PipelineError::NoStarts);
        expect_valid(r);
    }

    #[test]
    fn expect_valid_passes_ok_through() {
        assert_eq!(expect_valid(Ok::<_, PipelineError>(7)), 7);
    }
}
