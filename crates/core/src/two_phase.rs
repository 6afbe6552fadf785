//! The "two-phase" clustering methodology (paper §II-C) — the historical
//! predecessor that ML generalizes.
//!
//! > "First a clustering `Pᵏ` of `H₀` is generated, then this clustering is
//! > used to induce the coarser netlist `H₁` from `H₀`. FM is then run once
//! > on `H₁` to yield the bipartitioning `P₁`, and this solution `P₁` is
//! > projected to a new bipartitioning `P₀` of `H₀`. Finally, FM is run a
//! > second time on `H₀` using `P₀` as its initial solution."
//!
//! Exactly one level of coarsening; ML is "the two-phase approach extended
//! to as many phases as desired". Included as a baseline so the value of
//! *multiple* levels can be isolated experimentally.

use crate::error::PipelineError;
use crate::hierarchy::{fixed_mask, Coarsener};
use crate::vcycle::{self, Mode, Ratio, Windows};
use mlpart_cluster::{induce, project, MatchConfig, MatchScratch};
use mlpart_fm::{
    refine_constrained_budgeted_in, BudgetMeter, FmConfig, FmResult, RefineWorkspace, Truncation,
};
use mlpart_hypergraph::rng::MlRng;
use mlpart_hypergraph::{
    metrics, Constraints, Hypergraph, ModuleId, PartBounds, PartId, Partition,
};

/// Result of a two-phase FM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoPhaseResult {
    /// Final cut on `H₀`.
    pub cut: u64,
    /// Cut of the coarse solution before projection.
    pub coarse_cut: u64,
    /// Number of modules of the induced coarse netlist `H₁`.
    pub coarse_modules: usize,
    /// Statistics of the second (refinement) FM run.
    pub refine: FmResult,
    /// `Some` when a budget limit fired and one (or both) FM runs were cut
    /// short.
    pub truncation: Option<Truncation>,
}

/// Runs two-phase FM with the paper's §III-B balance windows: one `Match`
/// clustering, FM on the induced netlist, projection, and a final FM
/// refinement, under a cooperative execution budget.
///
/// `fm` configures both FM runs (engine, buckets, balance); `match_cfg`
/// configures the single clustering pass. Both FM runs draw on the same
/// meter; once exhausted, the remaining refinement is skipped while
/// projection and rebalancing keep the result valid and feasible.
///
/// # Examples
///
/// ```
/// use mlpart_core::{try_two_phase_fm_budgeted_in, BudgetMeter};
/// use mlpart_cluster::MatchConfig;
/// use mlpart_fm::{FmConfig, RefineWorkspace};
/// use mlpart_hypergraph::{HypergraphBuilder, rng::seeded_rng, metrics};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::with_unit_areas(32);
/// for i in 0..31 {
///     b.add_net([i, i + 1])?;
/// }
/// let h = b.build()?;
/// let (p, r) = try_two_phase_fm_budgeted_in(
///     &h,
///     &FmConfig::default(),
///     &MatchConfig::default(),
///     &mut seeded_rng(3),
///     &mut RefineWorkspace::new(),
///     &mut BudgetMeter::unlimited(),
/// )?;
/// assert_eq!(r.cut, metrics::cut(&h, &p));
/// assert!(r.coarse_modules < 32);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// [`PipelineError::Coarsen`] when inducing the coarse netlist or
/// projecting the coarse partition back fails.
pub fn try_two_phase_fm_budgeted_in(
    h: &Hypergraph,
    fm: &FmConfig,
    match_cfg: &MatchConfig,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> Result<(Partition, TwoPhaseResult), PipelineError> {
    let _obs_run = mlpart_obs::span("two_phase", &[("modules", h.num_modules().into())]);
    let mode = Ratio {
        k: 2,
        r: fm.balance_r,
    };
    two_phase(h, fm, match_cfg, &mode, &[], rng, ws, meter)
}

/// [`try_two_phase_fm_budgeted_in`] generalized to [`Constraints`]: fixed
/// modules keep their pinned side through clustering (same-part pins may
/// merge, cross-part pins may not), the coarse partition, projection, and
/// both refinement runs, and balance follows the constraints' ε window
/// instead of `fm.balance_r`.
///
/// Only `k = 2` constraints are accepted — two-phase FM is a bipartitioning
/// baseline. Unconstrained runs are comparable rather than byte-identical to
/// [`try_two_phase_fm_budgeted_in`]: the initial coarse partition is seeded
/// from the pins, which shifts the RNG schedule.
///
/// # Examples
///
/// ```
/// use mlpart_core::{try_two_phase_fm_constrained_budgeted_in, BudgetMeter};
/// use mlpart_cluster::MatchConfig;
/// use mlpart_fm::{FmConfig, RefineWorkspace};
/// use mlpart_hypergraph::{Constraints, HypergraphBuilder, ModuleId, rng::seeded_rng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::with_unit_areas(32);
/// for i in 0..31 {
///     b.add_net([i, i + 1])?;
/// }
/// let h = b.build()?;
/// let c = Constraints::new(2, 0.2, vec![(ModuleId::new(0), 1)])?;
/// let (p, _) = try_two_phase_fm_constrained_budgeted_in(
///     &h,
///     &FmConfig::default(),
///     &MatchConfig::default(),
///     &c,
///     &mut seeded_rng(3),
///     &mut RefineWorkspace::new(),
///     &mut BudgetMeter::unlimited(),
/// )?;
/// assert_eq!(p.part(ModuleId::new(0)), 1);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// [`PipelineError::KMismatch`] when `constraints.k() != 2`,
/// [`PipelineError::Constraints`] when a fixed module is out of range, and
/// [`PipelineError::Coarsen`] for induction/projection failures.
pub fn try_two_phase_fm_constrained_budgeted_in(
    h: &Hypergraph,
    fm: &FmConfig,
    match_cfg: &MatchConfig,
    constraints: &Constraints,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> Result<(Partition, TwoPhaseResult), PipelineError> {
    if constraints.k() != 2 {
        return Err(PipelineError::KMismatch {
            context: "two-phase FM requires k = 2",
            expected: 2,
            got: constraints.k(),
        });
    }
    constraints.check_modules(h.num_modules())?;
    let fixed = constraints.fixed();
    let total = h.total_area();
    let target0 = total / 2;
    let epsilon = constraints.epsilon();
    let _obs_run = mlpart_obs::span(
        "two_phase_constrained",
        &[
            ("modules", h.num_modules().into()),
            ("fixed", fixed.len().into()),
        ],
    );
    let mode = Windows {
        k: 2,
        bounds: |net: &Hypergraph| {
            PartBounds::around_targets(&[target0, total - target0], total, net.max_area(), epsilon)
        },
    };
    two_phase(h, fm, match_cfg, &mode, fixed, rng, ws, meter)
}

/// The single-level flow under `mode`: cluster once, partition the induced
/// netlist, project, rebalance and refine on `h`.
#[allow(clippy::too_many_arguments)]
fn two_phase<M: Mode>(
    h: &Hypergraph,
    fm: &FmConfig,
    match_cfg: &MatchConfig,
    mode: &M,
    fixed: &[(ModuleId, PartId)],
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> Result<(Partition, TwoPhaseResult), PipelineError> {
    // Phase 1: cluster once and partition the coarse netlist.
    let pins = mode.pins();
    let clustering = pins.cluster(
        h,
        match_cfg,
        Coarsener::PaperMatch,
        fixed,
        rng,
        &mut MatchScratch::new(),
    );
    let coarse = induce(h, &clustering)?;
    let coarse_fixed = pins.carry(fixed, &clustering);
    mlpart_obs::counter(
        "two_phase_coarse",
        &[("coarse_modules", coarse.num_modules().into())],
    );
    let coarse_bounds = mode.bounds(&coarse);
    meter.set_level_context(Some(1));
    let mut coarse_p = vcycle::start(mode, &coarse, &coarse_fixed, &coarse_bounds, rng);
    let coarse_mask = fixed_mask(&coarse_fixed, coarse.num_modules());
    let coarse_r = refine_constrained_budgeted_in(
        &coarse,
        &mut coarse_p,
        fm,
        &coarse_bounds,
        &coarse_mask,
        rng,
        ws,
        meter,
    );

    // Phase 2: project and refine on the original netlist.
    let mut p = project(h, &clustering, &coarse_p)?;
    let bounds = mode.bounds(h);
    let mut rebalance_moves = 0usize;
    if !bounds.is_partition_feasible(&p) {
        rebalance_moves = mode.rebalance(h, &mut p, fixed, &bounds, rng);
    }
    mlpart_obs::counter(
        "rebalance",
        &[("level", 0u64.into()), ("moves", rebalance_moves.into())],
    );
    meter.set_level_context(Some(0));
    let mask = fixed_mask(fixed, h.num_modules());
    let refine_r = refine_constrained_budgeted_in(h, &mut p, fm, &bounds, &mask, rng, ws, meter);
    vcycle::audit_result(h, &p, fixed, Some(&bounds));
    let result = TwoPhaseResult {
        cut: metrics::cut(h, &p),
        coarse_cut: coarse_r.cut,
        coarse_modules: coarse.num_modules(),
        refine: refine_r,
        truncation: meter.truncation(),
    };
    Ok((p, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_fm::fm_partition;
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::{BipartBalance, HypergraphBuilder};

    fn two_phase_fm(
        h: &Hypergraph,
        fm: &FmConfig,
        match_cfg: &MatchConfig,
        rng: &mut MlRng,
    ) -> (Partition, TwoPhaseResult) {
        let mut ws = RefineWorkspace::new();
        try_two_phase_fm_budgeted_in(
            h,
            fm,
            match_cfg,
            rng,
            &mut ws,
            &mut BudgetMeter::unlimited(),
        )
        .expect("valid netlist")
    }

    fn two_phase_fm_constrained(
        h: &Hypergraph,
        fm: &FmConfig,
        match_cfg: &MatchConfig,
        c: &Constraints,
        rng: &mut MlRng,
    ) -> Result<(Partition, TwoPhaseResult), PipelineError> {
        let mut ws = RefineWorkspace::new();
        let mut meter = BudgetMeter::unlimited();
        try_two_phase_fm_constrained_budgeted_in(h, fm, match_cfg, c, rng, &mut ws, &mut meter)
    }

    fn two_communities(half: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(2 * half);
        for base in [0, half] {
            for i in 0..half {
                b.add_net([base + i, base + (i + 1) % half]).unwrap();
                b.add_net([base + i, base + (i + 3) % half]).unwrap();
            }
        }
        b.add_net([half - 1, half]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn produces_feasible_consistent_result() {
        let h = two_communities(50);
        let fm = FmConfig::default();
        let bal = BipartBalance::new(&h, fm.balance_r);
        let mut rng = seeded_rng(2);
        let (p, r) = two_phase_fm(&h, &fm, &MatchConfig::default(), &mut rng);
        assert!(p.validate(&h));
        assert!(bal.is_partition_feasible(&p));
        assert_eq!(r.cut, metrics::cut(&h, &p));
        assert!(r.coarse_modules < h.num_modules());
    }

    #[test]
    fn beats_or_matches_flat_fm_on_average() {
        let h = two_communities(80);
        let fm = FmConfig::default();
        let runs = 6;
        let flat: f64 = (0..runs)
            .map(|s| {
                let mut rng = seeded_rng(10 + s);
                fm_partition(&h, None, &fm, &mut rng).1.cut as f64
            })
            .sum::<f64>()
            / runs as f64;
        let two_phase: f64 = (0..runs)
            .map(|s| {
                let mut rng = seeded_rng(20 + s);
                two_phase_fm(&h, &fm, &MatchConfig::default(), &mut rng)
                    .1
                    .cut as f64
            })
            .sum::<f64>()
            / runs as f64;
        assert!(
            two_phase <= flat * 1.05,
            "two-phase {two_phase:.1} vs flat {flat:.1}"
        );
    }

    #[test]
    fn multilevel_beats_or_matches_two_phase_on_average() {
        // The paper's motivation for ML: one level of clustering is not
        // enough on clustered instances.
        // Both methods near-solve this easy instance, so compare best-of
        // (averages differ only by noise at this scale; the average gap is
        // what the Table IV harness measures on the full suite).
        let h = two_communities(100);
        let fm = FmConfig::default();
        let runs = 6;
        let two_phase = (0..runs)
            .map(|s| {
                let mut rng = seeded_rng(30 + s);
                two_phase_fm(&h, &fm, &MatchConfig::default(), &mut rng)
                    .1
                    .cut
            })
            .min()
            .expect("runs");
        let ml = (0..runs)
            .map(|s| {
                let mut rng = seeded_rng(40 + s);
                crate::ml_bipartition(&h, &crate::MlConfig::default(), &mut rng)
                    .1
                    .cut
            })
            .min()
            .expect("runs");
        assert!(ml <= two_phase, "ML {ml} vs two-phase {two_phase}");
    }

    #[test]
    fn budgeted_two_phase_truncates_and_stays_feasible() {
        use mlpart_fm::{Budget, BudgetLimit};
        let h = two_communities(50);
        let fm = FmConfig::default();
        let mut rng = seeded_rng(8);
        let mut ws = RefineWorkspace::new();
        let mut meter = BudgetMeter::new(&Budget {
            max_passes: Some(1),
            ..Budget::default()
        });
        let (p, r) = try_two_phase_fm_budgeted_in(
            &h,
            &fm,
            &MatchConfig::default(),
            &mut rng,
            &mut ws,
            &mut meter,
        )
        .unwrap();
        assert_eq!(
            r.truncation.expect("must truncate").limit,
            BudgetLimit::Passes
        );
        assert_eq!(r.refine.passes, 0, "the budget went to the coarse run");
        assert!(p.validate(&h));
        let bal = BipartBalance::new(&h, fm.balance_r);
        assert!(bal.is_partition_feasible(&p));
        assert_eq!(r.cut, metrics::cut(&h, &p));
    }

    #[test]
    fn deterministic_given_seed() {
        let h = two_communities(30);
        let run = |seed| {
            let mut rng = seeded_rng(seed);
            two_phase_fm(&h, &FmConfig::default(), &MatchConfig::default(), &mut rng)
        };
        let (p1, r1) = run(5);
        let (p2, r2) = run(5);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    fn constrained_two_phase_honors_pins_across_seeds() {
        let h = two_communities(50);
        let c =
            Constraints::new(2, 0.2, vec![(ModuleId::new(0), 1), (ModuleId::new(60), 0)]).unwrap();
        let bounds = PartBounds::from_epsilon(&h, 2, 0.2);
        for seed in 0..5 {
            let mut rng = seeded_rng(seed);
            let (p, r) = two_phase_fm_constrained(
                &h,
                &FmConfig::default(),
                &MatchConfig::default(),
                &c,
                &mut rng,
            )
            .unwrap();
            assert!(p.validate(&h));
            for &(v, part) in c.fixed() {
                assert_eq!(p.part(v), part, "seed {seed}");
            }
            assert!(bounds.is_partition_feasible(&p), "{:?}", p.part_areas());
            assert_eq!(r.cut, metrics::cut(&h, &p));
            assert!(r.coarse_modules < h.num_modules());
        }
    }

    #[test]
    fn constrained_two_phase_is_deterministic_given_seed() {
        let h = two_communities(30);
        let c = Constraints::new(2, 0.1, vec![(ModuleId::new(4), 1)]).unwrap();
        let run = |seed| {
            let mut rng = seeded_rng(seed);
            two_phase_fm_constrained(
                &h,
                &FmConfig::default(),
                &MatchConfig::default(),
                &c,
                &mut rng,
            )
            .unwrap()
        };
        let (p1, r1) = run(9);
        let (p2, r2) = run(9);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    fn constrained_two_phase_rejects_kway_constraints() {
        let h = two_communities(8);
        let c = Constraints::unconstrained(3);
        let err = two_phase_fm_constrained(
            &h,
            &FmConfig::default(),
            &MatchConfig::default(),
            &c,
            &mut seeded_rng(0),
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "two-phase FM requires k = 2 (expected 2, got 3)"
        );
    }
}
