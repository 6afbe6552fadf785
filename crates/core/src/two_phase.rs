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

use crate::error::{expect_valid, PipelineError};
use crate::hierarchy::fixed_mask;
use mlpart_cluster::{
    induce, match_clusters, match_clusters_parts, project, rebalance_bipart, MatchConfig,
};
use mlpart_fm::{
    fm_partition_budgeted_in, refine_budgeted_in, refine_constrained_budgeted_in, BudgetMeter,
    FmConfig, FmResult, RefineWorkspace, Truncation,
};
use mlpart_hypergraph::rng::MlRng;
use mlpart_hypergraph::{
    metrics, BipartBalance, Constraints, Hypergraph, ModuleId, PartBounds, PartId, Partition,
};
use mlpart_kway::rebalance_to_bounds;

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

/// Runs two-phase FM: one `Match` clustering, FM on the induced netlist,
/// projection, and a final FM refinement.
///
/// `fm` configures both FM runs (engine, buckets, balance); `match_cfg`
/// configures the single clustering pass.
///
/// # Examples
///
/// ```
/// use mlpart_core::two_phase::{two_phase_fm, TwoPhaseResult};
/// use mlpart_cluster::MatchConfig;
/// use mlpart_fm::FmConfig;
/// use mlpart_hypergraph::{HypergraphBuilder, rng::seeded_rng, metrics};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::with_unit_areas(32);
/// for i in 0..31 {
///     b.add_net([i, i + 1])?;
/// }
/// let h = b.build()?;
/// let mut rng = seeded_rng(3);
/// let (p, r) = two_phase_fm(&h, &FmConfig::default(), &MatchConfig::default(), &mut rng);
/// assert_eq!(r.cut, metrics::cut(&h, &p));
/// assert!(r.coarse_modules < 32);
/// # Ok(())
/// # }
/// ```
pub fn two_phase_fm(
    h: &Hypergraph,
    fm: &FmConfig,
    match_cfg: &MatchConfig,
    rng: &mut MlRng,
) -> (Partition, TwoPhaseResult) {
    let mut ws = RefineWorkspace::new();
    two_phase_fm_in(h, fm, match_cfg, rng, &mut ws)
}

/// [`two_phase_fm`] with caller-owned scratch: both FM runs share the
/// workspace's gain/bucket allocations.
pub fn two_phase_fm_in(
    h: &Hypergraph,
    fm: &FmConfig,
    match_cfg: &MatchConfig,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
) -> (Partition, TwoPhaseResult) {
    two_phase_fm_budgeted_in(h, fm, match_cfg, rng, ws, &mut BudgetMeter::unlimited())
}

/// [`two_phase_fm_in`] under a cooperative execution budget. Both FM runs
/// draw on the same meter; once exhausted, the remaining refinement is
/// skipped while projection and rebalancing keep the result valid and
/// feasible. With an unlimited meter this is bit-identical to
/// [`two_phase_fm_in`].
pub fn two_phase_fm_budgeted_in(
    h: &Hypergraph,
    fm: &FmConfig,
    match_cfg: &MatchConfig,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> (Partition, TwoPhaseResult) {
    expect_valid(try_two_phase_fm_budgeted_in(
        h, fm, match_cfg, rng, ws, meter,
    ))
}

/// [`two_phase_fm_budgeted_in`] returning a typed error instead of
/// panicking.
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
    // Phase 1: cluster once and partition the coarse netlist.
    let clustering = match_clusters(h, match_cfg, rng);
    let coarse = induce(h, &clustering)?;
    mlpart_obs::counter(
        "two_phase_coarse",
        &[("coarse_modules", coarse.num_modules().into())],
    );
    meter.set_level_context(Some(1));
    let (coarse_p, coarse_r) = fm_partition_budgeted_in(&coarse, None, fm, rng, ws, meter);

    // Phase 2: project and refine on the original netlist.
    let mut p = project(h, &clustering, &coarse_p)?;
    let balance = BipartBalance::new(h, fm.balance_r);
    let mut rebalance_moves = 0usize;
    if !balance.is_partition_feasible(&p) {
        rebalance_moves = rebalance_bipart(h, &mut p, &balance, rng);
    }
    mlpart_obs::counter(
        "rebalance",
        &[("level", 0u64.into()), ("moves", rebalance_moves.into())],
    );
    meter.set_level_context(Some(0));
    let refine_r = refine_budgeted_in(h, &mut p, fm, rng, ws, meter);

    let result = TwoPhaseResult {
        cut: metrics::cut(h, &p),
        coarse_cut: coarse_r.cut,
        coarse_modules: coarse.num_modules(),
        refine: refine_r,
        truncation: meter.truncation(),
    };
    Ok((p, result))
}

/// [`two_phase_fm`] generalized to [`Constraints`]: fixed modules keep their
/// pinned side through clustering, the coarse partition, projection, and both
/// refinement runs, and balance follows the constraints' ε window instead of
/// `fm.balance_r`.
///
/// Only `k = 2` constraints are accepted — two-phase FM is a bipartitioning
/// baseline. Unconstrained runs are comparable rather than byte-identical to
/// [`two_phase_fm`]: the initial coarse partition is drawn by this driver
/// (so pins can seed it) rather than inside FM, which shifts the RNG
/// schedule.
///
/// # Examples
///
/// ```
/// use mlpart_core::two_phase::two_phase_fm_constrained;
/// use mlpart_cluster::MatchConfig;
/// use mlpart_fm::FmConfig;
/// use mlpart_hypergraph::{Constraints, HypergraphBuilder, ModuleId, rng::seeded_rng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::with_unit_areas(32);
/// for i in 0..31 {
///     b.add_net([i, i + 1])?;
/// }
/// let h = b.build()?;
/// let c = Constraints::new(2, 0.2, vec![(ModuleId::new(0), 1)])?;
/// let mut rng = seeded_rng(3);
/// let (p, _) = two_phase_fm_constrained(&h, &FmConfig::default(), &MatchConfig::default(), &c, &mut rng);
/// assert_eq!(p.part(ModuleId::new(0)), 1);
/// # Ok(())
/// # }
/// ```
///
/// # Panics
///
/// Panics if `constraints.k() != 2` or a fixed module is out of range.
pub fn two_phase_fm_constrained(
    h: &Hypergraph,
    fm: &FmConfig,
    match_cfg: &MatchConfig,
    constraints: &Constraints,
    rng: &mut MlRng,
) -> (Partition, TwoPhaseResult) {
    let mut ws = RefineWorkspace::new();
    two_phase_fm_constrained_in(h, fm, match_cfg, constraints, rng, &mut ws)
}

/// [`two_phase_fm_constrained`] with caller-owned scratch.
pub fn two_phase_fm_constrained_in(
    h: &Hypergraph,
    fm: &FmConfig,
    match_cfg: &MatchConfig,
    constraints: &Constraints,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
) -> (Partition, TwoPhaseResult) {
    two_phase_fm_constrained_budgeted_in(
        h,
        fm,
        match_cfg,
        constraints,
        rng,
        ws,
        &mut BudgetMeter::unlimited(),
    )
}

/// [`two_phase_fm_constrained_in`] under a cooperative execution budget.
pub fn two_phase_fm_constrained_budgeted_in(
    h: &Hypergraph,
    fm: &FmConfig,
    match_cfg: &MatchConfig,
    constraints: &Constraints,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> (Partition, TwoPhaseResult) {
    expect_valid(try_two_phase_fm_constrained_budgeted_in(
        h,
        fm,
        match_cfg,
        constraints,
        rng,
        ws,
        meter,
    ))
}

/// [`two_phase_fm_constrained_budgeted_in`] returning a typed error instead
/// of panicking.
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
    let bounds_for = |net: &Hypergraph| {
        PartBounds::around_targets(&[target0, total - target0], total, net.max_area(), epsilon)
    };

    // Phase 1: cluster once (same-part pins may merge, cross-part pins may
    // not) and partition the induced netlist from a pin-seeded start.
    let clustering = if fixed.is_empty() {
        match_clusters(h, match_cfg, rng)
    } else {
        let mut seed: Vec<Option<PartId>> = vec![None; h.num_modules()];
        for &(v, p) in fixed {
            seed[v.index()] = Some(p);
        }
        match_clusters_parts(h, match_cfg, Some(seed.as_slice()), rng)
    };
    let coarse = induce(h, &clustering)?;
    let mut coarse_fixed: Vec<(ModuleId, PartId)> = fixed
        .iter()
        .map(|&(v, p)| (ModuleId::new(clustering.cluster_of(v) as usize), p))
        .collect();
    coarse_fixed.sort_unstable_by_key(|&(v, _)| v);
    coarse_fixed.dedup_by(|a, b| {
        debug_assert!(a.0 != b.0 || a.1 == b.1, "cross-part pins merged");
        a.0 == b.0
    });
    mlpart_obs::counter(
        "two_phase_coarse",
        &[("coarse_modules", coarse.num_modules().into())],
    );
    let coarse_bounds = bounds_for(&coarse);
    let coarse_mask = fixed_mask(&coarse_fixed, coarse.num_modules());
    meter.set_level_context(Some(1));
    let mut coarse_p = Partition::random_fixed(&coarse, 2, &coarse_fixed, rng);
    if !coarse_bounds.is_partition_feasible(&coarse_p) {
        let _ = rebalance_to_bounds(&coarse, &mut coarse_p, &coarse_fixed, &coarse_bounds, rng);
    }
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
    let bounds = bounds_for(h);
    let mut rebalance_moves = 0usize;
    if !bounds.is_partition_feasible(&p) {
        rebalance_moves = rebalance_to_bounds(h, &mut p, fixed, &bounds, rng);
    }
    mlpart_obs::counter(
        "rebalance",
        &[("level", 0u64.into()), ("moves", rebalance_moves.into())],
    );
    meter.set_level_context(Some(0));
    let mask = fixed_mask(fixed, h.num_modules());
    let refine_r = refine_constrained_budgeted_in(h, &mut p, fm, &bounds, &mask, rng, ws, meter);

    #[cfg(feature = "audit")]
    if mlpart_audit::enabled() {
        mlpart_audit::enforce(mlpart_audit::audit_partition(h, &p));
        mlpart_audit::enforce(mlpart_audit::audit_fixed_assignment(&p, fixed));
        let (lo, hi): (Vec<u64>, Vec<u64>) =
            (0..2u32).map(|q| (bounds.lo(q), bounds.hi(q))).unzip();
        mlpart_audit::enforce(mlpart_audit::audit_part_bounds(&p, &lo, &hi));
    }
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
    use mlpart_hypergraph::HypergraphBuilder;

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
        use mlpart_fm::{Budget, BudgetLimit, BudgetMeter};
        let h = two_communities(50);
        let fm = FmConfig::default();
        let mut rng = seeded_rng(8);
        let mut ws = RefineWorkspace::new();
        let mut meter = BudgetMeter::new(&Budget {
            max_passes: Some(1),
            ..Budget::default()
        });
        let (p, r) = two_phase_fm_budgeted_in(
            &h,
            &fm,
            &MatchConfig::default(),
            &mut rng,
            &mut ws,
            &mut meter,
        );
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
            );
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
        };
        let (p1, r1) = run(9);
        let (p2, r2) = run(9);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    #[should_panic(expected = "two-phase FM requires k = 2")]
    fn constrained_two_phase_rejects_kway_constraints() {
        let h = two_communities(8);
        let c = Constraints::unconstrained(3);
        let mut rng = seeded_rng(0);
        let _ = two_phase_fm_constrained(
            &h,
            &FmConfig::default(),
            &MatchConfig::default(),
            &c,
            &mut rng,
        );
    }
}
