//! Multilevel k-way partitioning (§III-C): the ML paradigm with a
//! Sanchis-style k-way engine as the refiner.
//!
//! The paper extends ML to quadrisection (k = 4) for use inside a top-down
//! placement tool: I/O pads can be pre-assigned to parts, coarsening keeps
//! pre-assigned modules as singletons, and the Table IX results use
//! `ML_F`-style refinement with `R = 1.0` and `T = 100` under the
//! sum-of-degrees gain.

use crate::error::{expect_valid, PipelineError};
use crate::hierarchy::Hierarchy;
use crate::ml::{LevelStats, MlConfig};
use mlpart_cluster::{project, rebalance_kway_frozen};
use mlpart_fm::{BudgetMeter, RefineWorkspace, Truncation};
use mlpart_hypergraph::rng::{child_seed, seeded_rng, MlRng};
use mlpart_hypergraph::{
    metrics, Constraints, ConstraintsError, Hypergraph, KwayBalance, ModuleId, PartBounds, PartId,
    Partition,
};
use mlpart_kway::{
    kway_partition_budgeted_in, kway_refine_budgeted_in, kway_refine_constrained_budgeted_in,
    rebalance_to_bounds, KwayConfig,
};

/// Configuration for multilevel k-way partitioning.
///
/// Combines the multilevel knobs (`T`, `R`, hierarchy caps — reusing
/// [`MlConfig`] fields) with the k-way engine settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlKwayConfig {
    /// Number of parts `k` (4 for quadrisection).
    pub k: u32,
    /// Coarsening threshold `T`; the paper's quadrisection uses 100.
    pub coarsen_threshold: usize,
    /// Matching ratio `R`; the paper's quadrisection uses 1.0.
    pub matching_ratio: f64,
    /// K-way refinement engine settings (gain computation, balance, limits).
    pub kway: KwayConfig,
    /// Safety cap on hierarchy depth.
    pub max_levels: usize,
}

impl Default for MlKwayConfig {
    fn default() -> Self {
        MlKwayConfig {
            k: 4,
            coarsen_threshold: 100,
            matching_ratio: 1.0,
            kway: KwayConfig::default(),
            max_levels: 256,
        }
    }
}

/// Statistics from one multilevel k-way run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlKwayResult {
    /// Final net cut over all nets.
    pub cut: u64,
    /// Final `Σ_e (span(e) − 1)`.
    pub sum_of_degrees: u64,
    /// Number of coarsening levels.
    pub levels: usize,
    /// Module counts per level, `H₀` first.
    pub level_sizes: Vec<usize>,
    /// Total k-way passes across levels.
    pub total_passes: usize,
    /// Modules moved by rebalancing during uncoarsening.
    pub rebalance_moves: usize,
    /// Per-level instrumentation in execution order (coarsest first); the
    /// `cut_*` fields carry the k-way engine objective (sum-of-degrees or
    /// net cut, per the configured gain).
    pub level_stats: Vec<LevelStats>,
    /// `Some` when a budget limit fired and the run returned its best
    /// partition so far instead of running to convergence.
    pub truncation: Option<Truncation>,
}

/// Runs the multilevel k-way (quadrisection for `k = 4`) algorithm.
///
/// `fixed` pre-assigns modules (e.g. I/O pads) to parts; they are kept as
/// singleton clusters during coarsening and never moved by refinement.
///
/// # Panics
///
/// Panics if `cfg.k == 0` or a fixed assignment is out of range.
///
/// # Examples
///
/// ```
/// use mlpart_core::{ml_kway, MlKwayConfig};
/// use mlpart_hypergraph::{HypergraphBuilder, rng::seeded_rng, metrics};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Four communities of 32 modules in a ring.
/// let mut b = HypergraphBuilder::with_unit_areas(128);
/// for c in 0..4usize {
///     let base = 32 * c;
///     for i in 0..32 {
///         b.add_net([base + i, base + (i + 1) % 32])?;
///         b.add_net([base + i, base + (i + 5) % 32])?;
///     }
///     b.add_net([base + 31, (base + 32) % 128])?;
/// }
/// let h = b.build()?;
/// let mut rng = seeded_rng(3);
/// let (p, r) = ml_kway(&h, &MlKwayConfig::default(), &[], &mut rng);
/// assert_eq!(r.cut, metrics::cut(&h, &p));
/// assert!(r.cut <= 8);
/// # Ok(())
/// # }
/// ```
pub fn ml_kway(
    h: &Hypergraph,
    cfg: &MlKwayConfig,
    fixed: &[(ModuleId, PartId)],
    rng: &mut MlRng,
) -> (Partition, MlKwayResult) {
    let mut ws = RefineWorkspace::new();
    ml_kway_in(h, cfg, fixed, rng, &mut ws)
}

/// [`ml_kway`] with caller-owned scratch: every level refines through the
/// same [`RefineWorkspace`] (bound in its k-way shape), so the per-level
/// gain/bucket allocations are reused. Results are bit-identical to
/// [`ml_kway`].
pub fn ml_kway_in(
    h: &Hypergraph,
    cfg: &MlKwayConfig,
    fixed: &[(ModuleId, PartId)],
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
) -> (Partition, MlKwayResult) {
    ml_kway_budgeted_in(h, cfg, fixed, rng, ws, &mut BudgetMeter::unlimited())
}

/// [`ml_kway_in`] under a cooperative execution budget; the k-way twin of
/// [`ml_bipartition_budgeted_in`](crate::ml_bipartition_budgeted_in). Once a
/// limit fires refinement stops, but projection and rebalancing still run at
/// every level, so the returned partition is always valid and feasible. With
/// an unlimited meter this is bit-identical to [`ml_kway_in`].
pub fn ml_kway_budgeted_in(
    h: &Hypergraph,
    cfg: &MlKwayConfig,
    fixed: &[(ModuleId, PartId)],
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> (Partition, MlKwayResult) {
    expect_valid(try_ml_kway_budgeted_in(h, cfg, fixed, rng, ws, meter))
}

/// [`ml_kway_budgeted_in`] returning a typed error instead of panicking —
/// the non-panicking root of the k-way entry points.
///
/// # Errors
///
/// [`PipelineError::Constraints`] when `cfg.k == 0`;
/// [`PipelineError::Coarsen`] when building or projecting through the
/// hierarchy fails.
pub fn try_ml_kway_budgeted_in(
    h: &Hypergraph,
    cfg: &MlKwayConfig,
    fixed: &[(ModuleId, PartId)],
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> Result<(Partition, MlKwayResult), PipelineError> {
    if cfg.k == 0 {
        return Err(PipelineError::Constraints(ConstraintsError::ZeroParts));
    }
    // Reuse the bipartition hierarchy builder: only T / R / max_levels apply.
    let ml_cfg = MlConfig {
        coarsen_threshold: cfg.coarsen_threshold,
        matching_ratio: cfg.matching_ratio,
        max_levels: cfg.max_levels,
        ..MlConfig::default()
    };
    let _obs_run = mlpart_obs::span(
        "ml_kway",
        &[
            ("k", u64::from(cfg.k).into()),
            ("modules", h.num_modules().into()),
        ],
    );
    let hierarchy = Hierarchy::try_coarsen(h, &ml_cfg, fixed, rng)?;
    let m = hierarchy.num_levels();

    // Initial k-way partitioning of the coarsest netlist.
    let coarsest = hierarchy.coarsest(h);
    let obs_initial = mlpart_obs::span(
        "initial",
        &[
            ("tries", 1u64.into()),
            ("level", m.into()),
            ("modules", coarsest.num_modules().into()),
        ],
    );
    let obs_try = mlpart_obs::span("try", &[("try", 0u64.into())]);
    meter.set_level_context(Some(m as u32));
    let (mut p, r0) = kway_partition_budgeted_in(
        coarsest,
        cfg.k,
        None,
        hierarchy.fixed_at(m),
        &cfg.kway,
        rng,
        ws,
        meter,
    );
    drop(obs_try);
    mlpart_obs::counter(
        "initial_winner",
        &[("try", 0u64.into()), ("cut", r0.cut.into())],
    );
    drop(obs_initial);
    let mut total_passes = r0.passes;
    let mut level_stats = Vec::with_capacity(m + 1);
    level_stats.push(LevelStats::from_passes(
        m,
        coarsest.num_modules(),
        &r0.pass_stats,
        0,
    ));

    // Uncoarsening with projection, rebalancing, and k-way refinement.
    let mut rebalance_moves = 0usize;
    for i in (0..m).rev() {
        let fine: &Hypergraph = if i == 0 { h } else { hierarchy.level(i) };
        let _obs_level = mlpart_obs::span(
            "level",
            &[("level", i.into()), ("modules", fine.num_modules().into())],
        );
        let mut fine_p = project(fine, hierarchy.clustering(i), &p)?;
        // Definition 2 audit (k-way form), before rebalancing perturbs
        // `fine_p`: pullback through the cluster map and bit-exact cut.
        #[cfg(feature = "audit")]
        if mlpart_audit::enabled() {
            mlpart_audit::enforce(
                mlpart_audit::audit_projection(
                    fine,
                    &fine_p,
                    hierarchy.level(i + 1),
                    &p,
                    hierarchy.clustering(i).as_map(),
                )
                .map_err(|e| e.with_level(i)),
            );
        }
        let balance = KwayBalance::new(fine, cfg.k, cfg.kway.balance_r);
        let mut level_rebalance = 0usize;
        if !balance.is_partition_feasible(&fine_p) {
            let level_fixed = hierarchy.fixed_at(i);
            let mask: Option<Vec<bool>> = if level_fixed.is_empty() {
                None
            } else {
                let mut m = vec![false; fine.num_modules()];
                for &(v, _) in level_fixed {
                    m[v.index()] = true;
                }
                Some(m)
            };
            level_rebalance =
                rebalance_kway_frozen(fine, &mut fine_p, &balance, mask.as_deref(), rng);
            rebalance_moves += level_rebalance;
        }
        mlpart_obs::counter(
            "rebalance",
            &[("level", i.into()), ("moves", level_rebalance.into())],
        );
        // Cooperative budget checkpoint; see `ml_bipartition_budgeted_in`.
        // An exhausted meter skips the refinement below (zero passes) while
        // projection and rebalancing keep the partition valid and feasible.
        meter.set_level_context(Some(i as u32));
        let _ = meter.level_checkpoint(i as u32);
        let r = kway_refine_budgeted_in(
            fine,
            &mut fine_p,
            hierarchy.fixed_at(i),
            &cfg.kway,
            rng,
            ws,
            meter,
        );
        meter.note_level();
        total_passes += r.passes;
        level_stats.push(LevelStats::from_passes(
            i,
            fine.num_modules(),
            &r.pass_stats,
            level_rebalance,
        ));
        p = fine_p;
    }

    #[cfg(feature = "audit")]
    if mlpart_audit::enabled() {
        mlpart_audit::enforce(mlpart_audit::audit_partition(h, &p));
    }
    let result = MlKwayResult {
        cut: metrics::cut(h, &p),
        sum_of_degrees: metrics::sum_of_spans_minus_one(h, &p),
        levels: m,
        level_sizes: hierarchy.level_sizes(h),
        total_passes,
        rebalance_moves,
        level_stats,
        truncation: meter.truncation(),
    };
    Ok((p, result))
}

/// Constraint-aware multilevel k-way partitioning: [`ml_kway`] driven by a
/// full [`Constraints`] set — general `k`, ε-derived per-part bounds, and
/// fixed modules that may coarsen together when pinned to the same part
/// (via [`Hierarchy::coarsen_parts`], unlike the singleton-freezing
/// [`ml_kway`]).
///
/// # Panics
///
/// Panics if `cfg.k != constraints.k()` or a fixed module is out of range
/// (run [`preflight_constrained`](crate::preflight_constrained) first for
/// typed errors).
pub fn ml_kway_constrained(
    h: &Hypergraph,
    cfg: &MlKwayConfig,
    constraints: &Constraints,
    rng: &mut MlRng,
) -> (Partition, MlKwayResult) {
    let mut ws = RefineWorkspace::new();
    ml_kway_constrained_in(h, cfg, constraints, rng, &mut ws)
}

/// [`ml_kway_constrained`] with caller-owned scratch.
pub fn ml_kway_constrained_in(
    h: &Hypergraph,
    cfg: &MlKwayConfig,
    constraints: &Constraints,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
) -> (Partition, MlKwayResult) {
    ml_kway_constrained_budgeted_in(h, cfg, constraints, rng, ws, &mut BudgetMeter::unlimited())
}

/// [`ml_kway_constrained_in`] under a cooperative execution budget; the
/// constraint-aware twin of [`ml_kway_budgeted_in`]. Per-level bounds are
/// recomputed from ε with each level's max module area, projection and
/// pin-respecting rebalancing run at every level even once the budget is
/// exhausted, and pins are audited at every level when audits are enabled.
pub fn ml_kway_constrained_budgeted_in(
    h: &Hypergraph,
    cfg: &MlKwayConfig,
    constraints: &Constraints,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> (Partition, MlKwayResult) {
    expect_valid(try_ml_kway_constrained_budgeted_in(
        h,
        cfg,
        constraints,
        rng,
        ws,
        meter,
    ))
}

/// [`ml_kway_constrained_budgeted_in`] returning a typed error instead of
/// panicking.
///
/// # Errors
///
/// [`PipelineError::KMismatch`] when `cfg.k != constraints.k()`,
/// [`PipelineError::Constraints`] when a fixed module is out of range, and
/// [`PipelineError::Coarsen`] when the hierarchy cannot be built or
/// projected.
pub fn try_ml_kway_constrained_budgeted_in(
    h: &Hypergraph,
    cfg: &MlKwayConfig,
    constraints: &Constraints,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> Result<(Partition, MlKwayResult), PipelineError> {
    let k = constraints.k();
    if cfg.k != k {
        return Err(PipelineError::KMismatch {
            context: "cfg.k and constraints.k() disagree",
            expected: cfg.k,
            got: k,
        });
    }
    constraints.check_modules(h.num_modules())?;
    let ml_cfg = MlConfig {
        coarsen_threshold: cfg.coarsen_threshold,
        matching_ratio: cfg.matching_ratio,
        max_levels: cfg.max_levels,
        ..MlConfig::default()
    };
    let _obs_run = mlpart_obs::span(
        "ml_kway_constrained",
        &[
            ("k", u64::from(k).into()),
            ("modules", h.num_modules().into()),
            ("fixed", constraints.fixed().len().into()),
        ],
    );
    let epsilon = constraints.epsilon();
    let bounds_for = |fine: &Hypergraph| PartBounds::from_epsilon(fine, k, epsilon);
    let hierarchy = Hierarchy::try_coarsen_parts(h, &ml_cfg, constraints.fixed(), rng)?;
    let m = hierarchy.num_levels();

    // Initial k-way partitioning of the coarsest netlist, seeded from pins.
    let coarsest = hierarchy.coarsest(h);
    let coarse_fixed = hierarchy.fixed_at(m);
    let coarse_bounds = bounds_for(coarsest);
    meter.set_level_context(Some(m as u32));
    let mut p = Partition::random_fixed(coarsest, k, coarse_fixed, rng);
    if !coarse_bounds.is_partition_feasible(&p) {
        let _ = rebalance_to_bounds(coarsest, &mut p, coarse_fixed, &coarse_bounds, rng);
    }
    let r0 = kway_refine_constrained_budgeted_in(
        coarsest,
        &mut p,
        coarse_fixed,
        &cfg.kway,
        &coarse_bounds,
        rng,
        ws,
        meter,
    );
    let mut total_passes = r0.passes;
    let mut level_stats = Vec::with_capacity(m + 1);
    level_stats.push(LevelStats::from_passes(
        m,
        coarsest.num_modules(),
        &r0.pass_stats,
        0,
    ));

    // Uncoarsening with pin-respecting rebalance and bounded refinement.
    let mut rebalance_moves = 0usize;
    for i in (0..m).rev() {
        let fine: &Hypergraph = if i == 0 { h } else { hierarchy.level(i) };
        let _obs_level = mlpart_obs::span(
            "level",
            &[("level", i.into()), ("modules", fine.num_modules().into())],
        );
        let mut fine_p = project(fine, hierarchy.clustering(i), &p)?;
        #[cfg(feature = "audit")]
        if mlpart_audit::enabled() {
            mlpart_audit::enforce(
                mlpart_audit::audit_projection(
                    fine,
                    &fine_p,
                    hierarchy.level(i + 1),
                    &p,
                    hierarchy.clustering(i).as_map(),
                )
                .map_err(|e| e.with_level(i)),
            );
        }
        let bounds = bounds_for(fine);
        let level_fixed = hierarchy.fixed_at(i);
        let mut level_rebalance = 0usize;
        if !bounds.is_partition_feasible(&fine_p) {
            level_rebalance = rebalance_to_bounds(fine, &mut fine_p, level_fixed, &bounds, rng);
            rebalance_moves += level_rebalance;
        }
        meter.set_level_context(Some(i as u32));
        let _ = meter.level_checkpoint(i as u32);
        let r = kway_refine_constrained_budgeted_in(
            fine,
            &mut fine_p,
            level_fixed,
            &cfg.kway,
            &bounds,
            rng,
            ws,
            meter,
        );
        meter.note_level();
        #[cfg(feature = "audit")]
        if mlpart_audit::enabled() {
            mlpart_audit::enforce(
                mlpart_audit::audit_fixed_assignment(&fine_p, level_fixed)
                    .map_err(|e| e.with_level(i)),
            );
        }
        total_passes += r.passes;
        level_stats.push(LevelStats::from_passes(
            i,
            fine.num_modules(),
            &r.pass_stats,
            level_rebalance,
        ));
        p = fine_p;
    }

    #[cfg(feature = "audit")]
    if mlpart_audit::enabled() {
        mlpart_audit::enforce(mlpart_audit::audit_partition(h, &p));
        mlpart_audit::enforce(mlpart_audit::audit_fixed_assignment(
            &p,
            constraints.fixed(),
        ));
    }
    let result = MlKwayResult {
        cut: metrics::cut(h, &p),
        sum_of_degrees: metrics::sum_of_spans_minus_one(h, &p),
        levels: m,
        level_sizes: hierarchy.level_sizes(h),
        total_passes,
        rebalance_moves,
        level_stats,
        truncation: meter.truncation(),
    };
    Ok((p, result))
}

/// Multi-start convenience driver: runs [`ml_kway_in`] once per start with
/// the independent seed stream `child_seed(base_seed, i)` and returns the
/// winning start's index, partition, and statistics (lowest cut, ties to the
/// lowest start index). The k-way twin of
/// [`ml_best_of_in`](crate::ml_best_of_in); see there for why this total
/// order makes the result schedule-independent.
///
/// # Panics
///
/// Panics if `runs == 0` or the underlying [`ml_kway_in`] panics.
pub fn ml_kway_best_of_in(
    h: &Hypergraph,
    cfg: &MlKwayConfig,
    fixed: &[(ModuleId, PartId)],
    runs: usize,
    base_seed: u64,
    ws: &mut RefineWorkspace,
) -> (usize, Partition, MlKwayResult) {
    expect_valid(try_ml_kway_best_of_in(h, cfg, fixed, runs, base_seed, ws))
}

/// [`ml_kway_best_of_in`] returning a typed error instead of panicking.
///
/// # Errors
///
/// [`PipelineError::NoStarts`] when `runs == 0`, plus anything a single
/// start ([`try_ml_kway_budgeted_in`]) reports.
pub fn try_ml_kway_best_of_in(
    h: &Hypergraph,
    cfg: &MlKwayConfig,
    fixed: &[(ModuleId, PartId)],
    runs: usize,
    base_seed: u64,
    ws: &mut RefineWorkspace,
) -> Result<(usize, Partition, MlKwayResult), PipelineError> {
    if runs == 0 {
        return Err(PipelineError::NoStarts);
    }
    let mut best: Option<(usize, Partition, MlKwayResult)> = None;
    for i in 0..runs {
        let mut rng = seeded_rng(child_seed(base_seed, i as u64));
        let (p, r) =
            try_ml_kway_budgeted_in(h, cfg, fixed, &mut rng, ws, &mut BudgetMeter::unlimited())?;
        if best.as_ref().is_none_or(|(_, _, b)| r.cut < b.cut) {
            best = Some((i, p, r));
        }
    }
    best.ok_or(PipelineError::NoStarts)
}

/// Convenience wrapper for the paper's quadrisection setup: `k = 4`,
/// `T = 100`, `R = 1.0`, sum-of-degrees gain.
pub fn ml_quadrisection(
    h: &Hypergraph,
    fixed: &[(ModuleId, PartId)],
    rng: &mut MlRng,
) -> (Partition, MlKwayResult) {
    ml_kway(h, &MlKwayConfig::default(), fixed, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::HypergraphBuilder;
    use mlpart_kway::kway_partition;

    /// Four communities in a ring; optimum quadrisection cuts the 4 bridges.
    fn four_communities(size: usize) -> Hypergraph {
        let n = 4 * size;
        let mut b = HypergraphBuilder::with_unit_areas(n);
        for c in 0..4usize {
            let base = size * c;
            for i in 0..size {
                b.add_net([base + i, base + (i + 1) % size]).unwrap();
                b.add_net([base + i, base + (i + 5) % size]).unwrap();
            }
            b.add_net([base + size - 1, (base + size) % n]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn finds_low_cut_quadrisection() {
        let h = four_communities(50);
        let best = (0..5)
            .map(|s| {
                let mut rng = seeded_rng(s);
                ml_quadrisection(&h, &[], &mut rng).1.cut
            })
            .min()
            .unwrap();
        assert!(best <= 8, "best={best}");
    }

    #[test]
    fn result_is_feasible_and_consistent() {
        let h = four_communities(60);
        let cfg = MlKwayConfig::default();
        let bal = KwayBalance::new(&h, 4, cfg.kway.balance_r);
        let mut rng = seeded_rng(2);
        let (p, r) = ml_kway(&h, &cfg, &[], &mut rng);
        assert!(p.validate(&h));
        assert!(bal.is_partition_feasible(&p), "{:?}", p.part_areas());
        assert_eq!(r.cut, metrics::cut(&h, &p));
        assert_eq!(r.sum_of_degrees, metrics::sum_of_spans_minus_one(&h, &p));
        assert_eq!(r.level_sizes.len(), r.levels + 1);
    }

    #[test]
    fn kway_best_of_matches_manual_sequential_loop() {
        let h = four_communities(40);
        let cfg = MlKwayConfig::default();
        let (runs, base) = (4usize, 13u64);
        let mut ws = RefineWorkspace::new();
        let (win_idx, win_p, win_r) = ml_kway_best_of_in(&h, &cfg, &[], runs, base, &mut ws);
        let mut best: Option<(usize, Partition, MlKwayResult)> = None;
        for i in 0..runs {
            let mut rng = seeded_rng(child_seed(base, i as u64));
            let (p, r) = ml_kway(&h, &cfg, &[], &mut rng);
            if best.as_ref().is_none_or(|(_, _, b)| r.cut < b.cut) {
                best = Some((i, p, r));
            }
        }
        let (idx, p, r) = best.unwrap();
        assert_eq!(win_idx, idx);
        assert_eq!(win_p.assignment(), p.assignment());
        assert_eq!(win_r, r);
    }

    #[test]
    fn fixed_pads_respected_through_hierarchy() {
        let h = four_communities(60);
        let fixed = vec![
            (ModuleId::new(0), 0u32),
            (ModuleId::new(60), 1u32),
            (ModuleId::new(120), 2u32),
            (ModuleId::new(180), 3u32),
        ];
        for seed in 0..3 {
            let mut rng = seeded_rng(seed);
            let (p, _) = ml_quadrisection(&h, &fixed, &mut rng);
            for &(v, part) in &fixed {
                assert_eq!(p.part(v), part, "seed {seed}");
            }
        }
    }

    #[test]
    fn multilevel_beats_flat_kway_on_average() {
        let h = four_communities(64);
        let runs = 4;
        let flat_avg: f64 = (0..runs)
            .map(|s| {
                let mut rng = seeded_rng(3000 + s);
                kway_partition(&h, 4, None, &[], &KwayConfig::default(), &mut rng)
                    .1
                    .cut as f64
            })
            .sum::<f64>()
            / runs as f64;
        let ml_avg: f64 = (0..runs)
            .map(|s| {
                let mut rng = seeded_rng(4000 + s);
                ml_quadrisection(&h, &[], &mut rng).1.cut as f64
            })
            .sum::<f64>()
            / runs as f64;
        assert!(
            ml_avg <= flat_avg,
            "ML 4-way avg {ml_avg} should not exceed flat avg {flat_avg}"
        );
    }

    #[test]
    fn k2_multilevel_works() {
        let h = four_communities(32);
        let cfg = MlKwayConfig {
            k: 2,
            ..MlKwayConfig::default()
        };
        let mut rng = seeded_rng(8);
        let (p, r) = ml_kway(&h, &cfg, &[], &mut rng);
        assert_eq!(p.k(), 2);
        assert_eq!(r.cut, metrics::cut(&h, &p));
    }

    /// With audits forced on, every k-way projection boundary is checked.
    #[cfg(feature = "audit")]
    #[test]
    fn audit_hooks_fire_on_healthy_run() {
        mlpart_audit::force_enabled(true);
        let h = four_communities(50); // 200 modules > T = 100, so m >= 1
        let mut rng = seeded_rng(12);
        let (p, r) = ml_quadrisection(&h, &[], &mut rng);
        mlpart_audit::force_enabled(false);
        assert!(r.levels >= 1, "need at least one projection to audit");
        assert!(p.validate(&h));
    }

    #[test]
    fn deterministic_given_seed() {
        let h = four_communities(40);
        let run = |seed| {
            let mut rng = seeded_rng(seed);
            ml_quadrisection(&h, &[], &mut rng)
        };
        let (p1, r1) = run(6);
        let (p2, r2) = run(6);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    fn budgeted_kway_truncates_and_stays_feasible() {
        use mlpart_fm::{Budget, BudgetLimit};
        let h = four_communities(60);
        let cfg = MlKwayConfig::default();
        let mut rng = seeded_rng(14);
        let mut ws = RefineWorkspace::new();
        let mut meter = BudgetMeter::new(&Budget {
            max_passes: Some(1),
            ..Budget::default()
        });
        let (p, r) = ml_kway_budgeted_in(&h, &cfg, &[], &mut rng, &mut ws, &mut meter);
        let t = r
            .truncation
            .expect("one pass cannot finish a k-way V-cycle");
        assert_eq!(t.limit, BudgetLimit::Passes);
        assert!(r.total_passes <= 1);
        assert!(p.validate(&h));
        let bal = KwayBalance::new(&h, 4, cfg.kway.balance_r);
        assert!(bal.is_partition_feasible(&p));
        assert_eq!(r.cut, metrics::cut(&h, &p));
    }

    #[test]
    fn budgeted_kway_with_unlimited_meter_matches_unbudgeted() {
        let h = four_communities(40);
        let cfg = MlKwayConfig::default();
        let mut rng1 = seeded_rng(4);
        let mut rng2 = seeded_rng(4);
        let mut ws = RefineWorkspace::new();
        let (p1, r1) = ml_kway_in(&h, &cfg, &[], &mut rng1, &mut ws);
        let (p2, r2) = ml_kway_budgeted_in(
            &h,
            &cfg,
            &[],
            &mut rng2,
            &mut ws,
            &mut BudgetMeter::unlimited(),
        );
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
        assert_eq!(r2.truncation, None);
    }

    #[test]
    fn constrained_kway_honors_pins_across_seeds() {
        let h = four_communities(50);
        let c = Constraints::new(
            4,
            0.2,
            vec![
                (ModuleId::new(0), 3),   // against the natural quadrant
                (ModuleId::new(75), 1),  // with it
                (ModuleId::new(120), 0), // against
            ],
        )
        .unwrap();
        let cfg = MlKwayConfig::default();
        let bounds = c.bounds(&h);
        for seed in 0..4 {
            let mut rng = seeded_rng(seed);
            let (p, r) = ml_kway_constrained(&h, &cfg, &c, &mut rng);
            assert!(p.validate(&h));
            for &(v, part) in c.fixed() {
                assert_eq!(p.part(v), part, "seed {seed}");
            }
            assert!(bounds.is_partition_feasible(&p), "{:?}", p.part_areas());
            assert_eq!(r.cut, metrics::cut(&h, &p));
        }
    }

    #[test]
    fn constrained_kway_without_pins_finds_low_cut() {
        let h = four_communities(50);
        let cfg = MlKwayConfig::default();
        let c = Constraints::unconstrained(4);
        let best = (0..5)
            .map(|s| {
                let mut rng = seeded_rng(s);
                ml_kway_constrained(&h, &cfg, &c, &mut rng).1.cut
            })
            .min()
            .unwrap();
        assert!(best <= 12, "best={best}");
    }

    #[test]
    fn constrained_kway_is_deterministic_given_seed() {
        let h = four_communities(40);
        let cfg = MlKwayConfig::default();
        let c = Constraints::new(4, 0.1, vec![(ModuleId::new(7), 2)]).unwrap();
        let run = |seed| {
            let mut rng = seeded_rng(seed);
            ml_kway_constrained(&h, &cfg, &c, &mut rng)
        };
        let (p1, r1) = run(11);
        let (p2, r2) = run(11);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    #[should_panic(expected = "cfg.k and constraints.k() disagree")]
    fn constrained_kway_rejects_mismatched_k() {
        let h = four_communities(10);
        let cfg = MlKwayConfig::default(); // k = 4
        let c = Constraints::unconstrained(8);
        let mut rng = seeded_rng(0);
        let _ = ml_kway_constrained(&h, &cfg, &c, &mut rng);
    }
}
