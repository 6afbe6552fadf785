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
use crate::vcycle::{self, check_fixed, Mode, Ratio, Refiner, Windows};
use mlpart_fm::{BudgetMeter, RefineWorkspace, Truncation};
use mlpart_hypergraph::rng::MlRng;
use mlpart_hypergraph::{
    metrics, Constraints, ConstraintsError, Hypergraph, ModuleId, PartBounds, PartId, Partition,
};
use mlpart_kway::KwayConfig;

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
/// Panics where [`try_ml_kway_budgeted_in`] returns an error (`cfg.k == 0`,
/// a fixed assignment out of range).
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
    ml_kway_budgeted_in(
        h,
        cfg,
        fixed,
        rng,
        &mut RefineWorkspace::new(),
        &mut BudgetMeter::unlimited(),
    )
}

/// [`ml_kway`] with caller-owned scratch and a cooperative budget; panics
/// where [`try_ml_kway_budgeted_in`] returns an error. Kept because the
/// benchmark harness (`perfbench/src/drive.rs`) drives it.
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

/// The paper's multilevel k-way partitioning (§III-C) with uniform balance
/// windows from `cfg.kway.balance_r`, under a cooperative execution budget;
/// the k-way twin of
/// [`try_ml_bipartition_budgeted_in`](crate::try_ml_bipartition_budgeted_in).
///
/// Every level refines through `ws` (bound in its k-way shape). Once a
/// limit fires refinement stops, but projection and rebalancing still run
/// at every level, so the returned partition is always valid and feasible.
/// Pads in `fixed` are audited at every level when audits are enabled.
///
/// # Errors
///
/// [`PipelineError::Constraints`] when `cfg.k == 0`,
/// [`PipelineError::FixedModuleOutOfRange`] /
/// [`PipelineError::FixedPartOutOfRange`] for bad pads, and
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
    check_fixed(h, fixed, cfg.k)?;
    let _obs_run = mlpart_obs::span(
        "ml_kway",
        &[
            ("k", u64::from(cfg.k).into()),
            ("modules", h.num_modules().into()),
        ],
    );
    let mode = Ratio {
        k: cfg.k,
        r: cfg.kway.balance_r,
    };
    kway(h, cfg, &mode, fixed, rng, ws, meter)
}

/// Constraint-aware multilevel k-way partitioning: the V-cycle of
/// [`try_ml_kway_budgeted_in`] driven by a full [`Constraints`] set —
/// general `k`, ε-derived per-level bounds recomputed with each level's max
/// module area, and fixed modules that may coarsen together when pinned to
/// the same part (the paper's pads stay singletons instead).
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
    let _obs_run = mlpart_obs::span(
        "ml_kway_constrained",
        &[
            ("k", u64::from(k).into()),
            ("modules", h.num_modules().into()),
            ("fixed", constraints.fixed().len().into()),
        ],
    );
    let epsilon = constraints.epsilon();
    let mode = Windows {
        k,
        bounds: |fine: &Hypergraph| PartBounds::from_epsilon(fine, k, epsilon),
    };
    kway(h, cfg, &mode, constraints.fixed(), rng, ws, meter)
}

/// The k-way V-cycle under `mode`: coarsen, refine one start on the
/// coarsest netlist, uncoarsen.
fn kway<M: Mode>(
    h: &Hypergraph,
    cfg: &MlKwayConfig,
    mode: &M,
    fixed: &[(ModuleId, PartId)],
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> Result<(Partition, MlKwayResult), PipelineError> {
    // Reuse the bipartition hierarchy builder: only T / R / max_levels apply.
    let ml_cfg = MlConfig {
        coarsen_threshold: cfg.coarsen_threshold,
        matching_ratio: cfg.matching_ratio,
        max_levels: cfg.max_levels,
        ..MlConfig::default()
    };
    let hierarchy = Hierarchy::coarsen_with(h, &ml_cfg, fixed, mode.pins(), rng)?;
    let m = hierarchy.num_levels();
    let coarsest = hierarchy.coarsest(h);
    let coarse_fixed = hierarchy.fixed_at(m);
    let bounds = mode.bounds(coarsest);
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
    let mut p = vcycle::start(mode, coarsest, coarse_fixed, &bounds, rng);
    let r0 = cfg
        .kway
        .refine(coarsest, &mut p, coarse_fixed, &bounds, rng, ws, meter);
    drop(obs_try);
    mlpart_obs::counter(
        "initial_winner",
        &[("try", 0u64.into()), ("cut", r0.cut.into())],
    );
    drop(obs_initial);
    let mut level_stats = Vec::with_capacity(m + 1);
    level_stats.push(LevelStats::from_passes(
        m,
        coarsest.num_modules(),
        &r0.pass_stats,
        0,
    ));
    let done = vcycle::uncoarsen(
        h,
        &hierarchy,
        p,
        mode,
        &cfg.kway,
        rng,
        ws,
        meter,
        &mut level_stats,
    )?;
    let result = MlKwayResult {
        cut: metrics::cut(h, &done.p),
        sum_of_degrees: metrics::sum_of_spans_minus_one(h, &done.p),
        levels: m,
        level_sizes: hierarchy.level_sizes(h),
        total_passes: r0.passes + done.passes,
        rebalance_moves: done.rebalance_moves,
        level_stats,
        truncation: meter.truncation(),
    };
    Ok((done.p, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::{HypergraphBuilder, KwayBalance};
    use mlpart_kway::kway_partition;

    /// The paper's quadrisection setup: `k = 4`, `T = 100`, `R = 1.0`,
    /// sum-of-degrees gain.
    fn ml_quadrisection(
        h: &Hypergraph,
        fixed: &[(ModuleId, PartId)],
        rng: &mut MlRng,
    ) -> (Partition, MlKwayResult) {
        ml_kway(h, &MlKwayConfig::default(), fixed, rng)
    }

    fn ml_kway_constrained(
        h: &Hypergraph,
        cfg: &MlKwayConfig,
        c: &Constraints,
        rng: &mut MlRng,
    ) -> Result<(Partition, MlKwayResult), PipelineError> {
        try_ml_kway_constrained_budgeted_in(
            h,
            cfg,
            c,
            rng,
            &mut RefineWorkspace::new(),
            &mut BudgetMeter::unlimited(),
        )
    }

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
        // Warm the workspace on another seed first: reuse must not leak.
        let mut ws = RefineWorkspace::new();
        let unlimited = || BudgetMeter::unlimited();
        let _ = ml_kway_budgeted_in(&h, &cfg, &[], &mut seeded_rng(9), &mut ws, &mut unlimited());
        let (p1, r1) = ml_kway(&h, &cfg, &[], &mut seeded_rng(4));
        let (p2, r2) =
            ml_kway_budgeted_in(&h, &cfg, &[], &mut seeded_rng(4), &mut ws, &mut unlimited());
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
            let (p, r) = ml_kway_constrained(&h, &cfg, &c, &mut rng).unwrap();
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
                ml_kway_constrained(&h, &cfg, &c, &mut rng).unwrap().1.cut
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
            ml_kway_constrained(&h, &cfg, &c, &mut rng).unwrap()
        };
        let (p1, r1) = run(11);
        let (p2, r2) = run(11);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    fn constrained_kway_rejects_mismatched_k() {
        let h = four_communities(10);
        let cfg = MlKwayConfig::default(); // k = 4
        let c = Constraints::unconstrained(8);
        let err = ml_kway_constrained(&h, &cfg, &c, &mut seeded_rng(0)).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::KMismatch {
                expected: 4,
                got: 8,
                ..
            }
        ));
    }

    #[test]
    fn out_of_range_pads_are_typed_errors() {
        let h = four_communities(10);
        let cfg = MlKwayConfig::default();
        let mut ws = RefineWorkspace::new();
        let mut run = |fixed: &[(ModuleId, PartId)]| {
            try_ml_kway_budgeted_in(
                &h,
                &cfg,
                fixed,
                &mut seeded_rng(0),
                &mut ws,
                &mut BudgetMeter::unlimited(),
            )
            .unwrap_err()
        };
        assert!(matches!(
            run(&[(ModuleId::new(40), 0)]),
            PipelineError::FixedModuleOutOfRange { module: 40, .. }
        ));
        assert!(matches!(
            run(&[(ModuleId::new(0), 4)]),
            PipelineError::FixedPartOutOfRange { part: 4, k: 4 }
        ));
    }
}
