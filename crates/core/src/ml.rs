//! The ML multilevel bipartitioning algorithm (paper Fig. 2).
//!
//! ```text
//! 1. i = 0
//! 2. while |Vᵢ| > T:
//! 3.     Pᵏ   = Match(Hᵢ, R)
//! 4.     Hᵢ₊₁ = Induce(Hᵢ, Pᵏ)
//! 5.     i = i + 1
//! 6. m = i;  Pₘ = FMPartition(Hₘ, NULL)
//! 7. for i = m−1 downto 0:
//! 8.     Pᵢ = Project(Hᵢ₊₁, Pᵢ₊₁)
//! 9.     Pᵢ = FMPartition(Hᵢ, Pᵢ)
//! 10. return P₀
//! ```
//!
//! Projection may leave the finer level infeasible because `A(v*)` shrinks
//! during uncoarsening; §III-B prescribes rebalancing by random moves from
//! the larger side, which happens between steps 8 and 9.

use crate::error::{expect_valid, PipelineError};
use crate::hierarchy::Hierarchy;
use crate::vcycle::{self, check_fixed, Mode, Ratio, Refiner, Windows};
use mlpart_fm::{BudgetMeter, Engine, FmConfig, PassStats, RefineWorkspace, Truncation};
use mlpart_hypergraph::rng::MlRng;
use mlpart_hypergraph::{metrics, Hypergraph, ModuleId, PartBounds, PartId, Partition};

/// Per-level instrumentation of a multilevel run, collected during
/// uncoarsening (and for the coarsest-level initial partitioning).
///
/// The `cut_*` fields are the refinement engine's objective over
/// engine-visible nets (nets over `max_net_size` excluded) — for the k-way
/// engine under sum-of-degrees gain they are `Σ (span − 1)`, not the net
/// cut.
#[derive(Debug, Clone, Copy, Eq)]
pub struct LevelStats {
    /// Hierarchy level: `m` is the coarsest, `0` the original netlist.
    pub level: usize,
    /// Modules in this level's netlist.
    pub modules: usize,
    /// Engine objective entering refinement (after projection and any
    /// rebalancing).
    pub cut_before: u64,
    /// Engine objective after refinement.
    pub cut_after: u64,
    /// Moves attempted across this level's passes (before rollback).
    pub attempted_moves: u64,
    /// Moves kept across this level's passes (after rollback).
    pub kept_moves: u64,
    /// Modules moved by §III-B rebalancing to restore feasibility after
    /// projection to this level.
    pub rebalance_moves: usize,
    /// Refinement passes run at this level.
    pub passes: usize,
    /// Wall-clock nanoseconds spent rebuilding gains and filling buckets,
    /// summed over this level's passes. Excluded from equality so
    /// fixed-seed runs compare equal.
    pub fill_time_ns: u64,
}

/// Equality ignores `fill_time_ns` (wall-clock noise), mirroring
/// [`PassStats`].
impl PartialEq for LevelStats {
    fn eq(&self, other: &Self) -> bool {
        self.level == other.level
            && self.modules == other.modules
            && self.cut_before == other.cut_before
            && self.cut_after == other.cut_after
            && self.attempted_moves == other.attempted_moves
            && self.kept_moves == other.kept_moves
            && self.rebalance_moves == other.rebalance_moves
            && self.passes == other.passes
    }
}

impl LevelStats {
    /// Aggregates one level's pass trajectory into a level summary.
    pub(crate) fn from_passes(
        level: usize,
        modules: usize,
        passes: &[PassStats],
        rebalance_moves: usize,
    ) -> LevelStats {
        LevelStats {
            level,
            modules,
            cut_before: passes.first().map_or(0, |s| s.cut_before),
            cut_after: passes.last().map_or(0, |s| s.cut_after),
            attempted_moves: passes.iter().map(|s| s.attempted_moves as u64).sum(),
            kept_moves: passes.iter().map(|s| s.kept_moves as u64).sum(),
            rebalance_moves,
            passes: passes.len(),
            fill_time_ns: passes.iter().map(|s| s.fill_time_ns).sum(),
        }
    }
}

/// Configuration of the ML algorithm.
///
/// The defaults reproduce the paper's main experiments: `T = 35`, `R = 1.0`
/// (vary `R` to regenerate Tables V/VI and Fig. 4), FM refinement with LIFO
/// buckets and `r = 0.1`. Use `fm.engine = Engine::Clip` for the `ML_C`
/// variant.
///
/// # Examples
///
/// ```
/// use mlpart_core::MlConfig;
/// use mlpart_fm::Engine;
///
/// let ml_c = MlConfig::clip().with_ratio(0.5);
/// assert_eq!(ml_c.fm.engine, Engine::Clip);
/// assert_eq!(ml_c.matching_ratio, 0.5);
/// assert_eq!(ml_c.coarsen_threshold, 35);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlConfig {
    /// Coarsening threshold `T`: coarsen while `|Vᵢ| > T`. The paper uses 35
    /// for bipartitioning and 100 for quadrisection.
    pub coarsen_threshold: usize,
    /// Matching ratio `R ∈ (0, 1]` controlling coarsening speed (§III-A).
    pub matching_ratio: f64,
    /// Refinement engine configuration (engine, buckets, balance, net limit).
    pub fm: FmConfig,
    /// Safety cap on the number of hierarchy levels.
    pub max_levels: usize,
    /// Ablation knob: which matching algorithm coarsens (default: the
    /// paper's `Match`).
    pub coarsener: crate::hierarchy::Coarsener,
    /// Coalesce identical coarse nets into weighted nets during `Induce`
    /// (hMETIS-style). `false` reproduces the paper's Definition 1 exactly
    /// (duplicates kept); `true` gives identical cut values with smaller
    /// coarse netlists.
    pub coalesce_nets: bool,
    /// §V extension: number of independent initial partitions tried on the
    /// coarsest netlist, keeping the best ("it may be worthwhile to spend
    /// more CPU time partitioning at these levels, e.g., by calling FM
    /// multiple times"). `1` reproduces the paper's algorithm.
    pub initial_tries: usize,
}

impl Default for MlConfig {
    fn default() -> Self {
        MlConfig {
            coarsen_threshold: 35,
            matching_ratio: 1.0,
            fm: FmConfig::default(),
            max_levels: 256,
            coarsener: crate::hierarchy::Coarsener::PaperMatch,
            coalesce_nets: false,
            initial_tries: 1,
        }
    }
}

impl MlConfig {
    /// The `ML_F` variant: FM refinement (the default).
    pub fn fm() -> Self {
        MlConfig::default()
    }

    /// The `ML_C` variant: CLIP refinement.
    pub fn clip() -> Self {
        MlConfig {
            fm: FmConfig {
                engine: Engine::Clip,
                ..FmConfig::default()
            },
            ..MlConfig::default()
        }
    }

    /// Returns a copy with the given matching ratio `R`.
    pub fn with_ratio(mut self, ratio: f64) -> Self {
        self.matching_ratio = ratio;
        self
    }

    /// Returns a copy with the given coarsening threshold `T`.
    pub fn with_threshold(mut self, t: usize) -> Self {
        self.coarsen_threshold = t;
        self
    }
}

/// Statistics from one ML run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlResult {
    /// Final cut of the returned bipartition (all nets counted).
    pub cut: u64,
    /// Number of coarsening levels `m`.
    pub levels: usize,
    /// Module counts `|V₀| … |Vₘ|`.
    pub level_sizes: Vec<usize>,
    /// Total FM passes across all levels.
    pub total_passes: usize,
    /// Modules moved by §III-B rebalancing during uncoarsening.
    pub rebalance_moves: usize,
    /// Per-level instrumentation in execution order: the coarsest level's
    /// initial partitioning (from the winning try) first, then each
    /// uncoarsening level down to the original netlist.
    pub level_stats: Vec<LevelStats>,
    /// `Some` when a budget limit fired and the run returned its best
    /// partition so far instead of running to convergence; `None` for
    /// unlimited (or untruncated) runs.
    pub truncation: Option<Truncation>,
}

/// Runs the ML multilevel bipartitioning algorithm of Fig. 2.
///
/// Returns the refined bipartition `P₀` of `h` and run statistics.
///
/// # Panics
///
/// Panics if a coarse level fails validation; see
/// [`try_ml_bipartition_budgeted_in`] for the fallible form.
///
/// # Examples
///
/// ```
/// use mlpart_core::{ml_bipartition, MlConfig};
/// use mlpart_hypergraph::{HypergraphBuilder, rng::seeded_rng, metrics};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Two 32-module communities bridged by one net.
/// let mut b = HypergraphBuilder::with_unit_areas(64);
/// for base in [0usize, 32] {
///     for i in 0..31 {
///         b.add_net([base + i, base + i + 1])?;
///         b.add_net([base + i, base + (i + 7) % 32])?;
///     }
/// }
/// b.add_net([31, 32])?;
/// let h = b.build()?;
/// let mut rng = seeded_rng(5);
/// let (p, result) = ml_bipartition(&h, &MlConfig::default(), &mut rng);
/// assert_eq!(result.cut, metrics::cut(&h, &p));
/// assert!(result.cut <= 3);
/// # Ok(())
/// # }
/// ```
pub fn ml_bipartition(h: &Hypergraph, cfg: &MlConfig, rng: &mut MlRng) -> (Partition, MlResult) {
    ml_bipartition_budgeted_in(
        h,
        cfg,
        rng,
        &mut RefineWorkspace::new(),
        &mut BudgetMeter::unlimited(),
    )
}

/// [`ml_bipartition`] with caller-owned scratch and a cooperative budget;
/// panics where [`try_ml_bipartition_budgeted_in`] returns an error. Kept
/// because the benchmark harness (`perfbench/src/drive.rs`) drives it.
pub fn ml_bipartition_budgeted_in(
    h: &Hypergraph,
    cfg: &MlConfig,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> (Partition, MlResult) {
    expect_valid(try_ml_bipartition_budgeted_in(h, cfg, rng, ws, meter))
}

/// The paper's ML bipartitioning (Fig. 2) with §III-B balance windows from
/// `cfg.fm.balance_r`, under a cooperative execution budget.
///
/// Every level of the V-cycle (initial tries included) refines through
/// `ws`, so the gain/bucket machinery is allocated once per run. The meter
/// is consulted at every pass and level boundary; once a limit fires the
/// remaining refinement is skipped, but projection and §III-B rebalancing
/// still run at every level, so the returned partition is always a valid,
/// feasible bipartition of `h`. The truncation (if any) is recorded in
/// [`MlResult::truncation`].
///
/// # Errors
///
/// [`PipelineError::Coarsen`] when building or projecting through the
/// hierarchy fails.
pub fn try_ml_bipartition_budgeted_in(
    h: &Hypergraph,
    cfg: &MlConfig,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> Result<(Partition, MlResult), PipelineError> {
    let _obs_run = mlpart_obs::span("ml_bipartition", &[("modules", h.num_modules().into())]);
    let mode = Ratio {
        k: 2,
        r: cfg.fm.balance_r,
    };
    bipartition(h, cfg, &mode, &[], rng, ws, meter)
}

/// Constraint-aware ML bisection: pins, an explicit area target for side 0
/// (side 1 gets the rest), a tolerance ε, and a budget.
///
/// Fixed modules are threaded through every phase: coarsening merges only
/// same-part pins, the initial partition seeds them on their pinned parts,
/// and refinement/rebalancing never move them. Per-level bounds recompute
/// around the targets with each level's max module area (the §III-B
/// widening), so coarse levels are never over-constrained. Asymmetric
/// targets let [`try_recursive_ml_partition_budgeted_in`](crate::try_recursive_ml_partition_budgeted_in)
/// carve `⌈k/2⌉ : ⌊k/2⌋` area shares. Without pins and at ε = 0.2 the
/// windows equal [`try_ml_bipartition_budgeted_in`]'s, but the pin-seeded
/// start draws a different RNG stream, so cuts are comparable rather than
/// byte-identical.
///
/// # Errors
///
/// [`PipelineError::TargetExceedsTotal`] when `target0 > A(V)`,
/// [`PipelineError::FixedModuleOutOfRange`] /
/// [`PipelineError::FixedPartOutOfRange`] for bad pins, and
/// [`PipelineError::Coarsen`] when the hierarchy cannot be built or
/// projected.
///
/// # Panics
///
/// Panics if ε is negative or non-finite.
#[allow(clippy::too_many_arguments)]
pub fn try_ml_bipartition_constrained_budgeted_in(
    h: &Hypergraph,
    cfg: &MlConfig,
    fixed: &[(ModuleId, PartId)],
    target0: u64,
    epsilon: f64,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> Result<(Partition, MlResult), PipelineError> {
    let total = h.total_area();
    if target0 > total {
        return Err(PipelineError::TargetExceedsTotal { target0, total });
    }
    check_fixed(h, fixed, 2)?;
    let _obs_run = mlpart_obs::span(
        "ml_bipartition_constrained",
        &[
            ("modules", h.num_modules().into()),
            ("fixed", fixed.len().into()),
        ],
    );
    let mode = Windows {
        k: 2,
        bounds: |fine: &Hypergraph| {
            PartBounds::around_targets(&[target0, total - target0], total, fine.max_area(), epsilon)
        },
    };
    bipartition(h, cfg, &mode, fixed, rng, ws, meter)
}

/// The bipartition V-cycle under `mode`: coarsen (steps 1-5), keep the best
/// of `cfg.initial_tries` refined starts on `Hₘ` (step 6), uncoarsen
/// (steps 7-9).
fn bipartition<M: Mode>(
    h: &Hypergraph,
    cfg: &MlConfig,
    mode: &M,
    fixed: &[(ModuleId, PartId)],
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> Result<(Partition, MlResult), PipelineError> {
    let hierarchy = Hierarchy::coarsen_with(h, cfg, fixed, mode.pins(), rng)?;
    let m = hierarchy.num_levels();
    let coarsest = hierarchy.coarsest(h);
    let coarse_fixed = hierarchy.fixed_at(m);
    let bounds = mode.bounds(coarsest);
    meter.set_level_context(Some(m as u32));
    let mut total_passes = 0usize;
    let tries = cfg.initial_tries.max(1);
    let mut best: Option<(u64, Partition, Vec<PassStats>)> = None;
    let mut winner = 0usize;
    let obs_initial = mlpart_obs::span(
        "initial",
        &[
            ("tries", tries.into()),
            ("level", m.into()),
            ("modules", coarsest.num_modules().into()),
        ],
    );
    for t in 0..tries {
        let obs_try = mlpart_obs::span("try", &[("try", t.into())]);
        let mut p = vcycle::start(mode, coarsest, coarse_fixed, &bounds, rng);
        let r = cfg
            .fm
            .refine(coarsest, &mut p, coarse_fixed, &bounds, rng, ws, meter);
        total_passes += r.passes;
        drop(obs_try);
        mlpart_obs::counter(
            "initial_try",
            &[
                ("try", t.into()),
                ("cut", r.cut.into()),
                ("passes", r.passes.into()),
            ],
        );
        // Determinism tie-break: strict `<` keeps the *first* try that
        // reaches the minimum cut, so for a fixed seed the winning
        // partition — and every downstream projection/refinement — does not
        // depend on how many later tries happen to tie it.
        if best.as_ref().is_none_or(|(c, _, _)| r.cut < *c) {
            best = Some((r.cut, p, r.pass_stats));
            winner = t;
        }
    }
    let Some((best_cut, p, initial_stats)) = best else {
        return Err(PipelineError::NoStarts);
    };
    mlpart_obs::counter(
        "initial_winner",
        &[("try", winner.into()), ("cut", best_cut.into())],
    );
    drop(obs_initial);
    let mut level_stats = Vec::with_capacity(m + 1);
    level_stats.push(LevelStats::from_passes(
        m,
        coarsest.num_modules(),
        &initial_stats,
        0,
    ));
    let done = vcycle::uncoarsen(
        h,
        &hierarchy,
        p,
        mode,
        &cfg.fm,
        rng,
        ws,
        meter,
        &mut level_stats,
    )?;
    let result = MlResult {
        cut: metrics::cut(h, &done.p),
        levels: m,
        level_sizes: hierarchy.level_sizes(h),
        total_passes: total_passes + done.passes,
        rebalance_moves: done.rebalance_moves,
        level_stats,
        truncation: meter.truncation(),
    };
    Ok((done.p, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_fm::{fm_partition, BucketPolicy};
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::BipartBalance;
    use mlpart_hypergraph::HypergraphBuilder;

    /// Two communities of size `half`, internally ring+chords, one bridge.
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
    fn finds_community_cut() {
        let h = two_communities(64);
        let best = (0..5)
            .map(|s| {
                let mut rng = seeded_rng(s);
                ml_bipartition(&h, &MlConfig::default(), &mut rng).1.cut
            })
            .min()
            .unwrap();
        assert!(best <= 2, "best={best}");
    }

    #[test]
    fn clip_variant_finds_community_cut() {
        let h = two_communities(64);
        let best = (0..5)
            .map(|s| {
                let mut rng = seeded_rng(50 + s);
                ml_bipartition(&h, &MlConfig::clip(), &mut rng).1.cut
            })
            .min()
            .unwrap();
        assert!(best <= 2, "best={best}");
    }

    #[test]
    fn result_is_feasible_and_consistent() {
        let h = two_communities(100);
        let cfg = MlConfig::default();
        let bal = BipartBalance::new(&h, cfg.fm.balance_r);
        for seed in 0..3 {
            let mut rng = seeded_rng(seed);
            let (p, r) = ml_bipartition(&h, &cfg, &mut rng);
            assert!(p.validate(&h));
            assert!(bal.is_partition_feasible(&p), "{:?}", p.part_areas());
            assert_eq!(r.cut, metrics::cut(&h, &p));
            assert_eq!(r.level_sizes.len(), r.levels + 1);
            assert_eq!(r.level_sizes[0], h.num_modules());
            assert!(*r.level_sizes.last().unwrap() <= cfg.coarsen_threshold);
        }
    }

    #[test]
    fn ratio_below_one_builds_deeper_hierarchies() {
        let h = two_communities(200);
        let mut rng = seeded_rng(9);
        let (_, r_full) = ml_bipartition(&h, &MlConfig::default(), &mut rng);
        let (_, r_half) = ml_bipartition(&h, &MlConfig::default().with_ratio(0.5), &mut rng);
        assert!(r_half.levels > r_full.levels);
    }

    #[test]
    fn small_netlist_skips_coarsening() {
        let h = two_communities(8); // 16 modules < T = 35
        let mut rng = seeded_rng(1);
        let (p, r) = ml_bipartition(&h, &MlConfig::default(), &mut rng);
        assert_eq!(r.levels, 0);
        assert!(p.validate(&h));
    }

    #[test]
    fn multilevel_beats_or_matches_flat_fm_on_average() {
        // The paper's core claim (Table IV): ML produces lower average cuts
        // than flat iterative improvement. Check on a modest community graph.
        let h = two_communities(128);
        let runs = 6;
        let flat_avg: f64 = (0..runs)
            .map(|s| {
                let mut rng = seeded_rng(1000 + s);
                fm_partition(&h, None, &FmConfig::default(), &mut rng).1.cut as f64
            })
            .sum::<f64>()
            / runs as f64;
        let ml_avg: f64 = (0..runs)
            .map(|s| {
                let mut rng = seeded_rng(2000 + s);
                ml_bipartition(&h, &MlConfig::default(), &mut rng).1.cut as f64
            })
            .sum::<f64>()
            / runs as f64;
        assert!(
            ml_avg <= flat_avg,
            "ML avg {ml_avg} should not exceed flat FM avg {flat_avg}"
        );
    }

    #[test]
    fn initial_tries_extension_runs() {
        let h = two_communities(64);
        let cfg = MlConfig {
            initial_tries: 5,
            ..MlConfig::default()
        };
        let mut rng = seeded_rng(3);
        let (p, r) = ml_bipartition(&h, &cfg, &mut rng);
        assert!(p.validate(&h));
        assert!(r.total_passes >= 5, "five initial tries imply ≥5 passes");
    }

    #[test]
    fn deterministic_given_seed() {
        let h = two_communities(64);
        let run = |seed| {
            let mut rng = seeded_rng(seed);
            ml_bipartition(&h, &MlConfig::clip(), &mut rng)
        };
        let (p1, r1) = run(42);
        let (p2, r2) = run(42);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    fn works_with_all_bucket_policies() {
        let h = two_communities(48);
        for policy in [BucketPolicy::Lifo, BucketPolicy::Fifo, BucketPolicy::Random] {
            let cfg = MlConfig {
                fm: FmConfig {
                    policy,
                    ..FmConfig::default()
                },
                ..MlConfig::default()
            };
            let mut rng = seeded_rng(7);
            let (p, _) = ml_bipartition(&h, &cfg, &mut rng);
            assert!(p.validate(&h));
        }
    }

    /// With audits forced on, every projection boundary of a multilevel run
    /// is checked (and a healthy run survives them all).
    #[test]
    fn audit_hooks_fire_on_healthy_run() {
        mlpart_audit::force_enabled(true);
        let h = two_communities(64); // 128 modules > T = 35, so m >= 1
        let mut rng = seeded_rng(11);
        let (p, r) = ml_bipartition(&h, &MlConfig::default(), &mut rng);
        mlpart_audit::force_enabled(false);
        assert!(r.levels >= 1, "need at least one projection to audit");
        assert!(p.validate(&h));
    }

    #[test]
    fn handles_netless_input() {
        let h = HypergraphBuilder::with_unit_areas(100).build().unwrap();
        let mut rng = seeded_rng(0);
        let (p, r) = ml_bipartition(&h, &MlConfig::default(), &mut rng);
        assert_eq!(r.cut, 0);
        assert!(p.validate(&h));
    }
}

#[cfg(test)]
mod constrained_tests {
    use super::*;
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::{Constraints, HypergraphBuilder};

    /// A balanced constrained bisection of `h` under `c` (k = 2).
    fn ml_bipartition_constrained(
        h: &Hypergraph,
        cfg: &MlConfig,
        c: &Constraints,
        rng: &mut MlRng,
    ) -> (Partition, MlResult) {
        try_ml_bipartition_constrained_budgeted_in(
            h,
            cfg,
            c.fixed(),
            h.total_area() / 2,
            c.epsilon(),
            rng,
            &mut RefineWorkspace::new(),
            &mut BudgetMeter::unlimited(),
        )
        .expect("valid constraints")
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
    fn fixed_modules_never_move() {
        let h = two_communities(64);
        // Pin two modules against the natural community split and one with
        // it; every seed must honor all three.
        let c = Constraints::new(
            2,
            0.2,
            vec![
                (ModuleId::new(0), 1),
                (ModuleId::new(70), 0),
                (ModuleId::new(5), 1),
            ],
        )
        .unwrap();
        for seed in 0..6 {
            let mut rng = seeded_rng(seed);
            let (p, r) = ml_bipartition_constrained(&h, &MlConfig::clip(), &c, &mut rng);
            assert!(p.validate(&h));
            for &(v, part) in c.fixed() {
                assert_eq!(p.part(v), part, "seed {seed}");
            }
            assert_eq!(r.cut, metrics::cut(&h, &p));
        }
    }

    #[test]
    fn unconstrained_run_matches_legacy_quality_and_bounds() {
        let h = two_communities(64);
        let c = Constraints::unconstrained(2);
        let bounds = c.bounds(&h);
        let best = (0..5)
            .map(|s| {
                let mut rng = seeded_rng(s);
                let (p, r) = ml_bipartition_constrained(&h, &MlConfig::default(), &c, &mut rng);
                assert!(bounds.is_partition_feasible(&p), "{:?}", p.part_areas());
                r.cut
            })
            .min()
            .unwrap();
        assert!(best <= 4, "best={best}");
    }

    #[test]
    fn tight_epsilon_is_respected_at_the_finest_level() {
        let h = two_communities(64); // 128 unit modules
        let c = Constraints::new(2, 0.02, vec![]).unwrap();
        // slack = max(⌊0.02·64⌋, 1) = 1 around the 64/64 target.
        let bounds = PartBounds::around_targets(&[64, 64], 128, 1, 0.02);
        for seed in 0..3 {
            let mut rng = seeded_rng(seed);
            let (p, _) = ml_bipartition_constrained(&h, &MlConfig::default(), &c, &mut rng);
            assert!(bounds.is_partition_feasible(&p), "{:?}", p.part_areas());
        }
    }

    #[test]
    fn heavily_pinned_netlist_still_partitions() {
        let h = two_communities(64);
        // Pin a quarter of all modules, half of them "against" the grain.
        let mut fixed = Vec::new();
        for i in 0..16 {
            fixed.push((ModuleId::new(i), 0));
            fixed.push((ModuleId::new(64 + i), u32::from(i % 2 == 0)));
        }
        let c = Constraints::new(2, 0.2, fixed).unwrap();
        let mut rng = seeded_rng(13);
        let (p, r) = ml_bipartition_constrained(&h, &MlConfig::default(), &c, &mut rng);
        assert!(p.validate(&h));
        for &(v, part) in c.fixed() {
            assert_eq!(p.part(v), part);
        }
        assert_eq!(r.cut, metrics::cut(&h, &p));
        assert!(c.bounds(&h).is_partition_feasible(&p));
    }

    #[test]
    fn deterministic_given_seed() {
        let h = two_communities(48);
        let c = Constraints::new(2, 0.1, vec![(ModuleId::new(3), 1)]).unwrap();
        let run = |seed| {
            let mut rng = seeded_rng(seed);
            ml_bipartition_constrained(&h, &MlConfig::clip(), &c, &mut rng)
        };
        let (p1, r1) = run(21);
        let (p2, r2) = run(21);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    fn budgeted_constrained_run_keeps_pins_under_truncation() {
        use mlpart_fm::Budget;
        let h = two_communities(64);
        let c = Constraints::new(2, 0.2, vec![(ModuleId::new(0), 1)]).unwrap();
        let mut rng = seeded_rng(2);
        let mut ws = RefineWorkspace::new();
        let mut meter = BudgetMeter::new(&Budget {
            max_passes: Some(1),
            ..Budget::default()
        });
        let (p, r) = try_ml_bipartition_constrained_budgeted_in(
            &h,
            &MlConfig::default(),
            c.fixed(),
            h.total_area() / 2,
            c.epsilon(),
            &mut rng,
            &mut ws,
            &mut meter,
        )
        .expect("valid constraints");
        assert!(r.truncation.is_some());
        assert!(p.validate(&h));
        assert_eq!(p.part(ModuleId::new(0)), 1, "pin survives truncation");
    }

    /// With audits forced on, the pin and bounds checkers run at every level
    /// of a healthy constrained run.
    #[test]
    fn audit_hooks_fire_on_constrained_run() {
        mlpart_audit::force_enabled(true);
        let h = two_communities(64);
        let c = Constraints::new(2, 0.2, vec![(ModuleId::new(0), 0)]).unwrap();
        let mut rng = seeded_rng(7);
        let (p, r) = ml_bipartition_constrained(&h, &MlConfig::default(), &c, &mut rng);
        mlpart_audit::force_enabled(false);
        assert!(r.levels >= 1, "need at least one projection to audit");
        assert!(p.validate(&h));
    }
}

#[cfg(test)]
mod budget_tests {
    use super::*;
    use mlpart_fm::{Budget, BudgetLimit};
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::BipartBalance;
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
    fn unlimited_meter_on_a_reused_workspace_is_bit_identical_to_unbudgeted() {
        let h = two_communities(64);
        let cfg = MlConfig::clip();
        // Warm the workspace on another seed first: reuse must not leak.
        let mut ws = RefineWorkspace::new();
        let unlimited = || BudgetMeter::unlimited();
        let _ = ml_bipartition_budgeted_in(&h, &cfg, &mut seeded_rng(7), &mut ws, &mut unlimited());
        let (p1, r1) = ml_bipartition(&h, &cfg, &mut seeded_rng(21));
        let (p2, r2) =
            ml_bipartition_budgeted_in(&h, &cfg, &mut seeded_rng(21), &mut ws, &mut unlimited());
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
        assert_eq!(r2.truncation, None);
    }

    #[test]
    fn pass_budget_truncates_but_keeps_result_valid_and_feasible() {
        let h = two_communities(64);
        let cfg = MlConfig::default();
        let budget = Budget {
            max_passes: Some(2),
            ..Budget::default()
        };
        let mut rng = seeded_rng(5);
        let mut ws = RefineWorkspace::new();
        let mut meter = BudgetMeter::new(&budget);
        let (p, r) = ml_bipartition_budgeted_in(&h, &cfg, &mut rng, &mut ws, &mut meter);
        let t = r
            .truncation
            .expect("two passes cannot finish a V-cycle here");
        assert_eq!(t.limit, BudgetLimit::Passes);
        assert!(
            r.total_passes <= 2,
            "pass budget respected: {}",
            r.total_passes
        );
        assert!(p.validate(&h));
        let bal = BipartBalance::new(&h, cfg.fm.balance_r);
        assert!(bal.is_partition_feasible(&p));
        assert_eq!(r.cut, metrics::cut(&h, &p));
    }

    #[test]
    fn zero_move_budget_yields_the_projected_initial_partition() {
        let h = two_communities(64);
        let cfg = MlConfig::default();
        let mut rng = seeded_rng(9);
        let mut ws = RefineWorkspace::new();
        let mut meter = BudgetMeter::new(&Budget {
            max_moves: Some(0),
            ..Budget::default()
        });
        let (p, r) = ml_bipartition_budgeted_in(&h, &cfg, &mut rng, &mut ws, &mut meter);
        assert_eq!(r.total_passes, 0, "no refinement pass may run");
        assert_eq!(r.truncation.unwrap().limit, BudgetLimit::Moves);
        assert!(p.validate(&h));
        let bal = BipartBalance::new(&h, cfg.fm.balance_r);
        assert!(bal.is_partition_feasible(&p));
    }

    #[test]
    fn level_budget_refines_only_the_coarsest_levels() {
        let h = two_communities(128);
        let cfg = MlConfig::default().with_ratio(0.5);
        let mut rng = seeded_rng(17);
        let mut ws = RefineWorkspace::new();
        let mut meter = BudgetMeter::new(&Budget {
            max_levels: Some(1),
            ..Budget::default()
        });
        let (p, r) = ml_bipartition_budgeted_in(&h, &cfg, &mut rng, &mut ws, &mut meter);
        assert!(r.levels >= 2, "need a deep hierarchy for this test");
        let t = r.truncation.expect("level budget must fire");
        assert_eq!(t.limit, BudgetLimit::Levels);
        // Exactly the coarsest uncoarsening level refined; every later level
        // has zero passes but still projected.
        let refined: Vec<_> = r
            .level_stats
            .iter()
            .skip(1) // entry 0 is the coarsest-level initial partitioning
            .filter(|s| s.passes > 0)
            .collect();
        assert_eq!(refined.len(), 1);
        assert!(p.validate(&h));
    }

    #[test]
    fn budgeted_runs_are_deterministic() {
        let h = two_communities(64);
        let cfg = MlConfig::clip();
        let budget = Budget {
            max_passes: Some(3),
            ..Budget::default()
        };
        let run = || {
            let mut rng = seeded_rng(33);
            let mut ws = RefineWorkspace::new();
            let mut meter = BudgetMeter::new(&budget);
            ml_bipartition_budgeted_in(&h, &cfg, &mut rng, &mut ws, &mut meter)
        };
        let (p1, r1) = run();
        let (p2, r2) = run();
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }
}

#[cfg(test)]
mod coalesce_tests {
    use super::*;
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::HypergraphBuilder;

    #[test]
    fn coalesced_ml_produces_valid_comparable_results() {
        let mut b = HypergraphBuilder::with_unit_areas(128);
        for base in [0usize, 64] {
            for i in 0..64 {
                b.add_net([base + i, base + (i + 1) % 64]).unwrap();
                b.add_net([base + i, base + (i + 3) % 64]).unwrap();
            }
        }
        b.add_net([63, 64]).unwrap();
        let h = b.build().unwrap();
        let runs = 5;
        let avg = |coalesce: bool, base: u64| -> f64 {
            (0..runs)
                .map(|s| {
                    let cfg = MlConfig {
                        coalesce_nets: coalesce,
                        ..MlConfig::clip()
                    };
                    let mut rng = seeded_rng(base + s);
                    let (p, r) = ml_bipartition(&h, &cfg, &mut rng);
                    assert!(p.validate(&h));
                    assert_eq!(r.cut, mlpart_hypergraph::metrics::cut(&h, &p));
                    r.cut as f64
                })
                .sum::<f64>()
                / runs as f64
        };
        let plain = avg(false, 100);
        let merged = avg(true, 200);
        // Same algorithm quality class; both should land near the optimum 1.
        assert!(plain <= 6.0, "plain avg {plain}");
        assert!(merged <= 6.0, "coalesced avg {merged}");
    }
}
