//! The one V-cycle behind every multilevel driver (Fig. 2, §III-C).
//!
//! The bipartition, k-way and two-phase drivers differ in the refiner they
//! plug in ([`Refiner`]: 2-way FM/CLIP or Sanchis k-way) and in their
//! [`Mode`]: the paper's ratio-window schedule or the constraint-aware
//! ε-window schedule. A mode supplies four things — how pins coarsen, the
//! starting partition of the coarsest netlist, the balance window of each
//! level and the repair that restores it after projection — and the loop
//! below runs the same steps for all of them, consuming the RNG in the same
//! order the dedicated drivers did.

use crate::error::PipelineError;
use crate::hierarchy::{fixed_mask, Hierarchy, PinPolicy};
use crate::ml::LevelStats;
use mlpart_cluster::{project, rebalance_kway_frozen};
use mlpart_fm::{
    refine_constrained_budgeted_in, BudgetMeter, FmConfig, PassStats, RefineWorkspace,
};
use mlpart_hypergraph::rng::MlRng;
use mlpart_hypergraph::{Hypergraph, KwayBalance, ModuleId, PartBounds, PartId, Partition};
use mlpart_kway::{kway_refine_constrained_budgeted_in, rebalance_to_bounds, KwayConfig};

/// What separates the paper's drivers from the constraint-aware ones.
pub(crate) trait Mode {
    /// How fixed modules coarsen.
    fn pins(&self) -> PinPolicy;
    /// The balance window of one level's netlist.
    fn bounds(&self, h: &Hypergraph) -> PartBounds;
    /// An unrefined start for the coarsest netlist (`FMPartition(Hₘ, NULL)`)
    /// with every fixed module on its part; [`start`] repairs its balance.
    fn start(&self, h: &Hypergraph, fixed: &[(ModuleId, PartId)], rng: &mut MlRng) -> Partition;
    /// Restores `bounds` after projection without moving fixed modules;
    /// returns the number of modules moved.
    fn rebalance(
        &self,
        h: &Hypergraph,
        p: &mut Partition,
        fixed: &[(ModuleId, PartId)],
        bounds: &PartBounds,
        rng: &mut MlRng,
    ) -> usize;
}

/// The paper's schedule (Fig. 2, §III-B/C): uniform windows from the ratio
/// `r`, pads frozen as singletons, a greedy random start with pads moved
/// onto their parts, and random moves from the fullest to the emptiest part.
///
/// At `k = 2` the windows are exactly [`BipartBalance`]'s and the repair
/// makes the same moves and draws as `rebalance_bipart`: both shuffle the
/// module order once, then move from the larger side, and equal sides are
/// always feasible.
///
/// [`BipartBalance`]: mlpart_hypergraph::BipartBalance
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ratio {
    /// Part count.
    pub k: u32,
    /// Balance tolerance `r`.
    pub r: f64,
}

impl Mode for Ratio {
    fn pins(&self) -> PinPolicy {
        PinPolicy::Frozen
    }

    fn bounds(&self, h: &Hypergraph) -> PartBounds {
        PartBounds::from_kway(&KwayBalance::new(h, self.k, self.r))
    }

    fn start(&self, h: &Hypergraph, fixed: &[(ModuleId, PartId)], rng: &mut MlRng) -> Partition {
        let mut p = Partition::random(h, self.k, rng);
        for &(v, part) in fixed {
            p.move_module(h, v, part);
        }
        p
    }

    fn rebalance(
        &self,
        h: &Hypergraph,
        p: &mut Partition,
        fixed: &[(ModuleId, PartId)],
        _bounds: &PartBounds,
        rng: &mut MlRng,
    ) -> usize {
        let mask = fixed_mask(fixed, h.num_modules());
        let frozen = (!mask.is_empty()).then_some(mask.as_slice());
        rebalance_kway_frozen(h, p, &KwayBalance::new(h, self.k, self.r), frozen, rng)
    }
}

/// The constraint-aware schedule: explicit per-level windows, same-part
/// pins coarsening together, a pin-seeded start and a pin-respecting repair.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Windows<F> {
    /// Part count.
    pub k: u32,
    /// The window of a level, recomputed from its largest module.
    pub bounds: F,
}

impl<F: Fn(&Hypergraph) -> PartBounds> Mode for Windows<F> {
    fn pins(&self) -> PinPolicy {
        PinPolicy::SamePart
    }

    fn bounds(&self, h: &Hypergraph) -> PartBounds {
        (self.bounds)(h)
    }

    fn start(&self, h: &Hypergraph, fixed: &[(ModuleId, PartId)], rng: &mut MlRng) -> Partition {
        Partition::random_fixed(h, self.k, fixed, rng)
    }

    fn rebalance(
        &self,
        h: &Hypergraph,
        p: &mut Partition,
        fixed: &[(ModuleId, PartId)],
        bounds: &PartBounds,
        rng: &mut MlRng,
    ) -> usize {
        rebalance_to_bounds(h, p, fixed, bounds, rng)
    }
}

/// The mode's start for `h`, repaired into `bounds` when the pins (or lumpy
/// areas) pushed it outside. Draws from `rng` for the repair only when the
/// start is infeasible; the greedy 2-way start never is.
pub(crate) fn start<M: Mode>(
    mode: &M,
    h: &Hypergraph,
    fixed: &[(ModuleId, PartId)],
    bounds: &PartBounds,
    rng: &mut MlRng,
) -> Partition {
    let mut p = mode.start(h, fixed, rng);
    if !bounds.is_partition_feasible(&p) {
        rebalance_to_bounds(h, &mut p, fixed, bounds, rng);
    }
    p
}

/// What one refinement call reports back to the V-cycle.
#[derive(Debug)]
pub(crate) struct Refined {
    /// Engine objective after refinement.
    pub cut: u64,
    /// Passes run.
    pub passes: usize,
    /// Per-pass instrumentation.
    pub pass_stats: Vec<PassStats>,
}

/// A refinement engine under explicit windows and pins.
pub(crate) trait Refiner {
    /// Refines `p` in place within `bounds`, never moving `fixed`.
    #[allow(clippy::too_many_arguments)]
    fn refine(
        &self,
        h: &Hypergraph,
        p: &mut Partition,
        fixed: &[(ModuleId, PartId)],
        bounds: &PartBounds,
        rng: &mut MlRng,
        ws: &mut RefineWorkspace,
        meter: &mut BudgetMeter,
    ) -> Refined;
}

impl Refiner for FmConfig {
    fn refine(
        &self,
        h: &Hypergraph,
        p: &mut Partition,
        fixed: &[(ModuleId, PartId)],
        bounds: &PartBounds,
        rng: &mut MlRng,
        ws: &mut RefineWorkspace,
        meter: &mut BudgetMeter,
    ) -> Refined {
        let mask = fixed_mask(fixed, h.num_modules());
        let r = refine_constrained_budgeted_in(h, p, self, bounds, &mask, rng, ws, meter);
        Refined {
            cut: r.cut,
            passes: r.passes,
            pass_stats: r.pass_stats,
        }
    }
}

impl Refiner for KwayConfig {
    fn refine(
        &self,
        h: &Hypergraph,
        p: &mut Partition,
        fixed: &[(ModuleId, PartId)],
        bounds: &PartBounds,
        rng: &mut MlRng,
        ws: &mut RefineWorkspace,
        meter: &mut BudgetMeter,
    ) -> Refined {
        let r = kway_refine_constrained_budgeted_in(h, p, fixed, self, bounds, rng, ws, meter);
        Refined {
            cut: r.cut,
            passes: r.passes,
            pass_stats: r.pass_stats,
        }
    }
}

/// The partition of `H₀` an uncoarsening phase hands back.
#[derive(Debug)]
pub(crate) struct Uncoarsened {
    /// The refined partition of the input netlist.
    pub p: Partition,
    /// Refinement passes over all levels.
    pub passes: usize,
    /// Modules moved by rebalancing over all levels.
    pub rebalance_moves: usize,
}

/// Steps 7-9 of Fig. 2: from the coarsest partition `p` down to `h`, each
/// level projects, rebalances into the mode's window if projection left it
/// infeasible (§III-B), passes the budget checkpoint and refines, appending
/// one [`LevelStats`] per level.
///
/// Once the budget is exhausted refinement runs zero passes, but projection
/// and rebalancing continue, so the result is always a partition of `h`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn uncoarsen<M: Mode, F: Refiner>(
    h: &Hypergraph,
    hierarchy: &Hierarchy,
    mut p: Partition,
    mode: &M,
    refiner: &F,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
    level_stats: &mut Vec<LevelStats>,
) -> Result<Uncoarsened, PipelineError> {
    let (mut passes, mut rebalance_moves) = (0usize, 0usize);
    for i in (0..hierarchy.num_levels()).rev() {
        let fine: &Hypergraph = if i == 0 { h } else { hierarchy.level(i) };
        let _obs_level = mlpart_obs::span(
            "level",
            &[("level", i.into()), ("modules", fine.num_modules().into())],
        );
        let mut fine_p = project(fine, hierarchy.clustering(i), &p)?;
        // Definition 2 audit: the projected solution must pull back through
        // the cluster map and preserve the cut bit-exactly, checked before
        // rebalancing perturbs `fine_p`.
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
        let bounds = mode.bounds(fine);
        let level_fixed = hierarchy.fixed_at(i);
        let mut level_rebalance = 0usize;
        if !bounds.is_partition_feasible(&fine_p) {
            level_rebalance = mode.rebalance(fine, &mut fine_p, level_fixed, &bounds, rng);
            rebalance_moves += level_rebalance;
        }
        mlpart_obs::counter(
            "rebalance",
            &[("level", i.into()), ("moves", level_rebalance.into())],
        );
        // Cooperative budget checkpoint. When the level budget (or any
        // sticky earlier limit) is exhausted, refinement below runs zero
        // passes and the projected, rebalanced partition flows through.
        meter.set_level_context(Some(i as u32));
        let _ = meter.level_checkpoint(i as u32);
        let r = refiner.refine(fine, &mut fine_p, level_fixed, &bounds, rng, ws, meter);
        meter.note_level();
        // Pins must survive every level, not just the final answer.
        #[cfg(feature = "audit")]
        if mlpart_audit::enabled() {
            mlpart_audit::enforce(
                mlpart_audit::audit_fixed_assignment(&fine_p, level_fixed)
                    .map_err(|e| e.with_level(i)),
            );
        }
        passes += r.passes;
        level_stats.push(LevelStats::from_passes(
            i,
            fine.num_modules(),
            &r.pass_stats,
            level_rebalance,
        ));
        p = fine_p;
    }
    audit_result(h, &p, hierarchy.fixed_at(0), None);
    Ok(Uncoarsened {
        p,
        passes,
        rebalance_moves,
    })
}

/// Final-answer audit shared by every driver: a valid partition of `h`
/// with every pin on its part and, when given, inside `bounds`.
pub(crate) fn audit_result(
    h: &Hypergraph,
    p: &Partition,
    fixed: &[(ModuleId, PartId)],
    bounds: Option<&PartBounds>,
) {
    #[cfg(feature = "audit")]
    if mlpart_audit::enabled() {
        mlpart_audit::enforce(mlpart_audit::audit_partition(h, p));
        mlpart_audit::enforce(mlpart_audit::audit_fixed_assignment(p, fixed));
        if let Some(b) = bounds {
            let (lo, hi): (Vec<u64>, Vec<u64>) = (0..b.k()).map(|q| (b.lo(q), b.hi(q))).unzip();
            mlpart_audit::enforce(mlpart_audit::audit_part_bounds(p, &lo, &hi));
        }
    }
    #[cfg(not(feature = "audit"))]
    let _ = (h, p, fixed, bounds);
}

/// Checks a pin list against `h` and `k` before any stage indexes by it.
pub(crate) fn check_fixed(
    h: &Hypergraph,
    fixed: &[(ModuleId, PartId)],
    k: u32,
) -> Result<(), PipelineError> {
    for &(v, p) in fixed {
        if v.index() >= h.num_modules() {
            return Err(PipelineError::FixedModuleOutOfRange {
                module: v.index(),
                num_modules: h.num_modules(),
            });
        }
        if p >= k {
            return Err(PipelineError::FixedPartOutOfRange { part: p, k });
        }
    }
    Ok(())
}
