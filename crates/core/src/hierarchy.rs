//! Construction of the multilevel netlist hierarchy (the coarsening phase of
//! Fig. 2, steps 1-5).

use mlpart_cluster::{
    heavy_edge_matching, induce, induce_coalesced, match_clusters_frozen_in,
    match_clusters_parts_in, random_matching, Clustering, CoarsenError, MatchConfig, MatchScratch,
};
use mlpart_hypergraph::{Hypergraph, ModuleId, PartId};
use rand::Rng;

/// Which matching algorithm drives coarsening — the paper's `Match` by
/// default, with the Chaco/Metis baselines available for ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Coarsener {
    /// The paper's connectivity-based `Match` (Fig. 3) with matching ratio.
    #[default]
    PaperMatch,
    /// Chaco-style random maximal matching (ignores the matching ratio).
    RandomMatching,
    /// Metis-style heavy-edge matching without the area preference
    /// (ignores the matching ratio).
    HeavyEdge,
}

impl std::fmt::Display for Coarsener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Coarsener::PaperMatch => write!(f, "match"),
            Coarsener::RandomMatching => write!(f, "random"),
            Coarsener::HeavyEdge => write!(f, "heavy-edge"),
        }
    }
}

/// The coarsened netlist hierarchy `H₁ … Hₘ` above an input netlist `H₀`,
/// with the clustering connecting each adjacent pair of levels.
///
/// `H₀` itself is not stored (the caller owns it); `level(i)` returns
/// `Hᵢ₊₁`. The hierarchy also threads pre-assigned (fixed) modules upward:
/// a coarse module is fixed iff its (singleton) cluster wraps a fixed fine
/// module.
///
/// # Examples
///
/// ```
/// use mlpart_core::{Hierarchy, MlConfig};
/// use mlpart_hypergraph::{HypergraphBuilder, rng::seeded_rng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::with_unit_areas(64);
/// for i in 0..63 {
///     b.add_net([i, i + 1])?;
/// }
/// let h = b.build()?;
/// let cfg = MlConfig { coarsen_threshold: 10, ..MlConfig::default() };
/// let mut rng = seeded_rng(0);
/// let hier = Hierarchy::coarsen(&h, &cfg, &[], &mut rng);
/// assert!(hier.coarsest(&h).num_modules() <= 10);
/// assert!(hier.num_levels() >= 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// `clusterings[i]` maps modules of `Hᵢ` to modules of `Hᵢ₊₁`.
    clusterings: Vec<Clustering>,
    /// `coarse[i]` is `Hᵢ₊₁`.
    coarse: Vec<Hypergraph>,
    /// Fixed (pre-assigned) modules at each level, `fixed[0]` being on `H₀`.
    fixed: Vec<Vec<(ModuleId, PartId)>>,
}

impl Hierarchy {
    /// Runs the coarsening loop of Fig. 2: while `|Vᵢ| > T`, cluster with
    /// `Match(Hᵢ, R)` and induce `Hᵢ₊₁`.
    ///
    /// Coarsening also stops when a `Match` pass shrinks the netlist by
    /// clearly less than the matching ratio promises (the matching has
    /// stalled on hub-dominated coarse structure — the standard multilevel
    /// guard, cf. hMETIS), when it makes no progress at all (e.g. a netlist
    /// with no small nets), or when
    /// [`max_levels`](crate::MlConfig::max_levels) is reached, so the loop
    /// always terminates and never piles up near-identical levels.
    ///
    /// `fixed` lists pre-assigned modules of `H₀`; they are kept as singleton
    /// clusters on every level (§III-C pad pre-assignment).
    ///
    /// # Panics
    ///
    /// Panics if a coarse netlist fails validation (see
    /// [`Hierarchy::try_coarsen`] for the non-panicking form).
    pub fn coarsen<R: Rng + ?Sized>(
        h0: &Hypergraph,
        cfg: &crate::MlConfig,
        fixed: &[(ModuleId, PartId)],
        rng: &mut R,
    ) -> Self {
        crate::error::expect_valid(Self::try_coarsen(h0, cfg, fixed, rng))
    }

    /// [`Hierarchy::coarsen`] returning a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`CoarsenError`] when inducing a coarse level fails (e.g. coalesced
    /// net weights overflow `u32`).
    pub fn try_coarsen<R: Rng + ?Sized>(
        h0: &Hypergraph,
        cfg: &crate::MlConfig,
        fixed: &[(ModuleId, PartId)],
        rng: &mut R,
    ) -> Result<Self, CoarsenError> {
        let match_cfg = MatchConfig::with_ratio(cfg.matching_ratio);
        // One scratch serves every `Match` pass: levels shrink, so the
        // level-0 buffers are never reallocated further down the hierarchy.
        let mut scratch = MatchScratch::new();
        let mut clusterings = Vec::new();
        let mut coarse: Vec<Hypergraph> = Vec::new();
        let mut fixed_levels: Vec<Vec<(ModuleId, PartId)>> = Vec::new();
        // The level under construction: its netlist (`None` ⇒ `h0`) and its
        // fixed list. Both are pushed onto the level vectors only when the
        // *next* level materializes (and once more after the loop), which
        // keeps `current` borrowable without re-indexing the vectors.
        let mut owned_current: Option<Hypergraph> = None;
        let mut current_fixed: Vec<(ModuleId, PartId)> = fixed.to_vec();

        let _obs_span = mlpart_obs::span(
            "coarsen",
            &[
                ("modules", h0.num_modules().into()),
                ("threshold", cfg.coarsen_threshold.into()),
                ("ratio", cfg.matching_ratio.into()),
            ],
        );
        loop {
            let current: &Hypergraph = owned_current.as_ref().unwrap_or(h0);
            if current.num_modules() <= cfg.coarsen_threshold || clusterings.len() >= cfg.max_levels
            {
                break;
            }
            let level_fixed = &current_fixed;
            let frozen_mask: Option<Vec<bool>> = if level_fixed.is_empty() {
                None
            } else {
                let mut mask = vec![false; current.num_modules()];
                for &(v, _) in level_fixed {
                    mask[v.index()] = true;
                }
                Some(mask)
            };
            let clustering = match cfg.coarsener {
                Coarsener::PaperMatch => match_clusters_frozen_in(
                    current,
                    &match_cfg,
                    frozen_mask.as_deref(),
                    rng,
                    &mut scratch,
                ),
                Coarsener::RandomMatching => {
                    assert!(
                        frozen_mask.is_none(),
                        "fixed modules require the PaperMatch coarsener"
                    );
                    random_matching(current, rng)
                }
                Coarsener::HeavyEdge => {
                    assert!(
                        frozen_mask.is_none(),
                        "fixed modules require the PaperMatch coarsener"
                    );
                    heavy_edge_matching(current, rng)
                }
            };
            // A matching with ratio R shrinks by the factor 1 − R/2 when it
            // succeeds; stop once the realized shrink is closer to "no
            // progress" than to that promise (baseline coarseners behave
            // like R = 1). This truncates the stall tail on netlists whose
            // coarse levels become star-like.
            let effective_ratio = match cfg.coarsener {
                Coarsener::PaperMatch => cfg.matching_ratio,
                Coarsener::RandomMatching | Coarsener::HeavyEdge => 1.0,
            };
            let guard = 1.0 - effective_ratio / 4.0;
            let stalled = clustering.num_clusters() as f64 > guard * current.num_modules() as f64;
            mlpart_obs::counter(
                "coarsen_level",
                &[
                    ("level", clusterings.len().into()),
                    ("modules", current.num_modules().into()),
                    ("clusters", clustering.num_clusters().into()),
                    ("stalled", u64::from(stalled).into()),
                ],
            );
            if stalled {
                break; // matching stalled: treat this level as coarsest
            }
            let next = if cfg.coalesce_nets {
                induce_coalesced(current, &clustering)?
            } else {
                induce(current, &clustering)?
            };
            let next_fixed: Vec<(ModuleId, PartId)> = level_fixed
                .iter()
                .map(|&(v, p)| (ModuleId::new(clustering.cluster_of(v) as usize), p))
                .collect();
            clusterings.push(clustering);
            if let Some(prev) = owned_current.take() {
                coarse.push(prev);
            }
            fixed_levels.push(std::mem::replace(&mut current_fixed, next_fixed));
            owned_current = Some(next);
        }
        if let Some(last) = owned_current {
            coarse.push(last);
        }
        fixed_levels.push(current_fixed);
        Ok(Hierarchy {
            clusterings,
            coarse,
            fixed: fixed_levels,
        })
    }

    /// [`Hierarchy::coarsen`] for the constraint-aware pipelines: instead of
    /// freezing every fixed module as a singleton, `Match` may merge two
    /// fixed modules pre-assigned to the **same** part (free–free pairs
    /// merge as always; fixed–free and cross-part pairs never do), so
    /// heavily pinned netlists still coarsen. Coarse fixed lists are
    /// deduplicated per cluster — a cluster of same-part pins appears once —
    /// and stay sorted by coarse module id, keeping every downstream loop
    /// over them deterministic. With no fixed modules this is byte-identical
    /// to [`Hierarchy::coarsen`].
    ///
    /// # Panics
    ///
    /// Panics if fixed modules are combined with a baseline coarsener or a
    /// coarse netlist fails validation (see
    /// [`Hierarchy::try_coarsen_parts`] for the non-panicking form).
    pub fn coarsen_parts<R: Rng + ?Sized>(
        h0: &Hypergraph,
        cfg: &crate::MlConfig,
        fixed: &[(ModuleId, PartId)],
        rng: &mut R,
    ) -> Self {
        crate::error::expect_valid(Self::try_coarsen_parts(h0, cfg, fixed, rng))
    }

    /// [`Hierarchy::coarsen_parts`] returning a typed error instead of
    /// panicking on induction failures. The baseline-coarsener restriction
    /// stays a panic: it is a static configuration bug, not an input
    /// property.
    ///
    /// # Errors
    ///
    /// [`CoarsenError`] when inducing a coarse level fails.
    pub fn try_coarsen_parts<R: Rng + ?Sized>(
        h0: &Hypergraph,
        cfg: &crate::MlConfig,
        fixed: &[(ModuleId, PartId)],
        rng: &mut R,
    ) -> Result<Self, CoarsenError> {
        if fixed.is_empty() {
            return Hierarchy::try_coarsen(h0, cfg, fixed, rng);
        }
        assert!(
            cfg.coarsener == Coarsener::PaperMatch,
            "fixed modules require the PaperMatch coarsener"
        );
        let match_cfg = MatchConfig::with_ratio(cfg.matching_ratio);
        let mut scratch = MatchScratch::new();
        let mut clusterings = Vec::new();
        let mut coarse: Vec<Hypergraph> = Vec::new();
        let mut fixed_levels: Vec<Vec<(ModuleId, PartId)>> = Vec::new();
        let mut owned_current: Option<Hypergraph> = None;
        let mut current_fixed: Vec<(ModuleId, PartId)> = fixed.to_vec();

        let _obs_span = mlpart_obs::span(
            "coarsen_parts",
            &[
                ("modules", h0.num_modules().into()),
                ("fixed", fixed.len().into()),
                ("threshold", cfg.coarsen_threshold.into()),
                ("ratio", cfg.matching_ratio.into()),
            ],
        );
        loop {
            let current: &Hypergraph = owned_current.as_ref().unwrap_or(h0);
            if current.num_modules() <= cfg.coarsen_threshold || clusterings.len() >= cfg.max_levels
            {
                break;
            }
            let level_fixed = &current_fixed;
            let mut seed: Vec<Option<PartId>> = vec![None; current.num_modules()];
            for &(v, p) in level_fixed {
                seed[v.index()] = Some(p);
            }
            let clustering = match_clusters_parts_in(
                current,
                &match_cfg,
                Some(seed.as_slice()),
                rng,
                &mut scratch,
            );
            let guard = 1.0 - cfg.matching_ratio / 4.0;
            let stalled = clustering.num_clusters() as f64 > guard * current.num_modules() as f64;
            mlpart_obs::counter(
                "coarsen_level",
                &[
                    ("level", clusterings.len().into()),
                    ("modules", current.num_modules().into()),
                    ("clusters", clustering.num_clusters().into()),
                    ("stalled", u64::from(stalled).into()),
                ],
            );
            if stalled {
                break; // matching stalled: treat this level as coarsest
            }
            let next = if cfg.coalesce_nets {
                induce_coalesced(current, &clustering)?
            } else {
                induce(current, &clustering)?
            };
            let mut next_fixed: Vec<(ModuleId, PartId)> = level_fixed
                .iter()
                .map(|&(v, p)| (ModuleId::new(clustering.cluster_of(v) as usize), p))
                .collect();
            // Same-part pins may now share a cluster; keep one entry each.
            next_fixed.sort_unstable_by_key(|&(v, _)| v.index());
            next_fixed.dedup_by(|a, b| {
                debug_assert!(a.0 != b.0 || a.1 == b.1, "cross-part pins merged");
                a.0 == b.0
            });
            clusterings.push(clustering);
            if let Some(prev) = owned_current.take() {
                coarse.push(prev);
            }
            fixed_levels.push(std::mem::replace(&mut current_fixed, next_fixed));
            owned_current = Some(next);
        }
        if let Some(last) = owned_current {
            coarse.push(last);
        }
        fixed_levels.push(current_fixed);
        Ok(Hierarchy {
            clusterings,
            coarse,
            fixed: fixed_levels,
        })
    }

    /// Number of coarsening levels `m` (zero if `H₀` was already below the
    /// threshold).
    pub fn num_levels(&self) -> usize {
        self.coarse.len()
    }

    /// The netlist at level `i` (`0 ⇒ H₀` must be supplied by the caller;
    /// this accessor returns `Hᵢ` for `i ≥ 1`).
    ///
    /// # Panics
    ///
    /// Panics if `i == 0` or `i > num_levels()`.
    pub fn level(&self, i: usize) -> &Hypergraph {
        assert!(i >= 1 && i <= self.coarse.len(), "level out of range");
        &self.coarse[i - 1]
    }

    /// The coarsest netlist `Hₘ` (or `h0` itself when no coarsening happened).
    pub fn coarsest<'a>(&'a self, h0: &'a Hypergraph) -> &'a Hypergraph {
        self.coarse.last().unwrap_or(h0)
    }

    /// The clustering mapping `Hᵢ` onto `Hᵢ₊₁`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_levels()`.
    pub fn clustering(&self, i: usize) -> &Clustering {
        &self.clusterings[i]
    }

    /// Fixed (pre-assigned) modules at level `i` (`0..=num_levels()`).
    pub fn fixed_at(&self, i: usize) -> &[(ModuleId, PartId)] {
        &self.fixed[i]
    }

    /// Module counts per level, `H₀` first — the "level sizes" diagnostics
    /// reported by the examples and benches.
    pub fn level_sizes(&self, h0: &Hypergraph) -> Vec<usize> {
        let mut sizes = Vec::with_capacity(self.coarse.len() + 1);
        sizes.push(h0.num_modules());
        sizes.extend(self.coarse.iter().map(Hypergraph::num_modules));
        sizes
    }
}

/// Dense `module → fixed?` mask over `n` modules, shared by the
/// constraint-aware pipelines.
pub(crate) fn fixed_mask(fixed: &[(ModuleId, PartId)], n: usize) -> Vec<bool> {
    let mut mask = vec![false; n];
    for &(v, _) in fixed {
        mask[v.index()] = true;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MlConfig;
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::HypergraphBuilder;

    fn grid(w: usize, hgt: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(w * hgt);
        for y in 0..hgt {
            for x in 0..w {
                let i = y * w + x;
                if x + 1 < w {
                    b.add_net([i, i + 1]).unwrap();
                }
                if y + 1 < hgt {
                    b.add_net([i, i + w]).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn coarsens_below_threshold() {
        let h = grid(16, 16);
        let cfg = MlConfig {
            coarsen_threshold: 35,
            ..MlConfig::default()
        };
        let mut rng = seeded_rng(1);
        let hier = Hierarchy::coarsen(&h, &cfg, &[], &mut rng);
        assert!(hier.coarsest(&h).num_modules() <= 35);
        assert!(hier.num_levels() >= 3);
        // Every level preserves total area.
        for i in 1..=hier.num_levels() {
            assert_eq!(hier.level(i).total_area(), h.total_area());
        }
    }

    #[test]
    fn smaller_ratio_means_more_levels() {
        let h = grid(24, 24);
        let mut rng = seeded_rng(2);
        let levels_at = |ratio: f64, rng: &mut mlpart_hypergraph::rng::MlRng| {
            let cfg = MlConfig {
                coarsen_threshold: 35,
                matching_ratio: ratio,
                ..MlConfig::default()
            };
            Hierarchy::coarsen(&h, &cfg, &[], rng).num_levels()
        };
        let l_full = levels_at(1.0, &mut rng);
        let l_half = levels_at(0.5, &mut rng);
        let l_third = levels_at(0.33, &mut rng);
        assert!(l_half > l_full, "R=0.5 ({l_half}) vs R=1 ({l_full})");
        assert!(l_third >= l_half, "R=0.33 ({l_third}) vs R=0.5 ({l_half})");
    }

    #[test]
    fn level_sizes_monotone_decreasing() {
        let h = grid(20, 20);
        let cfg = MlConfig {
            coarsen_threshold: 20,
            ..MlConfig::default()
        };
        let mut rng = seeded_rng(3);
        let hier = Hierarchy::coarsen(&h, &cfg, &[], &mut rng);
        let sizes = hier.level_sizes(&h);
        assert!(sizes.windows(2).all(|w| w[1] < w[0]), "{sizes:?}");
    }

    #[test]
    fn no_coarsening_when_under_threshold() {
        let h = grid(3, 3);
        let cfg = MlConfig {
            coarsen_threshold: 35,
            ..MlConfig::default()
        };
        let mut rng = seeded_rng(0);
        let hier = Hierarchy::coarsen(&h, &cfg, &[], &mut rng);
        assert_eq!(hier.num_levels(), 0);
        assert_eq!(hier.coarsest(&h).num_modules(), 9);
    }

    #[test]
    fn terminates_on_netless_netlist() {
        // No nets at all: Match produces all singletons, loop must stop.
        let h = HypergraphBuilder::with_unit_areas(100).build().unwrap();
        let cfg = MlConfig {
            coarsen_threshold: 10,
            ..MlConfig::default()
        };
        let mut rng = seeded_rng(0);
        let hier = Hierarchy::coarsen(&h, &cfg, &[], &mut rng);
        assert_eq!(hier.num_levels(), 0);
    }

    #[test]
    fn max_levels_caps_depth() {
        let h = grid(16, 16);
        let cfg = MlConfig {
            coarsen_threshold: 2,
            max_levels: 3,
            ..MlConfig::default()
        };
        let mut rng = seeded_rng(0);
        let hier = Hierarchy::coarsen(&h, &cfg, &[], &mut rng);
        assert_eq!(hier.num_levels(), 3);
    }

    #[test]
    fn coarsen_parts_merges_same_part_pins_and_dedups() {
        let h = grid(8, 8);
        let cfg = MlConfig {
            coarsen_threshold: 8,
            ..MlConfig::default()
        };
        // Pin a whole edge of the grid to part 0 and the opposite corner to
        // part 1: adjacent same-part pins are mergeable, so coarsening can
        // go deep even though an eighth of the netlist is pinned.
        let mut fixed: Vec<(ModuleId, u32)> = (0..8).map(|x| (ModuleId::new(x), 0u32)).collect();
        fixed.push((ModuleId::new(63), 1));
        let mut rng = seeded_rng(5);
        let hier = Hierarchy::coarsen_parts(&h, &cfg, &fixed, &mut rng);
        assert!(hier.coarsest(&h).num_modules() <= 8);
        for i in 0..=hier.num_levels() {
            let level_fixed = hier.fixed_at(i);
            // Sorted, deduplicated, and part ids preserved.
            assert!(level_fixed
                .windows(2)
                .all(|w| w[0].0.index() < w[1].0.index()));
            assert!(level_fixed.iter().any(|&(_, p)| p == 0));
            assert!(level_fixed.iter().any(|&(_, p)| p == 1));
        }
        // The edge pins eventually share clusters: strictly fewer coarse
        // fixed entries than fine ones by the coarsest level.
        assert!(hier.fixed_at(hier.num_levels()).len() < fixed.len());
    }

    #[test]
    fn coarsen_parts_without_pins_matches_plain_coarsen() {
        let h = grid(12, 12);
        let cfg = MlConfig {
            coarsen_threshold: 20,
            ..MlConfig::default()
        };
        let mut rng1 = seeded_rng(9);
        let mut rng2 = seeded_rng(9);
        let a = Hierarchy::coarsen(&h, &cfg, &[], &mut rng1);
        let b = Hierarchy::coarsen_parts(&h, &cfg, &[], &mut rng2);
        assert_eq!(a.num_levels(), b.num_levels());
        for i in 0..a.num_levels() {
            assert_eq!(a.clustering(i).as_map(), b.clustering(i).as_map());
        }
    }

    #[test]
    fn fixed_modules_stay_singletons_and_propagate() {
        let h = grid(8, 8);
        let cfg = MlConfig {
            coarsen_threshold: 8,
            ..MlConfig::default()
        };
        let fixed = vec![(ModuleId::new(0), 1u32), (ModuleId::new(63), 2u32)];
        let mut rng = seeded_rng(4);
        let hier = Hierarchy::coarsen(&h, &cfg, &fixed, &mut rng);
        for i in 0..hier.num_levels() {
            let c = hier.clustering(i);
            for &(v, part) in hier.fixed_at(i) {
                // The fixed module's cluster contains only itself.
                let cluster = c.cluster_of(v);
                let members = c.as_map().iter().filter(|&&x| x == cluster).count();
                assert_eq!(members, 1, "level {i}");
                let _ = part;
            }
            assert_eq!(hier.fixed_at(i + 1).len(), fixed.len());
        }
        // Parts carried through unchanged.
        let top = hier.fixed_at(hier.num_levels());
        assert_eq!(top[0].1, 1);
        assert_eq!(top[1].1, 2);
    }
}
