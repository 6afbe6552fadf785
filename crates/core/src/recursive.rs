//! Recursive multilevel bisection: the classic alternative to direct k-way
//! partitioning.
//!
//! The paper partitions 4 ways *directly* with a Sanchis-style engine
//! (§III-C); most placement flows of the era instead quadrisected by
//! bisecting twice. This module provides that alternative so the two
//! strategies can be compared (see the `ablation` harness binary and the
//! quadrisection tests): each side of an ML bisection is extracted as a
//! sub-netlist and bisected again, recursively, yielding `k = 2^depth`
//! parts.

use crate::error::{expect_valid, PipelineError};
use crate::ml::{
    try_ml_bipartition_budgeted_in, try_ml_bipartition_constrained_budgeted_in, MlConfig,
};
use mlpart_fm::{BudgetMeter, RefineWorkspace, Truncation};
use mlpart_hypergraph::rng::MlRng;
use mlpart_hypergraph::{
    adapted_epsilon, metrics, Constraints, Hypergraph, ModuleId, PartId, Partition,
};

/// Statistics from a recursive bisection run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecursiveResult {
    /// Final k-way cut (all nets counted, measured on the original netlist).
    pub cut: u64,
    /// Final `Σ_e (span(e) − 1)`.
    pub sum_of_degrees: u64,
    /// Number of bisections performed (`2^depth − 1` unless a region became
    /// too small to split).
    pub bisections: usize,
    /// `Some` when a budget limit fired during any region's bisection; the
    /// budget is shared across all regions, so later bisections degrade to
    /// projected (unrefined) splits.
    pub truncation: Option<Truncation>,
}

/// Partitions `h` into `2^depth` parts by recursive ML bisection.
///
/// Each level runs the full multilevel algorithm on the extracted
/// sub-netlist of a region. Regions with fewer than two modules are left
/// whole (their "split" is trivial), so the result always has exactly
/// `2^depth` part ids (possibly with empty parts on degenerate inputs).
///
/// # Panics
///
/// Panics if `depth == 0` or `depth > 16`.
///
/// # Examples
///
/// ```
/// use mlpart_core::{recursive_ml_bisection, MlConfig};
/// use mlpart_hypergraph::{HypergraphBuilder, rng::seeded_rng, metrics};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::with_unit_areas(64);
/// for c in 0..4usize {
///     let base = 16 * c;
///     for i in 0..16 {
///         b.add_net([base + i, base + (i + 1) % 16])?;
///     }
///     b.add_net([base + 15, (base + 16) % 64])?;
/// }
/// let h = b.build()?;
/// let mut rng = seeded_rng(2);
/// let (p, r) = recursive_ml_bisection(&h, 2, &MlConfig::default(), &mut rng);
/// assert_eq!(p.k(), 4);
/// assert_eq!(r.cut, metrics::cut(&h, &p));
/// # Ok(())
/// # }
/// ```
pub fn recursive_ml_bisection(
    h: &Hypergraph,
    depth: u32,
    cfg: &MlConfig,
    rng: &mut MlRng,
) -> (Partition, RecursiveResult) {
    let mut ws = RefineWorkspace::new();
    recursive_ml_bisection_in(h, depth, cfg, rng, &mut ws)
}

/// [`recursive_ml_bisection`] with caller-owned scratch: every region's
/// multilevel bisection (`2^depth − 1` of them) shares one
/// [`RefineWorkspace`] instead of allocating its own refinement state.
pub fn recursive_ml_bisection_in(
    h: &Hypergraph,
    depth: u32,
    cfg: &MlConfig,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
) -> (Partition, RecursiveResult) {
    recursive_ml_bisection_budgeted_in(h, depth, cfg, rng, ws, &mut BudgetMeter::unlimited())
}

/// [`recursive_ml_bisection_in`] under a cooperative execution budget.
///
/// One meter is shared across every region's multilevel bisection, so the
/// limits bound the *whole* recursive run, not each region: once exhausted,
/// the remaining regions still split (their sub-bisections project random
/// coarse partitions without refinement), keeping the `2^depth`-part shape.
pub fn recursive_ml_bisection_budgeted_in(
    h: &Hypergraph,
    depth: u32,
    cfg: &MlConfig,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> (Partition, RecursiveResult) {
    expect_valid(try_recursive_ml_bisection_budgeted_in(
        h, depth, cfg, rng, ws, meter,
    ))
}

/// [`recursive_ml_bisection_budgeted_in`] returning a typed error instead
/// of panicking.
///
/// # Errors
///
/// [`PipelineError::BadDepth`] when `depth` is outside `1..=16`;
/// [`PipelineError::Netlist`] when a region sub-netlist fails extraction;
/// plus anything a region's bisection reports.
pub fn try_recursive_ml_bisection_budgeted_in(
    h: &Hypergraph,
    depth: u32,
    cfg: &MlConfig,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> Result<(Partition, RecursiveResult), PipelineError> {
    if !(1..=16).contains(&depth) {
        return Err(PipelineError::BadDepth { depth });
    }
    let k = 1u32 << depth;
    let n = h.num_modules();
    let _obs_run = mlpart_obs::span(
        "recursive_bisection",
        &[("depth", u64::from(depth).into()), ("modules", n.into())],
    );
    // `region[v]` is the current part of module v; regions split in place.
    let mut region = vec![0u32; n];
    let mut bisections = 0usize;
    for level in 0..depth {
        let regions_at_level = 1u32 << level;
        // Split against the frozen labels of this level and write the new
        // labels into a fresh array: relabeling in place would make a fresh
        // `high` id collide with a not-yet-processed old region id.
        let mut next_region = region.clone();
        for r_id in 0..regions_at_level {
            let keep: Vec<bool> = region.iter().map(|&r| r == r_id).collect();
            let count = keep.iter().filter(|&&x| x).count();
            // The new ids for this region's halves after this level.
            let low = r_id * 2;
            let high = r_id * 2 + 1;
            if count < 2 {
                for (v, &k2) in keep.iter().enumerate() {
                    if k2 {
                        next_region[v] = low;
                    }
                }
                continue;
            }
            let (sub, back) = h.extract(&keep)?;
            let _obs_region = mlpart_obs::span(
                "region",
                &[
                    ("depth_level", u64::from(level).into()),
                    ("region", u64::from(r_id).into()),
                    ("modules", count.into()),
                ],
            );
            let (sub_p, _) = try_ml_bipartition_budgeted_in(&sub, cfg, rng, ws, meter)?;
            bisections += 1;
            // Write back: side 0 -> low, side 1 -> high.
            for (sub_v, &orig) in back.iter().enumerate() {
                next_region[orig.index()] = if sub_p.assignment()[sub_v] == 0 {
                    low
                } else {
                    high
                };
            }
        }
        region = next_region;
    }
    let p =
        Partition::from_assignment(h, k, region).ok_or(PipelineError::InvalidRegionIds { k })?;
    let result = RecursiveResult {
        cut: metrics::cut(h, &p),
        sum_of_degrees: metrics::sum_of_spans_minus_one(h, &p),
        bisections,
        truncation: meter.truncation(),
    };
    Ok((p, result))
}

/// Partitions `h` into an **arbitrary** `k` parts by recursive constrained
/// ML bisection, honoring a full [`Constraints`] set.
///
/// Where [`recursive_ml_bisection`] serves only `k = 2^depth` with uniform
/// halves, this driver splits each region `⌈k/2⌉ : ⌊k/2⌋` with an
/// area target proportional to the part counts, runs every bisection under
/// the per-level tolerance `ε′ = (1 + ε)^(1/⌈log₂ k⌉) − 1`
/// ([`adapted_epsilon`]) so the composed imbalance never exceeds the
/// requested ε, and routes each fixed module to whichever side of a split
/// contains its pinned part.
///
/// # Panics
///
/// Panics if a fixed module is out of range (run
/// [`preflight_constrained`](crate::preflight_constrained) first for typed
/// errors).
///
/// # Examples
///
/// ```
/// use mlpart_core::{recursive_ml_partition, MlConfig};
/// use mlpart_hypergraph::{Constraints, HypergraphBuilder, rng::seeded_rng, metrics};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::with_unit_areas(60);
/// for i in 0..59 {
///     b.add_net([i, i + 1])?;
/// }
/// let h = b.build()?;
/// let c = Constraints::new(3, 0.1, vec![])?;
/// let mut rng = seeded_rng(4);
/// let (p, r) = recursive_ml_partition(&h, &MlConfig::default(), &c, &mut rng);
/// assert_eq!(p.k(), 3);
/// assert_eq!(r.cut, metrics::cut(&h, &p));
/// # Ok(())
/// # }
/// ```
pub fn recursive_ml_partition(
    h: &Hypergraph,
    cfg: &MlConfig,
    constraints: &Constraints,
    rng: &mut MlRng,
) -> (Partition, RecursiveResult) {
    let mut ws = RefineWorkspace::new();
    recursive_ml_partition_budgeted_in(
        h,
        cfg,
        constraints,
        rng,
        &mut ws,
        &mut BudgetMeter::unlimited(),
    )
}

/// [`recursive_ml_partition`] with caller-owned scratch and a cooperative
/// execution budget shared across every region's bisection (exhausted
/// regions still split, unrefined, preserving the k-part shape).
pub fn recursive_ml_partition_budgeted_in(
    h: &Hypergraph,
    cfg: &MlConfig,
    constraints: &Constraints,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> (Partition, RecursiveResult) {
    expect_valid(try_recursive_ml_partition_budgeted_in(
        h,
        cfg,
        constraints,
        rng,
        ws,
        meter,
    ))
}

/// [`recursive_ml_partition_budgeted_in`] returning a typed error instead
/// of panicking.
///
/// # Errors
///
/// [`PipelineError::Constraints`] when a fixed module is out of range;
/// [`PipelineError::Netlist`] when a region sub-netlist fails extraction;
/// plus anything a region's constrained bisection reports.
pub fn try_recursive_ml_partition_budgeted_in(
    h: &Hypergraph,
    cfg: &MlConfig,
    constraints: &Constraints,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> Result<(Partition, RecursiveResult), PipelineError> {
    let k = constraints.k();
    let n = h.num_modules();
    constraints.check_modules(n)?;
    let _obs_run = mlpart_obs::span(
        "recursive_partition",
        &[
            ("k", u64::from(k).into()),
            ("modules", n.into()),
            ("fixed", constraints.fixed().len().into()),
        ],
    );
    let eps = adapted_epsilon(constraints.epsilon(), k);
    // Pin lookup dense by module, shared by every region.
    let mut pin: Vec<Option<PartId>> = vec![None; n];
    for &(v, p) in constraints.fixed() {
        pin[v.index()] = Some(p);
    }
    let mut region = vec![0u32; n];
    let mut bisections = 0usize;
    let members: Vec<u32> = (0..n as u32).collect();
    split_region(
        h,
        cfg,
        &pin,
        &mut region,
        &members,
        0,
        k,
        eps,
        rng,
        ws,
        meter,
        &mut bisections,
    )?;
    let p =
        Partition::from_assignment(h, k, region).ok_or(PipelineError::InvalidRegionIds { k })?;
    #[cfg(feature = "audit")]
    if mlpart_audit::enabled() {
        mlpart_audit::enforce(mlpart_audit::audit_partition(h, &p));
        mlpart_audit::enforce(mlpart_audit::audit_fixed_assignment(
            &p,
            constraints.fixed(),
        ));
    }
    let result = RecursiveResult {
        cut: metrics::cut(h, &p),
        sum_of_degrees: metrics::sum_of_spans_minus_one(h, &p),
        bisections,
        truncation: meter.truncation(),
    };
    Ok((p, result))
}

/// One region of the recursion: assign `members` the final part ids
/// `part_base .. part_base + k_region`, bisecting `⌈k/2⌉ : ⌊k/2⌋` until
/// regions are single parts. Deterministic: regions recurse low side first,
/// so the RNG schedule is a pure function of the inputs.
#[allow(clippy::too_many_arguments)]
fn split_region(
    h: &Hypergraph,
    cfg: &MlConfig,
    pin: &[Option<PartId>],
    region: &mut [u32],
    members: &[u32],
    part_base: u32,
    k_region: u32,
    eps: f64,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
    bisections: &mut usize,
) -> Result<(), PipelineError> {
    if k_region == 1 {
        for &v in members {
            region[v as usize] = part_base;
        }
        return Ok(());
    }
    let k_lo = k_region - k_region / 2; // ⌈k/2⌉ parts on side 0
    let k_hi = k_region / 2;
    if members.len() < 2 {
        // Too small to bisect: pins keep their parts, free modules take the
        // region's first part.
        for &v in members {
            region[v as usize] = pin[v as usize].unwrap_or(part_base);
        }
        return Ok(());
    }
    let mut keep = vec![false; h.num_modules()];
    for &v in members {
        keep[v as usize] = true;
    }
    let (sub, back) = h.extract(&keep)?;
    let _obs_region = mlpart_obs::span(
        "region",
        &[
            ("part_base", u64::from(part_base).into()),
            ("k_region", u64::from(k_region).into()),
            ("modules", members.len().into()),
        ],
    );
    // A pin belongs to side 0 iff its part falls in the low part range.
    let boundary = part_base + k_lo;
    let sub_fixed: Vec<(ModuleId, PartId)> = back
        .iter()
        .enumerate()
        .filter_map(|(sub_v, &orig)| {
            pin[orig.index()].map(|t| (ModuleId::new(sub_v), u32::from(t >= boundary)))
        })
        .collect();
    let total = sub.total_area();
    let target0 = ((total as u128 * k_lo as u128) / k_region as u128) as u64;
    let (sub_p, _) = try_ml_bipartition_constrained_budgeted_in(
        &sub, cfg, &sub_fixed, target0, eps, rng, ws, meter,
    )?;
    *bisections += 1;
    let mut low = Vec::new();
    let mut high = Vec::new();
    for (sub_v, &orig) in back.iter().enumerate() {
        if sub_p.assignment()[sub_v] == 0 {
            low.push(orig.raw());
        } else {
            high.push(orig.raw());
        }
    }
    split_region(
        h, cfg, pin, region, &low, part_base, k_lo, eps, rng, ws, meter, bisections,
    )?;
    split_region(
        h, cfg, pin, region, &high, boundary, k_hi, eps, rng, ws, meter, bisections,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ml::ml_bipartition;
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::HypergraphBuilder;

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
    fn quadrisects_four_communities() {
        let h = four_communities(32);
        let best = (0..5)
            .map(|s| {
                let mut rng = seeded_rng(s);
                recursive_ml_bisection(&h, 2, &MlConfig::default(), &mut rng)
                    .1
                    .cut
            })
            .min()
            .unwrap();
        assert!(best <= 8, "best={best}");
    }

    #[test]
    fn produces_exactly_k_parts_with_near_even_sizes() {
        let h = four_communities(25);
        let mut rng = seeded_rng(3);
        let (p, r) = recursive_ml_bisection(&h, 2, &MlConfig::default(), &mut rng);
        assert_eq!(p.k(), 4);
        assert!(p.validate(&h));
        assert_eq!(r.cut, metrics::cut(&h, &p));
        let sizes = p.part_sizes();
        let (min, max) = (
            *sizes.iter().min().expect("4 parts"),
            *sizes.iter().max().expect("4 parts"),
        );
        // Each bisection is within r=0.1, so quadrant sizes stay near n/4.
        assert!(max - min <= h.num_modules() / 4, "{sizes:?}");
    }

    #[test]
    fn depth_one_matches_plain_bisection_cutwise() {
        let h = four_communities(16);
        let mut rng1 = seeded_rng(7);
        let mut rng2 = seeded_rng(7);
        let (_, r1) = recursive_ml_bisection(&h, 1, &MlConfig::default(), &mut rng1);
        let (_, r2) = ml_bipartition(&h, &MlConfig::default(), &mut rng2);
        assert_eq!(r1.cut, r2.cut, "same seed, same single bisection");
        assert_eq!(r1.bisections, 1);
    }

    #[test]
    fn handles_tiny_netlists() {
        let mut b = HypergraphBuilder::with_unit_areas(3);
        b.add_net([0, 1]).unwrap();
        b.add_net([1, 2]).unwrap();
        let h = b.build().unwrap();
        let mut rng = seeded_rng(0);
        let (p, _) = recursive_ml_bisection(&h, 3, &MlConfig::default(), &mut rng);
        assert_eq!(p.k(), 8);
        assert!(p.validate(&h));
    }

    #[test]
    fn budgeted_recursion_shares_one_meter_across_regions() {
        use mlpart_fm::{Budget, BudgetLimit, BudgetMeter};
        let h = four_communities(32);
        let mut rng = seeded_rng(3);
        let mut ws = RefineWorkspace::new();
        let mut meter = BudgetMeter::new(&Budget {
            max_passes: Some(2),
            ..Budget::default()
        });
        let (p, r) = recursive_ml_bisection_budgeted_in(
            &h,
            2,
            &MlConfig::default(),
            &mut rng,
            &mut ws,
            &mut meter,
        );
        // Two passes cannot cover three bisections' V-cycles.
        assert_eq!(
            r.truncation.expect("must truncate").limit,
            BudgetLimit::Passes
        );
        assert_eq!(p.k(), 4, "shape is preserved under exhaustion");
        assert!(p.validate(&h));
        assert_eq!(r.bisections, 3, "exhausted regions still split");
    }

    #[test]
    #[should_panic(expected = "depth must be at least 1")]
    fn rejects_zero_depth() {
        let h = four_communities(8);
        let mut rng = seeded_rng(0);
        let _ = recursive_ml_bisection(&h, 0, &MlConfig::default(), &mut rng);
    }

    #[test]
    fn general_k_produces_exactly_k_near_even_parts() {
        let h = four_communities(30); // 120 unit modules
        for k in [3u32, 5, 6] {
            let c = Constraints::unconstrained(k);
            let mut rng = seeded_rng(5);
            let (p, r) = recursive_ml_partition(&h, &MlConfig::default(), &c, &mut rng);
            assert_eq!(p.k(), k);
            assert!(p.validate(&h));
            assert_eq!(r.cut, metrics::cut(&h, &p));
            assert_eq!(r.bisections, k as usize - 1, "k−1 bisections for k={k}");
            let target = h.total_area() / k as u64;
            for (part, &area) in p.part_areas().iter().enumerate() {
                assert!(
                    area >= target / 2 && area <= target * 2,
                    "k={k} part {part} area {area} far from target {target}: {:?}",
                    p.part_areas()
                );
            }
        }
    }

    #[test]
    fn general_k_honors_pins() {
        let h = four_communities(30);
        let c = Constraints::new(
            5,
            0.2,
            vec![
                (ModuleId::new(0), 4),
                (ModuleId::new(31), 0),
                (ModuleId::new(64), 2),
                (ModuleId::new(119), 1),
            ],
        )
        .unwrap();
        for seed in 0..4 {
            let mut rng = seeded_rng(seed);
            let (p, _) = recursive_ml_partition(&h, &MlConfig::default(), &c, &mut rng);
            for &(v, part) in c.fixed() {
                assert_eq!(p.part(v), part, "seed {seed}");
            }
            assert!(p.validate(&h));
        }
    }

    #[test]
    fn general_k_is_deterministic_given_seed() {
        let h = four_communities(20);
        let c = Constraints::new(3, 0.1, vec![(ModuleId::new(2), 1)]).unwrap();
        let run = |seed| {
            let mut rng = seeded_rng(seed);
            recursive_ml_partition(&h, &MlConfig::default(), &c, &mut rng)
        };
        let (p1, r1) = run(17);
        let (p2, r2) = run(17);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    fn general_k_power_of_two_matches_quadrant_structure() {
        let h = four_communities(25);
        let c = Constraints::unconstrained(4);
        let best = (0..5)
            .map(|s| {
                let mut rng = seeded_rng(s);
                recursive_ml_partition(&h, &MlConfig::default(), &c, &mut rng)
                    .1
                    .cut
            })
            .min()
            .unwrap();
        assert!(best <= 10, "best={best}");
    }

    #[test]
    fn general_k_one_part_puts_everything_in_part_zero() {
        let h = four_communities(8);
        let c = Constraints::unconstrained(1);
        let mut rng = seeded_rng(0);
        let (p, r) = recursive_ml_partition(&h, &MlConfig::default(), &c, &mut rng);
        assert_eq!(p.k(), 1);
        assert_eq!(r.bisections, 0);
        assert_eq!(r.cut, 0);
    }
}
