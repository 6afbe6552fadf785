//! Multi-way (k-way) move-based partitioning: Sanchis-style FM without
//! lookahead, as used by the paper's quadrisection experiments (§III-C).
//!
//! The paper extends its multilevel code to 4-way partitioning using "the
//! quadrisection algorithm of Sanchis \[39\] but without lookahead", with
//! *sum of cluster degrees*, *net cut*, and generic gain computations; its
//! Table IX results use the sum-of-degrees gain. This crate implements the
//! move engine: per-destination gain buckets, k-way balance, pre-assigned
//! (fixed) modules for I/O pads, and pass-with-rollback semantics identical
//! to the 2-way engine.
//!
//! # Examples
//!
//! Quadrisect a ring of four cliques:
//!
//! ```
//! use mlpart_kway::{kway_partition, KwayConfig};
//! use mlpart_hypergraph::{HypergraphBuilder, rng::seeded_rng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = HypergraphBuilder::with_unit_areas(16);
//! for c in 0..4usize {
//!     for i in 0..4usize {
//!         for j in (i + 1)..4 {
//!             b.add_net([4 * c + i, 4 * c + j])?;
//!         }
//!     }
//!     b.add_net([4 * c + 3, (4 * c + 4) % 16])?; // ring links
//! }
//! let h = b.build()?;
//! let best = (0..8)
//!     .map(|s| {
//!         let mut rng = seeded_rng(s);
//!         kway_partition(&h, 4, None, &[], &KwayConfig::default(), &mut rng).1.cut
//!     })
//!     .min()
//!     .expect("eight runs");
//! assert_eq!(best, 4); // only the ring links are cut
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(feature = "audit")]
pub mod audit;

use mlpart_fm::{BucketPolicy, BudgetMeter, PassStats, RefineState, RefineWorkspace};
use mlpart_hypergraph::rng::MlRng;
use mlpart_hypergraph::{
    metrics, Hypergraph, KwayBalance, ModuleId, PartBounds, PartId, Partition,
};
use std::time::Instant;

/// Which gain computation drives the k-way engine (§III-C lists the paper's
/// three options; Table IX is reported with [`SumOfDegrees`](Self::SumOfDegrees)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KwayGain {
    /// Gain = reduction in `Σ_e (span(e) − 1)`. Moving a module out of a part
    /// where it is a net's lone pin shrinks that net's span; moving into a
    /// part the net does not touch grows it.
    #[default]
    SumOfDegrees,
    /// Gain = reduction in the number of cut nets. A net only scores when the
    /// move makes it entirely contained (or breaks containment), which gives
    /// sparser gradients than sum-of-degrees — the reason the paper prefers
    /// the latter for quadrisection.
    NetCut,
}

impl std::fmt::Display for KwayGain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KwayGain::SumOfDegrees => write!(f, "sum-of-degrees"),
            KwayGain::NetCut => write!(f, "net-cut"),
        }
    }
}

/// Configuration for [`kway_partition`] / [`kway_refine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KwayConfig {
    /// Gain computation (Table IX uses sum-of-degrees).
    pub gain: KwayGain,
    /// Bucket tie-breaking policy; LIFO as in the 2-way engine.
    pub policy: BucketPolicy,
    /// Balance tolerance `r` (generalized §III-B bounds).
    pub balance_r: f64,
    /// Nets with more pins than this are invisible to the engine.
    pub max_net_size: usize,
    /// Safety cap on passes.
    pub max_passes: usize,
}

impl Default for KwayConfig {
    fn default() -> Self {
        KwayConfig {
            gain: KwayGain::SumOfDegrees,
            policy: BucketPolicy::Lifo,
            balance_r: 0.1,
            max_net_size: 200,
            max_passes: 64,
        }
    }
}

/// Outcome of a k-way refinement run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KwayResult {
    /// Final net cut over all nets.
    pub cut: u64,
    /// Final `Σ_e (span(e) − 1)` over all nets.
    pub sum_of_degrees: u64,
    /// Number of passes executed.
    pub passes: usize,
    /// Moves kept after rollback, summed over passes.
    pub kept_moves: u64,
    /// Per-pass instrumentation (objective trajectory, move counts,
    /// bucket-fill time). One entry per executed pass.
    pub pass_stats: Vec<PassStats>,
}

/// Repairs an infeasible k-way partition under per-part `[lo, hi]`
/// windows: repeatedly moves a random non-fixed module from the part with
/// the worst upper-bound overflow to the part with the worst lower-bound
/// deficit until `bounds` holds (or no move can help). Draws from `rng` only
/// while the partition is infeasible. With uniform windows
/// ([`PartBounds::from_kway`]) the donor is the largest part and the
/// receiver the smallest, ties to the lowest part id.
///
/// [`kway_partition`] applies this to random starting solutions: on lumpy
/// area distributions the greedy random split can overfill a part, and
/// refinement alone cannot fix it (its best-prefix rollback may restore the
/// infeasible start).
///
/// # Panics
///
/// Panics if `bounds` does not have `p.k()` parts.
pub fn rebalance_to_bounds(
    h: &Hypergraph,
    p: &mut Partition,
    fixed: &[(ModuleId, PartId)],
    bounds: &PartBounds,
    rng: &mut MlRng,
) -> usize {
    use rand::Rng;
    let k = p.k();
    assert_eq!(bounds.k(), k, "bounds do not match partition k");
    let mut is_fixed = vec![false; h.num_modules()];
    for &(v, _) in fixed {
        is_fixed[v.index()] = true;
    }
    let mut moved = 0usize;
    let mut attempts = 0usize;
    let max_attempts = 4 * h.num_modules() + 16;
    while !bounds.is_partition_feasible(p) && attempts < max_attempts {
        attempts += 1;
        // Donor: the part furthest above its window (overflow is measured
        // against `hi`, with ties broken by lowest part id); receiver: the
        // part furthest below. Parts already inside their window still
        // donate/receive by the same signed slack when nobody violates.
        let (mut big, mut small) = (0u32, 0u32);
        let slack = |part: u32| p.part_area(part) as i128 - bounds.hi(part) as i128;
        let deficit = |part: u32| bounds.lo(part) as i128 - p.part_area(part) as i128;
        for part in 1..k {
            if slack(part) > slack(big) {
                big = part;
            }
            if deficit(part) > deficit(small) {
                small = part;
            }
        }
        if big == small {
            break;
        }
        let v = ModuleId::new(rng.gen_range(0..h.num_modules()));
        if p.part(v) == big && !is_fixed[v.index()] {
            p.move_module(h, v, small);
            moved += 1;
        }
    }
    moved
}

/// Partitions `h` into `k` parts, starting from `initial` (or a random
/// balanced solution), with `fixed` modules pinned to given parts (the
/// paper's I/O-pad pre-assignment).
///
/// Returns the partition and run statistics.
///
/// # Panics
///
/// Panics if `k == 0`, an initial partition has the wrong `k` or size, or a
/// fixed assignment references an out-of-range module or part.
pub fn kway_partition(
    h: &Hypergraph,
    k: u32,
    initial: Option<Partition>,
    fixed: &[(ModuleId, PartId)],
    cfg: &KwayConfig,
    rng: &mut MlRng,
) -> (Partition, KwayResult) {
    let mut ws = RefineWorkspace::new();
    let mut meter = BudgetMeter::unlimited();
    kway_partition_budgeted_in(h, k, initial, fixed, cfg, rng, &mut ws, &mut meter)
}

/// [`kway_partition`] with caller-owned scratch, accounting against a
/// caller-owned [`BudgetMeter`]: behaves identically to [`kway_partition`]
/// under an unlimited meter but reuses the allocations in `ws`. When the
/// meter is exhausted no refinement pass runs and the rebalanced starting
/// solution is returned as the best-so-far partition.
#[allow(clippy::too_many_arguments)]
pub fn kway_partition_budgeted_in(
    h: &Hypergraph,
    k: u32,
    initial: Option<Partition>,
    fixed: &[(ModuleId, PartId)],
    cfg: &KwayConfig,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> (Partition, KwayResult) {
    assert!(k > 0, "k must be positive");
    let mut p = match initial {
        Some(p) => {
            assert_eq!(p.k(), k, "initial partition has wrong k");
            assert_eq!(
                p.assignment().len(),
                h.num_modules(),
                "partition does not match hypergraph"
            );
            p
        }
        None => Partition::random(h, k, rng),
    };
    // Pin fixed modules to their parts before refinement begins.
    for &(v, part) in fixed {
        assert!(part < k, "fixed part id out of range");
        p.move_module(h, v, part);
    }
    // A lumpy random start (or the pinning above) can violate the bounds;
    // refinement alone cannot repair that, so fix feasibility first. No-op
    // (and no RNG draws) when the start is already feasible.
    let bounds = PartBounds::from_kway(&KwayBalance::new(h, k, cfg.balance_r));
    rebalance_to_bounds(h, &mut p, fixed, &bounds, rng);
    let result =
        kway_refine_constrained_budgeted_in(h, &mut p, fixed, cfg, &bounds, rng, ws, meter);
    (p, result)
}

/// Refines a k-way partition in place; see [`kway_partition`].
///
/// # Panics
///
/// Panics if `p` does not match `h`.
pub fn kway_refine(
    h: &Hypergraph,
    p: &mut Partition,
    fixed: &[(ModuleId, PartId)],
    cfg: &KwayConfig,
    rng: &mut MlRng,
) -> KwayResult {
    let mut ws = RefineWorkspace::new();
    kway_refine_budgeted_in(
        h,
        p,
        fixed,
        cfg,
        rng,
        &mut ws,
        &mut BudgetMeter::unlimited(),
    )
}

/// The k-way gain of moving `v` to part `to` under `cfg.gain`, computed from
/// the shared state's k-strided pin counts.
fn kway_gain(
    st: &RefineState,
    h: &Hypergraph,
    cfg: &KwayConfig,
    part_of: &[PartId],
    v: ModuleId,
    to: PartId,
) -> i32 {
    let k = st.k as usize;
    let from = part_of[v.index()] as usize;
    let mut g = 0i32;
    for &e in h.nets(v) {
        if !st.visible[e.index()] {
            continue;
        }
        let row = &st.pins_in[e.index() * k..(e.index() + 1) * k];
        let w = h.net_weight(e) as i32;
        match cfg.gain {
            KwayGain::SumOfDegrees => {
                if row[from] == 1 {
                    g += w;
                }
                if row[to as usize] == 0 {
                    g -= w;
                }
            }
            KwayGain::NetCut => {
                let size = h.net_size(e) as u32;
                if row[to as usize] == size - 1 {
                    g += w;
                }
                if row[from] == size {
                    g -= w;
                }
            }
        }
    }
    g
}

/// The engine objective over visible nets: weighted `Σ (span − 1)` for
/// sum-of-degrees, weighted cut for net-cut.
fn kway_objective(st: &RefineState, h: &Hypergraph, cfg: &KwayConfig, p: &Partition) -> u64 {
    match cfg.gain {
        KwayGain::SumOfDegrees => h
            .net_ids()
            .filter(|e| st.visible[e.index()])
            .map(|e| h.net_weight(e) as u64 * (metrics::net_span(h, p, e) as u64).saturating_sub(1))
            .sum(),
        KwayGain::NetCut => metrics::cut_with_net_size_limit(h, p, cfg.max_net_size),
    }
}

/// [`kway_refine`] with caller-owned scratch (bit-identical results, no
/// per-call allocation of the gain/bucket machinery) and a cooperative
/// budget checkpoint before every pass; mirrors `refine_budgeted_in` in the
/// 2-way engine. The shared [`RefineState`] is bound in its k-way shape:
/// `k` per-destination bucket structures and k-strided pin counts. A
/// budgeted run executes a prefix of the unbudgeted pass sequence, and each
/// pass keeps its best move prefix, so `p` always holds the best-so-far
/// solution.
#[allow(clippy::too_many_arguments)]
pub fn kway_refine_budgeted_in(
    h: &Hypergraph,
    p: &mut Partition,
    fixed: &[(ModuleId, PartId)],
    cfg: &KwayConfig,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> KwayResult {
    let bounds = PartBounds::from_kway(&KwayBalance::new(h, p.k(), cfg.balance_r));
    kway_refine_constrained_budgeted_in(h, p, fixed, cfg, &bounds, rng, ws, meter)
}

/// [`kway_refine_budgeted_in`] under explicit per-part `[lo, hi]` area
/// windows instead of the uniform ratio-derived bounds. With bounds built
/// via [`PartBounds::from_kway`] from the same tolerance this is
/// byte-identical to the ratio path — the windows then equal the legacy
/// `lower()`/`upper()` pair for every part.
///
/// # Panics
///
/// Panics if `p` does not match `h` or `bounds` does not have `p.k()` parts.
#[allow(clippy::too_many_arguments)]
pub fn kway_refine_constrained_budgeted_in(
    h: &Hypergraph,
    p: &mut Partition,
    fixed: &[(ModuleId, PartId)],
    cfg: &KwayConfig,
    bounds: &PartBounds,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> KwayResult {
    assert_eq!(
        p.assignment().len(),
        h.num_modules(),
        "partition does not match hypergraph"
    );
    let k = p.k();
    assert_eq!(bounds.k(), k, "bounds do not match partition k");
    let st = &mut ws.state;
    let max_vis_weight = st.bind_nets(h, k, cfg.max_net_size);
    assert!(
        max_vis_weight <= i32::MAX as i64 / 4,
        "net weights too large for the bucket structure"
    );
    st.bind_modules(h, k as usize, max_vis_weight as i32, cfg.policy);
    for &(v, _) in fixed {
        st.fixed[v.index()] = true;
    }
    let _obs_span = mlpart_obs::span(
        "kway_refine",
        &[
            ("k", u64::from(k).into()),
            ("modules", h.num_modules().into()),
        ],
    );

    let mut passes = 0usize;
    let mut kept_moves = 0u64;
    let mut pass_stats = Vec::new();
    while passes < cfg.max_passes {
        if !meter.pass_checkpoint(passes as u32) {
            break;
        }
        passes += 1;
        // --- Reinitialize per-pass state. ---
        let fill_start = Instant::now();
        st.pins_in.fill(0);
        for e in h.net_ids() {
            if !st.visible[e.index()] {
                continue;
            }
            for &v in h.pins(e) {
                st.pins_in[e.index() * k as usize + p.part(v) as usize] += 1;
            }
        }
        st.locked.fill(false);
        st.moves.clear();
        for b in &mut st.buckets {
            b.clear();
        }
        {
            let part_of = p.assignment();
            for v in h.modules() {
                if st.fixed[v.index()] {
                    continue;
                }
                for t in 0..k {
                    if t != part_of[v.index()] {
                        let g = kway_gain(st, h, cfg, part_of, v, t);
                        st.buckets[t as usize].insert(v, g);
                    }
                }
            }
        }
        let fill_time_ns = fill_start.elapsed().as_nanos() as u64;
        // Post-fill gain distribution and total bucket occupancy, sampled
        // only when a trace is recording (the scan re-reads stored keys, so
        // it cannot perturb the pass).
        let obs_fill = mlpart_obs::recording().then(|| {
            let (mut neg, mut zero, mut pos) = (0u64, 0u64, 0u64);
            let (mut gmin, mut gmax) = (0i64, 0i64);
            let part_of = p.assignment();
            for v in h.modules() {
                if st.fixed[v.index()] {
                    continue;
                }
                for t in 0..k {
                    if t != part_of[v.index()] {
                        let g = i64::from(st.buckets[t as usize].key_of(v));
                        match g.cmp(&0) {
                            std::cmp::Ordering::Less => neg += 1,
                            std::cmp::Ordering::Equal => zero += 1,
                            std::cmp::Ordering::Greater => pos += 1,
                        }
                        gmin = gmin.min(g);
                        gmax = gmax.max(g);
                    }
                }
            }
            let occupancy: u64 = st.buckets.iter().map(|b| b.len() as u64).sum();
            (occupancy, gmin, gmax, neg, zero, pos)
        });
        let start_obj = kway_objective(st, h, cfg, p);
        #[cfg(feature = "audit")]
        if mlpart_audit::enabled() {
            mlpart_audit::enforce(
                audit::audit_pass_start(st, h, p, cfg, start_obj).map_err(|e| e.with_pass(passes)),
            );
        }
        let mut obj = start_obj as i64;
        let mut best_obj = obj;
        let mut best_len = 0usize;

        // --- Move loop. ---
        loop {
            // Probe each destination's best feasible candidate; take the max.
            let mut pick: Option<(i32, PartId, ModuleId)> = None;
            for t in 0..k {
                let part_of = p.assignment();
                let areas = h.areas();
                let area_t = p.part_area(t);
                let part_areas = p.part_areas().to_vec();
                let cand = st.buckets[t as usize].select_where(rng, |v| {
                    let a = areas[v.index()];
                    let from = part_of[v.index()];
                    area_t + a <= bounds.hi(t) && part_areas[from as usize] - a >= bounds.lo(from)
                });
                if let Some(v) = cand {
                    let key = st.buckets[t as usize].key_of(v);
                    match pick {
                        Some((bk, _, _)) if bk >= key => {}
                        _ => pick = Some((key, t, v)),
                    }
                }
            }
            let Some((gain, to, v)) = pick else { break };
            let from = p.part(v);
            // Execute the move.
            for b in &mut st.buckets {
                if b.contains(v) {
                    b.remove(v);
                }
            }
            st.locked[v.index()] = true;
            p.move_module(h, v, to);
            obj -= gain as i64;
            st.moves.push((v, from));

            // Update pin counts, then recompute gains of affected neighbors.
            let stamp_val = st.moves.len() as u32;
            for &e in h.nets(v) {
                if !st.visible[e.index()] {
                    continue;
                }
                st.pins_in[e.index() * k as usize + from as usize] -= 1;
                st.pins_in[e.index() * k as usize + to as usize] += 1;
            }
            for &e in h.nets(v) {
                if !st.visible[e.index()] {
                    continue;
                }
                for &w in h.pins(e) {
                    if w == v
                        || st.locked[w.index()]
                        || st.fixed[w.index()]
                        || st.stamp[w.index()] == stamp_val
                    {
                        continue;
                    }
                    st.stamp[w.index()] = stamp_val;
                    let part_of = p.assignment();
                    for t in 0..k {
                        if t != part_of[w.index()] {
                            let g = kway_gain(st, h, cfg, part_of, w, t);
                            st.buckets[t as usize].update_key(w, g);
                        }
                    }
                }
            }
            if obj < best_obj {
                best_obj = obj;
                best_len = st.moves.len();
            }
        }
        // --- Rollback to the best prefix. ---
        let attempted = st.moves.len();
        for &(v, from) in st.moves[best_len..].iter().rev() {
            p.move_module(h, v, from);
        }
        kept_moves += best_len as u64;
        // In audit builds the rollback invariant runs in release too (the
        // debug_assert below is debug-only).
        #[cfg(feature = "audit")]
        if mlpart_audit::enabled() {
            mlpart_audit::enforce(
                audit::audit_pass_end(st, h, p, cfg, best_obj).map_err(|e| e.with_pass(passes)),
            );
        }
        debug_assert_eq!(kway_objective(st, h, cfg, p) as i64, best_obj);
        meter.note_pass(attempted as u64);
        pass_stats.push(PassStats {
            cut_before: start_obj,
            cut_after: best_obj as u64,
            attempted_moves: attempted,
            kept_moves: best_len,
            fill_time_ns,
        });
        if let Some((occupancy, gmin, gmax, neg, zero, pos)) = obs_fill {
            mlpart_obs::counter(
                "kway_pass",
                &[
                    ("pass", (passes as u64 - 1).into()),
                    ("cut_before", start_obj.into()),
                    ("cut_after", (best_obj as u64).into()),
                    ("attempted", (attempted as u64).into()),
                    ("kept", (best_len as u64).into()),
                    ("rolled_back", ((attempted - best_len) as u64).into()),
                    ("bucket_occupancy", occupancy.into()),
                    ("gain_min", gmin.into()),
                    ("gain_max", gmax.into()),
                    ("gain_neg", neg.into()),
                    ("gain_zero", zero.into()),
                    ("gain_pos", pos.into()),
                ],
            );
        }
        if best_obj >= start_obj as i64 {
            break;
        }
        // Stamps are per-move within a pass; reset between passes so the
        // move counter can restart at 1.
        st.stamp.fill(u32::MAX);
    }

    KwayResult {
        cut: metrics::cut(h, p),
        sum_of_degrees: metrics::sum_of_spans_minus_one(h, p),
        passes,
        kept_moves,
        pass_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::HypergraphBuilder;

    /// Four 4-cliques in a ring: optimal quadrisection cuts the 4 ring nets.
    fn ring_of_cliques() -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(16);
        for c in 0..4usize {
            for i in 0..4usize {
                for j in (i + 1)..4 {
                    b.add_net([4 * c + i, 4 * c + j]).unwrap();
                }
            }
            b.add_net([4 * c + 3, (4 * c + 4) % 16]).unwrap();
        }
        b.build().unwrap()
    }

    fn best_of<F: FnMut(u64) -> u64>(runs: u64, f: F) -> u64 {
        (0..runs).map(f).min().unwrap()
    }

    #[test]
    fn quadrisection_finds_ring_optimum_sod() {
        let h = ring_of_cliques();
        let cfg = KwayConfig::default();
        let best = best_of(10, |s| {
            let mut rng = seeded_rng(s);
            kway_partition(&h, 4, None, &[], &cfg, &mut rng).1.cut
        });
        assert_eq!(best, 4);
    }

    #[test]
    fn quadrisection_finds_ring_optimum_netcut() {
        let h = ring_of_cliques();
        let cfg = KwayConfig {
            gain: KwayGain::NetCut,
            ..KwayConfig::default()
        };
        let best = best_of(10, |s| {
            let mut rng = seeded_rng(100 + s);
            kway_partition(&h, 4, None, &[], &cfg, &mut rng).1.cut
        });
        assert_eq!(best, 4);
    }

    #[test]
    fn respects_kway_balance() {
        let h = ring_of_cliques();
        let cfg = KwayConfig::default();
        let bal = KwayBalance::new(&h, 4, cfg.balance_r);
        for seed in 0..5 {
            let mut rng = seeded_rng(seed);
            let (p, _) = kway_partition(&h, 4, None, &[], &cfg, &mut rng);
            assert!(
                bal.is_partition_feasible(&p),
                "seed {seed}: {:?}",
                p.part_areas()
            );
            assert!(p.validate(&h));
        }
    }

    #[test]
    fn k2_matches_bipartition_semantics() {
        // k=2 net-cut engine should find the dumbbell optimum.
        let mut b = HypergraphBuilder::with_unit_areas(8);
        for i in 0..4usize {
            for j in (i + 1)..4 {
                b.add_net([i, j]).unwrap();
                b.add_net([i + 4, j + 4]).unwrap();
            }
        }
        b.add_net([3, 4]).unwrap();
        let h = b.build().unwrap();
        let cfg = KwayConfig {
            gain: KwayGain::NetCut,
            ..KwayConfig::default()
        };
        let best = best_of(8, |s| {
            let mut rng = seeded_rng(s);
            kway_partition(&h, 2, None, &[], &cfg, &mut rng).1.cut
        });
        assert_eq!(best, 1);
    }

    #[test]
    fn fixed_modules_never_move() {
        let h = ring_of_cliques();
        let cfg = KwayConfig::default();
        let fixed: Vec<(ModuleId, PartId)> = vec![(ModuleId::new(0), 3), (ModuleId::new(5), 2)];
        for seed in 0..5 {
            let mut rng = seeded_rng(seed);
            let (p, _) = kway_partition(&h, 4, None, &fixed, &cfg, &mut rng);
            assert_eq!(p.part(ModuleId::new(0)), 3);
            assert_eq!(p.part(ModuleId::new(5)), 2);
        }
    }

    #[test]
    fn refine_never_worsens_objective() {
        let h = ring_of_cliques();
        let cfg = KwayConfig::default();
        let mut rng = seeded_rng(11);
        let p0 = Partition::random(&h, 4, &mut rng);
        let start_sod = metrics::sum_of_spans_minus_one(&h, &p0);
        let mut p = p0;
        let r = kway_refine(&h, &mut p, &[], &cfg, &mut rng);
        assert!(r.sum_of_degrees <= start_sod);
        assert_eq!(r.cut, metrics::cut(&h, &p));
        assert_eq!(r.sum_of_degrees, metrics::sum_of_spans_minus_one(&h, &p));
    }

    #[test]
    fn result_statistics_consistent() {
        let h = ring_of_cliques();
        let mut rng = seeded_rng(13);
        let (p, r) = kway_partition(&h, 4, None, &[], &KwayConfig::default(), &mut rng);
        assert!(r.passes >= 1);
        assert!(r.cut <= r.sum_of_degrees);
        assert!(p.validate(&h));
    }

    #[test]
    fn deterministic_given_seed() {
        let h = ring_of_cliques();
        let run = |seed| {
            let mut rng = seeded_rng(seed);
            kway_partition(&h, 4, None, &[], &KwayConfig::default(), &mut rng)
        };
        let (p1, r1) = run(21);
        let (p2, r2) = run(21);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn rejects_zero_k() {
        let h = ring_of_cliques();
        let mut rng = seeded_rng(0);
        let _ = kway_partition(&h, 0, None, &[], &KwayConfig::default(), &mut rng);
    }

    #[test]
    #[should_panic(expected = "fixed part id out of range")]
    fn rejects_bad_fixed_part() {
        let h = ring_of_cliques();
        let mut rng = seeded_rng(0);
        let _ = kway_partition(
            &h,
            4,
            None,
            &[(ModuleId::new(0), 9)],
            &KwayConfig::default(),
            &mut rng,
        );
    }

    #[test]
    fn trivial_inputs() {
        let h = HypergraphBuilder::with_unit_areas(3).build().unwrap();
        let mut rng = seeded_rng(0);
        let (p, r) = kway_partition(&h, 4, None, &[], &KwayConfig::default(), &mut rng);
        assert_eq!(r.cut, 0);
        assert!(p.validate(&h));
    }

    #[test]
    fn constrained_with_legacy_bounds_is_byte_identical() {
        let h = ring_of_cliques();
        let cfg = KwayConfig::default();
        for seed in 0..5 {
            let p0 = Partition::random(&h, 4, &mut seeded_rng(500 + seed));
            let bounds = PartBounds::from_kway(&KwayBalance::new(&h, 4, cfg.balance_r));
            let mut p_legacy = p0.clone();
            let mut p_new = p0.clone();
            let r_legacy = kway_refine(&h, &mut p_legacy, &[], &cfg, &mut seeded_rng(seed));
            let r_new = kway_refine_constrained_budgeted_in(
                &h,
                &mut p_new,
                &[],
                &cfg,
                &bounds,
                &mut seeded_rng(seed),
                &mut RefineWorkspace::new(),
                &mut BudgetMeter::unlimited(),
            );
            assert_eq!(p_legacy.assignment(), p_new.assignment(), "seed {seed}");
            assert_eq!(r_legacy, r_new, "seed {seed}");
        }
    }

    #[test]
    fn asymmetric_windows_are_respected() {
        let h = ring_of_cliques();
        let cfg = KwayConfig::default();
        // Part 0 must stay small (≤ 3), part 3 must stay large (≥ 5).
        let bounds = PartBounds::new(vec![1, 1, 1, 5], vec![3, 8, 8, 8]);
        for seed in 0..5 {
            let mut p = Partition::random(&h, 4, &mut seeded_rng(seed));
            rebalance_to_bounds(&h, &mut p, &[], &bounds, &mut seeded_rng(777 + seed));
            if !bounds.is_partition_feasible(&p) {
                continue; // random repair can stall; skip this seed
            }
            let _ = kway_refine_constrained_budgeted_in(
                &h,
                &mut p,
                &[],
                &cfg,
                &bounds,
                &mut seeded_rng(seed),
                &mut RefineWorkspace::new(),
                &mut BudgetMeter::unlimited(),
            );
            assert!(
                bounds.is_partition_feasible(&p),
                "seed {seed}: {:?}",
                p.part_areas()
            );
        }
    }

    #[test]
    fn rebalance_to_bounds_repairs_overflow() {
        let h = ring_of_cliques();
        // Everything crammed into part 0.
        let mut p = Partition::from_assignment(&h, 4, vec![0; 16]).unwrap();
        let bounds = PartBounds::uniform(4, 2, 6);
        let mut rng = seeded_rng(5);
        let moved = rebalance_to_bounds(&h, &mut p, &[], &bounds, &mut rng);
        assert!(moved > 0);
        assert!(bounds.is_partition_feasible(&p), "{:?}", p.part_areas());
        assert!(p.validate(&h));
    }

    #[test]
    fn rebalance_to_bounds_feasible_start_draws_no_rng() {
        let h = ring_of_cliques();
        let mut p =
            Partition::from_assignment(&h, 4, (0..16).map(|i| (i / 4) as u32).collect()).unwrap();
        let bounds = PartBounds::uniform(4, 2, 6);
        let mut rng = seeded_rng(5);
        let moved = rebalance_to_bounds(&h, &mut p, &[], &bounds, &mut rng);
        assert_eq!(moved, 0);
        // The stream is untouched: a fresh rng from the same seed agrees.
        use rand::Rng;
        let mut fresh = seeded_rng(5);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>());
    }

    #[test]
    fn large_nets_ignored_but_counted() {
        let mut b = HypergraphBuilder::with_unit_areas(8);
        b.add_net(0..8).unwrap(); // 8-pin net invisible when limit = 4
        b.add_net([0, 1]).unwrap();
        b.add_net([2, 3]).unwrap();
        let h = b.build().unwrap();
        let cfg = KwayConfig {
            max_net_size: 4,
            ..KwayConfig::default()
        };
        let mut rng = seeded_rng(2);
        let (p, r) = kway_partition(&h, 4, None, &[], &cfg, &mut rng);
        assert_eq!(r.cut, metrics::cut(&h, &p));
        assert!(r.cut >= 1, "the 8-pin net must be cut across 4 parts");
    }
}
