//! The `FMPartition` refinement engine: Fiduccia-Mattheyses passes with
//! LIFO/FIFO/Random buckets and the CLIP variant.
//!
//! This is the iterative-improvement core the paper plugs into its multilevel
//! algorithm (Fig. 2, steps 6 and 9). Faithful details:
//!
//! * **Pass structure** (§I): modules move one at a time, each at most once
//!   per pass; the best prefix of the move sequence is kept; passes repeat
//!   until one fails to improve.
//! * **Balance** (§III-B): side areas bounded by `A(V)/2 ± max(A(v*), r·A(V))`
//!   ([`BipartBalance`]); every prefix of the move sequence is feasible
//!   because each move is feasibility-checked.
//! * **Large nets** (§III-B): nets with more than
//!   [`max_net_size`](FmConfig::max_net_size) (default 200) pins are ignored
//!   by the engine and re-inserted when measuring solution quality.
//! * **CLIP** (§II-B, after Dutt-Deng): after initial gains are computed the
//!   buckets are concatenated in descending-gain order into bucket zero, so
//!   selection is driven by *gain deltas* since the pass began; the bucket
//!   index range doubles.
//!
//! The paper's §V future-work items are available as options:
//! [`FmConfig::boundary_init`] (only modules on cut nets enter the buckets
//! initially) and [`FmConfig::early_exit_stall`] (abandon a pass after a run
//! of non-improving moves).

use crate::bucket::BucketPolicy;
use crate::budget::BudgetMeter;
use crate::state::{PassStats, RefineState, RefineWorkspace};
use mlpart_hypergraph::rng::MlRng;
use mlpart_hypergraph::{
    metrics, BipartBalance, Hypergraph, ModuleId, NetId, PartBounds, Partition,
};
use std::time::Instant;

/// Which gain discipline drives module selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Classic Fiduccia-Mattheyses: select by current total gain.
    #[default]
    Fm,
    /// CLIP (CLuster-oriented Iterative-improvement Partitioner): select by
    /// gain *change* since the start of the pass, seeding bucket zero in
    /// descending initial-gain order. Averages 18% improvement over FM in
    /// Dutt-Deng's experiments and similar gains in the paper's Table III.
    Clip,
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Fm => write!(f, "FM"),
            Engine::Clip => write!(f, "CLIP"),
        }
    }
}

/// Configuration for [`fm_partition`] and [`refine`].
///
/// The defaults reproduce the paper's experimental setup: LIFO buckets,
/// classic FM gains, balance tolerance `r = 0.1`, nets over 200 pins ignored,
/// passes until no improvement.
///
/// # Examples
///
/// ```
/// use mlpart_fm::{FmConfig, Engine, BucketPolicy};
///
/// let cfg = FmConfig {
///     engine: Engine::Clip,
///     policy: BucketPolicy::Lifo,
///     ..FmConfig::default()
/// };
/// assert_eq!(cfg.balance_r, 0.1);
/// assert_eq!(cfg.max_net_size, 200);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FmConfig {
    /// FM or CLIP gain discipline.
    pub engine: Engine,
    /// Bucket tie-breaking policy (Table II compares these).
    pub policy: BucketPolicy,
    /// Balance tolerance `r`; the paper's experiments use `0.1`.
    pub balance_r: f64,
    /// Nets with more pins than this are invisible to the engine (§III-B).
    pub max_net_size: usize,
    /// Safety cap on the number of passes; convergence (a pass with no
    /// improvement) almost always terminates far earlier.
    pub max_passes: usize,
    /// §V extension: if `Some(s)`, a pass is abandoned after `s` consecutive
    /// moves without a new best solution (Chaco/Metis-style early exit).
    pub early_exit_stall: Option<usize>,
    /// §V extension: initialize buckets with only the modules incident to cut
    /// nets; other modules enter the structure when a neighboring move first
    /// changes their gain.
    pub boundary_init: bool,
    /// §V extension: between passes, repair only the gains of modules
    /// touched by the previous pass instead of recomputing every gain ("if
    /// only a few modules were moved during a pass, then only these modules
    /// and their neighbors need to be updated"). Produces *identical*
    /// results to the full reinitialization, only faster on converged
    /// passes.
    pub incremental_reinit: bool,
    /// §II-B extension (Dutt-Deng's CDIP): when the move sequence since the
    /// last best solution accumulates `Some(window)` moves without a new
    /// best, the sequence is rolled back, its first module is locked out,
    /// and the pass continues from a different seed — "backing up ...
    /// prevents continuing an entire pass in which positive gain is unlikely
    /// to be realized". `None` (the default) disables backtracking.
    pub cdip_window: Option<usize>,
    /// §V extension: Krishnamurthy-style lookahead tie-breaking. Among the
    /// feasible modules of the best bucket, pick the one whose move creates
    /// the most follow-up gain for its neighbors (second-level gain:
    /// `Σ_e [pins_from(e) = 2] − [pins_to(e) = 1]`). The paper notes that
    /// lookahead does not help plain-LIFO FM but "its impact increases
    /// dramatically when using CLIP"; it costs extra selection time.
    pub lookahead: bool,
}

impl Default for FmConfig {
    fn default() -> Self {
        FmConfig {
            engine: Engine::Fm,
            policy: BucketPolicy::Lifo,
            balance_r: 0.1,
            max_net_size: 200,
            max_passes: 64,
            early_exit_stall: None,
            boundary_init: false,
            incremental_reinit: false,
            cdip_window: None,
            lookahead: false,
        }
    }
}

/// Outcome of a refinement run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FmResult {
    /// Final cut measured over **all** nets (large nets re-inserted).
    pub cut: u64,
    /// Final cut over engine-visible nets only (`net size ≤ max_net_size`).
    pub internal_cut: u64,
    /// Number of passes executed.
    pub passes: usize,
    /// Total accepted (kept after rollback) module moves.
    pub kept_moves: u64,
    /// Total attempted module moves across all passes.
    pub attempted_moves: u64,
    /// Per-pass instrumentation: cut trajectory, move counts, bucket-fill
    /// time. One entry per executed pass.
    pub pass_stats: Vec<PassStats>,
}

/// The paper's `FMPartition(H, P)` (Fig. 2): refines an initial solution, or
/// starts from a random one when `initial` is `None`.
///
/// Returns the refined partition and run statistics.
///
/// # Panics
///
/// Panics if an `initial` partition is supplied with `k != 2` or with an
/// assignment length that does not match `h`.
///
/// # Examples
///
/// ```
/// use mlpart_fm::{fm_partition, FmConfig};
/// use mlpart_hypergraph::{HypergraphBuilder, rng::seeded_rng, metrics};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::with_unit_areas(8);
/// for w in [[0, 1], [1, 2], [2, 3], [4, 5], [5, 6], [6, 7], [3, 4]] {
///     b.add_net(w)?;
/// }
/// let h = b.build()?;
/// let mut rng = seeded_rng(1);
/// let (p, result) = fm_partition(&h, None, &FmConfig::default(), &mut rng);
/// assert_eq!(result.cut, metrics::cut(&h, &p));
/// assert_eq!(result.cut, 1); // the chain graph has a width-1 bisection
/// # Ok(())
/// # }
/// ```
pub fn fm_partition(
    h: &Hypergraph,
    initial: Option<Partition>,
    cfg: &FmConfig,
    rng: &mut MlRng,
) -> (Partition, FmResult) {
    let mut ws = RefineWorkspace::new();
    fm_partition_budgeted_in(h, initial, cfg, rng, &mut ws, &mut BudgetMeter::unlimited())
}

/// [`fm_partition`] with caller-owned scratch, accounting against a
/// caller-owned [`BudgetMeter`]: behaves identically to [`fm_partition`]
/// under an unlimited meter but reuses the allocations in `ws` (multilevel
/// drivers refine every level of the V-cycle through one workspace). When
/// the meter is exhausted no refinement pass runs and the (rebalanced)
/// initial partition is returned as the best-so-far solution.
pub fn fm_partition_budgeted_in(
    h: &Hypergraph,
    initial: Option<Partition>,
    cfg: &FmConfig,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> (Partition, FmResult) {
    let mut p = match initial {
        Some(p) => {
            assert_eq!(p.k(), 2, "fm_partition requires a bipartition");
            assert_eq!(
                p.assignment().len(),
                h.num_modules(),
                "partition does not match hypergraph"
            );
            p
        }
        None => Partition::random(h, 2, rng),
    };
    let result = refine_budgeted_in(h, &mut p, cfg, rng, ws, meter);
    (p, result)
}

/// Refines a bipartition in place; see [`fm_partition`] for semantics.
///
/// # Panics
///
/// Panics if `p` is not a bipartition of `h`.
pub fn refine(h: &Hypergraph, p: &mut Partition, cfg: &FmConfig, rng: &mut MlRng) -> FmResult {
    let mut ws = RefineWorkspace::new();
    refine_budgeted_in(h, p, cfg, rng, &mut ws, &mut BudgetMeter::unlimited())
}

/// [`refine`] with caller-owned scratch (bit-identical results, no per-call
/// allocation of the gain/bucket machinery) and a cooperative budget
/// checkpoint before every pass.
///
/// The pass loop consults `meter` at each pass boundary and stops early
/// when a limit fires, so a budgeted run executes a prefix of the
/// unbudgeted pass sequence and the partition left in `p` is the best
/// solution found so far (each pass keeps its best move prefix). The
/// truncation record, if any, is available from the meter.
pub fn refine_budgeted_in(
    h: &Hypergraph,
    p: &mut Partition,
    cfg: &FmConfig,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> FmResult {
    let bounds = PartBounds::from_bipart(&BipartBalance::new(h, cfg.balance_r));
    refine_constrained_budgeted_in(h, p, cfg, &bounds, &[], rng, ws, meter)
}

/// [`refine_budgeted_in`] under explicit constraints: per-part `[lo, hi]`
/// area windows instead of the ratio-derived §III-B bounds, plus a set of
/// *fixed* modules that never move (one flag per module; pass an empty slice
/// for none). Fixed modules are excluded from the gain buckets for the whole
/// run — they are never selected, so every prefix of the move sequence
/// leaves them on the part the initial partition assigns.
///
/// With bounds derived via [`PartBounds::from_bipart`] from the same
/// tolerance and an empty fixed set, this is byte-identical to
/// [`refine_budgeted_in`].
///
/// # Panics
///
/// Panics if `p` is not a bipartition of `h`, `bounds` is not 2-part, or
/// `fixed` is non-empty with the wrong length.
#[allow(clippy::too_many_arguments)]
pub fn refine_constrained_budgeted_in(
    h: &Hypergraph,
    p: &mut Partition,
    cfg: &FmConfig,
    bounds: &PartBounds,
    fixed: &[bool],
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> FmResult {
    assert_eq!(p.k(), 2, "refine requires a bipartition");
    assert_eq!(
        p.assignment().len(),
        h.num_modules(),
        "partition does not match hypergraph"
    );
    assert_eq!(bounds.k(), 2, "refine requires 2-part bounds");
    if !fixed.is_empty() {
        assert_eq!(fixed.len(), h.num_modules(), "fixed mask has wrong length");
    }
    let st = &mut ws.state;
    bind_bipart(st, h, cfg);
    if !fixed.is_empty() {
        st.fixed.copy_from_slice(fixed);
    }
    let _obs_span = mlpart_obs::span(
        "fm_refine",
        &[
            (
                "engine",
                match cfg.engine {
                    Engine::Fm => "FM",
                    Engine::Clip => "CLIP",
                }
                .into(),
            ),
            ("modules", h.num_modules().into()),
        ],
    );
    let mut passes = 0;
    let mut kept_moves = 0u64;
    let mut attempted_moves = 0u64;
    let mut pass_stats = Vec::new();
    while passes < cfg.max_passes {
        if !meter.pass_checkpoint(passes as u32) {
            break;
        }
        let outcome = st.run_pass(h, p, cfg, bounds, rng, passes);
        passes += 1;
        meter.note_pass(outcome.stats.attempted_moves as u64);
        kept_moves += outcome.stats.kept_moves as u64;
        attempted_moves += outcome.stats.attempted_moves as u64;
        pass_stats.push(outcome.stats);
        if !outcome.improved {
            break;
        }
    }
    FmResult {
        cut: metrics::cut(h, p),
        internal_cut: metrics::cut_with_net_size_limit(h, p, cfg.max_net_size),
        passes,
        kept_moves,
        attempted_moves,
        pass_stats,
    }
}

/// Binds the shared state to `h` in its 2-way shape: one bucket structure,
/// key range from the max visible incident weight (doubled for CLIP deltas).
fn bind_bipart(st: &mut RefineState, h: &Hypergraph, cfg: &FmConfig) {
    let max_vis_weight = st.bind_nets(h, 2, cfg.max_net_size);
    assert!(
        max_vis_weight <= i32::MAX as i64 / 4,
        "net weights too large for the bucket structure"
    );
    let max_vis_weight = max_vis_weight as i32;
    let max_key = match cfg.engine {
        Engine::Fm => max_vis_weight,
        Engine::Clip => 2 * max_vis_weight,
    };
    st.bind_modules(h, 1, max_key, cfg.policy);
}

struct PassOutcome {
    improved: bool,
    stats: PassStats,
}

/// The 2-way pass algorithm, implemented over the shared [`RefineState`].
/// The state's `pins_in` is 2-strided (`pins_in[2e + side]`) and
/// `buckets[0]` is the single bucket structure — moves always target the
/// other side, so per-destination buckets are unnecessary at `k = 2`.
impl RefineState {
    /// Recomputes `pins_in` and `gain` from scratch (the paper's
    /// implementation reinitializes the entire structure before each pass).
    /// Returns the visible-net (weighted) cut.
    fn recompute(&mut self, h: &Hypergraph, p: &Partition) -> u64 {
        let mut cut = 0u64;
        for e in h.net_ids() {
            if !self.visible[e.index()] {
                continue;
            }
            let mut counts = [0u32, 0];
            for &v in h.pins(e) {
                counts[p.part(v) as usize] += 1;
            }
            self.pins_in[2 * e.index()] = counts[0];
            self.pins_in[2 * e.index() + 1] = counts[1];
            if counts[0] > 0 && counts[1] > 0 {
                cut += h.net_weight(e) as u64;
            }
        }
        for v in h.modules() {
            let s = p.part(v) as usize;
            let o = 1 - s;
            let mut g = 0i32;
            for &e in h.nets(v) {
                if !self.visible[e.index()] {
                    continue;
                }
                let w = h.net_weight(e) as i32;
                if self.pins_in[2 * e.index() + s] == 1 {
                    g += w;
                }
                if self.pins_in[2 * e.index() + o] == 0 {
                    g -= w;
                }
            }
            self.gain[v.index()] = g;
            self.gain0[v.index()] = g;
        }
        cut
    }

    /// Recomputes `gain[v]` from the current `pins_in` (used when a module
    /// re-enters the structure after a CDIP rollback; its stored gain went
    /// stale while it was locked).
    fn recompute_gain_of(&mut self, h: &Hypergraph, p: &Partition, v: ModuleId) {
        let s = p.part(v) as usize;
        let o = 1 - s;
        let mut g = 0i32;
        for &e in h.nets(v) {
            if !self.visible[e.index()] {
                continue;
            }
            let w = h.net_weight(e) as i32;
            if self.pins_in[2 * e.index() + s] == 1 {
                g += w;
            }
            if self.pins_in[2 * e.index() + o] == 0 {
                g -= w;
            }
        }
        self.gain[v.index()] = g;
    }

    fn bucket_key(&self, v: ModuleId, engine: Engine) -> i32 {
        match engine {
            Engine::Fm => self.gain[v.index()],
            Engine::Clip => self.gain[v.index()] - self.gain0[v.index()],
        }
    }

    /// Loads the bucket structure for a fresh pass.
    fn fill_buckets(&mut self, h: &Hypergraph, p: &Partition, cfg: &FmConfig) {
        self.buckets[0].clear();
        // Which modules enter initially? Fixed modules never do.
        let eligible = |ctx: &Self, v: ModuleId| -> bool {
            if ctx.fixed[v.index()] {
                return false;
            }
            if !cfg.boundary_init {
                return true;
            }
            h.nets(v).iter().any(|e| {
                ctx.visible[e.index()]
                    && ctx.pins_in[2 * e.index()] > 0
                    && ctx.pins_in[2 * e.index() + 1] > 0
            })
        };
        match cfg.engine {
            Engine::Fm => {
                for v in h.modules() {
                    if eligible(self, v) {
                        self.buckets[0].insert(v, self.gain[v.index()]);
                    }
                }
            }
            Engine::Clip => {
                // Concatenate in descending initial gain into bucket 0. For
                // LIFO (insert-at-head) we insert ascending so the largest
                // initial gain ends at the head; FIFO/Random append at the
                // tail so we insert descending.
                let mut order: Vec<ModuleId> = h.modules().filter(|&v| eligible(self, v)).collect();
                order.sort_by_key(|v| self.gain0[v.index()]);
                match cfg.policy {
                    BucketPolicy::Lifo => {
                        for &v in &order {
                            self.buckets[0].insert(v, 0);
                        }
                    }
                    BucketPolicy::Fifo | BucketPolicy::Random => {
                        for &v in order.iter().rev() {
                            self.buckets[0].insert(v, 0);
                        }
                    }
                }
            }
        }
        let _ = p;
    }

    /// Applies the FM incremental gain-update rules for moving `v` across the
    /// cut; updates `pins_in`, neighbor gains, buckets and the running cut.
    fn apply_move(
        &mut self,
        h: &Hypergraph,
        p: &mut Partition,
        v: ModuleId,
        cfg: &FmConfig,
        cut: &mut u64,
    ) {
        self.locked[v.index()] = true;
        if self.buckets[0].contains(v) {
            self.buckets[0].remove(v);
        }
        if cfg.incremental_reinit {
            // Everything whose gain a move can invalidate: the mover and
            // every pin sharing a visible net with it.
            self.touched.push(v.raw());
            for &e in h.nets(v) {
                if self.visible[e.index()] {
                    self.touched.extend(h.pins(e).iter().map(|w| w.raw()));
                }
            }
        }
        self.shift_module(h, p, v, cfg, cut);
    }

    /// The raw state updates of moving `v` to the other side: partition,
    /// `pins_in`, neighbor gains, running cut. Shared by forward moves and
    /// CDIP's backtracking undo (the updates are their own inverse).
    fn shift_module(
        &mut self,
        h: &Hypergraph,
        p: &mut Partition,
        v: ModuleId,
        cfg: &FmConfig,
        cut: &mut u64,
    ) {
        let from = p.part(v) as usize;
        let to = 1 - from;
        p.move_module(h, v, to as u32);
        for &e in h.nets(v) {
            if !self.visible[e.index()] {
                continue;
            }
            let ei = e.index();
            let w = h.net_weight(e) as i32;
            // Before the pin flip.
            let t_before = self.pins_in[2 * ei + to];
            if t_before == 0 {
                *cut += w as u64;
                // Net was uncut on `from`; every other pin gains desire to
                // follow (their "net becomes uncut if I move" term appears).
                self.bump_net_gains(h, e, v, w, cfg);
            } else if t_before == 1 {
                // The lone pin on `to` no longer saves the net by moving.
                self.bump_single_side_gain(h, p, e, v, to as u32, -w, cfg);
            }
            self.pins_in[2 * ei + from] -= 1;
            self.pins_in[2 * ei + to] += 1;
            // After the pin flip.
            let f_after = self.pins_in[2 * ei + from];
            if f_after == 0 {
                *cut -= w as u64;
                self.bump_net_gains(h, e, v, -w, cfg);
            } else if f_after == 1 {
                // The lone remaining pin on `from` can now uncut the net.
                self.bump_single_side_gain(h, p, e, v, from as u32, w, cfg);
            }
        }
    }

    /// Adds `delta` to the gain of every unlocked pin of `e` other than `v`.
    fn bump_net_gains(
        &mut self,
        h: &Hypergraph,
        e: NetId,
        v: ModuleId,
        delta: i32,
        cfg: &FmConfig,
    ) {
        for &w in h.pins(e) {
            if w != v && !self.locked[w.index()] {
                self.change_gain(w, delta, cfg);
            }
        }
    }

    /// Adds `delta` to the gain of the unique unlocked pin of `e` on `side`
    /// (if it exists and is not `v`).
    #[allow(clippy::too_many_arguments)]
    fn bump_single_side_gain(
        &mut self,
        h: &Hypergraph,
        p: &Partition,
        e: NetId,
        v: ModuleId,
        side: u32,
        delta: i32,
        cfg: &FmConfig,
    ) {
        for &w in h.pins(e) {
            if w != v && p.part(w) == side {
                if !self.locked[w.index()] {
                    self.change_gain(w, delta, cfg);
                }
                break;
            }
        }
    }

    fn change_gain(&mut self, w: ModuleId, delta: i32, cfg: &FmConfig) {
        self.gain[w.index()] += delta;
        let key = self.bucket_key(w, cfg.engine);
        if self.buckets[0].contains(w) {
            self.buckets[0].update_key(w, key);
        } else {
            // Boundary mode: a module touched by a move enters the structure.
            self.buckets[0].insert(w, key);
        }
    }

    /// Second-level (lookahead) gain: how much immediate gain the move of
    /// `v` would create for its still-unlocked neighbors. A net with exactly
    /// two pins on `v`'s side is one move away from granting a +1 to the
    /// remaining pin; a net with exactly one pin on the destination side is
    /// about to lose that pin's +1.
    fn second_level_gain(&self, h: &Hypergraph, p: &Partition, v: ModuleId) -> i32 {
        let from = p.part(v) as usize;
        let to = 1 - from;
        let mut g = 0i32;
        for &e in h.nets(v) {
            if !self.visible[e.index()] {
                continue;
            }
            let w = h.net_weight(e) as i32;
            if self.pins_in[2 * e.index() + from] == 2 {
                g += w;
            }
            if self.pins_in[2 * e.index() + to] == 1 {
                g -= w;
            }
        }
        g
    }

    /// Lookahead selection: find the highest bucket with a feasible member,
    /// then break ties inside it by the second-level gain (list order, i.e.
    /// the configured policy, breaks remaining ties).
    fn select_lookahead<F>(
        &mut self,
        h: &Hypergraph,
        p: &Partition,
        mut feasible: F,
    ) -> Option<ModuleId>
    where
        F: FnMut(ModuleId) -> bool,
    {
        let top = self.buckets[0].max_key()?;
        let mut key = top;
        while key >= -self.key_bound {
            let members = self.buckets[0].bucket_members(key);
            let mut best: Option<(i32, ModuleId)> = None;
            for v in members {
                if !feasible(v) {
                    continue;
                }
                let g2 = self.second_level_gain(h, p, v);
                match best {
                    Some((bg, _)) if bg >= g2 => {}
                    _ => best = Some((g2, v)),
                }
            }
            if let Some((_, v)) = best {
                return Some(v);
            }
            key -= 1;
        }
        None
    }

    fn run_pass(
        &mut self,
        h: &Hypergraph,
        p: &mut Partition,
        cfg: &FmConfig,
        bounds: &PartBounds,
        rng: &mut MlRng,
        pass_no: usize,
    ) -> PassOutcome {
        let fill_start = Instant::now();
        let start_cut = if cfg.incremental_reinit && self.state_valid {
            // §V fast reinit: only touched modules can have stale gains.
            // Duplicates in the touched list are harmless (recomputation is
            // idempotent), so no dedup pass is needed.
            let touched = std::mem::take(&mut self.touched);
            for &raw in &touched {
                self.recompute_gain_of(h, p, ModuleId::from(raw));
            }
            self.gain0.copy_from_slice(&self.gain);
            self.cut_cache
        } else {
            self.touched.clear();
            self.recompute(h, p)
        };
        self.state_valid = false;
        // Fixed modules start (and stay) locked: never selected, skipped by
        // the gain-update rules. All-false `fixed` makes this `fill(false)`.
        self.locked.copy_from_slice(&self.fixed);
        self.moves.clear();
        self.fill_buckets(h, p, cfg);
        let fill_time_ns = fill_start.elapsed().as_nanos() as u64;
        // Post-fill gain distribution and bucket occupancy; sampled here (a
        // deterministic point in the pass) only when a trace is recording.
        let obs_fill = mlpart_obs::recording().then(|| {
            let (mut neg, mut zero, mut pos) = (0u64, 0u64, 0u64);
            let (mut gmin, mut gmax) = (0i64, 0i64);
            for v in h.modules() {
                let g = i64::from(self.gain[v.index()]);
                match g.cmp(&0) {
                    std::cmp::Ordering::Less => neg += 1,
                    std::cmp::Ordering::Equal => zero += 1,
                    std::cmp::Ordering::Greater => pos += 1,
                }
                gmin = gmin.min(g);
                gmax = gmax.max(g);
            }
            (self.buckets[0].len() as u64, gmin, gmax, neg, zero, pos)
        });
        #[cfg(feature = "audit")]
        if mlpart_audit::enabled() {
            mlpart_audit::enforce(
                crate::audit::audit_pass_start(self, h, p, cfg, start_cut)
                    .map_err(|e| e.with_pass(pass_no)),
            );
        }

        let total = h.total_area();
        let mut cut = start_cut;
        let mut best_cut = start_cut;
        let mut best_len = 0usize;
        let mut stall = 0usize;
        let mut backtracks = 0usize;
        // Each backtrack permanently locks one seed module, so the pass
        // still terminates; the cap keeps worst cases cheap.
        let max_backtracks = h.num_modules().min(64);
        loop {
            if let Some(limit) = cfg.early_exit_stall {
                if stall >= limit {
                    break;
                }
            }
            let area0 = p.part_area(0);
            let pick = {
                let part_of = p.assignment();
                let areas = h.areas();
                let check = |v: ModuleId| {
                    let a = areas[v.index()];
                    let new_a0 = if part_of[v.index()] == 0 {
                        area0 - a
                    } else {
                        area0 + a
                    };
                    let new_a1 = total - new_a0.min(total);
                    bounds.is_area_feasible(0, new_a0) && bounds.is_area_feasible(1, new_a1)
                };
                if cfg.lookahead {
                    self.select_lookahead(h, p, check)
                } else {
                    self.buckets[0].select_where(rng, check)
                }
            };
            let Some(v) = pick else { break };
            let from = p.part(v);
            self.apply_move(h, p, v, cfg, &mut cut);
            self.moves.push((v, from));
            if cut < best_cut {
                best_cut = cut;
                best_len = self.moves.len();
                stall = 0;
            } else {
                stall += 1;
            }
            // CDIP backtracking: a window of moves without a new best means
            // this sequence is going nowhere — undo it, lock out its seed,
            // and let selection pick a different cluster to chase.
            if let Some(window) = cfg.cdip_window {
                if self.moves.len() - best_len >= window.max(1) && backtracks < max_backtracks {
                    backtracks += 1;
                    let seed = self.moves[best_len].0;
                    let undo: Vec<(ModuleId, u32)> = self.moves[best_len..].to_vec();
                    for &(u, from_part) in undo.iter().rev() {
                        debug_assert_ne!(p.part(u), from_part);
                        self.shift_module(h, p, u, cfg, &mut cut);
                        if u != seed {
                            // Rejoin the pass with a fresh gain; the stored
                            // one went stale while locked.
                            self.locked[u.index()] = false;
                            self.recompute_gain_of(h, p, u);
                            let key = self.bucket_key(u, cfg.engine);
                            self.buckets[0].insert(u, key);
                        }
                    }
                    self.moves.truncate(best_len);
                    // In audit builds this runs in release too (the
                    // debug_assert it replaces was debug-only).
                    #[cfg(feature = "audit")]
                    if mlpart_audit::enabled() {
                        mlpart_audit::enforce(
                            mlpart_audit::check_counter(
                                "RefineState",
                                "cdip-backtrack-cut",
                                cut,
                                best_cut,
                            )
                            .map_err(|e| e.with_pass(pass_no)),
                        );
                    }
                    debug_assert_eq!(cut, best_cut);
                    stall = 0;
                }
            }
        }
        let attempted = self.moves.len();
        // Roll back to the best prefix.
        if cfg.incremental_reinit {
            // Undo through the gain-maintaining path so `pins_in`, `gain`
            // and the cut stay valid for the next pass's fast reinit.
            let undo: Vec<(ModuleId, u32)> = self.moves[best_len..].to_vec();
            for &(v, _from) in undo.iter().rev() {
                self.shift_module(h, p, v, cfg, &mut cut);
            }
            #[cfg(feature = "audit")]
            if mlpart_audit::enabled() {
                mlpart_audit::enforce(
                    mlpart_audit::check_counter("RefineState", "rollback-cut", cut, best_cut)
                        .map_err(|e| e.with_pass(pass_no)),
                );
            }
            debug_assert_eq!(cut, best_cut);
            self.cut_cache = best_cut;
            self.state_valid = true;
        } else {
            for &(v, from) in self.moves[best_len..].iter().rev() {
                p.move_module(h, v, from);
            }
        }
        #[cfg(feature = "audit")]
        if mlpart_audit::enabled() {
            mlpart_audit::enforce(
                crate::audit::audit_pass_end(self, h, p, cfg, best_cut)
                    .map_err(|e| e.with_pass(pass_no)),
            );
        }
        if let Some((occupancy, gmin, gmax, neg, zero, pos)) = obs_fill {
            mlpart_obs::counter(
                "fm_pass",
                &[
                    ("pass", (pass_no as u64).into()),
                    ("cut_before", start_cut.into()),
                    ("cut_after", best_cut.into()),
                    ("attempted", (attempted as u64).into()),
                    ("kept", (best_len as u64).into()),
                    ("rolled_back", ((attempted - best_len) as u64).into()),
                    ("backtracks", (backtracks as u64).into()),
                    ("bucket_occupancy", occupancy.into()),
                    ("gain_min", gmin.into()),
                    ("gain_max", gmax.into()),
                    ("gain_neg", neg.into()),
                    ("gain_zero", zero.into()),
                    ("gain_pos", pos.into()),
                ],
            );
        }
        PassOutcome {
            improved: best_cut < start_cut,
            stats: PassStats {
                cut_before: start_cut,
                cut_after: best_cut,
                attempted_moves: attempted,
                kept_moves: best_len,
                fill_time_ns,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::HypergraphBuilder;

    /// Two 4-cliques joined by a single bridge net: optimal bisection cut 1.
    fn dumbbell() -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(8);
        for i in 0..4usize {
            for j in (i + 1)..4 {
                b.add_net([i, j]).unwrap();
                b.add_net([i + 4, j + 4]).unwrap();
            }
        }
        b.add_net([3, 4]).unwrap();
        b.build().unwrap()
    }

    fn chain(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(n);
        for i in 0..n - 1 {
            b.add_net([i, i + 1]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn finds_optimal_cut_on_dumbbell_fm() {
        let h = dumbbell();
        let mut rng = seeded_rng(3);
        let (p, r) = fm_partition(&h, None, &FmConfig::default(), &mut rng);
        assert_eq!(r.cut, 1);
        assert!(p.validate(&h));
        assert_eq!(metrics::cut(&h, &p), 1);
    }

    #[test]
    fn finds_optimal_cut_on_dumbbell_clip() {
        let h = dumbbell();
        let cfg = FmConfig {
            engine: Engine::Clip,
            ..FmConfig::default()
        };
        let mut rng = seeded_rng(3);
        let (_, r) = fm_partition(&h, None, &cfg, &mut rng);
        assert_eq!(r.cut, 1);
    }

    #[test]
    fn all_policies_reach_optimum_on_chain() {
        for policy in [BucketPolicy::Lifo, BucketPolicy::Fifo, BucketPolicy::Random] {
            let h = chain(16);
            let cfg = FmConfig {
                policy,
                ..FmConfig::default()
            };
            // Multi-start: flat FM from a random start is not guaranteed to
            // hit the optimum on every seed, but should within a few tries.
            let best = (0..8)
                .map(|s| {
                    let mut rng = seeded_rng(s);
                    fm_partition(&h, None, &cfg, &mut rng).1.cut
                })
                .min()
                .unwrap();
            assert_eq!(best, 1, "policy {policy} failed to find the bisection");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // multi-seed loop: too slow under the interpreter
    fn respects_balance_bounds() {
        let h = chain(100);
        let cfg = FmConfig::default();
        let bal = BipartBalance::new(&h, cfg.balance_r);
        for seed in 0..5 {
            let mut rng = seeded_rng(seed);
            let (p, _) = fm_partition(&h, None, &cfg, &mut rng);
            assert!(
                bal.is_partition_feasible(&p),
                "seed {seed}: areas {:?} outside [{}, {}]",
                p.part_areas(),
                bal.lower(),
                bal.upper()
            );
        }
    }

    #[test]
    fn never_worsens_initial_solution() {
        let h = dumbbell();
        // Start from the optimal solution; refinement must keep cut = 1.
        let p0 = Partition::from_assignment(&h, 2, vec![0, 0, 0, 0, 1, 1, 1, 1]).unwrap();
        let mut rng = seeded_rng(0);
        let (p, r) = fm_partition(&h, Some(p0), &FmConfig::default(), &mut rng);
        assert_eq!(r.cut, 1);
        assert_eq!(metrics::cut(&h, &p), 1);
        assert_eq!(r.passes, 1, "a pass from the optimum should not improve");
    }

    #[test]
    fn improves_bad_initial_solution() {
        let h = dumbbell();
        // Alternating assignment cuts 4 nets per clique plus the bridge.
        let p0 = Partition::from_assignment(&h, 2, vec![0, 1, 0, 1, 0, 1, 0, 1]).unwrap();
        let start_cut = metrics::cut(&h, &p0);
        assert_eq!(start_cut, 9);
        let mut rng = seeded_rng(1);
        let (_, r) = fm_partition(&h, Some(p0), &FmConfig::default(), &mut rng);
        assert!(r.cut < start_cut);
        assert_eq!(r.cut, 1);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // multi-seed loop: too slow under the interpreter
    fn result_cut_matches_metrics() {
        let h = chain(30);
        for seed in 0..5 {
            let mut rng = seeded_rng(seed);
            let (p, r) = fm_partition(&h, None, &FmConfig::default(), &mut rng);
            assert_eq!(r.cut, metrics::cut(&h, &p));
            assert_eq!(r.internal_cut, r.cut, "no large nets in this netlist");
        }
    }

    #[test]
    fn large_nets_ignored_internally_but_counted() {
        // A 5-pin net plus 2-pin nets; set max_net_size = 4 so the big net is
        // invisible to the engine but counted in the reported cut.
        let mut b = HypergraphBuilder::with_unit_areas(6);
        b.add_net([0, 1, 2, 3, 4]).unwrap();
        b.add_net([0, 1]).unwrap();
        b.add_net([4, 5]).unwrap();
        let h = b.build().unwrap();
        let cfg = FmConfig {
            max_net_size: 4,
            ..FmConfig::default()
        };
        let mut rng = seeded_rng(2);
        let (p, r) = fm_partition(&h, None, &cfg, &mut rng);
        assert_eq!(r.cut, metrics::cut(&h, &p));
        assert_eq!(r.internal_cut, metrics::cut_with_net_size_limit(&h, &p, 4));
        assert!(r.internal_cut <= r.cut);
    }

    #[test]
    fn clip_pass_seeds_bucket_zero() {
        // White-box: after fill_buckets with CLIP, every module sits at key 0
        // and the head of bucket 0 has the maximum initial gain.
        let h = dumbbell();
        let cfg = FmConfig {
            engine: Engine::Clip,
            ..FmConfig::default()
        };
        let mut ctx = RefineState::default();
        bind_bipart(&mut ctx, &h, &cfg);
        let p = Partition::from_assignment(&h, 2, vec![0, 1, 0, 1, 0, 1, 0, 1]).unwrap();
        ctx.recompute(&h, &p);
        ctx.fill_buckets(&h, &p, &cfg);
        let members = ctx.buckets[0].bucket_members(0);
        assert_eq!(members.len(), h.num_modules());
        let head_gain = ctx.gain0[members[0].index()];
        let max_gain = ctx.gain0.iter().copied().max().unwrap();
        assert_eq!(head_gain, max_gain);
        // Descending order head -> tail.
        for w in members.windows(2) {
            assert!(ctx.gain0[w[0].index()] >= ctx.gain0[w[1].index()]);
        }
    }

    #[test]
    fn initial_gains_match_definition() {
        // Hand-checked gains on a 4-module netlist.
        // nets: {0,1}, {1,2}, {2,3}; partition 0,0 | 1,1.
        let h = chain(4);
        let p = Partition::from_assignment(&h, 2, vec![0, 0, 1, 1]).unwrap();
        let cfg = FmConfig::default();
        let mut ctx = RefineState::default();
        bind_bipart(&mut ctx, &h, &cfg);
        let cut = ctx.recompute(&h, &p);
        assert_eq!(cut, 1);
        // g(0): net {0,1} uncut, moving 0 cuts it -> -1.
        // g(1): net {0,1} would become... pins_in({0,1}) = [2,0]; v=1 side 0:
        //   c[s]=2 no, c[o]=0 -> -1; net {1,2}: [1,1], c[s]==1 -> +1. total 0.
        assert_eq!(ctx.gain[0], -1);
        assert_eq!(ctx.gain[1], 0);
        assert_eq!(ctx.gain[2], 0);
        assert_eq!(ctx.gain[3], -1);
    }

    #[test]
    fn boundary_init_reaches_same_quality_on_dumbbell() {
        let h = dumbbell();
        let cfg = FmConfig {
            boundary_init: true,
            ..FmConfig::default()
        };
        let best = (0..8)
            .map(|s| {
                let mut rng = seeded_rng(100 + s);
                fm_partition(&h, None, &cfg, &mut rng).1.cut
            })
            .min()
            .unwrap();
        assert_eq!(best, 1);
    }

    #[test]
    fn early_exit_stall_terminates_and_is_feasible() {
        let h = chain(60);
        let cfg = FmConfig {
            early_exit_stall: Some(5),
            ..FmConfig::default()
        };
        let bal = BipartBalance::new(&h, cfg.balance_r);
        let mut rng = seeded_rng(4);
        let (p, r) = fm_partition(&h, None, &cfg, &mut rng);
        assert!(bal.is_partition_feasible(&p));
        assert!(r.cut >= 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let h = dumbbell();
        let run = |seed| {
            let mut rng = seeded_rng(seed);
            fm_partition(&h, None, &FmConfig::default(), &mut rng)
        };
        let (p1, r1) = run(77);
        let (p2, r2) = run(77);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    fn single_module_netlist() {
        let h = HypergraphBuilder::with_unit_areas(1).build().unwrap();
        let mut rng = seeded_rng(0);
        let (p, r) = fm_partition(&h, None, &FmConfig::default(), &mut rng);
        assert_eq!(r.cut, 0);
        assert!(p.validate(&h));
    }

    #[test]
    fn netlist_with_no_nets() {
        let h = HypergraphBuilder::with_unit_areas(10).build().unwrap();
        let mut rng = seeded_rng(0);
        let (p, r) = fm_partition(&h, None, &FmConfig::default(), &mut rng);
        assert_eq!(r.cut, 0);
        assert!(p.validate(&h));
    }

    #[test]
    #[should_panic(expected = "requires a bipartition")]
    fn rejects_kway_input() {
        let h = chain(4);
        let p = Partition::from_assignment(&h, 4, vec![0, 1, 2, 3]).unwrap();
        let mut rng = seeded_rng(0);
        let _ = fm_partition(&h, Some(p), &FmConfig::default(), &mut rng);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // multi-seed loop: too slow under the interpreter
    fn weighted_modules_respect_balance() {
        let mut b = HypergraphBuilder::new(vec![5, 1, 1, 1, 1, 1, 5, 1, 1, 1, 1, 1]);
        for i in 0..5usize {
            b.add_net([i, i + 1]).unwrap();
            b.add_net([i + 6, i + 7]).unwrap();
        }
        b.add_net([5, 6]).unwrap();
        let h = b.build().unwrap();
        let cfg = FmConfig::default();
        let bal = BipartBalance::new(&h, cfg.balance_r);
        let mut rng = seeded_rng(9);
        let (p, _) = fm_partition(&h, None, &cfg, &mut rng);
        assert!(bal.is_partition_feasible(&p));
    }
}

#[cfg(test)]
mod constrained_tests {
    use super::*;
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::HypergraphBuilder;

    fn dumbbell() -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(8);
        for i in 0..4usize {
            for j in (i + 1)..4 {
                b.add_net([i, j]).unwrap();
                b.add_net([i + 4, j + 4]).unwrap();
            }
        }
        b.add_net([3, 4]).unwrap();
        b.build().unwrap()
    }

    fn run_constrained(
        h: &Hypergraph,
        p0: &Partition,
        cfg: &FmConfig,
        fixed: &[bool],
        seed: u64,
    ) -> (Partition, FmResult) {
        let bounds = PartBounds::from_bipart(&BipartBalance::new(h, cfg.balance_r));
        let mut p = p0.clone();
        let r = refine_constrained_budgeted_in(
            h,
            &mut p,
            cfg,
            &bounds,
            fixed,
            &mut seeded_rng(seed),
            &mut RefineWorkspace::new(),
            &mut BudgetMeter::unlimited(),
        );
        (p, r)
    }

    #[test]
    #[cfg_attr(miri, ignore)] // multi-seed loop: too slow under the interpreter
    fn empty_fixed_set_is_byte_identical_to_legacy_refine() {
        let h = dumbbell();
        for (engine, extra) in [
            (Engine::Fm, false),
            (Engine::Clip, false),
            (Engine::Fm, true),
        ] {
            let cfg = FmConfig {
                engine,
                boundary_init: extra,
                cdip_window: extra.then_some(4),
                ..FmConfig::default()
            };
            for seed in 0..6 {
                let p0 = Partition::random(&h, 2, &mut seeded_rng(1000 + seed));
                let mut p_legacy = p0.clone();
                let r_legacy = refine(&h, &mut p_legacy, &cfg, &mut seeded_rng(seed));
                let (p_new, r_new) = run_constrained(&h, &p0, &cfg, &[], seed);
                assert_eq!(p_legacy.assignment(), p_new.assignment(), "seed {seed}");
                assert_eq!(r_legacy, r_new, "seed {seed}");
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // multi-seed loop: too slow under the interpreter
    fn fixed_modules_never_move() {
        let h = dumbbell();
        // Pin one module of each clique to the "wrong" side: refinement must
        // work around them, never through them.
        let p0 = Partition::from_assignment(&h, 2, vec![1, 0, 0, 0, 1, 1, 1, 0]).unwrap();
        let mut fixed = vec![false; 8];
        fixed[0] = true;
        fixed[7] = true;
        for engine in [Engine::Fm, Engine::Clip] {
            for boundary_init in [false, true] {
                let cfg = FmConfig {
                    engine,
                    boundary_init,
                    ..FmConfig::default()
                };
                for seed in 0..8 {
                    let (p, r) = run_constrained(&h, &p0, &cfg, &fixed, seed);
                    assert_eq!(p.part(ModuleId::new(0)), 1, "seed {seed}");
                    assert_eq!(p.part(ModuleId::new(7)), 0, "seed {seed}");
                    assert_eq!(r.cut, metrics::cut(&h, &p));
                    assert!(p.validate(&h));
                }
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // multi-seed loop: too slow under the interpreter
    fn fixed_modules_survive_cdip_backtracking() {
        let h = dumbbell();
        let p0 = Partition::from_assignment(&h, 2, vec![0, 1, 0, 1, 0, 1, 0, 1]).unwrap();
        let mut fixed = vec![false; 8];
        fixed[2] = true;
        fixed[5] = true;
        let cfg = FmConfig {
            cdip_window: Some(1),
            ..FmConfig::default()
        };
        for seed in 0..6 {
            let (p, _) = run_constrained(&h, &p0, &cfg, &fixed, seed);
            assert_eq!(p.part(ModuleId::new(2)), 0, "seed {seed}");
            assert_eq!(p.part(ModuleId::new(5)), 1, "seed {seed}");
        }
    }

    #[test]
    fn narrow_window_bounds_are_respected() {
        let h = dumbbell();
        // Exact bisection only: lo = hi = 4 on both sides.
        let bounds = PartBounds::uniform(2, 4, 4);
        let p0 = Partition::from_assignment(&h, 2, vec![0, 1, 0, 1, 0, 1, 0, 1]).unwrap();
        let mut p = p0.clone();
        let cfg = FmConfig::default();
        let _ = refine_constrained_budgeted_in(
            &h,
            &mut p,
            &cfg,
            &bounds,
            &[],
            &mut seeded_rng(3),
            &mut RefineWorkspace::new(),
            &mut BudgetMeter::unlimited(),
        );
        assert!(bounds.is_partition_feasible(&p));
    }

    #[test]
    fn all_fixed_leaves_partition_untouched() {
        let h = dumbbell();
        let p0 = Partition::from_assignment(&h, 2, vec![0, 1, 0, 1, 0, 1, 0, 1]).unwrap();
        let fixed = vec![true; 8];
        let (p, r) = run_constrained(&h, &p0, &FmConfig::default(), &fixed, 0);
        assert_eq!(p.assignment(), p0.assignment());
        assert_eq!(r.kept_moves, 0);
    }

    #[cfg(feature = "audit")]
    #[test]
    fn audit_accepts_fixed_runs() {
        mlpart_audit::force_enabled(true);
        let h = dumbbell();
        let p0 = Partition::from_assignment(&h, 2, vec![1, 0, 0, 0, 1, 1, 1, 0]).unwrap();
        let mut fixed = vec![false; 8];
        fixed[0] = true;
        let (p, _) = run_constrained(&h, &p0, &FmConfig::default(), &fixed, 2);
        mlpart_audit::force_enabled(false);
        assert_eq!(p.part(ModuleId::new(0)), 1);
    }

    #[test]
    #[should_panic(expected = "fixed mask has wrong length")]
    fn rejects_wrong_fixed_length() {
        let h = dumbbell();
        let p0 = Partition::random(&h, 2, &mut seeded_rng(0));
        let _ = run_constrained(&h, &p0, &FmConfig::default(), &[true], 0);
    }
}

#[cfg(test)]
mod lookahead_tests {
    use super::*;
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::HypergraphBuilder;

    fn dumbbell() -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(8);
        for i in 0..4usize {
            for j in (i + 1)..4 {
                b.add_net([i, j]).unwrap();
                b.add_net([i + 4, j + 4]).unwrap();
            }
        }
        b.add_net([3, 4]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn lookahead_finds_optimum() {
        let h = dumbbell();
        for engine in [Engine::Fm, Engine::Clip] {
            let cfg = FmConfig {
                engine,
                lookahead: true,
                ..FmConfig::default()
            };
            let best = (0..8)
                .map(|s| {
                    let mut rng = seeded_rng(s);
                    fm_partition(&h, None, &cfg, &mut rng).1.cut
                })
                .min()
                .unwrap();
            assert_eq!(best, 1, "engine {engine}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // multi-seed loop: too slow under the interpreter
    fn lookahead_respects_balance_and_reporting() {
        let mut b = HypergraphBuilder::with_unit_areas(40);
        for i in 0..39usize {
            b.add_net([i, i + 1]).unwrap();
            b.add_net([i, (i + 7) % 40]).unwrap();
        }
        let h = b.build().unwrap();
        let cfg = FmConfig {
            lookahead: true,
            ..FmConfig::default()
        };
        let bal = BipartBalance::new(&h, cfg.balance_r);
        for seed in 0..4 {
            let mut rng = seeded_rng(seed);
            let (p, r) = fm_partition(&h, None, &cfg, &mut rng);
            assert!(bal.is_partition_feasible(&p));
            assert_eq!(r.cut, metrics::cut(&h, &p));
        }
    }

    #[test]
    fn lookahead_is_deterministic() {
        let h = dumbbell();
        let cfg = FmConfig {
            engine: Engine::Clip,
            lookahead: true,
            ..FmConfig::default()
        };
        let run = |seed| {
            let mut rng = seeded_rng(seed);
            fm_partition(&h, None, &cfg, &mut rng)
        };
        let (p1, r1) = run(33);
        let (p2, r2) = run(33);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    fn second_level_gain_hand_checked() {
        // Chain 0-1-2-3, partition 0,0 | 1,1.
        // For v=1 (side 0): net {0,1}: pins_in[0]=2 -> +1; net {1,2}:
        // pins_in[to]=pins_in[1]=1 -> -1. g2(1) = 0.
        // For v=0: net {0,1}: pins_in[0]=2 -> +1; g2(0) = 1.
        let mut b = HypergraphBuilder::with_unit_areas(4);
        b.add_net([0, 1]).unwrap();
        b.add_net([1, 2]).unwrap();
        b.add_net([2, 3]).unwrap();
        let h = b.build().unwrap();
        let p = Partition::from_assignment(&h, 2, vec![0, 0, 1, 1]).unwrap();
        let cfg = FmConfig::default();
        let mut ctx = RefineState::default();
        bind_bipart(&mut ctx, &h, &cfg);
        ctx.recompute(&h, &p);
        assert_eq!(ctx.second_level_gain(&h, &p, ModuleId::new(1)), 0);
        assert_eq!(ctx.second_level_gain(&h, &p, ModuleId::new(0)), 1);
    }
}

#[cfg(test)]
mod cdip_tests {
    use super::*;
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::HypergraphBuilder;

    fn dumbbell() -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(8);
        for i in 0..4usize {
            for j in (i + 1)..4 {
                b.add_net([i, j]).unwrap();
                b.add_net([i + 4, j + 4]).unwrap();
            }
        }
        b.add_net([3, 4]).unwrap();
        b.build().unwrap()
    }

    fn cdip_cfg(engine: Engine) -> FmConfig {
        FmConfig {
            engine,
            cdip_window: Some(4),
            ..FmConfig::default()
        }
    }

    #[test]
    fn cdip_finds_optimum_on_dumbbell() {
        let h = dumbbell();
        for engine in [Engine::Fm, Engine::Clip] {
            let best = (0..8)
                .map(|s| {
                    let mut rng = seeded_rng(s);
                    fm_partition(&h, None, &cdip_cfg(engine), &mut rng).1.cut
                })
                .min()
                .unwrap();
            assert_eq!(best, 1, "engine {engine}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // multi-seed loop: too slow under the interpreter
    fn cdip_respects_balance_and_reporting() {
        let mut b = HypergraphBuilder::with_unit_areas(60);
        for i in 0..59usize {
            b.add_net([i, i + 1]).unwrap();
            b.add_net([i, (i + 9) % 60]).unwrap();
        }
        let h = b.build().unwrap();
        let cfg = cdip_cfg(Engine::Clip);
        let bal = BipartBalance::new(&h, cfg.balance_r);
        for seed in 0..5 {
            let mut rng = seeded_rng(seed);
            let (p, r) = fm_partition(&h, None, &cfg, &mut rng);
            assert!(bal.is_partition_feasible(&p), "seed {seed}");
            assert_eq!(r.cut, metrics::cut(&h, &p), "seed {seed}");
            assert!(p.validate(&h));
        }
    }

    #[test]
    fn cdip_never_worse_than_initial() {
        let h = dumbbell();
        let p0 = Partition::from_assignment(&h, 2, vec![0, 1, 0, 1, 0, 1, 0, 1]).unwrap();
        let start = metrics::cut(&h, &p0);
        let mut rng = seeded_rng(4);
        let (_, r) = fm_partition(&h, Some(p0), &cdip_cfg(Engine::Fm), &mut rng);
        assert!(r.cut <= start);
    }

    #[test]
    fn cdip_deterministic() {
        let h = dumbbell();
        let run = |seed| {
            let mut rng = seeded_rng(seed);
            fm_partition(&h, None, &cdip_cfg(Engine::Clip), &mut rng)
        };
        let (p1, r1) = run(17);
        let (p2, r2) = run(17);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    fn cdip_pass_terminates_on_pathological_window() {
        // window = 1 triggers backtracking aggressively; must still halt.
        let h = dumbbell();
        let cfg = FmConfig {
            cdip_window: Some(1),
            ..FmConfig::default()
        };
        let mut rng = seeded_rng(2);
        let (p, r) = fm_partition(&h, None, &cfg, &mut rng);
        assert!(p.validate(&h));
        assert_eq!(r.cut, metrics::cut(&h, &p));
    }
}

#[cfg(test)]
mod incremental_tests {
    use super::*;
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::HypergraphBuilder;

    fn chordal_ring(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(n);
        for i in 0..n {
            b.add_net([i, (i + 1) % n]).unwrap();
            b.add_net([i, (i + 7) % n]).unwrap();
        }
        b.build().unwrap()
    }

    /// The §V claim, made exact: incremental reinitialization must produce
    /// bit-identical partitions to full reinitialization — repaired gains
    /// equal recomputed gains, and bucket filling iterates modules in the
    /// same order either way.
    #[test]
    #[cfg_attr(miri, ignore)] // multi-seed loop: too slow under the interpreter
    fn incremental_reinit_is_exactly_equivalent() {
        for (engine, policy, seed) in [
            (Engine::Fm, BucketPolicy::Lifo, 1u64),
            (Engine::Fm, BucketPolicy::Fifo, 2),
            (Engine::Fm, BucketPolicy::Random, 3),
            (Engine::Clip, BucketPolicy::Lifo, 4),
            (Engine::Clip, BucketPolicy::Random, 5),
        ] {
            let h = chordal_ring(80);
            let full_cfg = FmConfig {
                engine,
                policy,
                ..FmConfig::default()
            };
            let inc_cfg = FmConfig {
                incremental_reinit: true,
                ..full_cfg
            };
            let mut rng_a = seeded_rng(seed);
            let mut rng_b = seeded_rng(seed);
            let (p_full, r_full) = fm_partition(&h, None, &full_cfg, &mut rng_a);
            let (p_inc, r_inc) = fm_partition(&h, None, &inc_cfg, &mut rng_b);
            assert_eq!(
                p_full.assignment(),
                p_inc.assignment(),
                "engine {engine} policy {policy} seed {seed}"
            );
            assert_eq!(r_full.cut, r_inc.cut);
            assert_eq!(r_full.passes, r_inc.passes);
            assert_eq!(r_full.kept_moves, r_inc.kept_moves);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // multi-seed loop: too slow under the interpreter
    fn incremental_reinit_with_weighted_nets() {
        let mut b = HypergraphBuilder::with_unit_areas(24);
        for i in 0..24usize {
            b.add_weighted_net([i, (i + 1) % 24], 1 + (i % 3) as u32)
                .unwrap();
            b.add_net([i, (i + 5) % 24]).unwrap();
        }
        let h = b.build().unwrap();
        let cfg_full = FmConfig::default();
        let cfg_inc = FmConfig {
            incremental_reinit: true,
            ..cfg_full
        };
        for seed in 0..6 {
            let (pf, rf) = fm_partition(&h, None, &cfg_full, &mut seeded_rng(seed));
            let (pi, ri) = fm_partition(&h, None, &cfg_inc, &mut seeded_rng(seed));
            assert_eq!(pf.assignment(), pi.assignment(), "seed {seed}");
            assert_eq!(rf, ri);
        }
    }
}
