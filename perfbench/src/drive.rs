//! One start of a workload, two ways.
//!
//! [`run_start`] calls the library's public driver exactly as the CLI does.
//! [`redrive_start`] replays the same start from this file one public layer
//! call at a time, timing each call as a span; it must return the same cut
//! as [`run_start`] for the same seeded RNG, which the benchmark checks.

use crate::alloc;
use crate::workload::Algo;
use mlpart::cluster::{project, rebalance_bipart, rebalance_kway_frozen};
use mlpart::core::{ml_kway_budgeted_in, Hierarchy, MlKwayConfig};
use mlpart::fm::{fm_partition_budgeted_in, refine_budgeted_in, PassStats};
use mlpart::hypergraph::metrics;
use mlpart::hypergraph::rng::MlRng;
use mlpart::kway::{kway_partition_budgeted_in, kway_refine_budgeted_in};
use mlpart::{
    ml_bipartition_budgeted_in, BipartBalance, Budget, BudgetMeter, Hypergraph, KwayBalance,
    MlConfig, Partition, RefineWorkspace,
};
use std::time::Instant;

/// Runs one start through the public driver; returns the partition and the
/// cut the driver reported.
pub fn run_start(
    h: &Hypergraph,
    algo: &Algo,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
) -> (Partition, u64) {
    // Each start spends against its own meter, as in the CLI.
    let mut meter = BudgetMeter::new(&Budget::default());
    match algo {
        Algo::MlClip(cfg) => {
            let (p, r) = ml_bipartition_budgeted_in(h, cfg, rng, ws, &mut meter);
            (p, r.cut)
        }
        Algo::FlatFm(cfg) => {
            let (p, r) = fm_partition_budgeted_in(h, None, cfg, rng, ws, &mut meter);
            (p, r.cut)
        }
        Algo::MlKway(cfg) => {
            let (p, r) = ml_kway_budgeted_in(h, cfg, &[], rng, ws, &mut meter);
            (p, r.cut)
        }
    }
}

/// One timed public call inside a start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `fm.refine`.
    pub name: &'static str,
    /// Wall-clock nanoseconds.
    pub ns: u64,
    /// Bytes allocated on this thread during the call (0 unless counting).
    pub alloc_bytes: u64,
    /// Allocations made on this thread during the call.
    pub allocs: u64,
}

/// Spans and work counts of one re-driven start. Every span is a direct
/// child of the start span, which covers the whole re-drive.
#[derive(Debug, Clone, Default)]
pub struct StartTrace {
    /// Duration of the start span.
    pub start_ns: u64,
    /// Child spans in call order.
    pub spans: Vec<Span>,
    /// Work counts by name, in first-recorded order.
    pub counts: Vec<(&'static str, u64)>,
}

impl StartTrace {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (b0, a0) = alloc::snapshot();
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        let (b1, a1) = alloc::snapshot();
        self.spans.push(Span {
            name,
            ns,
            alloc_bytes: b1 - b0,
            allocs: a1 - a0,
        });
        out
    }

    /// Adds `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        match self.counts.iter_mut().find(|(k, _)| *k == name) {
            Some((_, v)) => *v += n,
            None => self.counts.push((name, n)),
        }
    }

    /// Total of the count `name` (0 if never recorded).
    pub fn get(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Total nanoseconds of the spans called `name`.
    pub fn span_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns)
            .sum()
    }

    /// Share of the start span covered by its child spans.
    pub fn coverage(&self) -> f64 {
        let covered: u64 = self.spans.iter().map(|s| s.ns).sum();
        covered as f64 / self.start_ns.max(1) as f64
    }

    /// Records one refinement-engine call's pass trajectory under `layer`
    /// (`fm` or `kway`).
    fn passes(&mut self, layer: Layer, passes: &[PassStats]) {
        let (p, attempted, kept, fill) = match layer {
            Layer::Fm => (
                "fm.passes",
                "fm.moves_attempted",
                "fm.moves_kept",
                "fm.fill_ns",
            ),
            Layer::Kway => (
                "kway.passes",
                "kway.moves_attempted",
                "kway.moves_kept",
                "kway.fill_ns",
            ),
        };
        self.count(p, passes.len() as u64);
        for s in passes {
            self.count(attempted, s.attempted_moves as u64);
            self.count(kept, s.kept_moves as u64);
            self.count(fill, s.fill_time_ns);
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Layer {
    Fm,
    Kway,
}

/// What a re-driven start hands back: partition, cut, its trace, and the
/// hierarchy (multilevel algorithms) whose `induce` steps are replayed
/// outside the start span.
pub type Redriven = (Partition, u64, StartTrace, Option<Hierarchy>);

/// Re-drives one start layer by layer. Consumes `rng` in the same order as
/// [`run_start`], so the cut is identical for the same seed.
///
/// # Errors
///
/// A message when coarsening or projection reports a typed error.
pub fn redrive_start(
    h: &Hypergraph,
    algo: &Algo,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
) -> Result<Redriven, String> {
    let mut tr = StartTrace::default();
    let t = Instant::now();
    let out = match algo {
        Algo::MlClip(cfg) => redrive_ml2(h, cfg, rng, ws, &mut tr),
        Algo::FlatFm(cfg) => {
            let mut meter = BudgetMeter::new(&Budget::default());
            let (p, r) = tr.time("fm.initial", || {
                fm_partition_budgeted_in(h, None, cfg, rng, ws, &mut meter)
            });
            tr.passes(Layer::Fm, &r.pass_stats);
            Ok((p, r.cut, None))
        }
        Algo::MlKway(cfg) => redrive_kway(h, cfg, rng, ws, &mut tr),
    };
    tr.start_ns = t.elapsed().as_nanos() as u64;
    let (p, cut, hierarchy) = out?;
    Ok((p, cut, tr, hierarchy))
}

type Driven = Result<(Partition, u64, Option<Hierarchy>), String>;

/// The ML bipartition V-cycle of `ml_bipartition_budgeted_in`, one public
/// call per span.
fn redrive_ml2(
    h: &Hypergraph,
    cfg: &MlConfig,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    tr: &mut StartTrace,
) -> Driven {
    let mut meter = BudgetMeter::new(&Budget::default());
    let hierarchy = tr
        .time("core.coarsen", || Hierarchy::try_coarsen(h, cfg, &[], rng))
        .map_err(|e| e.to_string())?;
    let m = hierarchy.num_levels();
    tr.count("core.levels", m as u64);
    let coarsest = hierarchy.coarsest(h);
    meter.set_level_context(Some(m as u32));
    let (mut p, r) = tr.time("fm.initial", || {
        fm_partition_budgeted_in(coarsest, None, &cfg.fm, rng, ws, &mut meter)
    });
    tr.passes(Layer::Fm, &r.pass_stats);
    for i in (0..m).rev() {
        let fine = if i == 0 { h } else { hierarchy.level(i) };
        let mut fine_p = tr
            .time("cluster.project", || {
                project(fine, hierarchy.clustering(i), &p)
            })
            .map_err(|e| e.to_string())?;
        let moves = tr.time("cluster.rebalance", || {
            let balance = BipartBalance::new(fine, cfg.fm.balance_r);
            if balance.is_partition_feasible(&fine_p) {
                0
            } else {
                rebalance_bipart(fine, &mut fine_p, &balance, rng)
            }
        });
        tr.count("cluster.rebalance_moves", moves as u64);
        meter.set_level_context(Some(i as u32));
        let _ = meter.level_checkpoint(i as u32);
        let r = tr.time("fm.refine", || {
            refine_budgeted_in(fine, &mut fine_p, &cfg.fm, rng, ws, &mut meter)
        });
        meter.note_level();
        tr.passes(Layer::Fm, &r.pass_stats);
        p = fine_p;
    }
    let cut = tr.time("hypergraph.cut", || metrics::cut(h, &p));
    Ok((p, cut, Some(hierarchy)))
}

/// The ML k-way V-cycle of `ml_kway_budgeted_in` (no fixed modules), one
/// public call per span.
fn redrive_kway(
    h: &Hypergraph,
    cfg: &MlKwayConfig,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    tr: &mut StartTrace,
) -> Driven {
    let mut meter = BudgetMeter::new(&Budget::default());
    let ml_cfg = MlConfig {
        coarsen_threshold: cfg.coarsen_threshold,
        matching_ratio: cfg.matching_ratio,
        max_levels: cfg.max_levels,
        ..MlConfig::default()
    };
    let hierarchy = tr
        .time("core.coarsen", || {
            Hierarchy::try_coarsen(h, &ml_cfg, &[], rng)
        })
        .map_err(|e| e.to_string())?;
    let m = hierarchy.num_levels();
    tr.count("core.levels", m as u64);
    let coarsest = hierarchy.coarsest(h);
    meter.set_level_context(Some(m as u32));
    let (mut p, r) = tr.time("kway.initial", || {
        kway_partition_budgeted_in(
            coarsest,
            cfg.k,
            None,
            hierarchy.fixed_at(m),
            &cfg.kway,
            rng,
            ws,
            &mut meter,
        )
    });
    tr.passes(Layer::Kway, &r.pass_stats);
    for i in (0..m).rev() {
        let fine = if i == 0 { h } else { hierarchy.level(i) };
        let mut fine_p = tr
            .time("cluster.project", || {
                project(fine, hierarchy.clustering(i), &p)
            })
            .map_err(|e| e.to_string())?;
        let moves = tr.time("cluster.rebalance", || {
            let balance = KwayBalance::new(fine, cfg.k, cfg.kway.balance_r);
            if balance.is_partition_feasible(&fine_p) {
                0
            } else {
                rebalance_kway_frozen(fine, &mut fine_p, &balance, None, rng)
            }
        });
        tr.count("cluster.rebalance_moves", moves as u64);
        meter.set_level_context(Some(i as u32));
        let _ = meter.level_checkpoint(i as u32);
        let r = tr.time("kway.refine", || {
            kway_refine_budgeted_in(
                fine,
                &mut fine_p,
                hierarchy.fixed_at(i),
                &cfg.kway,
                rng,
                ws,
                &mut meter,
            )
        });
        meter.note_level();
        tr.passes(Layer::Kway, &r.pass_stats);
        p = fine_p;
    }
    let cut = tr.time("hypergraph.cut", || metrics::cut(h, &p));
    Ok((p, cut, Some(hierarchy)))
}

/// Replays `induce` over every clustering of `hierarchy` (level 0 is `h`);
/// returns the nanoseconds spent.
///
/// # Errors
///
/// A message when a replayed `induce` reports a typed error.
pub fn replay_induce(h: &Hypergraph, hierarchy: &Hierarchy) -> Result<u64, String> {
    let mut ns = 0;
    for i in 0..hierarchy.num_levels() {
        let fine = if i == 0 { h } else { hierarchy.level(i) };
        let t = Instant::now();
        let coarse = mlpart::cluster::induce(fine, hierarchy.clustering(i));
        ns += t.elapsed().as_nanos() as u64;
        coarse.map_err(|e| e.to_string())?;
    }
    Ok(ns)
}
