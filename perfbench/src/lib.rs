//! End-to-end and per-layer benchmark of the mlpart partitioner.
//!
//! A run generates the workload's suite circuits and writes them as `.hgr`
//! files ([`write_inputs`]), parses and preflights them ([`Inputs::load`]), then
//! runs closed-loop rounds of starts seeded from the workload seed for the
//! requested time. The untraced run ([`measure`]) calls the public drivers
//! the CLI calls; the traced run ([`measure_traced`]) re-drives the same
//! starts one public layer call at a time. Every partition is checked
//! outside the timed region ([`check`]).

pub mod alloc;
pub mod drive;
pub mod speed;
pub mod stats;
pub mod workload;

use drive::{redrive_start, replay_induce, run_start, StartTrace};
use mlpart::exec::{try_run_starts, ExecError};
use mlpart::hypergraph::io::{read_hgr, write_hgr};
use mlpart::hypergraph::metrics;
use mlpart::hypergraph::rng::{child_seed, MlRng};
use mlpart::{preflight, BipartBalance, Hypergraph, KwayBalance, Partition, RefineWorkspace};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Algo, Workload};

/// A metric's identity: name, unit, the direction that is better, and for
/// end-to-end metrics the share of the parent's median by which it may
/// worsen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("starts_per_s", "1/s", "higher", 0.25),
    e2e("start_p50_ms", "ms", "lower", 0.25),
    e2e("start_tail_ms", "ms", "lower", 0.25),
    e2e("cpu_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.1),
    e2e("cut_avg", "nets", "lower", 0.15),
    e2e("cut_min", "nets", "lower", 0.25),
    e2e("ok_frac", "ratio", "higher", 0.01),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: &[MetricDef] = &[
    layer("hypergraph.read_hgr_s", "s", "lower"),
    layer("hypergraph.pins", "count", "lower"),
    layer("hypergraph.cut_s", "s", "lower"),
    layer("core.preflight_s", "s", "lower"),
    layer("core.coarsen_s", "s", "lower"),
    layer("core.levels", "count", "lower"),
    layer("cluster.match_s", "s", "lower"),
    layer("cluster.induce_s", "s", "lower"),
    layer("cluster.project_s", "s", "lower"),
    layer("cluster.rebalance_s", "s", "lower"),
    layer("cluster.rebalance_moves", "count", "lower"),
    layer("fm.initial_s", "s", "lower"),
    layer("fm.refine_s", "s", "lower"),
    layer("fm.fill_s", "s", "lower"),
    layer("fm.passes", "count", "lower"),
    layer("fm.moves_attempted", "count", "lower"),
    layer("fm.moves_kept", "count", "lower"),
    layer("fm.kept_ratio", "ratio", "higher"),
    layer("fm.ns_per_move", "ns", "lower"),
    layer("fm.alloc_mb", "MiB", "lower"),
    layer("fm.allocs", "count", "lower"),
    layer("kway.initial_s", "s", "lower"),
    layer("kway.refine_s", "s", "lower"),
    layer("kway.fill_s", "s", "lower"),
    layer("kway.passes", "count", "lower"),
    layer("kway.moves_attempted", "count", "lower"),
    layer("kway.moves_kept", "count", "lower"),
    layer("kway.kept_ratio", "ratio", "higher"),
    layer("kway.alloc_mb", "MiB", "lower"),
    layer("exec.busy_s", "s", "lower"),
    layer("exec.wall_s", "s", "lower"),
    layer("exec.efficiency", "ratio", "higher"),
    layer("exec.idle_s", "s", "lower"),
    layer("bench.trace_overhead", "ratio", "lower"),
    layer("bench.trace_coverage", "ratio", "higher"),
];

/// The traced run fails when child spans cover less of any start span.
pub const MIN_COVERAGE: f64 = 0.95;

/// Every run collects at least this many per-start samples, so the tail
/// rule of [`stats::tail`] always has a percentile to report.
pub const MIN_SAMPLES: usize = stats::TAIL_BEYOND + 1;

/// One measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// Path of circuit `name`'s netlist inside `dir`.
fn hgr_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.hgr"))
}

/// Generator seed of the suite circuits: the one the CLI uses for
/// `syn-NAME`, so every workload runs on the circuits the suite names. The
/// workload seed selects the starts.
pub const CIRCUIT_SEED: u64 = 1997;

/// Generates every circuit of `w` and writes it to `dir`.
///
/// # Errors
///
/// A message naming an unknown circuit or a failed write.
pub fn write_inputs(w: &Workload, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for &name in &w.circuits {
        let circuit =
            mlpart::gen::by_name(name).ok_or_else(|| format!("unknown suite circuit {name}"))?;
        let h = circuit.generate(CIRCUIT_SEED);
        let path = hgr_path(dir, name);
        let write = || -> std::io::Result<()> {
            let mut out = BufWriter::new(std::fs::File::create(&path)?);
            write_hgr(&h, &mut out)?;
            out.flush()
        };
        write().map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// The parsed netlists of one run and every set-up time sampled so far.
#[derive(Debug)]
pub struct Inputs {
    /// One netlist per circuit of the workload.
    pub nets: Vec<Hypergraph>,
    dir: PathBuf,
    /// `(read_hgr, preflight)` seconds of each set-up repetition, as measured.
    times: Vec<(f64, f64)>,
    /// Set-up seconds of each repetition at the reference speed.
    scaled: Vec<f64>,
    kernel: speed::Kernel,
}

/// Set-up is repeated at least this often before the first round.
const SETUP_REPS: usize = 11;
/// Set-up is repeated for at least this long before the first round and
/// again after every batch, so the samples span the run.
const SETUP_SECONDS: f64 = 0.1;

impl Inputs {
    /// Parses and preflights the workload's netlists from `dir`, repeatedly.
    ///
    /// # Errors
    ///
    /// A message when a file cannot be read or parsed, or preflight rejects it.
    pub fn load(w: &Workload, dir: &Path) -> Result<Inputs, String> {
        let mut inputs = Inputs {
            nets: Vec::new(),
            dir: dir.to_owned(),
            times: Vec::new(),
            scaled: Vec::new(),
            kernel: speed::Kernel::new(w.threads),
        };
        inputs.burst(w, SETUP_REPS)?;
        Ok(inputs)
    }

    /// Repeats set-up for [`SETUP_SECONDS`], recording its times; returns
    /// the speed scale measured beside it (see [`speed`]).
    ///
    /// # Errors
    ///
    /// As [`Inputs::load`].
    pub fn sample(&mut self, w: &Workload) -> Result<f64, String> {
        self.burst(w, 1)
    }

    /// Alternates set-up and the speed kernel for at least `reps`
    /// repetitions and [`SETUP_SECONDS`]; set-up times are scaled by the
    /// kernel times of the same burst.
    fn burst(&mut self, w: &Workload, reps: usize) -> Result<f64, String> {
        let began = Instant::now();
        let (mut times, mut kernel) = (Vec::new(), Vec::new());
        while times.len() < reps || began.elapsed().as_secs_f64() < SETUP_SECONDS {
            times.push(self.set_up(w)?);
            kernel.push(self.kernel.seconds());
        }
        let scale = speed::scale(&kernel);
        self.scaled
            .extend(times.iter().map(|&(r, c)| (r + c) * scale));
        self.times.extend(times);
        Ok(scale)
    }

    /// One timed `read_hgr` + `preflight` over every circuit, replacing
    /// `nets`; returns `(read_hgr, preflight)` seconds. The old netlists are
    /// dropped first, so two copies are never alive at once to inflate
    /// `peak_rss_mb`.
    fn set_up(&mut self, w: &Workload) -> Result<(f64, f64), String> {
        let (mut read_s, mut check_s) = (0.0, 0.0);
        self.nets.clear();
        for &name in &w.circuits {
            let path = hgr_path(&self.dir, name);
            let t = Instant::now();
            let file = std::fs::File::open(&path)
                .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
            let h = read_hgr(file).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
            read_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            preflight(&h, w.algo.k(), w.algo.balance_r())
                .map_err(|e| format!("{name} fails preflight: {e}"))?;
            check_s += t.elapsed().as_secs_f64();
            self.nets.push(h);
        }
        Ok((read_s, check_s))
    }

    fn median(&self, f: impl Fn(&(f64, f64)) -> f64) -> f64 {
        let xs: Vec<f64> = self.times.iter().map(f).collect();
        stats::median(&xs).unwrap_or(0.0)
    }

    /// Median `read_hgr` + `preflight` over all circuits at the reference
    /// speed, in s.
    pub fn setup_s(&self) -> f64 {
        stats::median(&self.scaled).unwrap_or(0.0)
    }

    /// Median `read_hgr` over all circuits as measured, in s.
    pub fn read_s(&self) -> f64 {
        self.median(|&(r, _)| r)
    }

    /// Median `preflight` over all circuits as measured, in s.
    pub fn preflight_s(&self) -> f64 {
        self.median(|&(_, c)| c)
    }
}

/// Checks one start's output: `k` parts, inside the balance window, and a
/// recomputed cut equal to the reported one.
///
/// # Errors
///
/// A message describing the first violation.
pub fn check(h: &Hypergraph, algo: &Algo, p: &Partition, reported_cut: u64) -> Result<(), String> {
    let k = algo.k();
    if p.k() != k || !p.validate(h) {
        return Err(format!("not a valid {k}-way partition"));
    }
    let balanced = match k {
        2 => BipartBalance::new(h, algo.balance_r()).is_partition_feasible(p),
        _ => KwayBalance::new(h, k, algo.balance_r()).is_partition_feasible(p),
    };
    if !balanced {
        return Err(format!(
            "part areas {:?} outside the balance window",
            p.part_areas()
        ));
    }
    let cut = metrics::cut(h, p);
    if cut != reported_cut {
        return Err(format!(
            "recomputed cut {cut} != reported cut {reported_cut}"
        ));
    }
    Ok(())
}

/// Base seed of circuit `ci`'s batch in round `round`: every batch of a run
/// has its own seed, so no start repeats.
fn batch_seed(seed: u64, round: usize, circuits: usize, ci: usize) -> u64 {
    child_seed(seed, (round * circuits + ci) as u64)
}

/// Start counts and failures shared by both runs.
#[derive(Debug, Default)]
pub struct Tally {
    /// Starts attempted.
    pub attempted: usize,
    /// Starts that panicked, failed a check, or disagreed with the
    /// reference cut.
    pub failed: usize,
    /// One message per failed start (first few only).
    pub messages: Vec<String>,
}

impl Tally {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }
}

/// Outcome of the untraced run.
#[derive(Debug, Default)]
pub struct Untraced {
    /// Rounds run (each one batch per circuit).
    pub rounds: usize,
    /// Per-start wall times in ms as measured, per circuit.
    pub start_ms: Vec<Vec<f64>>,
    /// Every per-start wall time in ms at the reference speed.
    pub scaled_ms: Vec<f64>,
    /// Speed scale measured after each batch.
    pub scales: Vec<f64>,
    /// Summed wall time of the batches at the reference speed, in s.
    pub batch_wall_s: f64,
    /// Summed process CPU time of the batches at the reference speed, in s.
    pub batch_cpu_s: f64,
    /// Cuts of the first [`QUALITY_ROUNDS`] rounds, per circuit in start
    /// order (`None` = failed).
    pub cuts: Vec<Vec<Option<u64>>>,
    /// Attempts and failures.
    pub tally: Tally,
}

impl Untraced {
    /// Every per-start wall time, in ms.
    pub fn samples(&self) -> Vec<f64> {
        self.start_ms.concat()
    }
}

/// Runs one batch of `n` starts of `job`, returning each start's outcome in
/// start order and the batch's wall time.
fn batch<T, F>(n: usize, seed: u64, threads: usize, job: &F) -> (Vec<Result<T, String>>, f64)
where
    T: Send,
    F: Fn(&mut MlRng, &mut RefineWorkspace) -> T + Sync,
{
    let t = Instant::now();
    let result = try_run_starts(n, seed, threads, job);
    let wall = t.elapsed().as_secs_f64();
    let mut out: Vec<Result<T, String>> = (0..n).map(|_| Err("lost".to_owned())).collect();
    match result {
        Ok((b, _)) => {
            for (i, v) in b.survivors {
                out[i] = Ok(v);
            }
            for f in b.failures {
                out[f.start] = Err(f.to_string());
            }
        }
        Err(ExecError::AllStartsFailed { failures }) => {
            for f in failures {
                out[f.start] = Err(f.to_string());
            }
        }
        Err(e) => out.iter_mut().for_each(|o| *o = Err(e.to_string())),
    }
    (out, wall)
}

/// The cut metrics cover this many rounds, so every run completes them:
/// a fixed set of starts per seed, whatever the machine's speed.
pub const QUALITY_ROUNDS: usize = 4;

/// Runs rounds of the workload's starts through the public drivers until
/// `seconds` have passed, at least `min_samples` starts have run, and at
/// least `min_rounds` rounds are done (always at least one). Each round runs
/// one batch per circuit, each batch from its own seed; the cuts of the
/// first [`QUALITY_ROUNDS`] rounds are kept. Set-up and the speed kernel
/// are sampled again after every batch, and the batch's times are scaled to
/// the reference speed by the kernel times taken right after it.
///
/// # Errors
///
/// As [`Inputs::sample`].
pub fn measure(
    w: &Workload,
    inputs: &mut Inputs,
    seed: u64,
    seconds: f64,
    min_samples: usize,
    min_rounds: usize,
) -> Result<Untraced, String> {
    let circuits = inputs.nets.len();
    let mut u = Untraced {
        start_ms: vec![Vec::new(); circuits],
        cuts: vec![Vec::new(); circuits],
        ..Untraced::default()
    };
    let began = Instant::now();
    while u.rounds < min_rounds.max(1)
        || began.elapsed().as_secs_f64() < seconds
        || u.start_ms.iter().map(Vec::len).sum::<usize>() < min_samples
    {
        for ci in 0..circuits {
            let h = &inputs.nets[ci];
            let job = |rng: &mut MlRng, ws: &mut RefineWorkspace| {
                let t = Instant::now();
                let (p, cut) = run_start(h, &w.algo, rng, ws);
                (p, cut, t.elapsed().as_secs_f64() * 1e3)
            };
            let seed = batch_seed(seed, u.rounds, circuits, ci);
            let cpu0 = stats::cpu_seconds().unwrap_or(0.0);
            let (outs, wall) = batch(w.starts[ci], seed, w.threads, &job);
            let cpu1 = stats::cpu_seconds().unwrap_or(0.0);
            // Outside the timed region: check every output.
            let mut batch_ms = Vec::new();
            for (i, out) in outs.into_iter().enumerate() {
                u.tally.attempted += 1;
                let checked = out.and_then(|(p, cut, ms)| {
                    batch_ms.push(ms);
                    check(h, &w.algo, &p, cut).map(|()| cut)
                });
                let msg = |e| format!("{} round {} start {i}: {e}", w.circuits[ci], u.rounds);
                let cut = checked.map_err(|e| u.tally.fail(msg(e))).ok();
                if u.rounds < QUALITY_ROUNDS {
                    u.cuts[ci].push(cut);
                }
            }
            let scale = inputs.sample(w)?;
            u.scales.push(scale);
            u.scaled_ms.extend(batch_ms.iter().map(|ms| ms * scale));
            u.start_ms[ci].extend(batch_ms);
            u.batch_wall_s += wall * scale;
            u.batch_cpu_s += (cpu1 - cpu0) * scale;
        }
        u.rounds += 1;
    }
    Ok(u)
}

/// Outcome of the traced re-drive of the first round.
#[derive(Debug, Default)]
pub struct Traced {
    /// Traces of every re-driven start.
    pub starts: Vec<StartTrace>,
    /// Nanoseconds of the replayed `induce` calls.
    pub induce_ns: u64,
    /// Summed wall time of the traced batches, in s.
    pub batch_wall_s: f64,
    /// Worker threads the batches ran on.
    pub threads: usize,
    /// Attempts and failures.
    pub tally: Tally,
}

/// Re-drives the first round of starts layer by layer. Every start must
/// pass [`check`] and reproduce the cut `reference` recorded for it in its
/// first round. Allocation counting is switched on for the duration.
pub fn measure_traced(
    w: &Workload,
    nets: &[Hypergraph],
    seed: u64,
    reference: &Untraced,
) -> Traced {
    let mut t = Traced {
        threads: w.threads,
        ..Traced::default()
    };
    alloc::set_enabled(true);
    for (ci, h) in nets.iter().enumerate() {
        let job = |rng: &mut MlRng, ws: &mut RefineWorkspace| redrive_start(h, &w.algo, rng, ws);
        let seed = batch_seed(seed, 0, nets.len(), ci);
        let (outs, wall) = batch(w.starts[ci], seed, w.threads, &job);
        t.batch_wall_s += wall;
        for (i, out) in outs.into_iter().enumerate() {
            t.tally.attempted += 1;
            let checked = out.and_then(|r| r).and_then(|(p, cut, trace, hierarchy)| {
                check(h, &w.algo, &p, cut)?;
                let want = reference
                    .cuts
                    .get(ci)
                    .and_then(|c| c.get(i).copied().flatten());
                if want != Some(cut) {
                    return Err(format!("re-driven cut {cut} != driver cut {want:?}"));
                }
                if let Some(hier) = hierarchy {
                    t.induce_ns += replay_induce(h, &hier)?;
                }
                t.starts.push(trace);
                Ok(())
            });
            if let Err(e) = checked {
                t.tally
                    .fail(format!("{} start {i} (traced): {e}", w.circuits[ci]));
            }
        }
    }
    alloc::set_enabled(false);
    t
}

fn metric(defs: &[MetricDef], name: &'static str, value: f64) -> Metric {
    let def = defs
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("undeclared metric {name}"));
    Metric {
        name: def.name,
        unit: def.unit,
        value,
    }
}

/// `(cut_avg, cut_min)` over the first [`QUALITY_ROUNDS`] rounds: the mean
/// cut over all starts that passed their checks, and the mean over circuits
/// of each circuit's best cut. `None` when no start passed.
pub fn cut_stats(u: &Untraced) -> Option<(f64, f64)> {
    let cuts: Vec<Vec<u64>> = u
        .cuts
        .iter()
        .map(|c| c.iter().flatten().copied().collect())
        .collect();
    let all: Vec<u64> = cuts.iter().flatten().copied().collect();
    let mins: Vec<u64> = cuts
        .iter()
        .filter_map(|c| c.iter().min().copied())
        .collect();
    if all.is_empty() {
        return None;
    }
    Some((
        all.iter().sum::<u64>() as f64 / all.len() as f64,
        mins.iter().sum::<u64>() as f64 / mins.len() as f64,
    ))
}

/// The end-to-end metrics of an untraced run, in [`END_TO_END`] order,
/// with the tail percentile the `start_tail_ms` value was taken at.
///
/// # Errors
///
/// A message when a value cannot be computed (no samples, no `/proc`).
pub fn end_to_end(inputs: &Inputs, u: &Untraced) -> Result<(Vec<Metric>, stats::Tail), String> {
    let samples = &u.scaled_ms;
    let p50 = stats::median(samples).ok_or("no start completed")?;
    let tail = stats::tail(samples)
        .ok_or_else(|| format!("{} starts are too few for the tail rule", samples.len()))?;
    let rss = stats::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    stats::cpu_seconds().ok_or("cannot read CPU times from /proc/self/stat")?;
    let (cut_avg, cut_min) = cut_stats(u).ok_or("no start passed its checks")?;
    let m = |name, value| metric(END_TO_END, name, value);
    Ok((
        vec![
            m("setup_s", inputs.setup_s()),
            m("starts_per_s", samples.len() as f64 / u.batch_wall_s),
            m("start_p50_ms", p50),
            m("start_tail_ms", tail.value),
            m("cpu_s", u.batch_cpu_s / u.rounds as f64),
            m("peak_rss_mb", rss),
            m("cut_avg", cut_avg),
            m("cut_min", cut_min),
            m(
                "ok_frac",
                1.0 - u.tally.failed as f64 / u.tally.attempted.max(1) as f64,
            ),
        ],
        tail,
    ))
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order: times
/// and counts summed over the re-driven round, the untraced overhead base
/// taken from the same starts of `u`.
pub fn per_layer(inputs: &Inputs, u: &Untraced, t: &Traced) -> Vec<Metric> {
    let count = |name: &str| t.starts.iter().map(|s| s.get(name)).sum::<u64>() as f64;
    let secs = |name: &str| t.starts.iter().map(|s| s.span_ns(name)).sum::<u64>() as f64 / 1e9;
    let alloc = |prefix: &str| {
        let spans = t
            .starts
            .iter()
            .flat_map(|s| &s.spans)
            .filter(|s| s.name.starts_with(prefix));
        let (bytes, n) = spans.fold((0, 0), |(b, n), s| (b + s.alloc_bytes, n + s.allocs));
        (bytes as f64 / (1 << 20) as f64, n as f64)
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let busy = t.starts.iter().map(|s| s.start_ns).sum::<u64>() as f64 / 1e9;
    let wall = t.batch_wall_s;
    let traced_ms: Vec<f64> = t.starts.iter().map(|s| s.start_ns as f64 / 1e6).collect();
    let overhead = ratio(
        stats::median(&traced_ms).unwrap_or(0.0),
        stats::median(&u.samples()).unwrap_or(0.0),
    );
    let coverage = t
        .starts
        .iter()
        .map(StartTrace::coverage)
        .fold(f64::INFINITY, f64::min);
    let fm_attempted = count("fm.moves_attempted");
    let fm_s = secs("fm.initial") + secs("fm.refine");
    let kway_attempted = count("kway.moves_attempted");
    let (fm_mb, fm_allocs) = alloc("fm.");
    let (kway_mb, _) = alloc("kway.");
    let induce_s = t.induce_ns as f64 / 1e9;
    let pins = inputs.nets.iter().map(|h| h.num_pins() as f64).sum();
    let m = |name, value| metric(PER_LAYER, name, value);
    vec![
        m("hypergraph.read_hgr_s", inputs.read_s()),
        m("hypergraph.pins", pins),
        m("hypergraph.cut_s", secs("hypergraph.cut")),
        m("core.preflight_s", inputs.preflight_s()),
        m("core.coarsen_s", secs("core.coarsen")),
        m("core.levels", count("core.levels")),
        m("cluster.match_s", secs("core.coarsen") - induce_s),
        m("cluster.induce_s", induce_s),
        m("cluster.project_s", secs("cluster.project")),
        m("cluster.rebalance_s", secs("cluster.rebalance")),
        m("cluster.rebalance_moves", count("cluster.rebalance_moves")),
        m("fm.initial_s", secs("fm.initial")),
        m("fm.refine_s", secs("fm.refine")),
        m("fm.fill_s", count("fm.fill_ns") / 1e9),
        m("fm.passes", count("fm.passes")),
        m("fm.moves_attempted", fm_attempted),
        m("fm.moves_kept", count("fm.moves_kept")),
        m("fm.kept_ratio", ratio(count("fm.moves_kept"), fm_attempted)),
        m("fm.ns_per_move", ratio(fm_s * 1e9, fm_attempted)),
        m("fm.alloc_mb", fm_mb),
        m("fm.allocs", fm_allocs),
        m("kway.initial_s", secs("kway.initial")),
        m("kway.refine_s", secs("kway.refine")),
        m("kway.fill_s", count("kway.fill_ns") / 1e9),
        m("kway.passes", count("kway.passes")),
        m("kway.moves_attempted", kway_attempted),
        m("kway.moves_kept", count("kway.moves_kept")),
        m(
            "kway.kept_ratio",
            ratio(count("kway.moves_kept"), kway_attempted),
        ),
        m("kway.alloc_mb", kway_mb),
        m("exec.busy_s", busy),
        m("exec.wall_s", wall),
        m("exec.efficiency", ratio(busy, wall * t.threads as f64)),
        m("exec.idle_s", wall * t.threads as f64 - busy),
        m("bench.trace_overhead", overhead),
        m(
            "bench.trace_coverage",
            if coverage.is_finite() { coverage } else { 0.0 },
        ),
    ]
}

/// Renders the result line: `correct`, `attempted`, `failed` and the
/// metrics keyed by name.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
