//! The named workloads: circuits, algorithm, threads and batch shape.
//!
//! Every workload is a closed loop with one caller: a batch of starts runs
//! through `mlpart_exec::try_run_starts` (the executor the CLI uses), and the
//! next batch begins when the previous one has returned.

use mlpart::core::MlKwayConfig;
use mlpart::fm::{BucketPolicy, Engine, FmConfig};
use mlpart::MlConfig;

/// The partitioning algorithm a workload runs on each start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algo {
    /// ML_C bipartitioning with the CLI defaults (`--algo ml-c`: CLIP gains,
    /// LIFO buckets, `R = 0.5`, `T = 35`).
    MlClip(MlConfig),
    /// Flat FM with random bucket tie-breaking (paper Table II).
    FlatFm(FmConfig),
    /// ML quadrisection with the Sanchis k-way engine as the CLI runs it
    /// (`--k 4`: sum-of-degrees gain, `R = 0.5`, `T = 100`).
    MlKway(MlKwayConfig),
}

impl Algo {
    /// ML_C exactly as the CLI configures `--algo ml-c`.
    pub fn ml_clip() -> Self {
        Algo::MlClip(MlConfig {
            matching_ratio: 0.5,
            coarsen_threshold: 35,
            fm: FmConfig {
                engine: Engine::Clip,
                ..FmConfig::default()
            },
            ..MlConfig::default()
        })
    }

    /// Flat FM with `BucketPolicy::Random`.
    pub fn flat_random() -> Self {
        Algo::FlatFm(FmConfig {
            policy: BucketPolicy::Random,
            ..FmConfig::default()
        })
    }

    /// ML k-way exactly as the CLI configures `--k 4`.
    pub fn ml_kway() -> Self {
        Algo::MlKway(MlKwayConfig {
            matching_ratio: 0.5,
            coarsen_threshold: 100,
            ..MlKwayConfig::default()
        })
    }

    /// Number of parts every output must have.
    pub fn k(&self) -> u32 {
        match self {
            Algo::MlClip(_) | Algo::FlatFm(_) => 2,
            Algo::MlKway(cfg) => cfg.k,
        }
    }

    /// Balance tolerance `r` of the output window (and of `preflight`).
    pub fn balance_r(&self) -> f64 {
        match self {
            Algo::MlClip(cfg) => cfg.fm.balance_r,
            Algo::FlatFm(cfg) => cfg.balance_r,
            Algo::MlKway(cfg) => cfg.kway.balance_r,
        }
    }
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Suite circuits, each generated from the workload seed.
    pub circuits: Vec<&'static str>,
    /// Algorithm run on every start.
    pub algo: Algo,
    /// Worker threads of the executor.
    pub threads: usize,
    /// Starts per batch, one entry per circuit; a round runs one batch per
    /// circuit.
    pub starts: Vec<usize>,
}

/// All workloads, in `BENCHMARK.json` order.
pub fn all() -> Vec<Workload> {
    let w = |name, circuits: &[&'static str], algo, threads, starts: &[usize]| Workload {
        name,
        circuits: circuits.to_vec(),
        algo,
        threads,
        starts: starts.to_vec(),
    };
    let medium = ["syn-industry2", "syn-s38584", "syn-avqlarge"];
    vec![
        w("ml2-medium", &medium, Algo::ml_clip(), 1, &[8, 8, 8]),
        // Flat starts take ~1.5 s on syn-s38584 against ~0.4 s on
        // syn-industry2: a run fits too few of them for a steady median.
        w("flat-rnd", &medium[..1], Algo::flat_random(), 1, &[4]),
        w("ml2-golem3-2t", &["syn-golem3"], Algo::ml_clip(), 2, &[6]),
        w("ml4-kway", &["syn-industry2"], Algo::ml_kway(), 1, &[3]),
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}
