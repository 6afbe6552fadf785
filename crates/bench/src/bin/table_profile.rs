//! Phase-attributed profiling of the paper's core comparisons: the Table II
//! FM bucket policies (LIFO/FIFO/RND) and the Table IV multilevel cells
//! (CLIP / ML_F / ML_C at R = 1), each run under a trace capture and rolled
//! up into per-phase self/total time — plus allocation tallies in an
//! `obs-alloc` build.
//!
//! Emits the `BENCH_phase_profile.json` JSON-lines artifact: a `meta` line,
//! then one line per (cell, phase) with the rollup columns. Time and alloc
//! values are non-normative telemetry (they vary run to run); the *phase
//! structure* — which phases appear, in what order, with what counts — is
//! deterministic and is what `obs-diff` byte-verifies across runs.

use mlpart_bench::{algos, run_many_par, HarnessArgs};
use mlpart_fm::BucketPolicy;
use mlpart_hypergraph::rng::child_seed;

fn main() {
    let args = HarnessArgs::from_env();
    println!(
        "{{\"group\":\"phase_profile\",\"bench\":\"meta\",\"runs_per_cell\":{},\
         \"seed\":{},\"threads\":{},\"alloc_tracked\":{},\"note\":\"per-phase \
         total/self wall time and allocation rollups for the table2 bucket \
         policies and table4 multilevel cells; ns and alloc values are \
         non-normative telemetry, phase structure and counts are \
         deterministic\"}}",
        args.runs,
        args.seed,
        args.threads,
        u8::from(cfg!(feature = "obs-alloc")),
    );
    let mut cells_run = 0usize;
    for (ci, c) in args.circuits().iter().enumerate() {
        let h = c.generate(args.seed);
        let base = child_seed(args.seed, 11_000 + ci as u64 * 8);
        type Job<'h> = Box<
            dyn Fn(&mut mlpart_hypergraph::rng::MlRng, &mut mlpart_fm::RefineWorkspace) -> u64
                + Sync
                + 'h,
        >;
        let cells: Vec<(&str, u64, Job)> = vec![
            // Table II: flat FM under each bucket policy.
            (
                "table2/lifo",
                0,
                Box::new(|rng: &mut _, ws: &mut _| {
                    algos::fm_with_policy_in(&h, BucketPolicy::Lifo, rng, ws)
                }),
            ),
            (
                "table2/fifo",
                1,
                Box::new(|rng: &mut _, ws: &mut _| {
                    algos::fm_with_policy_in(&h, BucketPolicy::Fifo, rng, ws)
                }),
            ),
            (
                "table2/rnd",
                2,
                Box::new(|rng: &mut _, ws: &mut _| {
                    algos::fm_with_policy_in(&h, BucketPolicy::Random, rng, ws)
                }),
            ),
            // Table IV: CLIP vs the multilevel variants at R = 1.
            (
                "table4/clip",
                3,
                Box::new(|rng: &mut _, ws: &mut _| algos::clip_in(&h, rng, ws)),
            ),
            (
                "table4/ml_f",
                4,
                Box::new(|rng: &mut _, ws: &mut _| algos::ml_f_in(&h, 1.0, rng, ws)),
            ),
            (
                "table4/ml_c",
                5,
                Box::new(|rng: &mut _, ws: &mut _| algos::ml_c_in(&h, 1.0, rng, ws)),
            ),
        ];
        for (cell, lane, job) in &cells {
            mlpart_obs::force_enabled(true);
            let (_, trace) = mlpart_obs::capture(|| {
                let _run = mlpart_obs::span(
                    "run",
                    &[("runs", args.runs.into()), ("seed", args.seed.into())],
                );
                run_many_par(args.runs, child_seed(base, *lane), args.threads, job)
            });
            mlpart_obs::force_enabled(false);
            let trace = trace.expect("gate forced on");
            for phase in mlpart_obs::profile::phase_rollup(&trace) {
                println!(
                    "{{\"group\":\"phase_profile\",\"bench\":\"{}/{cell}/{}\",\
                     \"count\":{},\"total_ns\":{},\"self_ns\":{},\
                     \"alloc_bytes\":{},\"alloc_count\":{},\"alloc_peak\":{}}}",
                    c.name,
                    phase.name,
                    phase.count,
                    phase.total_ns,
                    phase.self_ns,
                    phase.alloc_bytes,
                    phase.alloc_count,
                    phase.alloc_peak,
                );
            }
            cells_run += 1;
        }
    }
    eprintln!("profiled {cells_run} cells");
}
