//! In-process observability overhead benchmark.
//!
//! Measures the wall-clock cost of the observability layer, which is always
//! compiled in and gated at runtime, in its two states:
//!
//! - `disabled` — runtime gate off: every hook reduces to one relaxed
//!   atomic load.
//! - `enabled` — gate forced on, full recording plus Chrome-trace, JSONL,
//!   folded-stack, and run-report serialization (discarded, so the cost
//!   measured is recording + export, not disk).
//!
//! Each config runs `--reps` repetitions per circuit, alternating with the
//! other config, and reports the minimum (the standard noise-robust
//! estimator for short benches). The partitioner's cut statistics are
//! formatted into a `cut_line` per config and byte-compared across both
//! configs; any mismatch is a determinism violation and exits 1.
//!
//! ```text
//! obs_overhead [--runs N] [--seed S] [--reps R] [--threads T]
//!              [--circuits a,b] [--out PATH]
//! ```
//!
//! `--out` defaults to stdout.

use mlpart_bench::{algos, run_many_par};
use std::fmt::Write as _;
use std::time::Instant;

struct Args {
    runs: usize,
    seed: u64,
    reps: usize,
    threads: usize,
    circuits: Vec<String>,
    out: Option<String>,
}

const USAGE: &str = "usage: obs_overhead [--runs N] [--seed S] [--reps R] [--threads T]\n\
     \x20                   [--circuits a,b] [--out PATH]";

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        runs: 8,
        seed: 1997,
        reps: 5,
        threads: 1,
        circuits: vec!["syn-industry2".into(), "syn-s38584".into()],
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("flag {name} requires a value"))
        };
        match flag.as_str() {
            "--runs" => out.runs = value("--runs")?.parse().map_err(|_| "bad --runs")?,
            "--seed" => out.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--reps" => out.reps = value("--reps")?.parse().map_err(|_| "bad --reps")?,
            "--threads" => {
                out.threads = value("--threads")?.parse().map_err(|_| "bad --threads")?
            }
            "--circuits" => {
                out.circuits = value("--circuits")?.split(',').map(str::to_owned).collect();
            }
            "--out" => out.out = Some(value("--out")?),
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if out.runs == 0 || out.reps == 0 || out.threads == 0 {
        return Err("--runs/--reps/--threads must be positive".into());
    }
    Ok(out)
}

/// One measured batch: the formatted cut line (the CLI's summary format,
/// which the cross-build identity check diffs) and elapsed wall seconds.
fn measure(
    h: &mlpart_hypergraph::Hypergraph,
    runs: usize,
    seed: u64,
    threads: usize,
) -> (String, f64) {
    let t0 = Instant::now();
    let stats = run_many_par(runs, seed, threads, |rng, ws| {
        algos::ml_c_in(h, 0.5, rng, ws)
    });
    let wall = t0.elapsed().as_secs_f64();
    let line = format!(
        "ml-c x{runs} runs: min {} avg {:.1} std {:.1}",
        stats.cut.min, stats.cut.avg, stats.cut.std
    );
    (line, wall)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let mut doc = String::new();
    let _ = writeln!(
        doc,
        "{{\"group\":\"obs_overhead\",\"bench\":\"meta\",\"reps\":{},\"runs\":{},\
         \"seed\":{},\"threads\":{},\"note\":\"wall-clock per config, min over reps; \
         enabled = gate on + chrome-trace + jsonl + folded + run-report export; \
         cut lines byte-identical across all configs\"}}",
        args.reps, args.runs, args.seed, args.threads
    );
    let mut ok = true;
    for name in &args.circuits {
        let Some(circuit) = mlpart_gen::by_name(name) else {
            eprintln!("unknown circuit {name:?}");
            std::process::exit(2);
        };
        let h = circuit.generate(args.seed);
        let mut results: Vec<(&str, String, f64)> = ["disabled", "enabled"]
            .map(|config| (config, String::new(), f64::INFINITY))
            .to_vec();
        // Both configs run in one build, so repetitions alternate between
        // them: a slow stretch of a shared host hits both, not just one.
        for _ in 0..args.reps {
            for (config, cut_line, best) in &mut results {
                let (line, wall) = match *config {
                    "enabled" => run_enabled(&h, &args),
                    _ => measure(&h, args.runs, args.seed, args.threads),
                };
                eprintln!("  {name}/{config}: {wall:.6}s");
                *best = best.min(wall);
                *cut_line = line;
            }
        }
        // Determinism guarantee: recording on vs. off must not change the
        // reported cuts.
        for (config, line, _) in &results[1..] {
            if line != &results[0].1 {
                eprintln!(
                    "FAIL: {name} cut line differs between {} and {config}",
                    results[0].0
                );
                ok = false;
            }
        }
        let base = results[0].2;
        for (config, line, wall) in &results {
            let _ = writeln!(
                doc,
                "{{\"group\":\"obs_overhead\",\"bench\":\"{name}/{config}\",\
                 \"wall_secs\":{wall:.6},\"overhead_vs_base\":{:.3},\"cut_line\":\"{line}\"}}",
                wall / base
            );
        }
    }
    match &args.out {
        None => print!("{doc}"),
        Some(path) => {
            if let Err(e) = mlpart_hypergraph::io::write_atomic(path, doc.as_bytes()) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {path}");
        }
    }
    std::process::exit(i32::from(!ok));
}

/// The `enabled` config: gate forced on, batch captured, all four export
/// formats serialized (and dropped — measuring CPU cost, not the disk).
fn run_enabled(h: &mlpart_hypergraph::Hypergraph, args: &Args) -> (String, f64) {
    mlpart_obs::force_enabled(true);
    let t0 = Instant::now();
    let (line, trace) = mlpart_obs::capture(|| {
        let _run = mlpart_obs::span(
            "run",
            &[("runs", args.runs.into()), ("seed", args.seed.into())],
        );
        measure(h, args.runs, args.seed, args.threads).0
    });
    // The gate is forced on, so the capture always records.
    let trace = trace.unwrap_or_default();
    let exports = [
        mlpart_obs::to_chrome_trace(&trace),
        mlpart_obs::to_jsonl(&trace),
        mlpart_obs::to_folded(&trace),
        mlpart_obs::report::RunReport {
            meta: vec![("harness", "obs_overhead".into())],
            cuts: Vec::new(),
            failures: Vec::new(),
            truncations: Vec::new(),
            retries: Vec::new(),
            repairs: Vec::new(),
            wall_secs: 0.0,
            cpu_secs: 0.0,
            trace,
        }
        .to_json(),
    ];
    let wall = t0.elapsed().as_secs_f64();
    std::hint::black_box(&exports);
    mlpart_obs::force_enabled(false);
    (line, wall)
}
