//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload in this process and prints one JSON result line last on
//! stdout: the end-to-end metrics with `--trace 0`, the per-layer metrics of
//! the traced re-drive with `--trace 1`. Circuit generation runs first in a
//! child process (`perfbench gen ...`), so its memory stays out of
//! `peak_rss_mb`. The exit code is 0 only when every output checked out.

use perfbench::alloc::CountingAlloc;
use perfbench::workload::{self, Workload};
use perfbench::{
    end_to_end, measure, measure_traced, per_layer, result_json, write_inputs, Inputs, Metric,
    MIN_COVERAGE, MIN_SAMPLES, QUALITY_ROUNDS,
};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = workload::all().iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
    })
}

/// Generates the inputs in a child process of this same binary.
fn generate(args: &Args, dir: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let status = Command::new(exe)
        .args(["gen", "--workload", args.workload.name, "--dir"])
        .arg(dir)
        .status()
        .map_err(|e| format!("cannot start the generator: {e}"))?;
    if !status.success() {
        return Err(format!("generator failed: {status}"));
    }
    Ok(())
}

fn run(args: &Args, dir: &Path) -> Result<bool, String> {
    let w = &args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "workload {}: {:?} on {:?}, k = {}, {} thread(s), nproc {nproc}, starts per batch {:?}, closed loop",
        w.name,
        w.algo,
        w.circuits,
        w.algo.k(),
        w.threads,
        w.starts
    );
    generate(args, dir)?;
    let mut inputs = Inputs::load(w, dir)?;
    let (correct, attempted, failed, metrics): (bool, usize, usize, Vec<Metric>) = if args.trace {
        // One untraced round as the reference, then the same starts traced.
        let u = measure(w, &mut inputs, args.seed, 0.0, 1, 1)?;
        let t = measure_traced(w, &inputs.nets, args.seed, &u);
        let metrics = per_layer(&inputs, &u, &t);
        let coverage = metrics
            .iter()
            .find(|m| m.name == "bench.trace_coverage")
            .map_or(0.0, |m| m.value);
        for msg in u.tally.messages.iter().chain(&t.tally.messages) {
            eprintln!("failed: {msg}");
        }
        eprintln!("traced {} start(s); coverage {coverage:.4}", t.starts.len());
        if coverage < MIN_COVERAGE {
            eprintln!("trace coverage {coverage:.4} is below {MIN_COVERAGE}");
        }
        let failed = u.tally.failed + t.tally.failed;
        let attempted = u.tally.attempted + t.tally.attempted;
        (
            failed == 0 && coverage >= MIN_COVERAGE,
            attempted,
            failed,
            metrics,
        )
    } else {
        let u = measure(
            w,
            &mut inputs,
            args.seed,
            args.seconds,
            MIN_SAMPLES,
            QUALITY_ROUNDS,
        )?;
        for msg in &u.tally.messages {
            eprintln!("failed: {msg}");
        }
        let (metrics, tail) = end_to_end(&inputs, &u)?;
        for (name, ms) in w.circuits.iter().zip(&u.start_ms) {
            let p50 = perfbench::stats::median(ms).unwrap_or(0.0);
            eprintln!("{name}: {} start(s), p50 {p50:.1} ms as measured", ms.len());
        }
        let scale = perfbench::stats::median(&u.scales).unwrap_or(1.0);
        eprintln!(
            "speed scale to the reference: median {scale:.4} over {} batches",
            u.scales.len()
        );
        eprintln!(
            "{} round(s); start_tail_ms is p{:.1} of {} starts",
            u.rounds, tail.percentile, tail.samples
        );
        (
            u.tally.failed == 0,
            u.tally.attempted,
            u.tally.failed,
            metrics,
        )
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn gen_main(mut it: impl Iterator<Item = String>) -> Result<(), String> {
    let (mut workload, mut dir) = (None, None);
    while let (Some(flag), Some(value)) = (it.next(), it.next()) {
        match flag.as_str() {
            "--workload" => workload = workload::by_name(&value),
            "--dir" => dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match (workload, dir) {
        (Some(w), Some(dir)) => write_inputs(&w, &dir),
        _ => Err("usage: perfbench gen --workload NAME --dir DIR".to_owned()),
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("gen") {
        argv.next();
        return match gen_main(argv) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Inputs live in a per-process directory under the package, removed on
    // exit; the directory name keeps concurrent runs apart.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!(
            "{}-{}-{}",
            args.workload.name,
            args.seed,
            std::process::id()
        ));
    let outcome = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
