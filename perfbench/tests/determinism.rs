//! The deterministic metrics repeat exactly: across two runs of every
//! workload, and on `ml2-golem3-2t` across 1 and 2 worker threads. The
//! traced re-drive must reproduce the driver's cuts, and outputs that break
//! the checks count as failures.
//!
//! Each run here has one start per circuit and round, on the workloads'
//! real circuits and algorithms.

use perfbench::workload::{self, Algo, Workload};
use perfbench::{
    check, cut_stats, measure, measure_traced, per_layer, write_inputs, Inputs, QUALITY_ROUNDS,
};
use std::path::PathBuf;

const SEED: u64 = 7;

/// The per-layer metrics that must repeat exactly.
const DETERMINISTIC: &[&str] = &[
    "core.levels",
    "fm.passes",
    "fm.moves_attempted",
    "fm.moves_kept",
    "kway.passes",
    "kway.moves_attempted",
    "kway.moves_kept",
    "cluster.rebalance_moves",
];

fn small(name: &str) -> Workload {
    let mut w = workload::by_name(name).expect("known workload");
    w.starts = vec![1; w.circuits.len()];
    w
}

fn tmp_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("determinism-{tag}"))
}

/// Runs the untraced quality rounds and the traced re-drive of the first;
/// returns the cut statistics and the deterministic per-layer counts.
fn deterministic_metrics(w: &Workload, tag: &str) -> Vec<(String, f64)> {
    let dir = tmp_dir(tag);
    write_inputs(w, &dir).expect("inputs written");
    let mut inputs = Inputs::load(w, &dir).expect("inputs parse and preflight");
    let u = measure(w, &mut inputs, SEED, 0.0, 1, QUALITY_ROUNDS).expect("inputs stay readable");
    std::fs::remove_dir_all(&dir).expect("inputs removed");
    let t = measure_traced(w, &inputs.nets, SEED, &u);
    assert_eq!(u.tally.failed, 0, "{:?}", u.tally.messages);
    assert_eq!(t.tally.failed, 0, "{:?}", t.tally.messages);
    let (cut_avg, cut_min) = cut_stats(&u).expect("starts passed");
    let mut out = vec![
        ("cut_avg".to_owned(), cut_avg),
        ("cut_min".to_owned(), cut_min),
    ];
    for m in per_layer(&inputs, &u, &t) {
        if DETERMINISTIC.contains(&m.name) {
            out.push((m.name.to_owned(), m.value));
        }
    }
    out
}

fn repeats_exactly(name: &str) {
    let w = small(name);
    let a = deterministic_metrics(&w, &format!("{name}-a"));
    let b = deterministic_metrics(&w, &format!("{name}-b"));
    assert_eq!(a, b);
}

#[test]
fn ml2_medium_repeats_exactly() {
    repeats_exactly("ml2-medium");
}

#[test]
fn flat_rnd_repeats_exactly() {
    repeats_exactly("flat-rnd");
}

#[test]
fn ml4_kway_repeats_exactly() {
    repeats_exactly("ml4-kway");
}

#[test]
fn ml2_golem3_repeats_exactly_at_one_and_two_threads() {
    // Two starts per batch, so both workers run.
    let mut w = small("ml2-golem3-2t");
    w.starts = vec![2];
    assert_eq!(w.threads, 2);
    let two = deterministic_metrics(&w, "golem3-2t-a");
    assert_eq!(two, deterministic_metrics(&w, "golem3-2t-b"));
    w.threads = 1;
    assert_eq!(two, deterministic_metrics(&w, "golem3-1t"));
}

#[test]
fn redrive_disagreeing_with_the_driver_fails() {
    let mut w = small("ml4-kway");
    w.circuits = vec!["syn-balu"];
    w.starts = vec![2];
    let dir = tmp_dir("tamper");
    write_inputs(&w, &dir).expect("inputs written");
    let mut inputs = Inputs::load(&w, &dir).expect("inputs parse");
    let mut u = measure(&w, &mut inputs, SEED, 0.0, 1, 1).expect("inputs stay readable");
    std::fs::remove_dir_all(&dir).expect("inputs removed");
    assert_eq!(u.tally.failed, 0);
    let t = measure_traced(&w, &inputs.nets, SEED, &u);
    assert_eq!(t.tally.failed, 0, "{:?}", t.tally.messages);
    for cut in u.cuts[0].iter_mut().flatten() {
        *cut += 1;
    }
    let t = measure_traced(&w, &inputs.nets, SEED, &u);
    assert_eq!(t.tally.failed, 2);
}

#[test]
fn check_rejects_wrong_cut_and_imbalance() {
    let w = small("ml2-medium");
    let h = mlpart::gen::by_name("syn-balu")
        .expect("suite circuit")
        .generate(SEED);
    let mut rng = mlpart::hypergraph::rng::seeded_rng(1);
    let (mut p, cut) =
        perfbench::drive::run_start(&h, &w.algo, &mut rng, &mut mlpart::RefineWorkspace::new());
    assert_eq!(check(&h, &w.algo, &p, cut), Ok(()));
    assert!(check(&h, &w.algo, &p, cut + 1).is_err());
    for v in (0..h.num_modules()).map(mlpart::ModuleId::new) {
        p.move_module(&h, v, 0);
    }
    let cut = mlpart::hypergraph::metrics::cut(&h, &p);
    assert!(
        check(&h, &w.algo, &p, cut).is_err(),
        "one part holds everything"
    );
    assert!(
        check(&h, &Algo::ml_kway(), &p, cut).is_err(),
        "k = 2 is not k = 4"
    );
}
