//! Fault-injection meets the determinism contract: injected per-start
//! panics on a *real* partitioning workload must leave the surviving
//! starts bit-identical at every thread count.
//!
//! Lives in its own integration-test binary because a forced fault plan is
//! process-global — any other test running a batch in the same process
//! would see the injected panics. Every test here serializes on
//! `mlpart_fault::test_lock()`.

use mlpart_bench::algos;
use mlpart_gen::suite;

/// Thread counts under test, mirroring `determinism.rs`.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 8];
    if let Ok(forced) = std::env::var("MLPART_TEST_THREADS") {
        let forced: usize = forced
            .parse()
            .expect("MLPART_TEST_THREADS must be a positive integer");
        assert!(forced > 0, "MLPART_TEST_THREADS must be positive");
        if !counts.contains(&forced) {
            counts.push(forced);
        }
    }
    counts
}

/// Panic isolation must not weaken the determinism contract: with a
/// deterministic injected fault killing one start, the surviving starts'
/// results are bit-identical at every thread count *and* equal to a clean
/// batch with the dead start filtered out.
#[test]
fn injected_panics_leave_survivors_thread_count_invariant() {
    let h = suite::by_name("balu").expect("suite circuit").generate(3);
    let job = |rng: &mut _, ws: &mut _| algos::ml_c_in(&h, 0.5, rng, ws);
    let _guard = mlpart_fault::test_lock();

    mlpart_fault::force_off();
    let (clean, _) = mlpart_exec::run_starts(5, 21, 1, &job);

    mlpart_fault::force_plan(mlpart_fault::FaultPlan::parse("panic@start:2").expect("parses"));
    let reference: Vec<(usize, u64)> = clean
        .iter()
        .copied()
        .enumerate()
        .filter(|&(i, _)| i != 2)
        .collect();
    for threads in thread_counts() {
        let outcome = mlpart_exec::try_run_starts(5, 21, threads, &job)
            .expect("survivors exist")
            .0;
        assert_eq!(
            outcome.failures.iter().map(|f| f.start).collect::<Vec<_>>(),
            vec![2],
            "threads = {threads}"
        );
        assert_eq!(outcome.survivors, reference, "threads = {threads}");
    }
    mlpart_fault::clear_force();
}
