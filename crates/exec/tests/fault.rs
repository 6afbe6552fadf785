//! Fault-injection tests for the execution layer.
//!
//! These live in their own integration-test binary, not the lib's unit
//! tests, because a forced fault plan is process-global: while one test
//! holds it, any *other* test calling `run_starts` concurrently in the same
//! process would see the injected panics. Here every test grabs
//! `mlpart_fault::test_lock()`, so within this process the forced-plan
//! windows are serialized and nothing else runs a batch.

use mlpart_exec::{run_starts, try_run_starts};
use mlpart_fm::RefineWorkspace;
use mlpart_hypergraph::rng::MlRng;
use rand::Rng;

fn job(rng: &mut MlRng, _ws: &mut RefineWorkspace) -> u64 {
    rng.gen_range(0..1_000_000u64)
}

/// Injected per-start panics at the `start` site exercise the same recovery
/// path as organic panics, keyed deterministically off the start index.
#[test]
fn injected_start_panics_are_isolated() {
    let _gate = mlpart_fault::test_lock();
    mlpart_fault::force_plan(mlpart_fault::FaultPlan::parse("panic@start:1|3").unwrap());
    let result = try_run_starts(6, 91, 2, &job);
    mlpart_fault::clear_force();
    let (batch, _) = result.expect("survivors exist");
    assert_eq!(
        batch.failures.iter().map(|f| f.start).collect::<Vec<_>>(),
        vec![1, 3]
    );
    assert!(batch.failures[0]
        .message
        .contains("injected fault: panic@start:1"));
    assert_eq!(batch.survivors.len(), 4);
    // Survivors match an uninjected run with those starts removed.
    mlpart_fault::force_off();
    let (clean, _) = run_starts(6, 91, 1, &job);
    mlpart_fault::clear_force();
    for &(i, v) in &batch.survivors {
        assert_eq!(v, clean[i], "start {i}");
    }
}

/// A probabilistic selector (`p=...@SEED`) is a pure function of the site
/// index, so the same starts fail at every thread count.
#[test]
fn probabilistic_faults_are_thread_count_invariant() {
    let _gate = mlpart_fault::test_lock();
    mlpart_fault::force_plan(mlpart_fault::FaultPlan::parse("panic@start:p=0.4@7").unwrap());
    let reference = try_run_starts(10, 33, 1, &job);
    let parallel = try_run_starts(10, 33, 4, &job);
    mlpart_fault::clear_force();
    match (reference, parallel) {
        (Ok((a, _)), Ok((b, _))) => {
            assert_eq!(a.survivors, b.survivors);
            assert_eq!(
                a.failures.iter().map(|f| f.start).collect::<Vec<_>>(),
                b.failures.iter().map(|f| f.start).collect::<Vec<_>>()
            );
            assert!(!a.failures.is_empty(), "p=0.4 over 10 starts should hit");
        }
        other => panic!("expected surviving batches, got {other:?}"),
    }
}
