//! Fault injection at the budget meter's checkpoints.
//!
//! Lives in its own integration-test binary because a forced fault plan is
//! process-global: while it is installed, any FM/CLIP run in the same
//! process that reaches the planned pass would be truncated too. Every
//! test here holds `mlpart_fault::test_lock()` while a plan is forced.

use mlpart_fm::{BudgetLimit, BudgetMeter};

#[test]
fn injected_exhaustion_records_injected_limit() {
    let _gate = mlpart_fault::test_lock();
    mlpart_fault::force_plan(mlpart_fault::FaultPlan::parse("exhaust@pass:1").unwrap());
    let mut m = BudgetMeter::unlimited();
    assert!(m.pass_checkpoint(0));
    m.note_pass(3);
    assert!(!m.pass_checkpoint(1));
    assert_eq!(m.truncation().unwrap().limit, BudgetLimit::Injected);
    mlpart_fault::clear_force();
}
