//! Supervised retries and resumable batches over the machinery of
//! [`try_run_starts`](crate::try_run_starts).
//!
//! [`run_supervised`] is the crash-safe batch driver: each start gets up to
//! [`RetryPolicy::max_attempts`] deterministic attempts (attempt `a` of
//! start `i` reseeds from `child_seed(child_seed(base, i), a)`, so a retry
//! is a *different* deterministic start, not a replay of the failed one),
//! completed starts can be skipped on a later run via [`ResumeState`], and
//! a completion sink lets the caller checkpoint each start the moment it
//! finishes — in completion order, which is scheduling-dependent, while the
//! *returned* batch stays in start order and bit-identical at every thread
//! count.
//!
//! # Determinism argument
//!
//! The three invariants of the unsupervised runner carry over unchanged:
//! per-start seed streams are functions of the start index alone, attempt
//! seed streams are functions of `(start, attempt)` alone, and results
//! scatter into start-indexed slots before any reduction. A retry happens
//! exactly when an attempt panics, panics are deterministic for a fixed
//! (netlist, config, seed, fault plan), and each attempt runs start-to-end
//! on one worker — so the set of (start, attempt) executions, the retry
//! records, and the survivor values are all scheduling-independent. The
//! sequential single-thread oracle in the proptests is the specification.
//!
//! With `max_attempts == 1`, no degradation, and an empty resume state,
//! [`run_supervised`] is **bit-identical** to
//! [`try_run_starts`](crate::try_run_starts) — same survivors, failures,
//! and (with tracing on) the same merged trace content.

use crate::{failure_phase, panic_message, BatchResult, ExecError, ExecTiming, StartFailure};
use mlpart_fm::{Budget, RefineWorkspace};
use mlpart_hypergraph::rng::{child_seed, seeded_rng, MlRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A start's full trace contribution: the concatenation of its per-attempt
/// streams, each wrapped in its `start` span. An empty trace when the trace
/// gate was off. Checkpoints persist this and replay it verbatim on resume.
pub type StartContribution = mlpart_obs::Trace;

/// Fixed stride between starts in the `attempt` fault-site index space:
/// attempt `a` of start `i` hits index `i * ATTEMPT_STRIDE + a`. Also the
/// hard ceiling on [`RetryPolicy::max_attempts`], so the index spaces of
/// consecutive starts never overlap.
pub const ATTEMPT_STRIDE: u64 = 8;

/// How hard the supervisor fights for each start.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per start, in `1..=ATTEMPT_STRIDE`; values outside the
    /// range are clamped. `1` means no retries (the unsupervised contract).
    pub max_attempts: u32,
    /// When set, the *final* attempt of a start that has burned all its
    /// earlier attempts runs under this budget instead of the caller's —
    /// graceful degradation: a truncated-but-feasible answer beats another
    /// panic.
    pub degraded_final: Option<Budget>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            degraded_final: None,
        }
    }
}

impl RetryPolicy {
    fn attempts(&self) -> u32 {
        self.max_attempts.clamp(1, ATTEMPT_STRIDE as u32)
    }
}

/// The identity of one attempt, handed to the job closure.
#[derive(Debug, Clone, Copy)]
pub struct Attempt<'p> {
    /// Start index in `0..runs`.
    pub start: usize,
    /// Attempt index in `0..max_attempts`; `0` on the untroubled path.
    pub attempt: u32,
    /// The degraded budget to run under, set only on a final attempt when
    /// [`RetryPolicy::degraded_final`] is configured. `None` means the job
    /// uses whatever budget the caller configured.
    pub budget: Option<&'p Budget>,
}

/// One failed attempt that the supervisor absorbed by retrying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryRecord {
    /// Which start the attempt belonged to.
    pub start: usize,
    /// The attempt index that failed (0-based).
    pub attempt: u32,
    /// The panic payload message.
    pub message: String,
    /// The innermost observability span open at the panic, when tracing
    /// was active.
    pub phase: Option<String>,
}

impl std::fmt::Display for RetryRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.phase {
            Some(p) => write!(
                f,
                "start {} attempt {} panicked in {}: {} (retried)",
                self.start, self.attempt, p, self.message
            ),
            None => write!(
                f,
                "start {} attempt {} panicked: {} (retried)",
                self.start, self.attempt, self.message
            ),
        }
    }
}

/// A supervised batch: the survivor/failure split of [`BatchResult`] plus
/// the retries that were absorbed along the way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisedBatch<T> {
    /// Surviving starts as `(start index, value)`, in start order.
    pub survivors: Vec<(usize, T)>,
    /// Starts whose final attempt failed, in start order.
    pub failures: Vec<StartFailure>,
    /// Absorbed attempt failures, ordered by (start, attempt).
    pub retries: Vec<RetryRecord>,
    /// Attempts consumed per start (`attempts[i]` for start `i`); resumed
    /// starts report what their original run consumed.
    pub attempts: Vec<u32>,
}

impl<T> SupervisedBatch<T> {
    /// Drops the supervision extras, leaving the plain [`BatchResult`] the
    /// existing reductions consume.
    pub fn into_batch(self) -> BatchResult<T> {
        BatchResult {
            survivors: self.survivors,
            failures: self.failures,
        }
    }
}

/// A start already completed by a previous run, restored from a checkpoint.
#[derive(Debug, Clone)]
pub struct PriorStart<T> {
    /// Start index in `0..runs`.
    pub start: usize,
    /// Attempts the original run consumed on this start.
    pub attempts: u32,
    /// The original outcome: the job's value, or the final-attempt failure.
    pub outcome: Result<T, StartFailure>,
    /// Retries the original run absorbed on this start, in attempt order.
    pub retries: Vec<RetryRecord>,
    /// The start's full trace contribution from the original run. Spliced
    /// verbatim in start order so a resumed run's stripped trace is
    /// byte-identical to an uninterrupted one.
    pub trace: StartContribution,
}

/// Completed starts to skip, restored from a checkpoint. The default is
/// empty: run everything.
#[derive(Debug, Clone)]
pub struct ResumeState<T> {
    /// Prior starts in any order; indices must be unique and `< runs`.
    pub done: Vec<PriorStart<T>>,
}

// Manual impl: the derive would demand `T: Default`, which the restored
// job values have no reason to satisfy.
impl<T> Default for ResumeState<T> {
    fn default() -> Self {
        ResumeState { done: Vec::new() }
    }
}

/// A completed start, as seen by the checkpoint sink the moment the start
/// finishes (completion order — scheduling-dependent; key any persistent
/// record by [`StartDone::start`]).
#[derive(Debug)]
pub struct StartDone<'a, T> {
    /// Start index.
    pub start: usize,
    /// Attempts consumed.
    pub attempts: u32,
    /// The final outcome.
    pub outcome: Result<&'a T, &'a StartFailure>,
    /// Absorbed retries, in attempt order.
    pub retries: &'a [RetryRecord],
    /// The start's full trace contribution.
    pub trace: &'a StartContribution,
}

/// What one supervised start yields to the scatter phase.
struct StartYield<T> {
    outcome: Result<T, StartFailure>,
    retries: Vec<RetryRecord>,
    attempts: u32,
    trace: StartContribution,
}

/// The completion sink: called on whichever worker finished the start.
pub type Sink<'s, T> = Option<&'s (dyn Fn(&StartDone<T>) + Sync)>;

/// Runs one start to success or retry exhaustion. Every attempt runs
/// inside its own isolation boundary (catch_unwind inside the obs capture,
/// fault sites innermost), and each attempt's trace is wrapped and
/// appended to the start's contribution locally so the scatter phase can
/// splice it in start order.
fn run_start_supervised<T, F>(
    i: usize,
    base_seed: u64,
    policy: &RetryPolicy,
    ws: &mut RefineWorkspace,
    job: &F,
) -> (f64, StartYield<T>)
where
    F: Fn(&mut MlRng, &mut RefineWorkspace, Attempt) -> T + Sync,
{
    let t0 = Instant::now();
    let max = policy.attempts();
    let mut retries = Vec::new();
    let mut contribution = StartContribution::default();
    let mut attempts;
    let mut a = 0;
    let outcome = loop {
        attempts = a + 1;
        let seed = if a == 0 {
            // Attempt 0 uses the unsupervised per-start stream, keeping a
            // retry-free supervised batch bit-identical to try_run_starts.
            child_seed(base_seed, i as u64)
        } else {
            child_seed(child_seed(base_seed, i as u64), u64::from(a))
        };
        let mut rng = seeded_rng(seed);
        let budget = if a + 1 == max {
            policy.degraded_final.as_ref()
        } else {
            None
        };
        let attempt = Attempt {
            start: i,
            attempt: a,
            budget,
        };
        let body = AssertUnwindSafe(|| {
            #[cfg(feature = "fault")]
            {
                mlpart_fault::maybe_panic("start", i as u64);
                mlpart_fault::maybe_panic("attempt", i as u64 * ATTEMPT_STRIDE + u64::from(a));
            }
            job(&mut rng, ws, attempt)
        });
        let (result, trace) = mlpart_obs::capture(|| catch_unwind(body));
        if let Some(t) = &trace {
            // Attempt 0 keeps the unsupervised wrapper args so the merged
            // stream is byte-compatible with try_run_starts; retries are
            // tagged with their attempt index.
            if a == 0 {
                contribution.append_span("start", &[("start", (i as u64).into())], t);
            } else {
                contribution.append_span(
                    "start",
                    &[("start", (i as u64).into()), ("attempt", a.into())],
                    t,
                );
            }
        }
        match result {
            Ok(value) => break Ok(value),
            Err(payload) => {
                let message = panic_message(payload);
                let phase = failure_phase(&trace);
                // The unwound job may have left the workspace mid-mutation;
                // fresh is bit-identical to reused (the `*_in` contract).
                *ws = RefineWorkspace::new();
                if a + 1 < max {
                    retries.push(RetryRecord {
                        start: i,
                        attempt: a,
                        message,
                        phase,
                    });
                } else {
                    break Err(StartFailure {
                        start: i,
                        message,
                        phase,
                    });
                }
            }
        }
        a += 1;
    };
    let secs = t0.elapsed().as_secs_f64();
    (
        secs,
        StartYield {
            outcome,
            retries,
            attempts,
            trace: contribution,
        },
    )
}

fn notify_sink<T>(sink: Sink<'_, T>, i: usize, y: &StartYield<T>) {
    if let Some(sink) = sink {
        sink(&StartDone {
            start: i,
            attempts: y.attempts,
            outcome: y.outcome.as_ref(),
            retries: &y.retries,
            trace: &y.trace,
        });
    }
}

/// Runs `runs` starts under a [`RetryPolicy`] with per-attempt fault
/// isolation, skipping the starts in `resume` and reporting each completed
/// start to `sink` the moment it finishes.
///
/// Returns the supervised batch in start order plus timing telemetry (CPU
/// seconds cover only the starts executed *this* run). See the module docs
/// for the determinism argument; the short version is that survivors,
/// failures, retry records, and (with tracing on) merged trace content are
/// bit-identical at every thread count, and bit-identical between an
/// uninterrupted run and any interrupt/resume split of the same batch.
///
/// # Errors
///
/// [`ExecError::AllStartsFailed`] when every start (fresh or resumed)
/// exhausted its attempts; [`ExecError::Lost`] when the runner lost results
/// or `resume` is inconsistent with `runs` (duplicate or out-of-range start
/// indices).
///
/// # Panics
///
/// Panics if `runs == 0` or `threads == 0` (caller bugs, not input faults).
pub fn run_supervised<T, F>(
    runs: usize,
    base_seed: u64,
    threads: usize,
    policy: &RetryPolicy,
    resume: ResumeState<T>,
    sink: Sink<'_, T>,
    job: &F,
) -> Result<(SupervisedBatch<T>, ExecTiming), ExecError>
where
    T: Send,
    F: Fn(&mut MlRng, &mut RefineWorkspace, Attempt) -> T + Sync,
{
    assert!(runs > 0, "need at least one start");
    assert!(threads > 0, "need at least one thread");
    let wall = Instant::now();

    // Slot in the resumed starts first and validate them: a checkpoint that
    // disagrees with the requested batch shape is a harness error, not a
    // job failure.
    let mut slots: Vec<Option<StartYield<T>>> = (0..runs).map(|_| None).collect();
    for prior in resume.done {
        let Some(slot) = slots.get_mut(prior.start) else {
            return Err(ExecError::Lost {
                detail: format!(
                    "resume state covers start {} but the batch has only {runs} starts",
                    prior.start
                ),
            });
        };
        if slot.is_some() {
            return Err(ExecError::Lost {
                detail: format!("resume state lists start {} twice", prior.start),
            });
        }
        *slot = Some(StartYield {
            outcome: prior.outcome,
            retries: prior.retries,
            attempts: prior.attempts,
            trace: prior.trace,
        });
    }
    let pending: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_none())
        .map(|(i, _)| i)
        .collect();

    let mut cpu_secs = 0.0;
    if pending.is_empty() {
        // Nothing left to run: the batch is fully restored.
    } else if threads == 1 {
        // Single-thread fast path: no spawn, identical seed streams and
        // identical isolation boundary.
        let mut ws = RefineWorkspace::new();
        for &i in &pending {
            let (secs, y) = run_start_supervised(i, base_seed, policy, &mut ws, job);
            cpu_secs += secs;
            notify_sink(sink, i, &y);
            // i came out of `slots` above, so it is always in range; a
            // lost write is caught by the never-claimed check in gather.
            if let Some(slot) = slots.get_mut(i) {
                *slot = Some(y);
            }
        }
    } else {
        let next = AtomicUsize::new(0);
        let workers = threads.min(pending.len());
        let pending_ref = &pending;
        type Yielded<T> = Vec<(usize, f64, StartYield<T>)>;
        let locals: Vec<Result<Yielded<T>, ExecError>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut ws = RefineWorkspace::new();
                        let mut local = Vec::new();
                        loop {
                            let slot = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&i) = pending_ref.get(slot) else {
                                break;
                            };
                            let (secs, y) =
                                run_start_supervised(i, base_seed, policy, &mut ws, job);
                            notify_sink(sink, i, &y);
                            local.push((i, secs, y));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().map_err(|_| ExecError::Lost {
                        detail: "worker thread died outside the per-start isolation boundary"
                            .to_string(),
                    })
                })
                .collect()
        });
        #[cfg(feature = "audit")]
        let mut claims = vec![0u32; runs];
        for local in locals {
            for (i, secs, y) in local? {
                cpu_secs += secs;
                #[cfg(feature = "audit")]
                if let Some(c) = claims.get_mut(i) {
                    *c += 1;
                }
                // i was handed to the worker from `pending`, so it is
                // always in range; a lost write is caught by the
                // never-claimed check in gather.
                if let Some(slot) = slots.get_mut(i) {
                    *slot = Some(y);
                }
            }
        }
        // Work-stealing audit: every *pending* start claimed exactly once
        // (an out-of-range claim would read as zero and fail the audit).
        #[cfg(feature = "audit")]
        if mlpart_audit::enabled() {
            let pending_claims: Vec<u32> = pending
                .iter()
                .map(|&i| claims.get(i).copied().unwrap_or(0))
                .collect();
            mlpart_audit::enforce(mlpart_audit::audit_start_claims(&pending_claims));
        }
    }

    // Gather in start order: splice traces, split outcomes, merge retries.
    let mut survivors: Vec<(usize, T)> = Vec::with_capacity(runs);
    let mut failures: Vec<StartFailure> = Vec::new();
    let mut retries: Vec<RetryRecord> = Vec::new();
    let mut attempts: Vec<u32> = Vec::with_capacity(runs);
    for (i, slot) in slots.into_iter().enumerate() {
        let y = slot.ok_or_else(|| ExecError::Lost {
            detail: format!("start {i} was never claimed by any worker"),
        })?;
        mlpart_obs::append_raw(&y.trace);
        attempts.push(y.attempts);
        retries.extend(y.retries);
        match y.outcome {
            Ok(value) => survivors.push((i, value)),
            Err(failure) => failures.push(failure),
        }
    }
    let timing = ExecTiming {
        wall_secs: wall.elapsed().as_secs_f64(),
        cpu_secs,
    };
    if survivors.is_empty() {
        return Err(ExecError::AllStartsFailed { failures });
    }
    Ok((
        SupervisedBatch {
            survivors,
            failures,
            retries,
            attempts,
        },
        timing,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::try_run_starts;
    use rand::Rng;
    use std::sync::Mutex;

    fn draw_job(rng: &mut MlRng, _ws: &mut RefineWorkspace, _a: Attempt) -> u64 {
        rng.gen_range(0..u64::MAX)
    }

    fn plain_job(rng: &mut MlRng, _ws: &mut RefineWorkspace) -> u64 {
        rng.gen_range(0..u64::MAX)
    }

    /// With max_attempts == 1, no resume, and no sink, the supervised runner
    /// is the unsupervised runner: same survivors, same attempt-0 seeds.
    #[test]
    fn retry_free_supervised_matches_unsupervised() {
        let policy = RetryPolicy::default();
        for threads in [1, 2, 4, 8] {
            let (sup, _) = run_supervised(
                11,
                97,
                threads,
                &policy,
                ResumeState::default(),
                None,
                &draw_job,
            )
            .expect("survivors");
            let (uns, _) = try_run_starts(11, 97, threads, &plain_job).expect("survivors");
            assert_eq!(sup.survivors, uns.survivors, "threads={threads}");
            assert_eq!(sup.failures, uns.failures, "threads={threads}");
            assert!(sup.retries.is_empty());
            assert_eq!(sup.attempts, vec![1; 11]);
        }
    }

    /// The merged trace of a retry-free supervised batch is content-equal to
    /// the unsupervised runner's, so downstream trace consumers cannot tell
    /// the supervisor was in the loop.
    #[test]
    fn retry_free_trace_is_byte_compatible() {
        let _gate = crate::obs_gate_lock();
        mlpart_obs::force_enabled(true);
        let span_sup = |rng: &mut MlRng, _ws: &mut RefineWorkspace, _a: Attempt| -> u64 {
            let v = rng.gen_range(0..1000u64);
            mlpart_obs::counter("draw", &[("value", v.into())]);
            v
        };
        let span_uns = |rng: &mut MlRng, _ws: &mut RefineWorkspace| -> u64 {
            let v = rng.gen_range(0..1000u64);
            mlpart_obs::counter("draw", &[("value", v.into())]);
            v
        };
        let policy = RetryPolicy::default();
        let (_, sup_trace) = mlpart_obs::capture(|| {
            run_supervised(9, 41, 3, &policy, ResumeState::default(), None, &span_sup)
                .expect("survivors")
        });
        let (_, uns_trace) =
            mlpart_obs::capture(|| try_run_starts(9, 41, 3, &span_uns).expect("survivors"));
        mlpart_obs::force_enabled(false);
        let strip = |t: Option<mlpart_obs::Trace>| {
            mlpart_obs::strip_timing(&mlpart_obs::to_jsonl(&t.expect("gate forced on")))
        };
        assert_eq!(strip(sup_trace), strip(uns_trace));
    }

    #[test]
    fn policy_clamps_attempts_into_stride() {
        let mut p = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.attempts(), 1);
        p.max_attempts = 100;
        assert_eq!(p.attempts(), ATTEMPT_STRIDE as u32);
        p.max_attempts = 3;
        assert_eq!(p.attempts(), 3);
    }

    #[test]
    fn resume_rejects_out_of_range_and_duplicate_starts() {
        let prior = |start: usize| PriorStart::<u64> {
            start,
            attempts: 1,
            outcome: Ok(7),
            retries: Vec::new(),
            trace: StartContribution::default(),
        };
        let policy = RetryPolicy::default();
        let oob = ResumeState {
            done: vec![prior(5)],
        };
        match run_supervised(3, 1, 1, &policy, oob, None, &draw_job) {
            Err(ExecError::Lost { detail }) => assert!(detail.contains("start 5"), "{detail}"),
            other => panic!("expected Lost, got {other:?}"),
        }
        let dup = ResumeState {
            done: vec![prior(1), prior(1)],
        };
        match run_supervised(3, 1, 1, &policy, dup, None, &draw_job) {
            Err(ExecError::Lost { detail }) => assert!(detail.contains("twice"), "{detail}"),
            other => panic!("expected Lost, got {other:?}"),
        }
    }

    /// The sink sees every *pending* start exactly once; resumed starts are
    /// restored without re-running or re-notifying.
    #[test]
    fn sink_fires_once_per_fresh_start_only() {
        let policy = RetryPolicy::default();
        let (full, _) = run_supervised(8, 13, 1, &policy, ResumeState::default(), None, &draw_job)
            .expect("survivors");
        let resume = ResumeState {
            done: full
                .survivors
                .iter()
                .filter(|(i, _)| *i < 3)
                .map(|&(start, v)| PriorStart {
                    start,
                    attempts: 1,
                    outcome: Ok(v),
                    retries: Vec::new(),
                    trace: StartContribution::default(),
                })
                .collect(),
        };
        let seen: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let sink = |done: &StartDone<u64>| {
            assert_eq!(done.attempts, 1);
            assert!(done.retries.is_empty());
            assert!(done.outcome.is_ok());
            seen.lock().unwrap().push(done.start);
        };
        for threads in [1, 4] {
            seen.lock().unwrap().clear();
            let (resumed, _) = run_supervised(
                8,
                13,
                threads,
                &policy,
                resume.clone(),
                Some(&sink),
                &draw_job,
            )
            .expect("survivors");
            assert_eq!(resumed.survivors, full.survivors, "threads={threads}");
            let mut notified = seen.lock().unwrap().clone();
            notified.sort_unstable();
            assert_eq!(notified, vec![3, 4, 5, 6, 7], "threads={threads}");
        }
    }

    /// A fully-restored batch runs no jobs at all and returns verbatim.
    #[test]
    fn full_resume_runs_nothing() {
        let policy = RetryPolicy::default();
        let (full, _) = run_supervised(5, 29, 1, &policy, ResumeState::default(), None, &draw_job)
            .expect("survivors");
        let resume = ResumeState {
            done: full
                .survivors
                .iter()
                .map(|&(start, v)| PriorStart {
                    start,
                    attempts: 1,
                    outcome: Ok(v),
                    retries: Vec::new(),
                    trace: StartContribution::default(),
                })
                .collect(),
        };
        let poisoned = |_rng: &mut MlRng, _ws: &mut RefineWorkspace, a: Attempt| -> u64 {
            panic!("job ran for start {} despite full resume", a.start)
        };
        let (resumed, timing) =
            run_supervised(5, 29, 4, &policy, resume, None, &poisoned).expect("restored");
        assert_eq!(resumed.survivors, full.survivors);
        assert_eq!(timing.cpu_secs, 0.0);
    }

    /// Restored failures count toward the all-failed check: resuming a batch
    /// whose every start failed is still the typed error.
    #[test]
    fn full_resume_of_failures_is_all_failed() {
        let policy = RetryPolicy::default();
        let resume = ResumeState::<u64> {
            done: (0..3)
                .map(|start| PriorStart {
                    start,
                    attempts: 2,
                    outcome: Err(StartFailure {
                        start,
                        message: "boom".to_string(),
                        phase: None,
                    }),
                    retries: Vec::new(),
                    trace: StartContribution::default(),
                })
                .collect(),
        };
        match run_supervised(3, 7, 1, &policy, resume, None, &draw_job) {
            Err(ExecError::AllStartsFailed { failures }) => assert_eq!(failures.len(), 3),
            other => panic!("expected AllStartsFailed, got {other:?}"),
        }
    }

    #[test]
    fn retry_record_display_is_informative() {
        let r = RetryRecord {
            start: 3,
            attempt: 1,
            message: "overflow".to_string(),
            phase: Some("fm_refine".to_string()),
        };
        assert_eq!(
            r.to_string(),
            "start 3 attempt 1 panicked in fm_refine: overflow (retried)"
        );
        let bare = RetryRecord {
            start: 0,
            attempt: 0,
            message: "boom".to_string(),
            phase: None,
        };
        assert_eq!(
            bare.to_string(),
            "start 0 attempt 0 panicked: boom (retried)"
        );
    }

    #[test]
    fn into_batch_drops_supervision_extras() {
        let policy = RetryPolicy::default();
        let (sup, _) = run_supervised(4, 3, 1, &policy, ResumeState::default(), None, &draw_job)
            .expect("survivors");
        let survivors = sup.survivors.clone();
        let batch = sup.into_batch();
        assert_eq!(batch.survivors, survivors);
        assert!(batch.failures.is_empty());
    }
}
