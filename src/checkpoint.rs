//! `mlpart-checkpoint-v1` — crash-safe on-disk checkpoints for supervised
//! batches.
//!
//! A checkpoint is a JSONL file (schema: `schemas/checkpoint-v1.schema.json`)
//! whose first line pins the invocation identity (netlist, algorithm,
//! constraints, seed, retry policy — everything normative except thread
//! count and output paths) and whose remaining lines each record one
//! completed start: its outcome (partition assignment, cut, truncation and
//! repair records, or the final-attempt failure), the retries the
//! supervisor absorbed, and the start's full trace contribution. The file
//! is rewritten atomically (write-temp-then-rename, see
//! [`mlpart_hypergraph::io::write_atomic_with`]) every time a start
//! completes, so a `SIGKILL` at any instant leaves either the previous
//! consistent checkpoint or the next one — never a torn file.
//!
//! On `--resume` the loader byte-compares the header against the one the
//! current invocation would write (thread count and artifact paths are
//! excluded from the header, so both may differ freely) and replays the
//! recorded starts through [`ResumeState`]; the executor then runs only the
//! missing starts. Because per-start seed streams are functions of the
//! start index alone and trace contributions are spliced in start order,
//! the resumed batch's partition output and stripped run report are
//! byte-identical to an uninterrupted run's.
//!
//! Lines are built and parsed through [`mlpart_obs::json`], whose integers
//! are exact at full `u64` range: the writer emits a fixed key order and
//! the loader accepts exactly that shape, so round-trips are byte-exact
//! and anything else is a named error, never a panic.

use mlpart_core::{LevelStats, Truncation};
use mlpart_exec::supervise::StartContribution;
use mlpart_exec::{PriorStart, ResumeState, RetryRecord, StartDone, StartFailure};
use mlpart_fm::{Budget, BudgetLimit, RepairRecord};
use mlpart_hypergraph::io::write_atomic;
use mlpart_hypergraph::metrics::cut;
use mlpart_hypergraph::{Hypergraph, Partition};
use mlpart_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// The schema tag every checkpoint header carries.
pub const SCHEMA: &str = "mlpart-checkpoint-v1";

/// One start's complete result as the CLI driver computes it: the job
/// value persisted by checkpoints and reduced into the final answer.
#[derive(Debug, Clone)]
pub struct StartOutcome {
    /// The (possibly repaired) partition.
    pub partition: Partition,
    /// Cut weight of `partition` (post-repair when `repair` is set).
    pub cut: u64,
    /// Per-level refinement trajectory (multilevel algorithms only).
    /// **Not persisted**: restored starts report an empty trajectory; the
    /// trace carries the same rows for traced runs.
    pub level_stats: Vec<LevelStats>,
    /// Budget-truncation record, when a `--max-*` limit fired.
    pub truncation: Option<Truncation>,
    /// Balance-repair record, when the start's raw solution violated its
    /// balance window. `feasible: false` means repair failed and the
    /// driver must not emit this solution.
    pub repair: Option<RepairRecord>,
}

/// The job value the CLI runs under supervision: a start either computes
/// a [`StartOutcome`] or reports a configuration error message.
pub type StartValue = Result<StartOutcome, String>;

/// The invocation identity pinned by a checkpoint header. Thread count and
/// artifact paths are deliberately absent: both may change across an
/// interrupt/resume split without perturbing normative results.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Netlist argument (path, `syn-NAME`, or `-`).
    pub circuit: String,
    /// Algorithm name.
    pub algo: String,
    /// Part count.
    pub k: u32,
    /// Explicit ε, when given.
    pub epsilon: Option<f64>,
    /// `.fix` file path, when given.
    pub fixed: Option<String>,
    /// Matching ratio.
    pub ratio: f64,
    /// Coarsening threshold.
    pub threshold: usize,
    /// Independent starts in the batch.
    pub runs: usize,
    /// Base seed.
    pub seed: u64,
    /// Attempts per start (`--retries`).
    pub retries: u32,
    /// Final-attempt degraded pass budget (`--retry-degrade-passes`).
    pub degraded_passes: Option<u64>,
    /// The per-start budget.
    pub budget: Budget,
    /// Whether tracing was on (trace contributions recorded). A resumed
    /// run must match, or its report would silently lose restored spans.
    pub traced: bool,
}

impl CheckpointConfig {
    /// The header line this invocation writes — and the exact bytes a
    /// `--resume` of it must find on the first line.
    pub fn header_line(&self) -> String {
        let b = &self.budget;
        json::to_string(&Json::obj([
            ("schema", SCHEMA.into()),
            (
                "config",
                Json::obj([
                    ("circuit", self.circuit.as_str().into()),
                    ("algo", self.algo.as_str().into()),
                    ("k", self.k.into()),
                    ("epsilon", self.epsilon.into()),
                    ("fixed", self.fixed.as_deref().into()),
                    ("ratio", self.ratio.into()),
                    ("threshold", self.threshold.into()),
                    ("runs", self.runs.into()),
                    ("seed", self.seed.into()),
                    ("retries", self.retries.into()),
                    ("degraded_passes", self.degraded_passes.into()),
                    ("max_moves", b.max_moves.into()),
                    ("max_passes", b.max_passes.into()),
                    ("max_levels", b.max_levels.into()),
                    ("deadline_secs", b.soft_deadline_secs.into()),
                    ("traced", self.traced.into()),
                ]),
            ),
        ]))
    }
}

fn outcome_json(outcome: Result<&StartValue, &StartFailure>) -> Json {
    match outcome {
        Ok(Ok(v)) => Json::obj([(
            "ok",
            Json::obj([
                ("cut", v.cut.into()),
                (
                    "parts",
                    Json::Arr(v.partition.assignment().iter().map(|&p| p.into()).collect()),
                ),
                (
                    "truncation",
                    v.truncation.as_ref().map_or(Json::Null, |t| {
                        Json::obj([
                            ("limit", t.limit.name().into()),
                            ("site", t.site.into()),
                            ("level", t.level.into()),
                            ("pass", t.pass.into()),
                        ])
                    }),
                ),
                (
                    "repair",
                    v.repair.as_ref().map_or(Json::Null, |r| {
                        Json::obj([
                            ("moves", r.moves.into()),
                            ("cut_before", r.cut_before.into()),
                            ("cut_after", r.cut_after.into()),
                            ("feasible", r.feasible.into()),
                        ])
                    }),
                ),
            ]),
        )]),
        Ok(Err(msg)) => Json::obj([("err", msg.as_str().into())]),
        Err(f) => Json::obj([(
            "failed",
            Json::obj([
                ("message", f.message.as_str().into()),
                ("phase", f.phase.as_deref().into()),
            ]),
        )]),
    }
}

/// Serializes one completed start as its checkpoint record line (no
/// trailing newline).
pub fn record_line(done: &StartDone<'_, StartValue>) -> String {
    let retries = done.retries.iter().map(|r| {
        Json::obj([
            ("attempt", r.attempt.into()),
            ("message", r.message.as_str().into()),
            ("phase", r.phase.as_deref().into()),
        ])
    });
    json::to_string(&Json::obj([
        ("start", done.start.into()),
        ("attempts", done.attempts.into()),
        ("retries", Json::Arr(retries.collect())),
        ("outcome", outcome_json(done.outcome)),
        ("trace", mlpart_obs::to_jsonl(done.trace).into()),
    ]))
}

fn uint(v: &Json, what: &str) -> Result<u64, String> {
    v.as_u64().ok_or_else(|| {
        let found = match v {
            Json::U64(_) | Json::I64(_) | Json::F64(_) => json::to_string(v),
            other => other.type_name().to_string(),
        };
        format!("{what}: expected a non-negative integer, found {found}")
    })
}

fn uint32(v: &Json, what: &str) -> Result<u32, String> {
    let n = uint(v, what)?;
    u32::try_from(n).map_err(|_| format!("{what}: {n} out of range"))
}

fn opt_uint32(v: &Json, what: &str) -> Result<Option<u32>, String> {
    match v {
        Json::Null => Ok(None),
        v => uint32(v, what).map(Some),
    }
}

fn string(v: &Json, what: &str) -> Result<String, String> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{what}: expected a string, found {}", v.type_name()))
}

fn opt_string(v: &Json, what: &str) -> Result<Option<String>, String> {
    match v {
        Json::Null => Ok(None),
        v => string(v, what).map(Some),
    }
}

fn array<'a>(v: &'a Json, what: &str) -> Result<&'a [Json], String> {
    v.as_arr()
        .ok_or_else(|| format!("{what}: expected an array, found {}", v.type_name()))
}

fn limit_from_name(name: &str) -> Result<BudgetLimit, String> {
    Ok(match name {
        "moves" => BudgetLimit::Moves,
        "passes" => BudgetLimit::Passes,
        "levels" => BudgetLimit::Levels,
        "deadline" => BudgetLimit::Deadline,
        "injected" => BudgetLimit::Injected,
        other => return Err(format!("unknown budget limit {other:?}")),
    })
}

fn site_from_name(name: &str) -> Result<&'static str, String> {
    Ok(match name {
        "pass" => "pass",
        "level" => "level",
        other => return Err(format!("unknown truncation site {other:?}")),
    })
}

fn parse_truncation(v: &Json) -> Result<Option<Truncation>, String> {
    if *v == Json::Null {
        return Ok(None);
    }
    let [limit, site, level, pass] = v.fields(["limit", "site", "level", "pass"])?;
    Ok(Some(Truncation {
        limit: limit_from_name(&string(limit, "limit")?)?,
        site: site_from_name(&string(site, "site")?)?,
        level: opt_uint32(level, "level")?,
        pass: opt_uint32(pass, "pass")?,
    }))
}

fn parse_repair(v: &Json) -> Result<Option<RepairRecord>, String> {
    if *v == Json::Null {
        return Ok(None);
    }
    let [moves, cut_before, cut_after, feasible] =
        v.fields(["moves", "cut_before", "cut_after", "feasible"])?;
    let Json::Bool(feasible) = *feasible else {
        return Err("feasible: expected a boolean".to_string());
    };
    Ok(Some(RepairRecord {
        moves: uint(moves, "moves")?,
        cut_before: uint(cut_before, "cut_before")?,
        cut_after: uint(cut_after, "cut_after")?,
        feasible,
    }))
}

/// Parses a record's `outcome` object: exactly one of `ok`, `err`, or
/// `failed`.
fn parse_outcome(
    v: &Json,
    start: usize,
    h: &Hypergraph,
    k: u32,
) -> Result<Result<StartValue, StartFailure>, String> {
    if let Ok([ok]) = v.fields(["ok"]) {
        let [stored_cut, parts, truncation, repair] =
            ok.fields(["cut", "parts", "truncation", "repair"])?;
        let stored_cut = uint(stored_cut, "cut")?;
        let parts = array(parts, "parts")?
            .iter()
            .map(|p| uint32(p, "part id"))
            .collect::<Result<Vec<u32>, String>>()?;
        let truncation = parse_truncation(truncation)?;
        let repair = parse_repair(repair)?;
        let partition = Partition::from_assignment(h, k, parts)
            .ok_or_else(|| format!("start {start}: assignment does not fit the netlist"))?;
        if cut(h, &partition) != stored_cut {
            return Err(format!(
                "start {start}: stored cut {stored_cut} disagrees with the assignment"
            ));
        }
        Ok(Ok(Ok(StartOutcome {
            partition,
            cut: stored_cut,
            level_stats: Vec::new(),
            truncation,
            repair,
        })))
    } else if let Ok([msg]) = v.fields(["err"]) {
        Ok(Ok(Err(string(msg, "err")?)))
    } else {
        let [failed] = v
            .fields(["failed"])
            .map_err(|_| "outcome: expected one of ok, err, failed".to_string())?;
        let [message, phase] = failed.fields(["message", "phase"])?;
        Ok(Err(StartFailure {
            start,
            message: string(message, "message")?,
            phase: opt_string(phase, "phase")?,
        }))
    }
}

/// Parses one record line back into the [`PriorStart`] the executor
/// replays. `h` anchors partition reconstruction (assignment length and
/// part ids are validated, and the stored cut is recomputed and checked).
fn parse_record(line: &str, h: &Hypergraph, k: u32) -> Result<PriorStart<StartValue>, String> {
    let doc = json::parse(line)?;
    let [start, attempts, retries, outcome, trace] =
        doc.fields(["start", "attempts", "retries", "outcome", "trace"])?;
    let start = usize::try_from(uint(start, "start")?).map_err(|e| e.to_string())?;
    let attempts = uint32(attempts, "attempts")?;
    let retries = array(retries, "retries")?
        .iter()
        .map(|r| {
            let [attempt, message, phase] = r.fields(["attempt", "message", "phase"])?;
            Ok(RetryRecord {
                start,
                attempt: uint32(attempt, "attempt")?,
                message: string(message, "message")?,
                phase: opt_string(phase, "phase")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(PriorStart {
        start,
        attempts,
        outcome: parse_outcome(outcome, start, h, k)?,
        retries,
        trace: parse_trace(start, &string(trace, "trace")?)?,
    })
}

fn parse_trace(start: usize, text: &str) -> Result<StartContribution, String> {
    mlpart_obs::trace_from_jsonl(text).map_err(|e| format!("start {start}: bad trace: {e}"))
}

/// A parsed checkpoint: the resume state for the executor plus the
/// original record lines, keyed by start, so a resumed run's writer keeps
/// the restored records verbatim.
#[derive(Debug, Default)]
pub struct LoadedCheckpoint {
    /// Completed starts for [`mlpart_exec::run_supervised`] to skip.
    pub resume: ResumeState<StartValue>,
    /// The record lines exactly as found, keyed by start index.
    pub lines: BTreeMap<usize, String>,
}

/// Parses checkpoint `text` written by an invocation with identity
/// `config`, validating every record against `h`.
///
/// # Errors
///
/// A message naming the problem: a different schema version, a header
/// that does not match this invocation (different flags, netlist, seed,
/// or retry policy), or a malformed / internally inconsistent record.
pub fn load(
    text: &str,
    config: &CheckpointConfig,
    h: &Hypergraph,
) -> Result<LoadedCheckpoint, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("checkpoint is empty")?;
    let expected = config.header_line();
    if header != expected {
        return if header.starts_with("{\"schema\":\"mlpart-checkpoint-") {
            if header.starts_with(&format!("{{\"schema\":\"{SCHEMA}\"")) {
                Err(
                    "checkpoint was written by a different invocation (netlist, algorithm, \
                     constraints, seed, budget, retry policy, and tracing must all match; \
                     --threads and output paths may differ)"
                        .to_string(),
                )
            } else {
                Err("unsupported checkpoint schema version".to_string())
            }
        } else {
            Err("not a mlpart checkpoint (missing schema header)".to_string())
        };
    }
    let mut out = LoadedCheckpoint::default();
    for (n, line) in lines.enumerate() {
        let prior =
            parse_record(line, h, config.k).map_err(|e| format!("checkpoint record {n}: {e}"))?;
        if prior.start >= config.runs {
            return Err(format!(
                "checkpoint record {n}: start {} out of range for --runs {}",
                prior.start, config.runs
            ));
        }
        if out.lines.contains_key(&prior.start) {
            return Err(format!(
                "checkpoint record {n}: start {} recorded twice",
                prior.start
            ));
        }
        out.lines.insert(prior.start, line.to_string());
        out.resume.done.push(prior);
    }
    Ok(out)
}

struct WriterState {
    records: BTreeMap<usize, String>,
    error: Option<String>,
}

/// Serializes completed starts to a checkpoint file, atomically rewriting
/// the whole file on every completion. Shared across executor workers (the
/// completion sink runs on whichever worker finished the start), so the
/// record map sits behind a mutex; write failures are latched and surfaced
/// once via [`CheckpointWriter::error`] instead of panicking a worker.
pub struct CheckpointWriter {
    path: String,
    header: String,
    state: Mutex<WriterState>,
}

impl CheckpointWriter {
    /// Creates the writer and immediately persists the header (plus any
    /// `restored` record lines from the checkpoint being resumed), so even
    /// a kill before the first fresh completion leaves a valid file.
    ///
    /// # Errors
    ///
    /// The initial write's I/O error, as a printable message.
    pub fn create(
        path: &str,
        header: String,
        restored: BTreeMap<usize, String>,
    ) -> Result<Self, String> {
        let w = CheckpointWriter {
            path: path.to_string(),
            header,
            state: Mutex::new(WriterState {
                records: restored,
                error: None,
            }),
        };
        {
            let mut st = w.lock_state();
            w.rewrite(&mut st);
            if let Some(e) = &st.error {
                return Err(e.clone());
            }
        }
        Ok(w)
    }

    /// A poisoned lock only means some worker panicked mid-`rewrite`; the
    /// guarded state (record map + latched error) is still consistent, so
    /// recover it rather than cascading the panic into every other worker.
    fn lock_state(&self) -> std::sync::MutexGuard<'_, WriterState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn rewrite(&self, st: &mut WriterState) {
        let mut doc = String::with_capacity(
            self.header.len() + st.records.values().map(|r| r.len() + 1).sum::<usize>() + 1,
        );
        doc.push_str(&self.header);
        doc.push('\n');
        for line in st.records.values() {
            doc.push_str(line);
            doc.push('\n');
        }
        if let Err(e) = write_atomic(&self.path, doc.as_bytes()) {
            st.error
                .get_or_insert_with(|| format!("cannot write {}: {e}", self.path));
        }
    }

    /// The completion sink: records `done` and atomically rewrites the
    /// file. Called from executor workers in completion order; the on-disk
    /// record order is by start index regardless.
    pub fn record(&self, done: &StartDone<'_, StartValue>) {
        let line = record_line(done);
        let mut st = self.lock_state();
        st.records.insert(done.start, line);
        self.rewrite(&mut st);
    }

    /// The first write error, if any occurred. Checked once after the
    /// batch so a broken checkpoint path fails the run visibly.
    pub fn error(&self) -> Option<String> {
        self.lock_state().error.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_hypergraph::HypergraphBuilder;

    fn chain(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(n);
        for i in 0..n - 1 {
            b.add_net([i, i + 1]).expect("valid net");
        }
        b.build().expect("valid hypergraph")
    }

    fn config() -> CheckpointConfig {
        CheckpointConfig {
            circuit: "syn-balu".to_string(),
            algo: "ml-c".to_string(),
            k: 2,
            epsilon: None,
            fixed: None,
            ratio: 0.5,
            threshold: 35,
            runs: 4,
            seed: u64::MAX - 1, // exercise the full-u64 header path
            retries: 3,
            degraded_passes: Some(2),
            budget: Budget::UNLIMITED,
            traced: false,
        }
    }

    fn outcome(h: &Hypergraph) -> StartOutcome {
        let parts = (0..h.num_modules())
            .map(|i| u32::from(i >= h.num_modules() / 2))
            .collect();
        let partition = Partition::from_assignment(h, 2, parts).expect("valid");
        let cut_now = cut(h, &partition);
        StartOutcome {
            partition,
            cut: cut_now,
            level_stats: Vec::new(),
            truncation: Some(Truncation {
                limit: BudgetLimit::Passes,
                site: "pass",
                level: Some(1),
                pass: Some(3),
            }),
            repair: Some(RepairRecord {
                moves: 2,
                cut_before: cut_now + 4,
                cut_after: cut_now,
                feasible: true,
            }),
        }
    }

    fn done_line(h: &Hypergraph) -> String {
        let value: StartValue = Ok(outcome(h));
        let retries = vec![RetryRecord {
            start: 1,
            attempt: 0,
            message: "injected fault: panic@attempt:8 \"quoted\"".to_string(),
            phase: Some("fm_refine".to_string()),
        }];
        record_line(&StartDone {
            start: 1,
            attempts: 2,
            outcome: Ok(&value),
            retries: &retries,
            trace: &StartContribution::default(),
        })
    }

    #[test]
    fn record_round_trips_through_the_parser() {
        let h = chain(8);
        let line = done_line(&h);
        let prior = parse_record(&line, &h, 2).expect("parses");
        assert_eq!(prior.start, 1);
        assert_eq!(prior.attempts, 2);
        assert_eq!(prior.retries.len(), 1);
        assert_eq!(prior.retries[0].attempt, 0);
        assert!(prior.retries[0].message.contains("\"quoted\""));
        let v = prior.outcome.expect("ok").expect("outcome");
        assert_eq!(v.cut, outcome(&h).cut);
        assert_eq!(v.partition.assignment(), outcome(&h).partition.assignment());
        assert_eq!(v.truncation, outcome(&h).truncation);
        assert_eq!(v.repair, outcome(&h).repair);
        // Re-serializing the parsed record reproduces the bytes.
        let value: StartValue = Ok(v);
        let again = record_line(&StartDone {
            start: prior.start,
            attempts: prior.attempts,
            outcome: Ok(&value),
            retries: &prior.retries,
            trace: &prior.trace,
        });
        assert_eq!(line, again);
    }

    #[test]
    fn failed_and_config_error_outcomes_round_trip() {
        let h = chain(8);
        let failure = StartFailure {
            start: 2,
            message: "boom".to_string(),
            phase: None,
        };
        let line = record_line(&StartDone::<StartValue> {
            start: 2,
            attempts: 3,
            outcome: Err(&failure),
            retries: &[],
            trace: &StartContribution::default(),
        });
        let prior = parse_record(&line, &h, 2).expect("parses");
        let f = prior.outcome.expect_err("failed");
        assert_eq!((f.start, f.message.as_str()), (2, "boom"));

        let value: StartValue = Err("unknown algorithm \"x\"".to_string());
        let line = record_line(&StartDone {
            start: 0,
            attempts: 1,
            outcome: Ok(&value),
            retries: &[],
            trace: &StartContribution::default(),
        });
        let prior = parse_record(&line, &h, 2).expect("parses");
        assert_eq!(
            prior.outcome.expect("ok").expect_err("config error"),
            "unknown algorithm \"x\""
        );
    }

    #[test]
    fn load_round_trips_and_validates_headers() {
        let h = chain(8);
        let cfg = config();
        let text = format!("{}\n{}\n", cfg.header_line(), done_line(&h));
        let loaded = load(&text, &cfg, &h).expect("loads");
        assert_eq!(loaded.resume.done.len(), 1);
        assert_eq!(loaded.lines.get(&1), Some(&done_line(&h)));

        // Any identity drift is a refusal, not a silent partial resume.
        let mut other = config();
        other.seed += 1;
        let e = load(&text, &other, &h).expect_err("seed drift");
        assert!(e.contains("different invocation"), "{e}");
        let e = load("{\"schema\":\"mlpart-checkpoint-v0\"}\n", &cfg, &h).expect_err("version");
        assert!(e.contains("schema version"), "{e}");
        let e = load("not json\n", &cfg, &h).expect_err("garbage");
        assert!(e.contains("not a mlpart checkpoint"), "{e}");
        let e = load("", &cfg, &h).expect_err("empty");
        assert!(e.contains("empty"), "{e}");
    }

    #[test]
    fn load_rejects_corrupt_and_inconsistent_records() {
        let h = chain(8);
        let cfg = config();
        let line = done_line(&h);
        // Truncated record.
        let text = format!("{}\n{}\n", cfg.header_line(), &line[..line.len() - 10]);
        let e = load(&text, &cfg, &h).expect_err("truncated");
        assert!(e.contains("checkpoint record 0"), "{e}");
        // Stored cut disagreeing with the assignment.
        let lied = line.replace("\"cut\":1,", "\"cut\":7,");
        assert_ne!(line, lied, "fixture cut changed; update the test");
        let text = format!("{}\n{lied}\n", cfg.header_line());
        let e = load(&text, &cfg, &h).expect_err("cut lie");
        assert!(e.contains("disagrees"), "{e}");
        // Duplicate and out-of-range starts.
        let text = format!("{}\n{line}\n{line}\n", cfg.header_line(), line = line);
        let e = load(&text, &cfg, &h).expect_err("duplicate");
        assert!(e.contains("twice"), "{e}");
        let mut small = cfg.clone();
        small.runs = 1;
        let text = format!("{}\n{line}\n", small.header_line());
        let e = load(&text, &small, &h).expect_err("out of range");
        assert!(e.contains("out of range"), "{e}");
        // Numbers outside a field's domain are named errors, not panics or
        // silent roundings: negative, fractional, past u64, past u32.
        assert!(line.contains("\"attempts\":2,"), "fixture changed: {line}");
        for (bad, expect) in [
            ("-2", "attempts: expected a non-negative integer, found -2"),
            (
                "2.5",
                "attempts: expected a non-negative integer, found 2.5",
            ),
            ("18446744073709551616", "invalid number"),
            ("4294967296", "attempts: 4294967296 out of range"),
        ] {
            let broken = line.replace("\"attempts\":2,", &format!("\"attempts\":{bad},"));
            let text = format!("{}\n{broken}\n", cfg.header_line());
            let e = load(&text, &cfg, &h).expect_err(bad);
            assert!(e.starts_with("checkpoint record 0: "), "{e}");
            assert!(e.contains(expect), "{bad}: {e}");
        }
        let broken = line.replace("\"cut\":1,", "\"cut\":-1,");
        let text = format!("{}\n{broken}\n", cfg.header_line());
        let e = load(&text, &cfg, &h).expect_err("negative cut");
        assert!(e.contains("cut: expected a non-negative integer"), "{e}");
    }

    #[test]
    fn writer_persists_header_then_records_atomically() {
        let h = chain(8);
        let cfg = config();
        let path = std::env::temp_dir().join(format!(
            "mlpart-checkpoint-test-{}.jsonl",
            std::process::id()
        ));
        let path_s = path.to_str().expect("utf8 temp path");
        let w =
            CheckpointWriter::create(path_s, cfg.header_line(), BTreeMap::new()).expect("creates");
        // Header-only file is already a loadable (empty) checkpoint.
        let text = std::fs::read_to_string(&path).expect("written");
        assert_eq!(load(&text, &cfg, &h).expect("loads").resume.done.len(), 0);
        let value: StartValue = Ok(outcome(&h));
        w.record(&StartDone {
            start: 1,
            attempts: 1,
            outcome: Ok(&value),
            retries: &[],
            trace: &StartContribution::default(),
        });
        assert!(w.error().is_none());
        let text = std::fs::read_to_string(&path).expect("written");
        let loaded = load(&text, &cfg, &h).expect("loads");
        assert_eq!(loaded.resume.done.len(), 1);
        assert_eq!(loaded.resume.done[0].start, 1);
        let _ = std::fs::remove_file(&path);

        // A hostile path latches an error instead of panicking a worker.
        let bad = CheckpointWriter::create(
            "/nonexistent-dir/ckpt.jsonl",
            cfg.header_line(),
            BTreeMap::new(),
        );
        assert!(bad.is_err());
    }

    #[test]
    fn header_excludes_threads_and_pins_everything_normative() {
        let cfg = config();
        let line = cfg.header_line();
        assert!(line.starts_with("{\"schema\":\"mlpart-checkpoint-v1\""));
        assert!(!line.contains("threads"), "threads must not be identity");
        assert!(line.contains(&format!("\"seed\":{}", u64::MAX - 1)));
        for key in [
            "circuit",
            "algo",
            "\"k\":",
            "epsilon",
            "fixed",
            "ratio",
            "threshold",
            "runs",
            "retries",
            "degraded_passes",
            "max_moves",
            "max_passes",
            "max_levels",
            "deadline_secs",
            "traced",
        ] {
            assert!(line.contains(key), "header must pin {key}: {line}");
        }
    }
}
