//! `obs-diff` over run reports whose crash-safety arrays are non-empty:
//! `failures`, `truncations`, `retries`, and `repairs` are all normative
//! content, so two reports that differ only there must refuse to diff
//! (exit 2), while identical crash records with slower timing stay a
//! telemetry question (exit 0/1).
//!
//! The committed fixtures under `tests/fixtures/` are byte-asserted against
//! the in-test generator, so they cannot silently drift from the report
//! writer; regenerate with `MLPART_REGEN_FIXTURES=1 cargo test -p
//! mlpart-obs --test diff_crash_arrays`.

use mlpart_obs as obs;
use obs::report::{
    FailureRecord, RepairReportRecord, RetryReportRecord, RunReport, TruncationRecord,
};
use obs::{EvKind, Event, Trace, V};
use std::process::Command;

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// A run trace with fixed timestamps (scaled by `scale`) so the generated
/// document is fully deterministic: two starts, one of which retried.
fn crashy_trace(scale: u64) -> Trace {
    let ev = |kind, name, ts_ns: u64, args: Vec<(&'static str, V)>| Event {
        kind,
        name,
        ts_ns: ts_ns * scale,
        args,
    };
    Trace {
        events: vec![
            ev(EvKind::Begin, "run", 0, vec![("runs", V::U(2))]),
            ev(EvKind::Begin, "start", 1_000_000, vec![("start", V::U(0))]),
            ev(
                EvKind::Counter,
                "fm_pass",
                2_000_000,
                vec![("kept", V::U(5))],
            ),
            ev(EvKind::End, "start", 12_000_000, vec![]),
            // Start 1's failed attempt 0 and its successful retry.
            ev(EvKind::Begin, "start", 12_000_000, vec![("start", V::U(1))]),
            ev(EvKind::End, "start", 14_000_000, vec![]),
            ev(
                EvKind::Begin,
                "start",
                14_000_000,
                vec![("start", V::U(1)), ("attempt", V::U(1))],
            ),
            ev(
                EvKind::Counter,
                "fm_pass",
                15_000_000,
                vec![("kept", V::U(3))],
            ),
            ev(EvKind::End, "start", 26_000_000, vec![]),
            ev(EvKind::End, "run", 27_000_000, vec![]),
        ],
    }
}

/// A report whose crash arrays are all non-empty. `scale` stretches the
/// (non-normative) timestamps; `retry_message` perturbs normative content.
fn crashy_report(scale: u64, retry_message: &str) -> String {
    RunReport {
        meta: vec![("algo", "ml-fm".into()), ("seed", 7u64.into())],
        cuts: vec![30, 33],
        failures: vec![FailureRecord {
            start: 2,
            phase: Some("fm_refine".to_string()),
            message: "injected fault: panic@start:2".to_string(),
        }],
        truncations: vec![TruncationRecord {
            start: 0,
            limit: "passes",
            site: "pass",
            level: Some(1),
            pass: Some(3),
        }],
        retries: vec![RetryReportRecord {
            start: 1,
            attempt: 0,
            phase: Some("fm_refine".to_string()),
            message: retry_message.to_string(),
        }],
        repairs: vec![RepairReportRecord {
            start: 1,
            moves: 4,
            cut_before: 30,
            cut_after: 33,
            feasible: true,
        }],
        wall_secs: 0.027 * scale as f64,
        cpu_secs: 0.026 * scale as f64,
        trace: crashy_trace(scale),
    }
    .to_json()
}

const BASE: &str = "report-crashy-base.json";
const SLOW: &str = "report-crashy-slow.json";
const MISMATCH: &str = "report-crashy-mismatch.json";

fn generated() -> [(&'static str, String); 3] {
    [
        (BASE, crashy_report(1, "injected fault: panic@attempt:8")),
        (SLOW, crashy_report(10, "injected fault: panic@attempt:8")),
        (
            MISMATCH,
            crashy_report(1, "injected fault: panic@attempt:9"),
        ),
    ]
}

/// The committed fixtures are exactly what the current report writer emits.
#[test]
fn committed_fixtures_match_the_report_writer() {
    for (name, doc) in generated() {
        let path = fixture(name);
        if std::env::var("MLPART_REGEN_FIXTURES").is_ok() {
            std::fs::write(&path, &doc).expect("regen fixture");
        }
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{path}: {e} (regen with MLPART_REGEN_FIXTURES=1)"));
        assert_eq!(committed, doc, "{name} is stale");
    }
}

fn diff(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_obs-diff"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Identical crash records, identical timing: clean self-compare.
#[test]
fn crashy_self_compare_exits_zero() {
    let out = diff(&[&fixture(BASE), &fixture(BASE)]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {text}");
    assert!(text.contains("verdict: clean"), "stdout: {text}");
}

/// Identical crash records but 10x slower phases: a regression (exit 1),
/// not a content mismatch — the arrays carry no timing.
#[test]
fn crashy_slowdown_exits_one() {
    let out = diff(&[&fixture(BASE), &fixture(SLOW)]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {text}");
    assert!(text.contains("TIME REGRESSION"), "stdout: {text}");
}

/// A differing retry message is normative content: the diff refuses with
/// exit 2 instead of reporting a telemetry delta.
#[test]
fn crash_array_content_mismatch_exits_two() {
    let out = diff(&[&fixture(BASE), &fixture(MISMATCH)]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "stdout: {text}");
    assert!(text.contains("MISMATCH"), "stdout: {text}");
}

/// Library-level check that each crash array is independently normative:
/// perturbing any one of them breaks the byte compare.
#[test]
fn every_crash_array_is_normative() {
    let base = crashy_report(1, "m");
    for (needle, replacement) in [
        ("\"failures\":[{\"start\":2", "\"failures\":[{\"start\":3"),
        ("\"limit\":\"passes\"", "\"limit\":\"moves\""),
        ("\"attempt\":0", "\"attempt\":1"),
        ("\"feasible\":true", "\"feasible\":false"),
    ] {
        let perturbed = base.replace(needle, replacement);
        assert_ne!(base, perturbed, "needle {needle} not found");
        let d = obs::diff::diff_documents(
            "a",
            &base,
            "b",
            &perturbed,
            &obs::diff::DiffOptions::default(),
        );
        assert_eq!(d.exit, obs::diff::EXIT_ERROR, "{needle}: {}", d.text);
        assert!(d.text.contains("MISMATCH"), "{needle}: {}", d.text);
    }
}
