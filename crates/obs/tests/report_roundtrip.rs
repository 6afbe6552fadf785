//! Round-trip guarantees for run reports: the emitted v3 document
//! re-serializes byte-identically after parsing, loads through
//! [`mlpart_obs::report::parse_report`], and committed v2 baselines keep
//! loading (so `obs-diff` can compare old artifacts against new runs).

use mlpart_obs as obs;
use obs::json;
use obs::report::{parse_report, RunReport};

const V2_FIXTURE: &str = include_str!("fixtures/report-v2.json");

fn sample_report() -> RunReport {
    obs::force_enabled(true);
    let (_, trace) = obs::capture(|| {
        let _run = obs::span("run", &[("runs", 2u64.into())]);
        for i in 0..2u64 {
            let _start = obs::span("start", &[("start", i.into())]);
            let _level = obs::span("level", &[("level", 0u64.into())]);
            obs::counter(
                "fm_pass",
                &[("pass", 0u64.into()), ("cut_after", (30 + i).into())],
            );
        }
    });
    obs::force_enabled(false);
    RunReport {
        meta: vec![("algo", "ml-fm".into()), ("seed", 1997u64.into())],
        cuts: vec![31, 30],
        failures: Vec::new(),
        truncations: Vec::new(),
        retries: Vec::new(),
        repairs: Vec::new(),
        wall_secs: 0.25,
        cpu_secs: 0.5,
        trace: trace.expect("gate forced on"),
    }
}

/// `--report-out` documents survive parse → re-serialize byte-for-byte:
/// the hand-rolled emitter and the generic [`json::write_value`] writer
/// agree on every formatting decision (key order, integer formatting,
/// escaping), so external tooling can edit-and-rewrite reports without
/// spurious diffs.
#[test]
fn v3_report_reserializes_byte_identically() {
    let doc = sample_report().to_json();
    let parsed = json::parse(&doc).expect("report parses");
    assert_eq!(json::to_string(&parsed), doc);
}

#[test]
fn v3_report_loads_with_profile_and_metrics() {
    let doc = sample_report().to_json();
    let loaded = parse_report(&doc).expect("v3 loads");
    assert_eq!(loaded.version, 3);
    assert_eq!(loaded.alloc_tracked, cfg!(feature = "obs-alloc"));
    let names: Vec<&str> = loaded.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, ["run", "start", "level"]);
    assert_eq!(loaded.phases[1].count, 2, "two starts aggregate");
    assert!(
        loaded.doc.get("metrics").unwrap().as_arr().is_some(),
        "metrics section present"
    );
}

/// The committed v2 baseline still loads; its phases are recomputed from
/// the spans tree since v2 predates the profile section.
#[test]
fn committed_v2_fixture_still_loads() {
    let loaded = parse_report(V2_FIXTURE).expect("v2 fixture loads");
    assert_eq!(loaded.version, 2);
    assert!(!loaded.alloc_tracked, "v2 never tracked allocations");
    let names: Vec<&str> = loaded.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, ["run", "start", "level"]);
    let run = &loaded.phases[0];
    assert_eq!(run.count, 1);
    assert_eq!(run.total_ns, 14_000_000);
    let start = &loaded.phases[1];
    assert_eq!(start.count, 2);
    assert_eq!(start.total_ns, 12_000_000);
    assert_eq!(
        run.self_ns,
        14_000_000 - 12_000_000,
        "self time excludes children"
    );
}

/// A v2 baseline diffs cleanly against a v3 run of the same content —
/// the cross-version path `obs-diff` exercises on old artifacts.
#[test]
fn v2_baseline_diffs_against_v3_candidate() {
    use obs::diff::{diff_documents, DiffOptions, EXIT_CLEAN};
    // Build a v3 report whose normative content matches the fixture.
    obs::force_enabled(true);
    let (_, trace) = obs::capture(|| {
        let _run = obs::span("run", &[("runs", 2u64.into())]);
        for i in 0..2u64 {
            let _start = obs::span("start", &[("start", i.into())]);
            let _level = obs::span(
                "level",
                &[("level", 0u64.into()), ("modules", 16u64.into())],
            );
            obs::counter(
                "fm_pass",
                &[
                    ("pass", 0u64.into()),
                    ("cut_before", (40 + i).into()),
                    ("cut_after", (31 - i).into()),
                    ("attempted", 16u64.into()),
                    ("kept", (6 + i).into()),
                ],
            );
        }
    });
    obs::force_enabled(false);
    let v3 = RunReport {
        meta: vec![
            ("algo", "ml-fm".into()),
            ("k", 2u64.into()),
            ("eps", 0.1.into()),
            ("seed", 1997u64.into()),
            ("runs", 2u64.into()),
            ("threads", 1u64.into()),
            ("circuit", "syn-balu".into()),
        ],
        cuts: vec![31, 30],
        failures: Vec::new(),
        truncations: Vec::new(),
        retries: Vec::new(),
        repairs: Vec::new(),
        wall_secs: 0.02,
        cpu_secs: 0.03,
        trace: trace.expect("gate forced on"),
    }
    .to_json();
    // Cross-version diffs can't byte-compare whole documents (v2 lacks the
    // profile/metrics sections), so compare phase rollups directly.
    let old = parse_report(V2_FIXTURE).expect("v2 loads");
    let new = parse_report(&v3).expect("v3 loads");
    let old_names: Vec<&str> = old.phases.iter().map(|p| p.name.as_str()).collect();
    let new_names: Vec<&str> = new.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(old_names, new_names, "same phase structure across versions");
    // And same-version diffs of identical content exit clean end to end.
    let d = diff_documents("base", &v3, "cand", &v3, &DiffOptions::default());
    assert_eq!(d.exit, EXIT_CLEAN, "{}", d.text);
}
