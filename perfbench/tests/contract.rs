//! The benchmark's declared shape: metric names and limits, the agreement
//! between the code and `BENCHMARK.json`, and the tail percentile rule.

use perfbench::stats::{tail, Tail};
use perfbench::workload;
use perfbench::{MetricDef, END_TO_END, PER_LAYER};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn metric_names_units_and_counts_are_within_limits() {
    assert!(!END_TO_END.is_empty() && END_TO_END.len() <= 16);
    assert!(!PER_LAYER.is_empty() && PER_LAYER.len() <= 128);
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(d.name), "bad metric name {:?}", d.name);
        assert!(valid_unit(d.unit), "bad unit {:?} of {}", d.unit, d.name);
        assert!(d.better == "lower" || d.better == "higher", "{}", d.name);
    }
    for d in END_TO_END {
        let bound = d.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", d.name);
    }
    assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|d| d.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    let workloads = workload::all();
    names.extend(workloads.iter().map(|w| w.name));
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "names are used once");
    assert!(workloads.iter().all(|w| valid_name(w.name)));
}

fn declared(def: &MetricDef) -> String {
    let head = format!(
        "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
        def.name, def.unit, def.better
    );
    match def.bound {
        Some(b) => format!("{head}, \"bound\": {b}}}"),
        None => format!("{head}}}"),
    }
}

#[test]
fn benchmark_json_declares_exactly_the_measured_metrics_and_workloads() {
    for def in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            BENCHMARK_JSON.contains(&declared(def)),
            "BENCHMARK.json lacks {}",
            declared(def)
        );
    }
    let workloads = workload::all();
    for name in workloads.iter().map(|w| w.name) {
        assert!(BENCHMARK_JSON.contains(&format!("{{\"name\": \"{name}\", \"why\": ")));
    }
    let entries = BENCHMARK_JSON.matches("{\"name\": ").count();
    assert_eq!(
        entries,
        END_TO_END.len() + PER_LAYER.len() + workloads.len()
    );
}

#[test]
fn tail_rule_keeps_ten_samples_beyond_the_reported_one() {
    let xs = |n: usize| -> Vec<f64> { (1..=n).rev().map(|i| i as f64).collect() };
    assert_eq!(
        tail(&xs(10)),
        None,
        "ten samples leave no qualifying percentile"
    );
    assert_eq!(
        tail(&xs(11)),
        Some(Tail {
            value: 1.0,
            percentile: 100.0 / 11.0,
            samples: 11
        })
    );
    let t = tail(&xs(20)).expect("20 samples");
    assert_eq!((t.value, t.percentile), (10.0, 50.0));
    let t = tail(&xs(100)).expect("100 samples");
    assert_eq!((t.value, t.percentile), (90.0, 90.0));
    let beyond = xs(100).iter().filter(|&&x| x > t.value).count();
    assert_eq!(beyond, 10);
}
