//! `BENCHMARK.json` and the metric tables name the same things.

use pastbench::json::{self, Value};
use pastbench::metrics::{Better, END_TO_END, PER_LAYER};
use pastbench::workloads::WORKLOADS;

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no {key}"))
}

#[test]
fn benchmark_json_has_exactly_the_contract_keys() {
    let spec = spec();
    let keys: Vec<&str> = spec
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let seconds = spec.get("run_seconds").unwrap().as_f64().unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    let paths = spec.get("paths").unwrap().as_array().unwrap();
    assert_eq!(paths, [Value::from("benchmark")]);
}

#[test]
fn workloads_match() {
    let spec = spec();
    let listed: Vec<&str> = spec
        .get("workloads")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|w| {
            assert!(text(w, "why").len() <= 200 && !text(w, "why").contains('\n'));
            text(w, "name")
        })
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    assert_eq!(listed, ours);
}

#[test]
fn end_to_end_metrics_match() {
    let spec = spec();
    let listed = spec.get("end_to_end").unwrap().as_array().unwrap();
    assert_eq!(listed.len(), END_TO_END.len());
    for (theirs, ours) in listed.iter().zip(&END_TO_END) {
        assert_eq!(text(theirs, "name"), ours.name);
        assert_eq!(text(theirs, "unit"), ours.unit);
        let better = match ours.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        assert_eq!(text(theirs, "better"), better, "{}", ours.name);
        let bound = theirs.get("bound").unwrap().as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{}", ours.name);
        // The driver varies the seed from run to run, so its bound on a
        // simulated statistic has to cover seed-to-seed variation;
        // `compare` runs one seed and holds those to equality. On host
        // metrics the driver's bound is never tighter than `compare`'s.
        if !ours.simulated {
            assert!(bound >= ours.bound, "{}", ours.name);
        }
    }
    assert!(listed.iter().any(|m| text(m, "name") == "setup_s"
        && text(m, "unit") == "s"
        && text(m, "better") == "lower"));
}

#[test]
fn per_layer_metrics_match() {
    let spec = spec();
    let listed = spec.get("per_layer").unwrap().as_array().unwrap();
    assert!(listed.len() <= 128);
    let theirs: Vec<(&str, &str, Better)> = listed
        .iter()
        .map(|m| {
            let better = match text(m, "better") {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => panic!("better: {other}"),
            };
            (text(m, "name"), text(m, "unit"), better)
        })
        .collect();
    assert_eq!(theirs, PER_LAYER);
    for m in listed {
        let keys: Vec<&str> = m
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["name", "unit", "better"]);
    }
}
