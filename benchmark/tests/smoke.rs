//! The whole command at `--smoke` scale: all four workloads, untraced
//! and traced, every metric emitted exactly once with a unit.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use pastbench::json::{self, Value};
use pastbench::metrics::{produces, END_TO_END, PER_LAYER};
use pastbench::workloads::WORKLOADS;

/// Runs `pastbench run --smoke …` and returns its standard output.
fn run(out: &Path, extra: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_pastbench"))
        .args(["run", "--smoke", "--out"])
        .arg(out)
        .args(extra)
        .output()
        .expect("pastbench starts");
    assert!(
        output.status.success(),
        "pastbench run {extra:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("UTF-8 output")
}

/// The `workload metric value unit` lines of a run, as
/// workload → metric → (value, unit), asserting no metric repeats.
fn metric_lines(stdout: &str) -> BTreeMap<String, BTreeMap<String, (f64, String)>> {
    let mut seen: BTreeMap<String, BTreeMap<String, (f64, String)>> = BTreeMap::new();
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        let Some(w) = words
            .next()
            .filter(|w| WORKLOADS.iter().any(|k| k.name() == *w))
        else {
            continue;
        };
        let name = words.next().expect("metric name");
        let value: f64 = words.next().expect("value").parse().expect("numeric value");
        let unit = words.next().expect("unit");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name {name:?}"
        );
        assert!(value.is_finite(), "{w} {name} = {value}");
        let repeated = seen
            .entry(w.to_string())
            .or_default()
            .insert(name.to_string(), (value, unit.to_string()));
        assert!(repeated.is_none(), "{w} {name} emitted twice");
    }
    seen
}

#[test]
fn smoke_emits_every_metric_once() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&out);
    let started = Instant::now();
    let untraced = metric_lines(&run(&out, &[]));
    let traced = metric_lines(&run(&out, &["--traced"]));
    let elapsed = started.elapsed().as_secs_f64();

    for w in WORKLOADS {
        let got = &untraced[w.name()];
        for m in END_TO_END.iter().filter(|m| produces(w, m.name)) {
            let (value, unit) = got
                .get(m.name)
                .unwrap_or_else(|| panic!("{} lacks {}", w.name(), m.name));
            assert_eq!(unit, m.unit, "{} {}", w.name(), m.name);
            assert!(*value > 0.0, "{} {} = {value}", w.name(), m.name);
        }
        assert_eq!(
            got.len(),
            END_TO_END.iter().filter(|m| produces(w, m.name)).count(),
            "{} emits a metric the table does not name: {:?}",
            w.name(),
            got.keys()
        );
        let got = &traced[w.name()];
        for (name, unit, _) in PER_LAYER {
            let (_, got_unit) = got
                .get(name)
                .unwrap_or_else(|| panic!("{} lacks {name}", w.name()));
            assert_eq!(got_unit, unit, "{} {name}", w.name());
        }
        assert_eq!(got.len(), PER_LAYER.len(), "{}: {:?}", w.name(), got.keys());
        // Shares are shares, and the residual is what is left.
        for share in ["net", "pastry", "store", "crypto"] {
            let (v, _) = got[&format!("{share}.est_share")];
            assert!(
                (0.0..=1.0).contains(&v),
                "{} {share}.est_share = {v}",
                w.name()
            );
        }
        assert!(got["core.residual_share"].0 >= 0.0, "{}", w.name());
    }

    // The files the run leaves: both result sets and a span file per
    // workload whose spans name their parent.
    for name in ["results.json", "results_traced.json"] {
        let set = json::parse(&std::fs::read_to_string(out.join(name)).unwrap()).unwrap();
        assert_eq!(set.get("workloads").unwrap().as_array().unwrap().len(), 4);
        assert!(set.get("host").unwrap().get("host_cpus").is_some());
        assert!(set.get("total_wall_s").unwrap().as_f64().unwrap() > 0.0);
    }
    for w in WORKLOADS {
        let path = out.join(format!("trace_{}.json", w.name()));
        let trace = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let spans = trace.get("spans").unwrap().as_array().unwrap();
        let names: Vec<&str> = spans
            .iter()
            .map(|s| s.get("name").unwrap().as_str().unwrap())
            .collect();
        for want in [
            "sim.build",
            "sim.replay",
            "sim.window",
            "sim.report",
            "drive.net.simulator",
        ] {
            assert!(names.contains(&want), "{}: no {want} span", w.name());
        }
        let window = spans
            .iter()
            .find(|s| s.get("name").unwrap().as_str() == Some("sim.window"))
            .unwrap();
        let parent = window.get("parent").unwrap().as_f64().unwrap() as usize;
        assert_eq!(
            spans[parent].get("name").unwrap().as_str(),
            Some("sim.replay")
        );
        assert!(matches!(trace.get("counts"), Some(Value::Obj(_))));
    }

    // Comparing a result set with itself holds.
    let results = out.join("results.json");
    let status = Command::new(env!("CARGO_BIN_EXE_pastbench"))
        .arg("compare")
        .args([&results, &results])
        .output()
        .unwrap();
    assert!(status.status.success());
    assert!(!String::from_utf8_lossy(&status.stdout).contains(" worse "));

    // The time budget holds for an optimized build (`cargo test
    // --release`); an unoptimized one is several times slower.
    if !cfg!(debug_assertions) {
        assert!(elapsed < 10.0, "smoke runs took {elapsed:.1} s");
    }
}

#[test]
fn driver_line_is_the_last_line() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("driver");
    for (trace, wanted) in [("0", END_TO_END.len()), ("1", PER_LAYER.len())] {
        let stdout = run(
            &out,
            &[
                "--workload",
                "storage_fill",
                "--seed",
                "7",
                "--seconds",
                "0",
                "--trace",
                trace,
            ],
        );
        let line = json::parse(stdout.lines().last().unwrap()).unwrap();
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(line.get("failed").unwrap().as_f64(), Some(0.0));
        assert!(line.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
        let metrics = line.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), wanted);
        for (name, m) in metrics {
            assert!(m.get("value").unwrap().as_f64().is_some(), "{name}");
            assert!(m.get("unit").unwrap().as_str().is_some(), "{name}");
            if trace == "0" {
                assert!(
                    m.get("value").unwrap().as_f64().unwrap() != 0.0,
                    "{name} is zero"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["frobnicate"],
        &["compare", "only-one"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_pastbench"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty());
    }
}
