//! Command line: `run`, `compare`, `pin`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::json::{self, Value};
use crate::metrics::{END_TO_END, NOT_PRODUCED, PER_LAYER};
use crate::run::{run_untraced, WorkloadResult, DEFAULT_SEED};
use crate::workloads::{Scales, Workload, WORKLOADS};

const USAGE: &str = "\
pastbench — the PAST reproduction's benchmark

  pastbench run [--workload W] [--seed S] [--seconds N] [--traced | --trace 0|1]
                [--out DIR] [--smoke]
      Runs every workload (or W), one child process per workload, checks the
      outputs and prints every metric as `workload metric value unit`.
      Writes <out>/results.json (traced: <out>/results_traced.json and
      <out>/trace_<workload>.json). Exits non-zero when a check fails.
  pastbench compare A.json B.json
      Holds result set B against baseline A with the end-to-end bounds:
      same / worse / better / unresolved per (workload, metric).
      Exits non-zero on any `worse`.
  pastbench pin
      Re-records pins.json (the simulated statistics of the default seed).

Workloads: storage_fill cache_lookup shard_pipeline churn_repair";

/// Options of `run`.
struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
    smoke: bool,
}

/// Runs the command line; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| run(&a)),
        Some("compare") if args.len() == 3 => {
            crate::compare::compare_files(Path::new(&args[1]), Path::new(&args[2]))
        }
        Some("pin") if args.len() == 1 => pin(),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(message) => {
            eprintln!("{message}");
            2
        }
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        traced: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=600.0).contains(s))
                    .ok_or("--seconds takes a number from 0 to 600")?;
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--traced" => parsed.traced = true,
            "--out" => parsed.out = PathBuf::from(value()?),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown option {other}\n\n{USAGE}")),
        }
    }
    Ok(parsed)
}

fn run(args: &RunArgs) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    match args.workload {
        Some(w) => run_one(w, args),
        None => run_all(args),
    }
}

/// Runs one workload in this process and prints its metrics, then the
/// driver's result line.
fn run_one(w: Workload, args: &RunArgs) -> Result<bool, String> {
    // The harnesses write metrics reports to `results/` unless told
    // otherwise; keep everything under the out directory.
    std::env::set_var("PAST_OUT_DIR", &args.out);
    // `shard_pipeline` runs its shards inline: the threaded pool's wall
    // time does not repeat on a small host (see README, "threaded
    // pool"). The traced run lifts this for `net.threaded_vs_inline`.
    std::env::set_var("PAST_SHARD_THREADS", "0");
    let scales = if args.smoke {
        Scales::SMOKE
    } else {
        Scales::FULL
    };
    let result = if args.traced {
        crate::traced::run_traced(w, scales, args.seed, &args.out)?
    } else {
        run_untraced(w, scales, args.seed, args.seconds, true)
    };
    print_metrics(&result);
    report_failed_checks(&result);
    write_file(
        &result_file(&args.out, w, args.traced),
        &result.to_json().to_pretty(),
    )?;
    println!("{}", driver_line(&result).to_line());
    Ok(result.correct())
}

/// Where a single-workload run leaves its result.
fn result_file(out: &Path, w: Workload, traced: bool) -> PathBuf {
    let prefix = if traced { "traced_" } else { "" };
    out.join(format!("{prefix}{}.json", w.name()))
}

fn report_failed_checks(result: &WorkloadResult) {
    for c in result.checks.iter().filter(|c| !c.ok) {
        eprintln!(
            "{} CHECK FAILED {}: {}",
            result.workload.name(),
            c.name,
            c.detail
        );
    }
}

fn print_metrics(result: &WorkloadResult) {
    for m in &result.metrics {
        let mut line = format!(
            "{} {} {} {}",
            result.workload.name(),
            m.name,
            m.value,
            m.unit
        );
        if m.n > 1 {
            line.push_str(&format!(
                "  (median of {}, min {} max {})",
                m.n, m.min, m.max
            ));
        }
        if let Some((pct, value)) = m.tail {
            line.push_str(&format!("  p{pct:.0} {value}"));
        }
        println!("{line}");
    }
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics` — every end-to-end metric of an untraced run,
/// every per-layer metric of a traced one.
fn driver_line(result: &WorkloadResult) -> Value {
    let names: Vec<(&str, &str)> = if result.traced {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, unit))
            .collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics = names.into_iter().map(|(name, unit)| {
        // A traced run measures every per-layer metric; an untraced one
        // leaves out what the workload does not produce.
        let value = result.metric(name).map_or(NOT_PRODUCED, |m| m.value);
        (
            name,
            Value::obj([("value", Value::from(value)), ("unit", unit.into())]),
        )
    });
    Value::obj([
        ("correct", Value::from(result.correct())),
        ("attempted", result.attempted.max(1).into()),
        ("failed", result.failed.into()),
        ("metrics", Value::obj(metrics)),
    ])
}

/// Runs every workload, each in a child process of its own so that
/// peak RSS is per workload, and writes the combined result set.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let started = Instant::now();
    let load_at_start = read_first_line("/proc/loadavg");
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut all_ok = true;
    let mut results = Vec::new();
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.arg("run")
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out);
        if args.smoke {
            cmd.arg("--smoke");
        }
        // The child inherits stderr; its stdout is relayed without the
        // driver line, which only a single-workload run ends with.
        let output = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start the {} run: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        lines.pop();
        for line in lines {
            println!("{line}");
        }
        all_ok &= output.status.success();
        let file = result_file(&args.out, w, args.traced);
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("the {} run left no {}: {e}", w.name(), file.display()))?;
        results.push(json::parse(&text)?);
    }
    let total = started.elapsed().as_secs_f64();
    let set = Value::obj([
        ("schema", Value::from(1u64)),
        ("host", host_facts(&load_at_start)),
        ("seed", args.seed.into()),
        ("traced", args.traced.into()),
        ("smoke", args.smoke.into()),
        ("total_wall_s", total.into()),
        ("workloads", Value::Arr(results)),
    ]);
    let file = args.out.join(if args.traced {
        "results_traced.json"
    } else {
        "results.json"
    });
    write_file(&file, &set.to_pretty())?;
    println!(
        "total_wall_s {total:.1}  wrote {}  checks {}",
        file.display(),
        if all_ok { "passed" } else { "FAILED" }
    );
    Ok(all_ok)
}

/// What the numbers were measured on.
fn host_facts(load_at_start: &str) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    Value::obj([
        (
            "host_cpus",
            Value::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("cpu_model", cpu_model.into()),
        ("rustc", tool_line("rustc", &["-V"], manifest_dir).into()),
        (
            "commit",
            tool_line("git", &["rev-parse", "HEAD"], manifest_dir).into(),
        ),
        ("loadavg_at_start", load_at_start.into()),
    ])
}

/// First line of a tool's output, or "unknown" (the driver's checkout
/// is not a git repository, for one).
fn tool_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn read_first_line(path: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Re-records `pins.json` from an untraced run of each workload at the
/// default seed and the recorded scale.
fn pin() -> Result<bool, String> {
    std::env::set_var("PAST_SHARD_THREADS", "0");
    let mut pins = Vec::new();
    for w in WORKLOADS {
        let result = run_untraced(w, Scales::FULL, DEFAULT_SEED, 0.0, false);
        report_failed_checks(&result);
        if !result.correct() {
            return Ok(false);
        }
        pins.push((
            w.name(),
            Value::obj(result.simulated.iter().map(|&(k, v)| (k, Value::from(v)))),
        ));
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("pins.json");
    write_file(&path, &Value::obj(pins).to_pretty())?;
    println!("wrote {}; rebuild to check against it", path.display());
    Ok(true)
}
