//! Shared infrastructure for the bench binaries (`repro`, which
//! regenerates every table and figure, and the plane benches).
//!
//! `repro` and `perf_suite` accept two environment variables so the full
//! paper-scale runs and quick smoke runs share one code path:
//!
//! - `PAST_NODES` — overlay size (default 2250, the paper's setting).
//! - `PAST_FILES` — unique files in the synthetic NLANR-like trace
//!   (default 1,863,055, the paper's unique-URL count). When scaling
//!   down, keep `PAST_FILES ≈ 830 × PAST_NODES`: the storage policies
//!   respond to the files-per-node ratio (DESIGN.md §2.5). The recorded
//!   results in EXPERIMENTS.md used `PAST_NODES=450 PAST_FILES=373000`.
//!
//! Results are printed as aligned tables and also written as CSV under
//! `results/`.

use std::fmt::Write as _;
use std::io::Write as _;

use past_sim::{ExperimentConfig, ExperimentResult};
use past_workload::{FsTraceConfig, StreamTrace, Trace, WebTraceConfig};

/// Scale parameters shared by all experiment binaries.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Number of overlay nodes.
    pub nodes: usize,
    /// Unique files in the trace.
    pub files: usize,
}

impl Scale {
    /// Reads the scale from the environment (paper scale by default).
    pub fn from_env() -> Scale {
        let nodes = std::env::var("PAST_NODES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2250);
        let files = std::env::var("PAST_FILES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1_863_055);
        Scale { nodes, files }
    }
}

/// The standard web-proxy trace for a scale (NLANR statistics).
pub fn web_trace(scale: Scale) -> Trace {
    WebTraceConfig::default()
        .with_unique_files(scale.files)
        .generate()
}

/// The standard web-proxy trace as a lazy [`StreamTrace`]: the op
/// sequence of [`web_trace`] without materializing the request vector —
/// the form the 10M-file XL2 replay uses.
pub fn web_stream(scale: Scale) -> StreamTrace {
    WebTraceConfig::default()
        .with_unique_files(scale.files)
        .stream()
}

/// The filesystem trace for a scale.
pub fn fs_trace(scale: Scale) -> Trace {
    FsTraceConfig {
        files: scale.files,
        ..Default::default()
    }
    .generate()
}

/// The default experiment configuration at a scale.
pub fn base_config(scale: Scale) -> ExperimentConfig {
    ExperimentConfig {
        nodes: scale.nodes,
        ..Default::default()
    }
}

/// Formats one experiment's Table 2/3/4-style row.
pub fn storage_row(label: &str, r: &ExperimentResult) -> Vec<String> {
    vec![
        label.to_string(),
        format!("{:.2}%", r.success_ratio() * 100.0),
        format!("{:.2}%", (1.0 - r.success_ratio()) * 100.0),
        format!("{:.2}%", r.file_diversion_ratio() * 100.0),
        format!("{:.2}%", r.replica_diversion_ratio() * 100.0),
        format!("{:.1}%", r.final_utilization() * 100.0),
    ]
}

/// The header matching [`storage_row`].
pub fn storage_header() -> Vec<String> {
    [
        "Config",
        "Success",
        "Fail",
        "File div.",
        "Replica div.",
        "Util.",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Prints an aligned text table.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    println!("\n== {title}");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut line = String::new();
    for (i, h) in header.iter().enumerate() {
        let _ = write!(line, "{:<w$}  ", h, w = widths[i]);
    }
    println!("{line}");
    println!("{}", "-".repeat(line.len()));
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(line, "{:<w$}  ", cell, w = widths[i]);
        }
        println!("{line}");
    }
}

/// The directory bench outputs land in: `$PAST_OUT_DIR` when set,
/// otherwise the tracked defaults (`results/` for CSVs, the working
/// directory for `BENCH_*.json`). Scratch runs at non-default scales
/// should set `PAST_OUT_DIR` so they don't dirty the tree.
pub fn out_dir() -> Option<std::path::PathBuf> {
    std::env::var_os("PAST_OUT_DIR").map(std::path::PathBuf::from)
}

/// Resolves the path for a root-level artifact such as
/// `BENCH_churn.json`, honouring `PAST_OUT_DIR`.
pub fn artifact_path(name: &str) -> std::path::PathBuf {
    match out_dir() {
        Some(dir) => {
            let _ = std::fs::create_dir_all(&dir);
            dir.join(name)
        }
        None => std::path::PathBuf::from(name),
    }
}

/// Writes rows as CSV under `results/<name>.csv` (or
/// `$PAST_OUT_DIR/<name>.csv`).
pub fn write_csv(name: &str, header: &[String], rows: &[Vec<String>]) {
    let dir = out_dir().unwrap_or_else(|| std::path::PathBuf::from("results"));
    write_csv_in(&dir, name, header, rows);
}

/// Writes rows as `<dir>/<name>.csv`, creating `dir` if need be.
fn write_csv_in(dir: &std::path::Path, name: &str, header: &[String], rows: &[Vec<String>]) {
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("{name}.csv"));
    let mut out = match std::fs::File::create(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            return;
        }
    };
    let _ = writeln!(out, "{}", header.join(","));
    for row in rows {
        let _ = writeln!(out, "{}", row.join(","));
    }
    println!("(wrote {})", path.display());
}

/// Progress logger for long runs.
pub fn progress_logger(label: &'static str) -> impl FnMut(usize, usize) + 'static {
    move |done, total| {
        if done % 20_000 == 0 && done > 0 {
            eprintln!("[{label}] {done}/{total} trace ops");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_row_matches_header_shape() {
        let r = ExperimentResult::default();
        let row = storage_row("defaults", &r);
        assert_eq!(row.len(), storage_header().len());
        assert_eq!(row[0], "defaults");
        // An empty result renders as all-zero percentages, not NaN.
        assert_eq!(row[1], "0.00%");
        assert_eq!(row[5], "0.0%");
    }

    #[test]
    fn write_csv_emits_header_and_rows() {
        let header: Vec<String> = ["a", "b"].iter().map(|s| s.to_string()).collect();
        let rows = vec![vec!["1".to_string(), "2".to_string()]];
        let dir = std::env::temp_dir().join(format!("past-bench-selftest-{}", std::process::id()));
        write_csv_in(&dir, "bench_lib_selftest", &header, &rows);
        let body =
            std::fs::read_to_string(dir.join("bench_lib_selftest.csv")).expect("csv written");
        assert_eq!(body, "a,b\n1,2\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
