//! Shared infrastructure for `repro`, the one bench binary: it
//! regenerates every table and figure of the paper and runs the churn,
//! Byzantine, flash-crowd and streaming-replay experiments.
//!
//! Two environment variables set the scale, so the full paper-scale
//! runs and quick smoke runs share one code path:
//!
//! - `PAST_NODES` — overlay size (default 2250, the paper's setting).
//! - `PAST_FILES` — unique files in the synthetic NLANR-like trace
//!   (default 1,863,055, the paper's unique-URL count).
//!
//! The storage policies respond to the files-per-node ratio (DESIGN.md
//! §2.5), so setting only one of the two derives the other at the
//! paper's ≈ 830 files per node. The recorded results in EXPERIMENTS.md
//! used `PAST_NODES=450 PAST_FILES=373000`.
//!
//! Results are printed as aligned tables and also written as CSV under
//! `results/` (or `$PAST_OUT_DIR`).

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use past_sim::{ExperimentConfig, ExperimentResult};
use past_workload::{FsTraceConfig, StreamTrace, Trace, WebTraceConfig};

/// Scale parameters shared by all experiments.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Number of overlay nodes.
    pub nodes: usize,
    /// Unique files in the trace.
    pub files: usize,
}

/// The paper's files-per-node ratio (1,863,055 / 2250).
const FILES_PER_NODE: usize = 830;

impl Scale {
    /// Reads the scale from `PAST_NODES` / `PAST_FILES` (paper scale
    /// when neither is set). A value that is not a positive integer is
    /// an error, never a silent fall-back to paper scale.
    pub fn from_env() -> Result<Scale, String> {
        let var = |name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
        Scale::parse(var("PAST_NODES").as_deref(), var("PAST_FILES").as_deref())
    }

    /// With one of the two given, the other follows at
    /// [`FILES_PER_NODE`].
    fn parse(nodes: Option<&str>, files: Option<&str>) -> Result<Scale, String> {
        let (nodes, files) = match (
            positive("PAST_NODES", nodes)?,
            positive("PAST_FILES", files)?,
        ) {
            (None, None) => (2250, 1_863_055),
            (Some(nodes), None) => (nodes, nodes.saturating_mul(FILES_PER_NODE)),
            (None, Some(files)) => ((files / FILES_PER_NODE).max(10), files),
            (Some(nodes), Some(files)) => (nodes, files),
        };
        Ok(Scale { nodes, files })
    }
}

/// One scale variable: unset, or a positive integer.
fn positive(name: &str, value: Option<&str>) -> Result<Option<usize>, String> {
    let Some(text) = value else { return Ok(None) };
    match text.parse() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(format!("{name}={text:?} is not a positive integer")),
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
/// the form the 10M-file `streaming_replay` uses.
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

/// A table row whose cells name their column: the header is read off
/// the first row, so it cannot drift from the cells.
pub type NamedRow = Vec<(&'static str, String)>;

/// One experiment's Table 2/3/4-style row.
pub fn storage_row(label: &str, r: &ExperimentResult) -> NamedRow {
    let percent = |ratio: f64| format!("{:.2}%", ratio * 100.0);
    vec![
        ("Config", label.to_string()),
        ("Success", percent(r.success_ratio())),
        ("Fail", percent(1.0 - r.success_ratio())),
        ("File div.", percent(r.file_diversion_ratio())),
        ("Replica div.", percent(r.replica_diversion_ratio())),
        ("Util.", format!("{:.1}%", r.final_utilization() * 100.0)),
    ]
}

/// One CSV, `<name>.csv`. Every row is exactly as wide as the header:
/// [`Table::new`] checks it once, where the table is built, so the
/// printed table and the CSV always have the same shape.
pub struct Table {
    /// The CSV's file stem.
    pub name: &'static str,
    /// Whether it is also printed, under the experiment's title.
    pub print: bool,
    /// The column names.
    pub header: Vec<String>,
    /// The rows, each as wide as the header.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// A table of `rows` under `header`.
    ///
    /// # Panics
    ///
    /// If a row is not exactly as wide as `header`.
    pub fn new(
        name: &'static str,
        print: bool,
        header: Vec<String>,
        rows: Vec<Vec<String>>,
    ) -> Table {
        if let Some(row) = rows.iter().find(|row| row.len() != header.len()) {
            panic!("{name}: row {row:?} is not as wide as its header {header:?}");
        }
        Table {
            name,
            print,
            header,
            rows,
        }
    }

    /// Prints the table aligned, under `title`.
    pub fn print(&self, title: &str) {
        println!("\n== {title}");
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut line = String::new();
            for (cell, w) in cells.iter().zip(&widths) {
                let _ = write!(line, "{cell:<w$}  ");
            }
            line
        };
        let head = line(&self.header);
        println!("{head}");
        println!("{}", "-".repeat(head.len()));
        for row in &self.rows {
            println!("{}", line(row));
        }
    }

    /// Writes the table as `results/<name>.csv` (or
    /// `$PAST_OUT_DIR/<name>.csv`, so scratch runs at other scales don't
    /// dirty the tree). An error names the path it could not write.
    pub fn write_csv(&self) -> io::Result<()> {
        let path = past_sim::out_dir().join(format!("{}.csv", self.name));
        self.write_csv_at(&path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        println!("(wrote {})", path.display());
        Ok(())
    }

    /// Writes the table as the CSV file `path`, creating its directory
    /// if need be.
    fn write_csv_at(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut body = self.header.join(",");
        body.push('\n');
        for row in &self.rows {
            body.push_str(&row.join(","));
            body.push('\n');
        }
        std::fs::write(path, body)
    }
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
    fn storage_row_of_an_empty_result_is_zeros() {
        let row = storage_row("defaults", &ExperimentResult::default());
        assert_eq!(row[0], ("Config", "defaults".to_string()));
        // All-zero percentages, not NaN.
        assert_eq!(row[1], ("Success", "0.00%".to_string()));
        assert_eq!(row[5], ("Util.", "0.0%".to_string()));
    }

    fn cells<const N: usize>(cells: [&str; N]) -> Vec<String> {
        cells.map(str::to_string).into()
    }

    #[test]
    fn write_csv_emits_header_and_rows() {
        let table = Table::new("t", false, cells(["a", "b"]), vec![cells(["1", "2"])]);
        let dir = std::env::temp_dir().join(format!("past-bench-selftest-{}", std::process::id()));
        let path = dir.join("bench_lib_selftest.csv");
        table.write_csv_at(&path).expect("csv written");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        // A directory that cannot be created (its parent is that file)
        // is an error the caller sees, not a warning.
        assert!(table.write_csv_at(&path.join("sub/x.csv")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A row wider or narrower than its header is refused where the
    /// table is built, before it can be printed or written.
    #[test]
    fn a_ragged_table_is_rejected_where_it_is_built() {
        let build = |row: Vec<String>| {
            std::panic::catch_unwind(|| Table::new("t", true, cells(["a", "b"]), vec![row]))
        };
        build(cells(["1", "a cell wider than its column"]))
            .expect("a wide cell is not a wide row")
            .print("t");
        assert!(build(cells(["1", "2", "3"])).is_err());
        assert!(build(cells(["1"])).is_err());
    }

    #[test]
    fn scale_defaults_to_the_paper_and_one_knob_sets_the_other() {
        let scale = |n, f| Scale::parse(n, f).map(|s| (s.nodes, s.files));
        assert_eq!(scale(None, None), Ok((2250, 1_863_055)));
        assert_eq!(scale(Some("60"), None), Ok((60, 49_800)));
        assert_eq!(scale(None, Some("373000")), Ok((449, 373_000)));
        assert_eq!(scale(None, Some("5000")), Ok((10, 5_000)));
        assert_eq!(scale(Some("450"), Some("373000")), Ok((450, 373_000)));
    }

    #[test]
    fn malformed_or_zero_scale_is_rejected() {
        for bad in ["6O", "", "-3", "0", "1e3", " 60"] {
            let err = Scale::parse(Some(bad), None).expect_err(bad);
            assert!(err.contains("PAST_NODES"), "{err}");
            let err = Scale::parse(Some("60"), Some(bad)).expect_err(bad);
            assert!(err.contains("PAST_FILES"), "{err}");
        }
    }
}
