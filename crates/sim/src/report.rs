//! Metrics report emission: `results/metrics_<label>.json`.

use std::io::Write;
use std::path::PathBuf;

/// Where a run's artifacts go: `results/`, or `$PAST_OUT_DIR` when set,
/// so scratch runs don't overwrite tracked artifacts.
pub fn out_dir() -> PathBuf {
    std::env::var_os("PAST_OUT_DIR").map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

/// Writes a metrics report document under [`out_dir`], creating the
/// directory if needed. The label is sanitized to a filename-safe
/// subset. Returns the path written; an error names the path it could
/// not write.
pub fn write_metrics_file(label: &str, json: &str) -> std::io::Result<PathBuf> {
    let safe: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let dir = out_dir();
    let path = dir.join(format!("metrics_{safe}.json"));
    let write = || {
        std::fs::create_dir_all(&dir)?;
        let mut f = std::fs::File::create(&path)?;
        f.write_all(json.as_bytes())?;
        f.write_all(b"\n")
    };
    write().map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizes_label() {
        let path = write_metrics_file("unit/../test label", "{}").unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "metrics_unit_.._test_label.json"
        );
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "{}\n");
        let _ = std::fs::remove_file(path);
    }
}
