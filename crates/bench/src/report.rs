//! Table rendering and JSON result persistence.

use serde::Serialize;
use std::io::Write;
use std::path::Path;

/// A generic reported experiment: id, settings, and rows.
#[derive(Debug, Clone, Serialize)]
pub struct Reported {
    /// Experiment id, e.g. "table2" or "fig8b".
    pub id: String,
    /// Human-readable settings summary.
    pub settings: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Reported {
    /// GitHub-flavored markdown table under a heading.
    pub fn to_markdown(&self) -> String {
        let mut s = format!("## {} ({})\n\n| ", self.id, self.settings);
        s.push_str(&self.headers.join(" | "));
        s.push_str(" |\n|");
        for _ in &self.headers {
            s.push_str("---|");
        }
        s.push('\n');
        for row in &self.rows {
            s.push_str("| ");
            s.push_str(&row.join(" | "));
            s.push_str(" |\n");
        }
        s.push('\n');
        s
    }

    /// Prints to stdout.
    pub fn print(&self) {
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        let _ = writeln!(lock, "{}", self.to_markdown());
    }
}

/// The workspace-level `results/` directory, resolved from this crate's
/// manifest rather than the process CWD, so the experiment binaries'
/// result artifacts land in one place wherever they are invoked from
/// (they are checked in).
pub(crate) fn results_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Writes the report as JSON under `results/<id>.json` (creating the
/// directory), so `run_all` can assemble EXPERIMENTS.md.
pub(crate) fn write_json(report: &Reported, results_dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(results_dir)?;
    let path = results_dir.join(format!("{}.json", report.id));
    let f = std::fs::File::create(path)?;
    serde_json::to_writer_pretty(std::io::BufWriter::new(f), report).map_err(std::io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Reported {
        Reported {
            id: "table_test".into(),
            settings: "eps=5".into(),
            headers: vec!["Method".into(), "NE".into()],
            rows: vec![
                vec!["NGram".into(), "1.18".into()],
                vec!["PhysDist".into(), "8.74".into()],
            ],
        }
    }

    #[test]
    fn markdown_has_header_separator_and_rows() {
        let md = sample().to_markdown();
        assert!(md.contains("| Method | NE |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| NGram | 1.18 |"));
    }

    #[test]
    fn json_roundtrip_via_file() {
        let dir = std::env::temp_dir().join(format!("trajshare-test-{}", std::process::id()));
        let r = sample();
        write_json(&r, &dir).unwrap();
        let content = std::fs::read_to_string(dir.join("table_test.json")).unwrap();
        assert!(content.contains("PhysDist"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
