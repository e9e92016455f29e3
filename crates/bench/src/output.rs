//! Experiment output: aligned tables on stdout, JSON records on disk.

use serde::Serialize;
use std::fmt::Write as _;
use std::path::PathBuf;

/// A simple fixed-width table printer for experiment rows.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells beyond the header count are dropped; missing
    /// cells render empty).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Table {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().take(cols).enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let mut line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(line, "{:<w$}  ", h, w = widths[i]);
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(line, "{cell:<w$}  ");
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Writes an experiment's JSON record to `experiments/<name>.json` under the
/// workspace root, returning the path written. A failed write is an error —
/// a bench run whose results never hit disk should fail loudly, not scroll a
/// warning past the operator.
pub fn emit_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let dir = workspace_dir().join("experiments");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::other(format!("cannot serialize {name}: {e}")))?;
    std::fs::write(&path, json)?;
    eprintln!("[results written to {}]", path.display());
    Ok(path)
}

fn workspace_dir() -> PathBuf {
    // crates/bench -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["model", "accuracy"]);
        t.row(["persistent", "99.0"]);
        t.row(["gluon", "98.5"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("model"));
        assert!(lines[1].starts_with("-----"));
        assert!(lines[2].contains("persistent"));
        // Columns align: "accuracy" begins at the same offset everywhere.
        let col = lines[0].find("accuracy").unwrap();
        assert_eq!(&lines[2][col..col + 4], "99.0");
    }

    #[test]
    fn ragged_rows_tolerated() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["1"]);
        t.row(["1", "2", "3", "4"]);
        let s = t.render();
        assert!(s.contains('1'));
        assert!(!s.contains('4'), "extra cells dropped");
    }
}
