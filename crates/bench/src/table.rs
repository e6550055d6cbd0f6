//! Plain-text table formatting for the experiment transcripts.

use std::io::{self, Write};

/// A simple aligned text table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells are stringified by the caller).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                line.push_str(cell);
                line.push_str(&" ".repeat(widths[i] - cell.len()));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Writes the rendered table to `out`.
    pub fn write(&self, out: &mut dyn Write) -> io::Result<()> {
        out.write_all(self.render().as_bytes())
    }
}

/// Formats a float with 4 significant decimals, trimming noise.
pub fn f(v: f64) -> String {
    format!("{v:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["t", "value"]);
        t.row(vec!["50".into(), "0.1".into()]);
        t.row(vec!["100".into(), "0.0833".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "t    value");
        assert!(lines[1].starts_with("---"));
        assert_eq!(lines[2], "50   0.1");
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn row_width_checked() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.1), "0.1000");
    }
}
