//! Minimal ASCII table rendering for paper-shaped reports.

use std::fmt::Write as _;

/// A simple text table: header row, optional separator rows, the first
/// column left-aligned (labels) and the rest right-aligned (numbers).
/// All the tableI/II/III harness binaries render through this so output
/// formatting is consistent and testable.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Option<Vec<String>>>, // None = separator line
}

impl Table {
    /// Build a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a data row; panics if the arity mismatches the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row arity {} != header arity {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(Some(cells.to_vec()));
        self
    }

    /// Append a row of string slices (the tests' shorthand).
    #[cfg(test)]
    pub fn row_strs(&mut self, cells: &[&str]) -> &mut Self {
        let owned: Vec<String> = cells.iter().map(|s| s.to_string()).collect();
        self.row(&owned)
    }

    /// Append a horizontal separator.
    pub fn separator(&mut self) -> &mut Self {
        self.rows.push(None);
        self
    }

    /// Number of data rows (the tests' oracle).
    #[cfg(test)]
    pub fn n_rows(&self) -> usize {
        self.rows.iter().filter(|r| r.is_some()).count()
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in self.rows.iter().flatten() {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep_line = |out: &mut String| {
            for (i, w) in widths.iter().enumerate() {
                let _ = write!(out, "+{}", "-".repeat(w + 2));
                if i == ncols - 1 {
                    out.push('+');
                    out.push('\n');
                }
            }
        };
        // The header is left-aligned throughout.
        let write_row = |out: &mut String, cells: &[String], header: bool| {
            for (i, cell) in cells.iter().enumerate() {
                let w = widths[i];
                if header || i == 0 {
                    let _ = write!(out, "| {cell:<w$} ");
                } else {
                    let _ = write!(out, "| {cell:>w$} ");
                }
            }
            out.push('|');
            out.push('\n');
        };
        sep_line(&mut out);
        write_row(&mut out, &self.header, true);
        sep_line(&mut out);
        for row in &self.rows {
            match row {
                Some(cells) => write_row(&mut out, cells, false),
                None => sep_line(&mut out),
            }
        }
        sep_line(&mut out);
        out
    }
}

/// Format a fraction as a percent string with two decimals, the style the
/// paper's tables use (e.g. `80.58%`).
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Format a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format the paper's `25-50-75p` percentile triple.
pub fn triple(p25: f64, p50: f64, p75: f64) -> String {
    format!(
        "{}-{}-{}",
        p25.round() as i64,
        p50.round() as i64,
        p75.round() as i64
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["Set", "# of jobs", "ready"]);
        t.row_strs(&["A1", "10767", "80.58%"]);
        t.row_strs(&["B", "12348", "80.00%"]);
        let s = t.render();
        assert!(s.contains("| A1 "));
        // Right alignment: numbers are padded on the left up to the
        // header width ("# of jobs" is 9 wide).
        assert!(s.contains("|     10767 "), "got:\n{s}");
        let line_b = s.lines().find(|l| l.contains("| B")).unwrap();
        assert!(line_b.contains("|     12348 "));
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    fn separator_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row_strs(&["1", "2"]).separator().row_strs(&["3", "4"]);
        let s = t.render();
        // header sep + top + bottom + explicit = 5 separator lines total
        assert_eq!(s.lines().filter(|l| l.starts_with('+')).count(), 4);
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row_strs(&["only one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.8058), "80.58%");
        assert_eq!(f2(7.444), "7.44");
        assert_eq!(triple(2.0, 4.0, 8.0), "2-4-8");
    }
}
