//! A minimal ASCII table renderer for experiment output.

/// An ASCII table with a header row and aligned columns.
///
/// The first column is left-aligned (benchmark names); all other columns
/// are right-aligned (numbers), matching the layout of the paper's
/// tables.
///
/// # Examples
///
/// ```
/// use ds_stats::Table;
///
/// let mut t = Table::new(&["bench", "traffic", "transactions"]);
/// t.row(&["compress", "0.45", "0.70"]);
/// t.row(&["go", "0.31", "0.62"]);
/// println!("{}", t.render());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new<S: AsRef<str>>(headers: &[S]) -> Self {
        assert!(!headers.is_empty(), "a table needs at least one column");
        Self { headers: headers.iter().map(|h| h.as_ref().to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width must match header width");
        self.rows.push(cells.iter().map(|c| c.as_ref().to_string()).collect());
        self
    }

    /// The column headers, in order.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows, in insertion order (cells are the exact strings
    /// that `render` prints, before alignment padding).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table to a `String` with a separator under the header.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                if i == 0 {
                    line.push_str(&format!("{:<width$}", cell, width = widths[i]));
                } else {
                    line.push_str(&format!("{:>width$}", cell, width = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["name", "v"]);
        t.row(&["a", "1"]);
        t.row(&["longer", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        // Numbers right-aligned: "22" ends both data lines' second column.
        assert!(lines[3].ends_with("22"));
        assert!(lines[2].ends_with(" 1"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn display_matches_render() {
        let mut t = Table::new(&["h"]);
        t.row(&["x"]);
        assert_eq!(format!("{t}"), t.render());
    }

    #[test]
    fn len_and_is_empty() {
        let mut t = Table::new(&["h"]);
        assert!(t.is_empty());
        t.row(&["x"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }
}
