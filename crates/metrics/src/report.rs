//! Plain-text table rendering for the experiment binaries.
//!
//! The tables printed by `dtdbd-bench` follow the layout of the paper's
//! tables so the measured values can be compared side by side with the
//! published ones.

/// A simple fixed-width text table builder.
#[derive(Debug, Clone, Default)]
pub struct TableBuilder {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableBuilder {
    /// Start a table with a title.
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            header: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Set the column headers.
    pub fn header<I, S>(mut self, columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.header = columns.into_iter().map(Into::into).collect();
        self
    }

    /// Append a row of already formatted cells.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Append a row starting with a label followed by formatted floats.
    pub fn metric_row(&mut self, label: &str, values: &[f64], decimals: usize) -> &mut Self {
        let mut cells = vec![label.to_string()];
        cells.extend(values.iter().map(|v| format!("{v:.decimals$}")));
        self.rows.push(cells);
        self
    }

    /// Number of data rows added so far.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Render the table as an aligned plain-text block.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        if !self.header.is_empty() {
            out.push_str(&render_row(&self.header, &widths));
            out.push('\n');
            let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
            out.push_str(&render_row(&rule, &widths));
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

fn render_row(cells: &[String], widths: &[usize]) -> String {
    let mut parts = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let w = widths.get(i).copied().unwrap_or(cell.len());
        if i == 0 {
            parts.push(format!("{cell:<w$}"));
        } else {
            parts.push(format!("{cell:>w$}"));
        }
    }
    parts.join("  ")
}

/// Format a float with 4 decimals, the precision used throughout the paper's
/// tables.
pub fn fmt4(v: f64) -> String {
    format!("{v:.4}")
}

/// Format a percentage with one decimal (Table I style).
pub fn fmt_pct(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_title_header_and_rows() {
        let mut t = TableBuilder::new("Demo").header(["Model", "F1", "Total"]);
        t.row(["baseline", "0.9000", "1.2000"]);
        t.metric_row("ours", &[0.9312, 0.7471], 4);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("Model"));
        assert!(s.contains("baseline"));
        assert!(s.contains("0.9312"));
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    fn columns_are_aligned() {
        let mut t = TableBuilder::new("Align").header(["name", "v"]);
        t.row(["a", "1.0"]);
        t.row(["longer-name", "22.5"]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().skip(1).collect();
        // All non-title lines should have equal length after trimming the end.
        let lens: Vec<usize> = lines.iter().map(|l| l.trim_end().len()).collect();
        assert_eq!(lens[0], lens[1]);
        assert_eq!(lens[2], lens[3]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt4(0.12345678), "0.1235");
        assert_eq!(fmt_pct(39.44), "39.4");
    }

    #[test]
    fn rows_longer_than_header_extend_widths() {
        let mut t = TableBuilder::new("Wide").header(["only-one"]);
        t.row(["a", "b", "c"]);
        let rendered = t.render();
        assert!(rendered.contains('c'));
    }
}
