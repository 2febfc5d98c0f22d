//! Result tables: the rows/series each figure or table reports, renderable
//! as aligned text (terminal), Markdown (EXPERIMENTS.md), and JSON.

use serde::Serialize;

/// One cell of a result table.
#[derive(Debug, Clone, Serialize)]
#[serde(untagged)]
pub enum Cell {
    /// A text cell (row labels).
    Text(String),
    /// A numeric cell, formatted to one decimal by default.
    Num(f64),
    /// A numeric cell with explicit precision.
    Prec(f64, usize),
    /// An integer count.
    Int(u64),
    /// An empty cell.
    Empty,
}

impl Cell {
    fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Num(v) => format!("{v:.1}"),
            Cell::Prec(v, p) => format!("{v:.*}", p),
            Cell::Int(v) => format!("{v}"),
            Cell::Empty => String::new(),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}
impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}
impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Num(v)
    }
}
impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::Int(v)
    }
}

/// A rectangular measurement table with named columns.
#[derive(Debug, Clone, Serialize)]
pub struct ResultTable {
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows, each exactly `headers.len()` cells.
    pub rows: Vec<Vec<Cell>>,
}

impl ResultTable {
    /// A table with the given headers.
    pub(crate) fn new<H: Into<String>>(headers: Vec<H>) -> Self {
        ResultTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub(crate) fn push_row(&mut self, row: Vec<Cell>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(row);
    }

    /// Value of the numeric cell at `(row, col)`, if numeric.
    pub fn num_at(&self, row: usize, col: usize) -> Option<f64> {
        match self.rows.get(row)?.get(col)? {
            Cell::Num(v) | Cell::Prec(v, _) => Some(*v),
            Cell::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Render as aligned monospace text.
    pub(crate) fn render_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Cell::render).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:>w$}", h, w = widths[i]))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &rendered {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Render as a Markdown table.
    pub(crate) fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(Cell::render).collect();
            out.push_str(&format!("| {} |\n", cells.join(" | ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ResultTable {
        let mut t = ResultTable::new(vec!["Conns", "Cubic", "BBR"]);
        t.push_row(vec!["1".into(), 364.0.into(), 325.0.into()]);
        t.push_row(vec!["20".into(), 310.0.into(), 138.0.into()]);
        t
    }

    #[test]
    fn text_render_aligns_columns() {
        let txt = sample().render_text();
        let lines: Vec<&str> = txt.lines().collect();
        assert!(lines[0].contains("Cubic"));
        assert!(lines[2].contains("364.0"));
        assert!(lines[3].contains("138.0"));
        // All data lines equal length (alignment).
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn markdown_render_is_table() {
        let md = sample().render_markdown();
        assert!(md.starts_with("| Conns | Cubic | BBR |"));
        assert!(md.contains("|---|---|---|"));
        assert!(md.contains("| 20 | 310.0 | 138.0 |"));
    }

    #[test]
    fn num_at_reads_numbers() {
        let t = sample();
        assert_eq!(t.num_at(0, 1), Some(364.0));
        assert_eq!(t.num_at(1, 2), Some(138.0));
        assert_eq!(t.num_at(0, 0), None, "text cell is not numeric");
        assert_eq!(t.num_at(9, 0), None);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = ResultTable::new(vec!["a", "b"]);
        t.push_row(vec!["x".into()]);
    }

    #[test]
    fn precision_cells_render() {
        assert_eq!(Cell::Prec(1.23456, 3).render(), "1.235");
        assert_eq!(Cell::Int(42).render(), "42");
        assert_eq!(Cell::Empty.render(), "");
    }
}
