//! Plain-text tables in the paper's style, rendered by every experiment,
//! and the paper-vs-measured row.

use std::fmt::Write as _;

use faasim_simcore::SimDuration;

/// A column-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Title printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells; ragged rows are padded with empty cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: &[String]) -> &mut Table {
        self.rows.push(cells.to_vec());
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        let measure = |widths: &mut Vec<usize>, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        };
        measure(&mut widths, &self.headers);
        for row in &self.rows {
            measure(&mut widths, row);
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            writeln!(out, "{}", self.title).unwrap();
        }
        let write_row = |out: &mut String, cells: &[String]| {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let pad = width - cell.chars().count();
                if i == 0 {
                    // First column left-aligned.
                    line.push_str(cell);
                    line.push_str(&" ".repeat(pad));
                } else {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(cell);
                }
                if i + 1 < widths.len() {
                    line.push_str("  ");
                }
            }
            writeln!(out, "{}", line.trim_end()).unwrap();
        };
        if !self.headers.is_empty() {
            write_row(&mut out, &self.headers);
            writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)))
                .unwrap();
        }
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// A number the paper reports beside the value a run measured for it. The
/// experiments that reproduce a numbered artefact list theirs in
/// `paper_rows()`: the one place the paper's values are typed.
#[derive(Clone, Debug, PartialEq)]
pub struct PaperRow {
    /// What the number is.
    pub label: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// This run's value.
    pub measured: f64,
    /// The unit of both; empty for a count.
    pub unit: &'static str,
}

impl PaperRow {
    /// A row.
    pub fn new(label: &'static str, paper: f64, measured: f64, unit: &'static str) -> PaperRow {
        PaperRow { label, paper, measured, unit }
    }
}

/// Format a duration for a table cell the way the paper does: µs under a
/// millisecond, ms under a minute, otherwise minutes.
pub fn fmt_latency(d: SimDuration) -> String {
    let s = d.as_secs_f64();
    if s < 1e-3 {
        format!("{:.0}\u{b5}s", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3).replace(".0ms", "ms")
    } else if s < 120.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.0}min", s / 60.0)
    }
}

/// Format a slowdown/ratio like the paper's "compared to best" row.
pub fn fmt_ratio(r: f64) -> String {
    if r >= 100.0 {
        let whole = r.round() as i64;
        let mut s = whole.to_string();
        let mut i = s.len() as i64 - 3;
        while i > 0 {
            s.insert(i as usize, ',');
            i -= 3;
        }
        format!("{s}\u{d7}")
    } else if r >= 10.0 {
        format!("{r:.1}\u{d7}")
    } else {
        format!("{r:.2}\u{d7}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Latencies", &["", "A", "B"]);
        t.row(&["Latency".into(), "303ms".into(), "290\u{b5}s".into()]);
        t.row(&[
            "Compared to best".into(),
            "1,045\u{d7}".into(),
            "1\u{d7}".into(),
        ]);
        let s = t.render();
        assert!(s.contains("Latencies"));
        assert!(s.contains("303ms"));
        // Header separator present.
        assert!(s.contains("---"));
        // All lines after the title have consistent structure.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn ragged_rows_padded() {
        let mut t = Table::new("", &["x", "y"]);
        t.row(&["only-one".into()]);
        let s = t.render();
        assert!(s.contains("only-one"));
    }

    #[test]
    fn latency_formatting() {
        assert_eq!(fmt_latency(SimDuration::from_micros(290)), "290\u{b5}s");
        assert_eq!(fmt_latency(SimDuration::from_millis(303)), "303ms");
        assert_eq!(fmt_latency(SimDuration::from_millis(11)), "11ms");
        assert_eq!(fmt_latency(SimDuration::from_secs(16)), "16.00s");
        assert_eq!(fmt_latency(SimDuration::from_mins(465)), "465min");
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(1.0), "1.00\u{d7}");
        assert_eq!(fmt_ratio(37.9), "37.9\u{d7}");
        assert_eq!(fmt_ratio(372.0), "372\u{d7}");
        assert_eq!(fmt_ratio(1045.4), "1,045\u{d7}");
    }
}
