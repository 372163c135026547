//! Plain-text / markdown rendering of experiment results.

/// A simple column-aligned table that renders to GitHub-flavoured markdown.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.  Rows shorter than the header are padded with empty
    /// cells; longer rows are truncated.
    pub fn push_row(&mut self, cells: Vec<String>) {
        let mut cells = cells;
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Renders the table as RFC-4180-style CSV (header row first; fields
    /// containing commas, quotes or newlines are quoted).
    pub fn to_csv(&self) -> String {
        fn escape(field: &str) -> String {
            if field.contains(',') || field.contains('"') || field.contains('\n') {
                format!("\"{}\"", field.replace('"', "\"\""))
            } else {
                field.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the table as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

/// Formats a float with three significant decimals for table cells.  A
/// value that rounds to zero prints as `0.000`, never `-0.000`.
pub fn fmt_f64(value: f64) -> String {
    if value.is_nan() {
        "—".to_string()
    } else if value.abs() >= 1000.0 {
        format!("{value:.0}")
    } else if value.abs() < 0.0005 {
        "0.000".to_string()
    } else {
        format!("{value:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut table = Table::new("Demo", &["a", "b"]);
        assert!(table.is_empty());
        table.push_row(vec!["1".into(), "2".into()]);
        table.push_row(vec!["3".into()]);
        assert_eq!(table.len(), 2);
        assert_eq!(table.title(), "Demo");
        let md = table.to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
        assert!(md.contains("| 3 |  |"));
    }

    #[test]
    fn table_renders_csv_with_escaping() {
        let mut table = Table::new("Demo", &["name", "value"]);
        table.push_row(vec!["plain".into(), "1".into()]);
        table.push_row(vec!["with,comma".into(), "say \"hi\"".into()]);
        let csv = table.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,value");
        assert_eq!(lines[1], "plain,1");
        assert_eq!(lines[2], "\"with,comma\",\"say \"\"hi\"\"\"");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(f64::NAN), "—");
        assert_eq!(fmt_f64(1.23456), "1.235");
        assert_eq!(fmt_f64(12345.6), "12346");
        assert_eq!(fmt_f64(-0.0), "0.000");
        assert_eq!(fmt_f64(-0.0004), "0.000");
        assert_eq!(fmt_f64(-0.0006), "-0.001");
    }
}
