//! Plain-text table formatting for report output.

/// Formats a table with a header row, padding each column to its widest cell.
///
/// # Examples
///
/// ```
/// let out = ff_metrics::format_table(
///     &["Model", "Acc (%)"],
///     &[vec!["MLP".to_string(), "94.3".to_string()]],
/// );
/// assert!(out.contains("MLP"));
/// assert!(out.lines().count() >= 3);
/// ```
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (i, w) in widths.iter().enumerate() {
            let empty = String::new();
            let cell = cells.get(i).unwrap_or(&empty);
            line.push_str(&format!(" {cell:w$} |", w = w));
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&"-".repeat(w + 2));
        sep.push('|');
    }
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_pads_columns() {
        let out = format_table(
            &["A", "Long header"],
            &[
                vec!["x".into(), "1".into()],
                vec!["yyyy".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        // all lines same width
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w));
    }

    #[test]
    fn table_handles_short_rows() {
        let out = format_table(&["A", "B"], &[vec!["only".into()]]);
        assert!(out.contains("only"));
    }

    #[test]
    fn empty_inputs_do_not_panic() {
        assert!(format_table(&["A"], &[]).contains('A'));
    }
}
