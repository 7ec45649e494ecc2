//! Plain-text rendering of experiment results.
//!
//! The benchmark harness and the examples print the same rows the paper's
//! tables and figures report; this module renders them as aligned text tables
//! so the output is readable in a terminal and diffable in CI logs.

/// Renders a text table from a header and rows of cells.
///
/// Every row is padded to the width of its column; missing cells render empty.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let columns = header.len().max(rows.iter().map(Vec::len).max().unwrap_or(0));
    let mut widths = vec![0usize; columns];
    for (i, h) in header.iter().enumerate() {
        widths[i] = widths[i].max(h.len());
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let render_row = |cells: Vec<String>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, width) in widths.iter().enumerate() {
            let empty = String::new();
            let cell = cells.get(i).unwrap_or(&empty);
            line.push_str(&format!("{cell:<width$}  "));
        }
        line.trim_end().to_owned()
    };
    out.push_str(&render_row(header.iter().map(|s| s.to_string()).collect(), &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row.clone(), &widths));
        out.push('\n');
    }
    out
}

/// Formats a ratio (e.g. energy normalised to the Oracle) with two decimals.
pub fn ratio(value: f64) -> String {
    format!("{value:.2}")
}

/// Formats a percentage with one decimal.
pub fn percent(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

/// `value` in `unit` under the SI prefix that puts its magnitude in
/// [1, 1000), with two decimals: a NoC lane's sub-microjoule energy or a
/// governor's nanosecond decision would print as 0.00 in joules or seconds.
/// Zero prints in the bare unit.
pub fn si(value: f64, unit: &str) -> String {
    let (scale, prefix) = [(1.0, ""), (1e-3, "m"), (1e-6, "µ"), (1e-9, "n")]
        .into_iter()
        .find(|&(scale, _)| value.abs() >= scale)
        .unwrap_or((1.0, ""));
    format!("{:.2} {prefix}{unit}", value / scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned_and_complete() {
        let rows = vec![
            vec!["Dijkstra".to_owned(), "1.01".to_owned()],
            vec!["Blackscholes-4T".to_owned(), "1.47".to_owned()],
        ];
        let table = render_table("Table II", &["Benchmark", "Energy"], &rows);
        assert!(table.contains("Table II"));
        assert!(table.contains("Benchmark"));
        assert!(table.contains("Blackscholes-4T"));
        assert_eq!(table.lines().count(), 1 + 1 + 1 + rows.len());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(1.2345), "1.23");
        assert_eq!(percent(0.256), "25.6%");
    }

    #[test]
    fn si_prefixes_keep_sub_millijoule_lanes_visible() {
        assert_eq!(si(123.456, "J"), "123.46 J");
        assert_eq!(si(0.0042, "J"), "4.20 mJ");
        assert_eq!(si(8.88e-7, "J"), "888.00 nJ");
        assert_eq!(si(4.99e-6, "J"), "4.99 µJ");
        assert_eq!(si(3.6e-5, "s"), "36.00 µs");
        assert_eq!(si(0.0, "s"), "0.00 s");
    }

    #[test]
    fn handles_ragged_rows_and_empty_tables() {
        let table = render_table("Empty", &["A", "B"], &[]);
        assert!(table.contains("Empty"));
        let ragged = render_table("Ragged", &["A", "B"], &[vec!["only-one".to_owned()]]);
        assert!(ragged.contains("only-one"));
    }
}
