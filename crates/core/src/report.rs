//! Plain-text rendering helpers for experiment outputs.

/// Schema version stamped into every scenario/campaign JSON report.
///
/// Bump this when the report shape changes incompatibly (a field is
/// renamed, removed, or re-interpreted — adding optional fields does
/// not count). `helix diff` names a version mismatch before falling
/// back to a byte comparison, so stale artifacts fail loudly instead of
/// producing a wall of line noise.
pub const SCHEMA_VERSION: u32 = 1;

/// Render a labelled bar chart line (`name  ######## 6.85x`).
pub fn bar(label: &str, value: f64, max: f64, width: usize) -> String {
    let frac = if max > 0.0 {
        (value / max).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let n = (frac * width as f64).round() as usize;
    format!(
        "{label:<28} {:<width$} {value:6.2}",
        "#".repeat(n),
        width = width
    )
}

/// Render a simple aligned table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        headers.iter().map(|h| h.to_string()).collect(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
        out.push('\n');
    }
    out
}

/// Format a fraction as a percentage string.
pub fn pct(f: f64) -> String {
    format!("{:.1}%", 100.0 * f)
}

/// Format a speedup.
pub fn x(v: f64) -> String {
    format!("{v:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        let full = bar("a", 10.0, 10.0, 20);
        let half = bar("a", 5.0, 10.0, 20);
        assert!(full.matches('#').count() > half.matches('#').count());
        assert!(full.contains("10.00"));
    }

    #[test]
    fn table_aligns() {
        let t = table(
            &["name", "value"],
            &[
                vec!["short".into(), "1".into()],
                vec!["a-much-longer-name".into(), "2".into()],
            ],
        );
        assert!(t.contains("a-much-longer-name"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn formatting() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(x(6.849), "6.85x");
    }
}
