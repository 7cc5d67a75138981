//! Rendering helpers: paper-style tables, CDF summaries, and JSON result
//! artifacts.

use serde::Serialize;
use std::io::Write;
use std::path::PathBuf;

/// Prints a section header for one experiment.
pub fn section(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

/// Renders an aligned text table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncol = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncol, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        headers.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncol - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
        out.push('\n');
    }
    out
}

/// Evenly spaced CDF points `(value, cumulative_probability)`.
pub fn cdf_points(values: &[f64], n_points: usize) -> Vec<(f64, f64)> {
    assert!(!values.is_empty() && n_points >= 2);
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    (0..n_points)
        .map(|i| {
            let p = i as f64 / (n_points - 1) as f64;
            let idx = ((v.len() - 1) as f64 * p).round() as usize;
            (v[idx], p)
        })
        .collect()
}

/// Fraction of values at or below a threshold.
pub fn fraction_le(values: &[f64], threshold: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v <= threshold).count() as f64 / values.len() as f64
}

/// Writes one experiment's machine-readable result next to the text
/// output.
pub struct Sink {
    dir: PathBuf,
}

impl Sink {
    /// Creates (and mkdirs) a sink rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Sink { dir })
    }

    /// Serializes `value` to `<dir>/<id>.json`.
    pub fn write<T: Serialize>(&self, id: &str, value: &T) -> std::io::Result<()> {
        let path = self.dir.join(format!("{id}.json"));
        let mut f = std::fs::File::create(path)?;
        f.write_all(
            serde_json::to_string_pretty(value)
                .expect("serialize")
                .as_bytes(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["Method", "MAE"],
            &[
                vec!["IP/UDP ML".into(), "1.30".into()],
                vec!["RTP Heuristic".into(), "1.80".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Method"));
        assert!(lines[2].contains("1.30"));
    }

    #[test]
    fn cdf_monotone() {
        let pts = cdf_points(&[3.0, 1.0, 2.0, 5.0, 4.0], 5);
        assert_eq!(pts.first().unwrap().0, 1.0);
        assert_eq!(pts.last().unwrap().0, 5.0);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
    }

    #[test]
    fn fraction_le_counts() {
        assert_eq!(fraction_le(&[1.0, 2.0, 3.0, 4.0], 2.0), 0.5);
        assert_eq!(fraction_le(&[], 1.0), 0.0);
    }

    #[test]
    fn sink_writes_json() {
        let dir = std::env::temp_dir().join("vcaml_sink_test");
        let sink = Sink::new(&dir).unwrap();
        sink.write("t", &vec![1, 2, 3]).unwrap();
        let content = std::fs::read_to_string(dir.join("t.json")).unwrap();
        assert!(content.contains('2'));
    }
}
