//! Rendering helpers: paper-style tables, CDF summaries, and the [`Json`]
//! tree an experiment returns as its machine-readable artifact.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

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

/// One experiment artifact: a JSON number, string, array, or object with
/// insertion-ordered keys. [`fmt::Display`] pretty-prints it as the file
/// `repro` writes.
#[derive(Debug, PartialEq)]
pub enum Json {
    /// A number; non-finite values print as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order. A repeated key
    /// replaces the earlier value in its first position.
    pub fn object<K: Into<String>>(entries: impl IntoIterator<Item = (K, Json)>) -> Json {
        let mut out: Vec<(String, Json)> = Vec::new();
        for (key, value) in entries {
            let key = key.into();
            match out.iter_mut().find(|(k, _)| *k == key) {
                Some(slot) => slot.1 = value,
                None => out.push((key, value)),
            }
        }
        Json::Obj(out)
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            Json::Num(n) if !n.is_finite() => f.write_str("null"),
            Json::Num(n) if *n == n.trunc() && n.abs() < 9.0e15 => write!(f, "{}", *n as i64),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) if items.is_empty() => f.write_str("[]"),
            Json::Arr(items) => {
                f.write_str("[\n")?;
                for (i, item) in items.iter().enumerate() {
                    write!(f, "{pad}  ")?;
                    item.write(f, indent + 1)?;
                    f.write_str(if i + 1 < items.len() { ",\n" } else { "\n" })?;
                }
                write!(f, "{pad}]")
            }
            Json::Obj(entries) if entries.is_empty() => f.write_str("{}"),
            Json::Obj(entries) => {
                f.write_str("{\n")?;
                for (i, (key, value)) in entries.iter().enumerate() {
                    write!(f, "{pad}  ")?;
                    write_escaped(f, key)?;
                    f.write_str(": ")?;
                    value.write(f, indent + 1)?;
                    f.write_str(if i + 1 < entries.len() { ",\n" } else { "\n" })?;
                }
                write!(f, "{pad}}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Two-space indented, `"key": value`, no trailing newline.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

macro_rules! json_from_int {
    ($($t:ty),*) => {
        $(impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        })*
    };
}
json_from_int!(u16, u32, u64, usize, i64);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// A CDF point or any other pair: a two-element array.
impl From<(f64, f64)> for Json {
    fn from((a, b): (f64, f64)) -> Json {
        Json::Arr(vec![a.into(), b.into()])
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Writes `json` to `<dir>/<id>.json`. On failure, returns the path
/// with the error.
pub fn write_artifact(dir: &Path, id: &str, json: &Json) -> Result<(), (PathBuf, io::Error)> {
    let path = dir.join(format!("{id}.json"));
    std::fs::write(&path, json.to_string()).map_err(|e| (path, e))
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
        let dir = std::env::temp_dir().join(format!("vcaml_sink_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let json = Json::from(vec![1u64, 2, 3]);
        write_artifact(&dir, "t", &json).unwrap();
        let content = std::fs::read_to_string(dir.join("t.json")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(content, "[\n  1,\n  2,\n  3\n]");
        let (path, _) = write_artifact(&dir, "t", &json).unwrap_err();
        assert_eq!(path, dir.join("t.json"));
    }

    #[test]
    fn json_prints_the_artifact_layout() {
        let doc = Json::object([
            ("fps", Json::from(30.0)),
            ("share", 0.1.into()),
            ("n", 7usize.into()),
            ("bad", vec![f64::NAN, f64::INFINITY].into()),
            ("cdf", vec![(1.5, 0.0)].into()),
            ("none", Json::Arr(vec![])),
            ("empty", Json::Obj(vec![])),
            (
                "nested",
                Json::object([("q\"uo\\te\n\u{1}", Json::from("Meet"))]),
            ),
        ]);
        let expected = r#"{
  "fps": 30,
  "share": 0.1,
  "n": 7,
  "bad": [
    null,
    null
  ],
  "cdf": [
    [
      1.5,
      0
    ]
  ],
  "none": [],
  "empty": {},
  "nested": {
    "q\"uo\\te\n\u0001": "Meet"
  }
}"#;
        assert_eq!(doc.to_string(), expected);
        assert_eq!(Json::from(-2.5e20).to_string(), "-250000000000000000000");
    }
}
