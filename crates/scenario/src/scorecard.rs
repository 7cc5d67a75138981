//! Deterministic scorecard JSON: writer, line-oriented reader, and the
//! `--compare` delta mode.
//!
//! The in-repo `serde_json` shim has no parser, so the reader is a
//! hand-rolled field extractor over the one-cell-per-line layout the
//! writer guarantees.

use crate::score::{CellScore, Tolerances, Verdict};

/// Schema tag embedded in every scorecard.
pub const SCHEMA: &str = "vcaml-scenario/v1";

/// A full grid result ready to serialize.
pub struct Scorecard {
    /// Grid seed the run used.
    pub seed: u64,
    /// Tolerances the verdicts were judged against.
    pub tolerances: Tolerances,
    /// All cells, in grid × method emission order.
    pub cells: Vec<CellScore>,
}

impl Scorecard {
    /// `(pass, degraded, fail)` cell counts.
    pub fn summary(&self) -> (usize, usize, usize) {
        let count = |v: Verdict| self.cells.iter().filter(|c| c.verdict == v).count();
        (
            count(Verdict::Pass),
            count(Verdict::Degraded),
            count(Verdict::Fail),
        )
    }

    /// Gate exit code: 1 if any cell failed, else 0.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.cells.iter().any(|c| c.verdict == Verdict::Fail))
    }

    /// Renders the scorecard as deterministic JSON, one cell per line.
    /// Byte-identical output for identical runs is a tested invariant —
    /// no timestamps, no map iteration order, fixed float formatting.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str("  \"window_secs\": 1,\n");
        let t = &self.tolerances;
        s.push_str(&format!(
            "  \"tolerances\": {{\"fps_pass\":{:.2},\"fps_degraded\":{:.2},\"mrae_pass\":{:.2},\"mrae_degraded\":{:.2},\"res_pass\":{:.2},\"res_degraded\":{:.2},\"ipudp_heur_fps_scale\":{:.2}}},\n",
            t.fps_pass,
            t.fps_degraded,
            t.mrae_pass,
            t.mrae_degraded,
            t.res_pass,
            t.res_degraded,
            t.ipudp_heur_fps_scale
        ));
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let opt = |v: Option<f64>| match v {
                Some(x) => format!("{x:.4}"),
                None => "null".to_string(),
            };
            let opt_v = |v: Option<Verdict>| match v {
                Some(x) => format!("\"{}\"", x.as_str()),
                None => "null".to_string(),
            };
            s.push_str(&format!(
                "    {{\"scenario\":\"{}\",\"method\":\"{}\",\"windows\":{},\"fps_mae\":{:.4},\"bitrate_mrae\":{},\"res_acc\":{},\"fps\":\"{}\",\"bitrate\":{},\"resolution\":{},\"verdict\":\"{}\"}}{}\n",
                c.scenario,
                c.method.name(),
                c.windows,
                c.fps_mae,
                opt(c.bitrate_mrae),
                opt(c.res_acc),
                c.fps_verdict.as_str(),
                opt_v(c.bitrate_verdict),
                opt_v(c.res_verdict),
                c.verdict.as_str(),
                if i + 1 < self.cells.len() { "," } else { "" },
            ));
        }
        s.push_str("  ],\n");
        let (pass, degraded, fail) = self.summary();
        s.push_str(&format!(
            "  \"summary\": {{\"pass\":{pass},\"degraded\":{degraded},\"fail\":{fail},\"exit\":{}}}\n",
            self.exit_code()
        ));
        s.push_str("}\n");
        s
    }
}

/// One cell as read back from scorecard JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedCell {
    /// Scenario name.
    pub scenario: String,
    /// Method display name.
    pub method: String,
    /// Cell verdict.
    pub verdict: Verdict,
    /// fps MAE.
    pub fps_mae: f64,
    /// Bitrate MRAE if recorded.
    pub bitrate_mrae: Option<f64>,
}

fn str_field(line: &str, key: &str) -> Option<String> {
    let rest = line.split(&format!("\"{key}\":")).nth(1)?;
    let rest = rest.strip_prefix('"')?;
    Some(rest.split('"').next().unwrap_or("").to_string())
}

fn num_field(line: &str, key: &str) -> Option<f64> {
    let rest = line.split(&format!("\"{key}\":")).nth(1)?;
    let token: String = rest
        .chars()
        .take_while(|c| !matches!(c, ',' | '}' | '\n'))
        .collect();
    let token = token.trim();
    if token == "null" {
        return None;
    }
    token.parse().ok()
}

/// Extracts the cell rows from scorecard JSON text (one cell per line,
/// as written by [`Scorecard::to_json`]).
pub fn parse_cells(text: &str) -> Vec<ParsedCell> {
    text.lines()
        .filter(|l| l.contains("\"scenario\":"))
        .filter_map(|line| {
            Some(ParsedCell {
                scenario: str_field(line, "scenario")?,
                method: str_field(line, "method")?,
                verdict: Verdict::parse(&str_field(line, "verdict")?)?,
                fps_mae: num_field(line, "fps_mae")?,
                bitrate_mrae: num_field(line, "bitrate_mrae"),
            })
        })
        .collect()
}

/// The outcome of comparing two scorecards.
pub struct Comparison {
    /// Human-readable delta table.
    pub report: String,
    /// Cells whose verdict worsened relative to the baseline.
    pub regressions: usize,
}

/// Compares `new` against the `old` baseline over the cell intersection
/// keyed by (scenario, method). A verdict that worsened is a
/// regression; improved or unchanged verdicts (and metric drift within
/// the same verdict) are reported but do not gate.
pub fn compare(old: &str, new: &str) -> Comparison {
    let old_cells = parse_cells(old);
    let new_cells = parse_cells(new);
    let mut report = String::new();
    report.push_str(&format!(
        "{:<20} {:<18} {:>9} {:>9}  {}\n",
        "scenario", "method", "old", "new", "delta"
    ));
    let mut regressions = 0usize;
    let mut matched = 0usize;
    for o in &old_cells {
        let Some(n) = new_cells
            .iter()
            .find(|n| n.scenario == o.scenario && n.method == o.method)
        else {
            report.push_str(&format!(
                "{:<20} {:<18} {:>9} {:>9}  missing in new scorecard\n",
                o.scenario,
                o.method,
                o.verdict.as_str(),
                "-"
            ));
            continue;
        };
        matched += 1;
        let delta = match n.verdict.rank().cmp(&o.verdict.rank()) {
            std::cmp::Ordering::Greater => {
                regressions += 1;
                "REGRESSED"
            }
            std::cmp::Ordering::Less => "improved",
            std::cmp::Ordering::Equal => "",
        };
        report.push_str(&format!(
            "{:<20} {:<18} {:>9} {:>9}  {} (fps_mae {:.2} -> {:.2})\n",
            n.scenario,
            n.method,
            o.verdict.as_str(),
            n.verdict.as_str(),
            delta,
            o.fps_mae,
            n.fps_mae,
        ));
    }
    for n in &new_cells {
        if !old_cells
            .iter()
            .any(|o| o.scenario == n.scenario && o.method == n.method)
        {
            report.push_str(&format!(
                "{:<20} {:<18} {:>9} {:>9}  new cell\n",
                n.scenario,
                n.method,
                "-",
                n.verdict.as_str()
            ));
        }
    }
    report.push_str(&format!(
        "\n{matched} cells compared, {regressions} verdict regression(s)\n"
    ));
    Comparison {
        report,
        regressions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcaml::Method;

    fn card(verdict: Verdict) -> Scorecard {
        Scorecard {
            seed: 7,
            tolerances: Tolerances::default(),
            cells: vec![CellScore {
                scenario: "baseline".into(),
                method: Method::RtpHeuristic,
                windows: 20,
                fps_mae: 1.5,
                bitrate_mrae: Some(0.2),
                res_acc: Some(0.95),
                fps_verdict: verdict,
                bitrate_verdict: Some(verdict),
                res_verdict: None,
                verdict,
            }],
        }
    }

    #[test]
    fn json_roundtrips_through_the_line_parser() {
        let json = card(Verdict::Degraded).to_json();
        let cells = parse_cells(&json);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].scenario, "baseline");
        assert_eq!(cells[0].method, "RTP Heuristic");
        assert_eq!(cells[0].verdict, Verdict::Degraded);
        assert_eq!(cells[0].fps_mae, 1.5);
        assert_eq!(cells[0].bitrate_mrae, Some(0.2));
    }

    #[test]
    fn null_metrics_parse_as_none() {
        let mut c = card(Verdict::Pass);
        c.cells[0].bitrate_mrae = None;
        let cells = parse_cells(&c.to_json());
        assert_eq!(cells[0].bitrate_mrae, None);
    }

    #[test]
    fn worsened_verdict_is_a_regression() {
        let old = card(Verdict::Pass).to_json();
        let new = card(Verdict::Fail).to_json();
        let cmp = compare(&old, &new);
        assert_eq!(cmp.regressions, 1);
        assert!(cmp.report.contains("REGRESSED"));
        // The reverse direction is an improvement, not a gate.
        let cmp = compare(&new, &old);
        assert_eq!(cmp.regressions, 0);
        assert!(cmp.report.contains("improved"));
    }

    #[test]
    fn exit_code_tracks_failures() {
        assert_eq!(card(Verdict::Pass).exit_code(), 0);
        assert_eq!(card(Verdict::Degraded).exit_code(), 0);
        assert_eq!(card(Verdict::Fail).exit_code(), 1);
    }
}
