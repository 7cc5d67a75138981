//! Typed findings and the two report surfaces: a terminal table and a
//! structured JSON document with CI-meaningful exit codes (the
//! verdict/report/exit-code shape of notar-verify-style gates).

use std::collections::BTreeMap;

/// Finding severity. Both levels gate CI (any finding is a nonzero
/// exit); the split is for triage ordering in the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Error,
    Warning,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One typed finding: rule, location, severity, human detail, and the
/// offending source line.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub severity: Severity,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
    pub snippet: String,
    /// Witness call chain for the interprocedural rules, root first
    /// (`Pump::pump (file:12)` → … → `.recv() (file:30)`); empty
    /// for the per-file rules.
    pub chain: Vec<String>,
}

/// Overall verdict of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Clean,
    Dirty,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Clean => "CLEAN",
            Verdict::Dirty => "DIRTY",
        }
    }
}

/// A full lint run's result.
#[derive(Debug)]
pub struct Report {
    pub root: String,
    pub files_scanned: usize,
    pub rules: Vec<String>,
    pub findings: Vec<Finding>,
}

impl Report {
    pub fn verdict(&self) -> Verdict {
        if self.findings.is_empty() {
            Verdict::Clean
        } else {
            Verdict::Dirty
        }
    }

    /// Process exit code: 0 clean, 1 findings. (2 is reserved for
    /// usage/IO errors, issued by the CLI.)
    pub fn exit_code(&self) -> i32 {
        match self.verdict() {
            Verdict::Clean => 0,
            Verdict::Dirty => 1,
        }
    }

    pub fn by_rule(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for f in &self.findings {
            *m.entry(f.rule).or_insert(0) += 1;
        }
        m
    }

    /// Renders the terminal table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if self.findings.is_empty() {
            out.push_str(&format!(
                "vcaml-lint: {} files scanned, 0 findings — {}\n",
                self.files_scanned,
                self.verdict().as_str()
            ));
            return out;
        }
        let headers = ["RULE", "SEV", "LOCATION", "DETAIL"];
        let rows: Vec<[String; 4]> = self
            .findings
            .iter()
            .map(|f| {
                [
                    f.rule.to_string(),
                    f.severity.as_str().to_string(),
                    format!("{}:{}", f.file, f.line),
                    f.message.clone(),
                ]
            })
            .collect();
        let mut width = [0usize; 3];
        for (i, w) in width.iter_mut().enumerate() {
            *w = headers[i].len();
            for r in &rows {
                *w = (*w).max(r[i].chars().count());
            }
        }
        let rule = |out: &mut String| {
            for w in width {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push_str("---------\n");
        };
        let line = |out: &mut String, cells: [&str; 4]| {
            for (i, w) in width.iter().enumerate() {
                out.push(' ');
                out.push_str(cells[i]);
                out.push_str(&" ".repeat(w.saturating_sub(cells[i].chars().count()) + 1));
                out.push('|');
            }
            out.push(' ');
            out.push_str(cells[3]);
            out.push('\n');
        };
        rule(&mut out);
        line(&mut out, [headers[0], headers[1], headers[2], headers[3]]);
        rule(&mut out);
        for r in &rows {
            line(&mut out, [&r[0], &r[1], &r[2], &r[3]]);
        }
        rule(&mut out);
        out.push_str(&format!(
            "vcaml-lint: {} files scanned, {} finding(s) — {}\n",
            self.files_scanned,
            self.findings.len(),
            self.verdict().as_str()
        ));
        for (rule, n) in self.by_rule() {
            out.push_str(&format!("  {rule}: {n}\n"));
        }
        out
    }

    /// Renders the JSON report (hand-rolled: the linter is
    /// dependency-free by design).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"tool\": \"vcaml-lint\",\n");
        s.push_str(&format!("  \"root\": {},\n", json_str(&self.root)));
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str("  \"rules\": [");
        s.push_str(
            &self
                .rules
                .iter()
                .map(|r| json_str(r))
                .collect::<Vec<_>>()
                .join(", "),
        );
        s.push_str("],\n");
        s.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"rule\": {}, \"severity\": {}, \"file\": {}, \"line\": {}, \
                 \"message\": {}, \"snippet\": {}, \"chain\": [{}]}}{}\n",
                json_str(f.rule),
                json_str(f.severity.as_str()),
                json_str(&f.file),
                f.line,
                json_str(&f.message),
                json_str(&f.snippet),
                f.chain
                    .iter()
                    .map(|c| json_str(c))
                    .collect::<Vec<_>>()
                    .join(", "),
                if i + 1 == self.findings.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"summary\": {");
        s.push_str(
            &self
                .by_rule()
                .iter()
                .map(|(r, n)| format!("{}: {}", json_str(r), n))
                .collect::<Vec<_>>()
                .join(", "),
        );
        s.push_str("},\n");
        s.push_str(&format!("  \"total_findings\": {},\n", self.findings.len()));
        s.push_str(&format!(
            "  \"verdict\": {}\n",
            json_str(self.verdict().as_str())
        ));
        s.push_str("}\n");
        s
    }
}

/// Result of a baseline comparison ([`compare`]).
#[derive(Debug, Default)]
pub struct CompareResult {
    /// `(rule, file, line)` keys present in the new report but not the
    /// baseline — a CI failure.
    pub new_findings: Vec<String>,
    /// Rules with a nonzero baseline count that dropped to zero —
    /// possible silent rule decay (resolver bug), surfaced as a
    /// warning.
    pub disappeared_rules: Vec<String>,
}

impl CompareResult {
    /// CI gate: fail only on new findings; disappearance warns.
    pub fn is_regression(&self) -> bool {
        !self.new_findings.is_empty()
    }
}

/// Compares two JSON reports (as written by [`Report::to_json`]).
/// Line-oriented: each finding is one line, so no JSON parser is
/// needed (the linter stays dependency-free).
pub fn compare(baseline: &str, current: &str) -> CompareResult {
    let old = finding_keys(baseline);
    let new = finding_keys(current);
    let mut out = CompareResult::default();
    for key in &new {
        if !old.contains(key) {
            out.new_findings.push(key.clone());
        }
    }
    let count_by_rule = |keys: &[String]| -> BTreeMap<String, usize> {
        let mut m = BTreeMap::new();
        for k in keys {
            if let Some(rule) = k.split(' ').next() {
                *m.entry(rule.to_string()).or_insert(0) += 1;
            }
        }
        m
    };
    let old_counts = count_by_rule(&old);
    let new_counts = count_by_rule(&new);
    for (rule, n) in &old_counts {
        if *n > 0 && new_counts.get(rule).copied().unwrap_or(0) == 0 {
            out.disappeared_rules.push(rule.clone());
        }
    }
    out
}

/// `rule file:line` keys for every finding line of a JSON report.
fn finding_keys(json: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(rule) = extract_str(line, "\"rule\": \"") else {
            continue;
        };
        let Some(file) = extract_str(line, "\"file\": \"") else {
            continue;
        };
        let Some(ln) = extract_num(line, "\"line\": ") else {
            continue;
        };
        out.push(format!("{rule} {file}:{ln}"));
    }
    out
}

fn extract_str(line: &str, key: &str) -> Option<String> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

fn extract_num(line: &str, key: &str) -> Option<u64> {
    let start = line.find(key)? + key.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// JSON string escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(findings: Vec<Finding>) -> Report {
        Report {
            root: "/tmp/x".into(),
            files_scanned: 3,
            rules: vec!["no-unwrap-in-lib".into()],
            findings,
        }
    }

    fn finding() -> Finding {
        Finding {
            rule: "no-unwrap-in-lib",
            severity: Severity::Warning,
            file: "crates/core/src/api.rs".into(),
            line: 42,
            message: "msg with \"quotes\"".into(),
            snippet: "x.unwrap()".into(),
            chain: vec![],
        }
    }

    #[test]
    fn verdict_and_exit_codes() {
        assert_eq!(report(vec![]).exit_code(), 0);
        assert_eq!(report(vec![finding()]).exit_code(), 1);
        assert_eq!(report(vec![]).verdict(), Verdict::Clean);
    }

    #[test]
    fn json_escapes_and_shape() {
        let j = report(vec![finding()]).to_json();
        assert!(j.contains("\"verdict\": \"DIRTY\""));
        assert!(j.contains("msg with \\\"quotes\\\""));
        assert!(j.contains("\"total_findings\": 1"));
        assert!(j.contains("\"files_scanned\": 3"));
    }

    #[test]
    fn chain_serialized_in_json() {
        let mut f = finding();
        f.chain = vec!["a (x.rs:1)".into(), "`.to_vec()` (y.rs:2)".into()];
        let j = report(vec![f]).to_json();
        assert!(j.contains("\"chain\": [\"a (x.rs:1)\", \"`.to_vec()` (y.rs:2)\"]"));
    }

    #[test]
    fn compare_flags_new_findings_and_disappearances() {
        let mut a = finding();
        a.line = 1;
        let mut b = finding();
        b.rule = "lock-order-cycle";
        b.line = 9;
        let base = report(vec![a.clone(), b]).to_json();
        let mut c = finding();
        c.line = 7; // new location → regression
        let cur = report(vec![a, c]).to_json();
        let r = compare(&base, &cur);
        assert!(r.is_regression());
        assert_eq!(r.new_findings.len(), 1);
        assert!(r.new_findings[0].contains(":7"));
        // lock-order-cycle count went 1 → 0: disappeared-rule anomaly.
        assert_eq!(r.disappeared_rules, vec!["lock-order-cycle".to_string()]);
    }

    #[test]
    fn compare_identical_reports_is_clean() {
        let j = report(vec![finding()]).to_json();
        let r = compare(&j, &j);
        assert!(!r.is_regression());
        assert!(r.disappeared_rules.is_empty());
    }

    #[test]
    fn table_lists_findings() {
        let t = report(vec![finding()]).render_table();
        assert!(t.contains("crates/core/src/api.rs:42"));
        assert!(t.contains("DIRTY"));
        let clean = report(vec![]).render_table();
        assert!(clean.contains("CLEAN"));
    }
}
