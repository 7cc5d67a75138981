//! What the benchmark prints and writes: the metric table, the budget
//! table, the one-line result the driver reads, and the JSON written
//! under `benchmark/results/`.

use crate::e2e::Outcome;
use crate::layers::Traced;
use crate::metrics::Reading;
use std::fmt::Write;

/// A JSON number: every digit as measured; a value that is not a number
/// becomes 0 (and the run is reported incorrect, see [`result_line`]).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

/// Every reading by name with unit, value, quartiles, the highest
/// percentile with at least ten samples beyond it, and the sample count.
pub fn metric_table(readings: &[Reading]) -> String {
    let mut out = String::new();
    for r in readings {
        let _ = write!(out, "  {:<34} {:>16.4} {:<7}", r.name, r.value, r.unit);
        if let Some(s) = &r.samples {
            let _ = write!(
                out,
                " median {:.4} q1 {:.4} q3 {:.4} spread {:.2}%",
                s.median,
                s.q1,
                s.q3,
                100.0 * s.spread()
            );
            if let Some((p, value)) = s.tail {
                let _ = write!(out, " p{p} {value:.4}");
            }
            let _ = write!(out, " n {}", s.n);
        }
        out.push('\n');
    }
    out
}

/// The budget of one workload: each stage's nanoseconds per offered
/// packet and its share of the end-to-end line, nested rows indented
/// under the row they are part of.
pub fn budget_table(workload: &str, traced: &Traced) -> String {
    let total = traced.end_to_end_ns_per_pkt;
    let mut out = format!(
        "  budget of {workload}: {total:.1} ns per packet end to end (closed loop, inline)\n"
    );
    for row in &traced.budget {
        let _ = writeln!(
            out,
            "    {:indent$}{:<width$} {:>10.1} ns {:>6.1} %",
            "",
            row.stage,
            row.ns_per_pkt,
            100.0 * row.ns_per_pkt / total,
            indent = 2 * row.depth,
            width = 26 - 2 * row.depth,
        );
    }
    let top: f64 = traced
        .budget
        .iter()
        .filter(|r| r.depth == 0)
        .map(|r| r.ns_per_pkt)
        .sum();
    let _ = writeln!(
        out,
        "    {:<26} {:>10.1} ns {:>6.1} %",
        "sum of top-level rows",
        top,
        100.0 * top / total
    );
    out
}

/// The `metrics` object of the result line and of `latest.json`.
fn metrics_object(readings: &[Reading]) -> String {
    let fields: Vec<String> = readings
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.name,
                number(r.value),
                r.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The last line of standard output: `correct`, `attempted`, `failed`
/// and the metrics of the pass.
pub fn result_line(outcome: &Outcome) -> String {
    let correct = outcome.failed == 0
        && outcome.attempted > 0
        && outcome.readings.iter().all(|r| r.value.is_finite());
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        correct,
        outcome.attempted,
        outcome.failed,
        metrics_object(&outcome.readings)
    )
}

/// One workload's entry of `latest.json`.
pub fn workload_json(end_to_end: &Outcome, traced: &Traced) -> String {
    let rows: Vec<String> = traced
        .budget
        .iter()
        .map(|r| {
            format!(
                "{{\"stage\": \"{}\", \"depth\": {}, \"ns_per_pkt\": {}, \"share\": {}}}",
                r.stage,
                r.depth,
                number(r.ns_per_pkt),
                number(r.ns_per_pkt / traced.end_to_end_ns_per_pkt)
            )
        })
        .collect();
    format!(
        "{{\"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \"per_layer\": {}, \
         \"end_to_end_ns_per_pkt\": {}, \"budget\": [{}]}}",
        end_to_end.attempted + traced.outcome.attempted,
        end_to_end.failed + traced.outcome.failed,
        metrics_object(&end_to_end.readings),
        metrics_object(&traced.outcome.readings),
        number(traced.end_to_end_ns_per_pkt),
        rows.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys_and_flags_failures() {
        let mut outcome = Outcome {
            attempted: 3,
            readings: vec![Reading::median("pkts_per_s", &[1.5, 2.5, 3.5])],
            ..Outcome::default()
        };
        assert_eq!(
            result_line(&outcome),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"pkts_per_s\": {\"value\": 2.5, \"unit\": \"1/s\"}}}"
        );
        outcome.failed = 1;
        assert!(result_line(&outcome).starts_with("{\"correct\": false,"));
        outcome.failed = 0;
        outcome.readings = vec![Reading::single("fps_mae", f64::NAN)];
        assert!(result_line(&outcome).starts_with("{\"correct\": false,"));
        assert!(result_line(&outcome).contains("\"value\": 0,"));
    }
}
