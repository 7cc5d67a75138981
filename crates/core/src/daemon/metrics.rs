//! OpenMetrics/Prometheus text rendering of a [`MonitorSnapshot`].
//!
//! One pure function, [`render_openmetrics`]: snapshot in, scrape body
//! out. The exporter and the CLI's `--stats-every` both consume the
//! same [`MonitorSnapshot`] (one serializer family, no drift), and the
//! snapshot itself is built from atomic counter loads — rendering can
//! never block a shard worker.
//!
//! Family conventions: every family carries `# HELP` and `# TYPE`
//! lines; `_total`-suffixed families are counters, the rest gauges;
//! label values are escaped per the Prometheus text format (backslash,
//! quote, newline); the body ends with `# EOF` (the OpenMetrics
//! terminator). Optional families (alert floors) are omitted while
//! unset rather than exported as magic sentinels.

use crate::api::ParseDropReason;
use crate::bus::Severity;
use crate::control::MonitorSnapshot;
use crate::engine::Method;
use std::fmt::Write;

/// Flows listed in the `dropped_by_flow` family — the top-K offenders
/// by shed count. The snapshot's own attribution is already bounded;
/// this keeps scrape bodies small even when thousands of flows shed.
pub const DROPPED_FLOWS_TOP_K: usize = 8;

/// Renders the scrape body for one snapshot. Pure; safe to call from
/// any thread at any rate.
pub fn render_openmetrics(snap: &MonitorSnapshot) -> String {
    let mut out = String::with_capacity(2048);

    counter(
        &mut out,
        "vcaml_packets_total",
        "Packets routed to a flow engine.",
        snap.stats.packets,
    );
    counter(
        &mut out,
        "vcaml_parse_drops_total",
        "Packets dropped at parse time.",
        snap.stats.parse_drops,
    );
    family(
        &mut out,
        "vcaml_parse_drops_by_reason_total",
        "Packets dropped at parse time, by why they were rejected.",
        "counter",
    );
    for (reason, n) in ParseDropReason::TAGS
        .iter()
        .zip(snap.stats.parse_drops_by_reason)
    {
        let _ = writeln!(
            out,
            "vcaml_parse_drops_by_reason_total{{reason=\"{reason}\"}} {n}"
        );
    }
    counter(
        &mut out,
        "vcaml_flows_opened_total",
        "Flows opened.",
        snap.stats.flows_opened,
    );
    counter(
        &mut out,
        "vcaml_flows_evicted_total",
        "Flows evicted (idle, requested, or end of stream).",
        snap.stats.flows_evicted,
    );
    counter(
        &mut out,
        "vcaml_window_reports_total",
        "Final window reports emitted.",
        snap.stats.window_reports,
    );
    counter(
        &mut out,
        "vcaml_provisional_reports_total",
        "Provisional (flush-forced) window snapshots emitted.",
        snap.stats.provisional_reports,
    );
    counter(
        &mut out,
        "vcaml_events_dropped_total",
        "Events shed by the bounded queue (DropOldest only).",
        snap.stats.events_dropped,
    );

    // Top-K flow attribution of the shed events, worst offenders first.
    family(
        &mut out,
        "vcaml_events_dropped_by_flow_total",
        "Events shed by the bounded queue, attributed per flow (top offenders).",
        "counter",
    );
    let mut by_flow = snap.stats.dropped_by_flow.clone();
    by_flow.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    for (flow, n) in by_flow.iter().take(DROPPED_FLOWS_TOP_K) {
        let _ = writeln!(
            out,
            "vcaml_events_dropped_by_flow_total{{flow=\"{}\"}} {n}",
            escape_label(&flow.to_wire())
        );
    }

    family(
        &mut out,
        "vcaml_events_published_total",
        "Events published on the bus, by classified severity.",
        "counter",
    );
    for severity in Severity::ALL {
        let _ = writeln!(
            out,
            "vcaml_events_published_total{{severity=\"{}\"}} {}",
            severity.name(),
            snap.events_by_severity[severity.index()]
        );
    }

    family(
        &mut out,
        "vcaml_windows_by_method_total",
        "Finalized window reports published on the bus, by estimation method.",
        "counter",
    );
    for method in Method::ALL {
        let _ = writeln!(
            out,
            "vcaml_windows_by_method_total{{method=\"{}\"}} {}",
            method.slug(),
            snap.windows_by_method[method.index()]
        );
    }

    gauge(
        &mut out,
        "vcaml_flows_live",
        "Flows currently tracked.",
        snap.flows_live,
    );
    gauge(
        &mut out,
        "vcaml_pending_events",
        "Events queued for the consumer and not yet drained.",
        snap.pending_events as u64,
    );
    gauge(
        &mut out,
        "vcaml_bytes_per_flow",
        "Estimated resident bytes per tracked flow (engine + table overhead).",
        snap.bytes_per_flow,
    );
    gauge(
        &mut out,
        "vcaml_model_bytes",
        "Heap bytes of the attached model, shared by every flow (0 without one).",
        snap.model_bytes,
    );

    family(
        &mut out,
        "vcaml_ingest_depth",
        "Per-shard-worker ingest backlog, in packets handed over and not yet processed.",
        "gauge",
    );
    for (shard, depth) in snap.shard_depths.iter().enumerate() {
        let _ = writeln!(out, "vcaml_ingest_depth{{shard=\"{shard}\"}} {depth}");
    }

    if let Some(fps) = snap.alert_fps {
        family(
            &mut out,
            "vcaml_alert_fps",
            "Live frame-rate floor.",
            "gauge",
        );
        let _ = writeln!(out, "vcaml_alert_fps {fps}");
    }
    if let Some(kbps) = snap.alert_min_kbps {
        family(
            &mut out,
            "vcaml_alert_min_kbps",
            "Live bitrate floor (kbps).",
            "gauge",
        );
        let _ = writeln!(out, "vcaml_alert_min_kbps {kbps}");
    }
    if let Some(height) = snap.alert_resolution_floor {
        family(
            &mut out,
            "vcaml_alert_resolution_floor",
            "Live resolution-class floor (frame height).",
            "gauge",
        );
        let _ = writeln!(out, "vcaml_alert_resolution_floor {height}");
    }

    gauge(
        &mut out,
        "vcaml_stop_requested",
        "Whether a graceful stop has been requested (0/1).",
        u64::from(snap.stop_requested),
    );

    out.push_str("# EOF\n");
    out
}

fn family(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    family(out, name, help, "counter");
    let _ = writeln!(out, "{name} {value}");
}

fn gauge(out: &mut String, name: &str, help: &str, value: u64) {
    family(out, name, help, "gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// Escapes a label value per the Prometheus text format: backslash,
/// double quote, and newline.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::MonitorStats;

    fn snapshot() -> MonitorSnapshot {
        MonitorSnapshot {
            stats: MonitorStats {
                packets: 100,
                parse_drops: 2,
                parse_drops_by_reason: [0, 1, 0, 1, 0],
                flows_opened: 5,
                flows_evicted: 1,
                window_reports: 40,
                provisional_reports: 3,
                events_dropped: 7,
                dropped_by_flow: Vec::new(),
            },
            flows_live: 4,
            pending_events: 11,
            shard_depths: vec![3, 0],
            bytes_per_flow: 512,
            model_bytes: 150_000,
            alert_fps: Some(24.0),
            alert_min_kbps: None,
            alert_resolution_floor: Some(360),
            events_by_severity: [30, 2, 1],
            windows_by_method: [0, 0, 0, 40],
            stop_requested: false,
        }
    }

    #[test]
    fn every_sample_line_belongs_to_a_typed_family() {
        let body = render_openmetrics(&snapshot());
        let mut typed = std::collections::HashSet::new();
        for line in body.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                typed.insert(parts.next().unwrap_or_default().to_string());
                continue;
            }
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let name = line
                .split(['{', ' '])
                .next()
                .unwrap_or_default()
                .to_string();
            assert!(typed.contains(&name), "sample {line:?} precedes its # TYPE");
        }
        assert!(body.ends_with("# EOF\n"));
    }

    #[test]
    fn labels_and_optionals_render() {
        let body = render_openmetrics(&snapshot());
        assert!(body.contains("vcaml_ingest_depth{shard=\"0\"} 3"));
        assert!(body.contains("vcaml_ingest_depth{shard=\"1\"} 0"));
        assert!(body.contains("vcaml_parse_drops_by_reason_total{reason=\"malformed\"} 1"));
        assert!(body.contains("vcaml_parse_drops_by_reason_total{reason=\"checksum\"} 0"));
        assert!(body.contains("vcaml_events_published_total{severity=\"warning\"} 2"));
        assert!(body.contains("vcaml_windows_by_method_total{method=\"ip_udp_heuristic\"} 40"));
        assert!(body.contains("vcaml_model_bytes 150000"));
        assert!(body.contains("vcaml_alert_fps 24"));
        assert!(body.contains("vcaml_alert_resolution_floor 360"));
        assert!(
            !body.contains("vcaml_alert_min_kbps"),
            "unset floors are omitted"
        );
    }

    #[test]
    fn label_escaping_covers_the_format_specials() {
        assert_eq!(escape_label(r#"a\b"c"#), r#"a\\b\"c"#);
        assert_eq!(escape_label("a\nb"), "a\\nb");
    }
}
