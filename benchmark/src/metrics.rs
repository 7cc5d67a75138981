//! The names later issues cite: every end-to-end and per-layer metric,
//! with its unit, its better direction and — end to end — the share of
//! the parent's median by which it may worsen. `BENCHMARK.json` at the
//! repository root repeats these tables; a unit test holds the two equal.

use crate::stats::Summary;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric a user of the monitor would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound, as a share of the parent's median.
    pub bound: f64,
}

/// One metric of a single layer; reported, never gated.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// `BENCHMARK.json` states a direction for every metric; the program
    /// itself has no use for a layer's, so only the manifest test reads it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "pkts_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.2,
    },
    EndToEnd {
        name: "cpu_s_per_mpkt",
        unit: "s/Mpkt",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "report_lag_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "fps_mae",
        unit: "fps",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "heap_peak_mb",
        unit: "MB",
        better: Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// In budget order: a packet's path through the layers, then the whole
/// run, then the control plane.
pub const PER_LAYER: [PerLayer; 40] = [
    layer("netpkt.pcap_read_ns_per_pkt", "ns", Lower),
    layer("netpkt.allocs_per_pkt", "count", Lower),
    layer("netpkt.read_bytes_per_pkt", "B", Lower),
    layer("netpkt.parse_ns_per_pkt", "ns", Lower),
    layer("netpkt.reject_ns_per_pkt", "ns", Lower),
    layer("rtp.parse_ns_per_pkt", "ns", Lower),
    layer("source.next_ns_per_pkt", "ns", Lower),
    layer("engine.push_ns_per_pkt", "ns", Lower),
    layer("engine.table_ns_per_pkt", "ns", Lower),
    layer("engine.table_self_ns_per_pkt", "ns", Lower),
    layer("engine.media_ns_per_pkt", "ns", Lower),
    layer("engine.assemble_ns_per_pkt", "ns", Lower),
    layer("engine.windows", "count", Lower),
    layer("engine.state_bytes_per_flow", "B", Lower),
    layer("features.acc_ns_per_pkt", "ns", Lower),
    layer("features.vector_ns_per_window", "ns", Lower),
    layer("mlcore.predict_ns_per_window", "ns", Lower),
    layer("api.ingest_ns_per_pkt", "ns", Lower),
    layer("api.facade_self_ns_per_pkt", "ns", Lower),
    layer("api.flows_opened", "count", Lower),
    layer("api.flows_evicted", "count", Lower),
    layer("api.parse_drops", "count", Lower),
    layer("api.events", "count", Lower),
    layer("api.events_per_kpkt", "count", Lower),
    layer("bus.publish_ns_per_event", "ns", Lower),
    layer("sink.serialize_ns_per_event", "ns", Lower),
    layer("sink.json_bytes_per_event", "B", Lower),
    layer("sink.allocs_per_event", "count", Lower),
    layer("runner.residual_ns_per_pkt", "ns", Lower),
    layer("runner.residual_share", "ratio", Lower),
    layer("runner.allocs_per_kpkt", "count", Lower),
    layer("runner.alloc_bytes_per_pkt", "B", Lower),
    layer("runner.report_lag_p90_us", "us", Lower),
    layer("runner.report_lag_p99_us", "us", Lower),
    layer("runner.gen_late_p99_us", "us", Lower),
    layer("runner.live_handoff_kpps", "kpkt/s", Higher),
    layer("runner.threaded_pkts_per_s", "1/s", Higher),
    layer("daemon.snapshot_us", "us", Lower),
    layer("daemon.metrics_render_us", "us", Lower),
    layer("trace_overhead_share", "ratio", Lower),
];

/// One metric as measured in one run: the value reported, and the
/// samples behind it when it is an order statistic of many.
#[derive(Debug, Clone)]
pub struct Reading {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Option<Summary>,
}

impl Reading {
    /// A metric that is one number: a count, a ratio of totals.
    pub fn single(name: &'static str, value: f64) -> Reading {
        Reading {
            name,
            unit: unit_of(name),
            value,
            samples: None,
        }
    }

    /// A metric that is the median of `samples` (0 when there are none).
    pub fn median(name: &'static str, samples: &[f64]) -> Reading {
        Reading::quantile(name, samples, 50.0)
    }

    /// A metric that is the `p`-th percentile of `samples`.
    pub fn quantile(name: &'static str, samples: &[f64], p: f64) -> Reading {
        Reading {
            name,
            unit: unit_of(name),
            value: crate::stats::percentile(samples, p),
            samples: Summary::of(samples),
        }
    }
}

/// The unit of a metric, by name.
///
/// # Panics
/// Panics on a name neither table holds: a reading nobody declared.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("undeclared metric {name}"))
        .1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Kind;

    /// `BENCHMARK.json` as these tables say it must read.
    fn manifest() -> String {
        let workloads: Vec<String> = Kind::ALL
            .iter()
            .map(|k| {
                format!(
                    "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                    k.name(),
                    k.why()
                )
            })
            .collect();
        let end_to_end: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.name(),
                    m.bound
                )
            })
            .collect();
        let per_layer: Vec<String> = PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.name()
                )
            })
            .collect();
        format!(
            "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
             \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
             \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
             \"per_layer\": [\n{}\n  ]\n}}\n",
            crate::DEFAULT_SECONDS,
            workloads.join(",\n"),
            end_to_end.join(",\n"),
            per_layer.join(",\n"),
        )
    }

    #[test]
    fn benchmark_json_repeats_these_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert!(
            committed == manifest(),
            "BENCHMARK.json is out of step; it should read:\n{}",
            manifest()
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(Kind::ALL.iter().map(|k| k.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for k in Kind::ALL {
            assert!(k.why().len() <= 200 && !k.why().contains(['\n', '"']));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }
}
