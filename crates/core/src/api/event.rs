//! The facade's output vocabulary: [`QoeEvent`] and its reasons, the
//! JSON-lines form, and the [`MonitorStats`] counters.

#[cfg(doc)]
use super::{Monitor, OverflowPolicy};
use crate::engine::WindowReport;
use crate::json;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use vcaml_netpkt::{Error as NetError, FlowKey, Timestamp};

/// Why a raw packet was not ingested. Every packet offered to a
/// [`Monitor`] is either routed to a flow or accounted for with one of
/// these in a [`QoeEvent::ParseDrop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseDropReason {
    /// The buffer ended before a protocol header did.
    Truncated {
        /// Protocol layer that ran out of bytes.
        layer: &'static str,
    },
    /// A header field violated the codec's constraints (bad IHL, bad
    /// version, length mismatch, unsupported fragmentation, ...).
    Malformed {
        /// Protocol layer that failed to decode.
        layer: &'static str,
        /// The violated constraint.
        what: &'static str,
    },
    /// A header checksum did not verify.
    Checksum {
        /// Protocol layer whose checksum failed.
        layer: &'static str,
    },
    /// Well-formed, but not a UDP packet (ARP, TCP, ICMP, non-IP
    /// ethertype) — VCA media is UDP, so the monitor skips it.
    NotUdp,
    /// Capture timestamp before the epoch; outside every window.
    NegativeTimestamp,
}

impl ParseDropReason {
    /// The [`ParseDropReason::tag`] of every variant, in
    /// [`ParseDropReason::index`] order — the labels of
    /// [`MonitorStats::parse_drops_by_reason`].
    pub const TAGS: [&'static str; 5] = [
        "truncated",
        "malformed",
        "checksum",
        "not_udp",
        "negative_timestamp",
    ];

    /// The variant's position in [`ParseDropReason::TAGS`] — a dense slot
    /// for per-reason counter arrays (the layer and constraint a variant
    /// carries do not enter into it).
    pub fn index(&self) -> usize {
        match self {
            ParseDropReason::Truncated { .. } => 0,
            ParseDropReason::Malformed { .. } => 1,
            ParseDropReason::Checksum { .. } => 2,
            ParseDropReason::NotUdp => 3,
            ParseDropReason::NegativeTimestamp => 4,
        }
    }

    /// Short machine-readable tag used in JSON output and metric labels.
    pub fn tag(&self) -> &'static str {
        Self::TAGS[self.index()]
    }
}

impl From<&NetError> for ParseDropReason {
    fn from(e: &NetError) -> Self {
        match *e {
            NetError::Truncated { layer, .. } => ParseDropReason::Truncated { layer },
            NetError::Malformed { layer, what } => ParseDropReason::Malformed { layer, what },
            NetError::Checksum { layer } => ParseDropReason::Checksum { layer },
            // Unreachable from in-memory parsing; classified for totality.
            NetError::BadMagic(_) => ParseDropReason::Malformed {
                layer: "pcap",
                what: "bad magic",
            },
            NetError::Io(_) => ParseDropReason::Malformed {
                layer: "io",
                what: "read error",
            },
        }
    }
}

/// Why a flow left the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictReason {
    /// No packet for longer than the idle timeout.
    Idle,
    /// [`Monitor::finish`] sealed every remaining flow.
    EndOfStream,
    /// An operator asked for the flow via
    /// [`MonitorHandle::evict_flow`](crate::control::MonitorHandle::evict_flow).
    Requested,
}

impl EvictReason {
    /// Short machine-readable tag used in JSON output.
    pub fn tag(&self) -> &'static str {
        match self {
            EvictReason::Idle => "idle",
            EvictReason::EndOfStream => "end_of_stream",
            EvictReason::Requested => "requested",
        }
    }
}

/// Deep copies of [`QoeEvent`] made over the process lifetime — the
/// enforcement hook for the event bus's zero-copy contract.
///
/// Events travel the whole delivery path (collector queue → runner →
/// every subscriber) as shared [`Arc<QoeEvent>`]s, so the per-event
/// fan-out never clones; this counter proves it. Consumers that take
/// owned copies for themselves (an example stashing events, a test
/// comparing streams) do count — the counter measures clones, not
/// blame.
static QOE_EVENT_CLONES: AtomicU64 = AtomicU64::new(0);

/// Total deep copies of [`QoeEvent`] made by this process so far. The
/// delivery path performs none (a tested invariant); consumers taking
/// owned copies for themselves do count — the counter measures clones,
/// not blame.
pub fn qoe_event_clone_count() -> u64 {
    QOE_EVENT_CLONES.load(Relaxed)
}

/// One event from the monitor's structured output stream.
#[derive(Debug)]
pub enum QoeEvent {
    /// First packet of a new flow was seen.
    FlowOpened {
        /// The flow's canonical 5-tuple.
        flow: FlowKey,
        /// Capture time of the first packet.
        ts: Timestamp,
    },
    /// A prediction window was emitted for a flow.
    WindowReport {
        /// The flow the window belongs to.
        flow: FlowKey,
        /// The window's metrics (estimate or feature vector, per method).
        report: WindowReport,
        /// True for max-lag flush snapshots: the metrics are lower bounds
        /// that a later final report for the same window supersedes.
        provisional: bool,
    },
    /// A flow was sealed; its remaining windows ride along so the tail of
    /// every call is observable even if the caller never polls.
    FlowEvicted {
        /// The flow's canonical 5-tuple.
        flow: FlowKey,
        /// Idle timeout or end of stream.
        reason: EvictReason,
        /// The flow's final windows, flushed by sealing.
        final_reports: Vec<WindowReport>,
    },
    /// A packet could not be ingested; the reason classifies the drop.
    ParseDrop {
        /// Capture time of the dropped packet.
        ts: Timestamp,
        /// Why it was dropped.
        reason: ParseDropReason,
    },
    /// Events were discarded because the bounded event queue overflowed
    /// under [`OverflowPolicy::DropOldest`]. The marker leads the next
    /// drained batch: everything it counts was older than the events
    /// that follow it, and `count` is exact.
    Dropped {
        /// How many events were discarded since the last drain.
        count: u64,
        /// Flow-attributed breakdown of `count`, sorted by flow —
        /// dashboards can show *which* flows lost freshness. Events with
        /// no flow (parse drops) are in `count` but not listed here, and
        /// attribution is bounded (4096 flows per interval) so `count`
        /// can exceed the breakdown's sum under extreme flow churn.
        per_flow: Vec<(FlowKey, u64)>,
    },
}

impl Clone for QoeEvent {
    /// A counted deep copy (see [`qoe_event_clone_count`]): the event
    /// bus never calls this on a delivery path — shared events clone the
    /// `Arc`, not the payload.
    fn clone(&self) -> Self {
        QOE_EVENT_CLONES.fetch_add(1, Relaxed);
        match self {
            QoeEvent::FlowOpened { flow, ts } => QoeEvent::FlowOpened {
                flow: *flow,
                ts: *ts,
            },
            QoeEvent::WindowReport {
                flow,
                report,
                provisional,
            } => QoeEvent::WindowReport {
                flow: *flow,
                report: report.clone(),
                provisional: *provisional,
            },
            QoeEvent::FlowEvicted {
                flow,
                reason,
                final_reports,
            } => QoeEvent::FlowEvicted {
                flow: *flow,
                reason: *reason,
                final_reports: final_reports.clone(),
            },
            QoeEvent::ParseDrop { ts, reason } => QoeEvent::ParseDrop {
                ts: *ts,
                reason: *reason,
            },
            QoeEvent::Dropped { count, per_flow } => QoeEvent::Dropped {
                count: *count,
                per_flow: per_flow.clone(),
            },
        }
    }
}

impl QoeEvent {
    /// Machine-readable event tag (the `type` field of the JSON form).
    pub fn tag(&self) -> &'static str {
        match self {
            QoeEvent::FlowOpened { .. } => "flow_opened",
            QoeEvent::WindowReport { .. } => "window_report",
            QoeEvent::FlowEvicted { .. } => "flow_evicted",
            QoeEvent::ParseDrop { .. } => "parse_drop",
            QoeEvent::Dropped { .. } => "dropped",
        }
    }

    /// One compact JSON object per event — the JSON-lines form consumed
    /// by dashboards and log shippers.
    pub fn to_json_line(&self) -> String {
        let mut line = String::new();
        self.write_json(&mut line);
        line
    }

    /// Appends the [`QoeEvent::to_json_line`] object to `out`.
    pub(crate) fn write_json(&self, out: &mut String) {
        let mut o = json::Object::begin(out);
        json::str(o.key("type"), self.tag());
        match self {
            QoeEvent::FlowOpened { flow, ts } => {
                json::flow(o.key("flow"), flow);
                json::int(o.key("ts_us"), ts.as_micros());
            }
            QoeEvent::WindowReport {
                flow,
                report,
                provisional,
            } => {
                json::flow(o.key("flow"), flow);
                json::bool(o.key("provisional"), *provisional);
                report.write_json(o.key("report"));
            }
            QoeEvent::FlowEvicted {
                flow,
                reason,
                final_reports,
            } => {
                json::flow(o.key("flow"), flow);
                json::str(o.key("reason"), reason.tag());
                json::array(o.key("final_reports"), final_reports, |out, report| {
                    report.write_json(out)
                });
            }
            QoeEvent::ParseDrop { ts, reason } => {
                json::int(o.key("ts_us"), ts.as_micros());
                json::str(o.key("reason"), reason.tag());
                match reason {
                    ParseDropReason::Truncated { layer } | ParseDropReason::Checksum { layer } => {
                        json::str(o.key("layer"), layer);
                    }
                    ParseDropReason::Malformed { layer, what } => {
                        json::str(o.key("layer"), layer);
                        json::str(o.key("what"), what);
                    }
                    ParseDropReason::NotUdp | ParseDropReason::NegativeTimestamp => {}
                }
            }
            QoeEvent::Dropped { count, per_flow } => {
                json::uint(o.key("count"), *count);
                if !per_flow.is_empty() {
                    let mut flows = json::Object::begin(o.key("per_flow"));
                    for (flow, n) in per_flow {
                        json::uint(flows.flow_key(flow), *n);
                    }
                    flows.end();
                }
            }
        }
        o.end();
    }

    /// The flow this event belongs to (`None` for [`QoeEvent::ParseDrop`],
    /// which happens before flow attribution, and [`QoeEvent::Dropped`],
    /// which aggregates across flows).
    pub fn flow(&self) -> Option<FlowKey> {
        match self {
            QoeEvent::FlowOpened { flow, .. }
            | QoeEvent::WindowReport { flow, .. }
            | QoeEvent::FlowEvicted { flow, .. } => Some(*flow),
            QoeEvent::ParseDrop { .. } | QoeEvent::Dropped { .. } => None,
        }
    }

    /// The *finalized* window reports this event carries: the single
    /// report of a non-provisional [`QoeEvent::WindowReport`], or an
    /// eviction's sealed tail. Empty for everything else (including
    /// provisional max-lag snapshots, which a later final report
    /// supersedes) — so summing this across a monitor's whole event
    /// stream yields each flow's windows exactly once.
    pub fn final_reports(&self) -> &[WindowReport] {
        match self {
            QoeEvent::WindowReport {
                report,
                provisional: false,
                ..
            } => std::slice::from_ref(report),
            QoeEvent::FlowEvicted { final_reports, .. } => final_reports,
            QoeEvent::WindowReport { .. }
            | QoeEvent::FlowOpened { .. }
            | QoeEvent::ParseDrop { .. }
            | QoeEvent::Dropped { .. } => &[],
        }
    }
}

/// Running counters over everything a [`Monitor`] has seen.
#[derive(Debug, Clone, Default)]
pub struct MonitorStats {
    /// Packets routed to a flow engine.
    pub packets: u64,
    /// Packets dropped at parse time (see [`QoeEvent::ParseDrop`]): the
    /// sum of `parse_drops_by_reason`.
    pub parse_drops: u64,
    /// `parse_drops` split by why, in [`ParseDropReason::index`] order
    /// (labels: [`ParseDropReason::TAGS`]) — what a tap is rejecting.
    pub parse_drops_by_reason: [u64; 5],
    /// Flows opened.
    pub flows_opened: u64,
    /// Flows evicted (idle or end of stream).
    pub flows_evicted: u64,
    /// Final window reports emitted.
    pub window_reports: u64,
    /// Provisional (max-lag flush or method-upgrade boundary) reports
    /// emitted.
    pub provisional_reports: u64,
    /// Events discarded by the bounded event queue
    /// ([`OverflowPolicy::DropOldest`] only).
    pub events_dropped: u64,
    /// Flow-attributed breakdown of `events_dropped`, sorted by flow.
    /// Events with no flow (parse drops) are counted in `events_dropped`
    /// but not listed here, and attribution is bounded (4096 flows over
    /// the monitor's lifetime) so long-running monitors with endless
    /// flow churn keep O(1) accounting state.
    pub dropped_by_flow: Vec<(FlowKey, u64)>,
}

impl MonitorStats {
    /// Appends the `"stats"` member of the snapshot line to `out`. A
    /// shed flow is spelled as in [`QoeEvent::Dropped`]: its `Display`.
    pub(crate) fn write_json(&self, out: &mut String) {
        let mut o = json::Object::begin(out);
        json::uint(o.key("packets"), self.packets);
        json::uint(o.key("parse_drops"), self.parse_drops);
        let mut by_reason = json::Object::begin(o.key("parse_drops_by_reason"));
        for (&tag, n) in ParseDropReason::TAGS.iter().zip(self.parse_drops_by_reason) {
            json::uint(by_reason.key(tag), n);
        }
        by_reason.end();
        json::uint(o.key("flows_opened"), self.flows_opened);
        json::uint(o.key("flows_evicted"), self.flows_evicted);
        json::uint(o.key("window_reports"), self.window_reports);
        json::uint(o.key("provisional_reports"), self.provisional_reports);
        json::uint(o.key("events_dropped"), self.events_dropped);
        json::array(
            o.key("dropped_by_flow"),
            &self.dropped_by_flow,
            |out, (flow, n)| {
                out.push('[');
                json::flow(out, flow);
                out.push(',');
                json::uint(out, *n);
                out.push(']');
            },
        );
        o.end();
    }
}

/// Shared, thread-safe counter cells behind [`MonitorStats`]: shard
/// workers bump them from their own threads, the monitor snapshots them
/// on [`Monitor::stats`]. On a threaded monitor the snapshot is
/// eventually consistent — packets still queued on a shard channel are
/// not yet counted.
#[derive(Debug, Default)]
pub(crate) struct StatsCells {
    pub(super) packets: AtomicU64,
    /// By [`ParseDropReason::index`]: one `fetch_add` per drop.
    pub(super) parse_drops: [AtomicU64; 5],
    pub(super) flows_opened: AtomicU64,
    pub(super) flows_evicted: AtomicU64,
    pub(super) window_reports: AtomicU64,
    pub(super) provisional_reports: AtomicU64,
}

impl StatsCells {
    pub(crate) fn snapshot(
        &self,
        events_dropped: u64,
        dropped_by_flow: Vec<(FlowKey, u64)>,
    ) -> MonitorStats {
        let parse_drops_by_reason = self.parse_drops.each_ref().map(|c| c.load(Relaxed));
        MonitorStats {
            packets: self.packets.load(Relaxed),
            parse_drops: parse_drops_by_reason.iter().sum(),
            parse_drops_by_reason,
            flows_opened: self.flows_opened.load(Relaxed),
            flows_evicted: self.flows_evicted.load(Relaxed),
            window_reports: self.window_reports.load(Relaxed),
            provisional_reports: self.provisional_reports.load(Relaxed),
            events_dropped,
            dropped_by_flow,
        }
    }
}
