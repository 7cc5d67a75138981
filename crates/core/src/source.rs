//! Pull-based packet sources: where a monitor's packets come from.
//!
//! A [`PacketSource`] yields timestamped [`SourcePacket`]s — raw pcap
//! records, or pre-parsed flow-keyed packets — until the stream ends.
//! Sources are the input half of the pluggable I/O layer (the output
//! half is [`crate::sink`]); a [`crate::runner::MonitorRunner`] drives
//! any number of them, one ingest thread each, into a single
//! [`crate::api::Monitor`].
//!
//! Provided sources:
//!
//! * [`PcapFileSource`] — a classic libpcap capture (file or any
//!   `Read`), yielding raw records that the monitor parses and
//!   classifies itself. Simulated calls arrive this way too, rendered
//!   to pcap bytes by `vcaml-vcasim` and read from memory;
//! * [`ReplaySource`] — in-memory flow-keyed [`TracePacket`]s (or a
//!   recorded [`Trace`]), for tests, benches, and the batch pipeline;
//! * [`Paced`] — an adapter that replays any inner source in real time
//!   (or any speed multiple), sleeping until each packet's capture
//!   timestamp comes due.
//!
//! ```
//! use std::io::Cursor;
//! use vcaml::source::{PacketSource, PcapFileSource};
//! use vcaml_rtp::VcaKind;
//! use vcaml_vcasim::synthetic_capture;
//!
//! // Two concurrent 2-second Teams calls, as the bytes a tap would write.
//! let image = synthetic_capture(VcaKind::Teams, 2, 2, 7);
//! let mut source = PcapFileSource::new(Cursor::new(image)).expect("a pcap header");
//! let mut n = 0usize;
//! while let Some(pkt) = source.next_packet().expect("in-memory reads are infallible") {
//!     assert!(pkt.ts().as_micros() >= 0);
//!     n += 1;
//! }
//! assert!(n > 0, "two 2-second calls produce packets");
//! ```

use crate::control::StopToken;
use crate::trace::{Trace, TracePacket};
use std::io::Read;
use std::path::Path;
use vcaml_netpkt::pcap::{PcapReader, PcapRecord};
use vcaml_netpkt::{Error as NetError, FlowKey, LinkType, Timestamp};

/// One item pulled from a [`PacketSource`]: every shape the monitor can
/// ingest, tagged so the runner routes it to the right parse path.
#[derive(Debug, Clone)]
pub enum SourcePacket {
    /// A raw pcap record plus the capture's link type; the monitor does
    /// one fused eth→ip→udp header parse and classifies failures.
    Record {
        /// Link type of the capture the record came from.
        link: LinkType,
        /// The raw record.
        record: PcapRecord,
    },
    /// A pre-parsed packet on an explicit flow — replays of recorded
    /// traces that never materialized wire bytes.
    Parsed {
        /// The packet's canonical 5-tuple.
        flow: FlowKey,
        /// The packet itself.
        packet: TracePacket,
    },
}

impl SourcePacket {
    /// The packet's capture timestamp (drives [`Paced`] replay).
    pub fn ts(&self) -> Timestamp {
        match self {
            SourcePacket::Record { record, .. } => record.ts,
            SourcePacket::Parsed { packet, .. } => packet.ts,
        }
    }
}

/// A pull-based stream of timestamped packets.
///
/// The contract mirrors an iterator with fallible I/O: `Ok(Some(_))`
/// yields the next packet, `Ok(None)` is a clean end of stream, and
/// `Err(_)` is a read failure after which the source should be
/// abandoned. Packets should be yielded in capture order; the monitor's
/// engines assume non-decreasing per-flow timestamps.
pub trait PacketSource {
    /// Pulls the next packet.
    fn next_packet(&mut self) -> Result<Option<SourcePacket>, NetError>;

    /// Whether this source delivers packets at wall-clock pace (a live
    /// tap, or a [`Paced`] replay standing in for one) rather than as
    /// fast as they can be pulled.
    ///
    /// The runner batches ingest handover for throughput; on a live
    /// source that batching would hold sparse traffic away from the
    /// shard workers for seconds, so the runner hands packets over
    /// immediately instead. Per-packet handover costs nothing at
    /// wall-clock rates, and keeps `stats_snapshot()`, the event
    /// stream, and the daemon's exporter current while the run is live.
    fn is_live(&self) -> bool {
        false
    }
}

/// A classic libpcap capture as a packet source. Records come out raw —
/// the monitor (not the source) parses and classifies them, so a capture
/// full of garbage still produces a full account of drops.
pub struct PcapFileSource<R: Read> {
    reader: PcapReader<R>,
    link: LinkType,
}

impl PcapFileSource<std::fs::File> {
    /// Opens a pcap file from disk. The file is read unbuffered: the
    /// reader's own 64 KiB block is the buffer.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, NetError> {
        PcapFileSource::new(std::fs::File::open(path)?)
    }
}

impl<R: Read> PcapFileSource<R> {
    /// Wraps any reader positioned at a pcap global header.
    pub fn new(reader: R) -> Result<Self, NetError> {
        let reader = PcapReader::new(reader)?;
        let link = reader.link_type();
        Ok(PcapFileSource { reader, link })
    }

    /// Link type declared in the capture's global header.
    pub fn link_type(&self) -> LinkType {
        self.link
    }
}

impl<R: Read> PacketSource for PcapFileSource<R> {
    // A forwarder, inlined so a wrapping source pays no extra call.
    #[inline]
    fn next_packet(&mut self) -> Result<Option<SourcePacket>, NetError> {
        Ok(self
            .reader
            .next_record()?
            .map(|record| SourcePacket::Record {
                link: self.link,
                record,
            }))
    }
}

/// An in-memory list of flow-keyed packets as a source — the replay
/// shape used by tests, benches and the scenario grid.
///
/// The feed is kept in its compact `(FlowKey, TracePacket)` form and
/// wrapped into [`SourcePacket`]s one at a time on pull, so constructing
/// a replay of N packets never re-materializes it.
pub struct ReplaySource {
    feed: Vec<(FlowKey, TracePacket)>,
    pos: usize,
}

impl ReplaySource {
    /// Replays pre-parsed flow-keyed packets.
    pub fn from_packets(feed: Vec<(FlowKey, TracePacket)>) -> Self {
        ReplaySource { feed, pos: 0 }
    }

    /// Replays a recorded [`Trace`]'s packets on one flow.
    pub fn from_trace(trace: &Trace, flow: FlowKey) -> Self {
        ReplaySource::from_packets(trace.packets.iter().map(|p| (flow, *p)).collect())
    }
}

impl PacketSource for ReplaySource {
    fn next_packet(&mut self) -> Result<Option<SourcePacket>, NetError> {
        let item = self
            .feed
            .get(self.pos)
            .map(|&(flow, packet)| SourcePacket::Parsed { flow, packet });
        self.pos += 1;
        Ok(item)
    }
}

/// Real-time replay adapter: delays each packet until its capture
/// timestamp (relative to the first packet) comes due on the wall
/// clock, optionally scaled. `speed` > 1 replays faster than real time;
/// the default [`Paced::new`] is 1× — a recorded capture behaves like a
/// live tap, which is how dashboards and alert rules are demoed without
/// capture privileges.
pub struct Paced<S> {
    inner: S,
    speed: f64,
    epoch: Option<(std::time::Instant, Timestamp)>,
    /// Graceful-stop signal: pacing sleeps are chunked against it so a
    /// [`MonitorHandle::stop`](crate::control::MonitorHandle::stop)
    /// interrupts a long inter-packet wait instead of riding it out.
    stop: Option<StopToken>,
}

/// Longest uninterruptible pacing sleep when a stop token is attached:
/// a stop is noticed within this bound even mid-gap.
const STOP_POLL: std::time::Duration = std::time::Duration::from_millis(20);

impl<S: PacketSource> Paced<S> {
    /// Real-time (1×) pacing.
    pub fn new(inner: S) -> Self {
        Paced::with_speed(inner, 1.0)
    }

    /// Pacing at a speed multiple (2.0 = twice as fast as recorded).
    pub fn with_speed(inner: S, speed: f64) -> Self {
        assert!(speed > 0.0, "non-positive replay speed");
        Paced {
            inner,
            speed,
            epoch: None,
            stop: None,
        }
    }

    /// Attaches a graceful-stop token (from
    /// [`MonitorHandle::stop_token`](crate::control::MonitorHandle::stop_token)):
    /// when a stop is requested, the source ends its stream (`Ok(None)`)
    /// at the next packet boundary — even one still being waited on —
    /// instead of sleeping out the rest of a long capture gap.
    pub fn with_stop(mut self, stop: StopToken) -> Self {
        self.stop = Some(stop);
        self
    }
}

impl<S: PacketSource> PacketSource for Paced<S> {
    fn next_packet(&mut self) -> Result<Option<SourcePacket>, NetError> {
        if self.stop.as_ref().is_some_and(StopToken::is_stopped) {
            return Ok(None);
        }
        let Some(pkt) = self.inner.next_packet()? else {
            return Ok(None);
        };
        let ts = pkt.ts();
        let (wall_start, first_ts) = *self.epoch.get_or_insert((std::time::Instant::now(), ts));
        let stream_us = ts.as_micros().saturating_sub(first_ts.as_micros());
        if stream_us > 0 {
            let due = wall_start
                + std::time::Duration::from_micros((stream_us as f64 / self.speed) as u64);
            loop {
                let now = std::time::Instant::now();
                if due <= now {
                    break;
                }
                match &self.stop {
                    None => std::thread::sleep(due - now),
                    Some(stop) => {
                        if stop.is_stopped() {
                            return Ok(None);
                        }
                        std::thread::sleep((due - now).min(STOP_POLL));
                    }
                }
            }
        }
        Ok(Some(pkt))
    }

    /// Paced replays emulate a live tap; the runner skips ingest
    /// batching so the emulation holds downstream too.
    fn is_live(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};
    use vcaml_netpkt::pcap::PcapWriter;

    #[test]
    fn pcap_source_yields_written_records() {
        let mut w = PcapWriter::new(Vec::new(), LinkType::Ethernet).expect("header");
        w.write_packet(Timestamp::from_micros(5), &[1, 2, 3])
            .expect("rec");
        w.write_packet(Timestamp::from_micros(9), &[4; 60])
            .expect("rec");
        let bytes = w.finish().expect("flush");
        let mut src = PcapFileSource::new(std::io::Cursor::new(bytes)).expect("open");
        assert_eq!(src.link_type(), LinkType::Ethernet);
        let mut seen = Vec::new();
        while let Some(pkt) = src.next_packet().expect("read") {
            let SourcePacket::Record { link, record } = pkt else {
                panic!("pcap sources yield raw records");
            };
            assert_eq!(link, LinkType::Ethernet);
            seen.push((record.ts.as_micros(), record.data.len()));
        }
        assert_eq!(seen, vec![(5, 3), (9, 60)]);
    }

    #[test]
    fn replay_source_preserves_flow_and_order() {
        let flow = FlowKey::canonical(
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            5000,
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            5001,
            17,
        )
        .0;
        let feed: Vec<(FlowKey, TracePacket)> = (0..5)
            .map(|i| {
                (
                    flow,
                    TracePacket {
                        ts: Timestamp::from_micros(i * 1000),
                        size: 1100,
                        rtp: None,
                        truth_media: None,
                    },
                )
            })
            .collect();
        let mut src = ReplaySource::from_packets(feed);
        let mut n = 0i64;
        while let Some(SourcePacket::Parsed { flow: f, packet }) =
            src.next_packet().expect("infallible")
        {
            assert_eq!(f, flow);
            assert_eq!(packet.ts.as_micros(), n * 1000);
            n += 1;
        }
        assert_eq!(n, 5);
    }

    #[test]
    fn paced_replay_spaces_packets_on_the_wall_clock() {
        let flow = FlowKey::canonical(
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            5000,
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            5001,
            17,
        )
        .0;
        // 40 ms of stream time at 20× replay ≈ 2 ms of wall time.
        let feed: Vec<(FlowKey, TracePacket)> = (0..5)
            .map(|i| {
                (
                    flow,
                    TracePacket {
                        ts: Timestamp::from_micros(i * 10_000),
                        size: 1100,
                        rtp: None,
                        truth_media: None,
                    },
                )
            })
            .collect();
        let mut src = Paced::with_speed(ReplaySource::from_packets(feed), 20.0);
        let start = std::time::Instant::now();
        let mut n = 0;
        while src.next_packet().expect("infallible").is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
        assert!(
            start.elapsed() >= std::time::Duration::from_micros(2_000),
            "pacing must take at least the scaled stream duration"
        );
    }
}
