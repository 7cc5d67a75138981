//! The front door: every shape a packet can arrive in, decoded to one
//! flow-keyed [`TracePacket`] or one classified drop. Stateless, so the
//! [`Monitor`](super::Monitor) and every ingest port share it.

use super::ParseDropReason;
use crate::source::SourcePacket;
use crate::trace::TracePacket;
use vcaml_netpkt::pcap::PcapRecord;
use vcaml_netpkt::{Error as NetError, FlowKey, LinkType, Timestamp, UdpHeaders};
use vcaml_rtp::RtpHeader;

/// A packet ready for its flow's engine, or when and why it was dropped.
pub(super) type Decoded = Result<(FlowKey, TracePacket), (Timestamp, ParseDropReason)>;

/// Decodes whatever a [`PacketSource`](crate::source::PacketSource)
/// yielded.
pub(super) fn source(pkt: &SourcePacket, wants_rtp: bool) -> Decoded {
    match pkt {
        SourcePacket::Record { link, record } => record_packet(*link, record, wants_rtp),
        SourcePacket::Parsed { flow, packet } => parsed(*flow, *packet),
    }
}

/// Admits a pre-parsed packet: only its timestamp can disqualify it.
pub(super) fn parsed(flow: FlowKey, pkt: TracePacket) -> Decoded {
    if pkt.ts.as_micros() < 0 {
        return Err((pkt.ts, ParseDropReason::NegativeTimestamp));
    }
    Ok((flow, pkt))
}

/// Decodes one pcap record, dispatching on the file's link type. Only
/// the headers are read, in place in the record's buffer: nothing is
/// allocated or refcounted per packet.
pub(super) fn record_packet(link: LinkType, rec: &PcapRecord, wants_rtp: bool) -> Decoded {
    wire(link, rec.ts, &rec.data, wants_rtp)
}

/// Decodes raw bytes the caller holds as a plain slice: an Ethernet II
/// frame ([`LinkType::Ethernet`]) or an IP packet ([`LinkType::RawIp`]).
pub(super) fn wire(link: LinkType, ts: Timestamp, bytes: &[u8], wants_rtp: bool) -> Decoded {
    match headers(link, bytes) {
        Ok(Some(h)) => accept(ts, h.flow_key().0, h.ip_total_len, h.payload, wants_rtp),
        Ok(None) => Err((ts, ParseDropReason::NotUdp)),
        Err(e) => Err((ts, ParseDropReason::from(&e))),
    }
}

/// Parses the headers `bytes` starts with: Ethernet II, or IPv4/IPv6 by
/// version nibble.
fn headers(link: LinkType, bytes: &[u8]) -> Result<Option<UdpHeaders<'_>>, NetError> {
    match link {
        LinkType::Ethernet => UdpHeaders::parse(bytes),
        LinkType::RawIp => match bytes.first().map(|b| b >> 4) {
            Some(4) => UdpHeaders::parse_ipv4(bytes),
            Some(6) => UdpHeaders::parse_ipv6(bytes),
            Some(_) => Err(NetError::Malformed {
                layer: "ip",
                what: "version is neither 4 nor 6",
            }),
            None => Err(NetError::Truncated {
                layer: "ip",
                needed: 1,
                got: 0,
            }),
        },
        LinkType::Other(_) => Err(NetError::Malformed {
            layer: "pcap",
            what: "unsupported link type",
        }),
    }
}

/// Runs the RTP parse-attempt on an accepted datagram's payload: the
/// attempt's confidence decides the method for auto-configured monitors,
/// and the header feeds the RTP engines. Non-RTP payloads simply leave
/// `rtp` empty; fixed IP/UDP monitors (the paper's no-RTP-access
/// deployment) skip the attempt entirely — nothing consumes it.
fn accept(ts: Timestamp, flow: FlowKey, size: u16, payload: &[u8], wants_rtp: bool) -> Decoded {
    let rtp = if wants_rtp {
        RtpHeader::parse(payload).ok()
    } else {
        None
    };
    parsed(
        flow,
        TracePacket {
            ts,
            size,
            rtp,
            truth_media: None,
        },
    )
}
