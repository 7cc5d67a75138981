//! The front door: every shape a packet can arrive in, decoded to one
//! flow-keyed [`TracePacket`] or one classified drop. Stateless, so the
//! [`Monitor`](super::Monitor) and every ingest port share it.

use super::ParseDropReason;
use crate::source::SourcePacket;
use crate::trace::TracePacket;
use vcaml_netpkt::pcap::PcapRecord;
use vcaml_netpkt::{Error as NetError, FlowKey, LinkType, Timestamp, UdpDatagram};
use vcaml_rtp::RtpHeader;

/// A packet ready for its flow's engine, or when and why it was dropped.
pub(super) type Decoded = Result<(FlowKey, TracePacket), (Timestamp, ParseDropReason)>;

/// Decodes whatever a [`PacketSource`](crate::source::PacketSource)
/// yielded.
pub(super) fn source(pkt: &SourcePacket, wants_rtp: bool) -> Decoded {
    match pkt {
        SourcePacket::Record { link, record } => record_packet(*link, record, wants_rtp),
        SourcePacket::Captured(cap) => datagram_packet(cap.ts, &cap.datagram, wants_rtp),
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

/// Decodes one pcap record, dispatching on the file's link type. The
/// record's buffer is `Bytes`-backed, so the decoded datagram's payload
/// is a zero-copy slice of it — no per-packet payload allocation.
pub(super) fn record_packet(link: LinkType, rec: &PcapRecord, wants_rtp: bool) -> Decoded {
    let parsed = parse_wire(
        link,
        &rec.data,
        UdpDatagram::parse_shared,
        UdpDatagram::parse_ipv4_shared,
        UdpDatagram::parse_ipv6_shared,
    );
    classify(rec.ts, parsed, wants_rtp)
}

/// Decodes raw bytes the caller holds as a plain slice: an Ethernet II
/// frame ([`LinkType::Ethernet`]) or an IP packet ([`LinkType::RawIp`]).
pub(super) fn wire(link: LinkType, ts: Timestamp, bytes: &[u8], wants_rtp: bool) -> Decoded {
    let parsed = parse_wire(
        link,
        bytes,
        UdpDatagram::parse,
        UdpDatagram::parse_ipv4,
        UdpDatagram::parse_ipv6,
    );
    classify(ts, parsed, wants_rtp)
}

type Parsed = Result<Option<UdpDatagram>, NetError>;

/// Picks the parser for the header `buf` starts with — Ethernet II, or
/// IPv4/IPv6 by version nibble — from the caller's buffer type's three
/// `UdpDatagram` entry points (slice or zero-copy `Bytes`).
fn parse_wire<B: AsRef<[u8]> + ?Sized>(
    link: LinkType,
    buf: &B,
    ethernet: fn(&B) -> Parsed,
    ipv4: fn(&B) -> Parsed,
    ipv6: fn(&B) -> Parsed,
) -> Parsed {
    match link {
        LinkType::Ethernet => ethernet(buf),
        LinkType::RawIp => match buf.as_ref().first().map(|b| b >> 4) {
            Some(4) => ipv4(buf),
            Some(6) => ipv6(buf),
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

fn classify(ts: Timestamp, parsed: Parsed, wants_rtp: bool) -> Decoded {
    match parsed {
        Ok(Some(dg)) => datagram_packet(ts, &dg, wants_rtp),
        Ok(None) => Err((ts, ParseDropReason::NotUdp)),
        Err(e) => Err((ts, ParseDropReason::from(&e))),
    }
}

/// Flow-keys a decoded datagram and runs the RTP parse-attempt: the
/// attempt's confidence decides the method for auto-configured monitors,
/// and the header feeds the RTP engines. Non-RTP payloads simply leave
/// `rtp` empty; fixed IP/UDP monitors (the paper's no-RTP-access
/// deployment) skip the attempt entirely — nothing consumes it.
pub(super) fn datagram_packet(ts: Timestamp, dg: &UdpDatagram, wants_rtp: bool) -> Decoded {
    let (flow, _) = dg.flow_key();
    let rtp = if wants_rtp {
        RtpHeader::parse(&dg.payload).ok()
    } else {
        None
    };
    parsed(
        flow,
        TracePacket {
            ts,
            size: dg.ip_total_len,
            rtp,
            truth_media: None,
        },
    )
}
