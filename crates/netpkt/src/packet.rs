//! The captured-packet model consumed by the inference pipeline.
//!
//! A passive monitor sees, per packet: a capture timestamp, the IP total
//! length, and the UDP 5-tuple + payload. [`CapturedPacket`] carries exactly
//! that, and [`UdpDatagram::parse`] produces it from raw link-layer bytes.

use crate::error::{Error, Result};
use crate::ethernet::{EtherType, EthernetFrame};
use crate::flow::FlowKey;
use crate::ipv4::Ipv4Packet;
use crate::ipv6::Ipv6Packet;
use crate::udp::UdpPacket;
use bytes::Bytes;
use std::net::IpAddr;
use std::ops::{Add, Sub};

/// A microsecond-resolution capture timestamp.
///
/// Stored as microseconds since an arbitrary epoch (the pcap epoch for real
/// traces, simulation start for synthetic ones). Microseconds are plenty for
/// per-second QoE windows while keeping arithmetic exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub i64);

impl Timestamp {
    /// Zero timestamp (epoch).
    pub const ZERO: Timestamp = Timestamp(0);

    /// Builds a timestamp from whole seconds.
    pub fn from_secs(s: i64) -> Self {
        Timestamp(s * 1_000_000)
    }

    /// Builds a timestamp from milliseconds.
    pub fn from_millis(ms: i64) -> Self {
        Timestamp(ms * 1_000)
    }

    /// Builds a timestamp from microseconds.
    pub fn from_micros(us: i64) -> Self {
        Timestamp(us)
    }

    /// Builds a timestamp from fractional seconds (rounds to the nearest µs).
    pub fn from_secs_f64(s: f64) -> Self {
        Timestamp((s * 1e6).round() as i64)
    }

    /// Whole microseconds.
    pub fn as_micros(&self) -> i64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(&self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The whole-second index this timestamp falls into (floor division, so
    /// negative times bucket consistently too).
    pub fn second_index(&self) -> i64 {
        self.0.div_euclid(1_000_000)
    }
}

impl Add for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Timestamp) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl Sub for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: Timestamp) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

/// A decoded UDP datagram with its enclosing IP metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source IP address.
    pub src: IpAddr,
    /// Destination IP address.
    pub dst: IpAddr,
    /// Source UDP port.
    pub src_port: u16,
    /// Destination UDP port.
    pub dst_port: u16,
    /// IP total length (IPv4) or 40 + payload length (IPv6): the "packet
    /// size" a monitor reports and every method in the paper consumes.
    pub ip_total_len: u16,
    /// UDP payload (RTP or other application bytes).
    pub payload: Bytes,
}

/// Builds the payload [`Bytes`]: a zero-copy slice of `backing` when the
/// caller's buffer is already refcounted, a copy otherwise.
fn payload_bytes(backing: Option<&Bytes>, payload: &[u8]) -> Bytes {
    match backing {
        Some(buf) => buf.slice_ref(payload),
        None => Bytes::copy_from_slice(payload),
    }
}

impl UdpDatagram {
    /// Parses an Ethernet II frame carrying IPv4/UDP or IPv6/UDP.
    ///
    /// Returns `Ok(None)` for well-formed frames that are simply not UDP
    /// (ARP, TCP, ICMP, ...) so callers can skip them without treating the
    /// trace as corrupt.
    pub fn parse(frame_bytes: &[u8]) -> Result<Option<Self>> {
        Self::parse_inner(frame_bytes, None)
    }

    /// [`Self::parse`] from a [`Bytes`]-backed frame (a pcap record): the
    /// datagram's payload is a zero-copy slice of the record's storage
    /// instead of a fresh allocation — the hot-path form a live monitor
    /// ingests with.
    pub fn parse_shared(frame: &Bytes) -> Result<Option<Self>> {
        Self::parse_inner(frame, Some(frame))
    }

    fn parse_inner(frame_bytes: &[u8], backing: Option<&Bytes>) -> Result<Option<Self>> {
        let frame = EthernetFrame::new_checked(frame_bytes)?;
        match frame.ethertype() {
            EtherType::Ipv4 => Self::parse_ipv4_inner(frame.payload(), backing),
            EtherType::Ipv6 => Self::parse_ipv6_inner(frame.payload(), backing),
            _ => Ok(None),
        }
    }

    /// Parses from the start of an IPv4 header.
    pub fn parse_ipv4(bytes: &[u8]) -> Result<Option<Self>> {
        Self::parse_ipv4_inner(bytes, None)
    }

    /// [`Self::parse_ipv4`] with a zero-copy payload slice (see
    /// [`Self::parse_shared`]).
    pub fn parse_ipv4_shared(bytes: &Bytes) -> Result<Option<Self>> {
        Self::parse_ipv4_inner(bytes, Some(bytes))
    }

    fn parse_ipv4_inner(bytes: &[u8], backing: Option<&Bytes>) -> Result<Option<Self>> {
        let ip = Ipv4Packet::new_checked(bytes)?;
        if ip.protocol() != crate::IP_PROTO_UDP {
            return Ok(None);
        }
        if ip.more_frags() || ip.frag_offset() != 0 {
            // Fragments carry no UDP header; a monitor cannot attribute them.
            return Err(Error::Malformed {
                layer: "ipv4",
                what: "fragmented UDP not supported",
            });
        }
        let udp = UdpPacket::new_checked(ip.payload())?;
        Ok(Some(UdpDatagram {
            src: IpAddr::from(ip.src()),
            dst: IpAddr::from(ip.dst()),
            src_port: udp.src_port(),
            dst_port: udp.dst_port(),
            ip_total_len: ip.total_len(),
            payload: payload_bytes(backing, udp.payload()),
        }))
    }

    /// Parses from the start of an IPv6 header.
    pub fn parse_ipv6(bytes: &[u8]) -> Result<Option<Self>> {
        Self::parse_ipv6_inner(bytes, None)
    }

    /// [`Self::parse_ipv6`] with a zero-copy payload slice (see
    /// [`Self::parse_shared`]).
    pub fn parse_ipv6_shared(bytes: &Bytes) -> Result<Option<Self>> {
        Self::parse_ipv6_inner(bytes, Some(bytes))
    }

    fn parse_ipv6_inner(bytes: &[u8], backing: Option<&Bytes>) -> Result<Option<Self>> {
        let ip = Ipv6Packet::new_checked(bytes)?;
        if ip.next_header() != crate::IP_PROTO_UDP {
            return Ok(None);
        }
        let udp = UdpPacket::new_checked(ip.payload())?;
        Ok(Some(UdpDatagram {
            src: IpAddr::from(ip.src()),
            dst: IpAddr::from(ip.dst()),
            src_port: udp.src_port(),
            dst_port: udp.dst_port(),
            ip_total_len: (crate::ipv6::HEADER_LEN + ip.payload_len() as usize) as u16,
            payload: payload_bytes(backing, udp.payload()),
        }))
    }

    /// Canonical flow key plus whether this datagram runs A→B.
    pub fn flow_key(&self) -> (FlowKey, bool) {
        FlowKey::canonical(
            self.src,
            self.src_port,
            self.dst,
            self.dst_port,
            crate::IP_PROTO_UDP,
        )
    }

    /// UDP payload length in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }
}

/// A datagram paired with its capture timestamp — the unit every stage of
/// the QoE pipeline operates on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedPacket {
    /// Capture timestamp.
    pub ts: Timestamp,
    /// Decoded datagram.
    pub datagram: UdpDatagram,
}

impl CapturedPacket {
    /// The IP-layer packet size (what "packet size" means throughout the
    /// paper: IP header + UDP header + payload).
    pub fn size(&self) -> u16 {
        self.datagram.ip_total_len
    }

    /// UDP payload length.
    pub fn payload_len(&self) -> usize {
        self.datagram.payload_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ethernet::{EthernetRepr, MacAddr};
    use crate::ipv4::Ipv4Repr;
    use crate::udp::UdpRepr;

    pub(crate) fn build_udp_frame(payload: &[u8]) -> Vec<u8> {
        let eth = EthernetRepr {
            src: MacAddr([2, 0, 0, 0, 0, 1]),
            dst: MacAddr([2, 0, 0, 0, 0, 2]),
            ethertype: EtherType::Ipv4,
        };
        let ip = Ipv4Repr {
            src: [10, 0, 0, 1],
            dst: [10, 0, 0, 2],
            protocol: crate::IP_PROTO_UDP,
            payload_len: crate::udp::HEADER_LEN + payload.len(),
            ttl: 64,
            ident: 7,
        };
        let udp = UdpRepr {
            src_port: 40000,
            dst_port: 50000,
        };
        let total = 14 + 20 + 8 + payload.len();
        let mut buf = vec![0u8; total];
        eth.emit(&mut buf);
        ip.emit(&mut buf[14..]);
        buf[42..].copy_from_slice(payload);
        udp.emit_v4(&mut buf[34..], payload.len(), [10, 0, 0, 1], [10, 0, 0, 2]);
        buf
    }

    #[test]
    fn parse_ethernet_ipv4_udp() {
        let frame = build_udp_frame(b"hello-rtp");
        let dg = UdpDatagram::parse(&frame).unwrap().unwrap();
        assert_eq!(dg.src, IpAddr::from([10, 0, 0, 1]));
        assert_eq!(dg.dst, IpAddr::from([10, 0, 0, 2]));
        assert_eq!(dg.src_port, 40000);
        assert_eq!(dg.dst_port, 50000);
        assert_eq!(dg.ip_total_len, 20 + 8 + 9);
        assert_eq!(&dg.payload[..], b"hello-rtp");
    }

    #[test]
    fn non_udp_returns_none() {
        let mut frame = build_udp_frame(b"x");
        frame[23] = 6; // protocol = TCP
                       // Fix IPv4 header checksum after mutation.
        frame[24] = 0;
        frame[25] = 0;
        let ck = crate::checksum::checksum(&frame[14..34]);
        frame[24..26].copy_from_slice(&ck.to_be_bytes());
        assert_eq!(UdpDatagram::parse(&frame).unwrap(), None);
    }

    #[test]
    fn arp_returns_none() {
        let mut frame = build_udp_frame(b"x");
        frame[12..14].copy_from_slice(&0x0806u16.to_be_bytes());
        assert_eq!(UdpDatagram::parse(&frame).unwrap(), None);
    }

    #[test]
    fn fragment_rejected() {
        let mut frame = build_udp_frame(b"x");
        frame[20] |= 0x20; // MF bit
        frame[24] = 0;
        frame[25] = 0;
        let ck = crate::checksum::checksum(&frame[14..34]);
        frame[24..26].copy_from_slice(&ck.to_be_bytes());
        assert!(UdpDatagram::parse(&frame).is_err());
    }

    #[test]
    fn ipv6_udp_parses() {
        use crate::ipv6::Ipv6Repr;
        let mut src = [0u8; 16];
        src[15] = 1;
        let mut dst = [0u8; 16];
        dst[15] = 2;
        let payload = b"v6-payload";
        let ip = Ipv6Repr {
            src,
            dst,
            next_header: crate::IP_PROTO_UDP,
            payload_len: 8 + payload.len(),
            hop_limit: 64,
        };
        let mut buf = vec![0u8; 40 + 8 + payload.len()];
        ip.emit(&mut buf);
        buf[48..].copy_from_slice(payload);
        let udp = UdpRepr {
            src_port: 1111,
            dst_port: 2222,
        };
        // Emit with a dummy v4 pseudo-header then zero the checksum: the
        // parser does not verify v6 checksums.
        udp.emit_v4(&mut buf[40..], payload.len(), [0; 4], [0; 4]);
        let dg = UdpDatagram::parse_ipv6(&buf).unwrap().unwrap();
        assert_eq!(dg.ip_total_len as usize, 40 + 8 + payload.len());
        assert_eq!(&dg.payload[..], payload);
    }

    #[test]
    fn timestamp_arithmetic() {
        let a = Timestamp::from_millis(1500);
        let b = Timestamp::from_secs(1);
        assert_eq!((a - b).as_micros(), 500_000);
        assert_eq!((a + b).as_secs_f64(), 2.5);
        assert_eq!(a.second_index(), 1);
        assert_eq!(Timestamp::from_micros(-1).second_index(), -1);
        assert_eq!(Timestamp::from_secs_f64(0.0000015).as_micros(), 2);
    }

    #[test]
    fn captured_packet_size() {
        let frame = build_udp_frame(&[0u8; 100]);
        let dg = UdpDatagram::parse(&frame).unwrap().unwrap();
        let cap = CapturedPacket {
            ts: Timestamp::from_millis(10),
            datagram: dg,
        };
        assert_eq!(cap.size(), 128);
        assert_eq!(cap.payload_len(), 100);
    }

    #[test]
    fn flow_key_direction() {
        let frame = build_udp_frame(b"x");
        let dg = UdpDatagram::parse(&frame).unwrap().unwrap();
        let (key, a_to_b) = dg.flow_key();
        assert!(a_to_b);
        assert_eq!(key.port_a, 40000);
    }
}
