//! The captured-packet model consumed by the inference pipeline.
//!
//! A passive monitor sees, per packet: a capture timestamp, the IP total
//! length, and the UDP 5-tuple + payload. [`UdpHeaders::parse`] reads
//! exactly that from raw link-layer bytes, borrowing the payload, in one
//! bounds-checked pass. [`UdpDatagram`] is the same fields with the payload
//! owned (a zero-copy [`Bytes`] slice of a pcap record), and
//! [`CapturedPacket`] pairs one with its timestamp.

use crate::error::{Error, Result};
use crate::ethernet::EtherType;
use crate::flow::FlowKey;
use crate::{ethernet, ipv4, ipv6, udp};
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

/// The IP and UDP header fields of one datagram, borrowed from the
/// capture buffer — everything a header-only monitor reads, with no
/// allocation and no refcount.
///
/// [`UdpHeaders::parse`] is the one Ethernet → IPv4/IPv6 → UDP decoder:
/// [`UdpDatagram::parse_shared`] wraps it. Every length field is checked
/// against the buffer before it delimits a slice, so the payload is
/// exactly what the UDP length field covers (link-layer padding
/// excluded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeaders<'a> {
    /// Source IP address.
    pub src: IpAddr,
    /// Destination IP address.
    pub dst: IpAddr,
    /// Source UDP port.
    pub src_port: u16,
    /// Destination UDP port.
    pub dst_port: u16,
    /// IP total length (IPv4) or 40 + payload length (IPv6, saturating
    /// at `u16::MAX`): the "packet size" a monitor reports and every
    /// method in the paper consumes.
    pub ip_total_len: u16,
    /// UDP payload (RTP or other application bytes).
    pub payload: &'a [u8],
}

fn truncated(layer: &'static str, needed: usize, got: usize) -> Error {
    Error::Truncated { layer, needed, got }
}

fn malformed(layer: &'static str, what: &'static str) -> Error {
    Error::Malformed { layer, what }
}

impl<'a> UdpHeaders<'a> {
    /// Parses an Ethernet II frame carrying IPv4/UDP or IPv6/UDP.
    ///
    /// Returns `Ok(None)` for well-formed frames that are simply not UDP
    /// (ARP, TCP, ICMP, ...) so callers can skip them without treating the
    /// trace as corrupt. IPv4 fragments are an error: they carry no UDP
    /// header a monitor could attribute.
    #[inline]
    pub fn parse(frame: &'a [u8]) -> Result<Option<Self>> {
        let Some((header, rest)) = frame.split_first_chunk::<{ ethernet::HEADER_LEN }>() else {
            return Err(truncated("ethernet", ethernet::HEADER_LEN, frame.len()));
        };
        match EtherType::from(u16::from_be_bytes([header[12], header[13]])) {
            EtherType::Ipv4 => Self::parse_ipv4(rest),
            EtherType::Ipv6 => Self::parse_ipv6(rest),
            EtherType::Arp | EtherType::Other(_) => Ok(None),
        }
    }

    /// Parses from the start of an IPv4 header.
    #[inline]
    pub fn parse_ipv4(bytes: &'a [u8]) -> Result<Option<Self>> {
        let Some(h) = bytes.first_chunk::<{ ipv4::MIN_HEADER_LEN }>() else {
            return Err(truncated("ipv4", ipv4::MIN_HEADER_LEN, bytes.len()));
        };
        if h[0] >> 4 != 4 {
            return Err(malformed("ipv4", "version is not 4"));
        }
        let header_len = usize::from(h[0] & 0x0f) * 4;
        if header_len < ipv4::MIN_HEADER_LEN {
            return Err(malformed("ipv4", "IHL below 5 words"));
        }
        if bytes.len() < header_len {
            return Err(truncated("ipv4", header_len, bytes.len()));
        }
        let total_len = u16::from_be_bytes([h[2], h[3]]);
        let total = usize::from(total_len);
        if total < header_len {
            return Err(malformed("ipv4", "total length below header length"));
        }
        let Some(packet) = bytes.get(..total) else {
            return Err(truncated("ipv4", total, bytes.len()));
        };
        if h[9] != crate::IP_PROTO_UDP {
            return Ok(None);
        }
        // More-fragments flag or a non-zero fragment offset.
        if h[6] & 0x3f != 0 || h[7] != 0 {
            // Fragments carry no UDP header; a monitor cannot attribute them.
            return Err(malformed("ipv4", "fragmented UDP not supported"));
        }
        let src = IpAddr::from([h[12], h[13], h[14], h[15]]);
        let dst = IpAddr::from([h[16], h[17], h[18], h[19]]);
        Self::parse_udp(src, dst, total_len, &packet[header_len..]).map(Some)
    }

    /// Parses from the start of an IPv6 header. Extension headers are not
    /// walked: a next-header other than UDP reads as not UDP.
    #[inline]
    pub fn parse_ipv6(bytes: &'a [u8]) -> Result<Option<Self>> {
        let Some((h, rest)) = bytes.split_first_chunk::<{ ipv6::HEADER_LEN }>() else {
            return Err(truncated("ipv6", ipv6::HEADER_LEN, bytes.len()));
        };
        if h[0] >> 4 != 6 {
            return Err(malformed("ipv6", "version is not 6"));
        }
        let payload_len = u16::from_be_bytes([h[4], h[5]]);
        let Some(payload) = rest.get(..usize::from(payload_len)) else {
            return Err(truncated(
                "ipv6",
                ipv6::HEADER_LEN + usize::from(payload_len),
                bytes.len(),
            ));
        };
        if h[6] != crate::IP_PROTO_UDP {
            return Ok(None);
        }
        let mut src = [0u8; 16];
        src.copy_from_slice(&h[8..24]);
        let mut dst = [0u8; 16];
        dst.copy_from_slice(&h[24..40]);
        // A jumbo-sized capture (GRO, snaplen 262 144) can declare more
        // than 16 bits' worth of packet: report the largest size instead
        // of a wrapped one.
        let ip_total_len = payload_len.saturating_add(ipv6::HEADER_LEN as u16);
        Self::parse_udp(src.into(), dst.into(), ip_total_len, payload).map(Some)
    }

    /// The UDP header at the start of `bytes`, the IP payload.
    #[inline(always)]
    fn parse_udp(src: IpAddr, dst: IpAddr, ip_total_len: u16, bytes: &'a [u8]) -> Result<Self> {
        let Some((h, rest)) = bytes.split_first_chunk::<{ udp::HEADER_LEN }>() else {
            return Err(truncated("udp", udp::HEADER_LEN, bytes.len()));
        };
        let len = usize::from(u16::from_be_bytes([h[4], h[5]]));
        if len < udp::HEADER_LEN {
            return Err(malformed("udp", "length field below header size"));
        }
        let Some(payload) = rest.get(..len - udp::HEADER_LEN) else {
            return Err(truncated("udp", len, bytes.len()));
        };
        Ok(UdpHeaders {
            src,
            dst,
            src_port: u16::from_be_bytes([h[0], h[1]]),
            dst_port: u16::from_be_bytes([h[2], h[3]]),
            ip_total_len,
            payload,
        })
    }

    /// Canonical flow key plus whether this datagram runs A→B.
    #[inline]
    pub fn flow_key(&self) -> (FlowKey, bool) {
        FlowKey::canonical(
            self.src,
            self.src_port,
            self.dst,
            self.dst_port,
            crate::IP_PROTO_UDP,
        )
    }
}

/// A decoded UDP datagram holding its payload as [`Bytes`], so it can
/// outlive the capture buffer's borrow: the form a [`CapturedPacket`]
/// keeps.
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
    /// The IP size, as [`UdpHeaders::ip_total_len`].
    pub ip_total_len: u16,
    /// UDP payload (RTP or other application bytes).
    pub payload: Bytes,
}

impl UdpDatagram {
    /// [`UdpHeaders::parse`] from a [`Bytes`]-backed frame (a pcap
    /// record): the datagram's payload is a zero-copy slice of the
    /// record's storage.
    pub fn parse_shared(frame: &Bytes) -> Result<Option<Self>> {
        let Some(h) = UdpHeaders::parse(frame)? else {
            return Ok(None);
        };
        Ok(Some(UdpDatagram {
            src: h.src,
            dst: h.dst,
            src_port: h.src_port,
            dst_port: h.dst_port,
            ip_total_len: h.ip_total_len,
            payload: frame.slice_ref(h.payload),
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
        let h = UdpHeaders::parse(&frame).unwrap().unwrap();
        assert_eq!(h.src, IpAddr::from([10, 0, 0, 1]));
        assert_eq!(h.dst, IpAddr::from([10, 0, 0, 2]));
        assert_eq!(h.src_port, 40000);
        assert_eq!(h.dst_port, 50000);
        assert_eq!(h.ip_total_len, 20 + 8 + 9);
        assert_eq!(h.payload, b"hello-rtp");
    }

    #[test]
    fn parse_shared_slices_the_record() {
        let frame = Bytes::from(build_udp_frame(b"hello-rtp"));
        let dg = UdpDatagram::parse_shared(&frame).unwrap().unwrap();
        let h = UdpHeaders::parse(&frame).unwrap().unwrap();
        assert_eq!(dg.flow_key(), h.flow_key());
        assert_eq!(dg.ip_total_len, h.ip_total_len);
        assert_eq!(&dg.payload[..], h.payload);
        assert_eq!(dg.payload.as_ptr(), frame[42..].as_ptr());
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
        assert_eq!(UdpHeaders::parse(&frame).unwrap(), None);
    }

    #[test]
    fn arp_returns_none() {
        let mut frame = build_udp_frame(b"x");
        frame[12..14].copy_from_slice(&0x0806u16.to_be_bytes());
        assert_eq!(UdpHeaders::parse(&frame).unwrap(), None);
    }

    #[test]
    fn fragment_rejected() {
        let mut frame = build_udp_frame(b"x");
        frame[20] |= 0x20; // MF bit
        frame[24] = 0;
        frame[25] = 0;
        let ck = crate::checksum::checksum(&frame[14..34]);
        frame[24..26].copy_from_slice(&ck.to_be_bytes());
        assert!(matches!(
            UdpHeaders::parse(&frame),
            Err(Error::Malformed {
                layer: "ipv4",
                what: "fragmented UDP not supported"
            })
        ));
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
        let h = UdpHeaders::parse_ipv6(&buf).unwrap().unwrap();
        assert_eq!(h.ip_total_len as usize, 40 + 8 + payload.len());
        assert_eq!(h.payload, payload);
    }

    #[test]
    fn jumbo_ipv6_size_saturates() {
        use crate::ipv6::Ipv6Repr;
        // A coalesced (GRO) capture: one IPv6 datagram whose payload
        // length field is near 64 KiB, so 40 + payload_len exceeds u16.
        let payload_len = 65_500usize;
        let ip = Ipv6Repr {
            src: [0; 16],
            dst: [0; 16],
            next_header: crate::IP_PROTO_UDP,
            payload_len,
            hop_limit: 64,
        };
        let mut buf = vec![0u8; 40 + payload_len];
        ip.emit(&mut buf);
        buf[44..46].copy_from_slice(&(payload_len as u16).to_be_bytes());
        let h = UdpHeaders::parse_ipv6(&buf).unwrap().unwrap();
        assert_eq!(h.ip_total_len, u16::MAX);
        assert_eq!(h.payload.len(), payload_len - 8);
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
        let frame = Bytes::from(build_udp_frame(&[0u8; 100]));
        let dg = UdpDatagram::parse_shared(&frame).unwrap().unwrap();
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
        let h = UdpHeaders::parse(&frame).unwrap().unwrap();
        let (key, a_to_b) = h.flow_key();
        assert!(a_to_b);
        assert_eq!(key.port_a, 40000);
    }
}
