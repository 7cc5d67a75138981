//! UDP header codec (RFC 768).

use crate::checksum::{self, Checksum};
use crate::error::{Error, Result};

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// Zero-copy view over a UDP datagram.
#[derive(Debug, Clone)]
pub struct UdpPacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> UdpPacket<T> {
    /// Wraps a buffer, validating the length field.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let pkt = Self { buffer };
        let b = pkt.buffer.as_ref();
        if b.len() < HEADER_LEN {
            return Err(Error::Truncated {
                layer: "udp",
                needed: HEADER_LEN,
                got: b.len(),
            });
        }
        let len = pkt.len() as usize;
        if len < HEADER_LEN {
            return Err(Error::Malformed {
                layer: "udp",
                what: "length field below header size",
            });
        }
        if b.len() < len {
            return Err(Error::Truncated {
                layer: "udp",
                needed: len,
                got: b.len(),
            });
        }
        Ok(pkt)
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[0], b[1]])
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[2], b[3]])
    }

    /// Length field (header + payload).
    pub fn len(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[4], b[5]])
    }

    /// Returns true when the datagram carries no payload.
    pub fn is_empty(&self) -> bool {
        self.len() as usize == HEADER_LEN
    }

    /// Checksum field (0 means "not computed" over IPv4).
    pub fn checksum(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[6], b[7]])
    }

    /// Payload bytes, as delimited by the length field.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..self.len() as usize]
    }

    /// Verifies the checksum against an IPv4 pseudo-header. A zero
    /// checksum field is accepted (checksum disabled).
    pub fn verify_checksum_v4(&self, src: [u8; 4], dst: [u8; 4]) -> bool {
        if self.checksum() == 0 {
            return true;
        }
        let mut c = checksum::pseudo_header_v4(src, dst, crate::IP_PROTO_UDP, self.len());
        c.add_bytes(&self.buffer.as_ref()[..self.len() as usize]);
        c.finish() == 0
    }
}

/// Owned UDP header representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpRepr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

impl UdpRepr {
    /// Serialized header length.
    pub fn header_len(&self) -> usize {
        HEADER_LEN
    }

    /// Writes the header and computes the IPv4 checksum over
    /// `buf[..HEADER_LEN + payload.len()]`; the payload must already be in
    /// place at `buf[HEADER_LEN..]`.
    ///
    /// # Panics
    /// Panics if `buf` cannot hold header + payload.
    pub fn emit_v4(&self, buf: &mut [u8], payload_len: usize, src: [u8; 4], dst: [u8; 4]) {
        let total = HEADER_LEN + payload_len;
        assert!(buf.len() >= total, "udp buffer too short");
        assert!(total <= usize::from(u16::MAX), "udp length overflow");
        buf[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        buf[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        buf[4..6].copy_from_slice(&(total as u16).to_be_bytes());
        buf[6] = 0;
        buf[7] = 0;
        let mut c: Checksum =
            checksum::pseudo_header_v4(src, dst, crate::IP_PROTO_UDP, total as u16);
        c.add_bytes(&buf[..total]);
        let mut ck = c.finish();
        // RFC 768: a computed checksum of zero is transmitted as all-ones.
        if ck == 0 {
            ck = 0xffff;
        }
        buf[6..8].copy_from_slice(&ck.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: [u8; 4] = [192, 168, 1, 1];
    const DST: [u8; 4] = [192, 168, 1, 2];

    fn build(payload: &[u8]) -> Vec<u8> {
        let mut buf = vec![0u8; HEADER_LEN + payload.len()];
        buf[HEADER_LEN..].copy_from_slice(payload);
        UdpRepr {
            src_port: 50000,
            dst_port: 3478,
        }
        .emit_v4(&mut buf, payload.len(), SRC, DST);
        buf
    }

    #[test]
    fn roundtrip_with_checksum() {
        let buf = build(b"rtp-payload");
        let pkt = UdpPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(pkt.src_port(), 50000);
        assert_eq!(pkt.dst_port(), 3478);
        assert_eq!(pkt.payload(), b"rtp-payload");
        assert!(!pkt.is_empty());
        assert!(pkt.verify_checksum_v4(SRC, DST));
    }

    #[test]
    fn corruption_detected() {
        let mut buf = build(b"rtp-payload");
        buf[HEADER_LEN + 2] ^= 0x01;
        let pkt = UdpPacket::new_checked(&buf[..]).unwrap();
        assert!(!pkt.verify_checksum_v4(SRC, DST));
    }

    #[test]
    fn zero_checksum_accepted() {
        let mut buf = build(b"x");
        buf[6] = 0;
        buf[7] = 0;
        let pkt = UdpPacket::new_checked(&buf[..]).unwrap();
        assert!(pkt.verify_checksum_v4(SRC, DST));
    }

    #[test]
    fn empty_payload() {
        let buf = build(b"");
        let pkt = UdpPacket::new_checked(&buf[..]).unwrap();
        assert!(pkt.is_empty());
        assert_eq!(pkt.payload(), b"");
        assert!(pkt.verify_checksum_v4(SRC, DST));
    }

    #[test]
    fn rejects_short_buffer() {
        assert!(matches!(
            UdpPacket::new_checked(&[0u8; 4][..]),
            Err(Error::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_bad_length_field() {
        let mut buf = [0u8; HEADER_LEN];
        buf[4..6].copy_from_slice(&4u16.to_be_bytes());
        assert!(matches!(
            UdpPacket::new_checked(&buf[..]),
            Err(Error::Malformed { .. })
        ));
        let mut buf = [0u8; HEADER_LEN];
        buf[4..6].copy_from_slice(&64u16.to_be_bytes());
        assert!(matches!(
            UdpPacket::new_checked(&buf[..]),
            Err(Error::Truncated { .. })
        ));
    }

    #[test]
    fn payload_trims_trailing_padding() {
        let mut buf = build(b"abc");
        buf.extend_from_slice(&[0, 0, 0]); // Ethernet padding
        let pkt = UdpPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(pkt.payload(), b"abc");
    }
}
