//! IPv4 header codec (RFC 791).

use crate::checksum;
use crate::error::{Error, Result};

/// Minimum IPv4 header length (IHL = 5).
pub const MIN_HEADER_LEN: usize = 20;

/// Zero-copy view over an IPv4 packet.
#[derive(Debug, Clone)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wraps a buffer, validating version, IHL, and the length fields.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let pkt = Self { buffer };
        let b = pkt.buffer.as_ref();
        if b.len() < MIN_HEADER_LEN {
            return Err(Error::Truncated {
                layer: "ipv4",
                needed: MIN_HEADER_LEN,
                got: b.len(),
            });
        }
        if b[0] >> 4 != 4 {
            return Err(Error::Malformed {
                layer: "ipv4",
                what: "version is not 4",
            });
        }
        let ihl = pkt.header_len();
        if ihl < MIN_HEADER_LEN {
            return Err(Error::Malformed {
                layer: "ipv4",
                what: "IHL below 5 words",
            });
        }
        if b.len() < ihl {
            return Err(Error::Truncated {
                layer: "ipv4",
                needed: ihl,
                got: b.len(),
            });
        }
        let total = pkt.total_len() as usize;
        if total < ihl {
            return Err(Error::Malformed {
                layer: "ipv4",
                what: "total length below header length",
            });
        }
        if b.len() < total {
            return Err(Error::Truncated {
                layer: "ipv4",
                needed: total,
                got: b.len(),
            });
        }
        Ok(pkt)
    }

    /// Header length in bytes (IHL × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[0] & 0x0f) * 4
    }

    /// Total length field (header + payload).
    pub(crate) fn total_len(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[2], b[3]])
    }

    /// Identification field.
    pub fn ident(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[4], b[5]])
    }

    /// Time to live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[8]
    }

    /// Encapsulated protocol number (17 for UDP).
    pub fn protocol(&self) -> u8 {
        self.buffer.as_ref()[9]
    }

    /// Source address.
    pub fn src(&self) -> [u8; 4] {
        let b = self.buffer.as_ref();
        [b[12], b[13], b[14], b[15]]
    }

    /// Destination address.
    pub fn dst(&self) -> [u8; 4] {
        let b = self.buffer.as_ref();
        [b[16], b[17], b[18], b[19]]
    }

    /// Verifies the header checksum.
    pub fn verify_checksum(&self) -> bool {
        checksum::verify(&self.buffer.as_ref()[..self.header_len()])
    }

    /// Payload bytes, as delimited by the total-length field.
    pub fn payload(&self) -> &[u8] {
        let hl = self.header_len();
        let total = self.total_len() as usize;
        &self.buffer.as_ref()[hl..total]
    }
}

/// Owned IPv4 header representation (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Repr {
    /// Source address.
    pub src: [u8; 4],
    /// Destination address.
    pub dst: [u8; 4],
    /// Encapsulated protocol number.
    pub protocol: u8,
    /// Payload length in bytes (excluding the IPv4 header).
    pub payload_len: usize,
    /// Time to live.
    pub ttl: u8,
    /// Identification field (used by the simulator for packet ids).
    pub ident: u16,
}

impl Ipv4Repr {
    /// Parses the fields relevant to this library out of a packet view.
    pub fn parse<T: AsRef<[u8]>>(pkt: &Ipv4Packet<T>) -> Self {
        Self {
            src: pkt.src(),
            dst: pkt.dst(),
            protocol: pkt.protocol(),
            payload_len: pkt.total_len() as usize - pkt.header_len(),
            ttl: pkt.ttl(),
            ident: pkt.ident(),
        }
    }

    /// Serialized header length (always 20: options are never emitted).
    pub fn header_len(&self) -> usize {
        MIN_HEADER_LEN
    }

    /// Writes a 20-byte header with a valid checksum into `buf`.
    ///
    /// # Panics
    /// Panics if `buf` is shorter than 20 bytes or the total length
    /// overflows 16 bits.
    pub fn emit(&self, buf: &mut [u8]) {
        let total = MIN_HEADER_LEN + self.payload_len;
        assert!(total <= usize::from(u16::MAX), "ipv4 total length overflow");
        buf[0] = 0x45; // version 4, IHL 5
        buf[1] = 0;
        buf[2..4].copy_from_slice(&(total as u16).to_be_bytes());
        buf[4..6].copy_from_slice(&self.ident.to_be_bytes());
        buf[6] = 0x40; // DF set, as WebRTC stacks do to avoid fragmentation
        buf[7] = 0;
        buf[8] = self.ttl;
        buf[9] = self.protocol;
        buf[10] = 0;
        buf[11] = 0;
        buf[12..16].copy_from_slice(&self.src);
        buf[16..20].copy_from_slice(&self.dst);
        let ck = checksum::checksum(&buf[..MIN_HEADER_LEN]);
        buf[10..12].copy_from_slice(&ck.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_repr() -> Ipv4Repr {
        Ipv4Repr {
            src: [10, 0, 0, 1],
            dst: [10, 0, 0, 2],
            protocol: crate::IP_PROTO_UDP,
            payload_len: 8,
            ttl: 64,
            ident: 0x1234,
        }
    }

    #[test]
    fn roundtrip() {
        let repr = sample_repr();
        let mut buf = vec![0u8; MIN_HEADER_LEN + 8];
        repr.emit(&mut buf);
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(pkt.src(), [10, 0, 0, 1]);
        assert_eq!(pkt.dst(), [10, 0, 0, 2]);
        assert_eq!(pkt.protocol(), 17);
        assert_eq!(pkt.ttl(), 64);
        assert_eq!(pkt.ident(), 0x1234);
        assert_eq!(pkt.total_len(), 28);
        assert!(pkt.verify_checksum());
        // DF set; MF clear and offset 0, so the datagram is unfragmented.
        assert_eq!(&buf[6..8], &[0x40, 0]);
        assert_eq!(Ipv4Repr::parse(&pkt), repr);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = [0u8; MIN_HEADER_LEN];
        buf[0] = 0x65; // version 6
        buf[2..4].copy_from_slice(&20u16.to_be_bytes());
        assert!(matches!(
            Ipv4Packet::new_checked(&buf[..]),
            Err(Error::Malformed {
                what: "version is not 4",
                ..
            })
        ));
    }

    #[test]
    fn rejects_short_buffer() {
        assert!(matches!(
            Ipv4Packet::new_checked(&[0x45u8; 10][..]),
            Err(Error::Truncated { layer: "ipv4", .. })
        ));
    }

    #[test]
    fn rejects_total_len_beyond_buffer() {
        let mut buf = [0u8; MIN_HEADER_LEN];
        buf[0] = 0x45;
        buf[2..4].copy_from_slice(&100u16.to_be_bytes());
        assert!(matches!(
            Ipv4Packet::new_checked(&buf[..]),
            Err(Error::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_total_len_below_header() {
        let mut buf = [0u8; MIN_HEADER_LEN];
        buf[0] = 0x45;
        buf[2..4].copy_from_slice(&10u16.to_be_bytes());
        assert!(matches!(
            Ipv4Packet::new_checked(&buf[..]),
            Err(Error::Malformed { .. })
        ));
    }

    #[test]
    fn rejects_bad_ihl() {
        let mut buf = [0u8; MIN_HEADER_LEN];
        buf[0] = 0x44; // IHL = 4 words
        buf[2..4].copy_from_slice(&20u16.to_be_bytes());
        assert!(matches!(
            Ipv4Packet::new_checked(&buf[..]),
            Err(Error::Malformed { .. })
        ));
    }

    #[test]
    fn corrupted_checksum_detected() {
        let repr = sample_repr();
        let mut buf = vec![0u8; MIN_HEADER_LEN + 8];
        repr.emit(&mut buf);
        buf[8] ^= 0xff; // flip TTL
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(!pkt.verify_checksum());
    }

    #[test]
    fn payload_respects_total_len() {
        let repr = Ipv4Repr {
            payload_len: 4,
            ..sample_repr()
        };
        // Buffer longer than total length (e.g. Ethernet padding).
        let mut buf = vec![0u8; MIN_HEADER_LEN + 10];
        repr.emit(&mut buf);
        buf[MIN_HEADER_LEN..MIN_HEADER_LEN + 4].copy_from_slice(&[1, 2, 3, 4]);
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(pkt.payload(), &[1, 2, 3, 4]);
    }
}
