//! IPv6 header codec (RFC 8200). Extension headers are not interpreted;
//! the next-header value is surfaced as-is, which is sufficient for the
//! UDP-only traffic this library observes.

use crate::error::{Error, Result};

/// Fixed IPv6 header length.
pub const HEADER_LEN: usize = 40;

/// Zero-copy view over an IPv6 packet.
#[derive(Debug, Clone)]
pub struct Ipv6Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv6Packet<T> {
    /// Wraps a buffer, validating the version and payload length.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let pkt = Self { buffer };
        let b = pkt.buffer.as_ref();
        if b.len() < HEADER_LEN {
            return Err(Error::Truncated {
                layer: "ipv6",
                needed: HEADER_LEN,
                got: b.len(),
            });
        }
        if b[0] >> 4 != 6 {
            return Err(Error::Malformed {
                layer: "ipv6",
                what: "version is not 6",
            });
        }
        let total = HEADER_LEN + pkt.payload_len() as usize;
        if b.len() < total {
            return Err(Error::Truncated {
                layer: "ipv6",
                needed: total,
                got: b.len(),
            });
        }
        Ok(pkt)
    }

    /// Payload length field (everything after the fixed header).
    pub fn payload_len(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[4], b[5]])
    }

    /// Next-header protocol number.
    pub fn next_header(&self) -> u8 {
        self.buffer.as_ref()[6]
    }

    /// Hop limit.
    pub fn hop_limit(&self) -> u8 {
        self.buffer.as_ref()[7]
    }

    /// Source address.
    pub fn src(&self) -> [u8; 16] {
        let mut a = [0u8; 16];
        a.copy_from_slice(&self.buffer.as_ref()[8..24]);
        a
    }

    /// Destination address.
    pub fn dst(&self) -> [u8; 16] {
        let mut a = [0u8; 16];
        a.copy_from_slice(&self.buffer.as_ref()[24..40]);
        a
    }

    /// Payload bytes, as delimited by the payload-length field.
    pub fn payload(&self) -> &[u8] {
        let total = HEADER_LEN + self.payload_len() as usize;
        &self.buffer.as_ref()[HEADER_LEN..total]
    }
}

/// Owned IPv6 header representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv6Repr {
    /// Source address.
    pub src: [u8; 16],
    /// Destination address.
    pub dst: [u8; 16],
    /// Next-header protocol number.
    pub next_header: u8,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// Hop limit.
    pub hop_limit: u8,
}

impl Ipv6Repr {
    /// Parses the header fields out of a packet view.
    pub fn parse<T: AsRef<[u8]>>(pkt: &Ipv6Packet<T>) -> Self {
        Self {
            src: pkt.src(),
            dst: pkt.dst(),
            next_header: pkt.next_header(),
            payload_len: pkt.payload_len() as usize,
            hop_limit: pkt.hop_limit(),
        }
    }

    /// Serialized header length.
    pub fn header_len(&self) -> usize {
        HEADER_LEN
    }

    /// Writes the 40-byte header into `buf`.
    ///
    /// # Panics
    /// Panics if `buf` is shorter than 40 bytes or the payload length
    /// overflows 16 bits.
    pub fn emit(&self, buf: &mut [u8]) {
        assert!(
            self.payload_len <= usize::from(u16::MAX),
            "ipv6 payload length overflow"
        );
        buf[0] = 0x60;
        buf[1] = 0;
        buf[2] = 0;
        buf[3] = 0;
        buf[4..6].copy_from_slice(&(self.payload_len as u16).to_be_bytes());
        buf[6] = self.next_header;
        buf[7] = self.hop_limit;
        buf[8..24].copy_from_slice(&self.src);
        buf[24..40].copy_from_slice(&self.dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(last: u8) -> [u8; 16] {
        let mut a = [0u8; 16];
        a[0] = 0xfd;
        a[15] = last;
        a
    }

    #[test]
    fn roundtrip() {
        let repr = Ipv6Repr {
            src: addr(1),
            dst: addr(2),
            next_header: crate::IP_PROTO_UDP,
            payload_len: 8,
            hop_limit: 64,
        };
        let mut buf = vec![0u8; HEADER_LEN + 8];
        repr.emit(&mut buf);
        let pkt = Ipv6Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(pkt.src(), addr(1));
        assert_eq!(pkt.dst(), addr(2));
        assert_eq!(pkt.next_header(), 17);
        assert_eq!(pkt.hop_limit(), 64);
        assert_eq!(pkt.payload_len(), 8);
        assert_eq!(Ipv6Repr::parse(&pkt), repr);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = [0u8; HEADER_LEN];
        buf[0] = 0x45;
        assert!(matches!(
            Ipv6Packet::new_checked(&buf[..]),
            Err(Error::Malformed {
                what: "version is not 6",
                ..
            })
        ));
    }

    #[test]
    fn rejects_short_buffer() {
        assert!(matches!(
            Ipv6Packet::new_checked(&[0x60u8; 20][..]),
            Err(Error::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_payload_len_beyond_buffer() {
        let mut buf = [0u8; HEADER_LEN];
        buf[0] = 0x60;
        buf[4..6].copy_from_slice(&100u16.to_be_bytes());
        assert!(matches!(
            Ipv6Packet::new_checked(&buf[..]),
            Err(Error::Truncated { .. })
        ));
    }

    #[test]
    fn payload_trims_padding() {
        let repr = Ipv6Repr {
            src: addr(1),
            dst: addr(2),
            next_header: 17,
            payload_len: 3,
            hop_limit: 64,
        };
        let mut buf = vec![0u8; HEADER_LEN + 8];
        repr.emit(&mut buf);
        buf[HEADER_LEN..HEADER_LEN + 3].copy_from_slice(&[7, 8, 9]);
        let pkt = Ipv6Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(pkt.payload(), &[7, 8, 9]);
    }
}
