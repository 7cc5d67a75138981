//! Ethernet II frame codec.

use crate::error::{Error, Result};
use std::fmt;

/// Length of the Ethernet II header (dst + src + ethertype).
pub const HEADER_LEN: usize = 14;

/// A 48-bit IEEE 802 MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// The EtherType values this library distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// 0x0800 — IPv4.
    Ipv4,
    /// 0x86dd — IPv6.
    Ipv6,
    /// 0x0806 — ARP.
    Arp,
    /// Anything else, carried verbatim.
    Other(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x86dd => EtherType::Ipv6,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(t: EtherType) -> u16 {
        match t {
            EtherType::Ipv4 => 0x0800,
            EtherType::Ipv6 => 0x86dd,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }
}

/// Zero-copy view over an Ethernet II frame.
#[derive(Debug, Clone)]
pub struct EthernetFrame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> EthernetFrame<T> {
    /// Wraps a buffer, checking only that the fixed header fits.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let len = buffer.as_ref().len();
        if len < HEADER_LEN {
            return Err(Error::Truncated {
                layer: "ethernet",
                needed: HEADER_LEN,
                got: len,
            });
        }
        Ok(Self { buffer })
    }

    /// Destination MAC address.
    pub fn dst(&self) -> MacAddr {
        let b = self.buffer.as_ref();
        MacAddr([b[0], b[1], b[2], b[3], b[4], b[5]])
    }

    /// Source MAC address.
    pub fn src(&self) -> MacAddr {
        let b = self.buffer.as_ref();
        MacAddr([b[6], b[7], b[8], b[9], b[10], b[11]])
    }

    /// EtherType of the encapsulated protocol.
    pub fn ethertype(&self) -> EtherType {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[12], b[13]]).into()
    }

    /// The bytes after the Ethernet header.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..]
    }

    /// Consumes the view and returns the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }
}

/// Owned representation used to build frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetRepr {
    /// Source MAC address.
    pub src: MacAddr,
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Encapsulated protocol.
    pub ethertype: EtherType,
}

impl EthernetRepr {
    /// Parses the header fields out of a frame view.
    pub fn parse<T: AsRef<[u8]>>(frame: &EthernetFrame<T>) -> Self {
        Self {
            src: frame.src(),
            dst: frame.dst(),
            ethertype: frame.ethertype(),
        }
    }

    /// Serialized header length.
    pub fn header_len(&self) -> usize {
        HEADER_LEN
    }

    /// Writes the header into the first [`HEADER_LEN`] bytes of `buf`.
    ///
    /// # Panics
    /// Panics if `buf` is shorter than the header.
    pub fn emit(&self, buf: &mut [u8]) {
        buf[0..6].copy_from_slice(&self.dst.0);
        buf[6..12].copy_from_slice(&self.src.0);
        buf[12..14].copy_from_slice(&u16::from(self.ethertype).to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let repr = EthernetRepr {
            src: MacAddr([0x02, 0, 0, 0, 0, 0x01]),
            dst: MacAddr([0x02, 0, 0, 0, 0, 0x02]),
            ethertype: EtherType::Ipv4,
        };
        let mut buf = vec![0u8; HEADER_LEN + 4];
        repr.emit(&mut buf);
        buf[HEADER_LEN..].copy_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        buf
    }

    #[test]
    fn roundtrip() {
        let buf = sample();
        let frame = EthernetFrame::new_checked(&buf[..]).unwrap();
        assert_eq!(frame.src(), MacAddr([0x02, 0, 0, 0, 0, 0x01]));
        assert_eq!(frame.dst(), MacAddr([0x02, 0, 0, 0, 0, 0x02]));
        assert_eq!(frame.ethertype(), EtherType::Ipv4);
        assert_eq!(frame.payload(), &[0xde, 0xad, 0xbe, 0xef]);
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            EthernetFrame::new_checked(&[0u8; 13][..]),
            Err(Error::Truncated {
                layer: "ethernet",
                ..
            })
        ));
    }

    #[test]
    fn ethertype_mapping() {
        assert_eq!(u16::from(EtherType::Ipv6), 0x86dd);
        assert_eq!(EtherType::from(0x0806), EtherType::Arp);
        assert_eq!(EtherType::from(0x1234), EtherType::Other(0x1234));
        assert_eq!(u16::from(EtherType::Other(0x1234)), 0x1234);
    }

    #[test]
    fn mac_display_and_flags() {
        let m = MacAddr([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]);
        assert_eq!(m.to_string(), "de:ad:be:ef:00:01");
    }

    #[test]
    fn repr_parse_matches_emit() {
        let buf = sample();
        let frame = EthernetFrame::new_checked(&buf[..]).unwrap();
        let repr = EthernetRepr::parse(&frame);
        let mut out = vec![0u8; HEADER_LEN];
        repr.emit(&mut out);
        assert_eq!(&buf[..HEADER_LEN], &out[..]);
    }
}
