//! # vcaml-netpkt — packet substrate
//!
//! Byte-level codecs for the protocol layers the QoE-inference pipeline
//! observes (Ethernet II, IPv4, IPv6, UDP), a [`CapturedPacket`] model that
//! carries capture timestamps alongside decoded headers, and a classic
//! libpcap file reader/writer so traces can be exchanged with tcpdump and
//! Wireshark.
//!
//! The design follows smoltcp's convention: each protocol has a cheap
//! *view* type wrapping a byte slice (`Ipv4Packet<&[u8]>` style accessors)
//! plus an owned *repr* struct (`Ipv4Repr`) used when constructing packets.
//! The receive path is one fused pass, [`UdpHeaders::parse`], which borrows
//! the payload from the capture buffer: nothing there allocates.
//!
//! Downstream crates only ever consume IP/UDP header fields — packet sizes,
//! timestamps and the 5-tuple — which is exactly the measurement model of
//! the paper ("a network operator ... uses only IP and UDP headers").

pub mod checksum;
pub mod error;
pub mod ethernet;
pub mod flow;
pub mod ipv4;
pub mod ipv6;
pub mod packet;
pub mod pcap;
pub mod udp;

pub use error::{Error, Result};
pub use ethernet::{EtherType, EthernetFrame, EthernetRepr, MacAddr};
pub use flow::{FlowDirection, FlowKey};
pub use ipv4::{Ipv4Packet, Ipv4Repr};
pub use ipv6::{Ipv6Packet, Ipv6Repr};
pub use packet::{CapturedPacket, Timestamp, UdpDatagram, UdpHeaders};
pub use pcap::{LinkType, PcapReader, PcapWriter};
pub use udp::{UdpPacket, UdpRepr};

/// IP protocol number for UDP (RFC 768).
pub const IP_PROTO_UDP: u8 = 17;
