//! Simulated traffic as wire bytes: the classic pcap file a tap on the
//! receiver's access link would have written.
//!
//! The monitor takes nothing but bytes, so this is how simulated calls
//! reach it: [`render_pcap`] frames decoded captures as Ethernet II /
//! IPv4 / UDP records, and [`synthetic_capture`] renders a mix of
//! concurrent calls, each on its own client endpoint.

use crate::{Session, SessionConfig, VcaProfile};
use std::net::{IpAddr, Ipv4Addr};
use vcaml_netem::{synth_ndt_schedule, LinkConfig};
use vcaml_netpkt::{
    CapturedPacket, Error, EtherType, EthernetRepr, Ipv4Repr, LinkType, MacAddr, PcapWriter,
    UdpRepr, IP_PROTO_UDP,
};
use vcaml_rtp::VcaKind;

const ETH_LEN: usize = 14;
const IP4_LEN: usize = 20;
const UDP_LEN: usize = 8;
/// Per-record header of the pcap format.
const RECORD_LEN: usize = 16;

/// Client port of call 0 in [`synthetic_capture`]; call `i` uses
/// `CLIENT_PORT + i`.
const CLIENT_PORT: u16 = 51_820;

/// The most calls [`synthetic_capture`] takes: one client port each,
/// from 51 820 up to 65 535.
pub const MAX_SYNTHETIC_CALLS: usize = (u16::MAX - CLIENT_PORT) as usize + 1;

/// Renders captures as a classic pcap image (`LINKTYPE_ETHERNET`), one
/// Ethernet II / IPv4 / UDP record per capture, in the order given.
/// Reading the image back yields each datagram's addresses, ports,
/// payload and IP size unchanged.
///
/// Fails on a datagram it cannot frame that way: an IPv6 address, or an
/// IP size other than the IPv4 and UDP headers plus the payload (what
/// [`SessionTrace::to_captured`](crate::SessionTrace::to_captured)
/// stores); and on a timestamp the format cannot hold (before 1970 or
/// after 2106).
pub fn render_pcap(packets: &[CapturedPacket]) -> Result<Vec<u8>, Error> {
    let eth = EthernetRepr {
        src: MacAddr([0x02, 0, 0, 0, 0, 0x01]),
        dst: MacAddr([0x02, 0, 0, 0, 0, 0x02]),
        ethertype: EtherType::Ipv4,
    };
    let image_len: usize = packets
        .iter()
        .map(|cap| RECORD_LEN + ETH_LEN + usize::from(cap.size()))
        .sum();
    let mut writer = PcapWriter::new(Vec::with_capacity(24 + image_len), LinkType::Ethernet)?;
    let mut frame = Vec::new();
    for cap in packets {
        let dg = &cap.datagram;
        let (IpAddr::V4(src), IpAddr::V4(dst)) = (dg.src, dg.dst) else {
            return Err(Error::Malformed {
                layer: "ip",
                what: "only IPv4 datagrams are rendered",
            });
        };
        let (src, dst) = (src.octets(), dst.octets());
        let udp_len = UDP_LEN + dg.payload.len();
        if usize::from(dg.ip_total_len) != IP4_LEN + udp_len {
            return Err(Error::Malformed {
                layer: "ip",
                what: "total length is not the headers plus the payload",
            });
        }
        frame.clear();
        frame.resize(ETH_LEN + IP4_LEN + udp_len, 0);
        eth.emit(&mut frame);
        Ipv4Repr {
            src,
            dst,
            protocol: IP_PROTO_UDP,
            payload_len: udp_len,
            ttl: 58,
            ident: 0,
        }
        .emit(&mut frame[ETH_LEN..]);
        frame[ETH_LEN + IP4_LEN + UDP_LEN..].copy_from_slice(&dg.payload);
        UdpRepr {
            src_port: dg.src_port,
            dst_port: dg.dst_port,
        }
        .emit_v4(&mut frame[ETH_LEN + IP4_LEN..], dg.payload.len(), src, dst);
        writer.write_packet(cap.ts, &frame)?;
    }
    writer.finish()
}

/// `calls` concurrent `secs`-second calls of one VCA under NDT-like
/// network conditions, as a pcap image ([`render_pcap`]) in arrival
/// order, like a tap on a mixed access link.
///
/// Each call is rewritten onto its own client endpoint, so the monitor
/// demuxes the calls like distinct households. `seed` varies the
/// network schedule, the codec randomness *and* the client addresses:
/// images with distinct seeds (mod 200) share no flow, which is what
/// feeding several of them into one runner needs (a flow must not span
/// sources).
///
/// # Panics
/// Panics if `calls` exceeds [`MAX_SYNTHETIC_CALLS`].
pub fn synthetic_capture(vca: VcaKind, secs: u32, calls: usize, seed: u64) -> Vec<u8> {
    assert!(calls <= MAX_SYNTHETIC_CALLS, "more calls than client ports");
    let mut feed = Vec::new();
    for call in 0..calls {
        let session = Session::new(SessionConfig {
            profile: VcaProfile::lab(vca),
            schedule: synth_ndt_schedule(seed + call as u64, secs as usize),
            duration_secs: secs,
            seed: seed.wrapping_mul(1000) + call as u64,
            link: LinkConfig::default(),
        })
        .run();
        // Below MAX_SYNTHETIC_CALLS, both the port and the third octet
        // (at most 137) fit.
        let client = IpAddr::V4(Ipv4Addr::new(
            10,
            (seed % 200) as u8 + 1,
            (call / 100) as u8,
            (call % 100) as u8 + 1,
        ));
        let client_port = CLIENT_PORT + call as u16;
        for mut cap in session.to_captured() {
            cap.datagram.dst = client;
            cap.datagram.dst_port = client_port;
            feed.push(cap);
        }
    }
    feed.sort_by_key(|c| c.ts);
    #[expect(
        clippy::expect_used,
        reason = "simulated datagrams are IPv4, sized by to_captured and stamped from 0 s"
    )]
    render_pcap(&feed).expect("simulated captures render")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SessionTrace;
    use vcaml_netpkt::{PcapReader, Timestamp, UdpHeaders};

    fn records(image: &[u8]) -> Vec<(Timestamp, Vec<u8>)> {
        let mut reader = PcapReader::new(image).unwrap();
        assert_eq!(reader.link_type(), LinkType::Ethernet);
        let mut out = Vec::new();
        while let Some(rec) = reader.next_record().unwrap() {
            out.push((rec.ts, rec.data.to_vec()));
        }
        out
    }

    fn session(vca: VcaKind, secs: u32, seed: u64) -> SessionTrace {
        Session::new(SessionConfig {
            profile: VcaProfile::lab(vca),
            schedule: synth_ndt_schedule(seed, secs as usize),
            duration_secs: secs,
            seed,
            link: LinkConfig::default(),
        })
        .run()
    }

    #[test]
    fn rendered_records_parse_back_to_the_captures() {
        let captured = session(VcaKind::Teams, 3, 5).to_captured();
        let recs = records(&render_pcap(&captured).unwrap());
        assert_eq!(recs.len(), captured.len());
        for (cap, (ts, frame)) in captured.iter().zip(&recs) {
            let h = UdpHeaders::parse(frame).unwrap().unwrap();
            assert_eq!(*ts, cap.ts);
            assert_eq!(h.flow_key(), cap.datagram.flow_key());
            assert_eq!(h.ip_total_len, cap.size());
            assert_eq!(h.payload, &cap.datagram.payload[..]);
        }
    }

    #[test]
    fn unrenderable_datagrams_are_refused() {
        let cap = session(VcaKind::Webex, 1, 2).to_captured().remove(0);
        let mut v6 = cap.clone();
        v6.datagram.dst = "2001:db8::1".parse().unwrap();
        let mut sized = cap.clone();
        sized.datagram.ip_total_len += 1;
        let mut early = cap;
        early.ts = Timestamp::from_micros(-1);
        for bad in [v6, sized, early] {
            assert!(render_pcap(&[bad]).is_err());
        }
    }

    #[test]
    fn synthetic_capture_interleaves_distinct_calls() {
        let recs = records(&synthetic_capture(VcaKind::Meet, 2, 3, 11));
        let mut clients = std::collections::HashSet::new();
        assert!(recs.len() > 100, "three calls of traffic");
        assert!(recs.windows(2).all(|w| w[0].0 <= w[1].0), "arrival order");
        for (_, frame) in &recs {
            let h = UdpHeaders::parse(frame).unwrap().unwrap();
            clients.insert((h.dst, h.dst_port));
        }
        assert_eq!(clients.len(), 3, "one client endpoint per call");
    }
}
