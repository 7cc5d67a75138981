//! Seeded input generators: every workload's capture image is a classic
//! pcap file built in memory from `--seed`, so the program under test
//! receives nothing but bytes a tap could have written.
//!
//! Frames are always full length: `Ipv4Packet::new_checked` rejects a
//! record cut short by a snap length, and a benchmark whose every packet
//! is a parse drop measures nothing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Arc;
use vcaml_netem::{synth_ndt_schedule, LinkConfig};
use vcaml_netpkt::{
    EtherType, EthernetRepr, FlowKey, Ipv4Repr, Ipv6Repr, LinkType, MacAddr, PcapWriter, Timestamp,
    UdpRepr, IP_PROTO_UDP,
};
use vcaml_rtp::VcaKind;
use vcaml_vcasim::{Session, SessionConfig, VcaProfile};

/// The VCA every workload simulates and every monitor is configured for.
pub const VCA: VcaKind = VcaKind::Teams;

const ETH_LEN: usize = 14;
const IP4_LEN: usize = 20;
const IP6_LEN: usize = 40;
const UDP_LEN: usize = 8;
const IP_PROTO_TCP: u8 = 6;

const SERVER: [u8; 4] = [203, 0, 113, 10];
const SERVER_PORT: u16 = 3478;

/// One generated capture: the pcap bytes plus what the generator knows
/// about them (never shown to the monitor).
pub struct Image {
    /// The pcap file image, shared so each replay reads it without a copy.
    pub bytes: Arc<[u8]>,
    /// Records in the image.
    pub records: u64,
    /// Records a UDP monitor cannot ingest: one `ParseDrop` each.
    pub rejects: u64,
    /// Distinct UDP flows among the ingestable records.
    pub flows: u64,
    /// Ground-truth frames per second of every simulated call, by flow
    /// and by second from stream start.
    pub truth: HashMap<FlowKey, Vec<f64>>,
}

#[cfg(test)]
impl Image {
    /// FNV-1a over the whole image: equal seeds must give equal digests.
    pub fn digest(&self) -> u64 {
        fnv1a(FNV_OFFSET, &self.bytes)
    }
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a state.
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state = (state ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// A frame waiting to be written: records are merged in capture order
/// (stable, so equal timestamps keep generation order).
type Item = (Timestamp, Vec<u8>);

#[derive(Default)]
struct Builder {
    items: Vec<Item>,
    rejects: u64,
    flows: u64,
    truth: HashMap<FlowKey, Vec<f64>>,
}

impl Builder {
    fn finish(mut self) -> Image {
        self.items.sort_by_key(|(ts, _)| *ts);
        let bytes: usize = self.items.iter().map(|(_, f)| 16 + f.len()).sum();
        let mut writer = PcapWriter::new(Vec::with_capacity(24 + bytes), LinkType::Ethernet)
            .expect("writing to a Vec cannot fail");
        for (ts, frame) in &self.items {
            writer
                .write_packet(*ts, frame)
                .expect("writing to a Vec cannot fail");
        }
        Image {
            bytes: writer
                .finish()
                .expect("writing to a Vec cannot fail")
                .into(),
            records: self.items.len() as u64,
            rejects: self.rejects,
            flows: self.flows,
            truth: self.truth,
        }
    }

    /// `n` concurrent simulated calls of `secs` seconds, each on its own
    /// client endpoint, under a seeded NDT-like condition schedule.
    fn calls(&mut self, n: usize, secs: u32, seed: u64) {
        for call in 0..n {
            let call_seed = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(call as u64);
            let session = Session::new(SessionConfig {
                profile: VcaProfile::lab(VCA),
                schedule: synth_ndt_schedule(call as u64, secs as usize),
                duration_secs: secs,
                seed: call_seed ^ 0xca11,
                link: LinkConfig::default(),
            })
            .run();
            let client = [10, 1, (call / 250) as u8, (call % 250) as u8 + 1];
            let client_port = 51_820 + call as u16;
            for cap in session.to_captured() {
                self.items.push((
                    cap.ts,
                    udp4_frame(
                        SERVER,
                        SERVER_PORT,
                        client,
                        client_port,
                        &cap.datagram.payload,
                    ),
                ));
            }
            let (flow, _) = FlowKey::canonical(
                IpAddr::from(SERVER),
                SERVER_PORT,
                IpAddr::from(client),
                client_port,
                IP_PROTO_UDP,
            );
            let mut fps = vec![0.0; secs as usize];
            for row in &session.truth {
                if let Some(slot) = usize::try_from(row.second)
                    .ok()
                    .and_then(|s| fps.get_mut(s))
                {
                    *slot = row.fps;
                }
            }
            self.truth.insert(flow, fps);
        }
        self.flows += n as u64;
    }

    /// `flows` short UDP flows of `pkts` packets (60–300 B at the IP
    /// layer), starts uniform over `secs` seconds, both directions.
    fn short_flows(&mut self, flows: usize, pkts: usize, secs: u32, rng: &mut StdRng) {
        for f in 0..flows {
            let client = [172, 16 + ((f >> 16) & 0x0f) as u8, (f >> 8) as u8, f as u8];
            let client_port = rng.gen_range(1024..=u16::MAX);
            let server = [198, 51, 100, 1 + (f % 200) as u8];
            let mut ts = rng.gen_range(0..i64::from(secs) * 1_000_000);
            for p in 0..pkts {
                let payload = vec![0u8; rng.gen_range(60..=300) - IP4_LEN - UDP_LEN];
                let frame = if p % 2 == 0 {
                    udp4_frame(client, client_port, server, 443, &payload)
                } else {
                    udp4_frame(server, 443, client, client_port, &payload)
                };
                self.items.push((Timestamp::from_micros(ts), frame));
                ts += rng.gen_range(5_000..50_000);
            }
        }
        self.flows += flows as u64;
    }

    /// `n` IPv6/UDP packets on a handful of flows.
    fn ipv6_udp(&mut self, n: usize, secs: u32, rng: &mut StdRng) {
        let mut seen = [false; 33];
        for _ in 0..n {
            let host = rng.gen_range(1..=32u8);
            if !std::mem::replace(&mut seen[usize::from(host)], true) {
                self.flows += 1;
            }
            let payload_len = rng.gen_range(20..=400usize);
            let mut frame = vec![0u8; ETH_LEN + IP6_LEN + UDP_LEN + payload_len];
            ethernet(EtherType::Ipv6).emit(&mut frame);
            let mut src = [0u8; 16];
            src[..2].copy_from_slice(&[0x20, 0x01]);
            src[15] = host;
            let mut dst = src;
            dst[15] = 0xfe;
            Ipv6Repr {
                src,
                dst,
                next_header: IP_PROTO_UDP,
                payload_len: UDP_LEN + payload_len,
                hop_limit: 64,
            }
            .emit(&mut frame[ETH_LEN..]);
            let udp = &mut frame[ETH_LEN + IP6_LEN..];
            udp[0..2].copy_from_slice(&(40_000 + u16::from(host)).to_be_bytes());
            udp[2..4].copy_from_slice(&443u16.to_be_bytes());
            udp[4..6].copy_from_slice(&((UDP_LEN + payload_len) as u16).to_be_bytes());
            self.items.push((uniform_ts(secs, rng), frame));
        }
    }

    /// `n` records a UDP monitor cannot ingest: TCP segments, ARP, IPv4
    /// fragments and truncated runts — one `ParseDrop` each.
    fn not_ingestable(&mut self, n: usize, secs: u32, rng: &mut StdRng) {
        for _ in 0..n {
            let host = [192, 168, rng.gen_range(0..8u8), rng.gen_range(1..=250u8)];
            let frame = match rng.gen_range(0..100u32) {
                0..=59 => ip4_frame(
                    host,
                    [151, 101, 1, 69],
                    IP_PROTO_TCP,
                    rng.gen_range(20..=1200),
                ),
                60..=64 => {
                    let mut frame = vec![0u8; ETH_LEN + 46];
                    ethernet(EtherType::Arp).emit(&mut frame);
                    frame
                }
                65..=84 => {
                    let mut frame = ip4_frame(host, SERVER, IP_PROTO_UDP, 1480);
                    frame[ETH_LEN + 6] = 0x20; // more-fragments
                    frame
                }
                _ => {
                    let mut frame = ip4_frame(host, SERVER, IP_PROTO_UDP, 64);
                    frame.truncate(rng.gen_range(1..ETH_LEN + IP4_LEN));
                    frame
                }
            };
            self.items.push((uniform_ts(secs, rng), frame));
        }
        self.rejects += n as u64;
    }
}

fn uniform_ts(secs: u32, rng: &mut StdRng) -> Timestamp {
    Timestamp::from_micros(rng.gen_range(0..i64::from(secs) * 1_000_000))
}

fn ethernet(ethertype: EtherType) -> EthernetRepr {
    EthernetRepr {
        src: MacAddr([0x02, 0, 0, 0, 0, 0x01]),
        dst: MacAddr([0x02, 0, 0, 0, 0, 0x02]),
        ethertype,
    }
}

/// Ethernet + IPv4 header around `payload_len` zero bytes.
fn ip4_frame(src: [u8; 4], dst: [u8; 4], protocol: u8, payload_len: usize) -> Vec<u8> {
    let mut frame = vec![0u8; ETH_LEN + IP4_LEN + payload_len];
    ethernet(EtherType::Ipv4).emit(&mut frame);
    Ipv4Repr {
        src,
        dst,
        protocol,
        payload_len,
        ttl: 58,
        ident: 0,
    }
    .emit(&mut frame[ETH_LEN..]);
    frame
}

fn udp4_frame(src: [u8; 4], src_port: u16, dst: [u8; 4], dst_port: u16, payload: &[u8]) -> Vec<u8> {
    let mut frame = ip4_frame(src, dst, IP_PROTO_UDP, UDP_LEN + payload.len());
    frame[ETH_LEN + IP4_LEN + UDP_LEN..].copy_from_slice(payload);
    UdpRepr { src_port, dst_port }.emit_v4(
        &mut frame[ETH_LEN + IP4_LEN..],
        payload.len(),
        src,
        dst,
    );
    frame
}

/// `calls_heuristic`, `calls_ml`, `live_paced`: 16 concurrent 30-second
/// calls and nothing else.
pub fn calls_image(seed: u64) -> Image {
    let mut b = Builder::default();
    b.calls(16, 30, seed);
    b.finish()
}

/// Calls that ride along in `flow_churn` so accuracy is measured while
/// the table churns around them.
pub const CHURN_CALLS: usize = 8;
/// Short flows in `flow_churn`.
pub const CHURN_FLOWS: usize = 40_000;

/// `flow_churn`: 40 000 twelve-packet flows starting uniformly over 60 s
/// of stream time, around a few long-lived calls.
pub fn churn_image(seed: u64) -> Image {
    let mut b = Builder::default();
    b.calls(CHURN_CALLS, 60, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4_0012);
    b.short_flows(CHURN_FLOWS, 12, 60, &mut rng);
    b.finish()
}

/// Calls in `tap_mixed`.
pub const TAP_CALLS: usize = 8;
/// Share of `tap_mixed` records a UDP monitor cannot ingest.
pub const TAP_REJECT_SHARE: f64 = 0.7;

/// `tap_mixed`: calls interleaved with what else a tap sees.
pub fn tap_image(seed: u64) -> Image {
    let mut b = Builder::default();
    b.calls(TAP_CALLS, 30, seed);
    let call_records = b.items.len();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7a_9000);
    let small = call_records / 8;
    b.short_flows(small / 4, 4, 30, &mut rng);
    b.ipv6_udp(small, 30, &mut rng);
    let ingestable = b.items.len() as f64;
    let rejects = (ingestable * TAP_REJECT_SHARE / (1.0 - TAP_REJECT_SHARE)).round() as usize;
    b.not_ingestable(rejects, 30, &mut rng);
    b.finish()
}

/// A few seconds of two calls under some background: what the unit
/// tests of the passes replay, since they run unoptimised.
#[cfg(test)]
pub fn small_image(seed: u64) -> Image {
    let mut b = Builder::default();
    b.calls(2, 5, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    b.short_flows(20, 4, 5, &mut rng);
    b.ipv6_udp(50, 5, &mut rng);
    b.not_ingestable(500, 5, &mut rng);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = tap_image(3);
        let b = tap_image(3);
        let c = tap_image(4);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.records, b.records);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn tap_image_is_mostly_not_ingestable() {
        let image = tap_image(1);
        let mut reader =
            vcaml_netpkt::PcapReader::new(std::io::Cursor::new(&image.bytes[..])).unwrap();
        let mut rejected = 0u64;
        while let Some(record) = reader.next_record().unwrap() {
            if !matches!(
                vcaml_netpkt::UdpDatagram::parse_shared(&record.data),
                Ok(Some(_))
            ) {
                rejected += 1;
            }
        }
        let share = rejected as f64 / image.records as f64;
        assert!((share - TAP_REJECT_SHARE).abs() < 0.01, "{share}");
        assert_eq!(image.truth.len(), TAP_CALLS);
    }
}
