//! Property-based tests (proptest) on the core data structures and
//! invariants across the workspace.

use proptest::prelude::*;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;
use vcaml_suite::datasets::oracle::ipudp_frames;
use vcaml_suite::datasets::oracle::{
    microbursts, sorted_five, unique_sizes, windows_by_second, PktObs,
};
use vcaml_suite::features::stats::five_stats;
use vcaml_suite::features::{IpUdpFeatureAcc, StatsMode};
use vcaml_suite::mlcore::{percentile, ConfusionMatrix};
use vcaml_suite::netpkt::checksum::{checksum, verify, Checksum};
use vcaml_suite::netpkt::{
    FlowKey, Ipv4Packet, Ipv4Repr, LinkType, PcapReader, PcapWriter, Timestamp, UdpHeaders,
    UdpPacket, UdpRepr,
};
use vcaml_suite::rtp::VcaKind;
use vcaml_suite::rtp::{seq_distance, RtpHeader};
use vcaml_suite::vcaml::api::{EvictReason, ParseDropReason};
use vcaml_suite::vcaml::{AlertSink, AlertThresholds, EventSink, Severity};
use vcaml_suite::vcaml::{EstimationMethod, Method, MonitorBuilder, QoeEvent};
use vcaml_suite::vcaml::{Frame, HeuristicParams, QoeEstimate, TracePacket, WindowReport};
use vcaml_suite::vcasim::{packetize, FragmentPolicy};

/// A `Read` that hands over between 1 and `k` bytes per call, as a pipe
/// or a socket may.
struct Trickle<'a> {
    rest: &'a [u8],
    k: usize,
    state: u64,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        // xorshift64
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let n = (1 + self.state as usize % self.k)
            .min(buf.len())
            .min(self.rest.len());
        let (now, later) = self.rest.split_at(n);
        buf[..n].copy_from_slice(now);
        self.rest = later;
        Ok(n)
    }
}

/// The event line as `format!` and `Display` spell it — the semantics
/// the product's typed writer (`crates/core/src/json.rs`) must
/// reproduce byte for byte. It shares no code with that writer: std
/// prints every number and address here.
mod reference {
    use super::*;

    fn number(x: f64) -> String {
        if !x.is_finite() {
            "null".to_string()
        } else if x == x.trunc() && x.abs() < 9.0e15 {
            format!("{}", x as i64)
        } else {
            format!("{x}")
        }
    }

    fn flow(k: &FlowKey) -> String {
        let FlowKey {
            addr_a,
            port_a,
            addr_b,
            port_b,
            protocol,
        } = k;
        format!("\"{addr_a}:{port_a} <-> {addr_b}:{port_b} proto {protocol}\"")
    }

    fn report(r: &WindowReport) -> String {
        let null = || "null".to_string();
        let estimate = r.estimate.map_or_else(null, |e| {
            format!(
                r#"{{"bitrate_kbps":{},"fps":{},"frame_jitter_ms":{}}}"#,
                number(e.bitrate_kbps),
                number(e.fps),
                number(e.frame_jitter_ms)
            )
        });
        let features = r.features.as_ref().map_or_else(null, |v| {
            let items: Vec<String> = v.iter().map(|x| number(*x)).collect();
            format!("[{}]", items.join(","))
        });
        format!(
            r#"{{"window":{},"method":"{:?}","estimate":{estimate},"features":{features},"model_fps":{},"video_packets":{}}}"#,
            r.window,
            r.method,
            r.model_fps.map_or_else(null, number),
            r.video_packets
        )
    }

    pub fn line(event: &QoeEvent) -> String {
        let body = match event {
            QoeEvent::FlowOpened { flow: k, ts } => {
                format!(
                    r#""flow_opened","flow":{},"ts_us":{}"#,
                    flow(k),
                    ts.as_micros()
                )
            }
            QoeEvent::WindowReport {
                flow: k,
                report: r,
                provisional,
            } => format!(
                r#""window_report","flow":{},"provisional":{provisional},"report":{}"#,
                flow(k),
                report(r)
            ),
            QoeEvent::FlowEvicted {
                flow: k,
                reason,
                final_reports,
            } => {
                let reason = match reason {
                    EvictReason::Idle => "idle",
                    EvictReason::EndOfStream => "end_of_stream",
                    EvictReason::Requested => "requested",
                };
                let tail: Vec<String> = final_reports.iter().map(report).collect();
                format!(
                    r#""flow_evicted","flow":{},"reason":"{reason}","final_reports":[{}]"#,
                    flow(k),
                    tail.join(",")
                )
            }
            QoeEvent::ParseDrops {
                first_ts,
                last_ts,
                by_reason,
            } => {
                let tags = ["truncated", "malformed", "not_udp", "negative_timestamp"];
                let reasons: Vec<String> = tags
                    .iter()
                    .zip(by_reason)
                    .map(|(tag, n)| format!(r#""{tag}":{n}"#))
                    .collect();
                format!(
                    r#""parse_drop","first_ts_us":{},"last_ts_us":{},"count":{},"by_reason":{{{}}}"#,
                    first_ts.as_micros(),
                    last_ts.as_micros(),
                    by_reason.iter().sum::<u64>(),
                    reasons.join(",")
                )
            }
            QoeEvent::Dropped { count, per_flow } => {
                let shed: Vec<String> = per_flow
                    .iter()
                    .map(|(k, n)| format!("{}:{n}", flow(k)))
                    .collect();
                let per_flow = match shed.is_empty() {
                    true => String::new(),
                    false => format!(r#","per_flow":{{{}}}"#, shed.join(",")),
                };
                format!(r#""dropped","count":{count}{per_flow}"#)
            }
        };
        format!(r#"{{"type":{body}}}"#)
    }
}

/// Draws the events [`reference::line`] is checked against: every
/// variant and reason shape, over the values where a hand-written
/// number or address printer goes wrong first.
struct EventGen(u64);

impl EventGen {
    fn next(&mut self) -> u64 {
        // xorshift64*
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[(self.next() % from.len() as u64) as usize]
    }

    /// An edge value half the time, anything at all otherwise.
    fn uint(&mut self) -> u64 {
        let any = self.next();
        self.pick(&[
            0,
            9,
            10,
            99,
            100,
            (1 << 53) + 1,
            u64::MAX,
            any,
            any >> 32,
            any >> 48,
        ])
    }

    fn float(&mut self) -> f64 {
        let any = f64::from_bits(self.next());
        let ordinary = (self.next() % 4_000_000) as f64 / 1000.0 - 1000.0;
        self.pick(&[
            0.0,
            -0.0,
            30.0,
            -2.0,
            f64::MIN_POSITIVE / 4.0,
            5e-324,
            9e15 - 1.0,
            9e15,
            9e15 + 1.0,
            -9e15,
            1e21,
            1.5e-7,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            any,
            ordinary,
            ordinary / 7.0,
        ])
    }

    fn addr(&mut self) -> IpAddr {
        let bytes = ((self.next() as u128) << 64 | self.next() as u128).to_be_bytes();
        let v4 = [bytes[0], bytes[1], bytes[2], bytes[3]];
        self.pick(&[
            IpAddr::from(v4),
            IpAddr::from(v4),
            IpAddr::from([0, 9, 10, 99]),
            IpAddr::from([100, 199, 200, 255]),
            IpAddr::from(bytes),
            IpAddr::from(Ipv4Addr::from(v4).to_ipv6_mapped()),
            IpAddr::from([0u8; 16]),
            IpAddr::from(0x2001_0db8_0000_0000_0000_0000_0000_0001_u128.to_be_bytes()),
        ])
    }

    fn flow(&mut self) -> FlowKey {
        let any = self.next();
        FlowKey {
            addr_a: self.addr(),
            port_a: self.pick(&[0, 65535, 3478, any as u16]),
            addr_b: self.addr(),
            port_b: self.pick(&[0, 65535, 9, (any >> 16) as u16]),
            protocol: self.pick(&[17, 0, 255, (any >> 32) as u8]),
        }
    }

    fn report(&mut self) -> WindowReport {
        let n_features = self.pick(&[0, 1, 14, 24]);
        WindowReport {
            window: self.uint(),
            method: self.pick(&Method::ALL),
            estimate: self.pick(&[true, true, false]).then(|| QoeEstimate {
                bitrate_kbps: self.float(),
                fps: self.float(),
                frame_jitter_ms: self.float(),
            }),
            features: self
                .pick(&[true, false])
                .then(|| (0..n_features).map(|_| self.float()).collect()),
            model_fps: self.pick(&[true, false]).then(|| self.float()),
            video_packets: self.uint() as usize,
        }
    }

    fn event(&mut self) -> QoeEvent {
        let any = self.next() as i64;
        let ts = Timestamp::from_micros(self.pick(&[i64::MIN, -1, 0, 1_500_000, i64::MAX, any]));
        match self.next() % 5 {
            0 => QoeEvent::FlowOpened {
                flow: self.flow(),
                ts,
            },
            1 => QoeEvent::WindowReport {
                flow: self.flow(),
                report: self.report(),
                provisional: self.pick(&[true, false]),
            },
            2 => QoeEvent::FlowEvicted {
                flow: self.flow(),
                reason: self.pick(&[
                    EvictReason::Idle,
                    EvictReason::EndOfStream,
                    EvictReason::Requested,
                ]),
                final_reports: (0..self.next() % 4).map(|_| self.report()).collect(),
            },
            // Four counts that cannot overflow their sum.
            3 => QoeEvent::ParseDrops {
                first_ts: ts,
                last_ts: Timestamp::from_micros(self.pick(&[i64::MIN, 0, i64::MAX, any])),
                by_reason: std::array::from_fn(|_| self.uint() >> 3),
            },
            _ => QoeEvent::Dropped {
                count: self.uint(),
                per_flow: (0..self.next() % 4)
                    .map(|_| (self.flow(), self.uint()))
                    .collect(),
            },
        }
    }
}

/// One packet per size, a millisecond apart.
fn sized_packets(sizes: &[u16]) -> Vec<TracePacket> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| TracePacket {
            ts: Timestamp::from_millis(i as i64),
            size,
            rtp: None,
            truth_media: None,
        })
        .collect()
}

proptest! {
    // ---------------- event JSON ----------------

    #[test]
    fn event_lines_match_the_format_reference(seed in any::<u64>()) {
        let mut gen = EventGen(seed | 1);
        for _ in 0..32 {
            let event = gen.event();
            prop_assert_eq!(event.to_json_line(), reference::line(&event));
        }
    }

    // ---------------- alerting ----------------

    #[test]
    fn alert_sink_writes_exactly_for_warning_events(seed in any::<u64>()) {
        let mut gen = EventGen(seed | 1);
        for _ in 0..32 {
            let thresholds = AlertThresholds::new();
            if gen.pick(&[true, false]) {
                thresholds.set_fps(gen.float());
            }
            if gen.pick(&[true, false]) {
                thresholds.set_min_kbps(gen.float());
            }
            if gen.pick(&[true, false]) {
                let height = gen.pick(&[180, 360, 720, 1080, 4320]);
                thresholds.set_resolution_floor(height, VcaKind::Teams.lab_ladder());
            }
            let event = Arc::new(gen.event());
            if event.flow().is_none() {
                continue; // aggregates: no flow to alert on
            }
            let mut sink = AlertSink::with_thresholds(Vec::new(), thresholds.clone());
            sink.on_event(&event);
            let warning = Severity::of(&event, &thresholds.bar()) == Severity::Warning;
            prop_assert!(
                warning == (sink.alerts() > 0),
                "warning {warning}, {} alert lines for {}",
                sink.alerts(),
                event.to_json_line()
            );
        }
    }

    // ---------------- netpkt ----------------

    #[test]
    fn checksum_of_patched_buffer_verifies(data in proptest::collection::vec(any::<u8>(), 12..256)) {
        let mut buf = data;
        buf[10] = 0;
        buf[11] = 0;
        let ck = checksum(&buf);
        buf[10..12].copy_from_slice(&ck.to_be_bytes());
        prop_assert!(verify(&buf));
    }

    #[test]
    fn checksum_order_independent(a in proptest::collection::vec(any::<u8>(), 0..64),
                                  b in proptest::collection::vec(any::<u8>(), 0..64)) {
        // One's-complement addition commutes across even-length chunks.
        let mut c1 = Checksum::new();
        let mut even_a = a.clone();
        if even_a.len() % 2 == 1 { even_a.push(0); }
        let mut even_b = b.clone();
        if even_b.len() % 2 == 1 { even_b.push(0); }
        c1.add_bytes(&even_a);
        c1.add_bytes(&even_b);
        let mut c2 = Checksum::new();
        c2.add_bytes(&even_b);
        c2.add_bytes(&even_a);
        prop_assert_eq!(c1.finish(), c2.finish());
    }

    #[test]
    fn ipv4_roundtrip(src in any::<[u8; 4]>(), dst in any::<[u8; 4]>(),
                      ttl in 1u8..=255, ident in any::<u16>(),
                      payload_len in 0usize..1400) {
        let repr = Ipv4Repr { src, dst, protocol: 17, payload_len, ttl, ident };
        let mut buf = vec![0u8; 20 + payload_len];
        repr.emit(&mut buf);
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        prop_assert!(pkt.verify_checksum());
        prop_assert_eq!(Ipv4Repr::parse(&pkt), repr);
    }

    #[test]
    fn udp_roundtrip_detects_any_single_flip(payload in proptest::collection::vec(any::<u8>(), 1..512),
                                             flip in any::<usize>()) {
        let src = [10, 0, 0, 1];
        let dst = [10, 0, 0, 2];
        let mut buf = vec![0u8; 8 + payload.len()];
        buf[8..].copy_from_slice(&payload);
        UdpRepr { src_port: 1000, dst_port: 2000 }.emit_v4(&mut buf, payload.len(), src, dst);
        let pkt = UdpPacket::new_checked(&buf[..]).unwrap();
        prop_assert!(pkt.verify_checksum_v4(src, dst));
        // Flip one payload bit: checksum must catch it (one's complement
        // detects all single-bit errors).
        let pos = 8 + flip % payload.len();
        let mut bad = buf.clone();
        bad[pos] ^= 0x01;
        let pkt = UdpPacket::new_checked(&bad[..]).unwrap();
        prop_assert!(!pkt.verify_checksum_v4(src, dst));
    }

    #[test]
    fn pcap_roundtrip(packets in proptest::collection::vec(
        (0i64..2_000_000_000, proptest::collection::vec(any::<u8>(), 0..200)), 0..20)) {
        let mut w = PcapWriter::new(Vec::new(), LinkType::Ethernet).unwrap();
        for (us, data) in &packets {
            w.write_packet(Timestamp(*us), data).unwrap();
        }
        let bytes = w.finish().unwrap();
        let mut r = PcapReader::new(std::io::Cursor::new(bytes)).unwrap();
        let recs = r.read_all().unwrap();
        prop_assert_eq!(recs.len(), packets.len());
        for (rec, (us, data)) in recs.iter().zip(&packets) {
            prop_assert_eq!(rec.ts.0, *us);
            prop_assert_eq!(&rec.data, data);
        }
    }

    #[test]
    fn pcap_read_is_the_same_however_the_bytes_arrive(
        lens in proptest::collection::vec(0usize..1500, 60..200),
        big_endian in any::<bool>(),
        k in 1usize..4096,
        seed in any::<u64>(),
    ) {
        // 45–150 KB as a rule — one to three read blocks — in either byte order.
        let u32_bytes = |v: u32| if big_endian { v.to_be_bytes() } else { v.to_le_bytes() };
        let mut image = Vec::new();
        // Version 2.4 is two u16s: as one word, their order follows the byte order.
        let version = if big_endian { 0x0002_0004 } else { 0x0004_0002 };
        for word in [0xa1b2_c3d4, version, 0, 0, 65_535, 1] {
            image.extend_from_slice(&u32_bytes(word));
        }
        for (i, &len) in lens.iter().enumerate() {
            for word in [i as u32, 999_999 - i as u32, len as u32, len as u32 + 2] {
                image.extend_from_slice(&u32_bytes(word));
            }
            image.extend((0..len).map(|b| (b * 13 + i) as u8));
        }

        let whole = PcapReader::new(std::io::Cursor::new(&image[..])).unwrap().read_all().unwrap();
        prop_assert_eq!(whole.len(), lens.len());
        for (i, (rec, &len)) in whole.iter().zip(&lens).enumerate() {
            prop_assert_eq!(rec.ts.0, i as i64 * 1_000_000 + 999_999 - i as i64);
            prop_assert_eq!(rec.orig_len as usize, len + 2);
            prop_assert!(rec.data.iter().copied().eq((0..len).map(|b| (b * 13 + i) as u8)));
        }

        let trickle = Trickle { rest: &image, k, state: seed | 1 };
        let mut reader = PcapReader::new(trickle).unwrap();
        prop_assert_eq!(reader.read_all().unwrap(), whole);
    }

    // ---------------- rtp ----------------

    #[test]
    fn rtp_header_roundtrip(pt in 0u8..=127, seq in any::<u16>(), ts in any::<u32>(),
                            ssrc in any::<u32>(), marker in any::<bool>(),
                            payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        let h = RtpHeader::basic(pt, seq, ts, ssrc, marker);
        let mut buf = vec![0u8; 12 + payload.len()];
        h.emit(&mut buf);
        buf[12..].copy_from_slice(&payload);
        let parsed = RtpHeader::parse(&buf).unwrap();
        prop_assert_eq!(parsed, h);
        prop_assert_eq!(parsed.payload(&buf).unwrap(), &payload[..]);
    }

    #[test]
    fn seq_arithmetic_antisymmetric(a in any::<u16>(), b in any::<u16>()) {
        if a != b {
            prop_assert_eq!(seq_distance(a, b), -seq_distance(b, a));
        } else {
            prop_assert_eq!(seq_distance(a, b), 0);
        }
    }

    // ---------------- vcasim ----------------

    #[test]
    fn packetize_preserves_total(frame in 1usize..60_000, policy in any::<bool>()) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let policy = if policy { FragmentPolicy::Unequal } else { FragmentPolicy::Equal };
        let parts = packetize(frame, 1160, policy, &mut rng);
        prop_assert_eq!(parts.iter().sum::<usize>(), frame);
        prop_assert!(parts.iter().all(|&p| p > 0 && p <= 1160));
    }

    #[test]
    fn equal_packetize_spread_at_most_one(frame in 1usize..60_000) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(2);
        let parts = packetize(frame, 1160, FragmentPolicy::Equal, &mut rng);
        let min = parts.iter().min().unwrap();
        let max = parts.iter().max().unwrap();
        prop_assert!(max - min <= 1);
        // Packet count is minimal.
        prop_assert_eq!(parts.len(), frame.div_ceil(1160));
    }

    // ---------------- features ----------------

    #[test]
    fn windows_partition_all_in_range_packets(
        pkts in proptest::collection::vec((0i64..30_000_000, 40u16..1500), 0..300),
        w in 1u32..5) {
        let mut obs: Vec<PktObs> = pkts
            .iter()
            .map(|&(us, size)| PktObs { ts: Timestamp(us), size })
            .collect();
        obs.sort_by_key(|p| p.ts);
        let windows = windows_by_second(&obs, 30, w);
        let total: usize = windows.iter().map(Vec::len).sum();
        prop_assert_eq!(total, obs.len());
        // Every packet is in the window matching its timestamp.
        for (i, win) in windows.iter().enumerate() {
            for p in win {
                let sec = p.ts.as_micros() / 1_000_000;
                prop_assert_eq!((sec / i64::from(w)) as usize, i);
            }
        }
    }

    #[test]
    fn microburst_count_bounded_by_packets(
        pkts in proptest::collection::vec((0i64..1_000_000, 40u16..1500), 0..100)) {
        let mut obs: Vec<PktObs> =
            pkts.iter().map(|&(us, s)| PktObs { ts: Timestamp(us), size: s }).collect();
        obs.sort_by_key(|p| p.ts);
        let b = microbursts(&obs, 3_000);
        prop_assert!(b <= obs.len() as f64);
        prop_assert!(unique_sizes(&obs) <= obs.len() as f64);
        if !obs.is_empty() {
            prop_assert!(b >= 1.0);
        }
    }

    // The unique-size count comes from the size log's bitmap pass at
    // seal: it must stay exact over windows of any content, across
    // resets, and under provisional snapshots that read a window
    // without consuming it.
    #[test]
    fn unique_sizes_stay_exact_across_windows(
        windows in proptest::collection::vec(
            proptest::collection::vec(
                (0i64..40_000, any::<u16>(), 1_000u16..1_016, any::<bool>()),
                0..150,
            ),
            1..6,
        )
    ) {
        let mut acc = IpUdpFeatureAcc::new(StatsMode::Exact, 3_000);
        let mut us = 0i64;
        for window in &windows {
            let mut seen = Vec::new();
            for (i, &(gap, wide, narrow, is_wide)) in window.iter().enumerate() {
                us += gap;
                let size = if is_wide { wide } else { narrow };
                acc.push(Timestamp::from_micros(us), size);
                seen.push(PktObs {
                    ts: Timestamp::from_micros(us),
                    size,
                });
                if i == window.len() / 3 || i == 2 * window.len() / 3 {
                    let provisional = acc.features(1.0);
                    prop_assert_eq!(provisional[12], unique_sizes(&seen));
                }
            }
            prop_assert_eq!(acc.features(1.0)[12], unique_sizes(&seen));
            acc.reset();
        }
    }

    // Selection must reproduce the sort bit for bit: over every
    // prefix of a window (lengths 0, 1, 2, odd and even), with
    // duplicate and `u16::MAX` sizes, gaps that run backwards inside
    // the window, and signed zeros among the `f64` inputs. The two
    // semantics features, counted at seal from the logs, must match
    // the batch definitions on the same prefixes.
    #[test]
    fn selection_equals_the_sorted_statistics(
        window in proptest::collection::vec(
            (
                (1_000u16..1_004, any::<u16>(), 0u8..3),
                (-2i64..3, -40_000i64..40_000, 0u8..3),
            ),
            0..64,
        )
    ) {
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut us = 10_000_000i64;
        let mut pkts = Vec::new();
        for &((narrow, wide, pick), (small, large, step)) in &window {
            // A gap of exactly θ (3 ms) starts a microburst.
            us += match step {
                0 => small,
                1 => large,
                _ => 3_000,
            };
            let size = match pick {
                0 => narrow,
                1 => wide,
                _ => u16::MAX,
            };
            pkts.push(PktObs { ts: Timestamp::from_micros(us), size });
        }
        for len in 0..=pkts.len() {
            let seen = &pkts[..len];
            let mut acc = IpUdpFeatureAcc::new(StatsMode::Exact, 3_000);
            for p in seen {
                acc.push(p.ts, p.size);
            }
            let got = acc.features(1.0);
            let sizes: Vec<f64> = seen.iter().map(|p| f64::from(p.size)).collect();
            let gaps: Vec<f64> = seen
                .windows(2)
                .map(|w| (w[1].ts - w[0].ts).as_micros() as f64 / 1e3)
                .collect();
            // The byte rate is the sizes' arrival-order `.sum()`, an
            // empty window's -0.0 included.
            let bytes = sizes.iter().sum::<f64>() / 1.0;
            prop_assert_eq!(got[0].to_bits(), bytes.to_bits());
            prop_assert_eq!(bits(&got[2..7]), bits(&sorted_five(&sizes)));
            prop_assert_eq!(bits(&got[7..12]), bits(&sorted_five(&gaps)));
            prop_assert_eq!(got[12].to_bits(), unique_sizes(seen).to_bits());
            prop_assert_eq!(got[13].to_bits(), microbursts(seen, 3_000).to_bits());
            // The `f64` entry point (RTP lags), signed zeros included.
            let mut lags = gaps.clone();
            lags.extend(gaps.iter().take(2).map(|&g| if g < 0.0 { -0.0 } else { 0.0 }));
            prop_assert_eq!(
                bits(&five_stats(lags.iter().copied())),
                bits(&sorted_five(&lags))
            );
        }
    }

    // ---------------- core heuristic ----------------

    #[test]
    fn heuristic_conserves_packets(
        sizes in proptest::collection::vec(450u16..1500, 0..200),
        lookback in 1usize..6) {
        let pkts = sized_packets(&sizes);
        let params = HeuristicParams { delta_max_size: 2, lookback };
        let (frames, ids) = ipudp_frames(params, &pkts);
        prop_assert_eq!(ids.len(), pkts.len());
        // Rebuild each frame from the packets its id names: the payload
        // bytes summed and the last arrival. Every id below the frame
        // count holds a packet, and the rebuilt frames, ordered by end
        // time and id, are the assembler's.
        let mut rebuilt: Vec<Option<(u64, Frame)>> = vec![None; frames.len()];
        for (p, &id) in pkts.iter().zip(&ids) {
            prop_assert!((id as usize) < frames.len(), "frame id {} of {}", id, frames.len());
            let payload = usize::from(p.size) - 52;
            match &mut rebuilt[id as usize] {
                Some((_, f)) => {
                    f.size_bytes += payload;
                    f.end_ts = f.end_ts.max(p.ts);
                }
                slot => *slot = Some((id, Frame { end_ts: p.ts, size_bytes: payload })),
            }
        }
        let mut rebuilt: Vec<(u64, Frame)> = rebuilt.into_iter().flatten().collect();
        prop_assert_eq!(rebuilt.len(), frames.len());
        rebuilt.sort_by_key(|&(id, f)| (f.end_ts, id));
        let rebuilt: Vec<Frame> = rebuilt.into_iter().map(|(_, f)| f).collect();
        prop_assert_eq!(rebuilt, frames);
    }

    #[test]
    fn deeper_lookback_never_increases_frame_count(
        sizes in proptest::collection::vec(450u16..1500, 1..150)) {
        let pkts = sized_packets(&sizes);
        let count = |lb: usize| {
            let params = HeuristicParams { delta_max_size: 2, lookback: lb };
            ipudp_frames(params, &pkts).0.len()
        };
        prop_assert!(count(4) <= count(1));
    }

    // ---------------- mlcore ----------------

    #[test]
    fn percentile_within_range(values in proptest::collection::vec(-1e6f64..1e6, 1..100),
                               q in 0.0f64..=100.0) {
        let p = percentile(&values, q);
        let lo = values.iter().cloned().fold(f64::MAX, f64::min);
        let hi = values.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(p >= lo && p <= hi);
    }

    #[test]
    fn confusion_rows_sum_to_100(obs in proptest::collection::vec((0usize..3, 0usize..3), 1..200)) {
        let mut m = ConfusionMatrix::new(vec!["a".into(), "b".into(), "c".into()]);
        for (actual, pred) in &obs {
            m.record(*actual, *pred);
        }
        for a in 0..3 {
            if m.row_total(a) > 0 {
                let sum: f64 = (0..3).map(|p| m.percent(a, p)).sum();
                prop_assert!((sum - 100.0).abs() < 1e-9);
            }
        }
    }

    // ---------------- api facade ----------------

    #[test]
    fn monitor_ingests_arbitrary_garbage_without_panicking(
        frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..128), 1..30)) {
        // Pure fuzz: whatever bytes arrive, every packet is either routed
        // to a flow or classified as a drop — never lost, never a panic.
        let mut monitor = MonitorBuilder::new(VcaKind::Teams).build();
        for (i, frame) in frames.iter().enumerate() {
            monitor.ingest_frame(Timestamp::from_millis(i as i64), frame);
        }
        let stats = monitor.stats();
        prop_assert_eq!(stats.packets + stats.parse_drops, frames.len() as u64);
        let summarized: u64 = monitor
            .finish()
            .iter()
            .map(|e| match e {
                QoeEvent::ParseDrops { by_reason, .. } => by_reason.iter().sum(),
                QoeEvent::FlowOpened { .. }
                | QoeEvent::WindowReport { .. }
                | QoeEvent::FlowEvicted { .. }
                | QoeEvent::Dropped { .. } => 0,
            })
            .sum();
        prop_assert_eq!(summarized, stats.parse_drops);
    }

    #[test]
    fn monitor_classifies_mutated_real_frames(
        payload_len in 12usize..160,
        cut in any::<usize>(),
        nibble in 0u8..16,
        word in any::<u16>(),
        byte in any::<u8>(),
        pad in 1usize..64) {
        // Every mutation of every shape (IPv4 or IPv6, as an Ethernet II
        // frame or a raw IP packet) per case: a rare shape never goes
        // untried.
        for mutation in 0..11 {
            for shape in 0..4 {
                let (v6, raw_ip) = (shape & 1 == 1, shape & 2 == 2);
                let mut bytes = layered::datagram(payload_len, v6, raw_ip);
                let ip = if raw_ip { 0 } else { 14 };
                let udp = ip + if v6 { 40 } else { 20 };
                match mutation {
                    0 => bytes.truncate(cut % bytes.len()),             // truncated anywhere
                    1 => bytes[ip] = (nibble << 4) | (bytes[ip] & 0x0f), // bad version nibble
                    2 => bytes[ip] = (bytes[ip] & 0xf0) | nibble,        // bad IHL (v4)
                    // A lying UDP length: short, long, or below the header.
                    3 => bytes[udp + 4..udp + 6].copy_from_slice(&(word % 256).to_be_bytes()),
                    // Fragment bits and offset (v4); the next header (v6).
                    4 if v6 => bytes[ip + 6] = byte,
                    4 => bytes[ip + 6..ip + 8].copy_from_slice(&word.to_be_bytes()),
                    5 => bytes[ip + if v6 { 6 } else { 9 }] = byte,      // another protocol
                    // A lying total length (v4) or payload length (v6).
                    6 => {
                        let at = ip + if v6 { 4 } else { 2 };
                        bytes[at..at + 2].copy_from_slice(&(word % 512).to_be_bytes());
                    }
                    7 => bytes.resize(bytes.len() + pad, 0),             // link-layer padding
                    // A UDP length that runs into the padding: only the IP
                    // length bounds it.
                    8 => {
                        let len = bytes.len() - udp + 1 + usize::from(word) % pad;
                        bytes.resize(bytes.len() + pad, 0);
                        bytes[udp + 4..udp + 6].copy_from_slice(&(len as u16).to_be_bytes());
                    }
                    9 if !raw_ip => {
                        let ethertype = [0x0800, 0x86dd, 0x0806, word][usize::from(byte % 4)];
                        bytes[12..14].copy_from_slice(&ethertype.to_be_bytes());
                    }
                    _ => {}                                              // pristine control case
                }
                let link = if raw_ip { LinkType::RawIp } else { LinkType::Ethernet };
                if let Err(TestCaseError(e)) = mutated_frame_agrees(link, &bytes, ip) {
                    return Err(TestCaseError(format!("mutation {mutation}, shape {shape}: {e}")));
                }
            }
        }
    }
}

/// The accumulator's unique-size and microburst counts, taken at seal
/// from its logs, must equal the oracle's slice formulas on an
/// arbitrary window: separate implementations, coupled here.
#[test]
fn semantics_counters_match_batch_functions() {
    let mut ps = Vec::new();
    let mut t = 0i64;
    for i in 0..300i64 {
        t += if i % 7 == 0 {
            30_000
        } else {
            (i * 131) % 2_900
        };
        ps.push(PktObs {
            ts: Timestamp::from_micros(t),
            size: 500 + ((i * 53) % 800) as u16,
        });
    }
    let mut acc = IpUdpFeatureAcc::new(StatsMode::Exact, 3_000);
    for p in &ps {
        acc.push(p.ts, p.size);
    }
    let f = acc.features(1.0);
    assert_eq!(f[12], unique_sizes(&ps));
    assert_eq!(f[13], microbursts(&ps, 3_000));
}

/// Checks one (possibly broken) datagram against the layered reference
/// decoder: the fused netpkt parse must return the same outcome at every
/// entry point (error layer and constraint included), and the monitor
/// must report the same flow, size and RTP header — or count the same
/// drop reason into its summary.
fn mutated_frame_agrees(link: LinkType, bytes: &[u8], ip: usize) -> TestCaseResult {
    if link == LinkType::Ethernet {
        prop_assert_eq!(
            layered::shown(layered::fused(UdpHeaders::parse(bytes))),
            layered::shown(layered::parse(link, bytes))
        );
    }
    let ip_bytes = bytes.get(ip..).unwrap_or_default();
    prop_assert_eq!(
        layered::shown(layered::fused(UdpHeaders::parse_ipv4(ip_bytes))),
        layered::shown(layered::ipv4(ip_bytes))
    );
    prop_assert_eq!(
        layered::shown(layered::fused(UdpHeaders::parse_ipv6(ip_bytes))),
        layered::shown(layered::ipv6(ip_bytes))
    );

    // The monitor's front door against a twin fed the reference's
    // decoding through `ingest_packet`.
    let ts = Timestamp::from_millis(1);
    let build = || {
        MonitorBuilder::new(VcaKind::Teams)
            .method(EstimationMethod::Fixed(Method::RtpHeuristic))
            .build()
    };
    let mut monitor = build();
    if link == LinkType::RawIp {
        monitor.ingest_ip(ts, bytes);
    } else {
        monitor.ingest_frame(ts, bytes);
    }
    let stats = monitor.stats();
    prop_assert_eq!(stats.packets + stats.parse_drops, 1);
    let events = format!("{:?}", monitor.finish());
    let expected = match layered::parse(link, bytes) {
        Ok(Some((flow, size, payload))) => {
            let mut twin = build();
            twin.ingest_packet(
                flow,
                TracePacket {
                    ts,
                    size,
                    rtp: RtpHeader::parse(&payload).ok(),
                    truth_media: None,
                },
            );
            twin.finish()
        }
        Ok(None) => vec![drop_summary(ts, ParseDropReason::NotUdp)],
        Err(e) => vec![drop_summary(ts, ParseDropReason::from(&e))],
    };
    prop_assert_eq!(events, format!("{expected:?}"));
    Ok(())
}

/// The one summary a monitor fed a single rejected record at `ts`
/// publishes at `finish`.
fn drop_summary(ts: Timestamp, reason: ParseDropReason) -> QoeEvent {
    let mut by_reason = [0; 4];
    by_reason[reason.index()] = 1;
    QoeEvent::ParseDrops {
        first_ts: ts,
        last_ts: ts,
        by_reason,
    }
}

/// The decoder the monitor ran before its fused header parse
/// (`UdpHeaders`): the per-layer `new_checked` views composed
/// Ethernet → IPv4/IPv6 → UDP, and the raw-IP version-nibble dispatch.
/// Kept as the reference the fused parse and the monitor must agree
/// with, outcome for outcome.
mod layered {
    use std::net::IpAddr;
    use vcaml_suite::netpkt::{Error, Result};
    use vcaml_suite::netpkt::{
        EtherType, EthernetFrame, EthernetRepr, FlowKey, Ipv4Packet, Ipv4Repr, Ipv6Packet,
        Ipv6Repr, LinkType, MacAddr, UdpHeaders, UdpPacket, UdpRepr,
    };

    /// An accepted datagram's flow, IP size and UDP payload, or the error.
    pub type Outcome = Result<Option<(FlowKey, u16, Vec<u8>)>>;

    /// A well-formed UDP datagram with an RTP-looking payload, behind an
    /// Ethernet II header unless `raw_ip`.
    pub fn datagram(payload_len: usize, v6: bool, raw_ip: bool) -> Vec<u8> {
        let mut payload = vec![0u8; payload_len];
        payload[0] = 0x80; // RTP version 2, no padding/extension/CSRC
        payload[1] = 102;
        let eth = if raw_ip { 0 } else { 14 };
        let ip_len = if v6 { 40 } else { 20 };
        let udp_len = 8 + payload.len();
        let mut buf = vec![0u8; eth + ip_len + udp_len];
        if !raw_ip {
            EthernetRepr {
                src: MacAddr([2, 0, 0, 0, 0, 1]),
                dst: MacAddr([2, 0, 0, 0, 0, 2]),
                ethertype: if v6 { EtherType::Ipv6 } else { EtherType::Ipv4 },
            }
            .emit(&mut buf);
        }
        if v6 {
            let mut src = [0u8; 16];
            src[0] = 0xfd;
            src[15] = 1;
            let mut dst = src;
            dst[15] = 2;
            Ipv6Repr {
                src,
                dst,
                next_header: 17,
                payload_len: udp_len,
                hop_limit: 64,
            }
            .emit(&mut buf[eth..]);
        } else {
            Ipv4Repr {
                src: [10, 0, 0, 1],
                dst: [10, 0, 0, 2],
                protocol: 17,
                payload_len: udp_len,
                ttl: 64,
                ident: 1,
            }
            .emit(&mut buf[eth..]);
        }
        let udp = eth + ip_len;
        buf[udp + 8..].copy_from_slice(&payload);
        // The v4 pseudo-header checksum is wrong for v6; nothing verifies it.
        UdpRepr {
            src_port: 4000,
            dst_port: 5000,
        }
        .emit_v4(&mut buf[udp..], payload.len(), [10, 0, 0, 1], [10, 0, 0, 2]);
        buf
    }

    /// The fused parser's result in the reference's terms.
    pub fn fused(parsed: Result<Option<UdpHeaders<'_>>>) -> Outcome {
        parsed.map(|h| h.map(|h| (h.flow_key().0, h.ip_total_len, h.payload.to_vec())))
    }

    /// An outcome in comparable form: an error by its message, which
    /// spells out its layer, constraint and lengths.
    pub fn shown(outcome: Outcome) -> std::result::Result<Option<(FlowKey, u16, Vec<u8>)>, String> {
        outcome.map_err(|e| e.to_string())
    }

    /// The reference decoding of `bytes` as `link` delivers them.
    pub fn parse(link: LinkType, bytes: &[u8]) -> Outcome {
        match link {
            LinkType::Ethernet => {
                let frame = EthernetFrame::new_checked(bytes)?;
                match frame.ethertype() {
                    EtherType::Ipv4 => ipv4(frame.payload()),
                    EtherType::Ipv6 => ipv6(frame.payload()),
                    EtherType::Arp | EtherType::Other(_) => Ok(None),
                }
            }
            LinkType::RawIp => match bytes.first().map(|b| b >> 4) {
                Some(4) => ipv4(bytes),
                Some(6) => ipv6(bytes),
                Some(_) => Err(Error::Malformed {
                    layer: "ip",
                    what: "version is neither 4 nor 6",
                }),
                None => Err(Error::Truncated {
                    layer: "ip",
                    needed: 1,
                    got: 0,
                }),
            },
            LinkType::Other(_) => Err(Error::Malformed {
                layer: "pcap",
                what: "unsupported link type",
            }),
        }
    }

    pub fn ipv4(bytes: &[u8]) -> Outcome {
        let ip = Ipv4Packet::new_checked(bytes)?;
        if ip.protocol() != 17 {
            return Ok(None);
        }
        // The more-fragments flag or a fragment offset.
        if u16::from_be_bytes([bytes[6], bytes[7]]) & 0x3fff != 0 {
            return Err(Error::Malformed {
                layer: "ipv4",
                what: "fragmented UDP not supported",
            });
        }
        let size = (ip.header_len() + ip.payload().len()) as u16;
        udp(ip.src().into(), ip.dst().into(), size, ip.payload())
    }

    pub fn ipv6(bytes: &[u8]) -> Outcome {
        let ip = Ipv6Packet::new_checked(bytes)?;
        if ip.next_header() != 17 {
            return Ok(None);
        }
        let size = u16::try_from(40 + usize::from(ip.payload_len())).unwrap_or(u16::MAX);
        udp(ip.src().into(), ip.dst().into(), size, ip.payload())
    }

    fn udp(src: IpAddr, dst: IpAddr, size: u16, bytes: &[u8]) -> Outcome {
        let udp = UdpPacket::new_checked(bytes)?;
        let (flow, _) = FlowKey::canonical(src, udp.src_port(), dst, udp.dst_port(), 17);
        Ok(Some((flow, size, udp.payload().to_vec())))
    }
}
