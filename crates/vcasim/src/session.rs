//! End-to-end call simulation: sender (encoder + pacer + rate control),
//! emulated link, and receiver, orchestrated by a discrete-event loop.
//!
//! The produced [`SessionTrace`] contains the downstream packet sequence a
//! passive monitor at the client's access link would capture (delivered
//! packets only, with arrival timestamps) plus the per-second ground-truth
//! QoE from the receiver model.

use crate::audio::{self, AudioSource};
use crate::codec::FrameSource;
use crate::control::{self, ControlPacket};
use crate::packetizer::{packetize, FragmentPolicy};
use crate::profiles::VcaProfile;
use crate::rate::RateController;
use crate::receiver::{ArrivedPacket, Receiver, SecondTruth};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use vcaml_netem::{ConditionSchedule, Link, LinkConfig, LinkVerdict};
use vcaml_netpkt::{CapturedPacket, Timestamp, UdpDatagram};
use vcaml_rtp::{MediaKind, RtpClock, RtpHeader, VcaKind};

/// IPv4 + UDP header overhead, bytes.
const IP_UDP_OVERHEAD: usize = 28;
/// RTP fixed header, bytes.
const RTP_OVERHEAD: usize = 12;

/// Configuration of one simulated call.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// VCA behaviour profile.
    pub profile: VcaProfile,
    /// Network conditions on the downstream path.
    pub schedule: ConditionSchedule,
    /// Call duration in seconds.
    pub duration_secs: u32,
    /// Seed for all randomness in the call.
    pub seed: u64,
    /// Bottleneck queue configuration.
    pub link: LinkConfig,
}

/// One delivered packet as the monitor sees it, with simulator-side ground
/// truth attached (media kind; RTP header when the packet is RTP).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimPacket {
    /// Send time at the far endpoint.
    pub send_ts: Timestamp,
    /// Arrival (capture) time at the monitor / client.
    pub arrival_ts: Timestamp,
    /// IP total length — the "packet size" every method consumes.
    pub ip_total_len: u16,
    /// Ground-truth media class.
    pub media: MediaKind,
    /// RTP header carried (None for DTLS/STUN/RTCP control packets).
    pub rtp: Option<RtpHeader>,
}

/// Result of a simulated call.
#[derive(Debug, Clone)]
pub struct SessionTrace {
    /// Which VCA was simulated.
    pub vca: VcaKind,
    /// Delivered packets, sorted by arrival time.
    pub packets: Vec<SimPacket>,
    /// Per-second ground truth (`webrtc-internals` analogue).
    pub truth: Vec<SecondTruth>,
    /// Call duration in seconds.
    pub duration_secs: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    VideoFrame,
    AudioPacket,
    RtxKeepalive,
    StunKeepalive,
    RtcpReport,
    Control(usize),
    Retransmit { seq: u16 },
    RateUpdate,
}

#[derive(Debug, Clone, Copy)]
struct RtxInfo {
    payload_len: usize,
    frame_id: u64,
    frame_packets: u32,
    height: u32,
    rtp_ts: u32,
    retransmitted: bool,
}

struct ArrivalEntry {
    at: Timestamp,
    order: u64,
    pkt: ArrivedPacket,
}

impl PartialEq for ArrivalEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.order) == (other.at, other.order)
    }
}
impl Eq for ArrivalEntry {}
impl PartialOrd for ArrivalEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ArrivalEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.order).cmp(&(other.at, other.order))
    }
}

/// The discrete-event call simulator.
pub struct Session {
    cfg: SessionConfig,
    rng: StdRng,
    link: Link,
    receiver: Receiver,
    events: BinaryHeap<Reverse<(Timestamp, u64, EventKind)>>,
    arrivals: BinaryHeap<Reverse<ArrivalEntry>>,
    packets: Vec<SimPacket>,
    ctr: u64,

    // Sender state.
    rate: RateController,
    frames: FrameSource,
    audio: AudioSource,
    video_seq: u16,
    audio_seq: u16,
    rtx_seq: u16,
    video_ts_offset: u32,
    audio_ts_offset: u32,
    frame_id: u64,
    current_height: u32,
    current_fps: f64,
    sent_rtp_per_sec: HashMap<i64, u32>,
    rtx_map: HashMap<u16, RtxInfo>,
    control_schedule: Vec<ControlPacket>,
}

impl Session {
    /// Builds a session; call [`Session::run`] to execute it.
    pub fn new(cfg: SessionConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let link = Link::new(cfg.schedule.clone(), cfg.link, cfg.seed ^ 0xdead_beef);
        let control_schedule = control::dtls_handshake(&mut rng);
        let start_kbps = cfg.profile.start_bitrate_kbps;
        let rate = RateController::new(
            start_kbps,
            cfg.profile.min_bitrate_kbps,
            cfg.profile.max_bitrate_kbps,
        );
        let frames = FrameSource::new(cfg.seed ^ 0x1234, cfg.profile.frame_size_cv);
        let current_height = cfg.profile.rung_for(start_kbps).height;
        let current_fps = cfg.profile.fps_for(start_kbps);
        Session {
            rng,
            link,
            receiver: Receiver::with_seed(cfg.seed ^ 0x0dec_0de5),
            events: BinaryHeap::new(),
            arrivals: BinaryHeap::new(),
            packets: Vec::new(),
            ctr: 0,
            rate,
            frames,
            audio: AudioSource::new(),
            video_seq: 0,
            audio_seq: 0,
            rtx_seq: 0,
            video_ts_offset: 0,
            audio_ts_offset: 0,
            frame_id: 0,
            current_height,
            current_fps,
            sent_rtp_per_sec: HashMap::new(),
            rtx_map: HashMap::new(),
            control_schedule,
            cfg,
        }
    }

    fn push_event(&mut self, at: Timestamp, kind: EventKind) {
        self.ctr += 1;
        self.events.push(Reverse((at, self.ctr, kind)));
    }

    /// Sends one packet through the link; on delivery, records it and
    /// queues the receiver-side arrival.
    #[allow(clippy::too_many_arguments)]
    fn transmit(
        &mut self,
        now: Timestamp,
        media: MediaKind,
        rtp: Option<RtpHeader>,
        payload_len: usize,
        frame_id: u64,
        frame_packets: u32,
        height: u32,
    ) {
        let ip_total = (IP_UDP_OVERHEAD + rtp.map_or(0, |_| RTP_OVERHEAD) + payload_len) as u16;
        if rtp.is_some() {
            *self.sent_rtp_per_sec.entry(now.second_index()).or_insert(0) += 1;
        }
        match self.link.send(now, ip_total as usize) {
            LinkVerdict::Delivered(arrival) => {
                self.packets.push(SimPacket {
                    send_ts: now,
                    arrival_ts: arrival,
                    ip_total_len: ip_total,
                    media,
                    rtp,
                });
                if let Some(h) = rtp {
                    self.ctr += 1;
                    self.arrivals.push(Reverse(ArrivalEntry {
                        at: arrival,
                        order: self.ctr,
                        pkt: ArrivedPacket {
                            arrival,
                            send: now,
                            media,
                            frame_id,
                            frame_packets,
                            height,
                            seq: h.sequence,
                            payload_len,
                        },
                    }));
                }
            }
            LinkVerdict::Dropped(_) => {}
        }
    }

    /// Delivers all receiver arrivals up to time `now`, handling NACKs.
    fn drain_arrivals(&mut self, now: Timestamp) {
        while let Some(Reverse(head)) = self.arrivals.peek() {
            if head.at > now {
                break;
            }
            let Some(Reverse(entry)) = self.arrivals.pop() else {
                break; // unreachable: peek above proved non-empty
            };
            let nacks = self.receiver.on_packet(entry.pkt);
            if self.cfg.profile.has_rtx && !nacks.is_empty() {
                // NACK travels back over the reverse path, then the sender
                // retransmits.
                let owd = self.cfg.schedule.at(entry.at).delay_ms + 5.0;
                let when = entry.at + Timestamp::from_micros((owd * 1000.0) as i64);
                for seq in nacks {
                    self.push_event(when.max(now), EventKind::Retransmit { seq });
                }
            }
        }
    }

    /// Runs the call to completion.
    pub fn run(mut self) -> SessionTrace {
        let duration = Timestamp::from_secs(i64::from(self.cfg.duration_secs));

        // Seed the event queue.
        for (i, cp) in self.control_schedule.clone().into_iter().enumerate() {
            self.push_event(
                Timestamp::from_millis(cp.at_ms as i64),
                EventKind::Control(i),
            );
        }
        let media_start = Timestamp::from_millis(
            self.control_schedule
                .last()
                .map_or(200, |c| c.at_ms as i64 + 50),
        );
        self.video_ts_offset = self.rng.gen();
        self.audio_ts_offset = self.rng.gen();
        self.push_event(media_start, EventKind::VideoFrame);
        self.push_event(media_start, EventKind::AudioPacket);
        if self.cfg.profile.has_rtx {
            self.push_event(
                media_start + Timestamp::from_millis(100),
                EventKind::RtxKeepalive,
            );
        }
        self.push_event(
            Timestamp::from_millis(control::STUN_INTERVAL_MS as i64),
            EventKind::StunKeepalive,
        );
        self.push_event(
            media_start + Timestamp::from_millis(500),
            EventKind::RtcpReport,
        );
        self.push_event(Timestamp::from_secs(1), EventKind::RateUpdate);

        while let Some(Reverse((t, _, kind))) = self.events.pop() {
            if t >= duration {
                break;
            }
            self.drain_arrivals(t);
            match kind {
                EventKind::VideoFrame => self.on_video_frame(t),
                EventKind::AudioPacket => self.on_audio(t),
                EventKind::RtxKeepalive => self.on_rtx_keepalive(t),
                EventKind::StunKeepalive => self.on_stun(t),
                EventKind::RtcpReport => self.on_rtcp(t),
                EventKind::Control(i) => self.on_control(t, i),
                EventKind::Retransmit { seq } => self.on_retransmit(t, seq),
                EventKind::RateUpdate => self.on_rate_update(t),
            }
        }
        // Let in-flight packets land.
        self.drain_arrivals(duration + Timestamp::from_secs(5));

        let mut packets = std::mem::take(&mut self.packets);
        packets.sort_by_key(|p| (p.arrival_ts, p.send_ts));
        let truth = self
            .receiver
            .ground_truth(i64::from(self.cfg.duration_secs));
        SessionTrace {
            vca: self.cfg.profile.vca,
            packets,
            truth,
            duration_secs: self.cfg.duration_secs,
        }
    }

    fn on_video_frame(&mut self, t: Timestamp) {
        let target = self.rate.target_kbps();
        let frame = self
            .frames
            .next_frame(target, self.current_fps, self.current_height);
        let policy = if self.rng.gen::<f64>() < self.cfg.profile.unequal_frag_prob {
            FragmentPolicy::Unequal
        } else {
            FragmentPolicy::Equal
        };
        let parts = packetize(
            frame.size,
            self.cfg.profile.max_payload,
            policy,
            &mut self.rng,
        );
        let rtp_ts = RtpClock::video()
            .ticks_for(t)
            .wrapping_add(self.video_ts_offset);
        let n = parts.len() as u32;
        let fid = self.frame_id;
        self.frame_id += 1;
        for (i, part) in parts.iter().enumerate() {
            let seq = self.video_seq;
            self.video_seq = self.video_seq.wrapping_add(1);
            let hdr = RtpHeader::basic(
                self.cfg.profile.payload_map.video,
                seq,
                rtp_ts,
                0x0000_0010,
                i + 1 == parts.len(),
            );
            self.rtx_map.insert(
                seq,
                RtxInfo {
                    payload_len: *part,
                    frame_id: fid,
                    frame_packets: n,
                    height: frame.height,
                    rtp_ts,
                    retransmitted: false,
                },
            );
            // Microburst: packets of a frame leave back-to-back.
            let at = t + Timestamp::from_micros(i as i64 * 250);
            self.transmit(at, MediaKind::Video, Some(hdr), *part, fid, n, frame.height);
        }
        // Cap the rtx map so a long call doesn't grow unbounded: old
        // sequence numbers can no longer be NACKed anyway.
        if self.rtx_map.len() > 4096 {
            let horizon = self.video_seq.wrapping_sub(2048);
            self.rtx_map
                .retain(|&s, _| vcaml_rtp::seq_distance(s, horizon) >= 0);
        }
        let next = t + Timestamp::from_micros((1e6 / self.current_fps) as i64);
        self.push_event(next, EventKind::VideoFrame);
    }

    fn on_audio(&mut self, t: Timestamp) {
        let payload = self.audio.next_payload(&mut self.rng);
        let seq = self.audio_seq;
        self.audio_seq = self.audio_seq.wrapping_add(1);
        let hdr = RtpHeader::basic(
            self.cfg.profile.payload_map.audio,
            seq,
            RtpClock::audio()
                .ticks_for(t)
                .wrapping_add(self.audio_ts_offset),
            0x0000_00a0,
            false,
        );
        self.transmit(t, MediaKind::Audio, Some(hdr), payload, u64::MAX, 1, 0);
        self.push_event(
            t + Timestamp::from_millis(audio::PACKET_INTERVAL_MS as i64),
            EventKind::AudioPacket,
        );
    }

    fn on_rtx_keepalive(&mut self, t: Timestamp) {
        let payload = usize::from(self.cfg.profile.keepalive_size) - IP_UDP_OVERHEAD - RTP_OVERHEAD;
        let seq = self.rtx_seq;
        self.rtx_seq = self.rtx_seq.wrapping_add(1);
        let pt = self
            .cfg
            .profile
            .payload_map
            .video_rtx
            .expect("rtx keepalive without rtx PT"); // lint: allow(no-unwrap-in-lib) -- path is gated on profile.has_rtx, which implies an rtx payload type
        let hdr = RtpHeader::basic(
            pt,
            seq,
            RtpClock::video()
                .ticks_for(t)
                .wrapping_add(self.video_ts_offset),
            0x0000_0111,
            false,
        );
        self.transmit(t, MediaKind::VideoRtx, Some(hdr), payload, u64::MAX, 1, 0);
        self.push_event(
            t + Timestamp::from_millis(self.cfg.profile.keepalive_interval_ms as i64),
            EventKind::RtxKeepalive,
        );
    }

    fn on_stun(&mut self, t: Timestamp) {
        let payload = control::stun_keepalive_payload(&mut self.rng);
        self.transmit(t, MediaKind::Control, None, payload, u64::MAX, 1, 0);
        self.push_event(
            t + Timestamp::from_millis(control::STUN_INTERVAL_MS as i64),
            EventKind::StunKeepalive,
        );
    }

    fn on_rtcp(&mut self, t: Timestamp) {
        // Compound SR (video + audio) — small control packet.
        let payload = self.rng.gen_range(56..140);
        self.transmit(t, MediaKind::Control, None, payload, u64::MAX, 1, 0);
        self.push_event(t + Timestamp::from_millis(1000), EventKind::RtcpReport);
    }

    fn on_control(&mut self, t: Timestamp, idx: usize) {
        let payload = self.control_schedule[idx].payload;
        self.transmit(t, MediaKind::Control, None, payload, u64::MAX, 1, 0);
    }

    fn on_retransmit(&mut self, t: Timestamp, seq: u16) {
        if !self.cfg.profile.has_rtx {
            return;
        }
        let Some(info) = self.rtx_map.get_mut(&seq) else {
            return;
        };
        if info.retransmitted {
            return;
        }
        info.retransmitted = true;
        let info = *info;
        let rtx_seq = self.rtx_seq;
        self.rtx_seq = self.rtx_seq.wrapping_add(1);
        let pt = self
            .cfg
            .profile
            .payload_map
            .video_rtx
            .expect("retransmit without rtx PT"); // lint: allow(no-unwrap-in-lib) -- path is gated on profile.has_rtx, which implies an rtx payload type
        let hdr = RtpHeader::basic(pt, rtx_seq, info.rtp_ts, 0x0000_0111, false);
        // RFC 4588: original sequence number prefixes the payload.
        self.transmit(
            t,
            MediaKind::VideoRtx,
            Some(hdr),
            info.payload_len + 2,
            info.frame_id,
            info.frame_packets,
            info.height,
        );
    }

    fn on_rate_update(&mut self, t: Timestamp) {
        let sec = t.second_index() - 1;
        let sent = self.sent_rtp_per_sec.get(&sec).copied().unwrap_or(0);
        let fb = self.receiver.feedback_for_second(sec, sent);
        let target = self.rate.update(fb);
        let rung = self.cfg.profile.rung_for(target);
        if rung.height != self.current_height {
            self.current_height = rung.height;
            self.frames.request_keyframe();
        }
        self.current_fps = self.cfg.profile.fps_for(target);
        self.push_event(t + Timestamp::from_secs(1), EventKind::RateUpdate);
    }
}

impl SessionTrace {
    /// Materializes the trace as captured packets with real wire bytes
    /// (IPv4 + UDP + RTP), suitable for pcap export or byte-level parsing.
    pub fn to_captured(&self) -> Vec<CapturedPacket> {
        let src = [203, 0, 113, 10];
        let dst = [192, 168, 1, 100];
        self.packets
            .iter()
            .map(|p| {
                let ip_payload = usize::from(p.ip_total_len) - 20;
                let udp_payload_len = ip_payload - 8;
                let mut udp_payload = vec![0u8; udp_payload_len];
                if let Some(h) = p.rtp {
                    h.emit(&mut udp_payload);
                } else if !udp_payload.is_empty() {
                    // Mark control packets with a DTLS-looking first byte
                    // so they never parse as RTP (version bits = 0).
                    udp_payload[0] = 0x16;
                }
                CapturedPacket {
                    ts: p.arrival_ts,
                    datagram: UdpDatagram {
                        src: std::net::IpAddr::from(src),
                        dst: std::net::IpAddr::from(dst),
                        src_port: 3478,
                        dst_port: 51820,
                        ip_total_len: p.ip_total_len,
                        payload: bytes::Bytes::from(udp_payload),
                    },
                }
            })
            .collect()
    }

    /// Mean ground-truth frame rate over the call.
    pub fn mean_fps(&self) -> f64 {
        if self.truth.is_empty() {
            return 0.0;
        }
        self.truth.iter().map(|t| t.fps).sum::<f64>() / self.truth.len() as f64
    }

    /// Mean ground-truth bitrate over the call, kbps.
    pub fn mean_bitrate_kbps(&self) -> f64 {
        if self.truth.is_empty() {
            return 0.0;
        }
        self.truth.iter().map(|t| t.bitrate_kbps).sum::<f64>() / self.truth.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::VcaProfile;
    use vcaml_netem::SecondCondition;

    fn good_network() -> ConditionSchedule {
        ConditionSchedule::constant(SecondCondition {
            throughput_kbps: 5000.0,
            delay_ms: 20.0,
            jitter_ms: 1.0,
            loss_pct: 0.0,
        })
    }

    fn run(vca: VcaKind, sched: ConditionSchedule, secs: u32, seed: u64) -> SessionTrace {
        Session::new(SessionConfig {
            profile: VcaProfile::lab(vca),
            schedule: sched,
            duration_secs: secs,
            seed,
            link: LinkConfig::default(),
        })
        .run()
    }

    #[test]
    fn good_network_reaches_high_fps() {
        let trace = run(VcaKind::Teams, good_network(), 20, 1);
        // Skip warm-up seconds.
        let settled: Vec<f64> = trace.truth[5..].iter().map(|t| t.fps).collect();
        let mean = settled.iter().sum::<f64>() / settled.len() as f64;
        assert!(mean > 24.0, "settled fps {mean}");
    }

    #[test]
    fn bitrate_ramps_toward_cap_on_good_network() {
        let trace = run(VcaKind::Teams, good_network(), 25, 2);
        let late = &trace.truth[15..];
        let mean = late.iter().map(|t| t.bitrate_kbps).sum::<f64>() / late.len() as f64;
        assert!(mean > 2000.0, "late bitrate {mean}");
    }

    #[test]
    fn webex_bitrate_lower_than_teams() {
        let teams = run(VcaKind::Teams, good_network(), 20, 3);
        let webex = run(VcaKind::Webex, good_network(), 20, 3);
        assert!(webex.mean_bitrate_kbps() < teams.mean_bitrate_kbps());
        assert!(webex.mean_bitrate_kbps() < 1600.0);
    }

    #[test]
    fn packets_sorted_and_classified() {
        let trace = run(VcaKind::Meet, good_network(), 10, 4);
        assert!(!trace.packets.is_empty());
        assert!(trace
            .packets
            .windows(2)
            .all(|w| w[0].arrival_ts <= w[1].arrival_ts));
        let kinds: std::collections::HashSet<_> = trace.packets.iter().map(|p| p.media).collect();
        assert!(kinds.contains(&MediaKind::Video));
        assert!(kinds.contains(&MediaKind::Audio));
        assert!(kinds.contains(&MediaKind::Control));
        assert!(kinds.contains(&MediaKind::VideoRtx));
    }

    #[test]
    fn audio_sizes_within_envelope_video_larger() {
        let trace = run(VcaKind::Teams, good_network(), 15, 5);
        for p in &trace.packets {
            match p.media {
                MediaKind::Audio => {
                    assert!(
                        (89..=385).contains(&p.ip_total_len),
                        "audio {}",
                        p.ip_total_len
                    )
                }
                MediaKind::Video => {}
                _ => {}
            }
        }
        // 99% of Teams video packets should exceed 564 bytes on a good
        // network (paper Fig. 1).
        let video: Vec<u16> = trace
            .packets
            .iter()
            .filter(|p| p.media == MediaKind::Video)
            .map(|p| p.ip_total_len)
            .collect();
        let big = video.iter().filter(|&&s| s > 564).count();
        assert!(
            big as f64 / video.len() as f64 > 0.80,
            "only {}/{} video packets above 564B",
            big,
            video.len()
        );
    }

    #[test]
    fn keepalives_present_at_304() {
        let trace = run(VcaKind::Teams, good_network(), 10, 6);
        let ka = trace
            .packets
            .iter()
            .filter(|p| p.media == MediaKind::VideoRtx && p.ip_total_len == 304)
            .count();
        assert!(ka >= 10, "only {ka} keepalives");
    }

    #[test]
    fn loss_triggers_retransmissions() {
        let sched = ConditionSchedule::constant(SecondCondition {
            throughput_kbps: 4000.0,
            delay_ms: 25.0,
            jitter_ms: 1.0,
            loss_pct: 5.0,
        });
        let trace = run(VcaKind::Teams, sched, 15, 7);
        let rtx_data = trace
            .packets
            .iter()
            .filter(|p| p.media == MediaKind::VideoRtx && p.ip_total_len != 304)
            .count();
        assert!(
            rtx_data > 5,
            "only {rtx_data} retransmissions under 5% loss"
        );
    }

    #[test]
    fn congestion_reduces_bitrate() {
        let tight = ConditionSchedule::constant(SecondCondition {
            throughput_kbps: 500.0,
            delay_ms: 25.0,
            jitter_ms: 1.0,
            loss_pct: 0.0,
        });
        let trace = run(VcaKind::Teams, tight, 25, 8);
        let late = &trace.truth[15..];
        let mean = late.iter().map(|t| t.bitrate_kbps).sum::<f64>() / late.len() as f64;
        assert!(mean < 700.0, "bitrate {mean} despite 500 kbps bottleneck");
    }

    #[test]
    fn resolution_follows_bitrate() {
        let tight = ConditionSchedule::constant(SecondCondition {
            throughput_kbps: 300.0,
            delay_ms: 25.0,
            jitter_ms: 0.5,
            loss_pct: 0.0,
        });
        let low = run(VcaKind::Meet, tight, 20, 9);
        let high = run(VcaKind::Meet, good_network(), 20, 9);
        let h_low = low.truth[10..].iter().map(|t| t.height).max().unwrap();
        let h_high = high.truth[10..].iter().map(|t| t.height).max().unwrap();
        assert!(h_low < h_high, "low {h_low} vs high {h_high}");
    }

    #[test]
    fn truth_length_matches_duration() {
        let trace = run(VcaKind::Webex, good_network(), 12, 10);
        assert_eq!(trace.truth.len(), 12);
        assert_eq!(trace.duration_secs, 12);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(VcaKind::Meet, good_network(), 8, 42);
        let b = run(VcaKind::Meet, good_network(), 8, 42);
        assert_eq!(a.packets, b.packets);
        let c = run(VcaKind::Meet, good_network(), 8, 43);
        assert_ne!(a.packets, c.packets);
    }

    #[test]
    fn captured_packets_parse_as_rtp() {
        let trace = run(VcaKind::Teams, good_network(), 6, 11);
        let captured = trace.to_captured();
        assert_eq!(captured.len(), trace.packets.len());
        for (cap, sim) in captured.iter().zip(&trace.packets) {
            assert_eq!(cap.size(), sim.ip_total_len);
            match sim.rtp {
                Some(h) => {
                    let parsed = RtpHeader::parse(&cap.datagram.payload).unwrap();
                    assert_eq!(parsed.payload_type, h.payload_type);
                    assert_eq!(parsed.sequence, h.sequence);
                    assert_eq!(parsed.timestamp, h.timestamp);
                    assert_eq!(parsed.marker, h.marker);
                }
                None => {
                    assert!(RtpHeader::parse(&cap.datagram.payload).is_err());
                }
            }
        }
    }

    #[test]
    fn intra_frame_sizes_nearly_equal_for_h264_vcas() {
        let trace = run(VcaKind::Teams, good_network(), 10, 12);
        // Group video packets by RTP timestamp = frame.
        let mut by_ts: HashMap<u32, Vec<u16>> = HashMap::new();
        for p in &trace.packets {
            if p.media == MediaKind::Video {
                by_ts
                    .entry(p.rtp.unwrap().timestamp)
                    .or_default()
                    .push(p.ip_total_len);
            }
        }
        let mut bad = 0;
        let mut multi = 0;
        for sizes in by_ts.values() {
            if sizes.len() > 1 {
                multi += 1;
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                if max - min > 1 {
                    bad += 1;
                }
            }
        }
        assert!(multi > 20);
        assert_eq!(bad, 0, "{bad}/{multi} frames with intra-frame spread > 1");
    }

    #[test]
    fn meet_has_unequal_frames() {
        let trace = run(VcaKind::Meet, good_network(), 30, 13);
        let mut by_ts: HashMap<u32, Vec<u16>> = HashMap::new();
        for p in &trace.packets {
            if p.media == MediaKind::Video {
                by_ts
                    .entry(p.rtp.unwrap().timestamp)
                    .or_default()
                    .push(p.ip_total_len);
            }
        }
        let mut bad = 0;
        let mut multi = 0;
        for sizes in by_ts.values() {
            if sizes.len() > 1 {
                multi += 1;
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                if max - min > 2 {
                    bad += 1;
                }
            }
        }
        let frac = f64::from(bad) / f64::from(multi.max(1));
        assert!(
            frac > 0.01 && frac < 0.15,
            "unequal fraction {frac} ({bad}/{multi})"
        );
    }
}
