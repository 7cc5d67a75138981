//! The receiving client: frame reassembly, jitter buffer, decoder, and the
//! `webrtc-internals`-style per-second ground-truth statistics.
//!
//! Two paper-critical behaviours live here:
//!
//! 1. **Frame jitter is measured over decoded frames** — after the jitter
//!    buffer has smoothed arrivals and added its own variable delay. This
//!    is why the paper's §5.1.4 finds all network-side methods
//!    overestimate "true" (network) jitter relative to the WebRTC ground
//!    truth.
//! 2. **NACK generation** on sequence gaps feeds the retransmission
//!    stream, which under loss reorders packets and degrades the IP/UDP
//!    methods (§5.4).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use vcaml_netpkt::Timestamp;
use vcaml_rtp::MediaKind;

/// Per-packet codec packetization metadata (payload descriptors, frame
/// headers) included in the RTP payload but not counted by the
/// application's media bitrate stat. This is what makes network-side
/// bitrate estimates systematically overestimate (paper §5.1.3: "neither
/// of these heuristics considers any application-layer overheads").
pub const MEDIA_OVERHEAD_BYTES: usize = 30;

/// A packet as it arrives at the receiving client (post-network).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivedPacket {
    /// Arrival time.
    pub arrival: Timestamp,
    /// Original send time (used for one-way-delay feedback).
    pub send: Timestamp,
    /// Media classification (from the RTP payload type).
    pub media: MediaKind,
    /// Video frame id this packet belongs to (dense, from 0).
    pub frame_id: u64,
    /// Number of packets the frame was fragmented into.
    pub frame_packets: u32,
    /// Frame height at encode time.
    pub height: u32,
    /// RTP sequence number on its stream.
    pub seq: u16,
    /// RTP payload bytes carried.
    pub payload_len: usize,
}

/// Per-second ground truth, the analogue of a `webrtc-internals` log row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecondTruth {
    /// Wall-clock second index from call start.
    pub second: i64,
    /// Received video bitrate in kbps (RTP payload bits per second).
    pub bitrate_kbps: f64,
    /// Frames decoded in this second.
    pub fps: f64,
    /// Standard deviation of inter-decoded-frame gaps, milliseconds.
    pub frame_jitter_ms: f64,
    /// Dominant decoded frame height.
    pub height: u32,
}

#[derive(Debug)]
struct FrameAsm {
    needed: u32,
    got: u32,
    first_arrival: Timestamp,
    last_arrival: Timestamp,
    height: u32,
    payload_bytes: usize,
}

/// Decoded-frame event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedFrame {
    /// Time the frame left the jitter buffer.
    pub decode_ts: Timestamp,
    /// Frame id.
    pub frame_id: u64,
    /// Frame height.
    pub height: u32,
}

/// Receiver state machine.
#[derive(Debug)]
pub struct Receiver {
    frames: HashMap<u64, FrameAsm>,
    next_decode: u64,
    last_decode_out: Timestamp,
    /// EWMA of frame-arrival jitter, milliseconds.
    ewma_jitter_ms: f64,
    last_complete_arrival: Option<Timestamp>,
    decoded: Vec<DecodedFrame>,
    /// Video payload bytes by arrival second.
    bytes_per_sec: HashMap<i64, usize>,
    /// Expected next sequence number on the video stream (NACK tracking).
    expected_video_seq: Option<u16>,
    /// Packets counted per second for feedback.
    arrivals_per_sec: HashMap<i64, u32>,
    owd_sum_per_sec: HashMap<i64, f64>,
    /// How long an undecodable frame stalls the pipeline before being
    /// skipped, microseconds.
    abandon_us: i64,
    abandoned: u64,
    /// Randomness for application-level decode delay variability.
    rng: StdRng,
}

impl Receiver {
    /// Creates a receiver with the default 150 ms frame-abandon timeout
    /// (roughly what WebRTC's jitter buffer waits for NACK recovery before
    /// skipping ahead).
    pub fn new() -> Self {
        Self::with_seed(0)
    }

    /// Creates a receiver with an explicit seed for its decode-delay
    /// variability model.
    pub fn with_seed(seed: u64) -> Self {
        Receiver {
            frames: HashMap::new(),
            next_decode: 0,
            last_decode_out: Timestamp::ZERO,
            ewma_jitter_ms: 5.0,
            last_complete_arrival: None,
            decoded: Vec::new(),
            bytes_per_sec: HashMap::new(),
            expected_video_seq: None,
            arrivals_per_sec: HashMap::new(),
            owd_sum_per_sec: HashMap::new(),
            abandon_us: 150_000,
            abandoned: 0,
            rng: StdRng::seed_from_u64(seed ^ 0xdec0de),
        }
    }

    /// Application-level delay variability added on top of the jitter
    /// buffer: decode/render scheduling noise plus rare CPU stalls. This
    /// is what makes the WebRTC-reported frame jitter larger than (and
    /// partly uncorrelated with) network-side frame jitter — the effect
    /// the paper discusses in §5.1.4.
    fn decode_delay_noise(&mut self) -> Timestamp {
        let g: f64 = {
            let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = self.rng.gen::<f64>();
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        let mut ms = (10.0 + 12.0 * g).max(0.0);
        if self.rng.gen::<f64>() < 0.02 {
            ms += self.rng.gen_range(50.0..150.0);
        }
        Timestamp::from_micros((ms * 1000.0) as i64)
    }

    /// Current adaptive jitter-buffer delay.
    fn buffer_delay(&self) -> Timestamp {
        let ms = (10.0 + 2.5 * self.ewma_jitter_ms).clamp(10.0, 250.0);
        Timestamp::from_micros((ms * 1000.0) as i64)
    }

    /// Handles one arriving packet. Returns sequence numbers to NACK (new
    /// gaps detected on the video stream).
    pub fn on_packet(&mut self, pkt: ArrivedPacket) -> Vec<u16> {
        let sec = pkt.arrival.second_index();
        *self.arrivals_per_sec.entry(sec).or_insert(0) += 1;
        *self.owd_sum_per_sec.entry(sec).or_insert(0.0) += (pkt.arrival - pkt.send).as_millis_f64();

        let mut nacks = Vec::new();
        match pkt.media {
            MediaKind::Video => {
                // Gap detection for NACK.
                if let Some(exp) = self.expected_video_seq {
                    let d = vcaml_rtp::seq_distance(pkt.seq, exp);
                    if d > 0 && d <= 64 {
                        let mut s = exp;
                        while s != pkt.seq {
                            nacks.push(s);
                            s = s.wrapping_add(1);
                        }
                    }
                    if d >= 0 {
                        self.expected_video_seq = Some(pkt.seq.wrapping_add(1));
                    }
                } else {
                    self.expected_video_seq = Some(pkt.seq.wrapping_add(1));
                }
                *self.bytes_per_sec.entry(sec).or_insert(0) +=
                    pkt.payload_len.saturating_sub(MEDIA_OVERHEAD_BYTES);
                self.ingest_video(pkt);
            }
            MediaKind::VideoRtx => {
                // A recovered packet completes its frame; keepalives have
                // frame_id == u64::MAX and are ignored here.
                if pkt.frame_id != u64::MAX {
                    *self.bytes_per_sec.entry(sec).or_insert(0) +=
                        pkt.payload_len.saturating_sub(MEDIA_OVERHEAD_BYTES);
                    self.ingest_video(pkt);
                }
            }
            MediaKind::Audio | MediaKind::Control => {}
        }
        self.drain_decodable(pkt.arrival);
        nacks
    }

    fn ingest_video(&mut self, pkt: ArrivedPacket) {
        if pkt.frame_id < self.next_decode {
            return; // frame already decoded or abandoned
        }
        let asm = self.frames.entry(pkt.frame_id).or_insert(FrameAsm {
            needed: pkt.frame_packets,
            got: 0,
            first_arrival: pkt.arrival,
            last_arrival: pkt.arrival,
            height: pkt.height,
            payload_bytes: 0,
        });
        asm.got += 1;
        asm.payload_bytes += pkt.payload_len;
        asm.last_arrival = asm.last_arrival.max(pkt.arrival);
        asm.first_arrival = asm.first_arrival.min(pkt.arrival);
    }

    /// Decodes all frames that are complete and in order; abandons frames
    /// stuck past the timeout.
    fn drain_decodable(&mut self, now: Timestamp) {
        loop {
            let id = self.next_decode;
            let Some(asm) = self.frames.get(&id) else {
                // Frame not seen at all: abandon once later frames prove
                // the stream has moved on.
                let later_complete = self
                    .frames
                    .iter()
                    .any(|(&fid, a)| fid > id && a.got >= a.needed);
                if later_complete && now.as_micros() > self.abandon_us {
                    // Only abandon if we've waited long enough since the
                    // earliest later frame arrived. (`later_complete`
                    // guarantees at least one later frame exists.)
                    let earliest_later = self
                        .frames
                        .iter()
                        .filter(|(&fid, _)| fid > id)
                        .map(|(_, a)| a.first_arrival)
                        .min();
                    if earliest_later.is_some_and(|t| (now - t).as_micros() > self.abandon_us) {
                        self.next_decode += 1;
                        self.abandoned += 1;
                        continue;
                    }
                }
                break;
            };
            if asm.got >= asm.needed {
                // Complete: run it through the jitter buffer.
                let complete = asm.last_arrival;
                let height = asm.height;
                if let Some(prev) = self.last_complete_arrival {
                    let gap = (complete - prev).as_millis_f64().abs();
                    // Deviation from a nominal 33 ms frame interval.
                    let dev = (gap - 33.3).abs();
                    self.ewma_jitter_ms = 0.9 * self.ewma_jitter_ms + 0.1 * dev;
                }
                self.last_complete_arrival = Some(complete);
                let noise = self.decode_delay_noise();
                let out = (complete + self.buffer_delay() + noise).max(self.last_decode_out);
                self.last_decode_out = out;
                self.decoded.push(DecodedFrame {
                    decode_ts: out,
                    frame_id: id,
                    height,
                });
                self.frames.remove(&id);
                self.next_decode += 1;
            } else if (now - asm.first_arrival).as_micros() > self.abandon_us {
                self.frames.remove(&id);
                self.next_decode += 1;
                self.abandoned += 1;
            } else {
                break;
            }
        }
    }

    /// Per-second feedback for the rate controller.
    pub fn feedback_for_second(&self, sec: i64, sent_packets: u32) -> crate::rate::Feedback {
        let got = self.arrivals_per_sec.get(&sec).copied().unwrap_or(0);
        let loss = if sent_packets > 0 {
            1.0 - f64::from(got.min(sent_packets)) / f64::from(sent_packets)
        } else {
            0.0
        };
        let owd = if got > 0 {
            self.owd_sum_per_sec.get(&sec).copied().unwrap_or(0.0) / f64::from(got)
        } else {
            0.0
        };
        let bytes = self.bytes_per_sec.get(&sec).copied().unwrap_or(0);
        crate::rate::Feedback {
            loss_fraction: loss,
            mean_owd_ms: owd,
            recv_rate_kbps: bytes as f64 * 8.0 / 1000.0,
        }
    }

    /// Frames the decoder skipped.
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }

    /// All decode events so far (ordered by decode time).
    pub fn decoded_frames(&self) -> &[DecodedFrame] {
        &self.decoded
    }

    /// Finalizes the call and produces per-second ground truth covering
    /// seconds `0..duration_secs`.
    pub fn ground_truth(&mut self, duration_secs: i64) -> Vec<SecondTruth> {
        // Flush anything still waiting.
        self.drain_decodable(Timestamp::from_secs(duration_secs) + Timestamp::from_secs(10));
        let mut decode_by_sec: HashMap<i64, Vec<DecodedFrame>> = HashMap::new();
        for d in &self.decoded {
            decode_by_sec
                .entry(d.decode_ts.second_index())
                .or_default()
                .push(*d);
        }
        let mut out = Vec::with_capacity(duration_secs as usize);
        for sec in 0..duration_secs {
            let decodes = decode_by_sec.get(&sec).map(Vec::as_slice).unwrap_or(&[]);
            let fps = decodes.len() as f64;
            // Jitter: stddev of inter-decode gaps within the second; needs
            // at least 3 decodes for one meaningful gap pair.
            let jitter = if decodes.len() >= 3 {
                let gaps: Vec<f64> = decodes
                    .windows(2)
                    .map(|w| (w[1].decode_ts - w[0].decode_ts).as_millis_f64())
                    .collect();
                stddev(&gaps)
            } else {
                0.0
            };
            let height = mode_height(decodes);
            let bytes = self.bytes_per_sec.get(&sec).copied().unwrap_or(0);
            out.push(SecondTruth {
                second: sec,
                bitrate_kbps: bytes as f64 * 8.0 / 1000.0,
                fps,
                frame_jitter_ms: jitter,
                height,
            });
        }
        out
    }
}

impl Default for Receiver {
    fn default() -> Self {
        Self::new()
    }
}

fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
    var.sqrt()
}

fn mode_height(decodes: &[DecodedFrame]) -> u32 {
    let mut counts: HashMap<u32, u32> = HashMap::new();
    for d in decodes {
        *counts.entry(d.height).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(h, c)| (c, h))
        .map(|(h, _)| h)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(ms: i64, frame: u64, of: u32, seq: u16, h: u32) -> ArrivedPacket {
        ArrivedPacket {
            arrival: Timestamp::from_millis(ms),
            send: Timestamp::from_millis(ms - 20),
            media: MediaKind::Video,
            frame_id: frame,
            frame_packets: of,
            height: h,
            seq,
            payload_len: 1000,
        }
    }

    #[test]
    fn in_order_frames_decode() {
        let mut r = Receiver::new();
        let mut seq = 0u16;
        for f in 0..30u64 {
            for _ in 0..2 {
                assert!(r.on_packet(pkt(f as i64 * 33, f, 2, seq, 360)).is_empty());
                seq += 1;
            }
        }
        assert_eq!(r.decoded_frames().len(), 30);
        // Decode times strictly ordered.
        let d = r.decoded_frames();
        assert!(d.windows(2).all(|w| w[1].decode_ts >= w[0].decode_ts));
    }

    #[test]
    fn gap_triggers_nack() {
        let mut r = Receiver::new();
        assert!(r.on_packet(pkt(0, 0, 1, 10, 360)).is_empty());
        let nacks = r.on_packet(pkt(33, 2, 1, 13, 360));
        assert_eq!(nacks, vec![11, 12]);
    }

    #[test]
    fn late_packet_no_nack() {
        let mut r = Receiver::new();
        r.on_packet(pkt(0, 0, 1, 10, 360));
        r.on_packet(pkt(33, 2, 1, 12, 360)); // NACK 11
        let nacks = r.on_packet(pkt(40, 1, 1, 11, 360)); // late arrival
        assert!(nacks.is_empty());
    }

    #[test]
    fn incomplete_frame_abandoned_after_timeout() {
        let mut r = Receiver::new();
        r.on_packet(pkt(0, 0, 2, 0, 360)); // frame 0 incomplete (1/2)
        for f in 1..20u64 {
            r.on_packet(pkt(f as i64 * 33, f, 1, f as u16 + 1, 360));
        }
        // Frame 0 blocks until 300 ms pass, then later frames decode.
        assert!(r.abandoned() >= 1);
        assert!(r.decoded_frames().len() >= 10);
        assert!(r.decoded_frames().iter().all(|d| d.frame_id != 0));
    }

    #[test]
    fn rtx_recovery_completes_frame() {
        let mut r = Receiver::new();
        r.on_packet(pkt(0, 0, 2, 0, 360));
        // Second packet of frame 0 lost; recovered via rtx at 80 ms.
        let mut rtx = pkt(80, 0, 2, 1, 360);
        rtx.media = MediaKind::VideoRtx;
        r.on_packet(rtx);
        assert_eq!(r.decoded_frames().len(), 1);
    }

    #[test]
    fn keepalive_ignored() {
        let mut r = Receiver::new();
        let mut ka = pkt(10, u64::MAX, 1, 0, 0);
        ka.media = MediaKind::VideoRtx;
        ka.payload_len = 264;
        r.on_packet(ka);
        assert!(r.decoded_frames().is_empty());
        let gt = r.ground_truth(1);
        assert_eq!(gt[0].bitrate_kbps, 0.0);
    }

    #[test]
    fn ground_truth_counts_fps_and_bitrate() {
        let mut r = Receiver::new();
        for (seq, f) in (0..60u64).enumerate() {
            // 30 fps: frames at 33 ms intervals over 2 seconds.
            r.on_packet(pkt(f as i64 * 33, f, 1, seq as u16, 270));
        }
        let gt = r.ground_truth(2);
        assert_eq!(gt.len(), 2);
        // ~30 fps in each full second (jitter-buffer shifts a couple).
        assert!(gt[0].fps >= 25.0 && gt[0].fps <= 32.0, "fps {}", gt[0].fps);
        // 1000 B/frame * ~30 frames = ~240 kbps.
        assert!(
            (gt[0].bitrate_kbps - 240.0).abs() < 40.0,
            "bitrate {}",
            gt[0].bitrate_kbps
        );
        assert_eq!(gt[0].height, 270);
    }

    #[test]
    fn jitter_reflects_irregular_decode_gaps() {
        let mut r = Receiver::new();
        let mut t = 0i64;
        // Irregular gaps: alternating 10 / 80 ms.
        for (seq, f) in (0..20u64).enumerate() {
            r.on_packet(pkt(t, f, 1, seq as u16, 360));
            t += if f % 2 == 0 { 10 } else { 80 };
        }
        let gt = r.ground_truth(1);
        assert!(
            gt[0].frame_jitter_ms > 10.0,
            "jitter {}",
            gt[0].frame_jitter_ms
        );
    }

    #[test]
    fn feedback_measures_loss_and_rate() {
        let mut r = Receiver::new();
        for i in 0..50u64 {
            r.on_packet(pkt(i as i64 * 10, i, 1, i as u16, 360));
        }
        let fb = r.feedback_for_second(0, 100);
        assert!((fb.loss_fraction - 0.5).abs() < 1e-9);
        // 50 packets × (1000 − 30 overhead) bytes = 388 kbit.
        assert!((fb.recv_rate_kbps - 388.0).abs() < 1e-9);
        assert!((fb.mean_owd_ms - 20.0).abs() < 1e-9);
    }

    #[test]
    fn mode_height_prefers_majority() {
        let mk = |h| DecodedFrame {
            decode_ts: Timestamp::ZERO,
            frame_id: 0,
            height: h,
        };
        assert_eq!(mode_height(&[mk(360), mk(180), mk(360)]), 360);
        assert_eq!(mode_height(&[]), 0);
    }
}
