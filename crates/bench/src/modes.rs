//! Application-mode analysis (paper §7): detecting video-off calls from
//! the UDP packet-size distribution, and estimating the number of active
//! video participants in a multi-party call before per-stream QoE
//! estimation.
//!
//! ```
//! use vcaml::media::MediaClassifier;
//! use vcaml::TracePacket;
//! use vcaml_bench::modes::{detect_video_off, estimate_participants_ipudp};
//! use vcaml_netpkt::Timestamp;
//!
//! // An audio-only call: steady 150-byte packets every 20 ms.
//! let audio_only: Vec<TracePacket> = (0..500)
//!     .map(|i| TracePacket {
//!         ts: Timestamp::from_millis(i * 20),
//!         size: 150,
//!         rtp: None,
//!         truth_media: None,
//!     })
//!     .collect();
//! assert!(detect_video_off(&audio_only, &MediaClassifier::default()));
//!
//! // A merged conference flow at ~58 aggregate fps over 30 fps tiles
//! // suggests two active video participants.
//! assert_eq!(estimate_participants_ipudp(58.0, 30.0), 2);
//! ```

use vcaml::media::MediaClassifier;
use vcaml::TracePacket;

/// Minimum sustained rate of video-sized packets (per second) for a call
/// to count as having video. A single 180p stream at 7 fps with one packet
/// per frame is ~7 pps; DTLS handshake bursts at call start are excluded
/// by the warm-up skip.
pub const MIN_VIDEO_PPS: f64 = 4.0;

/// Seconds ignored at call start (ICE/DTLS setup noise).
pub const WARMUP_SECS: i64 = 2;

/// Returns true when the call carries no user video: the rate of
/// video-sized packets after warm-up stays below [`MIN_VIDEO_PPS`]. The
/// paper: "Determining whether user video is disabled seems possible by
/// analyzing UDP packet size distribution".
///
/// Call time counts from the first packet's second, so a capture
/// stamped in wall-clock epoch time reads the same as one starting at 0.
pub fn detect_video_off(packets: &[TracePacket], classifier: &MediaClassifier) -> bool {
    let (Some(first), Some(last)) = (packets.first(), packets.last()) else {
        return true;
    };
    let start = first.ts.second_index();
    let horizon_secs = last.ts.second_index() - start - WARMUP_SECS + 1;
    if horizon_secs <= 0 {
        return true;
    }
    let video_count = packets
        .iter()
        .filter(|p| p.ts.second_index() - start >= WARMUP_SECS && classifier.is_video(p))
        .count();
    (video_count as f64 / horizon_secs as f64) < MIN_VIDEO_PPS
}

/// Participant-count estimate from IP/UDP data alone: the aggregate frame
/// rate of the merged flow divided by a nominal per-stream frame rate.
/// Conferences cap at 30 fps per tile, so `round(agg_fps / nominal)` with
/// a floor of one.
pub fn estimate_participants_ipudp(aggregate_fps: f64, nominal_fps: f64) -> usize {
    assert!(nominal_fps > 0.0, "non-positive nominal fps");
    (aggregate_fps / nominal_fps).round().max(1.0) as usize
}

/// Participant-count baseline using RTP headers: the number of distinct
/// video SSRCs observed.
pub fn estimate_participants_rtp(packets: &[TracePacket], video_pt: u8) -> usize {
    let ssrcs: std::collections::HashSet<u32> = packets
        .iter()
        .filter_map(|p| p.rtp)
        .filter(|h| h.payload_type == video_pt)
        .map(|h| h.ssrc)
        .collect();
    ssrcs.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcaml_netpkt::Timestamp;
    use vcaml_rtp::RtpHeader;

    fn pkt(ms: i64, size: u16, rtp: Option<(u8, u32)>) -> TracePacket {
        TracePacket {
            ts: Timestamp::from_millis(ms),
            size,
            rtp: rtp.map(|(pt, ssrc)| RtpHeader::basic(pt, 0, 0, ssrc, false)),
            truth_media: None,
        }
    }

    #[test]
    fn audio_only_call_detected_as_video_off() {
        let classifier = MediaClassifier::default();
        let mut pkts = Vec::new();
        // A big DTLS record during setup must not count.
        pkts.push(pkt(100, 1200, None));
        for i in 0..500 {
            pkts.push(pkt(i * 20, 150, None));
        }
        assert!(detect_video_off(&pkts, &classifier));
    }

    #[test]
    fn video_call_not_flagged() {
        let classifier = MediaClassifier::default();
        // From 0, and stamped as a real capture is: in epoch time.
        for start_ms in [0, 1_700_000_000_000] {
            let pkts: Vec<TracePacket> = (0..300)
                .map(|i| pkt(start_ms + i * 33, 1100, None))
                .collect();
            assert!(!detect_video_off(&pkts, &classifier), "start {start_ms} ms");
        }
    }

    #[test]
    fn empty_trace_is_video_off() {
        assert!(detect_video_off(&[], &MediaClassifier::default()));
    }

    #[test]
    fn participant_estimates() {
        assert_eq!(estimate_participants_ipudp(30.0, 30.0), 1);
        assert_eq!(estimate_participants_ipudp(58.0, 30.0), 2);
        assert_eq!(estimate_participants_ipudp(91.0, 30.0), 3);
        assert_eq!(estimate_participants_ipudp(2.0, 30.0), 1); // floor
    }

    #[test]
    fn rtp_participants_by_ssrc() {
        let pkts = vec![
            pkt(0, 1100, Some((102, 1))),
            pkt(1, 1100, Some((102, 2))),
            pkt(2, 1100, Some((102, 1))),
            pkt(3, 150, Some((111, 9))), // audio doesn't count
        ];
        assert_eq!(estimate_participants_rtp(&pkts, 102), 2);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn zero_nominal_rejected() {
        let _ = estimate_participants_ipudp(30.0, 0.0);
    }
}
