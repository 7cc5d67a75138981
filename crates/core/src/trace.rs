//! The monitor-side trace model: what a passive observer has (timestamps,
//! sizes, and — for the RTP baselines — parsed RTP headers), plus the
//! ground-truth rows used for training and evaluation.
//!
//! ```
//! use vcaml::{Trace, TracePacket};
//! use vcaml_netpkt::Timestamp;
//! use vcaml_rtp::{PayloadMap, RtpHeader, VcaKind};
//!
//! let pkt = |ms: i64, size: u16, pt: Option<u8>| TracePacket {
//!     ts: Timestamp::from_millis(ms),
//!     size,
//!     rtp: pt.map(|pt| RtpHeader::basic(pt, 0, 0, 1, false)),
//!     truth_media: None,
//! };
//! let trace = Trace {
//!     vca: VcaKind::Teams,
//!     payload_map: PayloadMap::lab(VcaKind::Teams),
//!     packets: vec![
//!         pkt(0, 1_100, Some(102)), // video payload type
//!         pkt(5, 150, Some(111)),   // audio
//!         pkt(9, 80, None),         // not RTP at all
//!     ],
//!     truth: vec![],
//!     duration_secs: 1,
//! };
//! // Payload-type classification is how the RTP baselines see media.
//! assert_eq!(trace.rtp_video_packets().count(), 1);
//! // No ground-truth rows yet → incomplete by the paper's §4.1 filter.
//! assert!(!trace.is_complete());
//! ```

use vcaml_netpkt::Timestamp;
use vcaml_rtp::{MediaKind, PayloadMap, RtpHeader, VcaKind};

/// One captured packet, as the inference methods see it.
///
/// `rtp` is the parsed RTP header when the payload parses as RTP (used
/// only by the RTP baselines); `truth_media` is simulator ground truth
/// used exclusively for evaluating media classification, never as a model
/// input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePacket {
    /// Capture timestamp.
    pub ts: Timestamp,
    /// IP total length in bytes.
    pub size: u16,
    /// Parsed RTP header, if the packet is RTP.
    pub rtp: Option<RtpHeader>,
    /// Ground-truth media class (evaluation only).
    pub truth_media: Option<MediaKind>,
}

/// One second of ground-truth QoE (a `webrtc-internals` row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruthRow {
    /// Second index from call start.
    pub second: i64,
    /// Received video bitrate, kbps.
    pub bitrate_kbps: f64,
    /// Decoded frames per second.
    pub fps: f64,
    /// Frame jitter over decoded frames, milliseconds.
    pub frame_jitter_ms: f64,
    /// Dominant frame height.
    pub height: u32,
}

/// A full captured session with ground truth.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Which VCA produced the session.
    pub vca: VcaKind,
    /// Payload-type mapping in force (lab vs real-world differ, §5.2).
    pub payload_map: PayloadMap,
    /// Captured packets in arrival order.
    pub packets: Vec<TracePacket>,
    /// Per-second ground truth.
    pub truth: Vec<TruthRow>,
    /// Call duration in seconds.
    pub duration_secs: u32,
}

impl Trace {
    /// Packets whose RTP payload type marks them as primary video — the
    /// media classification used by the RTP baselines (§3.3).
    pub fn rtp_video_packets(&self) -> impl Iterator<Item = &TracePacket> {
        self.packets.iter().filter(move |p| {
            p.rtp.is_some_and(|h| {
                self.payload_map.classify(h.payload_type) == Some(MediaKind::Video)
            })
        })
    }

    /// Sanity check used by dataset builders: the paper filters out
    /// sessions whose WebRTC logs cover fewer seconds than the call
    /// (§4.1).
    pub fn is_complete(&self) -> bool {
        self.truth.len() as u32 >= self.duration_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(ms: i64, size: u16, pt: Option<u8>) -> TracePacket {
        TracePacket {
            ts: Timestamp::from_millis(ms),
            size,
            rtp: pt.map(|pt| RtpHeader::basic(pt, 0, 0, 1, false)),
            truth_media: None,
        }
    }

    fn trace(packets: Vec<TracePacket>) -> Trace {
        Trace {
            vca: VcaKind::Teams,
            payload_map: PayloadMap::lab(VcaKind::Teams),
            packets,
            truth: vec![],
            duration_secs: 0,
        }
    }

    #[test]
    fn pt_classification_splits_streams() {
        let t = trace(vec![
            pkt(0, 1000, Some(102)),
            pkt(1, 300, Some(103)),
            pkt(2, 150, Some(111)),
            pkt(3, 80, None),
        ]);
        assert_eq!(t.rtp_video_packets().count(), 1);
        let rtx = t.packets.iter().filter(|p| {
            p.rtp.is_some_and(|h| {
                t.payload_map.classify(h.payload_type) == Some(MediaKind::VideoRtx)
            })
        });
        assert_eq!(rtx.count(), 1);
    }

    #[test]
    fn completeness_check() {
        let mut t = trace(vec![]);
        t.duration_secs = 3;
        t.truth = vec![
            TruthRow {
                second: 0,
                bitrate_kbps: 0.0,
                fps: 0.0,
                frame_jitter_ms: 0.0,
                height: 0
            };
            2
        ];
        assert!(!t.is_complete());
        t.truth.push(t.truth[0]);
        assert!(t.is_complete());
    }
}
