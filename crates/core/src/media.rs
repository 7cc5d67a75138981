//! Media classification from IP/UDP headers alone (§3.1).
//!
//! Voice packets are small ([89, 385] bytes for Teams) while 99% of video
//! packets exceed 564 bytes, so a size threshold `Vmin` separates them.
//! Packets at or above `Vmin` are tagged video; everything else (audio,
//! keepalives, STUN, RTCP) is set aside. The 304-byte rtx keepalives fall
//! below any sensible `Vmin` and are filtered out automatically.

use crate::trace::{Trace, TracePacket};
use vcaml_mlcore::ConfusionMatrix;
use vcaml_rtp::MediaKind;

/// Default `Vmin`: between the audio envelope top (385 B) and the 99th
/// percentile video floor (564 B) observed in the paper.
pub const DEFAULT_VMIN: u16 = 450;

/// The size-threshold media classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediaClassifier {
    /// Minimum IP total length to tag a packet as video.
    pub vmin: u16,
}

impl Default for MediaClassifier {
    fn default() -> Self {
        MediaClassifier { vmin: DEFAULT_VMIN }
    }
}

impl MediaClassifier {
    /// Creates a classifier with an explicit threshold.
    pub fn new(vmin: u16) -> Self {
        assert!(vmin > 0, "zero threshold");
        MediaClassifier { vmin }
    }

    /// True if the packet would be tagged video.
    pub fn is_video(&self, pkt: &TracePacket) -> bool {
        pkt.size >= self.vmin
    }

    /// Filters a trace down to its video-tagged packets.
    pub fn video_packets<'a>(&self, trace: &'a Trace) -> Vec<&'a TracePacket> {
        trace.packets.iter().filter(|p| self.is_video(p)).collect()
    }

    /// Evaluates classification against simulator ground truth, producing
    /// the paper's Table 2 / A.1 / A.2 confusion matrix. Ground-truth
    /// "video" means primary video packets plus data-carrying
    /// retransmissions (keepalives count as non-video, as the paper
    /// filters them).
    pub fn evaluate(&self, trace: &Trace, keepalive_size: u16) -> ConfusionMatrix {
        let mut m = ConfusionMatrix::new(vec!["Non-video".into(), "Video".into()]);
        for p in &trace.packets {
            let Some(truth) = p.truth_media else { continue };
            let actual_video = match truth {
                MediaKind::Video => true,
                MediaKind::VideoRtx => p.size != keepalive_size,
                MediaKind::Audio | MediaKind::Control => false,
            };
            m.record(usize::from(actual_video), usize::from(self.is_video(p)));
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcaml_netpkt::Timestamp;
    use vcaml_rtp::{PayloadMap, VcaKind};

    fn pkt(size: u16, truth: MediaKind) -> TracePacket {
        TracePacket {
            ts: Timestamp::ZERO,
            size,
            rtp: None,
            truth_media: Some(truth),
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
    fn threshold_separates_sizes() {
        let c = MediaClassifier::default();
        assert!(!c.is_video(&pkt(385, MediaKind::Audio)));
        assert!(c.is_video(&pkt(564, MediaKind::Video)));
        assert!(!c.is_video(&pkt(304, MediaKind::VideoRtx)));
    }

    #[test]
    fn video_packets_filtered() {
        let t = trace(vec![
            pkt(1200, MediaKind::Video),
            pkt(120, MediaKind::Audio),
            pkt(304, MediaKind::VideoRtx),
            pkt(900, MediaKind::Video),
        ]);
        let v = MediaClassifier::default().video_packets(&t);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn confusion_matrix_matches_paper_structure() {
        let t = trace(vec![
            pkt(1200, MediaKind::Video),   // video → video ✓
            pkt(600, MediaKind::Video),    // video → video ✓
            pkt(120, MediaKind::Audio),    // non-video → non-video ✓
            pkt(1100, MediaKind::Control), // DTLS server hello → misclassified
            pkt(304, MediaKind::VideoRtx), // keepalive: actual non-video ✓
            pkt(800, MediaKind::VideoRtx), // data rtx: actual video → video ✓
        ]);
        let m = MediaClassifier::default().evaluate(&t, 304);
        // Actual video: 3 (2 video + 1 data rtx), all predicted video.
        assert_eq!(m.row_total(1), 3);
        assert_eq!(m.count(1, 1), 3);
        // Actual non-video: 3, one misclassified (DTLS).
        assert_eq!(m.row_total(0), 3);
        assert_eq!(m.count(0, 1), 1);
        assert!((m.percent(0, 1) - 33.333).abs() < 0.01);
    }

    #[test]
    fn packets_without_truth_are_skipped_in_eval() {
        let mut p = pkt(1200, MediaKind::Video);
        p.truth_media = None;
        let m = MediaClassifier::default().evaluate(&trace(vec![p]), 304);
        assert_eq!(m.row_total(0) + m.row_total(1), 0);
    }

    #[test]
    #[should_panic(expected = "zero threshold")]
    fn zero_vmin_rejected() {
        let _ = MediaClassifier::new(0);
    }
}
