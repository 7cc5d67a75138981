//! Media classification from IP/UDP headers alone (§3.1).
//!
//! Voice packets are small ([89, 385] bytes for Teams) while 99% of video
//! packets exceed 564 bytes, so a size threshold `Vmin` separates them.
//! Packets at or above `Vmin` are tagged video; everything else (audio,
//! keepalives, STUN, RTCP) is set aside. The 304-byte rtx keepalives fall
//! below any sensible `Vmin` and are filtered out automatically.
//! Scoring the classifier against simulator truth (Tables 2, A.1, A.2)
//! is the evaluation harness's job (`vcaml-bench`), not the monitor's.

use crate::trace::TracePacket;

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcaml_netpkt::Timestamp;
    use vcaml_rtp::MediaKind;

    fn pkt(size: u16, truth: MediaKind) -> TracePacket {
        TracePacket {
            ts: Timestamp::ZERO,
            size,
            rtp: None,
            truth_media: Some(truth),
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
        let packets = [
            pkt(1200, MediaKind::Video),
            pkt(120, MediaKind::Audio),
            pkt(304, MediaKind::VideoRtx),
            pkt(900, MediaKind::Video),
        ];
        let c = MediaClassifier::default();
        assert_eq!(packets.iter().filter(|p| c.is_video(p)).count(), 2);
    }

    #[test]
    #[should_panic(expected = "zero threshold")]
    fn zero_vmin_rejected() {
        let _ = MediaClassifier::new(0);
    }
}
