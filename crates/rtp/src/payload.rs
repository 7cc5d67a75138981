//! Payload-type registries for the three studied VCAs.
//!
//! The paper observes (§3.1, §5.2): Teams in-lab uses PT 111 (Opus audio),
//! 102 (H.264 video), 103 (video retransmission); in the real-world dataset
//! Teams moved to video 100 / rtx 101, and Webex uses video 100 with no rtx
//! stream. Meet's PTs are not enumerated in the paper, so we use the stock
//! Chrome WebRTC defaults (111 Opus, 96 VP8/VP9, 97 rtx).
//!
//! Beside them sit the VCAs' lab resolution ladders (§5.1.5): Meet serves
//! heights {180, 270, 360}, Teams 11 heights from 90 to 720, Webex
//! {180, 360}. The simulator encodes along them and the monitor's
//! resolution-class alert floor maps heights through them.

/// Which VCA a session belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VcaKind {
    /// Google Meet (VP8/VP9 over WebRTC).
    Meet,
    /// Microsoft Teams (H.264 over WebRTC).
    Teams,
    /// Cisco Webex (H.264 over WebRTC).
    Webex,
}

impl VcaKind {
    /// All three VCAs, in the order the paper's tables list them.
    pub const ALL: [VcaKind; 3] = [VcaKind::Meet, VcaKind::Teams, VcaKind::Webex];

    /// Display name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            VcaKind::Meet => "Meet",
            VcaKind::Teams => "Teams",
            VcaKind::Webex => "Webex",
        }
    }
}

impl std::fmt::Display for VcaKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One rung of a VCA's resolution ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderRung {
    /// Frame height in pixels (the paper's resolution measure).
    pub height: u32,
    /// Minimum target bitrate (kbps) at which this rung is selected.
    pub min_kbps: f64,
}

const fn rung(height: u32, min_kbps: f64) -> LadderRung {
    LadderRung { height, min_kbps }
}

const MEET_LAB_LADDER: [LadderRung; 3] = [rung(180, 0.0), rung(270, 450.0), rung(360, 800.0)];

const TEAMS_LAB_LADDER: [LadderRung; 11] = [
    rung(90, 0.0),
    rung(120, 120.0),
    rung(180, 200.0),
    rung(240, 350.0),
    rung(270, 500.0),
    rung(360, 700.0),
    rung(404, 1000.0),
    rung(480, 1400.0),
    rung(540, 1900.0),
    rung(630, 2400.0),
    rung(720, 3000.0),
];

const WEBEX_LAB_LADDER: [LadderRung; 2] = [rung(180, 0.0), rung(360, 550.0)];

impl VcaKind {
    /// The VCA's in-lab resolution ladder, ascending by `min_kbps` and
    /// height, starting at 0 kbps.
    pub fn lab_ladder(self) -> &'static [LadderRung] {
        match self {
            VcaKind::Meet => &MEET_LAB_LADDER,
            VcaKind::Teams => &TEAMS_LAB_LADDER,
            VcaKind::Webex => &WEBEX_LAB_LADDER,
        }
    }
}

/// Media class of an RTP packet, as ground truth derived from the payload
/// type header (the paper's Table 2 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaKind {
    /// Opus audio.
    Audio,
    /// Primary video stream.
    Video,
    /// Video retransmission stream (RFC 4588-style).
    VideoRtx,
    /// Non-RTP session traffic (DTLS handshake, STUN, ...).
    Control,
}

/// Payload-type mapping for one VCA in one deployment environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadMap {
    /// PT carrying Opus audio.
    pub audio: u8,
    /// PT carrying primary video.
    pub video: u8,
    /// PT carrying video retransmissions (`None` when the VCA sends none).
    pub video_rtx: Option<u8>,
}

impl PayloadMap {
    /// The in-lab mapping for a VCA (paper §3.1).
    pub fn lab(vca: VcaKind) -> Self {
        match vca {
            VcaKind::Meet => PayloadMap {
                audio: 111,
                video: 96,
                video_rtx: Some(97),
            },
            VcaKind::Teams => PayloadMap {
                audio: 111,
                video: 102,
                video_rtx: Some(103),
            },
            VcaKind::Webex => PayloadMap {
                audio: 111,
                video: 102,
                video_rtx: Some(103),
            },
        }
    }

    /// The real-world mapping (paper §5.2: Teams video 100 / rtx 101;
    /// Webex video 100, no rtx).
    pub fn real_world(vca: VcaKind) -> Self {
        match vca {
            VcaKind::Meet => PayloadMap {
                audio: 111,
                video: 96,
                video_rtx: Some(97),
            },
            VcaKind::Teams => PayloadMap {
                audio: 111,
                video: 100,
                video_rtx: Some(101),
            },
            VcaKind::Webex => PayloadMap {
                audio: 111,
                video: 100,
                video_rtx: None,
            },
        }
    }

    /// Classifies a payload type under this mapping.
    pub fn classify(&self, pt: u8) -> Option<MediaKind> {
        if pt == self.audio {
            Some(MediaKind::Audio)
        } else if pt == self.video {
            Some(MediaKind::Video)
        } else if self.video_rtx == Some(pt) {
            Some(MediaKind::VideoRtx)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_teams_matches_paper() {
        let m = PayloadMap::lab(VcaKind::Teams);
        assert_eq!(m.classify(111), Some(MediaKind::Audio));
        assert_eq!(m.classify(102), Some(MediaKind::Video));
        assert_eq!(m.classify(103), Some(MediaKind::VideoRtx));
        assert_eq!(m.classify(50), None);
    }

    #[test]
    fn real_world_teams_shifted() {
        let m = PayloadMap::real_world(VcaKind::Teams);
        assert_eq!(m.classify(100), Some(MediaKind::Video));
        assert_eq!(m.classify(101), Some(MediaKind::VideoRtx));
        assert_eq!(m.classify(102), None);
    }

    #[test]
    fn real_world_webex_has_no_rtx() {
        let m = PayloadMap::real_world(VcaKind::Webex);
        assert_eq!(m.classify(100), Some(MediaKind::Video));
        assert_eq!(m.video_rtx, None);
        assert_eq!(m.classify(101), None);
    }

    #[test]
    fn vca_names() {
        assert_eq!(VcaKind::Meet.to_string(), "Meet");
        assert_eq!(VcaKind::ALL.len(), 3);
    }
}
