//! Per-VCA behaviour profiles.
//!
//! The numeric anchors come from the paper: Webex's median lab bitrate is
//! ~500 kbps vs ~1700 kbps for Teams (§4.2); Meet serves heights
//! {180, 270, 360} in the lab and additionally {540, 720} in the wild;
//! Teams serves 11 heights from 90 to 720 (with 404 the dominant medium
//! value); Webex serves {180, 360} in the lab and a single height in the
//! wild (§5.1.5, §5.2.4). Meet fragments a fraction of frames into
//! *unequal* packets — 4.26% of lab frames and 14.48% of real-world frames
//! exceed the 2-byte intra-frame spread (§5.2.1).

use vcaml_rtp::{LadderRung, PayloadMap, VcaKind};

/// Static behaviour profile for one VCA in one environment.
#[derive(Debug, Clone, PartialEq)]
pub struct VcaProfile {
    /// Which VCA this models.
    pub vca: VcaKind,
    /// RTP payload-type mapping in this environment.
    pub payload_map: PayloadMap,
    /// Resolution ladder, ascending by `min_kbps`.
    pub ladder: Vec<LadderRung>,
    /// Floor of the encoder target bitrate (kbps).
    pub min_bitrate_kbps: f64,
    /// Ceiling of the encoder target bitrate (kbps).
    pub max_bitrate_kbps: f64,
    /// Initial target bitrate (kbps).
    pub start_bitrate_kbps: f64,
    /// Maximum video frame rate.
    pub max_fps: u32,
    /// Largest RTP payload the packetizer produces per packet (bytes).
    pub max_payload: usize,
    /// Probability that a frame is fragmented unequally (the Meet/VP8
    /// anomaly); 0 for the H.264 VCAs.
    pub unequal_frag_prob: f64,
    /// Whether a retransmission stream exists (drives NACK replies and
    /// keepalives).
    pub has_rtx: bool,
    /// IP total length of rtx-stream keepalive packets (the paper observes
    /// 304 bytes for Teams).
    pub keepalive_size: u16,
    /// Interval between rtx keepalives, milliseconds.
    pub keepalive_interval_ms: u64,
    /// Coefficient of variation of per-frame encoded size (VBR dispersion).
    pub frame_size_cv: f64,
}

impl VcaProfile {
    /// The in-lab profile for a VCA.
    pub fn lab(vca: VcaKind) -> Self {
        let ladder = vca.lab_ladder().to_vec();
        match vca {
            VcaKind::Meet => VcaProfile {
                vca,
                payload_map: PayloadMap::lab(vca),
                ladder,
                min_bitrate_kbps: 60.0,
                max_bitrate_kbps: 2800.0,
                start_bitrate_kbps: 700.0,
                max_fps: 30,
                max_payload: 1160,
                unequal_frag_prob: 0.0426,
                has_rtx: true,
                keepalive_size: 304,
                keepalive_interval_ms: 500,
                frame_size_cv: 0.28,
            },
            VcaKind::Teams => VcaProfile {
                vca,
                payload_map: PayloadMap::lab(vca),
                ladder,
                min_bitrate_kbps: 80.0,
                max_bitrate_kbps: 4000.0,
                start_bitrate_kbps: 1400.0,
                max_fps: 30,
                max_payload: 1180,
                unequal_frag_prob: 0.0,
                has_rtx: true,
                keepalive_size: 304,
                keepalive_interval_ms: 500,
                frame_size_cv: 0.30,
            },
            VcaKind::Webex => VcaProfile {
                vca,
                payload_map: PayloadMap::lab(vca),
                ladder,
                min_bitrate_kbps: 60.0,
                max_bitrate_kbps: 900.0,
                start_bitrate_kbps: 400.0,
                max_fps: 30,
                max_payload: 1150,
                unequal_frag_prob: 0.0,
                has_rtx: true,
                keepalive_size: 304,
                keepalive_interval_ms: 500,
                frame_size_cv: 0.26,
            },
        }
    }

    /// The real-world profile: shifted payload types (§5.2), Meet's higher
    /// resolutions/bitrates (§5.2.4/§5.3), Meet's higher unequal-
    /// fragmentation rate (§5.2.1), Webex without an rtx stream, and Webex
    /// pinned to its single observed resolution.
    pub fn real_world(vca: VcaKind) -> Self {
        let mut p = Self::lab(vca);
        p.payload_map = PayloadMap::real_world(vca);
        match vca {
            VcaKind::Meet => {
                p.ladder.push(LadderRung {
                    height: 540,
                    min_kbps: 1500.0,
                });
                p.ladder.push(LadderRung {
                    height: 720,
                    min_kbps: 2400.0,
                });
                p.max_bitrate_kbps = 4200.0;
                p.start_bitrate_kbps = 1600.0;
                p.unequal_frag_prob = 0.1448;
            }
            VcaKind::Teams => {
                p.start_bitrate_kbps = 1800.0;
            }
            VcaKind::Webex => {
                p.has_rtx = false;
                p.ladder = vec![LadderRung {
                    height: 360,
                    min_kbps: 0.0,
                }];
                p.start_bitrate_kbps = 700.0;
            }
        }
        p
    }

    /// The ladder rung selected at a given target bitrate.
    pub fn rung_for(&self, kbps: f64) -> LadderRung {
        let mut chosen = self.ladder[0];
        for rung in &self.ladder {
            if kbps >= rung.min_kbps {
                chosen = *rung;
            }
        }
        chosen
    }

    /// Target frame rate at a given bitrate: VCAs drop frame rate when the
    /// budget gets tight. Above ~600 kbps the full frame rate is
    /// sustained; below, the rate falls off toward 7 fps (monotone in
    /// bitrate, so rung switches never lower the frame rate).
    pub(crate) fn fps_for(&self, kbps: f64) -> f64 {
        let frac = (kbps / 600.0).clamp(0.0, 1.0).sqrt();
        7.0 + frac * (f64::from(self.max_fps) - 7.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladders_are_sorted_and_start_at_zero() {
        for vca in VcaKind::ALL {
            for p in [VcaProfile::lab(vca), VcaProfile::real_world(vca)] {
                assert_eq!(p.ladder[0].min_kbps, 0.0, "{vca}");
                for w in p.ladder.windows(2) {
                    assert!(w[0].min_kbps < w[1].min_kbps, "{vca} ladder unsorted");
                    assert!(w[0].height < w[1].height, "{vca} heights unsorted");
                }
            }
        }
    }

    #[test]
    fn lab_resolution_sets_match_paper() {
        let heights = |p: &VcaProfile| p.ladder.iter().map(|r| r.height).collect::<Vec<_>>();
        assert_eq!(
            heights(&VcaProfile::lab(VcaKind::Meet)),
            vec![180, 270, 360]
        );
        assert_eq!(heights(&VcaProfile::lab(VcaKind::Teams)).len(), 11);
        assert_eq!(heights(&VcaProfile::lab(VcaKind::Webex)), vec![180, 360]);
    }

    #[test]
    fn real_world_meet_adds_540_720() {
        let p = VcaProfile::real_world(VcaKind::Meet);
        let hs: Vec<u32> = p.ladder.iter().map(|r| r.height).collect();
        assert!(hs.contains(&540) && hs.contains(&720));
        assert!(p.unequal_frag_prob > 0.14);
    }

    #[test]
    fn real_world_webex_single_resolution_no_rtx() {
        let p = VcaProfile::real_world(VcaKind::Webex);
        assert_eq!(p.ladder.len(), 1);
        assert!(!p.has_rtx);
    }

    #[test]
    fn rung_selection_monotone() {
        let p = VcaProfile::lab(VcaKind::Teams);
        assert_eq!(p.rung_for(50.0).height, 90);
        assert_eq!(p.rung_for(1100.0).height, 404);
        assert_eq!(p.rung_for(9999.0).height, 720);
        let mut last = 0;
        for k in (0..4000).step_by(50) {
            let h = p.rung_for(f64::from(k)).height;
            assert!(h >= last);
            last = h;
        }
    }

    #[test]
    fn fps_scales_with_bitrate() {
        let p = VcaProfile::lab(VcaKind::Meet);
        assert!(p.fps_for(60.0) < 15.0);
        assert!((p.fps_for(2800.0) - 30.0).abs() < 1e-9);
        assert!(p.fps_for(500.0) > p.fps_for(120.0));
    }

    #[test]
    fn teams_keepalive_is_304() {
        assert_eq!(VcaProfile::lab(VcaKind::Teams).keepalive_size, 304);
    }
}
