//! RTP-header features (Table 1, third row), used by the RTP ML baseline.

use std::collections::HashSet;
use vcaml_netpkt::Timestamp;
use vcaml_rtp::{RtpClock, RtpHeader};

use crate::stats::{five_stats, STAT_SUFFIXES};

/// Names of the 12 RTP features, in vector order.
pub fn rtp_feature_names() -> Vec<String> {
    let mut names = vec![
        "# unique RTPvid TS".to_string(),
        "# unique RTPrtx TS".to_string(),
        "# RTP TS [intersect]".to_string(),
        "# RTP TS [union]".to_string(),
        "Markervid bit sum".to_string(),
        "Markerrtx bit sum".to_string(),
        "# out-of-order seq".to_string(),
    ];
    for s in STAT_SUFFIXES {
        names.push(format!("RTP lag [{s}]"));
    }
    names
}

/// Session-level reference for RTP-lag computation: the first video
/// frame's arrival time and RTP timestamp ("we assume that the first
/// frame had zero delay", §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LagReference {
    /// Arrival time of the first frame.
    pub t0: Timestamp,
    /// RTP timestamp of the first frame.
    pub ts0: u32,
}

/// Incremental accumulator for the 12 RTP features of one window.
///
/// State is bounded by the window's content: one record per video frame
/// (its RTP timestamp and completion time), which is also the window's
/// set of distinct video timestamps, and the set of distinct
/// retransmission timestamps. Resets retain capacity, so a push allocates
/// only when a window holds more distinct timestamps than any window
/// before it.
#[derive(Debug, Clone, Default)]
pub struct RtpWindowAcc {
    rtx_ts: HashSet<u32>,
    marker_vid: u64,
    marker_rtx: u64,
    last_vid_seq: Option<u16>,
    ooo: u64,
    /// Every frame of the window in first-arrival order: (RTP timestamp,
    /// completion time, the latest arrival among its packets). The
    /// timestamps are distinct, so they are the window's video timestamp
    /// set.
    frames: Vec<(u32, Timestamp)>,
    /// Window-local lag anchor (the window's first frame), used when
    /// [`RtpWindowAcc::features_into`] is given no session reference.
    anchor: Option<LagReference>,
}

impl RtpWindowAcc {
    /// The width of the RTP feature vector.
    pub const WIDTH: usize = 12;

    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RtpWindowAcc::default()
    }

    /// Offers one video-stream packet (arrival order).
    pub fn push_video(&mut self, t: Timestamp, h: &RtpHeader) {
        if h.marker {
            self.marker_vid += 1;
        }
        // Out-of-order: discontinuities in the video sequence numbers in
        // arrival order ("total number of discontinuities in video packet
        // RTP sequence numbers", §3.3); pairs never span windows.
        if let Some(prev) = self.last_vid_seq {
            if h.sequence != prev.wrapping_add(1) {
                self.ooo += 1;
            }
        }
        self.last_vid_seq = Some(h.sequence);
        // Frame completion time = latest arrival per unique RTP timestamp
        // (the last arrival on a time-ordered capture).
        match self.frames.iter_mut().find(|(ts, _)| *ts == h.timestamp) {
            Some((_, done)) => *done = (*done).max(t),
            None => {
                // Window-local fallback anchor: the first frame.
                self.anchor.get_or_insert(LagReference {
                    t0: t,
                    ts0: h.timestamp,
                });
                self.frames.push((h.timestamp, t));
            }
        }
    }

    /// Offers one retransmission-stream packet (arrival order).
    pub fn push_rtx(&mut self, h: &RtpHeader) {
        self.rtx_ts.insert(h.timestamp);
        if h.marker {
            self.marker_rtx += 1;
        }
    }

    /// Writes the 12 features for the current window into `out`, which
    /// holds exactly [`RtpWindowAcc::WIDTH`] values. Allocates nothing.
    pub fn features_into(&self, lag_ref: Option<LagReference>, out: &mut [f64]) {
        let (counts, lags) = out.split_at_mut(7);
        let (vid, rtx) = (self.frames.len(), self.rtx_ts.len());
        let both = self
            .frames
            .iter()
            .filter(|(ts, _)| self.rtx_ts.contains(ts))
            .count();
        counts.copy_from_slice(&[
            vid as f64,
            rtx as f64,
            both as f64,
            (vid + rtx - both) as f64,
            self.marker_vid as f64,
            self.marker_rtx as f64,
            self.ooo as f64,
        ]);
        lags.copy_from_slice(&self.lag_five(lag_ref));
    }

    /// Clears per-window state in place; set and frame capacity is
    /// retained so steady-state pushes stay allocation-free.
    pub fn reset(&mut self) {
        self.rtx_ts.clear();
        self.marker_vid = 0;
        self.marker_rtx = 0;
        self.last_vid_seq = None;
        self.ooo = 0;
        self.frames.clear();
        self.anchor = None;
    }

    /// Estimated bytes of state held (inline struct plus heap capacity),
    /// for per-flow memory accounting.
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.rtx_ts.capacity() * std::mem::size_of::<u32>()
            + self.frames.capacity() * std::mem::size_of::<(u32, Timestamp)>()
    }

    /// Five lag statistics `[mean, stdev, median, min, max]`. The lags go
    /// straight into the selection scratch, not into a collected `Vec`.
    fn lag_five(&self, lag_ref: Option<LagReference>) -> [f64; 5] {
        if self.frames.is_empty() {
            return [0.0; 5];
        }
        #[expect(
            clippy::expect_used,
            reason = "anchor is recorded when the first frame is pushed"
        )]
        let anchor = lag_ref
            .or(self.anchor)
            .expect("anchor recorded with first frame");
        let clock = RtpClock::video();
        five_stats(
            self.frames
                .iter()
                .map(|(ts, t)| clock.lag_secs(anchor.t0, anchor.ts0, *t, *ts) * 1000.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr(seq: u16, ts: u32, marker: bool) -> RtpHeader {
        RtpHeader::basic(102, seq, ts, 1, marker)
    }

    fn at(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    /// The features of one window: video packets, then rtx packets.
    fn features(
        video: &[(Timestamp, RtpHeader)],
        rtx: &[RtpHeader],
        lag_ref: Option<LagReference>,
    ) -> [f64; RtpWindowAcc::WIDTH] {
        let mut acc = RtpWindowAcc::new();
        for (t, h) in video {
            acc.push_video(*t, h);
        }
        for h in rtx {
            acc.push_rtx(h);
        }
        let mut out = [0.0; RtpWindowAcc::WIDTH];
        acc.features_into(lag_ref, &mut out);
        out
    }

    #[test]
    fn names_and_width_agree() {
        assert_eq!(rtp_feature_names().len(), 12);
        assert_eq!(RtpWindowAcc::WIDTH, 12);
    }

    #[test]
    fn unique_ts_counts() {
        let video = [
            (at(0), hdr(0, 100, false)),
            (at(1), hdr(1, 100, true)),
            (at(33), hdr(2, 200, true)),
        ];
        let f = features(&video, &[hdr(0, 100, false), hdr(1, 300, false)], None);
        assert_eq!(f[0], 2.0); // vid unique: {100, 200}
        assert_eq!(f[1], 2.0); // rtx unique: {100, 300}
        assert_eq!(f[2], 1.0); // intersect {100}
        assert_eq!(f[3], 3.0); // union {100,200,300}
    }

    #[test]
    fn marker_sums_per_stream() {
        let video = [
            (at(0), hdr(0, 1, true)),
            (at(1), hdr(1, 2, true)),
            (at(2), hdr(2, 3, false)),
        ];
        let f = features(&video, &[hdr(0, 1, true)], None);
        assert_eq!(f[4], 2.0);
        assert_eq!(f[5], 1.0);
    }

    #[test]
    fn out_of_order_counts_discontinuities() {
        let video = [
            (at(0), hdr(10, 1, false)),
            (at(1), hdr(11, 1, false)), // in order
            (at(2), hdr(13, 2, false)), // gap
            (at(3), hdr(12, 2, false)), // backwards
            (at(4), hdr(15, 2, false)), // gap again
        ];
        let f = features(&video, &[], None);
        assert_eq!(f[6], 3.0);
    }

    #[test]
    fn lag_zero_for_perfectly_paced_stream() {
        // Frames every 33.333 ms with 3000-tick increments (90 kHz).
        let video: Vec<_> = (0..10)
            .map(|i| {
                (
                    Timestamp::from_micros(i * 33_333),
                    hdr(i as u16, (i * 3000) as u32, true),
                )
            })
            .collect();
        let f = features(&video, &[], None);
        // lag mean ≈ 0, lag max small.
        assert!(f[7].abs() < 1.0, "lag mean {}", f[7]);
        assert!(f[11].abs() < 1.0, "lag max {}", f[11]);
    }

    #[test]
    fn delayed_frame_shows_positive_lag() {
        let mut video: Vec<(Timestamp, RtpHeader)> = (0..5)
            .map(|i| {
                (
                    Timestamp::from_micros(i * 33_333),
                    hdr(i as u16, (i * 3000) as u32, true),
                )
            })
            .collect();
        // Frame 5 arrives 100 ms late.
        video.push((
            Timestamp::from_micros(5 * 33_333 + 100_000),
            hdr(5, 15_000, true),
        ));
        let f = features(&video, &[], None);
        assert!((f[11] - 100.0).abs() < 2.0, "lag max {}", f[11]);
    }

    #[test]
    fn session_lag_reference_applies() {
        let video = [(at(1000), hdr(30, 90_000, true))];
        // Anchor: frame 0 at t=0 with ts=0 → this frame is exactly on time.
        let f = features(&video, &[], Some(LagReference { t0: at(0), ts0: 0 }));
        assert!(f[7].abs() < 1e-6, "lag {}", f[7]);
        // Without an anchor the single frame defines zero lag trivially.
        let f2 = features(&video, &[], None);
        assert_eq!(f2[7], 0.0);
    }

    #[test]
    fn reset_preserves_capacity_and_clears_state() {
        let mut acc = RtpWindowAcc::new();
        for i in 0..50u32 {
            acc.push_video(at(i64::from(i)), &hdr(i as u16, i * 10, false));
        }
        let warm = acc.state_bytes();
        acc.reset();
        assert_eq!(acc.state_bytes(), warm, "reset must not release capacity");
        let mut out = [1.0; RtpWindowAcc::WIDTH];
        acc.features_into(None, &mut out);
        assert_eq!(out, features(&[], &[], None));
    }

    #[test]
    fn frame_completion_uses_last_packet() {
        // One frame in two packets; the second arrives late.
        let video = [(at(0), hdr(0, 0, false)), (at(40), hdr(1, 0, true))];
        let f = features(&video, &[], Some(LagReference { t0: at(0), ts0: 0 }));
        assert!((f[11] - 40.0).abs() < 1e-6, "lag max {}", f[11]);
    }
}
