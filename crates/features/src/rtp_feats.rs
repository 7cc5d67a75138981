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

/// The RTP packets of one prediction window, split by stream.
#[derive(Debug, Clone, Default)]
pub struct RtpWindow {
    /// Video-stream packets: (arrival, header).
    pub video: Vec<(Timestamp, RtpHeader)>,
    /// Retransmission-stream packets.
    pub rtx: Vec<(Timestamp, RtpHeader)>,
}

impl RtpWindow {
    /// Computes the 12 RTP features by replaying the window through the
    /// incremental [`RtpWindowAcc`] (the single implementation shared with
    /// the streaming engine). `lag_ref` anchors the RTP-lag clock; if
    /// `None`, the window's first video packet is used.
    pub fn features(&self, lag_ref: Option<LagReference>) -> Vec<f64> {
        let mut acc = RtpWindowAcc::new();
        for (t, h) in &self.video {
            acc.push_video(*t, h);
        }
        for (t, h) in &self.rtx {
            acc.push_rtx(*t, h);
        }
        acc.features(lag_ref)
    }
}

/// Incremental accumulator for the 12 RTP features of one window.
///
/// State is bounded by the window's content — the unique timestamp sets
/// and one entry per frame — and the batch formulas are reproduced
/// exactly. Resets retain capacity, so a push allocates only when a
/// window holds more distinct timestamps than any window before it.
#[derive(Debug, Clone, Default)]
pub struct RtpWindowAcc {
    vid_ts: HashSet<u32>,
    rtx_ts: HashSet<u32>,
    marker_vid: u64,
    marker_rtx: u64,
    last_vid_seq: Option<u16>,
    ooo: u64,
    /// Every frame of the window in first-arrival order: (RTP timestamp,
    /// completion time).
    frames: Vec<(u32, Timestamp)>,
    /// Window-local lag anchor (the window's first frame), used when
    /// [`RtpWindowAcc::features`] is given no session reference.
    anchor: Option<LagReference>,
}

impl RtpWindowAcc {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RtpWindowAcc::default()
    }

    /// Offers one video-stream packet (arrival order).
    pub fn push_video(&mut self, t: Timestamp, h: &RtpHeader) {
        self.vid_ts.insert(h.timestamp);
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
        // Frame completion time = last arrival per unique RTP timestamp.
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
    pub fn push_rtx(&mut self, _t: Timestamp, h: &RtpHeader) {
        self.rtx_ts.insert(h.timestamp);
        if h.marker {
            self.marker_rtx += 1;
        }
    }

    /// True when no packet has been offered this window.
    pub fn is_empty(&self) -> bool {
        self.vid_ts.is_empty() && self.rtx_ts.is_empty()
    }

    /// Emits the 12 features for the current window.
    pub fn features(&self, lag_ref: Option<LagReference>) -> Vec<f64> {
        let mut v = Vec::with_capacity(12);
        v.push(self.vid_ts.len() as f64);
        v.push(self.rtx_ts.len() as f64);
        v.push(self.vid_ts.intersection(&self.rtx_ts).count() as f64);
        v.push(self.vid_ts.union(&self.rtx_ts).count() as f64);
        v.push(self.marker_vid as f64);
        v.push(self.marker_rtx as f64);
        v.push(self.ooo as f64);
        v.extend_from_slice(&self.lag_five(lag_ref));
        v
    }

    /// Clears per-window state in place; set and frame capacity is
    /// retained so steady-state pushes stay allocation-free.
    pub fn reset(&mut self) {
        self.vid_ts.clear();
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
            + (self.vid_ts.capacity() + self.rtx_ts.capacity()) * std::mem::size_of::<u32>()
            + self.frames.capacity() * std::mem::size_of::<(u32, Timestamp)>()
    }

    /// Five lag statistics `[mean, stdev, median, min, max]`.
    fn lag_five(&self, lag_ref: Option<LagReference>) -> [f64; 5] {
        if self.frames.is_empty() {
            return [0.0; 5];
        }
        let anchor = lag_ref
            .or(self.anchor)
            .expect("anchor recorded with first frame"); // lint: allow(no-unwrap-in-lib) -- anchor is recorded when the first frame is pushed
        let clock = RtpClock::video();
        let lags: Vec<f64> = self
            .frames
            .iter()
            .map(|(ts, t)| clock.lag_secs(anchor.t0, anchor.ts0, *t, *ts) * 1000.0)
            .collect();
        five_stats(&lags)
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

    #[test]
    fn names_and_width_agree() {
        assert_eq!(rtp_feature_names().len(), 12);
        assert_eq!(RtpWindow::default().features(None).len(), 12);
    }

    #[test]
    fn unique_ts_counts() {
        let w = RtpWindow {
            video: vec![
                (at(0), hdr(0, 100, false)),
                (at(1), hdr(1, 100, true)),
                (at(33), hdr(2, 200, true)),
            ],
            rtx: vec![(at(50), hdr(0, 100, false)), (at(51), hdr(1, 300, false))],
        };
        let f = w.features(None);
        assert_eq!(f[0], 2.0); // vid unique: {100, 200}
        assert_eq!(f[1], 2.0); // rtx unique: {100, 300}
        assert_eq!(f[2], 1.0); // intersect {100}
        assert_eq!(f[3], 3.0); // union {100,200,300}
    }

    #[test]
    fn marker_sums_per_stream() {
        let w = RtpWindow {
            video: vec![
                (at(0), hdr(0, 1, true)),
                (at(1), hdr(1, 2, true)),
                (at(2), hdr(2, 3, false)),
            ],
            rtx: vec![(at(3), hdr(0, 1, true))],
        };
        let f = w.features(None);
        assert_eq!(f[4], 2.0);
        assert_eq!(f[5], 1.0);
    }

    #[test]
    fn out_of_order_counts_discontinuities() {
        let w = RtpWindow {
            video: vec![
                (at(0), hdr(10, 1, false)),
                (at(1), hdr(11, 1, false)), // in order
                (at(2), hdr(13, 2, false)), // gap
                (at(3), hdr(12, 2, false)), // backwards
                (at(4), hdr(15, 2, false)), // gap again
            ],
            rtx: vec![],
        };
        let f = w.features(None);
        assert_eq!(f[6], 3.0);
    }

    #[test]
    fn lag_zero_for_perfectly_paced_stream() {
        // Frames every 33.333 ms with 3000-tick increments (90 kHz).
        let w = RtpWindow {
            video: (0..10)
                .map(|i| {
                    (
                        Timestamp::from_micros(i * 33_333),
                        hdr(i as u16, (i * 3000) as u32, true),
                    )
                })
                .collect(),
            rtx: vec![],
        };
        let f = w.features(None);
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
        let w = RtpWindow { video, rtx: vec![] };
        let f = w.features(None);
        assert!((f[11] - 100.0).abs() < 2.0, "lag max {}", f[11]);
    }

    #[test]
    fn session_lag_reference_applies() {
        let w = RtpWindow {
            video: vec![(at(1000), hdr(30, 90_000, true))],
            rtx: vec![],
        };
        // Anchor: frame 0 at t=0 with ts=0 → this frame is exactly on time.
        let f = w.features(Some(LagReference { t0: at(0), ts0: 0 }));
        assert!(f[7].abs() < 1e-6, "lag {}", f[7]);
        // Without an anchor the single frame defines zero lag trivially.
        let f2 = w.features(None);
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
        assert!(acc.is_empty());
        assert_eq!(acc.state_bytes(), warm, "reset must not release capacity");
        assert_eq!(acc.features(None), RtpWindowAcc::new().features(None));
    }

    #[test]
    fn frame_completion_uses_last_packet() {
        // One frame in two packets; the second arrives late.
        let w = RtpWindow {
            video: vec![(at(0), hdr(0, 0, false)), (at(40), hdr(1, 0, true))],
            rtx: vec![],
        };
        let f = w.features(Some(LagReference { t0: at(0), ts0: 0 }));
        assert!((f[11] - 40.0).abs() < 1e-6, "lag max {}", f[11]);
    }
}
