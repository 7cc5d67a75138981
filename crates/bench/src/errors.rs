//! The heuristic error taxonomy of Fig. 4: how the IP/UDP Heuristic's
//! packet-size assumption fails.
//!
//! * **Split** — a frame whose intra-frame packet size spread exceeds
//!   `Δmax_size` gets divided into several heuristic frames (Meet's
//!   unequal fragmentation, case 2);
//! * **Interleave** — out-of-order arrival interleaves packets of
//!   different frames (case 3);
//! * **Coalesce** — consecutive frames of similar size merge into one
//!   heuristic frame, detected as heuristic frames spanning more than one
//!   RTP timestamp (case 1).

use std::collections::{HashMap, HashSet};
use vcaml::heuristic::HeuristicParams;

/// Error counts over one analysis window, in frames.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ErrorCounts {
    /// Ground-truth frames split by intra-frame size spread.
    pub splits: f64,
    /// Ground-truth frames interleaved with another frame's packets.
    pub interleaves: f64,
    /// Heuristic frames covering more than one RTP timestamp.
    pub coalesces: f64,
    /// Windows analyzed (for averaging).
    pub windows: u64,
}

impl ErrorCounts {
    /// Averages per window (Fig. 4's y-axis: "Avg [# Frames]").
    pub fn averages(&self) -> (f64, f64, f64) {
        let n = self.windows.max(1) as f64;
        (self.splits / n, self.interleaves / n, self.coalesces / n)
    }

    /// Accumulates another count.
    pub fn add(&mut self, other: &ErrorCounts) {
        self.splits += other.splits;
        self.interleaves += other.interleaves;
        self.coalesces += other.coalesces;
        self.windows += other.windows;
    }
}

/// Analyzes one window of video packets.
///
/// * `packets` — `(size, rtp_timestamp)` per packet in arrival order (the
///   ground-truth timestamp comes from the RTP header);
/// * `frame_ids` — the heuristic frame each of the same packets joined
///   (as [`vcaml_datasets::oracle::ipudp_frames`] reports them).
pub fn analyze_window(
    packets: &[(u16, u32)],
    frame_ids: &[u64],
    params: &HeuristicParams,
) -> ErrorCounts {
    assert_eq!(packets.len(), frame_ids.len(), "length mismatch");
    let mut counts = ErrorCounts {
        windows: 1,
        ..Default::default()
    };

    // Splits: ground-truth frames whose intra-frame size spread > Δ.
    let mut by_ts: HashMap<u32, (u16, u16)> = HashMap::new();
    for &(size, ts) in packets {
        let e = by_ts.entry(ts).or_insert((size, size));
        e.0 = e.0.min(size);
        e.1 = e.1.max(size);
    }
    counts.splits = by_ts
        .values()
        .filter(|(lo, hi)| hi - lo > params.delta_max_size)
        .count() as f64;

    // Interleaves: ground-truth frames whose packets are not contiguous
    // in arrival order (another frame's packet lands between them).
    let mut last_ts: Option<u32> = None;
    let mut closed: HashSet<u32> = HashSet::new();
    let mut interleaved: HashSet<u32> = HashSet::new();
    for &(_, ts) in packets {
        if last_ts != Some(ts) {
            if closed.contains(&ts) {
                interleaved.insert(ts);
            }
            if let Some(prev) = last_ts {
                closed.insert(prev);
            }
            last_ts = Some(ts);
        }
    }
    counts.interleaves = interleaved.len() as f64;

    // Coalesces: heuristic frames assigned more than one RTP timestamp.
    let mut ts_per_frame: HashMap<u64, HashSet<u32>> = HashMap::new();
    for (&id, &(_, ts)) in frame_ids.iter().zip(packets) {
        ts_per_frame.entry(id).or_default().insert(ts);
    }
    counts.coalesces = ts_per_frame.values().filter(|s| s.len() > 1).count() as f64;

    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcaml::TracePacket;
    use vcaml_datasets::oracle::ipudp_frames;
    use vcaml_netpkt::Timestamp;
    use vcaml_rtp::VcaKind;

    fn run(pkts: &[(u16, u32)], params: HeuristicParams) -> ErrorCounts {
        let input: Vec<TracePacket> = pkts
            .iter()
            .enumerate()
            .map(|(i, &(size, _))| TracePacket {
                ts: Timestamp::from_millis(i as i64),
                size,
                rtp: None,
                truth_media: None,
            })
            .collect();
        let (_, ids) = ipudp_frames(params, &input);
        analyze_window(pkts, &ids, &params)
    }

    #[test]
    fn clean_stream_no_errors() {
        // Two distinct equal-size frames.
        let pkts = [(1100, 1), (1100, 1), (900, 2), (900, 2)];
        let c = run(&pkts, HeuristicParams::paper(VcaKind::Teams));
        assert_eq!(c.splits, 0.0);
        assert_eq!(c.interleaves, 0.0);
        assert_eq!(c.coalesces, 0.0);
    }

    #[test]
    fn split_detected_on_unequal_frame() {
        // One ground-truth frame with 400-byte internal spread.
        let pkts = [(1100, 1), (700, 1)];
        let c = run(&pkts, HeuristicParams::paper(VcaKind::Teams));
        assert_eq!(c.splits, 1.0);
    }

    #[test]
    fn interleave_detected() {
        // Frame 1 packets wrap around frame 2's.
        let pkts = [(1100, 1), (800, 2), (1100, 1)];
        let c = run(
            &pkts,
            HeuristicParams {
                delta_max_size: 2,
                lookback: 2,
            },
        );
        assert_eq!(c.interleaves, 1.0);
    }

    #[test]
    fn coalesce_detected_on_similar_frames() {
        // Two frames with identical packet sizes merge.
        let pkts = [(1000, 1), (1000, 1), (1000, 2), (1000, 2)];
        let c = run(&pkts, HeuristicParams::paper(VcaKind::Teams));
        assert_eq!(c.coalesces, 1.0);
    }

    #[test]
    fn averages_divide_by_windows() {
        let mut total = ErrorCounts::default();
        total.add(&ErrorCounts {
            splits: 3.0,
            interleaves: 1.0,
            coalesces: 2.0,
            windows: 2,
        });
        total.add(&ErrorCounts {
            splits: 1.0,
            interleaves: 0.0,
            coalesces: 0.0,
            windows: 2,
        });
        let (s, i, c) = total.averages();
        assert_eq!(s, 1.0);
        assert_eq!(i, 0.25);
        assert_eq!(c, 0.5);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_rejected() {
        let _ = analyze_window(&[(1, 1)], &[], &HeuristicParams::paper(VcaKind::Teams));
    }
}
