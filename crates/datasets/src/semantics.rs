//! VCA-semantics features (Table 1, second row): the two features derived
//! from how VCAs fragment frames into packets.
//!
//! * `# unique sizes` — frames are fragmented into equal-size packets, so
//!   the number of distinct packet sizes in a window tracks the number of
//!   frames (the paper's single most important frame-rate feature, §5.1.2).
//! * `# microbursts` — a frame is transmitted as a back-to-back burst; a
//!   new burst starts whenever the inter-arrival gap reaches the threshold
//!   `θ_IAT`.
//!
//! Slice forms over one window, part of the [`crate::oracle`] references,
//! which re-export them.

use crate::window::PktObs;
use std::collections::HashSet;

/// Number of distinct packet sizes in the window.
pub fn unique_sizes(pkts: &[PktObs]) -> f64 {
    let set: HashSet<u16> = pkts.iter().map(|p| p.size).collect();
    set.len() as f64
}

/// Number of microbursts: maximal runs of consecutive packets whose gaps
/// are below `theta_iat_us`. Equivalently, one plus the number of gaps
/// `≥ θ` (zero for an empty window).
pub fn microbursts(pkts: &[PktObs], theta_iat_us: i64) -> f64 {
    assert!(theta_iat_us > 0, "non-positive theta");
    if pkts.is_empty() {
        return 0.0;
    }
    let breaks = pkts
        .windows(2)
        .filter(|w| (w[1].ts - w[0].ts).as_micros() >= theta_iat_us)
        .count();
    (breaks + 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcaml_netpkt::Timestamp;

    /// The engines' default θ: 3 ms.
    const DEFAULT_THETA_IAT_US: i64 = 3_000;

    fn p(us: i64, size: u16) -> PktObs {
        PktObs {
            ts: Timestamp::from_micros(us),
            size,
        }
    }

    #[test]
    fn unique_sizes_counts_distinct() {
        assert_eq!(unique_sizes(&[]), 0.0);
        assert_eq!(unique_sizes(&[p(0, 100), p(1, 100), p(2, 101)]), 2.0);
    }

    #[test]
    fn one_burst_when_gaps_small() {
        let pkts = vec![p(0, 1), p(200, 1), p(400, 1)];
        assert_eq!(microbursts(&pkts, DEFAULT_THETA_IAT_US), 1.0);
    }

    #[test]
    fn bursts_split_on_large_gap() {
        // Two frames 33 ms apart, each a 3-packet burst.
        let pkts = vec![
            p(0, 1),
            p(250, 1),
            p(500, 1),
            p(33_000, 1),
            p(33_250, 1),
            p(33_500, 1),
        ];
        assert_eq!(microbursts(&pkts, DEFAULT_THETA_IAT_US), 2.0);
    }

    #[test]
    fn empty_window_zero_bursts() {
        assert_eq!(microbursts(&[], DEFAULT_THETA_IAT_US), 0.0);
    }

    #[test]
    fn single_packet_one_burst() {
        assert_eq!(microbursts(&[p(5, 9)], DEFAULT_THETA_IAT_US), 1.0);
    }

    #[test]
    fn gap_exactly_theta_breaks() {
        let pkts = vec![p(0, 1), p(3_000, 1)];
        assert_eq!(microbursts(&pkts, 3_000), 2.0);
        assert_eq!(microbursts(&pkts, 3_001), 1.0);
    }

    #[test]
    #[should_panic(expected = "non-positive theta")]
    fn zero_theta_rejected() {
        let _ = microbursts(&[], 0);
    }
}
