//! Flow-level statistics (Table 1, first row): bytes/s, packets/s, and
//! five statistics each over packet sizes and inter-arrival times.
//!
//! The computation itself lives in [`crate::incremental::FlowFeatureAcc`];
//! the batch function here replays a window slice through that accumulator
//! so the batch and streaming paths share one implementation.

use crate::incremental::FlowFeatureAcc;
use crate::stats::STAT_SUFFIXES;
use crate::window::PktObs;

/// Names of the 12 flow-level features, in vector order.
pub fn flow_feature_names() -> Vec<String> {
    let mut names = vec!["# bytes".to_string(), "# packets".to_string()];
    for s in STAT_SUFFIXES {
        names.push(format!("Size [{s}]"));
    }
    for s in STAT_SUFFIXES {
        names.push(format!("IAT [{s}]"));
    }
    names
}

/// Computes the 12 flow-level features over one window.
///
/// Sizes are in bytes; inter-arrival times in milliseconds; rates are
/// per-second (normalized by `window_secs`). Implemented as a replay over
/// the incremental accumulator.
pub fn flow_features(pkts: &[PktObs], window_secs: f64) -> Vec<f64> {
    let mut acc = FlowFeatureAcc::new();
    for p in pkts {
        acc.push(p.ts, p.size);
    }
    acc.features(window_secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcaml_netpkt::Timestamp;

    fn p(ms: i64, size: u16) -> PktObs {
        PktObs {
            ts: Timestamp::from_millis(ms),
            size,
        }
    }

    #[test]
    fn names_and_width_agree() {
        assert_eq!(flow_feature_names().len(), 12);
        assert_eq!(flow_features(&[], 1.0).len(), 12);
    }

    #[test]
    fn rates_normalized_by_window() {
        let pkts = vec![p(0, 100), p(500, 300)];
        let f1 = flow_features(&pkts, 1.0);
        let f2 = flow_features(&pkts, 2.0);
        assert_eq!(f1[0], 400.0);
        assert_eq!(f2[0], 200.0);
        assert_eq!(f1[1], 2.0);
        assert_eq!(f2[1], 1.0);
    }

    #[test]
    fn size_stats_positions() {
        let pkts = vec![p(0, 100), p(10, 200), p(20, 300)];
        let f = flow_features(&pkts, 1.0);
        // mean, stdev, median, min, max at indices 2..7
        assert_eq!(f[2], 200.0);
        assert_eq!(f[4], 200.0);
        assert_eq!(f[5], 100.0);
        assert_eq!(f[6], 300.0);
    }

    #[test]
    fn iat_in_milliseconds() {
        let pkts = vec![p(0, 1), p(33, 1), p(66, 1)];
        let f = flow_features(&pkts, 1.0);
        assert_eq!(f[7], 33.0); // IAT mean
        assert_eq!(f[10], 33.0); // IAT min
        assert_eq!(f[11], 33.0); // IAT max
    }

    #[test]
    fn single_packet_iats_zero() {
        let f = flow_features(&[p(5, 700)], 1.0);
        assert_eq!(&f[7..12], &[0.0; 5]);
        assert_eq!(f[0], 700.0);
    }
}
