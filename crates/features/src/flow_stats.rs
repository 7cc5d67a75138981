//! Flow-level statistics (Table 1, first row): bytes/s, packets/s, and
//! five statistics each over packet sizes and inter-arrival times.
//!
//! [`crate::incremental::FlowFeatureAcc`] computes them; this module
//! names them, and its tests pin the accumulator to hand-worked values.

use crate::stats::STAT_SUFFIXES;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::FlowFeatureAcc;
    use vcaml_netpkt::Timestamp;

    /// The accumulator's features for one window of `(ms, size)` packets.
    fn features(pkts: &[(i64, u16)], window_secs: f64) -> [f64; FlowFeatureAcc::WIDTH] {
        let mut acc = FlowFeatureAcc::new();
        for &(ms, size) in pkts {
            acc.push(Timestamp::from_millis(ms), size);
        }
        let mut out = [0.0; FlowFeatureAcc::WIDTH];
        acc.features_into(window_secs, &mut out);
        out
    }

    #[test]
    fn names_and_width_agree() {
        assert_eq!(flow_feature_names().len(), 12);
        assert_eq!(FlowFeatureAcc::WIDTH, 12);
    }

    #[test]
    fn rates_normalized_by_window() {
        let pkts = [(0, 100), (500, 300)];
        let f1 = features(&pkts, 1.0);
        let f2 = features(&pkts, 2.0);
        assert_eq!(f1[0], 400.0);
        assert_eq!(f2[0], 200.0);
        assert_eq!(f1[1], 2.0);
        assert_eq!(f2[1], 1.0);
    }

    #[test]
    fn size_stats_positions() {
        let f = features(&[(0, 100), (10, 200), (20, 300)], 1.0);
        // mean, stdev, median, min, max at indices 2..7
        assert_eq!(f[2], 200.0);
        assert_eq!(f[4], 200.0);
        assert_eq!(f[5], 100.0);
        assert_eq!(f[6], 300.0);
    }

    #[test]
    fn iat_in_milliseconds() {
        let f = features(&[(0, 1), (33, 1), (66, 1)], 1.0);
        assert_eq!(f[7], 33.0); // IAT mean
        assert_eq!(f[10], 33.0); // IAT min
        assert_eq!(f[11], 33.0); // IAT max
    }

    #[test]
    fn single_packet_iats_zero() {
        let f = features(&[(5, 700)], 1.0);
        assert_eq!(&f[7..12], &[0.0; 5]);
        assert_eq!(f[0], 700.0);
    }
}
