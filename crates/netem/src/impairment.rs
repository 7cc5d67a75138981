//! The paper's Table A.6 impairment profiles: single-dimension sweeps used
//! for the §5.4 network-condition sensitivity study.
//!
//! Defaults when a dimension is not being varied: throughput 1500 kbps,
//! latency 50 ms, latency jitter 0 ms, throughput jitter 0, loss 0%.

use crate::conditions::{ConditionSchedule, SecondCondition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which single network parameter a profile varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImpairmentDim {
    /// Mean throughput sweep: {100, 200, 500, 1000, 2000, 4000} kbps.
    MeanThroughput,
    /// Throughput stdev sweep: {0, 100, 200, 500, 1000, 1500} kbps.
    ThroughputStdev,
    /// Mean latency sweep: {50, 100, 200, 300, 400, 500} ms.
    MeanLatency,
    /// Latency stdev sweep: {10, 20, ..., 100} ms.
    LatencyStdev,
    /// Packet-loss sweep: {1, 2, 5, 10, 15, 20} %.
    PacketLoss,
}

impl ImpairmentDim {
    /// All five dimensions, in Table A.6 row order.
    pub const ALL: [ImpairmentDim; 5] = [
        ImpairmentDim::MeanThroughput,
        ImpairmentDim::ThroughputStdev,
        ImpairmentDim::MeanLatency,
        ImpairmentDim::LatencyStdev,
        ImpairmentDim::PacketLoss,
    ];

    /// The sweep values for this dimension (Table A.6).
    pub fn values(&self) -> &'static [f64] {
        match self {
            ImpairmentDim::MeanThroughput => &[100.0, 200.0, 500.0, 1000.0, 2000.0, 4000.0],
            ImpairmentDim::ThroughputStdev => &[0.0, 100.0, 200.0, 500.0, 1000.0, 1500.0],
            ImpairmentDim::MeanLatency => &[50.0, 100.0, 200.0, 300.0, 400.0, 500.0],
            ImpairmentDim::LatencyStdev => {
                &[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]
            }
            ImpairmentDim::PacketLoss => &[1.0, 2.0, 5.0, 10.0, 15.0, 20.0],
        }
    }

    /// Row label as in Table A.6.
    pub fn label(&self) -> &'static str {
        match self {
            ImpairmentDim::MeanThroughput => "Mean Throughput",
            ImpairmentDim::ThroughputStdev => "Throughput stdev.",
            ImpairmentDim::MeanLatency => "Mean Latency",
            ImpairmentDim::LatencyStdev => "Latency stdev.",
            ImpairmentDim::PacketLoss => "Packet Loss %",
        }
    }
}

/// One cell of the Table A.6 grid: a dimension at a specific value, all
/// other parameters at their defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpairmentProfile {
    /// The varied dimension.
    pub dim: ImpairmentDim,
    /// The value it is set to.
    pub value: f64,
}

/// Default mean throughput (kbps) when not varied.
pub const DEFAULT_TPUT_KBPS: f64 = 1500.0;
/// Default RTT-style latency (ms) when not varied; emulated as one-way
/// delay of half this value.
pub const DEFAULT_LATENCY_MS: f64 = 50.0;

impl ImpairmentProfile {
    /// Expands the profile into a per-second schedule of `secs` seconds.
    ///
    /// Throughput-stdev profiles resample throughput each second from
    /// `Normal(1500, value)`; all other profiles are constant over time.
    pub fn schedule(&self, secs: usize, seed: u64) -> ConditionSchedule {
        assert!(secs > 0);
        let base = SecondCondition {
            throughput_kbps: DEFAULT_TPUT_KBPS,
            delay_ms: DEFAULT_LATENCY_MS / 2.0,
            jitter_ms: 0.0,
            loss_pct: 0.0,
        };
        let seconds: Vec<SecondCondition> = match self.dim {
            ImpairmentDim::MeanThroughput => {
                vec![
                    SecondCondition {
                        throughput_kbps: self.value,
                        ..base
                    };
                    secs
                ]
            }
            ImpairmentDim::ThroughputStdev => {
                let mut rng = StdRng::seed_from_u64(seed);
                (0..secs)
                    .map(|_| {
                        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                        let u2: f64 = rng.gen::<f64>();
                        let g = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                        SecondCondition {
                            throughput_kbps: (DEFAULT_TPUT_KBPS + g * self.value).max(100.0),
                            ..base
                        }
                    })
                    .collect()
            }
            ImpairmentDim::MeanLatency => {
                vec![
                    SecondCondition {
                        delay_ms: self.value / 2.0,
                        ..base
                    };
                    secs
                ]
            }
            ImpairmentDim::LatencyStdev => {
                vec![
                    SecondCondition {
                        jitter_ms: self.value,
                        ..base
                    };
                    secs
                ]
            }
            ImpairmentDim::PacketLoss => {
                vec![
                    SecondCondition {
                        loss_pct: self.value,
                        ..base
                    };
                    secs
                ]
            }
        };
        ConditionSchedule::new(seconds)
    }

    /// The full Table A.6 grid.
    pub fn grid() -> Vec<ImpairmentProfile> {
        ImpairmentDim::ALL
            .iter()
            .flat_map(|d| {
                d.values()
                    .iter()
                    .map(|&v| ImpairmentProfile { dim: *d, value: v })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcaml_netpkt::Timestamp;

    #[test]
    fn grid_size_matches_table_a6() {
        // 6 + 6 + 6 + 10 + 6 = 34 cells.
        assert_eq!(ImpairmentProfile::grid().len(), 34);
    }

    #[test]
    fn loss_profile_sets_only_loss() {
        let p = ImpairmentProfile {
            dim: ImpairmentDim::PacketLoss,
            value: 10.0,
        };
        let s = p.schedule(5, 1);
        let c = s.at(Timestamp::from_secs(2));
        assert_eq!(c.loss_pct, 10.0);
        assert_eq!(c.throughput_kbps, DEFAULT_TPUT_KBPS);
        assert_eq!(c.delay_ms, DEFAULT_LATENCY_MS / 2.0);
        assert_eq!(c.jitter_ms, 0.0);
    }

    #[test]
    fn latency_profile_halves_to_one_way() {
        let p = ImpairmentProfile {
            dim: ImpairmentDim::MeanLatency,
            value: 400.0,
        };
        assert_eq!(p.schedule(3, 1).at(Timestamp::ZERO).delay_ms, 200.0);
    }

    #[test]
    fn tput_stdev_profile_varies_per_second() {
        let p = ImpairmentProfile {
            dim: ImpairmentDim::ThroughputStdev,
            value: 500.0,
        };
        let s = p.schedule(30, 7);
        let vals: Vec<f64> = s.iter().map(|c| c.throughput_kbps).collect();
        let distinct = vals.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(distinct > 20);
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((mean - DEFAULT_TPUT_KBPS).abs() < 500.0, "mean {mean}");
    }

    #[test]
    fn zero_stdev_is_constant() {
        let p = ImpairmentProfile {
            dim: ImpairmentDim::ThroughputStdev,
            value: 0.0,
        };
        let s = p.schedule(10, 7);
        assert!(s.iter().all(|c| c.throughput_kbps == DEFAULT_TPUT_KBPS));
    }

    #[test]
    fn jitter_profile_sets_jitter() {
        let p = ImpairmentProfile {
            dim: ImpairmentDim::LatencyStdev,
            value: 60.0,
        };
        assert_eq!(p.schedule(2, 0).at(Timestamp::ZERO).jitter_ms, 60.0);
    }

    #[test]
    fn labels_cover_all_dims() {
        for d in ImpairmentDim::ALL {
            assert!(!d.label().is_empty());
            assert!(!d.values().is_empty());
        }
    }
}
