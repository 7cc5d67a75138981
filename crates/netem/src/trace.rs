//! Synthetic NDT-like speed-test traces.
//!
//! The paper drives its lab emulation from M-Lab NDT `tcp-info` samples:
//! it replays each test's per-second RTT and loss series and samples
//! throughput from a Normal distribution fitted to the test (excluding
//! slow-start), keeping only tests with mean speed below 10 Mbps (§4.2).
//! That dataset is not available offline, so [`synth_ndt_schedule`]
//! synthesizes tests with the same structure: a mean speed drawn from a
//! log-uniform distribution capped at 10 Mbps, per-second Normal throughput
//! samples, an RTT random walk, and clustered loss episodes.

use crate::conditions::{ConditionSchedule, SecondCondition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Upper bound on mean test speed, per the paper ("We only use traces with
/// average speeds below 10 Mbps to create challenging network conditions").
pub const MAX_MEAN_KBPS: f64 = 10_000.0;

/// A synthetic speed test: summary statistics plus its per-second series.
#[derive(Debug, Clone)]
pub struct NdtTest {
    /// Mean throughput of the test in kbps.
    pub mean_kbps: f64,
    /// Standard deviation of per-second throughput in kbps.
    pub stdev_kbps: f64,
    /// Per-second RTT samples in milliseconds.
    pub rtt_ms: Vec<f64>,
    /// Per-second loss percentages.
    pub loss_pct: Vec<f64>,
}

impl NdtTest {
    /// Generates one synthetic test covering `secs` seconds.
    pub(crate) fn generate(seed: u64, secs: usize) -> Self {
        assert!(secs > 0, "test must cover at least one second");
        let mut rng = StdRng::seed_from_u64(seed);

        // Mean speed: log-uniform in [500 kbps, 10 Mbps]. Tests below
        // 10 Mbps still skew toward the top of that band in M-Lab data;
        // the VCAs' 1.5–4 Mbps ceilings keep mid-band tests challenging.
        let log_lo = 500.0f64.ln();
        let log_hi = MAX_MEAN_KBPS.ln();
        let mean_kbps = (log_lo + rng.gen::<f64>() * (log_hi - log_lo)).exp();
        // Dispersion: 8–25% of the mean.
        let stdev_kbps = mean_kbps * rng.gen_range(0.08..0.25);

        // RTT: base 10–120 ms with a bounded random walk (congestion
        // epochs raise it).
        let base_rtt: f64 = rng.gen_range(10.0..120.0);
        let mut rtt = base_rtt;
        let mut rtt_ms = Vec::with_capacity(secs);
        // Loss: mostly zero, with occasional bursty episodes.
        let mut loss_pct = Vec::with_capacity(secs);
        let mut episode_left = 0usize;
        let mut episode_pct = 0.0;
        for _ in 0..secs {
            rtt = (rtt + rng.gen_range(-8.0..8.0)).clamp(base_rtt * 0.8, base_rtt * 3.0);
            rtt_ms.push(rtt);
            if episode_left == 0 && rng.gen::<f64>() < 0.05 {
                episode_left = rng.gen_range(1..4);
                episode_pct = rng.gen_range(0.5..6.0);
            }
            if episode_left > 0 {
                episode_left -= 1;
                loss_pct.push(episode_pct);
            } else {
                loss_pct.push(0.0);
            }
        }
        NdtTest {
            mean_kbps,
            stdev_kbps,
            rtt_ms,
            loss_pct,
        }
    }

    /// Converts the test into a per-second [`ConditionSchedule`], sampling
    /// throughput from `Normal(mean, stdev)` exactly as the paper does
    /// ("throughput values are sampled from a normal distribution with the
    /// same mean and variance as the test throughput").
    pub(crate) fn to_schedule(&self, seed: u64) -> ConditionSchedule {
        let mut rng = StdRng::seed_from_u64(seed);
        let seconds = self
            .rtt_ms
            .iter()
            .zip(&self.loss_pct)
            .map(|(&rtt, &loss)| {
                let tput = (self.mean_kbps + gaussian(&mut rng) * self.stdev_kbps).max(100.0);
                SecondCondition {
                    throughput_kbps: tput,
                    delay_ms: rtt / 2.0, // one-way
                    // The paper replays per-second RTT values with no
                    // per-packet jitter (§4.2); latency jitter is studied
                    // separately in the Table A.6 sweep.
                    jitter_ms: 0.0,
                    loss_pct: loss,
                }
            })
            .collect();
        ConditionSchedule::new(seconds)
    }
}

/// Convenience: generate a test and immediately convert it to a schedule.
pub fn synth_ndt_schedule(seed: u64, secs: usize) -> ConditionSchedule {
    NdtTest::generate(seed, secs).to_schedule(seed ^ 0x9e37_79b9_7f4a_7c15)
}

fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcaml_netpkt::Timestamp;

    #[test]
    fn mean_speed_below_cap() {
        for seed in 0..50 {
            let t = NdtTest::generate(seed, 30);
            assert!(t.mean_kbps < MAX_MEAN_KBPS, "seed {seed}: {}", t.mean_kbps);
            assert!(t.mean_kbps >= 500.0);
        }
    }

    #[test]
    fn series_lengths_match() {
        let t = NdtTest::generate(3, 25);
        assert_eq!(t.rtt_ms.len(), 25);
        assert_eq!(t.loss_pct.len(), 25);
    }

    #[test]
    fn schedule_covers_duration() {
        let sched = synth_ndt_schedule(11, 20);
        assert_eq!(sched.iter().count(), 20);
        let c = sched.at(Timestamp::from_secs(5));
        assert!(c.is_valid());
    }

    #[test]
    fn schedule_throughput_tracks_test_mean() {
        let t = NdtTest::generate(21, 200);
        let sched = t.to_schedule(99);
        let m = sched.iter().map(|s| s.throughput_kbps).sum::<f64>() / 200.0;
        // Sample mean within 3 sigma/sqrt(n) of the test mean (floor at
        // 100 kbps biases upward slightly for slow tests, allow slack).
        assert!(
            (m - t.mean_kbps).abs() < t.stdev_kbps,
            "schedule mean {m} vs test mean {}",
            t.mean_kbps
        );
    }

    #[test]
    fn loss_comes_in_episodes() {
        // Across many seeds, at least one test has a loss episode of
        // length >= 2 seconds.
        let mut found = false;
        for seed in 0..30 {
            let t = NdtTest::generate(seed, 60);
            for w in t.loss_pct.windows(2) {
                if w[0] > 0.0 && w[1] > 0.0 {
                    found = true;
                }
            }
        }
        assert!(found);
    }

    #[test]
    fn deterministic() {
        let a = NdtTest::generate(5, 30);
        let b = NdtTest::generate(5, 30);
        assert_eq!(a.rtt_ms, b.rtt_ms);
        assert_eq!(a.mean_kbps, b.mean_kbps);
    }

    #[test]
    fn rtt_stays_bounded() {
        let t = NdtTest::generate(9, 300);
        let base = t.rtt_ms[0];
        for &r in &t.rtt_ms {
            assert!(r > 0.0 && r < base * 4.0, "rtt {r} vs base {base}");
        }
    }
}
