//! Order statistics for the report: a timing is a median, its quartiles,
//! and the highest percentile that still has at least ten samples beyond
//! it — with the sample count, so a reader can tell a tail from noise.

/// Percentiles tried for the tail, highest first, each with the share of
/// samples beyond it in parts per ten thousand (whole numbers, so the
/// ten-samples rule is not at the mercy of `100.0 - 99.9`).
const TAIL_LADDER: [(f64, u64); 5] = [
    (99.99, 1),
    (99.9, 10),
    (99.0, 100),
    (90.0, 1_000),
    (50.0, 5_000),
];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: u64 = 10;

/// Median, quartiles and supported tail of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)` of the highest percentile with at least ten
    /// samples beyond it; `None` below twenty samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `samples` (any order). `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail = highest_supported_percentile(sorted.len()).map(|p| (p, quantile(&sorted, p)));
        Some(Summary {
            n: sorted.len(),
            median: quantile(&sorted, 50.0),
            q1: quantile(&sorted, 25.0),
            q3: quantile(&sorted, 75.0),
            tail,
        })
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The highest ladder percentile `p` with `n × (1 − p/100) ≥ 10`.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|(_, beyond)| n as u64 * beyond >= MIN_BEYOND * 10_000)
        .map(|(p, _)| p)
}

/// Linear-interpolated percentile (`p` in 0..=100) of an ascending slice.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `samples` (any order); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// Percentile of `samples` (any order); 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, p)
}

/// Neighbours on a shared box only ever slow the program down, and for
/// seconds at a time, so a time is read off the quiet end of a run's
/// samples — the 10th percentile of a cost, the 90th of a rate — which
/// repeats from run to run about twice as closely as the median does
/// (see the README's "Steadiness").
pub const QUIET_COST_PERCENTILE: f64 = 10.0;
pub const QUIET_RATE_PERCENTILE: f64 = 100.0 - QUIET_COST_PERCENTILE;

/// The quiet end of some costs (times, CPU): their 10th percentile.
pub fn quiet_cost(samples: &[f64]) -> f64 {
    percentile(samples, QUIET_COST_PERCENTILE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        assert_eq!(s.spread(), 2.0 / 3.0);
        assert_eq!(quantile(&[10.0, 20.0], 25.0), 12.5);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        let samples: Vec<f64> = (0..1_000).map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.tail.map(|(p, _)| p), Some(99.0));
        assert!(Summary::of(&samples[..10]).unwrap().tail.is_none());
    }
}
