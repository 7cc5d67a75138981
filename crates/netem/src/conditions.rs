//! Per-second network condition schedules (paper §4.2: "Each throughput,
//! delay, and loss value is emulated for a period of 1 second").

use vcaml_netpkt::Timestamp;

/// Network conditions applied during one second of emulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecondCondition {
    /// Bottleneck throughput in kilobits per second.
    pub throughput_kbps: f64,
    /// One-way propagation delay in milliseconds (half the emulated RTT).
    pub delay_ms: f64,
    /// Standard deviation of Gaussian latency jitter in milliseconds.
    pub jitter_ms: f64,
    /// Bernoulli packet-loss probability in percent (0–100).
    pub loss_pct: f64,
}

impl SecondCondition {
    /// The paper's §5.4 default operating point: 1500 kbps, 50 ms latency,
    /// no jitter, no loss.
    pub fn paper_default() -> Self {
        SecondCondition {
            throughput_kbps: 1500.0,
            delay_ms: 25.0,
            jitter_ms: 0.0,
            loss_pct: 0.0,
        }
    }

    /// Validates the physical plausibility of the condition.
    pub fn is_valid(&self) -> bool {
        self.throughput_kbps > 0.0
            && self.delay_ms >= 0.0
            && self.jitter_ms >= 0.0
            && (0.0..=100.0).contains(&self.loss_pct)
    }
}

/// A sequence of per-second conditions; the last entry persists once the
/// schedule is exhausted (calls can outlast speed-test traces).
#[derive(Debug, Clone, PartialEq)]
pub struct ConditionSchedule {
    seconds: Vec<SecondCondition>,
}

impl ConditionSchedule {
    /// Builds a schedule from explicit per-second entries.
    ///
    /// # Panics
    /// Panics if `seconds` is empty or any entry is invalid.
    pub fn new(seconds: Vec<SecondCondition>) -> Self {
        assert!(
            !seconds.is_empty(),
            "schedule must cover at least one second"
        );
        assert!(
            seconds.iter().all(SecondCondition::is_valid),
            "invalid condition in schedule"
        );
        ConditionSchedule { seconds }
    }

    /// A schedule holding one condition forever.
    pub fn constant(cond: SecondCondition) -> Self {
        Self::new(vec![cond])
    }

    /// The condition in force at time `t` (clamped to the final entry).
    pub fn at(&self, t: Timestamp) -> SecondCondition {
        let idx = t.second_index().max(0) as usize;
        self.seconds[idx.min(self.seconds.len() - 1)]
    }

    /// Number of scheduled seconds.
    pub fn len_secs(&self) -> usize {
        self.seconds.len()
    }

    /// Iterates over the per-second entries.
    pub fn iter(&self) -> impl Iterator<Item = &SecondCondition> {
        self.seconds.iter()
    }

    /// Mean throughput across the schedule, in kbps.
    pub fn mean_throughput_kbps(&self) -> f64 {
        self.seconds.iter().map(|s| s.throughput_kbps).sum::<f64>() / self.seconds.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_clamps_to_ends() {
        let sched = ConditionSchedule::new(vec![
            SecondCondition {
                throughput_kbps: 1000.0,
                ..SecondCondition::paper_default()
            },
            SecondCondition {
                throughput_kbps: 2000.0,
                ..SecondCondition::paper_default()
            },
        ]);
        assert_eq!(
            sched.at(Timestamp::from_millis(500)).throughput_kbps,
            1000.0
        );
        assert_eq!(
            sched.at(Timestamp::from_millis(1500)).throughput_kbps,
            2000.0
        );
        // Beyond the end: last entry persists.
        assert_eq!(sched.at(Timestamp::from_secs(99)).throughput_kbps, 2000.0);
        // Negative time clamps to the first entry.
        assert_eq!(sched.at(Timestamp::from_micros(-5)).throughput_kbps, 1000.0);
    }

    #[test]
    fn constant_schedule() {
        let sched = ConditionSchedule::constant(SecondCondition::paper_default());
        assert_eq!(sched.len_secs(), 1);
        assert_eq!(sched.at(Timestamp::from_secs(42)).delay_ms, 25.0);
    }

    #[test]
    fn mean_throughput() {
        let sched = ConditionSchedule::new(vec![
            SecondCondition {
                throughput_kbps: 1000.0,
                ..SecondCondition::paper_default()
            },
            SecondCondition {
                throughput_kbps: 3000.0,
                ..SecondCondition::paper_default()
            },
        ]);
        assert_eq!(sched.mean_throughput_kbps(), 2000.0);
    }

    #[test]
    #[should_panic(expected = "at least one second")]
    fn empty_schedule_rejected() {
        let _ = ConditionSchedule::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "invalid condition")]
    fn invalid_condition_rejected() {
        let _ = ConditionSchedule::new(vec![SecondCondition {
            throughput_kbps: -1.0,
            ..SecondCondition::paper_default()
        }]);
    }

    #[test]
    fn validity_bounds() {
        let mut c = SecondCondition::paper_default();
        assert!(c.is_valid());
        c.loss_pct = 100.0;
        assert!(c.is_valid());
        c.loss_pct = 100.1;
        assert!(!c.is_valid());
        c.loss_pct = 0.0;
        c.jitter_ms = -0.1;
        assert!(!c.is_valid());
    }
}
