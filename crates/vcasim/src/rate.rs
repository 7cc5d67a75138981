//! GCC-like sender rate control.
//!
//! A simplified Google-Congestion-Control loop updated once per second
//! from receiver feedback: multiplicative increase while loss is low,
//! hold in a dead zone, multiplicative decrease proportional to loss above
//! ~2%, plus a delay-based backoff when the one-way delay trend indicates
//! queue build-up. This is the mechanism that couples network conditions
//! to the QoE metrics the paper estimates.

/// Receiver feedback for one update interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Feedback {
    /// Fraction of packets lost in the interval, 0–1.
    pub loss_fraction: f64,
    /// Mean one-way delay observed in the interval, milliseconds.
    pub mean_owd_ms: f64,
    /// Receive rate in kbps (acknowledged throughput).
    pub recv_rate_kbps: f64,
}

/// Stateful rate controller.
#[derive(Debug, Clone)]
pub struct RateController {
    target_kbps: f64,
    min_kbps: f64,
    max_kbps: f64,
    /// Baseline one-way delay: exponential minimum tracker.
    base_owd_ms: Option<f64>,
}

impl RateController {
    /// Creates a controller with a starting rate and bounds.
    pub fn new(start_kbps: f64, min_kbps: f64, max_kbps: f64) -> Self {
        assert!(min_kbps > 0.0 && min_kbps <= start_kbps && start_kbps <= max_kbps);
        RateController {
            target_kbps: start_kbps,
            min_kbps,
            max_kbps,
            base_owd_ms: None,
        }
    }

    /// Current target bitrate in kbps.
    pub fn target_kbps(&self) -> f64 {
        self.target_kbps
    }

    /// Applies one interval of feedback and returns the new target.
    pub fn update(&mut self, fb: Feedback) -> f64 {
        // Track the baseline delay (slowly forgetting so route changes
        // don't pin it forever).
        let base = match self.base_owd_ms {
            None => fb.mean_owd_ms,
            Some(b) => (b * 1.02)
                .min(fb.mean_owd_ms.max(b * 0.98))
                .min(fb.mean_owd_ms)
                .max(
                    // never below the observed minimum this round
                    b.min(fb.mean_owd_ms),
                ),
        };
        self.base_owd_ms = Some(base);
        let queued_ms = (fb.mean_owd_ms - base).max(0.0);

        // Loss-based control (GCC thresholds: 2% / 10%).
        if fb.loss_fraction > 0.10 {
            self.target_kbps *= 1.0 - 0.5 * fb.loss_fraction;
            // REMB-style: never ride far above what actually arrived.
            if fb.recv_rate_kbps > 0.0 {
                self.target_kbps = self.target_kbps.min(fb.recv_rate_kbps * 0.95);
            }
        } else if fb.loss_fraction < 0.02 {
            self.target_kbps *= 1.08;
        }
        // Delay-based backoff: sustained queueing over 50 ms.
        if queued_ms > 50.0 {
            self.target_kbps *= 0.85;
            // Don't ride above what the network delivered.
            if fb.recv_rate_kbps > 0.0 {
                self.target_kbps = self.target_kbps.min(fb.recv_rate_kbps * 0.95);
            }
        }
        self.target_kbps = self.target_kbps.clamp(self.min_kbps, self.max_kbps);
        self.target_kbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(rate: f64) -> Feedback {
        Feedback {
            loss_fraction: 0.0,
            mean_owd_ms: 30.0,
            recv_rate_kbps: rate,
        }
    }

    #[test]
    fn ramps_up_without_loss() {
        let mut rc = RateController::new(500.0, 100.0, 4000.0);
        for _ in 0..30 {
            rc.update(clean(rc.target_kbps()));
        }
        assert!(
            (rc.target_kbps() - 4000.0).abs() < 1e-6,
            "rate {}",
            rc.target_kbps()
        );
    }

    #[test]
    fn heavy_loss_backs_off() {
        let mut rc = RateController::new(2000.0, 100.0, 4000.0);
        rc.update(Feedback {
            loss_fraction: 0.2,
            mean_owd_ms: 30.0,
            recv_rate_kbps: 1500.0,
        });
        assert!(rc.target_kbps() < 2000.0 * 0.95);
    }

    #[test]
    fn moderate_loss_holds() {
        let mut rc = RateController::new(2000.0, 100.0, 4000.0);
        rc.update(Feedback {
            loss_fraction: 0.05,
            mean_owd_ms: 30.0,
            recv_rate_kbps: 1900.0,
        });
        assert!((rc.target_kbps() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn queue_buildup_backs_off() {
        let mut rc = RateController::new(2000.0, 100.0, 4000.0);
        rc.update(clean(2000.0)); // establish 30 ms baseline (and +8% growth)
        let before = rc.target_kbps();
        rc.update(Feedback {
            loss_fraction: 0.0,
            mean_owd_ms: 160.0,
            recv_rate_kbps: 1000.0,
        });
        // Increase 8% then ×0.85 and capped at 95% of recv rate.
        assert!(rc.target_kbps() <= 1000.0 * 0.95 + 1e-9);
        assert!(rc.target_kbps() < before);
    }

    #[test]
    fn respects_bounds() {
        let mut rc = RateController::new(150.0, 100.0, 800.0);
        for _ in 0..50 {
            rc.update(Feedback {
                loss_fraction: 0.5,
                mean_owd_ms: 30.0,
                recv_rate_kbps: 50.0,
            });
        }
        assert!((rc.target_kbps() - 100.0).abs() < 1e-9);
        for _ in 0..50 {
            rc.update(clean(rc.target_kbps()));
        }
        assert!((rc.target_kbps() - 800.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn invalid_bounds_rejected() {
        let _ = RateController::new(100.0, 200.0, 4000.0);
    }
}
