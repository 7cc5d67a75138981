//! Per-cell accuracy scoring and typed verdicts.

use crate::run::WindowEst;
use crate::truth::WindowTruth;
use vcaml::{Method, ResolutionScheme};
use vcaml_vcasim::VcaProfile;

/// Windows whose true bitrate is below this carry no meaningful
/// relative-error signal (startup, DTX, video-off) and are excluded
/// from the bitrate MRAE denominator.
pub const MIN_TRUTH_KBPS: f64 = 50.0;

/// How a cell (or one of its metrics) fared against the tolerances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Within the pass tolerance.
    Pass,
    /// Outside pass but within the degraded tolerance — accuracy is
    /// visibly off yet the method still tracks the call.
    Degraded,
    /// Outside even the degraded tolerance: the estimate is unusable
    /// under this impairment.
    Fail,
}

impl Verdict {
    /// Scorecard string form.
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Degraded => "degraded",
            Verdict::Fail => "fail",
        }
    }

    /// Severity rank (higher is worse), for `--compare` deltas.
    pub fn rank(&self) -> u8 {
        match self {
            Verdict::Pass => 0,
            Verdict::Degraded => 1,
            Verdict::Fail => 2,
        }
    }

    /// Parses the string form back (for `--compare`).
    pub fn parse(s: &str) -> Option<Verdict> {
        match s {
            "pass" => Some(Verdict::Pass),
            "degraded" => Some(Verdict::Degraded),
            "fail" => Some(Verdict::Fail),
            _ => None,
        }
    }
}

/// Per-metric error tolerances (same units as the metrics: fps MAE in
/// frames/s, bitrate MRAE as a ratio, resolution accuracy as a
/// fraction).
///
/// Two scaling knobs widen the bands where wide bands are the *correct
/// expectation*, so `Fail` always means "worse than this method is
/// known to be here", never "the method has a documented weakness":
///
/// * [`Tolerances::ipudp_heur_fps_scale`] — the IP/UDP Heuristic
///   reconstructs frames from packet sizes alone and systematically
///   miscounts at high bitrates (the paper's motivation for the ML
///   variants); its fps bands are an order wider.
/// * a per-scenario `tol_scale` (see
///   [`ScenarioSpec`](crate::spec::ScenarioSpec)) — scenarios that are
///   out-of-distribution by construction (multiparty fan-in, real-world
///   payload maps) widen every band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// fps MAE at or below this passes.
    pub fps_pass: f64,
    /// fps MAE at or below this (but above pass) is degraded.
    pub fps_degraded: f64,
    /// Bitrate MRAE at or below this passes.
    pub mrae_pass: f64,
    /// Bitrate MRAE at or below this is degraded.
    pub mrae_degraded: f64,
    /// Resolution accuracy at or above this passes.
    pub res_pass: f64,
    /// Resolution accuracy at or above this is degraded.
    pub res_degraded: f64,
    /// Extra fps-band multiplier for the IP/UDP Heuristic.
    pub ipudp_heur_fps_scale: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            fps_pass: 4.0,
            fps_degraded: 12.0,
            mrae_pass: 0.45,
            mrae_degraded: 1.2,
            res_pass: 0.75,
            res_degraded: 0.3,
            ipudp_heur_fps_scale: 8.0,
        }
    }
}

impl Tolerances {
    /// Uniformly tightened (`scale < 1`) or loosened (`scale > 1`)
    /// bands — the `--inject-tolerance` self-test knob. Error bands
    /// multiply by `scale`, accuracy thresholds divide by it, so a
    /// small scale provably flips verdicts that pass under the real
    /// bands: CI uses this to prove the scorer and the compare gate
    /// still react, through the live scoring path instead of a
    /// hand-doctored scorecard.
    #[must_use]
    pub fn scaled(&self, scale: f64) -> Tolerances {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        Tolerances {
            fps_pass: self.fps_pass * scale,
            fps_degraded: self.fps_degraded * scale,
            mrae_pass: self.mrae_pass * scale,
            mrae_degraded: self.mrae_degraded * scale,
            res_pass: self.res_pass / scale,
            res_degraded: self.res_degraded / scale,
            ipudp_heur_fps_scale: self.ipudp_heur_fps_scale,
        }
    }

    fn judge_error(value: f64, pass: f64, degraded: f64) -> Verdict {
        if value <= pass {
            Verdict::Pass
        } else if value <= degraded {
            Verdict::Degraded
        } else {
            Verdict::Fail
        }
    }

    fn judge_accuracy(value: f64, pass: f64, degraded: f64) -> Verdict {
        if value >= pass {
            Verdict::Pass
        } else if value >= degraded {
            Verdict::Degraded
        } else {
            Verdict::Fail
        }
    }
}

/// One scored grid cell: a scenario × method pair.
#[derive(Debug, Clone)]
pub struct CellScore {
    /// Scenario name.
    pub scenario: String,
    /// Estimation method.
    pub method: Method,
    /// Windows that were paired (truth row + estimate).
    pub windows: usize,
    /// Mean absolute fps error over all paired windows.
    pub fps_mae: f64,
    /// Mean relative bitrate error over windows with meaningful truth
    /// bitrate; `None` when no window qualified.
    pub bitrate_mrae: Option<f64>,
    /// Fraction of classifiable windows whose resolution class matched;
    /// `None` when the scheme or the call offered nothing to classify.
    pub res_acc: Option<f64>,
    /// fps verdict.
    pub fps_verdict: Verdict,
    /// Bitrate verdict (`None` mirrors `bitrate_mrae`).
    pub bitrate_verdict: Option<Verdict>,
    /// Resolution verdict (`None` mirrors `res_acc`).
    pub res_verdict: Option<Verdict>,
    /// Worst of the present per-metric verdicts.
    pub verdict: Verdict,
}

/// Scores one cell: pairs estimates with truth by window index and
/// reduces to the three metrics plus verdicts. `tol_scale` is the
/// scenario's difficulty multiplier (error bands widen by it, accuracy
/// thresholds shrink by it).
#[expect(
    clippy::too_many_arguments,
    reason = "one scorecard cell's inputs, each a separate axis of the grid"
)]
pub fn score_cell(
    scenario: &str,
    method: Method,
    truth: &[WindowTruth],
    estimates: &[WindowEst],
    scheme: &ResolutionScheme,
    ladder: &VcaProfile,
    tol: &Tolerances,
    tol_scale: f64,
) -> CellScore {
    assert!(
        tol_scale.is_finite() && tol_scale >= 1.0,
        "tol_scale must be >= 1"
    );
    let mut fps_err = 0.0;
    let mut paired = 0usize;
    let mut rel_err = 0.0;
    let mut rel_n = 0usize;
    let mut res_hits = 0usize;
    let mut res_n = 0usize;

    for t in truth {
        let Some(est) = estimates.iter().find(|e| e.window == t.window) else {
            continue;
        };
        paired += 1;
        fps_err += (est.fps - t.fps).abs();
        if t.bitrate_kbps >= MIN_TRUTH_KBPS {
            rel_err += (est.bitrate_kbps - t.bitrate_kbps).abs() / t.bitrate_kbps;
            rel_n += 1;
        }
        if scheme.is_classifiable() {
            if let Some(truth_class) = scheme.class_of(t.height) {
                res_n += 1;
                let est_height = ladder.rung_for(est.bitrate_kbps).height;
                if scheme.class_of(est_height) == Some(truth_class) {
                    res_hits += 1;
                }
            }
        }
    }

    let fps_mae = if paired > 0 {
        fps_err / paired as f64
    } else {
        f64::INFINITY
    };
    let bitrate_mrae = (rel_n > 0).then(|| rel_err / rel_n as f64);
    let res_acc = (res_n > 0).then(|| res_hits as f64 / res_n as f64);

    let fps_scale = if method == Method::IpUdpHeuristic {
        tol_scale * tol.ipudp_heur_fps_scale
    } else {
        tol_scale
    };
    let fps_verdict = Tolerances::judge_error(
        fps_mae,
        tol.fps_pass * fps_scale,
        tol.fps_degraded * fps_scale,
    );
    let bitrate_verdict = bitrate_mrae.map(|m| {
        Tolerances::judge_error(m, tol.mrae_pass * tol_scale, tol.mrae_degraded * tol_scale)
    });
    let res_verdict = res_acc.map(|a| {
        Tolerances::judge_accuracy(a, tol.res_pass / tol_scale, tol.res_degraded / tol_scale)
    });
    let verdict = [Some(fps_verdict), bitrate_verdict, res_verdict]
        .into_iter()
        .flatten()
        .max()
        .unwrap_or(Verdict::Fail);

    CellScore {
        scenario: scenario.to_string(),
        method,
        windows: paired,
        fps_mae,
        bitrate_mrae,
        res_acc,
        fps_verdict,
        bitrate_verdict,
        res_verdict,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcaml_rtp::VcaKind;

    fn truth_row(window: u64, fps: f64, kbps: f64, height: u32) -> WindowTruth {
        WindowTruth {
            window,
            fps,
            bitrate_kbps: kbps,
            height,
        }
    }

    fn est_row(window: u64, fps: f64, kbps: f64) -> WindowEst {
        WindowEst {
            window,
            fps,
            bitrate_kbps: kbps,
        }
    }

    #[test]
    fn perfect_estimates_pass() {
        let ladder = VcaProfile::lab(VcaKind::Teams);
        let scheme = ResolutionScheme::LowMediumHigh;
        let truth: Vec<_> = (0..10).map(|w| truth_row(w, 30.0, 2000.0, 540)).collect();
        let est: Vec<_> = (0..10).map(|w| est_row(w, 30.0, 2000.0)).collect();
        let c = score_cell(
            "t",
            Method::RtpHeuristic,
            &truth,
            &est,
            &scheme,
            &ladder,
            &Tolerances::default(),
            1.0,
        );
        assert_eq!(c.verdict, Verdict::Pass);
        assert_eq!(c.windows, 10);
        assert_eq!(c.fps_mae, 0.0);
        assert_eq!(c.bitrate_mrae, Some(0.0));
        assert_eq!(c.res_acc, Some(1.0));
    }

    #[test]
    fn injected_tolerance_flips_a_passing_cell() {
        // The same perfect estimates that pass above must fail once the
        // bands are tightened 20x: the accuracy threshold (0.75 / 0.05)
        // becomes unattainable, so even res_acc = 1.0 flips. This is
        // the property `--inject-tolerance` leans on in CI.
        let ladder = VcaProfile::lab(VcaKind::Teams);
        let scheme = ResolutionScheme::LowMediumHigh;
        let truth: Vec<_> = (0..10).map(|w| truth_row(w, 30.0, 2000.0, 540)).collect();
        let est: Vec<_> = (0..10).map(|w| est_row(w, 30.0, 2000.0)).collect();
        let c = score_cell(
            "t",
            Method::RtpHeuristic,
            &truth,
            &est,
            &scheme,
            &ladder,
            &Tolerances::default().scaled(0.05),
            1.0,
        );
        assert_eq!(c.verdict, Verdict::Fail);
        assert_eq!(c.fps_verdict, Verdict::Pass, "fps was genuinely perfect");
        assert_eq!(c.res_verdict, Some(Verdict::Fail));
    }

    #[test]
    fn wild_estimates_fail_and_dominate_the_cell_verdict() {
        let ladder = VcaProfile::lab(VcaKind::Teams);
        let scheme = ResolutionScheme::LowMediumHigh;
        let truth: Vec<_> = (0..10).map(|w| truth_row(w, 30.0, 2000.0, 540)).collect();
        let est: Vec<_> = (0..10).map(|w| est_row(w, 30.0, 6000.0)).collect();
        let c = score_cell(
            "t",
            Method::RtpHeuristic,
            &truth,
            &est,
            &scheme,
            &ladder,
            &Tolerances::default(),
            1.0,
        );
        assert_eq!(c.fps_verdict, Verdict::Pass);
        assert_eq!(c.bitrate_verdict, Some(Verdict::Fail));
        assert_eq!(c.verdict, Verdict::Fail);
    }

    #[test]
    fn low_truth_windows_do_not_enter_the_mrae() {
        let ladder = VcaProfile::lab(VcaKind::Teams);
        let scheme = ResolutionScheme::LowMediumHigh;
        // All windows below the truth-bitrate floor: MRAE is undefined.
        let truth: Vec<_> = (0..5).map(|w| truth_row(w, 0.0, 0.0, 0)).collect();
        let est: Vec<_> = (0..5).map(|w| est_row(w, 0.0, 10.0)).collect();
        let c = score_cell(
            "t",
            Method::IpUdpHeuristic,
            &truth,
            &est,
            &scheme,
            &ladder,
            &Tolerances::default(),
            1.0,
        );
        assert_eq!(c.bitrate_mrae, None);
        assert_eq!(c.res_acc, None);
        assert_eq!(c.verdict, Verdict::Pass);
    }

    #[test]
    fn verdict_ordering_matches_severity() {
        assert!(Verdict::Pass < Verdict::Degraded);
        assert!(Verdict::Degraded < Verdict::Fail);
        assert_eq!(Verdict::parse("degraded"), Some(Verdict::Degraded));
        assert_eq!(Verdict::parse("bogus"), None);
    }
}
