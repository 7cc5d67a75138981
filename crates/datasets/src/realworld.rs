//! The real-world corpus: a model of the paper's 15-household Raspberry
//! Pi deployment (§4.2).
//!
//! Each household has an ISP speed tier well above VCA needs, so most
//! calls see excellent conditions — the paper observes higher and stabler
//! QoE than in the lab — while a small fraction of calls are degraded by
//! cross-traffic or Wi-Fi trouble ("a small fraction of calls with low
//! QoE").

use crate::{convert::to_core_trace, CorpusConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vcaml::Trace;
use vcaml_netem::{ConditionSchedule, LinkConfig, SecondCondition};
use vcaml_rtp::VcaKind;
use vcaml_vcasim::{Session, SessionConfig, VcaProfile};

/// Number of deployed households (paper §4.2).
pub const N_HOUSEHOLDS: usize = 15;

/// Fraction of calls hit by a degradation episode.
const DEGRADED_FRACTION: f64 = 0.10;

/// Per-household access characteristics.
#[derive(Debug, Clone, Copy)]
struct Household {
    /// Access downlink in kbps (speed tiers 25–940 Mbps in the study; the
    /// VCA only ever uses a few Mbps of it).
    tier_kbps: f64,
    /// Baseline one-way delay, ms.
    base_owd_ms: f64,
}

fn households(seed: u64) -> Vec<Household> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x404);
    let tiers_mbps = [25.0, 50.0, 100.0, 100.0, 200.0, 300.0, 500.0, 940.0];
    (0..N_HOUSEHOLDS)
        .map(|_| Household {
            tier_kbps: tiers_mbps[rng.gen_range(0..tiers_mbps.len())] * 1000.0,
            base_owd_ms: rng.gen_range(4.0..25.0),
        })
        .collect()
}

/// Builds the per-second schedule for one call from one household.
fn call_schedule(h: Household, secs: u32, rng: &mut StdRng) -> ConditionSchedule {
    let degraded = rng.gen::<f64>() < DEGRADED_FRACTION;
    let seconds = (0..secs)
        .map(|_| {
            if degraded {
                SecondCondition {
                    // Cross-traffic leaves only a slice of the tier.
                    throughput_kbps: rng.gen_range(250.0..2_500.0),
                    delay_ms: h.base_owd_ms + rng.gen_range(5.0..60.0),
                    jitter_ms: rng.gen_range(1.0..8.0),
                    loss_pct: if rng.gen::<f64>() < 0.4 {
                        rng.gen_range(0.2..3.0)
                    } else {
                        0.0
                    },
                }
            } else {
                SecondCondition {
                    throughput_kbps: h.tier_kbps * rng.gen_range(0.6..0.95),
                    delay_ms: h.base_owd_ms + rng.gen_range(0.0..4.0),
                    // Residential paths rarely reorder; keep per-packet
                    // jitter well under the intra-burst packet spacing.
                    jitter_ms: rng.gen_range(0.0..0.15),
                    loss_pct: 0.0,
                }
            }
        })
        .collect();
    ConditionSchedule::new(seconds)
}

/// Generates the real-world corpus for one VCA.
pub fn realworld_corpus(vca: VcaKind, cfg: &CorpusConfig) -> Vec<Trace> {
    assert!(cfg.n_calls > 0 && cfg.min_secs > 0 && cfg.min_secs <= cfg.max_secs);
    let profile = VcaProfile::real_world(vca);
    let homes = households(cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x3ea1);
    (0..cfg.n_calls)
        .map(|i| {
            let home = homes[i % homes.len()];
            let secs = rng.gen_range(cfg.min_secs..=cfg.max_secs);
            let schedule = call_schedule(home, secs, &mut rng);
            let session = Session::new(SessionConfig {
                profile: profile.clone(),
                schedule,
                duration_secs: secs,
                seed: cfg.seed.wrapping_mul(0x51_7cc1).wrapping_add(i as u64),
                link: LinkConfig::default(),
            })
            .run();
            to_core_trace(&session, profile.payload_map)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_qoe(traces: &[Trace]) -> (f64, f64) {
        let mut fps = 0.0;
        let mut bitrate = 0.0;
        let mut n = 0.0;
        for t in traces {
            for r in &t.truth {
                fps += r.fps;
                bitrate += r.bitrate_kbps;
                n += 1.0;
            }
        }
        (fps / n, bitrate / n)
    }

    #[test]
    fn corpus_shape() {
        let traces = realworld_corpus(VcaKind::Meet, &CorpusConfig::small(5));
        assert_eq!(traces.len(), 6);
        assert!(traces.iter().all(Trace::is_complete));
        assert!(traces.iter().all(|t| (15..=30).contains(&t.duration_secs)));
    }

    #[test]
    fn real_world_qoe_beats_inlab() {
        let cfg = CorpusConfig {
            n_calls: 10,
            min_secs: 20,
            max_secs: 25,
            seed: 11,
        };
        let rw = realworld_corpus(VcaKind::Teams, &cfg);
        let lab = crate::inlab_corpus(VcaKind::Teams, &cfg);
        let (rw_fps, rw_br) = mean_qoe(&rw);
        let (lab_fps, lab_br) = mean_qoe(&lab);
        assert!(rw_fps > lab_fps, "rw fps {rw_fps} vs lab {lab_fps}");
        assert!(rw_br > lab_br, "rw bitrate {rw_br} vs lab {lab_br}");
    }

    #[test]
    fn meet_real_world_reaches_higher_resolutions() {
        let cfg = CorpusConfig {
            n_calls: 12,
            min_secs: 20,
            max_secs: 25,
            seed: 2,
        };
        let rw = realworld_corpus(VcaKind::Meet, &cfg);
        let max_h = rw
            .iter()
            .flat_map(|t| t.truth.iter().map(|r| r.height))
            .max()
            .unwrap();
        assert!(max_h >= 540, "max height {max_h}");
    }

    #[test]
    fn webex_real_world_uses_rw_payload_types() {
        let traces = realworld_corpus(VcaKind::Webex, &CorpusConfig::small(3));
        // Video PT 100, no rtx stream.
        assert!(traces[0].rtp_video_packets().count() > 0);
        let t = &traces[0];
        assert!(!t.packets.iter().any(|p| p
            .rtp
            .is_some_and(
                |h| t.payload_map.classify(h.payload_type) == Some(vcaml_rtp::MediaKind::VideoRtx)
            )));
    }

    #[test]
    fn some_calls_are_degraded() {
        let cfg = CorpusConfig {
            n_calls: 30,
            min_secs: 15,
            max_secs: 20,
            seed: 9,
        };
        let rw = realworld_corpus(VcaKind::Webex, &cfg);
        let mut call_fps: Vec<f64> = rw
            .iter()
            .map(|t| t.truth.iter().map(|r| r.fps).sum::<f64>() / t.truth.len() as f64)
            .collect();
        call_fps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // The tail call should be clearly worse than the median.
        assert!(
            call_fps[0] < call_fps[call_fps.len() / 2] - 2.0,
            "{call_fps:?}"
        );
    }
}
