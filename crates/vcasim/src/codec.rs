//! Video encoder model: per-frame encoded sizes under variable-bitrate
//! encoding with keyframes.
//!
//! Frame size tracks `bitrate / fps` with an AR(1) content-activity
//! process, so consecutive frames differ in size — the property that makes
//! inter-frame packet boundaries detectable (paper §3.2.1: "due to dynamic
//! nature of the underlying video content along with variable bitrate
//! encoding ... consecutive frames exhibit different sizes").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One encoded video frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VideoFrame {
    /// Encoded size in bytes.
    pub size: usize,
    /// Whether this is a keyframe (IDR / VP8 key frame).
    pub keyframe: bool,
    /// Frame height at encode time.
    pub height: u32,
}

/// Stateful frame-size generator.
#[derive(Debug)]
pub struct FrameSource {
    rng: StdRng,
    /// AR(1) content-activity state, mean 1.0.
    activity: f64,
    /// AR(1) pole: correlation between consecutive frames.
    rho: f64,
    /// Innovation scale, derived from the profile's coefficient of
    /// variation.
    sigma: f64,
    frames_since_key: u32,
    /// Mean keyframe interval in frames.
    key_interval: u32,
    /// Size multiplier applied to keyframes.
    key_gain: f64,
    force_key: bool,
}

impl FrameSource {
    /// Creates a source with the given VBR coefficient of variation.
    pub fn new(seed: u64, frame_size_cv: f64) -> Self {
        let rho: f64 = 0.7;
        FrameSource {
            rng: StdRng::seed_from_u64(seed),
            activity: 1.0,
            rho,
            // Stationary stdev of AR(1) is sigma/sqrt(1-rho^2); invert.
            sigma: frame_size_cv * (1.0 - rho * rho).sqrt(),
            frames_since_key: 0,
            key_interval: 300,
            key_gain: 4.0,
            force_key: true, // first frame is always a keyframe
        }
    }

    /// Requests a keyframe (e.g. on resolution switch or recovery).
    pub fn request_keyframe(&mut self) {
        self.force_key = true;
    }

    /// Produces the next frame for a target bitrate and frame rate.
    pub fn next_frame(&mut self, target_kbps: f64, fps: f64, height: u32) -> VideoFrame {
        assert!(fps > 0.0 && target_kbps > 0.0);
        let mean_bytes = target_kbps * 1000.0 / 8.0 / fps;

        // Evolve content activity.
        let g = gaussian(&mut self.rng);
        self.activity = 1.0 + self.rho * (self.activity - 1.0) + self.sigma * g;
        self.activity = self.activity.clamp(0.25, 3.0);

        let keyframe = self.force_key
            || (self.frames_since_key >= self.key_interval && self.rng.gen::<f64>() < 0.2);
        self.force_key = false;
        if keyframe {
            self.frames_since_key = 0;
        } else {
            self.frames_since_key += 1;
        }

        let gain = if keyframe { self.key_gain } else { 1.0 };
        let size = (mean_bytes * self.activity * gain).max(120.0) as usize;
        VideoFrame {
            size,
            keyframe,
            height,
        }
    }
}

fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_frame_is_keyframe() {
        let mut src = FrameSource::new(1, 0.25);
        assert!(src.next_frame(1000.0, 30.0, 360).keyframe);
        assert!(!src.next_frame(1000.0, 30.0, 360).keyframe);
    }

    #[test]
    fn mean_size_tracks_budget() {
        let mut src = FrameSource::new(2, 0.25);
        src.next_frame(1000.0, 30.0, 360); // discard keyframe
        let n = 5000;
        let total: usize = (0..n).map(|_| src.next_frame(1000.0, 30.0, 360).size).sum();
        let mean = total as f64 / n as f64;
        let budget = 1000.0 * 1000.0 / 8.0 / 30.0; // ≈ 4167 bytes
                                                   // Keyframes inside the window inflate the mean a bit; allow 25%.
        assert!(
            (mean - budget).abs() / budget < 0.25,
            "mean {mean} vs {budget}"
        );
    }

    #[test]
    fn consecutive_frames_differ() {
        let mut src = FrameSource::new(3, 0.25);
        let sizes: Vec<usize> = (0..200)
            .map(|_| src.next_frame(800.0, 30.0, 270).size)
            .collect();
        let same = sizes.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(same < 5, "{same} identical consecutive frames");
    }

    #[test]
    fn keyframes_are_larger() {
        let mut src = FrameSource::new(4, 0.2);
        let key = src.next_frame(1000.0, 30.0, 360);
        let mut deltas = Vec::new();
        for _ in 0..50 {
            deltas.push(src.next_frame(1000.0, 30.0, 360).size);
        }
        let mean_delta = deltas.iter().sum::<usize>() / deltas.len();
        assert!(
            key.size > mean_delta * 2,
            "key {} vs delta mean {mean_delta}",
            key.size
        );
    }

    #[test]
    fn request_keyframe_honoured() {
        let mut src = FrameSource::new(5, 0.2);
        src.next_frame(500.0, 30.0, 180);
        src.request_keyframe();
        assert!(src.next_frame(500.0, 30.0, 180).keyframe);
    }

    #[test]
    fn periodic_keyframes_appear() {
        let mut src = FrameSource::new(6, 0.2);
        let keys = (0..2000)
            .filter(|_| src.next_frame(700.0, 30.0, 270).keyframe)
            .count();
        assert!(keys >= 3, "only {keys} keyframes in 2000 frames");
    }

    #[test]
    fn floor_respected_at_tiny_bitrate() {
        let mut src = FrameSource::new(7, 0.3);
        for _ in 0..100 {
            assert!(src.next_frame(8.0, 30.0, 90).size >= 120);
        }
    }

    #[test]
    fn deterministic() {
        let run = |seed| {
            let mut s = FrameSource::new(seed, 0.25);
            (0..100)
                .map(|_| s.next_frame(900.0, 30.0, 360).size)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
