//! Incremental (single-pass) feature accumulators.
//!
//! This module is the *one* implementation of Table 1's per-window
//! flow-statistics and VCA-semantics formulas (the RTP row is
//! [`crate::rtp_feats::RtpWindowAcc`]). The engines in `vcaml::engine`
//! feed these accumulators packet by packet and read each window's vector
//! with `features_into`. Nothing here takes a packet slice: the batch
//! reference the parity tests hold the engines to is
//! `vcaml_datasets::oracle`, which shares no code with this crate.
//!
//! There is one accumulation mode: each window keeps an arrival-order
//! log of its sizes and one of its gaps (bounded by the window's packet
//! count, capacity retained across windows, 6 bytes per packet), and a
//! push is two appends.
//! The seal reads both logs at once in [`crate::stats`]'s
//! `window_features_into`: one pass for the extremes, the sums and the two
//! VCA-semantics counts, one loop for both variances, and a selection per
//! median. Every statistic is exact — including the medians, which
//! Table 1's methods are defined over — and no log is sorted or cloned.
//!
//! ```
//! use vcaml_features::{IpUdpFeatureAcc, StatsMode, DEFAULT_THETA_IAT_US};
//! use vcaml_netpkt::Timestamp;
//!
//! // One second of video-sized packets, 60 per second, in seven sizes.
//! let mut acc = IpUdpFeatureAcc::new(StatsMode::Exact, DEFAULT_THETA_IAT_US);
//! for i in 0..60 {
//!     acc.push(Timestamp::from_micros(i * 16_667), 1_000 + (i % 7) as u16);
//! }
//! let mut features = [0.0; IpUdpFeatureAcc::WIDTH];
//! acc.features_into(1.0, &mut features);
//!
//! assert_eq!(features.len(), 14, "Table 1's IP/UDP feature vector");
//! assert_eq!(features[..2], [60_174.0, 60.0], "bytes and packets per second");
//! assert_eq!(features[12], 7.0, "unique sizes");
//! assert_eq!(features[13], 60.0, "each 16.7 ms gap starts a microburst");
//! ```

use vcaml_netpkt::Timestamp;

/// Default microburst inter-arrival threshold: 3 ms. Intra-frame gaps are
/// sub-millisecond at the sender and stay small after the bottleneck;
/// inter-frame gaps at ≤30 fps are ≥33 ms.
pub const DEFAULT_THETA_IAT_US: i64 = 3_000;

/// How order statistics are accumulated per window: exactly, and only so.
///
/// Vestige, selects nothing: `benchmark/src/layers.rs` is its only reader;
/// the next `[benchmark]`-typed PR drops it, `EngineConfig.stats` and
/// [`IpUdpFeatureAcc::new`]'s first parameter together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsMode {
    /// Per-window value logs and exact order statistics.
    #[default]
    Exact,
}

/// Incremental computation of the 12 flow-level features
/// ([`crate::flow_feature_names`]) for one window.
///
/// The window's state is two arrival-order logs, a `u16` size and an
/// `i32` gap per packet, retained at capacity across windows so that
/// after warmup no push allocates; every statistic is deferred to the
/// seal, which reads both logs in one `stats::window_features_into`. A
/// per-push sorted insert was measured at ~10–20× the append cost on gap
/// streams (hundreds of distinct values per window ⇒ an `O(n)` memmove
/// per packet).
#[derive(Debug, Clone)]
pub struct FlowFeatureAcc {
    /// Sizes as captured (`u16`, 2 bytes per packet).
    sizes: Vec<u16>,
    /// Gaps in whole microseconds (4 bytes per packet): one fewer than
    /// the sizes, since the first packet of a window has none.
    gaps: Vec<i32>,
    prev_ts: Option<Timestamp>,
}

impl Default for FlowFeatureAcc {
    fn default() -> Self {
        FlowFeatureAcc::new()
    }
}

impl FlowFeatureAcc {
    /// The width of the flow feature vector.
    pub const WIDTH: usize = 12;

    /// Creates an empty accumulator.
    pub fn new() -> Self {
        FlowFeatureAcc {
            sizes: Vec::new(),
            gaps: Vec::new(),
            prev_ts: None,
        }
    }

    /// Offers one packet (arrival order). Byte and packet totals are
    /// derived from the size stream at seal time, keeping this hot call
    /// to two appends and a timestamp save.
    ///
    /// The gap since the previous packet is logged as `i32` microseconds,
    /// so it must lie within ±[`i32::MAX`] µs (about 35 minutes). The
    /// engines keep every gap inside one window, and a window is at most
    /// `vcaml::MAX_WINDOW_SECS` (2 147 s) long, so theirs always
    /// fit. Debug builds assert it; a gap outside it saturates.
    pub fn push(&mut self, ts: Timestamp, size: u16) {
        self.sizes.push(size);
        if let Some(prev) = self.prev_ts {
            let gap = (ts - prev).as_micros();
            debug_assert!(i32::try_from(gap).is_ok(), "{gap} µs gap overflows i32");
            self.gaps
                .push(gap.clamp(i32::MIN.into(), i32::MAX.into()) as i32);
        }
        self.prev_ts = Some(ts);
    }

    /// Packets offered so far this window.
    pub fn packets(&self) -> u64 {
        self.sizes.len() as u64
    }

    /// Writes the 12 features for the current window into `out`, which
    /// holds exactly [`FlowFeatureAcc::WIDTH`] values. Allocates nothing.
    pub fn features_into(&self, window_secs: f64, out: &mut [f64]) {
        crate::stats::window_features_into(&self.sizes, &self.gaps, window_secs, None, out);
    }

    /// Clears per-window state (gap chains do not span windows).
    /// Value-log capacity is retained so the steady state stays
    /// allocation-free.
    pub fn reset(&mut self) {
        self.sizes.clear();
        self.gaps.clear();
        self.prev_ts = None;
    }

    /// Estimated bytes of state held by this accumulator (inline struct
    /// plus heap capacity), for per-flow memory accounting.
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.sizes.capacity() * std::mem::size_of::<u16>()
            + self.gaps.capacity() * std::mem::size_of::<i32>()
    }
}

/// Incremental computation of the full 14-feature IP/UDP ML vector
/// ([`crate::ipudp_feature_names`]): flow features plus the two
/// VCA-semantics features. `# unique sizes` counts the distinct packet
/// sizes — VCAs fragment a frame into equal-size packets, so it tracks
/// the frame count (§5.1.2). `# microbursts` counts the back-to-back
/// bursts a frame is sent in: a new one starts at each gap of at least
/// the threshold `θ_IAT`.
///
/// The window's state is its two value logs: the unique-size count is
/// taken from the size log at seal, through a per-thread bitmap, so no
/// per-flow set over the size domain is kept, and the microburst count
/// from the gap log, which already holds every gap it compares.
#[derive(Debug, Clone)]
pub struct IpUdpFeatureAcc {
    flow: FlowFeatureAcc,
    theta_iat_us: i64,
}

impl IpUdpFeatureAcc {
    /// The width of the IP/UDP feature vector.
    pub const WIDTH: usize = FlowFeatureAcc::WIDTH + 2;

    /// Creates an empty accumulator with the microburst threshold.
    /// `_mode` is ignored: `benchmark/src/layers.rs` is the only caller that
    /// needs it, and the next `[benchmark]`-typed PR drops it (see
    /// [`StatsMode`]).
    pub fn new(_mode: StatsMode, theta_iat_us: i64) -> Self {
        assert!(theta_iat_us > 0, "non-positive theta");
        IpUdpFeatureAcc {
            flow: FlowFeatureAcc::new(),
            theta_iat_us,
        }
    }

    /// An empty accumulator with this one's threshold, holding no heap:
    /// what an empty window's features are computed from.
    pub fn fresh(&self) -> Self {
        IpUdpFeatureAcc {
            flow: FlowFeatureAcc::new(),
            theta_iat_us: self.theta_iat_us,
        }
    }

    /// Offers one video-classified packet (arrival order).
    pub fn push(&mut self, ts: Timestamp, size: u16) {
        self.flow.push(ts, size);
    }

    /// Packets offered so far this window.
    pub fn packets(&self) -> u64 {
        self.flow.packets()
    }

    /// Emits the 14 features for the current window.
    pub fn features(&self, window_secs: f64) -> Vec<f64> {
        let mut v = vec![0.0; Self::WIDTH];
        self.features_into(window_secs, &mut v);
        v
    }

    /// Writes the 14 features for the current window into `out`, which
    /// holds exactly [`IpUdpFeatureAcc::WIDTH`] values. Allocates nothing.
    pub fn features_into(&self, window_secs: f64, out: &mut [f64]) {
        let FlowFeatureAcc { sizes, gaps, .. } = &self.flow;
        let theta = Some(self.theta_iat_us);
        crate::stats::window_features_into(sizes, gaps, window_secs, theta, out);
    }

    /// Clears per-window state.
    pub fn reset(&mut self) {
        self.flow.reset();
    }

    /// Estimated bytes of state held by this accumulator: the inline
    /// struct plus the value logs' retained heap capacity (6 bytes per
    /// packet of the fullest window: a `u16` size and an `i32` gap), the
    /// only part that grows (unique sizes are counted from the size log
    /// at seal).
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + (self.flow.state_bytes() - std::mem::size_of::<FlowFeatureAcc>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_acc(spec: &[(i64, u16)], theta_iat_us: i64) -> Vec<f64> {
        let mut acc = IpUdpFeatureAcc::new(StatsMode::Exact, theta_iat_us);
        for &(us, size) in spec {
            acc.push(Timestamp::from_micros(us), size);
        }
        acc.features(1.0)
    }

    /// Within a relative 1e-9 of the values worked out by hand.
    fn assert_near(got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len());
        for (i, (x, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (x - w).abs() <= 1e-9 * w.abs().max(1.0),
                "feature {i}: {x} vs {w}"
            );
        }
    }

    #[test]
    fn exact_mode_matches_batch_formula() {
        let f = run_acc(
            &[
                (0, 1100),
                (300, 1102),
                (33_000, 890),
                (33_400, 893),
                (66_100, 1250),
                (99_000, 700),
                (99_001, 701),
            ],
            3_000,
        );
        // Sizes sorted: 700 701 890 893 1100 1102 1250 (sum 6 636); gaps
        // in ms: 0.3 32.7 0.4 32.7 32.9 0.001.
        assert_near(
            &f[..12],
            &[
                6_636.0,
                7.0,
                948.0,
                195.274_897_808_924,
                893.0,
                700.0,
                1_250.0,
                99.001 / 6.0,
                16.267_078_209_445_67,
                (0.4 + 32.7) / 2.0,
                0.001,
                32.9,
            ],
        );
    }

    #[test]
    fn ipudp_acc_matches_batch_formula() {
        let f = run_acc(
            &[
                (0, 1000),
                (200, 1000),
                (40_000, 850),
                (40_300, 852),
                (80_000, 1000),
            ],
            3_000,
        );
        // Gaps in ms: 0.2 39.8 0.3 39.7; 3 bursts (gaps of 39.8 ms and
        // 39.7 ms), 3 unique sizes.
        assert_near(
            &f,
            &[
                4_702.0,
                5.0,
                940.4,
                72.997_534_204_930_52,
                1_000.0,
                850.0,
                1_000.0,
                20.0,
                19.750_063_291_037_83,
                20.0,
                0.2,
                39.8,
                3.0,
                3.0,
            ],
        );
    }

    #[test]
    fn reset_clears_window_state() {
        let mut acc = IpUdpFeatureAcc::new(StatsMode::Exact, 3_000);
        acc.push(Timestamp::ZERO, 1000);
        acc.push(Timestamp::from_millis(50), 900);
        acc.reset();
        assert_eq!(acc.features(1.0), vec![0.0; IpUdpFeatureAcc::WIDTH]);
        // IAT chain must not span the reset.
        acc.push(Timestamp::from_millis(100), 800);
        let f = acc.features(1.0);
        assert_eq!(f[1], 1.0); // one packet
        assert_eq!(&f[7..12], &[0.0; 5]); // no IATs yet
    }

    #[test]
    fn empty_accumulator_is_all_zeros() {
        assert_eq!(run_acc(&[], 3_000), vec![0.0; IpUdpFeatureAcc::WIDTH]);
    }
}
