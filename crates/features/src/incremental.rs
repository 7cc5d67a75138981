//! Incremental (single-pass) feature accumulators.
//!
//! This module is the *one* implementation of the per-window feature
//! formulas of Table 1. The batch entry points ([`crate::flow_features`],
//! [`crate::ipudp_features`], [`crate::RtpWindow::features`]) are thin
//! wrappers that replay a slice through these accumulators, and the
//! streaming engine in `vcaml::engine` feeds them packet by packet — so
//! batch and streaming cannot drift apart.
//!
//! There is one accumulation mode: each window keeps an arrival-order
//! log of its raw values (bounded by the window's packet count, capacity
//! retained across windows) and the seal reproduces the batch order
//! statistics exactly — including exact medians, which Table 1's methods
//! are defined over.
//!
//! ```
//! use vcaml_features::incremental::IpUdpFeatureAcc;
//! use vcaml_features::{ipudp_features, PktObs, StatsMode, DEFAULT_THETA_IAT_US};
//! use vcaml_netpkt::Timestamp;
//!
//! // One second of video-sized packets, 60 per second.
//! let pkts: Vec<PktObs> = (0..60)
//!     .map(|i| PktObs {
//!         ts: Timestamp::from_micros(i * 16_667),
//!         size: 1_000 + (i % 7) as u16,
//!     })
//!     .collect();
//!
//! // Single-pass accumulation…
//! let mut acc = IpUdpFeatureAcc::new(StatsMode::Exact, DEFAULT_THETA_IAT_US);
//! for p in &pkts {
//!     acc.push(p.ts, p.size);
//! }
//! let streamed = acc.features(1.0);
//!
//! // …is exactly the batch formula (the batch entry point replays
//! // through this accumulator).
//! assert_eq!(streamed, ipudp_features(&pkts, 1.0, DEFAULT_THETA_IAT_US));
//! assert_eq!(streamed.len(), 14, "Table 1's IP/UDP feature vector");
//! ```

use vcaml_netpkt::Timestamp;

/// How order statistics are accumulated per window: exactly, and only so.
///
/// Vestige, selects nothing: `benchmark/src/layers.rs` is its only reader;
/// the next `[benchmark]`-typed PR drops it, `EngineConfig.stats` and
/// [`IpUdpFeatureAcc::new`]'s first parameter together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsMode {
    /// Per-window value logs; exact parity with the batch formulas.
    #[default]
    Exact,
}

/// One five-statistic stream (`[mean, stdev, median, min, max]`) over
/// integer-keyed values decoded by a fixed scale.
///
/// Raw values are appended to an *unsorted log* and all ordering work is
/// deferred to the once-per-window [`StatAcc::five`] call — the same
/// cost structure as the batch path, which sorts each window slice once
/// in `five_stats`. A per-push sorted insert was measured at ~10–20× the
/// append cost on IAT streams (hundreds of distinct values per window ⇒
/// an `O(n)` memmove per packet). Critically for the zero-allocation
/// steady state, [`StatAcc::reset`] retains the log's capacity, so after
/// warmup no push allocates.
#[derive(Debug, Clone)]
struct StatAcc {
    divisor: f64,
    vals: Vec<i64>,
}

impl StatAcc {
    fn new(divisor: f64) -> Self {
        StatAcc {
            divisor,
            vals: Vec::new(),
        }
    }

    fn decode(&self, raw: i64) -> f64 {
        // Division, not multiplication by the inexact reciprocal: this is
        // bit-identical to `Timestamp::as_millis_f64` (`µs / 1e3`). The
        // unit-divisor case (sizes) skips the divide — `x / 1.0 == x`
        // exactly, and the batch path never divides sizes either.
        if self.divisor == 1.0 {
            raw as f64
        } else {
            raw as f64 / self.divisor
        }
    }

    /// Every statistic is deferred to the once-per-seal `five` pass; the
    /// per-packet cost is one append.
    fn push(&mut self, raw: i64) {
        self.vals.push(raw);
    }

    /// Clears the window without releasing value-log capacity (the
    /// steady-state per-packet path must not allocate).
    fn reset(&mut self) {
        self.vals.clear();
    }

    /// Heap bytes currently held (capacity, not length).
    fn heap_bytes(&self) -> usize {
        self.vals.capacity() * std::mem::size_of::<i64>()
    }

    /// Values pushed this window.
    fn count(&self) -> u64 {
        self.vals.len() as u64
    }

    /// Arrival-order sum of decoded values — bit-identical to a running
    /// `+=` per push, since both reduce the same sequence left-to-right.
    fn total(&self) -> f64 {
        self.vals.iter().map(|&raw| self.decode(raw)).sum()
    }

    /// `[mean, stdev, median, min, max]`, zeros when empty — the same
    /// contract as [`crate::stats::five_stats`], replayed over the
    /// arrival-ordered value log: the same summation order (mean and
    /// variance are bit-identical to the batch slice) and the same
    /// sorted-slice median/min/max. `decode` is monotonic, so sorting raw
    /// integers picks the same elements as sorting the decoded values.
    /// The scratch copy and the two passes are a once-per-seal cost,
    /// matching the batch path's.
    ///
    /// Also hands back the sorted copy (empty when the log is), for a
    /// caller that reads more from the order than the five statistics.
    fn five(&self) -> ([f64; 5], Vec<i64>) {
        if self.vals.is_empty() {
            return ([0.0; 5], Vec::new());
        }
        let n = self.vals.len() as f64;
        let mean = self.vals.iter().map(|&raw| self.decode(raw)).sum::<f64>() / n;
        let var = self
            .vals
            .iter()
            .map(|&raw| (self.decode(raw) - mean).powi(2))
            .sum::<f64>()
            / n;
        let mut sorted = self.vals.clone();
        sorted.sort_unstable();
        let median = if sorted.len() % 2 == 1 {
            self.decode(sorted[sorted.len() / 2])
        } else {
            (self.decode(sorted[sorted.len() / 2 - 1]) + self.decode(sorted[sorted.len() / 2]))
                / 2.0
        };
        (
            [
                mean,
                var.sqrt(),
                median,
                self.decode(sorted[0]),
                self.decode(sorted[sorted.len() - 1]),
            ],
            sorted,
        )
    }
}

/// Incremental computation of the 12 flow-level features
/// ([`crate::flow_features`]) for one window.
#[derive(Debug, Clone)]
pub struct FlowFeatureAcc {
    sizes: StatAcc,
    iats: StatAcc,
    prev_ts: Option<Timestamp>,
}

impl Default for FlowFeatureAcc {
    fn default() -> Self {
        FlowFeatureAcc::new()
    }
}

impl FlowFeatureAcc {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        FlowFeatureAcc {
            sizes: StatAcc::new(1.0),
            // IATs are stored as whole microseconds and decoded to
            // milliseconds, matching `Timestamp::as_millis_f64`.
            iats: StatAcc::new(1e3),
            prev_ts: None,
        }
    }

    /// Offers one packet (arrival order). Byte and packet totals are
    /// derived from the size stream at seal time, keeping this hot call
    /// to two appends and a timestamp save.
    pub fn push(&mut self, ts: Timestamp, size: u16) {
        self.sizes.push(i64::from(size));
        if let Some(prev) = self.prev_ts {
            self.iats.push((ts - prev).as_micros());
        }
        self.prev_ts = Some(ts);
    }

    /// Packets offered so far this window.
    pub fn packets(&self) -> u64 {
        self.sizes.count()
    }

    /// Emits the 12 features for the current window.
    pub fn features(&self, window_secs: f64) -> Vec<f64> {
        let mut v = Vec::with_capacity(12);
        self.extend_features(&mut v, window_secs);
        v
    }

    /// Appends the 12 features to `v` and returns the window's number of
    /// distinct packet sizes: one linear pass over the sorted copy the
    /// size statistics already took, where each distinct size starts one
    /// run. Sizes are `u16` widened losslessly, so the count is exact.
    fn extend_features(&self, v: &mut Vec<f64>, window_secs: f64) -> u64 {
        assert!(window_secs > 0.0, "non-positive window");
        // Scoped so the sorted sizes are freed before the IATs are sorted.
        let (sizes, unique_sizes) = {
            let (five, sorted) = self.sizes.five();
            let run_starts = sorted.windows(2).filter(|w| w[0] != w[1]).count();
            (five, (run_starts + usize::from(!sorted.is_empty())) as u64)
        };
        v.push(self.sizes.total() / window_secs);
        v.push(self.sizes.count() as f64 / window_secs);
        v.extend_from_slice(&sizes);
        v.extend_from_slice(&self.iats.five().0);
        unique_sizes
    }

    /// Clears per-window state (IAT chains do not span windows, matching
    /// the batch slice semantics). Value-log capacity is retained so the
    /// steady state stays allocation-free.
    pub fn reset(&mut self) {
        self.sizes.reset();
        self.iats.reset();
        self.prev_ts = None;
    }

    /// Estimated bytes of state held by this accumulator (inline struct
    /// plus heap capacity), for per-flow memory accounting.
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.sizes.heap_bytes() + self.iats.heap_bytes()
    }
}

/// Incremental computation of the full 14-feature IP/UDP ML vector
/// ([`crate::ipudp_features`]): flow features plus the two VCA-semantics
/// features (`# unique sizes`, `# microbursts`).
///
/// The window's state is its two value logs plus a burst counter: the
/// unique-size count is taken from the size log's sorted copy at seal,
/// so no per-flow set over the size domain is kept.
#[derive(Debug, Clone)]
pub struct IpUdpFeatureAcc {
    flow: FlowFeatureAcc,
    theta_iat_us: i64,
    bursts: u64,
    prev_ts: Option<Timestamp>,
}

impl IpUdpFeatureAcc {
    /// Creates an empty accumulator with the microburst threshold.
    /// `_mode` is ignored: `benchmark/src/layers.rs` is the only caller that
    /// needs it, and the next `[benchmark]`-typed PR drops it (see
    /// [`StatsMode`]).
    pub fn new(_mode: StatsMode, theta_iat_us: i64) -> Self {
        assert!(theta_iat_us > 0, "non-positive theta");
        IpUdpFeatureAcc {
            flow: FlowFeatureAcc::new(),
            theta_iat_us,
            bursts: 0,
            prev_ts: None,
        }
    }

    /// Offers one video-classified packet (arrival order).
    pub fn push(&mut self, ts: Timestamp, size: u16) {
        self.flow.push(ts, size);
        match self.prev_ts {
            None => self.bursts = 1,
            Some(prev) if (ts - prev).as_micros() >= self.theta_iat_us => self.bursts += 1,
            Some(_) => {}
        }
        self.prev_ts = Some(ts);
    }

    /// Packets offered so far this window.
    pub fn packets(&self) -> u64 {
        self.flow.packets()
    }

    /// Emits the 14 features for the current window.
    pub fn features(&self, window_secs: f64) -> Vec<f64> {
        let mut v = Vec::with_capacity(14);
        let unique_sizes = self.flow.extend_features(&mut v, window_secs);
        v.push(unique_sizes as f64);
        v.push(self.bursts as f64);
        v
    }

    /// Clears per-window state.
    pub fn reset(&mut self) {
        self.flow.reset();
        self.bursts = 0;
        self.prev_ts = None;
    }

    /// Estimated bytes of state held by this accumulator: the inline
    /// struct plus the value logs' retained heap capacity, the only part
    /// that grows (unique sizes are counted from the size log at seal).
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + (self.flow.state_bytes() - std::mem::size_of::<FlowFeatureAcc>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::PktObs;
    use crate::{flow_features, ipudp_features};

    fn pkts(spec: &[(i64, u16)]) -> Vec<PktObs> {
        spec.iter()
            .map(|&(us, size)| PktObs {
                ts: Timestamp::from_micros(us),
                size,
            })
            .collect()
    }

    fn run_acc(ps: &[PktObs], w: f64) -> Vec<f64> {
        let mut acc = FlowFeatureAcc::new();
        for p in ps {
            acc.push(p.ts, p.size);
        }
        acc.features(w)
    }

    #[test]
    fn exact_mode_matches_batch_formula() {
        let ps = pkts(&[
            (0, 1100),
            (300, 1102),
            (33_000, 890),
            (33_400, 893),
            (66_100, 1250),
            (99_000, 700),
            (99_001, 701),
        ]);
        let batch = flow_features(&ps, 1.0);
        let inc = run_acc(&ps, 1.0);
        assert_eq!(batch.len(), inc.len());
        for (i, (b, x)) in batch.iter().zip(&inc).enumerate() {
            assert!(
                (b - x).abs() <= 1e-9 * b.abs().max(1.0),
                "feature {i}: {b} vs {x}"
            );
        }
    }

    #[test]
    fn ipudp_acc_matches_batch_formula() {
        let ps = pkts(&[
            (0, 1000),
            (200, 1000),
            (40_000, 850),
            (40_300, 852),
            (80_000, 1000),
        ]);
        let batch = ipudp_features(&ps, 1.0, 3_000);
        let mut acc = IpUdpFeatureAcc::new(StatsMode::Exact, 3_000);
        for p in &ps {
            acc.push(p.ts, p.size);
        }
        let inc = acc.features(1.0);
        for (i, (b, x)) in batch.iter().zip(&inc).enumerate() {
            assert!(
                (b - x).abs() <= 1e-9 * b.abs().max(1.0),
                "feature {i}: {b} vs {x}"
            );
        }
        // 3 bursts (gaps of 39.8 ms and 39.7 ms), 3 unique sizes.
        assert_eq!(inc[12], 3.0);
        assert_eq!(inc[13], 3.0);
    }

    #[test]
    fn semantics_counters_match_batch_functions() {
        // The accumulator's inline unique-size/microburst counters must
        // equal the standalone batch formulas in `semantics` on arbitrary
        // windows (they are separate implementations; this test couples
        // them).
        use crate::semantics::{microbursts, unique_sizes};
        let mut ps = Vec::new();
        let mut t = 0i64;
        for i in 0..300i64 {
            t += if i % 7 == 0 {
                30_000
            } else {
                (i * 131) % 2_900
            };
            ps.push(PktObs {
                ts: Timestamp::from_micros(t),
                size: 500 + ((i * 53) % 800) as u16,
            });
        }
        let mut acc = IpUdpFeatureAcc::new(StatsMode::Exact, 3_000);
        for p in &ps {
            acc.push(p.ts, p.size);
        }
        let f = acc.features(1.0);
        assert_eq!(f[12], unique_sizes(&ps));
        assert_eq!(f[13], microbursts(&ps, 3_000));
    }

    proptest::proptest! {
        // The unique-size count comes from the size log's sorted copy at
        // seal: it must stay exact over windows of any content, across
        // resets, and under provisional snapshots that read a window
        // without consuming it.
        #[test]
        fn unique_sizes_stay_exact_across_windows(
            windows in proptest::collection::vec(
                proptest::collection::vec(
                    (0i64..40_000, proptest::any::<u16>(), 1_000u16..1_016, proptest::any::<bool>()),
                    0..150,
                ),
                1..6,
            )
        ) {
            use crate::semantics::unique_sizes;
            let mut acc = IpUdpFeatureAcc::new(StatsMode::Exact, 3_000);
            let mut us = 0i64;
            for window in &windows {
                let mut seen = Vec::new();
                for (i, &(gap, wide, narrow, is_wide)) in window.iter().enumerate() {
                    us += gap;
                    let size = if is_wide { wide } else { narrow };
                    acc.push(Timestamp::from_micros(us), size);
                    seen.push(PktObs {
                        ts: Timestamp::from_micros(us),
                        size,
                    });
                    if i == window.len() / 3 || i == 2 * window.len() / 3 {
                        let provisional = acc.features(1.0);
                        proptest::prop_assert_eq!(provisional[12], unique_sizes(&seen));
                    }
                }
                proptest::prop_assert_eq!(acc.features(1.0)[12], unique_sizes(&seen));
                acc.reset();
            }
        }
    }

    #[test]
    fn reset_clears_window_state() {
        let mut acc = IpUdpFeatureAcc::new(StatsMode::Exact, 3_000);
        acc.push(Timestamp::ZERO, 1000);
        acc.push(Timestamp::from_millis(50), 900);
        acc.reset();
        assert_eq!(acc.features(1.0), ipudp_features(&[], 1.0, 3_000));
        // IAT chain must not span the reset.
        acc.push(Timestamp::from_millis(100), 800);
        let f = acc.features(1.0);
        assert_eq!(f[1], 1.0); // one packet
        assert_eq!(&f[7..12], &[0.0; 5]); // no IATs yet
    }

    #[test]
    fn empty_accumulator_is_all_zeros() {
        assert_eq!(run_acc(&[], 1.0), vec![0.0; 12]);
    }
}
