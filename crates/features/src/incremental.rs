//! Incremental (single-pass) feature accumulators.
//!
//! This module is the *one* implementation of the per-window feature
//! formulas of Table 1. The batch entry points ([`crate::flow_features`],
//! [`crate::ipudp_features`], [`crate::RtpWindow::features`]) are thin
//! wrappers that replay a slice through these accumulators, and the
//! streaming engine in `vcaml::engine` feeds them packet by packet — so
//! batch and streaming cannot drift apart.
//!
//! Two accumulation modes are offered:
//!
//! * [`StatsMode::Exact`] (default) keeps a value histogram per window
//!   (bounded by the window's distinct values) and reproduces the batch
//!   order statistics exactly — including exact medians.
//! * [`StatsMode::Sketch`] keeps strictly O(1) state per flow: Welford
//!   mean/variance plus a P² quantile sketch for medians, trading exact
//!   medians for constant memory (the "streaming versions of the methods"
//!   deployment shape of §7).
//!
//! ```
//! use vcaml_features::incremental::{IpUdpFeatureAcc, P2Quantile};
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
//!
//! // The P² sketch estimates quantiles in O(1) memory: exact for its
//! // first five observations, approximate afterwards.
//! let mut median = P2Quantile::new(0.5);
//! for x in [1.0, 9.0, 5.0, 3.0, 7.0] {
//!     median.push(x);
//! }
//! assert_eq!(median.estimate(), 5.0);
//! ```

use vcaml_netpkt::Timestamp;

/// How order statistics are accumulated per window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsMode {
    /// Per-window value histograms; exact parity with the batch formulas.
    #[default]
    Exact,
    /// O(1) state: Welford variance + P² median sketch (bounded error).
    Sketch,
}

/// The P² (piecewise-parabolic) streaming quantile estimator of Jain &
/// Chlamtac (1985): five markers, O(1) memory, no buffering. Exact for
/// the first five observations, approximate afterwards.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    p: f64,
    heights: [f64; 5],
    positions: [f64; 5],
    desired: [f64; 5],
    increments: [f64; 5],
    count: usize,
}

impl P2Quantile {
    /// Creates an estimator for quantile `p` in `(0, 1)`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile out of (0,1)");
        P2Quantile {
            p,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            increments: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
        }
    }

    /// Number of observations so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Offers one observation.
    // lint: hot_path
    pub fn push(&mut self, x: f64) {
        if self.count < 5 {
            self.heights[self.count] = x;
            self.count += 1;
            if self.count == 5 {
                self.heights.sort_by(|a, b| a.total_cmp(b));
            }
            return;
        }
        self.count += 1;
        // Cell index k such that heights[k] <= x < heights[k+1].
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            (0..4).find(|&i| x < self.heights[i + 1]).unwrap_or(3)
        };
        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.increments[i];
        }
        // Adjust interior markers.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right = self.positions[i + 1] - self.positions[i];
            let left = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                let new_h = if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                    candidate
                } else {
                    self.linear(i, d)
                };
                self.heights[i] = new_h;
                self.positions[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let q = &self.heights;
        let n = &self.positions;
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = (i as f64 + d) as usize;
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current quantile estimate (`0.0` before any observation).
    pub fn estimate(&self) -> f64 {
        match self.count {
            0 => 0.0,
            n if n <= 5 => {
                let mut buf = self.heights[..n].to_vec();
                buf.sort_by(|a, b| a.total_cmp(b));
                let rank = self.p * (n - 1) as f64;
                let lo = rank.floor() as usize;
                let hi = rank.ceil() as usize;
                if lo == hi {
                    buf[lo]
                } else {
                    // Linear rank interpolation (reduces to the median
                    // midpoint for p = 0.5 and even counts).
                    buf[lo] + (rank - lo as f64) * (buf[hi] - buf[lo])
                }
            }
            _ => self.heights[2],
        }
    }
}

/// One five-statistic stream (`[mean, stdev, median, min, max]`) over
/// integer-keyed values decoded by a fixed scale.
///
/// Exact mode appends raw values to an *unsorted log* and defers all
/// ordering work to the once-per-window [`StatAcc::five`] call — the
/// same cost structure as the batch path, which sorts each window slice
/// once in `five_stats`. A per-push sorted insert was measured at
/// ~10–20× the append cost on IAT streams (hundreds of distinct values
/// per window ⇒ an `O(n)` memmove per packet). Critically for the
/// zero-allocation steady state, [`StatAcc::reset`] retains the log's
/// capacity, so after warmup no push allocates.
#[derive(Debug, Clone)]
struct StatAcc {
    mode: StatsMode,
    divisor: f64,
    n: u64,
    sum: f64,
    min_raw: i64,
    max_raw: i64,
    vals: Vec<i64>,
    // Sketch-mode state.
    mean: f64,
    m2: f64,
    p2: P2Quantile,
}

impl StatAcc {
    fn new(mode: StatsMode, divisor: f64) -> Self {
        StatAcc {
            mode,
            divisor,
            n: 0,
            sum: 0.0,
            min_raw: i64::MAX,
            max_raw: i64::MIN,
            vals: Vec::new(),
            mean: 0.0,
            m2: 0.0,
            p2: P2Quantile::new(0.5),
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

    // lint: hot_path
    fn push(&mut self, raw: i64) {
        match self.mode {
            // Exact mode defers every statistic to the once-per-seal
            // `five` pass; the per-packet cost is one append.
            StatsMode::Exact => self.vals.push(raw),
            StatsMode::Sketch => {
                let v = self.decode(raw);
                self.n += 1;
                self.sum += v;
                self.min_raw = self.min_raw.min(raw);
                self.max_raw = self.max_raw.max(raw);
                let delta = v - self.mean;
                self.mean += delta / self.n as f64;
                self.m2 += delta * (v - self.mean);
                self.p2.push(v);
            }
        }
    }

    /// Clears the window without releasing value-log capacity (the
    /// steady-state per-packet path must not allocate).
    fn reset(&mut self) {
        self.n = 0;
        self.sum = 0.0;
        self.min_raw = i64::MAX;
        self.max_raw = i64::MIN;
        self.vals.clear();
        self.mean = 0.0;
        self.m2 = 0.0;
        self.p2 = P2Quantile::new(0.5);
    }

    /// Heap bytes currently held (capacity, not length).
    fn heap_bytes(&self) -> usize {
        self.vals.capacity() * std::mem::size_of::<i64>()
    }

    /// Values pushed this window.
    fn count(&self) -> u64 {
        match self.mode {
            StatsMode::Exact => self.vals.len() as u64,
            StatsMode::Sketch => self.n,
        }
    }

    /// Arrival-order sum of decoded values — bit-identical to a running
    /// `+=` per push, since both reduce the same sequence left-to-right.
    fn total(&self) -> f64 {
        match self.mode {
            StatsMode::Exact => self.vals.iter().map(|&raw| self.decode(raw)).sum(),
            StatsMode::Sketch => self.sum,
        }
    }

    /// `[mean, stdev, median, min, max]`, zeros when empty — the same
    /// contract as [`crate::stats::five_stats`].
    fn five(&self) -> [f64; 5] {
        match self.mode {
            StatsMode::Exact => self.five_exact(),
            StatsMode::Sketch => {
                if self.n == 0 {
                    return [0.0; 5];
                }
                let n = self.n as f64;
                [
                    self.sum / n,
                    (self.m2 / n).sqrt(),
                    self.p2.estimate(),
                    self.decode(self.min_raw),
                    self.decode(self.max_raw),
                ]
            }
        }
    }

    /// Replays `five_stats` over the arrival-ordered value log: the same
    /// summation order (mean and variance are bit-identical to the batch
    /// slice) and the same sorted-slice median/min/max. `decode` is
    /// monotonic, so sorting raw integers picks the same elements as
    /// sorting the decoded values. The scratch copy and the two passes
    /// are a once-per-seal cost, matching the batch path's.
    fn five_exact(&self) -> [f64; 5] {
        if self.vals.is_empty() {
            return [0.0; 5];
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
        [
            mean,
            var.sqrt(),
            median,
            self.decode(sorted[0]),
            self.decode(sorted[sorted.len() - 1]),
        ]
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

impl FlowFeatureAcc {
    /// Creates an empty accumulator.
    pub fn new(mode: StatsMode) -> Self {
        FlowFeatureAcc {
            sizes: StatAcc::new(mode, 1.0),
            // IATs are stored as whole microseconds and decoded to
            // milliseconds, matching `Timestamp::as_millis_f64`.
            iats: StatAcc::new(mode, 1e3),
            prev_ts: None,
        }
    }

    /// Offers one packet (arrival order). Byte and packet totals are
    /// derived from the size stream at seal time, keeping this hot call
    /// to two appends and a timestamp save.
    // lint: hot_path
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
        assert!(window_secs > 0.0, "non-positive window");
        let mut v = Vec::with_capacity(12);
        v.push(self.sizes.total() / window_secs);
        v.push(self.sizes.count() as f64 / window_secs);
        v.extend_from_slice(&self.sizes.five());
        v.extend_from_slice(&self.iats.five());
        v
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
#[derive(Debug, Clone)]
pub struct IpUdpFeatureAcc {
    flow: FlowFeatureAcc,
    theta_iat_us: i64,
    /// Bitset over the u16 size domain: exact distinct-size counting in
    /// O(1) memory for both modes.
    size_seen: Box<[u64; 1024]>,
    unique_sizes: u64,
    bursts: u64,
    prev_ts: Option<Timestamp>,
}

impl IpUdpFeatureAcc {
    /// Creates an empty accumulator with the microburst threshold.
    pub fn new(mode: StatsMode, theta_iat_us: i64) -> Self {
        assert!(theta_iat_us > 0, "non-positive theta");
        IpUdpFeatureAcc {
            flow: FlowFeatureAcc::new(mode),
            theta_iat_us,
            size_seen: Box::new([0u64; 1024]),
            unique_sizes: 0,
            bursts: 0,
            prev_ts: None,
        }
    }

    /// Offers one video-classified packet (arrival order).
    // lint: hot_path
    pub fn push(&mut self, ts: Timestamp, size: u16) {
        self.flow.push(ts, size);
        let (word, bit) = (usize::from(size) / 64, usize::from(size) % 64);
        if self.size_seen[word] & (1 << bit) == 0 {
            self.size_seen[word] |= 1 << bit;
            self.unique_sizes += 1;
        }
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
        let mut v = self.flow.features(window_secs);
        v.push(self.unique_sizes as f64);
        v.push(self.bursts as f64);
        v
    }

    /// Clears per-window state.
    pub fn reset(&mut self) {
        self.flow.reset();
        self.size_seen.fill(0);
        self.unique_sizes = 0;
        self.bursts = 0;
        self.prev_ts = None;
    }

    /// Estimated bytes of state held by this accumulator (inline struct,
    /// the size bitset, and histogram heap capacity).
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + std::mem::size_of::<[u64; 1024]>()
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

    fn run_acc(mode: StatsMode, ps: &[PktObs], w: f64) -> Vec<f64> {
        let mut acc = FlowFeatureAcc::new(mode);
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
        let inc = run_acc(StatsMode::Exact, &ps, 1.0);
        assert_eq!(batch.len(), inc.len());
        for (i, (b, x)) in batch.iter().zip(&inc).enumerate() {
            assert!(
                (b - x).abs() <= 1e-9 * b.abs().max(1.0),
                "feature {i}: {b} vs {x}"
            );
        }
    }

    #[test]
    fn sketch_mode_bounded_error() {
        let ps: Vec<PktObs> = (0..500)
            .map(|i| PktObs {
                ts: Timestamp::from_micros(i * 997),
                size: 600 + ((i * 37) % 700) as u16,
            })
            .collect();
        let batch = flow_features(&ps, 1.0);
        let inc = run_acc(StatsMode::Sketch, &ps, 1.0);
        for (i, (b, x)) in batch.iter().zip(&inc).enumerate() {
            let tol = if i == 4 || i == 9 {
                // Medians come from the P² sketch: bounded, not exact.
                0.10 * b.abs().max(1.0)
            } else {
                1e-6 * b.abs().max(1.0)
            };
            assert!((b - x).abs() <= tol, "feature {i}: batch {b} vs sketch {x}");
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
    fn p2_small_samples_exact() {
        let mut q = P2Quantile::new(0.5);
        for v in [5.0, 1.0, 3.0] {
            q.push(v);
        }
        assert_eq!(q.estimate(), 3.0);
        q.push(9.0);
        assert_eq!(q.estimate(), 4.0); // (3+5)/2
    }

    #[test]
    fn p2_converges_on_uniform() {
        let mut q = P2Quantile::new(0.5);
        for i in 0..10_000 {
            q.push(((i * 7919) % 10_000) as f64);
        }
        let est = q.estimate();
        assert!((est - 5_000.0).abs() < 250.0, "median estimate {est}");
    }

    #[test]
    fn empty_accumulator_is_all_zeros() {
        assert_eq!(run_acc(StatsMode::Exact, &[], 1.0), vec![0.0; 12]);
        assert_eq!(run_acc(StatsMode::Sketch, &[], 1.0), vec![0.0; 12]);
    }
}
