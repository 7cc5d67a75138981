//! The five order statistics the paper computes over packet sizes,
//! inter-arrival times and RTP lags: mean, standard deviation, median,
//! minimum, maximum — and the distinct-size and microburst counts beside
//! them.
//!
//! Everything here is exact and bit-identical to the sort-based
//! definitions, and nothing sorts or allocates once a per-thread buffer
//! has grown:
//!
//! * `window_features_into` takes a window's size and gap logs (`u16`
//!   bytes and `i32` microseconds, widened to `i64` as they are read) in
//!   three steps. One pass over both logs takes min and max of each, the
//!   sizes' sum as an exact integer, the gaps' sum in arrival order, and, for
//!   IP/UDP ML, the distinct sizes and the gaps of at least θ. One loop
//!   then runs the size and gap variance chains side by side, two
//!   independent add chains that overlap. Last, each median is a
//!   selection.
//! * [`five_stats`] does the same for one stream of `f64`s (the RTP
//!   lags), as [`f64::total_cmp`] keys: a pass for min, max and the sum,
//!   one for the variance, and a selection.
//!
//! A selection is [`slice::select_nth_unstable`] (Hoare's FIND) over the
//! values' keys, copied into a per-thread scratch buffer that keeps its
//! capacity between calls.

use std::cell::RefCell;

thread_local! {
    /// The selection buffer: one per thread, never per flow.
    static SCRATCH: RefCell<Vec<i64>> = const { RefCell::new(Vec::new()) };
    /// [`window_features_into`]' 65 536-bit map of sizes seen, all clear
    /// between calls.
    static SEEN: RefCell<[u64; 1 << 10]> = const { RefCell::new([0; 1 << 10]) };
}

/// The median of `keys` (reordered), decoded: the middle key, or the mean
/// of the two middle ones for an even count. Equal keys decode to the same
/// value, so the elements selection picks are the ones a sort would put
/// there.
fn median(keys: &mut [i64], decode: impl Fn(i64) -> f64) -> f64 {
    let n = keys.len();
    let (below, &mut mid, _) = keys.select_nth_unstable(n / 2);
    if n % 2 == 1 {
        decode(mid)
    } else {
        // The other middle element is the largest one below it.
        let lower = below.iter().copied().max().unwrap_or(mid);
        (decode(lower) + decode(mid)) / 2.0
    }
}

/// An `f64`'s key in [`f64::total_cmp`]'s order (the same bit flip).
fn total_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The `f64` whose [`total_key`] is `key` (the flip is its own inverse).
fn from_total_key(key: i64) -> f64 {
    f64::from_bits((key ^ (((key >> 63) as u64) >> 1) as i64) as u64)
}

/// Returns `[mean, stdev, median, min, max]` in [`f64::total_cmp`]'s
/// order; all zeros for empty input. Mean and variance are summed in the
/// order given, from `-0.0` as `Iterator::sum` does. Each value is taken
/// once, so a caller may compute them on the fly instead of collecting
/// them.
pub fn five_stats(values: impl IntoIterator<Item = f64>) -> [f64; 5] {
    SCRATCH.with_borrow_mut(|scratch| {
        scratch.clear();
        scratch.extend(values.into_iter().map(total_key));
        // One loop, so that min and max ride along the additions' chain.
        let (mut min, mut max, mut sum) = (i64::MAX, i64::MIN, -0.0);
        for &k in scratch.iter() {
            min = min.min(k);
            max = max.max(k);
            sum += from_total_key(k);
        }
        let n = scratch.len();
        if n == 0 {
            return [0.0; 5];
        }
        let count = n as f64;
        let mean = sum / count;
        let var = scratch
            .iter()
            .map(|&k| (from_total_key(k) - mean).powi(2))
            .sum::<f64>()
            / count;
        let median = median(scratch, from_total_key);
        [
            mean,
            var.sqrt(),
            median,
            from_total_key(min),
            from_total_key(max),
        ]
    })
}

/// A gap in whole microseconds, in milliseconds: division, not
/// multiplication by the inexact reciprocal, so it is bit-identical to
/// `Timestamp::as_millis_f64`.
fn gap_ms(us: i64) -> f64 {
    us as f64 / 1e3
}

/// Writes a window's flow features into `out` from its arrival-order
/// logs: `sizes`, and `gaps` in whole microseconds between consecutive
/// packets (one fewer than the sizes, or none), each widened to `i64`
/// where it is read, so the `i32` log computes what an `i64` one would.
/// That is bytes and packets per second over `window_secs`, then
/// `[mean, stdev, median, min, max]` of the sizes and of the gaps in
/// milliseconds (all zeros for none). With `theta_us`, `out` holds two
/// more: the distinct sizes and the microbursts, 1 + the gaps of at
/// least `theta_us` (0 for no packets; a backward gap is negative, so it
/// never breaks a burst). The sums and variances are the arrival-order
/// `f64` sums, from `-0.0` as `Iterator::sum` starts, of what the
/// sort-based definitions add (an empty window's byte rate is `-0.0`),
/// and the rest are counts and order statistics, so every value is the
/// definitions' bit for bit.
///
/// # Panics
/// Panics if `window_secs` is not positive or `out` is not 12 values
/// long, or 14 with `theta_us`.
pub(crate) fn window_features_into(
    sizes: &[u16],
    gaps: &[i32],
    window_secs: f64,
    theta_us: Option<i64>,
    out: &mut [f64],
) {
    assert!(window_secs > 0.0, "non-positive window");
    let (flow, semantics) = out.split_at_mut(12);
    assert_eq!(semantics.len(), if theta_us.is_some() { 2 } else { 0 });
    let Some((&first, rest)) = sizes.split_first() else {
        flow.fill(0.0);
        flow[0] = -0.0 / window_secs;
        semantics.fill(0.0);
        return;
    };
    debug_assert_eq!(gaps.len(), rest.len(), "one gap between each two packets");
    SEEN.with_borrow_mut(|seen| {
        // The first pass. Every partial sum of sizes is an integer below
        // 2^53, so the exact `u64` sum converted once is the arrival-order
        // `f64` sum bit for bit; the gaps' decoded sum has no such bound
        // and is added in arrival order.
        let (mut size_min, mut size_max, mut size_sum) = (first, first, u64::from(first));
        let (mut gap_min, mut gap_max, mut gap_sum) = (i64::MAX, i64::MIN, -0.0);
        let (mut distinct, mut breaks) = (0u64, 0u64);
        let mut mark = |size: u16| {
            let (word, bit) = (usize::from(size >> 6), 1u64 << (size & 63));
            distinct += u64::from(seen[word] & bit == 0);
            seen[word] |= bit;
        };
        if theta_us.is_some() {
            mark(first);
        }
        for (&size, &gap) in rest.iter().zip(gaps) {
            let gap = i64::from(gap);
            size_min = size_min.min(size);
            size_max = size_max.max(size);
            size_sum += u64::from(size);
            gap_min = gap_min.min(gap);
            gap_max = gap_max.max(gap);
            gap_sum += gap_ms(gap);
            if let Some(theta) = theta_us {
                breaks += u64::from(gap >= theta);
                mark(size);
            }
        }
        if theta_us.is_some() {
            seen[usize::from(size_min >> 6)..=usize::from(size_max >> 6)].fill(0);
            semantics.copy_from_slice(&[distinct as f64, (1 + breaks) as f64]);
        }

        // The variance chains, side by side.
        let (n, n_gaps) = (sizes.len() as f64, gaps.len() as f64);
        let (size_mean, gap_mean) = (size_sum as f64 / n, gap_sum / n_gaps);
        let (mut size_var, mut gap_var) = (-0.0, -0.0);
        size_var += (f64::from(first) - size_mean).powi(2);
        for (&size, &gap) in rest.iter().zip(gaps) {
            size_var += (f64::from(size) - size_mean).powi(2);
            gap_var += (gap_ms(i64::from(gap)) - gap_mean).powi(2);
        }

        // The medians.
        SCRATCH.with_borrow_mut(|scratch| {
            scratch.clear();
            scratch.extend(sizes.iter().map(|&s| i64::from(s)));
            flow[..7].copy_from_slice(&[
                size_sum as f64 / window_secs,
                n / window_secs,
                size_mean,
                (size_var / n).sqrt(),
                median(scratch, |k| k as f64),
                f64::from(size_min),
                f64::from(size_max),
            ]);
            if gaps.is_empty() {
                flow[7..].fill(0.0);
                return;
            }
            scratch.clear();
            scratch.extend(gaps.iter().map(|&g| i64::from(g)));
            flow[7..].copy_from_slice(&[
                gap_mean,
                (gap_var / n_gaps).sqrt(),
                median(scratch, gap_ms),
                gap_ms(gap_min),
                gap_ms(gap_max),
            ]);
        });
    });
}

/// Suffixes used in feature names, matching the paper's plots
/// (`Size [mean]`, `IAT [stdev]`, ...).
pub const STAT_SUFFIXES: [&str; 5] = ["mean", "stdev", "median", "min", "max"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        assert_eq!(five_stats([]), [0.0; 5]);
    }

    #[test]
    fn single_value() {
        assert_eq!(five_stats([4.0]), [4.0, 0.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn odd_median() {
        let s = five_stats([3.0, 1.0, 2.0]);
        assert_eq!(s[2], 2.0);
        assert_eq!(s[3], 1.0);
        assert_eq!(s[4], 3.0);
    }

    #[test]
    fn even_median_interpolates() {
        let s = five_stats([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s[2], 2.5);
    }

    #[test]
    fn stdev_population() {
        let s = five_stats([2.0, 4.0]);
        assert_eq!(s[0], 3.0);
        assert_eq!(s[1], 1.0); // population stdev
    }
}
