//! The five order statistics the paper computes over packet sizes,
//! inter-arrival times and RTP lags: mean, standard deviation, median,
//! minimum, maximum — and the distinct-size count beside them.
//!
//! One routine, `five_of`, computes the five for every caller, exactly
//! and without sorting. The values' order keys are copied into a
//! per-thread scratch buffer; one linear pass there sums the decoded
//! keys in the order given and takes min and max, a second sums the
//! squared deviations in the same order, and the median is
//! [`slice::select_nth_unstable`] (Hoare's FIND) over the scratch. The
//! buffer keeps its capacity between calls, so a window's seal neither
//! sorts nor allocates once it has grown.

use std::cell::RefCell;

thread_local! {
    /// [`five_of`]'s selection buffer: one per thread, never per flow.
    static SCRATCH: RefCell<Vec<i64>> = const { RefCell::new(Vec::new()) };
    /// [`distinct_sizes`]' 65 536-bit map, all clear between calls.
    static SEEN: RefCell<[u64; 1 << 10]> = const { RefCell::new([0; 1 << 10]) };
}

/// `[mean, stdev, median, min, max]` of values given as order keys —
/// integers that compare as the values do — and `decode`, which maps a
/// key back to its value (all zeros for no values), with the values' sum
/// in the order given. Equal keys decode to the same value, so the
/// element selection picks is the one a sort would put there, and the
/// result is bit-identical to sorting.
pub(crate) fn five_of(
    keys: impl Iterator<Item = i64>,
    decode: impl Fn(i64) -> f64,
) -> ([f64; 5], f64) {
    SCRATCH.with_borrow_mut(|scratch| {
        scratch.clear();
        scratch.extend(keys);
        // One loop, so that min and max ride along the additions' chain.
        // It starts where `Iterator::sum` does, at -0.0, and adds in the
        // same order, so the sum is the one `.sum()` gives.
        let (mut min, mut max, mut sum) = (i64::MAX, i64::MIN, -0.0);
        for &k in scratch.iter() {
            min = min.min(k);
            max = max.max(k);
            sum += decode(k);
        }
        let n = scratch.len();
        if n == 0 {
            return ([0.0; 5], sum);
        }
        let count = n as f64;
        let mean = sum / count;
        let var = scratch
            .iter()
            .map(|&k| (decode(k) - mean).powi(2))
            .sum::<f64>()
            / count;
        let (below, &mut mid, _) = scratch.select_nth_unstable(n / 2);
        let median = if n % 2 == 1 {
            decode(mid)
        } else {
            // The other middle element is the largest one below it.
            let lower = below.iter().copied().max().unwrap_or(mid);
            (decode(lower) + decode(mid)) / 2.0
        };
        ([mean, var.sqrt(), median, decode(min), decode(max)], sum)
    })
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
/// order; all zeros for empty input. Each value is taken once, so a
/// caller may compute them on the fly instead of collecting them.
pub fn five_stats(values: impl IntoIterator<Item = f64>) -> [f64; 5] {
    five_of(values.into_iter().map(total_key), from_total_key).0
}

/// The number of distinct sizes: each sets its bit in a per-thread
/// 65 536-bit map, counting the bits it finds clear, and the words
/// between the lowest and highest one touched are cleared after — exact,
/// `O(n)`, and no allocation. A frame's packets mostly share one size,
/// so a repeat of the previous size is skipped without touching the map.
pub(crate) fn distinct_sizes(sizes: &[u16]) -> u64 {
    SEEN.with_borrow_mut(|seen| {
        let (mut distinct, mut low, mut high) = (0, seen.len(), 0);
        let mut previous = None;
        for &size in sizes {
            if previous.replace(size) == Some(size) {
                continue;
            }
            let (word, bit) = (usize::from(size >> 6), 1u64 << (size & 63));
            distinct += u64::from(seen[word] & bit == 0);
            seen[word] |= bit;
            low = low.min(word);
            high = high.max(word);
        }
        if low <= high {
            seen[low..=high].fill(0);
        }
        distinct
    })
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
