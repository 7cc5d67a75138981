//! Windowing: slicing a packet list into the prediction windows `W`
//! over which QoE is estimated (§2.2; default 1 second, swept in Fig. 12).
//! Part of the [`crate::oracle`] references, which re-export it.

use vcaml::engine::MAX_WINDOW_GAP;
use vcaml_netpkt::Timestamp;

/// The minimal per-packet observation every IP/UDP method consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PktObs {
    /// Capture timestamp.
    pub ts: Timestamp,
    /// IP total length in bytes.
    pub size: u16,
}

/// Groups packets into consecutive fixed-length windows starting at t = 0.
///
/// Returns at least `ceil(duration_secs / window_secs)` entries; window
/// index `i` always corresponds to time `[i·w, (i+1)·w)` and windows with
/// no packets are empty vectors. Packets whose timestamps fall **at or
/// beyond** `duration_secs` extend the output with additional windows
/// rather than being silently dropped, so batch window counts agree with
/// a streaming replay of the same input (callers that want exactly the
/// nominal duration can truncate). Timestamps more than the engines' [`MAX_WINDOW_GAP`]
/// windows past the nominal count are treated as corrupt and dropped,
/// which bounds the allocation one bad timestamp can trigger.
///
/// Packets with negative timestamps are outside every window and are
/// dropped — the same normalization the streaming engine applies (capture
/// time is defined to start at t = 0).
///
/// # Panics
/// Panics if `window_secs` is zero.
pub fn windows_by_second(
    pkts: &[PktObs],
    duration_secs: u32,
    window_secs: u32,
) -> Vec<Vec<PktObs>> {
    assert!(window_secs > 0, "zero window");
    let n_windows = duration_secs.div_ceil(window_secs) as usize;
    let max_windows = n_windows.saturating_add(MAX_WINDOW_GAP as usize);
    let mut out: Vec<Vec<PktObs>> = vec![Vec::new(); n_windows];
    let w_us = i64::from(window_secs) * 1_000_000;
    for p in pkts {
        let idx = p.ts.as_micros().div_euclid(w_us);
        if idx >= 0 && (idx as usize) < max_windows {
            if idx as usize >= out.len() {
                out.resize(idx as usize + 1, Vec::new());
            }
            out[idx as usize].push(*p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(ms: i64, size: u16) -> PktObs {
        PktObs {
            ts: Timestamp::from_millis(ms),
            size,
        }
    }

    #[test]
    fn one_second_windows() {
        let pkts = vec![p(100, 10), p(999, 20), p(1000, 30), p(2500, 40)];
        let w = windows_by_second(&pkts, 3, 1);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].len(), 2);
        assert_eq!(w[1], vec![p(1000, 30)]);
        assert_eq!(w[2], vec![p(2500, 40)]);
    }

    #[test]
    fn empty_windows_preserved() {
        let pkts = vec![p(2500, 40)];
        let w = windows_by_second(&pkts, 4, 1);
        assert_eq!(w.len(), 4);
        assert!(w[0].is_empty() && w[1].is_empty() && w[3].is_empty());
        assert_eq!(w[2].len(), 1);
    }

    #[test]
    fn wider_windows() {
        let pkts = vec![p(100, 1), p(1100, 2), p(2100, 3), p(3100, 4), p(4100, 5)];
        let w = windows_by_second(&pkts, 5, 2);
        assert_eq!(w.len(), 3); // ceil(5/2)
        assert_eq!(w[0].len(), 2);
        assert_eq!(w[1].len(), 2);
        assert_eq!(w[2].len(), 1);
    }

    #[test]
    fn negative_timestamps_dropped_late_packets_extend() {
        let pkts = vec![p(-5, 1), p(10_000, 2)];
        let w = windows_by_second(&pkts, 3, 1);
        // The negative-timestamp packet is outside every window; the
        // packet at t = 10 s extends the output beyond the nominal
        // duration instead of disappearing.
        assert_eq!(w.len(), 11);
        assert!(w[..10].iter().all(Vec::is_empty));
        assert_eq!(w[10], vec![p(10_000, 2)]);
    }

    #[test]
    fn corrupt_timestamp_extension_bounded() {
        // A mangled timestamp far in the future must not trigger a
        // gigabyte-scale resize; it is dropped as corrupt.
        let pkts = vec![p(0, 1), p(4_000_000_000_000, 2)];
        let w = windows_by_second(&pkts, 3, 1);
        assert!(w.len() <= 3 + MAX_WINDOW_GAP as usize);
        assert_eq!(w[0], vec![p(0, 1)]);
        assert_eq!(w.iter().map(Vec::len).sum::<usize>(), 1);
    }

    #[test]
    fn packet_exactly_at_duration_kept() {
        let pkts = vec![p(3_000, 7)];
        let w = windows_by_second(&pkts, 3, 1);
        assert_eq!(w.len(), 4);
        assert_eq!(w[3], vec![p(3_000, 7)]);
    }

    #[test]
    #[should_panic(expected = "zero window")]
    fn zero_window_rejected() {
        let _ = windows_by_second(&[], 3, 0);
    }
}
