//! QoE estimation from a reconstructed frame sequence (§3.2.1):
//!
//! * **bitrate** — total frame bits landing in the window, divided by the
//!   window length;
//! * **frame rate** — frames whose end time falls in the window, per
//!   second;
//! * **frame jitter** — standard deviation of consecutive frame-end gaps
//!   within the window.

use crate::frames::Frame;
use crate::json;
use vcaml_netpkt::Timestamp;

/// Per-window heuristic QoE estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QoeEstimate {
    /// Estimated video bitrate, kbps.
    pub bitrate_kbps: f64,
    /// Estimated frames per second.
    pub fps: f64,
    /// Estimated frame jitter, milliseconds.
    pub frame_jitter_ms: f64,
}

impl QoeEstimate {
    /// Appends this estimate as a JSON object.
    pub(crate) fn write_json(&self, out: &mut String) {
        let mut o = json::Object::begin(out);
        json::float(o.key("bitrate_kbps"), self.bitrate_kbps);
        json::float(o.key("fps"), self.fps);
        json::float(o.key("frame_jitter_ms"), self.frame_jitter_ms);
        o.end();
    }
}

/// The ledger of a heuristic flow's pending windows: holds the flow's
/// sealed, not-yet-emitted frames and its video-packet counts per window,
/// and emits one [`QoeEstimate`] and packet count per window, in window
/// order, as soon as the caller declares a window final — or, for a
/// provisional snapshot, estimates the pending windows without emitting
/// them.
///
/// This is the single implementation of §3.2.1's window estimation: final
/// and provisional windows are cut by one walk of the frame log, and
/// its frame log is the only place a sealed frame lives: the heuristic
/// engines' assemblers append to [`QoeWindower::sealed`] directly. A
/// frame's window follows from its end time (window `w` holds ends in
/// `[w·W, (w+1)·W)`), worked out only when a window completes; frames may
/// be sealed in any order (sealing order is not end order), and the log is
/// sorted by end time, creation order breaking ties, before windows are
/// emitted from its front. A frame or packet for a window already emitted
/// has nowhere to go and is dropped.
///
/// The counts live in a short ordered deque (one or two entries in
/// practice), and both buffers retain their capacity across windows, so
/// after warmup the seal → drain cycle performs no heap allocation.
#[derive(Debug, Clone)]
pub struct QoeWindower {
    window_secs: u32,
    next_emit: u64,
    /// Sealed frames not yet emitted, `(creation-order id, frame)`, in any
    /// order.
    frames: Vec<(u64, Frame)>,
    /// `(window, video packets)` of pending windows, in ascending window
    /// order.
    counts: std::collections::VecDeque<(u64, usize)>,
}

impl QoeWindower {
    /// Creates a windower with the window length in seconds.
    pub fn new(window_secs: u32) -> Self {
        assert!(window_secs > 0, "zero window");
        QoeWindower {
            window_secs,
            next_emit: 0,
            frames: Vec::new(),
            counts: std::collections::VecDeque::new(),
        }
    }

    /// The frame log: append each sealed frame with its creation-order id
    /// (used to break end-time ties deterministically), in any order.
    pub fn sealed(&mut self) -> &mut Vec<(u64, Frame)> {
        &mut self.frames
    }

    /// The window a frame ending at `end` lands in, `None` before time 0.
    fn window_of(window_secs: u32, end: Timestamp) -> Option<u64> {
        let window_us = i64::from(window_secs) * 1_000_000;
        u64::try_from(end.as_micros().div_euclid(window_us)).ok()
    }

    /// Counts one video packet arriving in `window`; the count comes out
    /// with the window's estimate.
    pub fn count(&mut self, window: u64) {
        if window < self.next_emit {
            return;
        }
        // Scan from the back: packets overwhelmingly land in the newest
        // pending window.
        match self.counts.iter().rposition(|&(w, _)| w <= window) {
            Some(i) if self.counts[i].0 == window => self.counts[i].1 += 1,
            before => self.counts.insert(before.map_or(0, |i| i + 1), (window, 1)),
        }
    }

    /// Emits every window strictly before `safe` (consecutive from the
    /// last emission; windows without frames yield zero estimates),
    /// handing each `(window, estimate, video packets)` to `emit` in window
    /// order — the caller writes it straight to where it belongs, with no
    /// buffer in between.
    pub fn drain_until(&mut self, safe: u64, emit: impl FnMut(u64, QoeEstimate, usize)) {
        if self.next_emit >= safe {
            return;
        }
        let cut = self.walk(safe, emit);
        self.frames.drain(..cut);
        while self.counts.pop_front_if(|&mut (w, _)| w < safe).is_some() {}
        self.next_emit = safe;
    }

    /// Estimates each pending window, from the next emission through
    /// `through`, from the frames sealed into it so far and hands it to
    /// `emit` with its video-packet count, as [`Self::drain_until`] does,
    /// but emits nothing. More frames may still arrive, so the results are
    /// lower bounds on frame count and bitrate — the provisional windows
    /// the max-lag and forced flushes publish for dashboards that prefer
    /// freshness over exactness. The log is sorted in place, so a
    /// snapshot allocates nothing.
    pub(crate) fn provisional_through(
        &mut self,
        through: u64,
        emit: impl FnMut(u64, QoeEstimate, usize),
    ) {
        self.walk(through + 1, emit);
    }

    /// The one cut of windows from the log, final or provisional: sorts
    /// the log and hands `emit` each window from the next emission up to
    /// (not including) `until`, with its frames' estimate and its count,
    /// consuming nothing. Returns the length of the log's prefix those
    /// windows and the late frames before them take.
    fn walk(&mut self, until: u64, mut emit: impl FnMut(u64, QoeEstimate, usize)) -> usize {
        // End-time order, creation order breaking ties (ids are unique, so
        // the unstable sort is deterministic): windows are then runs of
        // the log, in window order.
        self.frames.sort_unstable_by_key(|&(id, f)| (f.end_ts, id));
        let secs = self.window_secs;
        let next = self.next_emit;
        // Frames for windows already emitted are late: skip them.
        let mut start = self
            .frames
            .partition_point(|(_, f)| Self::window_of(secs, f.end_ts).is_none_or(|w| w < next));
        let mut counts = self.counts.iter().peekable();
        for w in next..until {
            let run = self.frames[start..]
                .partition_point(|(_, f)| Self::window_of(secs, f.end_ts) == Some(w));
            let packets = counts.next_if(|&&(cw, _)| cw == w).map_or(0, |&(_, n)| n);
            emit(w, self.estimate(&self.frames[start..start + run]), packets);
            start += run;
        }
        start
    }

    /// Highest pending window, if any.
    pub fn last_open_window(&self) -> Option<u64> {
        let frames = self
            .frames
            .iter()
            .filter_map(|(_, f)| Self::window_of(self.window_secs, f.end_ts))
            .filter(|&w| w >= self.next_emit);
        frames.max().max(self.counts.back().map(|&(w, _)| w))
    }

    /// Anchors emission at `window`: a flow's first window, or its new
    /// epoch across a discontinuity — forward (a long gap was skipped) or
    /// backward (the previous epoch came from a corrupt first timestamp).
    /// Only valid with no frame or count pending.
    pub fn anchor(&mut self, window: u64) {
        assert!(
            self.frames.is_empty() && self.counts.is_empty(),
            "anchor with pending windows"
        );
        self.next_emit = window;
    }

    /// The estimate an empty window produces.
    pub fn empty_estimate(&self) -> QoeEstimate {
        QoeEstimate {
            bitrate_kbps: 0.0,
            fps: 0.0,
            frame_jitter_ms: 0.0,
        }
    }

    /// Heap bytes currently held (frame log and count capacity), for
    /// per-flow memory accounting.
    pub fn heap_bytes(&self) -> usize {
        self.frames.capacity() * std::mem::size_of::<(u64, Frame)>()
            + self.counts.capacity() * std::mem::size_of::<(u64, usize)>()
    }

    /// Estimates one window from its frames, in end-time order.
    fn estimate(&self, frames: &[(u64, Frame)]) -> QoeEstimate {
        // An empty `f64` sum is -0.0: a window without frames must read as
        // the empty estimate bit for bit.
        if frames.is_empty() {
            return self.empty_estimate();
        }
        let secs = f64::from(self.window_secs);
        let bits: f64 = frames.iter().map(|(_, f)| f.size_bytes as f64 * 8.0).sum();
        let fps = frames.len() as f64 / secs;
        let jitter = if frames.len() >= 3 {
            // Two Welford-free passes over the gaps: no gap buffer.
            let n = (frames.len() - 1) as f64;
            let gap = |p: &[(u64, Frame)]| (p[1].1.end_ts - p[0].1.end_ts).as_millis_f64();
            let mut sum = 0.0;
            for p in frames.windows(2) {
                sum += gap(p);
            }
            let mean = sum / n;
            let mut var = 0.0;
            for p in frames.windows(2) {
                var += (gap(p) - mean).powi(2);
            }
            (var / n).sqrt()
        } else {
            0.0
        };
        QoeEstimate {
            bitrate_kbps: bits / secs / 1000.0,
            fps,
            frame_jitter_ms: jitter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcaml_netpkt::Timestamp;

    /// Seals every frame ending inside the first `n` windows into the log,
    /// then drains all `n`: one estimate per window.
    fn estimate_windows(frames: &[Frame], n: u64, window_secs: u32) -> Vec<QoeEstimate> {
        let mut windower = QoeWindower::new(window_secs);
        windower
            .sealed()
            .extend(frames.iter().enumerate().map(|(id, f)| (id as u64, *f)));
        let mut out = Vec::new();
        windower.drain_until(n, |_, e, _| out.push(e));
        out
    }

    fn frame(end_ms: i64, size: usize) -> Frame {
        Frame {
            end_ts: Timestamp::from_millis(end_ms),
            size_bytes: size,
        }
    }

    #[test]
    fn fps_counts_frames_by_end_time() {
        let frames: Vec<Frame> = (0..30).map(|i| frame(i * 33, 1000)).collect();
        let est = estimate_windows(&frames, 2, 1);
        assert_eq!(est.len(), 2);
        // 30 frames at 33 ms: ends 0..957 all in window 0 → 30 fps; the
        // 31st would be at 990.
        assert_eq!(est[0].fps, 30.0);
        assert_eq!(est[1].fps, 0.0);
    }

    #[test]
    fn bitrate_sums_frame_bits() {
        let frames = vec![frame(100, 12_500), frame(200, 12_500)];
        let est = estimate_windows(&frames, 1, 1);
        // 25000 bytes = 200 kbit in 1 s.
        assert_eq!(est[0].bitrate_kbps, 200.0);
    }

    #[test]
    fn jitter_zero_for_regular_frames() {
        let frames: Vec<Frame> = (0..10).map(|i| frame(i * 33, 100)).collect();
        let est = estimate_windows(&frames, 1, 1);
        assert!(est[0].frame_jitter_ms < 1e-9);
    }

    #[test]
    fn jitter_positive_for_irregular_frames() {
        let frames = vec![frame(0, 1), frame(10, 1), frame(90, 1), frame(100, 1)];
        let est = estimate_windows(&frames, 1, 1);
        assert!(est[0].frame_jitter_ms > 20.0);
    }

    #[test]
    fn fewer_than_three_frames_reports_zero_jitter() {
        let frames = vec![frame(0, 1), frame(500, 1)];
        let est = estimate_windows(&frames, 1, 1);
        assert_eq!(est[0].frame_jitter_ms, 0.0);
    }

    #[test]
    fn multi_second_window_normalizes() {
        let frames: Vec<Frame> = (0..20).map(|i| frame(i * 100, 1250)).collect();
        let est = estimate_windows(&frames, 1, 2);
        // 20 frames in 2 s = 10 fps; 25 kB over 2 s = 100 kbps.
        assert_eq!(est[0].fps, 10.0);
        assert_eq!(est[0].bitrate_kbps, 100.0);
    }

    fn bits(e: QoeEstimate) -> [u64; 3] {
        [e.bitrate_kbps, e.fps, e.frame_jitter_ms].map(f64::to_bits)
    }

    #[test]
    fn a_window_without_frames_is_the_empty_estimate_bit_for_bit() {
        let mut windower = QoeWindower::new(1);
        windower.count(0);
        windower.count(0);
        let empty = bits(windower.empty_estimate());
        let mut out = Vec::new();
        windower.provisional_through(0, |w, e, n| out.push((w, bits(e), n)));
        windower.drain_until(1, |w, e, n| out.push((w, bits(e), n)));
        assert_eq!(out, [(0, empty, 2), (0, empty, 2)]);
    }

    #[test]
    fn a_windows_count_comes_out_with_its_frames() {
        let mut windower = QoeWindower::new(1);
        for (id, ms) in [100, 200, 1_100].into_iter().enumerate() {
            windower.count(ms as u64 / 1000);
            windower.sealed().push((id as u64, frame(ms, 125)));
        }
        windower.count(1);
        windower.count(2);
        let kbps = |frames: f64| frames * 125.0 * 8.0 / 1000.0;
        let mut out = Vec::new();
        windower.provisional_through(1, |w, e, n| out.push((w, e.fps, e.bitrate_kbps, n)));
        assert_eq!(out, [(0, 2.0, kbps(2.0), 2), (1, 1.0, kbps(1.0), 2)]);
        out.clear();
        windower.drain_until(3, |w, e, n| out.push((w, e.fps, e.bitrate_kbps, n)));
        assert_eq!(
            out,
            [
                (0, 2.0, kbps(2.0), 2),
                (1, 1.0, kbps(1.0), 2),
                (2, 0.0, 0.0, 1)
            ]
        );
    }

    #[test]
    fn nothing_pends_for_an_emitted_window() {
        let mut windower = QoeWindower::new(1);
        windower.sealed().push((0, frame(1_500, 100)));
        windower.drain_until(2, |_, _, _| {});
        windower.sealed().push((1, frame(1_600, 100)));
        windower.count(0);
        windower.count(1);
        assert_eq!(windower.last_open_window(), None);
        let mut out = Vec::new();
        windower.drain_until(3, |w, e, n| out.push((w, e.fps, n)));
        assert_eq!(out, [(2, 0.0, 0)]);
        assert!(windower.frames.is_empty(), "the late frame was dropped");
    }

    #[test]
    fn the_log_keeps_what_no_window_has_emitted() {
        let mut windower = QoeWindower::new(1);
        // Sealed out of end order, and one frame past the drained window.
        for (id, ms) in [(2, 1_200), (0, 300), (1, 100)] {
            windower.sealed().push((id, frame(ms, 100)));
        }
        let mut out = Vec::new();
        windower.drain_until(1, |w, e, _| out.push((w, e.fps)));
        assert_eq!(out, [(0, 2.0)]);
        assert_eq!(windower.frames, [(2, frame(1_200, 100))]);
        assert_eq!(windower.last_open_window(), Some(1));
        // The drain retained the log's capacity for the next window.
        let capacity = windower.frames.capacity();
        windower.sealed().push((3, frame(1_300, 100)));
        windower.drain_until(2, |_, _, _| {});
        assert!(windower.frames.is_empty());
        assert_eq!(windower.frames.capacity(), capacity);
    }

    #[test]
    fn frames_outside_range_ignored() {
        let frames = vec![frame(-100, 1), frame(5_000, 1)];
        let est = estimate_windows(&frames, 2, 1);
        assert!(est.iter().all(|e| e.fps == 0.0));
    }
}
