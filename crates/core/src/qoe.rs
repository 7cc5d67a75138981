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

/// One pending window's frames: `(frame id, end, bytes)` per frame.
type WindowFrames = Vec<(u64, Timestamp, usize)>;

/// Spare frame vectors kept for recycling; a handful covers the 1–2
/// windows typically open at once.
const SPARE_POOL: usize = 8;

/// A window not yet emitted: the frames sealed into it and the video
/// packets that arrived in it.
#[derive(Debug, Clone)]
struct Pending {
    window: u64,
    frames: WindowFrames,
    packets: usize,
}

/// The ledger of a heuristic flow's pending windows: buckets sealed frames
/// and video-packet arrivals by window, and emits one [`QoeEstimate`] and
/// packet count per window, in window order, as soon as the caller
/// declares a window final.
///
/// This is the single implementation of §3.2.1's window estimation: the
/// heuristic engines offer frames as their assemblers seal them, under the
/// window index their clock computed. Frames may be offered out of end-time
/// order (sealing order is not arrival order); each window sorts its few
/// frames at emission. A frame or packet for a window already emitted has
/// nowhere to go and is dropped.
///
/// Internally the pending windows live in a short ordered deque (one or two
/// entries in practice) instead of a tree, and drained windows' frame
/// vectors are recycled through a spare pool — after warmup the offer →
/// drain cycle performs no heap allocation.
#[derive(Debug, Clone)]
pub struct QoeWindower {
    window_secs: f64,
    next_emit: u64,
    /// Pending windows in ascending window order.
    open: std::collections::VecDeque<Pending>,
    /// Recycled frame vectors (cleared, capacity retained).
    spare: Vec<WindowFrames>,
}

impl QoeWindower {
    /// Creates a windower with the window length in seconds.
    pub fn new(window_secs: u32) -> Self {
        assert!(window_secs > 0, "zero window");
        QoeWindower {
            window_secs: f64::from(window_secs),
            next_emit: 0,
            open: std::collections::VecDeque::new(),
            spare: Vec::new(),
        }
    }

    /// Position of `window`'s pending entry, inserted in window order if
    /// new; `None` for a window already emitted.
    fn pending(&mut self, window: u64) -> Option<usize> {
        if window < self.next_emit {
            return None;
        }
        // Scan from the back: frames and packets overwhelmingly land in the
        // newest pending window.
        match self.open.iter().rposition(|p| p.window <= window) {
            Some(i) if self.open[i].window == window => Some(i),
            before => {
                let i = before.map_or(0, |i| i + 1);
                let entry = Pending {
                    window,
                    frames: Vec::new(),
                    packets: 0,
                };
                self.open.insert(i, entry);
                Some(i)
            }
        }
    }

    /// Offers one sealed frame ending in `window` (`id` in creation order,
    /// used to break end-time ties deterministically).
    pub fn offer(&mut self, window: u64, id: u64, frame: &Frame) {
        let Some(i) = self.pending(window) else {
            return;
        };
        // A window's frame vector comes with its first frame, not with its
        // first packet: a window that only counts packets (a flow whose
        // video never seals a frame in it) takes nothing from the pool.
        let frames = &mut self.open[i].frames;
        if frames.capacity() == 0 {
            *frames = self.spare.pop().unwrap_or_default();
        }
        frames.push((id, frame.end_ts, frame.size_bytes));
    }

    /// Counts one video packet arriving in `window`; the count comes out
    /// with the window's estimate.
    pub fn count(&mut self, window: u64) {
        if let Some(i) = self.pending(window) {
            self.open[i].packets += 1;
        }
    }

    /// Emits every window strictly before `safe` (consecutive from the
    /// last emission; windows without frames yield zero estimates),
    /// handing each `(window, estimate, video packets)` to `emit` in window
    /// order — the caller writes it straight to where it belongs, with no
    /// buffer in between.
    pub fn drain_until(&mut self, safe: u64, mut emit: impl FnMut(u64, QoeEstimate, usize)) {
        while self.next_emit < safe {
            let w = self.next_emit;
            match self.open.pop_front_if(|p| p.window == w) {
                Some(Pending {
                    mut frames,
                    packets,
                    ..
                }) => {
                    emit(w, self.estimate_slice(&mut frames), packets);
                    // A window that never took a frame vector has none to
                    // give back.
                    if frames.capacity() > 0 && self.spare.len() < SPARE_POOL {
                        frames.clear();
                        self.spare.push(frames);
                    }
                }
                None => emit(w, self.empty_estimate(), 0),
            }
            self.next_emit += 1;
        }
    }

    /// Next window index that would be emitted.
    pub fn next_window(&self) -> u64 {
        self.next_emit
    }

    /// Highest pending window, if any.
    pub fn last_open_window(&self) -> Option<u64> {
        self.open.back().map(|p| p.window)
    }

    /// Anchors emission at `window`: a flow's first window, or its new
    /// epoch across a discontinuity — forward (a long gap was skipped) or
    /// backward (the previous epoch came from a corrupt first timestamp).
    /// Only valid with no window pending.
    pub fn anchor(&mut self, window: u64) {
        assert!(self.open.is_empty(), "anchor with pending windows");
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

    /// Estimates a not-yet-final window from the frames sealed into it so
    /// far, with the video packets counted in it, without emitting it.
    /// More frames may still arrive, so the result is a lower bound on
    /// frame count and bitrate — the "provisional window" the max-lag flush
    /// publishes for dashboards that prefer freshness over exactness.
    pub fn peek(&self, window: u64) -> (QoeEstimate, usize) {
        match self.open.iter().find(|p| p.window == window) {
            Some(p) => (self.estimate_slice(&mut p.frames.clone()), p.packets),
            None => (self.empty_estimate(), 0),
        }
    }

    /// Heap bytes currently held (pending-window and spare capacity), for
    /// per-flow memory accounting.
    pub fn heap_bytes(&self) -> usize {
        let per = std::mem::size_of::<(u64, Timestamp, usize)>();
        self.open
            .iter()
            .map(|p| p.frames.capacity() * per)
            .sum::<usize>()
            + self.spare.iter().map(|f| f.capacity() * per).sum::<usize>()
            + self.open.capacity() * std::mem::size_of::<Pending>()
    }

    fn estimate_slice(&self, frames: &mut [(u64, Timestamp, usize)]) -> QoeEstimate {
        // An empty `f64` sum is -0.0: a window without frames must read as
        // the empty estimate bit for bit.
        if frames.is_empty() {
            return self.empty_estimate();
        }
        // End-time order, creation order breaking ties — the same order
        // the batch stable sort produced.
        frames.sort_by_key(|&(id, end, _)| (end, id));
        let bits: f64 = frames.iter().map(|&(_, _, bytes)| bytes as f64 * 8.0).sum();
        let fps = frames.len() as f64 / self.window_secs;
        let jitter = if frames.len() >= 3 {
            // Two Welford-free passes over the gaps: no gap buffer.
            let n = (frames.len() - 1) as f64;
            let mut sum = 0.0;
            for p in frames.windows(2) {
                sum += (p[1].1 - p[0].1).as_millis_f64();
            }
            let mean = sum / n;
            let mut var = 0.0;
            for p in frames.windows(2) {
                var += ((p[1].1 - p[0].1).as_millis_f64() - mean).powi(2);
            }
            (var / n).sqrt()
        } else {
            0.0
        };
        QoeEstimate {
            bitrate_kbps: bits / self.window_secs / 1000.0,
            fps,
            frame_jitter_ms: jitter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcaml_netpkt::Timestamp;

    /// Offers every frame ending inside the first `n` windows, then
    /// drains all `n`: one estimate per window.
    fn estimate_windows(frames: &[Frame], n: u64, window_secs: u32) -> Vec<QoeEstimate> {
        let mut windower = QoeWindower::new(window_secs);
        for (id, f) in frames.iter().enumerate() {
            let w = window_of(f.end_ts, window_secs);
            if (0..n as i64).contains(&w) {
                windower.offer(w as u64, id as u64, f);
            }
        }
        let mut out = Vec::new();
        windower.drain_until(n, |_, e, _| out.push(e));
        out
    }

    fn window_of(ts: Timestamp, window_secs: u32) -> i64 {
        ts.as_micros()
            .div_euclid(i64::from(window_secs) * 1_000_000)
    }

    fn frame(end_ms: i64, size: usize) -> Frame {
        Frame {
            start_ts: Timestamp::from_millis(end_ms - 1),
            end_ts: Timestamp::from_millis(end_ms),
            size_bytes: size,
            n_packets: 1,
            rtp_ts: None,
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
        let (peeked, packets) = windower.peek(0);
        assert_eq!((bits(peeked), packets), (empty, 2));
        let mut out = Vec::new();
        windower.drain_until(1, |w, e, n| out.push((w, bits(e), n)));
        assert_eq!(out, [(0, empty, 2)]);
    }

    #[test]
    fn a_windows_count_comes_out_with_its_frames() {
        let mut windower = QoeWindower::new(1);
        for (id, ms) in [100, 200, 1_100].into_iter().enumerate() {
            windower.count(ms as u64 / 1000);
            windower.offer(ms as u64 / 1000, id as u64, &frame(ms, 125));
        }
        windower.count(1);
        windower.count(2);
        let kbps = |frames: f64| frames * 125.0 * 8.0 / 1000.0;
        let (e, packets) = windower.peek(1);
        assert_eq!((e.fps, e.bitrate_kbps, packets), (1.0, kbps(1.0), 2));
        let mut out = Vec::new();
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
        windower.offer(1, 0, &frame(1_500, 100));
        windower.drain_until(2, |_, _, _| {});
        windower.offer(1, 1, &frame(1_600, 100));
        windower.count(0);
        windower.count(1);
        assert_eq!(windower.last_open_window(), None);
        let mut out = Vec::new();
        windower.drain_until(3, |w, e, n| out.push((w, e.fps, n)));
        assert_eq!(out, [(2, 0.0, 0)]);
    }

    #[test]
    fn a_windows_frame_vector_comes_with_its_first_frame() {
        let mut windower = QoeWindower::new(1);
        windower.offer(0, 0, &frame(100, 100));
        windower.drain_until(1, |_, _, _| {});
        assert_eq!(windower.spare.len(), 1, "the drained vector is kept");
        // Packets alone take no frame vector, so a window that never seals
        // a frame leaves the spare where it was.
        windower.count(1);
        assert_eq!(windower.spare.len(), 1);
        assert_eq!(windower.open[0].frames.capacity(), 0);
        windower.offer(1, 1, &frame(1_100, 100));
        assert!(windower.spare.is_empty());
        assert!(windower.open[0].frames.capacity() > 0);
        windower.count(2);
        windower.drain_until(3, |_, _, _| {});
        assert_eq!(windower.spare.len(), 1, "an unused vector is not pooled");
    }

    #[test]
    fn frames_outside_range_ignored() {
        let frames = vec![frame(-100, 1), frame(5_000, 1)];
        let est = estimate_windows(&frames, 2, 1);
        assert!(est.iter().all(|e| e.fps == 0.0));
    }
}
