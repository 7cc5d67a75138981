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

/// One open window's frames: `(frame id, end, bytes)` per frame.
type WindowFrames = Vec<(u64, Timestamp, usize)>;

/// Spare frame vectors kept for recycling; a handful covers the 1–2
/// windows typically open at once.
const SPARE_POOL: usize = 8;

/// Buckets sealed frames by end time into fixed windows and emits one
/// [`QoeEstimate`] per window, in window order, as soon as the caller
/// declares a window final.
///
/// This is the single implementation of §3.2.1's window estimation: the
/// batch [`estimate_windows`] replays a frame list through it, and the
/// streaming engine offers frames as its assemblers seal them. Frames may
/// be offered out of end-time order (sealing order is not arrival order);
/// each window sorts its few frames at emission.
///
/// Internally the open windows live in a short ordered deque (one or two
/// entries in practice) instead of a tree, and drained windows' frame
/// vectors are recycled through a spare pool — after warmup the offer →
/// drain cycle performs no heap allocation.
#[derive(Debug, Clone)]
pub struct QoeWindower {
    window_us: i64,
    window_secs: f64,
    next_emit: u64,
    /// Open windows in ascending window order: `(window, frames)`.
    open: std::collections::VecDeque<(u64, WindowFrames)>,
    /// Recycled frame vectors (cleared, capacity retained).
    spare: Vec<WindowFrames>,
}

impl QoeWindower {
    /// Creates a windower with the window length in seconds.
    pub fn new(window_secs: u32) -> Self {
        assert!(window_secs > 0, "zero window");
        QoeWindower {
            window_us: i64::from(window_secs) * 1_000_000,
            window_secs: f64::from(window_secs),
            next_emit: 0,
            open: std::collections::VecDeque::new(),
            spare: Vec::new(),
        }
    }

    /// Window index a timestamp falls into (`None` for negative times,
    /// which are outside every window).
    pub fn window_of(&self, ts: Timestamp) -> Option<u64> {
        let idx = ts.as_micros().div_euclid(self.window_us);
        (idx >= 0).then_some(idx as u64)
    }

    /// Offers one sealed frame (`id` in creation order, used to break
    /// end-time ties deterministically).
    pub fn offer(&mut self, id: u64, frame: &Frame) {
        if let Some(w) = self.window_of(frame.end_ts) {
            debug_assert!(w >= self.next_emit, "frame sealed into an emitted window");
            if w >= self.next_emit {
                let entry = (id, frame.end_ts, frame.size_bytes);
                // Scan from the back: frames overwhelmingly seal into the
                // newest open window.
                for i in (0..self.open.len()).rev() {
                    match self.open[i].0.cmp(&w) {
                        std::cmp::Ordering::Equal => {
                            self.open[i].1.push(entry);
                            return;
                        }
                        std::cmp::Ordering::Less => {
                            let mut frames = self.spare.pop().unwrap_or_default();
                            frames.push(entry);
                            self.open.insert(i + 1, (w, frames));
                            return;
                        }
                        std::cmp::Ordering::Greater => {}
                    }
                }
                let mut frames = self.spare.pop().unwrap_or_default();
                frames.push(entry);
                self.open.push_front((w, frames));
            }
        }
    }

    /// Emits every window strictly before `safe` (consecutive from the
    /// last emission; windows without frames yield zero estimates),
    /// appending into the caller-owned `out`.
    pub fn drain_until_into(&mut self, safe: u64, out: &mut Vec<(u64, QoeEstimate)>) {
        while self.next_emit < safe {
            let w = self.next_emit;
            let estimate = match self.open.front_mut() {
                Some((front, _)) if *front == w => {
                    let (_, mut frames) = self.open.pop_front().expect("front checked"); // lint: allow(no-unwrap-in-lib) -- the while condition just checked the front window exists
                    let e = self.estimate_slice(&mut frames);
                    frames.clear();
                    if self.spare.len() < SPARE_POOL {
                        self.spare.push(frames);
                    }
                    e
                }
                _ => self.empty_estimate(),
            };
            out.push((w, estimate));
            self.next_emit += 1;
        }
    }

    /// Next window index that would be emitted.
    pub fn next_window(&self) -> u64 {
        self.next_emit
    }

    /// Highest window index currently holding an unemitted frame.
    pub fn last_open_window(&self) -> Option<u64> {
        self.open.back().map(|&(w, _)| w)
    }

    /// Anchors the first emitted window (a flow's epoch). Only valid
    /// before anything has been offered or emitted.
    pub fn start_at(&mut self, window: u64) {
        assert!(
            self.next_emit == 0 && self.open.is_empty(),
            "start_at after emission began"
        );
        self.next_emit = window;
    }

    /// Re-anchors emission at `window` across a discontinuity — forward
    /// (a long gap was skipped) or backward (the previous epoch came from
    /// a corrupt first timestamp). Only valid once pending windows have
    /// been drained.
    pub fn skip_to(&mut self, window: u64) {
        assert!(self.open.is_empty(), "skip_to with pending frames");
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
    /// far, without emitting it. More frames may still arrive, so the
    /// result is a lower bound on frame count and bitrate — the
    /// "provisional window" the max-lag flush publishes for dashboards
    /// that prefer freshness over exactness.
    pub fn peek(&self, window: u64) -> QoeEstimate {
        match self.open.iter().find(|&&(w, _)| w == window) {
            Some((_, frames)) => {
                let mut copy = frames.clone();
                self.estimate_slice(&mut copy)
            }
            None => self.empty_estimate(),
        }
    }

    /// Heap bytes currently held (open-window and spare capacity), for
    /// per-flow memory accounting.
    pub fn heap_bytes(&self) -> usize {
        let per = std::mem::size_of::<(u64, Timestamp, usize)>();
        self.open
            .iter()
            .map(|(_, f)| f.capacity() * per)
            .sum::<usize>()
            + self.spare.iter().map(|f| f.capacity() * per).sum::<usize>()
            + self.open.capacity() * std::mem::size_of::<(u64, WindowFrames)>()
    }

    fn estimate_slice(&self, frames: &mut [(u64, Timestamp, usize)]) -> QoeEstimate {
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

/// Buckets frames by end time into `n_windows` windows of `window_secs`
/// seconds and estimates the three metrics in each, by replaying the list
/// through [`QoeWindower`]. Frames ending beyond the last window (or at
/// negative times) are ignored.
pub fn estimate_windows(frames: &[Frame], n_windows: usize, window_secs: u32) -> Vec<QoeEstimate> {
    let mut windower = QoeWindower::new(window_secs);
    for (id, f) in frames.iter().enumerate() {
        if windower
            .window_of(f.end_ts)
            .is_some_and(|w| w < n_windows as u64)
        {
            windower.offer(id as u64, f);
        }
    }
    let mut out = Vec::with_capacity(n_windows);
    windower.drain_until_into(n_windows as u64, &mut out);
    out.into_iter().map(|(_, e)| e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcaml_netpkt::Timestamp;

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

    #[test]
    fn frames_outside_range_ignored() {
        let frames = vec![frame(-100, 1), frame(5_000, 1)];
        let est = estimate_windows(&frames, 2, 1);
        assert!(est.iter().all(|e| e.fps == 0.0));
    }
}
