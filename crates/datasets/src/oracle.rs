//! Whole-trace reference estimators: the batch forms of the paper's two
//! heuristics and of end-time windowing, kept beside the corpora as test
//! oracles and for the Fig 4 error taxonomy.
//!
//! The product estimates packet by packet through `vcaml::engine`. The
//! frame oracles replay a finished packet list through the same
//! assemblers and collect everything at the end; [`estimate_windows`]
//! shares no code with `vcaml::qoe::QoeWindower` — it buckets and scores
//! frames with its own arithmetic — so a streaming run can be checked
//! against an independent driver window for window.
//!
//! * [`ipudp_frames`] — Algorithm 1 over video packets, with the frame
//!   id each packet was assigned to;
//! * [`rtp_frames`] — RTP timestamp/marker grouping over a trace's
//!   payload-type video stream;
//! * [`estimate_windows`] — frame rate, bitrate and frame jitter per
//!   window, frames bucketed by end time.

use vcaml::heuristic::{HeuristicParams, IpUdpAssembler};
use vcaml::qoe::QoeEstimate;
use vcaml::rtp_heuristic::RtpAssembler;
use vcaml::{Frame, Trace, TracePacket};

/// Runs Algorithm 1 over `packets` (video packets in arrival order; only
/// their time and IP total length are read). Returns the frames ordered
/// by end time, creation order breaking ties, and for each packet the id
/// of the frame it joined (ids count frames in creation order).
pub fn ipudp_frames<'a>(
    params: HeuristicParams,
    packets: impl IntoIterator<Item = &'a TracePacket>,
) -> (Vec<Frame>, Vec<u64>) {
    let mut asm = IpUdpAssembler::new(params);
    let mut frames = Vec::new();
    let ids = packets
        .into_iter()
        .map(|p| asm.push_into(p.ts, p.size, &mut frames))
        .collect();
    asm.finish_into(&mut frames);
    (by_end_time(frames), ids)
}

/// Reconstructs frames from the trace's RTP video stream (payload-type
/// classified): packets grouped by RTP timestamp, a frame ending at its
/// marker packet's arrival when one was received, else at its last
/// arrival. Frames are ordered by end time, creation order breaking ties.
pub fn rtp_frames(trace: &Trace) -> Vec<Frame> {
    let mut asm = RtpAssembler::new();
    let mut frames = Vec::new();
    for p in trace.rtp_video_packets() {
        if let Some(h) = p.rtp {
            asm.push_into(p.ts, h.timestamp, h.marker, p.size, &mut frames);
        }
    }
    asm.finish_into(&mut frames);
    by_end_time(frames)
}

/// Buckets frames by end time into `n_windows` windows of `window_secs`
/// seconds (window `w` holds ends in `[w·W, (w+1)·W)`) and estimates the
/// three metrics in each: frames per second, kbps of frame bytes, and the
/// population standard deviation of consecutive end gaps in ms (zero
/// under three frames). Frames ending beyond the last window or at
/// negative times are ignored; a window without frames estimates zero.
pub fn estimate_windows(frames: &[Frame], n_windows: usize, window_secs: u32) -> Vec<QoeEstimate> {
    let window_us = i64::from(window_secs) * 1_000_000;
    let secs = f64::from(window_secs);
    // (end, frame id, bytes): sorting orders a bucket by end time, ids
    // (unique) breaking ties.
    let mut buckets = vec![Vec::new(); n_windows];
    for (id, f) in frames.iter().enumerate() {
        let w = f.end_ts.as_micros().div_euclid(window_us);
        if let Some(bucket) = usize::try_from(w).ok().and_then(|w| buckets.get_mut(w)) {
            bucket.push((f.end_ts, id, f.size_bytes));
        }
    }
    buckets
        .into_iter()
        .map(|mut bucket| {
            bucket.sort_unstable();
            let fps = bucket.len() as f64 / secs;
            let bits = bucket
                .iter()
                .fold(0.0, |sum, &(_, _, bytes)| sum + bytes as f64 * 8.0);
            let jitter = if bucket.len() >= 3 {
                let gaps: Vec<f64> = bucket
                    .windows(2)
                    .map(|p| (p[1].0 - p[0].0).as_millis_f64())
                    .collect();
                let n = gaps.len() as f64;
                let mean = gaps.iter().fold(0.0, |sum, g| sum + g) / n;
                let var = gaps.iter().fold(0.0, |sum, g| sum + (g - mean).powi(2));
                (var / n).sqrt()
            } else {
                0.0
            };
            QoeEstimate {
                bitrate_kbps: bits / secs / 1000.0,
                fps,
                frame_jitter_ms: jitter,
            }
        })
        .collect()
}

fn by_end_time(mut frames: Vec<(u64, Frame)>) -> Vec<Frame> {
    frames.sort_by_key(|&(id, f)| (f.end_ts, id));
    frames.into_iter().map(|(_, f)| f).collect()
}
