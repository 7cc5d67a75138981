//! Whole-trace reference estimators: the batch forms of the paper's two
//! heuristics, of end-time windowing and of Table 1's ML features, kept
//! beside the corpora as test oracles and for the Fig 4 error taxonomy.
//!
//! The product estimates packet by packet through `vcaml::engine`. The
//! frame oracles replay a finished packet list through the same
//! assemblers and collect everything at the end; [`estimate_windows`]
//! shares no code with `vcaml::qoe::QoeWindower` — it buckets and scores
//! frames with its own arithmetic — so a streaming run can be checked
//! against an independent driver window for window. The feature oracles
//! share no code with `vcaml-features`' accumulators: they take a
//! window's packets as a slice and compute each feature from its
//! definition, sorting for the order statistics.
//!
//! * [`ipudp_frames`] — Algorithm 1 over video packets, with the frame
//!   id each packet was assigned to;
//! * [`rtp_frames`] — RTP timestamp/marker grouping over a trace's
//!   payload-type video stream;
//! * [`estimate_windows`] — frame rate, bitrate and frame jitter per
//!   window, frames bucketed by end time;
//! * [`windows_by_second`] — a packet list cut into fixed windows of
//!   [`PktObs`];
//! * [`ipudp_features`] — the 14 IP/UDP ML features of one window, from
//!   [`sorted_five`], [`unique_sizes`] and [`microbursts`];
//! * [`rtp_features`] — the 12 RTP features of one window.

use std::collections::{HashMap, HashSet};
use vcaml::heuristic::{HeuristicParams, IpUdpAssembler};
use vcaml::qoe::QoeEstimate;
use vcaml::rtp_heuristic::RtpAssembler;
use vcaml::{Frame, Trace, TracePacket};
use vcaml_netpkt::Timestamp;
use vcaml_rtp::{RtpClock, RtpHeader};

pub use crate::semantics::{microbursts, unique_sizes};
pub use crate::window::{windows_by_second, PktObs};

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

/// `[mean, stdev, median, min, max]` of `values`, all zeros when there are
/// none: the mean and the population variance summed in the order given,
/// the rest read off a sorted copy (an even count's median is the mean of
/// the two middle values).
pub fn sorted_five(values: &[f64]) -> [f64; 5] {
    if values.is_empty() {
        return [0.0; 5];
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let half = sorted.len() / 2;
    let median = if sorted.len() % 2 == 1 {
        sorted[half]
    } else {
        (sorted[half - 1] + sorted[half]) / 2.0
    };
    [
        mean,
        var.sqrt(),
        median,
        sorted[0],
        sorted[sorted.len() - 1],
    ]
}

/// The 14 IP/UDP ML features of one window of video packets in arrival
/// order (Table 1's first two rows): bytes and packets per second over
/// `window_secs`, [`sorted_five`] of the sizes in bytes and of the gaps
/// between consecutive packets in ms, [`unique_sizes`], and
/// [`microbursts`] at threshold `theta_iat_us`.
///
/// # Panics
/// Panics if `window_secs` or `theta_iat_us` is not positive.
pub fn ipudp_features(pkts: &[PktObs], window_secs: f64, theta_iat_us: i64) -> [f64; 14] {
    assert!(window_secs > 0.0, "non-positive window");
    let sizes: Vec<f64> = pkts.iter().map(|p| f64::from(p.size)).collect();
    let gaps: Vec<f64> = pkts
        .windows(2)
        .map(|w| (w[1].ts - w[0].ts).as_millis_f64())
        .collect();
    let mut out = [0.0; 14];
    out[0] = sizes.iter().sum::<f64>() / window_secs;
    out[1] = pkts.len() as f64 / window_secs;
    out[2..7].copy_from_slice(&sorted_five(&sizes));
    out[7..12].copy_from_slice(&sorted_five(&gaps));
    out[12] = unique_sizes(pkts);
    out[13] = microbursts(pkts, theta_iat_us);
    out
}

/// The 12 RTP features of one window (Table 1's third row), from its
/// video and retransmission packets in arrival order: unique RTP
/// timestamps per stream, their intersection and union, marker bits per
/// stream, video sequence-number discontinuities, and [`sorted_five`] of
/// each frame's RTP lag in ms. A frame is a video RTP timestamp, listed
/// in order of its first packet and completed at the latest arrival among
/// its packets (on a time-ordered capture, its last). `lag_ref` is
/// the lag clock's zero, an arrival time and RTP timestamp; without one,
/// the window's first video packet is.
pub fn rtp_features(
    video: &[(Timestamp, RtpHeader)],
    rtx: &[(Timestamp, RtpHeader)],
    lag_ref: Option<(Timestamp, u32)>,
) -> [f64; 12] {
    let timestamps = |pkts: &[(Timestamp, RtpHeader)]| -> HashSet<u32> {
        pkts.iter().map(|(_, h)| h.timestamp).collect()
    };
    let markers = |pkts: &[(Timestamp, RtpHeader)]| pkts.iter().filter(|(_, h)| h.marker).count();
    let (vid_ts, rtx_ts) = (timestamps(video), timestamps(rtx));
    let both = vid_ts.iter().filter(|ts| rtx_ts.contains(ts)).count();
    let mut discontinuities = 0;
    for pair in video.windows(2) {
        if pair[1].1.sequence != pair[0].1.sequence.wrapping_add(1) {
            discontinuities += 1;
        }
    }
    let mut frames: Vec<(u32, Timestamp)> = Vec::new();
    let mut frame_of: HashMap<u32, usize> = HashMap::new();
    for &(t, h) in video {
        let i = *frame_of.entry(h.timestamp).or_insert_with(|| {
            frames.push((h.timestamp, t));
            frames.len() - 1
        });
        frames[i].1 = frames[i].1.max(t);
    }
    let lags: Vec<f64> = match lag_ref.or(video.first().map(|&(t, h)| (t, h.timestamp))) {
        Some((t0, ts0)) => frames
            .iter()
            .map(|&(ts, done)| RtpClock::video().lag_secs(t0, ts0, done, ts) * 1000.0)
            .collect(),
        None => Vec::new(),
    };
    let mut out = [0.0; 12];
    out[..7].copy_from_slice(&[
        vid_ts.len() as f64,
        rtx_ts.len() as f64,
        both as f64,
        (vid_ts.len() + rtx_ts.len() - both) as f64,
        markers(video) as f64,
        markers(rtx) as f64,
        f64::from(discontinuities),
    ]);
    out[7..].copy_from_slice(&sorted_five(&lags));
    out
}
