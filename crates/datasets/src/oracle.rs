//! Whole-trace reference estimators: the batch forms of the paper's two
//! heuristics and of end-time windowing, kept beside the corpora as test
//! oracles and for the Fig 4 error taxonomy.
//!
//! The product estimates packet by packet through `vcaml::engine`; these
//! functions replay a finished packet list through the same assemblers
//! and windower and collect everything at the end, so a streaming run
//! can be checked against an independent driver window for window.
//!
//! * [`ipudp_frames`] — Algorithm 1 over video packets, with the frame
//!   id each packet was assigned to;
//! * [`rtp_frames`] — RTP timestamp/marker grouping over a trace's
//!   payload-type video stream;
//! * [`estimate_windows`] — frame rate, bitrate and frame jitter per
//!   window, frames bucketed by end time.

use vcaml::heuristic::{HeuristicParams, IpUdpAssembler};
use vcaml::qoe::{QoeEstimate, QoeWindower};
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
/// seconds and estimates the three metrics in each. Frames ending beyond
/// the last window (or at negative times) are ignored; a window without
/// frames estimates zero.
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

fn by_end_time(mut frames: Vec<(u64, Frame)>) -> Vec<Frame> {
    frames.sort_by_key(|&(id, f)| (f.end_ts, id));
    frames.into_iter().map(|(_, f)| f).collect()
}
