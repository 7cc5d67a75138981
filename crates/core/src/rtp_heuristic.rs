//! The RTP Heuristic baseline (§3.3): frame boundaries from the RTP
//! timestamp field (all packets of a frame share it) and the marker bit
//! (set on a frame's last packet). This mirrors the approach Michel et
//! al. used for Zoom.

use crate::frames::Frame;
use crate::trace::Trace;
use std::collections::VecDeque;
use vcaml_netpkt::Timestamp;

/// How many of the most recently opened frames a new packet is matched
/// against. A frame older than that can never change again and is sealed.
pub const SCAN_DEPTH: usize = 16;

struct Acc {
    id: u64,
    frame: Frame,
    marker_at: Option<Timestamp>,
}

impl Acc {
    fn finalize(self) -> (u64, Frame) {
        let mut f = self.frame;
        // Marker packet defines the end of the frame when present.
        if let Some(m) = self.marker_at {
            f.end_ts = m;
        }
        (self.id, f)
    }

    /// The earliest end time this frame can finalize with: the marker
    /// arrival once seen (later markers only move it forward), else the
    /// latest arrival so far.
    fn min_final_end(&self) -> Timestamp {
        self.marker_at.unwrap_or(self.frame.end_ts)
    }
}

/// Incremental RTP frame assembly: groups video packets by RTP timestamp,
/// matching each packet against the [`SCAN_DEPTH`] most recently opened
/// frames, and seals a frame as soon as it falls out of that scan window.
/// The batch [`assemble`] replays a trace through this; the streaming
/// engine feeds it packet by packet. State is O([`SCAN_DEPTH`]).
#[derive(Default)]
pub struct RtpAssembler {
    open: VecDeque<Acc>,
    next_id: u64,
}

impl RtpAssembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        RtpAssembler::default()
    }

    /// Offers one video-stream packet (`ts` non-decreasing): its arrival,
    /// RTP timestamp, marker bit, and IP total length. Appends any frames
    /// sealed by this packet, tagged with creation-order ids, into the
    /// caller-owned `sealed`.
    ///
    /// Frame sizes count RTP payload bytes (IP total length minus the 52
    /// bytes of IP/UDP/RTP headers), matching the heuristic bitrate
    /// accounting.
    pub fn push_into(
        &mut self,
        ts: Timestamp,
        rtp_ts: u32,
        marker: bool,
        size: u16,
        sealed: &mut Vec<(u64, Frame)>,
    ) {
        let payload = usize::from(size).saturating_sub(52).max(1);
        match self
            .open
            .iter_mut()
            .rev()
            .find(|a| a.frame.rtp_ts == Some(rtp_ts))
        {
            Some(a) => {
                a.frame.size_bytes += payload;
                a.frame.n_packets += 1;
                a.frame.start_ts = a.frame.start_ts.min(ts);
                a.frame.end_ts = a.frame.end_ts.max(ts);
                if marker {
                    a.marker_at = Some(ts);
                }
            }
            None => {
                self.open.push_back(Acc {
                    id: self.next_id,
                    frame: Frame {
                        start_ts: ts,
                        end_ts: ts,
                        size_bytes: payload,
                        n_packets: 1,
                        rtp_ts: Some(rtp_ts),
                    },
                    marker_at: marker.then_some(ts),
                });
                self.next_id += 1;
                while self.open.len() > SCAN_DEPTH {
                    #[expect(
                        clippy::expect_used,
                        reason = "loop guard holds open.len() > lookback, so the deque is non-empty"
                    )]
                    sealed.push(self.open.pop_front().expect("len checked").finalize());
                }
            }
        }
    }

    /// Seals every open frame (end of stream) into `out` and resets the
    /// assembler; the open deque keeps its capacity for the next stream.
    pub fn finish_into(&mut self, out: &mut Vec<(u64, Frame)>) {
        out.extend(self.open.drain(..).map(Acc::finalize));
    }

    /// Heap bytes currently held, for per-flow memory accounting.
    pub fn heap_bytes(&self) -> usize {
        self.open.capacity() * std::mem::size_of::<Acc>()
    }

    /// Earliest end time any open frame can still finalize with; windows
    /// strictly before this bound are final.
    pub fn min_open_end(&self) -> Option<Timestamp> {
        self.open.iter().map(Acc::min_final_end).min()
    }

    /// Number of frames still open (≤ [`SCAN_DEPTH`]).
    pub fn open_frames(&self) -> usize {
        self.open.len()
    }
}

/// Reconstructs frames from the trace's RTP video stream by replaying it
/// through the incremental [`RtpAssembler`].
///
/// Packets are grouped by RTP timestamp; the frame end time is the
/// arrival of its marker packet when one was received, else the last
/// arrival. Output frames are ordered by end time (creation order breaks
/// ties).
pub fn assemble(trace: &Trace) -> Vec<Frame> {
    let mut asm = RtpAssembler::new();
    let mut frames: Vec<(u64, Frame)> = Vec::new();
    for p in trace.rtp_video_packets() {
        #[expect(
            clippy::expect_used,
            reason = "rtp_video_packets filters on rtp.is_some()"
        )]
        let h = p.rtp.expect("rtp_video_packets yields RTP packets");
        asm.push_into(p.ts, h.timestamp, h.marker, p.size, &mut frames);
    }
    asm.finish_into(&mut frames);
    frames.sort_by_key(|&(id, f)| (f.end_ts, id));
    frames.into_iter().map(|(_, f)| f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TracePacket;
    use vcaml_rtp::{PayloadMap, RtpHeader, VcaKind};

    fn t(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn pkt(ms: i64, size: u16, pt: u8, seq: u16, ts: u32, marker: bool) -> TracePacket {
        TracePacket {
            ts: t(ms),
            size,
            rtp: Some(RtpHeader::basic(pt, seq, ts, 1, marker)),
            truth_media: None,
        }
    }

    fn trace(packets: Vec<TracePacket>) -> Trace {
        Trace {
            vca: VcaKind::Teams,
            payload_map: PayloadMap::lab(VcaKind::Teams),
            packets,
            truth: vec![],
            duration_secs: 0,
        }
    }

    #[test]
    fn groups_by_timestamp_and_marker_sets_end() {
        let tr = trace(vec![
            pkt(0, 1052, 102, 0, 100, false),
            pkt(1, 1052, 102, 1, 100, true),  // marker
            pkt(5, 1052, 102, 2, 100, false), // straggler after marker
            pkt(33, 900, 102, 3, 200, true),
        ]);
        let frames = assemble(&tr);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].n_packets, 3);
        assert_eq!(frames[0].end_ts, t(1)); // marker arrival, not straggler
        assert_eq!(frames[0].size_bytes, 3000);
        assert_eq!(frames[1].rtp_ts, Some(200));
    }

    #[test]
    fn ignores_audio_and_rtx() {
        let tr = trace(vec![
            pkt(0, 150, 111, 0, 1, false), // audio
            pkt(1, 304, 103, 0, 2, false), // rtx keepalive
            pkt(2, 1052, 102, 1, 100, true),
        ]);
        let frames = assemble(&tr);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].n_packets, 1);
    }

    #[test]
    fn no_marker_falls_back_to_last_arrival() {
        let tr = trace(vec![
            pkt(0, 1052, 102, 0, 100, false),
            pkt(4, 1052, 102, 1, 100, false),
        ]);
        let frames = assemble(&tr);
        assert_eq!(frames[0].end_ts, t(4));
    }

    #[test]
    fn reordered_frames_sorted_by_end() {
        let tr = trace(vec![
            pkt(0, 1052, 102, 0, 100, false),
            pkt(2, 900, 102, 1, 200, true), // frame 200 completes first
            pkt(50, 1052, 102, 2, 100, true),
        ]);
        let frames = assemble(&tr);
        assert_eq!(frames[0].rtp_ts, Some(200));
        assert_eq!(frames[1].rtp_ts, Some(100));
    }

    #[test]
    fn empty_trace() {
        assert!(assemble(&trace(vec![])).is_empty());
    }
}
