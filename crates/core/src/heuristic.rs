//! The IP/UDP Heuristic (paper Algorithm 1): frame-boundary detection
//! using only packet sizes.
//!
//! Because VCAs fragment each frame into equal-sized packets while
//! consecutive frames differ in size, a packet whose size is within
//! `Δmax_size` of a recently seen packet belongs to that packet's frame;
//! otherwise it starts a new frame. Comparing against up to `Nmax`
//! previous packets (most recent first) absorbs mild reordering.

use crate::frames::Frame;
use vcaml_netpkt::Timestamp;
use vcaml_rtp::VcaKind;

/// Parameters of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeuristicParams {
    /// Maximum intra-frame packet size difference, bytes (paper: 2 for
    /// all VCAs).
    pub delta_max_size: u16,
    /// How many previous packets to compare against (paper §4.3: Meet 3,
    /// Teams 2, Webex 1).
    pub lookback: usize,
}

impl HeuristicParams {
    /// The paper's per-VCA parameterization (§4.3).
    pub fn paper(vca: VcaKind) -> Self {
        let lookback = match vca {
            VcaKind::Meet => 3,
            VcaKind::Teams => 2,
            VcaKind::Webex => 1,
        };
        HeuristicParams {
            delta_max_size: 2,
            lookback,
        }
    }
}

impl Default for HeuristicParams {
    fn default() -> Self {
        HeuristicParams {
            delta_max_size: 2,
            lookback: 2,
        }
    }
}

/// Per-packet frame assignment produced by the heuristic (used by the
/// error-taxonomy analysis of Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Index of the packet in the input sequence.
    pub packet_idx: usize,
    /// Heuristic frame id the packet was assigned to.
    pub frame_id: usize,
}

/// Incremental Algorithm 1: consumes video packets one at a time and
/// emits frames as soon as they are *sealed* — provably immutable because
/// their id has left the `Nmax` lookback set and can never be matched
/// again. This is the single implementation of frame assembly; the batch
/// [`IpUdpHeuristic::assemble`] replays a slice through it.
///
/// State is O(`lookback`): the lookback set plus at most `lookback + 1`
/// open frames, independent of stream length.
#[derive(Debug, Clone)]
pub struct IpUdpAssembler {
    params: HeuristicParams,
    /// `(size, frame id)` of the last `lookback` packets, most recent last.
    recent: std::collections::VecDeque<(u16, u64)>,
    /// Frames whose ids are still in the lookback set, in ascending id
    /// order (ids are created ascending and removals preserve order).
    /// At most `lookback + 1` entries, so linear scans beat hashing.
    open: Vec<(u64, Frame)>,
    next_id: u64,
}

impl IpUdpAssembler {
    /// Creates an assembler with explicit parameters.
    pub fn new(params: HeuristicParams) -> Self {
        assert!(params.lookback >= 1, "lookback must be at least 1");
        IpUdpAssembler {
            params,
            recent: std::collections::VecDeque::with_capacity(params.lookback + 1),
            open: Vec::with_capacity(params.lookback + 1),
            next_id: 0,
        }
    }

    /// Offers one video packet (`ts` non-decreasing). Returns the frame id
    /// the packet was assigned to (ids count frames in creation order) and
    /// appends any frames sealed by this packet, each tagged with its id,
    /// into the caller-owned `sealed` (sealing happens every couple of
    /// packets, so a fresh `Vec` per call would dominate the hot path).
    ///
    /// Frame sizes subtract the 40-byte IP/UDP and 12-byte fixed RTP
    /// overheads per packet, as the paper's bitrate accounting does
    /// (§5.1.3).
    pub fn push_into(&mut self, ts: Timestamp, size: u16, sealed: &mut Vec<(u64, Frame)>) -> u64 {
        let payload = usize::from(size).saturating_sub(52).max(1);
        // Compare with up to Nmax previous packets, most recent first.
        let matched = self
            .recent
            .iter()
            .rev()
            .find(|(s, _)| s.abs_diff(size) <= self.params.delta_max_size)
            .map(|&(_, fid)| fid);
        let fid = match matched {
            Some(fid) => {
                // Matched frames are overwhelmingly the newest: scan from
                // the back.
                #[expect(
                    clippy::expect_used,
                    reason = "frame index comes from the open-frame scan just above"
                )]
                let (_, f) = self
                    .open
                    .iter_mut()
                    .rev()
                    .find(|(id, _)| *id == fid)
                    .expect("matched frame is open");
                f.size_bytes += payload;
                f.n_packets += 1;
                f.end_ts = f.end_ts.max(ts);
                f.start_ts = f.start_ts.min(ts);
                fid
            }
            None => {
                let fid = self.next_id;
                self.next_id += 1;
                self.open.push((
                    fid,
                    Frame {
                        start_ts: ts,
                        end_ts: ts,
                        size_bytes: payload,
                        n_packets: 1,
                        rtp_ts: None,
                    },
                ));
                fid
            }
        };
        if self.recent.len() == self.params.lookback {
            #[expect(
                clippy::expect_used,
                reason = "loop guard holds recent.len() > lookback, so the deque is non-empty"
            )]
            let (_, evicted) = self.recent.pop_front().expect("non-empty lookback");
            // Seal the evicted frame once no other lookback entry keeps it
            // matchable (and the current packet did not rejoin it).
            if evicted != fid && !self.recent.iter().any(|&(_, f)| f == evicted) {
                // Evicted ids are the oldest: scan from the front. The
                // order-preserving remove keeps `open` id-sorted.
                if let Some(pos) = self.open.iter().position(|(id, _)| *id == evicted) {
                    let (_, frame) = self.open.remove(pos);
                    sealed.push((evicted, frame));
                }
            }
        }
        self.recent.push_back((size, fid));
        fid
    }

    /// Seals every open frame (end of stream) into `out` and resets the
    /// assembler; the open list and lookback deque retain their capacity
    /// for the next stream.
    pub fn finish_into(&mut self, out: &mut Vec<(u64, Frame)>) {
        self.recent.clear();
        // `open` is id-sorted by construction, so the append is too; it
        // leaves `open` empty with its capacity retained.
        out.append(&mut self.open);
    }

    /// Heap bytes currently held, for per-flow memory accounting.
    pub fn heap_bytes(&self) -> usize {
        self.recent.capacity() * std::mem::size_of::<(u16, u64)>()
            + self.open.capacity() * std::mem::size_of::<(u64, Frame)>()
    }

    /// Earliest end time any still-open frame currently has. Open frames
    /// can only move *forward* in time, so every window strictly before
    /// this bound is final.
    pub fn min_open_end(&self) -> Option<Timestamp> {
        self.open.iter().map(|(_, f)| f.end_ts).min()
    }

    /// Number of frames still open (≤ lookback + 1).
    pub fn open_frames(&self) -> usize {
        self.open.len()
    }
}

/// The IP/UDP Heuristic frame-boundary estimator.
#[derive(Debug, Clone, Copy, Default)]
pub struct IpUdpHeuristic {
    /// Algorithm parameters.
    pub params: HeuristicParams,
}

impl IpUdpHeuristic {
    /// Creates the estimator with explicit parameters.
    pub fn new(params: HeuristicParams) -> Self {
        assert!(params.lookback >= 1, "lookback must be at least 1");
        IpUdpHeuristic { params }
    }

    /// Runs Algorithm 1 over video packets `(arrival, ip_total_len)` in
    /// arrival order by replaying them through the incremental
    /// [`IpUdpAssembler`]. Returns the reconstructed frames (ordered by
    /// end time) and the per-packet assignments (frame ids in creation
    /// order).
    pub fn assemble(&self, packets: &[(Timestamp, u16)]) -> (Vec<Frame>, Vec<Assignment>) {
        let mut asm = IpUdpAssembler::new(self.params);
        let mut assignments = Vec::with_capacity(packets.len());
        let mut frames: Vec<(u64, Frame)> = Vec::new();
        for (i, &(ts, size)) in packets.iter().enumerate() {
            let fid = asm.push_into(ts, size, &mut frames);
            assignments.push(Assignment {
                packet_idx: i,
                frame_id: fid as usize,
            });
        }
        asm.finish_into(&mut frames);
        // End-time order with creation order breaking ties, matching the
        // stable sort the batch algorithm historically applied.
        frames.sort_by_key(|&(id, f)| (f.end_ts, id));
        (frames.into_iter().map(|(_, f)| f).collect(), assignments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn run(pkts: &[(i64, u16)], params: HeuristicParams) -> (Vec<Frame>, Vec<Assignment>) {
        let input: Vec<(Timestamp, u16)> = pkts.iter().map(|&(ms, s)| (t(ms), s)).collect();
        IpUdpHeuristic::new(params).assemble(&input)
    }

    #[test]
    fn equal_sizes_group_into_one_frame() {
        let (frames, _) = run(
            &[(0, 1100), (1, 1100), (2, 1101)],
            HeuristicParams::default(),
        );
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].n_packets, 3);
    }

    #[test]
    fn size_jump_starts_new_frame() {
        let (frames, _) = run(
            &[(0, 1100), (1, 1100), (33, 900), (34, 900)],
            HeuristicParams::default(),
        );
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].n_packets, 2);
        assert_eq!(frames[1].n_packets, 2);
        assert_eq!(frames[1].end_ts, t(34));
    }

    #[test]
    fn threshold_is_inclusive() {
        // Δ = 2: sizes 1000 and 1002 are the same frame; 1003 is not.
        let (frames, _) = run(&[(0, 1000), (1, 1002)], HeuristicParams::default());
        assert_eq!(frames.len(), 1);
        let (frames, _) = run(&[(0, 1000), (1, 1003)], HeuristicParams::default());
        assert_eq!(frames.len(), 2);
    }

    #[test]
    fn lookback_recovers_interleaved_packet() {
        // Frame A (1100) interleaved with frame B (800):
        // A A B A B — the late A packet is 2 back from the last.
        let pkts = [(0, 1100), (1, 1100), (2, 800), (3, 1101), (4, 801)];
        let (frames_lb1, _) = run(
            &pkts,
            HeuristicParams {
                delta_max_size: 2,
                lookback: 1,
            },
        );
        let (frames_lb2, _) = run(
            &pkts,
            HeuristicParams {
                delta_max_size: 2,
                lookback: 2,
            },
        );
        // Lookback 1 can only match against the immediately preceding
        // packet, so both interleaved packets open spurious frames.
        assert_eq!(frames_lb1.len(), 4);
        // Lookback 2 assigns it back to frame A.
        assert_eq!(frames_lb2.len(), 2);
        assert_eq!(frames_lb2.iter().map(|f| f.n_packets).sum::<u32>(), 5);
    }

    #[test]
    fn similar_consecutive_frames_coalesce() {
        // The documented failure mode: two frames of identical packet
        // sizes merge (paper case 1).
        let (frames, _) = run(
            &[(0, 1000), (1, 1000), (33, 1001), (34, 1001)],
            HeuristicParams::default(),
        );
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].n_packets, 4);
    }

    #[test]
    fn unequal_fragmentation_splits() {
        // The Meet failure mode: intra-frame spread > Δ splits one frame
        // (paper case 2).
        let (frames, _) = run(&[(0, 1100), (1, 700)], HeuristicParams::default());
        assert_eq!(frames.len(), 2);
    }

    #[test]
    fn payload_accounting_subtracts_headers() {
        let (frames, _) = run(&[(0, 1052)], HeuristicParams::default());
        assert_eq!(frames[0].size_bytes, 1000);
    }

    #[test]
    fn assignments_cover_all_packets() {
        let pkts = [(0, 1100), (1, 900), (2, 902), (3, 1100)];
        let (frames, asg) = run(
            &pkts,
            HeuristicParams {
                delta_max_size: 2,
                lookback: 3,
            },
        );
        assert_eq!(asg.len(), 4);
        let total: u32 = frames.iter().map(|f| f.n_packets).sum();
        assert_eq!(total, 4);
        // Packet 3 (1100) matches packet 0 via 3-deep lookback.
        assert_eq!(asg[3].frame_id, asg[0].frame_id);
    }

    #[test]
    fn empty_input() {
        let (frames, asg) = run(&[], HeuristicParams::default());
        assert!(frames.is_empty() && asg.is_empty());
    }

    #[test]
    fn paper_params_per_vca() {
        assert_eq!(HeuristicParams::paper(VcaKind::Meet).lookback, 3);
        assert_eq!(HeuristicParams::paper(VcaKind::Teams).lookback, 2);
        assert_eq!(HeuristicParams::paper(VcaKind::Webex).lookback, 1);
        for v in VcaKind::ALL {
            assert_eq!(HeuristicParams::paper(v).delta_max_size, 2);
        }
    }

    #[test]
    #[should_panic(expected = "lookback")]
    fn zero_lookback_rejected() {
        let _ = IpUdpHeuristic::new(HeuristicParams {
            delta_max_size: 2,
            lookback: 0,
        });
    }
}
