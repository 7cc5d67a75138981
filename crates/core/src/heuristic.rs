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

/// Incremental Algorithm 1: consumes video packets one at a time and
/// emits frames as soon as they are *sealed* — provably immutable because
/// their id has left the `Nmax` lookback set and can never be matched
/// again. This is the single implementation of frame assembly: the
/// IP/UDP Heuristic engine feeds it packet by packet.
///
/// State is O(`lookback`): the lookback set plus at most `lookback + 1`
/// open frames, independent of stream length. Both buffers are reserved
/// by the first video packet, so an assembler that never sees one (most
/// UDP flows on a tap carry no video) holds no heap.
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
            recent: std::collections::VecDeque::new(),
            open: Vec::new(),
            next_id: 0,
        }
    }

    /// Offers one video packet. Returns the frame id the packet was
    /// assigned to (ids count frames in creation order) and appends any
    /// frames sealed by this packet, each tagged with its id, into the
    /// caller-owned `sealed` (sealing happens every couple of packets, so a
    /// fresh `Vec` per call would dominate the hot path).
    ///
    /// The packet joins its frame through [`Frame::add`]: sizes subtract
    /// the 40-byte IP/UDP and 12-byte fixed RTP overheads per packet, as
    /// the paper's bitrate accounting does (§5.1.3), and a frame ends at
    /// its latest timestamp, so a `ts` that steps back never moves an end
    /// back.
    pub fn push_into(&mut self, ts: Timestamp, size: u16, sealed: &mut Vec<(u64, Frame)>) -> u64 {
        if self.open.capacity() == 0 {
            // The first video packet: reserve both buffers at their bound,
            // once, so neither regrows.
            self.recent.reserve_exact(self.params.lookback + 1);
            self.open.reserve_exact(self.params.lookback + 1);
        }
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
                f.add(ts, size);
                fid
            }
            None => {
                let fid = self.next_id;
                self.next_id += 1;
                self.open.push((fid, Frame::first(ts, size)));
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

    /// Heap bytes currently held, for per-flow memory accounting: zero
    /// until the first video packet, then `lookback + 1` slots in each
    /// buffer for the rest of the assembler's life.
    pub fn heap_bytes(&self) -> usize {
        self.recent.capacity() * std::mem::size_of::<(u16, u64)>()
            + self.open.capacity() * std::mem::size_of::<(u64, Frame)>()
    }

    /// Earliest end time any still-open frame currently has. An open
    /// frame's end only moves *forward* ([`Frame::add`] keeps the latest
    /// timestamp), so no open frame can end in a window strictly before
    /// this bound.
    pub fn min_open_end(&self) -> Option<Timestamp> {
        self.open.iter().map(|(_, f)| f.end_ts).min()
    }

    /// Number of frames still open (≤ lookback + 1).
    pub fn open_frames(&self) -> usize {
        self.open.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    /// The paper's Teams parameters: Δ = 2 bytes, lookback 2.
    fn teams() -> HeuristicParams {
        HeuristicParams::paper(VcaKind::Teams)
    }

    /// Feeds `(ms, size)` packets through one assembler: the frames by
    /// end time (creation order breaking ties) and each packet's frame id.
    fn run(pkts: &[(i64, u16)], params: HeuristicParams) -> (Vec<Frame>, Vec<u64>) {
        let mut asm = IpUdpAssembler::new(params);
        let mut frames = Vec::new();
        let ids = pkts
            .iter()
            .map(|&(ms, size)| asm.push_into(t(ms), size, &mut frames))
            .collect();
        asm.finish_into(&mut frames);
        frames.sort_by_key(|&(id, f)| (f.end_ts, id));
        (frames.into_iter().map(|(_, f)| f).collect(), ids)
    }

    #[test]
    fn equal_sizes_group_into_one_frame() {
        let (frames, ids) = run(&[(0, 1100), (1, 1100), (2, 1101)], teams());
        assert_eq!(ids, [0, 0, 0]);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].size_bytes, 1048 + 1048 + 1049);
    }

    #[test]
    fn size_jump_starts_new_frame() {
        let (frames, ids) = run(&[(0, 1100), (1, 1100), (33, 900), (34, 900)], teams());
        assert_eq!(ids, [0, 0, 1, 1]);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].size_bytes, 2 * 1048);
        assert_eq!(frames[1].size_bytes, 2 * 848);
        assert_eq!(frames[1].end_ts, t(34));
    }

    #[test]
    fn threshold_is_inclusive() {
        // Δ = 2: sizes 1000 and 1002 are the same frame; 1003 is not.
        let (frames, _) = run(&[(0, 1000), (1, 1002)], teams());
        assert_eq!(frames.len(), 1);
        let (frames, _) = run(&[(0, 1000), (1, 1003)], teams());
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
        let (frames_lb2, ids_lb2) = run(
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
        assert_eq!(ids_lb2, [0, 0, 1, 0, 1]);
    }

    #[test]
    fn similar_consecutive_frames_coalesce() {
        // The documented failure mode: two frames of identical packet
        // sizes merge (paper case 1).
        let (frames, ids) = run(&[(0, 1000), (1, 1000), (33, 1001), (34, 1001)], teams());
        assert_eq!(frames.len(), 1);
        assert_eq!(ids, [0, 0, 0, 0]);
    }

    #[test]
    fn unequal_fragmentation_splits() {
        // The Meet failure mode: intra-frame spread > Δ splits one frame
        // (paper case 2).
        let (frames, _) = run(&[(0, 1100), (1, 700)], teams());
        assert_eq!(frames.len(), 2);
    }

    #[test]
    fn payload_accounting_subtracts_headers() {
        let (frames, _) = run(&[(0, 1052)], teams());
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
        assert_eq!(asg, [0, 1, 1, 0]);
        assert_eq!(frames.len(), 2);
        let total: usize = frames.iter().map(|f| f.size_bytes).sum();
        assert_eq!(total, 1048 + 848 + 850 + 1048);
        // Packet 3 (1100) matches packet 0 via 3-deep lookback.
        assert_eq!(asg[3], asg[0]);
    }

    #[test]
    fn empty_input() {
        let (frames, asg) = run(&[], teams());
        assert!(frames.is_empty() && asg.is_empty());
    }

    #[test]
    fn paper_params_per_vca() {
        assert_eq!(HeuristicParams::paper(VcaKind::Meet).lookback, 3);
        assert_eq!(teams().lookback, 2);
        assert_eq!(HeuristicParams::paper(VcaKind::Webex).lookback, 1);
        for v in VcaKind::ALL {
            assert_eq!(HeuristicParams::paper(v).delta_max_size, 2);
        }
    }

    #[test]
    fn buffers_appear_with_the_first_packet_at_their_bound() {
        for lookback in 1..=4 {
            let mut asm = IpUdpAssembler::new(HeuristicParams {
                delta_max_size: 2,
                lookback,
            });
            assert_eq!(
                asm.heap_bytes(),
                0,
                "lookback {lookback}: heap before video"
            );
            let mut sealed = Vec::new();
            asm.push_into(t(0), 1100, &mut sealed);
            assert_eq!(
                (asm.recent.capacity(), asm.open.capacity()),
                (lookback + 1, lookback + 1),
                "lookback {lookback}"
            );
            // Alternating sizes open a frame per packet; nothing regrows.
            for ms in 1..50 {
                asm.push_into(t(ms), 700 + (ms % 2) as u16 * 400, &mut sealed);
            }
            assert_eq!(
                (asm.recent.capacity(), asm.open.capacity()),
                (lookback + 1, lookback + 1),
                "lookback {lookback}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "lookback")]
    fn zero_lookback_rejected() {
        let _ = IpUdpAssembler::new(HeuristicParams {
            delta_max_size: 2,
            lookback: 0,
        });
    }
}
