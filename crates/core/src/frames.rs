//! Frame abstraction shared by both heuristics: "a VCA session can be
//! abstracted as a sequence of video frames, with each frame transmitted
//! sequentially over a group of RTP packets" (§3.2.1).
//!
//! Both assemblers ([`crate::heuristic::IpUdpAssembler`] from packet
//! sizes, [`crate::rtp_heuristic::RtpAssembler`] from RTP timestamps and
//! marker bits) reduce a packet stream to these [`Frame`]s; every QoE
//! estimate downstream — frame rate, bitrate, frame jitter — is computed
//! from frame end times and sizes alone, so a frame holds nothing else.
//!
//! ```
//! use vcaml::Frame;
//! use vcaml_netpkt::Timestamp;
//!
//! // A 2-packet frame of 1 152-byte IP packets, at t=10 ms and t=13 ms.
//! let mut frame = Frame::first(Timestamp::from_millis(10), 1_152);
//! frame.add(Timestamp::from_millis(13), 1_152);
//! assert_eq!(frame.size_bytes, 2 * 1_100);
//! assert_eq!(frame.end_ts, Timestamp::from_millis(13));
//! // A packet carrying an earlier timestamp adds its bytes but does not
//! // move the end back.
//! frame.add(Timestamp::from_millis(11), 1_152);
//! assert_eq!(frame.end_ts, Timestamp::from_millis(13));
//! ```

use vcaml_netpkt::Timestamp;

/// A reconstructed video frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frame {
    /// The latest arrival time among the frame's packets — the frame end
    /// time `ET_i` used for frame-rate and jitter estimation. On a
    /// time-ordered capture it is the arrival of the last packet; a packet
    /// whose timestamp steps back never moves it back.
    pub end_ts: Timestamp,
    /// Total bytes across the frame's packets: IP total length minus the
    /// 40-byte IP/UDP and 12-byte RTP fixed overheads per packet (§5.1.3
    /// subtracts the fixed RTP header), at least 1 per packet.
    pub size_bytes: usize,
}

impl Frame {
    /// A frame of one packet of IP total length `size` arriving at `ts`.
    pub fn first(ts: Timestamp, size: u16) -> Self {
        Frame {
            end_ts: ts,
            size_bytes: payload(size),
        }
    }

    /// Adds one packet of IP total length `size` arriving at `ts`.
    pub fn add(&mut self, ts: Timestamp, size: u16) {
        self.size_bytes += payload(size);
        self.end_ts = self.end_ts.max(ts);
    }
}

/// A packet's payload bytes: IP total length less the 52 bytes of
/// IP/UDP/RTP headers, at least 1.
fn payload(size: u16) -> usize {
    usize::from(size).saturating_sub(52).max(1)
}
