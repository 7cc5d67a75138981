//! Frame abstraction shared by both heuristics: "a VCA session can be
//! abstracted as a sequence of video frames, with each frame transmitted
//! sequentially over a group of RTP packets" (§3.2.1).
//!
//! Both assemblers ([`crate::heuristic::IpUdpAssembler`] from packet
//! sizes, [`crate::rtp_heuristic::RtpAssembler`] from RTP timestamps and
//! marker bits) reduce a packet stream to these [`Frame`]s; every QoE
//! estimate downstream — frame rate, bitrate, frame jitter — is computed
//! from frame end times and sizes alone.
//!
//! ```
//! use vcaml::Frame;
//! use vcaml_netpkt::Timestamp;
//!
//! // A 2-packet frame: first fragment at t=10 ms, last at t=13 ms.
//! let frame = Frame {
//!     start_ts: Timestamp::from_millis(10),
//!     end_ts: Timestamp::from_millis(13),
//!     size_bytes: 2_200,
//!     n_packets: 2,
//!     rtp_ts: None, // unknown to the IP/UDP reconstruction
//! };
//! assert_eq!(frame.end_ts - frame.start_ts, Timestamp::from_millis(3));
//! ```

use vcaml_netpkt::Timestamp;

/// A reconstructed (or ground-truth) video frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frame {
    /// Arrival time of the first packet assigned to the frame.
    pub start_ts: Timestamp,
    /// Arrival time of the last packet — the frame end time `ET_i` used
    /// for frame-rate and jitter estimation.
    pub end_ts: Timestamp,
    /// Total bytes across the frame's packets. For IP/UDP reconstruction
    /// this is IP total length minus the 40-byte IP/UDP and 12-byte RTP
    /// fixed overheads per packet (§5.1.3 subtracts the fixed RTP header).
    pub size_bytes: usize,
    /// Number of packets in the frame.
    pub n_packets: u32,
    /// RTP timestamp, when reconstructed from RTP headers (ground truth /
    /// RTP Heuristic).
    pub rtp_ts: Option<u32>,
}
