//! # vcaml-rtp — RTP/RTCP substrate
//!
//! RFC 3550 RTP header codec, payload-type registries and lab resolution
//! ladders for the three VCAs the paper studies (Google Meet, Microsoft
//! Teams, Cisco Webex), sequence number arithmetic with wrap-around
//! handling, media clocks, and a minimal RTCP subset (SR/RR + generic
//! NACK) used by the simulator's retransmission path.
//!
//! The *RTP baselines* of the paper (RTP Heuristic / RTP ML) parse exactly
//! the fields exposed here: payload type, marker bit, sequence number, and
//! timestamp.

pub mod clock;
pub mod header;
pub mod payload;
pub mod rtcp;
pub mod seq;

pub use clock::RtpClock;
pub use header::{RtpHeader, HEADER_LEN};
pub use payload::{LadderRung, MediaKind, PayloadMap, VcaKind};
pub use rtcp::{RtcpPacket, NACK_FMT};
pub use seq::{seq_distance, seq_greater, SequenceTracker};

/// The RTP video sampling frequency the paper assumes (RFC 6184: 90 kHz).
pub const VIDEO_CLOCK_HZ: u32 = 90_000;

/// Opus audio RTP clock (RFC 7587: always 48 kHz).
pub const AUDIO_CLOCK_HZ: u32 = 48_000;
