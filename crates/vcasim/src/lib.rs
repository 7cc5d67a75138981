//! # vcaml-vcasim — WebRTC-style VCA session simulator
//!
//! Stands in for live Google Meet / Microsoft Teams / Cisco Webex calls.
//! The simulator reproduces, at packet granularity, every traffic-shaping
//! mechanism the paper's inference methods key on:
//!
//! * frames are encoded and transmitted **immediately** (microbursts);
//! * frames are fragmented into **equal-sized packets** (intra-frame packet
//!   size difference ≤ 1 byte) because FEC is most efficient that way —
//!   with a configurable fraction of **unequal** fragmentation reproducing
//!   the Meet/VP8 anomaly of §5.2.1;
//! * **VBR encoding** makes consecutive frames (and hence their packets)
//!   differ in size;
//! * a separate Opus **audio stream** of small packets, a **retransmission
//!   stream** answering NACKs plus 304-byte **keepalives**, and **DTLS**
//!   handshake packets at call start;
//! * a GCC-like **rate controller** moving the encoder along each VCA's
//!   resolution/frame-rate ladder;
//! * a receiver with a **jitter buffer + decoder** whose per-second stats
//!   define ground truth the same way `webrtc-internals` does (frame jitter
//!   measured over *decoded* frames, §5.1.4).
//!
//! The output of [`Session::run`] is a [`SessionTrace`]: the packet
//! sequence a passive monitor at the receiver's access link would capture,
//! plus per-second ground-truth QoE. [`render_pcap`] turns its packets
//! into the pcap bytes a tap would have written, and
//! [`synthetic_capture`] renders a mix of concurrent calls that way.

pub mod audio;
pub mod capture;
pub mod codec;
pub mod control;
pub mod modes;
pub mod packetizer;
pub mod profiles;
pub mod rate;
pub mod receiver;
pub mod session;

pub use capture::{render_pcap, synthetic_capture, MAX_SYNTHETIC_CALLS};
pub use codec::{FrameSource, VideoFrame};
pub use modes::{dtx_segment, merge_multiparty, video_off};
pub use packetizer::{packetize, FragmentPolicy};
pub use profiles::VcaProfile;
pub use rate::RateController;
pub use receiver::{Receiver, SecondTruth};
pub use session::{Session, SessionConfig, SessionTrace, SimPacket};
pub use vcaml_rtp::LadderRung;
