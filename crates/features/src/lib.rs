//! # vcaml-features — feature extraction (paper Table 1)
//!
//! Three feature families, computed per prediction window `W`:
//!
//! * **Flow-level statistics** (12): bytes/s, packets/s, and five order
//!   statistics each over packet sizes and inter-arrival times.
//! * **VCA-semantics features** (2): number of unique packet sizes and
//!   number of microbursts — the features derived from how VCAs fragment
//!   frames into packets (§3.2.2).
//! * **RTP features** (12): unique RTP timestamp counts over the video and
//!   retransmission streams plus their intersection/union, per-stream
//!   marker-bit sums, out-of-order sequence count, and five statistics of
//!   the RTP lag.
//!
//! `IP/UDP ML` uses the first two families (14 features); `RTP ML` uses
//! flow statistics + RTP features.
//!
//! Every formula is implemented **once**, as a single-pass accumulator
//! ([`FlowFeatureAcc`], [`IpUdpFeatureAcc`], [`RtpWindowAcc`]) that the
//! engines in `vcaml::engine` feed packet by packet. Nothing here takes a
//! packet slice: the whole-window reference the parity tests compare the
//! engines against is `vcaml_datasets::oracle`, written without this
//! crate.
pub mod flow_stats;
pub mod incremental;
pub mod rtp_feats;
pub mod stats;

pub use flow_stats::flow_feature_names;
pub use incremental::{FlowFeatureAcc, IpUdpFeatureAcc, StatsMode, DEFAULT_THETA_IAT_US};
pub use rtp_feats::{rtp_feature_names, LagReference, RtpWindowAcc};

/// Feature names for the IP/UDP ML model (flow stats + semantics).
pub fn ipudp_feature_names() -> Vec<String> {
    let mut names = flow_feature_names();
    names.push("# unique sizes".to_string());
    names.push("# microbursts".to_string());
    names
}
