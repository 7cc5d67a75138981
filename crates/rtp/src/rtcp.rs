//! Minimal RTCP subset: sender reports, receiver reports, and the generic
//! NACK feedback message (RFC 4585 §6.2.1) that drives the simulator's
//! retransmission stream.

use vcaml_netpkt::{Error, Result};

/// RTCP packet type for sender reports.
pub const PT_SR: u8 = 200;
/// RTCP packet type for receiver reports.
pub const PT_RR: u8 = 201;
/// RTCP packet type for transport-layer feedback.
pub const PT_RTPFB: u8 = 205;
/// FMT value selecting the generic NACK within RTPFB.
pub const NACK_FMT: u8 = 1;

/// Decoded RTCP packet (only the kinds the simulator exchanges).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtcpPacket {
    /// Sender report: who sent, their NTP-less timestamp pair, and counts.
    SenderReport {
        /// Sender SSRC.
        ssrc: u32,
        /// RTP timestamp corresponding to this report.
        rtp_ts: u32,
        /// Cumulative packets sent.
        packet_count: u32,
        /// Cumulative payload bytes sent.
        octet_count: u32,
    },
    /// Receiver report with a single report block.
    ReceiverReport {
        /// Reporter SSRC.
        ssrc: u32,
        /// Reported-on SSRC.
        source_ssrc: u32,
        /// Loss fraction since last report (fixed point /256).
        fraction_lost: u8,
        /// Cumulative packets lost (24-bit).
        cumulative_lost: u32,
        /// Extended highest sequence number received.
        highest_seq: u32,
        /// Interarrival jitter in RTP clock units.
        jitter: u32,
    },
    /// Generic NACK listing lost sequence numbers.
    Nack {
        /// Sender of the feedback.
        sender_ssrc: u32,
        /// Media source being NACKed.
        media_ssrc: u32,
        /// Lost packet IDs (decoded from PID+BLP pairs).
        lost_seqs: Vec<u16>,
    },
}

impl RtcpPacket {
    /// Serializes the packet, returning the wire bytes.
    pub fn emit(&self) -> Vec<u8> {
        match self {
            RtcpPacket::SenderReport {
                ssrc,
                rtp_ts,
                packet_count,
                octet_count,
            } => {
                let mut b = vec![0u8; 28];
                b[0] = 0x80; // V=2, no report blocks
                b[1] = PT_SR;
                let words = (b.len() / 4 - 1) as u16;
                b[2..4].copy_from_slice(&words.to_be_bytes());
                b[4..8].copy_from_slice(&ssrc.to_be_bytes());
                // NTP timestamp bytes 8..16 left zero: the simulator does
                // not model NTP sync.
                b[16..20].copy_from_slice(&rtp_ts.to_be_bytes());
                b[20..24].copy_from_slice(&packet_count.to_be_bytes());
                b[24..28].copy_from_slice(&octet_count.to_be_bytes());
                b
            }
            RtcpPacket::ReceiverReport {
                ssrc,
                source_ssrc,
                fraction_lost,
                cumulative_lost,
                highest_seq,
                jitter,
            } => {
                let mut b = vec![0u8; 32];
                b[0] = 0x81; // V=2, one report block
                b[1] = PT_RR;
                let words = (b.len() / 4 - 1) as u16;
                b[2..4].copy_from_slice(&words.to_be_bytes());
                b[4..8].copy_from_slice(&ssrc.to_be_bytes());
                b[8..12].copy_from_slice(&source_ssrc.to_be_bytes());
                b[12] = *fraction_lost;
                b[13..16].copy_from_slice(&cumulative_lost.to_be_bytes()[1..4]);
                b[16..20].copy_from_slice(&highest_seq.to_be_bytes());
                b[20..24].copy_from_slice(&jitter.to_be_bytes());
                // LSR/DLSR left zero.
                b
            }
            RtcpPacket::Nack {
                sender_ssrc,
                media_ssrc,
                lost_seqs,
            } => {
                let fci = encode_nack_fci(lost_seqs);
                let mut b = vec![0u8; 12 + fci.len() * 4];
                b[0] = 0x80 | NACK_FMT;
                b[1] = PT_RTPFB;
                let words = (b.len() / 4 - 1) as u16;
                b[2..4].copy_from_slice(&words.to_be_bytes());
                b[4..8].copy_from_slice(&sender_ssrc.to_be_bytes());
                b[8..12].copy_from_slice(&media_ssrc.to_be_bytes());
                for (i, (pid, blp)) in fci.iter().enumerate() {
                    b[12 + i * 4..14 + i * 4].copy_from_slice(&pid.to_be_bytes());
                    b[14 + i * 4..16 + i * 4].copy_from_slice(&blp.to_be_bytes());
                }
                b
            }
        }
    }

    /// Parses one RTCP packet from `buf`.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        if buf.len() < 8 {
            return Err(Error::Truncated {
                layer: "rtcp",
                needed: 8,
                got: buf.len(),
            });
        }
        if buf[0] >> 6 != 2 {
            return Err(Error::Malformed {
                layer: "rtcp",
                what: "version is not 2",
            });
        }
        let len_words = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        let total = (len_words + 1) * 4;
        if buf.len() < total {
            return Err(Error::Truncated {
                layer: "rtcp",
                needed: total,
                got: buf.len(),
            });
        }
        match buf[1] {
            PT_SR => {
                if total < 28 {
                    return Err(Error::Malformed {
                        layer: "rtcp",
                        what: "SR too short",
                    });
                }
                Ok(RtcpPacket::SenderReport {
                    ssrc: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
                    rtp_ts: u32::from_be_bytes([buf[16], buf[17], buf[18], buf[19]]),
                    packet_count: u32::from_be_bytes([buf[20], buf[21], buf[22], buf[23]]),
                    octet_count: u32::from_be_bytes([buf[24], buf[25], buf[26], buf[27]]),
                })
            }
            PT_RR => {
                if total < 32 {
                    return Err(Error::Malformed {
                        layer: "rtcp",
                        what: "RR too short",
                    });
                }
                Ok(RtcpPacket::ReceiverReport {
                    ssrc: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
                    source_ssrc: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
                    fraction_lost: buf[12],
                    cumulative_lost: u32::from_be_bytes([0, buf[13], buf[14], buf[15]]),
                    highest_seq: u32::from_be_bytes([buf[16], buf[17], buf[18], buf[19]]),
                    jitter: u32::from_be_bytes([buf[20], buf[21], buf[22], buf[23]]),
                })
            }
            PT_RTPFB if buf[0] & 0x1f == NACK_FMT => {
                let mut lost = Vec::new();
                let mut off = 12;
                while off + 4 <= total {
                    let pid = u16::from_be_bytes([buf[off], buf[off + 1]]);
                    let blp = u16::from_be_bytes([buf[off + 2], buf[off + 3]]);
                    lost.push(pid);
                    for bit in 0..16 {
                        if blp & (1 << bit) != 0 {
                            lost.push(pid.wrapping_add(bit + 1));
                        }
                    }
                    off += 4;
                }
                Ok(RtcpPacket::Nack {
                    sender_ssrc: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
                    media_ssrc: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
                    lost_seqs: lost,
                })
            }
            _ => Err(Error::Malformed {
                layer: "rtcp",
                what: "unsupported packet type",
            }),
        }
    }
}

/// Packs sorted-ish lost sequence numbers into (PID, BLP) pairs.
fn encode_nack_fci(lost: &[u16]) -> Vec<(u16, u16)> {
    let mut sorted: Vec<u16> = lost.to_vec();
    sorted.sort_by(|a, b| {
        if crate::seq::seq_greater(*b, *a) {
            std::cmp::Ordering::Less
        } else if a == b {
            std::cmp::Ordering::Equal
        } else {
            std::cmp::Ordering::Greater
        }
    });
    sorted.dedup();
    let mut out: Vec<(u16, u16)> = Vec::new();
    for s in sorted {
        match out.last_mut() {
            Some((pid, blp)) => {
                let d = s.wrapping_sub(*pid);
                if (1..=16).contains(&d) {
                    *blp |= 1 << (d - 1);
                } else {
                    out.push((s, 0));
                }
            }
            None => out.push((s, 0)),
        }
    }
    out
}

#[cfg(test)]
#[allow(
    clippy::wildcard_enum_match_arm,
    reason = "tests match out the one packet kind they check"
)]
mod tests {
    use super::*;

    #[test]
    fn sr_roundtrip() {
        let sr = RtcpPacket::SenderReport {
            ssrc: 0xaabbccdd,
            rtp_ts: 90_000,
            packet_count: 1234,
            octet_count: 999_999,
        };
        assert_eq!(RtcpPacket::parse(&sr.emit()).unwrap(), sr);
    }

    #[test]
    fn rr_roundtrip() {
        let rr = RtcpPacket::ReceiverReport {
            ssrc: 1,
            source_ssrc: 2,
            fraction_lost: 25,
            cumulative_lost: 0x00ab_cdef,
            highest_seq: 0x0001_ffff,
            jitter: 300,
        };
        assert_eq!(RtcpPacket::parse(&rr.emit()).unwrap(), rr);
    }

    #[test]
    fn nack_roundtrip_contiguous() {
        let nack = RtcpPacket::Nack {
            sender_ssrc: 7,
            media_ssrc: 8,
            lost_seqs: vec![100, 101, 102, 105],
        };
        match RtcpPacket::parse(&nack.emit()).unwrap() {
            RtcpPacket::Nack { lost_seqs, .. } => {
                assert_eq!(lost_seqs, vec![100, 101, 102, 105]);
            }
            other => panic!("wrong packet: {other:?}"),
        }
    }

    #[test]
    fn nack_roundtrip_spread_over_multiple_fci() {
        let lost = vec![10u16, 50, 90];
        let nack = RtcpPacket::Nack {
            sender_ssrc: 1,
            media_ssrc: 2,
            lost_seqs: lost.clone(),
        };
        match RtcpPacket::parse(&nack.emit()).unwrap() {
            RtcpPacket::Nack { lost_seqs, .. } => assert_eq!(lost_seqs, lost),
            other => panic!("wrong packet: {other:?}"),
        }
    }

    #[test]
    fn nack_wraps_and_dedups() {
        let nack = RtcpPacket::Nack {
            sender_ssrc: 1,
            media_ssrc: 2,
            lost_seqs: vec![0xffff, 0, 0, 1],
        };
        match RtcpPacket::parse(&nack.emit()).unwrap() {
            RtcpPacket::Nack { lost_seqs, .. } => assert_eq!(lost_seqs, vec![0xffff, 0, 1]),
            other => panic!("wrong packet: {other:?}"),
        }
    }

    #[test]
    fn rejects_truncated_and_bad_version() {
        assert!(RtcpPacket::parse(&[0x80, 200]).is_err());
        let mut sr = RtcpPacket::SenderReport {
            ssrc: 0,
            rtp_ts: 0,
            packet_count: 0,
            octet_count: 0,
        }
        .emit();
        sr[0] = 0x40;
        assert!(RtcpPacket::parse(&sr).is_err());
    }

    #[test]
    fn rejects_unknown_type() {
        let mut b = vec![0x80u8, 210, 0, 1, 0, 0, 0, 0];
        b.extend_from_slice(&[0; 0]);
        assert!(RtcpPacket::parse(&b).is_err());
    }
}
