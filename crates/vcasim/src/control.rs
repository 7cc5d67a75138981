//! Non-RTP session traffic: the DTLS handshake at call start and periodic
//! STUN keepalives.
//!
//! These are the packets behind the paper's Table 2 observation that a
//! small fraction of non-video packets get misclassified as video: "these
//! misclassified packets are server hello messages over DTLSv1.2 and the
//! key exchanges at the beginning of the call".

use rand::rngs::StdRng;
use rand::Rng;

/// STUN binding-indication keepalive interval (WebRTC sends one roughly
/// every 2.5 s on an active pair; we use 2 s).
pub const STUN_INTERVAL_MS: u64 = 2_000;

/// A non-RTP control packet scheduled for transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlPacket {
    /// Offset from call start, milliseconds.
    pub at_ms: u64,
    /// UDP payload size in bytes.
    pub payload: usize,
}

/// The downstream DTLS 1.2 handshake flight sequence as seen at the
/// receiver: ServerHello + Certificate (large, frequently above any video
/// size threshold), ServerKeyExchange/Done, ChangeCipherSpec/Finished,
/// preceded by STUN connectivity checks.
pub(crate) fn dtls_handshake(rng: &mut StdRng) -> Vec<ControlPacket> {
    let mut out = Vec::new();
    // STUN binding requests/responses during ICE.
    let mut t = 0u64;
    for _ in 0..rng.gen_range(3..6) {
        out.push(ControlPacket {
            at_ms: t,
            payload: rng.gen_range(20..120),
        });
        t += rng.gen_range(5..40);
    }
    // ServerHello + Certificate flight: 1–2 near-MTU records.
    for _ in 0..rng.gen_range(1..3) {
        out.push(ControlPacket {
            at_ms: t,
            payload: rng.gen_range(900..1250),
        });
        t += rng.gen_range(2..10);
    }
    // ServerKeyExchange + ServerHelloDone.
    out.push(ControlPacket {
        at_ms: t,
        payload: rng.gen_range(300..600),
    });
    t += rng.gen_range(10..40);
    // ChangeCipherSpec + Finished.
    out.push(ControlPacket {
        at_ms: t,
        payload: rng.gen_range(50..120),
    });
    out
}

/// STUN keepalive payload size (binding indication).
pub(crate) fn stun_keepalive_payload(rng: &mut StdRng) -> usize {
    rng.gen_range(20..64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn handshake_has_large_records() {
        let mut rng = StdRng::seed_from_u64(4);
        let hs = dtls_handshake(&mut rng);
        assert!(hs.iter().any(|p| p.payload >= 900), "no large DTLS record");
        assert!(hs.len() >= 6);
    }

    #[test]
    fn handshake_is_time_ordered() {
        let mut rng = StdRng::seed_from_u64(5);
        let hs = dtls_handshake(&mut rng);
        assert!(hs.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        // Whole handshake finishes well under a second.
        assert!(hs.last().unwrap().at_ms < 1_000);
    }

    #[test]
    fn stun_keepalives_are_small() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            let p = stun_keepalive_payload(&mut rng);
            assert!(p < 64);
        }
    }
}
