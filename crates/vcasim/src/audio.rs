//! Opus-like audio source: one packet every 20 ms with sizes inside the
//! paper's observed [89, 385]-byte envelope (IP total length, §3.1).

use rand::rngs::StdRng;
use rand::Rng;

/// Audio packet interval (Opus default frame duration).
pub const PACKET_INTERVAL_MS: u64 = 20;

/// IP+UDP+RTP overhead assumed when converting the paper's IP total-length
/// envelope into payload sizes (20 + 8 + 12).
const HEADER_OVERHEAD: usize = 40;

/// Paper-observed IP total-length bounds for audio packets.
pub const MIN_TOTAL: usize = 89;
/// Upper bound of the audio packet-size envelope.
pub const MAX_TOTAL: usize = 385;

/// Stateful audio payload-size generator: a slowly-varying Opus VBR rate
/// with occasional comfort-noise (DTX) small packets.
#[derive(Debug)]
pub struct AudioSource {
    /// Current VBR level in payload bytes.
    level: f64,
}

impl AudioSource {
    /// Creates a source at a typical speech level.
    pub fn new() -> Self {
        AudioSource { level: 120.0 }
    }

    /// Next RTP payload size in bytes.
    pub(crate) fn next_payload(&mut self, rng: &mut StdRng) -> usize {
        // Random-walk the VBR level inside the envelope.
        self.level = (self.level + rng.gen_range(-8.0..8.0)).clamp(
            (MIN_TOTAL - HEADER_OVERHEAD) as f64 + 6.0,
            (MAX_TOTAL - HEADER_OVERHEAD) as f64,
        );
        if rng.gen::<f64>() < 0.05 {
            // DTX / comfort noise: minimum-size packet.
            return MIN_TOTAL - HEADER_OVERHEAD;
        }
        let jittered = self.level + rng.gen_range(-12.0..12.0);
        (jittered as usize).clamp(MIN_TOTAL - HEADER_OVERHEAD, MAX_TOTAL - HEADER_OVERHEAD)
    }
}

impl Default for AudioSource {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sizes_stay_in_paper_envelope() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut src = AudioSource::new();
        for _ in 0..5000 {
            let total = src.next_payload(&mut rng) + HEADER_OVERHEAD;
            assert!((MIN_TOTAL..=MAX_TOTAL).contains(&total), "total {total}");
        }
    }

    #[test]
    fn sizes_vary() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut src = AudioSource::new();
        let sizes: Vec<usize> = (0..200).map(|_| src.next_payload(&mut rng)).collect();
        let distinct: std::collections::HashSet<_> = sizes.iter().collect();
        assert!(
            distinct.len() > 20,
            "only {} distinct sizes",
            distinct.len()
        );
    }

    #[test]
    fn dtx_packets_hit_floor() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut src = AudioSource::new();
        let floor = MIN_TOTAL - HEADER_OVERHEAD;
        let hits = (0..2000)
            .filter(|_| src.next_payload(&mut rng) == floor)
            .count();
        assert!(hits > 30, "only {hits} DTX packets");
    }
}
