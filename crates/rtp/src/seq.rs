//! RTP sequence-number arithmetic (RFC 3550 §A.1-style) and an extended
//! sequence tracker used both by the simulator's receiver and by the RTP-ML
//! "out-of-order sequence numbers" feature.

/// Returns true if `a` is strictly newer than `b` in 16-bit serial
/// arithmetic (RFC 1982 semantics with window 2^15).
pub fn seq_greater(a: u16, b: u16) -> bool {
    a != b && a.wrapping_sub(b) < 0x8000
}

/// Signed distance `a - b` interpreted in serial arithmetic; positive when
/// `a` is newer.
pub fn seq_distance(a: u16, b: u16) -> i32 {
    let d = a.wrapping_sub(b);
    if d < 0x8000 {
        i32::from(d)
    } else {
        i32::from(d) - 0x1_0000
    }
}

/// Tracks a stream's sequence numbers, extending them to 64 bits across
/// wrap-arounds and counting reordering/gap events.
#[derive(Debug, Clone, Default)]
pub struct SequenceTracker {
    highest_ext: Option<u64>,
    /// Packets that arrived with a sequence number older than the highest
    /// seen so far (late / reordered arrivals).
    pub reordered: u64,
    /// Sum of gap sizes skipped when the highest sequence jumped by more
    /// than one (an upper bound on losses before any retransmission).
    pub gap_packets: u64,
    /// Total packets observed.
    pub received: u64,
}

impl SequenceTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one arrived sequence number; returns its 64-bit extension.
    pub fn observe(&mut self, seq: u16) -> u64 {
        self.received += 1;
        let ext = match self.highest_ext {
            None => u64::from(seq),
            Some(high) => {
                let high_lo = (high & 0xffff) as u16;
                let cycles = high >> 16;
                let d = seq_distance(seq, high_lo);
                if d == 0 {
                    // Duplicate of the current highest: count as a
                    // reordering event, keep the same extension.
                    self.reordered += 1;
                    high
                } else if d > 0 {
                    let candidate = (cycles << 16) + u64::from(high_lo) + d as u64;
                    if d > 1 {
                        self.gap_packets += (d - 1) as u64;
                    }
                    candidate
                } else {
                    self.reordered += 1;
                    // Late packet: extend relative to the current cycle,
                    // borrowing one cycle if it wrapped backwards.
                    let ext = (cycles << 16) | u64::from(seq);
                    if seq > high_lo && cycles > 0 {
                        ext - 0x1_0000
                    } else {
                        ext
                    }
                }
            }
        };
        if self.highest_ext.is_none_or(|h| ext > h) {
            self.highest_ext = Some(ext);
        }
        ext
    }

    /// Highest extended sequence number observed, if any packet arrived.
    pub fn highest(&self) -> Option<u64> {
        self.highest_ext
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greater_basic() {
        assert!(seq_greater(2, 1));
        assert!(!seq_greater(1, 2));
        assert!(!seq_greater(5, 5));
    }

    #[test]
    fn greater_across_wrap() {
        assert!(seq_greater(0, 0xffff));
        assert!(seq_greater(10, 0xfff0));
        assert!(!seq_greater(0xffff, 0));
    }

    #[test]
    fn distance_signs() {
        assert_eq!(seq_distance(5, 3), 2);
        assert_eq!(seq_distance(3, 5), -2);
        assert_eq!(seq_distance(0, 0xffff), 1);
        assert_eq!(seq_distance(0xffff, 0), -1);
        assert_eq!(seq_distance(7, 7), 0);
    }

    #[test]
    fn tracker_in_order() {
        let mut t = SequenceTracker::new();
        for s in 0..100u16 {
            assert_eq!(t.observe(s), u64::from(s));
        }
        assert_eq!(t.reordered, 0);
        assert_eq!(t.gap_packets, 0);
        assert_eq!(t.received, 100);
        assert_eq!(t.highest(), Some(99));
    }

    #[test]
    fn tracker_counts_gaps() {
        let mut t = SequenceTracker::new();
        t.observe(0);
        t.observe(5); // skipped 1..4
        assert_eq!(t.gap_packets, 4);
        assert_eq!(t.highest(), Some(5));
    }

    #[test]
    fn tracker_counts_reordering() {
        let mut t = SequenceTracker::new();
        t.observe(10);
        t.observe(12);
        let ext = t.observe(11); // late arrival
        assert_eq!(ext, 11);
        assert_eq!(t.reordered, 1);
        assert_eq!(t.highest(), Some(12));
    }

    #[test]
    fn tracker_extends_across_wrap() {
        let mut t = SequenceTracker::new();
        t.observe(0xfffe);
        t.observe(0xffff);
        assert_eq!(t.observe(0), 0x1_0000);
        assert_eq!(t.observe(1), 0x1_0001);
        assert_eq!(t.reordered, 0);
    }

    #[test]
    fn tracker_late_across_wrap() {
        let mut t = SequenceTracker::new();
        t.observe(0xffff);
        t.observe(0); // wraps, cycle 1
        let ext = t.observe(0xfffe); // very late, still cycle 0
        assert_eq!(ext, 0xfffe);
        assert_eq!(t.reordered, 1);
    }

    #[test]
    fn tracker_duplicate_is_reordered_not_gap() {
        let mut t = SequenceTracker::new();
        t.observe(4);
        t.observe(4);
        assert_eq!(t.reordered, 1);
        assert_eq!(t.gap_packets, 0);
    }
}
