//! RTP sequence-number arithmetic (RFC 3550 §A.1-style serial
//! comparison), used by the simulator's receiver and retransmission
//! bookkeeping.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_signs() {
        assert_eq!(seq_distance(5, 3), 2);
        assert_eq!(seq_distance(3, 5), -2);
        assert_eq!(seq_distance(0, 0xffff), 1);
        assert_eq!(seq_distance(0xffff, 0), -1);
        assert_eq!(seq_distance(7, 7), 0);
    }
}
