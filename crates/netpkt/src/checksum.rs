//! RFC 1071 internet checksum, shared by the IPv4 and UDP codecs.

/// Incremental one's-complement sum accumulator.
///
/// Feed it header/payload slices (and pseudo-header words) in any order —
/// the one's-complement sum is commutative — then call [`Checksum::finish`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Checksum {
    sum: u32,
}

impl Checksum {
    /// Creates an accumulator with a zero running sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a byte slice to the running sum. Odd-length slices are padded
    /// with a trailing zero byte as RFC 1071 requires.
    pub fn add_bytes(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            self.sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [last] = chunks.remainder() {
            self.sum += u32::from(u16::from_be_bytes([*last, 0]));
        }
    }

    /// Adds a single big-endian 16-bit word.
    pub(crate) fn add_u16(&mut self, word: u16) {
        self.sum += u32::from(word);
    }

    /// Folds the carries and returns the one's-complement checksum.
    pub fn finish(mut self) -> u16 {
        while self.sum > 0xffff {
            self.sum = (self.sum & 0xffff) + (self.sum >> 16);
        }
        !(self.sum as u16)
    }
}

/// Computes the checksum of a single contiguous buffer.
pub fn checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(data);
    c.finish()
}

/// Verifies a buffer whose checksum field is already filled in: the folded
/// sum over the entire buffer must be zero.
pub fn verify(data: &[u8]) -> bool {
    checksum(data) == 0
}

/// One's-complement sum of the IPv4 pseudo-header used by UDP/TCP.
pub(crate) fn pseudo_header_v4(src: [u8; 4], dst: [u8; 4], proto: u8, len: u16) -> Checksum {
    let mut c = Checksum::new();
    c.add_bytes(&src);
    c.add_bytes(&dst);
    c.add_u16(u16::from(proto));
    c.add_u16(len);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    // The canonical example from RFC 1071 §3.
    #[test]
    fn rfc1071_example() {
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let mut c = Checksum::new();
        c.add_bytes(&data);
        // RFC 1071 gives the sum 0xddf2 before complement.
        assert_eq!(c.finish(), !0xddf2);
    }

    #[test]
    fn odd_length_padded() {
        assert_eq!(checksum(&[0xab]), !0xab00);
    }

    #[test]
    fn filled_buffer_verifies() {
        let mut data = vec![
            0x45u8, 0x00, 0x00, 0x1c, 0x1d, 0x94, 0x00, 0x00, 0x40, 0x11, 0, 0,
        ];
        let ck = checksum(&data);
        data[10..12].copy_from_slice(&ck.to_be_bytes());
        assert!(verify(&data));
    }

    #[test]
    fn order_independent() {
        let a = [1u8, 2, 3, 4];
        let b = [9u8, 8, 7, 6];
        let mut c1 = Checksum::new();
        c1.add_bytes(&a);
        c1.add_bytes(&b);
        let mut c2 = Checksum::new();
        c2.add_bytes(&b);
        c2.add_bytes(&a);
        assert_eq!(c1.finish(), c2.finish());
    }

    #[test]
    fn empty_is_all_ones() {
        assert_eq!(checksum(&[]), 0xffff);
    }
}
