//! RFC 3550 §5.1 fixed RTP header codec.

use vcaml_netpkt::{Error, Result};

/// Fixed RTP header length (no CSRC, no extension) — the 12 bytes the
/// paper subtracts as per-packet RTP overhead in the heuristics.
pub const HEADER_LEN: usize = 12;

/// Decoded RTP fixed header.
///
/// CSRC entries and header extensions are length-validated and skipped; the
/// payload accessor accounts for them. Padding (P bit) is honoured when
/// delimiting the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtpHeader {
    /// Marker bit — set on the last packet of a video frame, which is what
    /// the RTP Heuristic uses to detect frame ends.
    pub marker: bool,
    /// 7-bit payload type identifying the media format.
    pub payload_type: u8,
    /// 16-bit sequence number (increments by one per packet).
    pub sequence: u16,
    /// 32-bit media timestamp; all packets of one frame share it.
    pub timestamp: u32,
    /// Synchronization source identifier.
    pub ssrc: u32,
    /// Number of CSRC entries present (0–15).
    pub csrc_count: u8,
    /// Whether a header extension follows the fixed header.
    pub has_extension: bool,
    /// Whether the payload is padded.
    pub has_padding: bool,
}

impl RtpHeader {
    /// Parses the fixed header from the start of an RTP packet, validating
    /// the version and that CSRCs + extension fit in the buffer.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        let Some(fixed) = buf.first_chunk::<HEADER_LEN>() else {
            return Err(Error::Truncated {
                layer: "rtp",
                needed: HEADER_LEN,
                got: buf.len(),
            });
        };
        let Some(hdr) = Self::from_fixed_bytes(fixed) else {
            return Err(Error::Malformed {
                layer: "rtp",
                what: "version is not 2",
            });
        };
        // Validate that the declared CSRC list and extension header fit.
        let needed = hdr.payload_offset_unchecked(buf)?;
        if buf.len() < needed {
            return Err(Error::Truncated {
                layer: "rtp",
                needed,
                got: buf.len(),
            });
        }
        Ok(hdr)
    }

    /// Decodes the 12-byte fixed header in wire form; `None` unless the
    /// version field is 2. The CSRC list and extension that may follow
    /// are not looked at: [`RtpHeader::parse`] validates those.
    #[inline]
    pub fn from_fixed_bytes(fixed: &[u8; HEADER_LEN]) -> Option<Self> {
        if fixed[0] >> 6 != 2 {
            return None;
        }
        let [b0, b1, s0, s1, t0, t1, t2, t3, c0, c1, c2, c3] = *fixed;
        Some(RtpHeader {
            has_padding: b0 & 0x20 != 0,
            has_extension: b0 & 0x10 != 0,
            csrc_count: b0 & 0x0f,
            marker: b1 & 0x80 != 0,
            payload_type: b1 & 0x7f,
            sequence: u16::from_be_bytes([s0, s1]),
            timestamp: u32::from_be_bytes([t0, t1, t2, t3]),
            ssrc: u32::from_be_bytes([c0, c1, c2, c3]),
        })
    }

    /// The fixed header in wire form, version 2, X bit included (unlike
    /// [`RtpHeader::emit`], which never emits an extension), so
    /// [`RtpHeader::from_fixed_bytes`] gives back every field. A field
    /// wider than its wire slot — `payload_type` above 127, `csrc_count`
    /// above 15 — keeps only the bits the slot holds.
    #[inline]
    pub fn to_fixed_bytes(&self) -> [u8; HEADER_LEN] {
        let mut fixed = [0; HEADER_LEN];
        fixed[0] = 0x80
            | (u8::from(self.has_padding) << 5)
            | (u8::from(self.has_extension) << 4)
            | (self.csrc_count & 0x0f);
        fixed[1] = (u8::from(self.marker) << 7) | (self.payload_type & 0x7f);
        fixed[2..4].copy_from_slice(&self.sequence.to_be_bytes());
        fixed[4..8].copy_from_slice(&self.timestamp.to_be_bytes());
        fixed[8..12].copy_from_slice(&self.ssrc.to_be_bytes());
        fixed
    }

    fn payload_offset_unchecked(&self, buf: &[u8]) -> Result<usize> {
        let mut off = HEADER_LEN + usize::from(self.csrc_count) * 4;
        if self.has_extension {
            if buf.len() < off + 4 {
                return Err(Error::Truncated {
                    layer: "rtp",
                    needed: off + 4,
                    got: buf.len(),
                });
            }
            let ext_words = u16::from_be_bytes([buf[off + 2], buf[off + 3]]) as usize;
            off += 4 + ext_words * 4;
        }
        Ok(off)
    }

    /// Byte offset of the payload within the packet.
    pub fn payload_offset(&self, buf: &[u8]) -> Result<usize> {
        self.payload_offset_unchecked(buf)
    }

    /// Returns the media payload, skipping CSRCs/extension and trimming
    /// padding if the P bit is set.
    pub fn payload<'a>(&self, buf: &'a [u8]) -> Result<&'a [u8]> {
        let off = self.payload_offset(buf)?;
        let mut end = buf.len();
        if self.has_padding {
            if end <= off {
                return Err(Error::Malformed {
                    layer: "rtp",
                    what: "padding with empty payload",
                });
            }
            let pad = buf[end - 1] as usize;
            if pad == 0 || off + pad > end {
                return Err(Error::Malformed {
                    layer: "rtp",
                    what: "invalid padding length",
                });
            }
            end -= pad;
        }
        Ok(&buf[off..end])
    }

    /// Serialized length of this header (fixed part + CSRCs; extensions are
    /// never emitted by this library).
    pub fn header_len(&self) -> usize {
        HEADER_LEN + usize::from(self.csrc_count) * 4
    }

    /// Emits the fixed header (CSRC list bytes, if any, are zeroed).
    ///
    /// # Panics
    /// Panics if `buf` is shorter than [`RtpHeader::header_len`] or if
    /// `payload_type` exceeds 7 bits.
    pub fn emit(&self, buf: &mut [u8]) {
        assert!(self.payload_type <= 0x7f, "payload type exceeds 7 bits");
        assert!(self.csrc_count <= 15, "too many CSRCs");
        let mut fixed = self.to_fixed_bytes();
        // No extension follows what this writes.
        fixed[0] &= !0x10;
        buf[..HEADER_LEN].copy_from_slice(&fixed);
        for i in 0..usize::from(self.csrc_count) {
            buf[HEADER_LEN + i * 4..HEADER_LEN + (i + 1) * 4].fill(0);
        }
    }

    /// Convenience constructor for the common no-CSRC, no-extension case.
    pub fn basic(payload_type: u8, sequence: u16, timestamp: u32, ssrc: u32, marker: bool) -> Self {
        RtpHeader {
            marker,
            payload_type,
            sequence,
            timestamp,
            ssrc,
            csrc_count: 0,
            has_extension: false,
            has_padding: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basic() {
        let h = RtpHeader::basic(102, 0xbeef, 0xdead_beef, 0x1234_5678, true);
        let mut buf = vec![0u8; HEADER_LEN + 5];
        h.emit(&mut buf);
        buf[HEADER_LEN..].copy_from_slice(b"video");
        let parsed = RtpHeader::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(parsed.payload(&buf).unwrap(), b"video");
    }

    #[test]
    fn rejects_wrong_version() {
        let buf = [0x40u8; HEADER_LEN];
        assert!(matches!(
            RtpHeader::parse(&buf),
            Err(Error::Malformed { .. })
        ));
    }

    #[test]
    fn rejects_short_buffer() {
        assert!(matches!(
            RtpHeader::parse(&[0x80; 5]),
            Err(Error::Truncated { .. })
        ));
    }

    #[test]
    fn csrc_skipped() {
        let h = RtpHeader {
            csrc_count: 2,
            ..RtpHeader::basic(96, 1, 2, 3, false)
        };
        let mut buf = vec![0u8; HEADER_LEN + 8 + 3];
        h.emit(&mut buf);
        buf[HEADER_LEN + 8..].copy_from_slice(b"abc");
        let parsed = RtpHeader::parse(&buf).unwrap();
        assert_eq!(parsed.csrc_count, 2);
        assert_eq!(parsed.payload(&buf).unwrap(), b"abc");
    }

    #[test]
    fn truncated_csrc_rejected() {
        let h = RtpHeader {
            csrc_count: 3,
            ..RtpHeader::basic(96, 1, 2, 3, false)
        };
        let mut buf = vec![0u8; HEADER_LEN + 12];
        h.emit(&mut buf);
        assert!(matches!(
            RtpHeader::parse(&buf[..HEADER_LEN + 4]),
            Err(Error::Truncated { .. })
        ));
    }

    #[test]
    fn extension_skipped() {
        let h = RtpHeader::basic(96, 1, 2, 3, false);
        let mut buf = vec![0u8; HEADER_LEN + 4 + 8 + 2];
        h.emit(&mut buf);
        buf[0] |= 0x10; // X bit
                        // Extension header: profile 0xbede, length = 2 words.
        buf[HEADER_LEN..HEADER_LEN + 2].copy_from_slice(&0xbedeu16.to_be_bytes());
        buf[HEADER_LEN + 2..HEADER_LEN + 4].copy_from_slice(&2u16.to_be_bytes());
        buf[HEADER_LEN + 12..].copy_from_slice(b"ok");
        let parsed = RtpHeader::parse(&buf).unwrap();
        assert!(parsed.has_extension);
        assert_eq!(parsed.payload(&buf).unwrap(), b"ok");
    }

    #[test]
    fn truncated_extension_rejected() {
        let h = RtpHeader::basic(96, 1, 2, 3, false);
        let mut buf = vec![0u8; HEADER_LEN + 4];
        h.emit(&mut buf);
        buf[0] |= 0x10;
        buf[HEADER_LEN + 2..HEADER_LEN + 4].copy_from_slice(&4u16.to_be_bytes());
        assert!(matches!(
            RtpHeader::parse(&buf),
            Err(Error::Truncated { .. })
        ));
    }

    #[test]
    fn padding_trimmed() {
        let h = RtpHeader {
            has_padding: true,
            ..RtpHeader::basic(96, 1, 2, 3, false)
        };
        let mut buf = vec![0u8; HEADER_LEN + 6];
        h.emit(&mut buf);
        buf[HEADER_LEN..HEADER_LEN + 3].copy_from_slice(b"xyz");
        buf[HEADER_LEN + 5] = 3; // 3 bytes of padding
        let parsed = RtpHeader::parse(&buf).unwrap();
        assert_eq!(parsed.payload(&buf).unwrap(), b"xyz");
    }

    #[test]
    fn invalid_padding_rejected() {
        let h = RtpHeader {
            has_padding: true,
            ..RtpHeader::basic(96, 1, 2, 3, false)
        };
        let mut buf = vec![0u8; HEADER_LEN + 2];
        h.emit(&mut buf);
        buf[HEADER_LEN + 1] = 9; // pad length beyond payload
        let parsed = RtpHeader::parse(&buf).unwrap();
        assert!(parsed.payload(&buf).is_err());
    }

    proptest::proptest! {
        // The fixed-bytes form is lossless for every header the wire can
        // carry, the X bit included.
        #[test]
        fn fixed_bytes_roundtrip(
            bits in (
                proptest::any::<bool>(),
                proptest::any::<bool>(),
                proptest::any::<bool>(),
                0u8..=15,
            ),
            payload_type in 0u8..=127,
            fields in (
                proptest::any::<u16>(),
                proptest::any::<u32>(),
                proptest::any::<u32>(),
            )
        ) {
            let (marker, has_extension, has_padding, csrc_count) = bits;
            let (sequence, timestamp, ssrc) = fields;
            let h = RtpHeader {
                marker,
                payload_type,
                sequence,
                timestamp,
                ssrc,
                csrc_count,
                has_extension,
                has_padding,
            };
            proptest::prop_assert_eq!(RtpHeader::from_fixed_bytes(&h.to_fixed_bytes()), Some(h));
        }

        // Only version 2 decodes.
        #[test]
        fn fixed_bytes_need_version_2(fixed in proptest::any::<[u8; HEADER_LEN]>()) {
            proptest::prop_assert_eq!(
                RtpHeader::from_fixed_bytes(&fixed).is_some(),
                fixed[0] >> 6 == 2
            );
        }
    }

    #[test]
    fn marker_bit_positions() {
        let mut h = RtpHeader::basic(127, 0, 0, 0, false);
        let mut buf = vec![0u8; HEADER_LEN];
        h.emit(&mut buf);
        assert_eq!(buf[1], 127);
        h.marker = true;
        h.emit(&mut buf);
        assert_eq!(buf[1], 0x80 | 127);
    }
}
