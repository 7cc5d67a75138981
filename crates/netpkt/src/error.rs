//! Error type shared by the packet codecs and pcap I/O.

use std::fmt;

/// Errors produced while decoding packets or reading/writing pcap files.
#[derive(Debug)]
pub enum Error {
    /// The buffer is shorter than the fixed header of the protocol.
    Truncated {
        /// Protocol layer that failed to decode.
        layer: &'static str,
        /// Bytes required by the header.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// A header field holds a value the codec cannot interpret.
    Malformed {
        /// Protocol layer that failed to decode.
        layer: &'static str,
        /// Human-readable description of the violated constraint.
        what: &'static str,
    },
    /// An internet checksum did not verify.
    Checksum {
        /// Protocol layer whose checksum failed.
        layer: &'static str,
    },
    /// The pcap file magic number is unknown.
    BadMagic(u32),
    /// Wrapper around I/O errors from pcap reading/writing.
    Io(std::io::Error),
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Truncated { layer, needed, got } => {
                write!(f, "{layer}: truncated (need {needed} bytes, got {got})")
            }
            Error::Malformed { layer, what } => write!(f, "{layer}: malformed ({what})"),
            Error::Checksum { layer } => write!(f, "{layer}: checksum mismatch"),
            Error::BadMagic(m) => write!(f, "pcap: unknown magic {m:#010x}"),
            Error::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            Error::Truncated { .. }
            | Error::Malformed { .. }
            | Error::Checksum { .. }
            | Error::BadMagic(_) => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_truncated() {
        let e = Error::Truncated {
            layer: "ipv4",
            needed: 20,
            got: 7,
        };
        assert_eq!(e.to_string(), "ipv4: truncated (need 20 bytes, got 7)");
    }

    #[test]
    fn display_malformed() {
        let e = Error::Malformed {
            layer: "udp",
            what: "length field too small",
        };
        assert_eq!(e.to_string(), "udp: malformed (length field too small)");
    }

    #[test]
    fn display_checksum_and_magic() {
        assert_eq!(
            Error::Checksum { layer: "udp" }.to_string(),
            "udp: checksum mismatch"
        );
        assert_eq!(
            Error::BadMagic(0xdead_beef).to_string(),
            "pcap: unknown magic 0xdeadbeef"
        );
    }

    #[test]
    fn io_error_source_preserved() {
        let io = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        let e: Error = io.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
