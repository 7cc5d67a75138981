//! Flow identification: the 5-tuple key used to group a VCA session's
//! packets and to tell upstream from downstream.

use std::fmt;
use std::net::IpAddr;

/// Direction of a packet relative to the monitored client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowDirection {
    /// Towards the monitored client (the paper infers QoE of the receiver).
    Downstream,
    /// From the monitored client.
    Upstream,
}

/// A canonicalized UDP 5-tuple.
///
/// `FlowKey::canonical` orders the endpoints so that both directions of a
/// conversation map to the same key, which is how a passive monitor groups
/// a VCA session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowKey {
    /// Lower endpoint address (after canonicalization).
    pub addr_a: IpAddr,
    /// Lower endpoint port.
    pub port_a: u16,
    /// Higher endpoint address.
    pub addr_b: IpAddr,
    /// Higher endpoint port.
    pub port_b: u16,
    /// IP protocol number (always 17 here, kept for completeness).
    pub protocol: u8,
}

impl FlowKey {
    /// Cheap multiplicative 64-bit hash of the 5-tuple, shared by every
    /// layer that routes on flows (worker routing, table shards, and the
    /// open-addressed slot probe) so a key is hashed exactly once per
    /// packet. Distinct layers consume distinct bit ranges of the output:
    /// workers take `hash64() % n`, shards the top 16 bits, slot probes
    /// the middle bits — the final avalanche makes them independent.
    #[inline]
    pub fn hash64(&self) -> u64 {
        fn addr_bits(addr: IpAddr) -> u64 {
            match addr {
                IpAddr::V4(v) => u64::from(u32::from(v)),
                IpAddr::V6(v) => {
                    let bits = v.to_bits();
                    let hi = (bits >> 64) as u64;
                    let lo = bits as u64;
                    hi ^ lo.rotate_left(1)
                }
            }
        }
        let ports = (u64::from(self.port_a) << 32)
            | (u64::from(self.port_b) << 16)
            | u64::from(self.protocol);
        let mut h = addr_bits(self.addr_a).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ addr_bits(self.addr_b).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ ports;
        // splitmix64-style avalanche so every output bit depends on every
        // input bit (routing takes `% n_workers` of this).
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }

    /// Builds a canonical key from a directed (src, dst) pair. Returns the
    /// key plus whether the given src was endpoint A.
    pub fn canonical(
        src: IpAddr,
        src_port: u16,
        dst: IpAddr,
        dst_port: u16,
        protocol: u8,
    ) -> (Self, bool) {
        let src_first = (src, src_port) <= (dst, dst_port);
        let key = if src_first {
            FlowKey {
                addr_a: src,
                port_a: src_port,
                addr_b: dst,
                port_b: dst_port,
                protocol,
            }
        } else {
            FlowKey {
                addr_a: dst,
                port_a: dst_port,
                addr_b: src,
                port_b: src_port,
                protocol,
            }
        };
        (key, src_first)
    }

    /// Compact single-token wire form for control protocols:
    /// `ADDR:PORT-ADDR:PORT/PROTO`, with IPv6 addresses bracketed —
    /// e.g. `10.0.0.1:5000-10.0.0.2:5001/17` or
    /// `[2001:db8::1]:5000-[2001:db8::2]:5001/17`. Whitespace-free, so
    /// a line protocol can carry it as one argument. Round-trips
    /// through [`FlowKey::from_wire`].
    pub fn to_wire(&self) -> String {
        fn endpoint(addr: IpAddr, port: u16) -> String {
            match addr {
                IpAddr::V4(v) => format!("{v}:{port}"),
                IpAddr::V6(v) => format!("[{v}]:{port}"),
            }
        }
        format!(
            "{}-{}/{}",
            endpoint(self.addr_a, self.port_a),
            endpoint(self.addr_b, self.port_b),
            self.protocol
        )
    }

    /// Parses the [`FlowKey::to_wire`] form, canonicalizing endpoint
    /// order (so both directions of a conversation parse to the same
    /// key). Returns `None` on any malformed input — never panics.
    pub fn from_wire(text: &str) -> Option<Self> {
        fn endpoint(text: &str) -> Option<(IpAddr, u16)> {
            let (addr, port) = text.rsplit_once(':')?;
            let addr = addr
                .strip_prefix('[')
                .map_or(addr, |rest| rest.strip_suffix(']').unwrap_or(addr));
            Some((addr.parse().ok()?, port.parse().ok()?))
        }
        let (endpoints, proto) = text.rsplit_once('/')?;
        let protocol: u8 = proto.parse().ok()?;
        // The '-' separating the endpoints is the one outside any
        // bracketed v6 address; scan at depth 0.
        let mut depth = 0usize;
        let split = endpoints.char_indices().find_map(|(i, c)| match c {
            '[' => {
                depth += 1;
                None
            }
            ']' => {
                depth = depth.saturating_sub(1);
                None
            }
            '-' if depth == 0 => Some(i),
            _ => None,
        })?;
        let (a, pa) = endpoint(&endpoints[..split])?;
        let (b, pb) = endpoint(&endpoints[split + 1..])?;
        Some(FlowKey::canonical(a, pa, b, pb, protocol).0)
    }

    /// Writes the key's text form, `A:PORT <-> B:PORT proto N` (IPv6
    /// addresses unbracketed) — what [`fmt::Display`] prints and how the
    /// JSON event stream spells a flow. Ports, protocol and IPv4 octets
    /// are rendered digit by digit with no formatter in between, so an
    /// all-IPv4 key reaches `out` as a single `write_str`.
    pub fn write_text<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        // ASCII staged on its way to `out`. The longest run between
        // flushes is a whole IPv4 key, 57 bytes; `octet` may scribble
        // two bytes past what it keeps, and 64 hold that too.
        let mut buf = [0u8; 64];
        let mut at = 0;
        for (addr, port, then) in [
            (self.addr_a, self.port_a, &b" <-> "[..]),
            (self.addr_b, self.port_b, &b" proto "[..]),
        ] {
            match addr {
                IpAddr::V4(v4) => {
                    let [a, b, c, d] = v4.octets();
                    at = octet(&mut buf, at, a);
                    for n in [b, c, d] {
                        at = put(&mut buf, at, b".");
                        at = octet(&mut buf, at, n);
                    }
                }
                IpAddr::V6(v6) => {
                    flush(out, &buf[..at])?;
                    at = 0;
                    // The formatter stays for IPv6: RFC 5952 zero-run
                    // compression and the embedded-IPv4 forms are std's
                    // to get right, and such flows are rare at a tap.
                    write!(out, "{v6}")?;
                }
            }
            at = put(&mut buf, at, b":");
            at = decimal(&mut buf, at, port);
            at = put(&mut buf, at, then);
        }
        at = octet(&mut buf, at, self.protocol);
        flush(out, &buf[..at])
    }
}

/// Every `u8` in decimal: its digits, left-aligned in three bytes, then
/// how many of them there are.
const OCTETS: [[u8; 4]; 256] = {
    const fn digit(n: usize, power: usize) -> u8 {
        b'0' + (n / power % 10) as u8
    }
    let mut table = [[0u8; 4]; 256];
    let mut n = 0;
    while n < 256 {
        table[n] = match n {
            0..=9 => [digit(n, 1), 0, 0, 1],
            10..=99 => [digit(n, 10), digit(n, 1), 0, 2],
            _ => [digit(n, 100), digit(n, 10), digit(n, 1), 3],
        };
        n += 1;
    }
    table
};

/// The staging helpers of [`FlowKey::write_text`]: each writes at `at`
/// and returns where the next one goes. The cursor is passed by value
/// so that it lives in a register, not behind a pointer.
#[inline]
fn put(buf: &mut [u8; 64], at: usize, ascii: &[u8]) -> usize {
    buf[at..at + ascii.len()].copy_from_slice(ascii);
    at + ascii.len()
}

#[inline]
fn octet(buf: &mut [u8; 64], at: usize, n: u8) -> usize {
    let [a, b, c, width] = OCTETS[usize::from(n)];
    buf[at..at + 3].copy_from_slice(&[a, b, c]);
    at + usize::from(width)
}

#[inline]
fn decimal(buf: &mut [u8; 64], at: usize, n: u16) -> usize {
    let width = match n {
        0..=9 => 1,
        10..=99 => 2,
        100..=999 => 3,
        1000..=9999 => 4,
        _ => 5,
    };
    let mut rest = n;
    for digit in buf[at..at + width].iter_mut().rev() {
        *digit = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    at + width
}

fn flush<W: fmt::Write>(out: &mut W, staged: &[u8]) -> fmt::Result {
    out.write_str(std::str::from_utf8(staged).map_err(|_| fmt::Error)?)
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_text(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn ip(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, last))
    }

    #[test]
    fn both_directions_same_key() {
        let (k1, fwd1) = FlowKey::canonical(ip(1), 50000, ip(2), 3478, 17);
        let (k2, fwd2) = FlowKey::canonical(ip(2), 3478, ip(1), 50000, 17);
        assert_eq!(k1, k2);
        assert_ne!(fwd1, fwd2);
    }

    #[test]
    fn port_breaks_tie_on_same_addr() {
        let (k1, fwd) = FlowKey::canonical(ip(1), 9, ip(1), 5, 17);
        assert!(!fwd);
        assert_eq!(k1.port_a, 5);
        assert_eq!(k1.port_b, 9);
    }

    #[test]
    fn hash64_spreads_similar_keys() {
        // Keys differing in one port bit must land far apart in every bit
        // range a routing layer consumes (workers: low bits, shards: top
        // bits, probes: middle bits).
        let mut buckets = [0usize; 8];
        let mut tops = std::collections::HashSet::new();
        for n in 0..64u16 {
            let (k, _) = FlowKey::canonical(ip(1), 50_000 + n, ip(2), 3478, 17);
            let h = k.hash64();
            buckets[(h % 8) as usize] += 1;
            tops.insert(h >> 48);
        }
        assert!(
            buckets.iter().filter(|&&b| b > 0).count() >= 6,
            "{buckets:?}"
        );
        assert!(tops.len() >= 32, "top bits collapse: {}", tops.len());
    }

    #[test]
    fn display_is_readable() {
        let (k, _) = FlowKey::canonical(ip(1), 50000, ip(2), 3478, 17);
        assert_eq!(k.to_string(), "10.0.0.1:50000 <-> 10.0.0.2:3478 proto 17");
    }

    #[test]
    fn text_form_matches_the_formatter_for_every_address_shape() {
        let addrs = [
            "0.0.0.0",
            "9.10.99.100",
            "255.255.255.255",
            "::",
            "2001:db8::1",
            "::ffff:192.0.2.128",
            "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff",
        ];
        for a in addrs {
            for b in addrs {
                for (pa, pb, protocol) in [(0, 65535, 255), (9, 10, 0), (99, 100, 17)] {
                    let key = FlowKey {
                        addr_a: a.parse().unwrap(),
                        port_a: pa,
                        addr_b: b.parse().unwrap(),
                        port_b: pb,
                        protocol,
                    };
                    let reference = format!("{a}:{pa} <-> {b}:{pb} proto {protocol}");
                    assert_eq!(key.to_string(), reference);
                    let mut text = String::from("> ");
                    key.write_text(&mut text).unwrap();
                    assert_eq!(text, format!("> {reference}"));
                }
            }
        }
    }

    #[test]
    fn wire_form_round_trips_v4_and_v6() {
        let (v4, _) = FlowKey::canonical(ip(1), 50000, ip(2), 3478, 17);
        assert_eq!(v4.to_wire(), "10.0.0.1:50000-10.0.0.2:3478/17");
        assert_eq!(FlowKey::from_wire(&v4.to_wire()), Some(v4));

        let a6: IpAddr = "2001:db8::1".parse().unwrap();
        let b6: IpAddr = "2001:db8::2".parse().unwrap();
        let (v6, _) = FlowKey::canonical(a6, 5000, b6, 5001, 17);
        assert_eq!(v6.to_wire(), "[2001:db8::1]:5000-[2001:db8::2]:5001/17");
        assert_eq!(FlowKey::from_wire(&v6.to_wire()), Some(v6));
    }

    #[test]
    fn wire_parse_canonicalizes_direction() {
        let fwd = FlowKey::from_wire("10.0.0.2:3478-10.0.0.1:50000/17").unwrap();
        let (canon, _) = FlowKey::canonical(ip(1), 50000, ip(2), 3478, 17);
        assert_eq!(fwd, canon);
    }

    #[test]
    fn wire_parse_rejects_malformed_without_panicking() {
        for bad in [
            "",
            "10.0.0.1:5000",
            "10.0.0.1:5000-10.0.0.2:5001",
            "10.0.0.1-10.0.0.2:5001/17",
            "10.0.0.1:5000-10.0.0.2:5001/999",
            "[2001:db8::1:5000-[2001:db8::2]:5001/17",
            "nonsense/17",
            "-:/",
        ] {
            assert_eq!(FlowKey::from_wire(bad), None, "{bad:?}");
        }
    }
}
