//! Classic libpcap file format reader and writer.
//!
//! Supports both byte orders and both microsecond (`0xa1b2c3d4`) and
//! nanosecond (`0xa1b23c4d`) magic variants on read; always writes
//! little-endian microsecond files, which every tool accepts.

use crate::error::{Error, Result};
use crate::packet::Timestamp;
use std::io::{ErrorKind, Read, Write};
use std::sync::Arc;

/// Subset of pcap link types this library produces or consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkType {
    /// LINKTYPE_ETHERNET (1): frames start with an Ethernet II header.
    Ethernet,
    /// LINKTYPE_RAW (101): frames start directly with an IPv4/IPv6 header.
    RawIp,
    /// Anything else, carried verbatim.
    Other(u32),
}

impl From<u32> for LinkType {
    fn from(v: u32) -> Self {
        match v {
            1 => LinkType::Ethernet,
            101 => LinkType::RawIp,
            other => LinkType::Other(other),
        }
    }
}

impl From<LinkType> for u32 {
    fn from(l: LinkType) -> u32 {
        match l {
            LinkType::Ethernet => 1,
            LinkType::RawIp => 101,
            LinkType::Other(v) => v,
        }
    }
}

const MAGIC_US: u32 = 0xa1b2_c3d4;
const MAGIC_NS: u32 = 0xa1b2_3c4d;

/// A record read from a pcap file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapRecord {
    /// Capture timestamp.
    pub ts: Timestamp,
    /// Original packet length on the wire.
    pub orig_len: u32,
    /// Captured bytes (may be shorter than `orig_len` if the trace used a
    /// snap length). [`bytes::Bytes`]-backed so parsers can hand out
    /// zero-copy payload slices of the record
    /// ([`UdpDatagram::parse_shared`](crate::UdpDatagram::parse_shared)).
    ///
    /// The bytes are a slice of the block the reader read them in, shared
    /// with the other records of that block: holding a record (or a
    /// payload sliced from it) keeps the whole block alive — at most
    /// 64 KiB, or the record's own size if it is larger. To keep a few
    /// records out of a long capture, detach them with
    /// [`Bytes::copy_from_slice`](bytes::Bytes::copy_from_slice).
    pub data: bytes::Bytes,
}

/// How much of the capture one `read` call may bring in: a few dozen
/// full-size frames, and the size of a pipe's buffer.
const BLOCK: usize = 64 * 1024;

const GLOBAL_HEADER: usize = 24;
const RECORD_HEADER: usize = 16;

/// The snap length the writer declares, and the least the reader allows
/// a record whatever the file declares.
const SNAPLEN: u32 = 65_535;

/// Streaming pcap reader.
///
/// Reads the capture a block at a time into one refcounted slab and
/// hands each record out as a [`bytes::Bytes`] slice of it, so a record
/// costs no allocation and no copy beyond the `read` itself. Once the
/// caller has dropped every record of a block, the slab is refilled in
/// place; while records are still held, the reader moves on to a fresh
/// slab and the old one is freed with its last record.
pub struct PcapReader<R: Read> {
    reader: R,
    swapped: bool,
    nanos: bool,
    link_type: LinkType,
    snaplen: u32,
    /// The current block. Bytes read and not yet handed out are
    /// `slab[pos..filled]`; what lies before `pos` belongs to records
    /// already handed out, what lies after `filled` is room to read into.
    slab: Arc<[u8]>,
    pos: usize,
    filled: usize,
}

/// A zeroed slab in one allocation: `repeat_n` knows its length, so
/// `collect` sizes the `Arc` once and fills it where it lies.
fn zeroed_slab(len: usize) -> Arc<[u8]> {
    std::iter::repeat_n(0u8, len).collect()
}

fn u32_at(b: &[u8], off: usize, swapped: bool) -> u32 {
    let raw = [b[off], b[off + 1], b[off + 2], b[off + 3]];
    if swapped {
        u32::from_be_bytes(raw)
    } else {
        u32::from_le_bytes(raw)
    }
}

impl<R: Read> PcapReader<R> {
    /// Reads and validates the global header.
    ///
    /// The read block is allocated here, once, and not on the first
    /// record: like a `BufReader`'s buffer it is part of what opening a
    /// capture costs, not of what reading a record does.
    pub fn new(reader: R) -> Result<Self> {
        let mut this = Self {
            reader,
            swapped: false,
            nanos: false,
            link_type: LinkType::Other(0),
            snaplen: 0,
            slab: zeroed_slab(BLOCK),
            pos: 0,
            filled: 0,
        };
        let hdr = loop {
            if let Some(hdr) = this.slab[..this.filled].first_chunk::<GLOBAL_HEADER>() {
                break *hdr;
            }
            if !this.refill(GLOBAL_HEADER)? {
                return Err(Error::Io(ErrorKind::UnexpectedEof.into()));
            }
        };
        this.pos = GLOBAL_HEADER;
        let magic = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
        (this.swapped, this.nanos) = match magic {
            MAGIC_US => (false, false),
            MAGIC_NS => (false, true),
            m if m.swap_bytes() == MAGIC_US => (true, false),
            m if m.swap_bytes() == MAGIC_NS => (true, true),
            m => return Err(Error::BadMagic(m)),
        };
        this.snaplen = u32_at(&hdr, 16, this.swapped);
        this.link_type = LinkType::from(u32_at(&hdr, 20, this.swapped));
        Ok(this)
    }

    /// Link type declared in the global header.
    pub fn link_type(&self) -> LinkType {
        self.link_type
    }

    /// Snap length declared in the global header.
    pub fn snaplen(&self) -> u32 {
        self.snaplen
    }

    /// Reads the next record; `Ok(None)` at a clean end of file.
    ///
    /// The input is read only when the bytes already buffered do not
    /// hold the whole next record, and then once: a capture arriving
    /// over a pipe is handed on record by record as it arrives, not a
    /// block at a time.
    pub fn next_record(&mut self) -> Result<Option<PcapRecord>> {
        loop {
            let buffered = &self.slab[self.pos..self.filled];
            let need = match buffered.first_chunk::<RECORD_HEADER>() {
                None => RECORD_HEADER,
                Some(hdr) => {
                    let incl_len = u32_at(hdr, 8, self.swapped);
                    if incl_len > self.snaplen.max(SNAPLEN) {
                        return Err(Error::Malformed {
                            layer: "pcap",
                            what: "record length beyond snaplen",
                        });
                    }
                    let len = RECORD_HEADER.saturating_add(incl_len as usize);
                    if len <= buffered.len() {
                        let ts_sec = u32_at(hdr, 0, self.swapped) as i64;
                        let ts_frac = u32_at(hdr, 4, self.swapped) as i64;
                        let micros = if self.nanos { ts_frac / 1_000 } else { ts_frac };
                        let record = PcapRecord {
                            ts: Timestamp(ts_sec * 1_000_000 + micros),
                            orig_len: u32_at(hdr, 12, self.swapped),
                            data: bytes::Bytes::from_shared(
                                Arc::clone(&self.slab),
                                self.pos + RECORD_HEADER..self.pos + len,
                            ),
                        };
                        self.pos += len;
                        return Ok(Some(record));
                    }
                    len
                }
            };
            let in_header = buffered.len() < RECORD_HEADER;
            if !self.refill(need)? {
                // A capture cut inside a record header ends like one cut
                // between records; one cut inside a record's bytes is an
                // error.
                return if in_header {
                    Ok(None)
                } else {
                    Err(Error::Io(ErrorKind::UnexpectedEof.into()))
                };
            }
        }
    }

    /// Moves the buffered bytes to the front of a slab with room for
    /// `need` of them and reads once behind them; `Ok(false)` at the end
    /// of the input.
    ///
    /// The slab is reused when no record references it any more, and
    /// replaced when one does. A record larger than a block gets a slab
    /// of exactly its own size, which the next call replaces in turn, so
    /// that no record ever shares a slab larger than a block. A slab
    /// grows to at most twice what the input has delivered of the
    /// record: `need` comes from a length field nothing has vouched for.
    #[cold]
    fn refill(&mut self, need: usize) -> Result<bool> {
        let buffered = self.pos..self.filled;
        let want = need.clamp(BLOCK, (2 * buffered.len()).max(BLOCK));
        let held = match Arc::get_mut(&mut self.slab) {
            Some(block) if block.len() == want => None,
            _ => Some(std::mem::replace(&mut self.slab, zeroed_slab(want))),
        };
        #[expect(
            clippy::expect_used,
            reason = "found unreferenced or allocated one statement up, and `&mut self` lets nobody take a reference since"
        )]
        let block = Arc::get_mut(&mut self.slab).expect("the slab has no other owner");
        match &held {
            None => block.copy_within(buffered.clone(), 0),
            Some(old) => block[..buffered.len()].copy_from_slice(&old[buffered.clone()]),
        }
        self.pos = 0;
        self.filled = buffered.len();
        // `want` exceeds what is buffered, so the read has room and a
        // count of zero means end of input.
        loop {
            match self.reader.read(&mut block[self.filled..]) {
                Ok(n) => {
                    self.filled += n;
                    return Ok(n > 0);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Convenience: drains the file into a vector of records.
    pub fn read_all(&mut self) -> Result<Vec<PcapRecord>> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_record()? {
            out.push(rec);
        }
        Ok(out)
    }
}

/// Streaming pcap writer (little-endian, microsecond timestamps).
pub struct PcapWriter<W: Write> {
    writer: W,
}

impl<W: Write> PcapWriter<W> {
    /// Writes the global header.
    pub fn new(mut writer: W, link_type: LinkType) -> Result<Self> {
        let mut hdr = [0u8; GLOBAL_HEADER];
        hdr[0..4].copy_from_slice(&MAGIC_US.to_le_bytes());
        hdr[4..6].copy_from_slice(&2u16.to_le_bytes()); // major
        hdr[6..8].copy_from_slice(&4u16.to_le_bytes()); // minor
        hdr[16..20].copy_from_slice(&SNAPLEN.to_le_bytes());
        hdr[20..24].copy_from_slice(&u32::from(link_type).to_le_bytes());
        writer.write_all(&hdr)?;
        Ok(Self { writer })
    }

    /// Appends one full-length packet record.
    ///
    /// The format stores seconds and lengths as `u32` and the global
    /// header declares a 65 535-byte snap length, so a timestamp before
    /// 1970 or after 2106 and a longer frame are refused, not wrapped.
    pub fn write_packet(&mut self, ts: Timestamp, data: &[u8]) -> Result<()> {
        let Ok(secs) = u32::try_from(ts.0.div_euclid(1_000_000)) else {
            return Err(Error::Malformed {
                layer: "pcap",
                what: "timestamp outside the u32 seconds range",
            });
        };
        let micros = ts.0.rem_euclid(1_000_000) as u32;
        let len = match u32::try_from(data.len()) {
            Ok(len) if len <= SNAPLEN => len,
            _ => {
                return Err(Error::Malformed {
                    layer: "pcap",
                    what: "frame longer than the declared snaplen",
                })
            }
        };
        let mut hdr = [0u8; RECORD_HEADER];
        hdr[0..4].copy_from_slice(&secs.to_le_bytes());
        hdr[4..8].copy_from_slice(&micros.to_le_bytes());
        hdr[8..12].copy_from_slice(&len.to_le_bytes());
        hdr[12..16].copy_from_slice(&len.to_le_bytes());
        self.writer.write_all(&hdr)?;
        self.writer.write_all(data)?;
        Ok(())
    }

    /// Flushes and returns the inner writer.
    pub fn finish(mut self) -> Result<W> {
        self.writer.flush()?;
        Ok(self.writer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(packets: &[(i64, Vec<u8>)]) -> Vec<PcapRecord> {
        let mut w = PcapWriter::new(Vec::new(), LinkType::Ethernet).unwrap();
        for (us, data) in packets {
            w.write_packet(Timestamp(*us), data).unwrap();
        }
        let bytes = w.finish().unwrap();
        let mut r = PcapReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(r.link_type(), LinkType::Ethernet);
        r.read_all().unwrap()
    }

    #[test]
    fn write_read_roundtrip() {
        let pkts = vec![
            (0i64, vec![1u8, 2, 3]),
            (1_500_000, vec![4u8; 100]),
            (2_000_001, vec![]),
        ];
        let recs = roundtrip(&pkts);
        assert_eq!(recs.len(), 3);
        for (rec, (us, data)) in recs.iter().zip(&pkts) {
            assert_eq!(rec.ts.0, *us);
            assert_eq!(&rec.data, data);
            assert_eq!(rec.orig_len as usize, data.len());
        }
    }

    #[test]
    fn empty_file_reads_no_records() {
        let w = PcapWriter::new(Vec::new(), LinkType::RawIp).unwrap();
        let bytes = w.finish().unwrap();
        let mut r = PcapReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(r.link_type(), LinkType::RawIp);
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn bad_magic_rejected() {
        let bytes = vec![0u8; 24];
        assert!(matches!(
            PcapReader::new(Cursor::new(bytes)),
            Err(Error::BadMagic(0))
        ));
    }

    #[test]
    fn big_endian_file_parses() {
        // Hand-build a big-endian global header + one record.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_US.to_be_bytes());
        bytes.extend_from_slice(&2u16.to_be_bytes());
        bytes.extend_from_slice(&4u16.to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes()); // thiszone
        bytes.extend_from_slice(&0u32.to_be_bytes()); // sigfigs
        bytes.extend_from_slice(&65_535u32.to_be_bytes());
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.extend_from_slice(&7u32.to_be_bytes()); // ts_sec
        bytes.extend_from_slice(&42u32.to_be_bytes()); // ts_usec
        bytes.extend_from_slice(&3u32.to_be_bytes()); // incl
        bytes.extend_from_slice(&3u32.to_be_bytes()); // orig
        bytes.extend_from_slice(&[9, 9, 9]);
        let mut r = PcapReader::new(Cursor::new(bytes)).unwrap();
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.ts.0, 7_000_042);
        assert_eq!(rec.data, vec![9, 9, 9]);
    }

    #[test]
    fn nanosecond_magic_converted() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_NS.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 12]);
        bytes.extend_from_slice(&65_535u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes()); // ts_sec
        bytes.extend_from_slice(&1_500u32.to_le_bytes()); // 1500 ns = 1 µs
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(0xab);
        let mut r = PcapReader::new(Cursor::new(bytes)).unwrap();
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.ts.0, 1_000_001);
    }

    #[test]
    fn truncated_record_errors() {
        let mut w = PcapWriter::new(Vec::new(), LinkType::Ethernet).unwrap();
        w.write_packet(Timestamp(0), &[1, 2, 3, 4]).unwrap();
        let mut bytes = w.finish().unwrap();
        bytes.truncate(bytes.len() - 2);
        let mut r = PcapReader::new(Cursor::new(bytes)).unwrap();
        assert!(r.next_record().is_err());
    }

    #[test]
    fn negative_timestamp_roundtrip_is_clamped_sanely() {
        // The format stores seconds as u32: the euclidean split stays
        // exact up to the last representable microsecond, and what lies
        // outside is refused, not wrapped into another century.
        let last = i64::from(u32::MAX) * 1_000_000 + 999_999;
        let recs = roundtrip(&[(999_999, vec![1]), (last, vec![2])]);
        assert_eq!(recs[0].ts.0, 999_999);
        assert_eq!(recs[1].ts.0, last);
        let mut w = PcapWriter::new(Vec::new(), LinkType::Ethernet).unwrap();
        for ts in [-1, -1_000_000, i64::MIN, last + 1, i64::MAX] {
            assert!(
                matches!(
                    w.write_packet(Timestamp(ts), &[1]),
                    Err(Error::Malformed { layer: "pcap", .. })
                ),
                "timestamp {ts} written"
            );
        }
        assert_eq!(w.finish().unwrap().len(), GLOBAL_HEADER, "nothing written");
    }

    #[test]
    fn writer_refuses_a_frame_its_own_reader_would_reject() {
        let mut w = PcapWriter::new(Vec::new(), LinkType::Ethernet).unwrap();
        w.write_packet(Timestamp(0), &vec![7u8; SNAPLEN as usize])
            .unwrap();
        assert!(matches!(
            w.write_packet(Timestamp(1), &vec![7u8; SNAPLEN as usize + 1]),
            Err(Error::Malformed { layer: "pcap", .. })
        ));
        let bytes = w.finish().unwrap();
        let recs = PcapReader::new(Cursor::new(bytes))
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].data.len(), SNAPLEN as usize);
    }

    /// A little-endian capture image built by hand, so that a test can
    /// declare any snap length and any record size.
    fn image(snaplen: u32, lens: &[usize]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_US.to_le_bytes());
        bytes.extend_from_slice(&[2, 0, 4, 0]);
        bytes.extend_from_slice(&[0u8; 8]);
        bytes.extend_from_slice(&snaplen.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        for (i, &len) in lens.iter().enumerate() {
            bytes.extend_from_slice(&(i as u32).to_le_bytes()); // ts_sec
            bytes.extend_from_slice(&7u32.to_le_bytes()); // ts_usec
            bytes.extend_from_slice(&(len as u32).to_le_bytes());
            bytes.extend_from_slice(&(len as u32 + 4).to_le_bytes());
            bytes.extend(payload(i, len));
        }
        bytes
    }

    /// What record `i` of [`image`] holds: bytes that differ from record
    /// to record and from offset to offset.
    fn payload(i: usize, len: usize) -> impl Iterator<Item = u8> {
        (0..len).map(move |k| (i * 31 + k * 7) as u8)
    }

    fn assert_is_record(rec: &PcapRecord, i: usize, len: usize) {
        assert_eq!(rec.ts.0, i as i64 * 1_000_000 + 7, "record {i}");
        assert_eq!(rec.orig_len as usize, len + 4, "record {i}");
        assert!(rec.data.iter().copied().eq(payload(i, len)), "record {i}");
    }

    /// Reads `image(snaplen, lens)` twice — letting each record go before
    /// the next is read, so that the slab is refilled in place, and
    /// holding them all, so that it is replaced — and checks every record
    /// both ways, the held ones not before the last refill is over.
    fn assert_reads_back(snaplen: u32, lens: &[usize]) {
        let bytes = image(snaplen, lens);
        let mut r = PcapReader::new(Cursor::new(&bytes[..])).unwrap();
        for (i, &len) in lens.iter().enumerate() {
            assert_is_record(&r.next_record().unwrap().unwrap(), i, len);
        }
        assert!(r.next_record().unwrap().is_none());

        let held = PcapReader::new(Cursor::new(&bytes[..]))
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(held.len(), lens.len());
        for (i, (rec, &len)) in held.iter().zip(lens).enumerate() {
            assert_is_record(rec, i, len);
        }
    }

    /// The length that makes the first record of an image end `short`
    /// bytes before the first block does.
    fn first_len_ending(short: usize) -> usize {
        BLOCK - GLOBAL_HEADER - RECORD_HEADER - short
    }

    #[test]
    fn record_header_straddling_a_block_boundary() {
        assert_reads_back(SNAPLEN, &[first_len_ending(8), 100, 60]);
    }

    #[test]
    fn record_payload_straddling_a_block_boundary() {
        assert_reads_back(SNAPLEN, &[first_len_ending(RECORD_HEADER + 10), 100, 60]);
    }

    #[test]
    fn record_ending_exactly_on_a_block_boundary() {
        assert_reads_back(SNAPLEN, &[first_len_ending(0), 100, 60]);
        // … and the capture ending there too.
        assert_reads_back(SNAPLEN, &[first_len_ending(0)]);
    }

    #[test]
    fn records_across_many_blocks_read_back_held_or_not() {
        // ≈ 5 blocks of odd-sized records, runts and empty ones among them.
        let lens: Vec<usize> = (0..400).map(|i| (i * 37) % 1500).collect();
        assert!(lens.iter().map(|l| l + RECORD_HEADER).sum::<usize>() > 4 * BLOCK);
        assert_reads_back(SNAPLEN, &lens);
    }

    #[test]
    fn held_records_keep_their_block_and_the_reader_moves_on() {
        let lens = vec![1000usize; 300]; // > 4 blocks
        let bytes = image(SNAPLEN, &lens);
        let mut r = PcapReader::new(Cursor::new(&bytes[..])).unwrap();
        let first = r.next_record().unwrap().unwrap();
        let first_block = Arc::as_ptr(&r.slab);
        // Dropping each later record is not enough: `first` still
        // references the block, so the reader may not write into it.
        for (i, &len) in lens.iter().enumerate().skip(1) {
            assert_is_record(&r.next_record().unwrap().unwrap(), i, len);
        }
        assert_ne!(Arc::as_ptr(&r.slab), first_block);
        assert_is_record(&first, 0, 1000);
    }

    #[test]
    fn record_larger_than_a_block_gets_a_slab_of_its_own() {
        let lens = [300, 100_000, 200, 70_000, 50];
        let bytes = image(262_144, &lens);
        let mut r = PcapReader::new(Cursor::new(&bytes[..])).unwrap();
        assert_eq!(r.snaplen(), 262_144);
        for (i, &len) in lens.iter().enumerate() {
            assert_is_record(&r.next_record().unwrap().unwrap(), i, len);
            // A large record's slab holds that record alone, and the
            // reader is back to block-sized slabs right after it.
            assert_eq!(r.slab.len(), (RECORD_HEADER + len).max(BLOCK), "record {i}");
        }
        assert!(r.next_record().unwrap().is_none());
        assert_reads_back(262_144, &lens);
    }

    #[test]
    fn record_length_beyond_snaplen_is_malformed() {
        let mut bytes = image(SNAPLEN, &[10]);
        bytes.extend_from_slice(&[0u8; 8]);
        bytes.extend_from_slice(&(SNAPLEN + 1).to_le_bytes());
        bytes.extend_from_slice(&(SNAPLEN + 1).to_le_bytes());
        let mut r = PcapReader::new(Cursor::new(bytes)).unwrap();
        assert!(r.next_record().unwrap().is_some());
        assert!(matches!(
            r.next_record(),
            Err(Error::Malformed { layer: "pcap", .. })
        ));
    }

    #[test]
    fn huge_declared_length_allocates_no_more_than_twice_what_arrives() {
        // A header claiming 1 GiB under a 2 GiB snap length, followed by
        // a block and a half of bytes: the read fails at end of input
        // having sized its slab by what arrived, not by the claim.
        let mut bytes = image(1 << 31, &[]);
        bytes.extend_from_slice(&[0u8; 8]);
        bytes.extend_from_slice(&(1u32 << 30).to_le_bytes());
        bytes.extend_from_slice(&(1u32 << 30).to_le_bytes());
        bytes.extend_from_slice(&vec![1u8; BLOCK + BLOCK / 2]);
        let mut r = PcapReader::new(Cursor::new(bytes)).unwrap();
        assert!(matches!(
            r.next_record(),
            Err(Error::Io(e)) if e.kind() == ErrorKind::UnexpectedEof
        ));
        assert!(r.slab.len() <= 4 * BLOCK, "slab of {} bytes", r.slab.len());
    }

    #[test]
    fn end_of_input_between_records_or_inside_a_header_is_a_clean_end() {
        let whole = image(SNAPLEN, &[40, 50]);
        for cut in [0, 1, 8, RECORD_HEADER - 1] {
            let mut bytes = whole.clone();
            bytes.extend_from_slice(&[0xff; RECORD_HEADER][..cut]);
            let mut r = PcapReader::new(Cursor::new(bytes)).unwrap();
            assert_is_record(&r.next_record().unwrap().unwrap(), 0, 40);
            assert_is_record(&r.next_record().unwrap().unwrap(), 1, 50);
            assert!(r.next_record().unwrap().is_none(), "{cut} header bytes");
            assert!(r.next_record().unwrap().is_none(), "and it stays ended");
        }
    }

    #[test]
    fn end_of_input_inside_a_record_body_is_unexpected_eof() {
        let whole = image(SNAPLEN, &[40, 50]);
        for cut in [1, 25, 50] {
            let bytes = &whole[..whole.len() - cut];
            let mut r = PcapReader::new(Cursor::new(bytes)).unwrap();
            assert_is_record(&r.next_record().unwrap().unwrap(), 0, 40);
            assert!(
                matches!(r.next_record(), Err(Error::Io(e)) if e.kind() == ErrorKind::UnexpectedEof),
                "{cut} bytes short"
            );
        }
    }

    #[test]
    fn short_global_header_errors() {
        let whole = image(SNAPLEN, &[]);
        for len in [0, 4, GLOBAL_HEADER - 1] {
            assert!(
                matches!(
                    PcapReader::new(Cursor::new(&whole[..len])),
                    Err(Error::Io(e)) if e.kind() == ErrorKind::UnexpectedEof
                ),
                "{len}-byte header accepted"
            );
        }
    }

    /// A pipe with a writer that flushes after every record: each `read`
    /// yields one record (the first, the global header) however much room
    /// it is offered. It panics when read while a record it has already
    /// delivered has not been handed out — a reader that does that holds
    /// a packet back until later traffic arrives.
    struct RecordAtATime {
        chunks: std::collections::VecDeque<Vec<u8>>,
        delivered: usize,
        handed_out: std::rc::Rc<std::cell::Cell<usize>>,
    }

    impl Read for RecordAtATime {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            assert_eq!(
                self.delivered,
                self.handed_out.get(),
                "read while a complete record is still buffered"
            );
            let Some(chunk) = self.chunks.pop_front() else {
                return Ok(0);
            };
            if chunk.len() != GLOBAL_HEADER {
                self.delivered += 1;
            }
            buf[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    #[test]
    fn each_record_is_handed_out_as_soon_as_it_has_arrived() {
        let lens = [60usize, 1200, 0, 300, 1500, 64];
        let bytes = image(SNAPLEN, &lens);
        let mut chunks = std::collections::VecDeque::new();
        let mut rest = &bytes[..];
        for len in std::iter::once(GLOBAL_HEADER).chain(lens.iter().map(|l| RECORD_HEADER + l)) {
            let (chunk, tail) = rest.split_at(len);
            chunks.push_back(chunk.to_vec());
            rest = tail;
        }
        let handed_out = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut r = PcapReader::new(RecordAtATime {
            chunks,
            delivered: 0,
            handed_out: std::rc::Rc::clone(&handed_out),
        })
        .unwrap();
        for (i, &len) in lens.iter().enumerate() {
            assert_is_record(&r.next_record().unwrap().unwrap(), i, len);
            handed_out.set(i + 1);
        }
        assert!(r.next_record().unwrap().is_none());
    }

    /// Fails every other call with `Interrupted`, as a read racing a
    /// signal handler does.
    struct Interrupting<R>(R, bool);

    impl<R: Read> Read for Interrupting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.1 = !self.1;
            if self.1 {
                return Err(ErrorKind::Interrupted.into());
            }
            self.0.read(buf)
        }
    }

    #[test]
    fn interrupted_reads_are_retried() {
        let lens: Vec<usize> = (0..200).map(|i| (i * 53) % 1400).collect();
        let bytes = image(SNAPLEN, &lens);
        let mut r = PcapReader::new(Interrupting(Cursor::new(bytes), false)).unwrap();
        for (i, &len) in lens.iter().enumerate() {
            assert_is_record(&r.next_record().unwrap().unwrap(), i, len);
        }
        assert!(r.next_record().unwrap().is_none());
    }
}
