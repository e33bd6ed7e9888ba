//! WAL record framing and scanning.
//!
//! On-disk record layout (all integers little-endian):
//!
//! ```text
//! | len: u32 | crc: u32 | seq: u64 | payload: len bytes |
//! ```
//!
//! `len` counts the payload only; `crc` is CRC32 (IEEE) over the `seq`
//! field and the payload, so neither a bit flip in the body nor a stale
//! sequence number goes unnoticed. Sequence numbers are strictly
//! increasing within one log.
//!
//! [`scan`] validates a log prefix: it stops — without error — at the
//! first short header, short payload, checksum mismatch, oversized
//! length, or non-monotonic sequence, and reports how many bytes were
//! valid. A crash mid-append produces exactly such a tail, so "stop at
//! the first bad record" *is* the recovery rule; the store then truncates
//! the file to the valid length before appending again.
//!
//! Segments written by fencing-aware stores begin with a 16-byte
//! header — [`SEG_MAGIC`] followed by the primary generation (u64 LE)
//! that created the segment. [`scan`] recognises the header and
//! reports the generation; legacy headerless segments scan from byte 0
//! with `generation: None` and inherit the manifest's generation.

/// Upper bound on a record payload (64 MiB). A corrupted length field
/// would otherwise make the scanner wait for gigabytes of payload that
/// never existed.
pub const MAX_RECORD: u32 = 64 << 20;

/// Bytes of framing before the payload: len + crc + seq.
pub const HEADER: usize = 4 + 4 + 8;

/// Magic opening a generation-stamped WAL segment.
pub const SEG_MAGIC: &[u8; 8] = b"XSQLSEG1";

/// Bytes of the segment header: magic + generation (u64 LE).
pub const SEG_HEADER: usize = 16;

/// The 16-byte header opening a segment created under `generation`.
pub fn segment_header(generation: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEG_HEADER);
    out.extend_from_slice(SEG_MAGIC);
    out.extend_from_slice(&generation.to_le_bytes());
    out
}

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables: `t[0]` is the classic byte table; `t[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, so eight table
/// lookups advance the CRC over eight input bytes at once.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = (c >> 1) ^ (CRC_POLY & (c & 1).wrapping_neg());
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC32 (IEEE 802.3, reflected) of `bytes`, continuing from `crc`.
/// Pass `0` to start; no external crc crate is used. Table-driven
/// (slice-by-8), bit-identical to the one-bit-at-a-time definition.
pub fn crc32(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !crc;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = (c >> 8) ^ t[0][((c ^ u32::from(b)) & 0xFF) as usize];
    }
    !c
}

/// Frames one record: header plus payload, ready to append.
pub fn frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_RECORD as usize, "WAL record too large");
    let mut out = Vec::with_capacity(HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = crc32(crc32(0, &seq.to_le_bytes()), payload);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Result of scanning a log: the valid records in order, and the byte
/// length of the valid prefix (everything past it is a torn or corrupt
/// tail to be truncated).
#[derive(Debug, Default)]
pub struct WalScan {
    /// `(seq, payload)` for each valid record, in log order.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Length in bytes of the valid prefix of the log (including the
    /// segment header, when present).
    pub valid_len: u64,
    /// Generation stamped in the segment header; `None` for legacy
    /// headerless segments (they inherit the manifest's generation).
    pub generation: Option<u64>,
    /// Bytes of segment header preceding the first record (0 or
    /// [`SEG_HEADER`]).
    pub header_len: u64,
}

/// Scans `bytes` from the start, collecting records until the first
/// invalid one (see module docs for what invalidates a record).
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut out = WalScan::default();
    let mut pos = 0usize;
    // A segment header, when present, precedes the first record. A
    // file starting with a *prefix* of the magic is a torn header
    // write: nothing after it is trustworthy, so the valid prefix is
    // empty.
    if bytes.len() >= SEG_HEADER && &bytes[..SEG_MAGIC.len()] == SEG_MAGIC {
        out.generation = Some(u64::from_le_bytes(
            bytes[SEG_MAGIC.len()..SEG_HEADER].try_into().unwrap(),
        ));
        out.header_len = SEG_HEADER as u64;
        out.valid_len = SEG_HEADER as u64;
        pos = SEG_HEADER;
    } else if !bytes.is_empty()
        && bytes.len() < SEG_HEADER
        && SEG_MAGIC.starts_with(&bytes[..bytes.len().min(SEG_MAGIC.len())])
    {
        return out;
    }
    let mut last_seq: Option<u64> = None;
    while bytes.len() - pos >= HEADER {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        let seq = u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().unwrap());
        if len > MAX_RECORD {
            break;
        }
        let body_end = pos + HEADER + len as usize;
        if body_end > bytes.len() {
            break; // torn payload
        }
        let payload = &bytes[pos + HEADER..body_end];
        if crc32(crc32(0, &seq.to_le_bytes()), payload) != crc {
            break;
        }
        if last_seq.is_some_and(|p| seq <= p) {
            break;
        }
        last_seq = Some(seq);
        out.records.push((seq, payload.to_vec()));
        pos = body_end;
        out.valid_len = pos as u64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
    }

    /// The one-bit-at-a-time definition the tables are derived from.
    fn crc32_bitwise(mut crc: u32, bytes: &[u8]) -> u32 {
        crc = !crc;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    /// Deterministic filler bytes (splitmix64), so failures replay.
    fn seeded_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_tables_match_bitwise_reference() {
        // Every length 0..=64 at every start offset 0..8 covers each
        // split between the 8-byte loop and the byte-wise tail.
        let buf = seeded_bytes(1, 72);
        for off in 0..8 {
            for len in 0..=64 {
                let s = &buf[off..off + len];
                assert_eq!(crc32(0, s), crc32_bitwise(0, s), "off {off} len {len}");
            }
        }
        for seed in 0..16 {
            let s = seeded_bytes(seed, 4096);
            assert_eq!(crc32(0, &s), crc32_bitwise(0, &s), "seed {seed}");
            for start in [1, 0xDEAD_BEEF, u32::MAX] {
                assert_eq!(
                    crc32(start, &s),
                    crc32_bitwise(start, &s),
                    "seed {seed} crc {start:#x}"
                );
            }
        }
    }

    #[test]
    fn crc32_continues_across_splits() {
        // `frame` chains the seq bytes and then the payload.
        let bytes = seeded_bytes(7, 300);
        let whole = crc32(0, &bytes);
        for cut in 0..=bytes.len() {
            let (a, b) = bytes.split_at(cut);
            assert_eq!(crc32(crc32(0, a), b), whole, "cut {cut}");
        }
    }

    #[test]
    fn roundtrip_multiple_records() {
        let mut log = Vec::new();
        log.extend_from_slice(&frame(1, b"alpha"));
        log.extend_from_slice(&frame(2, b""));
        log.extend_from_slice(&frame(7, b"gamma"));
        let s = scan(&log);
        assert_eq!(s.valid_len, log.len() as u64);
        assert_eq!(
            s.records,
            vec![
                (1, b"alpha".to_vec()),
                (2, Vec::new()),
                (7, b"gamma".to_vec())
            ]
        );
    }

    #[test]
    fn torn_tail_stops_cleanly() {
        let mut log = Vec::new();
        log.extend_from_slice(&frame(1, b"alpha"));
        let keep = log.len();
        let rec2 = frame(2, b"beta");
        log.extend_from_slice(&rec2[..rec2.len() / 2]);
        let s = scan(&log);
        assert_eq!(s.valid_len, keep as u64);
        assert_eq!(s.records.len(), 1);
    }

    #[test]
    fn flipped_bit_invalidates_record_and_everything_after() {
        let mut log = Vec::new();
        log.extend_from_slice(&frame(1, b"alpha"));
        let keep = log.len();
        log.extend_from_slice(&frame(2, b"beta"));
        log.extend_from_slice(&frame(3, b"gamma"));
        log[keep + HEADER] ^= 0x01; // corrupt record 2's payload
        let s = scan(&log);
        assert_eq!(s.valid_len, keep as u64);
        assert_eq!(s.records.len(), 1);
    }

    #[test]
    fn non_monotonic_seq_stops_the_scan() {
        let mut log = Vec::new();
        log.extend_from_slice(&frame(5, b"alpha"));
        let keep = log.len();
        log.extend_from_slice(&frame(5, b"beta"));
        let s = scan(&log);
        assert_eq!(s.valid_len, keep as u64);
    }

    #[test]
    fn oversized_length_field_is_rejected() {
        let mut log = frame(1, b"x");
        log[0..4].copy_from_slice(&(MAX_RECORD + 1).to_le_bytes());
        let s = scan(&log);
        assert_eq!(s.valid_len, 0);
        assert!(s.records.is_empty());
    }

    #[test]
    fn segment_header_carries_the_generation() {
        let mut log = segment_header(7);
        log.extend_from_slice(&frame(1, b"alpha"));
        log.extend_from_slice(&frame(2, b"beta"));
        let s = scan(&log);
        assert_eq!(s.generation, Some(7));
        assert_eq!(s.header_len, SEG_HEADER as u64);
        assert_eq!(s.valid_len, log.len() as u64);
        assert_eq!(s.records.len(), 2);
    }

    #[test]
    fn empty_stamped_segment_scans_to_its_header() {
        let s = scan(&segment_header(3));
        assert_eq!(s.generation, Some(3));
        assert_eq!(s.valid_len, SEG_HEADER as u64);
        assert!(s.records.is_empty());
    }

    #[test]
    fn torn_segment_header_invalidates_the_whole_file() {
        let hdr = segment_header(9);
        for cut in 1..SEG_HEADER {
            let s = scan(&hdr[..cut]);
            assert_eq!(s.valid_len, 0, "cut at {cut}");
            assert_eq!(s.generation, None);
            assert!(s.records.is_empty());
        }
    }

    #[test]
    fn legacy_headerless_segment_scans_with_no_generation() {
        let log = frame(1, b"alpha");
        let s = scan(&log);
        assert_eq!(s.generation, None);
        assert_eq!(s.header_len, 0);
        assert_eq!(s.valid_len, log.len() as u64);
        assert_eq!(s.records.len(), 1);
    }
}
