//! The store manifest: the authoritative list of live log files.
//!
//! [`StorageFs`](crate::fs::StorageFs) deliberately has no directory
//! listing, so the store records which WAL segments are live in a
//! small text file, `manifest`, rewritten
//! atomically (write `manifest.tmp`, fsync, rename, fsync dir) on every
//! rotation, checkpoint and salvage. Anything on disk that the manifest
//! does not mention is dead weight — an orphan from a crash mid-protocol
//! — and is ignored by recovery.
//!
//! Format (one entry per line, in log order):
//!
//! ```text
//! XSQLMANIFESTv1
//! gen 3
//! seg wal.000001
//! seg wal.000002
//! ```
//!
//! `gen` is the primary generation (fencing term): the store's writer
//! may only extend the log while its own generation equals this value.
//! Promotion bumps it; a deposed primary that observes a higher value
//! in the shipped manifest refuses to append (see `docs/SERVING.md`).
//! A manifest without a `gen` line is generation 1 (pre-fencing
//! stores). `seg` lines are WAL segments, oldest first; the last one is
//! the active (appendable) segment. Older versions of this store could
//! also list `delta` lines (incremental checkpoint files); those
//! versions retired the segments a delta covered, so a manifest with a
//! `delta` line is refused, never skipped. A store created before
//! manifests (a bare `wal` file) is opened by
//! synthesizing a one-segment manifest in memory; the first rotation or
//! checkpoint writes the real file.

use crate::{StorageError, StorageResult};

/// First line of every manifest file.
pub const MANIFEST_MAGIC: &str = "XSQLMANIFESTv1";

/// Parsed manifest contents: the primary generation plus segment
/// names, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Primary generation (fencing term). `1` for stores whose manifest
    /// predates fencing.
    pub generation: u64,
    /// WAL segment file names, oldest first; the last is active.
    pub segments: Vec<String>,
}

impl Default for Manifest {
    fn default() -> Self {
        Manifest {
            generation: 1,
            segments: Vec::new(),
        }
    }
}

/// Renders a manifest to its on-disk text form.
pub fn render_manifest(m: &Manifest) -> Vec<u8> {
    let mut out = String::with_capacity(64);
    out.push_str(MANIFEST_MAGIC);
    out.push('\n');
    out.push_str("gen ");
    out.push_str(&m.generation.to_string());
    out.push('\n');
    for s in &m.segments {
        out.push_str("seg ");
        out.push_str(s);
        out.push('\n');
    }
    out.into_bytes()
}

/// True when `bytes` hold a `delta` line. Only a manifest that lists an
/// incremental checkpoint has one, so a torn copy of any other manifest
/// never does: a reader that retries torn copies must refuse these.
pub fn lists_delta(bytes: &[u8]) -> bool {
    bytes
        .split(|&b| b == b'\n')
        .any(|l| l.starts_with(b"delta "))
}

fn corrupt(detail: &str) -> StorageError {
    StorageError::Corrupt(format!("manifest: {detail}"))
}

/// Parses and validates a manifest file. File names must be bare (no
/// path separators) — a manifest never points outside its store
/// directory.
pub fn parse_manifest(bytes: &[u8]) -> StorageResult<Manifest> {
    let text = std::str::from_utf8(bytes).map_err(|_| corrupt("not UTF-8"))?;
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return Err(corrupt("bad magic"));
    }
    let mut m = Manifest::default();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (kind, name) = line.split_once(' ').ok_or_else(|| corrupt("bad entry"))?;
        if kind == "gen" {
            m.generation = name.parse().map_err(|_| corrupt("bad generation"))?;
            continue;
        }
        if name.is_empty() || name.contains('/') || name.contains('\\') {
            return Err(corrupt("bad file name"));
        }
        match kind {
            "seg" => m.segments.push(name.to_string()),
            "delta" => {
                return Err(StorageError::Corrupt(format!(
                    "manifest lists {name}, an incremental checkpoint this version \
                     cannot read; the segments it covers are gone, so skipping it \
                     would drop committed units"
                )))
            }
            _ => return Err(corrupt("unknown entry kind")),
        }
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let m = Manifest {
            generation: 5,
            segments: vec!["wal.000001".into(), "wal.000004".into()],
        };
        assert_eq!(parse_manifest(&render_manifest(&m)).unwrap(), m);
    }

    #[test]
    fn delta_line_is_refused_by_name() {
        let err =
            parse_manifest(b"XSQLMANIFESTv1\ngen 2\nseg wal.000004\ndelta delta.000003.bin\n")
                .unwrap_err()
                .to_string();
        assert!(err.contains("delta.000003.bin"), "{err}");
        assert!(err.contains("incremental checkpoint"), "{err}");
        assert!(lists_delta(b"XSQLMANIFESTv1\ndelta delta.000003.bin"));
        assert!(!lists_delta(b"XSQLMANIFESTv1\ngen 2\nseg wal.000004\n"));
    }

    #[test]
    fn empty_manifest_roundtrips() {
        let m = Manifest::default();
        assert_eq!(parse_manifest(&render_manifest(&m)).unwrap(), m);
    }

    #[test]
    fn manifest_without_gen_line_is_generation_one() {
        let m = parse_manifest(b"XSQLMANIFESTv1\nseg wal.000001\n").unwrap();
        assert_eq!(m.generation, 1);
        assert_eq!(m.segments, vec!["wal.000001".to_string()]);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(parse_manifest(b"").is_err());
        assert!(parse_manifest(b"NOPE\n").is_err());
        assert!(parse_manifest(b"XSQLMANIFESTv1\nwat wal.1\n").is_err());
        assert!(parse_manifest(b"XSQLMANIFESTv1\nseg\n").is_err());
        assert!(parse_manifest(b"XSQLMANIFESTv1\nseg ../evil\n").is_err());
        assert!(parse_manifest(b"XSQLMANIFESTv1\ngen nope\n").is_err());
        assert!(parse_manifest(&[0xff, 0xfe]).is_err());
    }
}
