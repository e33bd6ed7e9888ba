//! Checkpoint (snapshot) files.
//!
//! A snapshot file is the whole database at a point in the log, plus
//! everything the session needs to resume: the base-fixture tag, the
//! WAL sequence number the snapshot covers (`last_seq` — replay skips
//! records at or below it), the anonymous-OID counter, and the catalog
//! of definitional statements to re-execute (computed methods and views
//! are closures and cannot be serialized; see `oodb::snapshot`).
//!
//! Layout: an 8-byte magic, a CRC32 of the body, then the body. Unlike
//! the WAL codec, OIDs here are raw `u32` table indices — the file
//! carries the complete interner table, so indices are self-contained.
//!
//! Checkpoints are written atomically: encode, write `snapshot.tmp`,
//! fsync it, rename over `snapshot.bin`, fsync the directory. A crash at
//! any point leaves either the old snapshot or the new one, never a
//! hybrid; [`crate::Store`] only retires WAL segments after the rename
//! is durable.

use crate::{wal, StorageError, StorageResult};
use oodb::{ClassEntry, DbSnapshot, Oid, OidData, Signature, Val};
use std::collections::BTreeSet;

/// File magic for snapshot files (version baked into the last byte).
pub const MAGIC: &[u8; 8] = b"XSQLSNP1";

/// A decoded checkpoint file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotFile {
    /// Tag of the base fixture the database was seeded from (the store
    /// replays on top of that fixture).
    pub base_tag: String,
    /// Highest WAL sequence number whose effects the snapshot contains;
    /// recovery skips WAL records with `seq <= last_seq`.
    pub last_seq: u64,
    /// The session's anonymous-OID counter at checkpoint time.
    pub anon_counter: u64,
    /// Definitional statements (computed methods, views) in execution
    /// order, re-executed definitions-only after import.
    pub catalog: Vec<String>,
    /// The database state proper.
    pub db: DbSnapshot,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_len(out: &mut Vec<u8>, n: usize) {
    put_u32(out, u32::try_from(n).expect("length fits u32"));
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn put_oid(out: &mut Vec<u8>, o: Oid) {
    put_u32(out, u32::try_from(o.index()).expect("OID fits u32"));
}

fn put_oids(out: &mut Vec<u8>, os: &[Oid]) {
    put_len(out, os.len());
    for &o in os {
        put_oid(out, o);
    }
}

/// Encodes one class entry (identity, supers, signatures, resolutions).
fn put_class_entry(out: &mut Vec<u8>, ce: &ClassEntry) {
    put_oid(out, ce.class);
    put_oids(out, &ce.supers);
    put_len(out, ce.sigs.len());
    for sig in &ce.sigs {
        put_oid(out, sig.method);
        put_oids(out, &sig.args);
        put_oid(out, sig.result);
        out.push(u8::from(sig.set_valued));
    }
    put_len(out, ce.resolutions.len());
    for &(m, f) in &ce.resolutions {
        put_oid(out, m);
        put_oid(out, f);
    }
}

/// Encodes one interner entry (tag byte + payload).
fn put_oid_data(out: &mut Vec<u8>, d: &OidData) {
    match d {
        OidData::Sym(s) => {
            out.push(0);
            put_str(out, s);
        }
        OidData::Int(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        OidData::Real(b) => {
            out.push(2);
            put_u64(out, *b);
        }
        OidData::Str(s) => {
            out.push(3);
            put_str(out, s);
        }
        OidData::Bool(v) => {
            out.push(4);
            out.push(u8::from(*v));
        }
        OidData::Nil => out.push(5),
        OidData::Func(f, args) => {
            out.push(6);
            put_oid(out, *f);
            put_oids(out, args);
        }
    }
}

fn put_val(out: &mut Vec<u8>, v: &Val) {
    match v {
        Val::Scalar(o) => {
            out.push(0);
            put_oid(out, *o);
        }
        Val::Set(s) => {
            out.push(1);
            put_len(out, s.len());
            for &o in s {
                put_oid(out, o);
            }
        }
    }
}

/// Encodes a snapshot file (magic + CRC + body).
pub fn encode_snapshot(snap: &SnapshotFile) -> Vec<u8> {
    let mut body = Vec::new();
    put_str(&mut body, &snap.base_tag);
    put_u64(&mut body, snap.last_seq);
    put_u64(&mut body, snap.anon_counter);
    put_len(&mut body, snap.catalog.len());
    for s in &snap.catalog {
        put_str(&mut body, s);
    }
    put_len(&mut body, snap.db.oids.len());
    for d in &snap.db.oids {
        put_oid_data(&mut body, d);
    }
    put_len(&mut body, snap.db.classes.len());
    for ce in &snap.db.classes {
        put_class_entry(&mut body, ce);
    }
    put_len(&mut body, snap.db.instance_of.len());
    for (o, cs) in &snap.db.instance_of {
        put_oid(&mut body, *o);
        put_oids(&mut body, cs);
    }
    put_oids(&mut body, &snap.db.individuals);
    put_oids(&mut body, &snap.db.method_objects);
    put_len(&mut body, snap.db.state.len());
    for ((recv, method, args), v) in &snap.db.state {
        put_oid(&mut body, *recv);
        put_oid(&mut body, *method);
        put_oids(&mut body, args);
        put_val(&mut body, v);
    }

    let mut out = Vec::with_capacity(MAGIC.len() + 4 + body.len());
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, wal::crc32(0, &body));
    out.extend_from_slice(&body);
    out
}

/// Byte cursor for decoding (indices are validated against the table
/// length after the table section is read).
struct R<'a> {
    b: &'a [u8],
    pos: usize,
}

fn corrupt(what: &str) -> StorageError {
    StorageError::Corrupt(format!("snapshot: truncated or malformed {what}"))
}

impl<'a> R<'a> {
    fn take(&mut self, n: usize, what: &str) -> StorageResult<&'a [u8]> {
        if self.b.len() - self.pos < n {
            return Err(corrupt(what));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> StorageResult<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> StorageResult<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> StorageResult<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn len(&mut self, what: &str) -> StorageResult<usize> {
        let n = self.u32(what)? as usize;
        if n > self.b.len() - self.pos {
            return Err(corrupt(what));
        }
        Ok(n)
    }

    fn str(&mut self, what: &str) -> StorageResult<String> {
        let n = self.len(what)?;
        String::from_utf8(self.take(n, what)?.to_vec()).map_err(|_| corrupt(what))
    }
}

struct OidReader {
    table_len: usize,
}

impl OidReader {
    fn oid(&self, r: &mut R<'_>, what: &str) -> StorageResult<Oid> {
        let i = r.u32(what)? as usize;
        if i >= self.table_len {
            return Err(corrupt(what));
        }
        Ok(Oid::from_index(i))
    }

    fn oids(&self, r: &mut R<'_>, what: &str) -> StorageResult<Vec<Oid>> {
        let n = r.len(what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.oid(r, what)?);
        }
        Ok(out)
    }

    fn val(&self, r: &mut R<'_>) -> StorageResult<Val> {
        Ok(match r.u8("value tag")? {
            0 => Val::Scalar(self.oid(r, "scalar value")?),
            1 => {
                let n = r.len("set size")?;
                let mut s = BTreeSet::new();
                for _ in 0..n {
                    s.insert(self.oid(r, "set member")?);
                }
                Val::Set(s)
            }
            _ => return Err(corrupt("value tag")),
        })
    }
}

/// Decodes one interner entry at table index `i`. Id-term references
/// must point strictly below `i` (interning order guarantees args
/// precede their term).
fn read_oid_data(r: &mut R<'_>, rd: &OidReader, i: usize) -> StorageResult<OidData> {
    Ok(match r.u8("oid tag")? {
        0 => OidData::Sym(r.str("symbol")?.into()),
        1 => OidData::Int(i64::from_le_bytes(r.take(8, "int")?.try_into().unwrap())),
        2 => OidData::Real(r.u64("real")?),
        3 => OidData::Str(r.str("string")?.into()),
        4 => OidData::Bool(r.u8("bool")? != 0),
        5 => OidData::Nil,
        6 => {
            let f = rd.oid(r, "functor")?;
            let args = rd.oids(r, "id-term args")?;
            if f.index() >= i || args.iter().any(|a| a.index() >= i) {
                return Err(corrupt("id-term forward reference"));
            }
            OidData::Func(f, args.into())
        }
        _ => return Err(corrupt("oid tag")),
    })
}

/// Decodes one class entry.
fn read_class_entry(r: &mut R<'_>, rd: &OidReader) -> StorageResult<ClassEntry> {
    let class = rd.oid(r, "class oid")?;
    let supers = rd.oids(r, "supers")?;
    let ns = r.len("signature count")?;
    let mut sigs = Vec::with_capacity(ns);
    for _ in 0..ns {
        sigs.push(Signature {
            method: rd.oid(r, "sig method")?,
            args: rd.oids(r, "sig args")?,
            result: rd.oid(r, "sig result")?,
            set_valued: r.u8("sig kind")? != 0,
        });
    }
    let nr = r.len("resolution count")?;
    let mut resolutions = Vec::with_capacity(nr);
    for _ in 0..nr {
        let m = rd.oid(r, "resolution method")?;
        let f = rd.oid(r, "resolution source")?;
        resolutions.push((m, f));
    }
    Ok(ClassEntry {
        class,
        supers,
        sigs,
        resolutions,
    })
}

/// Decodes and validates a snapshot file (magic and CRC checked first).
pub fn decode_snapshot(bytes: &[u8]) -> StorageResult<SnapshotFile> {
    if bytes.len() < MAGIC.len() + 4 || &bytes[..MAGIC.len()] != MAGIC {
        return Err(corrupt("magic"));
    }
    let crc = u32::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 4].try_into().unwrap());
    let body = &bytes[MAGIC.len() + 4..];
    if wal::crc32(0, body) != crc {
        return Err(StorageError::Corrupt("snapshot: checksum mismatch".into()));
    }
    let mut r = R { b: body, pos: 0 };
    let base_tag = r.str("base tag")?;
    let last_seq = r.u64("last seq")?;
    let anon_counter = r.u64("anon counter")?;
    let nc = r.len("catalog count")?;
    let mut catalog = Vec::with_capacity(nc);
    for _ in 0..nc {
        catalog.push(r.str("catalog statement")?);
    }
    let no = r.len("oid count")?;
    let mut oids = Vec::with_capacity(no);
    let rd = OidReader { table_len: no };
    for i in 0..no {
        oids.push(read_oid_data(&mut r, &rd, i)?);
    }
    let ncl = r.len("class count")?;
    let mut classes = Vec::with_capacity(ncl);
    for _ in 0..ncl {
        classes.push(read_class_entry(&mut r, &rd)?);
    }
    let ni = r.len("instance-of count")?;
    let mut instance_of = Vec::with_capacity(ni);
    for _ in 0..ni {
        let o = rd.oid(&mut r, "instance object")?;
        let cs = rd.oids(&mut r, "instance classes")?;
        instance_of.push((o, cs));
    }
    let individuals = rd.oids(&mut r, "individuals")?;
    let method_objects = rd.oids(&mut r, "method objects")?;
    let nst = r.len("state count")?;
    let mut state = Vec::with_capacity(nst);
    for _ in 0..nst {
        let recv = rd.oid(&mut r, "state receiver")?;
        let method = rd.oid(&mut r, "state method")?;
        let args = rd.oids(&mut r, "state args")?;
        let v = rd.val(&mut r)?;
        state.push(((recv, method, args), v));
    }
    if r.pos != body.len() {
        return Err(corrupt("file (trailing bytes)"));
    }
    Ok(SnapshotFile {
        base_tag,
        last_seq,
        anon_counter,
        catalog,
        db: DbSnapshot {
            oids,
            classes,
            instance_of,
            individuals,
            method_objects,
            state,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb::Database;

    fn sample() -> SnapshotFile {
        let mut db = Database::new();
        let person = db.define_class("Person", &[]).unwrap();
        let string = db.builtins().string;
        db.add_signature(person, "Name", &[], string, false)
            .unwrap();
        let p = db.new_individual("p1", &[person]).unwrap();
        let name = db.oids().find_sym("Name").unwrap();
        let v = db.oids_mut().str("Pat");
        db.set_scalar(p, name, &[], v).unwrap();
        let f = db.oids_mut().sym("idf");
        let t = db.oids_mut().func(f, &[p]);
        db.register_individual(t, &[person]).unwrap();
        SnapshotFile {
            base_tag: "empty".into(),
            last_seq: 41,
            anon_counter: 3,
            catalog: vec!["CREATE VIEW V AS SELECT X FROM Person X".into()],
            db: db.export_snapshot(),
        }
    }

    #[test]
    fn snapshot_roundtrips_and_imports() {
        let snap = sample();
        let bytes = encode_snapshot(&snap);
        let got = decode_snapshot(&bytes).unwrap();
        assert_eq!(got, snap);
        let db = Database::import_snapshot(got.db).unwrap();
        let person = db.oids().find_sym("Person").unwrap();
        let p = db.oids().find_sym("p1").unwrap();
        assert!(db.is_instance_of(p, person));
        let name = db.oids().find_sym("Name").unwrap();
        let val = db.value(p, name, &[]).unwrap().unwrap();
        assert_eq!(db.oids().as_str(val.as_scalar().unwrap()), Some("Pat"));
    }

    #[test]
    fn any_flipped_byte_is_detected() {
        let bytes = encode_snapshot(&sample());
        // Flip one byte at a spread of positions; decode must fail (or,
        // for the length-prefix bytes, fail structurally) every time.
        for i in (0..bytes.len()).step_by(7) {
            let mut m = bytes.clone();
            m[i] ^= 0x40;
            assert!(decode_snapshot(&m).is_err(), "flip at {i} went unnoticed");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode_snapshot(&sample());
        for cut in [0, 7, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_snapshot(&bytes[..cut]).is_err());
        }
    }
}
