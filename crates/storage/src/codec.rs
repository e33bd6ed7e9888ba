//! Binary codec for WAL payloads.
//!
//! A WAL record's payload is one [`CommitUnit`]: the session's
//! anonymous-OID counter after the unit, plus the entries of the unit —
//! one per statement, either the statement's redo-op list
//! ([`WalEntry::Ops`]) or, for definitional statements whose effect is a
//! closure that cannot be serialized (`ALTER CLASS … SELECT`,
//! `CREATE VIEW`), the statement source text ([`WalEntry::Stmt`]) to be
//! re-executed on replay.
//!
//! OIDs are encoded **structurally**: each handle is written as its
//! [`OidData`] term (recursively for id-terms), and decoding re-interns
//! the term in the recovering database's own table. Interning is not
//! WAL-logged (see `oodb::redo`), so table positions differ across
//! processes — structural encoding makes records position-independent.
//! The snapshot codec ([`crate::snapshot`]) is the one place raw indices
//! are used, because it persists the whole table alongside.
//!
//! All integers are little-endian; lengths and counts are `u32`.

use crate::bytes::{put_len, put_str, put_u64, Reader};
use crate::StorageResult;
use oodb::{Oid, OidData, OidTable, RedoOp, Signature, Val};

/// One journaled statement inside a commit unit.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEntry {
    /// The statement's effect as redo ops (the common case).
    Ops(Vec<RedoOp>),
    /// The statement's XSQL source text, for definitional statements
    /// whose effect installs a computed method or view (re-executed on
    /// replay).
    Stmt(String),
}

/// The payload of one WAL record: everything committed by one
/// auto-committed statement or one explicit transaction, plus the
/// session counters that must survive recovery.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CommitUnit {
    /// The session's anonymous-OID counter *after* this unit (restored
    /// on replay so freshly invented `_oidfn…` names never collide with
    /// recovered ones).
    pub anon_counter: u64,
    /// The journaled statements, in execution order.
    pub entries: Vec<WalEntry>,
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Encodes one OID as its structural term.
fn put_term(out: &mut Vec<u8>, oids: &OidTable, o: Oid) {
    match oids.get(o) {
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
            let (f, args) = (*f, args.clone());
            put_term(out, oids, f);
            put_len(out, args.len());
            for a in args.iter() {
                put_term(out, oids, *a);
            }
        }
    }
}

fn put_terms(out: &mut Vec<u8>, oids: &OidTable, os: &[Oid]) {
    put_len(out, os.len());
    for &o in os {
        put_term(out, oids, o);
    }
}

fn put_val(out: &mut Vec<u8>, oids: &OidTable, v: &Val) {
    match v {
        Val::Scalar(o) => {
            out.push(0);
            put_term(out, oids, *o);
        }
        Val::Set(s) => {
            out.push(1);
            put_len(out, s.len());
            for &o in s {
                put_term(out, oids, o);
            }
        }
    }
}

fn put_key(out: &mut Vec<u8>, oids: &OidTable, key: &(Oid, Oid, Vec<Oid>)) {
    put_term(out, oids, key.0);
    put_term(out, oids, key.1);
    put_terms(out, oids, &key.2);
}

fn put_sig(out: &mut Vec<u8>, oids: &OidTable, sig: &Signature) {
    put_term(out, oids, sig.method);
    put_terms(out, oids, &sig.args);
    put_term(out, oids, sig.result);
    out.push(u8::from(sig.set_valued));
}

fn put_redo(out: &mut Vec<u8>, oids: &OidTable, op: &RedoOp) {
    match op {
        RedoOp::DefineClass { class, supers } => {
            out.push(0);
            put_term(out, oids, *class);
            put_terms(out, oids, supers);
        }
        RedoOp::AddIsA { sub, sup } => {
            out.push(1);
            put_term(out, oids, *sub);
            put_term(out, oids, *sup);
        }
        RedoOp::PutState { key, val } => {
            out.push(2);
            put_key(out, oids, key);
            put_val(out, oids, val);
        }
        RedoOp::RemoveState { key } => {
            out.push(3);
            put_key(out, oids, key);
        }
        RedoOp::AddIndividual(o) => {
            out.push(4);
            put_term(out, oids, *o);
        }
        RedoOp::RemoveIndividual(o) => {
            out.push(5);
            put_term(out, oids, *o);
        }
        RedoOp::AddMembership { o, class } => {
            out.push(6);
            put_term(out, oids, *o);
            put_term(out, oids, *class);
        }
        RedoOp::RemoveMembership { o, class } => {
            out.push(7);
            put_term(out, oids, *o);
            put_term(out, oids, *class);
        }
        RedoOp::AddMethodObject(m) => {
            out.push(8);
            put_term(out, oids, *m);
        }
        RedoOp::AddSignature { class, sig } => {
            out.push(9);
            put_term(out, oids, *class);
            put_sig(out, oids, sig);
        }
        RedoOp::SetResolution {
            class,
            method,
            from,
        } => {
            out.push(10);
            put_term(out, oids, *class);
            put_term(out, oids, *method);
            put_term(out, oids, *from);
        }
    }
}

/// Encodes one commit unit as a WAL record payload.
pub fn encode_commit(unit: &CommitUnit, oids: &OidTable) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, unit.anon_counter);
    put_len(&mut out, unit.entries.len());
    for e in &unit.entries {
        match e {
            WalEntry::Ops(ops) => {
                out.push(0);
                put_len(&mut out, ops.len());
                for op in ops {
                    put_redo(&mut out, oids, op);
                }
            }
            WalEntry::Stmt(src) => {
                out.push(1);
                put_str(&mut out, src);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn get_term(r: &mut Reader<'_>, oids: &mut OidTable) -> StorageResult<Oid> {
    Ok(match r.u8("term tag")? {
        0 => {
            let s = r.str("symbol")?;
            oids.sym(&s)
        }
        1 => oids.int(r.i64("int")?),
        2 => {
            let bits = r.u64("real")?;
            let v = f64::from_bits(bits);
            if v.is_nan() {
                return Err(r.corrupt("real (NaN)"));
            }
            oids.real(v)
        }
        3 => {
            let s = r.str("string")?;
            oids.str(&s)
        }
        4 => oids.bool(r.u8("bool")? != 0),
        5 => oids.nil(),
        6 => {
            let f = get_term(r, oids)?;
            let n = r.len("id-term arity")?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(get_term(r, oids)?);
            }
            if !matches!(oids.get(f), OidData::Sym(_)) {
                return Err(r.corrupt("id-term functor"));
            }
            oids.func(f, &args)
        }
        _ => return Err(r.corrupt("term tag")),
    })
}

fn get_terms(r: &mut Reader<'_>, oids: &mut OidTable) -> StorageResult<Vec<Oid>> {
    let n = r.len("term count")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_term(r, oids)?);
    }
    Ok(out)
}

fn get_val(r: &mut Reader<'_>, oids: &mut OidTable) -> StorageResult<Val> {
    Ok(match r.u8("value tag")? {
        0 => Val::Scalar(get_term(r, oids)?),
        1 => {
            let n = r.len("set size")?;
            let mut s = std::collections::BTreeSet::new();
            for _ in 0..n {
                s.insert(get_term(r, oids)?);
            }
            Val::Set(s)
        }
        _ => return Err(r.corrupt("value tag")),
    })
}

fn get_key(r: &mut Reader<'_>, oids: &mut OidTable) -> StorageResult<(Oid, Oid, Vec<Oid>)> {
    let recv = get_term(r, oids)?;
    let method = get_term(r, oids)?;
    let args = get_terms(r, oids)?;
    Ok((recv, method, args))
}

fn get_sig(r: &mut Reader<'_>, oids: &mut OidTable) -> StorageResult<Signature> {
    let method = get_term(r, oids)?;
    let args = get_terms(r, oids)?;
    let result = get_term(r, oids)?;
    let set_valued = r.u8("set-valued flag")? != 0;
    Ok(Signature {
        method,
        args,
        result,
        set_valued,
    })
}

fn get_redo(r: &mut Reader<'_>, oids: &mut OidTable) -> StorageResult<RedoOp> {
    Ok(match r.u8("redo tag")? {
        0 => RedoOp::DefineClass {
            class: get_term(r, oids)?,
            supers: get_terms(r, oids)?,
        },
        1 => RedoOp::AddIsA {
            sub: get_term(r, oids)?,
            sup: get_term(r, oids)?,
        },
        2 => RedoOp::PutState {
            key: get_key(r, oids)?,
            val: get_val(r, oids)?,
        },
        3 => RedoOp::RemoveState {
            key: get_key(r, oids)?,
        },
        4 => RedoOp::AddIndividual(get_term(r, oids)?),
        5 => RedoOp::RemoveIndividual(get_term(r, oids)?),
        6 => RedoOp::AddMembership {
            o: get_term(r, oids)?,
            class: get_term(r, oids)?,
        },
        7 => RedoOp::RemoveMembership {
            o: get_term(r, oids)?,
            class: get_term(r, oids)?,
        },
        8 => RedoOp::AddMethodObject(get_term(r, oids)?),
        9 => RedoOp::AddSignature {
            class: get_term(r, oids)?,
            sig: get_sig(r, oids)?,
        },
        10 => RedoOp::SetResolution {
            class: get_term(r, oids)?,
            method: get_term(r, oids)?,
            from: get_term(r, oids)?,
        },
        _ => return Err(r.corrupt("redo tag")),
    })
}

/// Decodes a WAL record payload back into a [`CommitUnit`], interning
/// every mentioned OID into `oids`.
pub fn decode_commit(bytes: &[u8], oids: &mut OidTable) -> StorageResult<CommitUnit> {
    let mut r = Reader::new(bytes, "");
    let anon_counter = r.u64("anon counter")?;
    let n = r.len("entry count")?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(match r.u8("entry tag")? {
            0 => {
                let k = r.len("op count")?;
                let mut ops = Vec::with_capacity(k);
                for _ in 0..k {
                    ops.push(get_redo(&mut r, oids)?);
                }
                WalEntry::Ops(ops)
            }
            1 => WalEntry::Stmt(r.str("statement text")?),
            _ => return Err(r.corrupt("entry tag")),
        });
    }
    if !r.done() {
        return Err(r.corrupt("commit unit (trailing bytes)"));
    }
    Ok(CommitUnit {
        anon_counter,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb::Database;

    #[test]
    fn commit_unit_roundtrips_across_tables() {
        let mut db = Database::new();
        let person = db.define_class("Person", &[]).unwrap();
        let f = db.oids_mut().sym("spouse_of");
        let p = db.oids_mut().sym("pat");
        let idt = db.oids_mut().func(f, &[p]);
        let name = db.oids_mut().sym("Name");
        let v = db.oids_mut().str("Pat");
        let n = db.oids_mut().int(42);
        let unit = CommitUnit {
            anon_counter: 7,
            entries: vec![
                WalEntry::Ops(vec![
                    RedoOp::DefineClass {
                        class: person,
                        supers: vec![db.builtins().object],
                    },
                    RedoOp::AddIndividual(idt),
                    RedoOp::PutState {
                        key: (idt, name, vec![n]),
                        val: Val::set([v, n]),
                    },
                ]),
                WalEntry::Stmt("CREATE VIEW V AS SELECT X FROM Person X".into()),
            ],
        };
        let bytes = encode_commit(&unit, db.oids());
        // Decode into a *fresh* table: structural terms re-intern.
        let mut other = Database::new();
        let got = decode_commit(&bytes, other.oids_mut()).unwrap();
        assert_eq!(got.anon_counter, 7);
        assert_eq!(got.entries.len(), 2);
        match (&got.entries[0], &unit.entries[0]) {
            (WalEntry::Ops(a), WalEntry::Ops(b)) => assert_eq!(a.len(), b.len()),
            _ => panic!("entry kind mismatch"),
        }
        // The id-term decoded structurally: its rendering matches.
        match &got.entries[0] {
            WalEntry::Ops(ops) => match &ops[1] {
                RedoOp::AddIndividual(o) => {
                    assert_eq!(other.render(*o), "spouse_of(pat)");
                }
                other => panic!("unexpected op {other:?}"),
            },
            _ => unreachable!(),
        }
        assert_eq!(got.entries[1], unit.entries[1]);
    }

    #[test]
    fn truncated_payload_is_corrupt_not_panic() {
        let mut db = Database::new();
        let o = db.oids_mut().sym("x");
        let unit = CommitUnit {
            anon_counter: 0,
            entries: vec![WalEntry::Ops(vec![RedoOp::AddIndividual(o)])],
        };
        let bytes = encode_commit(&unit, db.oids());
        for cut in 0..bytes.len() {
            let mut t = Database::new();
            assert!(
                decode_commit(&bytes[..cut], t.oids_mut()).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let db = Database::new();
        let unit = CommitUnit::default();
        let mut bytes = encode_commit(&unit, db.oids());
        bytes.push(0);
        let mut t = Database::new();
        assert!(decode_commit(&bytes, t.oids_mut()).is_err());
    }
}
