//! Typed ordered secondary index over attribute values.
//!
//! The inverted method index (`by_method`) answers only "which
//! receivers store anything under this method". Value lookups need two
//! things more: **order** (range predicates `X.Age < 30` probe a
//! contiguous key run instead of scanning the extent) and **numeral
//! insensitivity** (the paper's abstract-number semantics — the numeral
//! objects `2` and `2.0` denote the same number, so an equality probe
//! must land both spellings in one bucket). This index serves both the
//! planner's access paths and the evaluator's value-anchored head
//! candidates (`Database::candidates_with_method_value`).
//!
//! [`ValueKey`] is that typed key: numerals collapse onto their shared
//! numeric value encoded in total-order bits (the same bit-flip
//! encoding the evaluator's `OrdF64` uses), strings key by content,
//! booleans by value, and everything else by object identity. Keys of
//! different type families never compare equal, and within the map
//! each family forms one contiguous run (`Num < Str < Bool < Obj`), so
//! a numeric or lexicographic range probe is a single ordered range
//! scan.
//!
//! The index itself lives in [`Database`](crate::Database) as
//! `by_method_key`, one flat ordered set of `(method, key, receiver)`
//! postings ([`AttrIndex`]), and is maintained by the same two private
//! helpers (`index_insert` / `index_remove`) that keep `by_method`
//! alive. Every mutation path funnels through those helpers — direct
//! stores, undo application (`ROLLBACK` / savepoints) and redo replay
//! (crash recovery and replicas) — so transactional rollback and
//! recovery keep this index consistent for free; snapshot import builds
//! it in one sorted pass from the same postings.
//! `Database::attr_index_divergence` checks the live structure against
//! a from-scratch rebuild, which the proptest suites run after hostile
//! interleavings.

use crate::cow::ChunkSet;
use crate::oid::{Oid, OidData, OidTable};

/// A typed, totally-ordered index key for one stored value member.
///
/// Ordering is derived: the `Num` family sorts first (by the encoded
/// numeric value), then strings (lexicographic), booleans, and plain
/// object identities. See the module docs for why numerals collapse
/// across their `Int`/`Real` spellings.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValueKey {
    /// A numeral, keyed by its numeric value in total-order bits
    /// ([`ValueKey::num`]). `Int(2)` and `Real(2.0)` share one key.
    Num(u64),
    /// A string object, keyed by content (contents are interned, so
    /// content equality coincides with object identity).
    Str(Box<str>),
    /// A boolean object.
    Bool(bool),
    /// Any other object (symbols, id-terms, nil), keyed by identity.
    Obj(Oid),
}

impl ValueKey {
    /// The key of an object: numerals by numeric value, strings by
    /// content, booleans by value, everything else by identity.
    pub fn of(oids: &OidTable, o: Oid) -> ValueKey {
        if let Some(n) = oids.as_number(o) {
            return ValueKey::num(n);
        }
        match oids.get(o) {
            OidData::Str(s) => ValueKey::Str(s.clone()),
            OidData::Bool(b) => ValueKey::Bool(*b),
            _ => ValueKey::Obj(o),
        }
    }

    /// A numeric key from a raw `f64` (total-order bit encoding: the
    /// encoded `u64`s compare exactly like the floats they encode).
    /// Probe keys for range scans come from here.
    pub fn num(v: f64) -> ValueKey {
        debug_assert!(!v.is_nan());
        let bits = v.to_bits();
        ValueKey::Num(if bits >> 63 == 0 {
            bits | (1 << 63)
        } else {
            !bits
        })
    }

    /// The numeric value of a `Num` key.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            ValueKey::Num(key) => {
                let bits = if key >> 63 == 1 {
                    key & !(1 << 63)
                } else {
                    !key
                };
                Some(f64::from_bits(bits))
            }
            _ => None,
        }
    }
}

/// The ordered index of every method, one `(method, typed value key,
/// receiver)` posting per receiver with a stored entry whose value
/// contains a member with that key. One method's postings form one
/// contiguous run, and within it one key's receivers do, so an equality
/// or range probe is one ordered scan; a write adds or drops single
/// postings, so the write after a publish copies one bounded chunk.
pub type AttrIndex = ChunkSet<(Oid, ValueKey, Oid)>;

/// Per-attribute statistics the planner's cost model reads: sizes of
/// one method's ordered index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrStats {
    /// Distinct value keys stored under the method.
    pub distinct_keys: usize,
    /// Total (key, receiver) postings — an upper bound on the receivers
    /// with any stored entry for the method.
    pub postings: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numerals_collapse_to_one_key() {
        let mut t = OidTable::new();
        let i = t.int(2);
        let r = t.real(2.0);
        assert_ne!(i, r);
        assert_eq!(ValueKey::of(&t, i), ValueKey::of(&t, r));
        assert_eq!(ValueKey::of(&t, i), ValueKey::num(2.0));
    }

    #[test]
    fn num_keys_order_like_floats_and_roundtrip() {
        for w in [-1e18, -2.5, -1.0, 0.0, 0.5, 3.0, 1e18].windows(2) {
            assert!(ValueKey::num(w[0]) < ValueKey::num(w[1]), "{w:?}");
        }
        for v in [-3.5, 0.0, 1.0, 2.5, 1e18] {
            assert_eq!(ValueKey::num(v).as_number(), Some(v));
        }
    }

    #[test]
    fn type_families_are_contiguous_runs() {
        let mut t = OidTable::new();
        let s = t.str("abc");
        let b = t.bool(true);
        let o = t.sym("plain");
        let num = ValueKey::num(1e300);
        let st = ValueKey::of(&t, s);
        let bo = ValueKey::of(&t, b);
        let ob = ValueKey::of(&t, o);
        assert!(num < st && st < bo && bo < ob);
        assert_eq!(st, ValueKey::Str("abc".into()));
        assert_eq!(ob.as_number(), None);
    }
}
