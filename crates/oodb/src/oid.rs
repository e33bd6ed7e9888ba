//! Logical object identities.
//!
//! Following §2 of the paper, the programmer refers to objects via *logical
//! object ids* — syntactic terms of the language. A logical OID is either a
//! symbol (`mary123`, `Person`, `Residence`), a value whose OID "carries
//! semantic information" (the numeral `20`, the string `"Ford Motor Co."`,
//! a boolean), the special object `nil` (§5), or an *id-term*
//! `f(t1,…,tk)` built with an explicit id-function as in \[KW89\] — the
//! mechanism the paper uses to invent OIDs for view objects (§4).
//!
//! All OIDs are interned in an [`OidTable`]; the handle type [`Oid`] is a
//! `u32` index, so equality, hashing and ordering of OIDs are O(1) and the
//! structural uniqueness of id-terms ("the value of f(x,w) is unique, if
//! defined, and does not occur elsewhere in the database", §4.1) holds by
//! construction.

use crate::cow::ChunkSet;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

/// Interned handle to a logical object id. Copyable, order is the
/// (deterministic) interning order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid(u32);

impl Oid {
    /// Smallest possible handle; useful as a range lower bound for
    /// ordered scans keyed by `Oid`.
    pub const MIN: Oid = Oid(0);

    /// Largest possible handle; the matching upper bound.
    pub const MAX: Oid = Oid(u32::MAX);

    /// Raw index into the owning [`OidTable`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a handle from a raw index. For persistence codecs that
    /// serialize OIDs as table positions; the index must denote an entry
    /// of the table the handle will be used with.
    #[inline]
    pub fn from_index(i: usize) -> Oid {
        Oid(u32::try_from(i).expect("OID index out of range"))
    }
}

/// The interned datum behind an [`Oid`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OidData {
    /// A symbolic id: individual names, class names, method names. The
    /// paper deliberately does not isolate attribute names from other
    /// logical OIDs (§2 "Attributes").
    Sym(Box<str>),
    /// An integer numeral object.
    Int(i64),
    /// A real numeral object, stored as the bit pattern of a non-NaN
    /// `f64` so the datum is `Eq + Hash`.
    Real(u64),
    /// A string object, written `'newyork'` in XSQL.
    Str(Box<str>),
    /// A boolean object.
    Bool(bool),
    /// The special object `nil` returned by update methods (§5).
    Nil,
    /// An id-term `f(t1,…,tk)`: functor symbol plus argument OIDs.
    Func(Oid, Box<[Oid]>),
}

/// Entries per chunk of the interned data. Chunks are shared between
/// copies of a table; appending copies at most the partial tail.
const CHUNK: usize = 256;

/// Interner for logical OIDs. Owned by [`crate::Database`].
///
/// Interning is never undone, so the table only grows. Copies of a
/// table share its storage: the data is a list of fixed-size [`Arc`]
/// chunks, and the lookup index is a [`ChunkSet`] of `(datum hash, OID)`
/// pairs whose data are read back from those chunks. The hash is keyed
/// per table (and shared by its copies), so data from outside cannot be
/// crafted to pile onto one hash. A clone costs one
/// `Arc` bump per chunk; interning a new datum copies the last data
/// chunk and one bounded index chunk if another copy still shares them,
/// and interning a known datum copies nothing.
#[derive(Clone, Default)]
pub struct OidTable {
    /// Entry `i` is `chunks[i / CHUNK][i % CHUNK]`. Chunks are arrays,
    /// so a lookup follows one pointer and checks one bound; slots at
    /// and past `len` hold `Nil` and are never handed out.
    chunks: Vec<Arc<[OidData; CHUNK]>>,
    len: usize,
    /// Every OID under the hash of its datum; equal hashes are told
    /// apart by comparing the data.
    index: ChunkSet<(u64, Oid)>,
    /// The keyed hasher of `index`.
    hasher: RandomState,
}

impl fmt::Debug for OidTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.entries()).finish()
    }
}

/// A datum as a lookup sees it: [`OidData`] with its text and id-term
/// arguments borrowed, so finding a known datum allocates nothing.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Datum<'a> {
    Sym(&'a str),
    Int(i64),
    Real(u64),
    Str(&'a str),
    Bool(bool),
    Nil,
    Func(Oid, &'a [Oid]),
}

impl Datum<'_> {
    fn of(d: &OidData) -> Datum<'_> {
        match d {
            OidData::Sym(s) => Datum::Sym(s),
            OidData::Int(v) => Datum::Int(*v),
            OidData::Real(b) => Datum::Real(*b),
            OidData::Str(s) => Datum::Str(s),
            OidData::Bool(b) => Datum::Bool(*b),
            OidData::Nil => Datum::Nil,
            OidData::Func(f, args) => Datum::Func(*f, args),
        }
    }

    fn to_owned(self) -> OidData {
        match self {
            Datum::Sym(s) => OidData::Sym(s.into()),
            Datum::Int(v) => OidData::Int(v),
            Datum::Real(b) => OidData::Real(b),
            Datum::Str(s) => OidData::Str(s.into()),
            Datum::Bool(b) => OidData::Bool(b),
            Datum::Nil => OidData::Nil,
            Datum::Func(f, args) => OidData::Func(f, args.into()),
        }
    }
}

fn number(d: &OidData) -> Option<f64> {
    match d {
        OidData::Int(v) => Some(*v as f64),
        OidData::Real(b) => Some(f64::from_bits(*b)),
        _ => None,
    }
}

impl OidTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct OIDs interned so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no OID has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn find(&self, d: Datum<'_>) -> Option<Oid> {
        self.find_hashed(self.hasher.hash_one(d), d)
    }

    /// The OID of `d`, whose hash is `h`.
    fn find_hashed(&self, h: u64, d: Datum<'_>) -> Option<Oid> {
        self.index
            .range((h, Oid::MIN)..=(h, Oid::MAX))
            .map(|&(_, o)| o)
            .find(|&o| Datum::of(self.get(o)) == d)
    }

    fn intern(&mut self, d: Datum<'_>) -> Oid {
        // The lookup goes through `&self`: a hit must not unshare
        // anything.
        let h = self.hasher.hash_one(d);
        if let Some(o) = self.find_hashed(h, d) {
            return o;
        }
        let o = Oid(u32::try_from(self.len()).expect("OID space exhausted"));
        self.index.insert((h, o));
        self.push(d.to_owned());
        o
    }

    /// Appends `d` as the datum of the next position.
    fn push(&mut self, d: OidData) {
        let (c, slot) = (self.len / CHUNK, self.len % CHUNK);
        if c == self.chunks.len() {
            self.chunks
                .push(Arc::new(std::array::from_fn(|_| OidData::Nil)));
        }
        Arc::make_mut(&mut self.chunks[c])[slot] = d;
        self.len += 1;
    }

    /// Interns a symbolic id.
    pub fn sym(&mut self, name: &str) -> Oid {
        self.intern(Datum::Sym(name))
    }

    /// Interns an integer numeral object.
    pub fn int(&mut self, v: i64) -> Oid {
        self.intern(Datum::Int(v))
    }

    /// Interns a real numeral object. NaN is rejected (it has no
    /// equality, hence no object identity).
    pub fn real(&mut self, v: f64) -> Oid {
        assert!(!v.is_nan(), "NaN has no object identity");
        // Normalize -0.0 to 0.0 so numerically equal reals share an OID.
        let v = if v == 0.0 { 0.0 } else { v };
        self.intern(Datum::Real(v.to_bits()))
    }

    /// Interns a string object.
    pub fn str(&mut self, v: &str) -> Oid {
        self.intern(Datum::Str(v))
    }

    /// Interns a boolean object.
    pub fn bool(&mut self, v: bool) -> Oid {
        self.intern(Datum::Bool(v))
    }

    /// The special object `nil`.
    pub fn nil(&mut self) -> Oid {
        self.intern(Datum::Nil)
    }

    /// Interns an id-term `functor(args…)`. `functor` must be a symbol.
    pub fn func(&mut self, functor: Oid, args: &[Oid]) -> Oid {
        debug_assert!(
            matches!(self.get(functor), OidData::Sym(_)),
            "id-function functor must be a symbol"
        );
        self.intern(Datum::Func(functor, args))
    }

    /// The storage chunks (data, then index), as pointers, for tests
    /// that check what two copies share.
    pub(crate) fn chunk_ptrs(&self) -> impl Iterator<Item = *const ()> + '_ {
        let data = self.chunks.iter().map(|c| Arc::as_ptr(c) as *const ());
        data.chain(self.index.chunks().map(|c| c.as_ptr() as *const ()))
    }

    /// The raw interned entries in interning order — the `i`-th item is
    /// the datum of `Oid::from_index(i)`. For persistence codecs.
    pub fn entries(&self) -> impl Iterator<Item = &OidData> + '_ {
        self.chunks.iter().flat_map(|c| c.iter()).take(self.len)
    }

    /// Rebuilds a table from raw entries (the inverse of
    /// [`OidTable::entries`]). Entries must be distinct and any
    /// [`OidData::Func`] arguments must point at earlier positions, as
    /// produced by interning.
    pub fn from_entries(entries: Vec<OidData>) -> OidTable {
        // Built in one pass: each data chunk is filled before it goes
        // behind its `Arc`, and the index is built from all the hashes
        // at once (`from_sorted` sorts them).
        let len = entries.len();
        let hasher = RandomState::new();
        let index = ChunkSet::from_sorted(
            entries
                .iter()
                .enumerate()
                .map(|(i, d)| (hasher.hash_one(Datum::of(d)), Oid::from_index(i))),
        );
        let mut chunks = Vec::with_capacity(len.div_ceil(CHUNK));
        let mut rest = entries.into_iter().peekable();
        while rest.peek().is_some() {
            let mut chunk: [OidData; CHUNK] = std::array::from_fn(|_| OidData::Nil);
            for (slot, d) in chunk.iter_mut().zip(rest.by_ref()) {
                *slot = d;
            }
            chunks.push(Arc::new(chunk));
        }
        OidTable {
            chunks,
            len,
            index,
            hasher,
        }
    }

    /// Looks up an already-interned symbol without interning.
    pub fn find_sym(&self, name: &str) -> Option<Oid> {
        self.find(Datum::Sym(name))
    }

    /// Looks up an already-interned id-term `functor(args…)` without
    /// interning. Used by read-only evaluation: an id-term that was
    /// never created denotes no object, so the path simply fails (§3.1).
    pub fn find_func(&self, functor: Oid, args: &[Oid]) -> Option<Oid> {
        self.find(Datum::Func(functor, args))
    }

    /// The datum behind a handle.
    #[inline]
    pub fn get(&self, o: Oid) -> &OidData {
        let i = o.index();
        assert!(i < self.len, "OID {i} is not in this table of {}", self.len);
        &self.chunks[i / CHUNK][i % CHUNK]
    }

    /// Numeric value if `o` is a numeral object.
    pub fn as_number(&self, o: Oid) -> Option<f64> {
        number(self.get(o))
    }

    /// String value if `o` is a string object.
    pub fn as_str(&self, o: Oid) -> Option<&str> {
        match self.get(o) {
            OidData::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Symbol name if `o` is a symbolic id.
    pub fn sym_name(&self, o: Oid) -> Option<&str> {
        match self.get(o) {
            OidData::Sym(s) => Some(s),
            _ => None,
        }
    }

    /// True if `o` denotes `nil`.
    pub fn is_nil(&self, o: Oid) -> bool {
        matches!(self.get(o), OidData::Nil)
    }

    /// Total order used by deterministic result rendering: numerals by
    /// value, then strings, booleans, symbols, nil, id-terms
    /// (recursively). Falls back to interning order within a kind where
    /// no natural order exists.
    pub fn display_cmp(&self, a: Oid, b: Oid) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        fn rank(d: &OidData) -> u8 {
            match d {
                OidData::Int(_) | OidData::Real(_) => 0,
                OidData::Str(_) => 1,
                OidData::Bool(_) => 2,
                OidData::Sym(_) => 3,
                OidData::Nil => 4,
                OidData::Func(..) => 5,
            }
        }
        let (da, db) = (self.get(a), self.get(b));
        match rank(da).cmp(&rank(db)) {
            Ordering::Equal => {}
            o => return o,
        }
        match (da, db) {
            (OidData::Str(x), OidData::Str(y)) => x.cmp(y),
            (OidData::Bool(x), OidData::Bool(y)) => x.cmp(y),
            (OidData::Sym(x), OidData::Sym(y)) => x.cmp(y),
            (OidData::Nil, OidData::Nil) => Ordering::Equal,
            (OidData::Func(f, xs), OidData::Func(g, ys)) => {
                self.display_cmp(*f, *g).then_with(|| {
                    for (x, y) in xs.iter().zip(ys.iter()) {
                        match self.display_cmp(*x, *y) {
                            Ordering::Equal => continue,
                            o => return o,
                        }
                    }
                    xs.len().cmp(&ys.len())
                })
            }
            _ => {
                // Both numerals (possibly mixed int/real).
                let (x, y) = (number(da).unwrap(), number(db).unwrap());
                x.partial_cmp(&y).unwrap_or(Ordering::Equal).then(a.cmp(&b))
            }
        }
    }

    /// Renders an OID the way the paper writes them: symbols bare,
    /// strings quoted, numerals plain, id-terms as `f(a,b)`.
    pub fn render(&self, o: Oid) -> String {
        let mut s = String::new();
        self.render_into(o, &mut s);
        s
    }

    /// Appends [`OidTable::render`]'s text for `o` to `out`, with no
    /// intermediate `String`.
    pub fn render_into<W: fmt::Write>(&self, o: Oid, out: &mut W) {
        // Writes to a `String` or a byte buffer cannot fail.
        let _ = match self.get(o) {
            OidData::Sym(n) => out.write_str(n),
            OidData::Int(v) => write!(out, "{v}"),
            OidData::Real(b) => write!(out, "{}", f64::from_bits(*b)),
            OidData::Str(s) => write!(out, "'{s}'"),
            OidData::Bool(v) => write!(out, "{v}"),
            OidData::Nil => out.write_str("nil"),
            OidData::Func(f, args) => {
                self.render_into(*f, out);
                let _ = out.write_char('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        let _ = out.write_str(", ");
                    }
                    self.render_into(*a, out);
                }
                out.write_char(')')
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut t = OidTable::new();
        let a = t.sym("mary123");
        let b = t.sym("mary123");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_kinds_distinct_oids() {
        let mut t = OidTable::new();
        let s = t.sym("20");
        let n = t.int(20);
        let st = t.str("20");
        assert_ne!(s, n);
        assert_ne!(n, st);
        assert_ne!(s, st);
    }

    #[test]
    fn id_terms_are_structural() {
        let mut t = OidTable::new();
        let f = t.sym("secretary");
        let d = t.sym("dept77");
        let a = t.func(f, &[d]);
        let b = t.func(f, &[d]);
        assert_eq!(a, b);
        let e = t.sym("dept78");
        let c = t.func(f, &[e]);
        assert_ne!(a, c);
        assert_eq!(t.render(a), "secretary(dept77)");
    }

    #[test]
    fn negative_zero_normalized() {
        let mut t = OidTable::new();
        assert_eq!(t.real(0.0), t.real(-0.0));
    }

    #[test]
    fn numbers_compare_numerically() {
        let mut t = OidTable::new();
        let a = t.int(2);
        let b = t.real(10.0);
        assert_eq!(t.display_cmp(a, b), std::cmp::Ordering::Less);
    }

    #[test]
    fn render_forms() {
        let mut t = OidTable::new();
        let s = t.str("newyork");
        assert_eq!(t.render(s), "'newyork'");
        let n = t.int(35000);
        assert_eq!(t.render(n), "35000");
        let nil = t.nil();
        assert_eq!(t.render(nil), "nil");
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        let mut t = OidTable::new();
        t.real(f64::NAN);
    }
}
