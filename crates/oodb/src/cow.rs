//! The one persistent ordered container behind every large collection
//! of a [`Database`](crate::Database).
//!
//! The service publishes one immutable copy of the database per commit
//! (see [`crate::epoch`]), and each reader session works on a private
//! copy of a published one. [`ChunkMap`] makes those copies cheap and
//! keeps the write after a copy bounded:
//!
//! * The entries sit in sorted **leaf chunks**, each behind its own
//!   [`Arc`], under a small **directory** (a plain `Vec` of the chunk
//!   handles, in key order). Cloning a map copies the directory: one
//!   pointer and one `Arc` bump per chunk, no entry.
//! * A write copies only the one chunk it touches, and only while
//!   another copy still shares it. A chunk the map owns alone is edited
//!   in place through [`Arc::get_mut`], so building or editing an
//!   unshared map pays no copy at all.
//! * Chunks are bounded by **size, not key range**: a chunk holds at
//!   most about [`CHUNK_BYTES`] of entries ([`ChunkMap::MAX`] entries).
//!   An insert into a full chunk splits it in two (in half, or right
//!   where the entry goes when that is near either end, so loads in key
//!   order leave full chunks); a removal that leaves a chunk under a
//!   quarter full merges it with a neighbour when the two fit in one.
//!   So a write copies at most one chunk of `MAX` entries whatever the
//!   size of the map. A chunk's buffer grows a quarter at a time, so
//!   little of it sits unused.
//! * Reads never copy, and a remove of an absent key or an insert of a
//!   present set member copies nothing either: the chunk is searched
//!   through `&self` first, and that search is the one the write uses.
//!
//! [`ChunkMap::from_sorted`] builds a map from an ordered run in one
//! pass, filling each chunk to `MAX`, which is what snapshot import uses.
//! [`ChunkSet`] is the same container with `()` values.
//!
//! Keys are any `Ord` type, so one container serves the state (keyed by
//! receiver, method and arguments), the per-object class lists, the
//! direct extents and their closures, the active domain, the method
//! index, the ordered attribute index (keyed by method, typed value and
//! receiver) and the OID interner's lookup index (keyed by datum hash).

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// The bytes of entries one chunk holds at most (before the clamp in
/// [`chunk_max`]): a copy of one chunk stays a few kilobytes.
const CHUNK_BYTES: usize = 4096;

/// Entries per chunk for entries of `size` bytes: [`CHUNK_BYTES`] worth,
/// at least 16 (large entries) and at most 512 (OIDs).
const fn chunk_max(size: usize) -> usize {
    let n = CHUNK_BYTES / if size == 0 { 1 } else { size };
    if n < 16 {
        16
    } else if n > 512 {
        512
    } else {
        n
    }
}

type Chunk<K, V> = Arc<Vec<(K, V)>>;

/// A persistent ordered map: sorted `Arc`'d leaf chunks of bounded size
/// under a small directory (see the module docs).
pub struct ChunkMap<K, V> {
    /// Non-empty chunks in key order: every key of chunk `i` is smaller
    /// than every key of chunk `i + 1`.
    chunks: Vec<Chunk<K, V>>,
    len: usize,
}

// Not derived: a derive would demand `K: Clone, V: Clone`, and a clone
// copies only the chunk handles.
impl<K, V> Clone for ChunkMap<K, V> {
    fn clone(&self) -> Self {
        ChunkMap {
            chunks: self.chunks.clone(),
            len: self.len,
        }
    }
}

impl<K, V> Default for ChunkMap<K, V> {
    fn default() -> Self {
        ChunkMap {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for ChunkMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: PartialEq, V: PartialEq> PartialEq for ChunkMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<K: Eq, V: Eq> Eq for ChunkMap<K, V> {}

/// The capacity a chunk of `len` entries grows to: a quarter more (at
/// least 4), never past a full chunk. Chunks grow in small steps, so a
/// database's chunks carry little unused room.
fn grown(len: usize, max: usize) -> usize {
    (len + (len / 4).max(4)).min(max)
}

/// The chunk, for writing: in place when this handle is its only owner,
/// else a private copy (with room for one insert) first.
fn unshare<T: Clone>(chunk: &mut Arc<Vec<T>>) -> &mut Vec<T> {
    // No `Weak` handle to a chunk is ever made (the handles never leave
    // this module), so a strong count of one means `get_mut` succeeds:
    // the shared case is told apart by a plain load, and the owned case
    // pays one `get_mut`.
    if Arc::strong_count(chunk) != 1 {
        let mut copy = Vec::with_capacity(chunk.len() + 1);
        copy.extend_from_slice(chunk);
        *chunk = Arc::new(copy);
    }
    Arc::get_mut(chunk).expect("a chunk with one strong handle and no weak ones")
}

impl<K, V> ChunkMap<K, V> {
    /// Entries per chunk at most.
    pub const MAX: usize = chunk_max(std::mem::size_of::<(K, V)>());
    /// A chunk below this many entries merges with a neighbour when the
    /// two fit in one.
    const MIN: usize = Self::MAX / 4;

    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the map has no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every entry in key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            chunks: self.chunks.iter(),
            cur: [].iter(),
            left: Some(self.len),
        }
    }

    /// Every key in order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Every value in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// The chunks in key order, for tests that check their sizes and
    /// what two copies share (a chunk's address is its identity).
    #[doc(hidden)]
    pub fn chunks(&self) -> impl Iterator<Item = &[(K, V)]> + '_ {
        self.chunks.iter().map(|c| c.as_slice())
    }
}

impl<K: Ord, V> ChunkMap<K, V> {
    /// The chunk that holds `k` if any chunk does: the first whose last
    /// key is not below `k`. `chunks.len()` when `k` is above every key.
    fn chunk_of<Q>(&self, k: &Q) -> usize
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.chunks.partition_point(|c| {
            let (last, _) = c.last().expect("chunks are never empty");
            last.borrow() < k
        })
    }

    /// Where `k` is or would go: `(chunk, Ok(slot))` when present,
    /// `(chunk, Err(slot))` for the insertion point. `None` only for an
    /// empty map.
    fn find<Q>(&self, k: &Q) -> Option<(usize, Result<usize, usize>)>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let tail = self.chunks.last()?;
        if tail.last().is_some_and(|(last, _)| last.borrow() < k) {
            // Past every key: loads in key order append here, so they
            // skip the directory search.
            return Some((self.chunks.len() - 1, Err(tail.len())));
        }
        let i = self.chunk_of(k);
        Some((
            i,
            self.chunks[i].binary_search_by(|(x, _)| x.borrow().cmp(k)),
        ))
    }

    /// The value stored under `k`.
    pub fn get<Q>(&self, k: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        match self.find(k)? {
            (i, Ok(s)) => Some(&self.chunks[i][s].1),
            _ => None,
        }
    }

    /// True if `k` has an entry.
    pub fn contains_key<Q>(&self, k: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        matches!(self.find(k), Some((_, Ok(_))))
    }

    /// Every entry whose key lies in `range`, in key order.
    pub fn range<'a, Q, R>(&'a self, range: R) -> impl Iterator<Item = (&'a K, &'a V)> + 'a
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized + 'a,
        R: RangeBounds<Q> + 'a,
    {
        // The start: the first chunk whose last key reaches the lower
        // bound, and the first slot in it that does.
        let (i, s) = match range.start_bound() {
            Bound::Unbounded => (0, 0),
            Bound::Included(lo) | Bound::Excluded(lo) => {
                let excl = matches!(range.start_bound(), Bound::Excluded(_));
                let below = |k: &K| match k.borrow().cmp(lo) {
                    Ordering::Less => true,
                    Ordering::Equal => excl,
                    Ordering::Greater => false,
                };
                let i = self
                    .chunks
                    .partition_point(|c| below(&c.last().expect("non-empty chunk").0));
                let s = self
                    .chunks
                    .get(i)
                    .map_or(0, |c| c.partition_point(|(k, _)| below(k)));
                (i, s)
            }
        };
        let cur = self.chunks.get(i).map_or(&[][..], |c| &c[s..]);
        let tail = self.chunks.get(i + 1..).unwrap_or(&[]);
        let it = Iter {
            chunks: tail.iter(),
            cur: cur.iter(),
            left: None,
        };
        it.take_while(move |(k, _)| match range.end_bound() {
            Bound::Unbounded => true,
            Bound::Included(hi) => (*k).borrow() <= hi,
            Bound::Excluded(hi) => (*k).borrow() < hi,
        })
    }
}

impl<K: Ord + Clone, V: Clone> ChunkMap<K, V> {
    /// Builds a map from entries in ascending key order in one pass,
    /// each chunk filled to [`ChunkMap::MAX`]. Entries out of order (or
    /// with repeated keys) are sorted first, the last value for a key
    /// winning, so the result always equals inserting them one by one.
    pub fn from_sorted<I: IntoIterator<Item = (K, V)>>(entries: I) -> Self {
        let mut all: Vec<(K, V)> = entries.into_iter().collect();
        if !all.windows(2).all(|w| w[0].0 < w[1].0) {
            // Stable, so equal keys keep their input order and the
            // dedup below keeps the last of each run.
            all.sort_by(|a, b| a.0.cmp(&b.0));
            let mut out: Vec<(K, V)> = Vec::with_capacity(all.len());
            for e in all {
                match out.last_mut() {
                    Some(last) if last.0 == e.0 => *last = e,
                    _ => out.push(e),
                }
            }
            all = out;
        }
        let len = all.len();
        let mut chunks = Vec::with_capacity(len.div_ceil(Self::MAX));
        let mut rest = all.into_iter();
        while rest.len() > 0 {
            chunks.push(Arc::new(rest.by_ref().take(Self::MAX).collect()));
        }
        ChunkMap { chunks, len }
    }

    /// Splits chunk `i` before its entry `mid`.
    fn split(&mut self, i: usize, mid: usize) {
        let right = Arc::new(self.chunks[i][mid..].to_vec());
        match Arc::get_mut(&mut self.chunks[i]) {
            Some(left) => {
                left.truncate(mid);
                left.shrink_to(grown(mid, Self::MAX));
            }
            None => self.chunks[i] = Arc::new(self.chunks[i][..mid].to_vec()),
        }
        self.chunks.insert(i + 1, right);
    }

    /// Inserts `(k, v)` at `slot` of chunk `i` (the insertion point
    /// [`ChunkMap::find`] returned), splitting a full chunk first.
    /// Returns where the entry landed.
    fn insert_at(&mut self, mut i: usize, mut slot: usize, k: K, v: V) -> (usize, usize) {
        let n = self.chunks.get(i).map_or(0, |c| c.len());
        if n >= Self::MAX {
            // A full chunk splits in half, or, when the entry goes near
            // either end, right where it goes: loads in (or near) key
            // order then leave full chunks behind, not half-full ones.
            let edge = Self::MAX / 8;
            let mid = if slot <= edge || slot >= n - edge {
                slot
            } else {
                n / 2
            };
            if mid == 0 || mid == n {
                let at = if mid == 0 { i } else { i + 1 };
                self.chunks.insert(at, Arc::new(vec![(k, v)]));
                self.len += 1;
                return (at, 0);
            }
            self.split(i, mid);
            if slot >= mid {
                i += 1;
                slot -= mid;
            }
        } else if n == 0 {
            self.chunks.push(Arc::new(vec![(k, v)]));
            self.len = 1;
            return (0, 0);
        }
        let c = unshare(&mut self.chunks[i]);
        if c.len() == c.capacity() {
            c.reserve_exact(grown(c.len(), Self::MAX) - c.len());
        }
        c.insert(slot, (k, v));
        self.len += 1;
        (i, slot)
    }

    /// Inserts `v` under `k`, returning the value it replaced.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        match self.find(&k) {
            Some((i, Ok(s))) => Some(std::mem::replace(&mut unshare(&mut self.chunks[i])[s].1, v)),
            Some((i, Err(s))) => {
                self.insert_at(i, s, k, v);
                None
            }
            None => {
                self.insert_at(0, 0, k, v);
                None
            }
        }
    }

    /// Removes the entry under `k`. Copies nothing when there is none.
    pub fn remove<Q>(&mut self, k: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (i, Ok(s)) = self.find(k)? else {
            return None;
        };
        let (_, v) = unshare(&mut self.chunks[i]).remove(s);
        self.len -= 1;
        self.rebalance(i);
        Some(v)
    }

    /// After a removal from chunk `i`: drops it when empty, and merges
    /// it into its smaller neighbour when under a quarter full and the
    /// two fit in one chunk.
    fn rebalance(&mut self, i: usize) {
        let n = self.chunks[i].len();
        if n == 0 {
            self.chunks.remove(i);
            return;
        }
        if n >= Self::MIN {
            return;
        }
        let last = self.chunks.len() - 1;
        let j = match i {
            _ if last == 0 => return,
            0 => 1,
            _ if i == last => i - 1,
            _ if self.chunks[i - 1].len() <= self.chunks[i + 1].len() => i - 1,
            _ => i + 1,
        };
        let (a, b) = (i.min(j), i.max(j));
        if self.chunks[a].len() + self.chunks[b].len() > Self::MAX {
            return;
        }
        let right = self.chunks.remove(b);
        let left = unshare(&mut self.chunks[a]);
        left.reserve_exact(right.len());
        match Arc::try_unwrap(right) {
            Ok(owned) => left.extend(owned),
            Err(shared) => left.extend_from_slice(&shared),
        }
    }

    /// Mutable access to the value under `k`. Copies nothing when there
    /// is none.
    pub fn get_mut<Q>(&mut self, k: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (i, Ok(s)) = self.find(k)? else {
            return None;
        };
        Some(&mut unshare(&mut self.chunks[i])[s].1)
    }

    /// Mutable access to the value under `k`, inserting `make()` first
    /// when there is none.
    pub fn get_or_insert_with(&mut self, k: K, make: impl FnOnce() -> V) -> &mut V {
        let (i, s) = match self.find(&k) {
            Some((i, Ok(s))) => (i, s),
            Some((i, Err(s))) => self.insert_at(i, s, k, make()),
            None => self.insert_at(0, 0, k, make()),
        };
        &mut unshare(&mut self.chunks[i])[s].1
    }
}

impl<K: Ord + Clone, M: Ord + Clone> ChunkMap<K, ChunkSet<M>> {
    /// Adds `m` to the set under `k` (creating it); false if it was
    /// already a member, in which case nothing is copied.
    pub fn insert_member(&mut self, k: K, m: M) -> bool {
        match self.find(&k) {
            Some((i, Ok(s))) => {
                if Arc::strong_count(&self.chunks[i]) != 1 && self.chunks[i][s].1.contains(&m) {
                    return false;
                }
                unshare(&mut self.chunks[i])[s].1.insert(m)
            }
            found => {
                let (i, s) = found.map_or((0, 0), |(i, slot)| (i, slot.unwrap_err()));
                self.insert_at(i, s, k, ChunkSet::from_sorted([m]));
                true
            }
        }
    }

    /// Removes `m` from the set under `k`, dropping the set when it
    /// empties; false (and nothing copied) if `m` was not a member.
    pub fn remove_member<Q>(&mut self, k: &Q, m: &M) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let Some((i, Ok(s))) = self.find(k) else {
            return false;
        };
        if Arc::strong_count(&self.chunks[i]) != 1 && !self.chunks[i][s].1.contains(m) {
            return false;
        }
        let chunk = unshare(&mut self.chunks[i]);
        if !chunk[s].1.remove(m) {
            return false;
        }
        if chunk[s].1.is_empty() {
            chunk.remove(s);
            self.len -= 1;
            self.rebalance(i);
        }
        true
    }
}

/// In-order iterator over a [`ChunkMap`].
pub struct Iter<'a, K, V> {
    chunks: std::slice::Iter<'a, Chunk<K, V>>,
    cur: std::slice::Iter<'a, (K, V)>,
    /// Entries still to come, when known.
    left: Option<usize>,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((k, v)) = self.cur.next() {
                self.left = self.left.map(|n| n - 1);
                return Some((k, v));
            }
            self.cur = self.chunks.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self.left {
            Some(n) => (n, Some(n)),
            None => (self.cur.len(), None),
        }
    }
}

/// A persistent ordered set: a [`ChunkMap`] with `()` values.
pub struct ChunkSet<K>(ChunkMap<K, ()>);

impl<K> Clone for ChunkSet<K> {
    fn clone(&self) -> Self {
        ChunkSet(self.0.clone())
    }
}

impl<K> Default for ChunkSet<K> {
    fn default() -> Self {
        ChunkSet(ChunkMap::default())
    }
}

impl<K: fmt::Debug> fmt::Debug for ChunkSet<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<K: PartialEq> PartialEq for ChunkSet<K> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<K: Eq> Eq for ChunkSet<K> {}

impl<K> ChunkSet<K> {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the set has no member.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Every member in order.
    pub fn iter(&self) -> SetIter<'_, K> {
        SetIter(self.0.iter())
    }

    /// The chunks in order (see [`ChunkMap::chunks`]).
    #[doc(hidden)]
    pub fn chunks(&self) -> impl Iterator<Item = &[(K, ())]> + '_ {
        self.0.chunks()
    }
}

impl<K: Ord> ChunkSet<K> {
    /// True if `k` is a member.
    pub fn contains<Q>(&self, k: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.0.contains_key(k)
    }

    /// Every member in `range`, in order.
    pub fn range<'a, Q, R>(&'a self, range: R) -> impl Iterator<Item = &'a K> + 'a
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized + 'a,
        R: RangeBounds<Q> + 'a,
    {
        self.0.range(range).map(|(k, _)| k)
    }
}

impl<K: Ord + Clone> ChunkSet<K> {
    /// Builds a set from members in ascending order in one pass (see
    /// [`ChunkMap::from_sorted`]; unordered or repeated members are
    /// sorted and de-duplicated first).
    pub fn from_sorted<I: IntoIterator<Item = K>>(members: I) -> Self {
        ChunkSet(ChunkMap::from_sorted(members.into_iter().map(|k| (k, ()))))
    }

    /// Adds `k`; false (and nothing copied) if it was already a member.
    pub fn insert(&mut self, k: K) -> bool {
        match self.0.find(&k) {
            Some((_, Ok(_))) => false,
            Some((i, Err(s))) => {
                self.0.insert_at(i, s, k, ());
                true
            }
            None => {
                self.0.insert_at(0, 0, k, ());
                true
            }
        }
    }

    /// Removes `k`; false (and nothing copied) if it was not a member.
    pub fn remove<Q>(&mut self, k: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.0.remove(k).is_some()
    }
}

/// In-order iterator over a [`ChunkSet`].
pub struct SetIter<'a, K>(Iter<'a, K, ()>);

impl<'a, K> Iterator for SetIter<'a, K> {
    type Item = &'a K;

    fn next(&mut self) -> Option<&'a K> {
        self.0.next().map(|(k, _)| k)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn chunk_bounds_follow_entry_size() {
        assert_eq!(ChunkMap::<u32, ()>::MAX, 512);
        assert_eq!(ChunkMap::<u64, u64>::MAX, 256);
        assert_eq!(ChunkMap::<[u8; 1024], ()>::MAX, 16);
    }

    #[test]
    fn splits_and_merges_keep_chunks_bounded() {
        let max = ChunkMap::<u32, ()>::MAX;
        let mut s: ChunkSet<u32> = ChunkSet::new();
        let mut want = std::collections::BTreeSet::new();
        for i in (0..5000u32).map(|i| i.wrapping_mul(2_654_435_761) % 7919) {
            assert_eq!(s.insert(i), want.insert(i));
        }
        for c in &s.0.chunks {
            assert!(!c.is_empty() && c.len() <= max && c.capacity() <= max);
        }
        for i in (0..7919u32).filter(|i| i % 3 != 0) {
            assert_eq!(s.remove(&i), want.remove(&i));
        }
        assert!(s.iter().eq(want.iter()));
        assert_eq!(s.len(), want.len());
        let min = ChunkMap::<u32, ()>::MIN;
        // No two neighbours that could merge are both left small.
        for w in s.0.chunks.windows(2) {
            assert!(w[0].len() >= min || w[0].len() + w[1].len() > max || w[1].len() >= min);
        }
    }

    #[test]
    fn writes_copy_only_the_touched_chunk() {
        let a: ChunkMap<u32, u32> = ChunkMap::from_sorted((0..2000).map(|i| (i, 0)));
        assert!(a.chunks.len() >= 4);
        let mut b = a.clone();
        b.insert(700, 9);
        let touched = b.chunk_of(&700);
        for (i, (x, y)) in a.chunks.iter().zip(&b.chunks).enumerate() {
            assert_eq!(Arc::ptr_eq(x, y), i != touched);
        }
        assert_eq!(a.get(&700), Some(&0));
        assert_eq!(b.get(&700), Some(&9));
        // Misses and no-op set inserts copy nothing.
        let mut c = a.clone();
        assert_eq!(c.remove(&5000), None);
        assert!(c.get_mut(&5000).is_none());
        assert!(c
            .chunks
            .iter()
            .zip(&a.chunks)
            .all(|(x, y)| Arc::ptr_eq(x, y)));
        let s = ChunkSet::from_sorted(0..600u32);
        let mut t = s.clone();
        assert!(!t.insert(3));
        assert!(!t.remove(&9999));
        assert!(Arc::ptr_eq(&s.0.chunks[0], &t.0.chunks[0]));
    }

    #[test]
    fn from_sorted_sorts_unordered_input_last_value_wins() {
        let m: ChunkMap<u32, char> = ChunkMap::from_sorted([(3, 'a'), (1, 'b'), (3, 'c')]);
        let want: BTreeMap<u32, char> = [(1, 'b'), (3, 'c')].into();
        assert!(m.iter().eq(want.iter()));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn ranges_match_btreemap() {
        let m = ChunkMap::from_sorted((0..3000u32).map(|i| (i * 2, i)));
        let want: BTreeMap<u32, u32> = (0..3000).map(|i| (i * 2, i)).collect();
        for (lo, hi) in [(0, 0), (1, 9), (511, 1025), (5998, 7000), (7000, 8000)] {
            assert!(m.range(lo..hi).eq(want.range(lo..hi)), "{lo}..{hi}");
            assert!(m.range(lo..=hi).eq(want.range(lo..=hi)), "{lo}..={hi}");
            let ex = (Bound::Excluded(lo), Bound::Included(hi));
            assert!(m.range(ex).eq(want.range(ex)), "({lo}, {hi}]");
        }
        assert!(m.range(..).eq(want.iter()));
    }
}
