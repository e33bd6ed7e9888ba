//! Copy-on-write storage for structurally shared database snapshots.
//!
//! The service publishes one immutable copy of the database per commit
//! (see [`crate::epoch`]), and each reader session works on a private
//! copy of a published one. With plain collections every such copy is a
//! deep copy of the whole database, and so is every drop of a superseded
//! epoch. [`ShardMap`] makes those copies cheap: the map is split into
//! shards, each behind its own [`Arc`], so cloning the map clones one
//! `Arc` per shard, and a write copies only the one shard it touches
//! (`Arc::make_mut`) — and only while that shard is still shared with
//! another copy.
//!
//! Shards partition the key space by the index range of the key's
//! leading OID ([`SHARD_SPAN`] consecutive OIDs per shard). Because OID
//! order is index order, shard `i` holds only keys smaller than those of
//! shard `i + 1`, so walking the shards in order and each shard's
//! `BTreeMap` in order yields exactly the order of one `BTreeMap` over
//! all keys. Snapshot export, state iteration and the index rebuild see
//! the same sequence as with an unsharded map.
//!
//! Reads never copy. Removing an absent key or inserting a member that
//! is already present is checked through `&self` first, so a write that
//! changes nothing copies nothing either.

use crate::oid::Oid;
use std::collections::btree_map::{self, BTreeMap};
use std::sync::Arc;

/// Consecutive OID indexes per shard. Small enough that the one shard a
/// write copies is cheap, large enough that a clone of a 100k-object
/// database touches only a few hundred `Arc`s.
pub(crate) const SHARD_SPAN: usize = 256;

/// A key whose leading OID decides its shard. The shard must be
/// monotone in the key order (see the module docs).
pub(crate) trait ShardKey: Ord {
    /// The shard this key lives in.
    fn shard(&self) -> usize;
}

impl ShardKey for Oid {
    fn shard(&self) -> usize {
        self.index() / SHARD_SPAN
    }
}

impl<T: Ord, U: Ord> ShardKey for (Oid, T, U) {
    fn shard(&self) -> usize {
        self.0.shard()
    }
}

/// An ordered map split into copy-on-write shards by key range.
#[derive(Debug)]
pub(crate) struct ShardMap<K, V> {
    shards: Vec<Arc<BTreeMap<K, V>>>,
}

// Not derived: a derive would demand `K: Clone, V: Clone`, and a clone
// copies only the shard handles.
impl<K, V> Clone for ShardMap<K, V> {
    fn clone(&self) -> Self {
        ShardMap {
            shards: self.shards.clone(),
        }
    }
}

impl<K, V> Default for ShardMap<K, V> {
    fn default() -> Self {
        ShardMap { shards: Vec::new() }
    }
}

impl<K: ShardKey + Clone, V: Clone> ShardMap<K, V> {
    /// Number of entries over all shards.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// The value stored under `k`.
    pub(crate) fn get(&self, k: &K) -> Option<&V> {
        self.shards.get(k.shard())?.get(k)
    }

    /// True if `k` has an entry.
    pub(crate) fn contains_key(&self, k: &K) -> bool {
        self.get(k).is_some()
    }

    /// The shard `s`, unshared for writing (created if missing).
    fn shard_mut(&mut self, s: usize) -> &mut BTreeMap<K, V> {
        if s >= self.shards.len() {
            self.shards.resize_with(s + 1, Default::default);
        }
        Arc::make_mut(&mut self.shards[s])
    }

    /// Inserts `v` under `k`, returning the value it replaced.
    pub(crate) fn insert(&mut self, k: K, v: V) -> Option<V> {
        self.shard_mut(k.shard()).insert(k, v)
    }

    /// Removes the entry under `k`. Copies nothing when there is none.
    pub(crate) fn remove(&mut self, k: &K) -> Option<V> {
        if !self.contains_key(k) {
            return None;
        }
        self.shard_mut(k.shard()).remove(k)
    }

    /// Mutable access to the value under `k`. Copies nothing when there
    /// is none.
    pub(crate) fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        if !self.contains_key(k) {
            return None;
        }
        self.shard_mut(k.shard()).get_mut(k)
    }

    /// The entry for `k`, in its (unshared) shard.
    pub(crate) fn entry(&mut self, k: K) -> btree_map::Entry<'_, K, V> {
        self.shard_mut(k.shard()).entry(k)
    }

    /// Every entry in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.shards.iter().flat_map(|s| s.iter())
    }

    /// Every entry with a key `>= from`, in key order.
    pub(crate) fn range_from(&self, from: K) -> impl Iterator<Item = (&K, &V)> + '_ {
        let s = from.shard();
        let head = self.shards.get(s).map(|m| m.range(from..));
        let tail = self.shards.iter().skip(s + 1).flat_map(|m| m.iter());
        head.into_iter().flatten().chain(tail)
    }
}

/// An ordered set over a [`ShardMap`].
#[derive(Debug)]
pub(crate) struct ShardSet<K>(ShardMap<K, ()>);

impl<K> Clone for ShardSet<K> {
    fn clone(&self) -> Self {
        ShardSet(self.0.clone())
    }
}

impl<K> Default for ShardSet<K> {
    fn default() -> Self {
        ShardSet(ShardMap::default())
    }
}

impl<K: ShardKey + Clone> ShardSet<K> {
    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// True if `k` is a member.
    pub(crate) fn contains(&self, k: &K) -> bool {
        self.0.contains_key(k)
    }

    /// Adds `k`; false (and nothing copied) if it was already a member.
    pub(crate) fn insert(&mut self, k: K) -> bool {
        !self.contains(&k) && self.0.insert(k, ()).is_none()
    }

    /// Removes `k`; false (and nothing copied) if it was not a member.
    pub(crate) fn remove(&mut self, k: &K) -> bool {
        self.0.remove(k).is_some()
    }

    /// Every member in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &K> + '_ {
        self.0.iter().map(|(k, _)| k)
    }
}

impl<K: ShardKey + Clone> FromIterator<K> for ShardSet<K> {
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        let mut s = ShardSet::default();
        for k in iter {
            s.insert(k);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(i: usize) -> Oid {
        Oid::from_index(i)
    }

    #[test]
    fn iteration_matches_one_btreemap() {
        let mut m: ShardMap<(Oid, Oid, Vec<Oid>), u32> = ShardMap::default();
        let mut want = BTreeMap::new();
        for i in (0..3 * SHARD_SPAN + 7).rev().step_by(5) {
            for j in [3, 1] {
                let k = (oid(i), oid(j), vec![oid(i % 3)]);
                m.insert(k.clone(), i as u32);
                want.insert(k, i as u32);
            }
        }
        assert!(m.iter().eq(want.iter()));
        assert_eq!(m.len(), want.len());
        let from = (oid(SHARD_SPAN - 1), Oid::MIN, Vec::new());
        assert!(m.range_from(from.clone()).eq(want.range(from..)));
    }

    #[test]
    fn writes_copy_only_the_touched_shard() {
        let mut a: ShardMap<Oid, u32> = ShardMap::default();
        for i in 0..4 * SHARD_SPAN {
            a.insert(oid(i), 0);
        }
        let mut b = a.clone();
        b.insert(oid(2 * SHARD_SPAN), 9);
        for s in 0..4 {
            assert_eq!(Arc::ptr_eq(&a.shards[s], &b.shards[s]), s != 2);
        }
        assert_eq!(a.get(&oid(2 * SHARD_SPAN)), Some(&0));
        assert_eq!(b.get(&oid(2 * SHARD_SPAN)), Some(&9));
        // Misses copy nothing.
        let mut c = a.clone();
        let absent = oid(9 * SHARD_SPAN);
        assert_eq!(c.remove(&absent), None);
        assert!(c.get_mut(&absent).is_none());
        let mut s: ShardSet<Oid> = (0..SHARD_SPAN).map(oid).collect();
        let t = s.clone();
        assert!(!s.insert(oid(3)));
        assert!(!s.remove(&absent));
        assert!(Arc::ptr_eq(&s.0.shards[0], &t.0.shards[0]));
        assert!(c
            .shards
            .iter()
            .zip(&a.shards)
            .all(|(x, y)| Arc::ptr_eq(x, y)));
    }
}
