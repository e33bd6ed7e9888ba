//! Model test of the copy-on-write container: a [`ChunkMap`] and a
//! [`ChunkSet`] driven by random scripts behave exactly like a
//! `BTreeMap` and a `BTreeSet` driven by the same scripts.
//!
//! The entries are wide (a few hundred bytes), so a chunk holds only
//! [`ChunkMap::MAX`] = 16 of them and a script of a few hundred steps
//! over a few hundred keys splits and merges chunks many times, on
//! both the in-place path (a chunk one map owns alone) and the copy
//! path (clones are taken mid-script and kept alive; each must still
//! equal the model as it was when the clone was taken).
//!
//! `SHARING_CASES=<n>` runs each property at `n` cases instead of 64.

use oodb::{ChunkMap, ChunkSet};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A value wide enough for 16 entries per chunk.
type Wide = [u64; 32];

/// A set member of the same width, ordered by its key.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Member(u16, Wide);

fn wide(v: u16) -> Wide {
    [u64::from(v); 32]
}

fn member(k: u16) -> Member {
    Member(k, wide(k))
}

/// Property cases: `SHARING_CASES` or 64.
fn cases() -> u32 {
    std::env::var("SHARING_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// The chunked map equals the model, entry for entry, through every
/// read: `len`, in-order `iter`, point `get` and a range. Every chunk
/// holds between 1 and `MAX` entries.
fn check_map(m: &ChunkMap<u16, Wide>, model: &BTreeMap<u16, Wide>, lo: u16, hi: u16) -> bool {
    let max = ChunkMap::<u16, Wide>::MAX;
    m.chunks().all(|c| !c.is_empty() && c.len() <= max)
        && m.len() == model.len()
        && m.is_empty() == model.is_empty()
        && m.iter().eq(model.iter())
        && m.get(&lo) == model.get(&lo)
        && m.contains_key(&hi) == model.contains_key(&hi)
        && m.range(lo.min(hi)..lo.max(hi))
            .eq(model.range(lo.min(hi)..lo.max(hi)))
        && m.range(lo..=lo).eq(model.range(lo..=lo))
}

fn check_set(s: &ChunkSet<Member>, model: &BTreeSet<Member>, lo: u16, hi: u16) -> bool {
    let (a, b) = (member(lo.min(hi)), member(lo.max(hi)));
    let max = ChunkMap::<Member, ()>::MAX;
    s.chunks().all(|c| !c.is_empty() && c.len() <= max)
        && s.len() == model.len()
        && s.iter().eq(model.iter())
        && s.contains(&member(lo)) == model.contains(&member(lo))
        && s.range(a.clone()..b.clone()).eq(model.range(a..b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Inserts, removals, in-place updates and get-or-insert against a
    /// `BTreeMap`, with clones kept alive across later writes.
    #[test]
    fn chunk_map_matches_btreemap(
        steps in proptest::collection::vec((0u8..8, 0u16..300, 0u16..300), 1..600)
    ) {
        assert_eq!(ChunkMap::<u16, Wide>::MAX, 16);
        let mut m: ChunkMap<u16, Wide> = ChunkMap::new();
        let mut model: BTreeMap<u16, Wide> = BTreeMap::new();
        let mut kept: Vec<(ChunkMap<u16, Wide>, BTreeMap<u16, Wide>)> = Vec::new();
        for &(kind, k, v) in &steps {
            match kind {
                // Inserts outnumber removals, so the map grows past
                // many chunks before the removals thin it out again.
                0..=2 => prop_assert_eq!(m.insert(k, wide(v)), model.insert(k, wide(v))),
                3 | 4 => prop_assert_eq!(m.remove(&k), model.remove(&k)),
                5 => {
                    if let Some(x) = m.get_mut(&k) {
                        x[0] = u64::from(v);
                    }
                    if let Some(x) = model.get_mut(&k) {
                        x[0] = u64::from(v);
                    }
                }
                6 => {
                    m.get_or_insert_with(k, || wide(v))[1] = 7;
                    model.entry(k).or_insert_with(|| wide(v))[1] = 7;
                }
                _ => kept.push((m.clone(), model.clone())),
            }
            prop_assert!(check_map(&m, &model, k, v), "after {:?}", (kind, k, v));
        }
        for (i, (old, old_model)) in kept.iter().enumerate() {
            prop_assert!(check_map(old, old_model, 0, 299), "clone {} changed", i);
        }
        // A bulk build from the model's order, and one from the script's
        // raw (unordered, repeated) keys, equal the incremental maps.
        let bulk = ChunkMap::from_sorted(model.iter().map(|(k, v)| (*k, *v)));
        prop_assert!(bulk == m);
        let mut by_insert: ChunkMap<u16, Wide> = ChunkMap::new();
        let raw: Vec<(u16, Wide)> = steps.iter().map(|&(_, k, v)| (k, wide(v))).collect();
        for (k, v) in raw.iter().cloned() {
            by_insert.insert(k, v);
        }
        prop_assert!(ChunkMap::from_sorted(raw) == by_insert);
    }

    /// The same for a set, through insert, remove and kept clones.
    #[test]
    fn chunk_set_matches_btreeset(
        steps in proptest::collection::vec((0u8..6, 0u16..300, 0u16..300), 1..600)
    ) {
        let mut s: ChunkSet<Member> = ChunkSet::new();
        let mut model: BTreeSet<Member> = BTreeSet::new();
        let mut kept: Vec<(ChunkSet<Member>, BTreeSet<Member>)> = Vec::new();
        for &(kind, k, v) in &steps {
            match kind {
                0..=2 => prop_assert_eq!(s.insert(member(k)), model.insert(member(k))),
                3 | 4 => prop_assert_eq!(s.remove(&member(k)), model.remove(&member(k))),
                _ => kept.push((s.clone(), model.clone())),
            }
            prop_assert!(check_set(&s, &model, k, v), "after {:?}", (kind, k, v));
        }
        for (i, (old, old_model)) in kept.iter().enumerate() {
            prop_assert!(check_set(old, old_model, 0, 299), "clone {} changed", i);
        }
        prop_assert!(ChunkSet::from_sorted(model.iter().cloned()) == s);
        let raw: Vec<Member> = steps.iter().map(|&(_, k, _)| member(k)).collect();
        let by_insert: ChunkSet<Member> = {
            let mut t = ChunkSet::new();
            for x in raw.iter().cloned() {
                t.insert(x);
            }
            t
        };
        prop_assert!(ChunkSet::from_sorted(raw) == by_insert);
    }

    /// Nested sets (the extent and closure layout): `insert_member` and
    /// `remove_member` against a map of `BTreeSet`s, with kept clones.
    #[test]
    fn nested_members_match_a_map_of_sets(
        steps in proptest::collection::vec((0u8..5, 0u16..12, 0u16..600), 1..400)
    ) {
        let mut m: ChunkMap<u16, ChunkSet<u16>> = ChunkMap::new();
        let mut model: BTreeMap<u16, BTreeSet<u16>> = BTreeMap::new();
        let mut kept = Vec::new();
        for &(kind, k, v) in &steps {
            match kind {
                0 | 1 => prop_assert_eq!(m.insert_member(k, v), model.entry(k).or_default().insert(v)),
                2 | 3 => {
                    let want = model.get_mut(&k).is_some_and(|s| s.remove(&v));
                    if model.get(&k).is_some_and(|s| s.is_empty()) {
                        model.remove(&k);
                    }
                    prop_assert_eq!(m.remove_member(&k, &v), want);
                }
                _ => kept.push((m.clone(), model.clone())),
            }
            let flat = |m: &ChunkMap<u16, ChunkSet<u16>>| -> Vec<(u16, Vec<u16>)> {
                m.iter().map(|(k, s)| (*k, s.iter().copied().collect())).collect()
            };
            let want: Vec<(u16, Vec<u16>)> =
                model.iter().map(|(k, s)| (*k, s.iter().copied().collect())).collect();
            prop_assert_eq!(flat(&m), want);
            for (old, old_model) in &kept {
                let want: Vec<(u16, Vec<u16>)> =
                    old_model.iter().map(|(k, s)| (*k, s.iter().copied().collect())).collect();
                prop_assert_eq!(flat(old), want);
            }
        }
    }
}
