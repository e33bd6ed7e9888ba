//! [`Extent`]: the answer of [`Database::instances_of`](crate::Database::instances_of).
//!
//! A class's full extent (its instances, directly or through IS-A) is
//! kept by the database as one [`ChunkSet`] per class (the *extent
//! closure*), so asking for it allocates nothing: the handle borrows
//! the kept set, and `len`, `contains` and in-order `iter` read it in
//! place. The catalogue classes borrow what already enumerates them
//! (the active domain for `Object`, the class list for `Class`, the
//! method catalogue for `Method`). Only a class that contains literal
//! values (the builtin value classes and their superclasses) is
//! collected per call, because literals join the active domain without
//! ever entering an extent.

use crate::cow::{ChunkSet, SetIter};
use crate::oid::Oid;
use std::collections::btree_set;
use std::collections::BTreeSet;
use std::fmt;

/// A cheap handle on the instances of one class (see the module docs).
/// Iteration is in OID order, except for the catalogue class `Class`,
/// whose members come in definition order.
#[derive(Clone)]
pub struct Extent<'a>(Repr<'a>);

#[derive(Clone)]
enum Repr<'a> {
    Empty,
    /// A kept extent closure, or the active domain.
    Kept(&'a ChunkSet<Oid>),
    /// The class-objects, in definition order.
    Classes(&'a [Oid]),
    /// The method-objects.
    Methods(&'a BTreeSet<Oid>),
    /// Collected for this call, ascending.
    Owned(Vec<Oid>),
}

impl<'a> Extent<'a> {
    pub(crate) fn empty() -> Self {
        Extent(Repr::Empty)
    }

    pub(crate) fn kept(set: &'a ChunkSet<Oid>) -> Self {
        Extent(Repr::Kept(set))
    }

    pub(crate) fn classes(order: &'a [Oid]) -> Self {
        Extent(Repr::Classes(order))
    }

    pub(crate) fn methods(set: &'a BTreeSet<Oid>) -> Self {
        Extent(Repr::Methods(set))
    }

    /// An extent over OIDs collected by the caller, which must be
    /// strictly ascending.
    pub fn from_sorted(oids: Vec<Oid>) -> Extent<'static> {
        debug_assert!(oids.windows(2).all(|w| w[0] < w[1]));
        Extent(Repr::Owned(oids))
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Empty => 0,
            Repr::Kept(s) => s.len(),
            Repr::Classes(c) => c.len(),
            Repr::Methods(m) => m.len(),
            Repr::Owned(v) => v.len(),
        }
    }

    /// True if the class has no instance.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `o` is an instance.
    pub fn contains(&self, o: &Oid) -> bool {
        match &self.0 {
            Repr::Empty => false,
            Repr::Kept(s) => s.contains(o),
            Repr::Classes(c) => c.contains(o),
            Repr::Methods(m) => m.contains(o),
            Repr::Owned(v) => v.binary_search(o).is_ok(),
        }
    }

    /// Every instance, in OID order (definition order for `Class`).
    pub fn iter(&self) -> ExtentIter<'_> {
        ExtentIter(match &self.0 {
            Repr::Empty => IterRepr::Slice([].iter()),
            Repr::Kept(s) => IterRepr::Kept(s.iter()),
            Repr::Classes(c) => IterRepr::Slice(c.iter()),
            Repr::Methods(m) => IterRepr::Tree(m.iter()),
            Repr::Owned(v) => IterRepr::Slice(v.iter()),
        })
    }
}

impl fmt::Debug for Extent<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over an [`Extent`].
pub struct ExtentIter<'e>(IterRepr<'e>);

enum IterRepr<'e> {
    Kept(SetIter<'e, Oid>),
    Slice(std::slice::Iter<'e, Oid>),
    Tree(btree_set::Iter<'e, Oid>),
    Owned(std::vec::IntoIter<Oid>),
}

impl Iterator for ExtentIter<'_> {
    type Item = Oid;

    fn next(&mut self) -> Option<Oid> {
        match &mut self.0 {
            IterRepr::Kept(it) => it.next().copied(),
            IterRepr::Slice(it) => it.next().copied(),
            IterRepr::Tree(it) => it.next().copied(),
            IterRepr::Owned(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            IterRepr::Kept(it) => it.size_hint(),
            IterRepr::Slice(it) => it.size_hint(),
            IterRepr::Tree(it) => it.size_hint(),
            IterRepr::Owned(it) => it.size_hint(),
        }
    }
}

impl<'a> IntoIterator for Extent<'a> {
    type Item = Oid;
    type IntoIter = ExtentIter<'a>;

    fn into_iter(self) -> ExtentIter<'a> {
        ExtentIter(match self.0 {
            Repr::Empty => IterRepr::Slice([].iter()),
            Repr::Kept(s) => IterRepr::Kept(s.iter()),
            Repr::Classes(c) => IterRepr::Slice(c.iter()),
            Repr::Methods(m) => IterRepr::Tree(m.iter()),
            Repr::Owned(v) => IterRepr::Owned(v.into_iter()),
        })
    }
}
