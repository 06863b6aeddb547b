//! Compact sets of query-table indexes.

use std::fmt;

/// A set of query-table indexes, stored as a 64-bit mask. Queries are
/// limited to 64 table references, far beyond the DP enumeration horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TableSet(u64);

impl TableSet {
    /// The empty set.
    pub const EMPTY: TableSet = TableSet(0);

    /// Singleton set.
    pub fn single(idx: usize) -> TableSet {
        debug_assert!(idx < 64);
        TableSet(1u64 << idx)
    }

    /// Set containing `0..n`.
    pub fn first_n(n: usize) -> TableSet {
        debug_assert!(n <= 64);
        if n == 64 {
            TableSet(u64::MAX)
        } else {
            TableSet((1u64 << n) - 1)
        }
    }

    /// Build from an iterator of indexes.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(iter: impl IntoIterator<Item = usize>) -> TableSet {
        let mut s = TableSet::EMPTY;
        for i in iter {
            s = s.with(i);
        }
        s
    }

    /// The set whose members are the set bits of `mask`.
    pub fn from_mask(mask: u64) -> TableSet {
        TableSet(mask)
    }

    /// The raw mask.
    pub fn mask(self) -> u64 {
        self.0
    }

    /// Set with `idx` added.
    pub fn with(self, idx: usize) -> TableSet {
        TableSet(self.0 | (1u64 << idx))
    }

    /// Union.
    pub fn union(self, other: TableSet) -> TableSet {
        TableSet(self.0 | other.0)
    }

    /// Intersection.
    pub fn intersect(self, other: TableSet) -> TableSet {
        TableSet(self.0 & other.0)
    }

    /// Difference (`self \ other`).
    pub fn minus(self, other: TableSet) -> TableSet {
        TableSet(self.0 & !other.0)
    }

    /// Membership.
    pub fn contains(self, idx: usize) -> bool {
        self.0 & (1u64 << idx) != 0
    }

    /// Is `self ⊆ other`?
    pub fn is_subset_of(self, other: TableSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Do the sets share any member?
    pub fn intersects(self, other: TableSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Number of members.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Is the set empty?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterate members in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut mask = self.0;
        std::iter::from_fn(move || {
            if mask == 0 {
                None
            } else {
                let idx = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                Some(idx)
            }
        })
    }

    /// Iterate all non-empty proper subsets of this set.
    ///
    /// Classic sub-mask enumeration; used by bushy dynamic-programming join
    /// enumeration to split a set into (left, right) partitions.
    pub fn proper_subsets(self) -> impl Iterator<Item = TableSet> {
        let full = self.0;
        let mut sub = full & full.wrapping_sub(1); // largest proper subset
        let mut done = full == 0;
        std::iter::from_fn(move || {
            if done {
                return None;
            }
            if sub == 0 {
                done = true;
                return None;
            }
            let out = TableSet(sub);
            sub = (sub - 1) & full;
            Some(out)
        })
    }
}

impl fmt::Display for TableSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (n, i) in self.iter().enumerate() {
            if n > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let s = TableSet::single(0).with(3).with(5);
        assert_eq!(s.len(), 3);
        assert!(s.contains(3));
        assert!(!s.contains(1));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3, 5]);
        assert_eq!(s.to_string(), "{0,3,5}");
    }

    #[test]
    fn set_algebra() {
        let a = TableSet::from_iter([0, 1, 2]);
        let b = TableSet::from_iter([2, 3]);
        assert_eq!(a.union(b), TableSet::from_iter([0, 1, 2, 3]));
        assert_eq!(a.intersect(b), TableSet::single(2));
        assert_eq!(a.minus(b), TableSet::from_iter([0, 1]));
        assert!(TableSet::single(2).is_subset_of(a));
        assert!(!a.is_subset_of(b));
        assert!(a.intersects(b));
        assert!(!TableSet::single(0).intersects(b));
    }

    #[test]
    fn first_n() {
        assert_eq!(TableSet::first_n(3), TableSet::from_iter([0, 1, 2]));
        assert_eq!(TableSet::first_n(0), TableSet::EMPTY);
        assert_eq!(TableSet::first_n(64).len(), 64);
    }

    #[test]
    fn proper_subsets_of_three_elements() {
        let s = TableSet::from_iter([1, 4, 6]);
        let subs: Vec<TableSet> = s.proper_subsets().collect();
        // 2^3 - 2 = 6 non-empty proper subsets.
        assert_eq!(subs.len(), 6);
        for sub in &subs {
            assert!(sub.is_subset_of(s));
            assert!(!sub.is_empty());
            assert_ne!(*sub, s);
        }
        // Each subset paired with its complement covers the set exactly once;
        // check complements are present.
        for sub in &subs {
            let comp = s.minus(*sub);
            assert!(subs.contains(&comp));
        }
    }

    #[test]
    fn proper_subsets_of_singleton_is_empty() {
        assert_eq!(TableSet::single(3).proper_subsets().count(), 0);
        assert_eq!(TableSet::EMPTY.proper_subsets().count(), 0);
    }
}
