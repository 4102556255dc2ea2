//! Half-open cycle intervals and interval-set arithmetic.
//!
//! Windowed overlap analysis reduces to interval operations: clipping
//! events to a window, merging each target's transactions into a disjoint
//! busy set, and measuring pairwise intersections. Keeping this logic in
//! one place makes the overlap computation easy to test exhaustively.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A half-open interval of cycles `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Interval {
    /// Inclusive start cycle.
    pub start: u64,
    /// Exclusive end cycle.
    pub end: u64,
}

impl Interval {
    /// Creates an interval.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    #[must_use]
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start <= end, "interval start {start} > end {end}");
        Self { start, end }
    }

    /// Number of cycles covered.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Returns `true` for an empty interval.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Intersection with another interval (possibly empty).
    #[must_use]
    pub fn intersect(&self, other: &Interval) -> Interval {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start >= end {
            Interval { start, end: start }
        } else {
            Interval { start, end }
        }
    }

    /// Length of the intersection with another interval.
    #[must_use]
    pub fn overlap_len(&self, other: &Interval) -> u64 {
        self.intersect(other).len()
    }

    /// Clips this interval to `[lo, hi)`.
    #[must_use]
    pub fn clip(&self, lo: u64, hi: u64) -> Interval {
        self.intersect(&Interval::new(lo, hi))
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// A set of disjoint, sorted intervals.
///
/// Built by inserting arbitrary (possibly overlapping) intervals and calling
/// [`IntervalSet::normalize`], or incrementally via [`IntervalSet::insert`]
/// which keeps the set normalised.
///
/// ```
/// use stbus_traffic::interval::{Interval, IntervalSet};
///
/// let mut set = IntervalSet::new();
/// set.insert(Interval::new(0, 10));
/// set.insert(Interval::new(5, 15)); // overlaps, coalesced
/// set.insert(Interval::new(20, 25));
/// assert_eq!(set.total_len(), 20);
/// assert_eq!(set.intervals().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntervalSet {
    intervals: Vec<Interval>,
}

impl IntervalSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from arbitrary intervals, normalising once.
    #[must_use]
    pub fn from_intervals(intervals: impl IntoIterator<Item = Interval>) -> Self {
        let mut v: Vec<Interval> = intervals.into_iter().filter(|i| !i.is_empty()).collect();
        v.sort_by_key(|i| i.start);
        let mut out: Vec<Interval> = Vec::with_capacity(v.len());
        for iv in v {
            match out.last_mut() {
                Some(last) if iv.start <= last.end => {
                    last.end = last.end.max(iv.end);
                }
                _ => out.push(iv),
            }
        }
        Self { intervals: out }
    }

    /// Inserts one interval, coalescing with existing ones.
    pub fn insert(&mut self, iv: Interval) {
        if iv.is_empty() {
            return;
        }
        // Start-ordered appends, as a sorted trace produces them, can only
        // meet the last interval.
        if let Some(last) = self
            .intervals
            .last_mut()
            .filter(|last| iv.start >= last.start)
        {
            if iv.start <= last.end {
                last.end = last.end.max(iv.end);
            } else {
                self.intervals.push(iv);
            }
            return;
        }
        // Find insertion point and merge neighbours.
        let pos = self.intervals.partition_point(|x| x.end < iv.start);
        let mut merged = iv;
        let mut remove_to = pos;
        while remove_to < self.intervals.len() && self.intervals[remove_to].start <= merged.end {
            merged.start = merged.start.min(self.intervals[remove_to].start);
            merged.end = merged.end.max(self.intervals[remove_to].end);
            remove_to += 1;
        }
        self.intervals.splice(pos..remove_to, [merged]);
    }

    /// Re-normalises the set (no-op for sets maintained via `insert`).
    pub fn normalize(&mut self) {
        *self = Self::from_intervals(self.intervals.iter().copied());
    }

    /// The disjoint, sorted intervals.
    #[must_use]
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Total number of cycles covered.
    #[must_use]
    pub fn total_len(&self) -> u64 {
        self.intervals.iter().map(Interval::len).sum()
    }

    /// Returns `true` if the set covers no cycles.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Length of the intersection with another set, via two-pointer merge.
    #[must_use]
    pub fn intersection_len(&self, other: &IntervalSet) -> u64 {
        let (mut a, mut b) = (0usize, 0usize);
        let mut total = 0u64;
        while a < self.intervals.len() && b < other.intervals.len() {
            let x = &self.intervals[a];
            let y = &other.intervals[b];
            total += x.overlap_len(y);
            if x.end <= y.end {
                a += 1;
            } else {
                b += 1;
            }
        }
        total
    }

    /// Intersection with another set, as a new interval set.
    #[must_use]
    pub fn intersection(&self, other: &IntervalSet) -> IntervalSet {
        let (mut a, mut b) = (0usize, 0usize);
        let mut out = Vec::new();
        while a < self.intervals.len() && b < other.intervals.len() {
            let x = &self.intervals[a];
            let y = &other.intervals[b];
            let iv = x.intersect(y);
            if !iv.is_empty() {
                out.push(iv);
            }
            if x.end <= y.end {
                a += 1;
            } else {
                b += 1;
            }
        }
        IntervalSet { intervals: out }
    }

    /// Restricts the set to `[lo, hi)` and returns the clipped set.
    #[must_use]
    pub fn clipped(&self, lo: u64, hi: u64) -> IntervalSet {
        IntervalSet {
            intervals: self
                .intervals
                .iter()
                .map(|iv| iv.clip(lo, hi))
                .filter(|iv| !iv.is_empty())
                .collect(),
        }
    }

    /// Number of cycles covered within `[lo, hi)` without materialising the
    /// clipped set.
    #[must_use]
    pub fn len_within(&self, lo: u64, hi: u64) -> u64 {
        self.intervals.iter().map(|iv| iv.clip(lo, hi).len()).sum()
    }
}

impl FromIterator<Interval> for IntervalSet {
    fn from_iter<T: IntoIterator<Item = Interval>>(iter: T) -> Self {
        Self::from_intervals(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn interval_basics() {
        let iv = Interval::new(3, 10);
        assert_eq!(iv.len(), 7);
        assert!(!iv.is_empty());
        assert!(Interval::new(5, 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "interval start")]
    fn inverted_interval_panics() {
        let _ = Interval::new(10, 3);
    }

    #[test]
    fn intersect_cases() {
        let a = Interval::new(0, 10);
        assert_eq!(a.overlap_len(&Interval::new(5, 15)), 5);
        assert_eq!(a.overlap_len(&Interval::new(10, 20)), 0);
        assert_eq!(a.overlap_len(&Interval::new(2, 4)), 2);
        assert_eq!(a.overlap_len(&Interval::new(20, 30)), 0);
    }

    #[test]
    fn clip_truncates() {
        let iv = Interval::new(5, 25);
        assert_eq!(iv.clip(10, 20), Interval::new(10, 20));
        assert_eq!(iv.clip(0, 8), Interval::new(5, 8));
        assert!(iv.clip(30, 40).is_empty());
    }

    #[test]
    fn set_coalesces_adjacent() {
        let mut s = IntervalSet::new();
        s.insert(Interval::new(0, 5));
        s.insert(Interval::new(5, 10));
        assert_eq!(s.intervals().len(), 1);
        assert_eq!(s.total_len(), 10);
    }

    #[test]
    fn set_insert_merges_spanning() {
        let mut s = IntervalSet::new();
        s.insert(Interval::new(0, 2));
        s.insert(Interval::new(4, 6));
        s.insert(Interval::new(8, 10));
        s.insert(Interval::new(1, 9)); // spans all three
        assert_eq!(s.intervals().len(), 1);
        assert_eq!(s.intervals()[0], Interval::new(0, 10));
    }

    #[test]
    fn set_insert_keeps_disjoint() {
        let mut s = IntervalSet::new();
        s.insert(Interval::new(10, 12));
        s.insert(Interval::new(0, 2));
        s.insert(Interval::new(5, 6));
        assert_eq!(s.intervals().len(), 3);
        assert_eq!(s.intervals()[0].start, 0);
        assert_eq!(s.intervals()[2].start, 10);
    }

    #[test]
    fn intersection_len_two_sets() {
        let a = IntervalSet::from_intervals([Interval::new(0, 10), Interval::new(20, 30)]);
        let b = IntervalSet::from_intervals([Interval::new(5, 25)]);
        assert_eq!(a.intersection_len(&b), 10); // [5,10) + [20,25)
        assert_eq!(b.intersection_len(&a), 10);
    }

    #[test]
    fn clipped_and_len_within_agree() {
        let s = IntervalSet::from_intervals([Interval::new(0, 10), Interval::new(15, 30)]);
        assert_eq!(s.clipped(5, 20).total_len(), s.len_within(5, 20));
        assert_eq!(s.len_within(5, 20), 10); // [5,10) + [15,20)
    }

    #[test]
    fn empty_intervals_dropped() {
        let s = IntervalSet::from_intervals([Interval::new(5, 5), Interval::new(1, 2)]);
        assert_eq!(s.intervals().len(), 1);
    }

    fn arb_intervals() -> impl Strategy<Value = Vec<(u64, u64)>> {
        prop::collection::vec((0u64..500, 1u64..50), 0..40)
            .prop_map(|v| v.into_iter().map(|(s, l)| (s, s + l)).collect())
    }

    proptest! {
        /// Incremental insert and bulk construction agree, in any order
        /// and in the start order that takes the append path.
        #[test]
        fn insert_matches_bulk(raw in arb_intervals()) {
            let mut ivs: Vec<Interval> = raw.iter().map(|&(s, e)| Interval::new(s, e)).collect();
            let bulk = IntervalSet::from_intervals(ivs.clone());
            let mut inc = IntervalSet::new();
            for &iv in &ivs {
                inc.insert(iv);
            }
            prop_assert_eq!(&bulk, &inc);
            ivs.sort_by_key(|iv| iv.start);
            let mut appended = IntervalSet::new();
            for iv in ivs {
                appended.insert(iv);
            }
            prop_assert_eq!(bulk, appended);
        }

        /// Total length equals a brute-force cycle count.
        #[test]
        fn total_len_matches_brute_force(raw in arb_intervals()) {
            let set = IntervalSet::from_intervals(
                raw.iter().map(|&(s, e)| Interval::new(s, e)),
            );
            let mut cycles = std::collections::HashSet::new();
            for &(s, e) in &raw {
                for c in s..e {
                    cycles.insert(c);
                }
            }
            prop_assert_eq!(set.total_len(), cycles.len() as u64);
        }

        /// Intersection length is symmetric and bounded by both set sizes.
        #[test]
        fn intersection_symmetric_and_bounded(a in arb_intervals(), b in arb_intervals()) {
            let sa = IntervalSet::from_intervals(a.iter().map(|&(s, e)| Interval::new(s, e)));
            let sb = IntervalSet::from_intervals(b.iter().map(|&(s, e)| Interval::new(s, e)));
            let ab = sa.intersection_len(&sb);
            prop_assert_eq!(ab, sb.intersection_len(&sa));
            prop_assert!(ab <= sa.total_len());
            prop_assert!(ab <= sb.total_len());
        }

        /// The intersection *set* has the same length as `intersection_len`.
        #[test]
        fn intersection_set_matches_len(a in arb_intervals(), b in arb_intervals()) {
            let sa = IntervalSet::from_intervals(a.iter().map(|&(s, e)| Interval::new(s, e)));
            let sb = IntervalSet::from_intervals(b.iter().map(|&(s, e)| Interval::new(s, e)));
            prop_assert_eq!(sa.intersection(&sb).total_len(), sa.intersection_len(&sb));
        }

        /// Intersection equals brute-force common-cycle count.
        #[test]
        fn intersection_matches_brute_force(a in arb_intervals(), b in arb_intervals()) {
            let sa = IntervalSet::from_intervals(a.iter().map(|&(s, e)| Interval::new(s, e)));
            let sb = IntervalSet::from_intervals(b.iter().map(|&(s, e)| Interval::new(s, e)));
            let cy = |raw: &[(u64, u64)]| {
                let mut set = std::collections::HashSet::new();
                for &(s, e) in raw {
                    for c in s..e {
                        set.insert(c);
                    }
                }
                set
            };
            let expected = cy(&a).intersection(&cy(&b)).count() as u64;
            prop_assert_eq!(sa.intersection_len(&sb), expected);
        }
    }
}
