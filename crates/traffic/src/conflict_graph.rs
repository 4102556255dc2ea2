//! Word-parallel bitset conflict graph — the shared core of phase-3
//! feasibility.
//!
//! The conflict relation of Eq. (2) is consumed in the innermost loops of
//! every binding solver: "does target `t` conflict with any member of this
//! bus?" is asked at every node of the exact search, every greedy
//! placement, every local-search move and every randomized-baseline
//! descent. This module stores the relation as per-target `u64`
//! adjacency words so the group query is a handful of `AND`s:
//! `row(t) ∩ members(k) ≠ ∅`.
//!
//! Two pieces:
//!
//! * [`TargetSet`] — a fixed-capacity bitset over target indices, the
//!   "members of bus `k`" operand of the word-parallel test;
//! * [`ConflictGraph`] — the adjacency bitset rows plus the conflict
//!   construction from [`WindowStats`] (a pair conflicts when its overlap
//!   exceeds the threshold in any window or its critical streams clash)
//!   and the greedy-coloring lower bound that replaces the plain
//!   greedy-clique bound for search pruning.
//!
//! The per-window overlaps the construction reads are produced by the
//! sweep-line pass in [`crate::window`], so conflict construction never
//! intersects busy-interval sets pair by pair; only pairs with a non-zero
//! aggregate overlap pay a (cheap, critical-streams-only) interval check.

use crate::kernels;
use crate::window::WindowStats;
use serde::{Deserialize, Serialize};
use std::fmt;

const WORD_BITS: usize = u64::BITS as usize;

fn words_for(n: usize) -> usize {
    n.div_ceil(WORD_BITS).max(1)
}

/// Iterates the set bit positions of word `wi`, offset into the global
/// index space — the one bit-walk shared by every iterator in this module.
fn word_bits(wi: usize, w: u64) -> impl Iterator<Item = usize> {
    let mut rest = w;
    std::iter::from_fn(move || {
        if rest == 0 {
            return None;
        }
        let bit = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        Some(wi * WORD_BITS + bit)
    })
}

/// A fixed-capacity set of target indices backed by `u64` words.
///
/// ```
/// use stbus_traffic::TargetSet;
///
/// let mut set = TargetSet::empty(70);
/// set.insert(3);
/// set.insert(65);
/// assert!(set.contains(65));
/// assert_eq!(set.iter().collect::<Vec<_>>(), vec![3, 65]);
/// set.remove(3);
/// assert_eq!(set.len(), 1);
/// ```
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TargetSet {
    capacity: usize,
    words: Vec<u64>,
}

/// Manual so `clone_from` reuses the word buffer: the solver's
/// hypothetical propagation states reload their unbound set from a live
/// context on every escalated DFS node, and the derived implementation
/// would allocate a fresh `Vec` each time.
impl Clone for TargetSet {
    fn clone(&self) -> Self {
        Self {
            capacity: self.capacity,
            words: self.words.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.capacity = source.capacity;
        self.words.clone_from(&source.words);
    }
}

impl TargetSet {
    /// An empty set able to hold targets `0..capacity`.
    #[must_use]
    pub fn empty(capacity: usize) -> Self {
        Self {
            capacity,
            words: vec![0; words_for(capacity)],
        }
    }

    /// The capacity this set was sized for.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Adds a target to the set.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of capacity.
    pub fn insert(&mut self, target: usize) {
        assert!(target < self.capacity, "target set index out of range");
        self.words[target / WORD_BITS] |= 1u64 << (target % WORD_BITS);
    }

    /// Removes a target from the set (no-op when absent).
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of capacity.
    pub fn remove(&mut self, target: usize) {
        assert!(target < self.capacity, "target set index out of range");
        self.words[target / WORD_BITS] &= !(1u64 << (target % WORD_BITS));
    }

    /// Whether the set contains `target`.
    #[must_use]
    pub fn contains(&self, target: usize) -> bool {
        target < self.capacity && self.words[target / WORD_BITS] >> (target % WORD_BITS) & 1 == 1
    }

    /// Number of targets in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when no target is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every target.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The backing words (least-significant bit of word 0 is target 0).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Whether this set shares any member with `other`.
    #[must_use]
    pub fn intersects(&self, other: &TargetSet) -> bool {
        kernels::any_and(&self.words, &other.words)
    }

    /// Iterates the members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(wi, &w)| word_bits(wi, w))
    }
}

/// Symmetric conflict relation stored as per-target adjacency bitset rows.
///
/// `conflicts(i, j)` is a single bit test; `conflicts_with_set(t, bus)` is
/// a word-parallel intersection — the query every binding solver asks in
/// its innermost loop.
///
/// ```
/// use stbus_traffic::{ConflictGraph, TargetSet};
///
/// let mut g = ConflictGraph::none(4);
/// g.forbid(0, 2);
/// assert!(g.conflicts(2, 0));
/// let mut bus = TargetSet::empty(4);
/// bus.insert(1);
/// assert!(!g.conflicts_with_set(0, &bus));
/// bus.insert(2);
/// assert!(g.conflicts_with_set(0, &bus));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConflictGraph {
    n: usize,
    words: usize,
    /// Row-major adjacency bits: row `t` spans
    /// `bits[t * words..(t + 1) * words]`.
    bits: Vec<u64>,
}

impl ConflictGraph {
    /// A conflict-free graph over `n` targets.
    #[must_use]
    pub fn none(n: usize) -> Self {
        let words = words_for(n);
        Self {
            n,
            words,
            bits: vec![0; n.max(1) * words],
        }
    }

    /// Builds the conflict graph from windowed statistics: a pair
    /// conflicts when its overlap exceeds `threshold` (as a fraction of
    /// each window's own length) in **any** window, or when both targets
    /// carry critical streams that overlap in time (paper Eq. 2). The
    /// paper notes (§7.4) that an overlap above 50 % of the window makes
    /// the bandwidth constraint unsatisfiable for a shared bus anyway, so
    /// thresholds are meaningful in `(0, 0.5]`.
    ///
    /// Only pairs with a non-zero aggregate overlap are examined — the
    /// sweep-line analysis already knows every pair that ever overlaps, so
    /// disjoint pairs cost nothing here.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative or not finite.
    #[must_use]
    pub fn from_stats(stats: &WindowStats, threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold >= 0.0,
            "overlap threshold must be a non-negative finite fraction"
        );
        let n = stats.num_targets();
        let mut graph = Self::none(n);
        let limits: Vec<u64> = (0..stats.num_windows())
            .map(|m| (threshold * stats.window_len(m) as f64).floor() as u64)
            .collect();
        for i in 0..n {
            for j in (i + 1)..n {
                // Critical intervals are a subset of busy intervals, so a
                // pair with zero aggregate overlap can neither exceed the
                // threshold nor clash on critical streams — skip it whole.
                if stats.overlap_matrix().get(i, j) == 0 {
                    continue;
                }
                let over_threshold =
                    (0..stats.num_windows()).any(|m| stats.window_overlap(i, j, m) > limits[m]);
                if over_threshold || stats.critical_streams_overlap(i, j) {
                    graph.forbid(i, j);
                }
            }
        }
        graph
    }

    /// Number of targets.
    #[must_use]
    pub fn num_targets(&self) -> usize {
        self.n
    }

    /// The adjacency words of target `t`'s row.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn row(&self, t: usize) -> &[u64] {
        assert!(t < self.n, "conflict index out of range");
        &self.bits[t * self.words..(t + 1) * self.words]
    }

    /// Marks the pair as conflicting. The relation is symmetric, so either
    /// argument order records the same single conflict.
    ///
    /// ```
    /// use stbus_traffic::ConflictGraph;
    ///
    /// let mut g = ConflictGraph::none(3);
    /// g.forbid(0, 2);
    /// assert!(g.conflicts(0, 2));
    /// assert!(g.conflicts(2, 0));
    /// assert!(!g.conflicts(0, 1));
    /// assert_eq!(g.num_conflicts(), 1);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or an index is out of range.
    pub fn forbid(&mut self, i: usize, j: usize) {
        assert!(i != j, "a target cannot conflict with itself");
        assert!(i < self.n && j < self.n, "conflict index out of range");
        self.bits[i * self.words + j / WORD_BITS] |= 1u64 << (j % WORD_BITS);
        self.bits[j * self.words + i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Detaches target `t` from the relation: its row is zeroed and its
    /// column bit is cleared from every other row with one word-parallel
    /// `AND`-mask pass. This is the delta-patch primitive — after a
    /// workload edit touches `t`, its conflicts are cleared here and
    /// re-derived pair by pair from the patched overlap profile (see
    /// [`OverlapProfile::patch_conflict_graph`](crate::OverlapProfile::patch_conflict_graph)).
    /// The clique/coloring bounds carry no cached state, so they reflect
    /// the patched relation on their next call with no extra invalidation.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn clear_target(&mut self, t: usize) {
        assert!(t < self.n, "conflict index out of range");
        self.bits[t * self.words..(t + 1) * self.words].fill(0);
        let word = t / WORD_BITS;
        let mask = !(1u64 << (t % WORD_BITS));
        for r in 0..self.n {
            self.bits[r * self.words + word] &= mask;
        }
    }

    /// A copy of this graph over a larger index space: existing conflicts
    /// are preserved, appended targets start conflict-free. The delta
    /// path grows the previous request's graph before patching the
    /// touched rows in place.
    ///
    /// # Panics
    ///
    /// Panics if `n` is smaller than the current target count.
    #[must_use]
    pub fn grown(&self, n: usize) -> ConflictGraph {
        assert!(
            n >= self.n,
            "grown() cannot shrink a conflict graph ({} -> {n})",
            self.n
        );
        if n == self.n {
            return self.clone();
        }
        let mut out = ConflictGraph::none(n);
        for t in 0..self.n {
            out.bits[t * out.words..t * out.words + self.words]
                .copy_from_slice(&self.bits[t * self.words..(t + 1) * self.words]);
        }
        out
    }

    /// Returns `true` if targets `i` and `j` must not share a bus.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[must_use]
    pub fn conflicts(&self, i: usize, j: usize) -> bool {
        assert!(i < self.n && j < self.n, "conflict index out of range");
        self.bits[i * self.words + j / WORD_BITS] >> (j % WORD_BITS) & 1 == 1
    }

    /// Word-parallel group feasibility: `true` when `target` conflicts
    /// with any member of `set`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    #[must_use]
    pub fn conflicts_with_set(&self, target: usize, set: &TargetSet) -> bool {
        kernels::any_and(self.row(target), set.words())
    }

    /// Raw-word form of [`ConflictGraph::conflicts_with_set`] for callers
    /// that keep bus membership as flat word strides (the binding
    /// solver's search arena) rather than as [`TargetSet`]s.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    #[must_use]
    pub fn conflicts_with_words(&self, target: usize, words: &[u64]) -> bool {
        kernels::any_and(self.row(target), words)
    }

    /// `true` if `target` conflicts with any member of `group` (slice
    /// form, for callers without a prebuilt [`TargetSet`]).
    #[must_use]
    pub fn conflicts_with_group(&self, target: usize, group: &[usize]) -> bool {
        group.iter().any(|&g| self.conflicts(target, g))
    }

    /// Number of conflict neighbours of `t`.
    #[must_use]
    pub fn degree(&self, t: usize) -> usize {
        self.row(t).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of conflicting pairs.
    #[must_use]
    pub fn num_conflicts(&self) -> usize {
        let total: usize = self
            .bits
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>();
        total / 2
    }

    /// Iterates over all conflicting pairs `(i, j)` with `i < j`.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |i| {
            let row = self.row(i);
            row.iter().enumerate().flat_map(move |(wi, &w)| {
                // Mask off j <= i so only the upper triangle is yielded.
                let lo = i + 1;
                let masked = if wi * WORD_BITS >= lo {
                    w
                } else if (wi + 1) * WORD_BITS <= lo {
                    0
                } else {
                    w & !((1u64 << (lo - wi * WORD_BITS)) - 1)
                };
                word_bits(wi, masked).map(move |j| (i, j))
            })
        })
    }

    /// Greedily grows a clique following `order`, restricting the
    /// candidate set word-parallel with each accepted vertex.
    fn clique_from_order(&self, order: &[usize]) -> usize {
        let mut candidates = vec![u64::MAX; self.words];
        let mut size = 0usize;
        for &v in order {
            if candidates[v / WORD_BITS] >> (v % WORD_BITS) & 1 == 1 {
                size += 1;
                kernels::and_assign(&mut candidates, self.row(v));
            }
        }
        size
    }

    /// A greedy clique bound, computed word-parallel: vertices in
    /// decreasing-degree order, each accepted when it conflicts with
    /// everything already chosen.
    #[must_use]
    pub fn clique_lower_bound(&self) -> usize {
        if self.n == 0 {
            return 0;
        }
        let mut order: Vec<usize> = (0..self.n).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(self.degree(v)));
        self.clique_from_order(&order).max(1)
    }

    /// Lower bound on the chromatic number of the conflict graph — any
    /// valid binding needs at least this many buses.
    ///
    /// A greedy sequential coloring (decreasing-degree order, smallest
    /// free color) first estimates where the chromatic pressure sits; the
    /// bound is then the largest clique grown greedily from two orders —
    /// plain decreasing degree, and decreasing (color, degree), which
    /// seeds the clique inside the region the coloring found hardest. Both
    /// certificates are genuine cliques, so the bound is always sound, and
    /// it dominates the plain greedy-clique bound on dense graphs.
    #[must_use]
    pub fn greedy_coloring_bound(&self) -> usize {
        if self.n == 0 {
            return 0;
        }
        let mut by_degree: Vec<usize> = (0..self.n).collect();
        by_degree.sort_by_key(|&v| std::cmp::Reverse(self.degree(v)));

        // Greedy sequential coloring: smallest color unused by already
        // colored neighbours.
        let mut color = vec![usize::MAX; self.n];
        let mut neighbour_colors: Vec<bool> = Vec::new();
        for &v in &by_degree {
            neighbour_colors.clear();
            for u in self
                .row(v)
                .iter()
                .enumerate()
                .flat_map(|(wi, &w)| word_bits(wi, w))
            {
                if color[u] != usize::MAX {
                    if color[u] >= neighbour_colors.len() {
                        neighbour_colors.resize(color[u] + 1, false);
                    }
                    neighbour_colors[color[u]] = true;
                }
            }
            color[v] = neighbour_colors
                .iter()
                .position(|&used| !used)
                .unwrap_or(neighbour_colors.len());
        }

        let mut by_color = by_degree.clone();
        by_color.sort_by_key(|&v| std::cmp::Reverse((color[v], self.degree(v))));

        self.clique_from_order(&by_degree)
            .max(self.clique_from_order(&by_color))
            .max(1)
    }
}

impl fmt::Display for ConflictGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "conflicts among {} targets:", self.n)?;
        for (i, j) in self.pairs() {
            writeln!(f, "  T{i} x T{j}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{InitiatorId, TargetId};
    use crate::trace::{Trace, TraceEvent};
    use crate::window::WindowStats;

    #[test]
    fn target_set_basics() {
        let mut s = TargetSet::empty(130);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert_eq!(s.len(), 3);
        assert!(s.contains(64));
        assert!(!s.contains(63));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
        s.remove(64);
        assert!(!s.contains(64));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn target_set_intersects() {
        let mut a = TargetSet::empty(100);
        let mut b = TargetSet::empty(100);
        a.insert(70);
        b.insert(71);
        assert!(!a.intersects(&b));
        b.insert(70);
        assert!(a.intersects(&b));
    }

    #[test]
    fn symmetric_and_irreflexive() {
        let mut g = ConflictGraph::none(80);
        g.forbid(1, 77);
        assert!(g.conflicts(1, 77));
        assert!(g.conflicts(77, 1));
        assert!(!g.conflicts(1, 1));
        assert_eq!(g.num_conflicts(), 1);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn clear_target_detaches_row_and_column() {
        let mut g = ConflictGraph::none(130);
        g.forbid(2, 65);
        g.forbid(2, 129);
        g.forbid(65, 129);
        g.clear_target(65);
        assert!(!g.conflicts(2, 65));
        assert!(!g.conflicts(65, 129));
        assert!(g.conflicts(2, 129), "pairs not touching the target survive");
        assert_eq!(g.degree(65), 0);
        assert_eq!(g.num_conflicts(), 1);
        // Re-forbidding after a clear reproduces a freshly built graph.
        g.forbid(2, 65);
        g.forbid(65, 129);
        let mut fresh = ConflictGraph::none(130);
        fresh.forbid(2, 65);
        fresh.forbid(2, 129);
        fresh.forbid(65, 129);
        assert_eq!(g, fresh);
    }

    #[test]
    fn grown_preserves_pairs_and_extends_capacity() {
        let mut g = ConflictGraph::none(70);
        g.forbid(0, 69);
        g.forbid(3, 5);
        let big = g.grown(140);
        assert_eq!(big.num_targets(), 140);
        assert_eq!(
            big.pairs().collect::<Vec<_>>(),
            g.pairs().collect::<Vec<_>>()
        );
        assert!(!big.conflicts(69, 139));
        let mut big2 = big.clone();
        big2.forbid(69, 139);
        assert!(big2.conflicts(139, 69));
        // Growing to the same size is a plain copy.
        assert_eq!(g.grown(70), g);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn grown_rejects_shrinking() {
        let _ = ConflictGraph::none(10).grown(9);
    }

    #[test]
    #[should_panic(expected = "cannot conflict with itself")]
    fn self_conflict_panics() {
        let mut g = ConflictGraph::none(2);
        g.forbid(1, 1);
    }

    #[test]
    fn word_parallel_group_query_matches_slice_form() {
        let mut g = ConflictGraph::none(130);
        g.forbid(0, 65);
        g.forbid(0, 129);
        let mut set = TargetSet::empty(130);
        for t in [1, 2, 64] {
            set.insert(t);
        }
        assert!(!g.conflicts_with_set(0, &set));
        assert!(!g.conflicts_with_group(0, &[1, 2, 64]));
        set.insert(129);
        assert!(g.conflicts_with_set(0, &set));
        assert!(g.conflicts_with_group(0, &[1, 2, 64, 129]));
    }

    #[test]
    fn pairs_iterator_lists_upper_triangle() {
        let mut g = ConflictGraph::none(67);
        g.forbid(66, 0);
        g.forbid(1, 66);
        g.forbid(2, 3);
        let pairs: Vec<_> = g.pairs().collect();
        assert_eq!(pairs, vec![(0, 66), (1, 66), (2, 3)]);
    }

    #[test]
    fn clique_bound_on_triangle() {
        let mut g = ConflictGraph::none(4);
        g.forbid(0, 1);
        g.forbid(1, 2);
        g.forbid(0, 2);
        assert_eq!(g.clique_lower_bound(), 3);
        assert_eq!(g.greedy_coloring_bound(), 3);
    }

    #[test]
    fn coloring_bound_dominates_plain_clique_bound() {
        // A dense-ish random graph: the coloring-seeded clique must never
        // be smaller than the degree-order greedy clique.
        let mut g = ConflictGraph::none(24);
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for i in 0..24 {
            for j in (i + 1)..24 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state % 100 < 40 {
                    g.forbid(i, j);
                }
            }
        }
        assert!(g.greedy_coloring_bound() >= g.clique_lower_bound());
    }

    #[test]
    fn bounds_on_empty_graphs() {
        assert_eq!(ConflictGraph::none(0).greedy_coloring_bound(), 0);
        assert_eq!(ConflictGraph::none(5).greedy_coloring_bound(), 1);
        assert_eq!(ConflictGraph::none(5).clique_lower_bound(), 1);
    }

    #[test]
    fn from_stats_threshold_semantics() {
        // Two targets overlapping 40 cycles out of a 100-cycle window.
        let mut tr = Trace::new(2, 2);
        tr.push(TraceEvent::new(
            InitiatorId::new(0),
            TargetId::new(0),
            0,
            60,
        ));
        tr.push(TraceEvent::new(
            InitiatorId::new(1),
            TargetId::new(1),
            20,
            60,
        ));
        let stats = WindowStats::analyze(&tr, 100);
        assert!(ConflictGraph::from_stats(&stats, 0.3).conflicts(0, 1));
        assert!(!ConflictGraph::from_stats(&stats, 0.5).conflicts(0, 1));
    }

    #[test]
    fn from_stats_critical_clash() {
        let mut tr = Trace::new(2, 2);
        tr.push(TraceEvent::critical(
            InitiatorId::new(0),
            TargetId::new(0),
            0,
            5,
        ));
        tr.push(TraceEvent::critical(
            InitiatorId::new(1),
            TargetId::new(1),
            3,
            5,
        ));
        let stats = WindowStats::analyze(&tr, 1000);
        // A 2-cycle overlap, far below any threshold up to the paper's
        // 50 % cap — but both streams are critical.
        for threshold in [0.4, 0.5] {
            assert!(ConflictGraph::from_stats(&stats, threshold).conflicts(0, 1));
        }
    }

    /// Two single-event targets, the second starting at `second_start`,
    /// analysed in one 100-cycle window.
    fn two_events(second_start: u64) -> WindowStats {
        let mut tr = Trace::new(2, 2);
        tr.push(TraceEvent::new(
            InitiatorId::new(0),
            TargetId::new(0),
            0,
            10,
        ));
        tr.push(TraceEvent::new(
            InitiatorId::new(1),
            TargetId::new(1),
            second_start,
            10,
        ));
        WindowStats::analyze(&tr, 100)
    }

    #[test]
    fn zero_threshold_flags_any_overlap() {
        // One cycle of overlap exceeds a zero threshold.
        assert!(ConflictGraph::from_stats(&two_events(9), 0.0).conflicts(0, 1));
    }

    #[test]
    fn disjoint_targets_never_conflict() {
        assert!(!ConflictGraph::from_stats(&two_events(50), 0.0).conflicts(0, 1));
    }

    #[test]
    fn display_lists_conflicts() {
        let mut g = ConflictGraph::none(3);
        g.forbid(0, 1);
        assert!(g.to_string().contains("T0 x T1"));
    }

    mod properties {
        use super::super::*;
        use crate::ids::{InitiatorId, TargetId};
        use crate::interval::{Interval, IntervalSet};
        use crate::trace::{Trace, TraceEvent};
        use proptest::prelude::*;

        /// Dense `Vec<bool>` reference model built straight from the
        /// definition: per-pair nested interval intersection, spread over
        /// windows, thresholded per window — the pre-bitset algorithm.
        fn dense_reference(tr: &Trace, ws: u64, threshold: f64) -> (usize, Vec<bool>) {
            let n = tr.num_targets();
            let num_windows = usize::try_from(tr.horizon().div_ceil(ws)).unwrap().max(1);
            let busy: Vec<IntervalSet> = (0..n)
                .map(|t| {
                    IntervalSet::from_intervals(
                        tr.events_for_target(TargetId::new(t))
                            .iter()
                            .map(|e| Interval::new(e.start, e.end())),
                    )
                })
                .collect();
            let critical: Vec<IntervalSet> = (0..n)
                .map(|t| {
                    IntervalSet::from_intervals(
                        tr.events_for_target(TargetId::new(t))
                            .iter()
                            .filter(|e| e.critical)
                            .map(|e| Interval::new(e.start, e.end())),
                    )
                })
                .collect();
            let limit = (threshold * ws as f64).floor() as u64;
            let mut dense = vec![false; n * n];
            for i in 0..n {
                for j in (i + 1)..n {
                    let inter = busy[i].intersection(&busy[j]);
                    let over = (0..num_windows).any(|m| {
                        let lo = m as u64 * ws;
                        let wo: u64 = inter
                            .intervals()
                            .iter()
                            .map(|iv| iv.clip(lo, lo + ws).len())
                            .sum();
                        wo > limit
                    });
                    if over || critical[i].intersection_len(&critical[j]) > 0 {
                        dense[i * n + j] = true;
                        dense[j * n + i] = true;
                    }
                }
            }
            (n, dense)
        }

        fn arb_trace() -> impl Strategy<Value = Trace> {
            prop::collection::vec(
                (
                    0usize..3,
                    0usize..6,
                    0u64..500,
                    1u32..80,
                    proptest::bool::ANY,
                ),
                1..60,
            )
            .prop_map(|events| {
                let mut tr = Trace::new(3, 6);
                for (i, t, s, d, critical) in events {
                    let ev = TraceEvent::new(InitiatorId::new(i), TargetId::new(t), s, d);
                    tr.push(if critical {
                        TraceEvent::critical(ev.initiator, ev.target, s, d)
                    } else {
                        ev
                    });
                }
                tr.finish_sorting();
                tr
            })
        }

        proptest! {
            /// The bitset graph answers `conflicts` and
            /// `conflicts_with_group`/`conflicts_with_set` identically to
            /// the dense reference model on random traces.
            #[test]
            fn graph_matches_dense_reference(
                tr in arb_trace(),
                ws in 1u64..250,
                theta in 0u32..=50,
            ) {
                let threshold = f64::from(theta) / 100.0;
                let stats = WindowStats::analyze(&tr, ws);
                let graph = ConflictGraph::from_stats(&stats, threshold);
                let (n, dense) = dense_reference(&tr, ws, threshold);
                prop_assert_eq!(graph.num_targets(), n);
                for i in 0..n {
                    for j in 0..n {
                        if i != j {
                            prop_assert_eq!(
                                graph.conflicts(i, j),
                                dense[i * n + j],
                                "pair ({}, {})", i, j
                            );
                        }
                    }
                }
                // Group queries: every suffix group, bitset vs slice vs
                // dense scan.
                for t in 0..n {
                    let group: Vec<usize> = (0..n).filter(|&u| u != t).collect();
                    for cut in 0..=group.len() {
                        let g = &group[..cut];
                        let expected = g.iter().any(|&u| dense[t * n + u]);
                        prop_assert_eq!(graph.conflicts_with_group(t, g), expected);
                        let mut set = TargetSet::empty(n);
                        for &u in g {
                            set.insert(u);
                        }
                        prop_assert_eq!(graph.conflicts_with_set(t, &set), expected);
                    }
                }
            }

            /// Raising the threshold only removes conflicts: every pair
            /// that conflicts at the higher threshold conflicts at the
            /// lower one too.
            #[test]
            fn conflicts_are_monotone_in_the_threshold(
                tr in arb_trace(),
                ws in 1u64..250,
                low in 0u32..=50,
                step in 0u32..=50,
            ) {
                let stats = WindowStats::analyze(&tr, ws);
                let loose = ConflictGraph::from_stats(&stats, f64::from(low) / 100.0);
                let tight = ConflictGraph::from_stats(&stats, f64::from(low + step) / 100.0);
                for (i, j) in tight.pairs() {
                    prop_assert!(loose.conflicts(i, j), "pair ({}, {})", i, j);
                }
            }
        }
    }
}
