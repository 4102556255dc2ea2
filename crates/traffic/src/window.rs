//! Window-based traffic analysis — the measurement core of the paper.
//!
//! The entire simulation period is divided into fixed-size windows
//! (Definition 1). For every target `i` and window `m` the analysis
//! records the number of busy cycles `comm(i,m)` (Definition 2), and for
//! every target pair `(i,j)` the pairwise overlap `wo(i,j,m)` — the number
//! of cycles in window `m` during which *both* targets have an active
//! transaction. Summing over windows yields the overlap matrix
//! `om(i,j) = Σ_m wo(i,j,m)` (Eq. 1), the objective coefficients of the
//! optimal-binding MILP.
//!
//! All three tables come from one **merge sweep** over the per-target
//! busy sets. Each set is already sorted and disjoint, so a heap holding
//! one entry per target yields every start and end in time order without
//! sorting the endpoints, and the window index only walks forward. A
//! pair is charged once per activation end, not once per elementary
//! segment: when one target's busy interval ends, it adds its overlap with
//! each target still active, and at every window boundary the active
//! intervals are closed and reopened so each charge lands in one window.

use crate::ids::TargetId;
use crate::interval::{Interval, IntervalSet};
use crate::trace::Trace;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::error::Error;
use std::fmt;

/// The most `u64` cells one window analysis may allocate (2²⁶ cells,
/// 512 MiB). Every workload the repo ships stays below it: the largest,
/// a 32-target scaled SoC analysed in 1-cycle windows, needs about 62M.
pub const MAX_ANALYSIS_CELLS: u64 = 1 << 26;

/// A window analysis refused before it allocates: its tables would hold
/// more than [`MAX_ANALYSIS_CELLS`] cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisTooLarge {
    /// Cells the refused analysis would have allocated (saturating).
    pub cells: u64,
}

impl fmt::Display for AnalysisTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "the window analysis would allocate {} cells, over the cap of {MAX_ANALYSIS_CELLS}; \
             use a larger window or a shorter trace",
            self.cells
        )
    }
}

impl Error for AnalysisTooLarge {}

/// Symmetric matrix of aggregate pairwise overlaps `om(i,j)` (Eq. 1).
///
/// Stored as a packed upper triangle; `om(i,i)` is defined as 0.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverlapMatrix {
    n: usize,
    upper: Vec<u64>,
}

impl OverlapMatrix {
    /// Creates a zero matrix for `n` targets.
    #[must_use]
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            upper: vec![0; n * (n.saturating_sub(1)) / 2],
        }
    }

    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Number of targets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` for a 0-target matrix.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The aggregate overlap `om(i,j)` in cycles; 0 on the diagonal.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> u64 {
        assert!(i < self.n && j < self.n, "overlap index out of range");
        if i == j {
            0
        } else {
            let (a, b) = if i < j { (i, j) } else { (j, i) };
            self.upper[self.idx(a, b)]
        }
    }

    /// Adds `v` cycles of overlap to the pair `(i,j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of range.
    pub fn add(&mut self, i: usize, j: usize, v: u64) {
        assert!(i != j, "diagonal overlap is undefined");
        assert!(i < self.n && j < self.n, "overlap index out of range");
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        let k = self.idx(a, b);
        self.upper[k] += v;
    }

    /// Sets the pair `(i,j)` to exactly `v` cycles of overlap — the
    /// delta-patch counterpart of [`OverlapMatrix::add`].
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of range.
    pub fn set(&mut self, i: usize, j: usize, v: u64) {
        assert!(i != j, "diagonal overlap is undefined");
        assert!(i < self.n && j < self.n, "overlap index out of range");
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        let k = self.idx(a, b);
        self.upper[k] = v;
    }

    /// Sum of overlaps between `target` and every member of `group`.
    #[must_use]
    pub fn overlap_with_group(&self, target: usize, group: &[usize]) -> u64 {
        group
            .iter()
            .filter(|&&g| g != target)
            .map(|&g| self.get(target, g))
            .sum()
    }

    /// Total pairwise overlap within a group of targets
    /// (`Σ_{i<j ∈ group} om(i,j)`) — the per-bus cost of MILP-2.
    #[must_use]
    pub fn group_overlap(&self, group: &[usize]) -> u64 {
        let mut total = 0;
        for (a, &i) in group.iter().enumerate() {
            for &j in &group[a + 1..] {
                total += self.get(i, j);
            }
        }
        total
    }
}

/// The windowed traffic statistics for one trace: `comm(i,m)`,
/// `wo(i,j,m)` and the aggregate [`OverlapMatrix`].
///
/// ```
/// use stbus_traffic::{Trace, TraceEvent, WindowStats, InitiatorId, TargetId};
///
/// let mut trace = Trace::new(1, 2);
/// trace.push(TraceEvent::new(InitiatorId::new(0), TargetId::new(0), 0, 60));
/// trace.push(TraceEvent::new(InitiatorId::new(0), TargetId::new(1), 30, 60));
/// let stats = WindowStats::analyze(&trace, 50);
/// assert_eq!(stats.num_windows(), 2);
/// assert_eq!(stats.comm(0, 0), 50);   // target 0 busy all of window 0
/// assert_eq!(stats.comm(0, 1), 10);   // and 10 cycles of window 1
/// assert_eq!(stats.window_overlap(0, 1, 0), 20); // both busy in [30,50)
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowStats {
    window_size: u64,
    /// Window boundaries: window `m` covers `[bounds[m], bounds[m+1])`.
    bounds: Vec<u64>,
    num_windows: usize,
    num_targets: usize,
    /// `comm[t * num_windows + m]`.
    comm: Vec<u64>,
    /// Packed upper triangle of per-pair per-window overlap:
    /// `wo[pair(i,j) * num_windows + m]`.
    wo: Vec<u64>,
    /// Aggregate overlap matrix (Eq. 1).
    overlap: OverlapMatrix,
    /// Per-target busy interval sets for *critical* traffic only.
    critical_busy: Vec<IntervalSet>,
    horizon: u64,
}

impl WindowStats {
    /// Refuses a window analysis of `traces` (both crossbar directions,
    /// or the one a trace-mode request designs) whose tables would exceed
    /// [`MAX_ANALYSIS_CELLS`]. An analysis of a trace with `n` targets in
    /// windows of `window_size` cycles holds `(n(n−1)/2 + 2n) ×
    /// ⌈horizon / window_size⌉` cells: the per-pair overlaps plus two
    /// per-target rows per window. A variable window plan never has more
    /// windows than the uniform plan at its finest size, so this bounds it
    /// too.
    ///
    /// # Errors
    ///
    /// [`AnalysisTooLarge`] naming the first trace's cell count over the
    /// cap.
    ///
    /// # Panics
    ///
    /// Panics if `window_size == 0`.
    pub fn check_size(traces: &[&Trace], window_size: u64) -> Result<(), AnalysisTooLarge> {
        assert!(window_size > 0, "window size must be positive");
        for trace in traces {
            let n = trace.num_targets() as u64;
            let per_window = (n.saturating_mul(n.saturating_sub(1)) / 2).saturating_add(2 * n);
            let windows = trace.horizon().div_ceil(window_size).max(1);
            let cells = per_window.saturating_mul(windows);
            if cells > MAX_ANALYSIS_CELLS {
                return Err(AnalysisTooLarge { cells });
            }
        }
        Ok(())
    }

    /// Runs the window analysis over a trace.
    ///
    /// Transactions to the same target are merged (union) before counting,
    /// so `comm(i,m) ≤ window_size` always holds — matching the physical
    /// fact that a target port receives at most one word per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `window_size == 0`.
    #[must_use]
    pub fn analyze(trace: &Trace, window_size: u64) -> Self {
        assert!(window_size > 0, "window size must be positive");
        let horizon = trace.horizon();
        let num_windows = usize::try_from(horizon.div_ceil(window_size))
            .unwrap_or(0)
            .max(1);
        let bounds: Vec<u64> = (0..=num_windows).map(|m| m as u64 * window_size).collect();
        Self::analyze_with_bounds(trace, bounds)
    }

    /// Runs the analysis over **variable-size** windows described by their
    /// boundaries: window `m` covers `[bounds[m], bounds[m+1])`. This is
    /// the paper's §8 future-work extension: fine windows where QoS
    /// matters, coarse windows elsewhere. See [`WindowPlan`] for building
    /// boundary vectors.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` has fewer than two entries, does not start at
    /// cycle 0, is not strictly increasing, or does not cover the trace
    /// horizon.
    #[must_use]
    pub fn analyze_with_bounds(trace: &Trace, bounds: Vec<u64>) -> Self {
        assert!(bounds.len() >= 2, "need at least one window");
        assert_eq!(bounds[0], 0, "window plan must start at cycle 0");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "window boundaries must be strictly increasing"
        );
        let horizon = trace.horizon();
        assert!(
            *bounds.last().expect("non-empty") >= horizon,
            "window plan ends before the trace horizon"
        );
        let n = trace.num_targets();
        let num_windows = bounds.len() - 1;
        // Uniform plans report their common size; variable plans report the
        // largest window (the conservative end of the spectrum they span).
        let window_size = bounds
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .expect("at least one window");

        // Per-target busy sets (all traffic and critical-only traffic).
        let mut busy: Vec<IntervalSet> = vec![IntervalSet::new(); n];
        let mut critical_busy: Vec<IntervalSet> = vec![IntervalSet::new(); n];
        for e in trace.iter() {
            let iv = Interval::new(e.start, e.end());
            busy[e.target.index()].insert(iv);
            if e.critical {
                critical_busy[e.target.index()].insert(iv);
            }
        }

        let Sweep { comm, wo, om, .. } = Sweep::run(&busy, &bounds);
        Self {
            window_size,
            bounds,
            num_windows,
            num_targets: n,
            comm,
            wo,
            overlap: OverlapMatrix { n, upper: om },
            critical_busy,
            horizon,
        }
    }

    /// Re-derives the statistics after a workload delta, recomputing only
    /// the rows and pairs that involve a `touched` target — the
    /// incremental counterpart of [`WindowStats::analyze`] for uniform
    /// window plans.
    ///
    /// `patched` is the post-delta trace (see
    /// [`WorkloadDelta::apply`](crate::delta::WorkloadDelta::apply)) and
    /// `touched` the indices whose event sets changed (removed, edited or
    /// added targets — [`WorkloadDelta::touched`](crate::delta::WorkloadDelta::touched)).
    /// Untouched rows are copied (padded or truncated to the new window
    /// count — safe because an untouched target's events all end before
    /// the new horizon, so any dropped windows held only zeros); touched
    /// rows and every pair with a touched endpoint are recomputed from
    /// the patched trace's busy-interval sets using the same integer
    /// arithmetic as the full sweep. The result is **bit-identical** to
    /// `WindowStats::analyze(patched, self.window_size())`.
    ///
    /// Pairwise work is O(touched × targets × (intervals + windows))
    /// instead of the full sweep's all-pairs cost; the single pass that
    /// rebuilds per-target busy sets is O(events) and unavoidable (the
    /// horizon and the touched rows need it).
    ///
    /// # Panics
    ///
    /// Panics if this analysis does not use a uniform window plan
    /// (adaptive plans re-derive their boundaries from the trace, so a
    /// delta invalidates the plan itself — re-analyse from scratch), if
    /// the patched trace has fewer targets than the base, or if an added
    /// target is missing from `touched`.
    #[must_use]
    pub fn apply_delta(&self, patched: &Trace, touched: &[usize]) -> WindowStats {
        assert!(
            self.is_uniform(),
            "delta patching requires a uniform window plan"
        );
        let ws = self.window_size;
        let old_n = self.num_targets;
        let old_windows = self.num_windows;
        let n = patched.num_targets();
        assert!(n >= old_n, "a delta never shrinks the target index space");
        let mut is_touched = vec![false; n];
        for &t in touched {
            assert!(t < n, "touched target {t} out of range (< {n})");
            is_touched[t] = true;
        }
        for (t, flag) in is_touched.iter().enumerate().skip(old_n) {
            assert!(*flag, "added target {t} must be listed as touched");
        }

        let horizon = patched.horizon();
        let num_windows = usize::try_from(horizon.div_ceil(ws)).unwrap_or(0).max(1);
        let bounds: Vec<u64> = (0..=num_windows).map(|m| m as u64 * ws).collect();

        // Busy sets for every target (touched pairs need their untouched
        // partner's set too); critical sets only for touched targets —
        // untouched ones are cloned below.
        let mut busy: Vec<IntervalSet> = vec![IntervalSet::new(); n];
        let mut critical: Vec<IntervalSet> = vec![IntervalSet::new(); n];
        for e in patched.iter() {
            let t = e.target.index();
            let iv = Interval::new(e.start, e.end());
            busy[t].insert(iv);
            if e.critical && is_touched[t] {
                critical[t].insert(iv);
            }
        }

        // comm rows: copy untouched (pad/truncate), recompute touched.
        let mut comm = vec![0u64; n * num_windows];
        let shared = old_windows.min(num_windows);
        for t in 0..n {
            let row = &mut comm[t * num_windows..(t + 1) * num_windows];
            if t < old_n && !is_touched[t] {
                let old_row = &self.comm[t * old_windows..(t + 1) * old_windows];
                row[..shared].copy_from_slice(&old_row[..shared]);
                debug_assert!(
                    old_row[shared..].iter().all(|&c| c == 0),
                    "untouched demand beyond the new horizon"
                );
            } else {
                for (m, slot) in row.iter_mut().enumerate() {
                    *slot = busy[t].len_within(bounds[m], bounds[m + 1]);
                }
            }
        }

        // wo + aggregate overlap: copy untouched pairs, recompute pairs
        // with a touched endpoint via interval-set intersection — the
        // same cycles the sweep-line pass counts, grouped per window.
        let npairs = n * n.saturating_sub(1) / 2;
        let mut wo = vec![0u64; npairs * num_windows];
        let mut overlap = OverlapMatrix::zeros(n);
        for i in 0..n {
            for j in (i + 1)..n {
                let pair = i * n - i * (i + 1) / 2 + (j - i - 1);
                let row = &mut wo[pair * num_windows..(pair + 1) * num_windows];
                if j < old_n && !is_touched[i] && !is_touched[j] {
                    let old_pair = i * old_n - i * (i + 1) / 2 + (j - i - 1);
                    let old_row = &self.wo[old_pair * old_windows..(old_pair + 1) * old_windows];
                    row[..shared].copy_from_slice(&old_row[..shared]);
                    debug_assert!(
                        old_row[shared..].iter().all(|&c| c == 0),
                        "untouched overlap beyond the new horizon"
                    );
                    overlap.set(i, j, self.overlap.get(i, j));
                } else {
                    let isect = busy[i].intersection(&busy[j]);
                    if isect.is_empty() {
                        continue;
                    }
                    for (m, slot) in row.iter_mut().enumerate() {
                        *slot = isect.len_within(bounds[m], bounds[m + 1]);
                    }
                    overlap.set(i, j, isect.total_len());
                }
            }
        }

        // Critical busy sets: clone untouched, keep recomputed touched.
        let critical_busy: Vec<IntervalSet> = (0..n)
            .map(|t| {
                if t < old_n && !is_touched[t] {
                    self.critical_busy[t].clone()
                } else {
                    std::mem::take(&mut critical[t])
                }
            })
            .collect();

        WindowStats {
            window_size: ws,
            bounds,
            num_windows,
            num_targets: n,
            comm,
            wo,
            overlap,
            critical_busy,
            horizon,
        }
    }

    /// The whole-trace analysis: one window spanning the trace, as
    /// prior average-flow designs see it. Derived from this analysis
    /// without a second sweep: each target's demand is its row sum, each
    /// pair's one-window overlap is the aggregate overlap, and the
    /// critical busy sets and horizon carry over. Equal to
    /// `WindowStats::analyze(trace, trace.horizon().max(1))` on the trace
    /// this analysis was built from, under any window plan (every plan
    /// starts at cycle 0, so its windows hold all of the traffic).
    #[must_use]
    pub fn whole_trace(&self) -> WindowStats {
        let n = self.num_targets;
        let window = self.horizon.max(1);
        let mut wo = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                wo.push(self.overlap.get(i, j));
            }
        }
        WindowStats {
            window_size: window,
            bounds: vec![0, window],
            num_windows: 1,
            num_targets: n,
            comm: (0..n).map(|t| self.total_comm(t)).collect(),
            wo,
            overlap: self.overlap.clone(),
            critical_busy: self.critical_busy.clone(),
            horizon: self.horizon,
        }
    }

    /// The analysis window size `WS` in cycles. For variable-size plans
    /// this is the *largest* window; use [`WindowStats::window_len`] for
    /// per-window sizes.
    #[must_use]
    pub fn window_size(&self) -> u64 {
        self.window_size
    }

    /// The length of window `m` in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    #[must_use]
    pub fn window_len(&self, m: usize) -> u64 {
        self.bounds[m + 1] - self.bounds[m]
    }

    /// The window boundaries (window `m` covers `[bounds[m], bounds[m+1])`).
    #[must_use]
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// `true` when every window has the same length.
    #[must_use]
    pub fn is_uniform(&self) -> bool {
        (0..self.num_windows).all(|m| self.window_len(m) == self.window_size)
    }

    /// Number of analysis windows `|W|`.
    #[must_use]
    pub fn num_windows(&self) -> usize {
        self.num_windows
    }

    /// Number of targets `|T|`.
    #[must_use]
    pub fn num_targets(&self) -> usize {
        self.num_targets
    }

    /// The trace horizon in cycles.
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Busy cycles `comm(target, window)` — Definition 2.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn comm(&self, target: usize, window: usize) -> u64 {
        assert!(target < self.num_targets && window < self.num_windows);
        self.comm[target * self.num_windows + window]
    }

    /// The per-target demand vector over windows (borrowed slice).
    #[must_use]
    pub fn demand_row(&self, target: usize) -> &[u64] {
        &self.comm[target * self.num_windows..(target + 1) * self.num_windows]
    }

    /// Pairwise overlap `wo(i, j, window)` in cycles — Definition 2.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    #[must_use]
    pub fn window_overlap(&self, i: usize, j: usize, window: usize) -> u64 {
        assert!(i < self.num_targets && j < self.num_targets && window < self.num_windows);
        if i == j {
            return 0;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        let pair = a * self.num_targets - a * (a + 1) / 2 + (b - a - 1);
        self.wo[pair * self.num_windows + window]
    }

    /// Maximum over windows of `wo(i, j, m)` — what the pre-processing
    /// threshold check uses ("overlap exceeding the threshold in *any*
    /// window").
    #[must_use]
    pub fn max_window_overlap(&self, i: usize, j: usize) -> u64 {
        (0..self.num_windows)
            .map(|m| self.window_overlap(i, j, m))
            .max()
            .unwrap_or(0)
    }

    /// The aggregate overlap matrix `om` (Eq. 1).
    #[must_use]
    pub fn overlap_matrix(&self) -> &OverlapMatrix {
        &self.overlap
    }

    /// Whether critical streams to targets `i` and `j` overlap in time in
    /// any window (used for real-time conflict generation).
    #[must_use]
    pub fn critical_streams_overlap(&self, i: usize, j: usize) -> bool {
        if i == j {
            return false;
        }
        self.critical_busy[i].intersection_len(&self.critical_busy[j]) > 0
    }

    /// Total busy cycles of one target across the horizon.
    #[must_use]
    pub fn total_comm(&self, target: usize) -> u64 {
        self.demand_row(target).iter().sum()
    }

    /// The most demanding window: `max_m Σ_i comm(i,m)`, a lower bound
    /// driver for the number of buses (`ceil(peak / WS)` buses needed).
    #[must_use]
    pub fn peak_window_demand(&self) -> u64 {
        (0..self.num_windows)
            .map(|m| (0..self.num_targets).map(|t| self.comm(t, m)).sum())
            .max()
            .unwrap_or(0)
    }

    /// Per-window total demand across all targets.
    #[must_use]
    pub fn window_demand(&self, window: usize) -> u64 {
        (0..self.num_targets).map(|t| self.comm(t, window)).sum()
    }

    /// Targets sorted by decreasing total communication (used for
    /// deterministic orderings in the synthesis heuristics).
    #[must_use]
    pub fn targets_by_demand(&self) -> Vec<TargetId> {
        let mut ids: Vec<usize> = (0..self.num_targets).collect();
        ids.sort_by_key(|&t| std::cmp::Reverse(self.total_comm(t)));
        ids.into_iter().map(TargetId::new).collect()
    }
}

/// Marks an idle target in [`Sweep::slot`].
const IDLE: usize = usize::MAX;

/// The merge sweep behind [`WindowStats::analyze_with_bounds`]: one pass
/// over every target's busy intervals in time order, with the window
/// index walking forward.
///
/// An *activation* is one busy interval of one target, its start clipped
/// to the current window's first cycle. When target `i`'s activation ends
/// at `e`, each still-active `j` has overlapped it for
/// `e − max(s_i, s_j)` cycles of the window, so every pair is charged
/// once, by whichever activation ends first, and `comm(i, m)` gains
/// `e − s_i`. At a window boundary every activation is closed the same
/// way and reopened at the boundary. A window's pair overlaps gather in a
/// dense scratch row that moves into `wo` and `om` when the window ends.
struct Sweep<'a> {
    bounds: &'a [u64],
    n: usize,
    num_windows: usize,
    /// The current window.
    m: usize,
    /// The active targets in no order; `slot[t]` is `t`'s position in
    /// it, or [`IDLE`].
    active: Vec<usize>,
    slot: Vec<usize>,
    /// Each active target's activation start, clipped to window `m`.
    since: Vec<u64>,
    /// Each pair's overlap within window `m`, and the pairs it charged.
    row: Vec<u64>,
    charged: Vec<usize>,
    comm: Vec<u64>,
    wo: Vec<u64>,
    om: Vec<u64>,
}

impl<'a> Sweep<'a> {
    /// Sweeps the disjoint, sorted busy sets `busy` over the window plan
    /// `bounds` (which starts at 0 and covers every busy cycle).
    fn run(busy: &[IntervalSet], bounds: &'a [u64]) -> Self {
        let n = busy.len();
        let num_windows = bounds.len() - 1;
        let npairs = n * n.saturating_sub(1) / 2;
        let mut sweep = Sweep {
            bounds,
            n,
            num_windows,
            m: 0,
            active: Vec::with_capacity(n),
            slot: vec![IDLE; n],
            since: vec![0; n],
            row: vec![0; npairs],
            charged: Vec::new(),
            comm: vec![0; n * num_windows],
            wo: vec![0; npairs * num_windows],
            om: vec![0; npairs],
        };
        // A k-way merge of the busy lists: one entry per target with
        // intervals left, keyed by its next start while idle and by its
        // current end while active.
        let mut next = vec![0usize; n];
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = busy
            .iter()
            .enumerate()
            .filter_map(|(t, set)| set.intervals().first().map(|iv| Reverse((iv.start, t))))
            .collect();
        while let Some(mut top) = heap.peek_mut() {
            let Reverse((time, t)) = *top;
            let intervals = busy[t].intervals();
            if sweep.slot[t] == IDLE {
                sweep.start(t, time);
                *top = Reverse((intervals[next[t]].end, t));
            } else {
                sweep.end(t, time);
                next[t] += 1;
                match intervals.get(next[t]) {
                    Some(iv) => *top = Reverse((iv.start, t)),
                    None => {
                        PeekMut::pop(top);
                    }
                }
            }
        }
        sweep.flush();
        sweep
    }

    fn start(&mut self, t: usize, time: u64) {
        while self.bounds[self.m + 1] <= time {
            self.next_window();
        }
        self.slot[t] = self.active.len();
        self.active.push(t);
        self.since[t] = time;
    }

    fn end(&mut self, t: usize, time: u64) {
        while self.bounds[self.m + 1] < time {
            self.next_window();
        }
        let k = self.slot[t];
        self.active.swap_remove(k);
        if let Some(&moved) = self.active.get(k) {
            self.slot[moved] = k;
        }
        self.slot[t] = IDLE;
        self.close(t, time, 0);
    }

    /// Closes `t`'s activation at `at` in the current window: charges its
    /// busy cycles and its overlap with the active targets from position
    /// `from` on.
    fn close(&mut self, t: usize, at: u64, from: usize) {
        let s = self.since[t];
        self.comm[t * self.num_windows + self.m] += at - s;
        for k in from..self.active.len() {
            let j = self.active[k];
            let cycles = at - s.max(self.since[j]);
            if cycles > 0 {
                let (a, b) = if t < j { (t, j) } else { (j, t) };
                let pair = a * self.n - a * (a + 1) / 2 + (b - a - 1);
                if self.row[pair] == 0 {
                    self.charged.push(pair);
                }
                self.row[pair] += cycles;
            }
        }
    }

    /// Closes every activation at the current window's end, moves the
    /// window's overlaps out of the scratch row and reopens the
    /// activations in the next window.
    fn next_window(&mut self) {
        let boundary = self.bounds[self.m + 1];
        for k in 0..self.active.len() {
            self.close(self.active[k], boundary, k + 1);
        }
        self.flush();
        for &t in &self.active {
            self.since[t] = boundary;
        }
        self.m += 1;
    }

    /// Moves the current window's pair overlaps into `wo` and `om`.
    fn flush(&mut self) {
        for &pair in &self.charged {
            let cycles = std::mem::take(&mut self.row[pair]);
            self.wo[pair * self.num_windows + self.m] = cycles;
            self.om[pair] += cycles;
        }
        self.charged.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{InitiatorId, TargetId};
    use crate::trace::TraceEvent;
    use proptest::prelude::*;

    fn ev(i: usize, t: usize, start: u64, dur: u32) -> TraceEvent {
        TraceEvent::new(InitiatorId::new(i), TargetId::new(t), start, dur)
    }

    fn simple_trace() -> Trace {
        let mut tr = Trace::new(2, 3);
        tr.push(ev(0, 0, 0, 100)); // T0 busy [0,100)
        tr.push(ev(1, 1, 50, 100)); // T1 busy [50,150)
        tr.push(ev(0, 2, 140, 20)); // T2 busy [140,160)
        tr
    }

    #[test]
    fn whole_trace_of_an_empty_trace() {
        let empty = Trace::new(1, 2);
        assert_eq!(
            WindowStats::analyze(&empty, 50).whole_trace(),
            WindowStats::analyze(&empty, 1)
        );
    }

    #[test]
    fn window_count_and_size() {
        let stats = WindowStats::analyze(&simple_trace(), 50);
        assert_eq!(stats.window_size(), 50);
        assert_eq!(stats.num_windows(), 4); // horizon 160 -> ceil(160/50)=4
        assert_eq!(stats.num_targets(), 3);
        assert_eq!(stats.horizon(), 160);
    }

    #[test]
    fn comm_splits_across_windows() {
        let stats = WindowStats::analyze(&simple_trace(), 50);
        assert_eq!(stats.comm(0, 0), 50);
        assert_eq!(stats.comm(0, 1), 50);
        assert_eq!(stats.comm(0, 2), 0);
        assert_eq!(stats.comm(1, 1), 50);
        assert_eq!(stats.comm(1, 2), 50);
        assert_eq!(stats.comm(2, 2), 10);
        assert_eq!(stats.comm(2, 3), 10);
    }

    #[test]
    fn comm_never_exceeds_window_size() {
        // Two initiators hammer the same target concurrently; union caps it.
        let mut tr = Trace::new(2, 1);
        tr.push(ev(0, 0, 0, 50));
        tr.push(ev(1, 0, 0, 50));
        let stats = WindowStats::analyze(&tr, 50);
        assert_eq!(stats.comm(0, 0), 50);
    }

    #[test]
    fn pairwise_overlap_matches_hand_computation() {
        let stats = WindowStats::analyze(&simple_trace(), 50);
        // T0 [0,100) vs T1 [50,150): overlap [50,100) -> window 1 entirely.
        assert_eq!(stats.window_overlap(0, 1, 0), 0);
        assert_eq!(stats.window_overlap(0, 1, 1), 50);
        assert_eq!(stats.window_overlap(1, 0, 1), 50); // symmetric
                                                       // T1 vs T2: [140,150) -> window 2.
        assert_eq!(stats.window_overlap(1, 2, 2), 10);
        assert_eq!(stats.overlap_matrix().get(0, 1), 50);
        assert_eq!(stats.overlap_matrix().get(1, 2), 10);
        assert_eq!(stats.overlap_matrix().get(0, 2), 0);
    }

    #[test]
    fn max_window_overlap_picks_peak() {
        let stats = WindowStats::analyze(&simple_trace(), 50);
        assert_eq!(stats.max_window_overlap(0, 1), 50);
        assert_eq!(stats.max_window_overlap(0, 2), 0);
    }

    #[test]
    fn diagonal_overlap_is_zero() {
        let stats = WindowStats::analyze(&simple_trace(), 50);
        assert_eq!(stats.window_overlap(1, 1, 0), 0);
        assert_eq!(stats.overlap_matrix().get(2, 2), 0);
    }

    #[test]
    fn critical_overlap_detection() {
        let mut tr = Trace::new(2, 2);
        tr.push(TraceEvent::critical(
            InitiatorId::new(0),
            TargetId::new(0),
            0,
            50,
        ));
        tr.push(TraceEvent::critical(
            InitiatorId::new(1),
            TargetId::new(1),
            25,
            50,
        ));
        let stats = WindowStats::analyze(&tr, 100);
        assert!(stats.critical_streams_overlap(0, 1));
        assert!(!stats.critical_streams_overlap(0, 0));
    }

    #[test]
    fn non_critical_overlap_not_flagged_critical() {
        let mut tr = Trace::new(2, 2);
        tr.push(ev(0, 0, 0, 50));
        tr.push(ev(1, 1, 0, 50));
        let stats = WindowStats::analyze(&tr, 100);
        assert!(!stats.critical_streams_overlap(0, 1));
    }

    #[test]
    fn peak_window_demand() {
        let stats = WindowStats::analyze(&simple_trace(), 50);
        // Window 1 has T0: 50 + T1: 50 = 100.
        assert_eq!(stats.peak_window_demand(), 100);
        assert_eq!(stats.window_demand(1), 100);
    }

    #[test]
    fn targets_by_demand_ordering() {
        let stats = WindowStats::analyze(&simple_trace(), 50);
        let order = stats.targets_by_demand();
        // T0 and T1 each 100 busy cycles, T2 only 20.
        assert_eq!(order[2], TargetId::new(2));
    }

    #[test]
    fn single_giant_window_equals_totals() {
        let tr = simple_trace();
        let stats = WindowStats::analyze(&tr, 1_000_000);
        assert_eq!(stats.num_windows(), 1);
        assert_eq!(stats.comm(0, 0), 100);
        assert_eq!(stats.comm(1, 0), 100);
        assert_eq!(stats.overlap_matrix().get(0, 1), 50);
    }

    #[test]
    fn empty_trace_yields_one_empty_window() {
        let tr = Trace::new(1, 2);
        let stats = WindowStats::analyze(&tr, 100);
        assert_eq!(stats.num_windows(), 1);
        assert_eq!(stats.comm(0, 0), 0);
        assert_eq!(stats.peak_window_demand(), 0);
    }

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn zero_window_panics() {
        let _ = WindowStats::analyze(&Trace::new(1, 1), 0);
    }

    #[test]
    fn overlap_matrix_group_math() {
        let mut om = OverlapMatrix::zeros(4);
        om.add(0, 1, 10);
        om.add(1, 2, 5);
        om.add(0, 3, 7);
        assert_eq!(om.group_overlap(&[0, 1, 2]), 15);
        assert_eq!(om.group_overlap(&[0, 3]), 7);
        assert_eq!(om.overlap_with_group(0, &[1, 2, 3]), 17);
        assert_eq!(om.group_overlap(&[2]), 0);
    }

    fn arb_trace() -> impl Strategy<Value = Trace> {
        prop::collection::vec((0usize..3, 0usize..4, 0u64..400, 1u32..60), 1..50).prop_map(
            |events| {
                let mut tr = Trace::new(3, 4);
                for (i, t, s, d) in events {
                    tr.push(ev(i, t, s, d));
                }
                tr.finish_sorting();
                tr
            },
        )
    }

    proptest! {
        /// Summing comm over windows gives each target's total busy cycles
        /// (union semantics), and each entry respects the window size.
        #[test]
        fn comm_is_window_bounded_partition(tr in arb_trace(), ws in 1u64..200) {
            let stats = WindowStats::analyze(&tr, ws);
            for t in 0..tr.num_targets() {
                let mut total = 0;
                for m in 0..stats.num_windows() {
                    let c = stats.comm(t, m);
                    prop_assert!(c <= ws);
                    total += c;
                }
                // Union of intervals, computed independently.
                let set = crate::interval::IntervalSet::from_intervals(
                    tr.events_for_target(TargetId::new(t))
                        .iter()
                        .map(|e| Interval::new(e.start, e.end())),
                );
                prop_assert_eq!(total, set.total_len());
            }
        }

        /// om(i,j) = Σ_m wo(i,j,m) — Eq. (1) — and wo is bounded by both
        /// targets' comm in that window.
        #[test]
        fn overlap_consistency(tr in arb_trace(), ws in 1u64..200) {
            let stats = WindowStats::analyze(&tr, ws);
            let n = stats.num_targets();
            for i in 0..n {
                for j in (i + 1)..n {
                    let mut sum = 0;
                    for m in 0..stats.num_windows() {
                        let wo = stats.window_overlap(i, j, m);
                        prop_assert!(wo <= stats.comm(i, m));
                        prop_assert!(wo <= stats.comm(j, m));
                        sum += wo;
                    }
                    prop_assert_eq!(sum, stats.overlap_matrix().get(i, j));
                }
            }
        }

        /// Window analysis is invariant to event ordering in the trace.
        #[test]
        fn order_invariance(tr in arb_trace(), ws in 1u64..200) {
            let stats_a = WindowStats::analyze(&tr, ws);
            let mut rev = Trace::new(tr.num_initiators(), tr.num_targets());
            for e in tr.events().iter().rev() {
                rev.push(*e);
            }
            let stats_b = WindowStats::analyze(&rev, ws);
            prop_assert_eq!(stats_a, stats_b);
        }
    }
}
