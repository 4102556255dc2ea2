//! Specialised exact solver for the crossbar binding problem.
//!
//! The paper's MILPs have a very particular structure: assign each target
//! to exactly one bus (Eq. 3) subject to per-window bus capacity (Eq. 4),
//! pairwise conflicts (Eq. 7) and a per-bus cardinality cap (Eq. 8); then
//! minimise the maximum summed pairwise overlap on any bus (Eq. 11).
//! That is bin packing with conflicts plus a min-max quadratic-ish
//! objective — ideal territory for a backtracking search with:
//!
//! * **per-window bandwidth propagation** — a candidate bus is rejected the
//!   moment any window would overflow `WS`, with incremental per-bus
//!   min/total slack giving O(1) accept and reject fast paths around the
//!   window scan;
//! * **word-parallel conflict forward-checking** — each bus keeps an
//!   incremental member bitset ([`stbus_traffic::TargetSet`]), so buses
//!   containing a conflicting target are ruled out with one `AND` pass of
//!   the candidate's [`stbus_traffic::ConflictGraph`] row instead of a
//!   member-list rescan;
//! * **bus symmetry breaking** — empty buses are interchangeable, so only
//!   the first one is branched on;
//! * **decreasing-demand target ordering** — the classic first-fail
//!   heuristic for packing problems;
//! * **incumbent pruning** in optimisation mode — a partial assignment
//!   whose max per-bus overlap already reaches the incumbent is cut.
//!
//! The search is exact: it proves infeasibility or optimality (subject to
//! the configurable node limit, which is reported honestly as an error
//! rather than silently returning a wrong answer).

use crate::bounds::{self, CombinedBound, LowerBound, NodeState, PruningLevel};
use serde::{Deserialize, Serialize};
use stbus_exec::CancelToken;
use stbus_traffic::{ConflictGraph, TargetSet};
use std::error::Error;
use std::fmt;

/// A previous solution offered as a starting point for an incremental
/// re-solve (see [`SolveLimits::warm_start`]).
///
/// The binding is the *previous* problem's answer; the new problem may
/// have a patched conflict graph, different demands, or even more targets
/// (a delta that appended some). [`BindingProblem::verify`] decides
/// whether it still holds — the solver never trusts the stale
/// [`WarmStart::objective`], it recomputes the objective against the
/// problem at hand.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarmStart {
    /// The previous search's binding, index-compatible with the new
    /// problem whenever the delta only silenced/edited targets (appended
    /// targets make the arity differ, demoting the warm start to a
    /// value-ordering hint).
    pub binding: Binding,
    /// The objective the binding achieved on the *previous* problem.
    /// Informational: the solver recomputes the objective via
    /// [`BindingProblem::verify`] before using the binding as an
    /// incumbent, because the patched overlap matrix may value the same
    /// assignment differently.
    pub objective: u64,
}

impl WarmStart {
    /// Wraps a previous binding, recording its objective.
    #[must_use]
    pub fn new(binding: Binding) -> Self {
        let objective = binding.max_bus_overlap();
        Self { binding, objective }
    }
}

/// Search effort limits and pruning policy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolveLimits {
    /// Maximum number of (target, bus) branch attempts. Candidates vetoed
    /// outright by the conflict mask or the `maxtb` cap are filtered
    /// before they reach the budget, so a given budget buys strictly more
    /// search than it did under the retired dense-matrix reference's
    /// accounting (which charged every candidate). Subtrees cut by
    /// the per-node lower bounds (see [`SolveLimits::pruning`]) never
    /// reach the budget either.
    pub max_nodes: u64,
    /// Per-node lower-bound pruning level. [`PruningLevel::Standard`]
    /// (the default) is bit-identical to [`PruningLevel::Off`] whenever
    /// the unpruned search completes within `max_nodes`; under a starved
    /// budget the pruned search can only answer *more* often, never
    /// differently. Every caller runs `Standard`; `Off` is the unpruned
    /// reference the admissibility battery and the `sizes` bench compare
    /// against.
    pub pruning: PruningLevel,
    /// Optional previous solution for incremental re-solves. Two effects,
    /// both gated on [`BindingProblem::verify`] against the *current*
    /// problem:
    ///
    /// * **Instant incumbent.** When the previous binding still verifies,
    ///   [`BindingProblem::find_feasible`] returns it without search
    ///   (zero nodes) and [`BindingProblem::optimize`] skips the
    ///   incumbent-seeding pass, seeding the improving search with the
    ///   recomputed objective instead.
    /// * **Value ordering.** When it does not verify (or only partially
    ///   applies because the delta appended targets), each target's
    ///   previous bus is tried first — a stable reorder of the same
    ///   candidate set.
    ///
    /// Feasibility verdicts, probe logs and bus counts are unchanged
    /// whenever the searches complete within `max_nodes` (the candidate
    /// *set* at every node is identical and the search stays exhaustive),
    /// but the *returned binding* may differ from the cold search's,
    /// because a different feasible leaf may be reached first. Under a
    /// starved budget a verified warm start can also answer where the
    /// cold search would exhaust its budget — answering strictly more
    /// often, the same one-sided deviation [`PruningLevel::Standard`]
    /// documents.
    pub warm_start: Option<WarmStart>,
}

impl SolveLimits {
    /// Limits with an explicit node budget and the default
    /// ([`PruningLevel::Standard`]) pruning level.
    #[must_use]
    pub const fn nodes(max_nodes: u64) -> Self {
        Self {
            max_nodes,
            pruning: PruningLevel::Standard,
            warm_start: None,
        }
    }

    /// Overrides the pruning level (builder style).
    #[must_use]
    pub const fn with_pruning(mut self, pruning: PruningLevel) -> Self {
        self.pruning = pruning;
        self
    }

    /// Installs a previous solution as a warm start (builder style). See
    /// [`SolveLimits::warm_start`] for the exact semantics and the
    /// bit-identity contract.
    #[must_use]
    pub fn with_warm_start(mut self, warm: WarmStart) -> Self {
        self.warm_start = Some(warm);
        self
    }

    /// The warm-start assignment as a value-ordering hint, if any.
    fn warm_assignment(&self) -> Option<&[usize]> {
        self.warm_start.as_ref().map(|w| w.binding.assignment())
    }
}

impl Default for SolveLimits {
    fn default() -> Self {
        Self::nodes(20_000_000)
    }
}

/// Error returned when the node budget is exhausted before the search
/// completed. The partial answer is withheld: an incomplete search cannot
/// prove feasibility *or* infeasibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLimitExceeded {
    /// The limit that was hit.
    pub limit: u64,
}

impl fmt::Display for NodeLimitExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "binding search exceeded the {}-node limit", self.limit)
    }
}

impl Error for NodeLimitExceeded {}

/// Why a cancellable search stopped before reaching a definitive answer.
///
/// Callers solve bindings whose answers may become irrelevant while they
/// are being computed (a gateway client hangs up, or the other phase-3
/// direction fails); the [`CancelToken`] threads through
/// [`BindingProblem::find_feasible_stats_cancellable`], and raising it makes
/// the search bail at the next node-count checkpoint instead of
/// finishing a proof nobody will read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchInterrupted {
    /// The node budget ran out before the search completed.
    Budget(NodeLimitExceeded),
    /// The caller's [`CancelToken`] was raised; the partial answer is
    /// withheld (an interrupted search proves nothing), but unlike a
    /// budget error the caller asked for the interruption.
    Cancelled,
}

impl From<NodeLimitExceeded> for SearchInterrupted {
    fn from(e: NodeLimitExceeded) -> Self {
        SearchInterrupted::Budget(e)
    }
}

impl fmt::Display for SearchInterrupted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchInterrupted::Budget(e) => e.fmt(f),
            SearchInterrupted::Cancelled => write!(f, "binding search cancelled by the caller"),
        }
    }
}

impl Error for SearchInterrupted {}

/// Runs a cancellable search under a fresh root token nobody can raise,
/// so the only interruption left is the node budget — the plain
/// [`BindingProblem::find_feasible`]/[`BindingProblem::optimize`]
/// conveniences.
fn uncancelled<T>(
    search: impl FnOnce(&CancelToken) -> Result<T, SearchInterrupted>,
) -> Result<T, NodeLimitExceeded> {
    search(&CancelToken::new()).map_err(|e| match e {
        SearchInterrupted::Budget(b) => b,
        SearchInterrupted::Cancelled => unreachable!("a root token is never raised"),
    })
}

/// How many branch attempts pass between two polls of the cancellation
/// token: rare enough to stay off the profile, frequent enough that a
/// cancelled search returns within microseconds.
const CANCEL_POLL_MASK: u64 = 0xFFF;

/// Counters describing how a feasibility search earned its answer.
///
/// A deterministic function of `(problem, limits)` — identical across
/// runs and worker counts — so it is safe to record in outcomes, diff in
/// tests, and snapshot in benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Branch attempts charged against [`SolveLimits::max_nodes`].
    pub nodes: u64,
}

impl SearchStats {
    /// Accumulates another search's counters into this one (used by
    /// callers that sum stats over a sequence of probes).
    pub fn absorb(&mut self, other: SearchStats) {
        self.nodes += other.nodes;
    }
}

/// A complete target→bus assignment together with its objective value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Binding {
    assignment: Vec<usize>,
    max_bus_overlap: u64,
}

/// Flat arena of the DFS's incrementally maintained search state: every
/// per-bus quantity lives in one contiguous allocation with a fixed
/// stride (`[bus × window]` usage, `[bus × word]` member masks), so a
/// node's push/undo touches a handful of cache lines and the whole
/// search performs **zero** heap allocation after setup — the former
/// per-bus `Vec<Vec<…>>` soup (`used`, `members`, `masks`) and the
/// per-depth candidate clones are gone. Member lists are not stored at
/// all: emptiness and `maxtb` read `lens`, conflict feasibility is one
/// word-parallel AND against the flat mask stride, and the rare
/// member-set walks (leaf objective, overlap sums) iterate the mask bits
/// (same pair set, commutative `u64` sums — bit-identical results).
struct SearchArena {
    buses: usize,
    windows: usize,
    /// Mask words per bus.
    words: usize,
    /// Per-bus per-window consumed capacity, `[k * windows + m]`.
    used: Vec<u64>,
    /// Per-bus member bitsets, `[k * words + w]`.
    masks: Vec<u64>,
    /// Per-bus summed pairwise overlap (maintained only when optimizing).
    bus_overlap: Vec<u64>,
    /// Exact per-bus minimum window slack `min_m (cap(m) − used(k,m))`.
    min_slack: Vec<u64>,
    /// Exact per-bus total slack `Σ_m (cap(m) − used(k,m))`.
    total_slack: Vec<u64>,
    /// Per-bus member counts.
    lens: Vec<usize>,
    /// Targets not yet bound.
    unbound: TargetSet,
    /// Remaining (unbound) demand per window.
    rem_window: Vec<u64>,
    /// Incremental usability matrix `[t * buses + k]`, valid for unbound
    /// `t`: the batched bound input. A placement on bus `k` changes only
    /// bus `k`'s state, so only column `k` is recomputed per push (and
    /// restored from the depth frame on undo) — the per-node
    /// [`CombinedBound`] passes read the matrix instead of re-deriving
    /// usability from scratch for every (target, bus) pair. Empty when
    /// pruning is off.
    usable: Vec<bool>,
}

impl SearchArena {
    /// The member-mask words of bus `k`.
    #[inline]
    fn mask(&self, k: usize) -> &[u64] {
        &self.masks[k * self.words..(k + 1) * self.words]
    }

    /// Recomputes usability column `k` for the unbound targets via
    /// exactly the bounds' own [`bounds::usable_in`] predicate — matrix
    /// reads and direct evaluation are the same function of the same
    /// state, which is what keeps pruned searches bit-identical (the
    /// audited mode asserts it at every node).
    fn refresh_column(
        &mut self,
        problem: &BindingProblem,
        target_total: &[u64],
        peak: &[u64],
        sparse: &[Vec<(usize, u64)>],
        k: usize,
    ) {
        let Self {
            unbound,
            usable,
            masks,
            lens,
            used,
            total_slack,
            min_slack,
            buses,
            words,
            ..
        } = self;
        for t in unbound.iter() {
            usable[t * *buses + k] = bounds::usable_in(
                problem,
                target_total,
                peak,
                sparse,
                masks,
                *words,
                lens,
                used,
                total_slack,
                min_slack,
                t,
                k,
            );
        }
    }
}

/// Summed pairwise overlap of the targets in a flat mask — the leaf
/// objective recomputation of the feasibility search. Iterates the same
/// pair set `{(i, j) : i < j both members}` the former member lists
/// yielded; `u64` addition is commutative, so the sum is bit-identical.
fn mask_pair_overlap(problem: &BindingProblem, words: &[u64]) -> u64 {
    let mut ov = 0u64;
    for (wi, &wa) in words.iter().enumerate() {
        let mut a = wa;
        while a != 0 {
            let i = wi * 64 + a.trailing_zeros() as usize;
            a &= a - 1;
            // Partners above `i` in the same word…
            let mut b = a;
            while b != 0 {
                let j = wi * 64 + b.trailing_zeros() as usize;
                b &= b - 1;
                ov += problem.overlap(i, j);
            }
            // …and in the higher words.
            for (wj, &wb) in words.iter().enumerate().skip(wi + 1) {
                let mut b = wb;
                while b != 0 {
                    let j = wj * 64 + b.trailing_zeros() as usize;
                    b &= b - 1;
                    ov += problem.overlap(i, j);
                }
            }
        }
    }
    ov
}

/// Overlap a candidate target `t` would add to the bus whose member mask
/// is `words` — the optimizing search's value-ordering key. Same member
/// set, commutative sum: bit-identical to the former member-list walk.
fn mask_added_overlap(problem: &BindingProblem, words: &[u64], t: usize) -> u64 {
    let mut ov = 0u64;
    for (wi, &w) in words.iter().enumerate() {
        let mut w = w;
        while w != 0 {
            let u = wi * 64 + w.trailing_zeros() as usize;
            w &= w - 1;
            ov += problem.overlap(t, u);
        }
    }
    ov
}

impl Binding {
    /// Builds a binding from a raw assignment with the objective left at 0
    /// (use [`BindingProblem::verify`] to recompute it).
    #[must_use]
    pub fn from_assignment(assignment: Vec<usize>) -> Self {
        Self {
            assignment,
            max_bus_overlap: 0,
        }
    }

    /// Builds a binding from a raw assignment and a known objective value.
    #[must_use]
    pub fn from_assignment_with_overlap(assignment: Vec<usize>, max_bus_overlap: u64) -> Self {
        Self {
            assignment,
            max_bus_overlap,
        }
    }

    /// The bus index assigned to `target`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    #[must_use]
    pub fn bus_of(&self, target: usize) -> usize {
        self.assignment[target]
    }

    /// The raw assignment vector, indexed by target.
    #[must_use]
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// The maximum summed pairwise overlap on any single bus — the
    /// `maxov` objective of the paper's MILP-2.
    #[must_use]
    pub fn max_bus_overlap(&self) -> u64 {
        self.max_bus_overlap
    }

    /// Groups targets per bus: `result[k]` lists the targets bound to bus
    /// `k` in increasing order.
    #[must_use]
    pub fn buses(&self, num_buses: usize) -> Vec<Vec<usize>> {
        let mut buses = vec![Vec::new(); num_buses];
        for (t, &k) in self.assignment.iter().enumerate() {
            buses[k].push(t);
        }
        buses
    }

    /// Number of buses actually used (non-empty).
    #[must_use]
    pub fn used_buses(&self) -> usize {
        let mut seen: Vec<usize> = self.assignment.clone();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }
}

/// The crossbar binding problem: Eq. (3)–(9) data plus the overlap matrix
/// that drives the MILP-2 objective.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BindingProblem {
    num_targets: usize,
    num_buses: usize,
    num_windows: usize,
    window_size: u64,
    /// Per-window bus capacity in cycles (Eq. 4 right-hand sides). For the
    /// paper's uniform windows every entry equals `window_size`; variable
    /// window plans (§8 future work) supply heterogeneous capacities.
    capacities: Vec<u64>,
    /// `demands[t][m]` = `comm(t, m)`.
    demands: Vec<Vec<u64>>,
    /// Word-parallel adjacency bitsets of the conflict relation (Eq. 2):
    /// group feasibility is `row(t) ∩ members(k) ≠ ∅`, one `AND` per word.
    conflicts: ConflictGraph,
    maxtb: usize,
    /// Full symmetric overlap matrix `om` (may be all zeros when only
    /// feasibility matters).
    overlap: Vec<u64>,
}

impl BindingProblem {
    /// Creates a problem from per-target per-window demands.
    ///
    /// # Panics
    ///
    /// Panics if `num_buses == 0`, `window_size == 0`, the demand rows have
    /// inconsistent lengths, or any single demand exceeds the window size
    /// (such an instance is trivially infeasible and indicates an analysis
    /// bug upstream).
    #[must_use]
    pub fn new(num_buses: usize, window_size: u64, demands: Vec<Vec<u64>>) -> Self {
        assert!(window_size > 0, "window size must be positive");
        let num_windows = demands.first().map_or(0, Vec::len);
        Self::with_capacities(num_buses, vec![window_size; num_windows], demands)
    }

    /// Creates a problem with **per-window capacities** (variable window
    /// plans): window `m`'s bandwidth constraint is
    /// `Σ_i comm(i,m)·x(i,k) ≤ capacities[m]`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`BindingProblem::new`], or if
    /// the capacity vector's length disagrees with the demand rows.
    #[must_use]
    pub fn with_capacities(num_buses: usize, capacities: Vec<u64>, demands: Vec<Vec<u64>>) -> Self {
        assert!(num_buses > 0, "at least one bus required");
        let num_targets = demands.len();
        let num_windows = demands.first().map_or(0, Vec::len);
        assert_eq!(
            capacities.len(),
            num_windows,
            "one capacity per window required"
        );
        assert!(
            capacities.iter().all(|&c| c > 0) || num_windows == 0,
            "window capacities must be positive"
        );
        for (t, row) in demands.iter().enumerate() {
            assert_eq!(
                row.len(),
                num_windows,
                "target {t} has inconsistent window count"
            );
            for (m, &d) in row.iter().enumerate() {
                assert!(
                    d <= capacities[m],
                    "target {t} demands {d} > capacity {} in window {m}",
                    capacities[m]
                );
            }
        }
        let window_size = capacities.iter().copied().max().unwrap_or(1);
        Self {
            num_targets,
            num_buses,
            num_windows,
            window_size,
            capacities,
            demands,
            conflicts: ConflictGraph::none(num_targets),
            maxtb: usize::MAX,
            overlap: vec![0; num_targets * num_targets],
        }
    }

    /// Adds a pairwise conflict (Eq. 2/7) and returns `self`.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or out of range.
    #[must_use]
    pub fn with_conflict(mut self, i: usize, j: usize) -> Self {
        self.add_conflict(i, j);
        self
    }

    /// Adds a pairwise conflict in place.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or out of range.
    pub fn add_conflict(&mut self, i: usize, j: usize) {
        assert!(i != j, "self-conflict");
        assert!(i < self.num_targets && j < self.num_targets);
        self.conflicts.forbid(i, j);
    }

    /// Installs a whole conflict graph at once (builder style) — the bulk
    /// path phase 2 uses so its bitset graph is shared rather than
    /// re-added pair by pair.
    ///
    /// # Panics
    ///
    /// Panics if the graph's target count differs from the problem's.
    #[must_use]
    pub fn with_conflict_graph(mut self, conflicts: ConflictGraph) -> Self {
        assert_eq!(
            conflicts.num_targets(),
            self.num_targets,
            "conflict graph arity mismatch"
        );
        self.conflicts = conflicts;
        self
    }

    /// Sets the per-bus target cap `maxtb` (Eq. 8) and returns `self`.
    #[must_use]
    pub fn with_maxtb(mut self, maxtb: usize) -> Self {
        assert!(maxtb > 0, "maxtb must allow at least one target per bus");
        self.maxtb = maxtb;
        self
    }

    /// Sets the aggregate overlap `om(i,j)` used by the optimisation
    /// objective, and returns `self`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices or `i == j`.
    #[must_use]
    pub fn with_overlap(mut self, i: usize, j: usize, value: u64) -> Self {
        assert!(i != j && i < self.num_targets && j < self.num_targets);
        self.overlap[i * self.num_targets + j] = value;
        self.overlap[j * self.num_targets + i] = value;
        self
    }

    /// Bulk-loads a symmetric overlap matrix via a callback.
    pub fn set_overlaps(&mut self, mut om: impl FnMut(usize, usize) -> u64) {
        for i in 0..self.num_targets {
            for j in (i + 1)..self.num_targets {
                let v = om(i, j);
                self.overlap[i * self.num_targets + j] = v;
                self.overlap[j * self.num_targets + i] = v;
            }
        }
    }

    /// Number of targets.
    #[must_use]
    pub fn num_targets(&self) -> usize {
        self.num_targets
    }

    /// Number of buses.
    #[must_use]
    pub fn num_buses(&self) -> usize {
        self.num_buses
    }

    /// Number of analysis windows.
    #[must_use]
    pub fn num_windows(&self) -> usize {
        self.num_windows
    }

    /// The window size `WS` in cycles (maximum capacity for variable
    /// plans).
    #[must_use]
    pub fn window_size(&self) -> u64 {
        self.window_size
    }

    /// The bandwidth capacity of window `m` (Eq. 4 right-hand side).
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    #[must_use]
    pub fn capacity(&self, window: usize) -> u64 {
        self.capacities[window]
    }

    /// The demand `comm(target, window)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[must_use]
    pub fn demand(&self, target: usize, window: usize) -> u64 {
        self.demands[target][window]
    }

    /// The per-bus target cap `maxtb` (Eq. 8); `usize::MAX` when uncapped.
    #[must_use]
    pub fn maxtb(&self) -> usize {
        self.maxtb
    }

    /// Whether targets `i` and `j` conflict.
    #[must_use]
    pub fn conflicts(&self, i: usize, j: usize) -> bool {
        self.conflicts.conflicts(i, j)
    }

    /// The conflict relation as a word-parallel bitset graph.
    #[must_use]
    pub fn conflict_graph(&self) -> &ConflictGraph {
        &self.conflicts
    }

    /// Word-parallel group feasibility: whether `target` conflicts with
    /// any member of `bus` — one `AND` per 64 targets.
    #[must_use]
    pub fn conflicts_with_set(&self, target: usize, bus: &TargetSet) -> bool {
        self.conflicts.conflicts_with_set(target, bus)
    }

    /// Iterates all conflicting pairs `(i, j)` with `i < j`.
    pub fn conflict_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.conflicts.pairs()
    }

    /// The overlap coefficient `om(i,j)`.
    #[must_use]
    pub fn overlap(&self, i: usize, j: usize) -> u64 {
        self.overlap[i * self.num_targets + j]
    }

    /// Verifies that `binding` satisfies every constraint; returns the
    /// recomputed max per-bus overlap on success.
    #[must_use]
    pub fn verify(&self, binding: &Binding) -> Option<u64> {
        if binding.assignment.len() != self.num_targets {
            return None;
        }
        if binding.assignment.iter().any(|&k| k >= self.num_buses) {
            return None;
        }
        let buses = binding.buses(self.num_buses);
        let mut max_ov = 0u64;
        let mut mask = TargetSet::empty(self.num_targets);
        for members in &buses {
            if members.len() > self.maxtb {
                return None;
            }
            // Conflicts, word-parallel: a member clashing with any other
            // member intersects the bus mask (rows are irreflexive).
            mask.clear();
            for &t in members {
                mask.insert(t);
            }
            if members.iter().any(|&t| self.conflicts_with_set(t, &mask)) {
                return None;
            }
            // Window capacity.
            for m in 0..self.num_windows {
                let load: u64 = members.iter().map(|&t| self.demands[t][m]).sum();
                if load > self.capacities[m] {
                    return None;
                }
            }
            // Overlap objective.
            let mut ov = 0u64;
            for (a, &i) in members.iter().enumerate() {
                for &j in &members[a + 1..] {
                    ov += self.overlap(i, j);
                }
            }
            max_ov = max_ov.max(ov);
        }
        Some(max_ov)
    }

    /// The deterministic branching order of the exact search: decreasing
    /// maximum window demand, then conflict degree, then total demand —
    /// the classic first-fail ordering. Exposed so per-node lower bounds
    /// ([`crate::bounds`]) and their tests can reproduce the DFS state
    /// exactly.
    #[must_use]
    pub fn branching_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.num_targets).collect();
        let key = |t: usize| {
            let max_d = self.demands[t].iter().copied().max().unwrap_or(0);
            let total: u64 = self.demands[t].iter().sum();
            let degree = self.conflicts.degree(t);
            (max_d, degree as u64, total)
        };
        order.sort_by_key(|&t| std::cmp::Reverse(key(t)));
        order
    }

    /// Re-verifies a warm-started binding against *this* problem; on
    /// success returns it with the objective recomputed (the stale
    /// [`WarmStart::objective`] is never trusted). This is the instant
    /// path of incremental re-solving: after a delta that did not disturb
    /// the previous assignment's feasibility, the answer costs one
    /// [`BindingProblem::verify`] pass and zero search nodes.
    fn warm_verified(&self, limits: &SolveLimits) -> Option<Binding> {
        let warm = limits.warm_start.as_ref()?;
        let objective = self.verify(&warm.binding)?;
        Some(Binding::from_assignment_with_overlap(
            warm.binding.assignment.clone(),
            objective,
        ))
    }

    /// Finds any feasible binding (the paper's MILP-1, Eq. 10) — the
    /// root-token convenience over [`BindingProblem::find_feasible_stats_cancellable`].
    ///
    /// Returns `Ok(None)` when the instance is provably infeasible.
    ///
    /// # Errors
    ///
    /// [`NodeLimitExceeded`] when the search budget runs out before a
    /// definitive answer.
    pub fn find_feasible(
        &self,
        limits: &SolveLimits,
    ) -> Result<Option<Binding>, NodeLimitExceeded> {
        uncancelled(|cancel| self.find_feasible_stats_cancellable(limits, cancel)).map(|(b, _)| b)
    }

    /// The feasibility driver: finds any feasible binding and reports the
    /// search's [`SearchStats`], polling a cooperative [`CancelToken`].
    ///
    /// A verified [`SolveLimits::warm_start`] short-circuits the search
    /// with zeroed stats; an unverifiable one demotes to a value-ordering
    /// hint. Verdicts are unchanged either way (see
    /// [`SolveLimits::warm_start`] for the contract), but the returned
    /// binding may differ from the cold search's.
    ///
    /// [`SearchStats::nodes`] counts candidate placements charged against
    /// [`SolveLimits::max_nodes`] — a pure function of the search
    /// (identical across runs and worker counts), which makes it the
    /// denominator of the node-rate metric the `hotpath` bench snapshots.
    ///
    /// When the token (or any of its ancestors — the executor's scopes
    /// hand out child tokens) is cancelled, the search returns
    /// [`SearchInterrupted::Cancelled`] at its next checkpoint (within a
    /// few thousand nodes). The poll sits outside the node accounting, so
    /// an un-cancelled run takes the same branches under any token.
    ///
    /// # Errors
    ///
    /// [`SearchInterrupted::Budget`] when the node budget runs out,
    /// [`SearchInterrupted::Cancelled`] when the token was raised.
    pub fn find_feasible_stats_cancellable(
        &self,
        limits: &SolveLimits,
        cancel: &CancelToken,
    ) -> Result<(Option<Binding>, SearchStats), SearchInterrupted> {
        if let Some(warm) = self.warm_verified(limits) {
            return Ok((Some(warm), SearchStats::default()));
        }
        self.search_full(limits, None, cancel, false)
            .map(|(best, nodes)| (best, SearchStats { nodes }))
    }

    /// [`BindingProblem::find_feasible`] in **audited** mode: at every
    /// node of the DFS the incrementally maintained pruning state
    /// (unbound set, bus masks, slacks, remaining window demand) is
    /// compared against a from-scratch [`NodeState`] rebuilt from the
    /// partial assignment, and the incremental [`CombinedBound`] value
    /// against a fresh recomputation. Any divergence panics. This is the
    /// self-checking mode the `bound_admissibility` property suite runs;
    /// answers are identical to [`BindingProblem::find_feasible`], just
    /// slower.
    ///
    /// # Errors
    ///
    /// [`NodeLimitExceeded`] when the search budget runs out before a
    /// definitive answer.
    ///
    /// # Panics
    ///
    /// Panics when the incremental state or bound diverges from the
    /// from-scratch recomputation at any depth.
    pub fn find_feasible_audited(
        &self,
        limits: &SolveLimits,
    ) -> Result<Option<Binding>, NodeLimitExceeded> {
        if let Some(warm) = self.warm_verified(limits) {
            return Ok(Some(warm));
        }
        uncancelled(|cancel| self.search_full(limits, None, cancel, true)).map(|(best, _)| best)
    }

    /// Finds the binding minimising the maximum per-bus overlap (the
    /// paper's MILP-2, Eq. 11) — the root-token convenience over
    /// [`BindingProblem::optimize_cancellable`]. Returns `Ok(None)` when
    /// infeasible.
    ///
    /// # Errors
    ///
    /// [`NodeLimitExceeded`] when the search budget runs out before
    /// optimality is proven.
    pub fn optimize(&self, limits: &SolveLimits) -> Result<Option<Binding>, NodeLimitExceeded> {
        uncancelled(|cancel| self.optimize_cancellable(limits, cancel))
    }

    /// The MILP-2 driver, polling a cooperative [`CancelToken`]: MILP-1's
    /// feasibility search ([`BindingProblem::find_feasible_stats_cancellable`])
    /// seeds the incumbent, then [`BindingProblem::optimize_from_cancellable`]
    /// improves on it. Both searches poll the token at their checkpoints,
    /// so a raised token abandons MILP-2 within a few thousand nodes.
    ///
    /// A verified [`SolveLimits::warm_start`] replaces the
    /// incumbent-seeding feasibility pass: the improving search starts
    /// from the warm binding's *recomputed* objective. The optimal
    /// objective value is unchanged (the improving search below the
    /// incumbent stays exhaustive); the returned binding may differ.
    ///
    /// # Errors
    ///
    /// [`SearchInterrupted::Budget`] when the node budget runs out,
    /// [`SearchInterrupted::Cancelled`] when the token was raised.
    pub fn optimize_cancellable(
        &self,
        limits: &SolveLimits,
        cancel: &CancelToken,
    ) -> Result<Option<Binding>, SearchInterrupted> {
        match self.find_feasible_stats_cancellable(limits, cancel)?.0 {
            None => Ok(None),
            Some(feasible) => self
                .optimize_from_cancellable(feasible, limits, cancel)
                .map(Some),
        }
    }

    /// MILP-2 from a known feasible binding: searches, under its own
    /// `limits.max_nodes` budget, for bindings whose maximum per-bus
    /// overlap lies strictly below `feasible`'s and returns the best, or
    /// `feasible` itself when none exists. Handed the binding
    /// [`BindingProblem::find_feasible_stats_cancellable`] returned for the
    /// same `limits`, it answers exactly as
    /// [`BindingProblem::optimize_cancellable`], minus the repeated
    /// feasibility search: phase 3 passes its binary search's witness.
    ///
    /// `feasible` must verify against this problem with its recorded
    /// objective ([`BindingProblem::verify`]); the improving search trusts
    /// that objective as its incumbent.
    ///
    /// # Errors
    ///
    /// [`SearchInterrupted::Budget`] when the node budget runs out,
    /// [`SearchInterrupted::Cancelled`] when the token was raised.
    pub fn optimize_from_cancellable(
        &self,
        feasible: Binding,
        limits: &SolveLimits,
        cancel: &CancelToken,
    ) -> Result<Binding, SearchInterrupted> {
        debug_assert_eq!(
            self.verify(&feasible),
            Some(feasible.max_bus_overlap),
            "MILP-2 seeded with a binding that does not verify"
        );
        let (best, _nodes) =
            self.search_full(limits, Some(feasible.max_bus_overlap), cancel, false)?;
        Ok(best.unwrap_or(feasible))
    }

    /// Core DFS. When `incumbent_bound` is `Some(b)`, searches for a
    /// binding with max overlap strictly below `b` and keeps improving.
    /// With `audit` set, the incremental pruning state is checked against
    /// a from-scratch rebuild at every node (test-only mode).
    fn search_full(
        &self,
        limits: &SolveLimits,
        incumbent_bound: Option<u64>,
        cancel: &CancelToken,
        audit: bool,
    ) -> Result<(Option<Binding>, u64), SearchInterrupted> {
        if self.num_targets == 0 {
            return Ok((
                Some(Binding {
                    assignment: Vec::new(),
                    max_bus_overlap: 0,
                }),
                0,
            ));
        }

        // Target order: decreasing max-window demand, then conflict degree.
        let order = self.branching_order();

        // Sparse demand lists plus per-target peak/total demand (the
        // operands of the O(1) capacity fast paths below).
        let sparse: Vec<Vec<(usize, u64)>> = (0..self.num_targets)
            .map(|t| {
                self.demands[t]
                    .iter()
                    .enumerate()
                    .filter(|&(_, &d)| d > 0)
                    .map(|(m, &d)| (m, d))
                    .collect()
            })
            .collect();
        let peak: Vec<u64> = sparse
            .iter()
            .map(|s| s.iter().map(|&(_, d)| d).max().unwrap_or(0))
            .collect();
        let total: Vec<u64> = sparse
            .iter()
            .map(|s| s.iter().map(|&(_, d)| d).sum())
            .collect();

        let initial_min_slack = self.capacities.iter().copied().min().unwrap_or(u64::MAX);
        let initial_total_slack: u64 = self.capacities.iter().sum();
        let column_demand = bounds::column_demand(self);
        let critical = bounds::critical_windows(&column_demand);
        let mut all_targets = TargetSet::empty(self.num_targets);
        for t in 0..self.num_targets {
            all_targets.insert(t);
        }
        let mask_words = all_targets.words().len();
        let mut arena = SearchArena {
            buses: self.num_buses,
            windows: self.num_windows,
            words: mask_words,
            used: vec![0; self.num_buses * self.num_windows],
            masks: vec![0; self.num_buses * mask_words],
            bus_overlap: vec![0; self.num_buses],
            min_slack: vec![initial_min_slack; self.num_buses],
            total_slack: vec![initial_total_slack; self.num_buses],
            lens: vec![0; self.num_buses],
            unbound: all_targets,
            rem_window: column_demand,
            usable: Vec::new(),
        };
        let mut prune_bound = CombinedBound::default();

        let mut nodes = 0u64;
        let mut best: Option<Binding> = None;
        let mut bound = incumbent_bound;
        let optimizing = incumbent_bound.is_some();
        // The usability matrix is only consumed by the lower bounds, so
        // an unpruned search skips its maintenance entirely.
        let track_usable = limits.pruning != PruningLevel::Off;
        if track_usable {
            arena.usable = vec![false; self.num_targets * self.num_buses];
            for k in 0..self.num_buses {
                arena.refresh_column(self, &total, &peak, &sparse, k);
            }
        }
        // Contiguous per-depth frames, split off one level at a time on
        // the way down (`split_at_mut`): `cand_frames` holds each depth's
        // candidate list (`num_buses` slots), `col_frames` each depth's
        // saved usability column (`num_targets` slots). One upfront
        // allocation each — the DFS inner loop itself allocates nothing.
        let mut cand_frames: Vec<(u64, usize)> = vec![(0, 0); self.num_targets * self.num_buses];
        let mut col_frames: Vec<bool> = vec![false; self.num_targets * self.num_targets];

        /// Audit hook: rebuilds the pruning state from scratch for the
        /// current partial assignment and asserts that the incrementally
        /// maintained arena — including the usability matrix — and the
        /// lower bounds computed from it match the [`NodeState`]
        /// recomputation exactly.
        #[allow(clippy::too_many_arguments)] // audit mirrors the dfs state
        fn audit_node(
            problem: &BindingProblem,
            order: &[usize],
            critical: &[usize],
            total: &[u64],
            peak: &[u64],
            sparse: &[Vec<(usize, u64)>],
            st: &SearchArena,
            assignment: &[usize],
        ) {
            let depth = assignment.len();
            let pairs: Vec<(usize, usize)> = order
                .iter()
                .zip(assignment)
                .map(|(&t, &k)| (t, k))
                .collect();
            let scratch = NodeState::from_partial(problem, &pairs);
            let fresh = scratch.context(problem);
            assert_eq!(&st.unbound, fresh.unbound, "unbound set at depth {depth}");
            assert_eq!(st.masks.as_slice(), fresh.bus_masks, "masks at {depth}");
            assert_eq!(st.words, fresh.mask_words, "mask stride at {depth}");
            assert_eq!(st.lens.as_slice(), fresh.bus_len, "lens at {depth}");
            assert_eq!(st.used.as_slice(), fresh.used, "used at {depth}");
            assert_eq!(
                st.total_slack.as_slice(),
                fresh.total_slack,
                "total slack at depth {depth}"
            );
            assert_eq!(
                st.min_slack.as_slice(),
                fresh.min_slack,
                "min slack at depth {depth}"
            );
            assert_eq!(
                st.rem_window.as_slice(),
                fresh.rem_window,
                "remaining window demand at depth {depth}"
            );
            assert_eq!(order, fresh.order, "branching order");
            assert_eq!(critical, fresh.critical_windows, "critical windows");
            assert_eq!(total, fresh.target_total, "target totals");
            assert_eq!(peak, fresh.peak, "target peaks");
            assert_eq!(sparse, fresh.sparse, "sparse demand lists");
            // The incrementally maintained usability matrix must equal a
            // from-scratch evaluation of the same predicate on every
            // unbound row (bound rows are dead — the bounds never read
            // them).
            for t in st.unbound.iter() {
                for k in 0..problem.num_buses {
                    let direct = bounds::usable_in(
                        problem,
                        total,
                        peak,
                        sparse,
                        fresh.bus_masks,
                        fresh.mask_words,
                        fresh.bus_len,
                        fresh.used,
                        fresh.total_slack,
                        fresh.min_slack,
                        t,
                        k,
                    );
                    assert_eq!(
                        st.usable[t * st.buses + k],
                        direct,
                        "usability matrix diverged at depth {depth} (target {t}, bus {k})"
                    );
                }
            }
            let incremental = bounds::PruneContext {
                problem,
                order,
                critical_windows: critical,
                target_total: total,
                unbound: &st.unbound,
                bus_masks: &st.masks,
                mask_words: st.words,
                bus_len: &st.lens,
                used: &st.used,
                total_slack: &st.total_slack,
                min_slack: &st.min_slack,
                rem_window: &st.rem_window,
                peak,
                sparse,
                usable_matrix: Some(&st.usable),
            };
            for (inc, scr) in [
                (
                    CombinedBound::default().buses_needed(&incremental),
                    CombinedBound::default().buses_needed(&fresh),
                ),
                (
                    bounds::CliqueCoverBound::default().buses_needed(&incremental),
                    bounds::CliqueCoverBound::default().buses_needed(&fresh),
                ),
                (
                    bounds::BandwidthPackingBound::default().buses_needed(&incremental),
                    bounds::BandwidthPackingBound::default().buses_needed(&fresh),
                ),
            ] {
                assert_eq!(
                    inc, scr,
                    "incremental bound != from-scratch recomputation at depth {depth}"
                );
            }
        }

        // Iterative DFS with explicit stack of (depth, bus-to-try-next).
        // Simpler: recursive closure via a helper function.
        #[allow(clippy::too_many_arguments)] // explicit search state, one hop deep
        fn dfs(
            problem: &BindingProblem,
            order: &[usize],
            sparse: &[Vec<(usize, u64)>],
            peak: &[u64],
            total: &[u64],
            critical: &[usize],
            st: &mut SearchArena,
            prune_bound: &mut CombinedBound,
            cand_frames: &mut [(u64, usize)],
            col_frames: &mut [bool],
            nodes: &mut u64,
            limits: &SolveLimits,
            warm: Option<&[usize]>,
            cancel: &CancelToken,
            bound: &mut Option<u64>,
            optimizing: bool,
            audit: bool,
            best: &mut Option<Binding>,
            assignment: &mut Vec<usize>,
        ) -> Result<bool, SearchInterrupted> {
            let pruning = limits.pruning;
            let track_usable = pruning != PruningLevel::Off;
            let depth = assignment.len();
            if depth == order.len() {
                // In pure feasibility mode the per-bus overlap sums are not
                // maintained during the descent (they are dead weight on
                // every node); recompute the objective once at the leaf.
                let max_ov = if optimizing {
                    st.bus_overlap.iter().copied().max().unwrap_or(0)
                } else {
                    (0..st.buses)
                        .map(|k| mask_pair_overlap(problem, st.mask(k)))
                        .max()
                        .unwrap_or(0)
                };
                let binding = Binding {
                    assignment: {
                        let mut a = vec![0usize; order.len()];
                        for (d, &t) in order.iter().enumerate() {
                            a[t] = assignment[d];
                        }
                        a
                    },
                    max_bus_overlap: max_ov,
                };
                if optimizing {
                    *bound = Some(max_ov);
                    *best = Some(binding);
                    return Ok(false); // keep searching for better
                }
                *best = Some(binding);
                return Ok(true); // first feasible suffices
            }
            // Per-node lower-bound pruning: an admissible bound above the
            // bus count certifies that no feasible completion exists below
            // this node, so the subtree is cut. The unpruned search would
            // have explored it without ever reaching a leaf (leaves are
            // only reached through all-constraints-satisfied placements),
            // so `best`/`bound` evolve identically — the cut is invisible
            // in the answers, it only saves nodes.
            if pruning != PruningLevel::Off {
                if audit {
                    audit_node(
                        problem, order, critical, total, peak, sparse, st, assignment,
                    );
                }
                let ctx = bounds::PruneContext {
                    problem,
                    order,
                    critical_windows: critical,
                    target_total: total,
                    unbound: &st.unbound,
                    bus_masks: &st.masks,
                    mask_words: st.words,
                    bus_len: &st.lens,
                    used: &st.used,
                    total_slack: &st.total_slack,
                    min_slack: &st.min_slack,
                    rem_window: &st.rem_window,
                    peak,
                    sparse,
                    usable_matrix: Some(&st.usable),
                };
                if prune_bound.buses_needed(&ctx) > problem.num_buses {
                    return Ok(false);
                }
            }
            let t = order[depth];
            let mut tried_empty = false;
            // Candidate buses. The cheap vetoes — maxtb and the
            // word-parallel conflict intersection against the incremental
            // member mask — run *before* the per-bus overlap sums, so the
            // ~90 % of buses a dense conflict graph rules out never pay
            // for an objective estimate or a slot in the sort. The checks
            // are conjunctive filters, so the explored placements (and
            // hence the result) are unchanged. Vetoed buses no longer
            // count against the node budget (see [`SolveLimits`]): under
            // a finite budget this search completes strictly more work
            // than the retired dense-matrix reference's accounting did.
            let (frame, rest_cands) = cand_frames.split_at_mut(problem.num_buses);
            let (saved_col, rest_cols) = col_frames.split_at_mut(problem.num_targets);
            let mut cand_len = 0usize;
            for k in 0..problem.num_buses {
                if st.lens[k] == 0 {
                    if tried_empty {
                        continue; // symmetry: all empty buses equivalent
                    }
                    tried_empty = true;
                }
                if st.lens[k] >= problem.maxtb {
                    continue;
                }
                if problem.conflict_graph().conflicts_with_words(t, st.mask(k)) {
                    continue;
                }
                // In feasibility mode the sums are skipped — nothing reads
                // them and the enumeration order is the plain bus order.
                let added: u64 = if optimizing {
                    mask_added_overlap(problem, st.mask(k), t)
                } else {
                    0
                };
                frame[cand_len] = (added, k);
                cand_len += 1;
            }
            let candidates = &mut frame[..cand_len];
            if optimizing {
                candidates.sort_by_key(|&(added, _)| added);
            }
            // Warm-start value ordering: the target's previous bus is
            // tried first. A *stable* partition of the same candidate set
            // — the mode-specific order above is preserved within each
            // half — so verdicts and the explored leaf set are unchanged;
            // re-solves merely gravitate to the previous solution's
            // neighbourhood. `get` tolerates arity mismatch (a delta may
            // have appended targets the previous binding never saw).
            if let Some(&prev) = warm.and_then(|w| w.get(t)) {
                candidates.sort_by_key(|&(_, k)| k != prev);
            }
            for &(added, k) in candidates.iter() {
                *nodes += 1;
                if *nodes > limits.max_nodes {
                    return Err(SearchInterrupted::Budget(NodeLimitExceeded {
                        limit: limits.max_nodes,
                    }));
                }
                // The poll is outside the budget accounting, so an
                // un-cancelled run explores the same nodes under any token.
                if *nodes & CANCEL_POLL_MASK == 0 && cancel.is_cancelled() {
                    return Err(SearchInterrupted::Cancelled);
                }
                if let Some(b) = *bound {
                    if st.bus_overlap[k] + added >= b {
                        continue;
                    }
                }
                // Window capacity check: O(1) accept when the peak demand
                // fits the bus's minimum window slack, O(1) reject when the
                // total demand exceeds its total slack, full scan only in
                // the ambiguous band between them. All three agree exactly
                // with the scan, so search decisions are unchanged.
                let fits = peak[t] <= st.min_slack[k]
                    || (total[t] <= st.total_slack[k]
                        && sparse[t].iter().all(|&(m, d)| {
                            st.used[k * st.windows + m] + d <= problem.capacities[m]
                        }));
                if !fits {
                    continue;
                }
                // Apply. `min_slack` is refreshed from the touched windows
                // alone: the untouched windows' slack is no smaller than
                // the old global minimum, so `min(old, touched)` is a valid
                // (and usually tight) lower bound on the new minimum.
                // Only bus `k`'s state changes, so only usability column
                // `k` can change: save it into this depth's frame and
                // recompute it after the placement (O(targets) — the
                // batched alternative to the bounds recomputing the whole
                // matrix per node).
                let saved_min_slack = st.min_slack[k];
                if track_usable {
                    for (ti, slot) in saved_col.iter_mut().enumerate() {
                        *slot = st.usable[ti * st.buses + k];
                    }
                }
                let mut new_min = saved_min_slack;
                for &(m, d) in &sparse[t] {
                    st.used[k * st.windows + m] += d;
                    st.rem_window[m] -= d;
                    new_min = new_min.min(problem.capacities[m] - st.used[k * st.windows + m]);
                }
                st.min_slack[k] = new_min;
                st.total_slack[k] -= total[t];
                st.lens[k] += 1;
                st.masks[k * st.words + t / 64] |= 1u64 << (t % 64);
                st.unbound.remove(t);
                st.bus_overlap[k] += added;
                if track_usable {
                    st.refresh_column(problem, total, peak, sparse, k);
                }
                assignment.push(k);

                let done = dfs(
                    problem,
                    order,
                    sparse,
                    peak,
                    total,
                    critical,
                    st,
                    prune_bound,
                    rest_cands,
                    rest_cols,
                    nodes,
                    limits,
                    warm,
                    cancel,
                    bound,
                    optimizing,
                    audit,
                    best,
                    assignment,
                )?;

                // Undo (exact reverse, column restored from the frame).
                assignment.pop();
                st.bus_overlap[k] -= added;
                st.unbound.insert(t);
                st.lens[k] -= 1;
                st.masks[k * st.words + t / 64] &= !(1u64 << (t % 64));
                st.total_slack[k] += total[t];
                st.min_slack[k] = saved_min_slack;
                for &(m, d) in &sparse[t] {
                    st.used[k * st.windows + m] -= d;
                    st.rem_window[m] += d;
                }
                if track_usable {
                    for (ti, &slot) in saved_col.iter().enumerate() {
                        st.usable[ti * st.buses + k] = slot;
                    }
                }
                if done {
                    return Ok(true);
                }
            }
            Ok(false)
        }

        let mut assignment = Vec::with_capacity(self.num_targets);
        dfs(
            self,
            &order,
            &sparse,
            &peak,
            &total,
            &critical,
            &mut arena,
            &mut prune_bound,
            &mut cand_frames,
            &mut col_frames,
            &mut nodes,
            limits,
            limits.warm_assignment(),
            cancel,
            &mut bound,
            optimizing,
            audit,
            &mut best,
            &mut assignment,
        )?;
        Ok((best, nodes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> SolveLimits {
        SolveLimits::default()
    }

    #[test]
    fn trivial_single_bus() {
        let p = BindingProblem::new(1, 100, vec![vec![30], vec![40]]);
        let b = p.find_feasible(&limits()).unwrap().expect("feasible");
        assert_eq!(b.bus_of(0), b.bus_of(1));
        assert_eq!(p.verify(&b), Some(0));
    }

    #[test]
    fn bandwidth_forces_split() {
        // 60 + 50 > 100 → two buses needed; with two buses feasible.
        let p1 = BindingProblem::new(1, 100, vec![vec![60], vec![50]]);
        assert_eq!(p1.find_feasible(&limits()).unwrap(), None);
        let p2 = BindingProblem::new(2, 100, vec![vec![60], vec![50]]);
        let b = p2.find_feasible(&limits()).unwrap().expect("feasible");
        assert_ne!(b.bus_of(0), b.bus_of(1));
    }

    #[test]
    fn per_window_not_aggregate() {
        // Aggregate demand fits easily, but both peak in window 0.
        let p = BindingProblem::new(1, 100, vec![vec![80, 0], vec![30, 0]]);
        assert_eq!(p.find_feasible(&limits()).unwrap(), None);
        // Shifting the peaks apart makes one bus fine.
        let p = BindingProblem::new(1, 100, vec![vec![80, 0], vec![0, 30]]);
        assert!(p.find_feasible(&limits()).unwrap().is_some());
    }

    #[test]
    fn conflicts_respected() {
        let p = BindingProblem::new(2, 100, vec![vec![10], vec![10], vec![10]])
            .with_conflict(0, 1)
            .with_conflict(1, 2);
        let b = p.find_feasible(&limits()).unwrap().expect("feasible");
        assert_ne!(b.bus_of(0), b.bus_of(1));
        assert_ne!(b.bus_of(1), b.bus_of(2));
    }

    #[test]
    fn optimize_cancellable_matches_optimize_when_uncancelled() {
        let p = BindingProblem::new(2, 100, vec![vec![60, 10], vec![50, 20], vec![10, 70]])
            .with_conflict(0, 2);
        let plain = p.optimize(&limits()).unwrap().expect("feasible");
        // A live request token (a child of a root nobody raises) takes
        // the same path as the root-token convenience.
        let token = CancelToken::new().child();
        let cancellable = p
            .optimize_cancellable(&limits(), &token)
            .unwrap()
            .expect("feasible");
        assert_eq!(plain, cancellable);
        // A pre-raised token interrupts an instance big enough to reach
        // the poll checkpoint (tiny searches may finish before polling).
        let hard = BindingProblem::new(5, 100, vec![vec![18]; 24]).with_maxtb(4);
        let raised = CancelToken::new();
        raised.cancel();
        let unpruned = SolveLimits::default().with_pruning(PruningLevel::Off);
        assert!(matches!(
            hard.optimize_cancellable(&unpruned, &raised),
            Err(SearchInterrupted::Cancelled)
        ));
    }

    #[test]
    fn optimize_from_the_feasibility_witness_matches_optimize() {
        // MILP-2 seeded with MILP-1's witness answers exactly as the
        // two-step driver: on cold limits, on warm starts that verify or
        // not, and on a budget too small to finish.
        let mut state = 0xC0FF_EE00_D15C_0B01u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let root = CancelToken::new();
        for case in 0..60 {
            let n = 3 + (rand() % 8) as usize;
            let buses = 2 + (rand() % 3) as usize;
            let windows = 1 + (rand() % 4) as usize;
            let demands: Vec<Vec<u64>> = (0..n)
                .map(|_| (0..windows).map(|_| rand() % 70).collect())
                .collect();
            let mut p =
                BindingProblem::new(buses, 100, demands).with_maxtb(2 + (rand() % 3) as usize);
            for i in 0..n {
                for j in i + 1..n {
                    if rand() % 5 == 0 {
                        p.add_conflict(i, j);
                    }
                }
            }
            let values: Vec<u64> = (0..n * n).map(|_| rand() % 50).collect();
            p.set_overlaps(|i, j| values[i.min(j) * n + i.max(j)]);
            let mut limits = match case % 3 {
                0 => limits(),
                1 => SolveLimits::nodes(1 + rand() % 40),
                _ => limits().with_warm_start(WarmStart::new(Binding::from_assignment(
                    (0..n).map(|_| (rand() % buses as u64) as usize).collect(),
                ))),
            };
            if case % 7 == 0 {
                limits = limits.with_pruning(PruningLevel::Off);
            }
            let two_step = p.optimize(&limits);
            let seeded = p
                .find_feasible(&limits)
                .map_err(SearchInterrupted::Budget)
                .and_then(|feasible| match feasible {
                    None => Ok(None),
                    Some(f) => p.optimize_from_cancellable(f, &limits, &root).map(Some),
                });
            assert_eq!(
                two_step.map_err(SearchInterrupted::Budget),
                seeded,
                "case {case}"
            );
        }
    }

    #[test]
    fn conflict_triangle_needs_three_buses() {
        let demands = vec![vec![1], vec![1], vec![1]];
        let triangle = |p: BindingProblem| {
            p.with_conflict(0, 1)
                .with_conflict(1, 2)
                .with_conflict(0, 2)
        };
        let p2 = triangle(BindingProblem::new(2, 100, demands.clone()));
        assert_eq!(p2.find_feasible(&limits()).unwrap(), None);
        let p3 = triangle(BindingProblem::new(3, 100, demands));
        assert!(p3.find_feasible(&limits()).unwrap().is_some());
    }

    #[test]
    fn maxtb_enforced() {
        let p = BindingProblem::new(1, 1000, vec![vec![1]; 5]).with_maxtb(4);
        assert_eq!(p.find_feasible(&limits()).unwrap(), None);
        let p = BindingProblem::new(2, 1000, vec![vec![1]; 5]).with_maxtb(4);
        let b = p.find_feasible(&limits()).unwrap().expect("feasible");
        let buses = b.buses(2);
        assert!(buses.iter().all(|bus| bus.len() <= 4));
    }

    #[test]
    fn optimize_minimises_max_overlap() {
        // Four targets, two buses, capacity ample. Overlaps: (0,1)=100,
        // (2,3)=90, everything else 10. Optimal: split 0|1 and 2|3 →
        // pairs (0,2)/(1,3) style grouping with max overlap 10.
        let mut p = BindingProblem::new(2, 1000, vec![vec![10]; 4]);
        p.set_overlaps(|i, j| match (i, j) {
            (0, 1) => 100,
            (2, 3) => 90,
            _ => 10,
        });
        let b = p.optimize(&limits()).unwrap().expect("feasible");
        assert_ne!(b.bus_of(0), b.bus_of(1));
        assert_ne!(b.bus_of(2), b.bus_of(3));
        // Each bus holds two targets forming one cross pair of overlap 10.
        assert_eq!(b.max_bus_overlap(), 10);
        assert_eq!(p.verify(&b), Some(b.max_bus_overlap()));
    }

    #[test]
    fn optimize_matches_verify() {
        let mut p = BindingProblem::new(
            3,
            100,
            vec![vec![40, 10], vec![30, 20], vec![20, 60], vec![10, 30]],
        );
        p.set_overlaps(|i, j| ((i + 1) * (j + 1)) as u64);
        let b = p.optimize(&limits()).unwrap().expect("feasible");
        assert_eq!(p.verify(&b), Some(b.max_bus_overlap()));
    }

    #[test]
    fn optimize_is_no_worse_than_any_feasible() {
        // Exhaustively enumerate all assignments for a small instance and
        // confirm optimality.
        let mut p = BindingProblem::new(2, 100, vec![vec![30], vec![30], vec![30], vec![5]]);
        p.set_overlaps(|i, j| (7 * (i + 1) + 3 * (j + 1)) as u64);
        let best = p.optimize(&limits()).unwrap().expect("feasible");
        let mut brute = u64::MAX;
        for mask in 0..(1u32 << 4) {
            let assignment: Vec<usize> = (0..4).map(|t| ((mask >> t) & 1) as usize).collect();
            let candidate = Binding {
                assignment,
                max_bus_overlap: 0,
            };
            if let Some(ov) = p.verify(&candidate) {
                brute = brute.min(ov);
            }
        }
        assert_eq!(best.max_bus_overlap(), brute);
    }

    #[test]
    fn empty_problem() {
        let p = BindingProblem::new(2, 100, Vec::new());
        let b = p.find_feasible(&limits()).unwrap().expect("feasible");
        assert!(b.assignment().is_empty());
        assert_eq!(b.max_bus_overlap(), 0);
    }

    #[test]
    fn node_limit_is_honest() {
        // Big enough to not finish in 3 nodes.
        let p = BindingProblem::new(4, 100, vec![vec![26]; 12]);
        let err = p
            .find_feasible(&SolveLimits::nodes(3))
            .expect_err("should exceed");
        assert_eq!(err.limit, 3);
        assert!(err.to_string().contains("3-node"));
    }

    #[test]
    fn cancellable_search_matches_plain_when_not_cancelled() {
        let mut p = BindingProblem::new(3, 100, vec![vec![60], vec![50], vec![40], vec![30]]);
        p.add_conflict(0, 1);
        let token = CancelToken::new().child();
        let cancellable = p
            .find_feasible_stats_cancellable(&limits(), &token)
            .expect("within limits")
            .0;
        let plain = p.find_feasible(&limits()).expect("within limits");
        assert_eq!(cancellable, plain);
    }

    #[test]
    fn pre_raised_token_cancels_hard_instances() {
        // An instance whose infeasibility proof takes far more than one
        // poll interval: the pre-raised token must stop it early. Pruning
        // is off because the per-node bounds prove this maxtb-pigeonhole
        // instance infeasible before the first poll — the very behaviour
        // `bounds` exists for, but not what this test exercises.
        let n = 24usize;
        let p = BindingProblem::new(5, 100, vec![vec![18]; n]).with_maxtb(4);
        let token = CancelToken::new();
        token.cancel();
        let limits = SolveLimits::default().with_pruning(PruningLevel::Off);
        match p.find_feasible_stats_cancellable(&limits, &token) {
            Err(SearchInterrupted::Cancelled) => {}
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn ancestor_cancellation_reaches_the_search() {
        // The executor hands tasks child tokens; cancelling the scope's
        // root must interrupt a search polling only the child.
        let n = 24usize;
        let p = BindingProblem::new(5, 100, vec![vec![18]; n]).with_maxtb(4);
        let root = CancelToken::new();
        let child = root.child();
        root.cancel();
        let limits = SolveLimits::default().with_pruning(PruningLevel::Off);
        match p.find_feasible_stats_cancellable(&limits, &child) {
            Err(SearchInterrupted::Cancelled) => {}
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn budget_error_survives_the_cancellable_path() {
        let p = BindingProblem::new(4, 100, vec![vec![26]; 12]);
        let token = CancelToken::new();
        match p.find_feasible_stats_cancellable(&SolveLimits::nodes(3), &token) {
            Err(SearchInterrupted::Budget(e)) => assert_eq!(e.limit, 3),
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "demands 150 > capacity 100")]
    fn oversized_demand_panics() {
        let _ = BindingProblem::new(1, 100, vec![vec![150]]);
    }

    #[test]
    fn variable_capacities_respected() {
        // Window 0 is tight (cap 50), window 1 roomy (cap 200): targets
        // peaking together in window 0 must split even though a uniform
        // 200-capacity plan would let them share.
        let p =
            BindingProblem::with_capacities(2, vec![50, 200], vec![vec![30, 100], vec![30, 80]]);
        let b = p.find_feasible(&limits()).unwrap().expect("feasible");
        assert_ne!(b.bus_of(0), b.bus_of(1));
        assert_eq!(p.verify(&b), Some(0));

        let uniform = BindingProblem::new(2, 200, vec![vec![30, 100], vec![30, 80]]);
        let bu = uniform.find_feasible(&limits()).unwrap().expect("feasible");
        // With uniform capacity 200 sharing is allowed.
        assert!(uniform
            .verify(&Binding::from_assignment(vec![0, 0]))
            .is_some());
        assert!(uniform.verify(&bu).is_some());
    }

    #[test]
    fn capacity_accessor_reports_plan() {
        let p = BindingProblem::with_capacities(1, vec![10, 20], vec![vec![5, 15]]);
        assert_eq!(p.capacity(0), 10);
        assert_eq!(p.capacity(1), 20);
        assert_eq!(p.window_size(), 20); // max capacity
    }

    #[test]
    #[should_panic(expected = "one capacity per window")]
    fn capacity_arity_checked() {
        let _ = BindingProblem::with_capacities(1, vec![10], vec![vec![5, 5]]);
    }

    #[test]
    fn verify_rejects_bad_bindings() {
        let p = BindingProblem::new(2, 100, vec![vec![60], vec![60]]).with_conflict(0, 1);
        // Same bus: violates both capacity and conflict.
        let bad = Binding {
            assignment: vec![0, 0],
            max_bus_overlap: 0,
        };
        assert_eq!(p.verify(&bad), None);
        // Out-of-range bus.
        let oob = Binding {
            assignment: vec![0, 5],
            max_bus_overlap: 0,
        };
        assert_eq!(p.verify(&oob), None);
        // Wrong arity.
        let short = Binding {
            assignment: vec![0],
            max_bus_overlap: 0,
        };
        assert_eq!(p.verify(&short), None);
    }

    #[test]
    fn used_buses_counts_distinct() {
        let b = Binding {
            assignment: vec![0, 2, 0, 2],
            max_bus_overlap: 0,
        };
        assert_eq!(b.used_buses(), 2);
        assert_eq!(b.buses(3)[0], vec![0, 2]);
        assert_eq!(b.buses(3)[2], vec![1, 3]);
    }

    #[test]
    fn verified_warm_start_short_circuits_with_recomputed_objective() {
        let mut p = BindingProblem::new(2, 1000, vec![vec![10]; 4]);
        p.set_overlaps(|i, j| match (i, j) {
            (0, 1) => 100,
            (2, 3) => 90,
            _ => 10,
        });
        let cold = p.optimize(&limits()).unwrap().expect("feasible");
        // Offer the cold answer back with a deliberately stale objective:
        // the solver must recompute, not trust it.
        let warm = WarmStart {
            binding: Binding::from_assignment_with_overlap(cold.assignment().to_vec(), 0),
            objective: 999,
        };
        let wl = SolveLimits::default().with_warm_start(warm);
        let f = p.find_feasible(&wl).unwrap().expect("feasible");
        assert_eq!(f.assignment(), cold.assignment());
        assert_eq!(f.max_bus_overlap(), cold.max_bus_overlap());
        // Even a zero-node budget answers: the verify path does no search.
        let starved = SolveLimits::nodes(0).with_warm_start(WarmStart::new(cold.clone()));
        assert!(p.find_feasible(&starved).unwrap().is_some());
        // Optimisation seeded by the warm incumbent reaches the same
        // optimum.
        let o = p.optimize(&wl).unwrap().expect("feasible");
        assert_eq!(o.max_bus_overlap(), cold.max_bus_overlap());
        assert_eq!(p.verify(&o), Some(o.max_bus_overlap()));
    }

    #[test]
    fn unverifiable_warm_start_keeps_verdicts() {
        // The warm binding violates a conflict added after it was found:
        // verify fails, the search runs cold with a value-ordering hint,
        // and every verdict matches the cold search.
        let base = BindingProblem::new(2, 100, vec![vec![10], vec![10], vec![10]]);
        let old = base.find_feasible(&limits()).unwrap().expect("feasible");
        let patched = base.clone().with_conflict(0, 1).with_conflict(0, 2);
        let wl = SolveLimits::default().with_warm_start(WarmStart::new(old.clone()));
        let warm_answer = patched.find_feasible(&wl).unwrap();
        let cold_answer = patched.find_feasible(&limits()).unwrap();
        assert_eq!(warm_answer.is_some(), cold_answer.is_some());
        let b = warm_answer.expect("feasible");
        assert_eq!(patched.verify(&b), Some(b.max_bus_overlap()));
        // An infeasible patch stays infeasible with a warm hint.
        let infeasible = BindingProblem::new(1, 100, vec![vec![60], vec![50]]);
        let wl2 = SolveLimits::default()
            .with_warm_start(WarmStart::new(Binding::from_assignment(vec![0, 0])));
        assert_eq!(infeasible.find_feasible(&wl2).unwrap(), None);
    }

    #[test]
    fn warm_start_tolerates_arity_mismatch() {
        // Previous binding saw 2 targets; the delta appended a third. The
        // warm start demotes to an ordering hint and the verdict holds.
        let p = BindingProblem::new(2, 100, vec![vec![40], vec![40], vec![40]]);
        let wl = SolveLimits::default()
            .with_warm_start(WarmStart::new(Binding::from_assignment(vec![0, 1])));
        let b = p.find_feasible(&wl).unwrap().expect("feasible");
        assert_eq!(p.verify(&b), Some(b.max_bus_overlap()));
        assert!(
            p.find_feasible(&limits()).unwrap().is_some(),
            "cold verdict agrees"
        );
    }

    #[test]
    fn warm_start_optimum_matches_cold_optimum() {
        // The warm incumbent is feasible but suboptimal: the improving
        // search below it must still reach the cold optimum.
        let mut p = BindingProblem::new(2, 1000, vec![vec![10]; 4]);
        p.set_overlaps(|i, j| match (i, j) {
            (0, 1) => 100,
            (2, 3) => 90,
            _ => 10,
        });
        let cold = p.optimize(&limits()).unwrap().expect("feasible");
        // All-on-different... 2 buses, 4 targets: put the heavy pairs
        // together (suboptimal: objective 100).
        let suboptimal = Binding::from_assignment(vec![0, 0, 1, 1]);
        assert_eq!(p.verify(&suboptimal), Some(100));
        let wl = SolveLimits::default().with_warm_start(WarmStart::new(suboptimal));
        let warm = p.optimize(&wl).unwrap().expect("feasible");
        assert_eq!(warm.max_bus_overlap(), cold.max_bus_overlap());
    }

    #[test]
    fn tight_packing_found() {
        // 6 targets of demand 50 into 3 buses of 100: perfect packing.
        let p = BindingProblem::new(3, 100, vec![vec![50]; 6]);
        let b = p.find_feasible(&limits()).unwrap().expect("feasible");
        let buses = b.buses(3);
        assert!(buses.iter().all(|bus| bus.len() == 2));
    }

    #[test]
    fn infeasible_packing_proven() {
        // 7 targets of demand 50 into 3 buses of 100 → needs 4.
        let p = BindingProblem::new(3, 100, vec![vec![50]; 7]);
        assert_eq!(p.find_feasible(&limits()).unwrap(), None);
    }
}
