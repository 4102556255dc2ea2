//! Conflict-driven nogood learning for the binding feasibility search —
//! the [`SearchLevel::Learned`] engine.
//!
//! The frozen-order DFS re-refutes the same constellation of placements
//! thousands of times on phase-transition instances (48 targets at
//! θ = 0.12): a clique or bandwidth certificate fires deep in one
//! subtree, the search backtracks, rebuilds an isomorphic prefix
//! elsewhere, and pays for the identical refutation again. This module
//! applies the classic CDCL insight to bus-mask assignments:
//!
//! * **Nogoods from certificates.** When a node is bound-refuted, the
//!   refuting certificate names the placements it actually used
//!   ([`crate::bounds::CliqueCoverBound::explain`]): the conflicting or
//!   capacity-consuming members behind a dead target or Hall violation.
//!   Those placements become a *clause* — "never again all of these at
//!   once" — that cuts every later subtree rebuilding the same
//!   constellation. Certificates without a cheap explanation (bandwidth
//!   flow, propagation/shaving) fall back to the full prefix, which is
//!   still a sound transposition cut across restarts.
//! * **Nogoods from exhaustion, by resolution.** When every bus fails
//!   for a target, the union of the per-bus failure reasons (a
//!   conflicting member, a full bus's member set, a vetoing clause's own
//!   literals, a refuted child subtree's reason) minus the target itself
//!   is a nogood for the *parent* — reasons resolve upward exactly like
//!   CDCL conflict analysis, shrinking towards the placements that
//!   matter.
//! * **Two-watched-target propagation.** A clause's literals are sorted
//!   by branching-order depth and the two *deepest* are watched. The
//!   branching order is frozen, so the watches never relocate: the
//!   deepest literal's target indexes a veto list consulted exactly once
//!   per node (when that target is being branched — every other literal
//!   is already bound), and the second-deepest indexes a kill list that
//!   retires the clause for the duration of a mismatching subtree. Each
//!   DFS node therefore touches only the clauses watching the target it
//!   just bound.
//! * **Luby restarts with value-order perturbation.** Feasibility
//!   witnesses at the phase transition are plentiful but hide behind the
//!   deterministic value order's early mistakes. Restart `r` of the Luby
//!   schedule permutes the *bus* order with a deterministic xorshift of
//!   `(seed, member, r)` — the target order stays frozen, which is what
//!   keeps every learned clause sound across restarts — and the store
//!   carries over, so each restart starts where all previous ones'
//!   refutations left off.
//! * **A deterministic restart portfolio.** Two members with decorrelated
//!   perturbation sequences race on the process-wide executor
//!   ([`stbus_exec::scope`]); the lowest-indexed member with a definitive
//!   answer wins and the rest are cancelled. Winner selection is by
//!   member index, never by wall-clock, so verdicts, restart counts and
//!   clause counts are identical at any worker count.
//!
//! # Soundness
//!
//! Certificate-seeded clauses are sound in the *full* assignment space:
//! every rejection they rest on (a conflict, a full bus, an overflowed
//! window) is monotone under additional placements. Exhaustion clauses
//! are sound in the *canonical* space carved out by the first-empty-bus
//! symmetry rule; canonicality is a property of the partial assignment
//! under the frozen target order — independent of the value order — so
//! they transfer across restarts, and exhausting the canonical space
//! proves true infeasibility exactly as the standard search does. An
//! empty clause (a refutation resting on no placements) certifies the
//! instance infeasible outright and short-circuits the whole search.
//!
//! The contract mirrors [`crate::PruningLevel::Aggressive`]: identical
//! feasibility verdicts whenever both engines complete within budget —
//! witnesses verify against the untouched constraint checks, and
//! infeasibility means canonical exhaustion under sound cuts — while the
//! returned binding (and downstream probe logs) may differ. The
//! `learned_search_equivalence` suite and its proptests enforce this
//! against the standard engine.
//!
//! [`SearchLevel::Learned`]: super::SearchLevel::Learned

use super::{
    mask_pair_overlap, Binding, BindingProblem, NodeLimitExceeded, SearchArena, SearchInterrupted,
    SearchStats, SolveLimits, CANCEL_POLL_MASK,
};
use crate::bounds::{self, CombinedBound, LowerBound, PruningLevel, Refutation};
use stbus_exec::CancelToken;
use stbus_traffic::TargetSet;

/// Portfolio width: member 0 runs the base perturbation sequence
/// (restart 0 is the identity order — the standard search's own value
/// order), member 1 a decorrelated one. Constant, so results are
/// independent of the executor's worker count.
const PORTFOLIO_WIDTH: usize = 2;

/// Nodes per Luby unit: restart `r` runs `RESTART_UNIT × luby(r + 1)`
/// branch attempts before perturbing the value order.
const RESTART_UNIT: u64 = 4096;

/// Longest clause worth storing. Longer reasons (typically prefix
/// fallbacks) still resolve upward into parent reasons — they are just
/// not worth a slot in the watched store, where their firing probability
/// is negligible and their scan cost is not.
const MAX_LITS: usize = 16;

/// Soft clause-store capacity: the restart-boundary maintenance evicts
/// the lowest-activity clauses beyond this.
const STORE_CAP: usize = 4096;

/// Hard in-burst ceiling: learning pauses (the search stays sound — a
/// skipped clause only forgoes future cuts) until the next restart
/// compaction once the store grows this far.
const STORE_HARD_CAP: usize = 6144;

/// Activity added when a clause fires a veto; all activities are halved
/// at every restart, so recently useful clauses survive eviction.
const ACTIVITY_BUMP: u32 = 8;

/// Sentinel for "no clause" in the per-node veto frame.
const NO_CLAUSE: u32 = u32::MAX;

/// Luby sequence, 1-indexed: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …
fn luby(mut i: u64) -> u64 {
    loop {
        // Find k with 2^(k-1) <= i < 2^k.
        let k = 64 - i.leading_zeros() as u64;
        if i == (1 << k) - 1 {
            return 1 << (k - 1);
        }
        i -= (1 << (k - 1)) - 1;
    }
}

/// SplitMix64 finalizer — the seed mixer (a zero seed is fine).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic bus-order permutation for `(seed, member, restart)`.
/// Member 0's restart 0 is the identity — the standard value order.
fn value_order(buses: usize, seed: u64, member: u64, restart: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..buses).collect();
    if member == 0 && restart == 0 {
        return order;
    }
    let mut state = mix(seed ^ mix(member.wrapping_mul(0x5EED_C0DE).wrapping_add(restart)));
    for i in (1..buses).rev() {
        // xorshift64 step + Lemire-style bounded draw.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// One learned nogood: "not all of these placements at once". Literals
/// are `(target, bus)` pairs sorted by branching-order depth, deepest
/// last; the deepest literal is the veto watch, the second-deepest the
/// kill watch.
struct Clause {
    lits: Vec<(u32, u32)>,
    activity: u32,
    /// Depth at which the kill watch retired this clause for the current
    /// subtree, `-1` when live. Kills unwind exactly with the DFS, so
    /// between restarts every clause is live again.
    killed_at: i32,
    fingerprint: u64,
}

/// The bounded learned-clause store with its static two-watch lists.
struct NogoodStore {
    clauses: Vec<Clause>,
    /// Per target `t`: clauses whose deepest literal's target is `t`,
    /// scanned once when `t` is branched (all other literals bound).
    watch_veto: Vec<Vec<u32>>,
    /// Per target `t`: clauses whose second-deepest literal's target is
    /// `t`, checked once when `t` is assigned (a mismatch retires the
    /// clause until that assignment unwinds).
    watch_kill: Vec<Vec<u32>>,
    /// Clause fingerprints, for dedup across learn sites and restarts.
    seen: std::collections::HashSet<u64>,
    /// Clauses ever learned and stored (monotone; survives eviction).
    learned_total: u64,
    /// Veto firings (clauses whose bound literals all matched).
    hits: u64,
}

/// What [`NogoodStore::learn`] concluded about a refutation reason.
enum Learned {
    /// The reason was empty: the refutation rests on no placements at
    /// all, so the instance is infeasible outright.
    GlobalInfeasible,
    /// Clause stored (or skipped as too long / duplicate / store full —
    /// indistinguishable to the caller, which only propagates reasons).
    Recorded,
}

impl NogoodStore {
    fn new(num_targets: usize) -> Self {
        Self {
            clauses: Vec::new(),
            watch_veto: vec![Vec::new(); num_targets],
            watch_kill: vec![Vec::new(); num_targets],
            seen: std::collections::HashSet::new(),
            learned_total: 0,
            hits: 0,
        }
    }

    /// Installs the watches of clause `ci` (literals already sorted by
    /// depth, deepest last).
    fn attach(&mut self, ci: u32) {
        let lits = &self.clauses[ci as usize].lits;
        let deepest = lits[lits.len() - 1].0 as usize;
        self.watch_veto[deepest].push(ci);
        if lits.len() >= 2 {
            let second = lits[lits.len() - 2].0 as usize;
            self.watch_kill[second].push(ci);
        }
    }

    /// Learns a clause from a refutation reason: the recorded targets
    /// with their current buses. An empty reason is a global
    /// infeasibility certificate; over-long, duplicate, or
    /// store-overflow clauses are silently skipped (the refutation
    /// itself was already acted on).
    fn learn(&mut self, reason: &[u64], assigned_bus: &[i32], pos: &[u32]) -> Learned {
        let mut lits: Vec<(u32, u32)> = Vec::new();
        for (w, &word) in reason.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let t = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let bus = assigned_bus[t];
                debug_assert!(bus >= 0, "nogood literal over an unbound target");
                lits.push((t as u32, bus as u32));
                if lits.len() > MAX_LITS {
                    return Learned::Recorded;
                }
            }
        }
        if lits.is_empty() {
            return Learned::GlobalInfeasible;
        }
        if self.clauses.len() >= STORE_HARD_CAP {
            return Learned::Recorded;
        }
        lits.sort_unstable_by_key(|&(t, _)| pos[t as usize]);
        let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
        for &(t, k) in &lits {
            fingerprint ^= u64::from(t) << 32 | u64::from(k);
            fingerprint = fingerprint.wrapping_mul(0x0000_0100_0000_01B3);
        }
        if !self.seen.insert(fingerprint) {
            return Learned::Recorded;
        }
        let ci = self.clauses.len() as u32;
        self.clauses.push(Clause {
            lits,
            activity: ACTIVITY_BUMP,
            killed_at: -1,
            fingerprint,
        });
        self.attach(ci);
        self.learned_total += 1;
        Learned::Recorded
    }

    /// The once-per-node veto scan for the target being branched: every
    /// live clause watching `t` whose other literals all match the
    /// current assignment vetoes its deepest literal's bus. Fills
    /// `vetoed_by[k]` with the (first) vetoing clause per bus.
    fn veto_scan(&mut self, t: usize, assigned_bus: &[i32], vetoed_by: &mut [u32]) {
        vetoed_by.fill(NO_CLAUSE);
        for wi in 0..self.watch_veto[t].len() {
            let ci = self.watch_veto[t][wi];
            let clause = &mut self.clauses[ci as usize];
            if clause.killed_at >= 0 {
                continue;
            }
            let n = clause.lits.len();
            if clause.lits[..n - 1]
                .iter()
                .all(|&(x, b)| assigned_bus[x as usize] == b as i32)
            {
                clause.activity = clause.activity.saturating_add(ACTIVITY_BUMP);
                self.hits += 1;
                let k = clause.lits[n - 1].1 as usize;
                if vetoed_by[k] == NO_CLAUSE {
                    vetoed_by[k] = ci;
                }
            }
        }
    }

    /// Kill-watch processing for the assignment `t → k`: clauses whose
    /// second-deepest literal is `(t, other-bus)` can no longer fire in
    /// this subtree; they are retired and recorded on `trail` so the
    /// caller revives them when the assignment unwinds.
    fn kill_on_assign(&mut self, t: usize, k: usize, depth: i32, trail: &mut Vec<u32>) {
        let Self {
            watch_kill,
            clauses,
            ..
        } = self;
        for &ci in &watch_kill[t] {
            let clause = &mut clauses[ci as usize];
            let second = clause.lits[clause.lits.len() - 2];
            if clause.killed_at < 0 && second.1 as usize != k {
                clause.killed_at = depth;
                trail.push(ci);
            }
        }
    }

    /// Revives the clauses retired since `mark` (the trail length before
    /// the matching [`NogoodStore::kill_on_assign`]).
    fn revive(&mut self, trail: &mut Vec<u32>, mark: usize) {
        while trail.len() > mark {
            let ci = trail.pop().expect("trail shrinks to its own mark");
            self.clauses[ci as usize].killed_at = -1;
        }
    }

    /// Union of a clause's literal targets minus `skip` into a reason
    /// bitset — the resolution step of exhaustion analysis.
    fn clause_reason(&self, ci: u32, skip: usize, reason: &mut [u64]) {
        for &(t, _) in &self.clauses[ci as usize].lits {
            let t = t as usize;
            if t != skip {
                reason[t / 64] |= 1u64 << (t % 64);
            }
        }
    }

    /// Restart-boundary maintenance: halve all activities (aging) and,
    /// beyond [`STORE_CAP`], evict the lowest-activity clauses
    /// (index-tiebroken, so the survivors are deterministic) and rebuild
    /// the watch lists. No kills are live between restarts.
    fn restart_maintenance(&mut self) {
        for clause in &mut self.clauses {
            clause.activity /= 2;
            debug_assert_eq!(clause.killed_at, -1, "kill trail fully unwound");
        }
        if self.clauses.len() <= STORE_CAP {
            return;
        }
        let mut by_activity: Vec<u32> = (0..self.clauses.len() as u32).collect();
        by_activity.sort_unstable_by_key(|&ci| {
            (std::cmp::Reverse(self.clauses[ci as usize].activity), ci)
        });
        by_activity.truncate(STORE_CAP);
        by_activity.sort_unstable();
        let mut survivors = Vec::with_capacity(STORE_CAP);
        for &ci in &by_activity {
            // Indices are ascending, so a swap-free drain preserves
            // relative order via plain moves.
            survivors.push(std::mem::replace(
                &mut self.clauses[ci as usize],
                Clause {
                    lits: Vec::new(),
                    activity: 0,
                    killed_at: -1,
                    fingerprint: 0,
                },
            ));
        }
        self.clauses = survivors;
        self.seen.clear();
        for list in &mut self.watch_veto {
            list.clear();
        }
        for list in &mut self.watch_kill {
            list.clear();
        }
        for ci in 0..self.clauses.len() as u32 {
            self.seen.insert(self.clauses[ci as usize].fingerprint);
            self.attach(ci);
        }
    }
}

/// Why a DFS invocation stopped without a node outcome.
enum Stop {
    /// The restart burst's node allowance ran out.
    Burst,
    /// The overall node budget ([`SolveLimits::max_nodes`]) ran out.
    Budget,
    /// A cancellation token was raised.
    Cancelled,
    /// An empty clause was learned: certified global infeasibility.
    GlobalInfeasible,
}

/// The two definitive node outcomes.
enum NodeOutcome {
    /// A feasible leaf was reached; the witness is in `Search::witness`.
    Feasible,
    /// The subtree is exhausted or refuted; the reason is in the node's
    /// reason frame.
    Refuted,
}

/// Per-restart search state: the same arena-backed DFS as the standard
/// engine, minus optimisation mode, plus the nogood machinery.
struct Search<'a> {
    problem: &'a BindingProblem,
    order: &'a [usize],
    /// `pos[t]` = depth of target `t` in the branching order.
    pos: &'a [u32],
    sparse: &'a [Vec<(usize, u64)>],
    peak: &'a [u64],
    total: &'a [u64],
    critical: &'a [usize],
    value_order: &'a [usize],
    limits: &'a SolveLimits,
    cancel: &'a CancelToken,
    member_token: &'a CancelToken,
    /// Cumulative node count (carried across restarts by the member).
    nodes: u64,
    /// Node count at which the current burst ends.
    burst_end: u64,
    arena: SearchArena,
    prune_bound: CombinedBound,
    store: &'a mut NogoodStore,
    /// Target-indexed assignment, `-1` for unbound.
    assigned_bus: Vec<i32>,
    /// Kill trail (clause indices), unwound per assignment.
    kill_trail: Vec<u32>,
    witness: Option<Binding>,
    /// Bitset words per reason frame.
    words: usize,
}

impl Search<'_> {
    /// One DFS node at `depth`. `reasons` / `cols` / `vetoes` are this
    /// depth's scratch frames followed by the deeper frames
    /// (`split_at_mut` on the way down, exactly like the standard
    /// engine's candidate frames).
    fn dfs(
        &mut self,
        depth: usize,
        reasons: &mut [u64],
        cols: &mut [bool],
        vetoes: &mut [u32],
    ) -> Result<NodeOutcome, Stop> {
        let problem = self.problem;
        let num_buses = problem.num_buses;
        let (reason, rest_reasons) = reasons.split_at_mut(self.words);
        reason.fill(0);
        if depth == self.order.len() {
            let assignment: Vec<usize> = self.assigned_bus.iter().map(|&k| k as usize).collect();
            let max_bus_overlap = (0..self.arena.buses)
                .map(|k| mask_pair_overlap(problem, self.arena.mask(k)))
                .max()
                .unwrap_or(0);
            self.witness = Some(Binding {
                assignment,
                max_bus_overlap,
            });
            return Ok(NodeOutcome::Feasible);
        }
        // Per-node lower bound, with certificate → clause extraction on
        // refutation. The hot (non-refuting) path is the same bound the
        // standard engine pays; explanation runs only where the subtree
        // is already cut.
        if self.limits.pruning != PruningLevel::Off {
            let Self {
                arena, prune_bound, ..
            } = self;
            let ctx = bounds::PruneContext {
                problem,
                order: self.order,
                critical_windows: self.critical,
                target_total: self.total,
                unbound: &arena.unbound,
                bus_masks: &arena.masks,
                mask_words: arena.words,
                bus_len: &arena.lens,
                used: &arena.used,
                total_slack: &arena.total_slack,
                min_slack: &arena.min_slack,
                rem_window: &arena.rem_window,
                peak: self.peak,
                sparse: self.sparse,
                usable_matrix: Some(&arena.usable),
            };
            if prune_bound.buses_needed(&ctx) > num_buses {
                match prune_bound.explain(&ctx) {
                    Some(Refutation::Global) => return Err(Stop::GlobalInfeasible),
                    Some(Refutation::Assignments(set)) => {
                        reason.copy_from_slice(set.words());
                    }
                    None => {
                        // No cheap explanation (bandwidth / escalation
                        // certificate): the full prefix is the reason.
                        for &t in &self.order[..depth] {
                            reason[t / 64] |= 1u64 << (t % 64);
                        }
                    }
                }
                if let Learned::GlobalInfeasible =
                    self.store.learn(reason, &self.assigned_bus, self.pos)
                {
                    return Err(Stop::GlobalInfeasible);
                }
                return Ok(NodeOutcome::Refuted);
            }
        }
        let t = self.order[depth];
        let (vetoed_by, rest_vetoes) = vetoes.split_at_mut(num_buses);
        self.store.veto_scan(t, &self.assigned_bus, vetoed_by);
        // Canonical empty bus: the lowest-indexed empty bus is the one
        // representative the symmetry rule branches on — a function of
        // the partial assignment alone, not of the perturbed value
        // order, so the canonical space (and with it every exhaustion
        // nogood) is identical across restarts and members.
        let first_empty = (0..num_buses).find(|&k| self.arena.lens[k] == 0);
        let (saved_col, rest_cols) = cols.split_at_mut(problem.num_targets);
        for &k in self.value_order {
            if self.arena.lens[k] == 0 && Some(k) != first_empty {
                continue; // symmetry: skipping costs no reason
            }
            if self.arena.lens[k] >= problem.maxtb {
                bus_members_reason(self.arena.mask(k), reason);
                continue;
            }
            if problem
                .conflict_graph()
                .conflicts_with_words(t, self.arena.mask(k))
            {
                conflict_member_reason(problem, t, self.arena.mask(k), reason);
                continue;
            }
            if vetoed_by[k] != NO_CLAUSE {
                self.store.clause_reason(vetoed_by[k], t, reason);
                continue;
            }
            self.nodes += 1;
            if self.nodes > self.limits.max_nodes {
                return Err(Stop::Budget);
            }
            if self.nodes > self.burst_end {
                return Err(Stop::Burst);
            }
            if self.nodes & CANCEL_POLL_MASK == 0
                && (self.member_token.is_cancelled() || self.cancel.is_cancelled())
            {
                return Err(Stop::Cancelled);
            }
            let fits = self.peak[t] <= self.arena.min_slack[k]
                || (self.total[t] <= self.arena.total_slack[k]
                    && self.sparse[t].iter().all(|&(m, d)| {
                        self.arena.used[k * self.arena.windows + m] + d <= problem.capacities[m]
                    }));
            if !fits {
                bus_members_reason(self.arena.mask(k), reason);
                continue;
            }
            // Apply — the same incremental bookkeeping as the standard
            // engine, plus the kill watches.
            let saved_min_slack = self.arena.min_slack[k];
            // The usability matrix exists only for the per-node bounds;
            // with pruning off it is empty and never read.
            let track_usable = self.limits.pruning != PruningLevel::Off;
            if track_usable {
                for (ti, slot) in saved_col.iter_mut().enumerate() {
                    *slot = self.arena.usable[ti * self.arena.buses + k];
                }
            }
            let mut new_min = saved_min_slack;
            for &(m, d) in &self.sparse[t] {
                self.arena.used[k * self.arena.windows + m] += d;
                self.arena.rem_window[m] -= d;
                new_min = new_min
                    .min(problem.capacities[m] - self.arena.used[k * self.arena.windows + m]);
            }
            self.arena.min_slack[k] = new_min;
            self.arena.total_slack[k] -= self.total[t];
            self.arena.lens[k] += 1;
            self.arena.masks[k * self.arena.words + t / 64] |= 1u64 << (t % 64);
            self.arena.unbound.remove(t);
            if track_usable {
                self.arena
                    .refresh_column(problem, self.total, self.peak, self.sparse, k);
            }
            self.assigned_bus[t] = k as i32;
            let kill_mark = self.kill_trail.len();
            {
                let Self {
                    store, kill_trail, ..
                } = self;
                store.kill_on_assign(t, k, depth as i32, kill_trail);
            }

            let outcome = self.dfs(depth + 1, rest_reasons, rest_cols, rest_vetoes);

            // Undo (exact reverse).
            {
                let Self {
                    store, kill_trail, ..
                } = self;
                store.revive(kill_trail, kill_mark);
            }
            self.assigned_bus[t] = -1;
            self.arena.unbound.insert(t);
            self.arena.lens[k] -= 1;
            self.arena.masks[k * self.arena.words + t / 64] &= !(1u64 << (t % 64));
            self.arena.total_slack[k] += self.total[t];
            self.arena.min_slack[k] = saved_min_slack;
            for &(m, d) in &self.sparse[t] {
                self.arena.used[k * self.arena.windows + m] -= d;
                self.arena.rem_window[m] += d;
            }
            if track_usable {
                for (ti, &slot) in saved_col.iter().enumerate() {
                    self.arena.usable[ti * self.arena.buses + k] = slot;
                }
            }

            match outcome? {
                NodeOutcome::Feasible => return Ok(NodeOutcome::Feasible),
                NodeOutcome::Refuted => {
                    // Resolution: the child's reason minus the branched
                    // target joins this node's reason.
                    let child = &rest_reasons[..self.words];
                    for (mine, &theirs) in reason.iter_mut().zip(child) {
                        *mine |= theirs;
                    }
                }
            }
        }
        // Every bus failed for `t`: the union of the failure reasons
        // (minus `t` itself) refutes this node — and is a learnable
        // nogood over placements of shallower targets.
        reason[t / 64] &= !(1u64 << (t % 64));
        if let Learned::GlobalInfeasible = self.store.learn(reason, &self.assigned_bus, self.pos) {
            return Err(Stop::GlobalInfeasible);
        }
        Ok(NodeOutcome::Refuted)
    }
}

/// Records every member of a bus mask into a reason bitset.
fn bus_members_reason(mask: &[u64], reason: &mut [u64]) {
    for (slot, &word) in reason.iter_mut().zip(mask) {
        *slot |= word;
    }
}

/// Records one member conflicting with `t` into a reason bitset (a
/// single conflicting member reproduces the veto in any superset).
fn conflict_member_reason(problem: &BindingProblem, t: usize, mask: &[u64], reason: &mut [u64]) {
    for (w, &wordv) in mask.iter().enumerate() {
        let mut word = wordv;
        while word != 0 {
            let j = w * 64 + word.trailing_zeros() as usize;
            if problem.conflicts(t, j) {
                reason[j / 64] |= 1u64 << (j % 64);
                return;
            }
            word &= word - 1;
        }
    }
    unreachable!("conflicts_with_words certified a conflicting member");
}

/// One portfolio member: the Luby restart loop over the learned DFS,
/// carrying the clause store (and the node budget) across restarts.
fn run_member(
    problem: &BindingProblem,
    limits: &SolveLimits,
    member: u64,
    cancel: &CancelToken,
    member_token: &CancelToken,
) -> (Result<Option<Binding>, SearchInterrupted>, SearchStats) {
    let order = problem.branching_order();
    let mut pos = vec![0u32; problem.num_targets];
    for (d, &t) in order.iter().enumerate() {
        pos[t] = d as u32;
    }
    let sparse: Vec<Vec<(usize, u64)>> = (0..problem.num_targets)
        .map(|t| {
            problem.demands[t]
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
    let column_demand = bounds::column_demand(problem);
    let critical = bounds::critical_windows(&column_demand);
    let mut all_targets = TargetSet::empty(problem.num_targets);
    for t in 0..problem.num_targets {
        all_targets.insert(t);
    }
    let words = all_targets.words().len();

    let mut store = NogoodStore::new(problem.num_targets);
    let mut stats = SearchStats::default();
    let mut nodes = 0u64;
    let mut restart = 0u64;
    loop {
        if nodes >= limits.max_nodes {
            stats.nodes = nodes;
            stats.restarts = restart;
            stats.nogoods_learned = store.learned_total;
            stats.nogood_hits = store.hits;
            return (
                Err(SearchInterrupted::Budget(NodeLimitExceeded {
                    limit: limits.max_nodes,
                })),
                stats,
            );
        }
        let burst = RESTART_UNIT.saturating_mul(luby(restart + 1));
        let burst_end = nodes.saturating_add(burst).min(limits.max_nodes);
        let vo = value_order(problem.num_buses, limits.learned_seed, member, restart);

        let initial_min_slack = problem.capacities.iter().copied().min().unwrap_or(u64::MAX);
        let initial_total_slack: u64 = problem.capacities.iter().sum();
        let mut arena = SearchArena {
            buses: problem.num_buses,
            windows: problem.num_windows,
            words,
            used: vec![0; problem.num_buses * problem.num_windows],
            masks: vec![0; problem.num_buses * words],
            bus_overlap: vec![0; problem.num_buses],
            min_slack: vec![initial_min_slack; problem.num_buses],
            total_slack: vec![initial_total_slack; problem.num_buses],
            lens: vec![0; problem.num_buses],
            unbound: all_targets.clone(),
            rem_window: column_demand.clone(),
            usable: Vec::new(),
        };
        if limits.pruning != PruningLevel::Off {
            arena.usable = vec![false; problem.num_targets * problem.num_buses];
            for k in 0..problem.num_buses {
                arena.refresh_column(problem, &total, &peak, &sparse, k);
            }
        }
        let frames = problem.num_targets + 1;
        let mut reason_frames = vec![0u64; frames * words];
        let mut col_frames = vec![false; problem.num_targets * problem.num_targets];
        let mut veto_frames = vec![NO_CLAUSE; problem.num_targets * problem.num_buses];

        let mut search = Search {
            problem,
            order: &order,
            pos: &pos,
            sparse: &sparse,
            peak: &peak,
            total: &total,
            critical: &critical,
            value_order: &vo,
            limits,
            cancel,
            member_token,
            nodes,
            burst_end,
            arena,
            prune_bound: CombinedBound::default(),
            store: &mut store,
            assigned_bus: vec![-1; problem.num_targets],
            kill_trail: Vec::new(),
            witness: None,
            words,
        };
        let outcome = search.dfs(0, &mut reason_frames, &mut col_frames, &mut veto_frames);
        nodes = search.nodes;
        let witness = search.witness.take();

        stats.nodes = nodes;
        stats.restarts = restart;
        stats.nogoods_learned = store.learned_total;
        stats.nogood_hits = store.hits;
        match outcome {
            Ok(NodeOutcome::Feasible) => {
                let binding = witness.expect("feasible outcome leaves a witness");
                debug_assert!(
                    problem.verify(&binding).is_some(),
                    "learned-search witness failed re-verification"
                );
                return (Ok(Some(binding)), stats);
            }
            // Root exhaustion under sound cuts, or an empty learned
            // clause: certified infeasibility (not budget-limited).
            Ok(NodeOutcome::Refuted) | Err(Stop::GlobalInfeasible) => return (Ok(None), stats),
            Err(Stop::Budget) => {
                return (
                    Err(SearchInterrupted::Budget(NodeLimitExceeded {
                        limit: limits.max_nodes,
                    })),
                    stats,
                )
            }
            Err(Stop::Cancelled) => return (Err(SearchInterrupted::Cancelled), stats),
            Err(Stop::Burst) => {
                restart += 1;
                stats.restarts = restart;
                store.restart_maintenance();
            }
        }
    }
}

/// The learned feasibility search: a deterministic restart portfolio of
/// [`PORTFOLIO_WIDTH`] members raced on the process-wide executor. The
/// lowest-indexed member with a definitive answer (feasible witness or
/// certified infeasibility) wins — by index, never by wall-clock — and
/// later members are cancelled; earlier members that exhausted their
/// budget are still accounted in the returned [`SearchStats`]. Verdicts
/// and stats are therefore pure functions of `(problem, limits)`,
/// independent of worker count, which is what the probe scheduler's
/// replay determinism relies on.
pub(crate) fn find_feasible(
    problem: &BindingProblem,
    limits: &SolveLimits,
    cancel: &CancelToken,
) -> Result<(Option<Binding>, SearchStats), SearchInterrupted> {
    if problem.num_targets == 0 {
        return Ok((
            Some(Binding {
                assignment: Vec::new(),
                max_bus_overlap: 0,
            }),
            SearchStats::default(),
        ));
    }
    type MemberResult = (Result<Option<Binding>, SearchInterrupted>, SearchStats);
    stbus_exec::scope(|s: &stbus_exec::TaskScope<'_, '_, MemberResult>| {
        for member in 0..PORTFOLIO_WIDTH as u64 {
            s.submit(move |token: &CancelToken| run_member(problem, limits, member, cancel, token));
        }
        let mut stats = SearchStats::default();
        let mut failure: Option<SearchInterrupted> = None;
        for member in 0..PORTFOLIO_WIDTH {
            let (answer, member_stats) = s.take(member);
            stats.absorb(member_stats);
            match answer {
                Ok(definitive) => {
                    s.cancel_all();
                    return Ok((definitive, stats));
                }
                Err(interrupt) => {
                    // Budget dominates Cancelled: a cancelled member
                    // only surfaces when the caller cancelled the whole
                    // search (member tokens are raised by us alone after
                    // a win, which returns above).
                    match (&failure, interrupt) {
                        (_, SearchInterrupted::Budget(b)) => {
                            failure = Some(SearchInterrupted::Budget(b));
                        }
                        (None, SearchInterrupted::Cancelled) => {
                            failure = Some(SearchInterrupted::Cancelled);
                        }
                        _ => {}
                    }
                }
            }
        }
        Err(failure.expect("no winner implies a recorded failure"))
    })
}

#[cfg(test)]
mod tests {
    use super::super::{BindingProblem, SearchLevel, SolveLimits};
    use super::*;

    fn learned_limits(seed: u64) -> SolveLimits {
        SolveLimits::default()
            .with_search(SearchLevel::Learned)
            .with_learned_seed(seed)
    }

    #[test]
    fn luby_prefix() {
        let got: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(got, [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn identity_value_order_for_member_zero() {
        assert_eq!(value_order(5, 7, 0, 0), vec![0, 1, 2, 3, 4]);
        // Later restarts and members really do perturb.
        assert_ne!(value_order(16, 7, 0, 1), (0..16).collect::<Vec<_>>());
        assert_ne!(value_order(16, 7, 1, 0), (0..16).collect::<Vec<_>>());
        // And deterministically so.
        assert_eq!(value_order(16, 7, 1, 3), value_order(16, 7, 1, 3));
    }

    #[test]
    fn verdicts_match_standard_on_small_instances() {
        let cases = vec![
            BindingProblem::new(1, 100, vec![vec![30], vec![40]]),
            BindingProblem::new(1, 100, vec![vec![60], vec![50]]),
            BindingProblem::new(2, 100, vec![vec![60], vec![50]]),
            BindingProblem::new(1, 100, vec![vec![80, 0], vec![30, 0]]),
            BindingProblem::new(2, 100, vec![vec![10], vec![10], vec![10]])
                .with_conflict(0, 1)
                .with_conflict(1, 2),
            BindingProblem::new(2, 100, vec![vec![1], vec![1], vec![1]])
                .with_conflict(0, 1)
                .with_conflict(1, 2)
                .with_conflict(0, 2),
            BindingProblem::new(1, 1000, vec![vec![1]; 5]).with_maxtb(4),
            BindingProblem::new(2, 1000, vec![vec![1]; 5]).with_maxtb(4),
            BindingProblem::new(5, 100, vec![vec![18]; 24]).with_maxtb(4),
            BindingProblem::new(4, 100, vec![vec![18]; 24]).with_maxtb(4),
        ];
        for (i, p) in cases.into_iter().enumerate() {
            let standard = p.find_feasible(&SolveLimits::default()).unwrap();
            let (learned, stats) = p
                .find_feasible_stats_cancellable(&learned_limits(42), &CancelToken::new())
                .unwrap();
            assert_eq!(
                standard.is_some(),
                learned.is_some(),
                "verdict mismatch on case {i}"
            );
            if let Some(b) = learned {
                assert!(p.verify(&b).is_some(), "unverifiable witness on case {i}");
                // A witness costs at least one branch per target.
                assert!(stats.nodes >= p.num_targets as u64, "case {i}: {stats:?}");
            }
        }
    }

    #[test]
    fn learned_search_is_deterministic() {
        // Dense-conflict instance: enough refutation to learn clauses.
        let mut p = BindingProblem::new(5, 100, vec![vec![12]; 18]).with_maxtb(5);
        for t in 0..17 {
            p = p.with_conflict(t, t + 1);
        }
        let limits = learned_limits(7);
        let root = CancelToken::new();
        let (a, sa) = p.find_feasible_stats_cancellable(&limits, &root).unwrap();
        let (b, sb) = p.find_feasible_stats_cancellable(&limits, &root).unwrap();
        assert_eq!(a.is_some(), b.is_some());
        assert_eq!(sa, sb, "stats must be a pure function of (problem, limits)");
    }

    #[test]
    fn infeasible_proof_with_learning() {
        // 24 unit targets, maxtb 4, 5 buses → 20 slots < 24 targets.
        let p = BindingProblem::new(5, 100, vec![vec![1]; 24]).with_maxtb(4);
        let (verdict, _) = p
            .find_feasible_stats_cancellable(&learned_limits(0), &CancelToken::new())
            .unwrap();
        assert_eq!(verdict, None);
    }

    #[test]
    fn budget_exhaustion_reports_budget() {
        let p = BindingProblem::new(6, 100, vec![vec![14]; 30]).with_maxtb(6);
        // 30 targets: a witness needs ≥ 30 branches and exhaustion far
        // more, so 10 nodes cannot reach a definitive answer.
        let limits = SolveLimits::nodes(10)
            .with_search(SearchLevel::Learned)
            .with_learned_seed(1);
        match p.find_feasible_stats_cancellable(&limits, &CancelToken::new()) {
            Err(SearchInterrupted::Budget(e)) => assert_eq!(e.limit, 10),
            Err(SearchInterrupted::Cancelled) => panic!("a root token is never raised"),
            Ok((verdict, stats)) => panic!(
                "expected budget exhaustion, got verdict {:?} with {:?}",
                verdict.map(|_| "feasible"),
                stats
            ),
        }
    }
}
