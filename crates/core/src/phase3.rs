//! Phase 3 — optimal crossbar synthesis (the paper's §6 algorithm).
//!
//! Two steps:
//!
//! 1. **Configuration search (MILP-1)** — binary search over the bus count
//!    for the minimum size whose feasibility MILP (Eq. 3–9) admits a
//!    solution. Feasibility is monotone in the bus count (any binding
//!    remains valid with extra buses), so binary search is sound.
//! 2. **Optimal binding (MILP-2)** — for the minimum size, minimise
//!    `maxov`, the maximum aggregate pairwise overlap on any single bus
//!    (Eq. 11), which is what reduces average and peak latency.
//!
//! There is one exact solve path, [`ProbeScheduler::synthesize`], and one
//! heuristic path, [`synthesize_heuristic`]. Both take a cooperative
//! [`CancelToken`]; callers that never cancel pass a fresh root token
//! (the [`crate::synthesizer::Synthesizer::synthesize`] convenience does
//! exactly that). A width-1 scheduler *is* the sequential binary search:
//! it solves each consumed probe inline, with no speculation and no
//! threads, and wider schedulers replay that search bit for bit.
//!
//! Every feasibility probe runs on the word-parallel bitset conflict
//! graph produced by phase 2 (see [`stbus_traffic::ConflictGraph`] and
//! [`stbus_milp::binding`]), the binary search starts from the
//! greedy-coloring clique bound, and the exact DFS prunes with the
//! admissible per-node lower bounds of [`stbus_milp::bounds`]
//! (clique-cover + bandwidth-packing + forced-assignment propagation) —
//! the changes that let phase 3 scale to SoCs several times larger than
//! the paper suite: the full exact pipeline now completes at 32 targets,
//! where the unpruned search blows its node budget. The solver limits
//! live in one place, [`DesignParams::solve_limits`].

use crate::exec::{self, CancelToken};
use crate::params::DesignParams;
use crate::phase2::Preprocessed;
use stbus_milp::{Binding, HeuristicOptions, NodeLimitExceeded, SearchInterrupted, SearchStats};
use stbus_sim::CrossbarConfig;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::num::NonZeroUsize;

/// Which solving engine produced a [`SynthesisOutcome`].
///
/// Mostly informational, but [`crate::synthesizer::Portfolio`] callers use
/// it to detect that the exact search ran out of budget and the heuristic
/// fallback supplied the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynthesisEngine {
    /// The exact backtracking solver (optimality/infeasibility proofs).
    Exact,
    /// The greedy + local-search heuristic (no proofs).
    Heuristic,
}

impl fmt::Display for SynthesisEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisEngine::Exact => write!(f, "exact"),
            SynthesisEngine::Heuristic => write!(f, "heuristic"),
        }
    }
}

/// Result of the synthesis phase for one crossbar direction.
#[derive(Debug, Clone)]
pub struct SynthesisOutcome {
    /// The designed configuration.
    pub config: CrossbarConfig,
    /// The optimal binding backing the configuration.
    pub binding: Binding,
    /// Number of buses in the design.
    pub num_buses: usize,
    /// The lower bound the binary search started from.
    pub lower_bound: usize,
    /// Bus counts probed by the binary search, with their feasibility.
    pub probes: Vec<(usize, bool)>,
    /// The minimised maximum per-bus overlap (`maxov`).
    pub max_bus_overlap: u64,
    /// The engine that produced this outcome.
    pub engine: SynthesisEngine,
    /// Search statistics accumulated over the *consumed* feasibility
    /// probes. Deterministic: the replay
    /// consumes the same probes at any speculation width. Zero for
    /// heuristic outcomes.
    pub stats: SearchStats,
}

impl SynthesisOutcome {
    /// Machine-readable rendering of the outcome, labelled with the
    /// `solver` that produced it. Hand-rolled (the offline build carries
    /// no JSON dependency) and **stable**: the CLI's `--json` output and
    /// the gateway's wire format both emit exactly this string, which is
    /// what lets integration tests diff the two byte for byte.
    #[must_use]
    pub fn to_json(&self, solver: &str) -> String {
        let assignment = self
            .config
            .assignment()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let probes = self
            .probes
            .iter()
            .map(|&(buses, feasible)| format!("[{buses},{feasible}]"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"solver\":\"{solver}\",\"engine\":\"{engine}\",\"num_buses\":{buses},\
             \"lower_bound\":{lb},\"max_bus_overlap\":{maxov},\
             \"assignment\":[{assignment}],\"probes\":[{probes}]}}",
            engine = self.engine,
            buses = self.num_buses,
            lb = self.lower_bound,
            maxov = self.max_bus_overlap,
        )
    }
}

/// Assembles an outcome from a binding at `num_buses`.
fn outcome(
    params: &DesignParams,
    binding: Binding,
    num_buses: usize,
    lower_bound: usize,
    probes: Vec<(usize, bool)>,
    engine: SynthesisEngine,
    stats: SearchStats,
) -> SynthesisOutcome {
    let config = CrossbarConfig::from_assignment(binding.assignment().to_vec(), num_buses)
        .expect("solver produced a valid assignment")
        .with_arbitration(params.arbitration);
    SynthesisOutcome {
        config,
        max_bus_overlap: binding.max_bus_overlap(),
        binding,
        num_buses,
        lower_bound,
        probes,
        engine,
        stats,
    }
}

/// The design of a system without targets: one (empty) bus, no probes.
fn empty_outcome() -> SynthesisOutcome {
    SynthesisOutcome {
        config: CrossbarConfig::from_assignment(Vec::new(), 1).expect("empty assignment is valid"),
        binding: Binding::from_assignment(Vec::new()),
        num_buses: 1,
        lower_bound: 1,
        probes: Vec::new(),
        max_bus_overlap: 0,
        engine: SynthesisEngine::Exact,
        stats: SearchStats::default(),
    }
}

/// The full crossbar (one bus per target), always feasible because the
/// window analysis guarantees `comm(i,m) ≤ WS`.
fn full_binding(n: usize) -> Binding {
    Binding::from_assignment((0..n).collect())
}

/// Heuristic synthesis: scans bus counts upward from the lower bound
/// using the greedy + local-search solver of [`stbus_milp::heuristic`].
/// Polynomial time, but without optimality or infeasibility proofs —
/// intended for large design-space sweeps where the exact search is too
/// slow; the `solver_ablation` experiment quantifies the quality gap
/// (none, on the paper suites).
///
/// `None` means `cancel` was raised: the scan stops between bus counts
/// and the annealer aborts mid-repair.
#[must_use]
pub fn synthesize_heuristic(
    pre: &Preprocessed,
    params: &DesignParams,
    options: &HeuristicOptions,
    cancel: &CancelToken,
) -> Option<SynthesisOutcome> {
    let n = pre.stats.num_targets();
    if n == 0 {
        return Some(empty_outcome());
    }
    let lower_bound = pre.bus_lower_bound();
    let mut probes = Vec::new();
    let mut found = None;
    for buses in lower_bound..=n {
        if cancel.is_cancelled() {
            return None;
        }
        let problem = pre.binding_problem(buses);
        match stbus_milp::solve_heuristic_cancellable(&problem, options, cancel) {
            Some(binding) => {
                probes.push((buses, true));
                found = Some((buses, binding));
                break;
            }
            // `None` is "no witness" *or* "cancelled mid-anneal";
            // disambiguate before recording an infeasibility verdict.
            None if cancel.is_cancelled() => return None,
            None => probes.push((buses, false)),
        }
    }
    // The full crossbar always fits; greedy construction cannot miss it.
    let (buses, binding) = found.unwrap_or_else(|| (n, full_binding(n)));
    Some(outcome(
        params,
        binding,
        buses,
        lower_bound,
        probes,
        SynthesisEngine::Heuristic,
        SearchStats::default(),
    ))
}

/// One resolved feasibility probe held in the scheduler's cache.
#[derive(Debug, Clone)]
struct ProbeOutcome {
    /// `Some(binding)` when the probe proved its bus count feasible.
    feasible: Option<Binding>,
    /// Whether the proof came from the exact engine (`false` when the
    /// heuristic pre-pass won the race — sound for the feasibility bit,
    /// but not the binding the exact search would have produced).
    exact: bool,
    /// The probe's search statistics (zero for heuristic-won probes).
    stats: SearchStats,
}

/// The exact phase-3 solver: the MILP-1 binary search, optionally with
/// speculative parallel probes, followed by MILP-2 at the minimum size.
///
/// At width 1 the scheduler is the plain sequential binary search: each
/// consumed probe is solved inline, no speculation, no threads. The
/// sequential search probes one bus count at a time, yet the probe at
/// `mid` only ever leads to two possible follow-ups: the
/// midpoint of `[lo, mid]` if feasible, of `[mid+1, hi]` if not. All
/// candidate probes in the next few levels of that decision tree are
/// **independent** solver calls, so the scheduler submits a speculative
/// wave of them as tasks on the process-wide executor ([`crate::exec`] —
/// the same worker set [`crate::Batch`] stages and the annealer's repair
/// restarts run on), then *replays the sequential search* against the
/// cached answers. Determinism falls out by construction:
///
/// * each probe is a pure function of its bus count — which thread solves
///   it, and in which order, cannot change its answer;
/// * the replay consumes exactly the probes the sequential search would
///   have executed, in the same order, so [`SynthesisOutcome::probes`],
///   the chosen size and the final MILP-2 binding are **bit-identical**
///   to the width-1 search — the `probe_scheduler` equivalence suite proves
///   it on the paper workloads and on random instances;
/// * speculative probes the replay never consumes are discarded, errors
///   included, so node-budget behaviour matches the sequential search.
///
/// With [`ProbeScheduler::with_race`], every probe additionally runs the
/// polynomial heuristic as a *deterministic pre-pass*: if the heuristic
/// finds a feasible binding, the probe is feasible and the exact solver
/// is skipped for it (a heuristic witness is a genuine feasibility
/// certificate, so the feasibility bit — the only thing a probe
/// contributes to the search — is unchanged). This is the
/// exact-vs-heuristic race of the [`crate::synthesizer::Portfolio`]
/// strategy, made deterministic by structure rather than by timing: the
/// winner is decided by whether the heuristic succeeds, never by which
/// thread finishes first. Outcomes remain bit-identical to the
/// sequential exact search whenever that search completes within its
/// node budget; under a starved budget the raced search can only succeed
/// *more* often (it errors only where the heuristic also failed to
/// certify the probe).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeScheduler {
    jobs: NonZeroUsize,
    race: Option<HeuristicOptions>,
}

impl ProbeScheduler {
    /// A scheduler speculating up to `jobs` probes at a time. `jobs = 1`
    /// degenerates to the plain sequential binary search (no speculation,
    /// no threads).
    #[must_use]
    pub fn new(jobs: NonZeroUsize) -> Self {
        Self { jobs, race: None }
    }

    /// A scheduler sized to the executor's parallelism
    /// ([`exec::parallelism`]).
    #[must_use]
    pub fn available() -> Self {
        Self::new(NonZeroUsize::new(exec::parallelism()).expect("parallelism is positive"))
    }

    /// Enables the deterministic exact-vs-heuristic race per probe.
    #[must_use]
    pub fn with_race(mut self, options: HeuristicOptions) -> Self {
        self.race = Some(options);
        self
    }

    /// The probes the search *could* reach from the interval `[lo, hi)`,
    /// breadth-first with the certain next probe first, skipping `known`
    /// ones — capped at the `jobs` width so speculation never outruns
    /// what the caller asked to keep in flight.
    fn wave(&self, lo: usize, hi: usize, known: &HashSet<usize>) -> Vec<usize> {
        let mut wave = Vec::new();
        let mut intervals = VecDeque::from([(lo, hi)]);
        while let Some((l, h)) = intervals.pop_front() {
            if wave.len() >= self.jobs.get() {
                break;
            }
            if l >= h {
                continue;
            }
            let mid = l + (h - l) / 2;
            if !known.contains(&mid) && !wave.contains(&mid) {
                wave.push(mid);
            }
            intervals.push_back((l, mid)); // follow-up if `mid` is feasible
            intervals.push_back((mid + 1, h)); // … and if it is not
        }
        wave
    }

    /// Every probe the binary search over `[lo, hi)` could still consume:
    /// the midpoints of the whole decision tree. Intervals only narrow,
    /// so this set shrinks monotonically — once a probe falls out it can
    /// never be asked for again, which is what makes cancelling it sound.
    fn reachable(lo: usize, hi: usize, out: &mut HashSet<usize>) {
        if lo >= hi {
            return;
        }
        let mid = lo + (hi - lo) / 2;
        out.insert(mid);
        Self::reachable(lo, mid, out);
        Self::reachable(mid + 1, hi, out);
    }

    /// Solves one feasibility probe under `cancel`: heuristic pre-pass
    /// first when racing, exact search otherwise. `None` means the probe
    /// was cancelled (its answer became unreachable, or the request went
    /// away) — the result is dropped, never consumed. In raced mode the
    /// heuristic pre-pass itself is cancellable, so an abandoned probe
    /// stops mid-anneal instead of finishing a repair nobody reads.
    fn probe(
        &self,
        pre: &Preprocessed,
        params: &DesignParams,
        buses: usize,
        cancel: &CancelToken,
    ) -> Option<ProbeResult> {
        let problem = pre.binding_problem(buses);
        if let Some(options) = &self.race {
            if let Some(binding) =
                stbus_milp::solve_heuristic_cancellable(&problem, options, cancel)
            {
                return Some(Ok(ProbeOutcome {
                    feasible: Some(binding),
                    exact: false,
                    stats: SearchStats::default(),
                }));
            }
            // A `None` pre-pass is "no witness" *or* "cancelled"; either
            // way the exact search below notices a raised token at its
            // first poll, so the distinction is immaterial here.
        }
        match problem.find_feasible_stats_cancellable(&params.solve_limits, cancel) {
            Ok((feasible, stats)) => Some(Ok(ProbeOutcome {
                feasible,
                exact: true,
                stats,
            })),
            Err(SearchInterrupted::Budget(e)) => Some(Err(e)),
            Err(SearchInterrupted::Cancelled) => None,
        }
    }

    /// The sequential binary search over `[lower_bound, n)`, with probe
    /// answers supplied by `resolve`. A `resolve` returning `None` (the
    /// probe's answer was abandoned because the request driving the
    /// search went away) aborts the search, which then reports `Ok(None)`.
    fn binary_search(
        lower_bound: usize,
        n: usize,
        mut resolve: impl FnMut(usize, usize, usize) -> Option<ProbeResult>,
    ) -> Result<Option<SearchSummary>, NodeLimitExceeded> {
        let mut lo = lower_bound;
        let mut hi = n;
        let mut probes = Vec::new();
        let mut stats = SearchStats::default();
        let mut best_feasible = None;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let Some(result) = resolve(lo, hi, mid) else {
                return Ok(None);
            };
            let outcome = result?;
            stats.absorb(outcome.stats);
            match outcome {
                ProbeOutcome {
                    feasible: Some(binding),
                    exact,
                    ..
                } => {
                    probes.push((mid, true));
                    best_feasible = Some((mid, binding, exact));
                    hi = mid;
                }
                ProbeOutcome { feasible: None, .. } => {
                    probes.push((mid, false));
                    lo = mid + 1;
                }
            }
        }
        Ok(Some(SearchSummary {
            num_buses: lo,
            probes,
            best_feasible,
            stats,
        }))
    }

    /// Runs the binary search with speculative parallel probes: executor
    /// tasks keep solving the reachable frontier while the replay
    /// consumes answers in sequential order; probes whose answers become
    /// unreachable are cancelled mid-solve. The replay thread *helps*
    /// while it waits — on a saturated executor it solves probes itself,
    /// so the scheduler can never be starved by other scopes.
    ///
    /// Every probe task runs under a token *linked* to `cancel`
    /// ([`CancelToken::child_linked`]) and the replay polls it between
    /// probes: raising `cancel` — e.g. a gateway request whose client hung
    /// up — abandons the whole speculative wave mid-solve and the search
    /// reports `Ok(None)`.
    fn parallel_search(
        &self,
        pre: &Preprocessed,
        params: &DesignParams,
        lower_bound: usize,
        n: usize,
        cancel: &CancelToken,
    ) -> Result<Option<SearchSummary>, NodeLimitExceeded> {
        exec::scope(|s: &exec::TaskScope<'_, '_, Option<ProbeResult>>| {
            // Bus count → task index of its (possibly finished) probe.
            // Tasks are never removed: a cancelled probe's bus count is
            // unreachable forever (intervals only narrow), so it can
            // never be proposed or consumed again.
            let mut task_of: HashMap<usize, usize> = HashMap::new();
            let summary = Self::binary_search(lower_bound, n, |lo, hi, mid| {
                if cancel.is_cancelled() {
                    return None;
                }
                // Prune work this interval can no longer consume: cancel
                // the probes (queued or mid-solve) outside the tree.
                let mut reachable = HashSet::new();
                Self::reachable(lo, hi, &mut reachable);
                for (&buses, &task) in &task_of {
                    if !reachable.contains(&buses) {
                        s.cancel(task);
                    }
                }
                // Top the frontier up to the speculation budget.
                let known: HashSet<usize> = task_of.keys().copied().collect();
                for buses in self.wave(lo, hi, &known) {
                    let task = s.submit(move |token| {
                        self.probe(pre, params, buses, &token.child_linked(cancel))
                    });
                    task_of.insert(buses, task);
                }
                // Consume the one probe the sequential search needs next
                // (the wave always leads with it, so it is always
                // submitted by now). Promote it first: the consume-next
                // probe jumps the executor's priority lane ahead of the
                // speculative backlog, so a saturated worker set starts
                // it before deeper speculation — a scheduling hint only,
                // results are bit-identical (claim-once tickets). The
                // replay never cancels a probe still in the reachable
                // set, so a `None` here means `cancel` was raised.
                s.promote(task_of[&mid]);
                s.take(task_of[&mid])
            });
            // Unconsumed speculation is cancelled here (and drained by
            // the scope on exit) before MILP-2 takes the cores.
            s.cancel_all();
            summary
        })
    }

    /// Synthesises the minimum crossbar and its optimal binding under a
    /// cooperative [`CancelToken`]: `Ok(None)` means the token was raised
    /// and the synthesis was abandoned — speculative probes stop
    /// mid-solve and MILP-2 aborts at its next poll checkpoint. Callers
    /// that never cancel pass `&CancelToken::new()`.
    ///
    /// # Errors
    ///
    /// [`NodeLimitExceeded`] if the exact solver exhausts its node budget
    /// (raise [`DesignParams::solve_limits`] for pathological instances):
    /// from a probe the sequential search consumes, or from the final
    /// MILP-2 optimisation. Errors of discarded speculative probes are
    /// dropped with them, so every width fails exactly when width 1 does.
    pub fn synthesize(
        &self,
        pre: &Preprocessed,
        params: &DesignParams,
        cancel: &CancelToken,
    ) -> Result<Option<SynthesisOutcome>, NodeLimitExceeded> {
        let n = pre.stats.num_targets();
        if n == 0 {
            return Ok(Some(empty_outcome()));
        }
        if cancel.is_cancelled() {
            return Ok(None);
        }

        // Binary search the minimum feasible bus count in [lb, n]; the
        // full crossbar at `n` is always feasible.
        let lower_bound = pre.bus_lower_bound();
        let summary = if self.jobs.get() <= 1 {
            // No speculation: solve each consumed probe inline, polling
            // the token as it solves.
            Self::binary_search(lower_bound, n, |_, _, mid| {
                if cancel.is_cancelled() {
                    return None;
                }
                self.probe(pre, params, mid, cancel)
            })
        } else {
            self.parallel_search(pre, params, lower_bound, n, cancel)
        }?;
        let Some(SearchSummary {
            num_buses,
            probes,
            best_feasible,
            stats,
        }) = summary
        else {
            return Ok(None);
        };

        // MILP-2: optimal binding at the minimum size, every rung of the
        // fallback ladder polling the token. `lo == hi == n` with `n`
        // never probed falls back to the last feasible probe or the
        // trivially feasible full binding. A heuristic-won probe does not
        // carry the binding the exact probe would have produced, so that
        // corner re-runs the (deterministic) exact probe.
        let problem = pre.binding_problem(num_buses);
        let optimized = problem
            .optimize_cancellable(&params.solve_limits, cancel)
            .and_then(|best| match (best, best_feasible) {
                (Some(b), _) => Ok(b),
                (None, Some((buses, b, true))) if buses == num_buses => Ok(b),
                (None, Some((buses, _, false))) if buses == num_buses => problem
                    .find_feasible_stats_cancellable(&params.solve_limits, cancel)
                    .map(|(b, _)| b.expect("probe certified this size feasible")),
                (None, _) => Ok(full_binding(n)),
            });
        let binding = match optimized {
            Ok(binding) => binding,
            Err(SearchInterrupted::Budget(e)) => return Err(e),
            Err(SearchInterrupted::Cancelled) => return Ok(None),
        };
        Ok(Some(outcome(
            params,
            binding,
            num_buses,
            lower_bound,
            probes,
            SynthesisEngine::Exact,
            stats,
        )))
    }
}

type ProbeResult = Result<ProbeOutcome, NodeLimitExceeded>;

/// What the configuration search hands to MILP-2: the minimum size, the
/// consumed probe log, and the best feasible probe for the fallback path.
struct SearchSummary {
    num_buses: usize,
    probes: Vec<(usize, bool)>,
    best_feasible: Option<(usize, Binding, bool)>,
    /// Statistics summed over the consumed probes, replay order.
    stats: SearchStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbus_traffic::{InitiatorId, TargetId, Trace, TraceEvent};

    fn params(ws: u64, threshold: f64) -> DesignParams {
        DesignParams::default()
            .with_window_size(ws)
            .with_overlap_threshold(threshold)
    }

    fn pre_of(trace: &Trace, p: &DesignParams) -> Preprocessed {
        Preprocessed::analyze(trace, p)
    }

    /// The sequential reference: a width-1 scheduler under a root token.
    fn synthesize(
        pre: &Preprocessed,
        p: &DesignParams,
    ) -> Result<SynthesisOutcome, NodeLimitExceeded> {
        scheduled(ProbeScheduler::new(NonZeroUsize::MIN), pre, p)
    }

    fn scheduled(
        scheduler: ProbeScheduler,
        pre: &Preprocessed,
        p: &DesignParams,
    ) -> Result<SynthesisOutcome, NodeLimitExceeded> {
        scheduler
            .synthesize(pre, p, &CancelToken::new())
            .map(|o| o.expect("a root token is never raised"))
    }

    fn heuristic(
        pre: &Preprocessed,
        p: &DesignParams,
        cancel: &CancelToken,
    ) -> Option<SynthesisOutcome> {
        synthesize_heuristic(pre, p, &HeuristicOptions::default(), cancel)
    }

    #[test]
    fn single_idle_target_gets_one_bus() {
        let mut tr = Trace::new(1, 1);
        tr.push(TraceEvent::new(
            InitiatorId::new(0),
            TargetId::new(0),
            0,
            10,
        ));
        let p = params(100, 0.5);
        let out = synthesize(&pre_of(&tr, &p), &p).unwrap();
        assert_eq!(out.num_buses, 1);
        assert!(out.config.is_full());
    }

    #[test]
    fn bandwidth_forces_minimum_size() {
        // Three targets, each 60 busy cycles in the same 100-cycle window:
        // 180/100 → at least 2 buses; pairwise any two = 120 > 100 → 3.
        let mut tr = Trace::new(3, 3);
        for t in 0..3 {
            tr.push(TraceEvent::new(
                InitiatorId::new(t),
                TargetId::new(t),
                0,
                60,
            ));
        }
        let p = params(100, 1.0); // threshold above 0.6 → no conflicts
        let out = synthesize(&pre_of(&tr, &p), &p).unwrap();
        assert_eq!(out.num_buses, 3);
    }

    #[test]
    fn disjoint_traffic_shares_one_bus() {
        // Four targets active in different windows → one bus suffices
        // (maxtb = 4 allows it).
        let mut tr = Trace::new(1, 4);
        for t in 0..4 {
            tr.push(TraceEvent::new(
                InitiatorId::new(0),
                TargetId::new(t),
                (t as u64) * 100,
                90,
            ));
        }
        let p = params(100, 0.5);
        let out = synthesize(&pre_of(&tr, &p), &p).unwrap();
        assert_eq!(out.num_buses, 1);
        assert_eq!(out.config.max_targets_per_bus(), 4);
    }

    #[test]
    fn maxtb_caps_sharing() {
        let mut tr = Trace::new(1, 4);
        for t in 0..4 {
            tr.push(TraceEvent::new(
                InitiatorId::new(0),
                TargetId::new(t),
                (t as u64) * 100,
                90,
            ));
        }
        let p = params(100, 0.5).with_maxtb(2);
        let out = synthesize(&pre_of(&tr, &p), &p).unwrap();
        assert_eq!(out.num_buses, 2);
        assert!(out.config.max_targets_per_bus() <= 2);
    }

    #[test]
    fn conflicts_expand_the_crossbar() {
        // Two targets with full overlap and a tight threshold must split.
        let mut tr = Trace::new(2, 2);
        tr.push(TraceEvent::new(
            InitiatorId::new(0),
            TargetId::new(0),
            0,
            40,
        ));
        tr.push(TraceEvent::new(
            InitiatorId::new(1),
            TargetId::new(1),
            0,
            40,
        ));
        let loose = params(100, 0.5);
        let out = synthesize(&pre_of(&tr, &loose), &loose).unwrap();
        assert_eq!(out.num_buses, 1);
        let tight = params(100, 0.1);
        let out = synthesize(&pre_of(&tr, &tight), &tight).unwrap();
        assert_eq!(out.num_buses, 2);
    }

    #[test]
    fn binding_satisfies_all_constraints() {
        let app = stbus_traffic::workloads::matrix::mat2(11);
        let p = DesignParams::default();
        let collected = crate::phase1::collect(&app, &p);
        let pre = pre_of(&collected.it_trace, &p);
        let out = synthesize(&pre, &p).unwrap();
        let problem = pre.binding_problem(out.num_buses);
        assert_eq!(
            problem.verify(&out.binding),
            Some(out.max_bus_overlap),
            "synthesised binding violates its own constraints"
        );
    }

    #[test]
    fn minimality_certificate() {
        // The probe list must contain an infeasible probe at num_buses-1
        // or the lower bound must equal num_buses.
        let app = stbus_traffic::workloads::matrix::mat2(13);
        let p = DesignParams::default();
        let collected = crate::phase1::collect(&app, &p);
        let pre = pre_of(&collected.it_trace, &p);
        let out = synthesize(&pre, &p).unwrap();
        if out.num_buses > out.lower_bound {
            assert!(
                out.probes.contains(&(out.num_buses - 1, false)),
                "no infeasibility certificate below the chosen size"
            );
        }
        // And the chosen size itself must be feasible.
        let problem = pre.binding_problem(out.num_buses);
        assert!(problem.find_feasible(&p.solve_limits).unwrap().is_some());
    }

    #[test]
    fn heuristic_matches_exact_on_mat2() {
        let app = stbus_traffic::workloads::matrix::mat2(17);
        let p = DesignParams::default().with_overlap_threshold(0.15);
        let collected = crate::phase1::collect(&app, &p);
        let pre = pre_of(&collected.it_trace, &p);
        let exact = synthesize(&pre, &p).unwrap();
        let heuristic = heuristic(&pre, &p, &CancelToken::new()).unwrap();
        assert_eq!(heuristic.num_buses, exact.num_buses);
        // The heuristic's objective must verify and stay close to optimal.
        let problem = pre.binding_problem(heuristic.num_buses);
        assert_eq!(
            problem.verify(&heuristic.binding),
            Some(heuristic.max_bus_overlap)
        );
        assert!(heuristic.max_bus_overlap <= 2 * exact.max_bus_overlap.max(1));
    }

    #[test]
    fn empty_system() {
        let tr = Trace::new(0, 0);
        let p = params(100, 0.3);
        let out = synthesize(&pre_of(&tr, &p), &p).unwrap();
        assert_eq!(out.num_buses, 1);
        assert!(out.binding.assignment().is_empty());
    }

    fn assert_same_outcome(label: &str, a: &SynthesisOutcome, b: &SynthesisOutcome) {
        assert_eq!(a.num_buses, b.num_buses, "{label}: bus count");
        assert_eq!(a.lower_bound, b.lower_bound, "{label}: lower bound");
        assert_eq!(a.probes, b.probes, "{label}: probe sequence");
        assert_eq!(a.max_bus_overlap, b.max_bus_overlap, "{label}: maxov");
        assert_eq!(a.binding, b.binding, "{label}: binding");
        assert_eq!(
            a.config.assignment(),
            b.config.assignment(),
            "{label}: config"
        );
        assert_eq!(a.engine, b.engine, "{label}: engine");
    }

    #[test]
    fn scheduler_matches_sequential_search() {
        let app = stbus_traffic::workloads::matrix::mat2(23);
        let p = DesignParams::default().with_overlap_threshold(0.15);
        let collected = crate::phase1::collect(&app, &p);
        let pre = pre_of(&collected.it_trace, &p);
        let sequential = synthesize(&pre, &p).unwrap();
        for jobs in [1usize, 2, 4, 16] {
            let jobs = NonZeroUsize::new(jobs).unwrap();
            let plain = scheduled(ProbeScheduler::new(jobs), &pre, &p).unwrap();
            assert_same_outcome("plain", &plain, &sequential);
            let raced = ProbeScheduler::new(jobs).with_race(HeuristicOptions::default());
            let raced = scheduled(raced, &pre, &p).unwrap();
            assert_same_outcome("raced", &raced, &sequential);
        }
    }

    #[test]
    fn cancellable_paths_match_plain_when_uncancelled() {
        // A live, un-raised request token (a child of the gateway's
        // request root) leaves every path identical to the root-token run.
        let app = stbus_traffic::workloads::matrix::mat2(29);
        let p = DesignParams::default().with_overlap_threshold(0.15);
        let collected = crate::phase1::collect(&app, &p);
        let pre = pre_of(&collected.it_trace, &p);
        let request = CancelToken::new().child();

        let plain_exact = synthesize(&pre, &p).unwrap();
        for jobs in [1usize, 4] {
            let scheduler = ProbeScheduler::new(NonZeroUsize::new(jobs).unwrap());
            let cancellable = scheduler
                .synthesize(&pre, &p, &request)
                .unwrap()
                .expect("un-cancelled token never aborts");
            assert_same_outcome("cancellable exact", &cancellable, &plain_exact);
        }

        let plain_heur = heuristic(&pre, &p, &CancelToken::new()).unwrap();
        let cancellable_heur =
            heuristic(&pre, &p, &request).expect("un-cancelled token never aborts");
        assert_same_outcome("cancellable heuristic", &cancellable_heur, &plain_heur);
    }

    #[test]
    fn raised_token_abandons_synthesis() {
        let app = stbus_traffic::workloads::matrix::mat2(31);
        let p = DesignParams::default().with_overlap_threshold(0.15);
        let collected = crate::phase1::collect(&app, &p);
        let pre = pre_of(&collected.it_trace, &p);
        let token = CancelToken::new();
        token.cancel();
        for jobs in [1usize, 4] {
            let scheduler = ProbeScheduler::new(NonZeroUsize::new(jobs).unwrap());
            assert!(scheduler.synthesize(&pre, &p, &token).unwrap().is_none());
        }
        assert!(heuristic(&pre, &p, &token).is_none());
    }

    #[test]
    fn scheduler_wave_leads_with_certain_probe() {
        let s = ProbeScheduler::new(NonZeroUsize::new(3).unwrap());
        let known = HashSet::new();
        // [3, 10): mid 6; feasible branch [3,6) → 4; infeasible [7,10) → 8.
        assert_eq!(s.wave(3, 10, &known), vec![6, 4, 8]);
        // One more slot reaches the third level breadth-first.
        let s4 = ProbeScheduler::new(NonZeroUsize::new(4).unwrap());
        assert_eq!(s4.wave(3, 10, &known), vec![6, 4, 8, 3]);
        // Budget 1: no speculation beyond the certain probe.
        let s1 = ProbeScheduler::new(NonZeroUsize::new(1).unwrap());
        assert_eq!(s1.wave(3, 10, &known), vec![6]);
        // Known probes drop out of the wave.
        let known: HashSet<usize> = [6, 4].into_iter().collect();
        assert_eq!(s.wave(3, 10, &known), vec![8, 3, 5]);
    }

    #[test]
    fn reachable_set_is_the_decision_tree() {
        let mut reachable = HashSet::new();
        ProbeScheduler::reachable(3, 10, &mut reachable);
        // Midpoints of [3,10) and all subintervals.
        let expected: HashSet<usize> = [6, 4, 3, 5, 8, 7, 9].into_iter().collect();
        assert_eq!(reachable, expected);
    }

    #[test]
    fn scheduler_empty_system() {
        let tr = Trace::new(0, 0);
        let p = params(100, 0.3);
        let out = scheduled(ProbeScheduler::available(), &pre_of(&tr, &p), &p).unwrap();
        assert_eq!(out.num_buses, 1);
    }
}
