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
//!    (Eq. 11), which is what reduces average and peak latency. MILP-2
//!    starts from the binary search's witness at the minimum size
//!    ([`stbus_milp::BindingProblem::optimize_from_cancellable`]): the
//!    probe already ran the feasibility search MILP-2 would begin with,
//!    under the same limits, so its binding is the incumbent that search
//!    would recompute.
//!
//! There is one exact solve path, [`synthesize_exact`], and one heuristic
//! path, [`synthesize_heuristic`]. Both solve one direction on the calling
//! thread and take a cooperative [`CancelToken`]; callers that never
//! cancel pass a fresh root token (the
//! [`crate::synthesizer::Synthesizer::synthesize`] convenience does
//! exactly that). The parallelism of phase 3 is one level up: the staged
//! pipeline solves the request and response crossbars concurrently
//! ([`crate::pipeline::Analyzed::synthesize_cancellable`]).
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

use crate::exec::CancelToken;
use crate::params::DesignParams;
use crate::phase2::Preprocessed;
use stbus_milp::{Binding, HeuristicOptions, NodeLimitExceeded, SearchInterrupted, SearchStats};
use stbus_sim::CrossbarConfig;
use std::fmt;

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
    /// Search statistics summed over the feasibility probes, in probe
    /// order. Zero for heuristic outcomes.
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

/// Exact synthesis: the MILP-1 binary search over the bus count, then
/// MILP-2 at the minimum size, seeded with the last feasible probe's
/// witness. Each probe solves its bus count inline, one at a time, with
/// the admissible pruning of [`stbus_milp::bounds`].
///
/// `Ok(None)` means `cancel` was raised and the synthesis was abandoned:
/// the token is polled between probes, inside every probe's search, and
/// by MILP-2. Callers that never cancel pass `&CancelToken::new()`.
///
/// # Errors
///
/// [`NodeLimitExceeded`] if the exact solver exhausts its node budget
/// (raise [`DesignParams::solve_limits`] for pathological instances):
/// in a feasibility probe or in the final MILP-2 optimisation.
pub fn synthesize_exact(
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

    // Binary search the minimum feasible bus count in [lb, n]; the full
    // crossbar at `n` is always feasible.
    let lower_bound = pre.bus_lower_bound();
    let (mut lo, mut hi) = (lower_bound, n);
    let mut probes = Vec::new();
    let mut stats = SearchStats::default();
    // The last feasible probe's binding, found at the final `hi`.
    let mut witness = None;
    let interrupted = |e| match e {
        SearchInterrupted::Budget(e) => Err(e),
        SearchInterrupted::Cancelled => Ok(None),
    };
    while lo < hi {
        if cancel.is_cancelled() {
            return Ok(None);
        }
        let mid = lo + (hi - lo) / 2;
        let (feasible, probe_stats) = match pre
            .binding_problem(mid)
            .find_feasible_stats_cancellable(&params.solve_limits, cancel)
        {
            Ok(answer) => answer,
            Err(e) => return interrupted(e),
        };
        stats.absorb(probe_stats);
        probes.push((mid, feasible.is_some()));
        match feasible {
            Some(binding) => {
                witness = Some(binding);
                hi = mid;
            }
            None => lo = mid + 1,
        }
    }

    // MILP-2: optimal binding at the minimum size, improving on the
    // probe's witness at `lo == hi` — the binding MILP-2's own feasibility
    // pass would recompute. Without a feasible probe `lo == n` was never
    // probed: MILP-2 then runs from scratch, and falls back to the
    // trivially feasible full binding.
    let problem = pre.binding_problem(lo);
    let optimized = match witness {
        Some(witness) => problem
            .optimize_from_cancellable(witness, &params.solve_limits, cancel)
            .map(Some),
        None => problem.optimize_cancellable(&params.solve_limits, cancel),
    };
    let binding = match optimized {
        Ok(binding) => binding.unwrap_or_else(|| full_binding(n)),
        Err(e) => return interrupted(e),
    };
    Ok(Some(outcome(
        params,
        binding,
        lo,
        lower_bound,
        probes,
        SynthesisEngine::Exact,
        stats,
    )))
}

/// Solves the request and response crossbars concurrently: `ti` runs as
/// a task on the process-wide executor under a token linked to `cancel`,
/// `it` on the calling thread under `cancel` itself. The answer is the
/// sequential order's: the request direction's error or `None` (it was
/// cancelled) wins and cancels the response task; otherwise the response
/// direction's error or `None` does; otherwise both outcomes return.
///
/// # Errors
///
/// The request direction's error, else the response direction's.
pub fn solve_directions<T: Send, E: Send>(
    cancel: &CancelToken,
    it: impl FnOnce(&CancelToken) -> Result<Option<T>, E>,
    ti: impl FnOnce(&CancelToken) -> Result<Option<T>, E> + Send,
) -> Result<Option<(T, T)>, E> {
    crate::exec::scope(|s| {
        let ti = s.submit(|token| ti(&token.child_linked(cancel)));
        match it(cancel) {
            Ok(Some(it)) => Ok(s.take(ti)?.map(|ti| (it, ti))),
            lost => {
                s.cancel(ti);
                lost.map(|_| None)
            }
        }
    })
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

    /// The exact search under a root token.
    fn synthesize(
        pre: &Preprocessed,
        p: &DesignParams,
    ) -> Result<SynthesisOutcome, NodeLimitExceeded> {
        synthesize_exact(pre, p, &CancelToken::new())
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
    fn probes_follow_the_binary_search() {
        // Each probe is the midpoint of the interval the verdicts so far
        // leave open, and its verdict is the feasibility of its bus count.
        let app = stbus_traffic::workloads::matrix::mat2(23);
        let p = DesignParams::default().with_overlap_threshold(0.15);
        let collected = crate::phase1::collect(&app, &p);
        let pre = pre_of(&collected.it_trace, &p);
        let out = synthesize(&pre, &p).unwrap();
        let (mut lo, mut hi) = (out.lower_bound, pre.stats.num_targets());
        for &(buses, feasible) in &out.probes {
            assert_eq!(buses, lo + (hi - lo) / 2, "probe order");
            let found = pre
                .binding_problem(buses)
                .find_feasible(&p.solve_limits)
                .unwrap();
            assert_eq!(found.is_some(), feasible, "verdict at {buses}");
            if feasible {
                hi = buses;
            } else {
                lo = buses + 1;
            }
        }
        assert_eq!((lo, hi), (out.num_buses, out.num_buses));
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
        let cancellable = synthesize_exact(&pre, &p, &request)
            .unwrap()
            .expect("un-cancelled token never aborts");
        assert_same_outcome("cancellable exact", &cancellable, &plain_exact);

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
        assert!(synthesize_exact(&pre, &p, &token).unwrap().is_none());
        assert!(heuristic(&pre, &p, &token).is_none());
    }
}
