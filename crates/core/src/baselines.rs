//! Comparison designs from prior work, used throughout the paper's
//! evaluation.
//!
//! * [`average_flow_design`] — prior bus/NoC synthesis based on **average**
//!   communication bandwidth: a single analysis window spanning the whole
//!   simulation and no overlap constraints (paper §7.1, the `avg` bars of
//!   Fig. 4);
//! * [`peak_bandwidth_design`] — contention elimination in the style of
//!   Ho & Pinkston [4]: any two targets that *ever* overlap go on separate
//!   buses, which oversizes the crossbar (paper §2);
//! * [`random_binding_design`] — a random binding satisfying all design
//!   constraints (Eq. 3–9) at the optimal bus count, the §7.3 ablation
//!   showing the value of overlap-minimising binding;
//! * shared-bus and full-crossbar configurations come directly from
//!   [`CrossbarConfig::shared_bus`] / [`CrossbarConfig::full`].

use crate::params::DesignParams;
use crate::phase2::Preprocessed;
use stbus_milp::{Binding, BindingProblem, NodeLimitExceeded};
use stbus_sim::CrossbarConfig;
use stbus_traffic::{ConflictGraph, OverlapProfile, TargetSet, Trace, WindowStats};

/// A baseline design for one crossbar direction.
#[derive(Debug, Clone)]
pub struct BaselineDesign {
    /// The configuration.
    pub config: CrossbarConfig,
    /// Number of buses used.
    pub num_buses: usize,
}

/// Minimum-size design from **average** traffic flows: one window covering
/// the entire simulation, overlap constraints relaxed, first feasible
/// binding (prior-work style).
///
/// # Errors
///
/// Propagates [`NodeLimitExceeded`] from the exact solver.
pub fn average_flow_design(
    trace: &Trace,
    params: &DesignParams,
) -> Result<BaselineDesign, NodeLimitExceeded> {
    average_flow_design_from(WindowStats::analyze(trace, trace.horizon().max(1)), params)
}

/// [`average_flow_design`] from the trace's whole-trace analysis
/// ([`WindowStats::whole_trace`]), which phase 4 derives from phase 2's
/// statistics instead of sweeping the trace again.
///
/// # Errors
///
/// Propagates [`NodeLimitExceeded`] from the exact solver.
pub fn average_flow_design_from(
    stats: WindowStats,
    params: &DesignParams,
) -> Result<BaselineDesign, NodeLimitExceeded> {
    debug_assert_eq!(stats.num_windows(), 1, "one window spans the trace");
    let conflicts = ConflictGraph::none(stats.num_targets());
    // Prior average-flow approaches have neither overlap constraints nor a
    // serialisation cap: maxtb is part of the proposed methodology. The
    // artifact is solved once and dropped, so it carries no real overlap
    // profile (baselines are never re-thresholded).
    let pre = Preprocessed {
        maxtb: stats.num_targets().max(1),
        profile: OverlapProfile::empty(stats.num_targets()),
        stats,
        conflicts,
    };
    minimum_feasible(&pre, params)
}

/// Contention-elimination design (Ho & Pinkston style): any pair of
/// targets with *any* temporal overlap is forced onto separate buses.
///
/// # Errors
///
/// Propagates [`NodeLimitExceeded`] from the exact solver.
pub fn peak_bandwidth_design(
    trace: &Trace,
    params: &DesignParams,
) -> Result<BaselineDesign, NodeLimitExceeded> {
    let stats = WindowStats::analyze(trace, params.window_size);
    // The contention-elimination relation is fixed at θ = 0 and the
    // artifact is dropped after one solve; no profile needed.
    let conflicts = ConflictGraph::from_stats(&stats, 0.0);
    let pre = Preprocessed {
        profile: OverlapProfile::empty(stats.num_targets()),
        stats,
        conflicts,
        maxtb: params.maxtb,
    };
    minimum_feasible(&pre, params)
}

/// A random binding at a fixed bus count that still satisfies every design
/// constraint (Eq. 3–9). Returns `Ok(None)` if the randomised search finds
/// no feasible binding for this permutation (the caller may retry with
/// another seed).
///
/// # Errors
///
/// Propagates [`NodeLimitExceeded`] from the exact solver.
pub fn random_binding_design(
    pre: &Preprocessed,
    num_buses: usize,
    seed: u64,
    params: &DesignParams,
) -> Result<Option<BaselineDesign>, NodeLimitExceeded> {
    let n = pre.stats.num_targets();
    let problem = pre.binding_problem(num_buses);
    let mut rng = Lcg::new(seed);

    // Randomised backtracking: random target order, random bus order per
    // target, first complete assignment wins. All Eq. 3–9 constraints are
    // enforced during the descent.
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);

    let num_windows = pre.stats.num_windows();
    let mut used = vec![vec![0u64; num_windows]; num_buses];
    let mut bus_sizes = vec![0usize; num_buses];
    // Incremental member bitsets: the conflict veto is one word-parallel
    // intersection of the candidate's row against the bus mask.
    let mut masks = vec![TargetSet::empty(n); num_buses];
    let mut assignment = vec![usize::MAX; n];
    let mut nodes = 0u64;

    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    // The DFS threads its whole search state explicitly; window loops
    // index `used` and `problem.demand` in lockstep.
    fn dfs(
        problem: &BindingProblem,
        order: &[usize],
        depth: usize,
        used: &mut [Vec<u64>],
        bus_sizes: &mut [usize],
        masks: &mut [TargetSet],
        assignment: &mut [usize],
        rng: &mut Lcg,
        nodes: &mut u64,
        max_nodes: u64,
    ) -> Result<bool, NodeLimitExceeded> {
        if depth == order.len() {
            return Ok(true);
        }
        let t = order[depth];
        let mut buses: Vec<usize> = (0..problem.num_buses()).collect();
        rng.shuffle(&mut buses);
        for k in buses {
            *nodes += 1;
            if *nodes > max_nodes {
                return Err(NodeLimitExceeded { limit: max_nodes });
            }
            if bus_sizes[k] >= problem.maxtb() {
                continue;
            }
            if problem.conflicts_with_set(t, &masks[k]) {
                continue;
            }
            let fits = (0..problem.num_windows())
                .all(|m| used[k][m] + problem.demand(t, m) <= problem.window_size());
            if !fits {
                continue;
            }
            for m in 0..problem.num_windows() {
                used[k][m] += problem.demand(t, m);
            }
            bus_sizes[k] += 1;
            masks[k].insert(t);
            assignment[t] = k;
            if dfs(
                problem,
                order,
                depth + 1,
                used,
                bus_sizes,
                masks,
                assignment,
                rng,
                nodes,
                max_nodes,
            )? {
                return Ok(true);
            }
            assignment[t] = usize::MAX;
            masks[k].remove(t);
            bus_sizes[k] -= 1;
            for m in 0..problem.num_windows() {
                used[k][m] -= problem.demand(t, m);
            }
        }
        Ok(false)
    }

    let found = dfs(
        &problem,
        &order,
        0,
        &mut used,
        &mut bus_sizes,
        &mut masks,
        &mut assignment,
        &mut rng,
        &mut nodes,
        params.solve_limits.max_nodes,
    )?;
    if !found {
        return Ok(None);
    }
    let config = CrossbarConfig::from_assignment(assignment, num_buses)
        .expect("DFS produced a valid assignment")
        .with_arbitration(params.arbitration);
    Ok(Some(BaselineDesign { config, num_buses }))
}

/// Minimal deterministic PCG-style generator so the baselines stay
/// reproducible without threading a full RNG through the API.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    fn shuffle(&mut self, v: &mut [usize]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Binary-searches the minimum feasible size for an arbitrary
/// [`Preprocessed`] input and returns the *first* feasible binding at that
/// size (no overlap optimisation — that is the point of these baselines).
fn minimum_feasible(
    pre: &Preprocessed,
    params: &DesignParams,
) -> Result<BaselineDesign, NodeLimitExceeded> {
    let n = pre.stats.num_targets();
    if n == 0 {
        return Ok(BaselineDesign {
            config: CrossbarConfig::from_assignment(Vec::new(), 1).expect("empty ok"),
            num_buses: 1,
        });
    }
    let mut lo = pre.bus_lower_bound();
    let mut hi = n;
    let mut best: Option<Binding> = None;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match pre
            .binding_problem(mid)
            .find_feasible(&params.solve_limits)?
        {
            Some(b) => {
                best = Some(b);
                hi = mid;
            }
            None => lo = mid + 1,
        }
    }
    let binding = match best {
        Some(b) if b.used_buses() <= lo && b.assignment().iter().all(|&k| k < lo) => b,
        _ => pre
            .binding_problem(lo)
            .find_feasible(&params.solve_limits)?
            .expect("full-size fallback is always feasible"),
    };
    let config = CrossbarConfig::from_assignment(binding.assignment().to_vec(), lo)
        .expect("solver produced a valid assignment")
        .with_arbitration(params.arbitration);
    Ok(BaselineDesign {
        config,
        num_buses: lo,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesizer::{Exact, Synthesizer};
    use stbus_traffic::{workloads, InitiatorId, TargetId, TraceEvent};

    #[test]
    fn average_design_underestimates_buses() {
        // Two targets with perfectly overlapping traffic: the window design
        // wants 2 buses (bandwidth peak), the average design is happy with
        // one because the aggregate utilisation is low.
        let mut tr = Trace::new(2, 2);
        for rep in 0..5u64 {
            tr.push(TraceEvent::new(
                InitiatorId::new(0),
                TargetId::new(0),
                rep * 1_000,
                90,
            ));
            tr.push(TraceEvent::new(
                InitiatorId::new(1),
                TargetId::new(1),
                rep * 1_000,
                90,
            ));
        }
        tr.finish_sorting();
        let params = DesignParams::default().with_window_size(100);
        let avg = average_flow_design(&tr, &params).unwrap();
        assert_eq!(avg.num_buses, 1);

        let pre = Preprocessed::analyze(&tr, &params);
        assert!(pre.bus_lower_bound() >= 2);
    }

    #[test]
    fn peak_design_oversizes() {
        // Two targets overlapping for a single cycle: peak design splits
        // them; the window design (threshold 30%) does not.
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
            9,
            10,
        ));
        let params = DesignParams::default().with_window_size(100);
        let peak = peak_bandwidth_design(&tr, &params).unwrap();
        assert_eq!(peak.num_buses, 2);

        let pre = Preprocessed::analyze(&tr, &params);
        let win = Exact::default().synthesize(&pre, &params).unwrap();
        assert_eq!(win.num_buses, 1);
    }

    #[test]
    fn random_binding_satisfies_constraints() {
        let app = workloads::matrix::mat2(21);
        let params = DesignParams::default();
        let collected = crate::phase1::collect(&app, &params);
        let pre = Preprocessed::analyze(&collected.it_trace, &params);
        let synth = Exact::default().synthesize(&pre, &params).unwrap();
        for seed in 0..5 {
            let rnd = random_binding_design(&pre, synth.num_buses, seed, &params)
                .unwrap()
                .expect("random binding feasible at optimal size");
            let problem = pre.binding_problem(synth.num_buses);
            let binding = Binding::from_assignment(rnd.config.assignment().to_vec());
            assert!(
                problem.verify(&binding).is_some(),
                "random binding violates constraints (seed {seed})"
            );
        }
    }

    #[test]
    fn random_bindings_differ_across_seeds() {
        let app = workloads::matrix::mat2(22);
        let params = DesignParams::default();
        let collected = crate::phase1::collect(&app, &params);
        let pre = Preprocessed::analyze(&collected.it_trace, &params);
        let synth = Exact::default().synthesize(&pre, &params).unwrap();
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..8 {
            if let Some(d) = random_binding_design(&pre, synth.num_buses, seed, &params).unwrap() {
                distinct.insert(d.config.assignment().to_vec());
            }
        }
        assert!(
            distinct.len() > 1,
            "random binding produced only one distinct assignment"
        );
    }

    #[test]
    fn baselines_on_empty_trace() {
        let tr = Trace::new(1, 0);
        let params = DesignParams::default();
        let avg = average_flow_design(&tr, &params).unwrap();
        assert_eq!(avg.num_buses, 1);
    }
}
