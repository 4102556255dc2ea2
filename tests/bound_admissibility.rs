//! Admissibility proofs for the per-node lower bounds of
//! [`stbus::milp::bounds`] — the property battery backing the pruned
//! exact search.
//!
//! The contract under test: a [`LowerBound`] may never exceed the true
//! minimum feasible bus count (at the root) and may never certify a
//! state infeasible when a feasible completion exists (anywhere). The
//! battery checks three things on random instances:
//!
//! 1. **Root admissibility** — for every bound, the root value is at
//!    most the true optimum computed by the *unpruned* exact solver
//!    (small N, scanned upward).
//! 2. **Incremental = from-scratch** — the audited search
//!    ([`BindingProblem::find_feasible_audited`]) recomputes the pruning
//!    state and every bound from scratch at each DFS depth and panics on
//!    any divergence from the incrementally maintained state.
//! 3. **Prune soundness end to end** — pruned (`Standard`) and unpruned
//!    (`Off`) searches return bit-identical feasibility answers and
//!    optimal bindings (the deeper suite in
//!    `tests/pruned_solver_equivalence.rs` extends this to the paper
//!    workloads and the parallel scheduler).

use proptest::prelude::*;
use stbus::milp::{
    BandwidthPackingBound, BindingProblem, CliqueCoverBound, CombinedBound, LowerBound, NodeState,
    PruningLevel, SolveLimits,
};

fn limits(pruning: PruningLevel) -> SolveLimits {
    SolveLimits::default().with_pruning(pruning)
}

/// The true minimum feasible bus count, found by the unpruned exact
/// solver scanning upward (`None` if even `n` buses are infeasible,
/// which cannot happen when every demand fits its window).
fn true_minimum(demands: &[Vec<u64>], build: impl Fn(usize) -> BindingProblem) -> Option<usize> {
    let n = demands.len().max(1);
    (1..=n).find(|&buses| {
        build(buses)
            .find_feasible(&limits(PruningLevel::Off))
            .expect("within limits")
            .is_some()
    })
}

/// Random small binding problems: demands, conflicts, maxtb.
#[allow(clippy::type_complexity)]
fn arb_instance() -> impl Strategy<Value = (Vec<Vec<u64>>, Vec<(usize, usize)>, usize)> {
    (3usize..=8, 1usize..=3).prop_flat_map(|(targets, windows)| {
        (
            prop::collection::vec(prop::collection::vec(0u64..=100, windows), targets),
            prop::collection::vec((0usize..targets, 0usize..targets), 0..8),
            2usize..=4,
        )
    })
}

fn build_problem(
    buses: usize,
    demands: &[Vec<u64>],
    conflicts: &[(usize, usize)],
    maxtb: usize,
) -> BindingProblem {
    let mut p = BindingProblem::new(buses, 100, demands.to_vec()).with_maxtb(maxtb);
    for &(i, j) in conflicts {
        if i != j {
            p.add_conflict(i, j);
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every bound's root value is admissible: at the true optimal bus
    /// count it never certifies infeasibility, and its value never
    /// exceeds the optimum.
    #[test]
    fn root_bounds_never_exceed_true_optimum(
        (demands, conflicts, maxtb) in arb_instance(),
    ) {
        let build = |buses: usize| build_problem(buses, &demands, &conflicts, maxtb);
        if let Some(optimum) = true_minimum(&demands, build) {
            let problem = build(optimum);
            let state = NodeState::root(&problem);
            let ctx = state.context(&problem);
            for (name, value) in [
                ("clique-cover", CliqueCoverBound::default().buses_needed(&ctx)),
                (
                    "bandwidth-packing",
                    BandwidthPackingBound::default().buses_needed(&ctx),
                ),
                ("combined", CombinedBound::default().buses_needed(&ctx)),
            ] {
                prop_assert!(
                    value <= optimum,
                    "{name} bound {value} exceeds true optimum {optimum}"
                );
            }
        }
    }

    /// The incremental pruning state — and therefore every incremental
    /// bound value — equals a from-scratch recomputation at every DFS
    /// depth (the audited search panics on any divergence), and the
    /// audited answer matches the plain searches.
    #[test]
    fn incremental_state_equals_scratch_at_every_depth(
        (demands, conflicts, maxtb) in arb_instance(),
        buses in 1usize..=5,
    ) {
        let problem = build_problem(buses, &demands, &conflicts, maxtb);
        let audited = problem
            .find_feasible_audited(&limits(PruningLevel::Standard))
            .expect("within limits");
        let plain = problem
            .find_feasible(&limits(PruningLevel::Standard))
            .expect("within limits");
        prop_assert_eq!(&audited, &plain);
    }

    /// Pruned and unpruned searches agree bit for bit: same feasibility
    /// verdict, same first binding, same optimal binding.
    #[test]
    fn pruned_search_is_bit_identical_to_unpruned(
        (demands, conflicts, maxtb) in arb_instance(),
        buses in 1usize..=5,
    ) {
        let problem = build_problem(buses, &demands, &conflicts, maxtb);
        let off = limits(PruningLevel::Off);
        let std_ = limits(PruningLevel::Standard);
        prop_assert_eq!(
            problem.find_feasible(&std_).expect("within limits"),
            problem.find_feasible(&off).expect("within limits"),
            "find_feasible diverged"
        );
        prop_assert_eq!(
            problem.optimize(&std_).expect("within limits"),
            problem.optimize(&off).expect("within limits"),
            "optimize diverged"
        );
    }

    /// The generic-MILP node cut is admissible too: the cut-enabled
    /// crossbar MILP agrees with the cut-free one on feasibility and on
    /// the optimal objective.
    #[test]
    fn milp_node_cut_is_admissible(
        (demands, conflicts, maxtb) in arb_instance(),
        buses in 1usize..=3,
    ) {
        use stbus::milp::crossbar;
        // The generic stack is slow; keep the instance tiny.
        if demands.len() <= 5 {
            let problem = build_problem(buses, &demands, &conflicts, maxtb);
            let with_cut = crossbar::solve_feasibility_milp_with(&problem, PruningLevel::Standard);
            let without = crossbar::solve_feasibility_milp_with(&problem, PruningLevel::Off);
            prop_assert_eq!(with_cut.is_some(), without.is_some(), "MILP-1 diverged");
            let opt_cut = crossbar::solve_optimization_milp_with(&problem, PruningLevel::Standard);
            let opt_off = crossbar::solve_optimization_milp_with(&problem, PruningLevel::Off);
            match (&opt_cut, &opt_off) {
                (Some(a), Some(b)) => prop_assert_eq!(
                    a.max_bus_overlap(),
                    b.max_bus_overlap(),
                    "MILP-2 objective diverged"
                ),
                (None, None) => {}
                _ => prop_assert!(false, "MILP-2 feasibility diverged"),
            }
        }
    }
}

/// Deterministic spot checks: the certificates fire exactly where the
/// hand-built states say they must (mirrors the in-crate unit tests so a
/// regression is caught even when the random battery happens to miss the
/// branch).
#[test]
fn certificates_fire_on_crafted_states() {
    // A 4-clique among 5 targets with only 3 buses: the root clique-cover
    // bound certifies infeasibility before the search even starts.
    let mut p = BindingProblem::new(3, 100, vec![vec![10]; 5]);
    for i in 0..4usize {
        for j in (i + 1)..4 {
            p.add_conflict(i, j);
        }
    }
    let state = NodeState::root(&p);
    assert!(CliqueCoverBound::default().buses_needed(&state.context(&p)) > p.num_buses());
    // And the pruned searches agree it is infeasible, bit for bit.
    for pruning in [PruningLevel::Off, PruningLevel::Standard] {
        assert_eq!(p.find_feasible(&limits(pruning)).unwrap(), None);
    }
}
