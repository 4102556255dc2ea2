//! Generic-MILP encoding of the crossbar binding problem — a direct
//! transcription of the paper's Eq. (3)–(9) and the `maxov` objective of
//! Eq. (11).
//!
//! The specialised solver in [`crate::binding`] is the production path;
//! this encoding exists to *cross-validate* it through the independent
//! simplex/branch-and-bound stack, exactly as one would sanity-check a
//! custom solver against CPLEX. It is exercised extensively in tests and
//! available for users who want to inspect the raw MILP.

// Index-based loops here mirror the i/j/k subscripts of the paper's
// equations on purpose; iterator forms obscure the transcription.
#![allow(clippy::needless_range_loop)]

use crate::binding::{Binding, BindingProblem};
use crate::bounds::{CombinedBound, LowerBound, NodeState, PruningLevel};
use crate::branch_bound::{solve, MilpOptions, MilpOutcome, NodeCut};
use crate::model::{Cmp, LinExpr, Model, Sense, VarId};
use crate::simplex::BoundOverrides;
use std::sync::Arc;

/// The encoded model plus the handle matrix `x[target][bus]` needed to
/// decode solutions.
#[derive(Debug, Clone)]
pub struct EncodedCrossbar {
    /// The MILP.
    pub model: Model,
    /// Binding variables `x(i,k)` (Definition 3).
    pub x: Vec<Vec<VarId>>,
}

/// Encodes the feasibility MILP (Eq. 3, 4, 7, 8, 9 — the paper's MILP-1).
#[must_use]
pub fn encode_feasibility(problem: &BindingProblem) -> EncodedCrossbar {
    let mut model = Model::new(Sense::Minimize);
    let x = make_binding_vars(&mut model, problem);
    add_structural_constraints(&mut model, problem, &x);
    EncodedCrossbar { model, x }
}

/// Encodes the optimal-binding MILP (adds the `sb` linearisation of Eq. 5,
/// the per-bus overlap rows and the `maxov` objective — the paper's
/// MILP-2, Eq. 11).
#[must_use]
pub fn encode_optimization(problem: &BindingProblem) -> EncodedCrossbar {
    let mut model = Model::new(Sense::Minimize);
    let x = make_binding_vars(&mut model, problem);
    add_structural_constraints(&mut model, problem, &x);

    let n = problem.num_targets();
    let maxov = model.continuous_var("maxov", 0.0, f64::INFINITY);

    // sb(i,j,k) only for pairs that can actually share a bus and carry
    // overlap weight; everything else contributes nothing to the objective.
    for k in 0..problem.num_buses() {
        let mut bus_overlap = LinExpr::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let om = problem.overlap(i, j);
                if om == 0 || problem.conflicts(i, j) {
                    continue;
                }
                let sb = model.binary_var(format!("sb_{i}_{j}_{k}"));
                // Eq. 5: x_i + x_j - 1 <= sb  and  sb <= (x_i + x_j) / 2.
                model.constrain(
                    LinExpr::new()
                        .term(x[i][k], 1.0)
                        .term(x[j][k], 1.0)
                        .term(sb, -1.0),
                    Cmp::Le,
                    1.0,
                );
                model.constrain(
                    LinExpr::new()
                        .term(sb, 1.0)
                        .term(x[i][k], -0.5)
                        .term(x[j][k], -0.5),
                    Cmp::Le,
                    0.0,
                );
                bus_overlap.add_term(sb, om as f64);
            }
        }
        // Σ om(i,j)·sb(i,j,k) ≤ maxov for every bus k (Eq. 11).
        bus_overlap.add_term(maxov, -1.0);
        model.constrain(bus_overlap, Cmp::Le, 0.0);
    }
    model.set_objective(LinExpr::new().term(maxov, 1.0));
    EncodedCrossbar { model, x }
}

fn make_binding_vars(model: &mut Model, problem: &BindingProblem) -> Vec<Vec<VarId>> {
    (0..problem.num_targets())
        .map(|i| {
            (0..problem.num_buses())
                .map(|k| model.binary_var(format!("x_{i}_{k}")))
                .collect()
        })
        .collect()
}

fn add_structural_constraints(model: &mut Model, problem: &BindingProblem, x: &[Vec<VarId>]) {
    let n = problem.num_targets();
    let b = problem.num_buses();

    // Eq. 3: every target on exactly one bus.
    for row in x.iter().take(n) {
        let mut sum = LinExpr::new();
        for &v in row {
            sum.add_term(v, 1.0);
        }
        model.constrain(sum, Cmp::Eq, 1.0);
    }

    // Eq. 4: per-window bus bandwidth.
    for k in 0..b {
        for m in 0..problem.num_windows() {
            let mut load = LinExpr::new();
            for (i, row) in x.iter().enumerate().take(n) {
                let d = problem.demand(i, m);
                if d > 0 {
                    load.add_term(row[k], d as f64);
                }
            }
            if !load.terms().is_empty() {
                model.constrain(load, Cmp::Le, problem.capacity(m) as f64);
            }
        }
    }

    // Eq. 7 (via Eq. 2): conflicting targets never share a bus. The bitset
    // graph enumerates exactly the conflicting pairs, so dense graphs no
    // longer pay an n² probe loop here.
    for (i, j) in problem.conflict_pairs() {
        for k in 0..b {
            model.constrain(
                LinExpr::new().term(x[i][k], 1.0).term(x[j][k], 1.0),
                Cmp::Le,
                1.0,
            );
        }
    }

    // Eq. 8: at most maxtb targets per bus.
    if problem.maxtb() < n {
        for k in 0..b {
            let mut count = LinExpr::new();
            for row in x.iter().take(n) {
                count.add_term(row[k], 1.0);
            }
            model.constrain(count, Cmp::Le, problem.maxtb() as f64);
        }
    }
}

/// Decodes a MILP solution into a [`Binding`], recomputing the objective
/// through [`BindingProblem::verify`].
#[must_use]
pub fn decode(
    problem: &BindingProblem,
    encoded: &EncodedCrossbar,
    values: &[f64],
) -> Option<Binding> {
    let mut assignment = vec![usize::MAX; problem.num_targets()];
    for (i, row) in encoded.x.iter().enumerate() {
        for (k, &v) in row.iter().enumerate() {
            if values[v.index()] > 0.5 {
                if assignment[i] != usize::MAX {
                    return None; // two buses claimed — invalid
                }
                assignment[i] = k;
            }
        }
        if assignment[i] == usize::MAX {
            return None;
        }
    }
    let candidate = Binding::from_assignment(assignment);
    problem
        .verify(&candidate)
        .map(|ov| Binding::from_assignment_with_overlap(candidate.assignment().to_vec(), ov))
}

/// The per-node combinatorial cut for a crossbar encoding: rebuilds the
/// partial target→bus assignment from the binaries the branching has
/// fixed to 1 and asks the clique-cover + bandwidth-packing bounds of
/// [`crate::bounds`] whether any feasible completion can still exist.
/// Binaries merely fixed to 0 are ignored — dropping constraints only
/// weakens the bound, so admissibility is preserved.
#[derive(Debug)]
struct CrossbarCliqueCut {
    problem: BindingProblem,
    x: Vec<Vec<VarId>>,
    /// Reused bound scratch: the incompatibility rows inside are keyed on
    /// the owned problem (whose address is stable behind the `Arc`), so
    /// they are derived once on the first node instead of per node.
    scratch: std::sync::Mutex<CombinedBound>,
}

impl NodeCut for CrossbarCliqueCut {
    fn prune(&self, model: &Model, overrides: &BoundOverrides) -> bool {
        let mut bound_pairs = Vec::new();
        for (i, row) in self.x.iter().enumerate() {
            for (k, &v) in row.iter().enumerate() {
                let (lb0, ub0) = model.bounds(v);
                let (lb, _) = overrides.bounds_for(v.index(), lb0, ub0);
                if lb > 0.5 {
                    bound_pairs.push((i, k));
                    break;
                }
            }
        }
        let state = NodeState::from_partial(&self.problem, &bound_pairs);
        let mut bound = self.scratch.lock().expect("cut scratch poisoned");
        bound.buses_needed(&state.context(&self.problem)) > self.problem.num_buses()
    }
}

/// Builds the per-node clique-cover/bandwidth cut for an encoded crossbar
/// — pass it as [`MilpOptions::node_cut`] to prune the generic search
/// with the same admissible bounds the specialised solver uses.
#[must_use]
pub fn clique_cut(problem: &BindingProblem, encoded: &EncodedCrossbar) -> Arc<dyn NodeCut> {
    Arc::new(CrossbarCliqueCut {
        problem: problem.clone(),
        x: encoded.x.clone(),
        scratch: std::sync::Mutex::new(CombinedBound::default()),
    })
}

fn node_cut_for(
    problem: &BindingProblem,
    encoded: &EncodedCrossbar,
    pruning: PruningLevel,
) -> Option<Arc<dyn NodeCut>> {
    match pruning {
        PruningLevel::Off => None,
        PruningLevel::Standard => Some(clique_cut(problem, encoded)),
    }
}

/// Solves MILP-1 (feasibility) through the generic stack, with the
/// default ([`PruningLevel::Standard`]) per-node cut.
#[must_use]
pub fn solve_feasibility_milp(problem: &BindingProblem) -> Option<Binding> {
    solve_feasibility_milp_with(problem, PruningLevel::default())
}

/// [`solve_feasibility_milp`] at an explicit pruning level.
#[must_use]
pub fn solve_feasibility_milp_with(
    problem: &BindingProblem,
    pruning: PruningLevel,
) -> Option<Binding> {
    let encoded = encode_feasibility(problem);
    let options = MilpOptions {
        feasibility_only: true,
        node_cut: node_cut_for(problem, &encoded, pruning),
        ..MilpOptions::default()
    };
    match solve(&encoded.model, &options) {
        MilpOutcome::Optimal { values, .. } => decode(problem, &encoded, &values),
        _ => None,
    }
}

/// Solves MILP-2 (minimise `maxov`) through the generic stack, with the
/// default ([`PruningLevel::Standard`]) per-node cut — previously this
/// path only bounded against the incumbent objective.
#[must_use]
pub fn solve_optimization_milp(problem: &BindingProblem) -> Option<Binding> {
    solve_optimization_milp_with(problem, PruningLevel::default())
}

/// [`solve_optimization_milp`] at an explicit pruning level.
#[must_use]
pub fn solve_optimization_milp_with(
    problem: &BindingProblem,
    pruning: PruningLevel,
) -> Option<Binding> {
    let encoded = encode_optimization(problem);
    let options = MilpOptions {
        node_cut: node_cut_for(problem, &encoded, pruning),
        ..MilpOptions::default()
    };
    match solve(&encoded.model, &options) {
        MilpOutcome::Optimal { values, .. } => decode(problem, &encoded, &values),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::SolveLimits;

    #[test]
    fn encoding_sizes() {
        let p = BindingProblem::new(2, 100, vec![vec![10, 20], vec![30, 5], vec![15, 15]]);
        let enc = encode_feasibility(&p);
        // 3 targets × 2 buses binding vars.
        assert_eq!(enc.model.num_vars(), 6);
        // 3 assignment rows + 2 buses × 2 windows bandwidth rows.
        assert_eq!(enc.model.num_constraints(), 3 + 4);
    }

    #[test]
    fn feasibility_agrees_with_specialised_solver() {
        let cases: Vec<BindingProblem> = vec![
            BindingProblem::new(1, 100, vec![vec![60], vec![50]]),
            BindingProblem::new(2, 100, vec![vec![60], vec![50]]),
            BindingProblem::new(2, 100, vec![vec![60], vec![50], vec![45]]),
            BindingProblem::new(3, 100, vec![vec![60], vec![50], vec![45]]).with_conflict(0, 1),
            BindingProblem::new(2, 100, vec![vec![10]; 5]).with_maxtb(2),
            BindingProblem::new(3, 100, vec![vec![10]; 5]).with_maxtb(2),
        ];
        for (idx, p) in cases.iter().enumerate() {
            let specialised = p.find_feasible(&SolveLimits::default()).unwrap();
            let generic = solve_feasibility_milp(p);
            assert_eq!(
                specialised.is_some(),
                generic.is_some(),
                "case {idx}: solver disagreement"
            );
            if let Some(b) = generic {
                assert!(p.verify(&b).is_some(), "case {idx}: invalid MILP binding");
            }
        }
    }

    #[test]
    fn optimization_agrees_with_specialised_solver() {
        let mut p = BindingProblem::new(2, 1000, vec![vec![10]; 4]);
        p.set_overlaps(|i, j| match (i, j) {
            (0, 1) => 100,
            (2, 3) => 90,
            _ => 10,
        });
        let specialised = p
            .optimize(&SolveLimits::default())
            .unwrap()
            .expect("feasible");
        let generic = solve_optimization_milp(&p).expect("feasible");
        assert_eq!(
            specialised.max_bus_overlap(),
            generic.max_bus_overlap(),
            "objective mismatch between solvers"
        );
    }

    #[test]
    fn infeasible_detected_by_milp() {
        let p = BindingProblem::new(1, 100, vec![vec![60], vec![50]]);
        assert!(solve_feasibility_milp(&p).is_none());
    }

    #[test]
    fn decode_rejects_garbage() {
        let p = BindingProblem::new(2, 100, vec![vec![10], vec![10]]);
        let enc = encode_feasibility(&p);
        // No bus selected for target 1.
        let mut values = vec![0.0; enc.model.num_vars()];
        values[enc.x[0][0].index()] = 1.0;
        assert!(decode(&p, &enc, &values).is_none());
        // Two buses selected for target 0.
        values[enc.x[0][1].index()] = 1.0;
        values[enc.x[1][0].index()] = 1.0;
        assert!(decode(&p, &enc, &values).is_none());
    }
}
