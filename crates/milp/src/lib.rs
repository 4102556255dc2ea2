//! Exact 0/1 MILP solving substrate for STbus crossbar synthesis.
//!
//! The paper formulates crossbar configuration and binding as two Mixed
//! Integer Linear Programs (Eq. 3–9 plus the `maxov` objective of Eq. 11)
//! and solves them with the commercial CPLEX package. This crate replaces
//! CPLEX with two cooperating exact solvers:
//!
//! * a **generic MILP layer** ([`model::Model`], [`simplex`],
//!   [`branch_bound`]) — a dense two-phase primal simplex for LP
//!   relaxations driven by a branch-and-bound search over the integer
//!   variables; and
//! * a **specialised binding solver** ([`binding`]) — an exact
//!   backtracking search over target→bus assignments with per-window
//!   bandwidth propagation, **word-parallel conflict forward-checking**
//!   (each bus carries an incremental member bitset, so the Eq. 2/7
//!   feasibility of a candidate is a handful of `AND`s against its
//!   [`stbus_traffic::ConflictGraph`] row) and bus symmetry breaking, plus
//!   a branch-and-bound mode minimising the maximum per-bus overlap (the
//!   paper's MILP-2). The pre-refactor dense-matrix search served as the
//!   reference the bitset solver was proven bit-identical to for three
//!   releases and is now retired (its final measured speedups are
//!   snapshotted in `crates/bench/BENCHMARKS.md`); the generic MILP layer
//!   remains the sole independent cross-check.
//!
//! Long-running searches are cooperatively cancellable: the callers in
//! `stbus-core` (phase 3's two directions, the batch runner, a gateway
//! request) thread a [`CancelToken`] through
//! [`BindingProblem::find_feasible_stats_cancellable`] and the heuristic's
//! annealing repair, so work whose answer can no longer be consumed is
//! abandoned at the next poll instead of finishing a proof nobody reads.
//!
//! Both return provably optimal/feasible answers; the generic layer
//! cross-validates the specialised one in the test-suite. The instances the
//! methodology produces are small (≤ 32 targets — the largest STbus
//! crossbar — and a few thousand binaries, §6), so exact solving is fast.
//!
//! # Example
//!
//! ```
//! use stbus_milp::binding::{BindingProblem, SolveLimits};
//!
//! // Three targets, two buses, one window: demands 60+50+40 over
//! // capacity 100 force a split; targets 0 and 1 conflict.
//! let problem = BindingProblem::new(2, 100, vec![vec![60], vec![50], vec![40]])
//!     .with_conflict(0, 1);
//! let binding = problem
//!     .find_feasible(&SolveLimits::default())
//!     .expect("within limits")
//!     .expect("feasible");
//! assert_ne!(binding.bus_of(0), binding.bus_of(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binding;
pub mod bounds;
pub mod branch_bound;
pub mod crossbar;
pub mod heuristic;
pub mod model;
pub mod simplex;

pub use binding::{
    Binding, BindingProblem, NodeLimitExceeded, SearchInterrupted, SearchStats, SolveLimits,
    WarmStart,
};
pub use bounds::{
    BandwidthPackingBound, CliqueCoverBound, CombinedBound, LowerBound, NodeState, PruneContext,
    PruningLevel,
};
pub use branch_bound::{solve, MilpOptions, MilpOutcome, NodeCut};
pub use heuristic::{solve_heuristic, solve_heuristic_cancellable, HeuristicOptions};
pub use model::{Cmp, LinExpr, Model, Sense, VarId};
pub use stbus_exec::CancelToken;
