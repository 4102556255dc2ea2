//! Traffic modelling substrate for application-specific STbus crossbar
//! generation.
//!
//! This crate provides everything the synthesis methodology of Murali &
//! De Micheli (DATE 2005) consumes on its input side:
//!
//! * a small system model ([`SocSpec`]) describing the initiators (masters)
//!   and targets (slaves) of an MPSoC and the criticality of traffic streams;
//! * cycle-accurate communication traces ([`Trace`], [`TraceEvent`]);
//! * the **window-based traffic analysis** at the heart of the paper
//!   ([`WindowStats`]): per-window received cycles `comm(i,m)`, pairwise
//!   per-window overlap `wo(i,j,m)` and the aggregate overlap matrix
//!   `om(i,j)` of Eq. (1);
//! * the pre-processing products of Eq. (2): the word-parallel bitset
//!   [`ConflictGraph`] built from overlap thresholds and overlapping
//!   critical streams — the shared feasibility core every binding solver
//!   queries in its innermost loop;
//! * the sweep-resident [`OverlapProfile`]: per-pair peak overlaps
//!   extracted once from the window analysis, after which any overlap
//!   threshold re-derives its conflict graph in O(pairs) instead of
//!   re-scanning every window;
//! * burst detection ([`burst`]) used by the window-sizing study (Fig. 5);
//! * parameterised MPSoC [`workloads`] reproducing the traffic structure of
//!   the paper's benchmark suites (matrix multiplication, FFT, quicksort,
//!   DES, and the 20-core synthetic benchmark of §7.2).
//!
//! # Example
//!
//! ```
//! use stbus_traffic::{workloads, ConflictGraph, WindowStats};
//!
//! // Generate the 21-core Mat2 benchmark from the paper (9 ARMs, 12 targets).
//! let app = workloads::matrix::mat2(0xB5);
//! let stats = WindowStats::analyze(&app.trace, 1_000);
//! let conflicts = ConflictGraph::from_stats(&stats, 0.30);
//! assert_eq!(stats.num_targets(), app.spec.num_targets());
//! assert_eq!(conflicts.num_targets(), app.spec.num_targets());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod burst;
pub mod conflict_graph;
pub mod delta;
pub mod ids;
pub mod interval;
pub mod io;
pub mod kernels;
pub mod model;
pub mod overlap_profile;
pub mod stats;
pub mod trace;
pub mod window;
pub mod window_plan;
pub mod workloads;

pub use burst::{Burst, BurstStats};
pub use conflict_graph::{ConflictGraph, TargetSet};
pub use delta::{DeltaError, TargetEdit, WorkloadDelta};
pub use ids::{InitiatorId, TargetId};
pub use io::{read_trace, trace_from_str, trace_to_string, write_trace, ParseTraceError};
pub use model::{CoreKind, InitiatorSpec, SocSpec, TargetSpec};
pub use overlap_profile::OverlapProfile;
pub use stats::Summary;
pub use trace::{Trace, TraceEvent};
pub use window::{AnalysisTooLarge, OverlapMatrix, WindowStats, MAX_ANALYSIS_CELLS};
pub use window_plan::WindowPlan;
pub use workloads::Application;
