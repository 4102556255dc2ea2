//! Application-specific STbus crossbar generation — the design methodology
//! of Murali & De Micheli, *"An Application-Specific Design Methodology for
//! STbus Crossbar Generation"*, DATE 2005.
//!
//! Given an application's traffic, the methodology designs the smallest
//! STbus partial crossbar that satisfies the application's performance
//! constraints, and the optimal binding of targets onto its buses. It
//! proceeds in the four phases of the paper's Fig. 3:
//!
//! 1. **Traffic collection** ([`phase1`]) — simulate the application on a
//!    *full* crossbar and record the arbitrated traffic trace;
//! 2. **Pre-processing** ([`phase2`]) — window-based analysis of the trace
//!    (a sweep-line pass over sorted interval endpoints): per-window
//!    bandwidth `comm(i,m)`, pairwise overlaps `wo(i,j,m)`, the bitset
//!    conflict graph from the overlap threshold and critical-stream
//!    clashes, and the `maxtb` cap;
//! 3. **Synthesis** ([`phase3`]) — binary search for the minimum feasible
//!    bus count (MILP-1) followed by optimal binding minimising the maximum
//!    per-bus overlap (MILP-2);
//! 4. **Validation** ([`phase4`]) — cycle-accurate simulation of the
//!    application on the designed crossbar.
//!
//! Both the initiator→target and target→initiator crossbars are designed
//! (the response path is derived from request completions). [`baselines`]
//! provides the comparison designs used throughout the paper's evaluation:
//! average-flow design, peak-bandwidth (contention-elimination) design,
//! random binding, shared bus and full crossbar.
//!
//! # Quick start — the staged pipeline
//!
//! The flow is a pipeline of typed, reusable artifacts. Collect once
//! (phase 1, the expensive reference simulation), then analyze,
//! synthesize and validate as often as the exploration needs:
//!
//! ```
//! use stbus_core::pipeline::{BaselineSet, Pipeline};
//! use stbus_core::synthesizer::Exact;
//! use stbus_core::DesignParams;
//! use stbus_traffic::workloads;
//!
//! let app = workloads::matrix::mat2(42);
//! let params = DesignParams::default();
//!
//! let collected = Pipeline::collect(&app, &params);        // phase 1
//! let report = collected
//!     .analyze(&params)                                    // phase 2
//!     .synthesize(&Exact::default())                       // phase 3
//!     .expect("synthesis succeeds")
//!     .report()                                            // phase 4
//!     .expect("validation succeeds");
//!
//! // The designed crossbar uses far fewer buses than the full crossbar…
//! assert!(report.designed.total_buses() < report.full.total_buses());
//! // …while keeping latency within a small factor of it.
//! assert!(report.designed.avg_latency < 4.0 * report.full.avg_latency);
//!
//! // Sweeps reuse the collection artifact and pick their baselines:
//! let aggressive = params.clone().with_overlap_threshold(0.10);
//! let lean = collected
//!     .analyze(&aggressive)
//!     .synthesize(&Exact::default())
//!     .expect("synthesis succeeds")
//!     .validate(&BaselineSet::none())                      // no baselines
//!     .expect("validation succeeds");
//! assert!(lean.baselines.is_empty());
//! ```
//!
//! [`Batch`] evaluates `applications × parameter grid` in parallel,
//! collecting once per application. Synthesis strategies
//! ([`synthesizer::Exact`], [`synthesizer::Heuristic`],
//! [`synthesizer::Portfolio`]) plug into phase 3 via the
//! [`synthesizer::Synthesizer`] trait; all of them run phase 3's one exact
//! path ([`synthesize_exact`]) or its one heuristic path
//! ([`synthesize_heuristic`]) under a cooperative [`exec::CancelToken`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod batch;
/// The process-wide work-stealing executor every parallel layer of the
/// toolkit runs on — the [`crate::Batch`] design-space stages, phase 3's
/// response-direction solve ([`Analyzed::synthesize_cancellable`]) and
/// the heuristic's annealing-repair restarts all submit tasks to the same
/// worker set, so inner work fills whatever cores the outer layer left
/// idle instead of stacking a second pool.
///
/// Work enters the per-worker deques or the global injector, and a
/// consumer waiting on a result claims it inline if it has not started.
/// **Streaming scopes** ([`exec::map_streaming`]) deliver results
/// to a sink in input order as they complete with a bounded look-ahead
/// window — the [`crate::Batch`] runner streams finished design points
/// and the gateway streams sweep rows without materialising the whole
/// output first.
///
/// This is a re-export of the bottom-layer `stbus-exec` crate (it sits
/// below `stbus-milp` so the solver layers can poll its
/// [`exec::CancelToken`]); see that crate's documentation for the
/// determinism contract (results land by submission order; width 1 is a
/// sequential loop), the cancellation contract (hierarchical cooperative
/// tokens) and the `STBUS_EXEC_WORKERS` sizing override.
pub mod exec {
    pub use stbus_exec::*;
}
pub mod flow;
pub mod incremental;
pub mod params;
pub mod phase1;
pub mod phase2;
pub mod phase3;
pub mod phase4;
pub mod pipeline;
pub mod synthesizer;

pub use batch::{Batch, BatchResult};
pub use flow::{paper_rows_json, ConfigEval, DesignReport, FlowError};
pub use incremental::TouchedTargets;
pub use params::{paper_suite_params, DesignParams, Windowing};
pub use phase2::Preprocessed;
pub use phase3::{
    solve_directions, synthesize_exact, synthesize_heuristic, SynthesisEngine, SynthesisOutcome,
};
pub use phase4::{QosReport, QosStream, Validation};
pub use pipeline::{
    AnalysisArtifact, AnalysisKey, Analyzed, BaselineSet, Collected, CollectionKey, Evaluation,
    Pipeline, Synthesized,
};
pub use synthesizer::{Exact, Heuristic, Portfolio, SolverKind, Synthesizer};

/// Minimal JSON string escaping for names and labels in the hand-rolled
/// JSON renderers ([`SynthesisOutcome::to_json`],
/// [`DesignReport::paper_row_json`] and the CLI/gateway wire formats —
/// the offline build carries no JSON dependency).
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
