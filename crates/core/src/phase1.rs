//! Phase 1 — traffic collection on a full crossbar.
//!
//! The application is first run on full initiator→target and
//! target→initiator crossbars (the least-contended configuration) and the
//! arbitrated traffic is recorded. The observed trace — not the offered
//! one — feeds the window analysis, exactly as the paper collects traces
//! from cycle-accurate MPARM simulation of the full-crossbar design.

use crate::params::DesignParams;
use stbus_sim::{simulate_with, CrossbarConfig, SimReport};
use stbus_traffic::{workloads::Application, Trace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide count of [`collect`] invocations.
///
/// Phase 1 is the expensive full-crossbar reference simulation, so the
/// staged pipeline promises to run it *once* per application per sweep.
/// This diagnostic counter lets tests and benches assert that promise
/// instead of trusting it.
static COLLECT_RUNS: AtomicU64 = AtomicU64::new(0);

/// Number of times phase-1 collection has run in this process.
///
/// The counter is process-global: deltas are only meaningful when no
/// other thread collects concurrently (single-threaded binaries like the
/// bench experiments, or a batch run observed from outside). Do not
/// assert deltas from concurrently scheduled unit tests — use
/// [`crate::Batch::collection_plan`] to check phase-1 dedup instead.
#[must_use]
pub fn collect_runs() -> u64 {
    COLLECT_RUNS.load(Ordering::Relaxed)
}

/// The traces collected from the full-crossbar reference run.
#[derive(Debug, Clone)]
pub struct CollectedTraffic {
    /// Observed initiator→target (request) trace.
    pub it_trace: Trace,
    /// Observed target→initiator (response) trace. In this direction the
    /// *initiators of the analysis* are the original targets, and vice
    /// versa.
    pub ti_trace: Trace,
    /// The full-crossbar request-path simulation. Phase 4 reuses it as
    /// the `"full"` baseline's request run instead of simulating again,
    /// and a delta-patched collection shares it with its base.
    pub it_report: Arc<SimReport>,
    /// The full-crossbar response-path simulation, reused the same way.
    pub ti_report: Arc<SimReport>,
}

/// Runs the application on full crossbars and collects both traces.
#[must_use]
pub fn collect(app: &Application, params: &DesignParams) -> CollectedTraffic {
    COLLECT_RUNS.fetch_add(1, Ordering::Relaxed);
    let num_initiators = app.spec.num_initiators();
    let num_targets = app.spec.num_targets();

    let it_full = CrossbarConfig::full(num_targets).with_arbitration(params.arbitration);
    let it_report = simulate_with(&app.trace, &it_full, &params.sim_options());
    let it_trace = it_report.observed_trace(num_initiators, num_targets);

    // Responses issue when their requests complete; on the response path
    // the original initiators are the targets of the analysis.
    let ti_offered = it_trace.response_trace_scaled(params.response_scale);
    let ti_full = CrossbarConfig::full(num_initiators).with_arbitration(params.arbitration);
    let ti_report = simulate_with(&ti_offered, &ti_full, &params.sim_options());
    let ti_trace = ti_report.observed_trace(num_targets, num_initiators);

    CollectedTraffic {
        it_trace,
        ti_trace,
        it_report: Arc::new(it_report),
        ti_report: Arc::new(ti_report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbus_traffic::workloads;

    #[test]
    fn collects_both_directions() {
        let app = workloads::matrix::mat2(1);
        let collected = collect(&app, &DesignParams::default());
        assert_eq!(collected.it_trace.len(), app.trace.len());
        assert_eq!(collected.ti_trace.len(), app.trace.len());
        // Request trace keyed by (initiators, targets); response trace by
        // (targets, initiators).
        assert_eq!(collected.it_trace.num_targets(), 12);
        assert_eq!(collected.ti_trace.num_targets(), 9);
    }

    #[test]
    fn observed_trace_is_serialised_per_target() {
        // On a full crossbar each target's transactions are serialised on
        // its private bus: per-target intervals must be disjoint.
        let app = workloads::matrix::mat2(2);
        let collected = collect(&app, &DesignParams::default());
        for t in 0..collected.it_trace.num_targets() {
            let mut events = collected
                .it_trace
                .events_for_target(stbus_traffic::TargetId::new(t));
            events.sort_by_key(|e| e.start);
            for pair in events.windows(2) {
                assert!(
                    pair[0].end() <= pair[1].start,
                    "target {t} has overlapping observed transactions"
                );
            }
        }
    }

    #[test]
    fn response_scale_shrinks_ti_traffic() {
        let app = workloads::matrix::mat2(3);
        let full = collect(&app, &DesignParams::default());
        let half = collect(&app, &DesignParams::default().with_response_scale(0.25));
        assert!(half.ti_trace.total_busy_cycles() < full.ti_trace.total_busy_cycles());
    }
}
