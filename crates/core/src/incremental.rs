//! Incremental re-synthesis — delta patching of collected traffic.
//!
//! The gateway's realistic access pattern is many near-identical
//! requests: one target's trace re-captured, a target added or retired,
//! one θ step. [`patch_traffic`] turns a base [`CollectedTraffic`] plus a
//! [`WorkloadDelta`] into the patched traffic a from-scratch re-analysis
//! would consume, together with the per-direction `touched` target lists
//! the `apply_delta` family in `stbus-traffic` needs to re-derive the
//! analysis artifacts in O(touched × targets) instead of O(pairs).
//!
//! # The response-direction model
//!
//! Phase 1 collects the target→initiator (TI) trace by *re-simulating*
//! the ideal response stream through a full crossbar, so an edited
//! request trace has no exact observed counterpart short of re-running
//! that simulation — which is precisely the cost the delta path exists to
//! avoid. The delta therefore defines the patched TI trace by the
//! **ideal-response model** ([`Trace::response_trace_scaled`]): responses
//! of re-captured targets issue the moment their requests complete, with
//! durations scaled by the collection's `response_scale`. Responses of
//! untouched targets keep their originally *observed* (arbitrated)
//! timing. This is a documented modelling choice, not an approximation
//! bug: the bit-identity contract of incremental re-synthesis is against
//! a from-scratch **analysis of this same patched traffic**
//! ([`crate::pipeline::Collected::apply_delta`] followed by
//! [`crate::pipeline::Collected::analyze`]), which the
//! `incremental_equivalence` suite proves under proptest. Callers who
//! need arbitration-exact response timing for an edited workload must
//! re-collect.

use crate::phase1::CollectedTraffic;
use stbus_traffic::{DeltaError, Trace, WorkloadDelta};
use std::sync::Arc;

/// Per-direction lists of targets whose analysis rows a delta
/// invalidates, sorted and deduplicated — the `touched` arguments of
/// `WindowStats::apply_delta` / `OverlapProfile::apply_delta`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TouchedTargets {
    /// Touched targets of the request-path (initiator→target) analysis.
    pub it: Vec<usize>,
    /// Touched targets of the response-path (target→initiator) analysis —
    /// the original *initiators* whose response streams gained or lost
    /// events.
    pub ti: Vec<usize>,
}

/// Applies `delta` to both directions of a collected-traffic artifact.
///
/// The request trace is patched exactly per [`WorkloadDelta::apply`]; the
/// response trace follows the ideal-response model documented at module
/// level, with `response_scale` taken from the original collection. The
/// simulation reports are carried over unchanged: they describe the base
/// collection, which is what phase 4's `"full"` baseline reuses them as,
/// since phase 4 replays the base application.
///
/// # Errors
///
/// Any [`DeltaError`] from [`WorkloadDelta::validate`] against the base
/// request trace.
pub fn patch_traffic(
    base: &CollectedTraffic,
    delta: &WorkloadDelta,
    response_scale: f64,
) -> Result<(CollectedTraffic, TouchedTargets), DeltaError> {
    let it_trace = delta.apply(&base.it_trace)?;
    let it = delta.touched(base.it_trace.num_targets());

    // TI index spaces: initiators are the (grown) IT targets, targets are
    // the IT initiators — deltas never add initiators, so that side is
    // fixed.
    let ti_num_initiators = it_trace.num_targets();
    let ti_num_targets = base.ti_trace.num_targets();
    let mut it_touched = vec![false; ti_num_initiators];
    for &t in &it {
        it_touched[t] = true;
    }

    // Replacement responses: route the edited request events through the
    // real ideal-response constructor so the model cannot drift from
    // `response_trace_scaled`.
    let mut edited = Trace::new(base.it_trace.num_initiators(), ti_num_initiators);
    for edit in &delta.edits {
        for e in &edit.events {
            edited.push(*e);
        }
    }
    edited.finish_sorting();
    let new_responses = edited.response_trace_scaled(response_scale);

    let mut ti = Vec::new();
    let mut ti_trace = Trace::new(ti_num_initiators, ti_num_targets);
    for e in base.ti_trace.iter() {
        if it_touched[e.initiator.index()] {
            // A response issued by a re-captured/removed target: dropped,
            // and its receiving initiator's analysis row is invalidated.
            ti.push(e.target.index());
        } else {
            ti_trace.push(*e);
        }
    }
    for e in new_responses.iter() {
        ti.push(e.target.index());
        ti_trace.push(*e);
    }
    ti_trace.finish_sorting();
    ti.sort_unstable();
    ti.dedup();

    Ok((
        CollectedTraffic {
            it_trace,
            ti_trace,
            it_report: Arc::clone(&base.it_report),
            ti_report: Arc::clone(&base.ti_report),
        },
        TouchedTargets { it, ti },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DesignParams;
    use crate::phase1::collect;
    use stbus_traffic::{workloads, InitiatorId, TargetEdit, TargetId, TraceEvent};

    fn base() -> CollectedTraffic {
        collect(&workloads::matrix::mat2(42), &DesignParams::default())
    }

    #[test]
    fn empty_delta_keeps_both_traces() {
        let base = base();
        let (patched, touched) = patch_traffic(&base, &WorkloadDelta::empty(), 1.0).unwrap();
        assert_eq!(patched.it_trace, base.it_trace);
        assert_eq!(patched.ti_trace, base.ti_trace);
        assert!(touched.it.is_empty() && touched.ti.is_empty());
    }

    #[test]
    fn patched_collection_shares_the_base_reports() {
        let base = base();
        let delta = WorkloadDelta {
            removed: vec![TargetId::new(1)],
            ..WorkloadDelta::default()
        };
        let (patched, _) = patch_traffic(&base, &delta, 1.0).unwrap();
        assert!(Arc::ptr_eq(&patched.it_report, &base.it_report));
        assert!(Arc::ptr_eq(&patched.ti_report, &base.ti_report));
    }

    #[test]
    fn edit_replaces_requests_and_models_responses() {
        let base = base();
        let scale = 1.0;
        let edit_events = vec![TraceEvent::new(
            InitiatorId::new(0),
            TargetId::new(3),
            10,
            7,
        )];
        let delta = WorkloadDelta {
            edits: vec![TargetEdit {
                target: TargetId::new(3),
                events: edit_events.clone(),
            }],
            ..WorkloadDelta::default()
        };
        let (patched, touched) = patch_traffic(&base, &delta, scale).unwrap();
        assert_eq!(touched.it, vec![3]);
        assert_eq!(
            patched.it_trace.events_for_target(TargetId::new(3)),
            edit_events
        );
        // Target 3's responses now follow the ideal model: one response
        // per new request, starting at its end, landing on the issuing
        // initiator (TI target 0).
        let ti3: Vec<_> = patched.ti_trace.events_for_initiator(InitiatorId::new(3));
        assert_eq!(ti3.len(), 1);
        assert_eq!(ti3[0].start, 17);
        assert_eq!(ti3[0].target.index(), 0);
        assert!(touched.ti.contains(&0));
        // Untouched targets keep their observed responses verbatim.
        for e in base.ti_trace.iter().filter(|e| e.initiator.index() != 3) {
            assert!(patched.ti_trace.iter().any(|p| p == e));
        }
    }

    #[test]
    fn removal_silences_responses_too() {
        let base = base();
        let delta = WorkloadDelta {
            removed: vec![TargetId::new(1)],
            ..WorkloadDelta::default()
        };
        let (patched, touched) = patch_traffic(&base, &delta, 1.0).unwrap();
        assert!(patched
            .it_trace
            .events_for_target(TargetId::new(1))
            .is_empty());
        assert!(patched
            .ti_trace
            .events_for_initiator(InitiatorId::new(1))
            .is_empty());
        // The initiators that used to receive target 1's responses are
        // the TI-touched set.
        let receivers: Vec<usize> = {
            let mut r: Vec<usize> = base
                .ti_trace
                .iter()
                .filter(|e| e.initiator.index() == 1)
                .map(|e| e.target.index())
                .collect();
            r.sort_unstable();
            r.dedup();
            r
        };
        assert_eq!(touched.ti, receivers);
    }

    #[test]
    fn added_target_grows_the_response_initiator_space() {
        let base = base();
        let n = base.it_trace.num_targets();
        let delta = WorkloadDelta {
            add_targets: 1,
            edits: vec![TargetEdit {
                target: TargetId::new(n),
                events: vec![TraceEvent::new(InitiatorId::new(2), TargetId::new(n), 5, 4)],
            }],
            ..WorkloadDelta::default()
        };
        let (patched, touched) = patch_traffic(&base, &delta, 0.5).unwrap();
        assert_eq!(patched.it_trace.num_targets(), n + 1);
        assert_eq!(patched.ti_trace.num_initiators(), n + 1);
        assert_eq!(patched.ti_trace.num_targets(), base.ti_trace.num_targets());
        assert_eq!(touched.it, vec![n]);
        assert_eq!(touched.ti, vec![2]);
        let resp: Vec<_> = patched.ti_trace.events_for_initiator(InitiatorId::new(n));
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].start, 9);
        assert_eq!(resp[0].duration, 2); // 4 × 0.5
    }

    #[test]
    fn invalid_delta_is_rejected() {
        let base = base();
        let delta = WorkloadDelta {
            removed: vec![TargetId::new(999)],
            ..WorkloadDelta::default()
        };
        assert!(patch_traffic(&base, &delta, 1.0).is_err());
    }
}
