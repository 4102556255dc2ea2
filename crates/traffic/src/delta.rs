//! Workload deltas — the edit language of incremental re-synthesis.
//!
//! The service access pattern the gateway sees is *many near-identical
//! requests*: one target's trace re-captured, a target added or retired,
//! one θ step. A [`WorkloadDelta`] describes such an edit against a
//! previously **collected** (observed) trace, and the `apply_delta`
//! family on [`WindowStats`](crate::WindowStats),
//! [`OverlapProfile`](crate::OverlapProfile) and
//! [`ConflictGraph`](crate::ConflictGraph) re-derives the analysis
//! artifacts touching only the edited targets — O(touched × targets)
//! pairwise work instead of O(pairs) — with results **bit-identical** to
//! a from-scratch analysis of [`WorkloadDelta::apply`]'s patched trace
//! (the `incremental_equivalence` suite proves it under proptest).
//!
//! Two modelling decisions keep the delta well-defined:
//!
//! * **Deltas operate on observed traces.** Phase 1 couples targets
//!   through shared initiators (`max_outstanding` back-pressure in the
//!   arbitrated simulation), so editing one target's *offered* traffic
//!   can ripple into every other target's observed timing. The delta
//!   therefore edits the *collected* trace directly; the equivalence
//!   contract is against re-analysing the patched observed trace, not
//!   against re-simulating the edited workload.
//! * **Removal silences, it does not renumber.** A removed target keeps
//!   its index with an empty event set, so bindings from the previous
//!   synthesis stay index-compatible — which is what lets the
//!   warm-started binding search verify the old assignment against the
//!   patched conflict graph without any remapping.

use crate::ids::TargetId;
use crate::trace::{Trace, TraceEvent};
use crate::window::AnalysisTooLarge;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Full replacement of one target's observed events.
///
/// Replacement (rather than splicing) keeps the edit language trivial to
/// validate and mirrors how traces are re-captured in practice: the
/// producer re-runs the workload region and ships the target's new event
/// list wholesale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetEdit {
    /// The target whose events are replaced.
    pub target: TargetId,
    /// The replacement events; every event must name [`TargetEdit::target`]
    /// as its target.
    pub events: Vec<TraceEvent>,
}

/// An edit against a previously collected trace: targets added (fresh
/// indices appended), targets removed (silenced in place), per-target
/// event replacements, and an optional overlap-threshold change.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkloadDelta {
    /// Number of fresh target indices appended after the existing ones.
    /// New targets start silent; give them traffic via [`Self::edits`].
    pub add_targets: usize,
    /// Targets whose events are dropped. Indices are **kept** (the target
    /// goes silent) so downstream bindings stay index-compatible.
    pub removed: Vec<TargetId>,
    /// Per-target event replacements.
    pub edits: Vec<TargetEdit>,
    /// New overlap threshold θ, when the request also re-thresholds.
    /// Threshold changes re-derive the conflict graph from the (patched)
    /// overlap profile in O(pairs); they do not touch the window stats.
    pub threshold: Option<f64>,
}

/// Why a [`WorkloadDelta`] was rejected against a particular base trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// A removed or edited target index is outside the patched system.
    TargetOutOfRange {
        /// The offending index.
        target: usize,
        /// Number of targets after `add_targets` is applied.
        num_targets: usize,
    },
    /// The same target appears twice in `removed` or twice in `edits`.
    DuplicateTarget {
        /// The duplicated index.
        target: usize,
    },
    /// A target is both removed and edited — contradictory instructions.
    RemovedAndEdited {
        /// The conflicted index.
        target: usize,
    },
    /// An edit event names a different target than its edit.
    EventTargetMismatch {
        /// The edit's target.
        edit: usize,
        /// The event's target.
        event: usize,
    },
    /// An edit event references an initiator the base system lacks.
    /// Deltas may add targets but never initiators (the initiator side is
    /// fixed by the application model).
    ForeignInitiator {
        /// The offending initiator index.
        initiator: usize,
        /// The base system's initiator count.
        num_initiators: usize,
    },
    /// An edit event has zero duration.
    ZeroDurationEvent {
        /// The edit's target.
        target: usize,
    },
    /// The threshold override is negative, NaN or infinite.
    InvalidThreshold,
    /// The patched traffic's window analysis would exceed
    /// [`crate::window::MAX_ANALYSIS_CELLS`] (an edit far past the
    /// horizon, say).
    AnalysisTooLarge(AnalysisTooLarge),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::TargetOutOfRange {
                target,
                num_targets,
            } => {
                write!(f, "delta target {target} out of range (< {num_targets})")
            }
            DeltaError::DuplicateTarget { target } => {
                write!(f, "delta names target {target} twice")
            }
            DeltaError::RemovedAndEdited { target } => {
                write!(f, "delta both removes and edits target {target}")
            }
            DeltaError::EventTargetMismatch { edit, event } => {
                write!(
                    f,
                    "edit of target {edit} carries an event for target {event}"
                )
            }
            DeltaError::ForeignInitiator {
                initiator,
                num_initiators,
            } => {
                write!(
                    f,
                    "edit event initiator {initiator} out of range (< {num_initiators}); \
                     deltas cannot add initiators"
                )
            }
            DeltaError::ZeroDurationEvent { target } => {
                write!(f, "edit of target {target} carries a zero-duration event")
            }
            DeltaError::InvalidThreshold => {
                write!(
                    f,
                    "threshold override must be a non-negative finite fraction"
                )
            }
            DeltaError::AnalysisTooLarge(e) => e.fmt(f),
        }
    }
}

impl Error for DeltaError {}

impl WorkloadDelta {
    /// A delta that changes nothing.
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// `true` when applying this delta is a no-op.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.add_targets == 0
            && self.removed.is_empty()
            && self.edits.is_empty()
            && self.threshold.is_none()
    }

    /// `true` when the delta edits traffic (as opposed to only moving θ).
    #[must_use]
    pub fn touches_traffic(&self) -> bool {
        self.add_targets > 0 || !self.removed.is_empty() || !self.edits.is_empty()
    }

    /// Number of targets after the delta is applied to a base with
    /// `base_targets` targets.
    #[must_use]
    pub fn new_num_targets(&self, base_targets: usize) -> usize {
        base_targets + self.add_targets
    }

    /// Checks the delta against a base trace.
    ///
    /// # Errors
    ///
    /// The first [`DeltaError`] found, if any.
    pub fn validate(&self, base: &Trace) -> Result<(), DeltaError> {
        let n = self.new_num_targets(base.num_targets());
        if let Some(theta) = self.threshold {
            if !theta.is_finite() || theta < 0.0 {
                return Err(DeltaError::InvalidThreshold);
            }
        }
        let mut seen_removed = vec![false; n];
        for t in &self.removed {
            let t = t.index();
            if t >= base.num_targets() {
                return Err(DeltaError::TargetOutOfRange {
                    target: t,
                    num_targets: base.num_targets(),
                });
            }
            if seen_removed[t] {
                return Err(DeltaError::DuplicateTarget { target: t });
            }
            seen_removed[t] = true;
        }
        let mut seen_edited = vec![false; n];
        for edit in &self.edits {
            let t = edit.target.index();
            if t >= n {
                return Err(DeltaError::TargetOutOfRange {
                    target: t,
                    num_targets: n,
                });
            }
            if seen_edited[t] {
                return Err(DeltaError::DuplicateTarget { target: t });
            }
            if seen_removed[t] {
                return Err(DeltaError::RemovedAndEdited { target: t });
            }
            seen_edited[t] = true;
            for e in &edit.events {
                if e.target != edit.target {
                    return Err(DeltaError::EventTargetMismatch {
                        edit: t,
                        event: e.target.index(),
                    });
                }
                if e.initiator.index() >= base.num_initiators() {
                    return Err(DeltaError::ForeignInitiator {
                        initiator: e.initiator.index(),
                        num_initiators: base.num_initiators(),
                    });
                }
                if e.duration == 0 {
                    return Err(DeltaError::ZeroDurationEvent { target: t });
                }
            }
        }
        Ok(())
    }

    /// The targets whose analysis rows must be recomputed after this
    /// delta: removed, edited and freshly added indices, sorted and
    /// deduplicated. This is the `touched` argument the `apply_delta`
    /// family expects.
    #[must_use]
    pub fn touched(&self, base_targets: usize) -> Vec<usize> {
        let mut touched: Vec<usize> = self
            .removed
            .iter()
            .map(|t| t.index())
            .chain(self.edits.iter().map(|e| e.target.index()))
            .chain(base_targets..self.new_num_targets(base_targets))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    /// Applies the delta to a base trace, producing the patched trace a
    /// from-scratch re-analysis would consume. The result is sorted
    /// (canonical event order), so analysing it is deterministic.
    ///
    /// # Errors
    ///
    /// Any [`DeltaError`] from [`WorkloadDelta::validate`].
    pub fn apply(&self, base: &Trace) -> Result<Trace, DeltaError> {
        self.validate(base)?;
        let n = self.new_num_targets(base.num_targets());
        let mut replaced = vec![false; n];
        for t in &self.removed {
            replaced[t.index()] = true;
        }
        for edit in &self.edits {
            replaced[edit.target.index()] = true;
        }
        let mut patched = Trace::new(base.num_initiators(), n);
        for e in base.iter() {
            if !replaced[e.target.index()] {
                patched.push(*e);
            }
        }
        for edit in &self.edits {
            for e in &edit.events {
                patched.push(*e);
            }
        }
        patched.finish_sorting();
        Ok(patched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::InitiatorId;

    fn ev(i: usize, t: usize, start: u64, dur: u32) -> TraceEvent {
        TraceEvent::new(InitiatorId::new(i), TargetId::new(t), start, dur)
    }

    fn base() -> Trace {
        let mut tr = Trace::new(2, 3);
        tr.push(ev(0, 0, 0, 50));
        tr.push(ev(1, 1, 20, 60));
        tr.push(ev(0, 2, 100, 30));
        tr.push(ev(1, 0, 200, 10));
        tr.finish_sorting();
        tr
    }

    #[test]
    fn empty_delta_is_identity_on_events() {
        let tr = base();
        let patched = WorkloadDelta::empty().apply(&tr).expect("valid");
        assert_eq!(patched.events(), tr.events());
        assert_eq!(patched.num_targets(), tr.num_targets());
        assert!(WorkloadDelta::empty().is_empty());
        assert!(WorkloadDelta::empty().touched(3).is_empty());
    }

    #[test]
    fn removal_silences_but_keeps_index_space() {
        let delta = WorkloadDelta {
            removed: vec![TargetId::new(1)],
            ..WorkloadDelta::default()
        };
        let patched = delta.apply(&base()).expect("valid");
        assert_eq!(patched.num_targets(), 3);
        assert!(patched.events_for_target(TargetId::new(1)).is_empty());
        assert_eq!(patched.events_for_target(TargetId::new(0)).len(), 2);
        assert_eq!(delta.touched(3), vec![1]);
    }

    #[test]
    fn edit_replaces_whole_event_set() {
        let delta = WorkloadDelta {
            edits: vec![TargetEdit {
                target: TargetId::new(0),
                events: vec![ev(1, 0, 400, 25)],
            }],
            ..WorkloadDelta::default()
        };
        let patched = delta.apply(&base()).expect("valid");
        let t0 = patched.events_for_target(TargetId::new(0));
        assert_eq!(t0.len(), 1);
        assert_eq!(t0[0].start, 400);
        assert_eq!(patched.horizon(), 425);
    }

    #[test]
    fn added_targets_extend_the_index_space() {
        let delta = WorkloadDelta {
            add_targets: 2,
            edits: vec![TargetEdit {
                target: TargetId::new(3),
                events: vec![ev(0, 3, 10, 5)],
            }],
            ..WorkloadDelta::default()
        };
        let patched = delta.apply(&base()).expect("valid");
        assert_eq!(patched.num_targets(), 5);
        assert_eq!(patched.events_for_target(TargetId::new(3)).len(), 1);
        assert!(patched.events_for_target(TargetId::new(4)).is_empty());
        assert_eq!(delta.touched(3), vec![3, 4]);
    }

    #[test]
    fn validation_rejects_bad_deltas() {
        let tr = base();
        let oob = WorkloadDelta {
            removed: vec![TargetId::new(7)],
            ..WorkloadDelta::default()
        };
        assert!(matches!(
            oob.validate(&tr),
            Err(DeltaError::TargetOutOfRange { target: 7, .. })
        ));
        let dup = WorkloadDelta {
            removed: vec![TargetId::new(1), TargetId::new(1)],
            ..WorkloadDelta::default()
        };
        assert!(matches!(
            dup.validate(&tr),
            Err(DeltaError::DuplicateTarget { target: 1 })
        ));
        let both = WorkloadDelta {
            removed: vec![TargetId::new(1)],
            edits: vec![TargetEdit {
                target: TargetId::new(1),
                events: Vec::new(),
            }],
            ..WorkloadDelta::default()
        };
        assert!(matches!(
            both.validate(&tr),
            Err(DeltaError::RemovedAndEdited { target: 1 })
        ));
        let mismatch = WorkloadDelta {
            edits: vec![TargetEdit {
                target: TargetId::new(1),
                events: vec![ev(0, 2, 0, 5)],
            }],
            ..WorkloadDelta::default()
        };
        assert!(matches!(
            mismatch.validate(&tr),
            Err(DeltaError::EventTargetMismatch { edit: 1, event: 2 })
        ));
        let foreign = WorkloadDelta {
            edits: vec![TargetEdit {
                target: TargetId::new(1),
                events: vec![ev(9, 1, 0, 5)],
            }],
            ..WorkloadDelta::default()
        };
        assert!(matches!(
            foreign.validate(&tr),
            Err(DeltaError::ForeignInitiator { initiator: 9, .. })
        ));
        let bad_theta = WorkloadDelta {
            threshold: Some(-0.5),
            ..WorkloadDelta::default()
        };
        assert_eq!(bad_theta.validate(&tr), Err(DeltaError::InvalidThreshold));
    }

    #[test]
    fn error_messages_name_the_problem() {
        assert!(DeltaError::TargetOutOfRange {
            target: 7,
            num_targets: 3
        }
        .to_string()
        .contains("out of range"));
        assert!(DeltaError::InvalidThreshold
            .to_string()
            .contains("threshold"));
    }
}
