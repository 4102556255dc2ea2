//! Cycle-accurate communication traces.
//!
//! A [`Trace`] is the list of transactions observed (or offered) on the
//! interconnect: each [`TraceEvent`] says *initiator `i` transferred data to
//! target `t` for `duration` cycles starting at cycle `start`*. Traces are
//! produced either by workload generators (offered traffic) or by the
//! cycle-accurate simulator in phase 1 of the design flow (observed traffic
//! on a full crossbar), and consumed by the window-based analysis.

use crate::ids::{InitiatorId, TargetId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One bus transaction: `initiator` occupies the path to `target` for
/// `duration` consecutive cycles starting at `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceEvent {
    /// The master issuing the transaction.
    pub initiator: InitiatorId,
    /// The slave receiving the transaction.
    pub target: TargetId,
    /// First cycle of the data transfer.
    pub start: u64,
    /// Number of cycles the transfer occupies (> 0).
    pub duration: u32,
    /// Whether this transaction belongs to a critical / real-time stream.
    pub critical: bool,
}

impl TraceEvent {
    /// Creates a non-critical event.
    #[must_use]
    pub fn new(initiator: InitiatorId, target: TargetId, start: u64, duration: u32) -> Self {
        Self {
            initiator,
            target,
            start,
            duration,
            critical: false,
        }
    }

    /// Creates a critical (real-time) event.
    #[must_use]
    pub fn critical(initiator: InitiatorId, target: TargetId, start: u64, duration: u32) -> Self {
        Self {
            initiator,
            target,
            start,
            duration,
            critical: true,
        }
    }

    /// First cycle *after* the transfer: the event occupies `[start, end())`.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.start + u64::from(self.duration)
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}->{} @[{}, {}){}",
            self.initiator,
            self.target,
            self.start,
            self.end(),
            if self.critical { " (critical)" } else { "" }
        )
    }
}

/// A communication trace over a fixed simulation horizon.
///
/// Events are kept sorted by start cycle (ties broken by target then
/// initiator); [`Trace::push`] maintains amortised append order and
/// [`Trace::finish_sorting`] restores the invariant after bulk insertion.
///
/// ```
/// use stbus_traffic::{Trace, TraceEvent, InitiatorId, TargetId};
///
/// let mut trace = Trace::new(2, 3);
/// trace.push(TraceEvent::new(InitiatorId::new(0), TargetId::new(1), 10, 4));
/// trace.push(TraceEvent::new(InitiatorId::new(1), TargetId::new(2), 4, 8));
/// trace.finish_sorting();
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.horizon(), 14);
/// assert_eq!(trace.events()[0].start, 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    num_initiators: usize,
    num_targets: usize,
    events: Vec<TraceEvent>,
    sorted: bool,
}

impl Trace {
    /// Creates an empty trace for a system with the given core counts.
    #[must_use]
    pub fn new(num_initiators: usize, num_targets: usize) -> Self {
        Self {
            num_initiators,
            num_targets,
            events: Vec::new(),
            sorted: true,
        }
    }

    /// Appends an event.
    ///
    /// # Panics
    ///
    /// Panics if the event references an out-of-range initiator or target,
    /// or has zero duration — both indicate a bug in the producer.
    #[inline]
    pub fn push(&mut self, event: TraceEvent) {
        assert!(
            event.initiator.index() < self.num_initiators,
            "initiator {} out of range (< {})",
            event.initiator,
            self.num_initiators
        );
        assert!(
            event.target.index() < self.num_targets,
            "target {} out of range (< {})",
            event.target,
            self.num_targets
        );
        assert!(event.duration > 0, "zero-duration event {event}");
        if let Some(last) = self.events.last() {
            if last.start > event.start {
                self.sorted = false;
            }
        }
        self.events.push(event);
    }

    /// Restores the sorted-by-start invariant after bulk insertion.
    pub fn finish_sorting(&mut self) {
        if !self.sorted {
            self.events
                .sort_by_key(|e| (e.start, e.target, e.initiator));
            self.sorted = true;
        }
    }

    /// Returns `true` if events are currently sorted by start cycle.
    #[must_use]
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// The events of the trace (sorted iff [`Trace::is_sorted`]).
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the trace holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of initiators in the traced system.
    #[must_use]
    pub fn num_initiators(&self) -> usize {
        self.num_initiators
    }

    /// Number of targets in the traced system.
    #[must_use]
    pub fn num_targets(&self) -> usize {
        self.num_targets
    }

    /// Last occupied cycle + 1, i.e. the simulation period length.
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.events.iter().map(TraceEvent::end).max().unwrap_or(0)
    }

    /// Total busy cycles summed over all events (each event contributes its
    /// full duration; concurrent events count multiply).
    #[must_use]
    pub fn total_busy_cycles(&self) -> u64 {
        self.events.iter().map(|e| u64::from(e.duration)).sum()
    }

    /// Total busy cycles per target, indexed by target.
    #[must_use]
    pub fn busy_cycles_per_target(&self) -> Vec<u64> {
        let mut busy = vec![0u64; self.num_targets];
        for e in &self.events {
            busy[e.target.index()] += u64::from(e.duration);
        }
        busy
    }

    /// Events destined to one target, in trace order.
    #[must_use]
    pub fn events_for_target(&self, target: TargetId) -> Vec<TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.target == target)
            .copied()
            .collect()
    }

    /// Events issued by one initiator, in trace order.
    #[must_use]
    pub fn events_for_initiator(&self, initiator: InitiatorId) -> Vec<TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.initiator == initiator)
            .copied()
            .collect()
    }

    /// Iterates over the events.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceEvent> {
        self.events.iter()
    }

    /// Builds the response trace with per-event durations scaled from the
    /// request durations (read responses carry the requested data back, so
    /// their length tracks the request burst length; `scale` < 1 models
    /// write-heavy traffic whose responses are short acknowledgements).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite or is negative.
    #[must_use]
    pub fn response_trace_scaled(&self, scale: f64) -> Trace {
        assert!(
            scale.is_finite() && scale >= 0.0,
            "response scale must be a non-negative finite factor"
        );
        let mut resp = Trace::new(self.num_targets, self.num_initiators);
        for e in &self.events {
            let duration = ((f64::from(e.duration) * scale).round() as u32).max(1);
            resp.push(TraceEvent {
                initiator: InitiatorId::new(e.target.index()),
                target: TargetId::new(e.initiator.index()),
                start: e.end(),
                duration,
                critical: e.critical,
            });
        }
        resp.finish_sorting();
        resp
    }

    /// Builds the *response trace* seen by the target→initiator crossbar:
    /// each request event generates a response of `response_duration` cycles
    /// issued right after the request completes. In the response direction
    /// the initiators play the role of "targets" of the analysis, so the
    /// returned trace swaps the index spaces accordingly (responses are
    /// keyed by the initiator that receives them).
    #[must_use]
    pub fn response_trace(&self, response_duration: u32) -> Trace {
        let mut resp = Trace::new(self.num_targets, self.num_initiators);
        for e in &self.events {
            resp.push(TraceEvent {
                initiator: InitiatorId::new(e.target.index()),
                target: TargetId::new(e.initiator.index()),
                start: e.end(),
                duration: response_duration.max(1),
                critical: e.critical,
            });
        }
        resp.finish_sorting();
        resp
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEvent;
    type IntoIter = std::slice::Iter<'a, TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl Extend<TraceEvent> for Trace {
    fn extend<T: IntoIterator<Item = TraceEvent>>(&mut self, iter: T) {
        for e in iter {
            self.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: usize, t: usize, start: u64, dur: u32) -> TraceEvent {
        TraceEvent::new(InitiatorId::new(i), TargetId::new(t), start, dur)
    }

    #[test]
    fn push_and_len() {
        let mut tr = Trace::new(2, 2);
        assert!(tr.is_empty());
        tr.push(ev(0, 0, 0, 5));
        tr.push(ev(1, 1, 3, 2));
        assert_eq!(tr.len(), 2);
        assert!(!tr.is_empty());
    }

    #[test]
    fn horizon_is_max_end() {
        let mut tr = Trace::new(2, 2);
        tr.push(ev(0, 0, 0, 5));
        tr.push(ev(1, 1, 3, 10));
        assert_eq!(tr.horizon(), 13);
    }

    #[test]
    fn empty_horizon_is_zero() {
        let tr = Trace::new(1, 1);
        assert_eq!(tr.horizon(), 0);
    }

    #[test]
    fn sorting_restored() {
        let mut tr = Trace::new(2, 2);
        tr.push(ev(0, 0, 10, 1));
        tr.push(ev(1, 1, 5, 1));
        assert!(!tr.is_sorted());
        tr.finish_sorting();
        assert!(tr.is_sorted());
        assert_eq!(tr.events()[0].start, 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_target_panics() {
        let mut tr = Trace::new(1, 1);
        tr.push(ev(0, 3, 0, 1));
    }

    #[test]
    #[should_panic(expected = "zero-duration")]
    fn zero_duration_panics() {
        let mut tr = Trace::new(1, 1);
        tr.push(ev(0, 0, 0, 0));
    }

    #[test]
    fn busy_cycles_accounting() {
        let mut tr = Trace::new(2, 3);
        tr.push(ev(0, 0, 0, 5));
        tr.push(ev(1, 0, 5, 5));
        tr.push(ev(0, 2, 2, 3));
        assert_eq!(tr.total_busy_cycles(), 13);
        assert_eq!(tr.busy_cycles_per_target(), vec![10, 0, 3]);
    }

    #[test]
    fn per_target_and_per_initiator_filters() {
        let mut tr = Trace::new(2, 2);
        tr.push(ev(0, 0, 0, 1));
        tr.push(ev(0, 1, 1, 1));
        tr.push(ev(1, 1, 2, 1));
        assert_eq!(tr.events_for_target(TargetId::new(1)).len(), 2);
        assert_eq!(tr.events_for_initiator(InitiatorId::new(0)).len(), 2);
    }

    #[test]
    fn response_trace_swaps_roles() {
        let mut tr = Trace::new(2, 3);
        tr.push(ev(1, 2, 10, 4));
        let resp = tr.response_trace(2);
        assert_eq!(resp.num_initiators(), 3);
        assert_eq!(resp.num_targets(), 2);
        let e = resp.events()[0];
        assert_eq!(e.initiator.index(), 2);
        assert_eq!(e.target.index(), 1);
        assert_eq!(e.start, 14);
        assert_eq!(e.duration, 2);
    }

    #[test]
    fn response_trace_preserves_criticality() {
        let mut tr = Trace::new(1, 1);
        tr.push(TraceEvent::critical(
            InitiatorId::new(0),
            TargetId::new(0),
            0,
            3,
        ));
        let resp = tr.response_trace(1);
        assert!(resp.events()[0].critical);
    }

    #[test]
    fn response_trace_scaled_tracks_durations() {
        let mut tr = Trace::new(1, 1);
        tr.push(ev(0, 0, 0, 8));
        let full = tr.response_trace_scaled(1.0);
        assert_eq!(full.events()[0].duration, 8);
        let half = tr.response_trace_scaled(0.5);
        assert_eq!(half.events()[0].duration, 4);
        let tiny = tr.response_trace_scaled(0.0);
        assert_eq!(tiny.events()[0].duration, 1); // clamped to 1
    }

    #[test]
    fn extend_works() {
        let mut tr = Trace::new(1, 1);
        tr.extend(vec![ev(0, 0, 0, 1), ev(0, 0, 5, 1)]);
        assert_eq!(tr.len(), 2);
    }

    #[test]
    fn event_display() {
        let e = ev(0, 1, 5, 3);
        assert_eq!(e.to_string(), "I0->T1 @[5, 8)");
    }
}
