//! The discrete-event replay engine.
//!
//! [`simulate`] replays an offered trace against a [`CrossbarConfig`]:
//! every initiator is a blocking in-order master, every bus serves one
//! transaction at a time under its arbiter, and the engine reports
//! per-packet latencies, per-bus utilisation and the *observed*
//! (arbitrated) trace — the input to phase 1 traffic analysis.

use crate::arbiter::Arbiter;
use crate::config::CrossbarConfig;
use crate::metrics::{BusStats, PacketRecord};
use stbus_traffic::{InitiatorId, Summary, Trace, TraceEvent};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    packets: Vec<PacketRecord>,
    bus_busy: Vec<u64>,
    bus_grants: Vec<u64>,
    horizon: u64,
    num_buses: usize,
}

impl SimReport {
    /// All packet records, in grant order.
    #[must_use]
    pub fn packets(&self) -> &[PacketRecord] {
        &self.packets
    }

    /// Summary of interconnect latency over all packets.
    #[must_use]
    pub fn latency(&self) -> Summary {
        Summary::from_cycles(self.packets.iter().map(PacketRecord::latency))
    }

    /// Average packet latency in cycles.
    #[must_use]
    pub fn avg_latency(&self) -> f64 {
        self.latency().mean
    }

    /// Maximum packet latency in cycles.
    #[must_use]
    pub fn max_latency(&self) -> u64 {
        self.packets
            .iter()
            .map(PacketRecord::latency)
            .max()
            .unwrap_or(0)
    }

    /// Latency summary restricted to one target.
    #[must_use]
    pub fn latency_for_target(&self, target: usize) -> Summary {
        Summary::from_cycles(
            self.packets
                .iter()
                .filter(|p| p.target.index() == target)
                .map(PacketRecord::latency),
        )
    }

    /// Latency summary restricted to critical packets.
    #[must_use]
    pub fn critical_latency(&self) -> Summary {
        Summary::from_cycles(
            self.packets
                .iter()
                .filter(|p| p.critical)
                .map(PacketRecord::latency),
        )
    }

    /// Last completion cycle.
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Per-bus statistics.
    #[must_use]
    pub fn bus_stats(&self) -> Vec<BusStats> {
        (0..self.num_buses)
            .map(|k| BusStats {
                bus: k,
                busy_cycles: self.bus_busy[k],
                grants: self.bus_grants[k],
                utilization: if self.horizon == 0 {
                    0.0
                } else {
                    self.bus_busy[k] as f64 / self.horizon as f64
                },
            })
            .collect()
    }

    /// The observed (post-arbitration) trace: each packet appears at its
    /// grant cycle with its transfer duration. This is what phase 1 of the
    /// design flow feeds to the window analysis.
    #[must_use]
    pub fn observed_trace(&self, num_initiators: usize, num_targets: usize) -> Trace {
        let mut trace = Trace::new(num_initiators, num_targets);
        for p in &self.packets {
            // Transfer durations fit u32 on any sane trace; a pathological
            // long-stall replay saturates instead of aborting the analysis.
            let transfer = p.complete - p.grant;
            debug_assert!(
                u32::try_from(transfer).is_ok(),
                "transfer duration {transfer} exceeds u32::MAX cycles"
            );
            trace.push(TraceEvent {
                initiator: p.initiator,
                target: p.target,
                start: p.grant,
                duration: u32::try_from(transfer).unwrap_or(u32::MAX),
                critical: p.critical,
            });
        }
        trace.finish_sorting();
        trace
    }
}

/// Master-side simulation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Maximum outstanding transactions per initiator. `1` models a
    /// blocking in-order master (the default); larger values model posted
    /// or pipelined masters, which let contention build deeper queues —
    /// the regime where bad crossbar designs degrade the hardest.
    pub max_outstanding: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self { max_outstanding: 1 }
    }
}

impl SimOptions {
    /// Options with the given outstanding-transaction depth.
    ///
    /// # Panics
    ///
    /// Panics if `max_outstanding == 0`.
    #[must_use]
    pub fn with_outstanding(max_outstanding: usize) -> Self {
        assert!(max_outstanding > 0, "at least one outstanding transaction");
        Self { max_outstanding }
    }
}

/// Replays `trace` against `config` with blocking single-outstanding
/// masters (the defaults of [`SimOptions`]).
///
/// # Panics
///
/// Panics if the configuration's target count differs from the trace's.
#[must_use]
pub fn simulate(trace: &Trace, config: &CrossbarConfig) -> SimReport {
    simulate_with(trace, config, &SimOptions::default())
}

/// Replays `trace` against `config` under explicit master-side options.
///
/// Initiators issue their transactions in order; transaction `e` of an
/// initiator becomes *ready* once (a) its scheduled cycle has arrived and
/// (b) fewer than `max_outstanding` of the initiator's earlier
/// transactions are still in flight.
///
/// # Panics
///
/// Panics if the configuration's target count differs from the trace's.
#[must_use]
pub fn simulate_with(trace: &Trace, config: &CrossbarConfig, options: &SimOptions) -> SimReport {
    assert_eq!(
        config.num_targets(),
        trace.num_targets(),
        "configuration targets != trace targets"
    );
    assert!(options.max_outstanding > 0, "max_outstanding must be >= 1");
    let num_initiators = trace.num_initiators();
    let num_buses = config.num_buses();
    let depth = options.max_outstanding;

    // Per-initiator in-order event queues.
    let mut queues: Vec<Vec<TraceEvent>> = vec![Vec::new(); num_initiators];
    for e in trace.iter() {
        queues[e.initiator.index()].push(*e);
    }
    for q in &mut queues {
        q.sort_by_key(|e| e.start);
    }
    // Issue bookkeeping per initiator.
    let mut next_issue = vec![0usize; num_initiators]; // next event to arm
    let mut completed = vec![0usize; num_initiators]; // finished transactions
    let mut armed = vec![false; num_initiators]; // a Ready event is queued

    // Pending ready requests per bus: (initiator, event index, ready_time).
    let mut pending: Vec<Vec<(usize, usize, u64)>> = vec![Vec::new(); num_buses];
    let mut busy_until = vec![0u64; num_buses];
    let mut arbiters: Vec<Arbiter> = (0..num_buses)
        .map(|_| Arbiter::new(config.arbitration(), num_initiators))
        .collect();

    // Event heap: Reverse((time, kind, id, extra));
    // kind 0 = bus `id` became free (extra = event idx completing, owner in
    // `completing_owner`), kind 1 = initiator `id`'s event `extra` ready.
    let mut heap: BinaryHeap<Reverse<(u64, u8, usize, usize)>> = BinaryHeap::new();

    // Arms the next event of initiator `i` if the issue window allows.
    // Returns the Ready entry to push, if any.
    let arm = |i: usize,
               now: u64,
               queues: &[Vec<TraceEvent>],
               next_issue: &[usize],
               completed: &[usize],
               armed: &mut [bool]|
     -> Option<(u64, usize, usize)> {
        let idx = next_issue[i];
        if armed[i] || idx >= queues[i].len() {
            return None;
        }
        // Event idx may issue once at most depth-1 earlier ones are in
        // flight: completed >= idx + 1 - depth.
        if completed[i] + depth <= idx {
            return None;
        }
        armed[i] = true;
        let ready = queues[i][idx].start.max(now);
        Some((ready, i, idx))
    };

    for i in 0..num_initiators {
        if let Some((ready, i, idx)) = arm(i, 0, &queues, &next_issue, &completed, &mut armed) {
            heap.push(Reverse((ready, 1, i, idx)));
        }
    }

    let mut packets: Vec<PacketRecord> = Vec::with_capacity(trace.len());
    // Owner initiator of the transaction completing on each bus.
    let mut completing_owner: Vec<usize> = vec![usize::MAX; num_buses];
    let mut bus_busy = vec![0u64; num_buses];
    let mut bus_grants = vec![0u64; num_buses];
    let mut horizon = 0u64;
    // Scratch reused across events, so the loop allocates nothing.
    let mut touched_buses: Vec<usize> = Vec::new();
    let mut candidates: Vec<usize> = Vec::new();

    while let Some(&Reverse((t, _, _, _))) = heap.peek() {
        // Drain every event at time t before granting, so simultaneous
        // arrivals are arbitrated together.
        touched_buses.clear();
        while let Some(&Reverse((tt, kind, id, extra))) = heap.peek() {
            if tt != t {
                break;
            }
            heap.pop();
            match kind {
                0 => {
                    // Bus `id` freed; credit the owner a completion, which
                    // may unblock its next issue.
                    let owner = completing_owner[id];
                    if owner != usize::MAX {
                        completed[owner] += 1;
                        if let Some((ready, i, idx)) =
                            arm(owner, t, &queues, &next_issue, &completed, &mut armed)
                        {
                            heap.push(Reverse((ready, 1, i, idx)));
                        }
                    }
                    touched_buses.push(id);
                }
                _ => {
                    let e = queues[id][extra];
                    let bus = config.bus_of(e.target.index());
                    pending[bus].push((id, extra, t));
                    armed[id] = false;
                    next_issue[id] = extra + 1;
                    // With depth > 1 the next event may issue immediately.
                    if let Some((ready, i, idx)) =
                        arm(id, t, &queues, &next_issue, &completed, &mut armed)
                    {
                        heap.push(Reverse((ready, 1, i, idx)));
                    }
                    touched_buses.push(bus);
                }
            }
        }
        touched_buses.sort_unstable();
        touched_buses.dedup();
        for &k in &touched_buses {
            // Grant while the bus is idle and work is pending (the grant
            // makes it busy, so at most one grant fires here).
            while busy_until[k] <= t && !pending[k].is_empty() {
                candidates.clear();
                candidates.extend(pending[k].iter().map(|&(i, _, _)| i));
                candidates.sort_unstable();
                candidates.dedup();
                let winner = arbiters[k]
                    .grant(&candidates)
                    .expect("non-empty candidate set");
                // Serve the winner's oldest pending event on this bus.
                let pos = pending[k]
                    .iter()
                    .enumerate()
                    .filter(|(_, &(i, _, _))| i == winner)
                    .min_by_key(|(_, &(_, idx, _))| idx)
                    .map(|(p, _)| p)
                    .expect("winner pending");
                let (_, event_idx, ready_time) = pending[k].remove(pos);
                let e = queues[winner][event_idx];
                // Frequency/data-width adapters stretch the bus occupancy
                // of transactions to slow or narrow targets.
                let occupancy =
                    u64::from(e.duration) * u64::from(config.clock_ratio(e.target.index()));
                let complete = t + occupancy;
                packets.push(PacketRecord {
                    initiator: InitiatorId::new(winner),
                    target: e.target,
                    scheduled: e.start,
                    ready: ready_time,
                    grant: t,
                    complete,
                    critical: e.critical,
                });
                bus_busy[k] += occupancy;
                bus_grants[k] += 1;
                busy_until[k] = complete;
                completing_owner[k] = winner;
                horizon = horizon.max(complete);
                heap.push(Reverse((complete, 0, k, event_idx)));
            }
        }
    }

    SimReport {
        packets,
        bus_busy,
        bus_grants,
        horizon,
        num_buses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::Arbitration;
    use stbus_traffic::TargetId;

    fn ev(i: usize, t: usize, start: u64, dur: u32) -> TraceEvent {
        TraceEvent::new(InitiatorId::new(i), TargetId::new(t), start, dur)
    }

    fn trace_of(num_i: usize, num_t: usize, events: &[TraceEvent]) -> Trace {
        let mut tr = Trace::new(num_i, num_t);
        for &e in events {
            tr.push(e);
        }
        tr.finish_sorting();
        tr
    }

    #[test]
    fn uncontended_latency_equals_duration() {
        let tr = trace_of(1, 1, &[ev(0, 0, 10, 8)]);
        let report = simulate(&tr, &CrossbarConfig::full(1));
        assert_eq!(report.packets().len(), 1);
        let p = report.packets()[0];
        assert_eq!(p.ready, 10);
        assert_eq!(p.grant, 10);
        assert_eq!(p.complete, 18);
        assert_eq!(p.latency(), 8);
        assert_eq!(report.max_latency(), 8);
    }

    #[test]
    fn contention_serialises_on_shared_bus() {
        // Two initiators hit different targets at the same cycle; on a
        // shared bus the second waits for the first.
        let tr = trace_of(2, 2, &[ev(0, 0, 0, 10), ev(1, 1, 0, 10)]);
        let shared = simulate(&tr, &CrossbarConfig::shared_bus(2));
        assert_eq!(shared.packets().len(), 2);
        let lat: Vec<u64> = shared.packets().iter().map(PacketRecord::latency).collect();
        assert!(lat.contains(&10)); // winner
        assert!(lat.contains(&20)); // loser waits 10 then transfers 10

        // On a full crossbar both proceed in parallel.
        let full = simulate(&tr, &CrossbarConfig::full(2));
        assert!(full.packets().iter().all(|p| p.latency() == 10));
    }

    #[test]
    fn same_target_contention_not_avoidable_by_full_crossbar() {
        let tr = trace_of(2, 1, &[ev(0, 0, 0, 10), ev(1, 0, 0, 10)]);
        let full = simulate(&tr, &CrossbarConfig::full(1));
        let mut lat: Vec<u64> = full.packets().iter().map(PacketRecord::latency).collect();
        lat.sort_unstable();
        assert_eq!(lat, vec![10, 20]);
    }

    #[test]
    fn blocking_master_delays_subsequent_events() {
        // One initiator schedules two back-to-back transactions; the second
        // is scheduled before the first completes → it becomes ready at the
        // completion and sees zero interconnect wait.
        let tr = trace_of(1, 1, &[ev(0, 0, 0, 10), ev(0, 0, 5, 10)]);
        let report = simulate(&tr, &CrossbarConfig::full(1));
        let p2 = report.packets()[1];
        assert_eq!(p2.scheduled, 5);
        assert_eq!(p2.ready, 10);
        assert_eq!(p2.grant, 10);
        assert_eq!(p2.latency(), 10);
    }

    #[test]
    fn every_offered_packet_completes() {
        let app = stbus_traffic::workloads::random::random(3);
        for cfg in [
            CrossbarConfig::shared_bus(8),
            CrossbarConfig::full(8),
            CrossbarConfig::from_assignment(vec![0, 0, 1, 1, 2, 2, 3, 3], 4).unwrap(),
        ] {
            let report = simulate(&app.trace, &cfg);
            assert_eq!(report.packets().len(), app.trace.len());
            // Conservation of busy cycles.
            let total: u64 = report.bus_stats().iter().map(|b| b.busy_cycles).sum();
            assert_eq!(total, app.trace.total_busy_cycles());
        }
    }

    #[test]
    fn latency_at_least_duration() {
        let app = stbus_traffic::workloads::random::random(4);
        let report = simulate(&app.trace, &CrossbarConfig::shared_bus(8));
        for p in report.packets() {
            assert!(p.latency() >= p.duration());
            assert!(p.grant >= p.ready);
            assert!(p.ready >= p.scheduled);
        }
    }

    #[test]
    fn full_crossbar_no_slower_than_shared() {
        let app = stbus_traffic::workloads::matrix::mat2(7);
        let full = simulate(&app.trace, &CrossbarConfig::full(12));
        let shared = simulate(&app.trace, &CrossbarConfig::shared_bus(12));
        assert!(full.avg_latency() <= shared.avg_latency());
        assert!(full.max_latency() <= shared.max_latency());
    }

    #[test]
    fn bus_utilization_bounded() {
        let app = stbus_traffic::workloads::random::random(5);
        let report = simulate(&app.trace, &CrossbarConfig::shared_bus(8));
        for b in report.bus_stats() {
            assert!(b.utilization >= 0.0 && b.utilization <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn observed_trace_reflects_grants() {
        let tr = trace_of(2, 2, &[ev(0, 0, 0, 10), ev(1, 1, 0, 10)]);
        let report = simulate(&tr, &CrossbarConfig::shared_bus(2));
        let observed = report.observed_trace(2, 2);
        assert_eq!(observed.len(), 2);
        // On the shared bus the grants never overlap.
        let e0 = observed.events()[0];
        let e1 = observed.events()[1];
        assert!(e0.end() <= e1.start || e1.end() <= e0.start);
    }

    #[test]
    fn fixed_priority_favours_low_index() {
        let tr = trace_of(
            2,
            2,
            &[ev(1, 1, 0, 10), ev(0, 0, 0, 10)], // both ready at cycle 0
        );
        let cfg = CrossbarConfig::shared_bus(2).with_arbitration(Arbitration::FixedPriority);
        let report = simulate(&tr, &cfg);
        let first = report.packets()[0];
        assert_eq!(first.initiator, InitiatorId::new(0));
    }

    #[test]
    fn critical_flag_carried_through() {
        let mut tr = Trace::new(1, 1);
        tr.push(TraceEvent::critical(
            InitiatorId::new(0),
            TargetId::new(0),
            0,
            4,
        ));
        let report = simulate(&tr, &CrossbarConfig::full(1));
        assert!(report.packets()[0].critical);
        assert_eq!(report.critical_latency().count, 1);
    }

    #[test]
    fn empty_trace() {
        let tr = Trace::new(2, 2);
        let report = simulate(&tr, &CrossbarConfig::full(2));
        assert!(report.packets().is_empty());
        assert_eq!(report.horizon(), 0);
        assert_eq!(report.max_latency(), 0);
    }

    #[test]
    #[should_panic(expected = "configuration targets != trace targets")]
    fn mismatched_config_panics() {
        let tr = Trace::new(1, 3);
        let _ = simulate(&tr, &CrossbarConfig::full(2));
    }

    #[test]
    fn outstanding_depth_defaults_to_blocking() {
        let app = stbus_traffic::workloads::matrix::mat2(9);
        let blocking = simulate(&app.trace, &CrossbarConfig::shared_bus(12));
        let explicit = simulate_with(
            &app.trace,
            &CrossbarConfig::shared_bus(12),
            &SimOptions::with_outstanding(1),
        );
        assert_eq!(blocking, explicit);
    }

    #[test]
    fn deeper_outstanding_pipelines_back_to_back_work() {
        // One initiator, two back-to-back scheduled transactions to two
        // different targets: with depth 1 the second waits for the first;
        // with depth 2 both run in parallel on a full crossbar.
        let tr = trace_of(1, 2, &[ev(0, 0, 0, 10), ev(0, 1, 0, 10)]);
        let blocking = simulate(&tr, &CrossbarConfig::full(2));
        assert_eq!(blocking.horizon(), 20);
        let piped = simulate_with(
            &tr,
            &CrossbarConfig::full(2),
            &SimOptions::with_outstanding(2),
        );
        assert_eq!(piped.horizon(), 10);
        assert!(piped.packets().iter().all(|p| p.latency() == 10));
    }

    #[test]
    fn outstanding_depth_respected_exactly() {
        // Three scheduled-at-zero transactions, depth 2: the third may only
        // issue once the first completes.
        let tr = trace_of(1, 3, &[ev(0, 0, 0, 10), ev(0, 1, 0, 10), ev(0, 2, 0, 10)]);
        let piped = simulate_with(
            &tr,
            &CrossbarConfig::full(3),
            &SimOptions::with_outstanding(2),
        );
        let mut grants: Vec<u64> = piped.packets().iter().map(|p| p.grant).collect();
        grants.sort_unstable();
        assert_eq!(grants, vec![0, 0, 10]);
    }

    #[test]
    fn deeper_outstanding_amplifies_contention_latency() {
        // On a saturated shared bus, posted masters queue more work and the
        // measured interconnect latency grows.
        let app = stbus_traffic::workloads::matrix::mat2(10);
        let shallow = simulate(&app.trace, &CrossbarConfig::shared_bus(12));
        let deep = simulate_with(
            &app.trace,
            &CrossbarConfig::shared_bus(12),
            &SimOptions::with_outstanding(4),
        );
        assert!(deep.avg_latency() > shallow.avg_latency());
        // Work conservation still holds.
        assert_eq!(deep.packets().len(), shallow.packets().len());
    }

    #[test]
    #[should_panic(expected = "at least one outstanding")]
    fn zero_outstanding_rejected() {
        let _ = SimOptions::with_outstanding(0);
    }

    #[test]
    fn frequency_adapters_stretch_occupancy() {
        let tr = trace_of(1, 2, &[ev(0, 0, 0, 8), ev(0, 1, 100, 8)]);
        // Target 1 sits behind a 3x adapter (slow peripheral).
        let cfg = CrossbarConfig::full(2).with_clock_ratios(vec![1, 3]);
        assert!(cfg.has_adapters());
        let report = simulate(&tr, &cfg);
        let fast = report
            .packets()
            .iter()
            .find(|p| p.target.index() == 0)
            .unwrap();
        let slow = report
            .packets()
            .iter()
            .find(|p| p.target.index() == 1)
            .unwrap();
        assert_eq!(fast.latency(), 8);
        assert_eq!(slow.latency(), 24);
        // Busy accounting includes the adapter stretch.
        let busy: u64 = report.bus_stats().iter().map(|b| b.busy_cycles).sum();
        assert_eq!(busy, 8 + 24);
    }

    #[test]
    fn adapters_increase_shared_bus_contention() {
        let app = stbus_traffic::workloads::qsort::qsort(12);
        let plain = simulate(&app.trace, &CrossbarConfig::shared_bus(9));
        let slowed = simulate(
            &app.trace,
            &CrossbarConfig::shared_bus(9).with_clock_ratios(vec![2; 9]),
        );
        assert!(slowed.avg_latency() > plain.avg_latency());
    }

    #[test]
    #[should_panic(expected = "one clock ratio per target")]
    fn adapter_arity_checked() {
        let _ = CrossbarConfig::full(3).with_clock_ratios(vec![1, 2]);
    }

    #[test]
    fn per_target_latency_filter() {
        let tr = trace_of(2, 2, &[ev(0, 0, 0, 10), ev(1, 1, 100, 4)]);
        let report = simulate(&tr, &CrossbarConfig::full(2));
        assert_eq!(report.latency_for_target(0).count, 1);
        assert_eq!(report.latency_for_target(0).mean, 10.0);
        assert_eq!(report.latency_for_target(1).mean, 4.0);
    }
}
