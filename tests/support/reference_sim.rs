//! The event loop the simulator engine started from, kept as a
//! test-only oracle: it allocates a fresh touched-bus list per time step
//! and a fresh candidate list per grant, where the engine reuses both.
//! `sim_invariants` checks the engine against it packet for packet.

use stbus::sim::arbiter::Arbiter;
use stbus::sim::{CrossbarConfig, PacketRecord, SimOptions};
use stbus::traffic::{InitiatorId, Trace, TraceEvent};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What the reference run observed: the fields a `SimReport` exposes.
pub struct ReferenceRun {
    pub packets: Vec<PacketRecord>,
    pub bus_busy: Vec<u64>,
    pub bus_grants: Vec<u64>,
    pub horizon: u64,
}

pub fn simulate_reference(
    trace: &Trace,
    config: &CrossbarConfig,
    options: &SimOptions,
) -> ReferenceRun {
    let num_initiators = trace.num_initiators();
    let num_buses = config.num_buses();
    let depth = options.max_outstanding;

    let mut queues: Vec<Vec<TraceEvent>> = vec![Vec::new(); num_initiators];
    for e in trace.iter() {
        queues[e.initiator.index()].push(*e);
    }
    for q in &mut queues {
        q.sort_by_key(|e| e.start);
    }
    let mut next_issue = vec![0usize; num_initiators];
    let mut completed = vec![0usize; num_initiators];
    let mut armed = vec![false; num_initiators];

    let mut pending: Vec<Vec<(usize, usize, u64)>> = vec![Vec::new(); num_buses];
    let mut busy_until = vec![0u64; num_buses];
    let mut arbiters: Vec<Arbiter> = (0..num_buses)
        .map(|_| Arbiter::new(config.arbitration(), num_initiators))
        .collect();
    let mut heap: BinaryHeap<Reverse<(u64, u8, usize, usize)>> = BinaryHeap::new();

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
    let mut completing_owner: Vec<usize> = vec![usize::MAX; num_buses];
    let mut bus_busy = vec![0u64; num_buses];
    let mut bus_grants = vec![0u64; num_buses];
    let mut horizon = 0u64;

    while let Some(&Reverse((t, _, _, _))) = heap.peek() {
        let mut touched_buses: Vec<usize> = Vec::new();
        while let Some(&Reverse((tt, kind, id, extra))) = heap.peek() {
            if tt != t {
                break;
            }
            heap.pop();
            match kind {
                0 => {
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
        for k in touched_buses {
            while busy_until[k] <= t && !pending[k].is_empty() {
                let mut candidates: Vec<usize> = pending[k].iter().map(|&(i, _, _)| i).collect();
                candidates.sort_unstable();
                candidates.dedup();
                let winner = arbiters[k]
                    .grant(&candidates)
                    .expect("non-empty candidate set");
                let pos = pending[k]
                    .iter()
                    .enumerate()
                    .filter(|(_, &(i, _, _))| i == winner)
                    .min_by_key(|(_, &(_, idx, _))| idx)
                    .map(|(p, _)| p)
                    .expect("winner pending");
                let (_, event_idx, ready_time) = pending[k].remove(pos);
                let e = queues[winner][event_idx];
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

    ReferenceRun {
        packets,
        bus_busy,
        bus_grants,
        horizon,
    }
}
