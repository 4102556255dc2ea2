//! Property tests over the cycle-accurate simulator: conservation,
//! latency decomposition, arbitration sanity and architecture ordering on
//! randomly generated traffic.

#[path = "support/reference_sim.rs"]
mod reference_sim;

use proptest::prelude::*;
use stbus::sim::{simulate, simulate_with, Arbitration, CrossbarConfig, SimOptions};
use stbus::traffic::{InitiatorId, TargetId, Trace, TraceEvent};

fn arb_trace() -> impl Strategy<Value = Trace> {
    (1usize..=4, 1usize..=6).prop_flat_map(|(ni, nt)| {
        prop::collection::vec((0usize..ni, 0usize..nt, 0u64..5_000, 1u32..40), 1..120).prop_map(
            move |events| {
                let mut tr = Trace::new(ni, nt);
                for (i, t, s, d) in events {
                    tr.push(TraceEvent::new(InitiatorId::new(i), TargetId::new(t), s, d));
                }
                tr.finish_sorting();
                tr
            },
        )
    })
}

fn arb_config(num_targets: usize) -> impl Strategy<Value = CrossbarConfig> {
    (1usize..=num_targets.max(1)).prop_flat_map(move |buses| {
        prop::collection::vec(0usize..buses, num_targets).prop_map(move |assignment| {
            CrossbarConfig::from_assignment(assignment, buses).expect("assignment within bus range")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every offered packet completes exactly once, and total bus busy
    /// time equals total offered transfer time.
    #[test]
    fn conservation((trace, config) in arb_trace().prop_flat_map(|tr| {
        let nt = tr.num_targets();
        (Just(tr), arb_config(nt))
    })) {
        let report = simulate(&trace, &config);
        prop_assert_eq!(report.packets().len(), trace.len());
        let busy: u64 = report.bus_stats().iter().map(|b| b.busy_cycles).sum();
        prop_assert_eq!(busy, trace.total_busy_cycles());
    }

    /// Per-packet timing is internally consistent: scheduled <= ready <=
    /// grant < complete, latency = wait + duration, and durations match
    /// the offered trace exactly.
    #[test]
    fn timing_decomposition((trace, config) in arb_trace().prop_flat_map(|tr| {
        let nt = tr.num_targets();
        (Just(tr), arb_config(nt))
    })) {
        let report = simulate(&trace, &config);
        let mut offered: Vec<u64> = trace.iter().map(|e| u64::from(e.duration)).collect();
        let mut served: Vec<u64> = report.packets().iter().map(|p| p.duration()).collect();
        offered.sort_unstable();
        served.sort_unstable();
        prop_assert_eq!(offered, served);
        for p in report.packets() {
            prop_assert!(p.scheduled <= p.ready);
            prop_assert!(p.ready <= p.grant);
            prop_assert!(p.grant < p.complete);
            prop_assert_eq!(p.latency(), p.wait() + p.duration());
        }
    }

    /// A bus never serves two transactions at once.
    #[test]
    fn buses_are_exclusive((trace, config) in arb_trace().prop_flat_map(|tr| {
        let nt = tr.num_targets();
        (Just(tr), arb_config(nt))
    })) {
        let report = simulate(&trace, &config);
        for k in 0..config.num_buses() {
            let mut grants: Vec<(u64, u64)> = report
                .packets()
                .iter()
                .filter(|p| config.bus_of(p.target.index()) == k)
                .map(|p| (p.grant, p.complete))
                .collect();
            grants.sort_unstable();
            for pair in grants.windows(2) {
                prop_assert!(
                    pair[0].1 <= pair[1].0,
                    "bus {k} double-booked: {:?} vs {:?}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    /// The full crossbar is never slower on average than the shared bus
    /// under identical traffic and round-robin arbitration.
    #[test]
    fn full_no_slower_than_shared(trace in arb_trace()) {
        let nt = trace.num_targets();
        let full = simulate(&trace, &CrossbarConfig::full(nt));
        let shared = simulate(&trace, &CrossbarConfig::shared_bus(nt));
        prop_assert!(full.avg_latency() <= shared.avg_latency() + 1e-9);
    }

    /// Arbitration policy changes who waits, not how much total work is
    /// done: packet count, busy cycles and total transfer time match.
    #[test]
    fn arbitration_preserves_work(trace in arb_trace()) {
        let nt = trace.num_targets();
        let rr = simulate(
            &trace,
            &CrossbarConfig::shared_bus(nt).with_arbitration(Arbitration::RoundRobin),
        );
        let fp = simulate(
            &trace,
            &CrossbarConfig::shared_bus(nt).with_arbitration(Arbitration::FixedPriority),
        );
        prop_assert_eq!(rr.packets().len(), fp.packets().len());
        let busy = |r: &stbus::sim::SimReport| -> u64 {
            r.bus_stats().iter().map(|b| b.busy_cycles).sum()
        };
        prop_assert_eq!(busy(&rr), busy(&fp));
    }

    /// The observed trace round-trips: re-simulating the observed trace on
    /// a full crossbar adds no contention beyond same-target serialisation,
    /// so per-target busy totals are preserved.
    #[test]
    fn observed_trace_preserves_busy_totals(trace in arb_trace()) {
        let nt = trace.num_targets();
        let report = simulate(&trace, &CrossbarConfig::full(nt));
        let observed = report.observed_trace(trace.num_initiators(), nt);
        prop_assert_eq!(
            observed.busy_cycles_per_target(),
            trace.busy_cycles_per_target()
        );
    }

    /// The engine replays exactly what the plain reference loop does:
    /// every packet record in grant order, per-bus busy time and grants,
    /// and the horizon, under every arbitration policy, outstanding
    /// depths 1–4, clock-ratio adapters and unsorted input traces.
    #[test]
    fn engine_matches_reference(
        (trace, config, ratios) in arb_trace().prop_flat_map(|tr| {
            let nt = tr.num_targets();
            (Just(tr), arb_config(nt), prop::collection::vec(1u32..=3, nt))
        }),
        policy in 0usize..3,
        depth in 1usize..=4,
        reversed in 0u8..2,
    ) {
        let policy = [
            Arbitration::FixedPriority,
            Arbitration::RoundRobin,
            Arbitration::LeastRecentlyUsed,
        ][policy];
        let config = config.with_arbitration(policy).with_clock_ratios(ratios);
        // A trace pushed back to front is not sorted, so the engine has
        // to order each initiator's queue itself.
        let trace = if reversed == 1 {
            let mut back = Trace::new(trace.num_initiators(), trace.num_targets());
            for e in trace.iter().rev() {
                back.push(*e);
            }
            back
        } else {
            trace
        };
        let options = SimOptions::with_outstanding(depth);
        let report = simulate_with(&trace, &config, &options);
        let reference = reference_sim::simulate_reference(&trace, &config, &options);
        prop_assert_eq!(report.packets(), &reference.packets[..]);
        let busy: Vec<u64> = report.bus_stats().iter().map(|b| b.busy_cycles).collect();
        let grants: Vec<u64> = report.bus_stats().iter().map(|b| b.grants).collect();
        prop_assert_eq!(busy, reference.bus_busy);
        prop_assert_eq!(grants, reference.bus_grants);
        prop_assert_eq!(report.horizon(), reference.horizon);
    }
}
