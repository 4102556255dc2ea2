//! Property tests over the design methodology itself: synthesised designs
//! respect their constraints on arbitrary random traffic, parameters move
//! results in the documented directions, and baselines relate to the
//! window design as the paper describes.

use proptest::prelude::*;
use stbus::core::{baselines, DesignParams, Exact, Preprocessed, Synthesizer};
use stbus::milp::SolveLimits;
use stbus::traffic::{InitiatorId, TargetId, Trace, TraceEvent};

fn arb_trace() -> impl Strategy<Value = Trace> {
    (2usize..=4, 2usize..=7).prop_flat_map(|(ni, nt)| {
        prop::collection::vec((0usize..ni, 0usize..nt, 0u64..8_000, 1u32..60), 5..100).prop_map(
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

fn params() -> DesignParams {
    DesignParams::default().with_window_size(500)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The synthesised configuration always satisfies Eq. (3)–(9):
    /// exactly one bus per target, window bandwidth, conflicts, maxtb.
    #[test]
    fn synthesis_respects_constraints(trace in arb_trace()) {
        let p = params();
        let pre = Preprocessed::analyze(&trace, &p);
        let out = Exact::default().synthesize(&pre, &p).expect("within limits");
        // Re-verify through the independent checker.
        let problem = pre.binding_problem(out.num_buses);
        prop_assert_eq!(problem.verify(&out.binding), Some(out.max_bus_overlap));
        // maxtb holds structurally too.
        prop_assert!(out.config.max_targets_per_bus() <= p.maxtb);
        // No conflicting pair shares a bus.
        for (i, j) in pre.conflicts.pairs() {
            prop_assert_ne!(out.config.bus_of(i), out.config.bus_of(j));
        }
    }

    /// The design never exceeds one bus per target and never goes below
    /// the lower bound.
    #[test]
    fn size_is_bounded(trace in arb_trace()) {
        let p = params();
        let pre = Preprocessed::analyze(&trace, &p);
        let out = Exact::default().synthesize(&pre, &p).expect("within limits");
        prop_assert!(out.num_buses <= trace.num_targets().max(1));
        prop_assert!(out.num_buses >= pre.bus_lower_bound().min(trace.num_targets().max(1)));
    }

    /// Tightening the overlap threshold never shrinks the crossbar.
    #[test]
    fn threshold_monotonicity(trace in arb_trace()) {
        let loose = params().with_overlap_threshold(0.5);
        let tight = params().with_overlap_threshold(0.05);
        let pre_loose = Preprocessed::analyze(&trace, &loose);
        let pre_tight = Preprocessed::analyze(&trace, &tight);
        let out_loose = Exact::default().synthesize(&pre_loose, &loose).expect("ok");
        let out_tight = Exact::default().synthesize(&pre_tight, &tight).expect("ok");
        prop_assert!(out_tight.num_buses >= out_loose.num_buses);
    }

    /// Lowering maxtb never shrinks the crossbar.
    #[test]
    fn maxtb_monotonicity(trace in arb_trace()) {
        let roomy = params().with_maxtb(6);
        let cramped = params().with_maxtb(2);
        let out_roomy =
            Exact::default().synthesize(&Preprocessed::analyze(&trace, &roomy), &roomy).expect("ok");
        let out_cramped =
            Exact::default().synthesize(&Preprocessed::analyze(&trace, &cramped), &cramped)
                .expect("ok");
        prop_assert!(out_cramped.num_buses >= out_roomy.num_buses);
        prop_assert!(out_cramped.config.max_targets_per_bus() <= 2);
    }

    /// The peak-bandwidth (contention-elimination) baseline never designs
    /// a smaller crossbar than the window-based design — it is the
    /// over-provisioning extreme of the design spectrum (paper §2).
    #[test]
    fn peak_design_dominates_window_design(trace in arb_trace()) {
        let p = params();
        let pre = Preprocessed::analyze(&trace, &p);
        let window = Exact::default().synthesize(&pre, &p).expect("ok");
        let peak = baselines::peak_bandwidth_design(&trace, &p).expect("ok");
        prop_assert!(peak.num_buses >= window.num_buses);
    }

    /// The average-flow baseline never designs a larger crossbar than the
    /// window-based design at the same maxtb — it is the
    /// under-provisioning extreme.
    #[test]
    fn average_design_is_no_larger(trace in arb_trace()) {
        let p = params().with_maxtb(trace.num_targets().max(1));
        let pre = Preprocessed::analyze(&trace, &p);
        let window = Exact::default().synthesize(&pre, &p).expect("ok");
        let avg = baselines::average_flow_design(&trace, &p).expect("ok");
        prop_assert!(avg.num_buses <= window.num_buses);
    }

    /// Random bindings at the designed size are feasible and verify.
    #[test]
    fn random_bindings_verify(trace in arb_trace(), seed in 0u64..1000) {
        let p = params();
        let pre = Preprocessed::analyze(&trace, &p);
        let out = Exact::default().synthesize(&pre, &p).expect("ok");
        if let Some(design) =
            baselines::random_binding_design(&pre, out.num_buses, seed, &p).expect("ok")
        {
            let problem = pre.binding_problem(out.num_buses);
            let binding = stbus::milp::Binding::from_assignment(
                design.config.assignment().to_vec(),
            );
            prop_assert!(problem.verify(&binding).is_some());
        } else {
            // The randomised DFS must not miss solutions that exist: the
            // exact solver said this size is feasible.
            let problem = pre.binding_problem(out.num_buses);
            prop_assert!(problem
                .find_feasible(&SolveLimits::default())
                .expect("limits")
                .is_some());
            prop_assert!(false, "random DFS failed on a feasible instance");
        }
    }
}
