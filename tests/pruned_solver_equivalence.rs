//! Pruned-exact vs unpruned-exact equivalence: the per-node lower-bound
//! pruning of [`stbus::milp::bounds`] must be invisible in the answers.
//!
//! The whole phase-3 outcome — feasibility verdicts, probe logs, chosen
//! size, MILP-2 binding, engine — is asserted equal between
//! [`PruningLevel::Standard`] and the unpruned `Off` reference on the
//! paper suite, on scaled synthetic instances and on random traces.

use proptest::prelude::*;
use stbus::core::{DesignParams, Exact, Pipeline, Preprocessed, SynthesisOutcome, Synthesizer};
use stbus::milp::{NodeLimitExceeded, PruningLevel, SolveLimits};
use stbus::traffic::workloads;
use stbus::traffic::{InitiatorId, TargetId, Trace, TraceEvent};

fn suite_params(name: &str) -> DesignParams {
    match name {
        "Mat1" | "Mat2" | "DES" => DesignParams::default().with_overlap_threshold(0.15),
        "FFT" => DesignParams::default()
            .with_overlap_threshold(0.50)
            .with_response_scale(0.9),
        _ => DesignParams::default(),
    }
}

/// The sequential exact search.
fn synthesize(
    pre: &Preprocessed,
    params: &DesignParams,
) -> Result<SynthesisOutcome, NodeLimitExceeded> {
    Exact::default().synthesize(pre, params)
}

fn assert_same_outcome(label: &str, a: &SynthesisOutcome, b: &SynthesisOutcome) {
    assert_eq!(a.num_buses, b.num_buses, "{label}: bus count");
    assert_eq!(a.lower_bound, b.lower_bound, "{label}: lower bound");
    assert_eq!(a.probes, b.probes, "{label}: probe sequence");
    assert_eq!(a.max_bus_overlap, b.max_bus_overlap, "{label}: maxov");
    assert_eq!(a.binding, b.binding, "{label}: binding");
    assert_eq!(
        a.config.assignment(),
        b.config.assignment(),
        "{label}: config assignment"
    );
    assert_eq!(a.engine, b.engine, "{label}: engine");
}

/// `Standard` pruning is bit-identical to `Off` on every paper workload
/// and direction.
#[test]
fn pruning_levels_agree_on_paper_suite() {
    for app in workloads::paper_suite(0xDA7E_2005) {
        let params = suite_params(app.name());
        let collected = Pipeline::collect(&app, &params);
        let analyzed = collected.analyze(&params);
        for (dir, pre) in [("it", analyzed.pre_it()), ("ti", analyzed.pre_ti())] {
            let off = Exact::default()
                .synthesize(pre, &params.clone().with_pruning(PruningLevel::Off))
                .expect("within limits");
            let standard = Exact::default()
                .synthesize(pre, &params.clone().with_pruning(PruningLevel::Standard))
                .expect("within limits");
            assert_same_outcome(&format!("{}/{dir} std", app.name()), &standard, &off);
        }
    }
}

/// Scaled synthetic instance (24 targets, the conflict-dense bench
/// point): bit-identity of `Standard` vs `Off` holds where the unpruned
/// search is still tractable.
#[test]
fn pruning_levels_agree_on_scaled_synthetic() {
    let app = workloads::synthetic::scaled_soc(24, 0xDA7E_2005);
    let params = DesignParams::default()
        .with_overlap_threshold(0.12)
        .with_window_size(2_000)
        .with_maxtb(6);
    let pre = Preprocessed::analyze(&app.trace, &params);
    let off = Exact::default()
        .synthesize(&pre, &params.clone().with_pruning(PruningLevel::Off))
        .expect("within limits");
    let standard = Exact::default()
        .synthesize(&pre, &params.clone().with_pruning(PruningLevel::Standard))
        .expect("within limits");
    assert_same_outcome("scaled-24 std", &standard, &off);
}

/// Tractability regression guard for the size-sweep cliff, pinned to
/// what the per-node bounds actually bought (and must keep buying):
///
/// * the **32-target** scaled instance — the ROADMAP's old exact wall —
///   completes the whole exact pipeline (probes + MILP-2) within a
///   generous node budget under the default pruning level, where the
///   unpruned search provably cannot;
/// * at **48 targets**, the pruned exact search proves every bus count
///   through 13 infeasible under a *small* per-probe budget — the
///   infeasibility frontier right below the 14/15 feasibility phase
///   transition (witnesses exist at 15; proofs beyond the frontier are
///   out of reach for any admissible bound).
///
/// Run in release (`cargo test --release --test
/// pruned_solver_equivalence -- --ignored`) — the nightly perf job does.
#[test]
#[ignore = "release-mode tractability guard; run with -- --ignored"]
fn exact_cliff_stays_moved() {
    let params = DesignParams::default()
        .with_overlap_threshold(0.12)
        .with_window_size(2_000)
        .with_maxtb(6);

    // 32 targets: full exact pipeline within budget.
    let app = workloads::synthetic::scaled_soc(32, 0xDA7E_2005);
    let pre = Preprocessed::analyze(&app.trace, &params);
    let out = Exact::with_limits(SolveLimits::nodes(20_000_000))
        .synthesize(&pre, &params)
        .expect("exact search must stay within the node budget at 32 targets");
    assert_eq!(
        out.engine,
        stbus::core::SynthesisEngine::Exact,
        "exact engine must answer at 32 targets"
    );
    // The minimality certificate: an infeasible probe right below the
    // chosen size, or a tight lower bound.
    if out.num_buses > out.lower_bound {
        assert!(
            out.probes.contains(&(out.num_buses - 1, false)),
            "no infeasibility certificate below the chosen size"
        );
    }
    let problem = Preprocessed::binding_problem(&pre, out.num_buses);
    assert_eq!(
        problem.verify(&out.binding),
        Some(out.max_bus_overlap),
        "32-target binding must verify"
    );

    // 48 targets: infeasibility proofs reach the phase transition.
    let app = workloads::synthetic::scaled_soc(48, 0xDA7E_2005);
    let pre = Preprocessed::analyze(&app.trace, &params);
    let frontier_budget = SolveLimits::nodes(250_000);
    for buses in pre.bus_lower_bound()..=13 {
        assert_eq!(
            Preprocessed::binding_problem(&pre, buses)
                .find_feasible(&frontier_budget)
                .unwrap_or_else(|e| panic!("48-target proof at {buses} buses hit {e}")),
            None,
            "{buses} buses must be proven infeasible at 48 targets"
        );
    }
    // And the repair-enabled heuristic certifies the 15-bus witness the
    // exact search cannot reach (the other side of the transition): the
    // binding must satisfy every constraint and report its own objective.
    let problem = Preprocessed::binding_problem(&pre, 15);
    let witness = stbus::milp::solve_heuristic(&problem, &stbus::milp::HeuristicOptions::default())
        .expect("heuristic repair must keep finding the 15-bus witness at 48 targets");
    assert_eq!(
        problem.verify(&witness),
        Some(witness.max_bus_overlap()),
        "the 15-bus witness at 48 targets must verify"
    );
}

/// Random-trace strategy shared by the property tests below.
fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec(
        (
            0usize..4,
            0usize..8,
            0u64..600,
            1u32..90,
            proptest::bool::ANY,
        ),
        1..70,
    )
    .prop_map(|events| {
        let mut tr = Trace::new(4, 8);
        for (i, t, s, d, critical) in events {
            tr.push(if critical {
                TraceEvent::critical(InitiatorId::new(i), TargetId::new(t), s, d)
            } else {
                TraceEvent::new(InitiatorId::new(i), TargetId::new(t), s, d)
            });
        }
        tr.finish_sorting();
        tr
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random traces: the full phase-3 outcome is bit-identical with and
    /// without pruning.
    #[test]
    fn random_instances_agree_across_levels(
        tr in arb_trace(),
        ws in 20u64..400,
        theta in 0u32..=50,
        maxtb in 2usize..=5,
    ) {
        let params = DesignParams::default()
            .with_window_size(ws)
            .with_maxtb(maxtb)
            .with_overlap_threshold(f64::from(theta) / 100.0);
        let pre = Preprocessed::analyze(&tr, &params);
        let off = synthesize(&pre, &params.clone().with_pruning(PruningLevel::Off))
            .expect("within limits");
        let standard = synthesize(&pre, &params).expect("within limits");
        prop_assert_eq!(&standard.probes, &off.probes);
        prop_assert_eq!(&standard.binding, &off.binding);
        prop_assert_eq!(standard.num_buses, off.num_buses);
        prop_assert_eq!(standard.max_bus_overlap, off.max_bus_overlap);
    }
}
