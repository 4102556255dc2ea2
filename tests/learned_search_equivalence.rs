//! Learned-search vs standard-search equivalence: the conflict-driven
//! nogood learning and restart portfolio of
//! [`stbus::milp::binding::learned`] must be invisible at the verdict
//! level, exactly like `PruningLevel::Aggressive`.
//!
//! The documented contract, asserted here: whenever both engines
//! complete within budget, `SearchLevel::Learned` returns the **same
//! feasibility verdicts, probe logs, bus counts and lower bounds** as
//! `SearchLevel::Standard`, and any binding it returns **verifies**
//! against the instance — but the binding itself (and the MILP-2
//! objective's tie-breaking) may differ, because restarts permute the
//! value order. On top of that weaker contract the learned engine adds
//! a stronger one of its own: with a fixed `learned_seed` and a fixed
//! job count, the whole outcome — verdict, restart count, learned-clause
//! count — is deterministic, bit for bit, at any worker count.

use proptest::prelude::*;
use stbus::core::exec::CancelToken;
use stbus::core::{DesignParams, Exact, Pipeline, Preprocessed, SynthesisOutcome, Synthesizer};
use stbus::milp::{PruningLevel, SearchLevel, SolveLimits};
use stbus::traffic::workloads;
use stbus::traffic::{InitiatorId, TargetId, Trace, TraceEvent};
use std::num::NonZeroUsize;

fn suite_params(name: &str) -> DesignParams {
    match name {
        "Mat1" | "Mat2" | "DES" => DesignParams::default().with_overlap_threshold(0.15),
        "FFT" => DesignParams::default()
            .with_overlap_threshold(0.50)
            .with_response_scale(0.9),
        _ => DesignParams::default(),
    }
}

/// The verdict-level contract the learned engine guarantees against the
/// standard engine (mirrors the `Aggressive` pruning contract).
fn assert_same_verdicts(label: &str, learned: &SynthesisOutcome, standard: &SynthesisOutcome) {
    assert_eq!(learned.num_buses, standard.num_buses, "{label}: bus count");
    assert_eq!(
        learned.lower_bound, standard.lower_bound,
        "{label}: lower bound"
    );
    assert_eq!(learned.probes, standard.probes, "{label}: probe sequence");
    assert_eq!(learned.engine, standard.engine, "{label}: engine");
}

fn assert_binding_verifies(label: &str, pre: &Preprocessed, out: &SynthesisOutcome) {
    let problem = Preprocessed::binding_problem(pre, out.num_buses);
    assert_eq!(
        problem.verify(&out.binding),
        Some(out.max_bus_overlap),
        "{label}: learned binding must verify"
    );
}

/// Learned search keeps the standard verdicts on every paper workload
/// and direction, sequentially and under the speculative scheduler at
/// `jobs ∈ {1, 4}`, with pruning on or off (the learned engine must not
/// touch the usability matrix the unpruned search never builds), and
/// every binding it returns verifies.
#[test]
fn learned_matches_standard_on_paper_suite() {
    for app in workloads::paper_suite(0xDA7E_2005) {
        let params = suite_params(app.name());
        let collected = Pipeline::collect(&app, &params);
        let analyzed = collected.analyze(&params);
        for (dir, pre) in [("it", analyzed.pre_it()), ("ti", analyzed.pre_ti())] {
            let standard = Exact::default()
                .synthesize(pre, &params)
                .expect("within limits");
            for (pruning, jobs) in [
                (PruningLevel::Standard, 1usize),
                (PruningLevel::Standard, 4),
                (PruningLevel::Off, 1),
            ] {
                let learned_params = params
                    .clone()
                    .with_pruning(pruning)
                    .with_search(SearchLevel::Learned);
                let learned = Exact::default()
                    .with_jobs(NonZeroUsize::new(jobs).unwrap())
                    .synthesize(pre, &learned_params)
                    .expect("within limits");
                let label = format!("{}/{dir} learned {pruning:?} jobs={jobs}", app.name());
                assert_same_verdicts(&label, &learned, &standard);
                assert_binding_verifies(&label, pre, &learned);
            }
        }
    }
}

/// Scaled synthetic instance (24 targets, the conflict-dense bench
/// point): verdict equivalence holds where both engines are tractable,
/// scheduler included.
#[test]
fn learned_matches_standard_on_scaled_synthetic() {
    let app = workloads::synthetic::scaled_soc(24, 0xDA7E_2005);
    let params = DesignParams::default()
        .with_overlap_threshold(0.12)
        .with_window_size(2_000)
        .with_maxtb(6);
    let pre = Preprocessed::analyze(&app.trace, &params);
    let standard = Exact::default()
        .synthesize(&pre, &params)
        .expect("within limits");
    for jobs in [1usize, 4] {
        let learned = Exact::default()
            .with_jobs(NonZeroUsize::new(jobs).unwrap())
            .synthesize(&pre, &params.clone().with_search(SearchLevel::Learned))
            .expect("within limits");
        let label = format!("scaled-24 learned jobs={jobs}");
        assert_same_verdicts(&label, &learned, &standard);
        assert_binding_verifies(&label, &pre, &learned);
    }
}

/// Same seed + same jobs ⇒ the same verdict, the same restart count and
/// the same learned-clause count — the learned engine's determinism
/// contract, which lets its counters be journaled and benched.
#[test]
fn learned_search_is_deterministic_per_seed() {
    let app = workloads::synthetic::scaled_soc(24, 0xDA7E_2005);
    let params = DesignParams::default()
        .with_overlap_threshold(0.12)
        .with_window_size(2_000)
        .with_maxtb(6);
    let pre = Preprocessed::analyze(&app.trace, &params);
    for seed in [0u64, 7, 0xFEED] {
        let limits = SolveLimits::default()
            .with_search(SearchLevel::Learned)
            .with_learned_seed(seed);
        for jobs in [1usize, 4] {
            let run = || {
                Exact::with_limits(limits.clone())
                    .with_jobs(NonZeroUsize::new(jobs).unwrap())
                    .synthesize(&pre, &params)
                    .expect("within limits")
            };
            let first = run();
            let second = run();
            let label = format!("seed={seed} jobs={jobs}");
            assert_eq!(first.num_buses, second.num_buses, "{label}: verdict");
            assert_eq!(first.probes, second.probes, "{label}: probe sequence");
            assert_eq!(first.binding, second.binding, "{label}: binding");
            assert_eq!(
                first.stats, second.stats,
                "{label}: restart and nogood counters"
            );
        }
    }
}

/// Tractability guard for what conflict learning actually bought at the
/// 48-target 14/15-bus phase transition (the size-sweep point both
/// exact engines used to stall on), mirroring `exact_cliff_stays_moved`:
///
/// * the **15-bus witness** is certified *exactly* by the learned
///   search within the standard probe budget (the standard engine burns
///   the entire budget there with no answer; before this engine only
///   the repair heuristic reached the witness, without a certificate);
/// * the learned **infeasibility frontier** still reaches 13 buses —
///   every count from the lower bound through 13 is proven infeasible
///   under the same per-probe budget;
/// * **14 buses stays open** under this budget — asserted so the guard
///   is updated (not silently outgrown) if learning ever closes it.
///
/// Run in release (`cargo test --release --test
/// learned_search_equivalence -- --ignored`) — the nightly perf job
/// does, next to the `learned_search` row it snapshots.
#[test]
#[ignore = "release-mode tractability guard; run with -- --ignored"]
fn learned_transition_stays_certified() {
    let params = DesignParams::default()
        .with_overlap_threshold(0.12)
        .with_window_size(2_000)
        .with_maxtb(6);
    let app = workloads::synthetic::scaled_soc(48, 0xDA7E_2005);
    let pre = Preprocessed::analyze(&app.trace, &params);
    let budget = SolveLimits::nodes(250_000)
        .with_search(SearchLevel::Learned)
        .with_learned_seed(0);

    let (witness, stats) = Preprocessed::binding_problem(&pre, 15)
        .find_feasible_stats_cancellable(&budget, &CancelToken::new())
        .expect("learned 15-bus probe must stay within the probe budget");
    let witness = witness.expect("learned search must certify the 15-bus witness at 48 targets");
    assert!(
        Preprocessed::binding_problem(&pre, 15)
            .verify(&witness)
            .is_some(),
        "learned 15-bus witness must verify"
    );
    assert!(
        stats.nogoods_learned > 0,
        "the transition witness is found through learning, not luck: {stats:?}"
    );

    for buses in pre.bus_lower_bound()..=13 {
        assert_eq!(
            Preprocessed::binding_problem(&pre, buses)
                .find_feasible_stats_cancellable(&budget, &CancelToken::new())
                .unwrap_or_else(|e| panic!("learned proof at {buses} buses hit {e}"))
                .0,
            None,
            "{buses} buses must stay proven infeasible at 48 targets"
        );
    }

    // The honest open point: 14 buses is undecided under this budget.
    // If learning ever decides it, this assert flags the milestone so
    // the guard and BENCHMARKS.md get rewritten around the new frontier.
    assert!(
        Preprocessed::binding_problem(&pre, 14)
            .find_feasible_stats_cancellable(&budget, &CancelToken::new())
            .is_err(),
        "14 buses decided within budget — move the frontier documentation"
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

    /// Soundness of learned clauses on random instances: replaying the
    /// same instance with and without learning yields identical
    /// verdicts (a clause that pruned a feasible witness would flip a
    /// verdict here), and every learned witness re-verifies.
    #[test]
    fn random_instances_agree_with_and_without_learning(
        tr in arb_trace(),
        ws in 20u64..400,
        theta in 0u32..=50,
        maxtb in 2usize..=5,
        seed in 0u64..1_000,
    ) {
        let params = DesignParams::default()
            .with_window_size(ws)
            .with_maxtb(maxtb)
            .with_overlap_threshold(f64::from(theta) / 100.0);
        let pre = Preprocessed::analyze(&tr, &params);
        let standard = Exact::default().synthesize(&pre, &params).expect("within limits");
        let learned_params = {
            let mut p = params.clone().with_search(SearchLevel::Learned);
            p.solve_limits = p.solve_limits.with_learned_seed(seed);
            p
        };
        let learned = Exact::default()
            .synthesize(&pre, &learned_params)
            .expect("within limits");
        prop_assert_eq!(&learned.probes, &standard.probes);
        prop_assert_eq!(learned.num_buses, standard.num_buses);
        prop_assert_eq!(learned.lower_bound, standard.lower_bound);
        prop_assert_eq!(learned.engine, standard.engine);
        let problem = Preprocessed::binding_problem(&pre, learned.num_buses);
        prop_assert_eq!(
            problem.verify(&learned.binding),
            Some(learned.max_bus_overlap)
        );
    }
}
