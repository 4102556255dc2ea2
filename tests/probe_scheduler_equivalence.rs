//! The sweep-resident and parallel fast paths must be invisible in the
//! answers: a θ-sweep through [`OverlapProfile`] re-thresholding and a
//! phase-3 run through the speculative [`ProbeScheduler`] (plain or with
//! the deterministic exact-vs-heuristic probe race) return **bit-identical**
//! outcomes to the sequential search (the width-1 scheduler) — on the
//! paper suite and on random instances.

use proptest::prelude::*;
use stbus::core::exec::CancelToken;
use stbus::core::{
    DesignParams, Exact, Pipeline, Portfolio, Preprocessed, ProbeScheduler, SynthesisOutcome,
    Synthesizer,
};
use stbus::milp::HeuristicOptions;
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

/// Runs `scheduler` to completion under a root token.
fn run(scheduler: &ProbeScheduler, pre: &Preprocessed, params: &DesignParams) -> SynthesisOutcome {
    scheduler
        .synthesize(pre, params, &CancelToken::new())
        .expect("within limits")
        .expect("a root token is never raised")
}

/// The sequential reference search: the width-1 scheduler.
fn synthesize(pre: &Preprocessed, params: &DesignParams) -> SynthesisOutcome {
    run(&ProbeScheduler::new(NonZeroUsize::MIN), pre, params)
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

/// Every speculation width, raced or not, reproduces the sequential exact
/// search bit for bit on the five paper benchmarks (both directions).
#[test]
fn scheduler_matches_sequential_on_paper_suite() {
    for app in workloads::paper_suite(0xDA7E_2005) {
        let params = suite_params(app.name());
        let collected = Pipeline::collect(&app, &params);
        let analyzed = collected.analyze(&params);
        for (dir, pre) in [("it", analyzed.pre_it()), ("ti", analyzed.pre_ti())] {
            let sequential = synthesize(pre, &params);
            // Every width exercises the executor's priority lane: the
            // scheduler promotes its consume-next probe, so the suite
            // also proves promotion never changes results.
            for jobs in [1usize, 2, 4, 8] {
                let jobs = NonZeroUsize::new(jobs).unwrap();
                let plain = run(&ProbeScheduler::new(jobs), pre, &params);
                assert_same_outcome(
                    &format!("{}/{dir} plain jobs={jobs}", app.name()),
                    &plain,
                    &sequential,
                );
                let raced = ProbeScheduler::new(jobs).with_race(HeuristicOptions::default());
                let raced = run(&raced, pre, &params);
                assert_same_outcome(
                    &format!("{}/{dir} raced jobs={jobs}", app.name()),
                    &raced,
                    &sequential,
                );
            }
        }
    }
}

/// The strategy wrappers agree too: `Exact`/`Portfolio` with `jobs` set
/// return what their sequential selves return on the paper suite.
#[test]
fn parallel_strategies_match_sequential_on_paper_suite() {
    let jobs = NonZeroUsize::new(4).unwrap();
    for app in workloads::paper_suite(0xDA7E_2005) {
        let params = suite_params(app.name());
        let analyzed = Pipeline::collect(&app, &params);
        let analyzed = analyzed.analyze(&params);
        for (dir, pre) in [("it", analyzed.pre_it()), ("ti", analyzed.pre_ti())] {
            let seq_exact = Exact::default().synthesize(pre, &params).unwrap();
            let par_exact = Exact::default()
                .with_jobs(jobs)
                .synthesize(pre, &params)
                .unwrap();
            assert_same_outcome(
                &format!("{}/{dir} exact", app.name()),
                &par_exact,
                &seq_exact,
            );

            let seq_pf = Portfolio::default().synthesize(pre, &params).unwrap();
            let par_pf = Portfolio::default()
                .with_jobs(jobs)
                .synthesize(pre, &params)
                .unwrap();
            assert_same_outcome(&format!("{}/{dir} portfolio", app.name()), &par_pf, &seq_pf);
        }
    }
}

/// A θ-sweep through the sweep-resident profile then the parallel
/// scheduler equals fresh per-point analysis plus sequential search on
/// the paper suite — the full incremental sweep path end to end.
#[test]
fn incremental_sweep_plus_scheduler_matches_fresh_path() {
    let app = workloads::matrix::mat2(0xDA7E_2005);
    let base = suite_params(app.name());
    let collected = Pipeline::collect(&app, &base);
    let thresholds = [0.05, 0.10, 0.15, 0.25, 0.40];
    let swept = collected.analyze_sweep(&base, &thresholds);
    let scheduler = ProbeScheduler::available().with_race(HeuristicOptions::default());
    for (&theta, incremental) in thresholds.iter().zip(&swept) {
        let params = base.clone().with_overlap_threshold(theta);
        let fresh = collected.analyze(&params);
        assert_eq!(
            incremental.pre_it().conflicts,
            fresh.pre_it().conflicts,
            "θ={theta}: IT conflicts"
        );
        assert_eq!(
            incremental.pre_ti().conflicts,
            fresh.pre_ti().conflicts,
            "θ={theta}: TI conflicts"
        );
        let sequential = synthesize(fresh.pre_it(), &params);
        let parallel = run(&scheduler, incremental.pre_it(), &params);
        assert_same_outcome(&format!("θ={theta}"), &parallel, &sequential);
    }
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

    /// Random traces, random windows, random thresholds: the profile
    /// re-threshold and the (plain and raced) parallel probe search both
    /// reproduce the sequential path bit for bit.
    #[test]
    fn random_instances_bit_identical(
        tr in arb_trace(),
        ws in 20u64..400,
        theta_a in 0u32..=50,
        theta_b in 0u32..=50,
        maxtb in 2usize..=5,
    ) {
        let base = DesignParams::default()
            .with_window_size(ws)
            .with_maxtb(maxtb)
            .with_overlap_threshold(f64::from(theta_a) / 100.0);
        let pre = Preprocessed::analyze(&tr, &base);

        // Sweep-resident re-threshold equals a fresh analysis.
        let theta = f64::from(theta_b) / 100.0;
        let swept = pre.at_threshold(theta);
        let fresh = Preprocessed::analyze(
            &tr,
            &base.clone().with_overlap_threshold(theta),
        );
        prop_assert_eq!(&swept.conflicts, &fresh.conflicts);
        prop_assert_eq!(&swept.stats, &fresh.stats);

        // Parallel probes equal the sequential search at the new point.
        let params = base.with_overlap_threshold(theta);
        let sequential = synthesize(&fresh, &params);
        for jobs in [1usize, 4] {
            let jobs = NonZeroUsize::new(jobs).unwrap();
            let plain = run(&ProbeScheduler::new(jobs), &swept, &params);
            prop_assert_eq!(&plain.probes, &sequential.probes);
            prop_assert_eq!(&plain.binding, &sequential.binding);
            prop_assert_eq!(plain.num_buses, sequential.num_buses);
            let raced = ProbeScheduler::new(jobs).with_race(HeuristicOptions::default());
            let raced = run(&raced, &swept, &params);
            prop_assert_eq!(&raced.probes, &sequential.probes);
            prop_assert_eq!(&raced.binding, &sequential.binding);
            prop_assert_eq!(raced.max_bus_overlap, sequential.max_bus_overlap);
        }
    }
}
