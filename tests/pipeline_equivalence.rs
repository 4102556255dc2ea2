//! The staged pipeline and the batch runner must be routes to the same
//! answer: identical `DesignReport`s on the whole paper suite, whether the
//! stages run inline, sequentially batched, or in parallel. Plus the
//! `Portfolio` strategy's budget-fallback contract.

use stbus::core::{
    Batch, ConfigEval, DesignParams, DesignReport, Exact, Heuristic, Pipeline, Portfolio,
    SynthesisEngine, SynthesisOutcome,
};
use stbus::milp::SolveLimits;
use stbus::traffic::workloads;
use stbus::traffic::workloads::synthetic::{self, SyntheticParams};
use stbus::traffic::workloads::Application;

fn suite_params(name: &str) -> DesignParams {
    match name {
        "Mat1" | "Mat2" | "DES" => DesignParams::default().with_overlap_threshold(0.15),
        "FFT" => DesignParams::default()
            .with_overlap_threshold(0.50)
            .with_response_scale(0.9),
        _ => DesignParams::default(),
    }
}

fn assert_same_synthesis(label: &str, a: &SynthesisOutcome, b: &SynthesisOutcome) {
    assert_eq!(a.num_buses, b.num_buses, "{label}: bus count");
    assert_eq!(a.lower_bound, b.lower_bound, "{label}: lower bound");
    assert_eq!(a.probes, b.probes, "{label}: probe sequence");
    assert_eq!(a.max_bus_overlap, b.max_bus_overlap, "{label}: maxov");
    assert_eq!(
        a.config.assignment(),
        b.config.assignment(),
        "{label}: binding"
    );
    assert_eq!(a.engine, b.engine, "{label}: engine");
}

fn assert_same_eval(label: &str, a: &ConfigEval, b: &ConfigEval) {
    assert_eq!(a.label, b.label, "{label}: label");
    assert_eq!(
        a.it_config.assignment(),
        b.it_config.assignment(),
        "{label}: IT config"
    );
    assert_eq!(
        a.ti_config.assignment(),
        b.ti_config.assignment(),
        "{label}: TI config"
    );
    // The simulator is deterministic, so latencies must match exactly,
    // not approximately.
    assert_eq!(a.avg_latency, b.avg_latency, "{label}: avg latency");
    assert_eq!(a.max_latency, b.max_latency, "{label}: max latency");
}

fn assert_same_report(label: &str, a: &DesignReport, b: &DesignReport) {
    assert_eq!(a.app_name, b.app_name, "{label}: app");
    assert_eq!(a.num_initiators, b.num_initiators, "{label}: initiators");
    assert_eq!(a.num_targets, b.num_targets, "{label}: targets");
    assert_same_synthesis(&format!("{label}/it"), &a.it_synthesis, &b.it_synthesis);
    assert_same_synthesis(&format!("{label}/ti"), &a.ti_synthesis, &b.ti_synthesis);
    assert_same_eval(&format!("{label}/designed"), &a.designed, &b.designed);
    assert_same_eval(&format!("{label}/full"), &a.full, &b.full);
    assert_same_eval(&format!("{label}/shared"), &a.shared, &b.shared);
    assert_same_eval(&format!("{label}/avg"), &a.avg_based, &b.avg_based);
}

/// The inline staged pipeline and the parallel and sequential `Batch`
/// runners all produce identical reports on the five paper applications.
#[test]
fn staged_pipeline_matches_batch_on_paper_suite() {
    let apps = workloads::paper_suite(0xDA7E_2005);

    let batch_parallel = Batch::per_app(&apps, |app| suite_params(app.name())).run();
    let batch_sequential = Batch::per_app(&apps, |app| suite_params(app.name()))
        .threads(1)
        .run();

    for ((app, parallel), sequential) in apps.iter().zip(batch_parallel).zip(batch_sequential) {
        let params = suite_params(app.name());

        // Route 1: the staged pipeline, spelled out.
        let collected = Pipeline::collect(app, &params);
        let analyzed = collected.analyze(&params);
        let staged = analyzed
            .synthesize(&Exact::default())
            .expect("synthesis ok")
            .report()
            .expect("validation ok");

        // Routes 2 and 3: the batch runner, parallel and sequential.
        let parallel = parallel
            .result
            .expect("batch ok")
            .into_report()
            .expect("paper baselines");
        let sequential = sequential
            .result
            .expect("batch ok")
            .into_report()
            .expect("paper baselines");

        let name = app.name();
        assert_same_report(&format!("{name}: parallel vs staged"), &parallel, &staged);
        assert_same_report(
            &format!("{name}: parallel vs sequential"),
            &parallel,
            &sequential,
        );
    }
}

/// A generated 24-target SoC — roughly twice the paper's largest suite,
/// the scale the bitset conflict-graph refactor targets.
fn large_soc() -> Application {
    synthetic::with_params(
        &SyntheticParams {
            processors: 24,
            ..SyntheticParams::default()
        },
        0xDA7E_2005,
    )
}

fn large_soc_params() -> DesignParams {
    // A conflict-dense point that still solves exactly in well under a
    // second, so the route comparison stays test-suite friendly.
    DesignParams::default()
        .with_overlap_threshold(0.10)
        .with_window_size(2_000)
}

/// The routes agree on the generated 24-target SoC too, not just the
/// paper suite: the inline staged pipeline and the parallel and
/// sequential batch runners produce identical reports.
#[test]
fn large_soc_staged_matches_batch() {
    let app = large_soc();
    assert_eq!(app.spec.num_targets(), 24);
    let params = large_soc_params();
    let apps = [app];

    let staged = Pipeline::collect(&apps[0], &params)
        .analyze(&params)
        .synthesize(&Exact::default())
        .expect("synthesis ok")
        .report()
        .expect("validation ok");

    let run_batch = |threads: Option<usize>| {
        let mut batch = Batch::per_app(&apps, |_| params.clone());
        if let Some(n) = threads {
            batch = batch.threads(n);
        }
        batch
            .run()
            .pop()
            .expect("one point")
            .result
            .expect("batch ok")
            .into_report()
            .expect("paper baselines")
    };
    let parallel = run_batch(None);
    let sequential = run_batch(Some(1));

    assert_same_report("large-soc: parallel vs staged", &parallel, &staged);
    assert_same_report("large-soc: parallel vs sequential", &parallel, &sequential);

    // The streaming batch path (phase-4 baselines through the executor,
    // results delivered via `run_streaming`) stays bit-identical at the
    // priority-lane widths too.
    for threads in [2usize, 4, 8] {
        let streamed = run_batch(Some(threads));
        assert_same_report(
            &format!("large-soc: threads={threads} vs sequential"),
            &streamed,
            &sequential,
        );
    }
}

/// Smoke test for the large-SoC scale path with the polynomial heuristic:
/// must synthesize a valid design quickly and verify end to end.
#[test]
fn large_soc_heuristic_smoke() {
    let app = large_soc();
    let params = large_soc_params();
    let collected = Pipeline::collect(&app, &params);
    let analyzed = collected.analyze(&params);
    let synthesized = analyzed
        .synthesize(&Heuristic::default())
        .expect("heuristic never exceeds a node budget");
    assert_eq!(synthesized.it.engine, SynthesisEngine::Heuristic);

    // The design is feasible at a size between the lower bound and a full
    // crossbar, and its binding verifies against its own constraints.
    for (label, outcome, pre) in [
        ("it", &synthesized.it, analyzed.pre_it()),
        ("ti", &synthesized.ti, analyzed.pre_ti()),
    ] {
        assert!(
            outcome.num_buses >= outcome.lower_bound,
            "{label}: below lower bound"
        );
        assert!(outcome.num_buses <= 24, "{label}: oversized");
        let problem = pre.binding_problem(outcome.num_buses);
        assert_eq!(
            problem.verify(&outcome.binding),
            Some(outcome.max_bus_overlap),
            "{label}: binding does not verify"
        );
    }
}

/// A starved node budget flips the portfolio to its heuristic fallback;
/// a comfortable budget keeps the exact engine — and both answers are
/// valid designs.
#[test]
fn portfolio_falls_back_under_tiny_node_budget() {
    let app = workloads::matrix::mat2(42);
    let params = DesignParams::default();
    let collected = Pipeline::collect(&app, &params);
    let analyzed = collected.analyze(&params);

    let starved = analyzed
        .synthesize(&Portfolio::with_budget(SolveLimits::nodes(1)))
        .expect("portfolio never fails");
    assert_eq!(starved.it.engine, SynthesisEngine::Heuristic);
    assert_eq!(starved.ti.engine, SynthesisEngine::Heuristic);

    let comfortable = analyzed
        .synthesize(&Portfolio::default())
        .expect("portfolio never fails");
    assert_eq!(comfortable.it.engine, SynthesisEngine::Exact);

    // The fallback's design is feasible at a size no smaller than the
    // exact optimum (the heuristic cannot beat a proven minimum).
    assert!(starved.it.num_buses >= comfortable.it.num_buses);
    assert!(starved.it.num_buses <= app.spec.num_targets());

    // An exact strategy with the same starved budget must error instead
    // of guessing.
    let exact_starved = analyzed.synthesize(&Exact::with_limits(SolveLimits::nodes(1)));
    assert!(
        exact_starved.is_err(),
        "exact must surface the budget error"
    );
}
