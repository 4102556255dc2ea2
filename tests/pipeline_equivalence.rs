//! The staged pipeline and the batch runner must be routes to the same
//! answer: identical `DesignReport`s on the whole paper suite, whether the
//! stages run inline, sequentially batched, or in parallel. Plus the
//! `Portfolio` strategy's budget-fallback contract, and phase 3's two
//! crossbar directions: solved concurrently, they give the sequential
//! order's outcomes, errors and precedence.

use stbus::core::pipeline::Analyzed;
use stbus::core::{
    Batch, ConfigEval, DesignParams, DesignReport, Exact, FlowError, Heuristic, Pipeline,
    Portfolio, Preprocessed, SynthesisEngine, SynthesisOutcome, Synthesizer,
};
use stbus::exec::CancelToken;
use stbus::milp::{NodeLimitExceeded, SolveLimits};
use stbus::traffic::workloads;
use stbus::traffic::workloads::synthetic::{self, SyntheticParams};
use stbus::traffic::workloads::Application;
use std::sync::atomic::{AtomicUsize, Ordering};

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
    // of guessing, with the error the sequential order returns.
    let exact_starved = Exact::with_limits(SolveLimits::nodes(1));
    assert!(
        sequential_directions(&analyzed, &exact_starved).is_err(),
        "exact must surface the budget error"
    );
    assert_directions_match_sequential("mat2 starved exact", &analyzed, &exact_starved);
}

// --------------------------------------------------------------------------
// Phase 3's two crossbar directions
// --------------------------------------------------------------------------

/// The order phase 3 used to solve the directions in: the request
/// crossbar, then the response crossbar, each on the calling thread.
fn sequential_directions(
    analyzed: &Analyzed<'_>,
    strategy: &dyn Synthesizer,
) -> Result<(SynthesisOutcome, SynthesisOutcome), NodeLimitExceeded> {
    let it = strategy.synthesize(analyzed.pre_it(), analyzed.params())?;
    let ti = strategy.synthesize(analyzed.pre_ti(), analyzed.params())?;
    Ok((it, ti))
}

/// `analyzed.synthesize(strategy)` equals [`sequential_directions`]:
/// the same outcomes, or the same error.
fn assert_directions_match_sequential(
    label: &str,
    analyzed: &Analyzed<'_>,
    strategy: &dyn Synthesizer,
) {
    let reference = sequential_directions(analyzed, strategy);
    match (reference, analyzed.synthesize(strategy)) {
        (Ok((it, ti)), Ok(designed)) => {
            assert_same_synthesis(&format!("{label}/it"), &it, &designed.it);
            assert_same_synthesis(&format!("{label}/ti"), &ti, &designed.ti);
        }
        (Err(reference), Err(FlowError::SolverLimit(error))) => {
            assert_eq!(error, reference, "{label}: error");
        }
        (reference, concurrent) => panic!(
            "{label}: sequential {:?} but concurrent {:?}",
            reference.map(|_| ()),
            concurrent.map(|_| ())
        ),
    }
}

/// `soc_frontier`'s design point: θ 0.12, WS 2000, maxtb 6.
fn soc_params() -> DesignParams {
    DesignParams::default()
        .with_overlap_threshold(0.12)
        .with_window_size(2_000)
        .with_maxtb(6)
}

/// Under every strategy the concurrently solved directions equal the sequential reference, on the paper suite and on
/// a 32-target SoC where the budgeted portfolio falls back to the
/// heuristic on some probes. The SoC point takes about a minute
/// unoptimised, so it runs in release builds only (CI's release
/// equivalence step runs this file).
#[test]
fn concurrent_directions_match_sequential_reference() {
    let mut points: Vec<(Application, DesignParams)> = workloads::paper_suite(0xDA7E_2005)
        .into_iter()
        .map(|app| {
            let params = suite_params(app.name());
            (app, params)
        })
        .collect();
    if !cfg!(debug_assertions) {
        points.push((synthetic::scaled_soc(32, 0xDA7E_2005), soc_params()));
    }
    let strategies: [Box<dyn Synthesizer>; 3] = [
        Box::new(Exact::default()),
        Box::new(Heuristic::default()),
        Box::new(Portfolio::with_budget(SolveLimits::nodes(50_000))),
    ];
    for (app, params) in &points {
        let analyzed = Pipeline::collect(app, params).analyze(params);
        for strategy in &strategies {
            let label = format!("{} {}", app.name(), strategy.name());
            assert_directions_match_sequential(&label, &analyzed, strategy.as_ref());
        }
    }
}

/// Wraps a strategy and counts the directions it has entered and the
/// ones still running.
struct Watched<S> {
    inner: S,
    entered: AtomicUsize,
    running: AtomicUsize,
}

impl<S> Watched<S> {
    fn new(inner: S) -> Self {
        Self {
            inner,
            entered: AtomicUsize::new(0),
            running: AtomicUsize::new(0),
        }
    }
}

impl<S: Synthesizer> Synthesizer for Watched<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn synthesize_cancellable(
        &self,
        pre: &Preprocessed,
        params: &DesignParams,
        cancel: &CancelToken,
    ) -> Result<Option<SynthesisOutcome>, NodeLimitExceeded> {
        self.entered.fetch_add(1, Ordering::SeqCst);
        self.running.fetch_add(1, Ordering::SeqCst);
        let outcome = self.inner.synthesize_cancellable(pre, params, cancel);
        self.running.fetch_sub(1, Ordering::SeqCst);
        outcome
    }
}

/// Phase 3 under a token raised beforehand gives `Ok(None)`, and returns
/// only after both directions finished.
fn assert_cancelled_and_drained(analyzed: &Analyzed<'_>, strategy: impl Synthesizer) {
    let raised = CancelToken::new();
    raised.cancel();
    let watched = Watched::new(strategy);
    let outcome = analyzed
        .synthesize_cancellable(&watched, &raised)
        .expect("a cancelled search is no error");
    let name = watched.name();
    assert!(outcome.is_none(), "{name}: design under a raised token");
    assert_eq!(
        watched.entered.load(Ordering::SeqCst),
        2,
        "{name}: directions entered"
    );
    assert_eq!(
        watched.running.load(Ordering::SeqCst),
        0,
        "{name}: a direction outlived the call"
    );
}

#[test]
fn raised_token_gives_none_and_drains_the_scope() {
    let app = workloads::matrix::mat2(42);
    let params = DesignParams::default();
    let analyzed = Pipeline::collect(&app, &params).analyze(&params);
    assert_cancelled_and_drained(&analyzed, Exact::default());
    assert_cancelled_and_drained(&analyzed, Heuristic::default());
    assert_cancelled_and_drained(
        &analyzed,
        Portfolio::with_budget(SolveLimits::nodes(50_000)),
    );
}

/// What a [`Scripted`] strategy answers for one direction.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Answer {
    Design,
    Cancelled,
    OverBudget(u64),
}

/// A strategy whose answer per direction is fixed: a heuristic design,
/// `Ok(None)` or a node-limit error. The request direction's design
/// ignores the caller's token; the response direction's honours it.
struct Scripted<'a> {
    request: &'a Preprocessed,
    it: Answer,
    ti: Answer,
}

impl Synthesizer for Scripted<'_> {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn synthesize_cancellable(
        &self,
        pre: &Preprocessed,
        params: &DesignParams,
        cancel: &CancelToken,
    ) -> Result<Option<SynthesisOutcome>, NodeLimitExceeded> {
        let request = std::ptr::eq(pre, self.request);
        let (answer, cancel) = if request {
            (self.it, &CancelToken::new())
        } else {
            (self.ti, cancel)
        };
        match answer {
            Answer::Design => Heuristic::default().synthesize_cancellable(pre, params, cancel),
            Answer::Cancelled => Ok(None),
            Answer::OverBudget(limit) => Err(NodeLimitExceeded { limit }),
        }
    }
}

/// The request direction's error or `Ok(None)` wins over anything the
/// response direction answers; otherwise the response direction's error
/// or `Ok(None)` is the result, as in the sequential order.
#[test]
fn request_direction_takes_precedence() {
    let app = workloads::matrix::mat2(42);
    let params = DesignParams::default();
    let analyzed = Pipeline::collect(&app, &params).analyze(&params);
    let answers = [Answer::Design, Answer::Cancelled, Answer::OverBudget(0)];
    for it in answers {
        for ti in answers {
            let ti = match ti {
                Answer::OverBudget(_) => Answer::OverBudget(1),
                other => other,
            };
            let strategy = Scripted {
                request: analyzed.pre_it(),
                it,
                ti,
            };
            let outcome = analyzed.synthesize_cancellable(&strategy, &CancelToken::new());
            let got = match outcome {
                Ok(Some(_)) => Answer::Design,
                Ok(None) => Answer::Cancelled,
                Err(FlowError::SolverLimit(e)) => Answer::OverBudget(e.limit),
            };
            let expected = if it == Answer::Design { ti } else { it };
            assert_eq!(got, expected, "it {it:?}, ti {ti:?}");
        }
    }
}

/// The response direction sees the caller's token even when it runs as
/// an executor task: with the request direction designed regardless, a
/// raised token still ends phase 3 in `Ok(None)`.
#[test]
fn response_direction_sees_the_callers_token() {
    let app = workloads::matrix::mat2(42);
    let params = DesignParams::default();
    let analyzed = Pipeline::collect(&app, &params).analyze(&params);
    let raised = CancelToken::new();
    raised.cancel();
    let strategy = Scripted {
        request: analyzed.pre_it(),
        it: Answer::Design,
        ti: Answer::Design,
    };
    let outcome = analyzed
        .synthesize_cancellable(&strategy, &raised)
        .expect("a cancelled search is no error");
    assert!(outcome.is_none(), "design under a raised token");
}
