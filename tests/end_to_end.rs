//! End-to-end integration tests: the complete four-phase flow on every
//! paper suite, pinning the headline reproduction results.

use stbus::core::{DesignParams, DesignReport, Exact, Pipeline};
use stbus::traffic::workloads::{self, Application};

const SEED: u64 = 0xDA7E_2005;

fn suite_params(app_name: &str) -> DesignParams {
    match app_name {
        "Mat1" | "Mat2" | "DES" => DesignParams::default().with_overlap_threshold(0.15),
        "FFT" => DesignParams::default()
            .with_overlap_threshold(0.50)
            .with_response_scale(0.9),
        _ => DesignParams::default(),
    }
}

/// All four phases plus the baseline evaluations for one application.
fn run(app: &Application, params: &DesignParams) -> DesignReport {
    Pipeline::collect(app, params)
        .analyze(params)
        .synthesize(&Exact::default())
        .and_then(|synthesized| synthesized.report())
        .expect("flow succeeds")
}

/// The headline Table-2 reproduction: designed bus counts match the paper
/// exactly for every suite.
#[test]
fn table2_bus_counts_match_paper() {
    let expected = [
        ("Mat1", 8),
        ("Mat2", 6),
        ("FFT", 15),
        ("QSort", 6),
        ("DES", 6),
    ];
    for (app, (name, buses)) in workloads::paper_suite(SEED).iter().zip(expected) {
        assert_eq!(app.name(), name);
        let report = run(app, &suite_params(name));
        assert_eq!(
            report.designed.total_buses(),
            buses,
            "{name}: designed bus count diverged from the pinned reproduction"
        );
        assert_eq!(report.full.total_buses(), app.spec.num_cores());
    }
}

/// Latency ordering across architectures: full <= designed <= shared, and
/// the average-flow baseline is worse than the window design.
#[test]
fn latency_ordering_holds_everywhere() {
    for app in workloads::paper_suite(SEED) {
        let report = run(&app, &suite_params(app.name()));
        let name = app.name();
        assert!(
            report.designed.avg_latency >= report.full.avg_latency * 0.999,
            "{name}: designed beat the full crossbar?!"
        );
        assert!(
            report.shared.avg_latency >= report.designed.avg_latency,
            "{name}: shared bus faster than the designed crossbar"
        );
        assert!(
            report.avg_based.avg_latency > report.designed.avg_latency * 1.2,
            "{name}: avg-flow design should be clearly slower \
             (avg {:.1} vs designed {:.1})",
            report.avg_based.avg_latency,
            report.designed.avg_latency
        );
    }
}

/// The designed binding satisfies every constraint it was synthesised
/// under (Eq. 3–9), re-verified independently for both directions.
#[test]
fn designed_bindings_verify() {
    use stbus::core::Preprocessed;
    for app in workloads::paper_suite(SEED) {
        let params = suite_params(app.name());
        let collected = Pipeline::collect(&app, &params);
        let analyzed = collected.analyze(&params);
        let synthesized = analyzed.synthesize(&Exact::default()).expect("synthesis");
        let traffic = collected.traffic();
        for (label, synth, trace) in [
            ("IT", &synthesized.it, &traffic.it_trace),
            ("TI", &synthesized.ti, &traffic.ti_trace),
        ] {
            let pre = Preprocessed::analyze(trace, &params);
            let problem = pre.binding_problem(synth.num_buses);
            assert_eq!(
                problem.verify(&synth.binding),
                Some(synth.max_bus_overlap),
                "{}: {label} binding fails independent verification",
                app.name()
            );
        }
    }
}

/// Size minimality: one bus fewer than the designed count is infeasible
/// (or the design already sits at its lower bound).
#[test]
fn designed_sizes_are_minimal() {
    use stbus::core::Preprocessed;
    use stbus::milp::SolveLimits;
    for app in workloads::paper_suite(SEED) {
        let params = suite_params(app.name());
        let collected = Pipeline::collect(&app, &params);
        let analyzed = collected.analyze(&params);
        let it = &analyzed
            .synthesize(&Exact::default())
            .expect("synthesis")
            .it;
        if it.num_buses > 1 {
            let pre = Preprocessed::analyze(&collected.traffic().it_trace, &params);
            let smaller = pre.binding_problem(it.num_buses - 1);
            assert_eq!(
                smaller
                    .find_feasible(&SolveLimits::default())
                    .expect("limits"),
                None,
                "{}: IT crossbar is not minimal",
                app.name()
            );
        }
    }
}

/// Critical (real-time) streams achieve full-crossbar-level latency on the
/// designed configuration (paper §7.3).
#[test]
fn critical_streams_meet_full_crossbar_latency() {
    for app in workloads::paper_suite(SEED) {
        let report = run(&app, &suite_params(app.name()));
        let designed = report.designed.validation.critical_latency();
        if designed.count == 0 {
            continue; // suite has no critical streams
        }
        let full = report.full.validation.critical_latency();
        assert!(
            designed.mean <= full.mean * 1.25,
            "{}: critical latency {:.1} far above full-crossbar {:.1}",
            app.name(),
            designed.mean,
            full.mean
        );
    }
}

/// Determinism: the same seed and parameters reproduce the identical
/// design, bus for bus.
#[test]
fn flow_is_deterministic() {
    let app = workloads::matrix::mat2(SEED.wrapping_add(1));
    let a = run(&app, &suite_params("Mat2"));
    let b = run(&app, &suite_params("Mat2"));
    assert_eq!(
        a.it_synthesis.config.assignment(),
        b.it_synthesis.config.assignment()
    );
    assert_eq!(a.designed.avg_latency, b.designed.avg_latency);
}
