//! Incremental-resynthesis equivalence: the delta path must be invisible
//! in the answers.
//!
//! Two contracts, matching the two halves of the incremental flow:
//!
//! * **Analysis bit-identity** — for any workload and any valid
//!   [`WorkloadDelta`], `Analyzed::reanalyze(delta)` equals the
//!   from-scratch route (`Collected::apply_delta` then
//!   `Collected::analyze`) bit for bit: window stats, overlap profiles
//!   and conflict graphs in both directions, plus the effective
//!   parameters. Checked under proptest on random workloads/deltas and
//!   the shapes the gateway actually sends.
//! * **Warm-start verdict identity** — seeding the exact search with the
//!   previous solve's binding ([`SolveLimits::with_warm_start`]) must
//!   not change what the solver *concludes*: feasibility verdicts, probe
//!   logs, chosen bus count, lower bound and the optimised
//!   `max_bus_overlap` are identical to a cold solve. Only the returned
//!   assignment may legitimately differ (a different equal-objective
//!   leaf may be reached first), and it must verify.
//!   Checked on the five paper suites and scaled synthetic instances,
//!   for a one-target edit, a one-θ-step move, and a target removal
//!   (the warm hint's arity no longer matches — it must demote itself,
//!   not corrupt the search).
//!
//! The exact searches here are expensive under `opt-level = 0`, so debug
//! builds run a reduced scope (fewer proptest cases, one paper suite,
//! the smallest synthetic) purely as a smoke check; the full sweep runs
//! in release, which is how CI's equivalence step invokes this file.

use proptest::prelude::*;
use stbus::core::{DesignParams, Exact, Pipeline, Preprocessed, SynthesisOutcome, Synthesizer};
use stbus::milp::WarmStart;
use stbus::traffic::workloads::{self, Application};
use stbus::traffic::{
    CoreKind, InitiatorId, SocSpec, TargetEdit, TargetId, Trace, TraceEvent, WorkloadDelta,
};

/// Reduced scope under `opt-level = 0` (see module docs).
#[cfg(debug_assertions)]
const PROPTEST_CASES: u32 = 12;
#[cfg(not(debug_assertions))]
const PROPTEST_CASES: u32 = 64;

#[cfg(debug_assertions)]
const SCALED_SIZES: &[usize] = &[16];
#[cfg(not(debug_assertions))]
const SCALED_SIZES: &[usize] = &[16, 24];

/// Paper workloads the warm-start harness solves; debug keeps the
/// cheapest suite as a smoke check.
fn warm_suite() -> Vec<Application> {
    let suite = workloads::paper_suite(0xDA7E_2005);
    if cfg!(debug_assertions) {
        suite
            .into_iter()
            .filter(|app| app.name() == "Mat2")
            .collect()
    } else {
        suite
    }
}

// ---------------------------------------------------------------------------
// Part 1: delta-patched analysis is bit-identical to from-scratch.
// ---------------------------------------------------------------------------

/// Asserts `reanalyze(delta)` equals `apply_delta(delta)` + `analyze`
/// field by field, in both crossbar directions.
fn assert_reanalyze_matches_scratch(
    app: &Application,
    params: &DesignParams,
    delta: &WorkloadDelta,
) {
    let collected = Pipeline::collect(app, params);
    let analyzed = collected.analyze(params);

    let incremental = analyzed.reanalyze(delta).expect("valid delta");
    let new_params = match delta.threshold {
        Some(theta) => params.clone().with_overlap_threshold(theta),
        None => params.clone(),
    };
    let scratch_collected = collected.apply_delta(delta).expect("valid delta");
    let scratch = scratch_collected.analyze(&new_params);

    assert_eq!(
        incremental.collected().traffic().it_trace,
        scratch.collected().traffic().it_trace,
        "patched it traces diverge"
    );
    assert_eq!(
        incremental.collected().traffic().ti_trace,
        scratch.collected().traffic().ti_trace,
        "patched ti traces diverge"
    );
    for (label, inc, fresh) in [
        ("it", incremental.pre_it(), scratch.pre_it()),
        ("ti", incremental.pre_ti(), scratch.pre_ti()),
    ] {
        assert_eq!(inc.stats, fresh.stats, "{label} stats");
        assert_eq!(inc.profile, fresh.profile, "{label} profile");
        assert_eq!(inc.conflicts, fresh.conflicts, "{label} conflicts");
        assert_eq!(inc.maxtb, fresh.maxtb, "{label} maxtb");
    }
    assert_eq!(incremental.params(), scratch.params(), "effective params");
}

/// A random application: a structural spec sized to match a random
/// offered trace.
fn arb_application() -> impl Strategy<Value = Application> {
    (2usize..=3, 2usize..=5).prop_flat_map(|(ni, nt)| {
        prop::collection::vec(
            (
                0usize..ni,
                0usize..nt,
                0u64..3_000,
                1u32..50,
                prop::bool::ANY,
            ),
            1..80,
        )
        .prop_map(move |events| {
            let mut spec = SocSpec::new("prop-soc");
            for i in 0..ni {
                spec.add_initiator(format!("cpu{i}"));
            }
            for t in 0..nt {
                spec.add_target(format!("mem{t}"), CoreKind::PrivateMemory);
            }
            let mut tr = Trace::new(ni, nt);
            for (i, t, s, d, c) in events {
                tr.push(TraceEvent {
                    initiator: InitiatorId::new(i),
                    target: TargetId::new(t),
                    start: s,
                    duration: d,
                    critical: c,
                });
            }
            tr.finish_sorting();
            Application::new(spec, tr)
        })
    })
}

/// Raw knobs for a random delta; resolved against the application's
/// shape (so the delta is always valid) in `build_delta`. Optionality
/// and the θ value are integer-encoded (the vendored proptest has no
/// `Option`/`f64` strategies).
type DeltaKnobs = (
    usize,                        // add_targets
    (bool, usize),                // (remove something?, raw removed target)
    usize,                        // edited target (raw)
    Vec<(usize, u64, u32, bool)>, // replacement events
    (bool, u32),                  // (move θ?, θ in hundredths)
);

fn arb_delta_knobs() -> impl Strategy<Value = DeltaKnobs> {
    (
        0usize..=2,
        (prop::bool::ANY, 0usize..16),
        0usize..16,
        prop::collection::vec((0usize..8, 0u64..2_000, 1u32..40, prop::bool::ANY), 0..20),
        (prop::bool::ANY, 1u32..95),
    )
}

/// Resolves raw knobs into a delta that is valid for `app`: indices are
/// folded into range and the removed/edited targets are kept distinct.
fn build_delta(
    app: &Application,
    (add_targets, (has_removed, removed_raw), edit_raw, events, (has_theta, theta_raw)): DeltaKnobs,
) -> WorkloadDelta {
    let ni = app.spec.num_initiators();
    let nt = app.spec.num_targets();
    let n = nt + add_targets;
    let removed = has_removed.then_some(removed_raw % nt);
    let threshold = has_theta.then_some(f64::from(theta_raw) / 100.0);
    let mut edit_target = edit_raw % n;
    if removed == Some(edit_target) {
        edit_target = (edit_target + 1) % n;
    }
    let target = TargetId::new(edit_target);
    WorkloadDelta {
        add_targets,
        removed: removed.map(TargetId::new).into_iter().collect(),
        edits: vec![TargetEdit {
            target,
            events: events
                .into_iter()
                .map(|(i, s, d, c)| TraceEvent {
                    initiator: InitiatorId::new(i % ni),
                    target,
                    start: s,
                    duration: d,
                    critical: c,
                })
                .collect(),
        }],
        threshold,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(PROPTEST_CASES))]

    /// Bit-identity of the incremental analysis on random workloads and
    /// random (add / remove / edit / θ-move) deltas.
    #[test]
    fn reanalysis_is_bit_identical_on_random_deltas(
        app in arb_application(),
        knobs in arb_delta_knobs(),
        theta_base in 5u32..60,
    ) {
        let params = DesignParams::default().with_overlap_threshold(f64::from(theta_base) / 100.0);
        let delta = build_delta(&app, knobs);
        assert_reanalyze_matches_scratch(&app, &params, &delta);
    }
}

/// The gateway-shaped deltas on every paper suite: a one-target edit, a
/// one-θ-step move, a removal and an addition, each bit-identical to
/// from-scratch analysis.
#[test]
fn reanalysis_is_bit_identical_on_paper_suite() {
    for app in workloads::paper_suite(0xDA7E_2005) {
        let params = suite_params(app.name());
        for delta in [
            one_target_edit(),
            theta_step(&params),
            WorkloadDelta {
                removed: vec![TargetId::new(2)],
                ..WorkloadDelta::default()
            },
            WorkloadDelta {
                add_targets: 1,
                ..WorkloadDelta::default()
            },
        ] {
            assert_reanalyze_matches_scratch(&app, &params, &delta);
        }
    }
}

// ---------------------------------------------------------------------------
// Part 2: warm-started binding search matches the cold verdicts.
// ---------------------------------------------------------------------------

/// Per-suite parameters matching the paper evaluation (same table as
/// `pruned_solver_equivalence`).
fn suite_params(name: &str) -> DesignParams {
    match name {
        "Mat1" | "Mat2" | "DES" => DesignParams::default().with_overlap_threshold(0.15),
        "FFT" => DesignParams::default()
            .with_overlap_threshold(0.50)
            .with_response_scale(0.9),
        _ => DesignParams::default(),
    }
}

/// The single-target edit the gateway's delta examples use.
fn one_target_edit() -> WorkloadDelta {
    WorkloadDelta {
        edits: vec![TargetEdit {
            target: TargetId::new(1),
            events: vec![
                TraceEvent::new(InitiatorId::new(0), TargetId::new(1), 40, 25),
                TraceEvent::new(InitiatorId::new(1), TargetId::new(1), 55, 10),
            ],
        }],
        ..WorkloadDelta::default()
    }
}

/// One θ step up from the base parameters.
fn theta_step(params: &DesignParams) -> WorkloadDelta {
    WorkloadDelta {
        threshold: Some(params.overlap_threshold + 0.05),
        ..WorkloadDelta::default()
    }
}

/// What a warm start must preserve: everything the solver *concluded*.
fn assert_same_verdicts(label: &str, warm: &SynthesisOutcome, cold: &SynthesisOutcome) {
    assert_eq!(warm.num_buses, cold.num_buses, "{label}: bus count");
    assert_eq!(warm.lower_bound, cold.lower_bound, "{label}: lower bound");
    assert_eq!(warm.probes, cold.probes, "{label}: probe sequence");
    assert_eq!(
        warm.max_bus_overlap, cold.max_bus_overlap,
        "{label}: optimised max overlap"
    );
    assert_eq!(warm.engine, cold.engine, "{label}: engine");
}

/// The full warm-vs-cold harness for one application and one delta:
/// solve the base workload cold (that solve's bindings are what the
/// gateway stores in its artifact), patch the analysis, then solve the
/// patched problem cold and warm in both directions.
fn assert_warm_matches_cold(
    label: &str,
    app: &Application,
    params: &DesignParams,
    delta: &WorkloadDelta,
) {
    let collected = Pipeline::collect(app, params);
    let analyzed = collected.analyze(params);
    let base_it = Exact::default()
        .synthesize(analyzed.pre_it(), params)
        .expect("base it solve within limits");
    let base_ti = Exact::default()
        .synthesize(analyzed.pre_ti(), params)
        .expect("base ti solve within limits");

    let re = analyzed.reanalyze(delta).expect("valid delta");
    for (dir, pre, warm_hint) in [
        ("it", re.pre_it(), &base_it.binding),
        ("ti", re.pre_ti(), &base_ti.binding),
    ] {
        let cold = Exact::default()
            .synthesize(pre, re.params())
            .expect("cold solve within limits");
        let mut warm_params = re.params().clone();
        warm_params.solve_limits = warm_params
            .solve_limits
            .clone()
            .with_warm_start(WarmStart::new(warm_hint.clone()));
        let warm = Exact::default()
            .synthesize(pre, &warm_params)
            .expect("warm solve within limits");
        assert_same_verdicts(&format!("{label}/{dir}"), &warm, &cold);
        let problem = Preprocessed::binding_problem(pre, warm.num_buses);
        assert_eq!(
            problem.verify(&warm.binding),
            Some(warm.max_bus_overlap),
            "{label}/{dir}: warm binding must verify"
        );
    }
}

/// Warm-start verdict identity on the five paper suites, for the edit
/// and θ-step deltas the gateway serves.
#[test]
fn warm_start_matches_cold_on_paper_suite() {
    for app in warm_suite() {
        let params = suite_params(app.name());
        for (kind, delta) in [("edit", one_target_edit()), ("theta", theta_step(&params))] {
            assert_warm_matches_cold(&format!("{}/{kind}", app.name()), &app, &params, &delta);
        }
    }
}

/// Warm-start verdict identity on scaled synthetic instances (the
/// conflict-dense bench shape), including a removal delta — after it
/// the stored binding's arity no longer matches and the warm hint must
/// demote itself to a value-ordering preference without changing any
/// verdict.
#[test]
fn warm_start_matches_cold_on_scaled_synthetics() {
    let params = DesignParams::default()
        .with_overlap_threshold(0.12)
        .with_window_size(2_000)
        .with_maxtb(6);
    for &targets in SCALED_SIZES {
        let app = workloads::synthetic::scaled_soc(targets, 0xDA7E_2005);
        for (kind, delta) in [
            ("edit", one_target_edit()),
            ("theta", theta_step(&params)),
            (
                "remove",
                WorkloadDelta {
                    removed: vec![TargetId::new(2)],
                    ..WorkloadDelta::default()
                },
            ),
        ] {
            assert_warm_matches_cold(&format!("scaled-{targets}/{kind}"), &app, &params, &delta);
        }
    }
}
