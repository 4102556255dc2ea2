//! Property tests over the analysis layer: trace interchange round-trips,
//! uniform/variable window-plan equivalences, the window sweep against
//! the sort-and-segment sweep it replaced, sweep-resident re-thresholding
//! against a fresh analysis, and LP-solver sanity on random models.

#[path = "support/reference_window.rs"]
mod reference_window;

use proptest::prelude::*;
use stbus::core::{DesignParams, Pipeline, Preprocessed};
use stbus::milp::simplex::{solve_lp, BoundOverrides, LpOutcome};
use stbus::milp::{Cmp, LinExpr, Model, Sense};
use stbus::traffic::{
    io, workloads, InitiatorId, TargetId, Trace, TraceEvent, WindowPlan, WindowStats,
};

fn arb_trace() -> impl Strategy<Value = Trace> {
    (1usize..=3, 1usize..=5).prop_flat_map(|(ni, nt)| {
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
            tr
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The textual trace format round-trips exactly (criticality included).
    #[test]
    fn trace_io_round_trips(tr in arb_trace()) {
        let text = io::trace_to_string(&tr);
        let back = io::trace_from_str(&text).expect("own output parses");
        prop_assert_eq!(tr, back);
    }

    /// A uniform WindowPlan reproduces the direct uniform analysis.
    #[test]
    fn uniform_plan_equals_direct(tr in arb_trace(), ws in 1u64..500) {
        let direct = WindowStats::analyze(&tr, ws);
        let planned = WindowPlan::uniform(tr.horizon(), ws).analyze(&tr);
        prop_assert_eq!(direct, planned);
    }

    /// Variable plans conserve totals: per-target busy cycles and the
    /// aggregate overlap matrix are window-layout-independent.
    #[test]
    fn window_layout_conserves_totals(tr in arb_trace(), fine in 50u64..300) {
        let uniform = WindowStats::analyze(&tr, fine);
        let adaptive = WindowPlan::adaptive(&tr, fine, fine * 8, 0.1).analyze(&tr);
        for t in 0..tr.num_targets() {
            prop_assert_eq!(uniform.total_comm(t), adaptive.total_comm(t));
        }
        for i in 0..tr.num_targets() {
            for j in (i + 1)..tr.num_targets() {
                prop_assert_eq!(
                    uniform.overlap_matrix().get(i, j),
                    adaptive.overlap_matrix().get(i, j)
                );
            }
        }
        // Window-local bounds hold under any layout.
        for m in 0..adaptive.num_windows() {
            for t in 0..tr.num_targets() {
                prop_assert!(adaptive.comm(t, m) <= adaptive.window_len(m));
            }
        }
    }

    /// The whole-trace analysis derived from any window layout equals a
    /// fresh one-window analysis over the trace's horizon.
    #[test]
    fn whole_trace_equals_one_window_analysis(tr in arb_trace(), ws in 1u64..500) {
        let whole = WindowStats::analyze(&tr, tr.horizon().max(1));
        prop_assert_eq!(&WindowStats::analyze(&tr, ws).whole_trace(), &whole);
        let adaptive = WindowPlan::adaptive(&tr, ws, ws * 8, 0.1).analyze(&tr);
        prop_assert_eq!(&adaptive.whole_trace(), &whole);
    }

    /// Coarsening windows never increases the per-window bandwidth lower
    /// bound expressed as a fraction (merged demand / merged length is a
    /// mean of the parts).
    #[test]
    fn adaptive_windows_cover_bounds(tr in arb_trace(), fine in 50u64..300) {
        let adaptive = WindowPlan::adaptive(&tr, fine, fine * 4, 0.1).analyze(&tr);
        prop_assert!(*adaptive.bounds().last().unwrap() >= tr.horizon());
        let lens: u64 = (0..adaptive.num_windows())
            .map(|m| adaptive.window_len(m))
            .sum();
        prop_assert_eq!(
            lens,
            adaptive.bounds().last().unwrap() - adaptive.bounds().first().unwrap()
        );
    }
}

/// Unsorted traces of up to 24 targets and 300 events whose busy
/// intervals often duplicate, nest inside or touch the previous event's.
fn arb_sweep_trace() -> impl Strategy<Value = Trace> {
    (1usize..=4, 1usize..=24).prop_flat_map(|(ni, nt)| {
        prop::collection::vec(
            (
                0usize..ni,
                0usize..nt,
                (0u64..600, 1u32..40),
                prop::bool::ANY,
                0u8..6,
            ),
            1..=300,
        )
        .prop_map(move |events| {
            let mut tr = Trace::new(ni, nt);
            let mut prev: Option<TraceEvent> = None;
            for (i, t, (s, d), critical, shape) in events {
                let (start, duration) = match (shape, prev) {
                    // The previous event's interval again.
                    (0, Some(p)) => (p.start, p.duration),
                    // Nested inside it.
                    (1, Some(p)) => (p.start + 1, p.duration.saturating_sub(2).max(1)),
                    // Starting where it ends.
                    (2, Some(p)) => (p.end(), d),
                    _ => (s, d),
                };
                let event = TraceEvent {
                    initiator: InitiatorId::new(i),
                    target: TargetId::new(t),
                    start,
                    duration,
                    critical,
                };
                tr.push(event);
                prev = Some(event);
            }
            tr
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The merge sweep reproduces the sort-and-segment sweep entry for
    /// entry: every `comm`, `wo` and `om` and the critical sets, under
    /// uniform windows of 1–300 cycles, one 2⁴⁰-cycle window and adaptive
    /// plans.
    #[test]
    fn sweep_matches_reference(tr in arb_sweep_trace(), plan in 0u8..3, ws in 1u64..=300) {
        let stats = match plan {
            0 => WindowStats::analyze(&tr, ws),
            1 => WindowStats::analyze(&tr, 1 << 40),
            _ => WindowPlan::adaptive(&tr, ws, ws * 8, 0.1).analyze(&tr),
        };
        let reference = reference_window::analyze_reference(&tr, stats.bounds());
        prop_assert_eq!(stats.num_windows(), reference.num_windows);
        let n = tr.num_targets();
        for i in 0..n {
            for m in 0..stats.num_windows() {
                prop_assert_eq!(stats.comm(i, m), reference.comm(i, m));
            }
            for j in (i + 1)..n {
                for m in 0..stats.num_windows() {
                    prop_assert_eq!(
                        stats.window_overlap(i, j, m),
                        reference.window_overlap(i, j, m)
                    );
                }
                prop_assert_eq!(stats.overlap_matrix().get(i, j), reference.overlap(i, j));
                prop_assert_eq!(
                    stats.critical_streams_overlap(i, j),
                    reference.critical_streams_overlap(i, j)
                );
            }
        }
    }
}

/// A θ-sweep through the sweep-resident overlap profile derives the
/// same conflict graphs, both directions, as a fresh analysis per point.
#[test]
fn analyze_sweep_matches_fresh_analysis() {
    let app = workloads::matrix::mat2(0xDA7E_2005);
    let base = DesignParams::default().with_overlap_threshold(0.15);
    let collected = Pipeline::collect(&app, &base);
    let thresholds = [0.05, 0.10, 0.15, 0.25, 0.40];
    let swept = collected.analyze_sweep(&base, &thresholds);
    for (&theta, incremental) in thresholds.iter().zip(&swept) {
        let fresh = collected.analyze(&base.clone().with_overlap_threshold(theta));
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
    }
}

/// Sorted traces of 4 initiators and 8 targets within 700 cycles, dense
/// enough that most thresholds leave some pairs in conflict.
fn arb_conflict_trace() -> impl Strategy<Value = Trace> {
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

    /// Random traces, windows and thresholds: re-thresholding an analysis
    /// at a new θ equals a fresh analysis at that θ.
    #[test]
    fn at_threshold_matches_fresh_analysis(
        tr in arb_conflict_trace(),
        ws in 20u64..400,
        theta_a in 0u32..=50,
        theta_b in 0u32..=50,
        maxtb in 2usize..=5,
    ) {
        let base = DesignParams::default()
            .with_window_size(ws)
            .with_maxtb(maxtb)
            .with_overlap_threshold(f64::from(theta_a) / 100.0);
        let theta = f64::from(theta_b) / 100.0;
        let swept = Preprocessed::analyze(&tr, &base).at_threshold(theta);
        let fresh = Preprocessed::analyze(&tr, &base.with_overlap_threshold(theta));
        prop_assert_eq!(&swept.conflicts, &fresh.conflicts);
        prop_assert_eq!(&swept.stats, &fresh.stats);
    }
}

/// Random small LPs: the simplex answer must be feasible, and no sampled
/// feasible point may beat it.
fn arb_lp() -> impl Strategy<Value = (Model, Vec<Vec<f64>>)> {
    (2usize..=3, 1usize..=4).prop_flat_map(|(nvars, ncons)| {
        let cons = prop::collection::vec(
            (
                prop::collection::vec(-5i32..=5, nvars),
                0usize..2, // 0 = Le, 1 = Ge
                0i32..40,
            ),
            ncons,
        );
        let obj = prop::collection::vec(-5i32..=5, nvars);
        let samples = prop::collection::vec(prop::collection::vec(0u32..=10, nvars), 8);
        (cons, obj, samples).prop_map(move |(cons, obj, samples)| {
            let mut m = Model::new(Sense::Minimize);
            let vars: Vec<_> = (0..nvars)
                .map(|i| m.continuous_var(format!("x{i}"), 0.0, 10.0))
                .collect();
            for (coefs, kind, rhs) in cons {
                let mut e = LinExpr::new();
                for (v, c) in vars.iter().zip(&coefs) {
                    e.add_term(*v, f64::from(*c));
                }
                let cmp = if kind == 0 { Cmp::Le } else { Cmp::Ge };
                m.constrain(e, cmp, f64::from(rhs));
            }
            let mut e = LinExpr::new();
            for (v, c) in vars.iter().zip(&obj) {
                e.add_term(*v, f64::from(*c));
            }
            m.set_objective(e);
            let samples = samples
                .into_iter()
                .map(|s| s.into_iter().map(f64::from).collect())
                .collect();
            (m, samples)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lp_optimum_dominates_sampled_points((model, samples) in arb_lp()) {
        match solve_lp(&model, &BoundOverrides::none()) {
            LpOutcome::Optimal { values, objective } => {
                // The returned point satisfies the model.
                prop_assert!(
                    model.is_feasible_point(&values, 1e-5),
                    "simplex returned an infeasible optimum"
                );
                prop_assert!((model.objective().eval(&values) - objective).abs() < 1e-6);
                // No sampled feasible point is better (minimisation).
                for s in &samples {
                    if model.is_feasible_point(s, 1e-9) {
                        prop_assert!(
                            model.objective().eval(s) >= objective - 1e-5,
                            "sampled point beats the 'optimum'"
                        );
                    }
                }
            }
            LpOutcome::Infeasible => {
                // Then no sampled point may be feasible.
                for s in &samples {
                    prop_assert!(
                        !model.is_feasible_point(s, 1e-9),
                        "solver said infeasible but a feasible point exists"
                    );
                }
            }
            LpOutcome::Unbounded => {
                // Bounded boxes cannot be unbounded.
                prop_assert!(false, "boxed LP reported unbounded");
            }
        }
    }
}
