//! The two design-flow workloads: `paper_suite` (phases 1, 2 and 4
//! dominate, run through `Batch` exactly as `stbus suite` does) and
//! `soc_frontier` (phase 3 dominates, run through the staged pipeline).

use crate::report::{mean, median, Outcome};
use crate::trace::Tracer;
use crate::Config;
use stbus_core::pipeline::{BaselineSet, Evaluation, Pipeline};
use stbus_core::synthesizer::{Exact, Portfolio, Synthesizer};
use stbus_core::{
    paper_suite_params, Batch, DesignParams, Preprocessed, SolverKind, SynthesisEngine,
    SynthesisOutcome,
};
use stbus_milp::SolveLimits;
use stbus_traffic::workloads::{self, synthetic, Application};
use std::time::{Duration, Instant};

/// Input generation is repeated this many times; `setup_s` is the median.
const SETUP_ROUNDS: usize = 5;
/// Suites per `paper_suite` run (five applications each).
const SUITES: u64 = 8;
/// Input `k` of a run uses seed `seed + k * SEED_STRIDE`, so the inputs of
/// nearby run seeds never overlap (`paper_suite(s)` uses `s..s + 5`).
const SEED_STRIDE: u64 = 1 << 16;
/// SoC sizes of one `soc_frontier` pass: the exact frontier, the 14/15-bus
/// transition and the multi-word bitset case.
const SOC_SIZES: [usize; 3] = [32, 48, 96];
/// Node budget of the portfolio's exact attempt per feasibility probe.
const SOC_BUDGET: u64 = 50_000;
/// Passes a `soc_frontier` run makes at least (21 designs: enough for a
/// supported median); the deterministic metrics cover exactly these.
const MIN_SOC_PASSES: usize = 7;
/// Distinct SoC instances generated per size; longer runs cycle through them.
const SOC_INSTANCES: usize = 12;

/// One design run through the staged API, with its checks.
struct Designed {
    /// Collect-to-validate wall time; checks are excluded.
    wall: Duration,
    evaluation: Evaluation,
    conflict_pairs: usize,
    failures: Vec<String>,
}

/// Runs phases 1–4 on `app`, one span per phase under a `design` span.
fn design(
    app: &Application,
    params: &DesignParams,
    strategy: &dyn Synthesizer,
    baselines: &BaselineSet,
    tracer: &mut Tracer,
    id: u64,
) -> Result<Designed, String> {
    let start = Instant::now();
    let root = tracer.begin("design", id);
    let span = tracer.begin("phase1.collect", id);
    let collected = Pipeline::collect(app, params);
    tracer.end(span);
    let span = tracer.begin("phase2.analyze", id);
    let analyzed = collected.analyze(params);
    tracer.end(span);
    let span = tracer.begin("phase3.synthesize", id);
    let synthesized = analyzed.synthesize(strategy);
    tracer.end(span);
    let evaluation = synthesized.as_ref().ok().map(|s| {
        let span = tracer.begin("phase4.validate", id);
        let evaluation = s.validate(baselines);
        tracer.end(span);
        evaluation
    });
    tracer.end(root);
    let wall = start.elapsed();
    let name = app.name();
    let synthesized = synthesized.map_err(|e| format!("{name}: {e}"))?;
    let evaluation = evaluation
        .expect("validated whenever synthesis succeeded")
        .map_err(|e| format!("{name}: {e}"))?;
    let mut failures = check_outcome(&format!("{name} it"), analyzed.pre_it(), &synthesized.it);
    failures.extend(check_outcome(
        &format!("{name} ti"),
        analyzed.pre_ti(),
        &synthesized.ti,
    ));
    Ok(Designed {
        wall,
        evaluation,
        conflict_pairs: analyzed.pre_it().conflicts.num_conflicts()
            + analyzed.pre_ti().conflicts.num_conflicts(),
        failures,
    })
}

/// The binding verifies and reproduces the reported `maxov`; an exact
/// answer is minimal (its bus count is the lower bound, or one bus fewer
/// was probed infeasible).
fn check_outcome(label: &str, pre: &Preprocessed, o: &SynthesisOutcome) -> Vec<String> {
    let mut failures = Vec::new();
    let verified = pre.binding_problem(o.num_buses).verify(&o.binding);
    if verified != Some(o.max_bus_overlap) {
        failures.push(format!(
            "{label}: binding verifies to {verified:?}, reported maxov {}",
            o.max_bus_overlap
        ));
    }
    if o.num_buses < o.lower_bound {
        failures.push(format!(
            "{label}: {} buses below the lower bound {}",
            o.num_buses, o.lower_bound
        ));
    }
    let minimal = o.num_buses == o.lower_bound || o.probes.contains(&(o.num_buses - 1, false));
    if o.engine == SynthesisEngine::Exact && !minimal {
        failures.push(format!(
            "{label}: exact answer of {} buses is not shown minimal by probes {:?}",
            o.num_buses, o.probes
        ));
    }
    failures
}

/// Per-design counters a traced run turns into layer metrics.
#[derive(Default)]
struct LayerCounts {
    designs: usize,
    conflict_pairs: usize,
    probes: usize,
    nodes: u64,
    directions: usize,
    exact_directions: usize,
    packets: usize,
}

impl LayerCounts {
    /// `budget` is charged for each direction the heuristic answered after
    /// the exact attempt exhausted it (the failing probe spent exactly its
    /// budget; the attempt's earlier probes are not reported).
    fn add(&mut self, d: &Designed, budget: u64) {
        let e = &d.evaluation;
        self.designs += 1;
        self.conflict_pairs += d.conflict_pairs;
        for o in [&e.it_synthesis, &e.ti_synthesis] {
            self.probes += o.probes.len();
            self.nodes += o.stats.nodes;
            self.directions += 1;
            if o.engine == SynthesisEngine::Exact {
                self.exact_directions += 1;
            } else {
                self.nodes += budget;
            }
        }
        for config in std::iter::once(&e.designed).chain(&e.baselines) {
            self.packets += config.validation.it_report.packets().len()
                + config.validation.ti_report.packets().len();
        }
    }

    /// Fills the phase metrics from the recorded spans.
    fn into_layers(self, tracer: &Tracer, out: &mut Outcome) {
        let times = tracer.self_times();
        let self_s = |name: &str| times.get(name).map_or(0.0, |(d, _)| d.as_secs_f64());
        let per_design = |secs: f64| secs * 1e3 / self.designs.max(1) as f64;
        let phases = [
            "phase1.collect",
            "phase2.analyze",
            "phase3.synthesize",
            "phase4.validate",
        ];
        let covered: f64 = phases.iter().map(|p| self_s(p)).sum();
        let designs = self.designs.max(1) as f64;
        let generated = times.get("traffic.generate").map_or(0, |(_, n)| *n);
        let l = &mut out.layers;
        l.insert(
            "traffic.generate_ms",
            self_s("traffic.generate") * 1e3 / generated.max(1) as f64,
        );
        l.insert("phase1.collect_ms", per_design(self_s("phase1.collect")));
        l.insert("phase2.analyze_ms", per_design(self_s("phase2.analyze")));
        l.insert(
            "phase2.conflict_pairs",
            self.conflict_pairs as f64 / designs,
        );
        l.insert(
            "phase3.synthesize_ms",
            per_design(self_s("phase3.synthesize")),
        );
        l.insert("phase3.probes", self.probes as f64 / designs);
        l.insert("phase3.nodes", self.nodes as f64 / designs);
        l.insert(
            "phase3.nodes_per_s",
            self.nodes as f64 / self_s("phase3.synthesize").max(1e-9),
        );
        l.insert(
            "phase3.exact_share",
            self.exact_directions as f64 / self.directions.max(1) as f64,
        );
        l.insert("phase4.validate_ms", per_design(self_s("phase4.validate")));
        l.insert(
            "phase4.packets_per_s",
            self.packets as f64 / self_s("phase4.validate").max(1e-9),
        );
        l.insert(
            "trace.phase_coverage",
            covered / tracer.total("design").as_secs_f64().max(1e-9),
        );
        for (phase, name) in phases.iter().zip(["phase1", "phase2", "phase3", "phase4"]) {
            out.details.push((
                format!("share.{name}"),
                self_s(phase) / covered.max(1e-9),
                "ratio",
                self.designs,
            ));
        }
    }
}

/// Generates the inputs `SETUP_ROUNDS` times and returns the last copy and
/// the median round time; the last round is traced.
fn generate<T>(
    tracer: &mut Tracer,
    count: usize,
    mut make: impl FnMut(usize) -> T,
) -> (Vec<T>, f64) {
    let mut rounds = Vec::new();
    let mut inputs = Vec::new();
    for round in 0..SETUP_ROUNDS {
        let traced = round + 1 == SETUP_ROUNDS;
        let start = Instant::now();
        inputs = (0..count)
            .map(|i| {
                let span = if traced {
                    tracer.begin("traffic.generate", i as u64)
                } else {
                    None
                };
                let input = make(i);
                tracer.end(span);
                input
            })
            .collect();
        rounds.push(start.elapsed().as_secs_f64());
    }
    (inputs, median(&rounds))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `paper_suite`: `workloads::paper_suite(seed + k * SEED_STRIDE)` for
/// `k < SUITES`, each suite one `Batch::per_app` call with the paper
/// parameters, the exact solver and the paper baselines — what
/// `stbus suite` and `/suite` run.
/// A traced run also designs every application one after another through
/// the staged API with spans around each phase.
pub fn paper_suite(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = if cfg.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let suites = if cfg.tiny { 1 } else { SUITES };
    // Generation is part of set-up; the per-app spans of the traced round
    // divide by five apps per suite below.
    let (suite_apps, setup_s) = generate(&mut tracer, suites as usize, |k| {
        workloads::paper_suite(cfg.seed.wrapping_add(k as u64 * SEED_STRIDE))
    });
    out.end_to_end.insert("setup_s", setup_s);
    let solver = SolverKind::Exact.to_string();
    let batch_rows = |apps: &[Application]| -> Vec<Result<String, String>> {
        Batch::per_app(apps, |app| paper_suite_params(app.name()))
            .with_strategy_kind(SolverKind::Exact)
            .threads(cfg.nproc)
            .run()
            .into_iter()
            .map(|point| {
                point
                    .result
                    .map_err(|e| format!("{}: {e}", point.app_name))
                    .and_then(|e| {
                        e.into_report()
                            .map(|r| r.paper_row_json(&solver))
                            .ok_or_else(|| "paper baselines missing".to_string())
                    })
            })
            .collect()
    };

    // Timed loop: whole passes over the suites until the run time is up.
    let mut first_rows: Vec<Vec<Result<String, String>>> = Vec::new();
    let mut call_ms = Vec::new();
    let mut batch_designs = 0usize;
    let mut counts = LayerCounts::default();
    let (mut traced_wall, mut untraced_wall) = (Duration::ZERO, Duration::ZERO);
    let mut off = Tracer::off();
    let start = Instant::now();
    let mut call_wall = Duration::ZERO;
    let mut pass = 0u64;
    while pass == 0 || start.elapsed() < cfg.seconds {
        for (k, apps) in suite_apps.iter().enumerate() {
            let t = Instant::now();
            let rows = batch_rows(apps);
            let dt = t.elapsed();
            call_wall += dt;
            call_ms.push(ms(dt));
            batch_designs += rows.len();
            if pass == 0 {
                first_rows.push(rows);
            } else if rows != first_rows[k] {
                out.failures
                    .push(format!("suite {k}: Batch rows changed between passes"));
                out.failed += 1;
            }
        }
        if cfg.trace {
            // The same designs one after another through the staged API,
            // each untraced and then traced: the pair's difference is the
            // tracing overhead, the traced sum over the Batch time the
            // Batch speed-up.
            for (k, apps) in suite_apps.iter().enumerate() {
                for (a, app) in apps.iter().enumerate() {
                    let id = pass * 1_000 + k as u64 * 10 + a as u64;
                    let params = paper_suite_params(app.name());
                    let strategy = Exact::default();
                    let baselines = BaselineSet::paper();
                    let pair =
                        design(app, &params, &strategy, &baselines, &mut off, id).and_then(|u| {
                            design(app, &params, &strategy, &baselines, &mut tracer, id)
                                .map(|t| (u, t))
                        });
                    match pair {
                        Ok((u, t)) => {
                            counts.add(&t, 0);
                            untraced_wall += u.wall;
                            traced_wall += t.wall;
                        }
                        Err(e) => {
                            out.failures.push(e);
                            out.failed += 1;
                        }
                    }
                }
            }
        }
        pass += 1;
    }

    // Output checks, untimed: every Batch row equals the staged row byte
    // for byte, and every staged binding verifies.
    let mut buses = 0usize;
    let mut sim_latency = Vec::new();
    for (k, apps) in suite_apps.iter().enumerate() {
        for (a, app) in apps.iter().enumerate() {
            let params = paper_suite_params(app.name());
            let mut failures = Vec::new();
            match design(
                app,
                &params,
                &Exact::default(),
                &BaselineSet::paper(),
                &mut off,
                0,
            ) {
                Ok(d) => {
                    buses += d.evaluation.designed.total_buses();
                    sim_latency.push(d.evaluation.designed.avg_latency);
                    failures = d.failures;
                    let staged = d
                        .evaluation
                        .into_report()
                        .map(|r| r.paper_row_json(&solver))
                        .ok_or_else(|| "paper baselines missing".to_string());
                    match (&first_rows[k][a], staged) {
                        (Ok(batch), Ok(staged)) if *batch == staged => {}
                        (batch, staged) => failures.push(format!(
                            "suite {k} app {a}: Batch row {batch:?} != staged row {staged:?}"
                        )),
                    }
                }
                Err(e) => failures.push(e),
            }
            out.check(failures);
        }
    }
    // Every Batch design of the timed loop counts as attempted; the
    // checked staged designs above were counted once each.
    out.attempted += batch_designs as u64;

    let designs_per_s = batch_designs as f64 / call_wall.as_secs_f64();
    out.end_to_end.insert("designs_per_s", designs_per_s);
    out.end_to_end.insert("buses_total", buses as f64);
    out.detail("setup_s", setup_s, "s", SETUP_ROUNDS);
    out.detail("designs_per_s", designs_per_s, "designs/s", batch_designs);
    out.detail("buses_total", buses as f64, "buses", sim_latency.len());
    out.detail(
        "sim_latency_cycles",
        mean(&sim_latency),
        "cycles",
        sim_latency.len(),
    );
    out.percentile_detail("latency_p50_ms", &call_ms, 0.5, "ms");
    if cfg.trace {
        counts.into_layers(&tracer, &mut out);
        out.layers.insert(
            "batch.speedup",
            traced_wall.as_secs_f64() / call_wall.as_secs_f64(),
        );
        out.layers.insert(
            "trace.overhead_pct",
            100.0 * (traced_wall.as_secs_f64() / untraced_wall.as_secs_f64().max(1e-9) - 1.0),
        );
        // Each paper_suite call generates one suite of five applications.
        if let Some(v) = out.layers.get_mut("traffic.generate_ms") {
            *v /= 5.0;
        }
        write_spans(cfg, &tracer);
    }
    out
}

/// The `soc_frontier` design parameters: θ 0.12, WS 2000, maxtb 6.
fn soc_params() -> DesignParams {
    DesignParams::default()
        .with_overlap_threshold(0.12)
        .with_window_size(2_000)
        .with_maxtb(6)
}

/// `soc_frontier`: `synthetic::scaled_soc` at 32, 48 and 96 targets, one
/// fresh instance per size and pass, each through the staged pipeline with
/// a budgeted sequential portfolio, validating the designed crossbar only.
pub fn soc_frontier(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = if cfg.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let sizes: &[usize] = if cfg.tiny { &[12] } else { &SOC_SIZES };
    let (socs, setup_s) = generate(&mut tracer, SOC_INSTANCES * sizes.len(), |i| {
        let instance = (i / sizes.len()) as u64;
        let seed = cfg.seed.wrapping_add(instance * SEED_STRIDE);
        synthetic::scaled_soc(sizes[i % sizes.len()], seed)
    });
    out.end_to_end.insert("setup_s", setup_s);
    let params = soc_params();
    let strategy = Portfolio::with_budget(SolveLimits::nodes(SOC_BUDGET));
    let baselines = BaselineSet::none();

    let mut design_ms = Vec::new();
    let mut per_size: Vec<Vec<f64>> = vec![Vec::new(); sizes.len()];
    let mut buses = 0usize;
    let mut sim_latency = Vec::new();
    let mut counts = LayerCounts::default();
    let mut traced_wall = Duration::ZERO;
    let mut untraced_wall = Duration::ZERO;
    let mut off = Tracer::off();
    let start = Instant::now();
    let mut pass = 0usize;
    while pass < MIN_SOC_PASSES || start.elapsed() < cfg.seconds {
        let instance = pass % SOC_INSTANCES;
        for (s, &targets) in sizes.iter().enumerate() {
            let app = &socs[instance * sizes.len() + s];
            let id = (pass * 1_000 + targets) as u64;
            let designed = match design(app, &params, &strategy, &baselines, &mut off, id) {
                Ok(d) => d,
                Err(e) => {
                    out.check(vec![e]);
                    continue;
                }
            };
            let mut failures = designed.failures.clone();
            design_ms.push(ms(designed.wall));
            per_size[s].push(designed.wall.as_secs_f64());
            untraced_wall += designed.wall;
            if pass < MIN_SOC_PASSES {
                buses += designed.evaluation.designed.total_buses();
                sim_latency.push(designed.evaluation.designed.avg_latency);
            }
            if cfg.trace {
                // The same design again with spans: its outcome must match
                // the untraced one, and the time difference is the tracing
                // overhead.
                match design(app, &params, &strategy, &baselines, &mut tracer, id) {
                    Ok(t) => {
                        traced_wall += t.wall;
                        counts.add(&t, SOC_BUDGET);
                        let (a, b) = (&designed.evaluation, &t.evaluation);
                        if a.it_synthesis.probes != b.it_synthesis.probes
                            || a.ti_synthesis.probes != b.ti_synthesis.probes
                            || a.it_synthesis.binding != b.it_synthesis.binding
                            || a.ti_synthesis.binding != b.ti_synthesis.binding
                        {
                            failures.push(format!(
                                "{} targets pass {pass}: traced design differs from untraced",
                                targets
                            ));
                        }
                    }
                    Err(e) => failures.push(e),
                }
            }
            out.check(failures);
        }
        pass += 1;
    }

    let designs_per_s = design_ms.len() as f64 / untraced_wall.as_secs_f64();
    out.end_to_end.insert("designs_per_s", designs_per_s);
    out.end_to_end.insert("buses_total", buses as f64);
    out.detail("setup_s", setup_s, "s", SETUP_ROUNDS);
    out.detail("designs_per_s", designs_per_s, "designs/s", design_ms.len());
    out.percentile_detail("latency_p50_ms", &design_ms, 0.5, "ms");
    for (s, &targets) in sizes.iter().enumerate() {
        // Fewer than twenty samples per size support no percentile, so
        // the per-size figure is a mean.
        out.detail(
            format!("design_s.t{targets}"),
            mean(&per_size[s]),
            "s",
            per_size[s].len(),
        );
    }
    out.detail("buses_total", buses as f64, "buses", sim_latency.len());
    out.detail(
        "sim_latency_cycles",
        mean(&sim_latency),
        "cycles",
        sim_latency.len(),
    );
    if cfg.trace {
        counts.into_layers(&tracer, &mut out);
        out.layers.insert(
            "trace.overhead_pct",
            100.0 * (traced_wall.as_secs_f64() / untraced_wall.as_secs_f64().max(1e-9) - 1.0),
        );
        write_spans(cfg, &tracer);
    }
    out
}

/// Writes the recorded spans under `.bench_run/` once the workload is done.
pub fn write_spans(cfg: &Config, tracer: &Tracer) {
    let dir = std::path::Path::new(crate::RUN_DIR).join("spans");
    let path = dir.join(format!("{}-{}.jsonl", cfg.workload, cfg.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl())) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
    }
}
