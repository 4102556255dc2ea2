//! Phase-3 **size-sweep** benchmark: 12/24/32/48/96-target synthetic SoCs
//! — the scaling curve of the solver stack, not a single point.
//!
//! Three stories in one run, all snapshotted to `BENCH_phase3.json` at the
//! workspace root (and appended to the file named by the `BENCH_HISTORY`
//! environment variable, when set — the CI perf-trajectory job). The
//! snapshot file is shared with `gateway_throughput.rs`, whose row this
//! bench carries forward when rewriting:
//!
//! * **Size sweep** — exact, heuristic and portfolio synthesis at every
//!   size. The exact engine runs with the default per-node pruning
//!   ([`stbus_milp::PruningLevel::Standard`]); at each exact-tractable
//!   size the *unpruned* search is also attempted, so the sweep records
//!   where pruning moves the exact cliff (at 32 targets the pruned
//!   pipeline completes in seconds while the unpruned search dies on the
//!   node budget — that flip is the data). The dense-matrix baseline of
//!   PR 2–4 is retired; its final measured speedups are snapshotted in
//!   `crates/bench/BENCHMARKS.md` and the generic MILP remains the sole
//!   independent reference.
//! * **Infeasibility frontier** — at the sizes beyond full exact
//!   tractability (48/96), the pruned exact search proves bus counts
//!   infeasible from the lower bound upward under a small per-probe node
//!   budget; the largest proven count is recorded. This is the honest
//!   residue of the cliff: at 48 targets the proofs reach 13 buses in
//!   microseconds and stop at the 14/15 feasibility phase transition,
//!   where witnesses exist (the repair-enabled heuristic finds a 15-bus
//!   binding) but exact proofs are out of reach for bitset and MILP
//!   search alike.
//! * **θ-sweep** — a nine-point overlap-threshold sweep at the largest
//!   size, per-point rebuild vs the sweep-resident [`OverlapProfile`]
//!   path (one analysis, O(pairs) re-threshold per θ).
//!
//! Methodology notes live in `crates/bench/BENCHMARKS.md`.

use criterion::{criterion_group, criterion_main, Criterion};
use stbus_core::synthesizer::{Exact, Heuristic, Portfolio, Synthesizer};
use stbus_core::{DesignParams, Preprocessed, SynthesisEngine};
use stbus_milp::{PruningLevel, SolveLimits};
use stbus_traffic::workloads::synthetic;
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::time::Instant;

const SEED: u64 = 0xDA7E_2005;
const SIZES: [usize; 5] = [12, 24, 32, 48, 96];
/// Sizes where the pruned exact pipeline (probes + MILP-2) completes
/// within the default node budget. 32 is new in PR 4: the per-node
/// lower bounds moved the cliff past the ROADMAP's ~32-target wall.
const EXACT_TRACTABLE: [usize; 3] = [12, 24, 32];
/// Node budget of the portfolio's exact attempt and the frontier scan at
/// the intractable sizes. Pruned nodes buy far more search than PR-3's
/// unpruned nodes (the sub-transition infeasibility proofs that used to
/// blow 2M nodes now finish in hundreds), so the budget drops to keep
/// the fallback latency in seconds.
const PROBE_BUDGET: SolveLimits = SolveLimits::nodes(250_000);
const THETA_SWEEP: [f64; 9] = [0.08, 0.10, 0.12, 0.16, 0.20, 0.25, 0.30, 0.35, 0.40];

/// The shared conflict-dense operating point (24-target values identical
/// to the PR-2 snapshot, so the trajectory stays comparable).
fn sweep_params() -> DesignParams {
    DesignParams::default()
        .with_overlap_threshold(0.12)
        .with_window_size(2_000)
        .with_maxtb(6)
}

fn pre_of(targets: usize, params: &DesignParams) -> Preprocessed {
    let app = synthetic::scaled_soc(targets, SEED);
    assert_eq!(app.spec.num_targets(), targets);
    Preprocessed::analyze(&app.trace, params)
}

fn solve_bitset(pre: &Preprocessed, params: &DesignParams) -> (usize, u64) {
    let out = Exact::default()
        .synthesize(pre, params)
        .expect("within limits");
    (out.num_buses, out.max_bus_overlap)
}

/// Times `f` over `iters` runs and returns the minimum wall-clock seconds.
fn min_time<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

struct SizePoint {
    targets: usize,
    conflict_pairs: usize,
    lower_bound: usize,
    num_buses: usize,
    engine: &'static str,
    seconds: Vec<(&'static str, f64)>,
    /// `Some(s)` when the unpruned exact pipeline completed in `s`
    /// seconds, `None` when it blew the node budget (recorded as
    /// `"budget"` in the snapshot) — the pruning cliff-flip evidence.
    unpruned_exact: Option<Option<f64>>,
    /// Largest bus count proven infeasible by the pruned exact search
    /// under [`PROBE_BUDGET`], scanning up from the lower bound
    /// (intractable sizes only).
    frontier: Option<usize>,
}

/// Scans bus counts upward from the lower bound, proving infeasibility
/// with the pruned exact search under a small budget; returns the last
/// proven count (or `lower_bound - 1` when even the first is unproven).
fn infeasibility_frontier(pre: &Preprocessed) -> usize {
    let n = pre.stats.num_targets();
    let lb = pre.bus_lower_bound();
    let mut proven = lb - 1;
    for buses in lb..=n {
        match pre.binding_problem(buses).find_feasible(&PROBE_BUDGET) {
            Ok(None) => proven = buses,
            _ => break,
        }
    }
    proven
}

fn bench_phase3(c: &mut Criterion) {
    let params = sweep_params();
    let host_parallelism = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);

    let mut size_points: Vec<SizePoint> = Vec::new();
    let mut group = c.benchmark_group("phase3_size_sweep");
    group.sample_size(5);

    for targets in SIZES {
        let pre = pre_of(targets, &params);
        let exact_ok = EXACT_TRACTABLE.contains(&targets);
        let mut seconds: Vec<(&'static str, f64)> = Vec::new();
        let mut unpruned_exact = None;
        let mut frontier = None;

        let (num_buses, engine) = if exact_ok {
            let bitset = solve_bitset(&pre, &params);
            group.bench_function(format!("exact_bitset/{targets}"), |b| {
                b.iter(|| solve_bitset(&pre, &params));
            });
            seconds.push(("exact_bitset", min_time(3, || solve_bitset(&pre, &params))));

            // The unpruned bitset pipeline: completes at 12/24 (recorded
            // for the pruning speedup), dies on the node budget at 32 —
            // the moved cliff, measured rather than remembered.
            let unpruned = params.clone().with_pruning(PruningLevel::Off);
            let start = Instant::now();
            match Exact::default().synthesize(&pre, &unpruned) {
                Ok(out) => {
                    assert_eq!(
                        (out.num_buses, out.max_bus_overlap),
                        bitset,
                        "pruned and unpruned exact answers diverged at {targets} targets"
                    );
                    let s = min_time(2, || {
                        Exact::default()
                            .synthesize(&pre, &unpruned)
                            .expect("completed")
                    });
                    seconds.push(("exact_bitset_unpruned", s));
                    unpruned_exact = Some(Some(s));
                }
                Err(_) => {
                    // Budget death: record how long the budget took to burn.
                    seconds.push(("exact_unpruned_budget_burn", start.elapsed().as_secs_f64()));
                    unpruned_exact = Some(None);
                }
            }
            (bitset.0, "exact")
        } else {
            // Beyond the exact frontier: the 14/15-bus feasibility phase
            // transition at 48 targets (and its analogue at 96) defeats
            // exact proofs — bitset, dense and MILP alike — so the
            // portfolio's budgeted attempt falls back to the repair-
            // enabled heuristic. Record whichever engine actually
            // answered, so the trajectory notices if solver improvements
            // move the cliff again, plus the infeasibility frontier the
            // pruned proofs do reach.
            frontier = Some(infeasibility_frontier(&pre));
            let out = Portfolio::with_budget(PROBE_BUDGET)
                .synthesize(&pre, &params)
                .expect("portfolio never fails");
            let engine = match out.engine {
                SynthesisEngine::Exact => "portfolio-exact",
                SynthesisEngine::Heuristic => "portfolio-heuristic",
            };
            (out.num_buses, engine)
        };

        group.bench_function(format!("heuristic/{targets}"), |b| {
            b.iter(|| Heuristic::default().synthesize(&pre, &params).unwrap());
        });
        seconds.push((
            "heuristic",
            min_time(3, || {
                Heuristic::default().synthesize(&pre, &params).unwrap()
            }),
        ));
        let portfolio = Portfolio::with_budget(if exact_ok {
            params.solve_limits.clone()
        } else {
            PROBE_BUDGET
        });
        group.bench_function(format!("portfolio/{targets}"), |b| {
            b.iter(|| portfolio.synthesize(&pre, &params).unwrap());
        });
        seconds.push((
            "portfolio",
            min_time(3, || portfolio.synthesize(&pre, &params).unwrap()),
        ));

        size_points.push(SizePoint {
            targets,
            conflict_pairs: pre.conflicts.num_conflicts(),
            lower_bound: pre.bus_lower_bound(),
            num_buses,
            engine,
            seconds,
            unpruned_exact,
            frontier,
        });
    }
    group.finish();

    // --- θ-sweep: per-point rebuild vs sweep-resident re-threshold. ---
    let theta_targets = *SIZES.last().expect("non-empty size list");
    let app = synthetic::scaled_soc(theta_targets, SEED);
    let rebuild = || {
        for &theta in &THETA_SWEEP {
            let p = params.clone().with_overlap_threshold(theta);
            std::hint::black_box(Preprocessed::analyze(&app.trace, &p));
        }
    };
    let incremental = || {
        let pre = Preprocessed::analyze(&app.trace, &params);
        for &theta in &THETA_SWEEP {
            std::hint::black_box(pre.at_threshold(theta));
        }
    };
    // Equality first (the equivalence suites prove this too; the bench
    // refuses to time diverging paths).
    {
        let pre = Preprocessed::analyze(&app.trace, &params);
        for &theta in &THETA_SWEEP {
            let p = params.clone().with_overlap_threshold(theta);
            assert_eq!(
                pre.at_threshold(theta).conflicts,
                Preprocessed::analyze(&app.trace, &p).conflicts,
                "incremental θ-sweep diverged at θ={theta}"
            );
        }
    }
    let mut theta_group = c.benchmark_group("phase2_theta_sweep_96");
    theta_group.sample_size(5);
    theta_group.bench_function("rebuild_per_point", |b| b.iter(rebuild));
    theta_group.bench_function("incremental_profile", |b| b.iter(incremental));
    theta_group.finish();
    let rebuild_s = min_time(3, rebuild);
    let incremental_s = min_time(3, incremental);

    // --- JSON snapshot for the perf trajectory (workspace root). ---
    let mut sizes_json = String::new();
    for (i, p) in size_points.iter().enumerate() {
        if i > 0 {
            sizes_json.push_str(",\n");
        }
        let mut secs = String::new();
        for (j, (k, v)) in p.seconds.iter().enumerate() {
            if j > 0 {
                secs.push_str(", ");
            }
            write!(secs, "\"{k}\": {v:.6}").expect("write to string");
        }
        let unpruned = match p.unpruned_exact {
            None => String::from("null"),
            Some(None) => String::from("\"budget\""),
            Some(Some(s)) => format!("{s:.6}"),
        };
        let frontier = p.frontier.map_or(String::from("null"), |f| f.to_string());
        write!(
            sizes_json,
            "    {{\"targets\": {}, \"conflict_pairs\": {}, \"lower_bound\": {}, \
             \"num_buses\": {}, \"engine\": \"{}\", \"seconds\": {{{secs}}}, \
             \"unpruned_exact\": {unpruned}, \
             \"proved_infeasible_through\": {frontier}}}",
            p.targets, p.conflict_pairs, p.lower_bound, p.num_buses, p.engine
        )
        .expect("write to string");
    }
    let snapshot = format!(
        "{{\n  \"bench\": \"phase3_size_sweep\",\n  \"date\": \"{date}\",\n  \
         \"host_parallelism\": {host_parallelism},\n  \
         \"workload\": {{\"family\": \"synthetic_scaled_soc\", \"seed\": {SEED}, \
         \"overlap_threshold\": 0.12, \"window_size\": 2000, \"maxtb\": 6, \
         \"pruning\": \"standard\", \"frontier_node_budget\": {frontier_budget}}},\n  \
         \"sizes\": [\n{sizes_json}\n  ],\n  \
         \"theta_sweep\": {{\"targets\": {theta_targets}, \"points\": {points}, \
         \"rebuild_per_point_s\": {rebuild_s:.6}, \"incremental_profile_s\": {incremental_s:.6}, \
         \"speedup_incremental_vs_rebuild\": {theta_speedup:.2}}}\n}}\n",
        date = stbus_bench::today_utc(),
        points = THETA_SWEEP.len(),
        theta_speedup = rebuild_s / incremental_s,
        frontier_budget = PROBE_BUDGET.max_nodes,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_phase3.json");
    // The gateway-throughput, incremental-resynthesis, hotpath and
    // journal-overhead benches share this snapshot file; carry their rows
    // forward instead of clobbering them (and vice versa over there),
    // along with the recorded `soc_frontier_directions` benchmark row.
    let old = std::fs::read_to_string(path).ok();
    let mut snapshot = snapshot;
    for key in [
        "gateway_throughput",
        "incremental_resynthesis",
        "hotpath",
        "journal_overhead",
        "soc_frontier_directions",
    ] {
        if let Some(row) = old
            .as_deref()
            .and_then(|old| stbus_bench::extract_top_level(old, key))
        {
            snapshot = stbus_bench::merge_top_level(&snapshot, key, &row);
        }
    }
    std::fs::write(path, &snapshot).expect("write BENCH_phase3.json");
    println!("wrote {path}");
    print!("{snapshot}");

    // Dated single-line append for the perf trajectory (CI sets
    // BENCH_HISTORY=BENCH_history.jsonl).
    if let Ok(history) = std::env::var("BENCH_HISTORY") {
        // Cargo runs benches with the package dir as cwd; resolve
        // relative paths against the workspace root so
        // `BENCH_HISTORY=BENCH_history.jsonl` lands next to
        // BENCH_phase3.json, not inside crates/bench.
        let history = std::path::PathBuf::from(&history);
        let history = if history.is_absolute() {
            history
        } else {
            std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(history)
        };
        let line = snapshot.replace('\n', " ").trim().to_string() + "\n";
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&history)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .expect("append BENCH_history");
        println!("appended to {}", history.display());
    }
}

criterion_group!(benches, bench_phase3);
criterion_main!(benches);
