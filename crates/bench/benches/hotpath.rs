//! Hot-path microbench: the three layers the profile-guided pass
//! rewrote, measured where they live.
//!
//! * **DFS node rate** — the 32-target exact probe sequence replayed
//!   through [`BindingProblem::find_feasible_stats_cancellable`], whose
//!   [`SearchStats::nodes`] reports the exact number of DFS nodes
//!   expanded. Node counts are
//!   bit-identical across builds (the arena refactor changes *where
//!   state lives*, never *which branches are explored* — the
//!   equivalence suites prove that), so nodes-per-second is a pure
//!   per-node-cost metric: any ratio between two snapshots is a real
//!   inner-loop speedup, immune to search-order luck.
//! * **DFS allocation counts** — a counting `#[global_allocator]`
//!   wrapped around the same replay. The arena pre-sizes every
//!   per-depth frame at problem construction, so the steady-state
//!   search should allocate (almost) nothing per node; the row records
//!   allocations-per-kilonode so a regression back to per-node `Vec`
//!   churn is visible as a number, not a feeling.
//! * **Word-parallel kernel throughput** — `any_and` / `and_assign`
//!   dispatch tier vs the scalar oracle on L2-resident operands, with
//!   the active tier (`chunked`) recorded so a throughput row is
//!   attributable to the build that produced it.
//!
//! The run merges a `hotpath` row into `BENCH_phase3.json` next to the
//! size-sweep rows (each bench carries the others' rows forward). When
//! a previous row exists, `HOTPATH_GUARD=1` turns the run into a
//! regression gate: it fails if the fresh node rate drops below
//! 1/1.3 of the committed one (the nightly trajectory job sets this).
//!
//! Methodology notes live in `crates/bench/BENCHMARKS.md`.

use stbus_core::exec::CancelToken;
use stbus_core::synthesizer::{Exact, Synthesizer};
use stbus_core::{DesignParams, Preprocessed};
use stbus_traffic::kernels;
use stbus_traffic::workloads::synthetic;
use std::alloc::{GlobalAlloc, Layout, System};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counting allocator: every `alloc`/`alloc_zeroed`/`realloc` in the
/// process bumps the counters (the default `GlobalAlloc` provided
/// methods all route through `alloc`). The bench reads deltas around
/// the measured region; nothing else allocates on this thread there.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SEED: u64 = 0xDA7E_2005;
/// The size-sweep's exact frontier point: the largest size where the
/// pruned exact pipeline completes, i.e. where per-node cost dominates
/// end-to-end latency.
const TARGETS: usize = 32;
/// Words per kernel operand: 16 Ki × u64 = 128 KiB, L2-resident so the
/// measurement is ALU/port throughput, not DRAM bandwidth.
const KERNEL_WORDS: usize = 1 << 14;
/// Kernel repetitions per timed sample.
const KERNEL_ITERS: usize = 512;
/// A fresh node rate below `committed / GUARD_RATIO` fails the run when
/// `HOTPATH_GUARD` is set.
const GUARD_RATIO: f64 = 1.3;

/// The shared conflict-dense operating point of the phase-3 sweep.
fn sweep_params() -> DesignParams {
    DesignParams::default()
        .with_overlap_threshold(0.12)
        .with_window_size(2_000)
        .with_maxtb(6)
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

fn main() {
    let host_parallelism = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let params = sweep_params();
    let app = synthetic::scaled_soc(TARGETS, SEED);
    assert_eq!(app.spec.num_targets(), TARGETS);
    let pre = Preprocessed::analyze(&app.trace, &params);

    // --- DFS node rate: replay the exact probe log, counted. ---
    // One reference synthesis pins the probe sequence and its verdicts;
    // the replay must reproduce both (the "same verdicts, same probe
    // log" contract — a node-rate number from a diverged search would
    // be meaningless).
    let reference = Exact::default()
        .synthesize(&pre, &params)
        .expect("32 targets is exact-tractable");
    assert!(!reference.probes.is_empty(), "binary search probes");
    let probes: Vec<_> = reference
        .probes
        .iter()
        .map(|&(buses, feasible)| (pre.binding_problem(buses), feasible))
        .collect();

    let replay = || {
        let mut nodes = 0u64;
        let root = CancelToken::new();
        for (problem, feasible) in &probes {
            let (found, stats) = problem
                .find_feasible_stats_cancellable(&params.solve_limits, &root)
                .expect("within the node budget");
            assert_eq!(
                found.is_some(),
                *feasible,
                "replay verdict diverged from the reference probe log"
            );
            nodes += stats.nodes;
        }
        nodes
    };

    let total_nodes = replay();
    assert!(total_nodes > 0, "a counted search expands nodes");
    let replay_s = min_time(5, replay);
    let node_rate = total_nodes as f64 / replay_s;

    // End-to-end exact pipeline at the same point (probes + MILP-2),
    // comparable to the size-sweep's `exact_bitset` seconds.
    let exact_s = min_time(3, || {
        Exact::default()
            .synthesize(&pre, &params)
            .expect("32 targets is exact-tractable")
    });

    // --- DFS allocation counts around one replay. ---
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let bytes_before = ALLOC_BYTES.load(Ordering::Relaxed);
    let counted_nodes = replay();
    let replay_allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let replay_alloc_bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes_before;
    assert_eq!(counted_nodes, total_nodes, "node counts are deterministic");
    let allocs_per_kilonode = replay_allocs as f64 * 1e3 / total_nodes as f64;

    // --- Kernel throughput: dispatch tier vs scalar oracle. ---
    // Disjoint bit patterns so `any_and` never early-exits: every
    // sample scans the full operand and the rate is words/second.
    let a = vec![0xAAAA_AAAA_AAAA_AAAAu64; KERNEL_WORDS];
    let b = vec![0x5555_5555_5555_5555u64; KERNEL_WORDS];
    let any_and_s = min_time(5, || {
        for _ in 0..KERNEL_ITERS {
            assert!(!kernels::any_and(
                std::hint::black_box(&a),
                std::hint::black_box(&b)
            ));
        }
    });
    let any_and_scalar_s = min_time(5, || {
        for _ in 0..KERNEL_ITERS {
            assert!(!kernels::any_and_scalar(
                std::hint::black_box(&a),
                std::hint::black_box(&b)
            ));
        }
    });
    // `dst &= MAX` is idempotent, so repeated samples see identical data.
    let mut dst = a.clone();
    let ones = vec![u64::MAX; KERNEL_WORDS];
    let and_assign_s = min_time(5, || {
        for _ in 0..KERNEL_ITERS {
            kernels::and_assign(std::hint::black_box(&mut dst), std::hint::black_box(&ones));
        }
    });
    let and_assign_scalar_s = min_time(5, || {
        for _ in 0..KERNEL_ITERS {
            kernels::and_assign_scalar(std::hint::black_box(&mut dst), std::hint::black_box(&ones));
        }
    });
    assert_eq!(dst, a, "AND with all-ones must be the identity");
    let gwords = (KERNEL_WORDS * KERNEL_ITERS) as f64 / 1e9;

    // --- Snapshot row, merged next to the size-sweep's rows. ---
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_phase3.json");
    let old = std::fs::read_to_string(path).unwrap_or_else(|_| String::from("{}\n"));

    // Speedup evidence and regression guard against the committed row.
    let committed_rate: Option<f64> = stbus_bench::extract_top_level(&old, "hotpath")
        .and_then(|row| stbus_bench::extract_top_level(&row, "exact_32"))
        .and_then(|exact| stbus_bench::extract_top_level(&exact, "node_rate_per_s"))
        .and_then(|raw| raw.parse().ok());
    let committed_exact_s: Option<f64> =
        stbus_bench::extract_top_level(&old, "sizes").and_then(|sizes| {
            let at32 = sizes.split("\"targets\": 32").nth(1)?;
            let (_, after) = at32.split_once("\"exact_bitset\": ")?;
            let end = after.find([',', '}'])?;
            after[..end].trim().parse().ok()
        });
    if let Some(committed) = committed_rate {
        let ratio = node_rate / committed;
        println!("node rate vs committed hotpath row: {ratio:.2}x");
        if std::env::var_os("HOTPATH_GUARD").is_some() {
            assert!(
                node_rate * GUARD_RATIO >= committed,
                "node-rate regression: {node_rate:.0}/s is more than \
                 {GUARD_RATIO}x below the committed {committed:.0}/s"
            );
        }
    } else if std::env::var_os("HOTPATH_GUARD").is_some() {
        println!("HOTPATH_GUARD set but no committed hotpath row to guard against");
    }
    let speedup_vs_sweep =
        committed_exact_s.map_or_else(|| String::from("null"), |s| format!("{:.2}", s / exact_s));

    let row = format!(
        "{{\"date\": \"{date}\", \"host_parallelism\": {host_parallelism}, \
         \"kernel_tier\": \"{tier}\", \
         \"exact_32\": {{\"targets\": {TARGETS}, \"probes\": {probes_n}, \
         \"nodes\": {total_nodes}, \"replay_s\": {replay_s:.6}, \
         \"node_rate_per_s\": {node_rate:.0}, \
         \"exact_synthesize_s\": {exact_s:.6}, \
         \"speedup_vs_committed_sweep\": {speedup_vs_sweep}}}, \
         \"dfs_allocations\": {{\"allocs\": {replay_allocs}, \
         \"bytes\": {replay_alloc_bytes}, \
         \"allocs_per_kilonode\": {allocs_per_kilonode:.3}}}, \
         \"kernels\": {{\"words\": {KERNEL_WORDS}, \"iters\": {KERNEL_ITERS}, \
         \"any_and\": {{\"dispatch_gwords_s\": {aa_rate:.3}, \
         \"scalar_gwords_s\": {aa_scalar_rate:.3}, \"speedup\": {aa_speedup:.2}}}, \
         \"and_assign\": {{\"dispatch_gwords_s\": {as_rate:.3}, \
         \"scalar_gwords_s\": {as_scalar_rate:.3}, \"speedup\": {as_speedup:.2}}}}}}}",
        date = stbus_bench::today_utc(),
        tier = kernels::active_tier(),
        probes_n = probes.len(),
        aa_rate = gwords / any_and_s,
        aa_scalar_rate = gwords / any_and_scalar_s,
        aa_speedup = any_and_scalar_s / any_and_s,
        as_rate = gwords / and_assign_s,
        as_scalar_rate = gwords / and_assign_scalar_s,
        as_speedup = and_assign_scalar_s / and_assign_s,
    );

    let snapshot = stbus_bench::merge_top_level(&old, "hotpath", &row);
    std::fs::write(path, &snapshot).expect("write BENCH_phase3.json");
    println!("wrote {path}");
    println!("hotpath: {row}");
}
