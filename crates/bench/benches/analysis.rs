//! Kernel benchmarks for the window-based traffic analysis (the
//! measurement machinery behind Figs. 5–6 and every design run).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use stbus_bench::SEED;
use stbus_traffic::{workloads, ConflictGraph, WindowStats};

fn bench_window_analysis(c: &mut Criterion) {
    let app = workloads::matrix::mat2(SEED);
    let mut group = c.benchmark_group("window_analysis");
    group.sample_size(20);
    for ws in [250u64, 1_000, 4_000] {
        group.bench_with_input(BenchmarkId::new("mat2", ws), &ws, |b, &ws| {
            b.iter(|| WindowStats::analyze(&app.trace, ws));
        });
    }
    let fft = workloads::fft::fft(SEED);
    group.bench_function("fft_ws1000", |b| {
        b.iter(|| WindowStats::analyze(&fft.trace, 1_000));
    });
    group.finish();
}

/// The pre-refactor conflict construction, inlined as the benchmark
/// baseline: an unconditional nested per-pair scan over every window's
/// overlap.
fn pre_refactor_conflict_count(stats: &WindowStats, threshold: f64) -> usize {
    let n = stats.num_targets();
    let limits: Vec<u64> = (0..stats.num_windows())
        .map(|m| (threshold * stats.window_len(m) as f64).floor() as u64)
        .collect();
    let mut count = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            let over_threshold =
                (0..stats.num_windows()).any(|m| stats.window_overlap(i, j, m) > limits[m]);
            if over_threshold || stats.critical_streams_overlap(i, j) {
                count += 1;
            }
        }
    }
    count
}

fn bench_conflict_matrix(c: &mut Criterion) {
    let app = workloads::matrix::mat2(SEED);
    let stats = WindowStats::analyze(&app.trace, 1_000);
    let mut group = c.benchmark_group("conflict_matrix");
    group.sample_size(20);
    for theta in [0.10f64, 0.25, 0.50] {
        // Same answer, then same-run timing of new vs pre-refactor.
        assert_eq!(
            ConflictGraph::from_stats(&stats, theta).num_conflicts(),
            pre_refactor_conflict_count(&stats, theta)
        );
        group.bench_with_input(
            BenchmarkId::new("mat2_graph", format!("{:.0}%", theta * 100.0)),
            &theta,
            |b, &theta| {
                b.iter(|| ConflictGraph::from_stats(&stats, theta));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("mat2_pre_refactor", format!("{:.0}%", theta * 100.0)),
            &theta,
            |b, &theta| {
                b.iter(|| black_box(pre_refactor_conflict_count(&stats, theta)));
            },
        );
    }
    group.finish();
}

fn bench_burst_detection(c: &mut Criterion) {
    let app = workloads::synthetic::synthetic20(SEED);
    let mut group = c.benchmark_group("burst_detection");
    group.sample_size(20);
    group.bench_function("synthetic20", |b| {
        b.iter(|| stbus_traffic::BurstStats::detect(&app.trace, 60));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_window_analysis,
    bench_conflict_matrix,
    bench_burst_detection
);
criterion_main!(benches);
