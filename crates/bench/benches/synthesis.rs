//! Benchmarks of the synthesis phase (MILP-1 binary search + MILP-2
//! optimal binding) for every suite — the computation behind Tables 1–2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stbus_bench::{paper_suite, suite_params};
use stbus_core::{phase1, Exact, Preprocessed, Synthesizer};

fn bench_synthesis(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthesis");
    group.sample_size(10);
    for app in paper_suite() {
        let params = suite_params(app.name());
        let collected = phase1::collect(&app, &params);
        let pre = Preprocessed::analyze(&collected.it_trace, &params);
        group.bench_with_input(
            BenchmarkId::new("it_direction", app.name()),
            &pre,
            |b, pre| {
                b.iter(|| Exact::default().synthesize(pre, &params).expect("ok"));
            },
        );
    }
    group.finish();
}

fn bench_preprocess(c: &mut Criterion) {
    let mut group = c.benchmark_group("preprocess");
    group.sample_size(10);
    for app in paper_suite() {
        let params = suite_params(app.name());
        let collected = phase1::collect(&app, &params);
        group.bench_with_input(
            BenchmarkId::new("it_direction", app.name()),
            &collected.it_trace,
            |b, trace| {
                b.iter(|| Preprocessed::analyze(trace, &params));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_synthesis, bench_preprocess);
criterion_main!(benches);
