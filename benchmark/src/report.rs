//! Metric names, sample statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The end-to-end metrics every workload reports on its result line
/// (untraced runs), in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("designs_per_s", "designs/s"),
    ("buses_total", "buses"),
];

/// The per-layer metrics every workload reports on its result line
/// (traced runs), in `BENCHMARK.json` order. A layer the workload does not
/// exercise reads 0.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("traffic.generate_ms", "ms"),
    ("phase1.collect_ms", "ms"),
    ("phase2.analyze_ms", "ms"),
    ("phase2.conflict_pairs", "pairs"),
    ("phase3.synthesize_ms", "ms"),
    ("phase3.probes", "probes"),
    ("phase3.nodes", "nodes"),
    ("phase3.nodes_per_s", "nodes/s"),
    ("phase3.exact_share", "ratio"),
    ("phase4.validate_ms", "ms"),
    ("phase4.packets_per_s", "packets/s"),
    ("batch.speedup", "x"),
    ("gateway.cache_hit_rate", "ratio"),
    ("gateway.delta_reuse_rate", "ratio"),
    ("gateway.refused", "requests"),
    ("gateway.wire_parse_us", "us"),
    ("gateway.compute_ms.hit", "ms"),
    ("gateway.compute_ms.miss", "ms"),
    ("gateway.overhead_ms.hit", "ms"),
    ("gateway.overhead_ms.miss", "ms"),
    ("journal.records", "records"),
    ("journal.bytes_per_record", "bytes"),
    ("trace.overhead_pct", "%"),
    ("trace.phase_coverage", "ratio"),
];

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Values of the [`END_TO_END`] metrics.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Values of the [`PER_LAYER`] metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Workload-specific metrics printed as readable lines only:
    /// `(name, value, unit, samples)`.
    pub details: Vec<(String, f64, &'static str, usize)>,
    /// Operations checked (designs or requests).
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.details.push((name.into(), value, unit, n));
    }

    /// Adds percentile `p` of `samples` as a detail line, or says that the
    /// sample cannot support it.
    pub fn percentile_detail(&mut self, name: &str, samples: &[f64], p: f64, unit: &'static str) {
        match percentile(samples, p) {
            Some(value) => self.detail(name, value, unit, samples.len()),
            None => println!("# {name} unsupported: {} samples", samples.len()),
        }
    }

    /// Records one checked operation and the checks it failed.
    pub fn check(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures.extend(failures);
        }
    }

    /// The result line: exactly the end-to-end metrics (untraced) or the
    /// per-layer metrics (traced).
    pub fn result_line(&self, traced: bool) -> String {
        let (names, values): (&[(&str, &str)], _) = if traced {
            (&PER_LAYER, &self.layers)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = values.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Nearest-rank percentile `p` (0..1) of `samples`, or `None` when fewer
/// than ten samples lie beyond it — a percentile the sample cannot support.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n >= rank + 10).then(|| sorted[rank - 1])
}

/// Median of a small set of repeated measurements (set-up rounds).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(10.0));
        assert_eq!(percentile(&samples[..19], 0.5), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), Some(990.0));
        assert_eq!(percentile(&many[..999], 0.99), None);
    }

    #[test]
    fn result_line_lists_every_metric() {
        let mut outcome = Outcome::default();
        outcome.check(Vec::new());
        outcome.end_to_end.insert("setup_s", 0.5);
        let line = outcome.result_line(false);
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\"")));
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
    }
}
