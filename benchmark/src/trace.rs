//! In-memory span recorder for the traced run.
//!
//! The benchmark records one span around each call it makes into a layer
//! (phase 1–4, a gateway request, a journal replay step): name, start, end,
//! parent span and the design or request id. Spans stay in memory while
//! the workload runs and are written out once at the end. A layer's self
//! time is its spans' duration minus the part of each interval covered by
//! child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Design or request id the span belongs to.
    pub id: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// Records nested spans on one thread. A disabled recorder (`Tracer::off`)
/// records nothing, so traced and untraced runs share one code path.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn on() -> Self {
        Self {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::on()
        }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(index);
        Some(index)
    }

    /// Closes the span `begin` returned; spans close innermost first.
    pub fn end(&mut self, span: Option<usize>) {
        let Some(index) = span else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(index), "spans close innermost first");
        self.spans[index].end = self.origin.elapsed();
    }

    /// Adds a span measured elsewhere (another thread's interval, already
    /// expressed against this recorder's origin via [`Tracer::offset`]).
    pub fn record(&mut self, name: &'static str, id: u64, start: Duration, end: Duration) {
        if self.enabled {
            self.spans.push(Span {
                name,
                id,
                parent: None,
                start,
                end,
            });
        }
    }

    /// `at` as an offset from this recorder's origin.
    pub fn offset(&self, at: Instant) -> Duration {
        at.saturating_duration_since(self.origin)
    }

    /// Total self time and span count per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (Duration, usize)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(i);
            }
        }
        let mut totals: BTreeMap<&'static str, (Duration, usize)> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let mut covered: Vec<(Duration, Duration)> = children[i]
                .iter()
                .map(|&c| (self.spans[c].start, self.spans[c].end))
                .collect();
            covered.sort();
            let mut union = Duration::ZERO;
            let mut reach = span.start;
            for (start, end) in covered {
                let start = start.max(reach);
                if end > start {
                    union += end - start;
                    reach = end;
                }
            }
            let entry = totals.entry(span.name).or_default();
            entry.0 += (span.end - span.start).saturating_sub(union);
            entry.1 += 1;
        }
        totals
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// The spans as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\
                 \"start_us\":{},\"end_us\":{}}}",
                s.name,
                s.id,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::on();
        let root = t.begin("root", 1);
        std::thread::sleep(Duration::from_millis(5));
        let child = t.begin("child", 1);
        std::thread::sleep(Duration::from_millis(10));
        t.end(child);
        t.end(root);
        let times = t.self_times();
        let (root_self, _) = times["root"];
        let (child_self, _) = times["child"];
        assert!(child_self >= Duration::from_millis(10));
        assert!(root_self >= Duration::from_millis(5));
        assert_eq!(root_self + child_self, t.total("root"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let s = t.begin("x", 0);
        t.end(s);
        assert!(t.self_times().is_empty());
    }
}
