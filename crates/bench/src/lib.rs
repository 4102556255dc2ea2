//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each binary in `src/bin/` reproduces one experiment:
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `table1` | Table 1 — shared vs full vs designed partial crossbar on Mat2 |
//! | `table2` | Table 2 — bus-count savings across the five suites |
//! | `fig4`   | Fig. 4(a)/(b) — relative avg/max latency, avg-flow vs window design |
//! | `fig5a`  | Fig. 5(a) — crossbar size vs analysis window size |
//! | `fig5b`  | Fig. 5(b) — acceptable window size vs burst size |
//! | `fig6`   | Fig. 6 — crossbar size vs overlap threshold |
//! | `binding_ablation` | §7.3 — random vs optimal binding latency |
//! | `realtime` | §7.3 — latency of critical (real-time) streams |
//! | `solver_ablation` | §6 — specialised solver vs generic MILP runtime |
//! | `fig4_posted` | Fig. 4 sensitivity to master queue depth |
//! | `variable_windows` | §8 future work — adaptive window plans |
//! | `heuristic_ablation` | exact vs heuristic synthesis |
//! | `arbitration_ablation` | arbitration policies on the designed crossbars |
//! | `cost_report` | Table-2 savings as first-order area/energy |
//! | `debug_conflicts` | developer diagnostic: window/conflict dump |
//!
//! The Criterion benches in `benches/` measure the synthesis kernels
//! themselves (window analysis, feasibility search, optimal binding);
//! `benches/phase3.rs` and `benches/gateway_throughput.rs` are the
//! perf-trajectory benches whose numbers are committed to
//! `BENCH_phase3.json` at the workspace root. The snapshot helpers below
//! ([`today_utc`], [`host_warning_json`], [`extract_top_level`],
//! [`merge_top_level`]) keep the two benches' rows from clobbering each
//! other and their warnings machine-readable in one shared shape.
//!
//! Per-application design parameters live in [`suite_params`]; the paper
//! tunes the window size per application (§7.2), and so do we.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use stbus_core::pipeline::Pipeline;
use stbus_core::synthesizer::Exact;
use stbus_core::{Batch, DesignParams, DesignReport};
use stbus_traffic::workloads::{self, Application};

/// The base seed every experiment uses (reproducibility).
pub const SEED: u64 = 0xDA7E_2005;

/// Per-application design parameters — the one pinned table in
/// [`stbus_core::paper_suite_params`], used for the headline tables.
#[must_use]
pub fn suite_params(app_name: &str) -> DesignParams {
    stbus_core::paper_suite_params(app_name)
}

/// Generates the five paper suites with their designated seeds.
#[must_use]
pub fn paper_suite() -> Vec<Application> {
    workloads::paper_suite(SEED)
}

/// Runs the full design flow on one application with its suite parameters.
///
/// # Panics
///
/// Panics if synthesis exceeds solver limits (does not happen for the
/// shipped suites).
#[must_use]
pub fn run_suite_app(app: &Application) -> DesignReport {
    let params = suite_params(app.name());
    let collected = Pipeline::collect(app, &params);
    let analyzed = collected.analyze(&params);
    analyzed
        .synthesize(&Exact::default())
        .and_then(|synthesized| synthesized.report())
        .expect("suite synthesis stays within solver limits")
}

/// Runs the whole paper suite in parallel through [`Batch`], returning
/// one classic [`DesignReport`] per application in suite order.
///
/// # Panics
///
/// Panics if synthesis exceeds solver limits (does not happen for the
/// shipped suites).
#[must_use]
pub fn run_suite() -> Vec<DesignReport> {
    let apps = paper_suite();
    let reports: Vec<DesignReport> = Batch::per_app(&apps, |app| suite_params(app.name()))
        .run()
        .into_iter()
        .map(|point| {
            point
                .result
                .expect("suite synthesis stays within solver limits")
                .into_report()
                .expect("paper baseline set carries full/shared/avg")
        })
        .collect();
    reports
}

/// `YYYY-MM-DD` from the system clock (days-from-civil inverse; no
/// external crates in the offline build). Shared by the snapshotting
/// benches so every committed row is dated the same way.
///
/// # Panics
///
/// Panics if the system clock reports a time before the Unix epoch.
#[must_use]
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after 1970")
        .as_secs();
    let days = (secs / 86_400) as i64;
    // Howard Hinnant's civil_from_days, shifted to the 0000-03-01 era.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// The machine-readable single-core warning every concurrency-sensitive
/// snapshot row carries: `null` on a multi-core host, otherwise a JSON
/// object naming the affected `measure` so trajectory tooling can filter
/// rows by `code` instead of pattern-matching prose.
#[must_use]
pub fn host_warning_json(host_parallelism: usize, measure: &str) -> String {
    if host_parallelism > 1 {
        return String::from("null");
    }
    format!(
        "{{\"code\": \"single_core_host\", \"host_parallelism\": {host_parallelism}, \
         \"measure\": \"{measure}\", \"detail\": \"{measure} measured on a 1-core host \
         reflects OS-timesliced scheduling concurrency, not parallel speedup; capture a \
         multi-core run for the wall-clock win\"}}"
    )
}

/// Locates the value of `key` at nesting depth 1 of a JSON object,
/// returning the byte range of the raw value text.
fn top_level_value_range(json: &str, key: &str) -> Option<(usize, usize)> {
    let bytes = json.as_bytes();
    let needle = format!("\"{key}\"");
    let mut depth = 0i32;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                if depth == 1 && json[i..].starts_with(&needle) {
                    let mut j = i + needle.len();
                    while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j] == b':' {
                        j += 1;
                        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                            j += 1;
                        }
                        return Some((j, end_of_value(json, j)?));
                    }
                }
                i = skip_string(bytes, i)?;
                continue;
            }
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth -= 1,
            _ => {}
        }
        i += 1;
    }
    None
}

/// Returns the index just past the string opening at `bytes[start]`.
fn skip_string(bytes: &[u8], start: usize) -> Option<usize> {
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(i + 1),
            _ => i += 1,
        }
    }
    None
}

/// Returns the index just past the JSON value starting at `start`.
fn end_of_value(json: &str, start: usize) -> Option<usize> {
    let bytes = json.as_bytes();
    match bytes.get(start)? {
        b'"' => skip_string(bytes, start),
        b'{' | b'[' => {
            let mut depth = 0i32;
            let mut i = start;
            while i < bytes.len() {
                match bytes[i] {
                    b'"' => {
                        i = skip_string(bytes, i)?;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(i + 1);
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            None
        }
        _ => {
            // Number / true / false / null: runs to the next delimiter.
            let mut i = start;
            while i < bytes.len()
                && !matches!(bytes[i], b',' | b'}' | b']')
                && !bytes[i].is_ascii_whitespace()
            {
                i += 1;
            }
            Some(i)
        }
    }
}

/// Extracts the raw value text of a top-level key from a JSON-object
/// snapshot (`None` when absent). Used by each snapshotting bench to
/// carry the *other* bench's row forward when it rewrites the file.
#[must_use]
pub fn extract_top_level(json: &str, key: &str) -> Option<String> {
    top_level_value_range(json, key).map(|(start, end)| json[start..end].to_string())
}

/// Returns `json` with the top-level `key` replaced by (or, when
/// absent, appended as) the raw value text `value`.
///
/// # Panics
///
/// Panics if `json` is not a JSON object (no closing brace to append
/// before).
#[must_use]
pub fn merge_top_level(json: &str, key: &str, value: &str) -> String {
    if let Some((start, end)) = top_level_value_range(json, key) {
        return format!("{}{}{}", &json[..start], value, &json[end..]);
    }
    let close = json.rfind('}').expect("snapshot is a JSON object");
    let head = json[..close].trim_end();
    let comma = if head.ends_with('{') { "" } else { "," };
    format!("{head}{comma}\n  \"{key}\": {value}\n}}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_distinguish_apps() {
        assert!(suite_params("FFT").response_scale < 1.0);
        assert_eq!(suite_params("Mat2").response_scale, 1.0);
    }

    #[test]
    fn suite_has_five_apps() {
        assert_eq!(paper_suite().len(), 5);
    }

    #[test]
    fn warning_is_null_on_multicore_and_structured_on_one_core() {
        assert_eq!(host_warning_json(4, "requests_per_sec"), "null");
        let warning = host_warning_json(1, "requests_per_sec");
        assert!(warning.starts_with("{\"code\": \"single_core_host\""));
        assert!(warning.contains("\"measure\": \"requests_per_sec\""));
        assert!(warning.contains("\"host_parallelism\": 1"));
    }

    const SNAPSHOT: &str = "{\n  \"bench\": \"x\",\n  \
        \"sizes\": [{\"targets\": 12, \"label\": \"a}b\"}],\n  \
        \"row\": {\"nested\": {\"deep\": [1, 2]}, \"warning\": null}\n}\n";

    #[test]
    fn extract_finds_only_top_level_keys() {
        assert_eq!(
            extract_top_level(SNAPSHOT, "bench").as_deref(),
            Some("\"x\"")
        );
        assert_eq!(
            extract_top_level(SNAPSHOT, "sizes").as_deref(),
            Some("[{\"targets\": 12, \"label\": \"a}b\"}]"),
            "braces inside strings must not unbalance the scan"
        );
        assert_eq!(
            extract_top_level(SNAPSHOT, "row").as_deref(),
            Some("{\"nested\": {\"deep\": [1, 2]}, \"warning\": null}")
        );
        // `targets` and `nested` exist only at depth > 1.
        assert_eq!(extract_top_level(SNAPSHOT, "targets"), None);
        assert_eq!(extract_top_level(SNAPSHOT, "nested"), None);
    }

    #[test]
    fn merge_replaces_in_place_and_appends_when_absent() {
        let replaced = merge_top_level(SNAPSHOT, "row", "{\"fresh\": true}");
        assert!(replaced.contains("\"row\": {\"fresh\": true}"));
        assert!(!replaced.contains("nested"));
        assert_eq!(
            extract_top_level(&replaced, "sizes"),
            extract_top_level(SNAPSHOT, "sizes")
        );

        let appended = merge_top_level(SNAPSHOT, "extra", "{\"v\": 1}");
        assert_eq!(
            extract_top_level(&appended, "extra").as_deref(),
            Some("{\"v\": 1}")
        );
        assert_eq!(
            extract_top_level(&appended, "bench").as_deref(),
            Some("\"x\"")
        );
        // Round trip: the merged text is still a scannable object.
        let round = merge_top_level(&appended, "extra", "null");
        assert_eq!(extract_top_level(&round, "extra").as_deref(), Some("null"));

        let from_empty = merge_top_level("{}\n", "only", "3");
        assert_eq!(extract_top_level(&from_empty, "only").as_deref(), Some("3"));
    }
}
