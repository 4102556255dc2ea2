//! `stbus bench-report` — render the benchmark history into a markdown
//! trajectory table.
//!
//! The nightly perf job appends one dated JSON line per run to
//! `BENCH_history.jsonl` and refreshes `BENCH_phase3.json` with the
//! latest snapshot. This module turns that accretion into the review
//! artifact the perf PR body embeds: one markdown row per snapshot,
//! each headline metric annotated with its delta against the *previous*
//! snapshot, so a regression (or a win) is visible in the diff itself
//! rather than buried in a 2 kB JSON line.
//!
//! The columns are the headline numbers the repo actually tracks:
//!
//! * per-size solve seconds of the size sweep (the representative
//!   engine: `exact_bitset` where the exact search answers, otherwise
//!   the portfolio), with a marker when the engine is not pure exact;
//! * the θ-sweep incremental-vs-rebuild speedup;
//! * gateway throughput (requests/s) and the hot-path node rate.
//!
//! Snapshots are heterogeneous by design — older lines predate newer
//! sections — so absent metrics render as `—` and deltas only appear
//! when both neighbours carry the value. Parsing reuses the gateway's
//! own minimal JSON reader; a line that fails to parse is reported by
//! line number rather than silently dropped, because a torn history is
//! itself a finding.

use crate::gateway::json::{self, Value};

/// One snapshot's extracted headline metrics, in column order.
struct Snapshot {
    date: String,
    /// `(targets, seconds, engine)` per size-sweep row.
    sizes: Vec<(u64, Option<f64>, String)>,
    theta_speedup: Option<f64>,
    gateway_rps: Option<f64>,
    node_rate: Option<f64>,
}

fn number(value: Option<&Value>) -> Option<f64> {
    value.and_then(Value::as_f64)
}

fn extract(value: &Value) -> Snapshot {
    let date = value
        .get("date")
        .and_then(Value::as_str)
        .unwrap_or("undated")
        .to_string();
    let mut sizes = Vec::new();
    if let Some(rows) = value.get("sizes").and_then(Value::as_array) {
        for row in rows {
            let Some(targets) = row.get("targets").and_then(Value::as_u64) else {
                continue;
            };
            let engine = row
                .get("engine")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string();
            let seconds = row.get("seconds");
            let representative = seconds
                .and_then(|s| number(s.get("exact_bitset")))
                .or_else(|| seconds.and_then(|s| number(s.get("portfolio"))))
                .or_else(|| seconds.and_then(|s| number(s.get("heuristic"))));
            sizes.push((targets, representative, engine));
        }
    }
    Snapshot {
        date,
        sizes,
        theta_speedup: value
            .get("theta_sweep")
            .and_then(|t| number(t.get("speedup_incremental_vs_rebuild"))),
        gateway_rps: value
            .get("gateway_throughput")
            .and_then(|g| number(g.get("requests_per_sec"))),
        node_rate: value
            .get("hotpath")
            .and_then(|h| h.get("exact_32"))
            .and_then(|e| number(e.get("node_rate_per_s"))),
    }
}

/// `12t s`-style column header for a size-sweep column.
fn size_header(targets: u64) -> String {
    format!("{targets}t s")
}

/// Formats a metric value: seconds with adaptive precision, counts and
/// rates without trailing zeros.
fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else if v.abs() >= 0.001 {
        format!("{v:.3}")
    } else {
        format!("{v:.6}")
    }
}

/// Formats a cell: the value, the delta vs the previous snapshot when
/// both exist, and an engine marker when the engine is not pure exact.
fn cell(current: Option<f64>, previous: Option<f64>, marker: &str) -> String {
    let Some(v) = current else {
        return "—".to_string();
    };
    let mut out = fmt_value(v);
    if !marker.is_empty() {
        out.push(' ');
        out.push_str(marker);
    }
    if let Some(p) = previous {
        if p != 0.0 {
            let pct = (v - p) / p * 100.0;
            // Sub-tenth-percent drift is measurement noise, not a delta.
            if pct.abs() >= 0.1 {
                out.push_str(&format!(" ({pct:+.1}%)"));
            }
        }
    }
    out
}

/// Shorthand engine marker: nothing for the exact engine (the default
/// story), initials otherwise.
fn engine_marker(engine: &str) -> &'static str {
    match engine {
        "exact" => "",
        "portfolio-heuristic" => "ph",
        "heuristic" => "h",
        _ => "?",
    }
}

/// Renders the history (one JSON snapshot per line) plus the current
/// snapshot file into a markdown trajectory table. The snapshot is
/// appended as a final row only when its date differs from the last
/// history line — the nightly job writes both, so they usually agree.
///
/// # Errors
///
/// Reports the first unparseable line by number; an empty history is an
/// error too (the report would be vacuous).
pub fn render(history: &str, snapshot: Option<&str>) -> Result<String, String> {
    let mut snapshots = Vec::new();
    for (idx, line) in history.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = json::parse(line)
            .map_err(|e| format!("history line {}: unparseable snapshot: {e}", idx + 1))?;
        snapshots.push(extract(&value));
    }
    if let Some(snapshot) = snapshot {
        let value =
            json::parse(snapshot).map_err(|e| format!("snapshot: unparseable JSON: {e}"))?;
        let extracted = extract(&value);
        if snapshots
            .last()
            .is_none_or(|last| last.date != extracted.date)
        {
            snapshots.push(extracted);
        }
    }
    if snapshots.is_empty() {
        return Err("no snapshots: the history is empty".to_string());
    }
    // Two runs on one day are two legitimate trajectory points (a PR
    // refresh plus the nightly); disambiguate repeats so the rows stay
    // tellable apart.
    let mut seen: Vec<String> = Vec::new();
    for snap in &mut snapshots {
        let repeats = seen.iter().filter(|d| **d == snap.date).count();
        seen.push(snap.date.clone());
        if repeats > 0 {
            snap.date = format!("{} ({})", snap.date, repeats + 1);
        }
    }

    // Column union across snapshots, in ascending target order, so old
    // rows and new rows share one table even as the sweep grows sizes.
    let mut size_columns: Vec<u64> = Vec::new();
    for snap in &snapshots {
        for &(targets, _, _) in &snap.sizes {
            if !size_columns.contains(&targets) {
                size_columns.push(targets);
            }
        }
    }
    size_columns.sort_unstable();

    let mut out = String::new();
    out.push_str("### Benchmark trajectory\n\n");
    out.push_str(
        "Per-snapshot headline metrics; every cell carries its delta vs the previous \
         snapshot. Engine markers: `ph` portfolio-heuristic, `h` heuristic; unmarked \
         sizes answered exactly.\n\n",
    );
    out.push_str("| snapshot |");
    for &targets in &size_columns {
        out.push_str(&format!(" {} |", size_header(targets)));
    }
    out.push_str(" θ-sweep× | gateway req/s | node rate/s |\n");
    out.push_str("|---|");
    for _ in &size_columns {
        out.push_str("---|");
    }
    out.push_str("---|---|---|\n");

    for (i, snap) in snapshots.iter().enumerate() {
        let prev = i.checked_sub(1).map(|p| &snapshots[p]);
        let prev_size = |targets: u64| {
            prev.and_then(|p| p.sizes.iter().find(|&&(t, _, _)| t == targets))
                .and_then(|&(_, secs, _)| secs)
        };
        out.push_str(&format!("| {} |", snap.date));
        for &targets in &size_columns {
            let current = snap.sizes.iter().find(|&&(t, _, _)| t == targets);
            let (secs, engine) = match current {
                Some(&(_, secs, ref engine)) => (secs, engine.as_str()),
                None => (None, ""),
            };
            out.push_str(&format!(
                " {} |",
                cell(secs, prev_size(targets), engine_marker(engine))
            ));
        }
        out.push_str(&format!(
            " {} | {} | {} |\n",
            cell(snap.theta_speedup, prev.and_then(|p| p.theta_speedup), ""),
            cell(snap.gateway_rps, prev.and_then(|p| p.gateway_rps), ""),
            cell(snap.node_rate, prev.and_then(|p| p.node_rate), ""),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const OLD: &str = r#"{"bench":"phase3_size_sweep","date":"2026-07-01","sizes":[
        {"targets":12,"engine":"exact","seconds":{"exact_bitset":0.0001}},
        {"targets":48,"engine":"portfolio-heuristic","seconds":{"portfolio":0.40}}],
        "theta_sweep":{"speedup_incremental_vs_rebuild":9.41}}"#;
    const NEW: &str = r#"{"bench":"phase3_size_sweep","date":"2026-08-01","sizes":[
        {"targets":12,"engine":"exact","seconds":{"exact_bitset":0.0002}},
        {"targets":32,"engine":"exact","seconds":{"exact_bitset":0.57}},
        {"targets":48,"engine":"portfolio-heuristic","seconds":{"portfolio":0.30}}],
        "theta_sweep":{"speedup_incremental_vs_rebuild":9.87},
        "gateway_throughput":{"requests_per_sec":90.0}}"#;

    fn history() -> String {
        format!("{}\n{}\n", OLD.replace('\n', " "), NEW.replace('\n', " "))
    }

    #[test]
    fn renders_one_row_per_snapshot_with_deltas() {
        let report = render(&history(), None).expect("render");
        assert!(report.contains("| 2026-07-01 |"), "{report}");
        assert!(report.contains("| 2026-08-01 |"), "{report}");
        // 12t doubled: +100% against the previous snapshot.
        assert!(report.contains("(+100.0%)"), "{report}");
        // 48t improved: −25%.
        assert!(report.contains("(-25.0%)"), "{report}");
        // Engine marker on the portfolio-heuristic cells.
        assert!(report.contains("ph"), "{report}");
        // The 32t column exists but the old row has no value for it.
        assert!(report.contains("32t s"), "{report}");
        assert!(report.contains("—"), "{report}");
        // Gateway throughput surfaces once present.
        assert!(report.contains("| 90.00 |"), "{report}");
    }

    #[test]
    fn snapshot_with_new_date_appends_a_row() {
        let third = NEW
            .replace('\n', " ")
            .replace("2026-08-01", "2026-09-01")
            .replace("0.0002", "0.0001");
        let report = render(&history(), Some(&third)).expect("render");
        assert!(report.contains("| 2026-09-01 |"), "{report}");
        assert!(report.contains("(-50.0%)"), "{report}");
        // Same-date snapshot is the history's own last line: no dup row.
        let report = render(&history(), Some(&NEW.replace('\n', " "))).expect("render");
        assert_eq!(report.matches("| 2026-08-01 |").count(), 1);
    }

    #[test]
    fn torn_history_is_an_error_with_a_line_number() {
        let err = render("{\"date\":\"x\"}\nnot json\n", None).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(render("", None).is_err());
    }
}
