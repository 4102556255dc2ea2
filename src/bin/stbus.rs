//! `stbus` — command-line front end for the crossbar generation toolkit.
//!
//! ```text
//! stbus generate <mat1|mat2|fft|qsort|des|synthetic> [--seed N] [--out FILE]
//! stbus analyze    --trace FILE [--window N] [--threshold F]
//! stbus synthesize --trace FILE [--window N] [--threshold F] [--maxtb N]
//!                  [--solver exact|heuristic|portfolio] [--jobs N] [--json]
//! stbus simulate   --trace FILE (--shared | --full | --buses 0,0,1,...)
//! stbus suite      [--solver exact|heuristic|portfolio] [--jobs N] [--json]
//! stbus serve      [--addr HOST:PORT] [--jobs N] [--queue-depth N]
//!                  [--tenant-queue-depth N] [--cache-entries N]
//!                  [--keep-alive-requests N] [--idle-timeout-ms N]
//!                  [--journal-dir DIR] [--journal-fsync always|snapshot|never]
//!                  [--snapshot-every N]
//! stbus replay     --journal-dir DIR [--jobs N] [--diff]
//! stbus bench-report [--history FILE] [--snapshot FILE] [--out FILE]
//! ```
//!
//! Traces use the textual interchange format of
//! [`stbus::traffic::io`]; `generate` writes it, the other commands read
//! it, so the subcommands compose through files or pipes. `--json` swaps
//! the human-readable output of `synthesize` and `suite` for
//! machine-readable JSON on stdout. The `suite` command evaluates the
//! five paper benchmarks in parallel through [`stbus::core::Batch`].
//!
//! `--jobs N` caps the concurrency of the front end you invoke: for
//! `synthesize` it sizes the speculative feasibility-probe waves of
//! phase 3, for `suite` the batch's in-flight evaluations, for `serve`
//! the request workers, for `replay` the delta chains replayed at once.
//! It does not bound the layers beneath. Every layer — batch stages,
//! probe scheduler, portfolio race, annealer restarts, the two phase-3
//! crossbar directions, the phase-4 simulations — runs on one
//! process-wide work-stealing executor ([`stbus::exec`]), sized to the
//! machine's available parallelism (override with the
//! `STBUS_EXEC_WORKERS` environment variable) and grown to `--jobs` when
//! that is larger. So `--jobs 1` makes the front end's own loop
//! sequential, but a `suite` design still solves its two directions
//! concurrently and fans its simulations out at the executor's width.
//! Results are bit-identical at every setting — the flag only trades
//! wall-clock for cores.
//!
//! Phase 3 runs the paper's one exact search (the binary search over
//! bus counts with pruned feasibility probes, then MILP-2), so `--solver`
//! and `--jobs` are the only solver flags.
//!
//! `serve` starts the long-running HTTP+JSON gateway ([`stbus::gateway`])
//! and blocks until a `POST /shutdown` drains it. Example session:
//!
//! ```sh
//! stbus serve --addr 127.0.0.1:7878 --queue-depth 32 &
//! curl -s http://127.0.0.1:7878/synthesize \
//!   -d '{"suite":"mat2","seed":42,"threshold":0.15}'
//! curl -s http://127.0.0.1:7878/stats
//! curl -s -X POST http://127.0.0.1:7878/shutdown
//! ```
//!
//! Trace-mode gateway responses (`{"trace":"…"}` bodies) are
//! byte-identical to `stbus synthesize --trace … --json`, and `/suite`
//! rows to `stbus suite --json` — the CI smoke test diffs them.
//!
//! `serve --journal-dir DIR` event-sources the gateway: every request
//! appends one checksummed record, snapshots bound recovery time, and a
//! restart with the same directory restores the `/stats` counters and
//! artifact caches before accepting connections. `replay --journal-dir
//! DIR` re-derives every recorded outcome offline through the same
//! execution paths and diffs the bodies byte for byte — exit 1 on any
//! divergence, so a journal from production doubles as a regression
//! suite in CI.

use stbus::core::{Batch, DesignParams, Preprocessed, SolverKind, SynthesisOutcome};
use stbus::report::Table;
use stbus::sim::{simulate, CrossbarConfig};
use stbus::traffic::{io, workloads, Trace, WindowStats};
use std::num::NonZeroUsize;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  stbus generate <mat1|mat2|fft|qsort|des|synthetic> [--seed N] [--out FILE]
  stbus analyze    --trace FILE [--window N] [--threshold F]
  stbus synthesize --trace FILE [--window N] [--threshold F] [--maxtb N]
                   [--solver exact|heuristic|portfolio] [--jobs N] [--json]
  stbus simulate   --trace FILE (--shared | --full | --buses 0,0,1,...)
  stbus suite      [--solver exact|heuristic|portfolio] [--jobs N] [--json]
  stbus serve      [--addr HOST:PORT] [--jobs N] [--queue-depth N]
                   [--tenant-queue-depth N] [--cache-entries N]
                   [--keep-alive-requests N] [--idle-timeout-ms N]
                   [--journal-dir DIR] [--journal-fsync always|snapshot|never]
                   [--snapshot-every N]
  stbus replay     --journal-dir DIR [--jobs N] [--diff]
  stbus bench-report [--history FILE] [--snapshot FILE] [--out FILE]";

/// Parses a `--jobs` value (≥ 1).
fn parse_jobs(text: &str) -> Result<NonZeroUsize, String> {
    parse::<usize>(text, "jobs")
        .and_then(|n| NonZeroUsize::new(n).ok_or_else(|| "--jobs needs at least 1".to_string()))
}

/// Applies an explicit `--jobs` to the shared executor: a request above
/// the executor's current size grows the worker set. `--jobs 1` leaves
/// the executor as it is; the layers beneath the front end still use it
/// (see the module doc).
fn apply_jobs(jobs: Option<NonZeroUsize>) {
    if let Some(jobs) = jobs {
        if jobs.get() > 1 {
            stbus::exec::ensure_workers(jobs.get());
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut args = args.iter().map(String::as_str);
    match args.next() {
        Some("generate") => generate(&mut args),
        Some("analyze") => analyze(&mut args),
        Some("synthesize") => synthesize(&mut args),
        Some("simulate") => simulate_cmd(&mut args),
        Some("suite") => suite(&mut args),
        Some("serve") => serve(&mut args),
        Some("replay") => replay(&mut args),
        Some("bench-report") => bench_report(&mut args),
        Some(other) => Err(format!("unknown command `{other}`")),
        None => Err("no command given".into()),
    }
}

/// Pulls the value following a `--flag`.
fn value<'a>(args: &mut impl Iterator<Item = &'a str>, flag: &str) -> Result<&'a str, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse<T: std::str::FromStr>(text: &str, what: &str) -> Result<T, String> {
    text.parse::<T>()
        .map_err(|_| format!("invalid {what}: `{text}`"))
}

fn load_trace(path: Option<&str>) -> Result<Trace, String> {
    let path = path.ok_or("--trace FILE is required")?;
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    io::read_trace(file).map_err(|e| format!("parse {path}: {e}"))
}

fn generate<'a>(args: &mut impl Iterator<Item = &'a str>) -> Result<(), String> {
    let which = args.next().ok_or("generate needs a suite name")?;
    let mut seed = 0xDA7E_2005u64;
    let mut out: Option<String> = None;
    while let Some(flag) = args.next() {
        match flag {
            "--seed" => seed = parse(value(args, flag)?, "seed")?,
            "--out" => out = Some(value(args, flag)?.to_string()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let app = match which {
        "mat1" => workloads::matrix::mat1(seed),
        "mat2" => workloads::matrix::mat2(seed),
        "fft" => workloads::fft::fft(seed),
        "qsort" => workloads::qsort::qsort(seed),
        "des" => workloads::des::des(seed),
        "synthetic" => workloads::synthetic::synthetic20(seed),
        other => return Err(format!("unknown suite `{other}`")),
    };
    eprintln!("{}", app.spec);
    let text = io::trace_to_string(&app.trace);
    match out {
        Some(path) => {
            std::fs::write(&path, text).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {} events to {path}", app.trace.len());
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn analyze<'a>(args: &mut impl Iterator<Item = &'a str>) -> Result<(), String> {
    let mut trace_path = None;
    let mut window = 1_000u64;
    let mut threshold = 0.25f64;
    while let Some(flag) = args.next() {
        match flag {
            "--trace" => trace_path = Some(value(args, flag)?.to_string()),
            "--window" => window = parse(value(args, flag)?, "window size")?,
            "--threshold" => threshold = parse(value(args, flag)?, "threshold")?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let trace = load_trace(trace_path.as_deref())?;
    WindowStats::check_size(&[&trace], window).map_err(|e| e.to_string())?;
    let stats = WindowStats::analyze(&trace, window);
    println!(
        "{} events over {} cycles; {} windows of {} cycles",
        trace.len(),
        trace.horizon(),
        stats.num_windows(),
        window
    );
    println!(
        "peak window demand: {} cycles (bandwidth lower bound: {} buses)",
        stats.peak_window_demand(),
        stats.peak_window_demand().div_ceil(window)
    );
    let conflicts = stbus::traffic::ConflictGraph::from_stats(&stats, threshold);
    println!(
        "conflicts at threshold {:.0}%: {} pairs (coloring lower bound {})",
        threshold * 100.0,
        conflicts.num_conflicts(),
        conflicts.greedy_coloring_bound()
    );
    let mut table = Table::new(vec!["target", "busy cycles", "peak window", "share"]);
    for t in 0..trace.num_targets() {
        let total = stats.total_comm(t);
        let peak = (0..stats.num_windows())
            .map(|m| stats.comm(t, m))
            .max()
            .unwrap_or(0);
        table.row(vec![
            format!("T{t}"),
            format!("{total}"),
            format!("{peak}"),
            format!(
                "{:.1}%",
                100.0 * total as f64 / trace.horizon().max(1) as f64
            ),
        ]);
    }
    println!("\n{table}");

    // Fig. 2(b)-style activity timeline (per-target busy intervals).
    let mut timeline = stbus::report::Timeline::new(trace.horizon().max(1), 72);
    for t in 0..trace.num_targets() {
        let intervals: Vec<(u64, u64)> = trace
            .events_for_target(stbus::traffic::TargetId::new(t))
            .iter()
            .map(|e| (e.start, e.end()))
            .collect();
        timeline.row(format!("T{t}"), &intervals);
    }
    println!("{timeline}");
    Ok(())
}

fn synthesize<'a>(args: &mut impl Iterator<Item = &'a str>) -> Result<(), String> {
    let mut trace_path = None;
    let mut params = DesignParams::default();
    let mut solver = SolverKind::Exact;
    let mut jobs: Option<NonZeroUsize> = None;
    let mut json = false;
    while let Some(flag) = args.next() {
        match flag {
            "--trace" => trace_path = Some(value(args, flag)?.to_string()),
            "--window" => {
                params = params.with_window_size(parse(value(args, flag)?, "window size")?);
            }
            "--threshold" => {
                params = params.with_overlap_threshold(parse(value(args, flag)?, "threshold")?);
            }
            "--maxtb" => params = params.with_maxtb(parse(value(args, flag)?, "maxtb")?),
            "--solver" => solver = value(args, flag)?.parse()?,
            "--jobs" => jobs = Some(parse_jobs(value(args, flag)?)?),
            "--json" => json = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    // Default: one in-flight probe per executor worker (results are
    // bit-identical at any width, so parallel is always safe).
    apply_jobs(jobs);
    let jobs = jobs.or_else(|| NonZeroUsize::new(stbus::exec::parallelism()));
    let trace = load_trace(trace_path.as_deref())?;
    WindowStats::check_size(&[&trace], params.window_size).map_err(|e| e.to_string())?;
    let pre = Preprocessed::analyze(&trace, &params);
    let outcome = solver
        .synthesizer(jobs)
        .synthesize(&pre, &params)
        .map_err(|e| e.to_string())?;
    if json {
        println!("{}", synthesis_json(solver, &outcome));
        return Ok(());
    }
    println!("designed crossbar: {}", outcome.config);
    println!(
        "buses: {} (lower bound {}), max per-bus overlap {} cycles, engine {}",
        outcome.num_buses, outcome.lower_bound, outcome.max_bus_overlap, outcome.engine
    );
    println!(
        "assignment: {}",
        outcome
            .config
            .assignment()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",")
    );
    Ok(())
}

/// Machine-readable rendering of a [`SynthesisOutcome`] — the shared
/// renderer of [`SynthesisOutcome::to_json`], so the gateway's wire
/// format and this CLI stay byte-identical.
fn synthesis_json(solver: SolverKind, outcome: &SynthesisOutcome) -> String {
    outcome.to_json(&solver.to_string())
}

fn simulate_cmd<'a>(args: &mut impl Iterator<Item = &'a str>) -> Result<(), String> {
    let mut trace_path = None;
    let mut config_kind: Option<String> = None;
    while let Some(flag) = args.next() {
        match flag {
            "--trace" => trace_path = Some(value(args, flag)?.to_string()),
            "--shared" => config_kind = Some("shared".into()),
            "--full" => config_kind = Some("full".into()),
            "--buses" => config_kind = Some(format!("buses:{}", value(args, flag)?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let trace = load_trace(trace_path.as_deref())?;
    let n = trace.num_targets();
    let config = match config_kind.as_deref() {
        Some("shared") => CrossbarConfig::shared_bus(n),
        Some("full") => CrossbarConfig::full(n),
        Some(spec) if spec.starts_with("buses:") => {
            let list = &spec["buses:".len()..];
            let assignment: Result<Vec<usize>, String> = list
                .split(',')
                .map(|s| parse::<usize>(s.trim(), "bus index"))
                .collect();
            let assignment = assignment?;
            if assignment.len() != n {
                return Err(format!(
                    "--buses lists {} targets, trace has {n}",
                    assignment.len()
                ));
            }
            let buses = assignment.iter().max().map_or(1, |&k| k + 1);
            CrossbarConfig::from_assignment(assignment, buses).map_err(|e| e.to_string())?
        }
        _ => return Err("one of --shared, --full or --buses is required".into()),
    };
    let report = simulate(&trace, &config);
    println!("configuration: {config}");
    println!("latency: {}", report.latency());
    println!("max latency: {} cycles", report.max_latency());
    let mut table = Table::new(vec!["bus", "grants", "busy cycles", "utilization"]);
    for b in report.bus_stats() {
        table.row(vec![
            format!("{}", b.bus),
            format!("{}", b.grants),
            format!("{}", b.busy_cycles),
            format!("{:.1}%", b.utilization * 100.0),
        ]);
    }
    println!("\n{table}");
    Ok(())
}

fn suite<'a>(args: &mut impl Iterator<Item = &'a str>) -> Result<(), String> {
    let mut solver = SolverKind::Exact;
    let mut jobs: Option<NonZeroUsize> = None;
    let mut json = false;
    while let Some(flag) = args.next() {
        match flag {
            "--solver" => solver = value(args, flag)?.parse()?,
            "--jobs" => jobs = Some(parse_jobs(value(args, flag)?)?),
            "--json" => json = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let apps = workloads::paper_suite(0xDA7E_2005);
    // One batch over the whole suite: phase 1 runs once per application
    // and the five evaluations spread across the shared executor (batch
    // concurrency capped by --jobs; the batch defaults to the executor's
    // full parallelism on its own).
    apply_jobs(jobs);
    let mut batch = Batch::per_app(&apps, |app| stbus::core::paper_suite_params(app.name()))
        .with_strategy_kind(solver);
    if let Some(jobs) = jobs {
        batch = batch.threads(jobs.get());
    }
    let results = batch.run();

    let mut table = Table::new(vec!["Application", "Full buses", "Designed", "Saving"]);
    let mut rows = Vec::new();
    for point in results {
        let report = point
            .result
            .map_err(|e| e.to_string())?
            .into_report()
            .expect("paper baseline set");
        rows.push(report.paper_row_json(&solver.to_string()));
        table.row(vec![
            report.app_name.clone(),
            format!("{}", report.full.total_buses()),
            format!("{}", report.designed.total_buses()),
            format!("{:.2}x", report.component_saving()),
        ]);
    }
    if json {
        println!("{}", stbus::core::paper_rows_json(&rows));
    } else {
        println!("{table}");
    }
    Ok(())
}

fn serve<'a>(args: &mut impl Iterator<Item = &'a str>) -> Result<(), String> {
    let mut config = stbus::gateway::GatewayConfig::default();
    while let Some(flag) = args.next() {
        match flag {
            "--addr" => config.addr = value(args, flag)?.to_string(),
            "--jobs" => {
                // Workers execute requests; the solver layers underneath
                // share the process-wide executor, grown to match.
                let jobs = parse_jobs(value(args, flag)?)?;
                apply_jobs(Some(jobs));
                config.workers = jobs.get();
            }
            "--queue-depth" => {
                config.queue_depth = parse(value(args, flag)?, "queue depth")?;
                if config.queue_depth == 0 {
                    return Err("--queue-depth needs at least 1".into());
                }
            }
            "--tenant-queue-depth" => {
                let depth: usize = parse(value(args, flag)?, "tenant queue depth")?;
                if depth == 0 {
                    return Err("--tenant-queue-depth needs at least 1".into());
                }
                config.tenant_queue_depth = Some(depth);
            }
            "--cache-entries" => {
                config.cache_entries = parse(value(args, flag)?, "cache entries")?;
                if config.cache_entries == 0 {
                    return Err("--cache-entries needs at least 1".into());
                }
            }
            "--keep-alive-requests" => {
                config.keep_alive_requests = parse(value(args, flag)?, "keep-alive requests")?;
                if config.keep_alive_requests == 0 {
                    return Err("--keep-alive-requests needs at least 1".into());
                }
            }
            "--idle-timeout-ms" => {
                config.idle_timeout_ms = parse(value(args, flag)?, "idle timeout")?;
                if config.idle_timeout_ms == 0 {
                    return Err("--idle-timeout-ms needs at least 1".into());
                }
            }
            "--journal-dir" => {
                config.journal_dir = Some(std::path::PathBuf::from(value(args, flag)?));
            }
            "--journal-fsync" => {
                let spelling = value(args, flag)?;
                config.journal_fsync =
                    stbus::journal::FsyncPolicy::parse(spelling).ok_or_else(|| {
                        format!("invalid fsync policy `{spelling}` (always|snapshot|never)")
                    })?;
            }
            "--snapshot-every" => {
                config.journal_snapshot_every = parse(value(args, flag)?, "snapshot cadence")?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    stbus::gateway::Gateway::serve(&config).map_err(|e| format!("serve: {e}"))
}

/// `stbus replay` — re-derive every outcome a gateway journal recorded
/// and diff the response bodies byte for byte. Synthesis is
/// deterministic at any worker count, so any divergence means the code
/// changed behaviour since the journal was written; the process exits 1
/// so CI can gate on it. `--jobs N` additionally replays independent
/// delta chains concurrently (grouped by parent artifact) — the report
/// is byte-identical to a sequential run.
fn replay<'a>(args: &mut impl Iterator<Item = &'a str>) -> Result<(), String> {
    let mut journal_dir: Option<String> = None;
    let mut jobs: Option<NonZeroUsize> = None;
    let mut show_diff = false;
    while let Some(flag) = args.next() {
        match flag {
            "--journal-dir" => journal_dir = Some(value(args, flag)?.to_string()),
            "--jobs" => jobs = Some(parse_jobs(value(args, flag)?)?),
            "--diff" => show_diff = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let dir = journal_dir.ok_or("--journal-dir DIR is required")?;
    apply_jobs(jobs);
    let read = stbus::journal::read_journal(std::path::Path::new(&dir))
        .map_err(|e| format!("read {dir}: {e}"))?;
    if read.torn {
        eprintln!(
            "note: journal has a torn tail ({} valid bytes); replaying the intact prefix",
            read.valid_len
        );
    }
    if read.undecodable > 0 {
        eprintln!(
            "note: {} checksum-valid record(s) failed to decode and are ignored",
            read.undecodable
        );
    }
    let report = stbus::gateway::replay::replay_journal(&read.records, jobs);
    for (seq, verdict) in &report.results {
        match verdict {
            stbus::journal::ReplayResult::Matched => println!("seq {seq}: matched"),
            stbus::journal::ReplayResult::Differs(diff) => {
                println!("seq {seq}: DIFFERS");
                if show_diff {
                    println!("  expected: {}", diff.expected);
                    println!("  actual:   {}", diff.actual);
                }
            }
            stbus::journal::ReplayResult::Skipped(reason) => {
                println!("seq {seq}: skipped ({reason})");
            }
            stbus::journal::ReplayResult::Failed(err) => println!("seq {seq}: FAILED ({err})"),
        }
    }
    println!("{report}");
    if !report.is_clean() {
        // A real exit code (not an `Err` string) — the summary line just
        // printed is the diagnostic; USAGE would only bury it.
        std::process::exit(1);
    }
    Ok(())
}

/// `stbus bench-report` — render `BENCH_history.jsonl` (one dated JSON
/// snapshot per nightly perf run) plus the current `BENCH_phase3.json`
/// into the markdown trajectory table the perf PR body embeds: one row
/// per snapshot, each headline metric annotated with its delta against
/// the previous run.
fn bench_report<'a>(args: &mut impl Iterator<Item = &'a str>) -> Result<(), String> {
    let mut history = "BENCH_history.jsonl".to_string();
    let mut snapshot: Option<String> = Some("BENCH_phase3.json".to_string());
    let mut out: Option<String> = None;
    while let Some(flag) = args.next() {
        match flag {
            "--history" => history = value(args, flag)?.to_string(),
            "--snapshot" => snapshot = Some(value(args, flag)?.to_string()),
            "--out" => out = Some(value(args, flag)?.to_string()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let history_text = std::fs::read_to_string(&history).map_err(|e| format!("{history}: {e}"))?;
    // The snapshot is optional on disk (a fresh clone may only carry the
    // history); explicit `--snapshot` paths must exist.
    let snapshot_text = match &snapshot {
        Some(path) if path == "BENCH_phase3.json" => std::fs::read_to_string(path).ok(),
        Some(path) => Some(std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?),
        None => None,
    };
    let report = stbus::bench_report::render(&history_text, snapshot_text.as_deref())?;
    match out {
        Some(path) => std::fs::write(&path, &report).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{report}"),
    }
    Ok(())
}

// `parse` and `value` are exercised through the commands; a couple of
// direct unit tests keep the parsing helpers honest.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_helpers() {
        assert_eq!(parse::<u64>("42", "x").unwrap(), 42);
        assert!(parse::<u64>("nope", "x").is_err());
        let mut it = ["7"].into_iter();
        assert_eq!(value(&mut it, "--n").unwrap(), "7");
        assert!(value(&mut it, "--n").is_err());
    }

    #[test]
    fn jobs_must_be_positive() {
        assert_eq!(parse_jobs("3").unwrap().get(), 3);
        assert!(parse_jobs("0").is_err());
        assert!(parse_jobs("-1").is_err());
        assert!(parse_jobs("many").is_err());
    }

    #[test]
    fn unknown_command_rejected() {
        assert!(run(&["frobnicate".to_string()]).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn generate_requires_known_suite() {
        let args = vec!["generate".to_string(), "nope".to_string()];
        assert!(run(&args).is_err());
    }

    #[test]
    fn simulate_needs_architecture() {
        // Missing --shared/--full/--buses fails before touching the fs.
        let args = vec!["simulate".to_string()];
        assert!(run(&args).is_err());
    }
}
