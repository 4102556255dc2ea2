//! The stbus benchmark: one command, three workloads, end-to-end metrics
//! untraced and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper_suite|soc_frontier|gateway_mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Readable lines (`# …` and `metric <name> <value> <unit> n=<samples>`)
//! come first; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Any failed output check
//! makes the command exit 1. See `METHODOLOGY.md` beside this crate.

mod design;
mod gateway;
mod report;
mod trace;

use report::Outcome;
use std::process::ExitCode;
use std::time::Duration;

/// Scratch directory (journals, span files) under the working directory.
pub const RUN_DIR: &str = ".bench_run";

/// The workload seed when `--seed` is absent (the CLI's suite seed).
const DEFAULT_SEED: u64 = 0xDA7E_2005;

const WORKLOADS: [&str; 3] = ["paper_suite", "soc_frontier", "gateway_mixed"];

/// Parsed command line.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Smallest inputs (one suite seed, a 12-target SoC): the smoke test.
    pub tiny: bool,
    /// Host parallelism: Batch width, gateway workers and clients.
    pub nproc: usize,
}

/// SplitMix64: the benchmark's own deterministic generator.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is negligible here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30;
    let mut trace = false;
    let mut tiny = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = parse_u64(value()?).ok_or("--seed takes an integer")?,
            "--seconds" => seconds = parse_u64(value()?).ok_or("--seconds takes an integer")?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` ({})",
            WORKLOADS.join("|")
        ));
    }
    Ok(Config {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        tiny,
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    })
}

/// The commit under test: `git rev-parse` where the tree is a checkout,
/// otherwise `unknown`.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: stbus-benchmark --workload {} [--seed N] \
                 [--seconds S] [--trace 0|1] [--tiny]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "# workload={} seed={} seconds={} trace={} host_parallelism={} kernel_tier={} \
         commit={} profile={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds.as_secs(),
        u8::from(cfg.trace),
        cfg.nproc,
        stbus_traffic::kernels::active_tier(),
        commit(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    if cfg.nproc == 1 {
        println!(
            "# warning: single_core_host — Batch, gateway workers and clients share one core; \
             no figure here measures parallel speed-up"
        );
    }
    let outcome: Outcome = match cfg.workload.as_str() {
        "paper_suite" => design::paper_suite(&cfg),
        "soc_frontier" => design::soc_frontier(&cfg),
        _ => gateway::gateway_mixed(&cfg),
    };
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    for (name, value, unit, n) in &outcome.details {
        println!("metric {name} {value} {unit} n={n}");
    }
    println!(
        "metric failed_share {failed_share} ratio n={}",
        outcome.attempted
    );
    if cfg.trace {
        for (name, unit) in report::PER_LAYER {
            let value = outcome.layers.get(name).copied().unwrap_or(0.0);
            println!("layer {name} {value} {unit}");
        }
    }
    for failure in outcome.failures.iter().take(20) {
        eprintln!("check failed: {failure}");
    }
    println!("{}", outcome.result_line(cfg.trace));
    if outcome.failed == 0 && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
