//! Error paths of the `stbus` binary: refused inputs exit 1 with the
//! usage block on stderr instead of running (or aborting).

use std::path::PathBuf;
use std::process::{Command, Output};

/// Writes `text` as a trace file private to this test process.
fn trace_file(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("stbus-cli-{}-{name}.tr", std::process::id()));
    std::fs::write(&path, text).expect("write trace");
    path
}

fn stbus(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_stbus"))
        .args(args)
        .output()
        .expect("run stbus")
}

fn assert_refused(output: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
    assert!(output.stdout.is_empty(), "a refused run prints no design");
}

#[test]
fn removed_solver_flags_exit_with_usage() {
    let trace = trace_file("small", "initiators=1 targets=2\n0,0,0,8,0\n0,1,4,8,0\n");
    let trace = trace.to_str().expect("utf-8 path");
    for (flag, value) in [("--search", "standard"), ("--pruning", "off")] {
        let output = stbus(&["synthesize", "--trace", trace, flag, value]);
        assert_refused(&output, "unknown flag");
        assert_refused(&stbus(&["suite", flag, value]), "unknown flag");
    }
    // The old `--heuristic` alias of `--solver heuristic`.
    let output = stbus(&["synthesize", "--trace", trace, "--heuristic"]);
    assert_refused(&output, "unknown flag");
    // `synthesize` solves one direction on the calling thread; `--jobs`
    // stays on `suite`, `serve` and `replay` only.
    let output = stbus(&["synthesize", "--trace", trace, "--jobs", "2"]);
    assert_refused(&output, "unknown flag");
    let _ = std::fs::remove_file(trace);
}

#[test]
fn oversized_window_analysis_exits_with_usage() {
    // Two events four billion windows apart.
    let trace = trace_file(
        "far",
        "initiators=1 targets=2\n0,0,0,8,0\n0,1,4000000000000,8,0\n",
    );
    let output = stbus(&["synthesize", "--trace", trace.to_str().expect("utf-8 path")]);
    let _ = std::fs::remove_file(&trace);
    assert_refused(&output, "over the cap");
}
