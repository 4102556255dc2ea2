//! Replay equivalence: `stbus replay` must re-derive a journaled history
//! bit for bit, at any worker count, and report (never panic on) records
//! whose behaviour the code no longer reproduces.
//!
//! Three contracts:
//!
//! * **Corpus fidelity** — a history recorded by a live gateway
//!   (synthesize, chained delta, sweep, suite, a trace-mode request and
//!   an artifact miss) replays clean through [`ReplayEngine`], with the
//!   unreplayable records skipped and the rest matched, at `jobs ∈ {1,
//!   4}` — the executor width is result-invariant by the determinism
//!   contract, so the reports must agree exactly.
//! * **Divergence is a report, not a crash** — a record whose outcome
//!   the current code would not produce (an injected "solver change")
//!   becomes a `Differs` verdict carrying both bodies; a corrupt spec
//!   becomes `Failed`; a delta whose parent is absent becomes
//!   `Skipped`.
//! * **Engine determinism under proptest** — for random paper-suite
//!   requests, an engine at `jobs = 1` and an engine at `jobs = 4`
//!   produce byte-identical bodies, so a journal written at any width
//!   replays clean at any other.

use proptest::prelude::*;
use stbus::gateway::json::{self, Value};
use stbus::gateway::replay::ReplayEngine;
use stbus::gateway::{Gateway, GatewayConfig};
use stbus::journal::{
    read_journal, replay_records, Record, RecordKind, RecordStatus, ReplayResult,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::time::Duration;

/// Reduced proptest scope under `opt-level = 0`; CI's release run does
/// the full sweep.
#[cfg(debug_assertions)]
const PROPTEST_CASES: u32 = 4;
#[cfg(not(debug_assertions))]
const PROPTEST_CASES: u32 = 16;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "stbus-replay-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn http_post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: gw\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
    stream
        .set_read_timeout(Some(Duration::from_secs(600)))
        .expect("timeout");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("UTF-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("response head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, body.to_string())
}

/// Records a short mixed history through a journaling gateway and
/// returns the journal's records.
fn record_history(dir: &std::path::Path) -> Vec<Record> {
    let gateway = Gateway::spawn(&GatewayConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        log_requests: false,
        journal_dir: Some(dir.to_path_buf()),
        ..GatewayConfig::default()
    })
    .expect("spawn gateway");
    let addr = gateway.addr();

    let (status, body) = http_post(
        addr,
        "/synthesize",
        r#"{"suite":"mat2","seed":42,"threshold":0.15}"#,
    );
    assert_eq!(status, 200, "body: {body}");
    let artifact = json::parse(body.trim())
        .expect("response JSON")
        .get("artifact")
        .and_then(Value::as_str)
        .expect("artifact address")
        .to_string();
    let (status, body) = http_post(
        addr,
        "/synthesize",
        &format!(
            "{{\"artifact\":\"{artifact}\",\"delta\":{{\"edits\":[{{\"target\":1,\
             \"events\":[[0,10,5],[1,40,4,true]]}}],\"threshold\":0.2}}}}"
        ),
    );
    assert_eq!(status, 200, "body: {body}");
    let (status, body) = http_post(
        addr,
        "/sweep",
        r#"{"suite":"mat1","seed":7,"thresholds":[0.1,0.3]}"#,
    );
    assert_eq!(status, 200, "body: {body}");
    let (status, body) = http_post(addr, "/suite", r#"{"solver":"heuristic"}"#);
    assert_eq!(status, 200, "body: {body}");
    // A trace-mode request journals only a digest (skipped on replay)…
    let (status, body) = http_post(
        addr,
        "/synthesize",
        r##"{"trace":"# stbus-trace v1\ninitiators=1 targets=2\ninitiator,target,start,duration,critical\n0,0,0,10,0\n0,1,5,10,0\n","threshold":0.25}"##,
    );
    assert_eq!(status, 200, "body: {body}");
    // …and an unknown artifact records a miss (never replayed).
    let (status, _) = http_post(addr, "/synthesize", r#"{"artifact":"00000000deadbeef"}"#);
    assert_eq!(status, 404);

    gateway.shutdown();
    gateway.join();
    read_journal(dir).expect("read journal").records
}

#[test]
fn recorded_history_replays_clean_at_one_and_four_jobs() {
    let dir = scratch_dir("clean");
    let records = record_history(&dir);
    assert_eq!(records.len(), 6, "records: {records:?}");

    let mut summaries = Vec::new();
    for jobs in [1usize, 4] {
        let mut engine = ReplayEngine::new(NonZeroUsize::new(jobs));
        let report = replay_records(&records, |r| engine.execute(r));
        assert!(
            report.is_clean(),
            "jobs={jobs} must replay clean: {report} — {:?}",
            report.results
        );
        assert_eq!(
            report.matched, 4,
            "synthesize + delta + sweep + suite re-derived"
        );
        assert_eq!(report.skipped, 2, "trace digest + artifact miss skipped");
        summaries.push(
            report
                .results
                .iter()
                .map(|(seq, verdict)| (*seq, format!("{verdict:?}")))
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(
        summaries[0], summaries[1],
        "verdicts must not depend on worker count"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chain_parallel_replay_matches_sequential() {
    let dir = scratch_dir("chains");
    let records = record_history(&dir);
    // The history holds three independent chains (synthesize→delta,
    // sweep, suite) plus two unreplayable records; `replay_journal` at
    // jobs=4 replays the chains concurrently on private engines and must
    // merge back to the sequential report, verdict for verdict.
    let sequential = stbus::gateway::replay::replay_journal(&records, None);
    let parallel = stbus::gateway::replay::replay_journal(&records, NonZeroUsize::new(4));
    assert!(
        sequential.is_clean(),
        "sequential replay must be clean: {sequential} — {:?}",
        sequential.results
    );
    let render = |report: &stbus::journal::ReplayReport| {
        report
            .results
            .iter()
            .map(|(seq, verdict)| (*seq, format!("{verdict:?}")))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        render(&sequential),
        render(&parallel),
        "chain-parallel replay must match the sequential report"
    );
    assert_eq!(sequential.matched, parallel.matched);
    assert_eq!(sequential.skipped, parallel.skipped);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_solver_change_reports_diffs_without_panicking() {
    let dir = scratch_dir("diff");
    let mut records = record_history(&dir);

    // Simulate a behaviour change since recording: the journal claims an
    // outcome the current code will not produce.
    let victim = records
        .iter_mut()
        .find(|r| {
            r.kind == RecordKind::Synthesize
                && r.status == RecordStatus::Ok
                && !r.spec.starts_with("trace:")
        })
        .expect("a replayable synthesize record");
    let expected_seq = victim.seq;
    victim.outcome = victim.outcome.replace("\"num_buses\":", "\"num_buses\":9");

    // And a record whose spec the wire parser now rejects entirely.
    records.push(Record {
        seq: 999,
        kind: RecordKind::Synthesize,
        status: RecordStatus::Ok,
        tenant: "t".to_string(),
        spec: "{\"suite\":\"no-such-workload\"}".to_string(),
        outcome: "whatever".to_string(),
    });

    let mut engine = ReplayEngine::new(NonZeroUsize::new(1));
    let report = replay_records(&records, |r| engine.execute(r));
    assert!(!report.is_clean());
    assert_eq!(report.diffs, 1, "results: {:?}", report.results);
    assert_eq!(report.failed, 1, "results: {:?}", report.results);
    let diff = report
        .results
        .iter()
        .find_map(|(seq, verdict)| match verdict {
            ReplayResult::Differs(diff) if *seq == expected_seq => Some(diff),
            _ => None,
        })
        .expect("the tampered record must carry a diff");
    assert!(diff.expected.contains("\"num_buses\":9"));
    assert!(!diff.actual.contains("\"num_buses\":9"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delta_without_parent_is_skipped_not_failed() {
    let records = vec![Record {
        seq: 1,
        kind: RecordKind::Delta,
        status: RecordStatus::Ok,
        tenant: "t".to_string(),
        spec: "{\"artifact\":\"feedfacecafebeef\",\"delta\":{\"threshold\":0.3}}".to_string(),
        outcome: "{}".to_string(),
    }];
    let mut engine = ReplayEngine::new(NonZeroUsize::new(1));
    let report = replay_records(&records, |r| engine.execute(r));
    assert!(report.is_clean(), "a skip is not a failure");
    assert_eq!(report.skipped, 1, "results: {:?}", report.results);
}

/// Replays one synthetically journaled request through a second engine
/// at a different width and asserts the bodies agree byte for byte.
fn assert_width_invariant(spec: &str) {
    let mut narrow = ReplayEngine::new(NonZeroUsize::new(1));
    let record = |outcome: String| Record {
        seq: 1,
        kind: RecordKind::Synthesize,
        status: RecordStatus::Ok,
        tenant: "t".to_string(),
        spec: spec.to_string(),
        outcome,
    };
    let body = narrow
        .execute(&record(String::new()))
        .expect("narrow replay")
        .expect("workload specs always replay");
    let mut wide = ReplayEngine::new(NonZeroUsize::new(4));
    let report = replay_records(&[record(body)], |r| wide.execute(r));
    assert!(
        report.is_clean() && report.matched == 1,
        "spec {spec} diverges across widths: {:?}",
        report.results
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(PROPTEST_CASES))]

    /// Paper-suite fixtures under random seeds and thresholds: the
    /// replay engine is width-invariant, so a journal recorded at any
    /// `jobs` replays clean at any other.
    #[test]
    fn replayed_bodies_are_width_invariant(
        suite_idx in 0usize..2,
        seed in 0u64..1_000,
        theta_idx in 0usize..3,
    ) {
        let suite = ["mat1", "mat2"][suite_idx];
        let threshold = [0.15, 0.25, 0.40][theta_idx];
        assert_width_invariant(&format!(
            "{{\"suite\":\"{suite}\",\"seed\":{seed},\"threshold\":{threshold}}}"
        ));
    }
}
