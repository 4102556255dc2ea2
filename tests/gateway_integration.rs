//! End-to-end gateway tests over real TCP sockets.
//!
//! The four acceptance properties of the service, each against a live
//! [`Gateway`] bound to an ephemeral port:
//!
//! 1. **Bit-identity** — gateway responses carry exactly the designs the
//!    direct `Pipeline`/`Preprocessed` API produces (trace mode is
//!    byte-identical to the CLI's `--json` renderer by construction —
//!    both call `SynthesisOutcome::to_json`).
//! 2. **Single-flight** — N concurrent identical workload requests pay
//!    for one phase-1 collection; `/stats` proves it
//!    (`misses == 1`, `hits + misses + inflight_waits == lookups`).
//! 3. **Admission** — with one worker and a depth-1 queue, the third
//!    concurrent request is refused `429` with `Retry-After`.
//! 4. **Graceful drain** — `/shutdown` mid-stream lets the in-flight
//!    sweep finish completely, then the server drains and refuses new
//!    connections.

use stbus::core::{DesignParams, Exact, Pipeline, Preprocessed, SolverKind, Synthesizer};
use stbus::gateway::json::{self, Value};
use stbus::gateway::{Gateway, GatewayConfig};
use stbus::traffic::workloads;
use stbus::traffic::{InitiatorId, TargetEdit, TargetId, TraceEvent, WorkloadDelta};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Sends one request and returns `(status line, headers, body)`. The
/// body has chunked framing stripped when the response streams.
fn http_post(addr: SocketAddr, path: &str, body: &str, tenant: Option<&str>) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_request(&mut stream, "POST", path, body, tenant);
    read_response(&mut stream)
}

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_request(&mut stream, "GET", path, "", None);
    read_response(&mut stream)
}

/// Writes a `Connection: close` request: the server answers exactly once
/// and closes, so [`read_response`] can read to EOF.
fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
    tenant: Option<&str>,
) {
    let tenant_header = tenant.map_or(String::new(), |t| format!("X-Tenant: {t}\r\n"));
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: gw\r\n{tenant_header}Connection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
}

/// Writes a keep-alive request (no `Connection: close`): the server
/// keeps the connection open for the next request.
fn write_keepalive_request(stream: &mut TcpStream, method: &str, path: &str, body: &str) {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: gw\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
}

/// Reads exactly one response off a persistent connection, returning
/// `(status, head, body)` without waiting for EOF. The body is framed by
/// `Content-Length`, or de-chunked when the response streams.
fn read_one_response(stream: &mut TcpStream) -> (u16, String, String) {
    stream
        .set_read_timeout(Some(Duration::from_secs(600)))
        .expect("timeout");
    let mut raw = Vec::new();
    let fill = |stream: &mut TcpStream, raw: &mut Vec<u8>| {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "EOF before the response ended");
        raw.extend_from_slice(&chunk[..n]);
    };
    let head_end = loop {
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        fill(stream, &mut raw);
    };
    let head = String::from_utf8(raw[..head_end].to_vec()).expect("UTF-8 head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut pos = head_end + 4;
    let body = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        let mut body = Vec::new();
        loop {
            let line_end = loop {
                if let Some(at) = raw[pos..].windows(2).position(|w| w == b"\r\n") {
                    break pos + at;
                }
                fill(stream, &mut raw);
            };
            let size = std::str::from_utf8(&raw[pos..line_end])
                .ok()
                .and_then(|hex| usize::from_str_radix(hex, 16).ok())
                .expect("chunk size line");
            pos = line_end + 2;
            while raw.len() < pos + size + 2 {
                fill(stream, &mut raw);
            }
            body.extend_from_slice(&raw[pos..pos + size]);
            pos += size + 2;
            if size == 0 {
                break body;
            }
        }
    } else {
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .map(|v| v.trim().parse().expect("length"))
            })
            .expect("Content-Length header");
        while raw.len() < pos + content_length {
            fill(stream, &mut raw);
        }
        raw[pos..pos + content_length].to_vec()
    };
    let body = String::from_utf8(body).expect("UTF-8 body");
    (status, head, body)
}

/// Reads to EOF and de-frames (the gateway always closes after one
/// response, so EOF terminates both fixed and chunked bodies).
fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let mut raw = Vec::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(600)))
        .expect("timeout");
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("UTF-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("response head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        dechunk(body)
    } else {
        body.to_string()
    };
    (status, body)
}

fn dechunk(framed: &str) -> String {
    let mut out = String::new();
    let mut rest = framed;
    loop {
        let Some((size_line, after)) = rest.split_once("\r\n") else {
            return out; // truncated stream (cancelled mid-flight)
        };
        let Ok(size) = usize::from_str_radix(size_line.trim(), 16) else {
            return out;
        };
        if size == 0 {
            return out;
        }
        out.push_str(&after[..size]);
        rest = &after[size..];
        rest = rest.strip_prefix("\r\n").unwrap_or(rest);
    }
}

fn test_config(workers: usize, queue_depth: usize) -> GatewayConfig {
    GatewayConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_depth,
        cache_entries: 16,
        log_requests: false,
        ..GatewayConfig::default()
    }
}

fn spawn_gateway(workers: usize, queue_depth: usize) -> Gateway {
    Gateway::spawn(&test_config(workers, queue_depth)).expect("spawn gateway")
}

fn outcome_field<'a>(outcome: &'a Value, key: &str) -> &'a Value {
    outcome.get(key).unwrap_or_else(|| panic!("field `{key}`"))
}

fn assert_outcome_matches(wire: &Value, direct: &stbus::core::SynthesisOutcome) {
    assert_eq!(
        outcome_field(wire, "num_buses").as_u64(),
        Some(direct.num_buses as u64)
    );
    assert_eq!(
        outcome_field(wire, "lower_bound").as_u64(),
        Some(direct.lower_bound as u64)
    );
    let assignment: Vec<u64> = outcome_field(wire, "assignment")
        .as_array()
        .expect("assignment array")
        .iter()
        .map(|v| v.as_u64().expect("bus index"))
        .collect();
    let expected: Vec<u64> = direct
        .config
        .assignment()
        .iter()
        .map(|&b| b as u64)
        .collect();
    assert_eq!(assignment, expected, "binding must be bit-identical");
    let probes: Vec<(u64, bool)> = outcome_field(wire, "probes")
        .as_array()
        .expect("probe array")
        .iter()
        .map(|p| {
            let pair = p.as_array().expect("probe pair");
            (
                pair[0].as_u64().expect("bus count"),
                pair[1].as_bool().expect("feasible"),
            )
        })
        .collect();
    let expected: Vec<(u64, bool)> = direct
        .probes
        .iter()
        .map(|&(buses, feasible)| (buses as u64, feasible))
        .collect();
    assert_eq!(probes, expected, "probe log must be bit-identical");
}

#[test]
fn workload_and_trace_responses_are_bit_identical_to_the_pipeline() {
    let gateway = spawn_gateway(2, 8);
    let addr = gateway.addr();

    // Direct reference: the staged pipeline on the same spec.
    let app = workloads::matrix::mat2(42);
    let params = DesignParams::default().with_overlap_threshold(0.15);
    let collected = Pipeline::collect(&app, &params);
    let analyzed = collected.analyze(&params);
    let strategy = SolverKind::Exact.synthesizer();
    let direct = analyzed.synthesize(&*strategy).expect("direct synthesis");

    // Workload mode: both directions.
    let (status, body) = http_post(
        addr,
        "/synthesize",
        r#"{"suite":"mat2","seed":42,"threshold":0.15}"#,
        None,
    );
    assert_eq!(status, 200, "body: {body}");
    let wire = json::parse(body.trim()).expect("JSON response");
    assert_eq!(wire.get("app").and_then(Value::as_str), Some("Mat2"));
    assert_outcome_matches(outcome_field(&wire, "it"), &direct.it);
    assert_outcome_matches(outcome_field(&wire, "ti"), &direct.ti);

    // Trace mode: byte-identical to the CLI's `--json` line for the
    // request-path direction of the same traffic.
    let trace_text = stbus::traffic::io::trace_to_string(&collected.traffic().it_trace);
    let escaped = trace_text.replace('\\', "\\\\").replace('\n', "\\n");
    let (status, body) = http_post(
        addr,
        "/synthesize",
        &format!("{{\"trace\":\"{escaped}\",\"threshold\":0.15}}"),
        None,
    );
    assert_eq!(status, 200, "body: {body}");
    let pre = stbus::core::Preprocessed::analyze(&collected.traffic().it_trace, &params);
    let cli_line = strategy
        .synthesize(&pre, &params)
        .expect("direct synthesis")
        .to_json("exact");
    assert_eq!(body, format!("{cli_line}\n"), "CLI wire format must match");

    gateway.shutdown();
    gateway.join();
}

#[test]
fn concurrent_identical_requests_are_single_flight() {
    let gateway = spawn_gateway(4, 16);
    let addr = gateway.addr();
    let request = r#"{"suite":"qsort","seed":7}"#;

    let handles: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(move || http_post(addr, "/synthesize", request, None)))
        .collect();
    let mut bodies = Vec::new();
    for handle in handles {
        let (status, body) = handle.join().expect("request thread");
        assert_eq!(status, 200, "body: {body}");
        bodies.push(body);
    }
    assert!(
        bodies.iter().all(|b| *b == bodies[0]),
        "identical requests must produce identical responses"
    );

    let (status, stats) = http_get(addr, "/stats");
    assert_eq!(status, 200);
    let stats = json::parse(stats.trim()).expect("stats JSON");
    let collect = stats.get("collect_cache").expect("collect cache stats");
    let misses = outcome_field(collect, "misses").as_u64().unwrap();
    let hits = outcome_field(collect, "hits").as_u64().unwrap();
    let waits = outcome_field(collect, "inflight_waits").as_u64().unwrap();
    assert_eq!(misses, 1, "exactly one request may pay for collection");
    assert_eq!(
        hits + misses + waits,
        4,
        "every lookup classified exactly once"
    );
    assert_eq!(
        stats
            .get("requests")
            .and_then(|r| r.get("served"))
            .and_then(Value::as_u64),
        Some(4)
    );

    gateway.shutdown();
    gateway.join();
}

/// Like [`assert_outcome_matches`] but without the assignment equality:
/// warm-started solves contractually match verdict, probe log and bus
/// count, while the binding itself may legitimately differ.
fn assert_verdict_matches(wire: &Value, direct: &stbus::core::SynthesisOutcome) {
    assert_eq!(
        outcome_field(wire, "num_buses").as_u64(),
        Some(direct.num_buses as u64)
    );
    assert_eq!(
        outcome_field(wire, "lower_bound").as_u64(),
        Some(direct.lower_bound as u64)
    );
    assert_eq!(
        outcome_field(wire, "max_bus_overlap").as_u64(),
        Some(direct.max_bus_overlap)
    );
    let probes: Vec<(u64, bool)> = outcome_field(wire, "probes")
        .as_array()
        .expect("probe array")
        .iter()
        .map(|p| {
            let pair = p.as_array().expect("probe pair");
            (
                pair[0].as_u64().expect("bus count"),
                pair[1].as_bool().expect("feasible"),
            )
        })
        .collect();
    let expected: Vec<(u64, bool)> = direct
        .probes
        .iter()
        .map(|&(buses, feasible)| (buses as u64, feasible))
        .collect();
    assert_eq!(probes, expected, "probe log must match the cold search");
}

#[test]
fn keep_alive_connections_serve_multiple_requests_with_request_ids() {
    let gateway = spawn_gateway(2, 8);
    let addr = gateway.addr();

    // Three requests over ONE connection; each response is framed by
    // Content-Length and stamped with a distinct X-Request-Id.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut ids = Vec::new();
    for _ in 0..2 {
        write_keepalive_request(&mut stream, "GET", "/stats", "");
        let (status, head, _) = read_one_response(&mut stream);
        assert_eq!(status, 200);
        assert!(
            head.to_ascii_lowercase().contains("connection: keep-alive"),
            "head: {head}"
        );
        ids.push(request_id(&head));
    }
    write_keepalive_request(
        &mut stream,
        "POST",
        "/synthesize",
        r#"{"suite":"mat2","seed":42,"threshold":0.15}"#,
    );
    let (status, head, body) = read_one_response(&mut stream);
    assert_eq!(status, 200, "body: {body}");
    ids.push(request_id(&head));
    assert!(
        json::parse(body.trim()).is_ok(),
        "work response over a reused connection: {body}"
    );
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 3, "every request gets its own id");

    gateway.shutdown();
    gateway.join();
}

fn request_id(head: &str) -> u64 {
    head.lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("x-request-id:")
                .map(str::to_string)
        })
        .expect("X-Request-Id header")
        .trim()
        .parse()
        .expect("numeric request id")
}

#[test]
fn keep_alive_request_cap_closes_the_connection() {
    let mut config = test_config(1, 4);
    config.keep_alive_requests = 2;
    let gateway = Gateway::spawn(&config).expect("spawn gateway");
    let addr = gateway.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    write_keepalive_request(&mut stream, "GET", "/stats", "");
    let (status, head, _) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    assert!(head.to_ascii_lowercase().contains("connection: keep-alive"));

    // Second request hits the cap: served, but with Connection: close…
    write_keepalive_request(&mut stream, "GET", "/stats", "");
    let (status, head, _) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    assert!(
        head.to_ascii_lowercase().contains("connection: close"),
        "capped response must announce the close: {head}"
    );

    // …and the connection is gone: the next read sees EOF.
    write_keepalive_request(&mut stream, "GET", "/stats", "");
    let mut rest = Vec::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    assert!(
        matches!(stream.read_to_end(&mut rest), Ok(0) | Err(_)),
        "connection must close after the request cap"
    );

    gateway.shutdown();
    gateway.join();
}

#[test]
fn delta_requests_reuse_artifacts_and_match_from_scratch() {
    let gateway = spawn_gateway(2, 8);
    let addr = gateway.addr();

    // 1. A fresh workload request earns an artifact address.
    let (status, body) = http_post(
        addr,
        "/synthesize",
        r#"{"suite":"mat2","seed":42,"threshold":0.15}"#,
        Some("acme"),
    );
    assert_eq!(status, 200, "body: {body}");
    let wire = json::parse(body.trim()).expect("JSON response");
    let artifact = wire
        .get("artifact")
        .and_then(Value::as_str)
        .expect("workload responses carry an artifact address")
        .to_string();

    // 2. An unknown address answers 404 (client falls back to scratch).
    let (status, body) = http_post(
        addr,
        "/synthesize",
        r#"{"artifact":"00000000deadbeef"}"#,
        Some("acme"),
    );
    assert_eq!(status, 404, "body: {body}");

    // 3. A delta against the real artifact: re-capture target 1's trace.
    let events = [(0usize, 10u64, 5u32, false), (1, 40, 4, true)];
    let delta_body = format!(
        "{{\"artifact\":\"{artifact}\",\"delta\":{{\"edits\":[{{\"target\":1,\
         \"events\":[[0,10,5],[1,40,4,true]]}}]}}}}"
    );
    let (status, body) = http_post(addr, "/synthesize", &delta_body, Some("acme"));
    assert_eq!(status, 200, "body: {body}");
    let warm = json::parse(body.trim()).expect("JSON response");
    let chained = warm
        .get("artifact")
        .and_then(Value::as_str)
        .expect("delta responses carry a chained address");
    assert_ne!(chained, artifact, "chained address must be fresh");

    // 4. The warm result matches a from-scratch solve of the patched
    //    workload on verdict, probe log and bus count.
    let app = workloads::matrix::mat2(42);
    let params = DesignParams::default().with_overlap_threshold(0.15);
    let delta = WorkloadDelta {
        edits: vec![TargetEdit {
            target: TargetId::new(1),
            events: events
                .iter()
                .map(|&(i, start, dur, critical)| {
                    let (ini, tgt) = (InitiatorId::new(i), TargetId::new(1));
                    if critical {
                        TraceEvent::critical(ini, tgt, start, dur)
                    } else {
                        TraceEvent::new(ini, tgt, start, dur)
                    }
                })
                .collect(),
        }],
        ..WorkloadDelta::default()
    };
    let patched = Pipeline::collect(&app, &params)
        .apply_delta(&delta)
        .expect("valid delta");
    let analyzed = patched.analyze(&params);
    let direct = analyzed
        .synthesize(&*SolverKind::Exact.synthesizer())
        .expect("direct synthesis");
    assert_verdict_matches(outcome_field(&warm, "it"), &direct.it);
    assert_verdict_matches(outcome_field(&warm, "ti"), &direct.ti);

    // 5. /stats attributes the reuse — globally and to the tenant.
    let (status, stats) = http_get(addr, "/stats");
    assert_eq!(status, 200);
    let stats = json::parse(stats.trim()).expect("stats JSON");
    let requests = stats.get("requests").expect("request counters");
    assert_eq!(
        requests.get("delta_reuse").and_then(Value::as_u64),
        Some(1),
        "stats: {stats:?}"
    );
    assert_eq!(
        requests.get("delta_miss").and_then(Value::as_u64),
        Some(1),
        "the unknown-artifact probe counts as a miss"
    );
    let acme = stats
        .get("by_tenant")
        .and_then(|t| t.get("acme"))
        .expect("tenant breakdown");
    assert_eq!(acme.get("delta_reuse").and_then(Value::as_u64), Some(1));
    assert_eq!(acme.get("served").and_then(Value::as_u64), Some(2));

    gateway.shutdown();
    gateway.join();
}

/// A delta whose request direction fails answers with that failure and
/// deposits nothing, and the same delta then succeeds. The wire sets no
/// node budget, so the failure is a cancellation: the delta waits in the
/// queue behind a slow sweep while its client hangs up, so the request
/// direction starts under a raised token and returns `None`, which wins
/// over the concurrently started response direction.
#[test]
fn delta_whose_request_direction_fails_answers_the_failure() {
    let gateway = spawn_gateway(1, 4);
    let addr = gateway.addr();
    let (status, body) = http_post(
        addr,
        "/synthesize",
        r#"{"suite":"mat2","seed":42,"threshold":0.15}"#,
        None,
    );
    assert_eq!(status, 200, "body: {body}");
    let base = json::parse(body.trim()).expect("JSON response");
    let artifact = base
        .get("artifact")
        .and_then(Value::as_str)
        .expect("workload responses carry an artifact address")
        .to_string();
    let delta_body = format!(r#"{{"artifact":"{artifact}","delta":{{"threshold":0.2}}}}"#);

    // Occupy the only worker, then queue the delta and hang up on it.
    let slow = r#"{"scaled":24,"seed":3,"thresholds":[0.05,0.10,0.15,0.20,0.25,0.30,0.35,0.40,0.45,0.50]}"#;
    let mut sweeper = TcpStream::connect(addr).expect("connect sweeper");
    write_request(&mut sweeper, "POST", "/sweep", slow, None);
    let requests = |key: &str| {
        stats_of(addr)
            .get("requests")
            .and_then(|r| r.get(key))
            .and_then(Value::as_u64)
    };
    let claimed = (0..200).any(|_| {
        std::thread::sleep(Duration::from_millis(10));
        requests("active") == Some(1)
    });
    assert!(claimed, "worker never claimed the sweep");
    let mut doomed = TcpStream::connect(addr).expect("connect delta client");
    write_request(&mut doomed, "POST", "/synthesize", &delta_body, None);
    let queued = (0..200).any(|_| {
        std::thread::sleep(Duration::from_millis(10));
        stats_of(addr)
            .get("queue")
            .and_then(|q| q.get("queued"))
            .and_then(Value::as_u64)
            == Some(1)
    });
    assert!(queued, "the delta never queued");
    drop(doomed);
    // The connection thread polls for a hang-up every 50 ms.
    std::thread::sleep(Duration::from_millis(500));
    drop(sweeper);

    // Both the sweep and the queued delta end cancelled; the delta still
    // resolved its artifact.
    let settled = (0..1_000).any(|_| {
        std::thread::sleep(Duration::from_millis(10));
        requests("cancelled") == Some(2) && requests("active") == Some(0)
    });
    assert!(settled, "stats: {:?}", stats_of(addr));
    assert_eq!(requests("delta_reuse"), Some(1));
    assert_eq!(requests("served"), Some(1), "only the base request served");

    // Nothing was deposited for the failed delta: sent again, it solves
    // and answers what a fresh gateway answers.
    let (status, retried) = http_post(addr, "/synthesize", &delta_body, None);
    assert_eq!(status, 200, "body: {retried}");
    gateway.shutdown();
    gateway.join();
    let fresh = spawn_gateway(1, 4);
    let (status, body) = http_post(
        fresh.addr(),
        "/synthesize",
        r#"{"suite":"mat2","seed":42,"threshold":0.15}"#,
        None,
    );
    assert_eq!(status, 200, "body: {body}");
    let (status, reference) = http_post(fresh.addr(), "/synthesize", &delta_body, None);
    assert_eq!(status, 200, "body: {reference}");
    assert_eq!(retried, reference, "delta body after a failed attempt");
    fresh.shutdown();
    fresh.join();
}

#[test]
fn full_queue_answers_429_with_retry_after() {
    let gateway = spawn_gateway(1, 1);
    let addr = gateway.addr();

    // Occupy the single worker with a long streaming sweep (the client
    // deliberately never reads, so the job runs at worker pace).
    let slow = r#"{"scaled":24,"seed":3,"thresholds":[0.05,0.10,0.15,0.20,0.25,0.30,0.35,0.40,0.45,0.50]}"#;
    let mut occupant = TcpStream::connect(addr).expect("connect occupant");
    write_request(&mut occupant, "POST", "/sweep", slow, None);
    // Wait until the worker has claimed the job (queued drops to 0).
    let claimed = (0..200).any(|_| {
        std::thread::sleep(Duration::from_millis(10));
        let (_, stats) = http_get(addr, "/stats");
        let stats = json::parse(stats.trim()).expect("stats JSON");
        let active = stats
            .get("requests")
            .and_then(|r| r.get("active"))
            .and_then(Value::as_u64);
        let queued = stats
            .get("queue")
            .and_then(|q| q.get("queued"))
            .and_then(Value::as_u64);
        active == Some(1) && queued == Some(0)
    });
    assert!(claimed, "worker never claimed the streaming job");

    // Second request fills the depth-1 queue…
    let mut queued = TcpStream::connect(addr).expect("connect queued");
    write_request(
        &mut queued,
        "POST",
        "/synthesize",
        r#"{"suite":"mat2","seed":42}"#,
        None,
    );
    let waiting = (0..200).any(|_| {
        std::thread::sleep(Duration::from_millis(10));
        let (_, stats) = http_get(addr, "/stats");
        let stats = json::parse(stats.trim()).expect("stats JSON");
        stats
            .get("queue")
            .and_then(|q| q.get("queued"))
            .and_then(Value::as_u64)
            == Some(1)
    });
    assert!(waiting, "second request never queued");

    // …so the third is refused immediately.
    let mut refused = TcpStream::connect(addr).expect("connect refused");
    write_request(
        &mut refused,
        "POST",
        "/synthesize",
        r#"{"suite":"mat2","seed":42}"#,
        None,
    );
    let mut raw = Vec::new();
    refused
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    refused.read_to_end(&mut raw).expect("read 429");
    let text = String::from_utf8(raw).expect("UTF-8");
    assert!(
        text.starts_with("HTTP/1.1 429"),
        "expected 429, got: {}",
        text.lines().next().unwrap_or("")
    );
    assert!(
        text.to_ascii_lowercase().contains("retry-after:"),
        "429 must carry Retry-After"
    );

    let (_, stats) = http_get(addr, "/stats");
    let stats = json::parse(stats.trim()).expect("stats JSON");
    assert_eq!(
        stats
            .get("requests")
            .and_then(|r| r.get("rejected"))
            .and_then(Value::as_u64),
        Some(1)
    );

    // Dropping the occupant's connection cancels the in-flight sweep
    // (EOF detection raises its token mid-solve), unblocking the drain.
    drop(occupant);
    drop(queued);
    gateway.shutdown();
    gateway.join();
}

#[test]
fn sweep_client_disconnect_is_detected_between_points() {
    let gateway = spawn_gateway(1, 4);
    let addr = gateway.addr();

    // A long multi-point sweep; each θ solves for a while, so the stream
    // spends most of its life idle between chunks. The client vanishes
    // without reading a byte — the socket buffer happily absorbs the
    // early chunks, so a failed write would never notice; only the
    // between-chunk liveness probe can.
    let slow = r#"{"scaled":24,"seed":3,"thresholds":[0.05,0.10,0.15,0.20,0.25,0.30,0.35,0.40,0.45,0.50]}"#;
    let mut sweeper = TcpStream::connect(addr).expect("connect sweeper");
    write_request(&mut sweeper, "POST", "/sweep", slow, None);
    let claimed = (0..200).any(|_| {
        std::thread::sleep(Duration::from_millis(10));
        let (_, stats) = http_get(addr, "/stats");
        let stats = json::parse(stats.trim()).expect("stats JSON");
        stats
            .get("requests")
            .and_then(|r| r.get("active"))
            .and_then(Value::as_u64)
            == Some(1)
    });
    assert!(claimed, "worker never claimed the sweep");
    drop(sweeper);

    // The gateway must notice and cancel mid-sweep, well before all ten
    // points could possibly have solved.
    let cancelled = (0..600).any(|_| {
        std::thread::sleep(Duration::from_millis(10));
        let (_, stats) = http_get(addr, "/stats");
        let stats = json::parse(stats.trim()).expect("stats JSON");
        stats
            .get("requests")
            .and_then(|r| r.get("cancelled"))
            .and_then(Value::as_u64)
            == Some(1)
    });
    assert!(cancelled, "dropped sweep client must cancel the stream");

    gateway.shutdown();
    gateway.join();
}

#[test]
fn shutdown_drains_in_flight_streams_and_refuses_new_connections() {
    let gateway = spawn_gateway(1, 4);
    let addr = gateway.addr();

    // Start a sweep and read its stream lazily.
    let mut sweeper = TcpStream::connect(addr).expect("connect sweeper");
    write_request(
        &mut sweeper,
        "POST",
        "/sweep",
        r#"{"suite":"mat2","seed":42,"thresholds":[0.10,0.15,0.20,0.25]}"#,
        Some("alice"),
    );
    // Let the worker pick it up, then shut down mid-stream.
    std::thread::sleep(Duration::from_millis(100));
    let (status, body) = http_post(addr, "/shutdown", "", None);
    assert_eq!(status, 200);
    assert!(body.contains("shutting_down"), "body: {body}");

    // The in-flight sweep must complete all four points.
    let (status, body) = read_response(&mut sweeper);
    assert_eq!(status, 200);
    let lines: Vec<&str> = body.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(lines.len(), 4, "drain must finish the stream: {body}");
    for (line, theta) in lines.iter().zip(["0.1", "0.15", "0.2", "0.25"]) {
        let point = json::parse(line).expect("sweep line");
        assert_eq!(
            point.get("threshold").and_then(Value::as_f64),
            theta.parse::<f64>().ok(),
            "line: {line}"
        );
        assert!(point.get("it").is_some() && point.get("ti").is_some());
    }

    gateway.join();

    // Fully drained: new connections are refused (or reset at read).
    let refused = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(mut stream) => {
            write_request(&mut stream, "GET", "/stats", "", None);
            let mut buf = Vec::new();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("timeout");
            matches!(stream.read_to_end(&mut buf), Ok(0) | Err(_))
        }
    };
    assert!(refused, "server must stop accepting after drain");
}

/// The removed solver knobs are refused, not ignored: a trace-mode
/// `/synthesize` naming `"pruning"` or `"search"` answers `400`, and the
/// knob-free body answers byte for byte what `Exact` answers on the same
/// trace.
#[test]
fn trace_mode_removed_solver_knobs_are_rejected() {
    let gateway = spawn_gateway(2, 8);
    let addr = gateway.addr();

    let trace = &workloads::synthetic::scaled_soc(24, 42).trace;
    let params = DesignParams::default()
        .with_overlap_threshold(0.12)
        .with_window_size(2_000)
        .with_maxtb(6);
    let direct = Exact::default()
        .synthesize(&Preprocessed::analyze(trace, &params), &params)
        .expect("direct synthesis")
        .to_json("exact");

    let escaped = stbus::traffic::io::trace_to_string(trace)
        .replace('\\', "\\\\")
        .replace('\n', "\\n");
    let body_with = |knobs: &str| {
        format!("{{\"trace\":\"{escaped}\",\"threshold\":0.12,\"window\":2000,\"maxtb\":6{knobs}}}")
    };
    for knobs in [
        r#","pruning":"off""#,
        r#","search":"standard""#,
        r#","pruning":null"#,
    ] {
        let (status, body) = http_post(addr, "/synthesize", &body_with(knobs), None);
        assert_eq!(status, 400, "{knobs}: {body}");
        assert!(body.contains("was removed"), "{knobs}: {body}");
        assert!(
            body.contains("only `solver` chooses how it runs"),
            "{knobs}: {body}"
        );
    }

    let (status, body) = http_post(addr, "/synthesize", &body_with(""), None);
    assert_eq!(status, 200, "body: {body}");
    assert_eq!(body, format!("{direct}\n"), "trace mode must match `Exact`");

    gateway.shutdown();
    gateway.join();
}

/// A hostile body of half a megabyte of `[` — far under the body cap —
/// is a `400`, not a stack overflow that takes the process down: the
/// gateway keeps answering afterwards.
#[test]
fn deeply_nested_json_is_rejected_and_the_gateway_survives() {
    let gateway = spawn_gateway(1, 4);
    let addr = gateway.addr();

    let (status, body) = http_post(addr, "/synthesize", &"[".repeat(500_000), None);
    assert_eq!(status, 400, "body: {body}");
    assert!(body.contains("nesting"), "body: {body}");

    let (status, body) = http_get(addr, "/stats");
    assert_eq!(status, 200, "body: {body}");

    gateway.shutdown();
    gateway.join();
}

/// Posts `body` to `/synthesize`, expects the phase-2 cell cap to refuse
/// it with a `400`, and checks the gateway still answers `/stats`.
fn assert_refused_by_the_cell_cap(addr: SocketAddr, body: &str) {
    let (status, reply) = http_post(addr, "/synthesize", body, None);
    assert_eq!(status, 400, "body: {reply}");
    assert!(reply.contains("over the cap"), "body: {reply}");
    let (status, reply) = http_get(addr, "/stats");
    assert_eq!(status, 200, "body: {reply}");
}

/// A 512-target SoC in 1-cycle windows would need about 189 GB of window
/// tables; the gateway refuses it instead of aborting on the allocation.
#[test]
fn oversized_window_analysis_is_rejected_and_the_gateway_survives() {
    let gateway = spawn_gateway(1, 4);
    assert_refused_by_the_cell_cap(gateway.addr(), r#"{"scaled":512,"window":1}"#);
    gateway.shutdown();
    gateway.join();
}

/// A huge response scale stretches the response trace, not the request
/// one: the cap covers both directions.
#[test]
fn huge_response_scale_is_rejected_and_the_gateway_survives() {
    let gateway = spawn_gateway(1, 4);
    assert_refused_by_the_cell_cap(gateway.addr(), r#"{"suite":"mat2","response_scale":1e300}"#);
    gateway.shutdown();
    gateway.join();
}

/// Trace mode: two events, one starting at cycle 4·10¹², span four
/// billion windows.
#[test]
fn far_trace_event_is_rejected_and_the_gateway_survives() {
    let gateway = spawn_gateway(1, 4);
    let body = r#"{"trace":"initiators=1 targets=2\n0,0,0,8,0\n0,1,4000000000000,8,0\n"}"#;
    assert_refused_by_the_cell_cap(gateway.addr(), body);
    gateway.shutdown();
    gateway.join();
}

/// A delta edit far past the horizon is refused against a live artifact,
/// which keeps serving deltas afterwards.
#[test]
fn far_delta_event_is_rejected_and_the_gateway_survives() {
    let gateway = spawn_gateway(1, 4);
    let addr = gateway.addr();
    let (status, body) = http_post(
        addr,
        "/synthesize",
        r#"{"suite":"mat2","seed":42,"threshold":0.15}"#,
        None,
    );
    assert_eq!(status, 200, "body: {body}");
    let artifact = json::parse(body.trim())
        .expect("JSON response")
        .get("artifact")
        .and_then(Value::as_str)
        .expect("artifact address")
        .to_string();
    let edit = |start: u64| {
        format!(
            "{{\"artifact\":\"{artifact}\",\"delta\":{{\"edits\":[{{\"target\":1,\
             \"events\":[[0,{start},5]]}}]}}}}"
        )
    };
    assert_refused_by_the_cell_cap(addr, &edit(4_000_000_000_000));
    let (status, body) = http_post(addr, "/synthesize", &edit(10), None);
    assert_eq!(status, 200, "body: {body}");
    gateway.shutdown();
    gateway.join();
}

/// The `/stats` counters of one artifact cache: `(hits, misses, waits)`.
fn cache_counters(stats: &Value, cache: &str) -> (u64, u64, u64) {
    let section = stats
        .get(cache)
        .unwrap_or_else(|| panic!("`{cache}` stats"));
    let counter = |name| outcome_field(section, name).as_u64().expect("counter");
    (
        counter("hits"),
        counter("misses"),
        counter("inflight_waits"),
    )
}

/// The address the gateway issues for `{"suite":"mat2","seed":42,"threshold":0.15}`.
const PINNED_MAT2_ADDRESS: &str = "a199f0f4578c9f39";

fn stats_of(addr: SocketAddr) -> Value {
    let (status, stats) = http_get(addr, "/stats");
    assert_eq!(status, 200);
    json::parse(stats.trim()).expect("stats JSON")
}

/// Warm keep-alive requests are not held back by Nagle's algorithm
/// waiting on the client's delayed ACK, a floor of about 40 ms per
/// request: every response leaves in one write on a `TCP_NODELAY`
/// socket, so a warm hit costs its compute and a loopback round trip.
/// The heuristic QSort design keeps that compute near a millisecond even
/// in an unoptimised build, far below the 20 ms bound.
#[test]
fn keep_alive_warm_hits_answer_without_the_delayed_ack_stall() {
    let gateway = spawn_gateway(2, 8);
    let addr = gateway.addr();
    let body = r#"{"suite":"qsort","seed":7,"solver":"heuristic"}"#;
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    write_keepalive_request(&mut stream, "POST", "/synthesize", body);
    let (status, _, cold) = read_one_response(&mut stream);
    assert_eq!(status, 200, "body: {cold}");

    let mut round_trips = Vec::new();
    for _ in 0..30 {
        let start = Instant::now();
        write_keepalive_request(&mut stream, "POST", "/synthesize", body);
        let (status, _, warm) = read_one_response(&mut stream);
        round_trips.push(start.elapsed());
        assert_eq!(status, 200, "body: {warm}");
        assert_eq!(warm, cold, "a warm hit answers the cold body byte for byte");
    }
    round_trips.sort_unstable();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median warm round trip {median:?} (all: {round_trips:?}) — \
         responses are waiting on delayed ACKs again"
    );

    gateway.shutdown();
    gateway.join();
}

/// A chunked sweep leaves a keep-alive connection ready for the next
/// request: both the stream and the `/stats` after it arrive whole.
#[test]
fn sweep_then_stats_share_one_keep_alive_connection() {
    let gateway = spawn_gateway(2, 8);
    let addr = gateway.addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("TCP_NODELAY");

    write_keepalive_request(
        &mut stream,
        "POST",
        "/sweep",
        r#"{"suite":"mat2","seed":42,"thresholds":[0.1,0.15,0.2]}"#,
    );
    let (status, head, body) = read_one_response(&mut stream);
    assert_eq!(status, 200, "body: {body}");
    assert!(
        head.to_ascii_lowercase().contains("connection: keep-alive"),
        "head: {head}"
    );
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 3, "one line per threshold: {body}");
    for line in lines {
        let point = json::parse(line).expect("sweep line");
        assert!(point.get("it").is_some() && point.get("ti").is_some());
    }

    write_keepalive_request(&mut stream, "GET", "/stats", "");
    let (status, _, stats) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    let stats = json::parse(stats.trim()).expect("stats JSON");
    assert_eq!(
        stats
            .get("requests")
            .and_then(|r| r.get("served"))
            .and_then(Value::as_u64),
        Some(1)
    );

    gateway.shutdown();
    gateway.join();
}

/// The collect cache is keyed by the request's workload spec: asking
/// for the same spec again is one more collect hit and the same bytes;
/// the same generator at another seed is another entry, never a
/// collision.
#[test]
fn collect_cache_is_keyed_by_the_workload_spec() {
    let gateway = spawn_gateway(2, 8);
    let addr = gateway.addr();
    let request = |seed: u64| {
        let (status, body) = http_post(
            addr,
            "/synthesize",
            &format!("{{\"suite\":\"mat2\",\"seed\":{seed},\"threshold\":0.15}}"),
            None,
        );
        assert_eq!(status, 200, "body: {body}");
        body
    };

    let first = request(42);
    let (hits, misses, _) = cache_counters(&stats_of(addr), "collect_cache");
    assert_eq!((hits, misses), (0, 1));
    let again = request(42);
    assert_eq!(again, first, "the same spec answers the same bytes");
    assert_eq!(
        cache_counters(&stats_of(addr), "collect_cache"),
        (hits + 1, misses, 0),
        "the repeat is exactly one more collect hit"
    );

    let other = request(43);
    assert_eq!(
        cache_counters(&stats_of(addr), "collect_cache"),
        (hits + 1, misses + 1, 0),
        "another seed is another entry"
    );
    let artifact = |body: &str| {
        json::parse(body.trim())
            .expect("JSON response")
            .get("artifact")
            .and_then(Value::as_str)
            .expect("artifact address")
            .to_string()
    };
    assert_ne!(artifact(&first), artifact(&other));

    // The seed-43 body is the direct pipeline's design of seed 43, not a
    // cached seed-42 design under another name.
    let app = workloads::matrix::mat2(43);
    let params = DesignParams::default().with_overlap_threshold(0.15);
    let collected = Pipeline::collect(&app, &params);
    let analyzed = collected.analyze(&params);
    let direct = analyzed
        .synthesize(&*SolverKind::Exact.synthesizer())
        .expect("direct synthesis");
    let wire = json::parse(other.trim()).expect("JSON response");
    assert_outcome_matches(outcome_field(&wire, "it"), &direct.it);
    assert_outcome_matches(outcome_field(&wire, "ti"), &direct.ti);

    gateway.shutdown();
    gateway.join();
}

/// Artifact addresses are a pure function of the request: the address
/// of this request is pinned, so a change to how the gateway derives it
/// (which would orphan every address a client or journal holds) fails
/// here first.
#[test]
fn artifact_addresses_are_stable() {
    let gateway = spawn_gateway(1, 4);
    let (status, body) = http_post(
        gateway.addr(),
        "/synthesize",
        r#"{"suite":"mat2","seed":42,"threshold":0.15}"#,
        None,
    );
    assert_eq!(status, 200, "body: {body}");
    let wire = json::parse(body.trim()).expect("JSON response");
    assert_eq!(
        wire.get("artifact").and_then(Value::as_str),
        Some(PINNED_MAT2_ADDRESS)
    );
    gateway.shutdown();
    gateway.join();
}

/// `/stats` lookup accounting adds up after a mixed run of hits,
/// misses, deltas and a sweep: every lookup of every listed cache is
/// exactly one hit, miss or in-flight wait.
#[test]
fn stats_lookup_accounting_adds_up_after_a_mixed_run() {
    let gateway = spawn_gateway(2, 8);
    let addr = gateway.addr();
    let synthesize = |body: &str| {
        let (status, body) = http_post(addr, "/synthesize", body, None);
        assert_eq!(status, 200, "body: {body}");
        json::parse(body.trim())
            .expect("JSON response")
            .get("artifact")
            .and_then(Value::as_str)
            .expect("artifact address")
            .to_string()
    };

    let base = synthesize(r#"{"suite":"mat2","seed":42,"threshold":0.15}"#); // miss
    synthesize(r#"{"suite":"mat2","seed":42,"threshold":0.15}"#); // hit
    synthesize(r#"{"suite":"qsort","seed":7}"#); // miss
    let chained = synthesize(&format!(
        "{{\"artifact\":\"{base}\",\"delta\":{{\"threshold\":0.2}}}}"
    ));
    synthesize(&format!(
        "{{\"artifact\":\"{chained}\",\"delta\":{{\"threshold\":0.25}}}}"
    ));
    let (status, _) = http_post(
        addr,
        "/synthesize",
        r#"{"artifact":"00000000deadbeef","delta":{"threshold":0.2}}"#,
        None,
    );
    assert_eq!(status, 404);
    let (status, body) = http_post(
        addr,
        "/sweep",
        r#"{"suite":"mat2","seed":42,"threshold":0.15,"thresholds":[0.1,0.2]}"#,
        None,
    ); // hit
    assert_eq!(status, 200, "body: {body}");

    let stats = stats_of(addr);
    // Front-half caches: one lookup per workload /synthesize and /sweep.
    for cache in ["collect_cache", "analysis_cache"] {
        let (hits, misses, waits) = cache_counters(&stats, cache);
        assert_eq!((hits, misses, waits), (2, 2, 0), "{cache}: {stats:?}");
    }
    // Re-synthesis store: one lookup per delta request.
    assert_eq!(cache_counters(&stats, "resynth_cache"), (2, 1, 0));
    let requests = stats.get("requests").expect("request counters");
    assert_eq!(requests.get("served").and_then(Value::as_u64), Some(6));
    assert_eq!(requests.get("delta_reuse").and_then(Value::as_u64), Some(2));
    assert_eq!(requests.get("delta_miss").and_then(Value::as_u64), Some(1));

    gateway.shutdown();
    gateway.join();
}

/// `/suite` answers the five paper rows byte for byte as `stbus suite
/// --json` prints them, at the default exact solver and at the heuristic.
#[test]
fn suite_rows_are_byte_identical_to_the_cli() {
    let gateway = spawn_gateway(2, 4);
    let addr = gateway.addr();
    for (body, cli_args) in [
        ("{}", &["suite", "--json"][..]),
        (
            r#"{"solver":"heuristic"}"#,
            &["suite", "--json", "--solver", "heuristic"][..],
        ),
    ] {
        let cli = std::process::Command::new(env!("CARGO_BIN_EXE_stbus"))
            .args(cli_args)
            .output()
            .expect("run stbus suite");
        assert!(cli.status.success(), "{cli_args:?}: {cli:?}");
        let cli = String::from_utf8(cli.stdout).expect("UTF-8 rows");
        let (status, wire) = http_post(addr, "/suite", body, None);
        assert_eq!(status, 200, "body: {wire}");
        assert_eq!(wire, cli, "`/suite {body}` must match `stbus {cli_args:?}`");
    }
    gateway.shutdown();
    gateway.join();
}

/// A request's `"jobs"` never grows the process-wide executor, whose
/// threads never exit: only the operator's `--jobs` sizes it. On a host
/// with fewer than 8 workers this fails if a request can grow it.
#[test]
fn request_jobs_never_grow_the_executor() {
    let gateway = spawn_gateway(1, 4);
    let addr = gateway.addr();
    let before = stbus::exec::workers();
    for (path, body) in [
        ("/synthesize", r#"{"suite":"mat2","seed":42,"jobs":8}"#),
        (
            "/sweep",
            r#"{"suite":"mat2","seed":42,"thresholds":[0.15],"jobs":8}"#,
        ),
    ] {
        let (status, reply) = http_post(addr, path, body, None);
        assert_eq!(status, 200, "{path} {body}: {reply}");
    }
    assert_eq!(stbus::exec::workers(), before, "executor workers");
    gateway.shutdown();
    gateway.join();
}

/// A `"jobs"` above the cap is refused at parse time on every work route,
/// before anything is admitted or any executor thread is started, and
/// the gateway keeps answering.
#[test]
fn jobs_above_the_cap_is_rejected_and_the_gateway_survives() {
    let gateway = spawn_gateway(1, 4);
    let addr = gateway.addr();
    let jobs = stbus::gateway::wire::MAX_JOBS + 1;
    for (path, body) in [
        (
            "/synthesize",
            format!(r#"{{"suite":"mat2","jobs":{jobs}}}"#),
        ),
        (
            "/synthesize",
            format!(r#"{{"artifact":"{PINNED_MAT2_ADDRESS}","jobs":{jobs}}}"#),
        ),
        (
            "/sweep",
            format!(r#"{{"suite":"mat2","thresholds":[0.1],"jobs":{jobs}}}"#),
        ),
        ("/suite", r#"{"jobs":1000000}"#.to_string()),
    ] {
        let (status, reply) = http_post(addr, path, &body, None);
        assert_eq!(status, 400, "{path} {body}: {reply}");
        assert!(reply.contains("`jobs` is capped"), "{path} {body}: {reply}");
    }
    let stats = stats_of(addr);
    let requests = stats.get("requests").expect("request counters");
    assert_eq!(requests.get("served").and_then(Value::as_u64), Some(0));
    assert_eq!(cache_counters(&stats, "collect_cache"), (0, 0, 0));
    gateway.shutdown();
    gateway.join();
}
