//! Closed-loop gateway throughput bench: an in-process [`Gateway`] under
//! a small fleet of synchronous HTTP clients, all POSTing the same
//! workload-mode `/synthesize` request over **persistent keep-alive
//! connections** (one per client per measured window, well under the
//! gateway's per-connection request cap) — per-request latency is
//! request-written to response-read, with no connect/teardown inside
//! the measured exchange. The run measures five windows and reports the
//! median window's rate.
//!
//! The point being measured is the **service layer**, not the solvers:
//! with identical requests the collect/analysis artifact caches converge
//! to the hit path after the first flight, so the steady state is
//! per-request HTTP framing + admission + scheduling + a cache-warm
//! phase-3 synthesis. The run snapshots a `gateway_throughput` row into
//! `BENCH_phase3.json` at the workspace root (requests/sec, p50/p99
//! latency, end-of-run cache hit rate), merged next to the phase-3
//! sweep's rows via the shared `stbus_bench` snapshot helpers so neither
//! bench clobbers the other.
//!
//! When a previous row exists, `GATEWAY_GUARD=1` turns the run into a
//! regression gate: it fails if the fresh `requests_per_sec` drops
//! below 1/1.3 of the committed one (the nightly perf job sets this).
//!
//! On a 1-core host the row carries the shared machine-readable
//! `single_core_host` warning (same shape as the `journal_overhead`
//! row): with clients, connection threads and workers timesliced onto
//! one core, `requests_per_sec` measures scheduling overhead under
//! contention, not service parallelism.

use stbus_gateway::{Gateway, GatewayConfig};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

/// Concurrent closed-loop clients (each waits for its response before
/// sending the next request).
const CLIENTS: usize = 4;
/// Per-client requests before the measured window (fills the caches and
/// faults in the lazily spawned threads).
const WARMUP_PER_CLIENT: usize = 4;
/// Per-client requests inside each measured window.
const REQUESTS_PER_CLIENT: usize = 64;
/// Measured windows per run, each on fresh connections; the row reports
/// the median window's rate. One window lasts well under a second, so a
/// single one is at the mercy of a scheduling hiccup.
const ROUNDS: usize = 5;
/// The identical request every client sends: Mat2 at the paper's
/// aggressive threshold — the suite operating point of `stbus suite`.
const BODY: &str = r#"{"suite":"mat2","seed":42,"threshold":0.15}"#;
/// A fresh `requests_per_sec` below `committed / GUARD_RATIO` fails the
/// run when `GATEWAY_GUARD` is set.
const GUARD_RATIO: f64 = 1.3;

/// One persistent keep-alive connection. Each `post` is a single
/// request/response exchange on it; the response is framed by its
/// `Content-Length` (workload responses are never chunked), leaving
/// the connection ready for the next request.
struct KeepAliveClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl KeepAliveClient {
    fn connect(addr: SocketAddr) -> Self {
        Self {
            stream: TcpStream::connect(addr).expect("connect to gateway"),
            buf: Vec::new(),
        }
    }

    /// Returns the full response text (status line through body) and
    /// the wall-clock seconds from first request byte written to last
    /// response byte read.
    fn post(&mut self, path: &str, body: &str) -> (String, f64) {
        let start = Instant::now();
        let request = format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream
            .write_all(request.as_bytes())
            .expect("write request");
        let response = self.read_response();
        (response, start.elapsed().as_secs_f64())
    }

    fn read_response(&mut self) -> String {
        let header_end = loop {
            if let Some(pos) = find_subslice(&self.buf, b"\r\n\r\n") {
                break pos + 4;
            }
            self.fill("response headers");
        };
        let headers = String::from_utf8_lossy(&self.buf[..header_end]).to_string();
        let content_length: usize = headers
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .expect("workload responses carry Content-Length");
        let total = header_end + content_length;
        while self.buf.len() < total {
            self.fill("response body");
        }
        let response = String::from_utf8_lossy(&self.buf[..total]).to_string();
        self.buf.drain(..total);
        response
    }

    fn fill(&mut self, while_reading: &str) {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk).expect("read from gateway");
        assert!(
            n > 0,
            "gateway closed a kept-alive connection mid-{while_reading} \
             (requests per connection stayed under the keep-alive cap)"
        );
        self.buf.extend_from_slice(&chunk[..n]);
    }
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to gateway");
    let request = format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

/// Body of a non-chunked response (everything after the header block).
fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map_or(response, |(_, body)| body)
}

/// Pulls `field` out of the named top-level section of the `/stats`
/// body, reusing the shared snapshot scanner (each section is itself a
/// small JSON object, so its fields sit at depth 1).
fn stat(stats_body: &str, section: &str, field: &str) -> u64 {
    let section = stbus_bench::extract_top_level(stats_body, section)
        .unwrap_or_else(|| panic!("/stats has a `{section}` section"));
    stbus_bench::extract_top_level(&section, field)
        .and_then(|raw| raw.parse().ok())
        .unwrap_or_else(|| panic!("`{section}.{field}` is a counter"))
}

fn percentile(sorted: &[f64], p: usize) -> f64 {
    assert!(!sorted.is_empty());
    sorted[(sorted.len() - 1) * p / 100]
}

/// One measured window: every client opens a fresh keep-alive
/// connection, warms it up outside the window, then sends its measured
/// requests. Returns the window's wall-clock seconds and the per-request
/// latencies.
fn measure_window(addr: SocketAddr) -> (f64, Vec<f64>) {
    // The first window's warmup computes the artifacts (single-flight
    // collapses the rest onto it); every later request is a cache hit.
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = KeepAliveClient::connect(addr);
                for _ in 0..WARMUP_PER_CLIENT {
                    let (response, _) = client.post("/synthesize", BODY);
                    assert!(response.starts_with("HTTP/1.1 200"), "warmup: {response}");
                }
                barrier.wait();
                let mut latencies = Vec::with_capacity(REQUESTS_PER_CLIENT);
                for _ in 0..REQUESTS_PER_CLIENT {
                    let (response, seconds) = client.post("/synthesize", BODY);
                    assert!(response.starts_with("HTTP/1.1 200"), "measured: {response}");
                    latencies.push(seconds);
                }
                latencies
            })
        })
        .collect();

    barrier.wait();
    let window = Instant::now();
    let latencies: Vec<f64> = clients
        .into_iter()
        .flat_map(|client| client.join().expect("client thread"))
        .collect();
    (window.elapsed().as_secs_f64(), latencies)
}

fn main() {
    let host_parallelism = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let config = GatewayConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 64,
        cache_entries: 64,
        log_requests: false,
        ..GatewayConfig::default()
    };
    assert!(
        WARMUP_PER_CLIENT + REQUESTS_PER_CLIENT <= config.keep_alive_requests,
        "each client must fit its whole run on one kept-alive connection"
    );
    let gateway = Gateway::spawn(&config).expect("bind gateway");
    let addr = gateway.addr();

    let mut rates = Vec::with_capacity(ROUNDS);
    let mut latencies = Vec::with_capacity(ROUNDS * CLIENTS * REQUESTS_PER_CLIENT);
    for _ in 0..ROUNDS {
        let (wall_s, round) = measure_window(addr);
        rates.push((CLIENTS * REQUESTS_PER_CLIENT) as f64 / wall_s);
        latencies.extend(round);
    }
    rates.sort_by(f64::total_cmp);
    latencies.sort_by(f64::total_cmp);

    let requests = ROUNDS * CLIENTS * REQUESTS_PER_CLIENT;
    let requests_per_sec = rates[ROUNDS / 2];
    let p50_ms = percentile(&latencies, 50) * 1e3;
    let p99_ms = percentile(&latencies, 99) * 1e3;

    // End-of-run cache effectiveness across both artifact caches. The
    // exactly-one classification invariant (hits + misses + inflight
    // waits == lookups) makes this a true rate, not an estimate.
    let stats = get(addr, "/stats");
    assert!(stats.starts_with("HTTP/1.1 200"), "stats: {stats}");
    let stats_body = body_of(&stats).to_string();
    let mut hits = 0;
    let mut lookups = 0;
    for cache in ["collect_cache", "analysis_cache"] {
        let cache_hits = stat(&stats_body, cache, "hits");
        hits += cache_hits;
        lookups += cache_hits
            + stat(&stats_body, cache, "misses")
            + stat(&stats_body, cache, "inflight_waits");
    }
    assert!(lookups > 0, "workload requests must touch the caches");
    let cache_hit_rate = hits as f64 / lookups as f64;
    let served = stat(&stats_body, "requests", "served");
    assert_eq!(
        served as usize,
        requests + ROUNDS * CLIENTS * WARMUP_PER_CLIENT,
        "every request must be served exactly once"
    );

    gateway.shutdown();
    gateway.join();

    let warning = stbus_bench::host_warning_json(host_parallelism, "requests_per_sec");
    if host_parallelism == 1 {
        eprintln!(
            "warning: gateway-throughput row measured on a 1-core host — \
             requests/sec reflects timesliced scheduling, not service parallelism"
        );
    }
    let row = format!(
        "{{\"date\": \"{date}\", \"host_parallelism\": {host_parallelism}, \
         \"workers\": {workers}, \"clients\": {CLIENTS}, \
         \"connections\": \"keep-alive\", \
         \"rounds\": {ROUNDS}, \"warmup_requests\": {warmup}, \"requests\": {requests}, \
         \"request\": {{\"route\": \"/synthesize\", \"suite\": \"mat2\", \"seed\": 42, \
         \"overlap_threshold\": 0.15}}, \
         \"requests_per_sec\": {requests_per_sec:.2}, \
         \"requests_per_sec_range\": [{min_rate:.2}, {max_rate:.2}], \
         \"latency_ms\": {{\"p50\": {p50_ms:.3}, \"p99\": {p99_ms:.3}}}, \
         \"cache_hit_rate\": {cache_hit_rate:.4}, \"warning\": {warning}}}",
        date = stbus_bench::today_utc(),
        workers = config.workers,
        warmup = ROUNDS * CLIENTS * WARMUP_PER_CLIENT,
        min_rate = rates[0],
        max_rate = rates[ROUNDS - 1],
    );

    // Regression guard against the committed row, checked before the
    // row is rewritten.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_phase3.json");
    let snapshot = std::fs::read_to_string(path).unwrap_or_else(|_| String::from("{}\n"));
    let committed_rate: Option<f64> =
        stbus_bench::extract_top_level(&snapshot, "gateway_throughput")
            .and_then(|row| stbus_bench::extract_top_level(&row, "requests_per_sec"))
            .and_then(|raw| raw.parse().ok());
    let guard = std::env::var_os("GATEWAY_GUARD").is_some();
    if let Some(committed) = committed_rate {
        let ratio = requests_per_sec / committed;
        println!("requests/sec vs committed gateway_throughput row: {ratio:.2}x");
        if guard {
            assert!(
                requests_per_sec * GUARD_RATIO >= committed,
                "gateway throughput regression: {requests_per_sec:.1} req/s is more \
                 than {GUARD_RATIO}x below the committed {committed:.1} req/s"
            );
        }
    } else if guard {
        println!("GATEWAY_GUARD set but no committed gateway_throughput row to guard against");
    }

    // Merge the row into the shared trajectory snapshot, preserving the
    // phase-3 sweep's rows (phase3.rs preserves ours symmetrically).
    let snapshot = stbus_bench::merge_top_level(&snapshot, "gateway_throughput", &row);
    std::fs::write(path, &snapshot).expect("write BENCH_phase3.json");
    println!("wrote {path}");
    println!("gateway_throughput: {row}");
}
