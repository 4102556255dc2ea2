//! `gateway_mixed`: an in-process `Gateway` with a fresh journal, driven
//! closed-loop over real TCP by one keep-alive client per core, each under
//! its own `X-Tenant`. About 75% of requests hit a resident set of ten
//! warm specs; the rest miss: a never-seen seed, a θ delta chained off the
//! client's previous artifact, or a three-θ chunked sweep.

use crate::report::{mean, median, percentile, Outcome};
use crate::trace::Tracer;
use crate::{Config, SplitMix64};
use stbus_gateway::replay::{replay_journal, ReplayEngine};
use stbus_gateway::wire::{self, WorkRequest, WorkSpec};
use stbus_gateway::{json, Gateway, GatewayConfig};
use stbus_journal::{read_journal, replay_records, Record, JOURNAL_FILE};
use std::collections::HashSet;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Gateway spawn + warm-up is repeated this many times; `setup_s` is the
/// median and the last gateway serves the run.
const SETUP_ROUNDS: usize = 5;
/// Suite generators of the warm set, with the wire knobs of their paper
/// parameters (`paper_suite_params`).
const APPS: [(&str, &str); 5] = [
    ("mat1", ",\"threshold\":0.15"),
    ("mat2", ",\"threshold\":0.15"),
    ("fft", ",\"threshold\":0.5,\"response_scale\":0.9"),
    ("qsort", ""),
    ("des", ",\"threshold\":0.15"),
];
/// Percent of requests that hit the warm set.
const HIT_PERCENT: u64 = 75;
/// θ values a chained delta moves to.
const DELTA_THETAS: [f64; 4] = [0.10, 0.20, 0.25, 0.30];
const SWEEP_THETAS: &str = "[0.1,0.15,0.2]";
/// Seeds on the wire stay below 2^52: JSON numbers travel as doubles.
const WIRE_SEED_MASK: u64 = (1 << 52) - 1;

/// One warm spec: its request body and the response set-up received.
struct Warm {
    body: String,
    response: String,
}

struct Response {
    status: u16,
    close: bool,
    body: String,
}

/// One keep-alive connection that reconnects when the server closes it.
struct Client {
    addr: SocketAddr,
    tenant: String,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    fn new(addr: SocketAddr, tenant: &str) -> Self {
        Self {
            addr,
            tenant: tenant.to_string(),
            stream: None,
            buf: Vec::new(),
        }
    }

    /// One exchange; connects first when the previous response closed the
    /// connection, so a reconnect counts toward this request.
    fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let stream = match &mut self.stream {
            Some(stream) => stream,
            None => {
                let stream = TcpStream::connect(self.addr)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(Duration::from_secs(60)))?;
                self.buf.clear();
                self.stream.insert(stream)
            }
        };
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nX-Tenant: {}\r\n\
             Content-Length: {}\r\n\r\n{body}",
            self.tenant,
            body.len()
        );
        stream.write_all(request.as_bytes())?;
        let response = read_response(stream, &mut self.buf);
        if response.as_ref().map_or(true, |r| r.close) {
            self.stream = None;
        }
        response
    }
}

fn find(haystack: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    haystack
        .get(from..)?
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

/// Reads until `buf` holds `needle` at or after `from`; returns its offset.
fn fill_until(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    from: usize,
    needle: &[u8],
) -> io::Result<usize> {
    loop {
        if let Some(pos) = find(buf, from, needle) {
            return Ok(pos);
        }
        fill(stream, buf)?;
    }
}

fn fill_to(stream: &mut TcpStream, buf: &mut Vec<u8>, len: usize) -> io::Result<()> {
    while buf.len() < len {
        fill(stream, buf)?;
    }
    Ok(())
}

fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut chunk = [0u8; 8192];
    let n = stream.read(&mut chunk)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "gateway closed the connection",
        ));
    }
    buf.extend_from_slice(&chunk[..n]);
    Ok(())
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

/// Reads one response framed by `Content-Length` or chunked encoding and
/// leaves any bytes after it in `buf`.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<Response> {
    let head_end = fill_until(stream, buf, 0, b"\r\n\r\n")? + 4;
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("no status code"))?;
    let header = |name: &str| {
        head.lines().find_map(|line| {
            let (key, value) = line.split_once(':')?;
            key.eq_ignore_ascii_case(name)
                .then(|| value.trim().to_string())
        })
    };
    let close = header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
    let (body, end) = if header("transfer-encoding").is_some_and(|v| v.contains("chunked")) {
        let mut body = Vec::new();
        let mut pos = head_end;
        loop {
            let line_end = fill_until(stream, buf, pos, b"\r\n")?;
            let size =
                usize::from_str_radix(String::from_utf8_lossy(&buf[pos..line_end]).trim(), 16)
                    .map_err(|_| invalid("bad chunk size"))?;
            pos = line_end + 2;
            fill_to(stream, buf, pos + size + 2)?;
            body.extend_from_slice(&buf[pos..pos + size]);
            pos += size + 2;
            if size == 0 {
                break;
            }
        }
        (body, pos)
    } else {
        let length: usize = header("content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| invalid("no Content-Length"))?;
        fill_to(stream, buf, head_end + length)?;
        (buf[head_end..head_end + length].to_vec(), head_end + length)
    };
    buf.drain(..end);
    Ok(Response {
        status,
        close,
        body: String::from_utf8_lossy(&body).to_string(),
    })
}

fn synth_body(app: usize, seed: u64) -> String {
    let (name, knobs) = APPS[app];
    format!("{{\"suite\":\"{name}\",\"seed\":{seed}{knobs}}}")
}

fn sweep_body(app: usize, seed: u64) -> String {
    let (name, _) = APPS[app];
    let scale = if name == "fft" {
        ",\"response_scale\":0.9"
    } else {
        ""
    };
    format!("{{\"suite\":\"{name}\",\"seed\":{seed}{scale},\"thresholds\":{SWEEP_THETAS}}}")
}

/// Total buses and the artifact address of a both-direction design body.
fn parse_design(body: &str) -> Option<(u64, String)> {
    let value = json::parse(body.trim_end()).ok()?;
    let buses = value.get("it")?.get("num_buses")?.as_u64()?
        + value.get("ti")?.get("num_buses")?.as_u64()?;
    Some((buses, value.get("artifact")?.as_str()?.to_string()))
}

/// A spawned gateway with its warm set resident.
struct Served {
    gateway: Gateway,
    dir: PathBuf,
    warm: Vec<Warm>,
}

fn spawn(cfg: &Config, round: usize) -> io::Result<Served> {
    let dir = Path::new(crate::RUN_DIR).join(format!("journal-{}-{round}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let gateway = Gateway::spawn(&GatewayConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: cfg.nproc,
        log_requests: false,
        journal_dir: Some(dir.clone()),
        ..GatewayConfig::default()
    })?;
    let mut client = Client::new(gateway.addr(), "warmup");
    let mut warm = Vec::new();
    for seed in [cfg.seed, cfg.seed.wrapping_add(1_000_003)].map(|s| s & WIRE_SEED_MASK) {
        for app in 0..APPS.len() {
            let body = synth_body(app, seed);
            let response = client.send("POST", "/synthesize", &body)?;
            if response.status != 200 {
                return Err(invalid(&format!(
                    "warm-up {body} answered {}",
                    response.status
                )));
            }
            warm.push(Warm {
                body,
                response: response.body,
            });
        }
    }
    Ok(Served { gateway, dir, warm })
}

fn stop(served: Served) -> PathBuf {
    served.gateway.shutdown();
    served.gateway.join();
    served.dir
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Hit,
    Synth,
    Delta,
    Sweep,
}

/// One request as the client saw it.
struct Sent {
    kind: Kind,
    path: &'static str,
    body: String,
    start: Instant,
    end: Instant,
    designs: usize,
    failure: Option<String>,
}

/// The closed loop of one client: its request sequence comes from the
/// workload seed and the client index.
fn client_loop(
    cfg: &Config,
    index: usize,
    addr: SocketAddr,
    warm: &[Warm],
    deadline: Instant,
) -> Vec<Sent> {
    let mut rng =
        SplitMix64::new(cfg.seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut client = Client::new(addr, &format!("tenant-{index}"));
    let mut artifact = parse_design(&warm[index % warm.len()].response).map(|(_, a)| a);
    let mut fresh = 0u64;
    let mut sent = Vec::new();
    while Instant::now() < deadline {
        let mut next_fresh = || {
            fresh += 1;
            SplitMix64::new(cfg.seed ^ ((index as u64) << 40) ^ fresh).next_u64() & WIRE_SEED_MASK
        };
        let hit = rng.below(100) < HIT_PERCENT;
        let (kind, path, body, expected) = if hit {
            let w = &warm[rng.below(warm.len() as u64) as usize];
            (Kind::Hit, "/synthesize", w.body.clone(), Some(&w.response))
        } else {
            match (rng.below(3), &artifact) {
                (1, Some(parent)) => {
                    let theta = DELTA_THETAS[rng.below(DELTA_THETAS.len() as u64) as usize];
                    let body = format!(
                        "{{\"artifact\":\"{parent}\",\"delta\":{{\"threshold\":{theta}}}}}"
                    );
                    (Kind::Delta, "/synthesize", body, None)
                }
                (2, _) => {
                    let app = rng.below(APPS.len() as u64) as usize;
                    (Kind::Sweep, "/sweep", sweep_body(app, next_fresh()), None)
                }
                _ => {
                    let app = rng.below(APPS.len() as u64) as usize;
                    (
                        Kind::Synth,
                        "/synthesize",
                        synth_body(app, next_fresh()),
                        None,
                    )
                }
            }
        };
        let start = Instant::now();
        let response = client.send("POST", path, &body);
        let end = Instant::now();
        let mut designs = 0;
        let failure = match response {
            Err(e) => Some(format!("{path} {body}: {e}")),
            Ok(r) if r.status != 200 => Some(format!("{path} {body}: status {}", r.status)),
            Ok(r) => match kind {
                Kind::Sweep => {
                    designs = r.body.lines().filter(|l| l.contains("\"it\"")).count();
                    (designs != 3 || r.body.contains("\"error\""))
                        .then(|| format!("sweep {body}: {}", r.body))
                }
                _ => match parse_design(&r.body) {
                    Some(_) if expected.is_some_and(|e| *e != r.body) => {
                        Some(format!("warm hit {body} changed its response"))
                    }
                    Some((_, address)) => {
                        designs = 1;
                        artifact = Some(address);
                        None
                    }
                    None => Some(format!("{path} {body}: unreadable design {}", r.body)),
                },
            },
        };
        sent.push(Sent {
            kind,
            path,
            body,
            start,
            end,
            designs,
            failure,
        });
    }
    sent
}

/// `/stats` counter `section.field`.
fn stat(stats: &json::Value, section: &str, field: &str) -> f64 {
    stats
        .get(section)
        .and_then(|s| s.get(field))
        .and_then(json::Value::as_u64)
        .unwrap_or(0) as f64
}

/// Median when the sample supports it, otherwise the mean.
fn typical(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or_else(|| mean(samples))
}

pub fn gateway_mixed(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = if cfg.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    if let Err(e) = std::fs::create_dir_all(crate::RUN_DIR) {
        out.check(vec![format!("cannot create {}: {e}", crate::RUN_DIR)]);
        return out;
    }

    // Set-up: spawn + warm-up, repeated; the last gateway serves the run.
    let mut rounds = Vec::new();
    let mut served = None;
    for round in 0..SETUP_ROUNDS {
        let start = Instant::now();
        match spawn(cfg, round) {
            Ok(s) => {
                rounds.push(start.elapsed().as_secs_f64());
                if let Some(previous) = served.replace(s) {
                    let _ = std::fs::remove_dir_all(stop(previous));
                }
            }
            Err(e) => {
                out.check(vec![format!("gateway set-up: {e}")]);
                if let Some(previous) = served.take() {
                    let _ = std::fs::remove_dir_all(stop(previous));
                }
                return out;
            }
        }
    }
    let Served { gateway, dir, warm } = served.expect("set-up ran");
    let setup_s = median(&rounds);
    let addr = gateway.addr();
    let warm = &warm;

    // The closed loop.
    let start = Instant::now();
    let deadline = start + cfg.seconds;
    let sent: Vec<Sent> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.nproc)
            .map(|i| scope.spawn(move || client_loop(cfg, i, addr, warm, deadline)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();

    let mut stats_client = Client::new(addr, "bench");
    let stats = stats_client
        .send("GET", "/stats", "")
        .ok()
        .and_then(|r| json::parse(r.body.trim_end()).ok());
    drop(stats_client);
    gateway.shutdown();
    gateway.join();

    // Output checks: every response 2xx and warm hits unchanged (above),
    // one journal record per request, and a clean replay of the journal.
    for s in &sent {
        out.check(s.failure.iter().cloned().collect());
    }
    let requests = warm.len() + sent.len();
    let records: Vec<Record> = match read_journal(&dir) {
        Ok(report) => report.records,
        Err(e) => {
            out.check(vec![format!("journal unreadable: {e}")]);
            Vec::new()
        }
    };
    let mut journal_failures = Vec::new();
    if records.len() != requests {
        journal_failures.push(format!(
            "journal holds {} records for {requests} requests",
            records.len()
        ));
    }
    let warm_bodies: HashSet<&str> = warm.iter().map(|w| w.body.as_str()).collect();
    let mut compute_hit = Vec::new();
    let mut compute_miss = Vec::new();
    let replay = if cfg.trace {
        // Sequential replay with a span around each record's execution.
        let mut engine = ReplayEngine::new(None);
        replay_records(&records, |r| {
            let span = tracer.begin("gateway.compute", r.seq);
            let t = Instant::now();
            let result = engine.execute(r);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tracer.end(span);
            if warm_bodies.contains(r.spec.as_str()) {
                compute_hit.push(ms);
            } else {
                compute_miss.push(ms);
            }
            result
        })
    } else {
        replay_journal(&records, NonZeroUsize::new(cfg.nproc))
    };
    if !replay.is_clean() || replay.matched != records.len() {
        journal_failures.push(format!("journal replay: {replay}"));
    }
    out.check(journal_failures);
    let journal_bytes = std::fs::metadata(dir.join(JOURNAL_FILE)).map_or(0, |m| m.len());
    let _ = std::fs::remove_dir_all(&dir);

    // End-to-end metrics.
    let latency = |filter: &dyn Fn(Kind) -> bool| -> Vec<f64> {
        sent.iter()
            .filter(|s| filter(s.kind))
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .collect()
    };
    let all = latency(&|_| true);
    let hits = latency(&|k| k == Kind::Hit);
    let misses = latency(&|k| k != Kind::Hit);
    let designs: usize = sent.iter().map(|s| s.designs).sum();
    let buses: u64 = warm
        .iter()
        .filter_map(|w| parse_design(&w.response))
        .map(|(b, _)| b)
        .sum();
    out.end_to_end.insert("setup_s", setup_s);
    out.end_to_end
        .insert("designs_per_s", designs as f64 / wall);
    out.end_to_end.insert("buses_total", buses as f64);
    out.detail("setup_s", setup_s, "s", SETUP_ROUNDS);
    out.detail("designs_per_s", designs as f64 / wall, "designs/s", designs);
    out.detail("buses_total", buses as f64, "buses", warm.len());
    out.detail(
        "requests_per_s",
        sent.len() as f64 / wall,
        "req/s",
        sent.len(),
    );
    for (name, samples, p) in [
        ("latency_p50_ms", &all, 0.5),
        ("latency_p99_ms", &all, 0.99),
        ("hit_latency_p50_ms", &hits, 0.5),
        ("miss_latency_p50_ms", &misses, 0.5),
    ] {
        out.percentile_detail(name, samples, p, "ms");
    }
    for (kind, name) in [
        (Kind::Synth, "synth"),
        (Kind::Delta, "delta"),
        (Kind::Sweep, "sweep"),
    ] {
        let n = sent.iter().filter(|s| s.kind == kind).count();
        out.detail(format!("requests.{name}"), n as f64, "requests", n);
    }

    if cfg.trace {
        for (i, s) in sent.iter().enumerate() {
            let (begin, end) = (tracer.offset(s.start), tracer.offset(s.end));
            tracer.record("gateway.request", i as u64, begin, end);
        }
        // Wire parsing and workload generation over the run's bodies.
        let mut parse_us = Vec::new();
        let mut generated = HashSet::new();
        let mut generate_ms = Vec::new();
        for (i, s) in sent.iter().enumerate() {
            let span = tracer.begin("gateway.wire_parse", i as u64);
            let t = Instant::now();
            let parsed = if s.path == "/sweep" {
                wire::parse_sweep(&s.body).map(WorkRequest::Sweep)
            } else {
                wire::parse_synthesize_route(&s.body)
            };
            parse_us.push(t.elapsed().as_secs_f64() * 1e6);
            tracer.end(span);
            let spec = match parsed {
                Ok(WorkRequest::Synthesize(r)) => Some(r.work),
                Ok(WorkRequest::Sweep(r)) => Some(r.base.work),
                _ => None,
            };
            if let Some(WorkSpec::Workload(spec)) = spec {
                if generated.len() < 200 && generated.insert(s.body.as_str()) {
                    let span = tracer.begin("traffic.generate", i as u64);
                    let t = Instant::now();
                    std::hint::black_box(spec.build());
                    generate_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    tracer.end(span);
                }
            }
        }
        let stat_or_zero =
            |section: &str, field: &str| stats.as_ref().map_or(0.0, |s| stat(s, section, field));
        let mut cache_hits = 0.0;
        let mut lookups = 0.0;
        for cache in ["collect_cache", "analysis_cache"] {
            let h = stat_or_zero(cache, "hits");
            cache_hits += h;
            lookups += h + stat_or_zero(cache, "misses") + stat_or_zero(cache, "inflight_waits");
        }
        let reuse = stat_or_zero("requests", "delta_reuse");
        let reuse_total = reuse + stat_or_zero("requests", "delta_miss");
        let l = &mut out.layers;
        l.insert("traffic.generate_ms", mean(&generate_ms));
        l.insert("gateway.cache_hit_rate", cache_hits / lookups.max(1.0));
        l.insert("gateway.delta_reuse_rate", reuse / reuse_total.max(1.0));
        l.insert("gateway.refused", stat_or_zero("requests", "rejected"));
        l.insert("gateway.wire_parse_us", mean(&parse_us));
        l.insert("gateway.compute_ms.hit", typical(&compute_hit));
        l.insert("gateway.compute_ms.miss", typical(&compute_miss));
        l.insert(
            "gateway.overhead_ms.hit",
            typical(&hits) - typical(&compute_hit),
        );
        l.insert(
            "gateway.overhead_ms.miss",
            typical(&misses) - typical(&compute_miss),
        );
        l.insert("journal.records", records.len() as f64);
        l.insert(
            "journal.bytes_per_record",
            journal_bytes as f64 / records.len().max(1) as f64,
        );
        crate::design::write_spans(cfg, &tracer);
    }
    out
}
