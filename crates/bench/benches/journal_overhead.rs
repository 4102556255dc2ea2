//! Journal overhead bench: what does event-sourcing the gateway cost?
//!
//! Three measurements, snapshotted together as the `journal_overhead`
//! row of `BENCH_phase3.json`:
//!
//! * **Raw append throughput** per [`FsyncPolicy`] — a bare
//!   [`JournalWriter`] fed realistic-size records (a workload spec plus
//!   a ~1 KiB response body, the shape a `/synthesize` hit journals).
//!   The window closes at `close()`, so every policy pays its full
//!   durability bill inside the measurement: `always` syncs per record,
//!   `snapshot` every [`WriterOptions::snapshot_every`] records,
//!   `never` only buffers. The spread between the three IS the fsync
//!   cost; the `never` row is the in-memory encoding + channel floor.
//! * **Recovery latency** — [`recover`] over the journal the `always`
//!   run just wrote (snapshot load, suffix scan, CRC checks, torn-tail
//!   probe). This is the startup tax `--journal-dir` adds before the
//!   listener binds, *excluding* artifact-cache rebuild (that cost is
//!   request-shaped, not journal-shaped, and is covered by the
//!   `incremental_resynthesis` row).
//! * **End-to-end overhead** — the `gateway_throughput` closed loop on
//!   the same config, journal off vs journal on at the default `always`
//!   policy, alternated over seven window pairs and reported as the
//!   median requests/sec of each side and the relative slowdown. Journal appends happen on the dedicated writer
//!   thread, off the reply path, so the expected overhead is the
//!   record-construction cost plus channel send — small but honest
//!   numbers beat assumed-zero.

use stbus_gateway::{Gateway, GatewayConfig};
use stbus_journal::{
    recover, FsyncPolicy, JournalWriter, Record, RecordKind, RecordStatus, WriterOptions,
};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

/// Records per raw-append run. Large enough to cross many snapshot
/// boundaries (default cadence 64) and amortise spawn/close.
const APPENDS: usize = 2048;
/// Closed-loop clients for the end-to-end comparison (each waits for
/// its response before sending the next request).
const CLIENTS: usize = 2;
/// Per-client requests before each measured window.
const WARMUP_PER_CLIENT: usize = 2;
/// Per-client requests inside each measured window.
const REQUESTS_PER_CLIENT: usize = 96;
/// Alternating journal-off/journal-on windows; each figure is the median
/// over its windows. One window lasts a fraction of a second, so a
/// single pair is dominated by scheduling noise.
const PAIRS: usize = 7;
/// The identical request every client sends — same operating point as
/// the `gateway_throughput` row so the two are comparable.
const BODY: &str = r#"{"suite":"mat2","seed":42,"threshold":0.15}"#;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("stbus-journal-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A record shaped like what a cache-warm `/synthesize` hit journals:
/// the verbatim request body as the spec and a ~1 KiB response body as
/// the outcome.
fn realistic_record(i: usize) -> Record {
    Record {
        seq: 0,
        kind: RecordKind::Synthesize,
        status: RecordStatus::Ok,
        tenant: String::new(),
        spec: format!("{{\"suite\":\"mat2\",\"seed\":{i},\"threshold\":0.15}}"),
        outcome: format!(
            "{{\"app\":\"Mat2\",\"it\":{{\"assignment\":[{}],\"num_buses\":4}},\
             \"ti\":{{\"assignment\":[{}],\"num_buses\":3}},\
             \"artifact\":\"{i:016x}\"}}",
            "0,1,2,3,0,1,2,3,".repeat(28),
            "0,1,2,0,1,2,0,1,".repeat(28),
        ),
    }
}

/// Appends [`APPENDS`] realistic records under the given policy and
/// returns records/sec, durability included (`close()` is inside the
/// window).
fn append_throughput(policy: FsyncPolicy, dir: &std::path::Path) -> f64 {
    let writer = JournalWriter::spawn(
        dir,
        WriterOptions {
            fsync: policy,
            ..WriterOptions::default()
        },
        None,
    )
    .expect("spawn journal writer");
    let start = Instant::now();
    for i in 0..APPENDS {
        writer.append(realistic_record(i));
    }
    writer.close();
    APPENDS as f64 / start.elapsed().as_secs_f64()
}

/// One persistent keep-alive connection (same framing contract as the
/// `gateway_throughput` bench: workload responses carry Content-Length).
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

    fn post(&mut self, path: &str, body: &str) -> String {
        let request = format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream
            .write_all(request.as_bytes())
            .expect("write request");
        self.read_response()
    }

    fn read_response(&mut self) -> String {
        let header_end = loop {
            if let Some(pos) = find_subslice(&self.buf, b"\r\n\r\n") {
                break pos + 4;
            }
            self.fill();
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
            self.fill();
        }
        let response = String::from_utf8_lossy(&self.buf[..total]).to_string();
        self.buf.drain(..total);
        response
    }

    fn fill(&mut self) {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk).expect("read from gateway");
        assert!(n > 0, "gateway closed a kept-alive connection mid-response");
        self.buf.extend_from_slice(&chunk[..n]);
    }
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Runs the closed loop against a gateway with the given journal dir
/// (None = journaling off) and returns requests/sec over the measured
/// window.
fn closed_loop_rps(journal_dir: Option<PathBuf>) -> f64 {
    let config = GatewayConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 64,
        cache_entries: 64,
        log_requests: false,
        journal_dir,
        ..GatewayConfig::default()
    };
    assert!(
        WARMUP_PER_CLIENT + REQUESTS_PER_CLIENT <= config.keep_alive_requests,
        "each client must fit its whole run on one kept-alive connection"
    );
    let gateway = Gateway::spawn(&config).expect("bind gateway");
    let addr = gateway.addr();

    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = KeepAliveClient::connect(addr);
                for _ in 0..WARMUP_PER_CLIENT {
                    let response = client.post("/synthesize", BODY);
                    assert!(response.starts_with("HTTP/1.1 200"), "warmup: {response}");
                }
                barrier.wait();
                for _ in 0..REQUESTS_PER_CLIENT {
                    let response = client.post("/synthesize", BODY);
                    assert!(response.starts_with("HTTP/1.1 200"), "measured: {response}");
                }
            })
        })
        .collect();

    barrier.wait();
    let window = Instant::now();
    for client in clients {
        client.join().expect("client thread");
    }
    let wall_s = window.elapsed().as_secs_f64();

    gateway.shutdown();
    gateway.join();
    (CLIENTS * REQUESTS_PER_CLIENT) as f64 / wall_s
}

fn main() {
    let host_parallelism = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // Raw append throughput per fsync policy, durability included.
    let mut append_rows = Vec::new();
    let mut always_dir = None;
    for (name, policy) in [
        ("always", FsyncPolicy::Always),
        ("snapshot", FsyncPolicy::OnSnapshot),
        ("never", FsyncPolicy::Never),
    ] {
        let dir = scratch_dir(name);
        let records_per_sec = append_throughput(policy, &dir);
        println!("append[{name}]: {records_per_sec:.0} records/s");
        append_rows.push(format!("\"{name}\": {records_per_sec:.0}"));
        if name == "always" {
            always_dir = Some(dir);
        } else {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // Recovery latency over the `always` journal (snapshot + suffix).
    let always_dir = always_dir.expect("always run keeps its dir");
    let start = Instant::now();
    let state = recover(&always_dir).expect("recover");
    let recover_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        state.counters.served, APPENDS as u64,
        "recovery must account every appended record"
    );
    println!("recover: {recover_ms:.2} ms for {APPENDS} records");
    let _ = std::fs::remove_dir_all(&always_dir);

    // End-to-end: same closed loop, journal off vs on (default policy),
    // alternated so drift on the host hits both sides alike.
    let mut off = Vec::with_capacity(PAIRS);
    let mut on = Vec::with_capacity(PAIRS);
    for _ in 0..PAIRS {
        off.push(closed_loop_rps(None));
        let journal_dir = scratch_dir("e2e");
        on.push(closed_loop_rps(Some(journal_dir.clone())));
        let _ = std::fs::remove_dir_all(&journal_dir);
    }
    off.sort_by(f64::total_cmp);
    on.sort_by(f64::total_cmp);
    let (rps_off, rps_on) = (off[PAIRS / 2], on[PAIRS / 2]);
    let overhead_pct = (rps_off / rps_on - 1.0) * 100.0;
    println!("gateway: {rps_off:.2} rps journal-off, {rps_on:.2} rps journal-on (always) — {overhead_pct:+.1}% overhead");

    let warning = stbus_bench::host_warning_json(host_parallelism, "requests_per_sec");
    let row = format!(
        "{{\"date\": \"{date}\", \"host_parallelism\": {host_parallelism}, \
         \"append\": {{\"records\": {APPENDS}, \"record_bytes\": {record_bytes}, \
         \"records_per_sec\": {{{appends}}}}}, \
         \"recover_ms\": {recover_ms:.2}, \
         \"gateway\": {{\"clients\": {CLIENTS}, \"requests\": {requests}, \
         \"windows\": {PAIRS}, \
         \"requests_per_sec_off\": {rps_off:.2}, \"requests_per_sec_on\": {rps_on:.2}, \
         \"fsync\": \"always\", \"overhead_pct\": {overhead_pct:.1}}}, \
         \"warning\": {warning}}}",
        date = stbus_bench::today_utc(),
        record_bytes = realistic_record(0).spec.len() + realistic_record(0).outcome.len(),
        appends = append_rows.join(", "),
        requests = CLIENTS * REQUESTS_PER_CLIENT,
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_phase3.json");
    let snapshot = std::fs::read_to_string(path).unwrap_or_else(|_| String::from("{}\n"));
    let snapshot = stbus_bench::merge_top_level(&snapshot, "journal_overhead", &row);
    std::fs::write(path, &snapshot).expect("write BENCH_phase3.json");
    println!("wrote {path}");
    println!("journal_overhead: {row}");
}
