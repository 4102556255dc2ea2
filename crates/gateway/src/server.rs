//! The gateway server: accept loop, connection threads, worker pool and
//! shutdown orchestration.
//!
//! # Life of a request
//!
//! A connection thread reads HTTP requests off a persistent (keep-alive)
//! connection, up to [`GatewayConfig::keep_alive_requests`] per
//! connection and with [`GatewayConfig::idle_timeout_ms`] between them;
//! `Connection: close` (or hitting either limit) ends the connection
//! after the current response. Every request is stamped with a
//! process-unique id, echoed in the `X-Request-Id` response header and
//! in the gateway's log lines, so a client report ("request 1742 was
//! slow") is greppable end to end.
//!
//! Control routes (`GET /stats`, `POST /shutdown`) are answered inline.
//! Work routes (`POST /synthesize`, `/sweep`, `/suite`) are parsed and
//! validated (`400` on failure), then submitted to the bounded ingress
//! queue under the request's tenant (`X-Tenant` header, `"default"` when
//! absent) — a full queue answers `429` with `Retry-After`, a closed one
//! `503`. A worker thread claims the job in round-robin tenant order,
//! runs it (see below), and sends replies back over a channel; the
//! connection thread writes them to the socket.
//!
//! # Cancellation
//!
//! Every admitted job carries a root [`CancelToken`]. While waiting for
//! replies the connection thread polls its socket; when the client has
//! gone away (EOF, or a failed chunk write) it raises the token, and the
//! solver layers abandon the search at their next poll — a dropped
//! connection stops burning cores mid-solve, not at the next request
//! boundary. (The liveness probe uses `peek`, so pipelined request bytes
//! are never consumed by it.) Queued jobs cancelled by shutdown are
//! answered `503`.
//!
//! # Execution
//!
//! A worker runs the job through the `route` module, the one
//! implementation of each work route, against the server's caches and
//! artifact store, each bounded by [`GatewayConfig::cache_entries`].
//! Journal replay runs the same code. The route ends in an outcome, and
//! `finish` turns that into the reply, the journal record and the
//! `/stats` counters in one place: a body answers `200` (or ends the
//! sweep's stream), an artifact miss `404`, a refused delta or an
//! oversized analysis `400`, a solver failure `500` and a cancellation
//! `499`. `/stats` exposes `delta_reuse` / `delta_miss` counters, plus a
//! `by_tenant` breakdown attributing served requests and delta reuse to
//! the `X-Tenant` that earned them.

use crate::admission::{IngressQueue, SubmitError};
use crate::http::{self, ChunkedWriter, ReadOutcome, Request};
use crate::route::{self, RouteError, Routes, Sink};
use crate::wire::{self, WorkRequest, WorkSpec};
use stbus_exec::CancelToken;
use stbus_journal::{FsyncPolicy, JournalWriter, Record, RecordKind, RecordStatus, WriterOptions};
use stbus_milp::Binding;
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server construction knobs (the CLI's `stbus serve` flags).
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address; port 0 picks a free port (see [`Gateway::addr`]).
    pub addr: String,
    /// Worker threads executing admitted jobs.
    pub workers: usize,
    /// Ingress queue depth (waiting jobs) — the admission bound.
    pub queue_depth: usize,
    /// Per-tenant admission quota (waiting jobs per `X-Tenant` lane);
    /// `None` = the global depth, i.e. no separate quota. Refusals
    /// answer `429` and are attributed to the tenant in `/stats`.
    pub tenant_queue_depth: Option<usize>,
    /// Capacity of each artifact cache, in ready entries.
    pub cache_entries: usize,
    /// Requests served per connection before the gateway closes it —
    /// bounds how long one client can monopolise a connection thread.
    pub keep_alive_requests: usize,
    /// Idle time between requests on a kept-alive connection before it
    /// is closed, in milliseconds. Also bounds how long a half-received
    /// request may stall (answered `400`).
    pub idle_timeout_ms: u64,
    /// Log one line per work request (id, tenant, route) to stderr.
    pub log_requests: bool,
    /// Event-journal directory (`--journal-dir`). `None` disables
    /// journaling: the gateway runs exactly as before, all state
    /// in-memory only. When set, every request appends one record, and
    /// startup recovers counters and artifact caches from the directory
    /// **before** the listener binds.
    pub journal_dir: Option<PathBuf>,
    /// Journal fsync cadence (`--journal-fsync`); only bounds what a
    /// power loss can lose — see [`stbus_journal::FsyncPolicy`].
    pub journal_fsync: FsyncPolicy,
    /// Emit a recovery snapshot every this many journal records
    /// (`--snapshot-every`; 0 disables snapshots).
    pub journal_snapshot_every: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            workers: stbus_exec::parallelism().max(1),
            queue_depth: 32,
            tenant_queue_depth: None,
            cache_entries: 64,
            keep_alive_requests: 100,
            idle_timeout_ms: 5_000,
            log_requests: true,
            journal_dir: None,
            journal_fsync: FsyncPolicy::Always,
            journal_snapshot_every: 64,
        }
    }
}

/// How a worker classified one reply stream.
enum Reply {
    /// Single complete response.
    Done {
        status: u16,
        reason: &'static str,
        body: String,
    },
    /// Start of a chunked stream (sweeps).
    StreamStart,
    /// One stream line.
    Chunk(String),
    /// End of a successful stream.
    StreamEnd,
}

impl Reply {
    fn done(status: u16, reason: &'static str, body: String) -> Self {
        Self::Done {
            status,
            reason,
            body,
        }
    }
}

/// One admitted unit of work.
struct Job {
    /// Process-unique request id (the `X-Request-Id` the client saw).
    id: u64,
    /// The tenant the request was admitted under.
    tenant: String,
    work: WorkRequest,
    /// What the journal records as this request's input spec: the body
    /// verbatim for workload-mode requests, `trace:<digest>` for
    /// trace-mode ones (see [`journal_spec`]).
    spec: String,
    token: CancelToken,
    reply: Sender<Reply>,
}

/// Per-tenant served/reuse/rejection counters for the `/stats` breakdown.
#[derive(Debug, Default, Clone, Copy)]
struct TenantCounters {
    served: u64,
    delta_reuse: u64,
    /// `429`s this tenant earned by filling its own lane quota — the
    /// per-tenant reason behind a rejection count that would otherwise
    /// be indistinguishable from global queue pressure.
    rejected_quota: u64,
}

/// State shared by the acceptor, connection threads and workers.
struct Shared {
    queue: IngressQueue<Job>,
    routes: Routes,
    served: AtomicU64,
    rejected: AtomicU64,
    cancelled: AtomicU64,
    delta_reuse: AtomicU64,
    delta_miss: AtomicU64,
    next_request_id: AtomicU64,
    tenants: Mutex<BTreeMap<String, TenantCounters>>,
    active: AtomicUsize,
    connections: AtomicUsize,
    shutdown: AtomicBool,
    keep_alive_requests: usize,
    idle_timeout: Duration,
    log_requests: bool,
    /// The event journal's append side; `None` when journaling is off.
    journal: Option<JournalWriter>,
}

impl Shared {
    /// Appends one request event to the journal (no-op when journaling
    /// is off). Fire-and-forget: the writer thread owns the file, so
    /// this never blocks a worker or connection thread on disk I/O.
    fn journal_event(
        &self,
        kind: RecordKind,
        status: RecordStatus,
        tenant: &str,
        spec: &str,
        outcome: &str,
    ) {
        if let Some(journal) = &self.journal {
            journal.append(Record {
                seq: 0, // assigned by the writer thread
                kind,
                status,
                tenant: tenant.to_string(),
                spec: spec.to_string(),
                outcome: outcome.to_string(),
            });
        }
    }

    fn bump_tenant(&self, tenant: &str, delta_reuse: bool) {
        let mut tenants = self.tenants.lock().expect("tenant counters");
        let entry = tenants.entry(tenant.to_string()).or_default();
        if delta_reuse {
            entry.delta_reuse += 1;
        } else {
            entry.served += 1;
        }
    }

    fn bump_tenant_quota_rejection(&self, tenant: &str) {
        let mut tenants = self.tenants.lock().expect("tenant counters");
        tenants
            .entry(tenant.to_string())
            .or_default()
            .rejected_quota += 1;
    }
}

/// A running gateway. Dropping the handle does **not** stop the server;
/// call [`Gateway::shutdown`] (or POST `/shutdown`) then
/// [`Gateway::join`].
pub struct Gateway {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Gateway {
    /// Binds, spawns the acceptor and worker threads, and returns.
    ///
    /// With [`GatewayConfig::journal_dir`] set, recovery runs first —
    /// torn-tail truncation, counter restoration, artifact-cache rebuild
    /// from the journaled request history — and only then does the
    /// listener bind, so no request can ever observe half-restored
    /// state.
    ///
    /// # Errors
    ///
    /// Any bind failure, or an I/O failure recovering or opening the
    /// journal.
    pub fn spawn(config: &GatewayConfig) -> io::Result<Self> {
        let recovered = match &config.journal_dir {
            Some(dir) => Some(stbus_journal::recover(dir)?),
            None => None,
        };
        let journal = match &config.journal_dir {
            Some(dir) => Some(JournalWriter::spawn(
                dir,
                WriterOptions {
                    fsync: config.journal_fsync,
                    snapshot_every: config.journal_snapshot_every,
                    ..WriterOptions::default()
                },
                recovered.as_ref(),
            )?),
            None => None,
        };
        let counters = recovered
            .as_ref()
            .map(|r| r.counters.clone())
            .unwrap_or_default();
        let shared = Arc::new(Shared {
            queue: IngressQueue::new(config.queue_depth.max(1)).with_tenant_depth(
                config
                    .tenant_queue_depth
                    .unwrap_or(config.queue_depth)
                    .max(1),
            ),
            routes: Routes::new(config.cache_entries.max(1)),
            served: AtomicU64::new(counters.served),
            rejected: AtomicU64::new(counters.rejected),
            cancelled: AtomicU64::new(counters.cancelled),
            delta_reuse: AtomicU64::new(counters.delta_reuse),
            delta_miss: AtomicU64::new(counters.delta_miss),
            next_request_id: AtomicU64::new(0),
            tenants: Mutex::new(
                counters
                    .tenants
                    .iter()
                    .map(|(name, t)| {
                        (
                            name.clone(),
                            TenantCounters {
                                served: t.served,
                                delta_reuse: t.delta_reuse,
                                rejected_quota: t.rejected_quota,
                            },
                        )
                    })
                    .collect(),
            ),
            active: AtomicUsize::new(0),
            connections: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            keep_alive_requests: config.keep_alive_requests.max(1),
            idle_timeout: Duration::from_millis(config.idle_timeout_ms.max(1)),
            log_requests: config.log_requests,
            journal,
        });
        if let Some(state) = &recovered {
            let rebuilt = rebuild_caches(&shared, &state.ring);
            eprintln!(
                "stbus gateway recovered: {} journal records after snapshot, \
                 {rebuilt} artifacts rebuilt, {} torn bytes truncated",
                state.journaled, state.truncated_bytes,
            );
        }

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gw-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gw-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept thread")
        };

        Ok(Self {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates graceful shutdown, exactly like `POST /shutdown`: stop
    /// accepting, cancel queued jobs (they answer `503`), let in-flight
    /// jobs drain. Idempotent. Follow with [`Gateway::join`].
    pub fn shutdown(&self) {
        begin_shutdown(&self.shared, self.addr);
    }

    /// Waits for the acceptor and all workers to exit, then for open
    /// connections to finish writing their replies. Returns when the
    /// server is fully drained.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Connection threads are detached; wait (bounded) for the last
        // replies to reach their sockets.
        for _ in 0..1_000 {
            if self.shared.connections.load(Ordering::Acquire) == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // All producers of journal events have drained; flush and stop
        // the writer so the log ends on a clean frame boundary.
        if let Some(journal) = &self.shared.journal {
            journal.close();
        }
    }

    /// Spawns, then blocks until a `/shutdown` request drains the server
    /// — the body of `stbus serve`.
    ///
    /// # Errors
    ///
    /// Any bind failure.
    pub fn serve(config: &GatewayConfig) -> io::Result<()> {
        let gateway = Self::spawn(config)?;
        eprintln!(
            "stbus gateway listening on {} ({} workers, queue depth {}, \
             keep-alive {} requests / {}ms idle)",
            gateway.addr(),
            config.workers.max(1),
            config.queue_depth.max(1),
            config.keep_alive_requests.max(1),
            config.idle_timeout_ms.max(1),
        );
        gateway.join();
        Ok(())
    }
}

/// Raises the shutdown flag, drains the queue and pokes the acceptor.
fn begin_shutdown(shared: &Arc<Shared>, addr: SocketAddr) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    for job in shared.queue.close() {
        job.token.cancel();
        shared.cancelled.fetch_add(1, Ordering::Relaxed);
        // No worker ran the job, so a delta resolved no artifact and
        // counts no `delta_reuse`; the outcome tells recovery so.
        shared.journal_event(
            route::record_kind(&job.work),
            RecordStatus::Cancelled,
            &job.tenant,
            &job.spec,
            stbus_journal::DRAINED_OUTCOME,
        );
        let _ = job.reply.send(Reply::done(
            503,
            "Service Unavailable",
            "{\"error\":\"shutting down\"}\n".to_string(),
        ));
    }
    // The acceptor is parked in accept(); a loopback connection wakes it
    // so it can observe the flag and exit.
    let _ = TcpStream::connect(addr);
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break; // wake-up poke or late client; stop accepting
        }
        let Ok(stream) = stream else { continue };
        let conn_shared = Arc::clone(shared);
        let addr = listener.local_addr().expect("bound listener");
        shared.connections.fetch_add(1, Ordering::AcqRel);
        let spawned = std::thread::Builder::new()
            .name("gw-conn".to_string())
            .spawn(move || {
                let mut stream = stream;
                handle_connection(&mut stream, &conn_shared, addr);
                conn_shared.connections.fetch_sub(1, Ordering::AcqRel);
            });
        if spawned.is_err() {
            shared.connections.fetch_sub(1, Ordering::AcqRel);
        }
    }
    // Dropping the listener closes the socket: later connects are refused.
}

/// Serves requests off one connection until the client closes, the
/// per-connection request cap is reached, the idle timeout fires, or a
/// response decides the connection cannot be kept (malformed request,
/// shutdown, failed write).
fn handle_connection(stream: &mut TcpStream, shared: &Arc<Shared>, addr: SocketAddr) {
    let _ = stream.set_read_timeout(Some(shared.idle_timeout));
    // Every response leaves in one write (see `http`); without this,
    // Nagle holds a keep-alive response until the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    let mut carry = Vec::new();
    for served in 0..shared.keep_alive_requests {
        let request = match http::read_request(stream, &mut carry) {
            Ok(request) => request,
            Err(ReadOutcome::Closed) => return, // clean close or idle timeout
            Err(ReadOutcome::Malformed(_)) => {
                // Framing is unrecoverable mid-stream; answer and close.
                let _ = http::respond(
                    stream,
                    400,
                    "Bad Request",
                    "{\"error\":\"malformed request\"}\n",
                    &[],
                    false,
                );
                return;
            }
        };
        let req_id = shared.next_request_id.fetch_add(1, Ordering::Relaxed) + 1;
        let keep_alive = !request.wants_close()
            && served + 1 < shared.keep_alive_requests
            && !shared.shutdown.load(Ordering::SeqCst);
        if !route(stream, shared, addr, &request, req_id, keep_alive) {
            return;
        }
    }
}

/// Dispatches one request; returns whether the connection stays open.
fn route(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    addr: SocketAddr,
    request: &Request,
    req_id: u64,
    keep_alive: bool,
) -> bool {
    let rid = format!("X-Request-Id: {req_id}");
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/stats") => {
            let ok =
                http::respond(stream, 200, "OK", &stats_json(shared), &[&rid], keep_alive).is_ok();
            keep_alive && ok
        }
        ("POST", "/shutdown") => {
            begin_shutdown(shared, addr);
            let _ = http::respond(
                stream,
                200,
                "OK",
                "{\"shutting_down\":true}\n",
                &[&rid],
                false,
            );
            false
        }
        ("POST", "/synthesize") => dispatch(
            stream,
            shared,
            request,
            wire::parse_synthesize_route(&request.body),
            req_id,
            keep_alive,
        ),
        ("POST", "/sweep") => dispatch(
            stream,
            shared,
            request,
            wire::parse_sweep(&request.body).map(WorkRequest::Sweep),
            req_id,
            keep_alive,
        ),
        ("POST", "/suite") => dispatch(
            stream,
            shared,
            request,
            wire::parse_suite(&request.body).map(WorkRequest::Suite),
            req_id,
            keep_alive,
        ),
        ("GET" | "POST", _) => {
            let ok = http::respond(
                stream,
                404,
                "Not Found",
                "{\"error\":\"no such route\"}\n",
                &[&rid],
                keep_alive,
            )
            .is_ok();
            keep_alive && ok
        }
        _ => {
            let ok = http::respond(
                stream,
                405,
                "Method Not Allowed",
                "{\"error\":\"unsupported method\"}\n",
                &[&rid],
                keep_alive,
            )
            .is_ok();
            keep_alive && ok
        }
    }
}

/// Admits a parsed work request and relays its replies to the socket.
/// Returns whether the connection survives for another request.
fn dispatch(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    request: &Request,
    parsed: Result<WorkRequest, String>,
    req_id: u64,
    keep_alive: bool,
) -> bool {
    let rid = format!("X-Request-Id: {req_id}");
    let tenant = request.header("x-tenant").unwrap_or("default").to_string();
    if shared.log_requests {
        eprintln!(
            "gw req={req_id} tenant={tenant} {} {}",
            request.method, request.path
        );
    }
    let work = match parsed {
        Ok(work) => work,
        Err(message) => {
            let body = format!("{{\"error\":\"{}\"}}\n", stbus_core::json_escape(&message));
            let ok = http::respond(stream, 400, "Bad Request", &body, &[&rid], keep_alive).is_ok();
            return keep_alive && ok;
        }
    };
    if shared.shutdown.load(Ordering::SeqCst) {
        let _ = http::respond(
            stream,
            503,
            "Service Unavailable",
            "{\"error\":\"shutting down\"}\n",
            &[&rid],
            false,
        );
        return false;
    }

    let token = CancelToken::new();
    let (reply_tx, reply_rx) = mpsc::channel();
    let kind = route::record_kind(&work);
    let job = Job {
        id: req_id,
        tenant: tenant.clone(),
        spec: journal_spec(&work, &request.body),
        work,
        token: token.clone(),
        reply: reply_tx,
    };
    match shared.queue.submit(&tenant, job) {
        Ok(()) => {}
        Err(SubmitError::QueueFull) => {
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            shared.journal_event(kind, RecordStatus::RejectedQueue, &tenant, "", "");
            let ok = http::respond(
                stream,
                429,
                "Too Many Requests",
                "{\"error\":\"queue full, retry later\"}\n",
                &["Retry-After: 1", &rid],
                keep_alive,
            )
            .is_ok();
            return keep_alive && ok;
        }
        Err(SubmitError::TenantQueueFull) => {
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            shared.bump_tenant_quota_rejection(&tenant);
            shared.journal_event(kind, RecordStatus::RejectedQuota, &tenant, "", "");
            let ok = http::respond(
                stream,
                429,
                "Too Many Requests",
                "{\"error\":\"tenant queue full, retry later\"}\n",
                &["Retry-After: 1", &rid],
                keep_alive,
            )
            .is_ok();
            return keep_alive && ok;
        }
        Err(SubmitError::ShuttingDown) => {
            let _ = http::respond(
                stream,
                503,
                "Service Unavailable",
                "{\"error\":\"shutting down\"}\n",
                &[&rid],
                false,
            );
            return false;
        }
    }

    relay_replies(stream, &token, &reply_rx, &rid, keep_alive)
}

/// Pumps worker replies to the socket, watching for client departure.
/// Returns whether the connection is still coherent for another request.
fn relay_replies(
    stream: &mut TcpStream,
    token: &CancelToken,
    replies: &Receiver<Reply>,
    rid: &str,
    keep_alive: bool,
) -> bool {
    let mut chunked: Option<ChunkedWriter<'_>> = None;
    // `chunked` borrows `stream`, so the loop is split: fixed replies
    // are handled in the first phase, stream replies in the second.
    loop {
        match replies.recv_timeout(Duration::from_millis(50)) {
            Ok(Reply::Done {
                status,
                reason,
                body,
            }) => {
                let ok = http::respond(stream, status, reason, &body, &[rid], keep_alive).is_ok();
                return keep_alive && ok;
            }
            Ok(Reply::StreamStart) => break,
            Ok(Reply::Chunk(_) | Reply::StreamEnd) => {
                unreachable!("stream replies before StreamStart")
            }
            Err(RecvTimeoutError::Timeout) => {
                if http::peer_closed(stream) {
                    // Raise the token and leave; the worker observes the
                    // cancellation and owns the `cancelled` counter (the
                    // solve may also race to completion and count as
                    // served — either way it is counted exactly once).
                    token.cancel();
                    return false;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return false,
        }
    }

    match ChunkedWriter::begin(stream, 200, "OK", &[rid], keep_alive) {
        Ok(writer) => chunked = Some(writer),
        Err(_) => token.cancel(),
    }
    loop {
        match replies.recv_timeout(Duration::from_millis(50)) {
            Ok(Reply::Chunk(line)) => {
                if let Some(writer) = chunked.as_mut() {
                    if writer.chunk(&line).is_err() {
                        // Client went away mid-stream: stop the work
                        // (the worker counts the cancellation).
                        chunked = None;
                        token.cancel();
                    }
                }
            }
            Ok(Reply::StreamEnd) => {
                if let Some(writer) = chunked.take() {
                    let ok = writer.end().is_ok();
                    return keep_alive && ok;
                }
                return false;
            }
            Ok(Reply::Done { .. } | Reply::StreamStart) => {
                unreachable!("fixed replies after StreamStart")
            }
            Err(RecvTimeoutError::Timeout) => {
                // Between chunks nothing is written, so a vanished client
                // would otherwise go unnoticed until the next θ point
                // finishes solving. Probe the socket while idle and raise
                // the token the moment the peer is gone — the worker
                // observes the cancellation mid-solve and owns the
                // `cancelled` counter (counted exactly once, as always).
                if let Some(writer) = chunked.as_ref() {
                    if writer.client_gone() {
                        chunked = None;
                        token.cancel();
                    }
                }
                // `chunked.is_none()`: already cancelled; keep draining
                // until the worker notices and closes the channel.
            }
            Err(RecvTimeoutError::Disconnected) => {
                if let Some(writer) = chunked.take() {
                    let _ = writer.end();
                }
                return false;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Worker side: running admitted jobs through the routes.
// ---------------------------------------------------------------------

/// The live sink: a sweep's lines reach the connection thread as the
/// chunks of one stream.
struct ReplySink<'a> {
    reply: &'a Sender<Reply>,
    /// Whether the stream has started, after which a reply can only be
    /// a chunk or the stream's end.
    streaming: bool,
}

impl Sink for ReplySink<'_> {
    fn start(&mut self) {
        self.streaming = true;
        let _ = self.reply.send(Reply::StreamStart);
    }

    fn line(&mut self, line: String) {
        let _ = self.reply.send(Reply::Chunk(line));
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.next() {
        shared.active.fetch_add(1, Ordering::AcqRel);
        let mut sink = ReplySink {
            reply: &job.reply,
            streaming: false,
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            shared.routes.run(&job.work, None, &job.token, &mut sink)
        }))
        .unwrap_or_else(|_| Err(RouteError::Solver("internal error".to_string())));
        finish(shared, &job, outcome, sink.streaming);
        shared.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Turns a route's outcome into the job's counters, its journal record
/// and its reply, in that order: a client that has read its answer sees
/// it counted in `/stats`. After a stream has started only a successful
/// end is sent; otherwise the relay has already cancelled (or sees the
/// channel close) and ends the connection.
fn finish(shared: &Shared, job: &Job, outcome: Result<String, RouteError>, streaming: bool) {
    if let WorkRequest::Delta(request) = &job.work {
        // Every delta but a miss resolved its artifact, whatever its
        // solve then did — the journal's counter recovery reads it so.
        let hit = !matches!(outcome, Err(RouteError::ArtifactMiss));
        if hit {
            shared.delta_reuse.fetch_add(1, Ordering::Relaxed);
            shared.bump_tenant(&job.tenant, true);
        } else {
            shared.delta_miss.fetch_add(1, Ordering::Relaxed);
        }
        if shared.log_requests {
            let event = if hit { "delta_reuse" } else { "delta_miss" };
            eprintln!(
                "gw req={} tenant={} {event} artifact={}",
                job.id, job.tenant, request.artifact
            );
        }
    }
    let error = |message: &str| format!("{{\"error\":\"{}\"}}\n", stbus_core::json_escape(message));
    let (status, journaled, reply) = match &outcome {
        Ok(body) => {
            shared.served.fetch_add(1, Ordering::Relaxed);
            shared.bump_tenant(&job.tenant, false);
            let reply = if streaming {
                Reply::StreamEnd
            } else {
                Reply::done(200, "OK", format!("{body}\n"))
            };
            (RecordStatus::Ok, body.as_str(), reply)
        }
        Err(RouteError::ArtifactMiss) => (
            RecordStatus::ArtifactMiss,
            "",
            Reply::done(
                404,
                "Not Found",
                "{\"error\":\"unknown artifact (evicted or never issued); \
                 re-request from scratch\"}\n"
                    .to_string(),
            ),
        ),
        Err(RouteError::BadRequest(message)) => (
            RecordStatus::Error,
            message.as_str(),
            Reply::done(400, "Bad Request", error(message)),
        ),
        Err(RouteError::Solver(message)) => (
            RecordStatus::Error,
            message.as_str(),
            Reply::done(500, "Internal Server Error", error(message)),
        ),
        Err(RouteError::Cancelled) => {
            shared.cancelled.fetch_add(1, Ordering::Relaxed);
            (
                RecordStatus::Cancelled,
                "",
                Reply::done(499, "Client Closed Request", error("cancelled")),
            )
        }
    };
    shared.journal_event(
        route::record_kind(&job.work),
        status,
        &job.tenant,
        &job.spec,
        journaled,
    );
    if !streaming || matches!(reply, Reply::StreamEnd) {
        let _ = job.reply.send(reply);
    }
}

/// What the journal stores as a request's input spec. Workload-mode
/// bodies are journaled verbatim (they embed the design parameters and
/// any delta, and are small); trace-mode bodies carry the full
/// interchange trace — up to 16 MiB — so only a content digest is kept,
/// making those records audit-only rather than replayable.
fn journal_spec(work: &WorkRequest, body: &str) -> String {
    let trace_mode = match work {
        WorkRequest::Synthesize(r) => matches!(r.work, WorkSpec::Trace(_)),
        WorkRequest::Sweep(r) => matches!(r.base.work, WorkSpec::Trace(_)),
        WorkRequest::Suite(_) | WorkRequest::Delta(_) => false,
    };
    if trace_mode {
        format!("trace:{:016x}", route::fnv1a(&[], body.as_bytes()))
    } else {
        body.to_string()
    }
}

/// Rebuilds the artifact caches from the snapshot ring of journaled
/// requests, in journal order (so a chained delta always finds its
/// already-restored parent). No solver runs: phases 1–2 are recomputed
/// through the regular caches (cheap, deterministic), and the bindings
/// come straight out of the recorded response bodies — exactly what a
/// client holding an old `"artifact"` address expects to still resolve
/// after a restart. Records that no longer restore (evicted parent,
/// undecodable outcome) are skipped, not fatal: the client's fallback
/// for an unknown address is a from-scratch request, same as an LRU
/// eviction in a live process. Returns the number of artifacts rebuilt.
fn rebuild_caches(shared: &Arc<Shared>, ring: &[Record]) -> usize {
    let mut rebuilt = 0;
    for record in ring {
        let restored = match record.kind {
            RecordKind::Synthesize => restore_synthesize(shared, record),
            RecordKind::Delta => restore_delta(shared, record),
            RecordKind::Sweep | RecordKind::Suite => false,
        };
        if restored {
            rebuilt += 1;
        }
    }
    rebuilt
}

/// Restores one journaled workload-mode `/synthesize` success: rebuild
/// phases 1–2 through the caches, take the bindings from the recorded
/// response, deposit under the recomputed content address (identical to
/// the issued one — the address is a pure function of the spec).
fn restore_synthesize(shared: &Arc<Shared>, record: &Record) -> bool {
    let Ok(WorkRequest::Synthesize(request)) = wire::parse_synthesize_route(&record.spec) else {
        return false;
    };
    let WorkSpec::Workload(spec) = &request.work else {
        return false;
    };
    let Some((warm_it, warm_ti)) = bindings_from_outcome(&record.outcome) else {
        return false;
    };
    let Ok(front) = shared.routes.front.front(spec, &request.params) else {
        return false;
    };
    shared.routes.artifacts.insert(
        front.address(&request),
        Arc::new(front.resynth_artifact(&request, warm_it, warm_ti)),
    );
    true
}

/// Restores one journaled delta success by chaining off its (already
/// restored) parent: re-patch the analysis, take the bindings from the
/// recorded response, deposit under the recorded chained address.
fn restore_delta(shared: &Arc<Shared>, record: &Record) -> bool {
    let Ok(WorkRequest::Delta(request)) = wire::parse_synthesize_route(&record.spec) else {
        return false;
    };
    let Some(stored) = shared.routes.artifacts.get(&request.artifact) else {
        return false;
    };
    let Some((warm_it, warm_ti)) = bindings_from_outcome(&record.outcome) else {
        return false;
    };
    let Some(address) = outcome_artifact_address(&record.outcome) else {
        return false;
    };
    let Ok(re) = stored.reanalyze(&request.delta) else {
        return false;
    };
    shared.routes.artifacts.insert(
        address,
        Arc::new(stored.chained(&re, &request.delta, warm_it, warm_ti)),
    );
    true
}

/// Extracts both directions' bindings from a recorded both-direction
/// response body: each direction contributes
/// its `assignment` array and `max_bus_overlap` — the warm starts a
/// recovered artifact resumes from.
fn bindings_from_outcome(outcome: &str) -> Option<(Binding, Binding)> {
    let value = crate::json::parse(outcome).ok()?;
    let it = binding_from_value(value.get("it")?)?;
    let ti = binding_from_value(value.get("ti")?)?;
    Some((it, ti))
}

fn binding_from_value(value: &crate::json::Value) -> Option<Binding> {
    let assignment = value
        .get("assignment")?
        .as_array()?
        .iter()
        .map(|v| v.as_u64().map(|n| n as usize))
        .collect::<Option<Vec<_>>>()?;
    let overlap = value.get("max_bus_overlap")?.as_u64()?;
    Some(Binding::from_assignment_with_overlap(assignment, overlap))
}

/// The `"artifact"` content address a recorded response carried — the
/// authoritative name a client may still hold for the deposit.
pub(crate) fn outcome_artifact_address(outcome: &str) -> Option<String> {
    let value = crate::json::parse(outcome).ok()?;
    Some(value.get("artifact")?.as_str()?.to_string())
}

/// Renders the `/stats` document.
fn stats_json(shared: &Shared) -> String {
    let collect = shared.routes.front.collect.stats();
    let analysis = shared.routes.front.analysis.stats();
    let resynth = shared.routes.artifacts.stats();
    let cache = |s: crate::cache::CacheStats| {
        format!(
            "{{\"hits\":{},\"misses\":{},\"inflight_waits\":{},\"entries\":{},\"capacity\":{}}}",
            s.hits, s.misses, s.inflight_waits, s.entries, s.capacity
        )
    };
    let by_tenant = {
        let tenants = shared.tenants.lock().expect("tenant counters");
        tenants
            .iter()
            .map(|(tenant, c)| {
                format!(
                    "\"{}\":{{\"served\":{},\"delta_reuse\":{},\"rejected_tenant_quota\":{}}}",
                    stbus_core::json_escape(tenant),
                    c.served,
                    c.delta_reuse,
                    c.rejected_quota
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{{\"queue\":{{\"depth\":{},\"tenant_depth\":{},\"queued\":{},\"tenants\":{}}},\
         \"requests\":{{\"served\":{},\"rejected\":{},\"cancelled\":{},\"active\":{},\
         \"delta_reuse\":{},\"delta_miss\":{}}},\
         \"collect_cache\":{},\"analysis_cache\":{},\"resynth_cache\":{},\
         \"by_tenant\":{{{}}}}}\n",
        shared.queue.depth(),
        shared.queue.tenant_depth(),
        shared.queue.queued(),
        shared.queue.tenants(),
        shared.served.load(Ordering::Relaxed),
        shared.rejected.load(Ordering::Relaxed),
        shared.cancelled.load(Ordering::Relaxed),
        shared.active.load(Ordering::Acquire),
        shared.delta_reuse.load(Ordering::Relaxed),
        shared.delta_miss.load(Ordering::Relaxed),
        cache(collect),
        cache(analysis),
        cache(resynth),
        by_tenant,
    )
}
