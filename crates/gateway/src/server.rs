//! The gateway server: accept loop, connection threads, worker pool,
//! shutdown orchestration and the artifact-cached execution paths.
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
//! runs it through the artifact caches, and streams replies back over a
//! channel; the connection thread writes them to the socket.
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
//! # Caching
//!
//! Workload-mode requests run the staged pipeline through two
//! process-wide [`SingleFlightCache`]s, each bounded by
//! [`GatewayConfig::cache_entries`]:
//!
//! * **collect cache** — key `[WorkloadSpec fingerprint, CollectionKey
//!   fingerprint…]`, value a `CollectEntry`: the `Arc<Application>`
//!   the spec builds, its [`Application::content_digest`], and the
//!   phase-1 `Arc<CollectedTraffic>` (the expensive reference
//!   simulation). Keying on the request's spec (generator and seed)
//!   means a warm request never regenerates its application or digests
//!   it again: [`WorkloadSpec::build`] is a pure function of the spec.
//! * **analysis cache** — key `[app digest, CollectionKey fingerprint…,
//!   AnalysisKey fingerprint…]`, value the phase-2 sweep-resident
//!   [`AnalysisArtifact`].
//!
//! Both keys are injective encodings of everything their value depends
//! on, so a cache hit is provably the same computation. A hit copies
//! nothing: `CachedAnalysis` holds `Arc`s of the entry's application,
//! traffic and analysis, the phase-2 re-threshold reads the traffic
//! through one more `Arc`, and the `ResynthArtifact` a solve deposits
//! shares the same three. The digest is computed once per collect miss
//! and reused for the analysis key and the artifact address.
//! `/suite` reaches the same entries through the five specs of
//! `WorkloadSpec::paper_suite`. Trace-mode requests bypass the caches
//! (their input has no application identity) and match the CLI byte for
//! byte.
//!
//! # Incremental re-synthesis
//!
//! Every successful workload-mode `/synthesize` response carries an
//! `"artifact"` content address naming a deposited [`ResynthArtifact`]:
//! the collected traffic, the phase-2 analysis, the design parameters
//! and solver knobs, and the bindings the solve produced. A later
//! request that names that address plus a `"delta"` object (see
//! [`crate::wire`]) skips phases 1–2 entirely: the worker rebuilds the
//! analyzed state from the artifact, patches it in `O(touched ×
//! targets)` via [`stbus_core::pipeline::Analyzed::reanalyze`], and runs
//! phase 3 *warm-started* from the previous bindings
//! ([`stbus_milp::SolveLimits::warm_start`]) — verdicts, probe logs and
//! bus counts are contractually identical to a cold solve; only the
//! returned binding may differ. The response carries a fresh chained
//! `"artifact"` address, so a client can keep editing incrementally.
//! An address this server never issued (or that LRU pressure evicted)
//! answers `404`; the client falls back to a from-scratch request.
//! `/stats` exposes `delta_reuse` / `delta_miss` counters, plus a
//! `by_tenant` breakdown attributing served requests and delta reuse to
//! the `X-Tenant` that earned them. A θ-only delta changes neither the
//! traffic nor the window analysis, so its deposit shares both `Arc`s
//! with its parent; a traffic delta owns its patched copies.
//!
//! [`AnalysisKey`]: stbus_core::pipeline::AnalysisKey
//! [`WorkloadSpec::build`]: crate::wire::WorkloadSpec::build

use crate::admission::{IngressQueue, SubmitError};
use crate::cache::SingleFlightCache;
use crate::http::{self, ChunkedWriter, ReadOutcome, Request};
use crate::wire::{
    self, DeltaRequest, SuiteRequest, SynthesizeRequest, WorkRequest, WorkSpec, WorkloadSpec,
};
use stbus_core::phase1::CollectedTraffic;
use stbus_core::pipeline::{
    AnalysisArtifact, AnalysisKey, Analyzed, Collected, CollectionKey, Pipeline,
};
use stbus_core::{DesignParams, FlowError, Preprocessed, SolverKind, Synthesizer};
use stbus_exec as exec;
use stbus_exec::CancelToken;
use stbus_journal::{FsyncPolicy, JournalWriter, Record, RecordKind, RecordStatus, WriterOptions};
use stbus_milp::{Binding, NodeLimitExceeded, WarmStart};
use stbus_traffic::workloads::Application;
use stbus_traffic::{AnalysisTooLarge, DeltaError, WindowStats, WorkloadDelta};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::num::NonZeroUsize;
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

/// Everything a delta request needs to resume where a previous request
/// left off: the collected traffic and phase-2 analysis (phases 1–2 are
/// skipped entirely), the parameters (solver knobs included) and strategy
/// the artifact pins, and the bindings the previous solve produced (the
/// warm starts).
/// Shared with [`crate::replay`], whose engine maintains the same store
/// to chain deltas during offline replay.
///
/// The traffic and analysis are shared, not copied: with the collect
/// and analysis cache entries they came from, and from parent to child
/// along a chain of θ-only deltas.
pub(crate) struct ResynthArtifact {
    app: Arc<Application>,
    params: DesignParams,
    pub(crate) solver: SolverKind,
    traffic: Arc<CollectedTraffic>,
    analysis: Arc<AnalysisArtifact>,
    warm_it: Binding,
    warm_ti: Binding,
}

/// State shared by the acceptor, connection threads and workers.
struct Shared {
    queue: IngressQueue<Job>,
    front: FrontCaches,
    /// Deposit-only store of re-synthesis artifacts, keyed by content
    /// address. Entries are only ever [`SingleFlightCache::insert`]ed
    /// (a miss answers `404`, nothing is recomputed) and share the LRU
    /// eviction of the other artifact caches.
    resynth_cache: SingleFlightCache<String, ResynthArtifact>,
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
            front: FrontCaches::new(config.cache_entries.max(1)),
            resynth_cache: SingleFlightCache::new(config.cache_entries.max(1)),
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
        shared.journal_event(
            record_kind(&job.work),
            RecordStatus::Cancelled,
            &job.tenant,
            &job.spec,
            "",
        );
        let _ = job.reply.send(Reply::Done {
            status: 503,
            reason: "Service Unavailable",
            body: "{\"error\":\"shutting down\"}\n".to_string(),
        });
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
    let kind = record_kind(&work);
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
// Worker side: executing admitted jobs through the artifact caches.
// ---------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.next() {
        shared.active.fetch_add(1, Ordering::AcqRel);
        let outcome = catch_unwind(AssertUnwindSafe(|| execute(shared, &job)));
        if outcome.is_err() {
            shared.journal_event(
                record_kind(&job.work),
                RecordStatus::Error,
                &job.tenant,
                &job.spec,
                "internal error",
            );
            let _ = job.reply.send(Reply::Done {
                status: 500,
                reason: "Internal Server Error",
                body: "{\"error\":\"internal error\"}\n".to_string(),
            });
        }
        shared.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The journal's classification of a work request.
fn record_kind(work: &WorkRequest) -> RecordKind {
    match work {
        WorkRequest::Synthesize(_) => RecordKind::Synthesize,
        WorkRequest::Sweep(_) => RecordKind::Sweep,
        WorkRequest::Suite(_) => RecordKind::Suite,
        WorkRequest::Delta(_) => RecordKind::Delta,
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
        format!("trace:{:016x}", fnv1a(&[], body.as_bytes()))
    } else {
        body.to_string()
    }
}

/// Grows the shared executor when a request asks for more parallelism,
/// mirroring the CLI's `--jobs` handling; returns the effective probe
/// width (`None` on the request = the executor's width).
pub(crate) fn effective_jobs(jobs: Option<NonZeroUsize>) -> Option<NonZeroUsize> {
    if let Some(jobs) = jobs {
        if jobs.get() > 1 {
            stbus_exec::ensure_workers(jobs.get());
        }
    }
    jobs.or_else(|| NonZeroUsize::new(stbus_exec::parallelism()))
}

fn execute(shared: &Arc<Shared>, job: &Job) {
    match &job.work {
        WorkRequest::Synthesize(request) => execute_synthesize(shared, request, job),
        WorkRequest::Sweep(_) => execute_sweep(shared, job),
        WorkRequest::Suite(request) => execute_suite(shared, request, job),
        WorkRequest::Delta(request) => execute_delta(shared, request, job),
    }
}

/// Sends the canonical terminal reply for a cancelled job.
fn reply_cancelled(shared: &Arc<Shared>, job: &Job) {
    shared.cancelled.fetch_add(1, Ordering::Relaxed);
    shared.journal_event(
        record_kind(&job.work),
        RecordStatus::Cancelled,
        &job.tenant,
        &job.spec,
        "",
    );
    let _ = job.reply.send(Reply::Done {
        status: 499,
        reason: "Client Closed Request",
        body: "{\"error\":\"cancelled\"}\n".to_string(),
    });
}

fn reply_solver_error(shared: &Arc<Shared>, job: &Job, error: &dyn std::fmt::Display) {
    let message = error.to_string();
    shared.journal_event(
        record_kind(&job.work),
        RecordStatus::Error,
        &job.tenant,
        &job.spec,
        &message,
    );
    let _ = job.reply.send(Reply::Done {
        status: 500,
        reason: "Internal Server Error",
        body: format!("{{\"error\":\"{}\"}}\n", stbus_core::json_escape(&message)),
    });
}

/// Answers `400` for a request refused at execution time — an invalid
/// delta, or a phase-2 window analysis too large to allocate — and
/// journals it as an error.
fn reply_bad_request(shared: &Arc<Shared>, job: &Job, message: &str) {
    shared.journal_event(
        record_kind(&job.work),
        RecordStatus::Error,
        &job.tenant,
        &job.spec,
        message,
    );
    let _ = job.reply.send(Reply::Done {
        status: 400,
        reason: "Bad Request",
        body: format!("{{\"error\":\"{}\"}}\n", stbus_core::json_escape(message)),
    });
}

/// One collect-cache entry: the application a workload spec builds,
/// its content digest, and its phase-1 traffic under one
/// [`CollectionKey`]. The entry is keyed by the spec, so a warm request
/// finds all three without generating, digesting or collecting again.
pub(crate) struct CollectEntry {
    app: Arc<Application>,
    digest: u64,
    traffic: Arc<CollectedTraffic>,
}

/// The two caches of the workload-mode front half. The live server
/// holds one pair, bounded by [`GatewayConfig::cache_entries`]; each
/// replay engine holds its own.
pub(crate) struct FrontCaches {
    /// Key: the [`WorkloadSpec`] fingerprint, then the
    /// [`CollectionKey`] fingerprint.
    collect: SingleFlightCache<[u64; 5], CollectEntry>,
    /// Key: the application digest, then the [`CollectionKey`] and
    /// [`AnalysisKey`] fingerprints.
    analysis: SingleFlightCache<[u64; 8], AnalysisArtifact>,
}

impl FrontCaches {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            collect: SingleFlightCache::new(capacity),
            analysis: SingleFlightCache::new(capacity),
        }
    }

    /// The cached phase-1/phase-2 front half of a workload-mode request:
    /// look up (or build and collect) the application, then look up (or
    /// run) the window analysis.
    ///
    /// # Errors
    ///
    /// [`AnalysisTooLarge`] when an analysis miss would allocate more
    /// than the cap allows; warm hits never re-check.
    pub(crate) fn front(
        &self,
        spec: &WorkloadSpec,
        params: &DesignParams,
    ) -> Result<CachedAnalysis, AnalysisTooLarge> {
        self.front_with(spec, params, || Arc::new(spec.build()))
    }

    /// [`FrontCaches::front`] with the caller supplying the application
    /// on a collect miss — `/suite` already holds its applications.
    /// `app` must build what `spec` builds.
    pub(crate) fn front_with(
        &self,
        spec: &WorkloadSpec,
        params: &DesignParams,
        app: impl FnOnce() -> Arc<Application>,
    ) -> Result<CachedAnalysis, AnalysisTooLarge> {
        let [generator, seed] = spec.fingerprint();
        let ck = CollectionKey::of(params).fingerprint();
        let entry = self
            .collect
            .get_or_compute([generator, seed, ck[0], ck[1], ck[2]], || {
                let app = app();
                let traffic = Arc::clone(Pipeline::collect(&app, params).shared_traffic());
                CollectEntry {
                    digest: app.content_digest(),
                    app,
                    traffic,
                }
            });
        let ak = AnalysisKey::of(params).fingerprint();
        let analysis_key = [
            entry.digest,
            ck[0],
            ck[1],
            ck[2],
            ak[0],
            ak[1],
            ak[2],
            ak[3],
        ];
        let artifact = self.analysis.get_or_try_compute(analysis_key, || {
            let traffic = &entry.traffic;
            WindowStats::check_size(&[&traffic.it_trace, &traffic.ti_trace], params.window_size)?;
            Ok(
                Collected::from_cached(&entry.app, params, Arc::clone(traffic))
                    .analysis_artifact(params),
            )
        })?;
        Ok(CachedAnalysis {
            app: Arc::clone(&entry.app),
            digest: entry.digest,
            traffic: Arc::clone(&entry.traffic),
            artifact,
        })
    }
}

/// The resident phase-1/phase-2 state of one workload-mode request, as
/// [`FrontCaches::front`] found it. Every field is shared with the
/// cache entries; nothing here is a copy.
pub(crate) struct CachedAnalysis {
    app: Arc<Application>,
    /// The application's content digest, computed once per collect miss.
    digest: u64,
    traffic: Arc<CollectedTraffic>,
    artifact: Arc<AnalysisArtifact>,
}

impl CachedAnalysis {
    /// Phase 2 at `params` from the cached window analysis: an O(pairs)
    /// re-threshold over the shared traffic.
    pub(crate) fn analyze(&self, params: &DesignParams) -> Analyzed<'_> {
        Collected::from_cached(&self.app, params, Arc::clone(&self.traffic))
            .analyze_with(&self.artifact, params)
    }

    /// The re-synthesis artifact of a solve of `request` that produced
    /// these bindings.
    pub(crate) fn deposit(
        &self,
        request: &SynthesizeRequest,
        warm_it: Binding,
        warm_ti: Binding,
    ) -> ResynthArtifact {
        ResynthArtifact {
            app: Arc::clone(&self.app),
            params: request.params.clone(),
            solver: request.solver,
            traffic: Arc::clone(&self.traffic),
            analysis: Arc::clone(&self.artifact),
            warm_it,
            warm_ti,
        }
    }

    /// Phase 3 of a workload-mode `/synthesize` on this front half: the
    /// response body, its artifact address and the artifact to deposit
    /// there. `Ok(None)` when `cancel` is raised.
    pub(crate) fn solve(
        &self,
        request: &SynthesizeRequest,
        strategy: &dyn Synthesizer,
        cancel: &CancelToken,
    ) -> Result<Option<SolvedPair>, FlowError> {
        let analyzed = self.analyze(&request.params);
        let Some(designed) = analyzed.synthesize_cancellable(strategy, cancel)? else {
            return Ok(None);
        };
        let solver = request.solver.to_string();
        let address = artifact_address(self.digest, request);
        let body = pair_body(
            self.app.name(),
            &designed.it.to_json(&solver),
            &designed.ti.to_json(&solver),
            &address,
        );
        let artifact = self.deposit(
            request,
            designed.it.binding.clone(),
            designed.ti.binding.clone(),
        );
        Ok(Some(SolvedPair {
            body,
            address,
            artifact,
        }))
    }
}

impl ResynthArtifact {
    /// Phase 2 of a delta request against this artifact: rebuild the
    /// analyzed state from the stored traffic and analysis, then patch
    /// it with `delta`. Phases 1–2 never re-run.
    pub(crate) fn reanalyze(&self, delta: &WorkloadDelta) -> Result<Analyzed<'_>, DeltaError> {
        Collected::from_cached(&self.app, &self.params, Arc::clone(&self.traffic))
            .analyze_with(&self.analysis, &self.params)
            .reanalyze(delta)
    }

    /// The artifact a delta solve deposits: `re` (from
    /// [`ResynthArtifact::reanalyze`] with `delta`) and the bindings it
    /// produced. A θ-only delta leaves the traffic and the window
    /// analysis as they were, so the child shares both with this
    /// artifact; a traffic delta owns its patched ones.
    pub(crate) fn chained(
        &self,
        re: &Analyzed<'_>,
        delta: &WorkloadDelta,
        warm_it: Binding,
        warm_ti: Binding,
    ) -> Self {
        let params = re.params().clone();
        let analysis = if delta.touches_traffic() {
            Arc::new(AnalysisArtifact::from_parts(
                CollectionKey::of(&params),
                AnalysisKey::of(&params),
                (re.pre_it().stats.clone(), re.pre_it().profile.clone()),
                (re.pre_ti().stats.clone(), re.pre_ti().profile.clone()),
            ))
        } else {
            Arc::clone(&self.analysis)
        };
        Self {
            app: Arc::clone(&self.app),
            params,
            solver: self.solver,
            traffic: Arc::clone(re.collected().shared_traffic()),
            analysis,
            warm_it,
            warm_ti,
        }
    }

    /// Phase 3 of a delta request: each direction warm-started from this
    /// artifact's binding, replied under the chained address. `Ok(None)`
    /// when `cancel` is raised.
    pub(crate) fn solve_delta(
        &self,
        re: &Analyzed<'_>,
        request: &DeltaRequest,
        strategy: &dyn Synthesizer,
        cancel: &CancelToken,
    ) -> Result<Option<SolvedPair>, NodeLimitExceeded> {
        // Per-direction warm starts: the strategy's own limits are unset
        // (`synthesizer` leaves them `None`), so each direction's params —
        // carrying that direction's previous binding — reach the search.
        // The warm start never changes verdicts, probe logs or bus counts
        // (see `SolveLimits::warm_start`); it only lets the search seed or
        // short-circuit from the previous answer.
        let solve = |pre, warm: &Binding| {
            let mut params = re.params().clone();
            params.solve_limits = params
                .solve_limits
                .clone()
                .with_warm_start(WarmStart::new(warm.clone()));
            strategy.synthesize_cancellable(pre, &params, cancel)
        };
        let Some(it) = solve(re.pre_it(), &self.warm_it)? else {
            return Ok(None);
        };
        let Some(ti) = solve(re.pre_ti(), &self.warm_ti)? else {
            return Ok(None);
        };
        let solver = self.solver.to_string();
        let address = chained_address(&request.artifact, &request.delta);
        let body = pair_body(
            self.app.name(),
            &it.to_json(&solver),
            &ti.to_json(&solver),
            &address,
        );
        let artifact = self.chained(re, &request.delta, it.binding, ti.binding);
        Ok(Some(SolvedPair {
            body,
            address,
            artifact,
        }))
    }
}

/// FNV-1a over little-endian words, then over raw tag bytes — the
/// content-address hash of the re-synthesis artifact store. Addresses
/// only need to be stable within one server process (a client always
/// learns them from a response), so no cross-version contract.
fn fnv1a(words: &[u64], tags: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    };
    for word in words {
        for byte in word.to_le_bytes() {
            eat(byte);
        }
    }
    for &byte in tags {
        eat(byte);
    }
    hash
}

/// Content address of a fresh workload-mode artifact for `request`:
/// the application `digest` ([`Application::content_digest`]), both
/// phase fingerprints, and the solve-relevant knobs (θ, `maxtb`,
/// solver). `jobs` is excluded — it is result-invariant.
fn artifact_address(digest: u64, request: &SynthesizeRequest) -> String {
    let params = &request.params;
    let ck = CollectionKey::of(params).fingerprint();
    let ak = AnalysisKey::of(params).fingerprint();
    let words = [
        digest,
        ck[0],
        ck[1],
        ck[2],
        ak[0],
        ak[1],
        ak[2],
        ak[3],
        params.overlap_threshold.to_bits(),
        params.maxtb as u64,
    ];
    // `{solver}|None` are the historical address bytes: addresses once
    // also folded an optional pruning level, unset on every request that
    // can still be sent, so journals and fixtures keep their addresses.
    let tags = format!("{}|None", request.solver);
    format!("{:016x}", fnv1a(&words, tags.as_bytes()))
}

/// Content address of a chained artifact: the parent address folded with
/// an injective encoding of the delta, so the same edit sequence always
/// lands on the same entry and distinct edits never collide by design.
fn chained_address(parent: &str, delta: &WorkloadDelta) -> String {
    let mut words = vec![delta.add_targets as u64, delta.removed.len() as u64];
    for t in &delta.removed {
        words.push(t.index() as u64);
    }
    words.push(delta.edits.len() as u64);
    for edit in &delta.edits {
        words.push(edit.target.index() as u64);
        words.push(edit.events.len() as u64);
        for e in &edit.events {
            words.push(e.initiator.index() as u64);
            words.push(e.start);
            words.push(u64::from(e.duration) << 1 | u64::from(e.critical));
        }
    }
    match delta.threshold {
        Some(theta) => {
            words.push(1);
            words.push(theta.to_bits());
        }
        None => words.push(0),
    }
    format!("{:016x}", fnv1a(&words, parent.as_bytes()))
}

/// The one response-body format for a both-direction design — used by
/// the live `/synthesize` and delta paths and by the replay engine, so
/// a replayed outcome can be diffed byte for byte against the journal.
pub(crate) fn pair_body(app_name: &str, it_json: &str, ti_json: &str, address: &str) -> String {
    format!(
        "{{\"app\":\"{}\",\"it\":{it_json},\"ti\":{ti_json},\"artifact\":\"{address}\"}}",
        stbus_core::json_escape(app_name),
    )
}

/// Everything a successful both-direction solve replies and deposits.
pub(crate) struct SolvedPair {
    pub(crate) body: String,
    pub(crate) address: String,
    pub(crate) artifact: ResynthArtifact,
}

impl SolvedPair {
    /// Deposits the artifact under its address, then replies the body —
    /// in that order, so the address resolves by the time a client has
    /// read it.
    fn deposit_and_reply(self, shared: &Arc<Shared>, job: &Job) {
        shared
            .resynth_cache
            .insert(self.address, Arc::new(self.artifact));
        reply_outcome_line(shared, job, &self.body);
    }
}

fn execute_synthesize(shared: &Arc<Shared>, request: &SynthesizeRequest, job: &Job) {
    let jobs = effective_jobs(request.jobs);
    let strategy = request.solver.synthesizer(jobs);
    match &request.work {
        WorkSpec::Trace(trace) => {
            // Byte-identical to `stbus synthesize --trace … --json` —
            // no artifact field either (trace mode has no application
            // identity to address).
            if let Err(e) = WindowStats::check_size(&[trace], request.params.window_size) {
                reply_bad_request(shared, job, &e.to_string());
                return;
            }
            let pre = Preprocessed::analyze(trace, &request.params);
            match strategy.synthesize_cancellable(&pre, &request.params, &job.token) {
                Ok(Some(outcome)) => {
                    reply_outcome_line(shared, job, &outcome.to_json(&request.solver.to_string()));
                }
                Ok(None) => reply_cancelled(shared, job),
                Err(e) => reply_solver_error(shared, job, &e),
            }
        }
        WorkSpec::Workload(spec) => {
            let front = match shared.front.front(spec, &request.params) {
                Ok(front) => front,
                Err(e) => {
                    reply_bad_request(shared, job, &e.to_string());
                    return;
                }
            };
            match front.solve(request, &*strategy, &job.token) {
                Ok(Some(solved)) => solved.deposit_and_reply(shared, job),
                Ok(None) => reply_cancelled(shared, job),
                Err(e) => reply_solver_error(shared, job, &e),
            }
        }
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
    let Ok(front) = shared.front.front(spec, &request.params) else {
        return false;
    };
    shared.resynth_cache.insert(
        artifact_address(front.digest, &request),
        Arc::new(front.deposit(&request, warm_it, warm_ti)),
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
    let Some(stored) = shared.resynth_cache.get(&request.artifact) else {
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
    shared.resynth_cache.insert(
        address,
        Arc::new(stored.chained(&re, &request.delta, warm_it, warm_ti)),
    );
    true
}

/// Extracts both directions' bindings from a recorded both-direction
/// response body (the [`pair_body`] format): each direction contributes
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

/// The delta hot path: resolve the artifact (404 on miss), patch the
/// analysis in `O(touched × targets)`, warm-start phase 3 per direction,
/// reply with a chained artifact address.
fn execute_delta(shared: &Arc<Shared>, request: &DeltaRequest, job: &Job) {
    let Some(stored) = shared.resynth_cache.get(&request.artifact) else {
        shared.delta_miss.fetch_add(1, Ordering::Relaxed);
        if shared.log_requests {
            eprintln!(
                "gw req={} tenant={} delta_miss artifact={}",
                job.id, job.tenant, request.artifact
            );
        }
        shared.journal_event(
            RecordKind::Delta,
            RecordStatus::ArtifactMiss,
            &job.tenant,
            &job.spec,
            "",
        );
        let _ = job.reply.send(Reply::Done {
            status: 404,
            reason: "Not Found",
            body: "{\"error\":\"unknown artifact (evicted or never issued); \
                   re-request from scratch\"}\n"
                .to_string(),
        });
        return;
    };
    shared.delta_reuse.fetch_add(1, Ordering::Relaxed);
    shared.bump_tenant(&job.tenant, true);
    if shared.log_requests {
        eprintln!(
            "gw req={} tenant={} delta_reuse artifact={}",
            job.id, job.tenant, request.artifact
        );
    }

    let strategy = stored.solver.synthesizer(effective_jobs(request.jobs));
    let re = match stored.reanalyze(&request.delta) {
        Ok(re) => re,
        Err(e) => {
            reply_bad_request(shared, job, &format!("delta: {e}"));
            return;
        }
    };
    match stored.solve_delta(&re, request, &*strategy, &job.token) {
        Ok(Some(solved)) => solved.deposit_and_reply(shared, job),
        Ok(None) => reply_cancelled(shared, job),
        Err(e) => reply_solver_error(shared, job, &e),
    }
}

fn reply_outcome_line(shared: &Arc<Shared>, job: &Job, line: &str) {
    shared.served.fetch_add(1, Ordering::Relaxed);
    shared.bump_tenant(&job.tenant, false);
    shared.journal_event(
        record_kind(&job.work),
        RecordStatus::Ok,
        &job.tenant,
        &job.spec,
        line,
    );
    let _ = job.reply.send(Reply::Done {
        status: 200,
        reason: "OK",
        body: format!("{line}\n"),
    });
}

/// A sweep's phase-2 state: the one-direction analysis of a trace-mode
/// request, or the cached front half of a workload-mode one.
enum SweepFront {
    Trace(Box<Preprocessed>),
    Workload(CachedAnalysis),
}

fn execute_sweep(shared: &Arc<Shared>, job: &Job) {
    let WorkRequest::Sweep(request) = &job.work else {
        unreachable!("routed as sweep")
    };
    let base = &request.base;
    let jobs = effective_jobs(base.jobs);
    let strategy = base.solver.synthesizer(jobs);
    let solver = base.solver.to_string();
    // Streaming look-ahead across sweep points mirrors the per-point
    // probe width: `jobs == 1` degenerates to the old sequential loop.
    let width = jobs.map_or(1, NonZeroUsize::get);

    // One reply line per threshold:
    //   trace mode:    {"threshold":θ,"outcome":{…}}
    //   workload mode: {"threshold":θ,"it":{…},"ti":{…}}
    // The window analysis runs once; each point re-thresholds in
    // O(pairs), exactly as the sweep-resident pipeline does. Points run
    // through the executor's streaming map: up to `jobs` thresholds
    // evaluate concurrently while finished lines flush to the client in
    // threshold order, so the response is byte-identical to the old
    // sequential loop (which `jobs == 1` still is, exactly). A cancelled
    // or budget-abandoned point ends the stream; the look-ahead points
    // behind it observe the same token and wind down unconsumed.
    //
    // Phase 2 runs before the stream starts, so an analysis too large to
    // allocate is still a plain `400`.
    let front = match &base.work {
        WorkSpec::Trace(trace) => WindowStats::check_size(&[trace], base.params.window_size)
            .map(|()| SweepFront::Trace(Box::new(Preprocessed::analyze(trace, &base.params)))),
        WorkSpec::Workload(spec) => shared
            .front
            .front(spec, &base.params)
            .map(SweepFront::Workload),
    };
    let front = match front {
        Ok(front) => front,
        Err(e) => {
            reply_bad_request(shared, job, &e.to_string());
            return;
        }
    };
    let _ = job.reply.send(Reply::StreamStart);
    let mut completed = true;
    // The journal's outcome for a completed sweep is the exact stream
    // the client saw: every chunk line, concatenated — what `stbus
    // replay` re-derives and diffs.
    let mut transcript = String::new();
    {
        let completed = &mut completed;
        let transcript = &mut transcript;
        let mut emit = |theta: f64, point: Option<Result<String, String>>| {
            if !*completed {
                return;
            }
            match point {
                Some(Ok(fields)) => {
                    let line = format!("{{\"threshold\":{theta},{fields}}}\n");
                    transcript.push_str(&line);
                    let _ = job.reply.send(Reply::Chunk(line));
                }
                Some(Err(message)) => {
                    let line = format!(
                        "{{\"threshold\":{theta},\"error\":\"{}\"}}\n",
                        stbus_core::json_escape(&message)
                    );
                    transcript.push_str(&line);
                    let _ = job.reply.send(Reply::Chunk(line));
                }
                None => *completed = false,
            }
        };
        match &front {
            SweepFront::Trace(pre) => {
                exec::map_streaming(
                    &request.thresholds,
                    width,
                    |&theta| {
                        if job.token.is_cancelled() {
                            return None;
                        }
                        let params = base.params.clone().with_overlap_threshold(theta);
                        let pre = pre.at_threshold(theta);
                        match strategy.synthesize_cancellable(&pre, &params, &job.token) {
                            Ok(Some(outcome)) => {
                                Some(Ok(format!("\"outcome\":{}", outcome.to_json(&solver))))
                            }
                            Ok(None) => None,
                            Err(e) => Some(Err(e.to_string())),
                        }
                    },
                    |i, point| emit(request.thresholds[i], point),
                );
            }
            SweepFront::Workload(front) => {
                exec::map_streaming(
                    &request.thresholds,
                    width,
                    |&theta| {
                        if job.token.is_cancelled() {
                            return None;
                        }
                        let params = base.params.clone().with_overlap_threshold(theta);
                        match front
                            .analyze(&params)
                            .synthesize_cancellable(&*strategy, &job.token)
                        {
                            Ok(Some(designed)) => Some(Ok(format!(
                                "\"it\":{},\"ti\":{}",
                                designed.it.to_json(&solver),
                                designed.ti.to_json(&solver),
                            ))),
                            Ok(None) => None,
                            Err(e) => Some(Err(e.to_string())),
                        }
                    },
                    |i, point| emit(request.thresholds[i], point),
                );
            }
        }
    }
    if completed {
        shared.served.fetch_add(1, Ordering::Relaxed);
        shared.bump_tenant(&job.tenant, false);
        shared.journal_event(
            RecordKind::Sweep,
            RecordStatus::Ok,
            &job.tenant,
            &job.spec,
            &transcript,
        );
        let _ = job.reply.send(Reply::StreamEnd);
    } else {
        shared.cancelled.fetch_add(1, Ordering::Relaxed);
        shared.journal_event(
            RecordKind::Sweep,
            RecordStatus::Cancelled,
            &job.tenant,
            &job.spec,
            "",
        );
        // No StreamEnd: the relay already cancelled; dropping the sender
        // (when `job` goes out of scope) closes the channel.
    }
}

fn execute_suite(shared: &Arc<Shared>, request: &SuiteRequest, job: &Job) {
    let jobs = effective_jobs(request.jobs);
    let strategy = request.solver.synthesizer(jobs);
    let solver = request.solver.to_string();
    let specs = WorkloadSpec::paper_suite(request.seed);
    let apps = stbus_traffic::workloads::paper_suite(request.seed);
    let mut rows = Vec::with_capacity(apps.len());
    for (spec, app) in specs.iter().zip(apps) {
        if job.token.is_cancelled() {
            reply_cancelled(shared, job);
            return;
        }
        // Per-application parameters pinned to the paper's, exactly as
        // in `stbus suite` — the rows must diff clean against the CLI.
        let params = stbus_core::paper_suite_params(app.name());
        let front = match shared.front.front_with(spec, &params, || Arc::new(app)) {
            Ok(front) => front,
            Err(e) => {
                reply_bad_request(shared, job, &e.to_string());
                return;
            }
        };
        let analyzed = front.analyze(&params);
        let designed = match analyzed.synthesize_cancellable(&*strategy, &job.token) {
            Ok(Some(designed)) => designed,
            Ok(None) => {
                reply_cancelled(shared, job);
                return;
            }
            Err(e) => {
                reply_solver_error(shared, job, &e);
                return;
            }
        };
        match designed.report() {
            Ok(report) => rows.push(report.paper_row_json(&solver)),
            Err(e) => {
                reply_solver_error(shared, job, &e);
                return;
            }
        }
    }
    reply_outcome_line(shared, job, &format!("[{}]", rows.join(",")));
}

/// Renders the `/stats` document.
fn stats_json(shared: &Shared) -> String {
    let collect = shared.front.collect.stats();
    let analysis = shared.front.analysis.stats();
    let resynth = shared.resynth_cache.stats();
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
