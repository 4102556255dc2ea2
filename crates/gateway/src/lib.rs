//! `stbus-gateway` — a long-running HTTP+JSON synthesis service over the
//! staged design pipeline.
//!
//! The CLI answers one design question per process. This crate turns the
//! toolkit into a *service*: a hand-rolled HTTP/1.1 server (plain
//! [`std::net::TcpListener`] — the offline build carries no async stack)
//! that accepts design requests over the wire, schedules them fairly
//! across tenants, shares expensive phase-1/phase-2 artifacts between
//! requests through a content-addressed single-flight cache, and cancels
//! work whose requester has gone away. Start it with `stbus serve` or
//! embed it with [`Gateway::spawn`].
//!
//! # Routes and wire format
//!
//! All request bodies are JSON objects; all responses are JSON with a
//! trailing newline. Connections are persistent (HTTP/1.1 keep-alive):
//! a client may send many requests over one connection, bounded by the
//! server's `--keep-alive-requests` cap and `--idle-timeout-ms` idle
//! timer; `Connection: close` on a request ends the connection after
//! its response. Every response carries an `X-Request-Id` header echoing
//! the process-unique id the gateway logs the request under.
//!
//! | Route | Body | Response |
//! |-------|------|----------|
//! | `POST /synthesize` | input spec + knobs | one design |
//! | `POST /synthesize` | `"artifact"` + `"delta"` | warm re-design of a prior result |
//! | `POST /sweep` | input spec + knobs + `"thresholds":[θ…]` | chunked stream, one line per θ |
//! | `POST /suite` | `"solver"`, `"seed"`, `"jobs"` | the five paper rows |
//! | `GET /stats` | — | queue, request, cache and per-tenant counters |
//! | `POST /shutdown` | — | `{"shutting_down":true}`, then drains |
//!
//! `"jobs"` may ride on every work route and is capped at
//! [`wire::MAX_JOBS`] (256): a larger value answers `400`. Only `/sweep`
//! reads it, as how many thresholds evaluate at once (result-invariant);
//! no request grows the shared executor, which the operator sizes with
//! `stbus serve --jobs`.
//!
//! The input spec names exactly one of `"trace"` (interchange-format
//! text, designs **one** direction — the response body is byte-identical
//! to `stbus synthesize --trace … --json`), `"suite"` (a named
//! generator) or `"scaled"` (a synthetic SoC size); see [`wire`] for
//! every field and its validation. Suite rows are byte-identical to
//! `stbus suite --json`. The removed `"pruning"` and `"search"` solver
//! knobs answer `400` on every route. Errors: `400` malformed request
//! (including a phase-2 analysis too large to allocate), `404`/`405`
//! unknown route, method or artifact, `429` + `Retry-After` when the
//! ingress queue is full, `500` solver failure, `503` during shutdown.
//!
//! ```sh
//! stbus serve --addr 127.0.0.1:7878 &
//! curl -s http://127.0.0.1:7878/synthesize \
//!   -H 'X-Tenant: alice' \
//!   -d '{"suite":"mat2","seed":42,"threshold":0.15}'
//! curl -s http://127.0.0.1:7878/stats
//! curl -s -X POST http://127.0.0.1:7878/shutdown
//! ```
//!
//! # Incremental re-synthesis (the delta wire format)
//!
//! Every successful workload-mode `/synthesize` response ends with an
//! `"artifact"` field: a content address under which the gateway has
//! deposited the request's collected traffic, window analysis, pinned
//! parameters and the bindings the solve produced. A follow-up request
//! may name that address plus a structural edit instead of re-describing
//! the workload:
//!
//! ```json
//! {"artifact": "9c40e1d2a7b33f08",
//!  "delta": {"add_targets": 1,
//!            "remove": [2],
//!            "edits": [{"target": 5,
//!                       "events": [[0, 100, 8], [1, 120, 4, true]]}],
//!            "threshold": 0.2},
//!  "jobs": 4}
//! ```
//!
//! Each `events` entry is `[initiator, start, duration]` with an
//! optional fourth `true` marking the event critical; an edit *replaces*
//! the named target's request events. `remove` silences targets,
//! `add_targets` appends empty ones (populate them via `edits`),
//! `delta.threshold` moves θ. The artifact pins everything else —
//! workload, window plan, solver — so those knobs are rejected
//! alongside `"artifact"`; only `"jobs"` (parsed, without effect) may
//! ride along. The gateway answers with the same response shape and
//! a fresh chained `"artifact"`, so edits compose. Execution skips
//! phases 1–2 (the stored analysis is patched in `O(touched × targets)`)
//! and phase 3 is warm-started from the previous bindings: **verdicts,
//! probe logs and bus counts are identical to a cold solve** — only the
//! returned assignment may legitimately differ (a different
//! equal-objective leaf may be reached first). An unknown or evicted address answers
//! `404`; re-request from scratch. `/stats` counts `delta_reuse` /
//! `delta_miss` globally and per tenant.
//!
//! # Admission and fairness
//!
//! The ingress queue ([`admission`]) holds at most `--queue-depth`
//! waiting jobs in total; beyond that, requests are refused immediately
//! with `429` rather than queued into unbounded latency. Waiting jobs
//! are organised into per-tenant FIFO lanes (the `X-Tenant` header;
//! `"default"` when absent) served round-robin, so one tenant's burst
//! delays its own later requests, not other tenants'.
//!
//! # Caching
//!
//! Workload-mode requests share phase-1 collected traffic and phase-2
//! window analyses through two process-wide caches ([`cache`]) keyed by
//! content address: the application's trace digest plus the injective
//! fingerprints of exactly the parameter subsets each phase depends on
//! ([`CollectionKey`](stbus_core::pipeline::CollectionKey),
//! [`AnalysisKey`](stbus_core::pipeline::AnalysisKey)). Concurrent
//! identical requests are **single-flight**: one computes, the rest
//! block on it and share the result, and `/stats` exposes
//! `hits`/`misses`/`inflight_waits` with
//! `hits + misses + inflight_waits == lookups` so deduplication is
//! observable from outside.
//!
//! # Cancellation and shutdown
//!
//! Every admitted job carries a root `CancelToken` threaded through the
//! solver layers. A dropped connection (EOF while waiting, or a failed
//! stream write) raises the token and the search stops at its next poll
//! — the solve is abandoned mid-search. Sweeps poll the client between
//! θ points too, so a consumer that walked away stops the stream at the
//! next point boundary. `POST /shutdown` (or [`Gateway::shutdown`])
//! stops accepting, answers queued jobs `503` with their tokens raised,
//! lets in-flight jobs finish, and [`Gateway::join`] returns once
//! everything has drained; `stbus serve` then exits 0.
//!
//! # Journaling, crash recovery and replay
//!
//! With `--journal-dir` set, the gateway event-sources itself: every
//! request appends one CRC-checksummed record (kind, status, tenant,
//! spec, outcome) to an append-only journal via a dedicated writer
//! thread — journaling never blocks the request path. Every
//! `--snapshot-every` records the writer emits a snapshot (counters plus
//! a bounded ring of recent successful designs) and prunes older ones.
//! On restart with the same directory, [`Gateway::spawn`] truncates any
//! torn tail, restores the `/stats` counters, and rebuilds the artifact
//! caches from the ring **before** binding the listener — a client
//! holding an `"artifact"` address from before the crash still gets its
//! warm delta path, and repeated requests still hit the caches. The
//! fsync cadence (`--journal-fsync always|snapshot|never`) only bounds
//! what a *power loss* can lose; a crashed process loses at most the
//! records still queued to the writer thread.
//!
//! The journal doubles as a regression corpus: `stbus replay
//! --journal-dir DIR` re-derives every recorded outcome through the
//! [`replay::ReplayEngine`] — the same wire parsers and the same route
//! functions the live server's workers run, with the body taken from the
//! outcome instead of sent to a client — and diffs the bodies byte for
//! byte.
//! Synthesis is deterministic at any worker count, so a diff means the
//! code changed behaviour since the journal was written.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod http;
pub mod json;
pub mod replay;
mod route;
pub mod server;
pub mod wire;

pub use admission::{IngressQueue, SubmitError};
pub use cache::{CacheStats, SingleFlightCache};
pub use server::{Gateway, GatewayConfig};
