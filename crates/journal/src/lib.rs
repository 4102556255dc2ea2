//! `stbus-journal` — an append-only, length-prefixed, checksummed event
//! journal with periodic snapshots, crash recovery and a deterministic
//! replay driver.
//!
//! The gateway (`stbus-gateway`) is a long-running multi-tenant service
//! whose state — the `/stats` request counters and the re-synthesis
//! artifact store — lived only in memory until this crate: a crash lost
//! everything. Every synthesis in this workspace is *deterministic*
//! (bit-identical at any worker count), which makes event sourcing the
//! natural durability story: record one event per request and the entire
//! service state can be re-derived from the log.
//!
//! # Record format
//!
//! The journal is a single file (`journal.log`) of *frames*:
//!
//! ```text
//! ┌─────────────┬──────────────┬───────────────┐
//! │ len: u32 LE │ crc32: u32 LE│ payload (len) │  × N
//! └─────────────┴──────────────┴───────────────┘
//! ```
//!
//! The CRC-32 (IEEE) covers the payload. A reader stops at the first
//! frame whose length or checksum does not hold — a torn tail from a
//! crash mid-write — and recovery truncates the file back to the last
//! valid frame (see [`recover`]). Each payload is one [`Record`]:
//!
//! ```text
//! version: u8 | seq: u64 | kind: u8 | status: u8
//!   | tenant: str | spec: str | outcome: str      (str = u32 len + UTF-8)
//! ```
//!
//! `seq` is a monotonically increasing sequence number assigned by the
//! single writer thread; it is the idempotency key of both snapshotting
//! and replay. `spec` holds the request body verbatim for workload-mode
//! requests (it embeds the design parameters and any delta), a
//! `trace:<digest>` marker for trace-mode requests (trace text can be
//! 16 MiB; only its content digest is journaled, so trace records are
//! audit-only and not replayable), and is empty for rejected requests.
//! `outcome` holds the response body verbatim on success (for a design
//! this embeds the probe log, assignment and bus counts) and the error
//! message otherwise.
//!
//! # Snapshots and recovery
//!
//! Every [`WriterOptions::snapshot_every`] records the writer emits a
//! snapshot file (`snapshot-<seq>.snap`, written to a temp name and
//! renamed): the exact [`Counters`] at that point plus the bounded ring
//! of recent cache-seeding records (successful workload-mode
//! `/synthesize` and delta records — the ones [`recover`] replays to
//! rebuild the gateway's artifact caches). Recovery loads the newest
//! valid snapshot and applies only journal records with `seq >
//! through_seq`, so replay after snapshot is idempotent by construction.
//!
//! # Durability
//!
//! [`FsyncPolicy`] picks the fsync cadence: `always` (default) syncs
//! after every record, `snapshot` at snapshot boundaries, `never` leaves
//! flushing to the OS. Appends are fire-and-forget messages to one
//! dedicated writer thread, so journaling is off the request hot path at
//! every policy — the policy only bounds what a *power loss* can lose. A
//! `kill -9` (process death without host death) loses at most the few
//! records still queued to the writer thread, at any policy, because the
//! kernel keeps what `write(2)` accepted.
//!
//! # Replay
//!
//! [`replay_records`] drives a caller-supplied executor over a journal in
//! sequence order, deduplicating by `seq`, and reports per-record
//! match/diff/skip — the `stbus replay` subcommand builds on it to turn
//! yesterday's journal into a whole-corpus equivalence test against
//! today's solver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod frame;
mod record;
mod replay;
mod snapshot;
mod store;

pub use counters::{Counters, TenantCounters, DRAINED_OUTCOME};
pub use frame::{crc32, scan_frames, write_frame, FrameScan};
pub use record::{Record, RecordKind, RecordStatus};
pub use replay::{replay_records, ReplayDiff, ReplayReport, ReplayResult};
pub use snapshot::{load_latest_snapshot, write_snapshot, Snapshot};
pub use store::{
    read_journal, recover, FsyncPolicy, JournalWriter, ReadReport, RecoveredState, WriterOptions,
    JOURNAL_FILE,
};
