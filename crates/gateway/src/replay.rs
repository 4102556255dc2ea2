//! Offline journal replay: re-derive every recorded result through the
//! code the live gateway ran, and let the caller diff the bodies byte
//! for byte against what the journal recorded.
//!
//! The [`ReplayEngine`] is the executor side of
//! [`stbus_journal::replay_records`]: it parses each record's spec with
//! the gateway's own wire parsers and runs it through the same route
//! functions the live server's workers call (the `route` module). Only
//! the output differs: the live server streams a sweep's lines to a
//! client and answers over HTTP, replay takes the body from the route's
//! outcome. Because synthesis is deterministic at any worker count, a
//! mismatch means the *code* changed behaviour since the journal was
//! written; the journal doubles as a whole-corpus regression suite.
//!
//! The engine owns **private** route state (caches and artifact store,
//! unbounded), so a replay never touches (or depends on) live server
//! state. Deltas chain exactly as they did online: each replayed
//! workload solve deposits its artifact under the same content address
//! the live server issued, and a later delta record warm-starts from the
//! engine's *own replayed* parent bindings — warm starts contractually
//! preserve verdicts, probe logs and bus counts, so the chain stays
//! byte-stable. A delta whose parent never made it into the replayed
//! history (evicted before the snapshot ring captured it) is declined,
//! which [`stbus_journal::replay_records`] reports as a skip, not a
//! failure — mirroring the live `404` semantics.
//!
//! [`replay_journal`] is the driver `stbus replay` uses: at `--jobs N >
//! 1` it partitions the history into independent delta chains and
//! replays whole chains concurrently, each on a private engine, merging
//! the per-chain reports back into sequence order — same verdicts, byte
//! for byte, as one sequential engine.

use crate::route::{self, RouteError, Routes};
use crate::wire::{self, WorkRequest};
use stbus_exec::CancelToken;
use stbus_journal::{replay_records, Record, RecordKind, ReplayReport};
use std::collections::HashMap;
use std::num::NonZeroUsize;

/// Re-derives journaled outcomes through the gateway's route code.
///
/// Use one engine per replay run and feed it records in journal order
/// (as [`stbus_journal::replay_records`] does) so delta chains resolve:
///
/// ```no_run
/// use stbus_gateway::replay::ReplayEngine;
/// use stbus_journal::{read_journal, replay_records};
/// use std::path::Path;
///
/// let report = read_journal(Path::new("journal-dir")).unwrap();
/// let mut engine = ReplayEngine::new(None);
/// let replay = replay_records(&report.records, |r| engine.execute(r));
/// assert!(replay.is_clean());
/// ```
pub struct ReplayEngine {
    routes: Routes,
    /// Sweep-width override for every replayed `/sweep` (`--jobs`);
    /// `None` replays each sweep at its recorded `"jobs"`. Result-invariant
    /// either way — the determinism contract is the point of replay.
    jobs: Option<NonZeroUsize>,
    /// Never cancelled: replay always runs requests to completion.
    token: CancelToken,
}

impl ReplayEngine {
    /// A fresh engine with empty caches.
    #[must_use]
    pub fn new(jobs: Option<NonZeroUsize>) -> Self {
        Self {
            routes: Routes::new(usize::MAX),
            jobs,
            token: CancelToken::new(),
        }
    }

    /// Executes one replayable record, returning the re-derived response
    /// body (`Ok(Some)`), a decline for records the engine cannot replay
    /// (`Ok(None)` — a delta whose parent predates the recovered
    /// history), or the error (`Err`). Matches the executor signature of
    /// [`stbus_journal::replay_records`].
    ///
    /// # Errors
    ///
    /// Spec-parse failures (a corrupt or hand-edited journal), requests
    /// the route refuses, and solver errors, as `Err(message)`.
    pub fn execute(&mut self, record: &Record) -> Result<Option<String>, String> {
        let work = match record.kind {
            RecordKind::Synthesize | RecordKind::Delta => {
                wire::parse_synthesize_route(&record.spec)?
            }
            RecordKind::Sweep => WorkRequest::Sweep(wire::parse_sweep(&record.spec)?),
            RecordKind::Suite => WorkRequest::Suite(wire::parse_suite(&record.spec)?),
        };
        if route::record_kind(&work) != record.kind {
            return Err(format!(
                "{} record parsed to a different route",
                record.kind
            ));
        }
        match self.routes.run(&work, self.jobs, &self.token, &mut ()) {
            Ok(body) => Ok(Some(body)),
            // The parent was never replayed — decline rather than
            // fabricate a cold solve the live server never ran.
            Err(RouteError::ArtifactMiss) => Ok(None),
            Err(RouteError::BadRequest(message) | RouteError::Solver(message)) => Err(message),
            Err(RouteError::Cancelled) => {
                Err("cancelled (replay token is never raised)".to_string())
            }
        }
    }
}

/// Groups seq-ordered, deduplicated records into **delta chains**: a
/// chained delta joins the chain of the record that produced its parent
/// artifact; every other record starts a chain of its own (or joins the
/// chain that already owns the address it re-produces, so a repeated
/// identical request keeps its deposit ordering). Chains are independent
/// by construction — no record in one chain reads an artifact deposited
/// by another — so they can replay concurrently on private engines
/// without changing a single verdict.
fn chain_partition(ordered: &[&Record]) -> Vec<Vec<usize>> {
    let mut chains: Vec<Vec<usize>> = Vec::new();
    let mut addr_chain: HashMap<String, usize> = HashMap::new();
    for (i, rec) in ordered.iter().enumerate() {
        let parent = match rec.kind {
            RecordKind::Delta => wire::parse_delta(&rec.spec).ok().map(|r| r.artifact),
            _ => None,
        };
        let produced = crate::server::outcome_artifact_address(&rec.outcome);
        let joined = parent
            .as_deref()
            .and_then(|a| addr_chain.get(a).copied())
            .or_else(|| produced.as_deref().and_then(|a| addr_chain.get(a).copied()));
        let chain = joined.unwrap_or_else(|| {
            chains.push(Vec::new());
            chains.len() - 1
        });
        chains[chain].push(i);
        if let Some(addr) = produced {
            addr_chain.entry(addr).or_insert(chain);
        }
    }
    chains
}

/// Chain-aware replay driver behind `stbus replay`: partitions the
/// journal into delta chains (see [`chain_partition`]) and, when `jobs`
/// allows more than one worker, replays independent chains concurrently,
/// each on a private [`ReplayEngine`]. Within a chain records still run
/// in sequence order, so deltas warm-start from their replayed parents
/// exactly as in a sequential run; across chains nothing is shared, so
/// the merged report — results re-sorted by sequence number — is
/// byte-identical to [`stbus_journal::replay_records`] over one engine.
/// `jobs == None` (or `1`) takes exactly that sequential path.
///
/// At most `jobs` chains are queued at a time. A thread waiting inside a
/// replayed sweep helps by running queued executor tasks, and a queued
/// chain is a whole chain's replay: with every chain queued at once, a
/// journal of thousands of chains nested that many replays on one stack
/// and overflowed it.
#[must_use]
pub fn replay_journal(records: &[Record], jobs: Option<NonZeroUsize>) -> ReplayReport {
    let Some(width) = jobs.filter(|j| j.get() > 1) else {
        let mut engine = ReplayEngine::new(jobs);
        return replay_records(records, |r| engine.execute(r));
    };
    let mut ordered: Vec<&Record> = records.iter().collect();
    ordered.sort_by_key(|r| r.seq);
    ordered.dedup_by_key(|r| r.seq);
    let chains = chain_partition(&ordered);
    let mut merged = ReplayReport::default();
    stbus_exec::map_streaming(
        &chains,
        width.get(),
        |chain| {
            let subset: Vec<Record> = chain.iter().map(|&i| ordered[i].clone()).collect();
            let mut engine = ReplayEngine::new(jobs);
            replay_records(&subset, |r| engine.execute(r))
        },
        |_, report| {
            merged.matched += report.matched;
            merged.diffs += report.diffs;
            merged.skipped += report.skipped;
            merged.failed += report.failed;
            merged.results.extend(report.results);
        },
    );
    merged.results.sort_by_key(|(seq, _)| *seq);
    merged
}
