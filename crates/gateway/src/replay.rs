//! Offline journal replay: re-derive every recorded result through the
//! same execution paths the live gateway ran, and let the caller diff
//! the bodies byte for byte against what the journal recorded.
//!
//! The [`ReplayEngine`] is the executor side of
//! [`stbus_journal::replay_records`]: it parses each record's spec with
//! the gateway's own wire parsers, runs the identical cache-backed
//! pipeline front half and phase-3 solve, and renders the identical
//! response body — [`crate::server::pair_body`] for single designs, the
//! concatenated chunk lines for sweeps, the row array for suites.
//! Because synthesis is deterministic at any worker count, a mismatch
//! means the *code* changed behaviour since the journal was written; the
//! journal doubles as a whole-corpus regression suite.
//!
//! The engine owns a **private** pair of artifact caches plus its own
//! re-synthesis store, so a replay never touches (or depends on) live
//! server state. Deltas chain exactly as they did online: each replayed
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

use crate::server::{effective_jobs, FrontCaches, ResynthArtifact};
use crate::wire::{
    self, DeltaRequest, SuiteRequest, SweepRequest, SynthesizeRequest, WorkRequest, WorkSpec,
    WorkloadSpec,
};
use stbus_exec::CancelToken;
use stbus_journal::{replay_records, Record, RecordKind, ReplayReport};
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::Arc;

/// Re-derives journaled outcomes through the gateway's execution paths.
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
    front: FrontCaches,
    /// The engine's own re-synthesis store, keyed by the same content
    /// addresses the live server issued. Unbounded: a replay run is
    /// finite and offline, so fidelity beats eviction.
    artifacts: HashMap<String, ResynthArtifact>,
    /// Probe-parallelism override for every replayed solve (`--jobs`);
    /// `None` replays each record at its recorded width. Result-invariant
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
            front: FrontCaches::new(usize::MAX),
            artifacts: HashMap::new(),
            jobs,
            token: CancelToken::new(),
        }
    }

    /// Executes one replayable record, returning the re-derived response
    /// body (`Ok(Some)`), a decline for records the engine cannot replay
    /// (`Ok(None)` — e.g. a delta whose parent predates the recovered
    /// history), or the solver error (`Err`). Matches the executor
    /// signature of [`stbus_journal::replay_records`].
    ///
    /// # Errors
    ///
    /// Propagates spec-parse failures (a corrupt or hand-edited journal)
    /// and solver errors as `Err(message)`.
    pub fn execute(&mut self, record: &Record) -> Result<Option<String>, String> {
        match record.kind {
            RecordKind::Synthesize => match wire::parse_synthesize_route(&record.spec)? {
                WorkRequest::Synthesize(request) => self.replay_synthesize(&request),
                _ => Err("synthesize record parsed to a different route".to_string()),
            },
            RecordKind::Delta => {
                let request = wire::parse_delta(&record.spec)?;
                self.replay_delta(&request)
            }
            RecordKind::Sweep => {
                let request = wire::parse_sweep(&record.spec)?;
                self.replay_sweep(&request)
            }
            RecordKind::Suite => {
                let request = wire::parse_suite(&record.spec)?;
                self.replay_suite(&request)
            }
        }
    }

    fn jobs_for(&self, recorded: Option<NonZeroUsize>) -> Option<NonZeroUsize> {
        effective_jobs(self.jobs.or(recorded))
    }

    fn replay_synthesize(&mut self, request: &SynthesizeRequest) -> Result<Option<String>, String> {
        let WorkSpec::Workload(spec) = &request.work else {
            // Trace-mode inputs are journaled as digests and filtered
            // out by `is_replayable` before the engine is invoked.
            return Ok(None);
        };
        let strategy = request.solver.synthesizer(self.jobs_for(request.jobs));
        let front = self
            .front
            .front(spec, &request.params)
            .map_err(|e| e.to_string())?;
        let solved = match front.solve(request, &*strategy, &self.token) {
            Ok(Some(solved)) => solved,
            Ok(None) => return Err("cancelled (replay token is never raised)".to_string()),
            Err(e) => return Err(e.to_string()),
        };
        self.artifacts.insert(solved.address, solved.artifact);
        Ok(Some(solved.body))
    }

    fn replay_delta(&mut self, request: &DeltaRequest) -> Result<Option<String>, String> {
        let Some(stored) = self.artifacts.get(&request.artifact) else {
            // The parent was never replayed (e.g. it fell out of the
            // recovered ring before this journal segment began) —
            // decline rather than fabricate a cold solve the live
            // server never ran.
            return Ok(None);
        };
        let strategy = stored.solver.synthesizer(self.jobs_for(request.jobs));
        let re = stored
            .reanalyze(&request.delta)
            .map_err(|e| e.to_string())?;
        let solved = match stored.solve_delta(&re, request, &*strategy, &self.token) {
            Ok(Some(solved)) => solved,
            Ok(None) => return Err("cancelled (replay token is never raised)".to_string()),
            Err(e) => return Err(e.to_string()),
        };
        drop(re);
        self.artifacts.insert(solved.address, solved.artifact);
        Ok(Some(solved.body))
    }

    /// Replays a completed sweep sequentially, accumulating the exact
    /// chunk lines (trailing newlines included) the live stream sent —
    /// the journal's recorded outcome for a completed sweep.
    fn replay_sweep(&mut self, request: &SweepRequest) -> Result<Option<String>, String> {
        let base = &request.base;
        let WorkSpec::Workload(spec) = &base.work else {
            return Ok(None);
        };
        let strategy = base.solver.synthesizer(self.jobs_for(base.jobs));
        let solver = base.solver.to_string();
        let front = self
            .front
            .front(spec, &base.params)
            .map_err(|e| e.to_string())?;
        let mut transcript = String::new();
        for &theta in &request.thresholds {
            let params = base.params.clone().with_overlap_threshold(theta);
            match front
                .analyze(&params)
                .synthesize_cancellable(&*strategy, &self.token)
            {
                Ok(Some(designed)) => transcript.push_str(&format!(
                    "{{\"threshold\":{theta},\"it\":{},\"ti\":{}}}\n",
                    designed.it.to_json(&solver),
                    designed.ti.to_json(&solver),
                )),
                Ok(None) => {
                    return Err("cancelled (replay token is never raised)".to_string());
                }
                Err(e) => transcript.push_str(&format!(
                    "{{\"threshold\":{theta},\"error\":\"{}\"}}\n",
                    stbus_core::json_escape(&e.to_string())
                )),
            }
        }
        Ok(Some(transcript))
    }

    fn replay_suite(&mut self, request: &SuiteRequest) -> Result<Option<String>, String> {
        let strategy = request.solver.synthesizer(self.jobs_for(request.jobs));
        let solver = request.solver.to_string();
        let specs = WorkloadSpec::paper_suite(request.seed);
        let apps = stbus_traffic::workloads::paper_suite(request.seed);
        let mut rows = Vec::with_capacity(apps.len());
        for (spec, app) in specs.iter().zip(apps) {
            let params = stbus_core::paper_suite_params(app.name());
            let front = self
                .front
                .front_with(spec, &params, || Arc::new(app))
                .map_err(|e| e.to_string())?;
            let analyzed = front.analyze(&params);
            let designed = match analyzed.synthesize_cancellable(&*strategy, &self.token) {
                Ok(Some(designed)) => designed,
                Ok(None) => return Err("cancelled (replay token is never raised)".to_string()),
                Err(e) => return Err(e.to_string()),
            };
            match designed.report() {
                Ok(report) => rows.push(report.paper_row_json(&solver)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok(Some(format!("[{}]", rows.join(","))))
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
#[must_use]
pub fn replay_journal(records: &[Record], jobs: Option<NonZeroUsize>) -> ReplayReport {
    if jobs.is_none_or(|j| j.get() <= 1) {
        let mut engine = ReplayEngine::new(jobs);
        return replay_records(records, |r| engine.execute(r));
    }
    let mut ordered: Vec<&Record> = records.iter().collect();
    ordered.sort_by_key(|r| r.seq);
    ordered.dedup_by_key(|r| r.seq);
    let chains = chain_partition(&ordered);
    let replay_chain = |chain: &[usize]| {
        let subset: Vec<Record> = chain.iter().map(|&i| ordered[i].clone()).collect();
        let mut engine = ReplayEngine::new(jobs);
        replay_records(&subset, |r| engine.execute(r))
    };
    let reports: Vec<ReplayReport> = if chains.len() <= 1 {
        chains.iter().map(|c| replay_chain(c)).collect()
    } else {
        let ordered = &ordered;
        stbus_exec::scope(|s| {
            let tasks: Vec<usize> = chains
                .iter()
                .map(|chain| {
                    s.submit(move |_token| {
                        let subset: Vec<Record> =
                            chain.iter().map(|&i| ordered[i].clone()).collect();
                        let mut engine = ReplayEngine::new(jobs);
                        replay_records(&subset, |r| engine.execute(r))
                    })
                })
                .collect();
            tasks.into_iter().map(|t| s.take(t)).collect()
        })
    };
    let mut merged = ReplayReport::default();
    for report in reports {
        merged.matched += report.matched;
        merged.diffs += report.diffs;
        merged.skipped += report.skipped;
        merged.failed += report.failed;
        merged.results.extend(report.results);
    }
    merged.results.sort_by_key(|(seq, _)| *seq);
    merged
}
