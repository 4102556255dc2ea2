//! Route execution: one function per work route, shared by the live
//! gateway ([`crate::server`]) and offline journal replay
//! ([`crate::replay`]).
//!
//! Each route runs a parsed [`WorkRequest`] against a [`Routes`] (the
//! front-half caches plus the re-synthesis artifact store) and ends in
//! an outcome: a body, or a [`RouteError`] — an artifact miss, a bad
//! request, a solver error or a cancellation. The two callers differ
//! only in where the outcome goes. The live server turns it into a
//! reply, a journal record and its counters, and streams a sweep's lines
//! to the client through a [`Sink`] as they finish. Replay compares the
//! body with the journal and streams nothing. Since both run this code,
//! a replayed body is the body the live server sent, byte for byte.
//!
//! # Caching
//!
//! Workload-mode requests run the staged pipeline through two
//! [`SingleFlightCache`]s ([`FrontCaches`]):
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
//! nothing: [`CachedAnalysis`] holds `Arc`s of the entry's application,
//! traffic and analysis, the phase-2 re-threshold reads the traffic
//! through one more `Arc`, and the [`ResynthArtifact`] a solve deposits
//! shares the same three. The digest is computed once per collect miss
//! and reused for the analysis key and the artifact address.
//! `/suite` reaches the same entries through the five specs of
//! `WorkloadSpec::paper_suite`. Trace-mode requests bypass the caches
//! (their input has no application identity) and match the CLI byte for
//! byte.
//!
//! # Incremental re-synthesis
//!
//! Every successful workload-mode `/synthesize` deposits a
//! [`ResynthArtifact`] in the store under the `"artifact"` content
//! address its body carries: the collected traffic, the phase-2
//! analysis, the design parameters and solver, and the bindings the
//! solve produced. A later request that names that address plus a
//! `"delta"` object (see [`crate::wire`]) skips phases 1–2 entirely: the
//! route rebuilds the analyzed state from the artifact, patches it in
//! `O(touched × targets)` via
//! [`stbus_core::pipeline::Analyzed::reanalyze`], and runs phase 3
//! *warm-started* from the previous bindings
//! ([`stbus_milp::SolveLimits::warm_start`]) — verdicts, probe logs and
//! bus counts are contractually identical to a cold solve; only the
//! returned binding may differ. The body carries a fresh chained
//! `"artifact"` address, so a client can keep editing incrementally. An
//! address the store does not hold is a [`RouteError::ArtifactMiss`]. A
//! θ-only delta changes neither the traffic nor the window analysis, so
//! its deposit shares both `Arc`s with its parent; a traffic delta owns
//! its patched copies.
//!
//! [`AnalysisKey`]: stbus_core::pipeline::AnalysisKey

use crate::cache::SingleFlightCache;
use crate::wire::{
    DeltaRequest, SuiteRequest, SweepRequest, SynthesizeRequest, WorkRequest, WorkSpec,
    WorkloadSpec,
};
use stbus_core::phase1::CollectedTraffic;
use stbus_core::pipeline::{
    AnalysisArtifact, AnalysisKey, Analyzed, Collected, CollectionKey, Pipeline,
};
use stbus_core::{solve_directions, DesignParams, Preprocessed, SolverKind};
use stbus_exec::{self as exec, CancelToken};
use stbus_journal::RecordKind;
use stbus_milp::{Binding, WarmStart};
use stbus_traffic::workloads::Application;
use stbus_traffic::{AnalysisTooLarge, DeltaError, WindowStats, WorkloadDelta};
use std::fmt::Display;
use std::num::NonZeroUsize;
use std::sync::Arc;

/// How a route stopped without a response body.
pub(crate) enum RouteError {
    /// A delta named an address the artifact store does not hold.
    ArtifactMiss,
    /// Refused at execution time: an invalid delta, or a phase-2 window
    /// analysis too large to allocate.
    BadRequest(String),
    /// Phase 3 (or the phase-4 report of a suite row) failed.
    Solver(String),
    /// The cancel token was raised before the route finished.
    Cancelled,
}

impl From<AnalysisTooLarge> for RouteError {
    fn from(e: AnalysisTooLarge) -> Self {
        Self::BadRequest(e.to_string())
    }
}

/// The result of a cancellable solve, or how it stopped.
fn solved<T, E: Display>(result: Result<Option<T>, E>) -> Result<T, RouteError> {
    result
        .map_err(|e| RouteError::Solver(e.to_string()))?
        .ok_or(RouteError::Cancelled)
}

/// Where a sweep sends its lines while it runs. The body carries the
/// whole transcript either way; a sink only decides whether a client
/// sees the lines as they finish.
pub(crate) trait Sink {
    /// Phase 2 succeeded and lines follow. Not called when the sweep is
    /// refused before it starts, which stays a plain `400`.
    fn start(&mut self);
    /// One finished stream line, trailing newline included.
    fn line(&mut self, line: String);
}

/// Replay streams nothing: it diffs the body.
impl Sink for () {
    fn start(&mut self) {}
    fn line(&mut self, _line: String) {}
}

/// The journal's classification of a work request.
pub(crate) fn record_kind(work: &WorkRequest) -> RecordKind {
    match work {
        WorkRequest::Synthesize(_) => RecordKind::Synthesize,
        WorkRequest::Sweep(_) => RecordKind::Sweep,
        WorkRequest::Suite(_) => RecordKind::Suite,
        WorkRequest::Delta(_) => RecordKind::Delta,
    }
}

/// What every route runs against: the front-half caches and the
/// re-synthesis artifact store. The live server holds one bounded by
/// [`crate::GatewayConfig::cache_entries`]; each replay engine holds an
/// unbounded one, since a replay run is finite and fidelity beats
/// eviction there.
pub(crate) struct Routes {
    pub(crate) front: FrontCaches,
    /// Deposit-only store of re-synthesis artifacts, keyed by content
    /// address. Entries are only ever [`SingleFlightCache::insert`]ed
    /// (a miss is a [`RouteError::ArtifactMiss`], nothing is
    /// recomputed).
    pub(crate) artifacts: SingleFlightCache<String, ResynthArtifact>,
}

impl Routes {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            front: FrontCaches::new(capacity),
            artifacts: SingleFlightCache::new(capacity),
        }
    }

    /// Runs `work` to its response body: one JSON document without its
    /// trailing newline, or for a sweep every stream line, concatenated.
    /// `jobs` overrides a sweep's own `"jobs"` (replay's `--jobs`);
    /// widths never change a result, and no width grows the executor.
    /// `cancel` ends the run at the solver's next poll.
    pub(crate) fn run(
        &self,
        work: &WorkRequest,
        jobs: Option<NonZeroUsize>,
        cancel: &CancelToken,
        sink: &mut dyn Sink,
    ) -> Result<String, RouteError> {
        match work {
            WorkRequest::Synthesize(request) => self.synthesize(request, cancel),
            WorkRequest::Delta(request) => self.delta(request, cancel),
            WorkRequest::Sweep(request) => self.sweep(request, jobs, cancel, sink),
            WorkRequest::Suite(request) => self.suite(request, cancel),
        }
    }

    /// `/synthesize`. Trace mode designs one direction, byte-identical
    /// to `stbus synthesize --trace … --json` and with no artifact (no
    /// application identity to address). Workload mode designs both
    /// directions through the caches and deposits an artifact.
    fn synthesize(
        &self,
        request: &SynthesizeRequest,
        cancel: &CancelToken,
    ) -> Result<String, RouteError> {
        let strategy = request.solver.synthesizer();
        let solver = request.solver.to_string();
        let spec = match &request.work {
            WorkSpec::Trace(trace) => {
                WindowStats::check_size(&[trace], request.params.window_size)?;
                let pre = Preprocessed::analyze(trace, &request.params);
                let outcome =
                    solved(strategy.synthesize_cancellable(&pre, &request.params, cancel))?;
                return Ok(outcome.to_json(&solver));
            }
            WorkSpec::Workload(spec) => spec,
        };
        let front = self.front.front(spec, &request.params)?;
        let analyzed = front.analyze(&request.params);
        let designed = solved(analyzed.synthesize_cancellable(&*strategy, cancel))?;
        let (it, ti) = (designed.it.to_json(&solver), designed.ti.to_json(&solver));
        let artifact = front.resynth_artifact(
            request,
            designed.it.binding.clone(),
            designed.ti.binding.clone(),
        );
        Ok(self.deposit(front.address(request), artifact, &it, &ti))
    }

    /// A delta `/synthesize`: resolve the artifact, patch the analysis
    /// in `O(touched × targets)`, warm-start phase 3 per direction and
    /// deposit the result under the chained address.
    fn delta(&self, request: &DeltaRequest, cancel: &CancelToken) -> Result<String, RouteError> {
        let stored = self
            .artifacts
            .get(&request.artifact)
            .ok_or(RouteError::ArtifactMiss)?;
        let strategy = stored.solver.synthesizer();
        let re = stored
            .reanalyze(&request.delta)
            .map_err(|e| RouteError::BadRequest(format!("delta: {e}")))?;
        // Per-direction warm starts: the strategy's own limits are unset
        // (`synthesizer` leaves them `None`), so each direction's params —
        // carrying that direction's previous binding — reach the search.
        // The warm start never changes verdicts, probe logs or bus counts
        // (see `SolveLimits::warm_start`); it only lets the search seed or
        // short-circuit from the previous answer.
        // The two directions solve concurrently with the pipeline's
        // precedence (`solve_directions`), so the body is the sequential
        // order's.
        let solve = |pre, warm: &Binding, cancel: &CancelToken| {
            let mut params = re.params().clone();
            params.solve_limits = params
                .solve_limits
                .clone()
                .with_warm_start(WarmStart::new(warm.clone()));
            strategy.synthesize_cancellable(pre, &params, cancel)
        };
        let (it, ti) = solved(solve_directions(
            cancel,
            |cancel| solve(re.pre_it(), &stored.warm_it, cancel),
            |cancel| solve(re.pre_ti(), &stored.warm_ti, cancel),
        ))?;
        let solver = stored.solver.to_string();
        let (it_json, ti_json) = (it.to_json(&solver), ti.to_json(&solver));
        let artifact = stored.chained(&re, &request.delta, it.binding, ti.binding);
        let address = chained_address(&request.artifact, &request.delta);
        Ok(self.deposit(address, artifact, &it_json, &ti_json))
    }

    /// Deposits a both-direction solve's artifact under `address` and
    /// returns the body naming it — in that order, so the address
    /// resolves by the time a client has read it.
    fn deposit(
        &self,
        address: String,
        artifact: ResynthArtifact,
        it_json: &str,
        ti_json: &str,
    ) -> String {
        let body = format!(
            "{{\"app\":\"{}\",\"it\":{it_json},\"ti\":{ti_json},\"artifact\":\"{address}\"}}",
            stbus_core::json_escape(artifact.app.name()),
        );
        self.artifacts.insert(address, Arc::new(artifact));
        body
    }

    /// `/sweep`: one line per threshold, `{"threshold":θ,"outcome":{…}}`
    /// in trace mode and `{"threshold":θ,"it":{…},"ti":{…}}` in workload
    /// mode, or `{"threshold":θ,"error":"…"}` for a point whose solve
    /// failed. The window analysis runs once, before the stream starts,
    /// so an analysis too large to allocate is still a plain `400`; each
    /// point then re-thresholds in O(pairs). Points run through the
    /// executor's streaming map: up to `jobs` thresholds evaluate
    /// concurrently while finished lines go out in threshold order, so
    /// the transcript is the same at any width. A cancelled or
    /// budget-abandoned point ends the sweep; the look-ahead points
    /// behind it observe the same token and wind down unconsumed.
    fn sweep(
        &self,
        request: &SweepRequest,
        jobs: Option<NonZeroUsize>,
        cancel: &CancelToken,
        sink: &mut dyn Sink,
    ) -> Result<String, RouteError> {
        let base = &request.base;
        let strategy = base.solver.synthesizer();
        let solver = base.solver.to_string();
        let front = match &base.work {
            WorkSpec::Trace(trace) => {
                WindowStats::check_size(&[trace], base.params.window_size)?;
                SweepFront::Trace(Box::new(Preprocessed::analyze(trace, &base.params)))
            }
            WorkSpec::Workload(spec) => SweepFront::Workload(self.front.front(spec, &base.params)?),
        };
        sink.start();
        // The fields after `"threshold"` of one point.
        let point = |&theta: &f64| -> Result<String, RouteError> {
            if cancel.is_cancelled() {
                return Err(RouteError::Cancelled);
            }
            let params = base.params.clone().with_overlap_threshold(theta);
            Ok(match &front {
                SweepFront::Trace(pre) => {
                    let pre = pre.at_threshold(theta);
                    let outcome = solved(strategy.synthesize_cancellable(&pre, &params, cancel))?;
                    format!("\"outcome\":{}", outcome.to_json(&solver))
                }
                SweepFront::Workload(front) => {
                    let analyzed = front.analyze(&params);
                    let designed = solved(analyzed.synthesize_cancellable(&*strategy, cancel))?;
                    format!(
                        "\"it\":{},\"ti\":{}",
                        designed.it.to_json(&solver),
                        designed.ti.to_json(&solver)
                    )
                }
            })
        };
        let mut transcript = String::new();
        let mut completed = true;
        exec::map_streaming(
            &request.thresholds,
            jobs.or(request.jobs)
                .map_or_else(exec::parallelism, NonZeroUsize::get),
            point,
            |i, point| {
                let fields = match point {
                    _ if !completed => return,
                    Ok(fields) => fields,
                    Err(RouteError::Solver(message)) => {
                        format!("\"error\":\"{}\"", stbus_core::json_escape(&message))
                    }
                    Err(_) => {
                        completed = false;
                        return;
                    }
                };
                let line = format!("{{\"threshold\":{},{fields}}}\n", request.thresholds[i]);
                transcript.push_str(&line);
                sink.line(line);
            },
        );
        if completed {
            Ok(transcript)
        } else {
            Err(RouteError::Cancelled)
        }
    }

    /// `/suite`: the five paper rows, each application at its paper
    /// parameters exactly as in `stbus suite`, so the rows diff clean
    /// against the CLI.
    fn suite(&self, request: &SuiteRequest, cancel: &CancelToken) -> Result<String, RouteError> {
        let strategy = request.solver.synthesizer();
        let solver = request.solver.to_string();
        let suite = WorkloadSpec::paper_suite(request.seed);
        let mut rows = Vec::with_capacity(suite.len());
        for (name, spec) in &suite {
            if cancel.is_cancelled() {
                return Err(RouteError::Cancelled);
            }
            // The spec names its application, so a warm `/suite`
            // generates nothing: only a collect miss builds one.
            let params = stbus_core::paper_suite_params(name);
            let front = self.front.front(spec, &params)?;
            let analyzed = front.analyze(&params);
            let designed = solved(analyzed.synthesize_cancellable(&*strategy, cancel))?;
            let report = designed
                .report()
                .map_err(|e| RouteError::Solver(e.to_string()))?;
            rows.push(report.paper_row_json(&solver));
        }
        Ok(stbus_core::paper_rows_json(&rows))
    }
}

/// A sweep's phase-2 state: the one-direction analysis of a trace-mode
/// request, or the cached front half of a workload-mode one.
enum SweepFront {
    Trace(Box<Preprocessed>),
    Workload(CachedAnalysis),
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

/// The two caches of the workload-mode front half.
pub(crate) struct FrontCaches {
    /// Key: the [`WorkloadSpec`] fingerprint, then the
    /// [`CollectionKey`] fingerprint.
    pub(crate) collect: SingleFlightCache<[u64; 5], CollectEntry>,
    /// Key: the application digest, then the [`CollectionKey`] and
    /// [`AnalysisKey`] fingerprints.
    pub(crate) analysis: SingleFlightCache<[u64; 8], AnalysisArtifact>,
}

impl FrontCaches {
    fn new(capacity: usize) -> Self {
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
        let [generator, seed] = spec.fingerprint();
        let ck = CollectionKey::of(params).fingerprint();
        let entry = self
            .collect
            .get_or_compute([generator, seed, ck[0], ck[1], ck[2]], || {
                let app = Arc::new(spec.build());
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
    fn analyze(&self, params: &DesignParams) -> Analyzed<'_> {
        Collected::from_cached(&self.app, params, Arc::clone(&self.traffic))
            .analyze_with(&self.artifact, params)
    }

    /// The content address a solve of `request` on this front half is
    /// deposited under.
    pub(crate) fn address(&self, request: &SynthesizeRequest) -> String {
        artifact_address(self.digest, request)
    }

    /// The re-synthesis artifact of a solve of `request` that produced
    /// these bindings.
    pub(crate) fn resynth_artifact(
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
}

/// Everything a delta request needs to resume where a previous request
/// left off: the collected traffic and phase-2 analysis (phases 1–2 are
/// skipped entirely), the parameters and solver the artifact pins, and
/// the bindings the previous solve produced (the warm starts). Lives in
/// a [`Routes`] artifact store, the live server's or a replay engine's.
///
/// The traffic and analysis are shared, not copied: with the collect
/// and analysis cache entries they came from, and from parent to child
/// along a chain of θ-only deltas.
pub(crate) struct ResynthArtifact {
    app: Arc<Application>,
    params: DesignParams,
    solver: SolverKind,
    traffic: Arc<CollectedTraffic>,
    analysis: Arc<AnalysisArtifact>,
    warm_it: Binding,
    warm_ti: Binding,
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
}

/// FNV-1a over little-endian words, then over raw tag bytes — the
/// content-address hash of the re-synthesis artifact store. Addresses
/// only need to be stable within one server process (a client always
/// learns them from a response), so no cross-version contract.
pub(crate) fn fnv1a(words: &[u64], tags: &[u8]) -> u64 {
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
