//! The staged design pipeline — explicit, reusable artifacts for the four
//! phases of the methodology.
//!
//! Bundling all four phases behind one call would be wasteful for
//! design-space exploration: every parameter point would pay the phase-1
//! full-crossbar reference simulation again even though the collected
//! traffic does not depend on the analysis parameters at all. This module
//! splits the flow into typed stages whose artifacts are cheap to reuse:
//!
//! ```text
//! Pipeline::collect(&app, &params)   -> Collected      (phase 1, expensive)
//! Collected::analyze(&params)        -> Analyzed       (phase 2)
//! Analyzed::synthesize(&strategy)    -> Synthesized    (phase 3)
//! Synthesized::validate(&baselines)  -> Evaluation     (phase 4)
//! ```
//!
//! A sweep over window sizes, overlap thresholds or synthesis strategies
//! holds one [`Collected`] and fans out phases 2–4 per point. Collection
//! *does* depend on the simulation-facing parameters (arbitration policy,
//! outstanding-transaction depth, response scaling); [`CollectionKey`]
//! captures exactly that dependency and [`Collected::analyze`] enforces
//! it, so an artifact can never silently be reused across parameters that
//! would have produced different traffic.
//!
//! Solver limits ride along in [`DesignParams`] untouched by the staging,
//! and this is the only place they live: [`DesignParams::solve_limits`]
//! carries the node budget and the per-node pruning level of the exact
//! binding search ([`stbus_milp::PruningLevel`]), which
//! [`Analyzed::synthesize`] hands to whatever strategy is plugged in — the
//! default `Standard` level is proven bit-identical to the unpruned
//! search, so staged and batch routes stay equivalent at either level.
//!
//! # Example
//!
//! ```
//! use stbus_core::pipeline::{BaselineSet, Pipeline};
//! use stbus_core::synthesizer::Exact;
//! use stbus_core::DesignParams;
//! use stbus_traffic::workloads;
//!
//! let app = workloads::matrix::mat2(42);
//! let base = DesignParams::default();
//! let collected = Pipeline::collect(&app, &base); // phase 1 runs once…
//! for ws in [500, 1_000, 2_000] {
//!     // …and phases 2–4 sweep the grid on the same artifact.
//!     let params = base.clone().with_window_size(ws);
//!     let evaluation = collected
//!         .analyze(&params)
//!         .synthesize(&Exact::default())
//!         .expect("within solver limits")
//!         .validate(&BaselineSet::none())
//!         .expect("validation succeeds");
//!     assert!(evaluation.designed.total_buses() >= 2);
//! }
//! ```

use crate::baselines::{average_flow_design_from, peak_bandwidth_design, random_binding_design};
use crate::exec;
use crate::flow::{ConfigEval, DesignReport, FlowError};
use crate::incremental::patch_traffic;
use crate::params::DesignParams;
use crate::params::Windowing;
use crate::phase1::{collect, CollectedTraffic};
use crate::phase2::Preprocessed;
use crate::phase3::{self, SynthesisOutcome};
use crate::phase4::Validation;
use crate::synthesizer::Synthesizer;
use serde::{Deserialize, Serialize};
use stbus_sim::{Arbitration, CrossbarConfig, SimReport};
use stbus_traffic::workloads::Application;
use stbus_traffic::{DeltaError, OverlapProfile, Trace, WindowStats, WorkloadDelta};
use std::sync::Arc;

/// The subset of [`DesignParams`] that phase-1 collection depends on.
///
/// Two parameter sets with equal keys produce byte-identical collected
/// traffic, so phases 2–4 can sweep everything else on one artifact.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CollectionKey {
    /// Arbitration policy of the reference full-crossbar simulation.
    pub arbitration: Arbitration,
    /// Outstanding-transaction depth per master.
    pub max_outstanding: usize,
    /// Response duration scale (bit pattern, for exact comparison).
    pub response_scale_bits: u64,
}

impl CollectionKey {
    /// Extracts the collection-relevant subset of `params`.
    #[must_use]
    pub fn of(params: &DesignParams) -> Self {
        Self {
            arbitration: params.arbitration,
            max_outstanding: params.max_outstanding,
            response_scale_bits: params.response_scale.to_bits(),
        }
    }

    /// Injective fixed-width encoding of the key, for use in hashed
    /// content-addressed cache identities (the key itself derives only
    /// `PartialEq` — its float bit-pattern field makes a derived `Hash`
    /// easy to get subtly wrong, so cache layers hash these words
    /// instead). Equal keys ⇔ equal fingerprints.
    #[must_use]
    pub fn fingerprint(&self) -> [u64; 3] {
        let arb = match self.arbitration {
            Arbitration::FixedPriority => 0u64,
            Arbitration::RoundRobin => 1,
            Arbitration::LeastRecentlyUsed => 2,
        };
        [arb, self.max_outstanding as u64, self.response_scale_bits]
    }
}

/// The subset of [`DesignParams`] the *window analysis* of phase 2 depends
/// on (given fixed collected traffic).
///
/// Two parameter sets with equal [`CollectionKey`]s **and** equal
/// `AnalysisKey`s produce byte-identical [`WindowStats`] and
/// [`OverlapProfile`]s, so a sweep over the remaining knobs — overlap
/// threshold, `maxtb`, solver limits, synthesis strategy — can share one
/// [`AnalysisArtifact`] and re-threshold in O(pairs) per point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalysisKey {
    /// Analysis window size `WS`.
    pub window_size: u64,
    /// Window layout policy (uniform or adaptive, with its knobs).
    pub windowing: Windowing,
}

impl AnalysisKey {
    /// Extracts the analysis-relevant subset of `params`.
    #[must_use]
    pub fn of(params: &DesignParams) -> Self {
        Self {
            window_size: params.window_size,
            windowing: params.windowing,
        }
    }

    /// Injective fixed-width encoding of the key, for hashed cache
    /// identities (see [`CollectionKey::fingerprint`]). Equal keys ⇔
    /// equal fingerprints.
    #[must_use]
    pub fn fingerprint(&self) -> [u64; 4] {
        match self.windowing {
            Windowing::Uniform => [self.window_size, 0, 0, 0],
            Windowing::Adaptive {
                coarse,
                quiet_threshold,
            } => [self.window_size, 1, coarse, quiet_threshold.to_bits()],
        }
    }
}

/// Entry point of the staged pipeline.
#[derive(Debug, Clone, Copy)]
pub struct Pipeline;

impl Pipeline {
    /// Phase 1: runs the application on full crossbars and captures the
    /// arbitrated traffic as a reusable artifact.
    ///
    /// Only the [`CollectionKey`] subset of `params` matters here; the
    /// analysis knobs (window size, threshold, maxtb, windowing, solver
    /// limits) are free to vary in later stages.
    #[must_use]
    pub fn collect<'a>(app: &'a Application, params: &DesignParams) -> Collected<'a> {
        Collected {
            app,
            key: CollectionKey::of(params),
            traffic: Arc::new(collect(app, params)),
        }
    }
}

/// Phase-1 artifact: the observed traffic of one application under one
/// [`CollectionKey`].
///
/// The traffic sits behind an [`Arc`], so cloning a `Collected` is a
/// reference-count bump: every [`Analyzed`] derived from it holds its
/// own clone, and artifact caches share the traffic instead of copying
/// it.
#[derive(Debug, Clone)]
pub struct Collected<'a> {
    app: &'a Application,
    key: CollectionKey,
    traffic: Arc<CollectedTraffic>,
}

impl<'a> Collected<'a> {
    /// Rebuilds a collection artifact from traffic captured earlier —
    /// the re-entry point for process-level artifact caches that store
    /// shared [`CollectedTraffic`] (a `Collected` borrows its
    /// application, so it cannot itself outlive one request). The
    /// traffic is shared, not copied.
    ///
    /// The caller asserts that `traffic` was produced by
    /// [`Pipeline::collect`] on this `app` under parameters whose
    /// [`CollectionKey`] equals `CollectionKey::of(params)`; downstream
    /// stages then behave bit-identically to the original artifact.
    /// Nothing is re-simulated.
    #[must_use]
    pub fn from_cached(
        app: &'a Application,
        params: &DesignParams,
        traffic: Arc<CollectedTraffic>,
    ) -> Self {
        Self {
            app,
            key: CollectionKey::of(params),
            traffic,
        }
    }
    /// The application this traffic was collected from.
    #[must_use]
    pub fn app(&self) -> &'a Application {
        self.app
    }

    /// The collection-relevant parameters this artifact was built under.
    #[must_use]
    pub fn key(&self) -> CollectionKey {
        self.key
    }

    /// The raw collected traces and reference simulations.
    #[must_use]
    pub fn traffic(&self) -> &CollectedTraffic {
        &self.traffic
    }

    /// The collected traffic as the shared handle a cache can keep.
    #[must_use]
    pub fn shared_traffic(&self) -> &Arc<CollectedTraffic> {
        &self.traffic
    }

    /// Unwraps the artifact into the raw collected traffic — without a
    /// copy when this artifact is the traffic's only owner.
    #[must_use]
    pub fn into_traffic(self) -> CollectedTraffic {
        Arc::unwrap_or_clone(self.traffic)
    }

    /// Whether `params` can legally reuse this artifact.
    #[must_use]
    pub fn is_compatible(&self, params: &DesignParams) -> bool {
        self.key == CollectionKey::of(params)
    }

    /// Phase 2: window analysis and conflict extraction for both crossbar
    /// directions under `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params` differs from the collection parameters in any
    /// [`CollectionKey`] field — the collected traffic would not match the
    /// traffic those parameters produce. Re-run [`Pipeline::collect`] (or
    /// let [`crate::Batch`] group the grid by key) instead.
    #[must_use]
    pub fn analyze(&self, params: &DesignParams) -> Analyzed<'a> {
        assert!(
            self.is_compatible(params),
            "analysis params change the collected traffic (arbitration, \
             max_outstanding or response_scale differ from the collection \
             run); collect again for these parameters"
        );
        Analyzed {
            collected: self.clone(),
            params: params.clone(),
            pre_it: Preprocessed::analyze(&self.traffic.it_trace, params),
            pre_ti: Preprocessed::analyze(&self.traffic.ti_trace, params),
        }
    }

    /// Runs the window analysis once and captures it as a sweep-resident
    /// [`AnalysisArtifact`]: stats and overlap profiles for both crossbar
    /// directions, independent of the overlap threshold, `maxtb` and
    /// solver knobs.
    ///
    /// # Panics
    ///
    /// Panics if `params` is incompatible with this collection (see
    /// [`Collected::analyze`]).
    #[must_use]
    pub fn analysis_artifact(&self, params: &DesignParams) -> AnalysisArtifact {
        assert!(
            self.is_compatible(params),
            "analysis params change the collected traffic (arbitration, \
             max_outstanding or response_scale differ from the collection \
             run); collect again for these parameters"
        );
        // Route through `Preprocessed::analyze` so the windowing policy is
        // interpreted in exactly one place.
        let pre_it = Preprocessed::analyze(&self.traffic.it_trace, params);
        let pre_ti = Preprocessed::analyze(&self.traffic.ti_trace, params);
        AnalysisArtifact {
            collection: self.key,
            key: AnalysisKey::of(params),
            it: (pre_it.stats, pre_it.profile),
            ti: (pre_ti.stats, pre_ti.profile),
        }
    }

    /// Phase 2 from a sweep-resident artifact: re-thresholds the cached
    /// profiles for `params` in O(pairs) instead of re-running the window
    /// analysis. Bit-identical to [`Collected::analyze`] for every
    /// compatible `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params` is incompatible with this collection, or if the
    /// artifact was built under a different [`CollectionKey`] or
    /// [`AnalysisKey`] than `params` describes.
    #[must_use]
    pub fn analyze_with(&self, artifact: &AnalysisArtifact, params: &DesignParams) -> Analyzed<'a> {
        assert!(
            self.is_compatible(params),
            "analysis params change the collected traffic; collect again \
             for these parameters"
        );
        assert!(
            artifact.collection == self.key && artifact.key == AnalysisKey::of(params),
            "analysis artifact was built under a different collection or \
             window plan; call `analysis_artifact` for these parameters"
        );
        Analyzed {
            collected: self.clone(),
            params: params.clone(),
            pre_it: Preprocessed::from_profile(
                artifact.it.0.clone(),
                artifact.it.1.clone(),
                params,
            ),
            pre_ti: Preprocessed::from_profile(
                artifact.ti.0.clone(),
                artifact.ti.1.clone(),
                params,
            ),
        }
    }

    /// Applies a [`WorkloadDelta`] to this collection, producing the
    /// patched artifact a from-scratch re-analysis would consume — the
    /// reference path the incremental [`Analyzed::reanalyze`] is proven
    /// bit-identical against.
    ///
    /// The request trace is patched exactly per [`WorkloadDelta::apply`];
    /// the response trace follows the ideal-response model documented in
    /// [`crate::incremental`]. The artifact keeps the *base* application
    /// reference and simulation reports. Phases 2–3 never read them.
    /// Phase-4 validation of a delta-patched design re-simulates the base
    /// application and reuses the base reports as its `"full"` baseline,
    /// so deltas that add or edit traffic should treat validation results
    /// as describing the base workload.
    ///
    /// # Errors
    ///
    /// Any [`DeltaError`] from validating `delta` against the collected
    /// request trace.
    pub fn apply_delta(&self, delta: &WorkloadDelta) -> Result<Collected<'a>, DeltaError> {
        let scale = f64::from_bits(self.key.response_scale_bits);
        let (traffic, _) = patch_traffic(&self.traffic, delta, scale)?;
        Ok(Collected {
            app: self.app,
            key: self.key,
            traffic: Arc::new(traffic),
        })
    }

    /// Analyzes a whole θ-sweep on one window analysis: the first point
    /// pays the sweep-line pass, every further threshold re-derives its
    /// conflict graphs in O(pairs). Each returned [`Analyzed`] is
    /// bit-identical to a fresh [`Collected::analyze`] at that threshold.
    #[must_use]
    pub fn analyze_sweep(&self, base: &DesignParams, thresholds: &[f64]) -> Vec<Analyzed<'a>> {
        if thresholds.is_empty() {
            return Vec::new();
        }
        let artifact = self.analysis_artifact(base);
        thresholds
            .iter()
            .map(|&theta| self.analyze_with(&artifact, &base.clone().with_overlap_threshold(theta)))
            .collect()
    }
}

/// Sweep-resident phase-2 artifact: the window statistics and
/// [`OverlapProfile`]s of both crossbar directions under one
/// ([`CollectionKey`], [`AnalysisKey`]) pair.
///
/// Everything here is threshold-independent, so a θ/`maxtb`/strategy sweep
/// holds one artifact and fans out [`Collected::analyze_with`] per point —
/// window analysis runs once per `(app, key)` instead of once per point.
#[derive(Debug, Clone)]
pub struct AnalysisArtifact {
    collection: CollectionKey,
    key: AnalysisKey,
    /// Request-path (initiator→target) stats and profile.
    it: (WindowStats, OverlapProfile),
    /// Response-path (target→initiator) stats and profile.
    ti: (WindowStats, OverlapProfile),
}

impl AnalysisArtifact {
    /// Rebuilds a sweep-resident artifact from stats and profiles
    /// captured earlier — the re-entry point for caches that persist
    /// phase-2 state across requests (the gateway's incremental
    /// re-synthesis path stores the *reanalyzed* stats/profiles of a
    /// delta-patched workload this way, so a chained delta re-enters
    /// [`Collected::analyze_with`] without re-running the window sweep).
    ///
    /// The caller asserts the parts were produced by an analysis of
    /// traffic collected under `collection` with the window plan of
    /// `key`; downstream stages then behave bit-identically to the
    /// original artifact.
    #[must_use]
    pub fn from_parts(
        collection: CollectionKey,
        key: AnalysisKey,
        it: (WindowStats, OverlapProfile),
        ti: (WindowStats, OverlapProfile),
    ) -> Self {
        Self {
            collection,
            key,
            it,
            ti,
        }
    }

    /// The analysis-relevant parameter subset this artifact was built for.
    #[must_use]
    pub fn key(&self) -> AnalysisKey {
        self.key
    }

    /// The collection key of the traffic this artifact analyzed.
    #[must_use]
    pub fn collection_key(&self) -> CollectionKey {
        self.collection
    }

    /// Whether `params` can legally reuse this artifact (same collection
    /// and window plan; threshold/`maxtb`/solver knobs are free).
    #[must_use]
    pub fn is_compatible(&self, params: &DesignParams) -> bool {
        self.collection == CollectionKey::of(params) && self.key == AnalysisKey::of(params)
    }
}

/// Phase-2 artifact: windowed statistics and conflicts for both
/// directions, bound to the parameters that produced them.
#[derive(Debug, Clone)]
pub struct Analyzed<'a> {
    collected: Collected<'a>,
    params: DesignParams,
    pre_it: Preprocessed,
    pre_ti: Preprocessed,
}

impl<'a> Analyzed<'a> {
    /// The parameters in force for this analysis.
    #[must_use]
    pub fn params(&self) -> &DesignParams {
        &self.params
    }

    /// Request-path (initiator→target) analysis.
    #[must_use]
    pub fn pre_it(&self) -> &Preprocessed {
        &self.pre_it
    }

    /// Response-path (target→initiator) analysis.
    #[must_use]
    pub fn pre_ti(&self) -> &Preprocessed {
        &self.pre_ti
    }

    /// The collection artifact this analysis was derived from (the
    /// delta-patched one when this analysis came out of
    /// [`Analyzed::reanalyze`]).
    #[must_use]
    pub fn collected(&self) -> &Collected<'a> {
        &self.collected
    }

    /// Re-thresholds this analysis at a new overlap threshold without
    /// re-running the window analysis (O(pairs) per direction via the
    /// sweep-resident [`OverlapProfile`]). The result is bit-identical to
    /// `self.collected().analyze(&params_at_theta)`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative or not finite.
    #[must_use]
    pub fn at_threshold(&self, threshold: f64) -> Analyzed<'a> {
        Analyzed {
            collected: self.collected.clone(),
            params: self.params.clone().with_overlap_threshold(threshold),
            pre_it: self.pre_it.at_threshold(threshold),
            pre_ti: self.pre_ti.at_threshold(threshold),
        }
    }

    /// Delta-aware re-analysis: patches the collected traffic per `delta`
    /// and re-derives both directions' phase-2 artifacts touching only
    /// the edited targets — O(touched × targets) pairwise work instead of
    /// a full sweep-line pass — with the conflict graphs patched in
    /// place. The result is **bit-identical** to
    /// `self.collected().apply_delta(delta)?.analyze(&new_params)` where
    /// `new_params` applies the delta's θ override, as the
    /// `incremental_equivalence` suite proves under proptest.
    ///
    /// Route by delta shape:
    ///
    /// * **θ-only** deltas skip traffic work entirely and re-threshold
    ///   the cached profiles in O(pairs) ([`Analyzed::at_threshold`]).
    /// * **Traffic** deltas under the *uniform* window layout take the
    ///   incremental path (`apply_delta` on stats and profile, in-place
    ///   conflict-graph patch via `grown` + `patch_conflict_graph`).
    /// * **Adaptive** window plans re-derive their boundaries from the
    ///   trace itself, so a traffic delta falls back to a full phase-2
    ///   re-analysis of the patched traces — still skipping phase 1,
    ///   still bit-identical, just O(events log events) instead of
    ///   O(touched × targets).
    ///
    /// Phase 1 is never re-run: the response direction follows the
    /// ideal-response model documented in [`crate::incremental`].
    ///
    /// # Errors
    ///
    /// Any [`DeltaError`] from validating `delta` against the collected
    /// request trace, including [`DeltaError::AnalysisTooLarge`] when the
    /// patched traffic's window analysis would exceed
    /// [`stbus_traffic::MAX_ANALYSIS_CELLS`].
    pub fn reanalyze(&self, delta: &WorkloadDelta) -> Result<Analyzed<'a>, DeltaError> {
        if !delta.touches_traffic() {
            delta.validate(&self.collected.traffic().it_trace)?;
            let theta = delta.threshold.unwrap_or(self.params.overlap_threshold);
            return Ok(self.at_threshold(theta));
        }
        let scale = f64::from_bits(self.collected.key().response_scale_bits);
        let (traffic, touched) = patch_traffic(self.collected.traffic(), delta, scale)?;
        WindowStats::check_size(
            &[&traffic.it_trace, &traffic.ti_trace],
            self.params.window_size,
        )
        .map_err(DeltaError::AnalysisTooLarge)?;
        let params = match delta.threshold {
            Some(theta) => self.params.clone().with_overlap_threshold(theta),
            None => self.params.clone(),
        };
        let collected = Collected {
            app: self.collected.app(),
            key: self.collected.key(),
            traffic: Arc::new(traffic),
        };
        let same_theta = delta
            .threshold
            .is_none_or(|t| t == self.params.overlap_threshold);
        let incremental_ok = matches!(params.windowing, Windowing::Uniform)
            && self.pre_it.stats.is_uniform()
            && self.pre_ti.stats.is_uniform();
        let (pre_it, pre_ti) = if incremental_ok {
            (
                repreprocess(
                    &self.pre_it,
                    &collected.traffic.it_trace,
                    &touched.it,
                    &params,
                    same_theta,
                ),
                repreprocess(
                    &self.pre_ti,
                    &collected.traffic.ti_trace,
                    &touched.ti,
                    &params,
                    same_theta,
                ),
            )
        } else {
            (
                Preprocessed::analyze(&collected.traffic.it_trace, &params),
                Preprocessed::analyze(&collected.traffic.ti_trace, &params),
            )
        };
        Ok(Analyzed {
            collected,
            params,
            pre_it,
            pre_ti,
        })
    }

    /// Phase 3: synthesises both crossbar directions with `strategy`.
    ///
    /// # Errors
    ///
    /// [`FlowError::SolverLimit`] if the strategy's exact search exhausts
    /// its node budget (the [`crate::synthesizer::Portfolio`] strategy
    /// never does — it falls back to the heuristic).
    pub fn synthesize(&self, strategy: &dyn Synthesizer) -> Result<Synthesized<'_>, FlowError> {
        self.synthesize_cancellable(strategy, &stbus_exec::CancelToken::new())
            .map(|synthesized| synthesized.expect("a root token is never raised"))
    }

    /// Phase 3 with cooperative cancellation: `Ok(None)` when `cancel` is
    /// raised before or during either direction's search
    /// ([`Analyzed::synthesize`] is this under a root token). This is what
    /// lets a service abandon an in-flight design the moment its requester
    /// goes away instead of finishing a solve nobody will read.
    ///
    /// The request and response crossbars are independent problems, solved
    /// concurrently by [`phase3::solve_directions`]: the response direction
    /// runs as an executor task while the calling thread solves the
    /// request direction. The result is the sequential one: a
    /// request-direction error or `Ok(None)` wins (the response task is
    /// cancelled), and otherwise the response direction's error or
    /// `Ok(None)` is returned.
    ///
    /// # Errors
    ///
    /// [`FlowError::SolverLimit`] as for [`Analyzed::synthesize`].
    pub fn synthesize_cancellable(
        &self,
        strategy: &dyn Synthesizer,
        cancel: &exec::CancelToken,
    ) -> Result<Option<Synthesized<'_>>, FlowError> {
        let solve = |pre: &Preprocessed, cancel: &exec::CancelToken| {
            strategy.synthesize_cancellable(pre, &self.params, cancel)
        };
        let both = phase3::solve_directions(
            cancel,
            |cancel| solve(&self.pre_it, cancel),
            |cancel| solve(&self.pre_ti, cancel),
        )?;
        Ok(both.map(|(it, ti)| Synthesized {
            analyzed: self,
            it,
            ti,
        }))
    }
}

/// One direction of the incremental phase-2 path: re-derives a
/// [`Preprocessed`] from its predecessor touching only the `touched`
/// targets. Stats and profile rows of untouched targets are copied;
/// the conflict graph is grown to the new target count and patched in
/// place when θ is unchanged, or re-thresholded from the (already
/// delta-patched) profile in O(pairs) otherwise.
fn repreprocess(
    base: &Preprocessed,
    patched: &Trace,
    touched: &[usize],
    params: &DesignParams,
    same_theta: bool,
) -> Preprocessed {
    let stats = base.stats.apply_delta(patched, touched);
    let profile = base.profile.apply_delta(&stats, touched);
    let conflicts = if same_theta {
        let mut graph = base.conflicts.grown(stats.num_targets());
        profile.patch_conflict_graph(&mut graph, touched, params.overlap_threshold);
        graph
    } else {
        profile.conflict_graph(params.overlap_threshold)
    };
    Preprocessed {
        stats,
        profile,
        conflicts,
        maxtb: params.maxtb,
    }
}

/// Phase-3 artifact: the synthesised crossbars for both directions.
#[derive(Debug, Clone)]
pub struct Synthesized<'a> {
    analyzed: &'a Analyzed<'a>,
    /// Request-path synthesis outcome.
    pub it: SynthesisOutcome,
    /// Response-path synthesis outcome.
    pub ti: SynthesisOutcome,
}

impl Synthesized<'_> {
    /// Total bus count of the design over both directions.
    #[must_use]
    pub fn total_buses(&self) -> usize {
        self.it.num_buses + self.ti.num_buses
    }

    /// The analysis this synthesis came from.
    #[must_use]
    pub fn analyzed(&self) -> &Analyzed<'_> {
        self.analyzed
    }

    /// Phase 4: validates the design end to end and evaluates exactly the
    /// requested baselines on the same traffic.
    ///
    /// # Errors
    ///
    /// [`FlowError::SolverLimit`] if a baseline's own design search (the
    /// avg-flow and peak baselines solve MILPs too) exhausts its budget.
    pub fn validate(&self, baselines: &BaselineSet) -> Result<Evaluation, FlowError> {
        let app = self.analyzed.collected.app();
        let params = &self.analyzed.params;
        let traffic = self.analyzed.collected.traffic();
        let num_initiators = app.spec.num_initiators();
        let num_targets = app.spec.num_targets();

        // Stage the cheap, fallible part first: the avg-flow/peak/random
        // baselines solve their own MILPs, which stay sequential so `?`
        // error handling is unchanged. What remains per spec is the
        // expensive cycle-accurate simulation pair; those run through
        // the shared executor below.
        let mut specs: Vec<(String, CrossbarConfig, CrossbarConfig)> = vec![(
            "designed".to_string(),
            self.it.config.clone(),
            self.ti.config.clone(),
        )];
        // The full-crossbar baseline is phase 1's reference run: the same
        // application on the same configuration under the same collection
        // key. A delta-patched collection carries the base runs, and phase
        // 4 replays the base application, so this holds there too.
        let full = baselines.full.then(|| {
            ConfigEval::from_validation(
                "full",
                CrossbarConfig::full(num_targets).with_arbitration(params.arbitration),
                CrossbarConfig::full(num_initiators).with_arbitration(params.arbitration),
                Validation {
                    it_report: SimReport::clone(&traffic.it_report),
                    ti_report: SimReport::clone(&traffic.ti_report),
                },
            )
        });
        if baselines.shared {
            specs.push((
                "shared".to_string(),
                CrossbarConfig::shared_bus(num_targets).with_arbitration(params.arbitration),
                CrossbarConfig::shared_bus(num_initiators).with_arbitration(params.arbitration),
            ));
        }
        if baselines.avg_flow {
            // Phase 2 already swept both traces; their whole-trace
            // analyses follow from its statistics.
            let avg_it =
                average_flow_design_from(self.analyzed.pre_it.stats.whole_trace(), params)?.config;
            let avg_ti =
                average_flow_design_from(self.analyzed.pre_ti.stats.whole_trace(), params)?.config;
            specs.push(("avg-based".to_string(), avg_it, avg_ti));
        }
        if baselines.peak {
            let peak_it = peak_bandwidth_design(&traffic.it_trace, params)?.config;
            let peak_ti = peak_bandwidth_design(&traffic.ti_trace, params)?.config;
            specs.push(("peak-based".to_string(), peak_it, peak_ti));
        }
        for &seed in &baselines.random_seeds {
            // A random permutation can be infeasible at the optimal size;
            // such seeds are skipped rather than failing the evaluation.
            let rnd_it =
                random_binding_design(&self.analyzed.pre_it, self.it.num_buses, seed, params)?;
            let rnd_ti =
                random_binding_design(&self.analyzed.pre_ti, self.ti.num_buses, seed, params)?;
            if let (Some(it), Some(ti)) = (rnd_it, rnd_ti) {
                specs.push((format!("random-{seed}"), it.config, ti.config));
            }
        }

        // Phase-4 simulations are independent per spec, so they feed the
        // process-wide worker set like every other parallel layer.
        // `exec::map` preserves spec order, so the evaluation is
        // bit-identical to the old sequential loop at any worker count.
        let mut results = exec::map(&specs, exec::parallelism(), |(label, it, ti)| {
            ConfigEval::new(label, it.clone(), ti.clone(), app, params)
        });
        let designed = results.remove(0);
        let evals: Vec<ConfigEval> = full.into_iter().chain(results).collect();

        Ok(Evaluation {
            app_name: app.name().to_string(),
            num_initiators,
            num_targets,
            it_synthesis: self.it.clone(),
            ti_synthesis: self.ti.clone(),
            designed,
            baselines: evals,
        })
    }

    /// Validates against the paper's baseline set (full, shared,
    /// avg-flow) and packages the result as the classic [`DesignReport`].
    ///
    /// # Errors
    ///
    /// [`FlowError::SolverLimit`] as for [`Synthesized::validate`].
    pub fn report(&self) -> Result<DesignReport, FlowError> {
        let evaluation = self.validate(&BaselineSet::paper())?;
        Ok(evaluation
            .into_report()
            .expect("paper baseline set carries full, shared and avg-flow"))
    }
}

/// Selector for the comparison designs phase 4 should evaluate.
///
/// Every baseline costs a cycle-accurate simulation pair (and the
/// avg-flow/peak baselines an extra MILP solve), so sweeps that only need
/// the designed crossbar's latency use [`BaselineSet::none`] and pay for
/// nothing else.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BaselineSet {
    /// Evaluate the full crossbar (latency reference).
    pub full: bool,
    /// Evaluate the single shared bus (cost reference).
    pub shared: bool,
    /// Evaluate the average-flow prior-work design.
    pub avg_flow: bool,
    /// Evaluate the peak-bandwidth (contention-elimination) design.
    pub peak: bool,
    /// Evaluate a random-but-feasible binding per listed seed.
    pub random_seeds: Vec<u64>,
}

impl BaselineSet {
    /// No baselines: only the designed configuration is simulated.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// The paper's evaluation set: full crossbar, shared bus, avg-flow.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            full: true,
            shared: true,
            avg_flow: true,
            ..Self::default()
        }
    }

    /// Every deterministic baseline (paper set plus peak-bandwidth).
    #[must_use]
    pub fn all() -> Self {
        Self {
            peak: true,
            ..Self::paper()
        }
    }

    /// Adds the full-crossbar baseline (builder style).
    #[must_use]
    pub fn with_full(mut self) -> Self {
        self.full = true;
        self
    }

    /// Adds the shared-bus baseline (builder style).
    #[must_use]
    pub fn with_shared(mut self) -> Self {
        self.shared = true;
        self
    }

    /// Adds the average-flow baseline (builder style).
    #[must_use]
    pub fn with_avg_flow(mut self) -> Self {
        self.avg_flow = true;
        self
    }

    /// Adds the peak-bandwidth baseline (builder style).
    #[must_use]
    pub fn with_peak(mut self) -> Self {
        self.peak = true;
        self
    }

    /// Adds a random-binding baseline for `seed` (builder style).
    #[must_use]
    pub fn with_random(mut self, seed: u64) -> Self {
        self.random_seeds.push(seed);
        self
    }
}

/// Phase-4 artifact: the designed configuration evaluated next to the
/// requested baselines.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Application name.
    pub app_name: String,
    /// Initiator count.
    pub num_initiators: usize,
    /// Target count.
    pub num_targets: usize,
    /// Request-path synthesis detail.
    pub it_synthesis: SynthesisOutcome,
    /// Response-path synthesis detail.
    pub ti_synthesis: SynthesisOutcome,
    /// The methodology's design, evaluated.
    pub designed: ConfigEval,
    /// The evaluated baselines, labelled `full` / `shared` / `avg-based` /
    /// `peak-based` / `random-<seed>`.
    pub baselines: Vec<ConfigEval>,
}

impl Evaluation {
    /// Looks up an evaluated baseline by label.
    #[must_use]
    pub fn baseline(&self, label: &str) -> Option<&ConfigEval> {
        self.baselines.iter().find(|e| e.label == label)
    }

    /// Repackages a paper-baseline evaluation as the classic
    /// [`DesignReport`]. Returns `None` when the `full`, `shared` or
    /// `avg-based` baseline was not evaluated.
    #[must_use]
    pub fn into_report(self) -> Option<DesignReport> {
        let find = |label: &str| self.baselines.iter().find(|e| e.label == label).cloned();
        let full = find("full")?;
        let shared = find("shared")?;
        let avg_based = find("avg-based")?;
        Some(DesignReport {
            app_name: self.app_name,
            num_initiators: self.num_initiators,
            num_targets: self.num_targets,
            it_synthesis: self.it_synthesis,
            ti_synthesis: self.ti_synthesis,
            designed: self.designed,
            full,
            shared,
            avg_based,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::average_flow_design;
    use crate::synthesizer::{Exact, Heuristic};
    use stbus_traffic::workloads;
    use stbus_traffic::{InitiatorId, TargetEdit, TargetId, TraceEvent};

    /// The incremental-equivalence contract at pipeline level: for every
    /// delta shape, `reanalyze` must equal the from-scratch route
    /// (`apply_delta` then `analyze`) bit for bit — stats, profiles and
    /// conflict graphs in both directions.
    fn assert_reanalyze_matches(base_params: &DesignParams, delta: &WorkloadDelta) {
        let app = workloads::matrix::mat2(42);
        let collected = Pipeline::collect(&app, base_params);
        let analyzed = collected.analyze(base_params);

        let incremental = analyzed.reanalyze(delta).expect("valid delta");
        let new_params = match delta.threshold {
            Some(theta) => base_params.clone().with_overlap_threshold(theta),
            None => base_params.clone(),
        };
        let scratch_collected = collected.apply_delta(delta).expect("valid delta");
        let scratch = scratch_collected.analyze(&new_params);

        assert_eq!(
            incremental.collected().traffic().it_trace,
            scratch.collected().traffic().it_trace
        );
        assert_eq!(
            incremental.collected().traffic().ti_trace,
            scratch.collected().traffic().ti_trace
        );
        for (label, inc, fresh) in [
            ("it", incremental.pre_it(), scratch.pre_it()),
            ("ti", incremental.pre_ti(), scratch.pre_ti()),
        ] {
            assert_eq!(inc.stats, fresh.stats, "{label} stats");
            assert_eq!(inc.profile, fresh.profile, "{label} profile");
            assert_eq!(inc.conflicts, fresh.conflicts, "{label} conflicts");
            assert_eq!(inc.maxtb, fresh.maxtb, "{label} maxtb");
        }
        assert_eq!(incremental.params(), scratch.params());
    }

    fn edit_delta() -> WorkloadDelta {
        WorkloadDelta {
            edits: vec![TargetEdit {
                target: TargetId::new(1),
                events: vec![
                    TraceEvent::new(InitiatorId::new(0), TargetId::new(1), 40, 25),
                    TraceEvent::new(InitiatorId::new(1), TargetId::new(1), 55, 10),
                ],
            }],
            ..WorkloadDelta::default()
        }
    }

    #[test]
    fn reanalyze_matches_from_scratch_on_edit() {
        assert_reanalyze_matches(&DesignParams::default(), &edit_delta());
    }

    #[test]
    fn reanalyze_matches_from_scratch_on_removal() {
        let delta = WorkloadDelta {
            removed: vec![TargetId::new(2)],
            ..WorkloadDelta::default()
        };
        assert_reanalyze_matches(&DesignParams::default(), &delta);
    }

    #[test]
    fn reanalyze_matches_from_scratch_on_added_target() {
        let app = workloads::matrix::mat2(42);
        let n = Pipeline::collect(&app, &DesignParams::default())
            .traffic()
            .it_trace
            .num_targets();
        let delta = WorkloadDelta {
            add_targets: 1,
            edits: vec![TargetEdit {
                target: TargetId::new(n),
                events: vec![TraceEvent::new(
                    InitiatorId::new(0),
                    TargetId::new(n),
                    5,
                    30,
                )],
            }],
            ..WorkloadDelta::default()
        };
        assert_reanalyze_matches(&DesignParams::default(), &delta);
    }

    #[test]
    fn reanalyze_matches_from_scratch_on_theta_change() {
        // θ-only rides the at_threshold fast path; θ+traffic re-derives
        // the conflict graph from the patched profile.
        let theta_only = WorkloadDelta {
            threshold: Some(0.35),
            ..WorkloadDelta::default()
        };
        assert_reanalyze_matches(&DesignParams::default(), &theta_only);
        let both = WorkloadDelta {
            threshold: Some(0.05),
            ..edit_delta()
        };
        assert_reanalyze_matches(&DesignParams::default(), &both);
    }

    #[test]
    fn reanalyze_matches_from_scratch_under_adaptive_windows() {
        // Adaptive plans re-derive their boundaries from the trace, so
        // this exercises the documented full-re-analysis fallback.
        let params = DesignParams::default().with_adaptive_windows(2_000, 0.02);
        assert_reanalyze_matches(&params, &edit_delta());
    }

    #[test]
    fn reanalyze_rejects_invalid_deltas() {
        let app = workloads::matrix::mat2(42);
        let params = DesignParams::default();
        let collected = Pipeline::collect(&app, &params);
        let analyzed = collected.analyze(&params);
        let delta = WorkloadDelta {
            removed: vec![TargetId::new(999)],
            ..WorkloadDelta::default()
        };
        assert!(analyzed.reanalyze(&delta).is_err());
        let bad_theta = WorkloadDelta {
            threshold: Some(-0.5),
            ..WorkloadDelta::default()
        };
        assert!(analyzed.reanalyze(&bad_theta).is_err());
    }

    #[test]
    fn reanalyzed_artifact_synthesizes_like_scratch() {
        // The downstream phase-3 outcome agrees too: same bus counts and
        // probe logs either route.
        let app = workloads::matrix::mat2(42);
        let params = DesignParams::default();
        let collected = Pipeline::collect(&app, &params);
        let analyzed = collected.analyze(&params);
        let delta = edit_delta();
        let incremental = analyzed.reanalyze(&delta).expect("valid delta");
        let scratch_collected = collected.apply_delta(&delta).expect("valid delta");
        let scratch = scratch_collected.analyze(&params);
        let s_inc = incremental.synthesize(&Exact::default()).expect("ok");
        let s_scr = scratch.synthesize(&Exact::default()).expect("ok");
        assert_eq!(s_inc.it.num_buses, s_scr.it.num_buses);
        assert_eq!(s_inc.ti.num_buses, s_scr.ti.num_buses);
        assert_eq!(s_inc.it.probes, s_scr.it.probes);
        assert_eq!(s_inc.ti.probes, s_scr.ti.probes);
        assert_eq!(s_inc.it.config.assignment(), s_scr.it.config.assignment());
    }

    #[test]
    fn staged_pipeline_reuses_collection() {
        // Phase-1-once is structural here — `Pipeline::collect` is called
        // once and every sweep point analyses the same artifact. (The
        // global `phase1::collect_runs()` counter is not asserted in unit
        // tests: sibling tests collect concurrently, so deltas race. The
        // single-threaded `variable_windows` bench bin asserts it.)
        let app = workloads::matrix::mat2(42);
        let base = DesignParams::default();
        let collected = Pipeline::collect(&app, &base);
        let mut buses = Vec::new();
        for ws in [500u64, 1_000, 2_000] {
            let params = base.clone().with_window_size(ws);
            assert!(collected.is_compatible(&params));
            let analyzed = collected.analyze(&params);
            let synthesized = analyzed
                .synthesize(&Exact::default())
                .expect("within limits");
            buses.push(synthesized.total_buses());
        }
        // Smaller windows never shrink the crossbar.
        assert!(buses[0] >= buses[1] && buses[1] >= buses[2]);
    }

    #[test]
    fn threshold_sweep_reuses_window_analysis() {
        let app = workloads::matrix::mat2(42);
        let base = DesignParams::default();
        let collected = Pipeline::collect(&app, &base);
        let thresholds = [0.05, 0.15, 0.25, 0.40];

        // Route 1: fresh analysis per point (the pre-PR sweep cost).
        // Route 2: one artifact, O(pairs) re-threshold per point.
        // Route 3: re-threshold from an existing Analyzed.
        let swept = collected.analyze_sweep(&base, &thresholds);
        let first = collected.analyze(&base.clone().with_overlap_threshold(thresholds[0]));
        assert_eq!(swept.len(), thresholds.len());
        for (&theta, incremental) in thresholds.iter().zip(&swept) {
            let params = base.clone().with_overlap_threshold(theta);
            let fresh = collected.analyze(&params);
            let hopped = first.at_threshold(theta);
            for (label, a) in [("sweep", incremental), ("hop", &hopped)] {
                assert_eq!(
                    a.pre_it().conflicts,
                    fresh.pre_it().conflicts,
                    "{label} IT conflicts at θ={theta}"
                );
                assert_eq!(a.pre_ti().conflicts, fresh.pre_ti().conflicts);
                assert_eq!(a.pre_it().stats, fresh.pre_it().stats);
                assert_eq!(a.params().overlap_threshold, theta);
            }
            // And the synthesis downstream agrees bit for bit.
            let s_fresh = fresh.synthesize(&Exact::default()).expect("ok");
            let s_sweep = incremental.synthesize(&Exact::default()).expect("ok");
            assert_eq!(
                s_fresh.it.config.assignment(),
                s_sweep.it.config.assignment()
            );
            assert_eq!(s_fresh.it.probes, s_sweep.it.probes);
        }
    }

    #[test]
    fn fingerprints_track_key_equality() {
        let base = DesignParams::default();
        let variants = [
            base.clone(),
            base.clone().with_response_scale(0.5),
            base.clone().with_max_outstanding(2),
            base.clone().with_window_size(500),
            base.clone().with_adaptive_windows(4_000, 0.05),
        ];
        for a in &variants {
            for b in &variants {
                assert_eq!(
                    CollectionKey::of(a) == CollectionKey::of(b),
                    CollectionKey::of(a).fingerprint() == CollectionKey::of(b).fingerprint(),
                    "collection fingerprint must mirror key equality"
                );
                assert_eq!(
                    AnalysisKey::of(a) == AnalysisKey::of(b),
                    AnalysisKey::of(a).fingerprint() == AnalysisKey::of(b).fingerprint(),
                    "analysis fingerprint must mirror key equality"
                );
            }
        }
    }

    #[test]
    fn cached_traffic_round_trips_through_from_cached() {
        let app = workloads::matrix::mat2(42);
        let params = DesignParams::default();
        let fresh = Pipeline::collect(&app, &params);
        let analyzed = fresh.analyze(&params);
        let direct = analyzed.synthesize(&Exact::default()).expect("ok");

        // A cache stores the shared traffic; a later request rebuilds the
        // artifact on the same allocation and must land on bit-identical
        // results.
        let stored = Arc::clone(fresh.shared_traffic());
        let rebuilt = Collected::from_cached(&app, &params, stored);
        assert_eq!(rebuilt.key(), fresh.key());
        assert!(Arc::ptr_eq(
            rebuilt.shared_traffic(),
            fresh.shared_traffic()
        ));
        let rebuilt_analyzed = rebuilt.analyze(&params);
        let via_cache = rebuilt_analyzed.synthesize(&Exact::default()).expect("ok");
        assert_eq!(direct.it.probes, via_cache.it.probes);
        assert_eq!(direct.it.binding, via_cache.it.binding);
        assert_eq!(direct.ti.binding, via_cache.ti.binding);
    }

    #[test]
    fn analyses_share_the_collected_traffic() {
        let app = workloads::matrix::mat2(42);
        let params = DesignParams::default();
        let collected = Pipeline::collect(&app, &params);
        let shared = collected.shared_traffic();
        let analyzed = collected.analyze(&params);
        assert!(Arc::ptr_eq(analyzed.collected().shared_traffic(), shared));
        let swept = collected.analyze_sweep(&params, &[0.1, 0.2]);
        assert!(swept
            .iter()
            .all(|a| Arc::ptr_eq(a.collected().shared_traffic(), shared)));
        // A θ-only delta leaves the traffic alone; a traffic delta owns a
        // patched copy.
        let theta = analyzed
            .reanalyze(&WorkloadDelta {
                threshold: Some(0.3),
                ..WorkloadDelta::default()
            })
            .expect("valid delta");
        assert!(Arc::ptr_eq(theta.collected().shared_traffic(), shared));
        let removed = analyzed
            .reanalyze(&WorkloadDelta {
                removed: vec![TargetId::new(1)],
                ..WorkloadDelta::default()
            })
            .expect("valid delta");
        assert!(!Arc::ptr_eq(removed.collected().shared_traffic(), shared));
    }

    #[test]
    #[should_panic(expected = "different collection or window plan")]
    fn artifact_window_mismatch_rejected() {
        let app = workloads::matrix::mat2(42);
        let base = DesignParams::default();
        let collected = Pipeline::collect(&app, &base);
        let artifact = collected.analysis_artifact(&base);
        let other = base.with_window_size(500);
        let _ = collected.analyze_with(&artifact, &other);
    }

    #[test]
    #[should_panic(expected = "collect again")]
    fn incompatible_params_rejected() {
        let app = workloads::matrix::mat2(42);
        let base = DesignParams::default();
        let collected = Pipeline::collect(&app, &base);
        let other = base.with_response_scale(0.5);
        let _ = collected.analyze(&other);
    }

    #[test]
    fn baseline_selection_controls_simulation() {
        let app = workloads::qsort::qsort(44);
        let params = DesignParams::default();
        let collected = Pipeline::collect(&app, &params);
        let analyzed = collected.analyze(&params);
        let synthesized = analyzed.synthesize(&Heuristic::default()).expect("ok");

        let lean = synthesized.validate(&BaselineSet::none()).expect("ok");
        assert!(lean.baselines.is_empty());

        let rich = synthesized
            .validate(&BaselineSet::all().with_random(3))
            .expect("ok");
        assert!(rich.baseline("full").is_some());
        assert!(rich.baseline("shared").is_some());
        assert!(rich.baseline("avg-based").is_some());
        assert!(rich.baseline("peak-based").is_some());
        // The random seed may or may not be feasible; if present it is
        // labelled by seed.
        for b in &rich.baselines {
            assert!(["full", "shared", "avg-based", "peak-based", "random-3"]
                .contains(&b.label.as_str()));
        }
    }

    #[test]
    fn avg_flow_baseline_matches_its_trace_design() {
        // Phase 4 derives the avg-flow baseline from phase 2's
        // statistics; the design must equal the standalone trace-level
        // one under either window plan.
        let app = workloads::random::random(3);
        for params in [
            DesignParams::default(),
            DesignParams::default().with_adaptive_windows(8_000, 0.1),
        ] {
            let collected = Pipeline::collect(&app, &params);
            let analyzed = collected.analyze(&params);
            let synthesized = analyzed.synthesize(&Heuristic::default()).expect("ok");
            let eval = synthesized
                .validate(&BaselineSet::none().with_avg_flow())
                .expect("ok");
            let traffic = collected.traffic();
            let it = average_flow_design(&traffic.it_trace, &params).expect("ok");
            let ti = average_flow_design(&traffic.ti_trace, &params).expect("ok");
            let b = eval.baseline("avg-based").expect("evaluated");
            assert_eq!(b.it_config, it.config);
            assert_eq!(b.ti_config, ti.config);
        }
    }

    #[test]
    fn full_baseline_reuses_phase1_runs() {
        // The "full" baseline is phase 1's reference run, not a new
        // simulation: it must equal a fresh phase-4 replay on a fresh
        // collection and on a delta-patched one, under the default and a
        // non-default collection key.
        let app = workloads::random::random(3);
        for params in [
            DesignParams::default(),
            DesignParams::default()
                .with_arbitration(Arbitration::FixedPriority)
                .with_max_outstanding(2)
                .with_response_scale(0.5),
        ] {
            let full_it =
                CrossbarConfig::full(app.spec.num_targets()).with_arbitration(params.arbitration);
            let full_ti = CrossbarConfig::full(app.spec.num_initiators())
                .with_arbitration(params.arbitration);
            let fresh = crate::phase4::validate(&app.trace, &full_it, &full_ti, &params);
            let collected = Pipeline::collect(&app, &params);
            let patched = collected.apply_delta(&edit_delta()).expect("valid delta");
            for c in [&collected, &patched] {
                let analyzed = c.analyze(&params);
                let synthesized = analyzed.synthesize(&Heuristic::default()).expect("ok");
                let eval = synthesized
                    .validate(&BaselineSet::none().with_full())
                    .expect("ok");
                let full = eval.baseline("full").expect("full evaluated");
                assert_eq!(full.it_config, full_it);
                assert_eq!(full.ti_config, full_ti);
                assert_eq!(full.validation.it_report, fresh.it_report);
                assert_eq!(full.validation.ti_report, fresh.ti_report);
                assert_eq!(full.avg_latency.to_bits(), fresh.avg_latency().to_bits());
                assert_eq!(full.max_latency, fresh.max_latency());
            }
        }
    }

    #[test]
    fn report_round_trip_matches_baselines() {
        let app = workloads::fft::fft(7);
        let params = DesignParams::default().with_overlap_threshold(0.5);
        let report = Pipeline::collect(&app, &params)
            .analyze(&params)
            .synthesize(&Exact::default())
            .expect("ok")
            .report()
            .expect("ok");
        assert_eq!(report.full.label, "full");
        assert_eq!(report.shared.label, "shared");
        assert_eq!(report.avg_based.label, "avg-based");
        assert!(report.component_saving() >= 1.0);
    }
}
