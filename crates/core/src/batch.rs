//! Parallel design-space evaluation over `applications × parameter grid`.
//!
//! [`Batch`] is the sweep-scale front end of the staged pipeline: it takes
//! a set of applications and a parameter grid, groups the grid points by
//! [`CollectionKey`] so the expensive phase-1 reference simulation runs
//! once per application per key, and evaluates every point in parallel on
//! the process-wide work-stealing executor ([`crate::exec`]). Results are
//! returned in deterministic app-major order and are bit-identical to a
//! sequential run — jobs share nothing but immutable artifacts.
//!
//! Because the stages run as executor tasks rather than on a private
//! scoped pool, the parallelism inside each design point — the two
//! phase-3 crossbar directions, the annealer's repair restarts, the
//! phase-4 simulations — feeds the *same* worker set instead of pinning
//! the run to the batch width.
//!
//! # Example
//!
//! ```
//! use stbus_core::{Batch, DesignParams};
//! use stbus_core::pipeline::BaselineSet;
//! use stbus_traffic::workloads;
//!
//! let apps = vec![workloads::matrix::mat2(42), workloads::qsort::qsort(42)];
//! let grid: Vec<DesignParams> = [0.15, 0.30]
//!     .iter()
//!     .map(|&t| DesignParams::default().with_overlap_threshold(t))
//!     .collect();
//! let results = Batch::over(&apps, grid)
//!     .with_baselines(BaselineSet::none())
//!     .run();
//! assert_eq!(results.len(), 4); // 2 apps × 2 grid points
//! for point in &results {
//!     let eval = point.result.as_ref().expect("within limits");
//!     assert!(eval.designed.total_buses() >= 2);
//! }
//! ```

use crate::exec;
use crate::flow::FlowError;
use crate::params::DesignParams;
use crate::pipeline::{
    AnalysisArtifact, AnalysisKey, BaselineSet, Collected, CollectionKey, Evaluation, Pipeline,
};
use crate::synthesizer::{Exact, SolverKind, Synthesizer};
use stbus_traffic::workloads::Application;
use std::num::NonZeroUsize;

/// One evaluated point of the design space.
#[derive(Debug)]
pub struct BatchResult {
    /// Index of the application in the batch's app slice.
    pub app_index: usize,
    /// Application name (denormalised for convenience).
    pub app_name: String,
    /// Index of the parameter point in the grid.
    pub grid_index: usize,
    /// The parameters evaluated at this point.
    pub params: DesignParams,
    /// The evaluation, or the solver-limit error that stopped it.
    pub result: Result<Evaluation, FlowError>,
}

/// A design-space evaluation over a set of `(application, parameters)`
/// points.
pub struct Batch<'a> {
    apps: &'a [Application],
    /// `(app_index, grid_index, params)` per design point.
    jobs: Vec<(usize, usize, DesignParams)>,
    strategy: Box<dyn Synthesizer + 'a>,
    baselines: BaselineSet,
    threads: Option<NonZeroUsize>,
}

impl<'a> Batch<'a> {
    /// Builds a batch evaluating every application at every grid point
    /// (the full `apps × grid` cross product, app-major order).
    #[must_use]
    pub fn over(apps: &'a [Application], grid: impl IntoIterator<Item = DesignParams>) -> Self {
        let grid: Vec<DesignParams> = grid.into_iter().collect();
        let jobs = (0..apps.len())
            .flat_map(|a| {
                grid.iter()
                    .enumerate()
                    .map(move |(g, params)| (a, g, params.clone()))
            })
            .collect();
        Self::from_jobs(apps, jobs)
    }

    /// Builds a batch with one point per application, using per-application
    /// parameters — the shape of the paper's evaluation suite, where each
    /// benchmark has its own tuned window size and threshold.
    #[must_use]
    pub fn per_app(apps: &'a [Application], params: impl Fn(&Application) -> DesignParams) -> Self {
        let jobs = apps
            .iter()
            .enumerate()
            .map(|(a, app)| (a, 0, params(app)))
            .collect();
        Self::from_jobs(apps, jobs)
    }

    fn from_jobs(apps: &'a [Application], jobs: Vec<(usize, usize, DesignParams)>) -> Self {
        Self {
            apps,
            jobs,
            strategy: Box::new(Exact::default()),
            baselines: BaselineSet::paper(),
            threads: None,
        }
    }

    /// Sets the synthesis strategy (default: [`Exact`]).
    #[must_use]
    pub fn with_strategy(mut self, strategy: impl Synthesizer + 'a) -> Self {
        self.strategy = Box::new(strategy);
        self
    }

    /// Sets the synthesis strategy by name (default-configured).
    #[must_use]
    pub fn with_strategy_kind(mut self, kind: SolverKind) -> Self {
        self.strategy = kind.synthesizer();
        self
    }

    /// Sets the baselines each evaluation simulates (default: the paper
    /// set — full, shared, avg-flow).
    #[must_use]
    pub fn with_baselines(mut self, baselines: BaselineSet) -> Self {
        self.baselines = baselines;
        self
    }

    /// Caps how many of this batch's jobs are in flight on the shared
    /// executor at once (default: the executor's parallelism).
    /// `threads(1)` runs the batch's stages one after another on the
    /// calling thread — useful for verifying that parallel results are
    /// identical. The cap applies to the batch's own stages only; the
    /// parallelism inside each design point still spreads across every
    /// executor worker: the two phase-3 crossbar directions (see
    /// [`crate::pipeline::Analyzed::synthesize_cancellable`]), annealer
    /// restarts and the phase-4 simulations.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(NonZeroUsize::new(threads).expect("at least one worker thread"));
        self
    }

    /// Number of design points this batch evaluates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the batch is empty (no apps or an empty grid).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn worker_count(&self, jobs: usize) -> usize {
        let available = self
            .threads
            .map_or_else(exec::parallelism, NonZeroUsize::get);
        available.min(jobs).max(1)
    }

    /// The deduplicated collection specs stage A of [`Batch::run`] will
    /// execute: one `(app_index, params)` entry per distinct
    /// `(application, `[`CollectionKey`]`)` pair, in first-job order.
    ///
    /// This is the batch's phase-1 cost, inspectable without running
    /// anything — a sweep over analysis-only knobs yields one entry per
    /// application no matter how many grid points it has.
    #[must_use]
    pub fn collection_plan(&self) -> Vec<(usize, DesignParams)> {
        let mut collect_specs: Vec<(usize, DesignParams)> = Vec::new();
        for &(a, _, ref params) in &self.jobs {
            let key = CollectionKey::of(params);
            let seen = collect_specs
                .iter()
                .any(|(sa, sp)| *sa == a && CollectionKey::of(sp) == key);
            if !seen {
                collect_specs.push((a, params.clone()));
            }
        }
        collect_specs
    }

    /// The deduplicated window-analysis specs stage A2 of [`Batch::run`]
    /// will execute: one `(app_index, params)` entry per distinct
    /// `(application, `[`CollectionKey`]`, `[`AnalysisKey`]`)` triple, in
    /// first-job order.
    ///
    /// This is the batch's phase-2 *sweep-line* cost: a θ/`maxtb`/strategy
    /// sweep yields one entry per application no matter how many grid
    /// points it has — every further point is an O(pairs) re-threshold of
    /// the shared [`AnalysisArtifact`].
    #[must_use]
    pub fn analysis_plan(&self) -> Vec<(usize, DesignParams)> {
        let mut specs: Vec<(usize, DesignParams)> = Vec::new();
        for &(a, _, ref params) in &self.jobs {
            let ckey = CollectionKey::of(params);
            let akey = AnalysisKey::of(params);
            let seen = specs.iter().any(|(sa, sp)| {
                *sa == a && CollectionKey::of(sp) == ckey && AnalysisKey::of(sp) == akey
            });
            if !seen {
                specs.push((a, params.clone()));
            }
        }
        specs
    }

    /// Evaluates every `(app, grid point)` pair and returns the results in
    /// app-major, grid-minor order.
    ///
    /// Phase 1 runs exactly once per `(application, `[`CollectionKey`]`)`
    /// pair regardless of how many grid points share it (see
    /// [`Batch::collection_plan`]); the phase-2 window analysis runs once
    /// per `(application, `[`CollectionKey`]`, `[`AnalysisKey`]`)` triple
    /// (see [`Batch::analysis_plan`]) with every further grid point paying
    /// only an O(pairs) re-threshold; phases 3–4 run per point, spread
    /// across the shared executor's workers.
    #[must_use]
    pub fn run(&self) -> Vec<BatchResult> {
        let mut out = Vec::with_capacity(self.jobs.len());
        self.run_streaming(|_, result| out.push(result));
        out
    }

    /// [`Batch::run`], but results are handed to `sink` **in job order as
    /// they complete** instead of materialised as one vector at the end:
    /// `sink(i, result)` is called for `i = 0, 1, …` while later design
    /// points are still evaluating (bounded look-ahead, see
    /// [`exec::map_streaming`]). A CLI batch prints finished rows
    /// immediately; a gateway sweep serialises them into its response as
    /// they land. The results and their order are bit-identical to
    /// [`Batch::run`] at every worker count.
    pub fn run_streaming<S>(&self, sink: S)
    where
        S: FnMut(usize, BatchResult),
    {
        // --- Stage A: one collection per (app, collection key). ---
        let collect_specs = self.collection_plan();
        let collected: Vec<Collected<'a>> = exec::map(
            &collect_specs,
            self.worker_count(collect_specs.len()),
            |(a, params)| Pipeline::collect(&self.apps[*a], params),
        );
        let collected_for = |a: usize, params: &DesignParams| -> &Collected<'a> {
            let key = CollectionKey::of(params);
            collect_specs
                .iter()
                .position(|(sa, sp)| *sa == a && CollectionKey::of(sp) == key)
                .map(|i| &collected[i])
                .expect("every job's collection was prepared in stage A")
        };

        // --- Stage A2: one window analysis per (app, ckey, akey). ---
        let analysis_specs = self.analysis_plan();
        let artifacts: Vec<AnalysisArtifact> = exec::map(
            &analysis_specs,
            self.worker_count(analysis_specs.len()),
            |(a, params)| collected_for(*a, params).analysis_artifact(params),
        );
        let artifact_for = |a: usize, params: &DesignParams| -> &AnalysisArtifact {
            let ckey = CollectionKey::of(params);
            let akey = AnalysisKey::of(params);
            analysis_specs
                .iter()
                .position(|(sa, sp)| {
                    *sa == a && CollectionKey::of(sp) == ckey && AnalysisKey::of(sp) == akey
                })
                .map(|i| &artifacts[i])
                .expect("every job's analysis was prepared in stage A2")
        };

        // --- Stage B: evaluate every point against its artifacts,
        // streaming each finished result to the sink in job order. ---
        exec::map_streaming(
            &self.jobs,
            self.worker_count(self.jobs.len()),
            |&(a, g, ref params)| {
                let result = collected_for(a, params)
                    .analyze_with(artifact_for(a, params), params)
                    .synthesize(self.strategy.as_ref())
                    .and_then(|synthesized| synthesized.validate(&self.baselines));
                BatchResult {
                    app_index: a,
                    app_name: self.apps[a].name().to_string(),
                    grid_index: g,
                    params: params.clone(),
                    result,
                }
            },
            sink,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesizer::Heuristic;
    use stbus_traffic::workloads;

    fn grid() -> Vec<DesignParams> {
        [500u64, 1_000, 2_000]
            .iter()
            .map(|&ws| DesignParams::default().with_window_size(ws))
            .collect()
    }

    #[test]
    fn parallel_matches_sequential() {
        let apps = vec![workloads::matrix::mat2(42), workloads::qsort::qsort(42)];
        let batch = Batch::over(&apps, grid()).with_baselines(BaselineSet::none());
        let parallel = batch.run();
        let sequential = Batch::over(&apps, grid())
            .with_baselines(BaselineSet::none())
            .threads(1)
            .run();
        assert_eq!(parallel.len(), 6);
        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.iter().zip(&sequential) {
            assert_eq!((p.app_index, p.grid_index), (s.app_index, s.grid_index));
            let (pe, se) = (
                p.result.as_ref().expect("ok"),
                s.result.as_ref().expect("ok"),
            );
            assert_eq!(pe.it_synthesis.num_buses, se.it_synthesis.num_buses);
            assert_eq!(
                pe.it_synthesis.config.assignment(),
                se.it_synthesis.config.assignment()
            );
            assert_eq!(pe.designed.avg_latency, se.designed.avg_latency);
            assert_eq!(pe.designed.max_latency, se.designed.max_latency);
        }
    }

    // Phase-1-once is asserted via `collection_plan()` rather than deltas
    // of the process-global `phase1::collect_runs()` counter: unit tests
    // in this binary run concurrently and all collect traffic, so global
    // deltas race. The single-threaded `variable_windows` bench binary
    // asserts the counter end-to-end.
    #[test]
    fn collection_runs_once_per_app_and_key() {
        let apps = vec![workloads::fft::fft(9)];
        let batch = Batch::over(&apps, grid())
            .with_strategy(Heuristic::default())
            .with_baselines(BaselineSet::none());
        assert_eq!(
            batch.collection_plan().len(),
            1,
            "one app, one collection key -> exactly one phase-1 run"
        );
        assert_eq!(batch.run().len(), 3);

        // Two distinct collection keys -> two runs, even on one app.
        let mixed = vec![
            DesignParams::default(),
            DesignParams::default().with_response_scale(0.5),
            DesignParams::default().with_window_size(2_000),
        ];
        let batch = Batch::over(&apps, mixed)
            .with_strategy(Heuristic::default())
            .with_baselines(BaselineSet::none());
        let plan = batch.collection_plan();
        assert_eq!(plan.len(), 2);
        assert_eq!(
            CollectionKey::of(&plan[0].1),
            CollectionKey::of(&DesignParams::default())
        );
        assert_eq!(
            CollectionKey::of(&plan[1].1),
            CollectionKey::of(&DesignParams::default().with_response_scale(0.5))
        );
        assert_eq!(batch.run().len(), 3);

        // Two apps sharing a key still collect per app.
        let two_apps = vec![workloads::fft::fft(9), workloads::qsort::qsort(9)];
        assert_eq!(Batch::over(&two_apps, grid()).collection_plan().len(), 2);
    }

    #[test]
    fn theta_sweep_shares_one_window_analysis() {
        // Five thresholds, one window plan: one collection, one window
        // analysis, five O(pairs) re-thresholds.
        let apps = vec![workloads::fft::fft(9)];
        let theta_grid: Vec<DesignParams> = [0.05, 0.15, 0.25, 0.35, 0.45]
            .iter()
            .map(|&t| DesignParams::default().with_overlap_threshold(t))
            .collect();
        let batch = Batch::over(&apps, theta_grid.clone())
            .with_strategy(Heuristic::default())
            .with_baselines(BaselineSet::none());
        assert_eq!(batch.collection_plan().len(), 1);
        assert_eq!(batch.analysis_plan().len(), 1);

        // Distinct window sizes still fork the analysis (but not the
        // collection).
        let mut mixed = theta_grid;
        mixed.push(DesignParams::default().with_window_size(500));
        let batch = Batch::over(&apps, mixed)
            .with_strategy(Heuristic::default())
            .with_baselines(BaselineSet::none());
        assert_eq!(batch.collection_plan().len(), 1);
        assert_eq!(batch.analysis_plan().len(), 2);
        assert_eq!(batch.run().len(), 6);
    }

    #[test]
    fn empty_batches_are_fine() {
        let apps: Vec<workloads::Application> = Vec::new();
        assert!(Batch::over(&apps, grid()).is_empty());
        assert!(Batch::over(&apps, grid()).run().is_empty());
        let apps = vec![workloads::qsort::qsort(1)];
        assert!(Batch::over(&apps, Vec::new()).run().is_empty());
    }
}
