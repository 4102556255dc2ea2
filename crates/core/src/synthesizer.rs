//! Pluggable synthesis strategies for phase 3.
//!
//! The paper solves MILP-1/MILP-2 with one exact engine; this toolkit has
//! grown an exact backtracking solver *and* a polynomial heuristic, and a
//! design-space sweep wants to choose per point. The [`Synthesizer`] trait
//! abstracts that choice so the staged pipeline
//! ([`crate::pipeline::Analyzed::synthesize`]) and the [`crate::Batch`]
//! runner take a strategy value instead of hard-coding a free function:
//!
//! * [`Exact`] — the provably optimal search (the paper's CPLEX role);
//! * [`Heuristic`] — greedy + local search, polynomial time, no proofs;
//! * [`Portfolio`] — exact within a node budget, falling back to the
//!   heuristic when the budget is exhausted. This is the strategy for
//!   large unattended sweeps: optimal answers where affordable, graceful
//!   degradation where not.
//!
//! Strategies are plain data (`Sync`), so one instance can drive many
//! parallel evaluations.
//!
//! Every strategy implements one method,
//! [`Synthesizer::synthesize_cancellable`], over the one exact path
//! ([`ProbeScheduler::synthesize`]) and the one heuristic path
//! ([`synthesize_heuristic`]); [`Synthesizer::synthesize`] is the
//! provided root-token convenience. Solver knobs — node budget,
//! `{pruning} × {search}` — come from [`DesignParams::solve_limits`]; the
//! strategies add only what is theirs: an optional node budget override
//! and the probe parallelism.

use crate::params::DesignParams;
use crate::phase2::Preprocessed;
use crate::phase3::{synthesize_heuristic, ProbeScheduler, SynthesisOutcome};
use stbus_exec::CancelToken;
use stbus_milp::{HeuristicOptions, NodeLimitExceeded, SolveLimits};
use std::num::NonZeroUsize;

/// A phase-3 solving strategy: turns a preprocessed analysis into a
/// synthesised crossbar for one direction.
pub trait Synthesizer: Sync {
    /// Short human-readable strategy name (used in reports and logs).
    fn name(&self) -> &'static str;

    /// Synthesises the minimum crossbar and its binding under a
    /// cooperative per-request [`CancelToken`]: `Ok(None)` means the
    /// token was raised and the synthesis was abandoned.
    ///
    /// # Errors
    ///
    /// [`NodeLimitExceeded`] if the underlying exact search exhausts its
    /// node budget and the strategy has no fallback.
    fn synthesize_cancellable(
        &self,
        pre: &Preprocessed,
        params: &DesignParams,
        cancel: &CancelToken,
    ) -> Result<Option<SynthesisOutcome>, NodeLimitExceeded>;

    /// [`Synthesizer::synthesize_cancellable`] under a fresh root token
    /// nobody can raise.
    ///
    /// # Errors
    ///
    /// [`NodeLimitExceeded`] exactly as
    /// [`Synthesizer::synthesize_cancellable`].
    fn synthesize(
        &self,
        pre: &Preprocessed,
        params: &DesignParams,
    ) -> Result<SynthesisOutcome, NodeLimitExceeded> {
        self.synthesize_cancellable(pre, params, &CancelToken::new())
            .map(|outcome| outcome.expect("a root token is never raised"))
    }
}

/// `params` with `limits`, when set, in place of its own
/// [`DesignParams::solve_limits`].
fn params_with_limits(params: &DesignParams, limits: Option<&SolveLimits>) -> DesignParams {
    let mut p = params.clone();
    if let Some(limits) = limits {
        p.solve_limits = limits.clone();
    }
    p
}

/// The exact solver: binary-searched MILP-1 feasibility plus MILP-2
/// optimal binding, with optimality/infeasibility proofs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Exact {
    /// Overrides [`DesignParams::solve_limits`] when set.
    pub limits: Option<SolveLimits>,
    /// Speculative feasibility-probe parallelism: `None` runs the classic
    /// sequential binary search (a width-1 [`ProbeScheduler`]); `Some(j)`
    /// keeps waves of up to `j` probes in flight on the process-wide
    /// executor ([`crate::exec`]). Outcomes are bit-identical either way
    /// (the scheduler replays the sequential search against cached probe
    /// answers), so this is purely a wall-clock knob.
    pub jobs: Option<NonZeroUsize>,
}

impl Exact {
    /// Exact solving with an explicit node budget.
    #[must_use]
    pub fn with_limits(limits: SolveLimits) -> Self {
        Self {
            limits: Some(limits),
            ..Self::default()
        }
    }

    /// Exact solving with speculative probe parallelism (builder style).
    #[must_use]
    pub fn with_jobs(mut self, jobs: NonZeroUsize) -> Self {
        self.jobs = Some(jobs);
        self
    }
}

impl Synthesizer for Exact {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn synthesize_cancellable(
        &self,
        pre: &Preprocessed,
        params: &DesignParams,
        cancel: &CancelToken,
    ) -> Result<Option<SynthesisOutcome>, NodeLimitExceeded> {
        let params = params_with_limits(params, self.limits.as_ref());
        ProbeScheduler::new(self.jobs.unwrap_or(NonZeroUsize::MIN)).synthesize(pre, &params, cancel)
    }
}

/// The greedy + local-search heuristic: polynomial time, no proofs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Heuristic {
    /// Local-search options plumbed through to
    /// [`stbus_milp::solve_heuristic`].
    pub options: HeuristicOptions,
}

impl Heuristic {
    /// Heuristic solving with an explicit move budget.
    #[must_use]
    pub fn with_options(options: HeuristicOptions) -> Self {
        Self { options }
    }
}

impl Synthesizer for Heuristic {
    fn name(&self) -> &'static str {
        "heuristic"
    }

    fn synthesize_cancellable(
        &self,
        pre: &Preprocessed,
        params: &DesignParams,
        cancel: &CancelToken,
    ) -> Result<Option<SynthesisOutcome>, NodeLimitExceeded> {
        Ok(synthesize_heuristic(pre, params, &self.options, cancel))
    }
}

/// Exact solving within a node budget, with heuristic fallback.
///
/// The outcome's [`SynthesisOutcome::engine`] records which engine
/// answered, so sweeps can count how often the budget sufficed.
///
/// With [`Portfolio::with_jobs`], the exact attempt runs on the parallel
/// [`ProbeScheduler`] with the deterministic per-probe
/// exact-vs-heuristic race enabled ([`ProbeScheduler::with_race`]): each
/// feasibility probe tries the polynomial heuristic first and only calls
/// the exact solver when the heuristic fails to certify the bus count.
/// When the exact search is within budget the outcome is bit-identical
/// to the sequential portfolio; under starvation the raced attempt can
/// only succeed more often before the heuristic fallback engages.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Portfolio {
    /// Node budget for the exact attempt. Defaults to
    /// [`DesignParams::solve_limits`] when `None`.
    pub exact_limits: Option<SolveLimits>,
    /// Options for the heuristic fallback (and, in raced mode, for the
    /// per-probe heuristic pre-pass).
    pub heuristic: HeuristicOptions,
    /// Probe parallelism of the exact attempt; `None` = sequential.
    pub jobs: Option<NonZeroUsize>,
}

impl Portfolio {
    /// Portfolio with an explicit exact-attempt node budget.
    #[must_use]
    pub fn with_budget(limits: SolveLimits) -> Self {
        Self {
            exact_limits: Some(limits),
            ..Self::default()
        }
    }

    /// Portfolio with parallel raced probes (builder style).
    #[must_use]
    pub fn with_jobs(mut self, jobs: NonZeroUsize) -> Self {
        self.jobs = Some(jobs);
        self
    }
}

impl Synthesizer for Portfolio {
    fn name(&self) -> &'static str {
        "portfolio"
    }

    fn synthesize_cancellable(
        &self,
        pre: &Preprocessed,
        params: &DesignParams,
        cancel: &CancelToken,
    ) -> Result<Option<SynthesisOutcome>, NodeLimitExceeded> {
        let effective = params_with_limits(params, self.exact_limits.as_ref());
        // Sequential portfolio = unraced width-1 search; parallel
        // portfolio keeps the deterministic race.
        let scheduler = match self.jobs {
            None => ProbeScheduler::new(NonZeroUsize::MIN),
            Some(jobs) => ProbeScheduler::new(jobs).with_race(self.heuristic),
        };
        match scheduler.synthesize(pre, &effective, cancel) {
            Ok(outcome) => Ok(outcome),
            Err(NodeLimitExceeded { .. }) => {
                Ok(synthesize_heuristic(pre, params, &self.heuristic, cancel))
            }
        }
    }
}

/// Named strategy selector for CLI and configuration surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// [`Exact`].
    Exact,
    /// [`Heuristic`].
    Heuristic,
    /// [`Portfolio`].
    Portfolio,
}

impl SolverKind {
    /// Instantiates the strategy for this kind with explicit probe
    /// parallelism (`None` = sequential) — what the CLI's and the
    /// gateway's `jobs` knob plumbs through. The heuristic's upward scan
    /// has no probes to speculate, so `jobs` is ignored there. Pruning
    /// and search levels travel in [`DesignParams::solve_limits`].
    #[must_use]
    pub fn synthesizer(self, jobs: Option<NonZeroUsize>) -> Box<dyn Synthesizer> {
        match self {
            SolverKind::Exact => Box::new(Exact { limits: None, jobs }),
            SolverKind::Heuristic => Box::new(Heuristic::default()),
            SolverKind::Portfolio => Box::new(Portfolio {
                jobs,
                ..Portfolio::default()
            }),
        }
    }
}

impl std::str::FromStr for SolverKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(SolverKind::Exact),
            "heuristic" => Ok(SolverKind::Heuristic),
            "portfolio" => Ok(SolverKind::Portfolio),
            other => Err(format!(
                "unknown solver `{other}` (expected exact|heuristic|portfolio)"
            )),
        }
    }
}

impl std::fmt::Display for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverKind::Exact => write!(f, "exact"),
            SolverKind::Heuristic => write!(f, "heuristic"),
            SolverKind::Portfolio => write!(f, "portfolio"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase1;
    use crate::phase3::SynthesisEngine;
    use stbus_traffic::workloads;

    fn mat2_pre() -> (Preprocessed, DesignParams) {
        let app = workloads::matrix::mat2(42);
        let params = DesignParams::default();
        let collected = phase1::collect(&app, &params);
        (Preprocessed::analyze(&collected.it_trace, &params), params)
    }

    #[test]
    fn exact_and_heuristic_report_their_engines() {
        let (pre, params) = mat2_pre();
        let exact = Exact::default().synthesize(&pre, &params).unwrap();
        assert_eq!(exact.engine, SynthesisEngine::Exact);
        let heuristic = Heuristic::default().synthesize(&pre, &params).unwrap();
        assert_eq!(heuristic.engine, SynthesisEngine::Heuristic);
        assert_eq!(exact.num_buses, heuristic.num_buses);
    }

    #[test]
    fn portfolio_falls_back_on_tiny_budget() {
        let (pre, params) = mat2_pre();
        let starved = Portfolio::with_budget(SolveLimits::nodes(1));
        let outcome = starved.synthesize(&pre, &params).unwrap();
        assert_eq!(outcome.engine, SynthesisEngine::Heuristic);
        // A comfortable budget keeps the exact engine in charge.
        let comfortable = Portfolio::default();
        let outcome = comfortable.synthesize(&pre, &params).unwrap();
        assert_eq!(outcome.engine, SynthesisEngine::Exact);
    }

    #[test]
    fn parallel_strategies_match_sequential() {
        let (pre, params) = mat2_pre();
        let seq_exact = Exact::default().synthesize(&pre, &params).unwrap();
        let par_exact = Exact::default()
            .with_jobs(NonZeroUsize::new(8).unwrap())
            .synthesize(&pre, &params)
            .unwrap();
        assert_eq!(par_exact.probes, seq_exact.probes);
        assert_eq!(par_exact.binding, seq_exact.binding);
        assert_eq!(par_exact.engine, seq_exact.engine);

        let seq_pf = Portfolio::default().synthesize(&pre, &params).unwrap();
        let par_pf = Portfolio::default()
            .with_jobs(NonZeroUsize::new(8).unwrap())
            .synthesize(&pre, &params)
            .unwrap();
        assert_eq!(par_pf.probes, seq_pf.probes);
        assert_eq!(par_pf.binding, seq_pf.binding);
        assert_eq!(par_pf.engine, SynthesisEngine::Exact);
    }

    #[test]
    fn solver_kind_round_trips() {
        for (text, kind) in [
            ("exact", SolverKind::Exact),
            ("heuristic", SolverKind::Heuristic),
            ("portfolio", SolverKind::Portfolio),
        ] {
            assert_eq!(text.parse::<SolverKind>().unwrap(), kind);
            assert_eq!(kind.synthesizer(None).name(), text);
        }
        assert!("cplex".parse::<SolverKind>().is_err());
    }
}
