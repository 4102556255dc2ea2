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
//! ([`synthesize_exact`]) and the one heuristic path
//! ([`synthesize_heuristic`]); [`Synthesizer::synthesize`] is the
//! provided root-token convenience. The solver limits come from
//! [`DesignParams::solve_limits`]; the strategies add only what is
//! theirs: an optional node budget override and the heuristic's options.

use crate::params::DesignParams;
use crate::phase2::Preprocessed;
use crate::phase3::{synthesize_exact, synthesize_heuristic, SynthesisOutcome};
use stbus_exec::CancelToken;
use stbus_milp::{HeuristicOptions, NodeLimitExceeded, SolveLimits};

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
}

impl Exact {
    /// Exact solving with an explicit node budget.
    #[must_use]
    pub fn with_limits(limits: SolveLimits) -> Self {
        Self {
            limits: Some(limits),
        }
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
        synthesize_exact(pre, &params, cancel)
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
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Portfolio {
    /// Node budget for the exact attempt. Defaults to
    /// [`DesignParams::solve_limits`] when `None`.
    pub exact_limits: Option<SolveLimits>,
    /// Options for the heuristic fallback.
    pub heuristic: HeuristicOptions,
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
        match synthesize_exact(pre, &effective, cancel) {
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
    /// Instantiates the default strategy of this kind. The node budget
    /// travels in [`DesignParams::solve_limits`].
    #[must_use]
    pub fn synthesizer(self) -> Box<dyn Synthesizer> {
        match self {
            SolverKind::Exact => Box::new(Exact::default()),
            SolverKind::Heuristic => Box::new(Heuristic::default()),
            SolverKind::Portfolio => Box::new(Portfolio::default()),
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
        // The pipeline solves the two directions concurrently; each must
        // equal the strategy run alone on that direction, and a portfolio
        // within budget must equal the exact search.
        let app = workloads::matrix::mat2(42);
        let params = DesignParams::default();
        let analyzed = crate::Pipeline::collect(&app, &params).analyze(&params);
        let strategies: [&dyn Synthesizer; 2] = [&Exact::default(), &Portfolio::default()];
        for strategy in strategies {
            let both = analyzed.synthesize(strategy).unwrap();
            for (concurrent, pre) in [(&both.it, analyzed.pre_it()), (&both.ti, analyzed.pre_ti())]
            {
                let alone = Exact::default().synthesize(pre, &params).unwrap();
                assert_eq!(concurrent.probes, alone.probes, "{}", strategy.name());
                assert_eq!(concurrent.binding, alone.binding, "{}", strategy.name());
                assert_eq!(concurrent.engine, SynthesisEngine::Exact);
            }
        }
    }

    #[test]
    fn solver_kind_round_trips() {
        for (text, kind) in [
            ("exact", SolverKind::Exact),
            ("heuristic", SolverKind::Heuristic),
            ("portfolio", SolverKind::Portfolio),
        ] {
            assert_eq!(text.parse::<SolverKind>().unwrap(), kind);
            assert_eq!(kind.synthesizer().name(), text);
        }
        assert!("cplex".parse::<SolverKind>().is_err());
    }
}
