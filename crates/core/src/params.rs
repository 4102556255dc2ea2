//! Design-flow parameters.
//!
//! The methodology exposes three main tuning knobs (paper §7.2–§7.4):
//! the analysis **window size** (aggressive ≈ burst size, conservative ≈ a
//! few times the burst size), the **overlap threshold** (aggressive ≈ 10 %,
//! conservative ≈ 30–40 %, hard cap 50 %), and **maxtb**, the maximum
//! number of targets per bus bounding worst-case serialisation latency.

use serde::{Deserialize, Serialize};
use stbus_milp::SolveLimits;
use stbus_sim::Arbitration;

/// How the simulation period is divided into analysis windows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Windowing {
    /// Fixed-size windows of [`DesignParams::window_size`] cycles — the
    /// paper's main formulation.
    Uniform,
    /// Variable-size windows (the paper's §8 future-work direction):
    /// fine resolution where traffic is dense, coarse windows over quiet
    /// stretches. `fine` defaults to the window size; quiet cells merge up
    /// to `coarse` cycles when their activity stays below
    /// `quiet_threshold` (fraction of the cell size).
    Adaptive {
        /// Upper bound on merged quiet windows, in cycles.
        coarse: u64,
        /// Activity fraction below which a fine cell counts as quiet.
        quiet_threshold: f64,
    },
}

/// Parameters of the crossbar design flow.
///
/// ```
/// use stbus_core::DesignParams;
///
/// let aggressive = DesignParams::default()
///     .with_window_size(1_000)
///     .with_overlap_threshold(0.10);
/// assert_eq!(aggressive.window_size, 1_000);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignParams {
    /// Analysis window size `WS` in cycles.
    pub window_size: u64,
    /// Overlap threshold θ as a fraction of the window size (0–0.5).
    pub overlap_threshold: f64,
    /// Maximum targets per bus (Eq. 8).
    pub maxtb: usize,
    /// Response duration as a fraction of the request duration (read-heavy
    /// traffic ≈ 1.0; write-heavy traffic produces short acknowledgements).
    pub response_scale: f64,
    /// Bus arbitration policy used in simulation.
    pub arbitration: Arbitration,
    /// Maximum outstanding transactions per master in simulation (1 =
    /// blocking in-order masters; larger values model posted/pipelined
    /// masters, deepening queues under contention).
    pub max_outstanding: usize,
    /// Window layout policy (uniform by default).
    pub windowing: Windowing,
    /// Search limits for the exact binding solver.
    pub solve_limits: SolveLimits,
}

impl Default for DesignParams {
    fn default() -> Self {
        Self {
            window_size: 1_000,
            overlap_threshold: 0.25,
            maxtb: 4,
            response_scale: 1.0,
            arbitration: Arbitration::RoundRobin,
            max_outstanding: 1,
            windowing: Windowing::Uniform,
            solve_limits: SolveLimits::default(),
        }
    }
}

impl DesignParams {
    /// Creates the default parameter set (same as [`Default`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the window size (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `window_size == 0`.
    #[must_use]
    pub fn with_window_size(mut self, window_size: u64) -> Self {
        assert!(window_size > 0, "window size must be positive");
        self.window_size = window_size;
        self
    }

    /// Sets the overlap threshold (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the threshold is negative or not finite. Values above 0.5
    /// are accepted but pointless: a pairwise overlap above half the window
    /// already violates the bandwidth constraint (paper §7.4).
    #[must_use]
    pub fn with_overlap_threshold(mut self, threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold >= 0.0,
            "overlap threshold must be a non-negative finite fraction"
        );
        self.overlap_threshold = threshold;
        self
    }

    /// Sets the per-bus target cap (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `maxtb == 0`.
    #[must_use]
    pub fn with_maxtb(mut self, maxtb: usize) -> Self {
        assert!(maxtb > 0, "maxtb must allow at least one target per bus");
        self.maxtb = maxtb;
        self
    }

    /// Sets the response-duration scale (builder style).
    #[must_use]
    pub fn with_response_scale(mut self, scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale >= 0.0,
            "response scale must be non-negative and finite"
        );
        self.response_scale = scale;
        self
    }

    /// Sets the arbitration policy (builder style).
    #[must_use]
    pub fn with_arbitration(mut self, arbitration: Arbitration) -> Self {
        self.arbitration = arbitration;
        self
    }

    /// Sets the per-master outstanding-transaction depth (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    #[must_use]
    pub fn with_max_outstanding(mut self, depth: usize) -> Self {
        assert!(depth > 0, "at least one outstanding transaction");
        self.max_outstanding = depth;
        self
    }

    /// Sets the per-node lower-bound pruning level of the exact binding
    /// search (builder style). [`stbus_milp::PruningLevel::Standard`]
    /// (the default) is bit-identical to `Off` whenever the unpruned
    /// search completes within its node budget; `Off` is the unpruned
    /// reference the equivalence suites and the `sizes` bench compare
    /// against.
    #[must_use]
    pub fn with_pruning(mut self, pruning: stbus_milp::PruningLevel) -> Self {
        self.solve_limits.pruning = pruning;
        self
    }

    /// Switches to adaptive variable-size windows (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `coarse` is below the window size or the threshold is not
    /// a finite non-negative fraction.
    #[must_use]
    pub fn with_adaptive_windows(mut self, coarse: u64, quiet_threshold: f64) -> Self {
        assert!(
            coarse >= self.window_size,
            "coarse windows cannot be finer than the base window size"
        );
        assert!(
            quiet_threshold.is_finite() && quiet_threshold >= 0.0,
            "quiet threshold must be a non-negative finite fraction"
        );
        self.windowing = Windowing::Adaptive {
            coarse,
            quiet_threshold,
        };
        self
    }

    /// The simulator options implied by these parameters.
    #[must_use]
    pub fn sim_options(&self) -> stbus_sim::SimOptions {
        stbus_sim::SimOptions {
            max_outstanding: self.max_outstanding,
        }
    }
}

/// Per-application parameters pinned to the paper's evaluation (§7.4),
/// keyed by [`Application::name`]: aggressive θ = 0.15 for the phase-
/// structured pipelines (Mat1, Mat2, DES); the conservative 50 % cap and
/// shortened acknowledgements for FFT's uniformly overlapping barrier
/// traffic; defaults otherwise (QSort). Every consumer of the suite —
/// `stbus suite`, the gateway's `/suite` route, the benchmark harness,
/// `stbus replay` — must use this one table so their rows diff clean
/// against each other byte for byte.
///
/// [`Application::name`]: stbus_traffic::workloads::Application::name
#[must_use]
pub fn paper_suite_params(app_name: &str) -> DesignParams {
    match app_name {
        "Mat1" | "Mat2" | "DES" => DesignParams::default().with_overlap_threshold(0.15),
        "FFT" => DesignParams::default()
            .with_overlap_threshold(0.50)
            .with_response_scale(0.9),
        _ => DesignParams::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_values_are_paper_conservative() {
        let p = DesignParams::default();
        assert_eq!(p.window_size, 1_000);
        assert!((0.1..=0.4).contains(&p.overlap_threshold));
        assert_eq!(p.maxtb, 4);
    }

    #[test]
    fn builder_chain() {
        let p = DesignParams::new()
            .with_window_size(500)
            .with_overlap_threshold(0.4)
            .with_maxtb(6)
            .with_response_scale(0.5)
            .with_arbitration(Arbitration::FixedPriority);
        assert_eq!(p.window_size, 500);
        assert_eq!(p.overlap_threshold, 0.4);
        assert_eq!(p.maxtb, 6);
        assert_eq!(p.response_scale, 0.5);
        assert_eq!(p.arbitration, Arbitration::FixedPriority);
    }

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn zero_window_panics() {
        let _ = DesignParams::new().with_window_size(0);
    }

    #[test]
    #[should_panic(expected = "maxtb")]
    fn zero_maxtb_panics() {
        let _ = DesignParams::new().with_maxtb(0);
    }

    #[test]
    #[should_panic(expected = "overlap threshold")]
    fn negative_threshold_panics() {
        let _ = DesignParams::new().with_overlap_threshold(-0.1);
    }
}
