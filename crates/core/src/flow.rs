//! The evaluation report of the design flow (paper Fig. 3) and its error
//! type.
//!
//! The flow itself is the staged [`crate::pipeline`]:
//! `Pipeline::collect(app, params).analyze(params)
//! .synthesize(&Exact::default())?.report()` performs all four phases for
//! both crossbar directions and evaluates the designed system against the
//! full-crossbar, shared-bus and average-flow baselines on the same
//! traffic — producing everything needed to regenerate the paper's
//! Tables 1–2 and Fig. 4 as a [`DesignReport`].

use crate::params::DesignParams;
use crate::phase3::SynthesisOutcome;
use crate::phase4::{validate, Validation};
use stbus_milp::NodeLimitExceeded;
use stbus_sim::CrossbarConfig;
use stbus_traffic::workloads::Application;
use std::error::Error;
use std::fmt;

/// Errors surfaced by the design flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// The exact solver ran out of node budget.
    SolverLimit(NodeLimitExceeded),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::SolverLimit(e) => write!(f, "synthesis failed: {e}"),
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::SolverLimit(e) => Some(e),
        }
    }
}

impl From<NodeLimitExceeded> for FlowError {
    fn from(e: NodeLimitExceeded) -> Self {
        FlowError::SolverLimit(e)
    }
}

/// One evaluated interconnect configuration (both directions).
#[derive(Debug, Clone)]
pub struct ConfigEval {
    /// Human-readable label ("designed", "full", "shared", "avg-based").
    pub label: String,
    /// Request-path configuration.
    pub it_config: CrossbarConfig,
    /// Response-path configuration.
    pub ti_config: CrossbarConfig,
    /// End-to-end validation simulation.
    pub validation: Validation,
    /// Average packet latency over requests + responses.
    pub avg_latency: f64,
    /// Maximum packet latency over requests + responses.
    pub max_latency: u64,
}

impl ConfigEval {
    pub(crate) fn new(
        label: &str,
        it_config: CrossbarConfig,
        ti_config: CrossbarConfig,
        app: &Application,
        params: &DesignParams,
    ) -> Self {
        let validation = validate(&app.trace, &it_config, &ti_config, params);
        Self::from_validation(label, it_config, ti_config, validation)
    }

    /// Evaluates a configuration from a validation run made elsewhere:
    /// phase 1's full-crossbar runs replay the same application on the
    /// same configuration, so phase 4 reuses them instead of simulating
    /// the full crossbar again.
    pub(crate) fn from_validation(
        label: &str,
        it_config: CrossbarConfig,
        ti_config: CrossbarConfig,
        validation: Validation,
    ) -> Self {
        let avg_latency = validation.avg_latency();
        let max_latency = validation.max_latency();
        Self {
            label: label.to_string(),
            it_config,
            ti_config,
            validation,
            avg_latency,
            max_latency,
        }
    }

    /// Total bus count over both crossbars — the paper's size metric
    /// (Table 1 ratios, Table 2 counts).
    #[must_use]
    pub fn total_buses(&self) -> usize {
        self.it_config.num_buses() + self.ti_config.num_buses()
    }

    /// Total component count over both crossbars.
    #[must_use]
    pub fn total_components(&self, num_initiators: usize, num_targets: usize) -> usize {
        // On the response path the roles are reversed: the "initiators" of
        // the TI crossbar are the targets of the design.
        self.it_config.component_count(num_initiators) + self.ti_config.component_count(num_targets)
    }
}

/// The full evaluation report for one application.
#[derive(Debug, Clone)]
pub struct DesignReport {
    /// Application name.
    pub app_name: String,
    /// Initiator count.
    pub num_initiators: usize,
    /// Target count.
    pub num_targets: usize,
    /// Synthesis detail for the request-path crossbar.
    pub it_synthesis: SynthesisOutcome,
    /// Synthesis detail for the response-path crossbar.
    pub ti_synthesis: SynthesisOutcome,
    /// The methodology's design, evaluated.
    pub designed: ConfigEval,
    /// Full crossbar, evaluated.
    pub full: ConfigEval,
    /// Single shared bus per direction, evaluated.
    pub shared: ConfigEval,
    /// Average-flow baseline design, evaluated.
    pub avg_based: ConfigEval,
}

impl DesignReport {
    /// Bus-count saving of the design vs the full crossbar
    /// (Table 2 "Ratio").
    #[must_use]
    pub fn component_saving(&self) -> f64 {
        self.full.total_buses() as f64 / self.designed.total_buses() as f64
    }

    /// Average latency of a configuration relative to the full crossbar
    /// (Fig. 4a bars).
    #[must_use]
    pub fn relative_avg_latency(&self, eval: &ConfigEval) -> f64 {
        eval.avg_latency / self.full.avg_latency
    }

    /// Maximum latency of a configuration relative to the full crossbar
    /// (Fig. 4b bars).
    #[must_use]
    pub fn relative_max_latency(&self, eval: &ConfigEval) -> f64 {
        eval.max_latency as f64 / self.full.max_latency as f64
    }

    /// The paper-suite summary row of this report, labelled with the
    /// `solver` that produced it. Hand-rolled and **stable**: the CLI's
    /// `suite --json` rows and the gateway's `/suite` wire format both
    /// emit exactly this string, so the two can be diffed byte for byte.
    #[must_use]
    pub fn paper_row_json(&self, solver: &str) -> String {
        format!(
            "{{\"app\":\"{name}\",\"solver\":\"{solver}\",\
             \"full_buses\":{full},\"designed_buses\":{designed},\
             \"saving\":{saving:.4},\"avg_latency\":{avg:.4},\
             \"max_latency\":{max}}}",
            name = crate::json_escape(&self.app_name),
            full = self.full.total_buses(),
            designed = self.designed.total_buses(),
            saving = self.component_saving(),
            avg = self.designed.avg_latency,
            max = self.designed.max_latency,
        )
    }
}

/// The paper-suite rows ([`DesignReport::paper_row_json`]) as one JSON
/// array: the line `stbus suite --json` prints and the body `/suite`
/// answers, so the two diff byte for byte.
#[must_use]
pub fn paper_rows_json(rows: &[String]) -> String {
    format!("[{}]", rows.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use crate::synthesizer::Exact;
    use stbus_traffic::workloads;

    fn run(app: &Application) -> DesignReport {
        let params = DesignParams::default();
        Pipeline::collect(app, &params)
            .analyze(&params)
            .synthesize(&Exact::default())
            .and_then(|synthesized| synthesized.report())
            .expect("flow succeeds")
    }

    #[test]
    fn mat2_flow_end_to_end() {
        let app = workloads::matrix::mat2(42);
        let report = run(&app);
        // Structure.
        assert_eq!(report.num_initiators, 9);
        assert_eq!(report.num_targets, 12);
        assert_eq!(report.full.total_buses(), 21);
        assert_eq!(report.shared.total_buses(), 2);
        // The design saves buses vs full.
        assert!(report.designed.total_buses() < report.full.total_buses());
        assert!(report.component_saving() > 1.5);
        // Latency ordering: full <= designed <= shared.
        assert!(report.designed.avg_latency >= report.full.avg_latency * 0.999);
        assert!(report.shared.avg_latency > report.designed.avg_latency);
    }

    #[test]
    fn designed_beats_avg_based_latency() {
        let app = workloads::matrix::mat2(43);
        let report = run(&app);
        assert!(
            report.avg_based.avg_latency > report.designed.avg_latency,
            "avg-based {} vs designed {}",
            report.avg_based.avg_latency,
            report.designed.avg_latency
        );
    }

    #[test]
    fn synthesize_only_skips_validation() {
        let app = workloads::qsort::qsort(44);
        let params = DesignParams::default();
        let collected = Pipeline::collect(&app, &params);
        let analyzed = collected.analyze(&params);
        let synthesized = analyzed.synthesize(&Exact::default()).expect("synthesis");
        assert!(synthesized.it.num_buses >= 1 && synthesized.it.num_buses <= 9);
        assert!(synthesized.ti.num_buses >= 1 && synthesized.ti.num_buses <= 6);
        assert_eq!(collected.traffic().it_trace.len(), app.trace.len());
    }

    #[test]
    fn flow_error_display() {
        let e = FlowError::SolverLimit(stbus_milp::NodeLimitExceeded { limit: 7 });
        assert!(e.to_string().contains("7-node"));
        assert!(e.source().is_some());
    }
}
