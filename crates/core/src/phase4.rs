//! Phase 4 — validation by cycle-accurate simulation.
//!
//! The designed crossbars are instantiated in the simulator and the
//! application is replayed end to end: requests traverse the designed
//! initiator→target crossbar, responses issue at request completion and
//! traverse the designed target→initiator crossbar. The combined packet
//! population (requests + responses) yields the average and maximum packet
//! latencies the paper reports.

use crate::params::DesignParams;
use stbus_sim::{simulate_with, CrossbarConfig, SimReport};
use stbus_traffic::{InitiatorId, SocSpec, Summary, TargetId, Trace};
use std::fmt;

/// Outcome of checking declared QoS deadlines against a validation run.
#[derive(Debug, Clone, PartialEq)]
pub struct QosReport {
    /// Per-stream results: stream, deadline, worst observed latency,
    /// packet count, met?
    pub streams: Vec<QosStream>,
}

/// Deadline check for one critical stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosStream {
    /// Issuing master.
    pub initiator: InitiatorId,
    /// Destination slave.
    pub target: TargetId,
    /// Declared per-packet latency deadline in cycles.
    pub deadline: u64,
    /// Worst request-path latency observed for the stream.
    pub worst_latency: u64,
    /// Packets observed on the stream.
    pub packets: usize,
}

impl QosStream {
    /// Whether every packet met the deadline.
    #[must_use]
    pub fn met(&self) -> bool {
        self.worst_latency <= self.deadline
    }
}

impl QosReport {
    /// `true` when every declared deadline was met.
    #[must_use]
    pub fn all_met(&self) -> bool {
        self.streams.iter().all(QosStream::met)
    }

    /// The streams that missed their deadline.
    #[must_use]
    pub fn violations(&self) -> Vec<QosStream> {
        self.streams.iter().filter(|s| !s.met()).copied().collect()
    }
}

impl fmt::Display for QosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.streams {
            writeln!(
                f,
                "{}->{}: worst {} cy vs deadline {} cy over {} packets [{}]",
                s.initiator,
                s.target,
                s.worst_latency,
                s.deadline,
                s.packets,
                if s.met() { "met" } else { "VIOLATED" }
            )?;
        }
        Ok(())
    }
}

/// End-to-end validation result for one (IT config, TI config) pair.
#[derive(Debug, Clone)]
pub struct Validation {
    /// Request-path simulation.
    pub it_report: SimReport,
    /// Response-path simulation.
    pub ti_report: SimReport,
}

impl Validation {
    /// Average latency over all packets (requests and responses).
    ///
    /// Summed as integers, not through [`Validation::combined_latency`],
    /// which sorts every latency. While the total stays below 2⁵³ cycles,
    /// every partial sum of that `f64` mean is an exact integer, so both
    /// give the same bits.
    #[must_use]
    pub fn avg_latency(&self) -> f64 {
        let count = self.it_report.packets().len() + self.ti_report.packets().len();
        if count == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .it_report
            .packets()
            .iter()
            .chain(self.ti_report.packets())
            .map(stbus_sim::PacketRecord::latency)
            .sum();
        sum as f64 / count as f64
    }

    /// Maximum latency over all packets.
    #[must_use]
    pub fn max_latency(&self) -> u64 {
        self.it_report
            .max_latency()
            .max(self.ti_report.max_latency())
    }

    /// Summary over the combined packet population.
    #[must_use]
    pub fn combined_latency(&self) -> Summary {
        Summary::from_cycles(
            self.it_report
                .packets()
                .iter()
                .chain(self.ti_report.packets())
                .map(stbus_sim::PacketRecord::latency),
        )
    }

    /// Checks every declared per-stream deadline against the request-path
    /// packets of this validation run.
    #[must_use]
    pub fn qos_report(&self, spec: &SocSpec) -> QosReport {
        let streams = spec
            .critical_streams_with_deadlines()
            .filter_map(|((initiator, target), deadline)| {
                let deadline = deadline?;
                let mut worst = 0u64;
                let mut packets = 0usize;
                for p in self.it_report.packets() {
                    if p.initiator == initiator && p.target == target {
                        worst = worst.max(p.latency());
                        packets += 1;
                    }
                }
                Some(QosStream {
                    initiator,
                    target,
                    deadline,
                    worst_latency: worst,
                    packets,
                })
            })
            .collect();
        QosReport { streams }
    }

    /// Latency summary of critical packets only.
    #[must_use]
    pub fn critical_latency(&self) -> Summary {
        Summary::from_cycles(
            self.it_report
                .packets()
                .iter()
                .chain(self.ti_report.packets())
                .filter(|p| p.critical)
                .map(stbus_sim::PacketRecord::latency),
        )
    }
}

/// Replays `offered` through the request crossbar and derives + replays
/// the response traffic through the response crossbar.
///
/// # Panics
///
/// Panics if the configurations' dimensions do not match the trace.
#[must_use]
pub fn validate(
    offered: &Trace,
    it_config: &CrossbarConfig,
    ti_config: &CrossbarConfig,
    params: &DesignParams,
) -> Validation {
    let it_report = simulate_with(offered, it_config, &params.sim_options());
    let observed = it_report.observed_trace(offered.num_initiators(), offered.num_targets());
    let responses = observed.response_trace_scaled(params.response_scale);
    let ti_report = simulate_with(&responses, ti_config, &params.sim_options());
    Validation {
        it_report,
        ti_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbus_traffic::workloads;

    #[test]
    fn validation_covers_both_directions() {
        let app = workloads::matrix::mat2(5);
        let p = DesignParams::default();
        let it = CrossbarConfig::full(12);
        let ti = CrossbarConfig::full(9);
        let v = validate(&app.trace, &it, &ti, &p);
        assert_eq!(v.it_report.packets().len(), app.trace.len());
        assert_eq!(v.ti_report.packets().len(), app.trace.len());
        assert_eq!(v.combined_latency().count, 2 * app.trace.len());
        assert_eq!(
            v.avg_latency().to_bits(),
            v.combined_latency().mean.to_bits()
        );
    }

    #[test]
    fn avg_latency_of_an_empty_run_is_zero() {
        let trace = Trace::new(2, 2);
        let v = validate(
            &trace,
            &CrossbarConfig::full(2),
            &CrossbarConfig::full(2),
            &DesignParams::default(),
        );
        assert_eq!(
            v.avg_latency().to_bits(),
            v.combined_latency().mean.to_bits()
        );
    }

    #[test]
    fn shared_slower_than_full_end_to_end() {
        let app = workloads::matrix::mat2(6);
        let p = DesignParams::default();
        let full = validate(
            &app.trace,
            &CrossbarConfig::full(12),
            &CrossbarConfig::full(9),
            &p,
        );
        let shared = validate(
            &app.trace,
            &CrossbarConfig::shared_bus(12),
            &CrossbarConfig::shared_bus(9),
            &p,
        );
        assert!(shared.avg_latency() > full.avg_latency());
        for v in [&full, &shared] {
            assert_eq!(
                v.avg_latency().to_bits(),
                v.combined_latency().mean.to_bits()
            );
        }
        assert!(shared.max_latency() >= full.max_latency());
    }

    #[test]
    fn qos_deadlines_checked() {
        use stbus_traffic::{workloads::Application, CoreKind, TraceEvent};
        let mut spec = stbus_traffic::SocSpec::new("qos");
        let a = spec.add_initiator("A");
        let b = spec.add_initiator("B");
        let t0 = spec.add_target("T0", CoreKind::Peripheral);
        // Tight deadline on A->T0; B competes for the same target.
        spec.mark_critical_with_deadline(a, t0, 12);
        let mut trace = Trace::new(2, 1);
        for k in 0..20u64 {
            trace.push(TraceEvent::critical(a, t0, k * 100, 8));
            trace.push(TraceEvent::new(b, t0, k * 100, 8));
        }
        trace.finish_sorting();
        let app = Application::new(spec, trace);
        let p = DesignParams::default();
        let v = validate(
            &app.trace,
            &CrossbarConfig::shared_bus(1),
            &CrossbarConfig::full(2),
            &p,
        );
        let report = v.qos_report(&app.spec);
        assert_eq!(report.streams.len(), 1);
        let s = report.streams[0];
        assert_eq!(s.packets, 20);
        // Contention with B pushes the worst case past the 12-cycle bound
        // at least sometimes; either way the bookkeeping must be coherent.
        assert!(s.worst_latency >= 8);
        assert_eq!(report.all_met(), report.violations().is_empty());
        let text = report.to_string();
        assert!(text.contains("I0->T0"));
    }

    #[test]
    fn critical_latency_subset() {
        let app = workloads::matrix::mat2(7);
        let p = DesignParams::default();
        let v = validate(
            &app.trace,
            &CrossbarConfig::full(12),
            &CrossbarConfig::full(9),
            &p,
        );
        let crit = v.critical_latency();
        assert!(crit.count > 0);
        assert!(crit.count < v.combined_latency().count);
    }
}
