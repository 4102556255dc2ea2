//! Window plans — uniform and variable-size analysis window layouts.
//!
//! The paper's §8 names variable simulation window sizes as future work
//! for QoS-aware design. A [`WindowPlan`] describes the window boundaries
//! fed to [`WindowStats::analyze_with_bounds`]; the
//! [`WindowPlan::adaptive`] builder refines windows where traffic is
//! dense (capturing local peaks precisely) and coarsens them over quiet
//! stretches (keeping the constraint count small).

use crate::trace::Trace;
use crate::window::WindowStats;
use serde::{Deserialize, Serialize};

/// A window layout: boundaries `b0 < b1 < … < bW`, window `m` covering
/// `[b_m, b_{m+1})`.
///
/// ```
/// use stbus_traffic::{WindowPlan, Trace, TraceEvent, InitiatorId, TargetId};
///
/// let mut trace = Trace::new(1, 1);
/// trace.push(TraceEvent::new(InitiatorId::new(0), TargetId::new(0), 0, 100));
/// let plan = WindowPlan::uniform(trace.horizon(), 40);
/// assert_eq!(plan.num_windows(), 3); // ceil(100 / 40)
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowPlan {
    bounds: Vec<u64>,
}

impl WindowPlan {
    /// Uniform windows of `window_size` cycles covering `[0, horizon)`.
    ///
    /// # Panics
    ///
    /// Panics if `window_size == 0`.
    #[must_use]
    pub fn uniform(horizon: u64, window_size: u64) -> Self {
        assert!(window_size > 0, "window size must be positive");
        let windows = horizon.div_ceil(window_size).max(1);
        Self {
            bounds: (0..=windows).map(|m| m * window_size).collect(),
        }
    }

    /// A plan from explicit boundaries.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two boundaries are given, the first is not
    /// cycle 0, or they are not strictly increasing. A plan starting later
    /// would leave the traffic before its first boundary out of every
    /// window.
    #[must_use]
    pub fn from_bounds(bounds: Vec<u64>) -> Self {
        assert!(bounds.len() >= 2, "need at least one window");
        assert_eq!(bounds[0], 0, "window plan must start at cycle 0");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "boundaries must be strictly increasing"
        );
        Self { bounds }
    }

    /// Activity-adaptive windows: the horizon is scanned in cells of
    /// `fine` cycles; consecutive cells whose total traffic stays below
    /// `quiet_threshold` (a fraction of the cell size summed over all
    /// targets) are merged, up to `coarse` cycles per window. Dense
    /// regions keep the fine resolution.
    ///
    /// # Panics
    ///
    /// Panics if `fine == 0`, `coarse < fine`, or the threshold is not a
    /// finite non-negative fraction.
    #[must_use]
    pub fn adaptive(trace: &Trace, fine: u64, coarse: u64, quiet_threshold: f64) -> Self {
        assert!(fine > 0, "fine window size must be positive");
        assert!(
            coarse >= fine,
            "coarse windows cannot be finer than fine ones"
        );
        assert!(
            quiet_threshold.is_finite() && quiet_threshold >= 0.0,
            "quiet threshold must be a non-negative finite fraction"
        );
        let horizon = trace.horizon().max(1);
        let cells = usize::try_from(horizon.div_ceil(fine)).unwrap_or(1).max(1);

        // Total busy cycles per fine cell, over all targets.
        let mut activity = vec![0u64; cells];
        for e in trace.iter() {
            let first = usize::try_from(e.start / fine).unwrap_or(0);
            let last = usize::try_from((e.end() - 1) / fine).unwrap_or(0);
            for (m, slot) in activity
                .iter_mut()
                .enumerate()
                .take(last.min(cells - 1) + 1)
                .skip(first)
            {
                let lo = m as u64 * fine;
                let hi = lo + fine;
                *slot += e.start.max(lo).min(hi).abs_diff(e.end().min(hi).max(lo));
            }
        }

        let quiet_limit = (quiet_threshold * fine as f64) as u64;
        let mut bounds = vec![0u64];
        let mut m = 0usize;
        // Windows are never clipped short of a full cell: like the uniform
        // analysis, the final window may extend past the horizon — clipping
        // it would tighten both the Eq. 4 capacity and the overlap
        // threshold exactly where the trace happens to end.
        while m < cells {
            let start = m as u64 * fine;
            if activity[m] > quiet_limit {
                // Busy: keep fine resolution.
                bounds.push(start + fine);
                m += 1;
            } else {
                // Quiet: merge following quiet cells up to `coarse`.
                let mut end = start + fine;
                m += 1;
                while m < cells && activity[m] <= quiet_limit && end - start + fine <= coarse {
                    end += fine;
                    m += 1;
                }
                bounds.push(end);
            }
        }
        Self { bounds }
    }

    /// The boundaries.
    #[must_use]
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Number of windows.
    #[must_use]
    pub fn num_windows(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Runs the window analysis under this plan.
    #[must_use]
    pub fn analyze(&self, trace: &Trace) -> WindowStats {
        let mut bounds = self.bounds.clone();
        // Extend the final boundary if the trace outruns the plan.
        let horizon = trace.horizon();
        if *bounds.last().expect("non-empty") < horizon {
            bounds.push(horizon);
        }
        WindowStats::analyze_with_bounds(trace, bounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{InitiatorId, TargetId};
    use crate::trace::TraceEvent;

    fn ev(t: usize, start: u64, dur: u32) -> TraceEvent {
        TraceEvent::new(InitiatorId::new(0), TargetId::new(t), start, dur)
    }

    fn bursty_trace() -> Trace {
        // Dense activity in [0, 200), silence until 1000, dense again.
        let mut tr = Trace::new(1, 2);
        for k in 0..10 {
            tr.push(ev(0, k * 20, 18));
        }
        for k in 0..10 {
            tr.push(ev(1, 1_000 + k * 20, 18));
        }
        tr.finish_sorting();
        tr
    }

    #[test]
    fn uniform_plan_matches_direct_analysis() {
        let tr = bursty_trace();
        let plan = WindowPlan::uniform(tr.horizon(), 100);
        let via_plan = plan.analyze(&tr);
        let direct = WindowStats::analyze(&tr, 100);
        assert_eq!(via_plan, direct);
    }

    #[test]
    fn adaptive_merges_quiet_regions() {
        let tr = bursty_trace();
        let plan = WindowPlan::adaptive(&tr, 100, 800, 0.05);
        let uniform = WindowPlan::uniform(tr.horizon(), 100);
        assert!(
            plan.num_windows() < uniform.num_windows(),
            "adaptive plan ({}) should use fewer windows than uniform ({})",
            plan.num_windows(),
            uniform.num_windows()
        );
        // Dense regions keep fine windows: the first window is 100 cycles.
        let stats = plan.analyze(&tr);
        assert_eq!(stats.window_len(0), 100);
        assert!(!stats.is_uniform());
    }

    #[test]
    fn adaptive_preserves_totals() {
        let tr = bursty_trace();
        let adaptive = WindowPlan::adaptive(&tr, 100, 800, 0.05).analyze(&tr);
        let uniform = WindowStats::analyze(&tr, 100);
        for t in 0..tr.num_targets() {
            assert_eq!(adaptive.total_comm(t), uniform.total_comm(t));
        }
        assert_eq!(
            adaptive.overlap_matrix().get(0, 1),
            uniform.overlap_matrix().get(0, 1)
        );
    }

    #[test]
    fn comm_bounded_by_window_len() {
        let tr = bursty_trace();
        let stats = WindowPlan::adaptive(&tr, 50, 400, 0.1).analyze(&tr);
        for t in 0..tr.num_targets() {
            for m in 0..stats.num_windows() {
                assert!(stats.comm(t, m) <= stats.window_len(m));
            }
        }
    }

    #[test]
    fn bounds_cover_horizon() {
        let tr = bursty_trace();
        for plan in [
            WindowPlan::uniform(tr.horizon(), 77),
            WindowPlan::adaptive(&tr, 64, 512, 0.2),
        ] {
            let stats = plan.analyze(&tr);
            assert!(*stats.bounds().last().unwrap() >= tr.horizon());
            assert_eq!(stats.bounds().first(), Some(&0));
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_bounds_rejected() {
        let _ = WindowPlan::from_bounds(vec![0, 100, 100]);
    }

    #[test]
    #[should_panic(expected = "window plan must start at cycle 0")]
    fn plan_starting_after_cycle_zero_rejected() {
        let _ = WindowPlan::from_bounds(vec![10, 100]);
    }

    #[test]
    #[should_panic(expected = "window plan must start at cycle 0")]
    fn analysis_starting_after_cycle_zero_rejected() {
        let _ = WindowStats::analyze_with_bounds(&bursty_trace(), vec![100, 2_000]);
    }

    #[test]
    #[should_panic(expected = "coarse windows cannot be finer")]
    fn inverted_adaptive_sizes_rejected() {
        let tr = bursty_trace();
        let _ = WindowPlan::adaptive(&tr, 100, 50, 0.1);
    }
}
