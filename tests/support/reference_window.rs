//! The window-analysis sweep `WindowStats::analyze_with_bounds` started
//! from, kept as a test-only oracle: it sorts two endpoint tuples per
//! busy interval, then charges every active pair at every elementary
//! segment, locating windows with `partition_point`. The shipped sweep
//! merges the per-target busy lists and charges each pair once per
//! activation end; `analysis_invariants` checks it against this one
//! entry for entry.

use stbus::traffic::interval::{Interval, IntervalSet};
use stbus::traffic::{OverlapMatrix, Trace};

/// What the reference analysis computed: the tables a `WindowStats`
/// exposes through `comm`, `window_overlap`, `overlap_matrix` and
/// `critical_streams_overlap`.
pub struct ReferenceStats {
    pub num_windows: usize,
    num_targets: usize,
    comm: Vec<u64>,
    wo: Vec<u64>,
    overlap: OverlapMatrix,
    critical_busy: Vec<IntervalSet>,
}

impl ReferenceStats {
    fn pair(&self, i: usize, j: usize) -> usize {
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        a * self.num_targets - a * (a + 1) / 2 + (b - a - 1)
    }

    pub fn comm(&self, target: usize, window: usize) -> u64 {
        self.comm[target * self.num_windows + window]
    }

    pub fn window_overlap(&self, i: usize, j: usize, window: usize) -> u64 {
        self.wo[self.pair(i, j) * self.num_windows + window]
    }

    pub fn overlap(&self, i: usize, j: usize) -> u64 {
        self.overlap.get(i, j)
    }

    pub fn critical_streams_overlap(&self, i: usize, j: usize) -> bool {
        self.critical_busy[i].intersection_len(&self.critical_busy[j]) > 0
    }
}

pub fn analyze_reference(trace: &Trace, bounds: &[u64]) -> ReferenceStats {
    let n = trace.num_targets();
    let num_windows = bounds.len() - 1;

    // Per-target busy sets (all traffic and critical-only traffic).
    let mut busy: Vec<IntervalSet> = vec![IntervalSet::new(); n];
    let mut critical_busy: Vec<IntervalSet> = vec![IntervalSet::new(); n];
    for e in trace.iter() {
        let iv = Interval::new(e.start, e.end());
        busy[e.target.index()].insert(iv);
        if e.critical {
            critical_busy[e.target.index()].insert(iv);
        }
    }

    // Splits an interval across the window plan, accumulating into a
    // row of a `num_windows`-strided table.
    let spread = |iv: &Interval, row: &mut [u64]| {
        let mut m = bounds.partition_point(|&b| b <= iv.start).saturating_sub(1);
        while m < num_windows && bounds[m] < iv.end {
            row[m] += iv.clip(bounds[m], bounds[m + 1]).len();
            m += 1;
        }
    };

    // comm(i, m): busy cycles of target i within window m.
    let mut comm = vec![0u64; n * num_windows];
    for (t, set) in busy.iter().enumerate() {
        let row = &mut comm[t * num_windows..(t + 1) * num_windows];
        for iv in set.intervals() {
            spread(iv, row);
        }
    }

    // wo(i, j, m): per-window pairwise overlap via one sweep-line pass
    // over the sorted busy-interval endpoints. Between two consecutive
    // endpoints the active-target set is constant, so every active pair
    // accrues exactly the elementary segment's length; the segment is
    // cut at window boundaries so each piece lies in a single window.
    let npairs = n * n.saturating_sub(1) / 2;
    let mut wo = vec![0u64; npairs * num_windows];
    let mut overlap = OverlapMatrix::zeros(n);
    {
        // Endpoint events: (time, target, is_start). Per-target busy
        // sets are already disjoint and coalesced, so a target never
        // ends and restarts at the same cycle.
        let mut events: Vec<(u64, usize, bool)> =
            Vec::with_capacity(busy.iter().map(|s| 2 * s.intervals().len()).sum());
        for (t, set) in busy.iter().enumerate() {
            for iv in set.intervals() {
                events.push((iv.start, t, true));
                events.push((iv.end, t, false));
            }
        }
        events.sort_unstable();

        let mut members: Vec<usize> = Vec::new(); // sorted active targets
        let mut pieces: Vec<(usize, u64)> = Vec::new(); // (window, cycles)
        let mut prev = 0u64;
        let mut e = 0usize;
        while e < events.len() {
            let now = events[e].0;
            if now > prev && members.len() >= 2 {
                // Window pieces of the segment [prev, now), mirroring
                // the `spread` clipping rules.
                pieces.clear();
                let seg = Interval::new(prev, now);
                let mut m = bounds.partition_point(|&b| b <= prev).saturating_sub(1);
                while m < num_windows && bounds[m] < now {
                    let len = seg.clip(bounds[m], bounds[m + 1]).len();
                    if len > 0 {
                        pieces.push((m, len));
                    }
                    m += 1;
                }
                let full = now - prev;
                for (a, &i) in members.iter().enumerate() {
                    let base = i * n - i * (i + 1) / 2;
                    for &j in &members[a + 1..] {
                        let row = &mut wo[(base + (j - i - 1)) * num_windows..][..num_windows];
                        for &(m, len) in &pieces {
                            row[m] += len;
                        }
                        overlap.add(i, j, full);
                    }
                }
            }
            while e < events.len() && events[e].0 == now {
                let (_, t, is_start) = events[e];
                match members.binary_search(&t) {
                    Err(pos) if is_start => members.insert(pos, t),
                    Ok(pos) if !is_start => {
                        members.remove(pos);
                    }
                    _ => unreachable!("busy sets are disjoint per target"),
                }
                e += 1;
            }
            prev = now;
        }
    }

    ReferenceStats {
        num_windows,
        num_targets: n,
        comm,
        wo,
        overlap,
        critical_busy,
    }
}
