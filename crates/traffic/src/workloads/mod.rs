//! Parameterised MPSoC workload generators.
//!
//! The paper evaluates on five application suites running on MPARM —
//! matrix multiplication (two suites), FFT, quicksort and DES encryption —
//! plus a 20-core synthetic benchmark for the window-sizing study. The
//! generators here emit cycle-accurate *offered* traffic with the same
//! structural properties the paper describes:
//!
//! * every processor has a private memory it accesses in bursts;
//! * pipelined/barrier-style applications make the cores perform similar
//!   computations at similar times, so private-memory streams overlap
//!   heavily in time (the property that defeats average-bandwidth design);
//! * a few shared resources (shared memory, semaphore, interrupt device)
//!   see sparse traffic from all cores;
//! * burst sizes cluster around a typical value (≈ 1000 cycles for the
//!   synthetic benchmark of §7.2).
//!
//! Core counts match the paper: Mat1 = 25, Mat2 = 21 (9 initiators + 12
//! targets), FFT = 29, QSort = 15, DES = 19.

pub mod des;
pub mod fft;
pub mod generator;
pub mod matrix;
pub mod qsort;
pub mod random;
pub mod synthetic;

use crate::model::SocSpec;
use crate::trace::Trace;
use serde::{Deserialize, Serialize};

/// A generated application: its structural spec plus offered traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Application {
    /// Structural description of the MPSoC.
    pub spec: SocSpec,
    /// Offered (un-arbitrated) communication trace.
    pub trace: Trace,
}

impl Application {
    /// Convenience constructor.
    #[must_use]
    pub fn new(spec: SocSpec, trace: Trace) -> Self {
        Self { spec, trace }
    }

    /// Name of the underlying design.
    #[must_use]
    pub fn name(&self) -> &str {
        self.spec.name()
    }

    /// Content digest of the application: a 64-bit FNV-1a hash over the
    /// structural spec (name, core counts) and every offered trace event.
    ///
    /// This is the application half of the content-addressed artifact
    /// identity used by process-level caches: two applications with equal
    /// digests offer byte-identical traffic to the design flow, so
    /// phase-1/phase-2 artifacts keyed by
    /// `(digest, CollectionKey, AnalysisKey)` are interchangeable between
    /// them. Deterministic generators make this exact in practice — the
    /// same `(suite, seed)` always hashes to the same digest.
    #[must_use]
    pub fn content_digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        };
        eat(self.spec.name().as_bytes());
        eat(&(self.spec.num_initiators() as u64).to_le_bytes());
        eat(&(self.spec.num_targets() as u64).to_le_bytes());
        eat(&(self.trace.len() as u64).to_le_bytes());
        for event in self.trace.events() {
            eat(&(event.initiator.index() as u64).to_le_bytes());
            eat(&(event.target.index() as u64).to_le_bytes());
            eat(&event.start.to_le_bytes());
            eat(&u64::from(event.duration).to_le_bytes());
            eat(&[u8::from(event.critical)]);
        }
        hash
    }
}

/// The names the five paper suites' applications carry, in
/// [`paper_suite`] order (the paper's Table 2 order).
pub const PAPER_SUITE_NAMES: [&str; 5] = ["Mat1", "Mat2", "FFT", "QSort", "DES"];

/// All five paper benchmark suites, generated with their default
/// parameters from one base seed, named as in [`PAPER_SUITE_NAMES`].
#[must_use]
pub fn paper_suite(seed: u64) -> Vec<Application> {
    vec![
        matrix::mat1(seed),
        matrix::mat2(seed.wrapping_add(1)),
        fft::fft(seed.wrapping_add(2)),
        qsort::qsort(seed.wrapping_add(3)),
        des::des(seed.wrapping_add(4)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_suite_core_counts_match_table2() {
        let suite = paper_suite(7);
        let counts: Vec<(String, usize)> = suite
            .iter()
            .map(|a| (a.name().to_string(), a.spec.num_cores()))
            .collect();
        assert_eq!(
            counts,
            vec![
                ("Mat1".to_string(), 25),
                ("Mat2".to_string(), 21),
                ("FFT".to_string(), 29),
                ("QSort".to_string(), 15),
                ("DES".to_string(), 19),
            ]
        );
    }

    #[test]
    fn all_suites_generate_traffic() {
        for app in paper_suite(11) {
            assert!(
                app.trace.len() > 100,
                "{} generated too few events",
                app.name()
            );
            assert!(app.trace.horizon() > 0);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = matrix::mat2(42);
        let b = matrix::mat2(42);
        assert_eq!(a.trace, b.trace);
        let c = matrix::mat2(43);
        assert_ne!(a.trace, c.trace);
    }

    #[test]
    fn content_digest_tracks_content() {
        // Same (suite, seed) → same digest; different seed or different
        // suite → different digest (collisions astronomically unlikely on
        // these inputs, and a hit here would break cache addressing).
        assert_eq!(
            matrix::mat2(42).content_digest(),
            matrix::mat2(42).content_digest()
        );
        assert_ne!(
            matrix::mat2(42).content_digest(),
            matrix::mat2(43).content_digest()
        );
        assert_ne!(
            matrix::mat2(42).content_digest(),
            qsort::qsort(42).content_digest()
        );
    }
}
