//! Word-parallel AND kernels shared by every bitset hot loop.
//!
//! The conflict graph's innermost operations — "does target `t` conflict
//! with anything already on bus `k`?" (`row ∧ mask ≠ 0`) and the clique
//! builder's candidate shrink (`candidates ∧= row`) — are AND loops over
//! `u64` words. Profiles of the exact binding search show these loops and
//! the bound usability scans built on them dominate per-node cost, so
//! they are centralised here in two tiers:
//!
//! 1. **Scalar reference** (`*_scalar`): the obviously-correct
//!    one-word-at-a-time formulation. It is the oracle the property
//!    tests compare [`any_and`] against, and the body of [`and_assign`].
//! 2. **Chunked** ([`any_and`]): fixed-width blocks of [`CHUNK_WORDS`] =
//!    4 `u64`s with a single OR-reduced accumulator per block. The block
//!    shape removes the per-word early-exit branch that defeats
//!    autovectorization, so LLVM emits 256-bit vector ANDs wherever the
//!    target baseline allows. `and_assign` has no early exit to remove —
//!    its plain zip loop already autovectorizes, and the manually chunked
//!    formulation measured *slower* (0.55×, `hotpath` bench row), so
//!    [`and_assign`] routes straight through the scalar body.
//!
//! The tiers are bit-exact: they compute the same boolean for every
//! input, which the proptests in this module assert across widths 1–3
//! words (the common conflict-row sizes) and longer tails that exercise
//! the remainder loop.

/// Words per fixed-width block in the chunked kernels (4 × u64 = 256 bits,
/// one AVX2 lane).
pub const CHUNK_WORDS: usize = 4;

/// Scalar reference: true when `a ∧ b` has any bit set.
///
/// Zips to the shorter slice, matching the historical
/// `iter().zip().any()` formulation used throughout the crate.
#[inline]
#[must_use]
pub fn any_and_scalar(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(&x, &y)| x & y != 0)
}

/// Scalar reference: `dst[i] &= src[i]` over the zipped prefix.
#[inline]
pub fn and_assign_scalar(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d &= s;
    }
}

/// The kernel tier in use: always `"chunked"` (chunked `any_and`,
/// scalar `and_assign`). Bench snapshots and the benchmark's stamp line
/// record it so a throughput row names the tier that produced it.
#[must_use]
pub const fn active_tier() -> &'static str {
    "chunked"
}

/// True when `a ∧ b` has any bit set (zipped to the shorter slice).
///
/// The single entry point every hot loop calls: `TargetSet::intersects`,
/// `ConflictGraph::{conflicts_with_set, conflicts_with_words}`, the
/// clique builder, the delta re-threshold patch and the solver bounds'
/// unbound-subgraph scans all route through here.
#[inline]
#[must_use]
pub fn any_and(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut i = 0;
    while i + CHUNK_WORDS <= n {
        let acc =
            (a[i] & b[i]) | (a[i + 1] & b[i + 1]) | (a[i + 2] & b[i + 2]) | (a[i + 3] & b[i + 3]);
        if acc != 0 {
            return true;
        }
        i += CHUNK_WORDS;
    }
    while i < n {
        if a[i] & b[i] != 0 {
            return true;
        }
        i += 1;
    }
    false
}

/// `dst[i] &= src[i]` over the zipped prefix.
///
/// Unlike [`any_and`] there is no early-exit branch for a manual block
/// loop to remove: the scalar zip already autovectorizes, and the
/// hand-chunked variant measured 0.55× against it (committed `hotpath`
/// row), so this *is* the scalar body.
#[inline]
pub fn and_assign(dst: &mut [u64], src: &[u64]) {
    and_assign_scalar(dst, src);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Word vectors covering the interesting widths: 1–3 words (every
    /// conflict row up to 192 targets) plus longer tails so the 4-word
    /// block loop and its remainder both run.
    fn arb_words(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec(0u64..=u64::MAX, 1..=max_len)
    }

    proptest! {
        /// The chunked kernel equals the scalar oracle on the `any_and`
        /// predicate for widths 1–3.
        #[test]
        fn any_and_matches_scalar_narrow(a in arb_words(3), b in arb_words(3)) {
            prop_assert_eq!(any_and(&a, &b), any_and_scalar(&a, &b));
        }

        /// Same across block-sized and ragged widths (remainder loop).
        #[test]
        fn any_and_matches_scalar_wide(a in arb_words(13), b in arb_words(13)) {
            prop_assert_eq!(any_and(&a, &b), any_and_scalar(&a, &b));
        }

        /// Sparse masks (the common conflict-row shape) still agree —
        /// exercises the early-exit block against rows whose only set
        /// bit sits in the scalar tail.
        #[test]
        fn any_and_sparse_single_bit(len in 1usize..=12, bit in 0usize..(12 * 64)) {
            let mut a = vec![0u64; len];
            let b = vec![u64::MAX; len];
            if bit / 64 < len {
                a[bit / 64] |= 1 << (bit % 64);
            }
            prop_assert_eq!(any_and(&a, &b), any_and_scalar(&a, &b));
        }
    }

    #[test]
    fn zero_and_disjoint_cases() {
        assert!(!any_and(&[0, 0, 0, 0, 0], &[u64::MAX; 5]));
        assert!(!any_and(&[0b1010; 6], &[0b0101; 6]));
        assert!(any_and(&[0, 0, 0, 0, 1], &[u64::MAX; 5]));
        // Zipping to the shorter slice: the set bit is beyond `b`.
        assert!(!any_and(&[0, 0, 1], &[u64::MAX; 2]));
    }
}
