//! Compressed storage for Krylov and flexible (preconditioned) bases.
//!
//! The FGMRES levels of a nested solver keep two sets of `m`-ish vectors
//! alive per cycle: the Arnoldi basis `v_1 … v_{m+1}` and the flexible basis
//! `z_1 … z_m`.  Re-streaming those vectors — classical Gram–Schmidt reads
//! the whole Arnoldi basis every iteration — is the dominant BLAS-1 memory
//! traffic of a cycle (the `(5/2)·m²` term of the paper's Section 4.1
//! model).  Because the solver is *flexible*, the bases can be stored below
//! the working precision at negligible convergence cost (the compressed-basis
//! GMRES of Aliaga et al.): this module provides that storage layer.
//!
//! A [`CompressedBasis<S>`] holds each vector as elements in the storage
//! precision `S` plus one `f64` amplitude scale per vector; the represented
//! vector is `scale * stored`.  When `S` is narrower than the working
//! precision, the scale is a power of two chosen so `|stored| <= 1` (see
//! [`f3r_sparse::blas1::narrow_scaled_into`]), which keeps fp16 storage
//! inside its narrow exponent range — vectors whose amplitude is far
//! outside `[2^-14, 2^15]` survive compression, which is what makes fp16
//! storage usable at all for Krylov vectors.  Same-precision storage
//! (`S` = working precision) stores the values verbatim with the
//! coefficient carried in the scale: lossless, and free of the amplitude
//! reduction pass, so a solver configured without compression is
//! numerically and nearly cost-wise unchanged.
//!
//! The solver never decompresses a whole basis: the mixed-precision kernels
//! in [`f3r_sparse::blas1`] (the Gram–Schmidt sweeps `project_compressed`
//! and `subtract_projections`, which read the slots through
//! [`CompressedBasis::vector`], and `axpy_scaled_from`) operate on the
//! stored form directly, widening each element exactly once into the working
//! accumulator, so basis sweeps run at the *storage* precision's memory
//! bandwidth.
//!
//! # Example
//!
//! Compress a double-precision vector into fp16 storage and bound the
//! round-trip error by fp16's unit roundoff relative to the amplitude:
//!
//! ```
//! use f3r_core::basis::CompressedBasis;
//! use f3r_precision::{f16, Precision};
//!
//! // A vector whose entries sit far below fp16's subnormal floor (~6e-8):
//! // the per-vector amplitude scale keeps them alive.
//! let x: Vec<f64> = (0..64).map(|i| (i as f64 - 31.5) * 1.0e-12).collect();
//!
//! let mut basis = CompressedBasis::<f16>::new(64, 1);
//! basis.compress_scaled(0, 1.0, &x);
//! assert_eq!(CompressedBasis::<f16>::storage_precision(), Precision::Fp16);
//!
//! let mut back = vec![0.0f64; 64];
//! basis.decompress_into(0, &mut back);
//!
//! let amax = x.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
//! for (&orig, &rt) in x.iter().zip(back.iter()) {
//!     // One fp16 rounding on values scaled into [-1, 1]: the element-wise
//!     // error is at most eps_fp16 = 2^-10 times the vector amplitude.
//!     assert!((orig - rt).abs() <= amax * 2.0f64.powi(-10));
//! }
//! ```

use f3r_precision::{Precision, Scalar};
use f3r_sparse::blas1;

/// A set of basis vectors stored in precision `S` with one `f64` amplitude
/// scale per vector (represented vector = `scale * stored`).
///
/// See the [module documentation](self) for the storage scheme and the
/// crate-level docs for how FGMRES uses it.
pub struct CompressedBasis<S> {
    n: usize,
    scales: Vec<f64>,
    vecs: Vec<Vec<S>>,
}

impl<S: Scalar> CompressedBasis<S> {
    /// Allocate storage for `count` vectors of length `n` (all zero, scale 0).
    #[must_use]
    pub fn new(n: usize, count: usize) -> Self {
        Self {
            n,
            scales: vec![0.0; count],
            vecs: (0..count).map(|_| vec![S::zero(); n]).collect(),
        }
    }

    /// Vector length.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of vector slots.
    #[must_use]
    pub fn count(&self) -> usize {
        self.vecs.len()
    }

    /// The storage precision `S` as a runtime tag.
    #[must_use]
    pub fn storage_precision() -> Precision {
        S::PRECISION
    }

    /// Bytes occupied by one stored vector (the traffic one basis sweep
    /// moves; the per-vector scale is a scalar and is not counted).
    #[must_use]
    pub fn vector_bytes(&self) -> u64 {
        (self.n as u64) * S::bytes() as u64
    }

    /// Total heap bytes held by the basis: every stored vector plus the
    /// per-vector amplitude scales (the resident footprint, as opposed to
    /// the per-sweep traffic of [`vector_bytes`](Self::vector_bytes)).
    #[must_use]
    pub fn storage_bytes(&self) -> u64 {
        self.vecs
            .iter()
            .map(|v| v.len() as u64 * S::bytes() as u64)
            .sum::<u64>()
            + self.scales.len() as u64 * 8
    }

    /// Compress `alpha * src` into slot `j` (one amplitude-scale reduction
    /// plus one narrowing sweep; see
    /// [`f3r_sparse::blas1::narrow_scaled_into`]).
    pub fn compress_scaled<T: Scalar>(&mut self, j: usize, alpha: f64, src: &[T]) {
        self.scales[j] = blas1::narrow_scaled_into(alpha, src, &mut self.vecs[j]);
    }

    /// Decompress slot `j` into a working-precision vector.
    pub fn decompress_into<T: Scalar>(&self, j: usize, dst: &mut [T]) {
        blas1::widen_scaled_into(self.scales[j], &self.vecs[j], dst);
    }

    /// Borrow the stored form of slot `j`: `(stored elements, scale)`.
    #[must_use]
    pub fn vector(&self, j: usize) -> (&[S], f64) {
        (&self.vecs[j], self.scales[j])
    }

    /// Euclidean norm of the represented vector in slot `j`.
    #[must_use]
    pub fn norm2(&self, j: usize) -> f64 {
        blas1::norm2_compressed(&self.vecs[j], self.scales[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f3r_precision::f16;

    #[test]
    fn same_precision_round_trip_is_lossless() {
        let x: Vec<f64> = (0..100).map(|i| ((i * 13) % 37) as f64 - 18.0).collect();
        let mut basis = CompressedBasis::<f64>::new(100, 2);
        basis.compress_scaled(0, 1.0, &x);
        let mut back = vec![0.0f64; 100];
        basis.decompress_into(0, &mut back);
        assert_eq!(x, back);
        // Slot 1 untouched: zero vector, zero scale.
        assert_eq!(basis.norm2(1), 0.0);
        assert_eq!(basis.vector(1).1, 0.0);
    }

    #[test]
    fn fp16_storage_preserves_direction_to_storage_eps() {
        let n = 500;
        let x: Vec<f64> = (0..n).map(|i| (((i * 7) % 113) as f64 - 56.0) * 1e5).collect();
        let mut basis = CompressedBasis::<f16>::new(n, 1);
        basis.compress_scaled(0, 1.0, &x);
        let mut back = vec![0.0f64; n];
        basis.decompress_into(0, &mut back);
        let amax = x.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        for (&a, &b) in x.iter().zip(back.iter()) {
            assert!((a - b).abs() <= amax * 2.0f64.powi(-10));
        }
        let nrm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((basis.norm2(0) - nrm).abs() < 2e-3 * nrm);
    }

    #[test]
    fn geometry_accessors() {
        let b = CompressedBasis::<f16>::new(64, 5);
        assert_eq!(b.dim(), 64);
        assert_eq!(b.count(), 5);
        assert_eq!(b.vector_bytes(), 128);
        assert_eq!(CompressedBasis::<f16>::storage_precision(), Precision::Fp16);
        assert_eq!(CompressedBasis::<f32>::storage_precision(), Precision::Fp32);
    }
}
