//! Precision-erased handle to the primary preconditioner `M`.
//!
//! The primary preconditioner is constructed in fp64 and *stored* in a
//! configurable precision (Section 5: fp64/fp32/fp16 variants of every
//! baseline solver differ only in this storage precision; in F3R the storage
//! precision follows the innermost level, Table 1).  Solver levels, however,
//! run in their own vector precisions, so [`AnyPrecond`] erases the storage
//! precision behind an enum and converts vectors at the boundary, following
//! the paper's rule of using the higher precision when operand precisions
//! differ.
//!
//! To keep fp16 storage usable late in the convergence history (when residual
//! entries can drop below the fp16 normal range ≈ 6·10⁻⁵), a vector that has
//! to be converted is first normalised by the power of two just above its
//! infinity norm and the result is scaled back afterwards — the standard
//! scaling safeguard of mixed-precision iterative refinement, with a scale
//! whose multiplication is exact.  Vectors already in the storage precision
//! go to the preconditioner as they are.

use f3r_precision::{f16, KernelCounters, Precision, Scalar, SliceView, SliceViewMut};
use f3r_precision::traffic::TrafficModel;
use f3r_sparse::blas1;
use f3r_sparse::scaling::pow2_amplitude;
use f3r_sparse::spmm::PANEL_LANES;
use f3r_sparse::CsrMatrix;
use f3r_precond::{build_preconditioner, PrecondKind, Preconditioner};

use crate::operator::ProblemMatrix;

/// A primary preconditioner stored in one of the three supported precisions.
pub enum AnyPrecond {
    /// Coefficients stored in fp64.
    F64(Box<dyn Preconditioner<f64>>),
    /// Coefficients stored in fp32.
    F32(Box<dyn Preconditioner<f32>>),
    /// Coefficients stored in fp16.
    F16(Box<dyn Preconditioner<f16>>),
}

impl AnyPrecond {
    /// Build the preconditioner `kind` for `a`, storing its coefficients in
    /// `storage` precision (construction always happens in fp64).
    #[must_use]
    pub fn build(a: &CsrMatrix<f64>, kind: &PrecondKind, storage: Precision) -> Self {
        match storage {
            Precision::Fp64 => AnyPrecond::F64(build_preconditioner::<f64>(a, kind)),
            Precision::Fp32 => AnyPrecond::F32(build_preconditioner::<f32>(a, kind)),
            Precision::Fp16 => AnyPrecond::F16(build_preconditioner::<f16>(a, kind)),
        }
    }

    /// Build the preconditioner `kind` for the matrix held in a
    /// [`ProblemMatrix`] store, consuming the store's fp64 base (the
    /// factorisation always happens in fp64 regardless of which precision
    /// variants the solver levels stream).
    #[must_use]
    pub fn for_matrix(matrix: &ProblemMatrix, kind: &PrecondKind, storage: Precision) -> Self {
        Self::build(matrix.csr_f64(), kind, storage)
    }

    /// Storage precision of the coefficients.
    #[must_use]
    pub fn storage_precision(&self) -> Precision {
        match self {
            AnyPrecond::F64(_) => Precision::Fp64,
            AnyPrecond::F32(_) => Precision::Fp32,
            AnyPrecond::F16(_) => Precision::Fp16,
        }
    }

    /// Dimension of the operator.
    #[must_use]
    pub fn dim(&self) -> usize {
        match self {
            AnyPrecond::F64(p) => p.dim(),
            AnyPrecond::F32(p) => p.dim(),
            AnyPrecond::F16(p) => p.dim(),
        }
    }

    /// Stored nonzeros (for the traffic model).
    #[must_use]
    pub fn nnz(&self) -> usize {
        match self {
            AnyPrecond::F64(p) => p.nnz(),
            AnyPrecond::F32(p) => p.nnz(),
            AnyPrecond::F16(p) => p.nnz(),
        }
    }

    /// Resident bytes of the stored factors
    /// ([`Preconditioner::storage_bytes`] of the underlying implementation).
    /// Together with [`ProblemMatrix::storage_bytes`] this prices everything
    /// a [`PreparedSolver`](crate::session::PreparedSolver) keeps alive.
    #[must_use]
    pub fn storage_bytes(&self) -> u64 {
        match self {
            AnyPrecond::F64(p) => p.storage_bytes(),
            AnyPrecond::F32(p) => p.storage_bytes(),
            AnyPrecond::F16(p) => p.storage_bytes(),
        }
    }

    /// Human-readable name of the underlying preconditioner.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            AnyPrecond::F64(p) => p.name(),
            AnyPrecond::F32(p) => p.name(),
            AnyPrecond::F16(p) => p.name(),
        }
    }

    /// Apply `z = M r` with vectors in precision `TV`, recording the
    /// application in `counters` (this is the Table 3 metric): the `k = 1`
    /// case of [`apply_panel_to`](Self::apply_panel_to).
    pub fn apply_to<TV: Scalar>(&self, r: &[TV], z: &mut [TV], counters: &KernelCounters) {
        self.apply_panel_to(r, z, 1, counters);
    }

    /// Apply `M` to every column of a column-major panel of `k` right-hand
    /// sides with vectors in precision `TV`; every column of the result is
    /// bitwise [`apply_to`](Self::apply_to) on that column.
    ///
    /// When `TV` is the storage precision this is
    /// [`Preconditioner::apply_panel`] on the caller's own slices: IC(0),
    /// ILU(0) and block-Jacobi walk their factors once for eight columns.
    /// Otherwise the columns are converted at the boundary with a per-column
    /// infinity-norm scaling safeguard, a lane group at a time through
    /// per-thread scratch; neither case allocates in steady state.
    ///
    /// Counters: `k` preconditioner applications (the Table 3 count stays
    /// per column), one stream of the factors and `k` vector sweeps.
    ///
    /// # Panics
    /// Panics if the panels are not `k` times the operator's dimension long.
    pub fn apply_panel_to<TV: Scalar>(
        &self,
        r: &[TV],
        z: &mut [TV],
        k: usize,
        counters: &KernelCounters,
    ) {
        let (n, m) = (self.dim(), self.storage_precision());
        counters.record_precond_applies(k as u64);
        counters.record_spmv(
            m,
            TrafficModel::sparse_precond_panel_bytes(self.nnz(), n, m, TV::PRECISION, k),
        );
        match (self, TV::view(r), TV::view_mut(z)) {
            (AnyPrecond::F64(p), SliceView::F64(r), SliceViewMut::F64(z)) => p.apply_panel(r, z, k),
            (AnyPrecond::F32(p), SliceView::F32(r), SliceViewMut::F32(z)) => p.apply_panel(r, z, k),
            (AnyPrecond::F16(p), SliceView::F16(r), SliceViewMut::F16(z)) => p.apply_panel(r, z, k),
            (AnyPrecond::F64(p), ..) => apply_converted(p.as_ref(), r, z, k),
            (AnyPrecond::F32(p), ..) => apply_converted(p.as_ref(), r, z, k),
            (AnyPrecond::F16(p), ..) => apply_converted(p.as_ref(), r, z, k),
        }
    }
}

/// Apply a preconditioner stored in precision `TS` to a panel of `k` vectors
/// in another precision `TV`: each column of `r` is divided by the power of
/// two just above its infinity norm on its way into `TS` (so fp16 storage
/// sees entries of magnitude at most one) and the result is multiplied back
/// on its way out.  Both conversions are the scale-and-convert kernel of the
/// compressed basis; a power-of-two scale makes its multiplication exact.  A
/// zero column gives a zero column.
fn apply_converted<TS: Scalar, TV: Scalar>(
    p: &dyn Preconditioner<TS>,
    r: &[TV],
    z: &mut [TV],
    k: usize,
) {
    let n = p.dim();
    assert_eq!(r.len(), n * k, "apply_panel_to: panel length mismatch");
    assert_eq!(z.len(), n * k, "apply_panel_to: panel length mismatch");
    if n == 0 {
        return;
    }
    // A lane group at a time: what the panel sweeps work on, and its scales
    // fit on the stack.
    for c0 in (0..k).step_by(PANEL_LANES) {
        let g = (k - c0).min(PANEL_LANES);
        let (r, z) = (&r[c0 * n..(c0 + g) * n], &mut z[c0 * n..(c0 + g) * n]);
        TS::with_scratch(2 * n * g, |scratch| {
            let (r_s, z_s) = scratch.split_at_mut(n * g);
            let mut scales = [0.0f64; PANEL_LANES];
            for ((scale, rc), sc) in scales.iter_mut().zip(r.chunks_exact(n)).zip(r_s.chunks_exact_mut(n)) {
                *scale = pow2_amplitude(blas1::norm_inf(rc));
                if *scale == 0.0 {
                    sc.fill(TS::zero());
                } else {
                    blas1::widen_scaled_into(1.0 / *scale, rc, sc);
                }
            }
            p.apply_panel(r_s, z_s, g);
            for ((&scale, zc), sc) in scales.iter().zip(z.chunks_exact_mut(n)).zip(z_s.chunks_exact(n)) {
                if scale == 0.0 {
                    zc.fill(TV::zero());
                } else {
                    blas1::widen_scaled_into(scale, sc, zc);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f3r_sparse::gen::laplacian::poisson2d_5pt;
    use f3r_sparse::scaling::jacobi_scale;

    fn setup(storage: Precision) -> (CsrMatrix<f64>, AnyPrecond) {
        let a = jacobi_scale(&poisson2d_5pt(8, 8));
        let p = AnyPrecond::build(&a, &PrecondKind::Ilu0 { alpha: 1.0 }, storage);
        (a, p)
    }

    #[test]
    fn storage_precision_is_respected() {
        for prec in Precision::all() {
            let (_, p) = setup(prec);
            assert_eq!(p.storage_precision(), prec);
            assert_eq!(p.dim(), 64);
            assert!(p.nnz() > 0);
            assert!(p.name().contains("ILU"));
        }
    }

    #[test]
    fn fp16_storage_applied_to_f64_vectors_tracks_fp64_result() {
        let counters = KernelCounters::new_shared();
        let (_, p64) = setup(Precision::Fp64);
        let (_, p16) = setup(Precision::Fp16);
        let n = p64.dim();
        let r: Vec<f64> = (0..n).map(|i| ((i * 3) % 7) as f64 / 7.0).collect();
        let mut z64 = vec![0.0f64; n];
        let mut z16 = vec![0.0f64; n];
        p64.apply_to(&r, &mut z64, &counters);
        p16.apply_to(&r, &mut z16, &counters);
        for i in 0..n {
            assert!((z64[i] - z16[i]).abs() < 2e-2 * z64[i].abs().max(1.0));
        }
        assert_eq!(counters.snapshot().precond_applies, 2);
    }

    #[test]
    fn tiny_residuals_do_not_underflow_in_fp16_storage() {
        // Residual entries far below the fp16 normal range must still produce
        // a usefully scaled correction thanks to the norm safeguard.
        let counters = KernelCounters::new_shared();
        let (_, p16) = setup(Precision::Fp16);
        let n = p16.dim();
        let r: Vec<f64> = (0..n).map(|i| 1e-9 * (1.0 + (i % 5) as f64)).collect();
        let mut z = vec![0.0f64; n];
        p16.apply_to(&r, &mut z, &counters);
        let znorm = blas1::norm2(&z);
        assert!(znorm > 1e-10, "correction collapsed to {znorm}");
        assert!(z.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let counters = KernelCounters::new_shared();
        let (_, p16) = setup(Precision::Fp16);
        let n = p16.dim();
        let r = vec![0.0f64; n];
        let mut z = vec![1.0f64; n];
        p16.apply_to(&r, &mut z, &counters);
        assert!(z.iter().all(|&v| v == 0.0));
    }
}
