//! SD-AINV-style sparse approximate inverse preconditioner.
//!
//! The paper's GPU experiments (Section 5.2) use the SD-AINV preconditioner
//! of Suzuki et al. (2022), "a simplified version of the standard approximate
//! inverse preconditioner", whose defining operational property is that it
//! "requires only two sparse matrix-vector multiplications (SpMVs) per
//! preconditioning step and is well-suited for GPU implementation" — no
//! triangular solves, no reductions.
//!
//! This module reproduces that operational profile with a
//! Jacobi–Neumann approximate inverse: writing the (diagonally boosted)
//! matrix as `A = D (I - G)` with `G = I - D⁻¹A`, the truncated Neumann
//! series gives
//!
//! ```text
//! M = (I + G + G² + … + G^order) D⁻¹  ≈  A⁻¹ .
//! ```
//!
//! With `order = 2` (the default) an application costs exactly two SpMVs with
//! the sparse iteration matrix `G` plus a diagonal scaling — the same
//! application cost and parallel structure as SD-AINV.  On the diagonally
//! scaled, (weakly) diagonally dominant test problems of the paper the series
//! converges and the operator is a serviceable approximate inverse.  It is a
//! substitution: the application profile of SD-AINV, not its operator.

use f3r_precision::Scalar;
use f3r_sparse::spmv::spmv;
use f3r_sparse::{CooMatrix, CsrMatrix};

use crate::traits::Preconditioner;

/// Truncated-Neumann sparse approximate inverse (SD-AINV stand-in), stored in
/// precision `T`.
pub struct SdAinvPrecond<T: Scalar> {
    /// Iteration matrix `G = I - D⁻¹ A` (same pattern as the off-diagonal of A).
    g: CsrMatrix<T>,
    /// Reciprocal (boosted) diagonal `D⁻¹`.
    inv_diag: Vec<T>,
    order: usize,
}

impl<T: Scalar> SdAinvPrecond<T> {
    /// Build the approximate inverse of `a` with the diagonal boosted by
    /// `alpha` (α_AINV, Section 5.2) and `order` Neumann terms beyond the
    /// diagonal one (`order = 2` reproduces the two-SpMV application cost of
    /// SD-AINV).
    ///
    /// # Panics
    /// Panics if `a` is not square or `order` is zero.
    #[must_use]
    #[allow(clippy::needless_range_loop)] // row indexes the matrix and the diagonal
    pub fn new(a: &CsrMatrix<f64>, alpha: f64, order: usize) -> Self {
        assert!(a.is_square(), "SD-AINV requires a square matrix");
        assert!(order >= 1, "order must be at least 1");
        let n = a.n_rows();
        let diag = a.diagonal();
        let inv_diag: Vec<f64> = diag
            .iter()
            .map(|&d| {
                let b = d * alpha;
                if b.abs() > 0.0 {
                    1.0 / b
                } else {
                    1.0
                }
            })
            .collect();
        // G = I - D^{-1} A  (diagonal entries become 1 - a_ii/(alpha*a_ii),
        // off-diagonal entries -a_ij / (alpha*a_ii)).
        let mut coo = CooMatrix::with_capacity(n, n, a.nnz());
        for row in 0..n {
            let (cols, vals) = a.row_entries(row);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                let c = c as usize;
                let scaled = inv_diag[row] * v;
                let g = if c == row { 1.0 - scaled } else { -scaled };
                if g != 0.0 {
                    coo.push(row, c, g);
                }
            }
        }
        Self {
            g: coo.to_csr().to_precision::<T>(),
            inv_diag: inv_diag.iter().map(|&v| T::from_f64(v)).collect(),
            order,
        }
    }

    /// Number of Neumann terms applied beyond the diagonal solve.
    #[must_use]
    pub fn order(&self) -> usize {
        self.order
    }
}

impl<T: Scalar> Preconditioner<T> for SdAinvPrecond<T> {
    fn apply(&self, r: &[T], z: &mut [T]) {
        let n = self.inv_diag.len();
        assert_eq!(r.len(), n, "SD-AINV: length mismatch");
        assert_eq!(z.len(), n, "SD-AINV: length mismatch");
        // t = D^{-1} r ; z = t ; repeat order times: t = G t ; z += t
        let mut t: Vec<T> = (0..n).map(|i| r[i] * self.inv_diag[i]).collect();
        z.copy_from_slice(&t);
        let mut buf = vec![T::zero(); n];
        for _ in 0..self.order {
            spmv(&self.g, &t, &mut buf);
            std::mem::swap(&mut t, &mut buf);
            for i in 0..n {
                z[i] += t[i];
            }
        }
    }

    fn dim(&self) -> usize {
        self.inv_diag.len()
    }

    fn nnz(&self) -> usize {
        self.g.nnz() + self.inv_diag.len()
    }

    fn name(&self) -> String {
        format!("SD-AINV(order={}) ({})", self.order, T::name())
    }

    fn sweeps_per_apply(&self) -> usize {
        self.order
    }

    fn storage_bytes(&self) -> u64 {
        // The iteration-matrix CSR plus the reciprocal diagonal.
        self.g.storage_bytes() + self.inv_diag.len() as u64 * T::PRECISION.bytes() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f3r_sparse::gen::laplacian::poisson2d_5pt;
    use f3r_sparse::scaling::jacobi_scale;

    fn residual_reduction(order: usize) -> f64 {
        let a = jacobi_scale(&poisson2d_5pt(12, 12));
        let n = a.n_rows();
        let p = SdAinvPrecond::<f64>::new(&a, 1.0, order);
        let r: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 / 13.0).collect();
        let mut z = vec![0.0; n];
        p.apply(&r, &mut z);
        let mut az = vec![0.0; n];
        spmv(&a, &z, &mut az);
        let err: f64 = r.iter().zip(&az).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        let rnorm: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        err / rnorm
    }

    #[test]
    fn reduces_residual_and_improves_with_order() {
        let e1 = residual_reduction(1);
        let e2 = residual_reduction(2);
        let e4 = residual_reduction(4);
        assert!(e1 < 1.0);
        assert!(e2 < e1);
        assert!(e4 < e2);
    }

    #[test]
    fn two_spmv_per_apply_at_default_order() {
        let a = jacobi_scale(&poisson2d_5pt(6, 6));
        let p = SdAinvPrecond::<f64>::new(&a, 1.0, 2);
        assert_eq!(p.sweeps_per_apply(), 2);
        assert_eq!(p.order(), 2);
    }

    #[test]
    fn exact_for_diagonal_matrix() {
        use f3r_sparse::CooMatrix;
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, (i + 1) as f64);
        }
        let a = coo.to_csr();
        let p = SdAinvPrecond::<f64>::new(&a, 1.0, 2);
        let r = vec![1.0, 2.0, 3.0, 4.0];
        let mut z = vec![0.0; 4];
        p.apply(&r, &mut z);
        for (i, &zi) in z.iter().enumerate() {
            assert!((zi - 1.0).abs() < 1e-14, "i={i} z={zi}");
        }
    }

    #[test]
    fn fp16_storage_is_finite_and_close() {
        use half::f16;
        let a = jacobi_scale(&poisson2d_5pt(8, 8));
        let n = a.n_rows();
        let p64 = SdAinvPrecond::<f64>::new(&a, 1.0, 2);
        let p16 = SdAinvPrecond::<f16>::new(&a, 1.0, 2);
        let r = vec![1.0f64; n];
        let mut z64 = vec![0.0f64; n];
        p64.apply(&r, &mut z64);
        let r16 = vec![f16::from_f32(1.0); n];
        let mut z16 = vec![f16::from_f32(0.0); n];
        p16.apply(&r16, &mut z16);
        for i in 0..n {
            assert!(z16[i].is_finite());
            assert!((z16[i].to_f64() - z64[i]).abs() < 2e-2);
        }
    }

    #[test]
    fn alpha_boost_damps_the_operator() {
        let a = jacobi_scale(&poisson2d_5pt(6, 6));
        let p1 = SdAinvPrecond::<f64>::new(&a, 1.0, 2);
        let p2 = SdAinvPrecond::<f64>::new(&a, 1.3, 2);
        let n = a.n_rows();
        let r = vec![1.0; n];
        let mut z1 = vec![0.0; n];
        let mut z2 = vec![0.0; n];
        p1.apply(&r, &mut z1);
        p2.apply(&r, &mut z2);
        let s1: f64 = z1.iter().map(|v| v.abs()).sum();
        let s2: f64 = z2.iter().map(|v| v.abs()).sum();
        assert!(s2 < s1, "larger alpha should damp the preconditioner");
    }
}
