//! IC(0): incomplete Cholesky factorisation with zero fill-in.
//!
//! Used as the primary preconditioner for the symmetric positive definite
//! test problems on the CPU node (Section 5.1: "block-Jacobi ILU(0) (or
//! IC(0) when symmetric)").  The factorisation is computed in fp64 on the
//! lower triangle of `A` (with the α stabilisation applied to the diagonal)
//! and stored in the target precision `T`; the application performs the
//! forward solve `L y = r` and the backward solve `Lᵀ z = y` with the sweeps
//! IC(0) and ILU(0) share (see the [crate docs](crate#triangular-solves)).

use std::ops::Range;

use f3r_precision::Scalar;
use f3r_sparse::CsrMatrix;

use crate::traits::Preconditioner;
use crate::trisolve::{solve, solve_panel, Factor, Lanes, Sweep, TriangularSolve};

/// IC(0) factor `L` (lower triangular, diagonal included) stored in CSR and
/// precision `T`.
#[derive(Debug, Clone)]
pub struct Ic0Precond<T: Scalar> {
    factor: Factor<T>,
}

/// Floor applied to the pivot before taking the square root; guards against
/// breakdown of the incomplete factorisation (Scott & Tůma 2024 discuss this
/// failure mode at low precision — here the construction is always fp64).
const PIVOT_FLOOR: f64 = 1e-12;

impl<T: Scalar> Ic0Precond<T> {
    /// Factorise the lower triangle of `a` with the diagonal boosted by
    /// `alpha` during factorisation (α stabilisation).
    ///
    /// # Panics
    /// Panics if `a` is not square.
    #[must_use]
    pub fn new(a: &CsrMatrix<f64>, alpha: f64) -> Self {
        assert!(a.is_square(), "IC(0) requires a square matrix");
        let lower = a.lower_triangle();
        let n = lower.n_rows();
        let row_ptr = lower.row_ptr().to_vec();
        let col_idx = lower.col_idx().to_vec();
        let mut values: Vec<f64> = lower.values().to_vec();

        // boost diagonal (last entry of each row in the lower triangle,
        // because columns are sorted and j <= i)
        let mut diag_pos = vec![usize::MAX; n];
        for i in 0..n {
            for k in row_ptr[i]..row_ptr[i + 1] {
                if col_idx[k] as usize == i {
                    diag_pos[i] = k;
                    values[k] *= alpha;
                }
            }
        }

        // Row-oriented IC(0).  l_ij = (a_ij - sum_k l_ik l_jk) / l_jj for j<i,
        // l_ii = sqrt(a_ii - sum_k l_ik^2), sums restricted to the pattern.
        let mut col_map = vec![usize::MAX; n];
        for i in 0..n {
            let (start, end) = (row_ptr[i], row_ptr[i + 1]);
            for k in start..end {
                col_map[col_idx[k] as usize] = k;
            }
            for kk in start..end {
                let j = col_idx[kk] as usize;
                if j >= i {
                    break;
                }
                // dot of rows i and j over columns < j
                let mut s = 0.0;
                for kj in row_ptr[j]..row_ptr[j + 1] {
                    let c = col_idx[kj] as usize;
                    if c >= j {
                        break;
                    }
                    let pos = col_map[c];
                    if pos != usize::MAX {
                        s += values[pos] * values[kj];
                    }
                }
                let ljj = if diag_pos[j] == usize::MAX {
                    1.0
                } else {
                    values[diag_pos[j]]
                };
                let ljj = if ljj.abs() < PIVOT_FLOOR { PIVOT_FLOOR } else { ljj };
                values[kk] = (values[kk] - s) / ljj;
            }
            // diagonal
            if diag_pos[i] != usize::MAX {
                let mut s = 0.0;
                for k in start..end {
                    let c = col_idx[k] as usize;
                    if c >= i {
                        break;
                    }
                    s += values[k] * values[k];
                }
                let d = values[diag_pos[i]] - s;
                values[diag_pos[i]] = if d > PIVOT_FLOOR {
                    d.sqrt()
                } else {
                    // breakdown safeguard: keep a small positive pivot
                    PIVOT_FLOOR.sqrt()
                };
            }
            for k in start..end {
                col_map[col_idx[k] as usize] = usize::MAX;
            }
        }

        let diag: Vec<f64> = diag_pos
            .iter()
            .map(|&pos| if pos == usize::MAX { 1.0 } else { values[pos] })
            .collect();
        Self {
            factor: Factor::new(row_ptr, col_idx, &values, &diag),
        }
    }

    /// Row `i`'s entries left of the diagonal.  Only the lower triangle is
    /// stored and columns are sorted, so that is the whole row minus its last
    /// entry when that one is the diagonal.
    fn lower(&self, i: usize) -> Range<usize> {
        let f = &self.factor;
        let (start, end) = (f.row_ptr[i], f.row_ptr[i + 1]);
        let has_diag = end > start && f.col_idx[end - 1] as usize == i;
        start..end - usize::from(has_diag)
    }
}

impl<T: Scalar> TriangularSolve<T> for Ic0Precond<T> {
    fn factor(&self) -> &Factor<T> {
        &self.factor
    }

    fn sweeps<L: Lanes<T::Accum>>(&self, s: &mut Sweep<'_, T, L>) {
        // Forward solve L y = r, then backward solve Lᵀ z = y by traversing
        // the rows of L in reverse and scattering.
        s.forward(|i| self.lower(i), false);
        s.backward_transposed(|i| self.lower(i));
    }
}

impl<T: Scalar> Preconditioner<T> for Ic0Precond<T> {
    fn apply(&self, r: &[T], z: &mut [T]) {
        assert_eq!(r.len(), self.factor.n(), "IC(0): length mismatch");
        assert_eq!(z.len(), self.factor.n(), "IC(0): length mismatch");
        solve(self, r, z);
    }

    fn apply_panel(&self, r: &[T], z: &mut [T], k: usize) {
        let n = self.factor.n();
        assert_eq!(r.len(), n * k, "IC(0): panel length mismatch");
        assert_eq!(z.len(), n * k, "IC(0): panel length mismatch");
        // SAFETY: `z` is ours, exclusively, and holds `k` columns of `n`.
        unsafe { solve_panel(self, r, z.as_mut_ptr(), n, 0, k) };
    }

    fn dim(&self) -> usize {
        self.factor.n()
    }

    fn nnz(&self) -> usize {
        self.factor.values.len()
    }

    fn storage_bytes(&self) -> u64 {
        self.factor.storage_bytes()
    }

    fn name(&self) -> String {
        format!("IC(0) ({})", T::name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trisolve::{reference, testing};
    use f3r_sparse::gen::hpcg::hpcg_matrix;
    use f3r_sparse::gen::laplacian::poisson2d_5pt;
    use f3r_sparse::scaling::jacobi_scale;
    use f3r_sparse::spmv::spmv;
    use f3r_sparse::CooMatrix;
    use half::f16;

    #[test]
    fn exact_for_tridiagonal_spd() {
        let n = 16;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
        }
        let a = coo.to_csr();
        let p = Ic0Precond::<f64>::new(&a, 1.0);
        let x_true: Vec<f64> = (0..n).map(|i| 0.5 + (i as f64 * 0.2).cos()).collect();
        let mut b = vec![0.0; n];
        spmv(&a, &x_true, &mut b);
        let mut z = vec![0.0; n];
        p.apply(&b, &mut z);
        for i in 0..n {
            assert!((z[i] - x_true[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn reduces_residual_on_poisson() {
        let a = poisson2d_5pt(10, 10);
        let n = a.n_rows();
        let p = Ic0Precond::<f64>::new(&a, 1.0);
        let r: Vec<f64> = (0..n).map(|i| ((i * 11) % 17) as f64 / 17.0).collect();
        let mut z = vec![0.0; n];
        p.apply(&r, &mut z);
        let mut az = vec![0.0; n];
        spmv(&a, &z, &mut az);
        let err: f64 = r.iter().zip(&az).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        let rnorm: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err < 0.8 * rnorm, "err {err} vs {rnorm}");
    }

    #[test]
    fn matches_symmetry_of_operator() {
        // M = (L L^T)^{-1} must be symmetric: (e_i, M e_j) == (e_j, M e_i).
        let a = poisson2d_5pt(5, 5);
        let n = a.n_rows();
        let p = Ic0Precond::<f64>::new(&a, 1.0);
        let apply_to_unit = |k: usize| {
            let mut r = vec![0.0; n];
            r[k] = 1.0;
            let mut z = vec![0.0; n];
            p.apply(&r, &mut z);
            z
        };
        let z3 = apply_to_unit(3);
        let z17 = apply_to_unit(17);
        assert!((z3[17] - z17[3]).abs() < 1e-12);
    }

    #[test]
    fn breakdown_safeguard_handles_indefinite_input() {
        // Not SPD: IC(0) would break down without the pivot floor.
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0e-30);
        coo.push(1, 1, -1.0);
        coo.push(2, 2, 4.0);
        coo.push_sym(1, 0, 0.5);
        let a = coo.to_csr();
        let p = Ic0Precond::<f64>::new(&a, 1.0);
        let r = vec![1.0; 3];
        let mut z = vec![0.0; 3];
        p.apply(&r, &mut z);
        assert!(z.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn fp32_storage_close_to_fp64() {
        let a = poisson2d_5pt(6, 6);
        let n = a.n_rows();
        let p64 = Ic0Precond::<f64>::new(&a, 1.0);
        let p32 = Ic0Precond::<f32>::new(&a, 1.0);
        let r = vec![1.0f64; n];
        let mut z64 = vec![0.0f64; n];
        p64.apply(&r, &mut z64);
        let r32 = vec![1.0f32; n];
        let mut z32 = vec![0.0f32; n];
        p32.apply(&r32, &mut z32);
        for i in 0..n {
            assert!((f64::from(z32[i]) - z64[i]).abs() < 1e-4 * z64[i].abs().max(1.0));
        }
    }

    #[test]
    fn fp32_and_fp64_apply_are_bitwise_the_reference_loops() {
        fn check<T: Scalar>(a: &CsrMatrix<f64>) {
            let p = Ic0Precond::<T>::new(a, 1.0);
            let r = testing::rhs::<T>(a.n_rows());
            let (mut z, mut z_ref) = (vec![T::zero(); r.len()], vec![T::zero(); r.len()]);
            p.apply(&r, &mut z);
            reference::ic0(&p.factor, &r, &mut z_ref);
            assert_eq!(testing::bits(&z), testing::bits(&z_ref), "{}", T::name());
        }
        for a in [jacobi_scale(&hpcg_matrix(8, 8, 8)), testing::ragged(true), poisson2d_5pt(9, 7)] {
            check::<f32>(&a);
            check::<f64>(&a);
        }
    }

    #[test]
    fn panel_apply_is_bitwise_the_single_applications() {
        for a in [jacobi_scale(&hpcg_matrix(8, 8, 8)), testing::ragged(true)] {
            testing::assert_panel_is_the_column_loop(&Ic0Precond::<f16>::new(&a, 1.0));
            testing::assert_panel_is_the_column_loop(&Ic0Precond::<f32>::new(&a, 1.0));
            testing::assert_panel_is_the_column_loop(&Ic0Precond::<f64>::new(&a, 1.0));
        }
    }

    /// The contract of the shared sweeps, exactly: an fp16 application is
    /// the fp32 application of the same (fp16-valued) coefficients, rounded
    /// to fp16 once per entry.  The fp32 side reads its values in place, so
    /// this also checks the widening window against the plain loop, with
    /// rows of every length from none to more than a window.
    #[test]
    fn fp16_apply_is_the_fp32_apply_of_the_same_coefficients_rounded_once() {
        let (ragged, hpcg) = (testing::ragged(true), jacobi_scale(&hpcg_matrix(8, 8, 8)));
        for (a, r16) in [
            (&ragged, testing::rhs::<f16>(ragged.n_rows())),
            (&hpcg, testing::rhs::<f16>(hpcg.n_rows())),
            (&overflowing(), overflowing_rhs().to_vec()),
        ] {
            let n = a.n_rows();
            let p16 = Ic0Precond::<f16>::new(a, 1.0);
            let p32 = Ic0Precond {
                factor: p16.factor.widened(),
            };
            let r32: Vec<f32> = r16.iter().map(|v| v.widen()).collect();
            let (mut z16, mut z32) = (vec![f16::ZERO; n], vec![0.0f32; n]);
            p16.apply(&r16, &mut z16);
            p32.apply(&r32, &mut z32);
            let rounded: Vec<f16> = z32.iter().map(|&v| f16::narrow(v)).collect();
            assert_eq!(testing::bits(&z16), testing::bits(&rounded), "n = {n}");
        }
    }

    #[test]
    fn fp16_apply_is_at_least_as_close_to_fp64_as_the_reference_loops() {
        let a = jacobi_scale(&hpcg_matrix(16, 16, 16));
        let n = a.n_rows();
        let mut z64 = vec![0.0f64; n];
        Ic0Precond::<f64>::new(&a, 1.0).apply(&testing::rhs::<f64>(n), &mut z64);
        let p16 = Ic0Precond::<f16>::new(&a, 1.0);
        let r16 = testing::rhs::<f16>(n);
        let (mut z, mut z_ref) = (vec![f16::ZERO; n], vec![f16::ZERO; n]);
        p16.apply(&r16, &mut z);
        reference::ic0(&p16.factor, &r16, &mut z_ref);
        let (err, err_ref) = (testing::rel_err(&z, &z64), testing::rel_err(&z_ref, &z64));
        assert!(err <= err_ref, "error {err:e} against {err_ref:e} for the reference loops");
        assert!(err < 1e-3, "error {err:e}");
    }

    /// `A = L Lᵀ` with `L = [[1, 0], [-1e4, 1e3]]`, whose entries and
    /// reciprocal diagonal all fit fp16.
    fn overflowing() -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push_sym(1, 0, -1.0e4);
        coo.push(1, 1, 1.01e8);
        coo.to_csr()
    }

    /// With this `r` the forward solve gives `y₂ ≈ 1e8 / 1e3`, beyond 65504;
    /// the results are `z₂ = y₂ / 1e3 ≈ 100` and `z₁ = 1e4 + 1e4 z₂ ≈ 1e6`.
    fn overflowing_rhs() -> [f16; 2] {
        [f16::from_f32(1.0e4), f16::ZERO]
    }

    #[test]
    fn an_intermediate_beyond_the_fp16_range_no_longer_overflows_a_final_value_does() {
        let p = Ic0Precond::<f16>::new(&overflowing(), 1.0);
        let r = overflowing_rhs();
        let mut z = [f16::ZERO; 2];
        p.apply(&r, &mut z);
        assert_eq!(z[0].to_bits(), f16::INFINITY.to_bits(), "z1 is beyond 65504");
        assert!((z[1].to_f32() - 100.0).abs() < 0.5, "z2 = {}", z[1]);
        // The reference loops round y2 to fp16, and +inf stays.
        let mut z_ref = [f16::ZERO; 2];
        reference::ic0(&p.factor, &r, &mut z_ref);
        assert_eq!(z_ref[1].to_bits(), f16::INFINITY.to_bits());
    }

    #[test]
    fn storage_bytes_is_the_sum_of_the_held_arrays() {
        fn check<T: Scalar>() {
            let p = Ic0Precond::<T>::new(&poisson2d_5pt(6, 6), 1.0);
            let f = &p.factor;
            let held = std::mem::size_of_val(&f.row_ptr[..])
                + std::mem::size_of_val(&f.col_idx[..])
                + std::mem::size_of_val(&f.values[..])
                + std::mem::size_of_val(&f.inv_diag[..]);
            assert_eq!(p.storage_bytes(), held as u64);
            // Values and column indices per stored entry, row pointers, and a
            // reciprocal diagonal in the accumulation precision; no
            // diagonal-position array.
            let (n, nnz) = (p.dim() as u64, p.nnz() as u64);
            let (t, acc) = (T::bytes() as u64, <T::Accum as Scalar>::bytes() as u64);
            assert_eq!(p.storage_bytes(), nnz * (t + 4) + (n + 1) * 8 + n * acc);
        }
        check::<f16>();
        check::<f32>();
        check::<f64>();
    }
}
