//! ILU(0): incomplete LU factorisation with zero fill-in.
//!
//! The primary preconditioner of the paper's CPU experiments is a
//! block-Jacobi ILU(0)/IC(0); this module provides the single-block ILU(0)
//! factorisation that the block-Jacobi wrapper composes.  The factorisation is
//! always computed in fp64 (optionally on a matrix whose diagonal has been
//! boosted by the α_ILU stabilisation factor, Section 5.1) and the factors are
//! then stored in the target precision `T`; the triangular solves are the
//! sweeps IC(0) and ILU(0) share (see the [crate docs](crate#triangular-solves)).

use std::ops::Range;

use f3r_precision::Scalar;
use f3r_sparse::CsrMatrix;

use crate::traits::Preconditioner;
use crate::trisolve::{solve, solve_panel, Factor, Lanes, Sweep, TriangularSolve};

/// ILU(0) factorisation of a square CSR matrix, stored in precision `T`.
///
/// The `L` and `U` factors share the sparsity pattern of `A`: entries with
/// column < row belong to `L` (unit diagonal implied), entries with column ≥
/// row belong to `U`.
#[derive(Debug, Clone)]
pub struct Ilu0Precond<T: Scalar> {
    factor: Factor<T>,
    /// Number of entries left of the diagonal in each row (the `L` part).
    lower_len: Vec<u32>,
}

/// Smallest pivot magnitude tolerated before the breakdown safeguard kicks in.
const PIVOT_FLOOR: f64 = 1e-12;

impl<T: Scalar> Ilu0Precond<T> {
    /// Factorise `a` with the diagonal boosted by `alpha` during the
    /// factorisation only (α_ILU stabilisation; pass `1.0` for the plain
    /// factorisation).
    ///
    /// # Panics
    /// Panics if `a` is not square.
    #[must_use]
    pub fn new(a: &CsrMatrix<f64>, alpha: f64) -> Self {
        assert!(a.is_square(), "ILU(0) requires a square matrix");
        let n = a.n_rows();
        let row_ptr = a.row_ptr().to_vec();
        let col_idx = a.col_idx().to_vec();
        let mut values: Vec<f64> = a.values().to_vec();

        // α_ILU: scale diagonal entries before factorising.
        let mut diag_pos = vec![usize::MAX; n];
        for row in 0..n {
            for k in row_ptr[row]..row_ptr[row + 1] {
                if col_idx[k] as usize == row {
                    diag_pos[row] = k - row_ptr[row];
                    values[k] *= alpha;
                }
            }
        }

        // IKJ-variant ILU(0) with a dense column→position map per row.
        let mut col_map = vec![usize::MAX; n];
        for i in 0..n {
            let (start, end) = (row_ptr[i], row_ptr[i + 1]);
            for k in start..end {
                col_map[col_idx[k] as usize] = k;
            }
            for kk in start..end {
                let k_col = col_idx[kk] as usize;
                if k_col >= i {
                    break; // columns are sorted; remaining are U entries
                }
                // pivot of row k_col
                let kdiag = diag_pos[k_col];
                let pivot = if kdiag == usize::MAX {
                    PIVOT_FLOOR
                } else {
                    let p = values[row_ptr[k_col] + kdiag];
                    if p.abs() < PIVOT_FLOOR {
                        PIVOT_FLOOR.copysign(if p == 0.0 { 1.0 } else { p })
                    } else {
                        p
                    }
                };
                let lik = values[kk] / pivot;
                values[kk] = lik;
                // eliminate: for U entries of row k_col beyond the diagonal
                let kstart = row_ptr[k_col];
                let kend = row_ptr[k_col + 1];
                for kj in kstart..kend {
                    let j = col_idx[kj] as usize;
                    if j <= k_col {
                        continue;
                    }
                    let pos = col_map[j];
                    if pos != usize::MAX {
                        values[pos] -= lik * values[kj];
                    }
                }
            }
            for k in start..end {
                col_map[col_idx[k] as usize] = usize::MAX;
            }
        }

        let diag: Vec<f64> = (0..n)
            .map(|i| {
                if diag_pos[i] == usize::MAX {
                    return 1.0;
                }
                let v = values[row_ptr[i] + diag_pos[i]];
                if v.abs() < PIVOT_FLOOR {
                    PIVOT_FLOOR.copysign(if v == 0.0 { 1.0 } else { v })
                } else {
                    v
                }
            })
            .collect();
        let lower_len = (0..n)
            .map(|i| {
                let row = &col_idx[row_ptr[i]..row_ptr[i + 1]];
                u32::try_from(row.partition_point(|&c| (c as usize) < i))
                    .expect("a row of distinct u32 columns has at most u32::MAX entries left of the diagonal")
            })
            .collect();
        Self {
            factor: Factor::new(row_ptr, col_idx, &values, &diag),
            lower_len,
        }
    }

    /// Row `i`'s `L` entries (unit diagonal implied).
    fn lower(&self, i: usize) -> Range<usize> {
        let start = self.factor.row_ptr[i];
        start..start + self.lower_len[i] as usize
    }

    /// Row `i`'s `U` entries right of the diagonal: everything after the `L`
    /// part and the diagonal, where the row stores one.
    fn upper(&self, i: usize) -> Range<usize> {
        let f = &self.factor;
        let (diag, end) = (self.lower(i).end, f.row_ptr[i + 1]);
        let has_diag = diag < end && f.col_idx[diag] as usize == i;
        diag + usize::from(has_diag)..end
    }
}

impl<T: Scalar> TriangularSolve<T> for Ilu0Precond<T> {
    fn factor(&self) -> &Factor<T> {
        &self.factor
    }

    fn sweeps<L: Lanes<T::Accum>>(&self, s: &mut Sweep<'_, T, L>) {
        // Forward substitution L y = r (unit lower triangle), then backward
        // substitution U z = y.
        s.forward(|i| self.lower(i), true);
        s.backward(|i| self.upper(i));
    }
}

impl<T: Scalar> Preconditioner<T> for Ilu0Precond<T> {
    fn apply(&self, r: &[T], z: &mut [T]) {
        assert_eq!(r.len(), self.factor.n(), "ILU(0): length mismatch");
        assert_eq!(z.len(), self.factor.n(), "ILU(0): length mismatch");
        solve(self, r, z);
    }

    fn apply_panel(&self, r: &[T], z: &mut [T], k: usize) {
        let n = self.factor.n();
        assert_eq!(r.len(), n * k, "ILU(0): panel length mismatch");
        assert_eq!(z.len(), n * k, "ILU(0): panel length mismatch");
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
        self.factor.storage_bytes() + std::mem::size_of_val(&self.lower_len[..]) as u64
    }

    fn name(&self) -> String {
        format!("ILU(0) ({})", T::name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trisolve::{reference, testing};
    use f3r_sparse::gen::hpgmp_matrix;
    use f3r_sparse::gen::laplacian::poisson2d_5pt;
    use f3r_sparse::scaling::jacobi_scale;
    use f3r_sparse::spmv::spmv;
    use f3r_sparse::CooMatrix;
    use half::f16;

    /// For a tridiagonal matrix ILU(0) is exact: M r should equal A^{-1} r.
    #[test]
    fn exact_for_tridiagonal() {
        let n = 20;
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
        let p = Ilu0Precond::<f64>::new(&a, 1.0);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut b = vec![0.0; n];
        spmv(&a, &x_true, &mut b);
        let mut z = vec![0.0; n];
        p.apply(&b, &mut z);
        for i in 0..n {
            assert!((z[i] - x_true[i]).abs() < 1e-10, "i={i}: {} vs {}", z[i], x_true[i]);
        }
    }

    /// ILU(0) of the 5-point Laplacian is not exact, but applying M then A
    /// must reduce the residual substantially compared with the raw r.
    #[test]
    fn reduces_residual_on_poisson() {
        let a = poisson2d_5pt(12, 12);
        let n = a.n_rows();
        let p = Ilu0Precond::<f64>::new(&a, 1.0);
        let r: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 / 13.0).collect();
        let mut z = vec![0.0; n];
        p.apply(&r, &mut z);
        let mut az = vec![0.0; n];
        spmv(&a, &z, &mut az);
        let err: f64 = r
            .iter()
            .zip(az.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let rnorm: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err < 0.8 * rnorm, "err {err} vs {rnorm}");
    }

    #[test]
    fn fp16_storage_still_approximates_inverse() {
        use half::f16;
        let a = poisson2d_5pt(8, 8);
        let n = a.n_rows();
        let p64 = Ilu0Precond::<f64>::new(&a, 1.0);
        let p16 = Ilu0Precond::<f16>::new(&a, 1.0);
        assert_eq!(Preconditioner::<f16>::nnz(&p16), Preconditioner::<f64>::nnz(&p64));
        let r = vec![1.0f64; n];
        let mut z64 = vec![0.0f64; n];
        p64.apply(&r, &mut z64);
        let r16: Vec<f16> = r.iter().map(|&v| f16::from_f64(v)).collect();
        let mut z16 = vec![f16::from_f64(0.0); n];
        p16.apply(&r16, &mut z16);
        for i in 0..n {
            let rel = (z16[i].to_f64() - z64[i]) / z64[i].abs().max(1e-3);
            assert!(rel.abs() < 0.05, "i={i}: {} vs {}", z16[i], z64[i]);
        }
    }

    #[test]
    fn alpha_scaling_changes_factors() {
        let a = poisson2d_5pt(6, 6);
        let p1 = Ilu0Precond::<f64>::new(&a, 1.0);
        let p2 = Ilu0Precond::<f64>::new(&a, 1.1);
        let r = vec![1.0; a.n_rows()];
        let mut z1 = vec![0.0; a.n_rows()];
        let mut z2 = vec![0.0; a.n_rows()];
        p1.apply(&r, &mut z1);
        p2.apply(&r, &mut z2);
        assert!(z1.iter().zip(&z2).any(|(a, b)| (a - b).abs() > 1e-9));
    }

    #[test]
    fn missing_diagonal_is_safeguarded() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        coo.push(1, 1, 2.0);
        coo.push(2, 2, 1.0);
        let a = coo.to_csr();
        let p = Ilu0Precond::<f64>::new(&a, 1.0);
        let r = vec![1.0; 3];
        let mut z = vec![0.0; 3];
        p.apply(&r, &mut z);
        assert!(z.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_panics() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        let _ = Ilu0Precond::<f64>::new(&coo.to_csr(), 1.0);
    }

    /// Row 2 stores entries on both sides of the diagonal but no diagonal
    /// (and no later row eliminates with it, so no floored pivot enters the
    /// factors): the `U` solve of that row must start right of column 2, not
    /// at the row's first entry.
    #[test]
    fn row_without_a_diagonal_matches_a_dense_solve() {
        let n = 4;
        let mut coo = CooMatrix::new(n, n);
        for &(i, j, v) in &[
            (0, 0, 4.0), (0, 1, 1.0), (0, 3, 0.5),
            (1, 0, 1.0), (1, 1, 3.0), (1, 2, 0.5),
            (2, 0, 0.5), (2, 1, 0.25), (2, 3, 1.0),
            (3, 1, 0.5), (3, 3, 2.0),
        ] {
            coo.push(i, j, v);
        }
        let p = Ilu0Precond::<f64>::new(&coo.to_csr(), 1.0);
        assert_eq!(p.lower(2).len(), 2);
        assert_eq!(p.upper(2).len(), 1);

        // The stored factors as dense matrices: L unit lower, U upper with
        // a one where no diagonal is stored.
        let f = &p.factor;
        let mut l = vec![vec![0.0f64; n]; n];
        let mut u = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            l[i][i] = 1.0;
            u[i][i] = 1.0;
            for k in f.row_ptr[i]..f.row_ptr[i + 1] {
                let j = f.col_idx[k] as usize;
                if j < i {
                    l[i][j] = f.values[k];
                } else {
                    u[i][j] = f.values[k];
                }
            }
        }
        let r = [1.0, -2.0, 3.0, 0.5];
        let mut y = [0.0f64; 4];
        for i in 0..n {
            y[i] = r[i] - (0..i).map(|j| l[i][j] * y[j]).sum::<f64>();
        }
        let mut z_dense = [0.0f64; 4];
        for i in (0..n).rev() {
            z_dense[i] = (y[i] - (i + 1..n).map(|j| u[i][j] * z_dense[j]).sum::<f64>()) / u[i][i];
        }
        let mut z = [0.0f64; 4];
        p.apply(&r, &mut z);
        for i in 0..n {
            assert!((z[i] - z_dense[i]).abs() < 1e-14, "i={i}: {} vs {}", z[i], z_dense[i]);
        }
    }

    #[test]
    fn fp32_and_fp64_apply_are_bitwise_the_reference_loops() {
        fn check<T: Scalar>(a: &CsrMatrix<f64>) {
            let p = Ilu0Precond::<T>::new(a, 1.0);
            let r = testing::rhs::<T>(a.n_rows());
            let (mut z, mut z_ref) = (vec![T::zero(); r.len()], vec![T::zero(); r.len()]);
            p.apply(&r, &mut z);
            reference::ilu0(&p.factor, &r, &mut z_ref);
            assert_eq!(testing::bits(&z), testing::bits(&z_ref), "{}", T::name());
        }
        for a in [jacobi_scale(&hpgmp_matrix(8, 8, 8, 0.5)), testing::ragged(false), poisson2d_5pt(9, 7)] {
            check::<f32>(&a);
            check::<f64>(&a);
        }
    }

    #[test]
    fn panel_apply_is_bitwise_the_single_applications() {
        for a in [jacobi_scale(&hpgmp_matrix(8, 8, 8, 0.5)), testing::ragged(false)] {
            testing::assert_panel_is_the_column_loop(&Ilu0Precond::<f16>::new(&a, 1.0));
            testing::assert_panel_is_the_column_loop(&Ilu0Precond::<f32>::new(&a, 1.0));
            testing::assert_panel_is_the_column_loop(&Ilu0Precond::<f64>::new(&a, 1.0));
        }
    }

    /// See the IC(0) test of the same name: the contract of the shared
    /// sweeps, and the widening window against the plain loop.
    #[test]
    fn fp16_apply_is_the_fp32_apply_of_the_same_coefficients_rounded_once() {
        for a in [testing::ragged(false), jacobi_scale(&hpgmp_matrix(8, 8, 8, 0.5))] {
            let n = a.n_rows();
            let p16 = Ilu0Precond::<f16>::new(&a, 1.0);
            let p32 = Ilu0Precond {
                factor: p16.factor.widened(),
                lower_len: p16.lower_len.clone(),
            };
            let r16 = testing::rhs::<f16>(n);
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
        let a = jacobi_scale(&hpgmp_matrix(16, 16, 16, 0.5));
        let n = a.n_rows();
        let mut z64 = vec![0.0f64; n];
        Ilu0Precond::<f64>::new(&a, 1.0).apply(&testing::rhs::<f64>(n), &mut z64);
        let p16 = Ilu0Precond::<f16>::new(&a, 1.0);
        let r16 = testing::rhs::<f16>(n);
        let (mut z, mut z_ref) = (vec![f16::ZERO; n], vec![f16::ZERO; n]);
        p16.apply(&r16, &mut z);
        reference::ilu0(&p16.factor, &r16, &mut z_ref);
        let (err, err_ref) = (testing::rel_err(&z, &z64), testing::rel_err(&z_ref, &z64));
        assert!(err <= err_ref, "error {err:e} against {err_ref:e} for the reference loops");
        assert!(err < 1e-3, "error {err:e}");
    }

    /// `L` amplifies `r` beyond 65504 in `y₂`; `U` brings it back.
    #[test]
    fn an_intermediate_beyond_the_fp16_range_no_longer_overflows_a_final_value_does() {
        let solve = |d: f64| {
            let mut coo = CooMatrix::new(2, 2);
            coo.push(0, 0, 1.0);
            coo.push(1, 0, -100.0);
            coo.push(1, 1, d);
            let p = Ilu0Precond::<f16>::new(&coo.to_csr(), 1.0);
            let r = [f16::from_f32(1000.0), f16::ZERO];
            let (mut z, mut z_ref) = ([f16::ZERO; 2], [f16::ZERO; 2]);
            p.apply(&r, &mut z);
            reference::ilu0(&p.factor, &r, &mut z_ref);
            (z[1], z_ref[1])
        };
        // y2 = 1e5; z2 = y2 / 1000 fits, and only the reference loops, which
        // round y2 to fp16, lose it.
        let (z2, z2_ref) = solve(1000.0);
        assert!((z2.to_f32() - 100.0).abs() < 0.5, "z2 = {z2}");
        assert_eq!(z2_ref.to_bits(), f16::INFINITY.to_bits());
        // z2 = y2 / 1 does not fit.
        assert_eq!(solve(1.0).0.to_bits(), f16::INFINITY.to_bits());
    }

    #[test]
    fn storage_bytes_is_the_sum_of_the_held_arrays() {
        fn check<T: Scalar>() {
            let p = Ilu0Precond::<T>::new(&poisson2d_5pt(6, 6), 1.0);
            let f = &p.factor;
            let held = std::mem::size_of_val(&f.row_ptr[..])
                + std::mem::size_of_val(&f.col_idx[..])
                + std::mem::size_of_val(&f.values[..])
                + std::mem::size_of_val(&f.inv_diag[..])
                + std::mem::size_of_val(&p.lower_len[..]);
            assert_eq!(p.storage_bytes(), held as u64);
            let (n, nnz) = (p.dim() as u64, p.nnz() as u64);
            let (t, acc) = (T::bytes() as u64, <T::Accum as Scalar>::bytes() as u64);
            assert_eq!(p.storage_bytes(), nnz * (t + 4) + (n + 1) * 8 + n * (4 + acc));
        }
        check::<f16>();
        check::<f32>();
        check::<f64>();
    }
}
