//! Diagonal (Jacobi) scaling of linear systems and shared scale helpers.
//!
//! Section 5 of the paper states "we applied diagonal scaling to all
//! matrices".  The standard symmetric form is used here:
//! `Â = D^{-1/2} A D^{-1/2}` with `D = diag(|a_ii|)`, together with the
//! matching right-hand-side transformation `b̂ = D^{-1/2} b` and solution
//! recovery `x = D^{-1/2} x̂`.  The transformation preserves symmetry, makes
//! the diagonal ±1, and (crucially for this paper) brings the dynamic range
//! of the matrix entries into territory that is representable in fp16.
//!
//! This module also hosts the *amplitude* scale helpers shared by the
//! compressed-basis kernels ([`crate::blas1::narrow_scaled_into`]) and the
//! scaled matrix storage ([`crate::StoredMatrix`]): power-of-two scales
//! chosen so the stored values satisfy `|stored| <= 1`, which keeps narrow
//! storage inside its exponent range while the division by the scale stays
//! bit-exact.

use f3r_precision::Scalar;

use crate::csr::CsrMatrix;

/// The symmetric Jacobi scale vector `d_i = 1 / sqrt(|a_ii|)` of a matrix.
///
/// Rows with a zero (or missing) diagonal keep a unit scale factor so the
/// transformation stays well defined.  This is the single row/column-scale
/// computation behind both [`ScaledSystem::new`] and [`jacobi_scale`].
#[must_use]
pub fn inv_sqrt_diag_scale<T: Scalar>(a: &CsrMatrix<T>) -> Vec<f64> {
    a.diagonal()
        .iter()
        .map(|d| {
            let m = d.to_f64().abs();
            if m > 0.0 {
                1.0 / m.sqrt()
            } else {
                1.0
            }
        })
        .collect()
}

/// The smallest power of two at least `amax` (`0.0` for a zero amplitude,
/// non-finite input propagated), clamped to the largest finite power of two
/// `2^1023`.
///
/// This is the amplitude-scale convention shared by the compressed basis
/// storage and the scaled matrix storage: dividing by a power of two is exact
/// in binary floating point, so normalising a vector (or matrix row) by this
/// scale costs no accuracy beyond the final narrowing, while guaranteeing the
/// stored magnitudes are at most one.  The clamp covers amplitudes in
/// `(2^1023, f64::MAX]`, where the unclamped `2^1024` would overflow to +∞
/// and zero out the stored values; under the clamp those extreme rows store
/// magnitudes in `(1, 2)` — still far inside even fp16's finite range.
#[inline]
#[must_use]
pub fn pow2_amplitude(amax: f64) -> f64 {
    if amax == 0.0 {
        0.0
    } else if amax.is_finite() {
        amax.log2().ceil().exp2().min(2.0f64.powi(1023))
    } else {
        // Non-finite amplitudes propagate so downstream breakdown checks
        // still fire.
        amax
    }
}

/// Per-row power-of-two amplitude scales of a matrix: `scales[i]` is the
/// smallest `2^k >= max_j |a_ij|` (rows without nonzero entries get a unit
/// scale so `stored * scale` stays well defined).
///
/// Used by [`StoredMatrix::row_scaled`](crate::StoredMatrix::row_scaled):
/// storing `a_ij / scales[i]` keeps every stored magnitude at most one, making
/// fp16 matrix storage robust for any entry dynamic range across rows.
#[must_use]
pub fn pow2_row_scales<T: Scalar>(a: &CsrMatrix<T>) -> Vec<f64> {
    (0..a.n_rows())
        .map(|row| {
            let (_, vals) = a.row_entries(row);
            let amax = vals
                .iter()
                .map(|v| v.to_f64().abs())
                .fold(0.0f64, f64::max);
            let s = pow2_amplitude(amax);
            if s == 0.0 {
                1.0
            } else {
                s
            }
        })
        .collect()
}

/// A diagonally scaled linear system `Â x̂ = b̂` together with the scaling
/// vector needed to map solutions back to the original variables.
#[derive(Debug, Clone)]
pub struct ScaledSystem {
    /// The scaled matrix `D^{-1/2} A D^{-1/2}`.
    pub matrix: CsrMatrix<f64>,
    /// The scaling vector `d_i = 1 / sqrt(|a_ii|)`.
    pub scale: Vec<f64>,
}

impl ScaledSystem {
    /// Apply symmetric diagonal scaling to `a`.
    ///
    /// Rows with a zero (or missing) diagonal keep a unit scale factor so the
    /// transformation stays well defined.
    #[must_use]
    pub fn new(a: &CsrMatrix<f64>) -> Self {
        let scale = inv_sqrt_diag_scale(a);
        let matrix = a.scale_rows_cols(&scale, &scale);
        Self { matrix, scale }
    }

    /// Transform a right-hand side of the original system into the scaled
    /// system: `b̂ = D^{-1/2} b`.
    #[must_use]
    pub fn scale_rhs(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.scale.len(), "rhs length mismatch");
        b.iter().zip(self.scale.iter()).map(|(&bi, &s)| bi * s).collect()
    }

    /// Map a solution of the scaled system back to the original variables:
    /// `x = D^{-1/2} x̂`.
    #[must_use]
    pub fn unscale_solution(&self, x_hat: &[f64]) -> Vec<f64> {
        assert_eq!(x_hat.len(), self.scale.len(), "solution length mismatch");
        x_hat
            .iter()
            .zip(self.scale.iter())
            .map(|(&xi, &s)| xi * s)
            .collect()
    }
}

/// Convenience helper: symmetric Jacobi scaling returning only the scaled
/// matrix (the form used when the right-hand side is generated directly for
/// the scaled system, as in the paper's experiments).
#[must_use]
pub fn jacobi_scale<T: Scalar>(a: &CsrMatrix<T>) -> CsrMatrix<T> {
    let scale = inv_sqrt_diag_scale(a);
    a.scale_rows_cols(&scale, &scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::laplacian::poisson2d_5pt;
    use crate::spmv::spmv;

    #[test]
    fn scaled_matrix_has_unit_diagonal() {
        let a = poisson2d_5pt(8, 8);
        let s = ScaledSystem::new(&a);
        for i in 0..a.n_rows() {
            assert!((s.matrix.get(i, i).unwrap() - 1.0).abs() < 1e-12);
        }
        assert!(s.matrix.is_symmetric(1e-12));
    }

    #[test]
    fn solution_mapping_is_consistent() {
        // If x solves A x = b then x̂ = D^{1/2} x solves the scaled system with
        // b̂ = D^{-1/2} b; unscale_solution(x̂) must recover x.
        let a = poisson2d_5pt(6, 6);
        let n = a.n_rows();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let mut b = vec![0.0; n];
        spmv(&a, &x_true, &mut b);

        let s = ScaledSystem::new(&a);
        let b_hat = s.scale_rhs(&b);
        // x̂ = D^{1/2} x  (scale is D^{-1/2}, so divide)
        let x_hat: Vec<f64> = x_true
            .iter()
            .zip(s.scale.iter())
            .map(|(&x, &d)| x / d)
            .collect();
        let mut ax_hat = vec![0.0; n];
        spmv(&s.matrix, &x_hat, &mut ax_hat);
        for i in 0..n {
            assert!((ax_hat[i] - b_hat[i]).abs() < 1e-10);
        }
        let recovered = s.unscale_solution(&x_hat);
        for i in 0..n {
            assert!((recovered[i] - x_true[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn jacobi_scale_shrinks_dynamic_range_into_fp16() {
        // A matrix with a huge diagonal would overflow fp16 storage; after
        // scaling, every entry is O(1).
        let mut a = poisson2d_5pt(8, 8);
        a.scale_diagonal(1.0e6);
        assert!(a.max_abs() > 65504.0);
        let scaled = jacobi_scale(&a);
        assert!(scaled.max_abs() <= 1.0 + 1e-12);
    }

    #[test]
    fn jacobi_scale_and_scaled_system_share_the_scale_computation() {
        let mut a = poisson2d_5pt(5, 5);
        a.scale_diagonal(3.7);
        let s = ScaledSystem::new(&a);
        assert_eq!(s.scale, inv_sqrt_diag_scale(&a));
        assert_eq!(jacobi_scale(&a), s.matrix);
    }

    #[test]
    fn zero_diagonal_rows_keep_unit_scale() {
        use crate::coo::CooMatrix;
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 3.0);
        coo.push(1, 0, 2.0);
        coo.push(1, 1, 4.0);
        let a = coo.to_csr();
        let s = ScaledSystem::new(&a);
        assert_eq!(s.scale[0], 1.0);
        assert!((s.scale[1] - 0.5).abs() < 1e-14);
    }

    #[test]
    fn pow2_amplitude_convention() {
        assert_eq!(pow2_amplitude(0.0), 0.0);
        assert_eq!(pow2_amplitude(1.0), 1.0);
        assert_eq!(pow2_amplitude(1.5), 2.0);
        assert_eq!(pow2_amplitude(4.0), 4.0);
        assert_eq!(pow2_amplitude(1.0e-12), 2.0f64.powi(-39));
        assert!(pow2_amplitude(f64::INFINITY).is_infinite());
        // Top edge: amplitudes beyond 2^1023 clamp to the largest finite
        // power of two instead of overflowing the scale to +inf.
        assert_eq!(pow2_amplitude(1.0e308), 2.0f64.powi(1023));
        assert_eq!(pow2_amplitude(f64::MAX), 2.0f64.powi(1023));
    }

    #[test]
    fn pow2_row_scales_bound_each_row() {
        use crate::coo::CooMatrix;
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 3.0e8);
        coo.push(0, 1, -1.0);
        coo.push(1, 1, 1.0e-11);
        // row 2 left empty
        let a = coo.to_csr();
        let s = pow2_row_scales(&a);
        assert_eq!(s.len(), 3);
        for (row, &si) in s.iter().enumerate() {
            let (_, vals) = a.row_entries(row);
            for v in vals {
                assert!((v / si).abs() <= 1.0, "row {row}");
            }
            assert_eq!(si.log2().fract(), 0.0, "row {row} scale is a power of two");
        }
        assert_eq!(s[2], 1.0, "empty rows keep a unit scale");
    }
}
