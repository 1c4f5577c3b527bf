//! The [`Preconditioner`] trait and shared helpers.
//!
//! A preconditioner in this workspace is the paper's *primary preconditioner*
//! `M`: a fixed linear operator approximating `A⁻¹` that is applied as
//! `z = M r` at every innermost preconditioning step.  Preconditioners are
//! constructed in fp64 and stored/applied in an arbitrary working precision
//! `T` (Section 5: "we first construct it in fp64 and then cast its values to
//! fp32 or fp16").

use f3r_precision::{Precision, Scalar};

/// A fixed preconditioning operator `z = M r` in working precision `T`.
pub trait Preconditioner<T: Scalar>: Send + Sync {
    /// Apply the preconditioner: `z ← M r`.
    ///
    /// Implementations may use `z` as scratch; its incoming contents are
    /// ignored.
    fn apply(&self, r: &[T], z: &mut [T]);

    /// Apply the preconditioner to every column of a column-major panel of
    /// `k` right-hand sides (column `c` is `r[c * dim() .. (c + 1) * dim()]`).
    ///
    /// Every column of the result is bitwise [`apply`](Self::apply) on that
    /// column; the default is that column loop.  IC(0), ILU(0) and their
    /// block-Jacobi wrappers override it with panel sweeps that walk the
    /// factor once for eight columns (see the [crate docs](crate#panels)).
    ///
    /// # Panics
    /// Panics if the panels are not `k * dim()` elements long.
    fn apply_panel(&self, r: &[T], z: &mut [T], k: usize) {
        let n = self.dim();
        assert_eq!(r.len(), n * k, "apply_panel: panel length mismatch");
        assert_eq!(z.len(), n * k, "apply_panel: panel length mismatch");
        if n == 0 {
            return;
        }
        for (rc, zc) in r.chunks_exact(n).zip(z.chunks_exact_mut(n)) {
            self.apply(rc, zc);
        }
    }

    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;

    /// Number of stored nonzero coefficients (used by the traffic model).
    fn nnz(&self) -> usize;

    /// Human-readable name (e.g. `"block-Jacobi ILU(0) x16"`).
    fn name(&self) -> String;

    /// Precision in which the coefficients are stored.
    fn value_precision(&self) -> Precision {
        T::PRECISION
    }

    /// Number of SpMV-equivalent sparse sweeps performed per application
    /// (2 for ILU(0) forward+backward, 2 for the SD-AINV style inverse,
    /// 0 for Jacobi).  Used by the modeled-traffic reports.
    fn sweeps_per_apply(&self) -> usize {
        2
    }

    /// Resident bytes of the stored factors — the summed sizes of the arrays
    /// the implementation holds — priced like the matrix store's accounting so
    /// cache eviction can weigh preconditioners against matrix variants.
    fn storage_bytes(&self) -> u64;
}

/// The identity "preconditioner" `M = I`, useful as a baseline and in tests.
#[derive(Debug, Clone)]
pub struct IdentityPrecond {
    n: usize,
}

impl IdentityPrecond {
    /// Create an identity preconditioner of dimension `n`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self { n }
    }
}

impl<T: Scalar> Preconditioner<T> for IdentityPrecond {
    fn apply(&self, r: &[T], z: &mut [T]) {
        assert_eq!(r.len(), self.n, "identity precond: length mismatch");
        assert_eq!(z.len(), self.n, "identity precond: length mismatch");
        z.copy_from_slice(r);
    }

    fn dim(&self) -> usize {
        self.n
    }

    fn nnz(&self) -> usize {
        0
    }

    fn name(&self) -> String {
        "identity".to_string()
    }

    fn sweeps_per_apply(&self) -> usize {
        0
    }

    fn storage_bytes(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use half::f16;

    #[test]
    fn identity_copies_input() {
        let p = IdentityPrecond::new(3);
        let r = vec![1.0f64, -2.0, 3.0];
        let mut z = vec![0.0f64; 3];
        Preconditioner::<f64>::apply(&p, &r, &mut z);
        assert_eq!(z, r);
        assert_eq!(Preconditioner::<f64>::dim(&p), 3);
        assert_eq!(Preconditioner::<f64>::nnz(&p), 0);
        assert_eq!(Preconditioner::<f64>::sweeps_per_apply(&p), 0);
    }

    #[test]
    fn identity_works_in_half_precision() {
        let p = IdentityPrecond::new(2);
        let r = vec![f16::from_f32(0.5), f16::from_f32(-1.25)];
        let mut z = vec![f16::from_f32(0.0); 2];
        Preconditioner::<f16>::apply(&p, &r, &mut z);
        assert_eq!(z, r);
        assert_eq!(Preconditioner::<f16>::value_precision(&p), f3r_precision::Precision::Fp16);
    }
}
