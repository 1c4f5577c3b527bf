//! Memory-access (traffic) model from Section 4.1 of the paper.
//!
//! The paper motivates the structure of F3R with a rough model of the amount
//! of memory accessed per row (per `n`) by a preconditioned FGMRES cycle and
//! by a Richardson sweep:
//!
//! ```text
//! O(F^m, M)  = cA*m + cM*m + (5/2)*m^2                       (Eq. 1a)
//! O(R^m, M)  = cA*(m-1) + cM*m + 4*(m-1)                     (Eq. 1b)
//! O(F^m̄, F^m̿, M) = cA*m̄ + O(F^m̿,M)*m̄ + (5/2)*m̄^2            (Eq. 2)
//! O(F^m̄, R^m̿, M) = cA*m̄ + O(R^m̿,M)*m̄ + (5/2)*m̄^2            (Eq. 3)
//! ```
//!
//! where `cA` and `cM` are the per-row storage costs (in 8-byte words) of the
//! coefficient matrix and the primary preconditioner.  This module provides
//! the model both in the paper's "word count" form (for reproducing the
//! worked example `cA = 45`, `m = 64`) and in a byte-exact form parameterised
//! by [`Precision`], which the experiment harness uses for its modeled-traffic
//! columns.

use crate::scalar::Precision;

/// Per-row storage cost of a sparse operator, in *double-precision-equivalent
/// words per row* (the unit the paper uses for `cA` and `cM`).
///
/// For a CSR matrix with `nnz_per_row` nonzeros stored with `value` precision
/// values and 32-bit integer column indices, the cost is
/// `nnz_per_row * (value_bytes + 4) / 8`.
#[must_use]
pub fn words_per_row(nnz_per_row: f64, value: Precision) -> f64 {
    nnz_per_row * (value.bytes() as f64 + 4.0) / 8.0
}

/// Memory-access model of one invocation of `(F^m, M)` (Eq. 1, first line),
/// in words per row.
#[must_use]
pub fn fgmres_traffic(c_a: f64, c_m: f64, m: f64) -> f64 {
    c_a * m + c_m * m + 2.5 * m * m
}

/// Memory-access model of one invocation of `(R^m, M)` (Eq. 1, second line),
/// in words per row.  Assumes a zero initial guess, so the first residual is
/// free (`r0 = v`).
#[must_use]
pub fn richardson_traffic(c_a: f64, c_m: f64, m: f64) -> f64 {
    c_a * (m - 1.0) + c_m * m + 4.0 * (m - 1.0)
}

/// Memory-access model of the two-level nested FGMRES `(F^m̄, F^m̿, M)`
/// (Eq. 2), in words per row.
#[must_use]
pub fn nested_fgmres_fgmres_traffic(c_a: f64, c_m: f64, m_outer: f64, m_inner: f64) -> f64 {
    c_a * m_outer + fgmres_traffic(c_a, c_m, m_inner) * m_outer + 2.5 * m_outer * m_outer
}

/// Memory-access model of FGMRES preconditioned by Richardson
/// `(F^m̄, R^m̿, M)` (Eq. 3), in words per row.
#[must_use]
pub fn nested_fgmres_richardson_traffic(c_a: f64, c_m: f64, m_outer: f64, m_inner: f64) -> f64 {
    c_a * m_outer + richardson_traffic(c_a, c_m, m_inner) * m_outer + 2.5 * m_outer * m_outer
}

/// Kernel-level byte-traffic estimates used by the instrumented solvers.
///
/// These are lower-bound "every operand streams from memory once" estimates,
/// the same level of abstraction as the paper's model (no cache model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficModel;

impl TrafficModel {
    /// Bytes of the *matrix stream* of one SpMV: values in precision `a`,
    /// 32-bit column indices and the (n+1) 32-bit row pointers.
    ///
    /// This is the portion of [`spmv_bytes`](Self::spmv_bytes) attributable
    /// to the stored matrix itself — the traffic that shrinks when the matrix
    /// storage precision drops, and the quantity
    /// `KernelCounters::record_matrix_traffic` attributes per storage
    /// precision (parallel to the basis-traffic attribution).
    #[must_use]
    pub fn matrix_stream_bytes(nnz: usize, n: usize, a: Precision) -> u64 {
        (nnz as u64) * (a.bytes() as u64 + 4) + 4 * (n as u64 + 1)
    }

    /// [`matrix_stream_bytes`](Self::matrix_stream_bytes) for *scaled*
    /// matrix storage, which additionally streams one `f64` amplitude scale
    /// per row.
    #[must_use]
    pub fn scaled_matrix_stream_bytes(nnz: usize, n: usize, a: Precision) -> u64 {
        Self::matrix_stream_bytes(nnz, n, a) + 8 * n as u64
    }

    /// Bytes moved by one CSR SpMV `y = A x` with `nnz` stored nonzeros,
    /// `n` rows, matrix values in `a`, and vectors in `v`.
    ///
    /// Counts: matrix values + 32-bit column indices + (n+1) 32-bit row
    /// pointers + read of `x` + write of `y`.
    #[must_use]
    pub fn spmv_bytes(nnz: usize, n: usize, a: Precision, v: Precision) -> u64 {
        Self::matrix_stream_bytes(nnz, n, a) + (n as u64) * 2 * v.bytes() as u64
    }

    /// Bytes moved by one SpMV against *scaled* matrix storage: like
    /// [`spmv_bytes`](Self::spmv_bytes) plus the per-row `f64` scale stream.
    #[must_use]
    pub fn spmv_scaled_bytes(nnz: usize, n: usize, a: Precision, v: Precision) -> u64 {
        Self::spmv_bytes(nnz, n, a, v) + 8 * n as u64
    }

    /// Bytes moved by a BLAS-1 kernel touching `reads` input vectors and
    /// `writes` output vectors of length `n` in precision `v`.
    #[must_use]
    pub fn blas1_bytes(n: usize, reads: usize, writes: usize, v: Precision) -> u64 {
        (n as u64) * (reads + writes) as u64 * v.bytes() as u64
    }

    /// Bytes moved by one CSR SpMM `Y = A X` over a `k`-column panel: the
    /// matrix stream is paid **once** (the point of the batched kernels)
    /// while the vector read/write traffic scales with the panel width.
    ///
    /// `spmm_bytes(nnz, n, a, v, 1) == spmv_bytes(nnz, n, a, v)`, and the
    /// per-RHS matrix traffic of a k-wide panel is `1/k` of the
    /// single-vector kernel's — the amortization the batched solver's
    /// counters measure.
    #[must_use]
    pub fn spmm_bytes(nnz: usize, n: usize, a: Precision, v: Precision, k: usize) -> u64 {
        Self::matrix_stream_bytes(nnz, n, a) + (n as u64) * 2 * (k as u64) * v.bytes() as u64
    }

    /// [`spmm_bytes`](Self::spmm_bytes) for *scaled* matrix storage, which
    /// additionally streams one `f64` amplitude scale per row (once per
    /// panel, like the rest of the matrix stream).
    #[must_use]
    pub fn spmm_scaled_bytes(nnz: usize, n: usize, a: Precision, v: Precision, k: usize) -> u64 {
        Self::spmm_bytes(nnz, n, a, v, k) + 8 * n as u64
    }

    /// Bytes moved through stored basis vectors by one panel sweep touching
    /// `vectors` basis vectors *per column* across a `k`-column panel (the
    /// batched twin of [`basis_bytes`](Self::basis_bytes)).
    ///
    /// Unlike the matrix stream, basis vectors are **per-column state** — a
    /// batch of k recurrences stores k distinct bases — so this traffic
    /// scales linearly with the panel width rather than amortizing.
    #[must_use]
    pub fn batched_basis_bytes(n: usize, vectors: usize, k: usize, s: Precision) -> u64 {
        Self::basis_bytes(n, vectors, s) * k as u64
    }

    /// Bytes moved through stored Krylov/flexible basis vectors by one sweep
    /// touching `vectors` basis vectors of length `n` held in storage
    /// precision `s`.
    ///
    /// Basis vectors may be stored in a lower precision than the level's
    /// working precision (compressed-basis storage with one amplitude scale
    /// per vector); this helper prices a sweep at the *storage* width, which
    /// is exactly the traffic the compression saves.  The per-vector `f64`
    /// scale is a scalar and is not counted.
    #[must_use]
    pub fn basis_bytes(n: usize, vectors: usize, s: Precision) -> u64 {
        (n as u64) * (vectors as u64) * s.bytes() as u64
    }

    /// Bytes moved by one application of a triangular-solve style
    /// preconditioner (e.g. ILU(0)) with `nnz` stored nonzeros (values stored
    /// in precision `m`) to a panel of `k` right-hand sides of length `n` in
    /// precision `v`: the forward and backward sweeps read the factors
    /// **once** for the panel, the vector traffic scales with its width.
    #[must_use]
    pub fn sparse_precond_panel_bytes(nnz: usize, n: usize, m: Precision, v: Precision, k: usize) -> u64 {
        (nnz as u64) * (m.bytes() as u64 + 4)
            + 4 * (n as u64 + 1)
            + (n as u64) * 3 * (k as u64) * v.bytes() as u64
    }
}

/// Result of the Eq. 2 worked example in Section 4.1: given `cA` and `m`,
/// find the inner/outer split minimising the two-level nested traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestSplit {
    /// Outer iteration count `m̄`.
    pub m_outer: usize,
    /// Inner iteration count `m̿ = m / m̄` (real-valued in the paper's model).
    pub m_inner: f64,
    /// Modeled traffic of the nested solver at this split (words/row).
    pub nested_traffic: f64,
    /// Modeled traffic of the reference single-level FGMRES (words/row).
    pub reference_traffic: f64,
}

/// Sweep all integer outer counts `m̄ ∈ [1, m]` (keeping `m̄ · m̿ = m`) and
/// return the split with minimum modeled traffic, reproducing the worked
/// example of Section 4.1 (`cA = 45`, `m = 64` → `m̄ = 10`).
#[must_use]
pub fn best_two_level_split(c_a: f64, c_m: f64, m: usize) -> BestSplit {
    let reference = fgmres_traffic(c_a, c_m, m as f64);
    let mut best = BestSplit {
        m_outer: 1,
        m_inner: m as f64,
        nested_traffic: f64::INFINITY,
        reference_traffic: reference,
    };
    for m_outer in 1..=m {
        let m_inner = m as f64 / m_outer as f64;
        let t = nested_fgmres_fgmres_traffic(c_a, c_m, m_outer as f64, m_inner);
        if t < best.nested_traffic {
            best = BestSplit {
                m_outer,
                m_inner,
                nested_traffic: t,
                reference_traffic: reference,
            };
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    const CA: f64 = 45.0; // 30 nnz/row, fp64 values + 32-bit indices (paper's example)
    const CM: f64 = 45.0;

    #[test]
    fn eq2_expands_to_reference_plus_overhead() {
        // Eq. 2: O(F^m̄,F^m̿,M) = O(F^m,M) + cA*m̄ + 2.5*m̿^2*m̄ + 2.5*m̄^2 - 2.5*m^2
        let (m_outer, m_inner) = (8.0, 8.0);
        let m = m_outer * m_inner;
        let lhs = nested_fgmres_fgmres_traffic(CA, CM, m_outer, m_inner);
        let rhs = fgmres_traffic(CA, CM, m) + CA * m_outer + 2.5 * m_inner * m_inner * m_outer
            + 2.5 * m_outer * m_outer
            - 2.5 * m * m;
        assert!((lhs - rhs).abs() < 1e-9);
    }

    #[test]
    fn eq3_expands_to_reference_plus_overhead() {
        // Eq. 3: O(F^m̄,R^m̿,M) = O(F^m,M) + 4*(m̿-1)*m̄ + 2.5*m̄^2 - 2.5*m^2
        let (m_outer, m_inner) = (4.0, 2.0);
        let m = m_outer * m_inner;
        let lhs = nested_fgmres_richardson_traffic(CA, CM, m_outer, m_inner);
        let rhs = fgmres_traffic(CA, CM, m) + 4.0 * (m_inner - 1.0) * m_outer
            + 2.5 * m_outer * m_outer
            - 2.5 * m * m;
        assert!((lhs - rhs).abs() < 1e-9);
    }

    #[test]
    fn paper_worked_example_ca45_m64_best_split_is_10() {
        // Section 4.1: "assuming cA = 45 and m = 64 ... m̄ = 10 results in the
        // least amount, though 10 is not a divisor of 64."
        let best = best_two_level_split(CA, CM, 64);
        assert_eq!(best.m_outer, 10);
        assert!(best.nested_traffic < best.reference_traffic);
    }

    #[test]
    fn nesting_helps_for_large_m_hurts_for_small_m() {
        // Large m: splitting reduces traffic.
        assert!(
            nested_fgmres_fgmres_traffic(CA, CM, 8.0, 8.0) < fgmres_traffic(CA, CM, 64.0)
        );
        // Small m: splitting FGMRES into FGMRES/FGMRES increases traffic...
        assert!(nested_fgmres_fgmres_traffic(CA, CM, 4.0, 2.0) > fgmres_traffic(CA, CM, 8.0));
        // ...but replacing the inner FGMRES by Richardson reduces it (m >= 3).
        assert!(
            nested_fgmres_richardson_traffic(CA, CM, 4.0, 2.0) < fgmres_traffic(CA, CM, 8.0)
        );
    }

    #[test]
    fn richardson_cheaper_than_fgmres_per_sweep() {
        for m in 2..10 {
            assert!(richardson_traffic(CA, CM, m as f64) < fgmres_traffic(CA, CM, m as f64));
        }
    }

    #[test]
    fn words_per_row_matches_paper_example() {
        // 30 nonzeros per row, fp64 values + 32-bit indices => cA = 45.
        assert_eq!(words_per_row(30.0, Precision::Fp64), 45.0);
        // fp16 values: (2+4)/8 * 30 = 22.5 words.
        assert_eq!(words_per_row(30.0, Precision::Fp16), 22.5);
    }

    #[test]
    fn basis_bytes_scale_with_storage_precision() {
        // fp16 basis storage moves a quarter of the bytes of fp64 storage.
        let b64 = TrafficModel::basis_bytes(1000, 30, Precision::Fp64);
        let b16 = TrafficModel::basis_bytes(1000, 30, Precision::Fp16);
        assert_eq!(b64, 1000 * 30 * 8);
        assert_eq!(b16 * 4, b64);
    }

    #[test]
    fn matrix_stream_bytes_decompose_spmv_bytes() {
        let (nnz, n) = (1000, 100);
        for &a in &[Precision::Fp16, Precision::Fp32, Precision::Fp64] {
            let mat = TrafficModel::matrix_stream_bytes(nnz, n, a);
            assert_eq!(mat, (nnz as u64) * (a.bytes() as u64 + 4) + 4 * (n as u64 + 1));
            assert_eq!(
                TrafficModel::spmv_bytes(nnz, n, a, Precision::Fp64),
                mat + (n as u64) * 16
            );
            // Scaled storage adds exactly the 8-byte-per-row scale stream.
            assert_eq!(
                TrafficModel::scaled_matrix_stream_bytes(nnz, n, a),
                mat + 8 * n as u64
            );
            assert_eq!(
                TrafficModel::spmv_scaled_bytes(nnz, n, a, Precision::Fp32),
                TrafficModel::spmv_bytes(nnz, n, a, Precision::Fp32) + 8 * n as u64
            );
        }
    }

    #[test]
    fn spmv_bytes_scales_with_precision() {
        let b64 = TrafficModel::spmv_bytes(1000, 100, Precision::Fp64, Precision::Fp64);
        let b16 = TrafficModel::spmv_bytes(1000, 100, Precision::Fp16, Precision::Fp16);
        assert!(b16 < b64);
        assert_eq!(
            TrafficModel::blas1_bytes(100, 2, 1, Precision::Fp32),
            100 * 3 * 4
        );
    }

    #[test]
    fn spmm_bytes_amortize_the_matrix_stream() {
        let (nnz, n) = (1000, 100);
        let (a, v) = (Precision::Fp16, Precision::Fp32);
        // k = 1 degenerates to the single-vector kernel.
        assert_eq!(
            TrafficModel::spmm_bytes(nnz, n, a, v, 1),
            TrafficModel::spmv_bytes(nnz, n, a, v)
        );
        // A k-wide panel pays the matrix stream once plus k vector sweeps,
        // so per-RHS traffic decays toward 2·n·v.bytes() as k grows.
        let k = 8;
        assert_eq!(
            TrafficModel::spmm_bytes(nnz, n, a, v, k),
            TrafficModel::matrix_stream_bytes(nnz, n, a) + (n as u64) * 2 * 8 * 4
        );
        assert!(
            TrafficModel::spmm_bytes(nnz, n, a, v, k)
                < TrafficModel::spmv_bytes(nnz, n, a, v) * k as u64
        );
        assert_eq!(
            TrafficModel::spmm_scaled_bytes(nnz, n, a, v, k),
            TrafficModel::spmm_bytes(nnz, n, a, v, k) + 8 * n as u64
        );
        // Basis traffic is per-column state: no amortization.
        assert_eq!(
            TrafficModel::batched_basis_bytes(n, 30, k, Precision::Fp16),
            TrafficModel::basis_bytes(n, 30, Precision::Fp16) * k as u64
        );
    }
}
