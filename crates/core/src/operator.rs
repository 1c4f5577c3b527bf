//! The demand-driven multi-precision coefficient-matrix store shared by all
//! solver levels.
//!
//! F3R consumes the coefficient matrix `A` in up to three precisions at once
//! (Table 1: fp64 for the outermost FGMRES, fp32 for `F^m2`, fp16 for `F^m3`
//! and the Richardson part).  [`ProblemMatrix`] is a **lazy variant table**
//! keyed by [`MatrixStorage`]: the fp64 CSR base is the only copy built up
//! front, and every other variant — one [`f3r_sparse::StoredMatrix`] in the
//! layout the store's [`SpmvBackend`] fixes — is materialized behind a
//! `OnceLock` the first time a level applies it.  `PreparedSolver` setup
//! faults in exactly the variants its validated spec names, and anything
//! else (a per-solve override, a diagnostic) can still fault in later.
//!
//! Besides the plain precision copies, the table holds **scaled** variants
//! ([`f3r_sparse::StoredMatrix::row_scaled`]): row-normalised values with one
//! power-of-two `f64` amplitude scale per row, mirroring the compressed
//! Krylov basis convention.  Scaled fp16 storage survives any entry dynamic
//! range, where an unscaled fp16 copy of a general Matrix Market input
//! silently overflows to ±∞ (see [`f3r_sparse::EntryRangeStats`]).  fp64
//! storage holds the source values verbatim, so `Scaled(Fp64)` *is*
//! `Plain(Fp64)`: one slot, one stream, counted as what it is.
//!
//! Every product records its traffic in the shared [`KernelCounters`],
//! including the per-storage-precision matrix-stream attribution
//! ([`KernelCounters::record_matrix_traffic`]).

use std::fmt;
use std::sync::{Arc, OnceLock};

use f3r_precision::{f16, KernelCounters, Precision, Scalar};
use f3r_precision::traffic::TrafficModel;
use f3r_sparse::blas1;
use f3r_sparse::spmm::{spmm, Dispatch, PanelOp};
use f3r_sparse::{CsrMatrix, SellMatrix, StoredMatrix};

/// Which sparse matrix–vector kernel the solvers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[derive(Default)]
pub enum SpmvBackend {
    /// Compressed sparse row (the paper's CPU-node configuration).
    #[default]
    Csr,
    /// Sliced ELLPACK with the given chunk size (the paper's GPU-node
    /// configuration uses a chunk of 32).
    Sell {
        /// Rows per slice.
        chunk: usize,
    },
}

/// How a solver level stores (and streams) the coefficient matrix: the
/// storage *precision* plus whether the values are kept under per-row
/// power-of-two amplitude scales.
///
/// This is the matrix-side sibling of the basis storage precision axis:
/// `Plain(p)` is the classic direct conversion of every entry into `p`
/// (identical to the historical precision copies), `Scaled(p)` stores
/// row-normalised values (`|stored| ≤ 1`) plus one `f64` scale per row —
/// bit-lossless when `p` is fp64, and robust to any entry dynamic range when
/// `p` is narrower.  Validation rejects storage wider than a level's working
/// precision, exactly like the basis axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatrixStorage {
    /// Directly converted values in the given precision (unscaled).
    Plain(Precision),
    /// Row-scaled values in the given precision plus per-row `f64`
    /// power-of-two amplitude scales.
    Scaled(Precision),
}

impl MatrixStorage {
    /// The precision the matrix values are stored in.
    #[must_use]
    pub fn precision(self) -> Precision {
        match self {
            MatrixStorage::Plain(p) | MatrixStorage::Scaled(p) => p,
        }
    }

    /// Whether the values are kept under per-row amplitude scales.
    #[must_use]
    pub fn is_scaled(self) -> bool {
        matches!(self, MatrixStorage::Scaled(_))
    }

    /// The storage a request for `self` streams: fp64 storage keeps the
    /// source values verbatim, so a scaled fp64 request is the plain variant.
    fn streamed(self) -> MatrixStorage {
        match self {
            MatrixStorage::Scaled(Precision::Fp64) => MatrixStorage::Plain(Precision::Fp64),
            other => other,
        }
    }
}

impl fmt::Display for MatrixStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixStorage::Plain(p) => write!(f, "{p}"),
            MatrixStorage::Scaled(p) => write!(f, "scaled-{p}"),
        }
    }
}

/// The sparse layout of one stored matrix variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatrixFormat {
    /// Compressed sparse row.
    Csr,
    /// Sliced ELLPACK (the chunk size is fixed per [`ProblemMatrix`] by its
    /// [`SpmvBackend`]).
    Sell,
}

impl fmt::Display for MatrixFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixFormat::Csr => f.write_str("csr"),
            MatrixFormat::Sell => f.write_str("sell"),
        }
    }
}

/// One materialized matrix variant, reported by
/// [`ProblemMatrix::materialized_variants`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VariantInfo {
    /// The storage configuration of the variant.
    pub storage: MatrixStorage,
    /// The sparse layout of the variant.
    pub format: MatrixFormat,
    /// Bytes held by the variant (values + indices + bookkeeping + row
    /// scales for scaled storage).
    pub bytes: u64,
}

/// One entry of the lazy variant table, by the precision its values are
/// stored in.
enum MatrixVariant {
    F64(StoredMatrix<f64>),
    F32(StoredMatrix<f32>),
    F16(StoredMatrix<f16>),
}

/// Run one expression on the [`StoredMatrix`] behind a [`MatrixVariant`],
/// written once, generically over the value precision.
macro_rules! with_variant {
    ($variant:expr, |$m:ident| $body:expr) => {
        match $variant {
            MatrixVariant::F64($m) => $body,
            MatrixVariant::F32($m) => $body,
            MatrixVariant::F16($m) => $body,
        }
    };
}

/// The storages with a slot of their own beside the fp64 CSR base, in slot
/// order.  The fp64 slot is used by SELL stores only: a CSR store streams its
/// base.
const VARIANT_SLOTS: [MatrixStorage; 5] = [
    MatrixStorage::Plain(Precision::Fp64),
    MatrixStorage::Plain(Precision::Fp32),
    MatrixStorage::Plain(Precision::Fp16),
    MatrixStorage::Scaled(Precision::Fp32),
    MatrixStorage::Scaled(Precision::Fp16),
];

fn slot(storage: MatrixStorage) -> usize {
    let streamed = storage.streamed();
    VARIANT_SLOTS
        .iter()
        .position(|&s| s == streamed)
        .expect("every streamed storage has a slot")
}

/// Demand-driven multi-precision/multi-format store of the coefficient
/// matrix plus the SpMV backend.
///
/// The fp64 CSR base (used by result verification, the baselines and
/// preconditioner construction) is always materialized; every other variant
/// is built on first use — see the [module docs](self).
pub struct ProblemMatrix {
    base: Arc<CsrMatrix<f64>>,
    variants: [OnceLock<MatrixVariant>; VARIANT_SLOTS.len()],
    backend: SpmvBackend,
    n: usize,
    nnz: usize,
    /// Lazily computed content hash (see [`content_hash`](Self::content_hash));
    /// every narrower variant is derived from the base, so hashing the base
    /// plus the backend identifies the whole store.
    content_hash: OnceLock<u64>,
}

impl ProblemMatrix {
    /// Wrap `a` as the store's fp64 base for the given backend.  No other
    /// precision or format variant is built here; they materialize on first
    /// use (or through [`materialize`](Self::materialize) at solver setup).
    ///
    /// # Panics
    /// Panics if `a` is not square.
    #[must_use]
    pub fn new(a: CsrMatrix<f64>, backend: SpmvBackend) -> Self {
        assert!(a.is_square(), "solvers require a square matrix");
        let n = a.n_rows();
        let nnz = a.nnz();
        let base = Arc::new(a);
        Self {
            base,
            variants: Default::default(),
            backend,
            n,
            nnz,
            content_hash: OnceLock::new(),
        }
    }

    /// Convenience constructor for the CSR backend.
    #[must_use]
    pub fn from_csr(a: CsrMatrix<f64>) -> Self {
        Self::new(a, SpmvBackend::Csr)
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored nonzeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The configured SpMV backend.
    #[must_use]
    pub fn backend(&self) -> SpmvBackend {
        self.backend
    }

    /// The fp64 CSR base (used by result verification, the baselines and
    /// preconditioner construction).
    #[must_use]
    pub fn csr_f64(&self) -> &Arc<CsrMatrix<f64>> {
        &self.base
    }

    /// Stable 64-bit content hash of the store: dimensions, row pointers,
    /// column indices and the exact value bits of the fp64 CSR base, plus
    /// the SpMV backend (which fixes the streamed format and therefore the
    /// floating-point summation order).  Computed on first use and cached —
    /// the base is immutable behind the `Arc`, so the hash never goes stale.
    ///
    /// This is the matrix half of
    /// [`solver_fingerprint`](crate::fingerprint::solver_fingerprint); the
    /// serving layer keys its prepared-solver cache on it.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        *self.content_hash.get_or_init(|| {
            let mut h = crate::fingerprint::Fnv64::new();
            h.write_usize(self.base.n_rows());
            h.write_usize(self.base.n_cols());
            for &p in self.base.row_ptr() {
                h.write_usize(p);
            }
            for &c in self.base.col_idx() {
                h.write_u64(u64::from(c));
            }
            for &v in self.base.values() {
                h.write_f64(v);
            }
            crate::fingerprint::write_backend(&mut h, self.backend);
            h.finish()
        })
    }

    /// The sparse layout the backend fixes for every variant it builds.
    fn format(&self) -> MatrixFormat {
        match self.backend {
            SpmvBackend::Csr => MatrixFormat::Csr,
            SpmvBackend::Sell { .. } => MatrixFormat::Sell,
        }
    }

    /// Whether `storage` streams the fp64 CSR base itself, which needs no
    /// slot: fp64 storage on a CSR store.
    fn is_base(&self, storage: MatrixStorage) -> bool {
        storage.precision() == Precision::Fp64 && self.backend == SpmvBackend::Csr
    }

    /// Build (or fetch) the variant for `storage`; `None` when that is the
    /// base.
    fn variant(&self, storage: MatrixStorage) -> Option<&MatrixVariant> {
        (!self.is_base(storage)).then(|| {
            self.variants[slot(storage)].get_or_init(|| match storage.precision() {
                Precision::Fp64 => MatrixVariant::F64(self.stored(storage)),
                Precision::Fp32 => MatrixVariant::F32(self.stored(storage)),
                Precision::Fp16 => MatrixVariant::F16(self.stored(storage)),
            })
        })
    }

    /// The copy of the base a level with `storage` streams, values in `S`.
    fn stored<S: Scalar>(&self, storage: MatrixStorage) -> StoredMatrix<S> {
        let chunk = match self.backend {
            SpmvBackend::Csr => None,
            SpmvBackend::Sell { chunk } => Some(chunk),
        };
        if storage.is_scaled() {
            return StoredMatrix::row_scaled(&self.base, chunk);
        }
        let csr = self.base.to_precision::<S>();
        match chunk {
            None => csr.into(),
            // The narrowed CSR copy is a transient: only the SELL layout is
            // kept.
            Some(chunk) => SellMatrix::from_csr(&csr, chunk).into(),
        }
    }

    /// Eagerly materialize the variant a level with this storage would use
    /// (called by `PreparedSolver` setup for every level of a validated
    /// spec, so sessions never pay conversion cost mid-solve).
    pub fn materialize(&self, storage: MatrixStorage) {
        let _ = self.variant(storage);
    }

    /// Whether what a level with `storage` streams has been materialized
    /// (always, when that is the fp64 CSR base).
    #[must_use]
    pub fn is_materialized(&self, storage: MatrixStorage) -> bool {
        self.is_base(storage) || self.variants[slot(storage)].get().is_some()
    }

    /// Every materialized variant with its storage key and byte footprint —
    /// the store's accounting: the fp64 CSR base first, then the table.
    #[must_use]
    pub fn materialized_variants(&self) -> Vec<VariantInfo> {
        let base = VariantInfo {
            storage: MatrixStorage::Plain(Precision::Fp64),
            format: MatrixFormat::Csr,
            bytes: self.base.storage_bytes(),
        };
        let table = VARIANT_SLOTS.iter().zip(&self.variants).filter_map(|(&storage, v)| {
            let bytes = with_variant!(v.get()?, |m| m.storage_bytes());
            Some(VariantInfo { storage, format: self.format(), bytes })
        });
        std::iter::once(base).chain(table).collect()
    }

    /// Total bytes of *actually materialized* matrix storage: what the
    /// spec's level chain faulted in — a fresh matrix reports only the fp64
    /// base, and a solver whose levels use fp64+fp32 pays for no fp16 copy.
    #[must_use]
    pub fn storage_bytes(&self) -> u64 {
        self.materialized_variants().iter().map(|v| v.bytes).sum()
    }

    /// The one sparse product of the store: `out = A X`, `B − A X` or `A X`
    /// with its dots ([`PanelOp`]) on a column-major panel of `k` vectors,
    /// streaming the variant selected by `storage` once through
    /// [`f3r_sparse::spmm::spmm`], and recording the traffic in `counters`.
    ///
    /// One column is recorded as an SpMV, anything else as one SpMM on `k`
    /// columns: the shared matrix stream once (that is the physical truth and
    /// the whole point of batching) plus `k` vector sweeps.  The fused
    /// epilogues add what they touch beyond the product, per column: the
    /// residual reads `b` and writes `r`, the dots read `u`.
    fn product<TV: Scalar>(
        &self,
        storage: MatrixStorage,
        xs: &[TV],
        op: PanelOp<'_, TV>,
        out: &mut [TV],
        k: usize,
        counters: &KernelCounters,
    ) {
        let storage = storage.streamed();
        let (p, v) = (storage.precision(), TV::PRECISION);
        let (total, matrix_stream) = if storage.is_scaled() {
            (
                TrafficModel::spmm_scaled_bytes(self.nnz, self.n, p, v, k),
                TrafficModel::scaled_matrix_stream_bytes(self.nnz, self.n, p),
            )
        } else {
            (
                TrafficModel::spmm_bytes(self.nnz, self.n, p, v, k),
                TrafficModel::matrix_stream_bytes(self.nnz, self.n, p),
            )
        };
        if k == 1 {
            counters.record_spmv(p, total);
        } else {
            counters.record_spmm(p, total, k as u64);
        }
        counters.record_matrix_traffic(p, matrix_stream);
        let (reads, writes) = match op {
            PanelOp::Product => (0, 0),
            PanelOp::Residual(_) => (1, 1),
            PanelOp::Dot2 { .. } => (1, 0),
        };
        if reads > 0 {
            for _ in 0..k {
                counters.record_blas1(v, TrafficModel::blas1_bytes(self.n, reads, writes, v));
            }
        }
        match self.variant(storage) {
            None => spmm(self.base.as_ref(), xs, op, out, k, Dispatch::Auto),
            Some(variant) => with_variant!(variant, |m| spmm(m, xs, op, out, k, Dispatch::Auto)),
        }
    }

    /// Compute `y = A x` streaming the variant selected by `storage`, with
    /// vectors in precision `TV`, recording the product in `counters`.
    pub fn apply<TV: Scalar>(
        &self,
        storage: MatrixStorage,
        x: &[TV],
        y: &mut [TV],
        counters: &KernelCounters,
    ) {
        self.product(storage, x, PanelOp::Product, y, 1, counters);
    }

    /// Compute `Y = A X` on a column-major panel of `k` vectors, streaming
    /// the variant selected by `storage` **once** for the whole panel.
    ///
    /// Column `c` of the result is bitwise identical to
    /// [`apply`](Self::apply) on column `c` of `xs` — the batched solver's
    /// per-column parity rests on this (see [`f3r_sparse::spmm`] for how the
    /// driver keeps it).  The traffic is recorded as one matrix stream plus
    /// `k` vector sweeps; a one-column panel *is* [`apply`](Self::apply) and
    /// is counted as an SpMV, whichever caller brought it here.
    ///
    /// # Panics
    /// Panics if the panel lengths are not `k` times the matrix dimension.
    pub fn apply_multi<TV: Scalar>(
        &self,
        storage: MatrixStorage,
        xs: &[TV],
        ys: &mut [TV],
        k: usize,
        counters: &KernelCounters,
    ) {
        self.product(storage, xs, PanelOp::Product, ys, k, counters);
    }

    /// Compute the residuals `R = B − A X` of a column-major panel of `k`
    /// vectors in one pass over the variant selected by `storage`, the
    /// subtraction in the accumulator before the one rounding.
    ///
    /// Column `c` of the result is bitwise identical to
    /// [`residual`](Self::residual) on column `c`.  Recorded as one panel
    /// product plus the `b`/`r` sweeps (an SpMV at one column, like
    /// [`apply_multi`](Self::apply_multi)).
    ///
    /// # Panics
    /// Panics if the panel lengths are not `k` times the matrix dimension.
    pub fn residual_multi<TV: Scalar>(
        &self,
        storage: MatrixStorage,
        xs: &[TV],
        bs: &[TV],
        rs: &mut [TV],
        k: usize,
        counters: &KernelCounters,
    ) {
        self.product(storage, xs, PanelOp::Residual(bs), rs, k, counters);
    }

    /// Compute `y = A x` and, in the same sweep, the two dot products
    /// `(uᵀ y, yᵀ y)` — the reduction pair behind CG's `(p, Ap)`, BiCGStab's
    /// `(t, s)/(t, t)` and the adaptive Richardson weight
    /// ([`PanelOp::Dot2`]).
    pub fn apply_dot2<TV: Scalar>(
        &self,
        storage: MatrixStorage,
        x: &[TV],
        u: &[TV],
        y: &mut [TV],
        counters: &KernelCounters,
    ) -> (f64, f64) {
        let mut dots = [(0.0, 0.0)];
        self.product(storage, x, PanelOp::Dot2 { u, dots: &mut dots }, y, 1, counters);
        dots[0]
    }

    /// Compute the residual `r = b - A x` with the matrix variant selected by
    /// `storage` and vectors in `TV` ([`PanelOp::Residual`]: subtraction in
    /// the accumulation precision, one sweep).
    pub fn residual<TV: Scalar>(
        &self,
        storage: MatrixStorage,
        x: &[TV],
        b: &[TV],
        r: &mut [TV],
        counters: &KernelCounters,
    ) {
        self.product(storage, x, PanelOp::Residual(b), r, 1, counters);
    }

    /// True relative residual `‖b − A x‖₂ / ‖b‖₂`, always evaluated in fp64
    /// with the fp64 base copy (the paper's convergence criterion,
    /// Section 5).
    #[must_use]
    pub fn true_relative_residual(&self, x: &[f64], b: &[f64]) -> f64 {
        let mut r = vec![0.0f64; self.n];
        self.true_relative_residual_with(x, b, &mut r)
    }

    /// [`true_relative_residual`](Self::true_relative_residual) into a
    /// caller-provided scratch buffer `r` (overwritten with `b − A x`), so
    /// repeated convergence checks allocate nothing.
    ///
    /// # Panics
    /// Panics if `r` is not of the matrix dimension.
    #[must_use]
    pub fn true_relative_residual_with(&self, x: &[f64], b: &[f64], r: &mut [f64]) -> f64 {
        assert_eq!(r.len(), self.n, "residual scratch length mismatch");
        spmm(self.base.as_ref(), x, PanelOp::Residual(b), r, 1, Dispatch::Auto);
        let bnorm = blas1::norm2(b);
        if bnorm == 0.0 {
            blas1::norm2(r)
        } else {
            blas1::norm2(r) / bnorm
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f3r_sparse::gen::hpcg::hpcg_matrix;

    #[test]
    fn all_precision_copies_agree_on_easy_vectors() {
        let a = hpcg_matrix(4, 4, 4);
        let pm = ProblemMatrix::from_csr(a);
        let counters = KernelCounters::new_shared();
        let n = pm.dim();
        let x = vec![1.0f64; n];
        let mut y64 = vec![0.0f64; n];
        pm.apply(MatrixStorage::Plain(Precision::Fp64), &x, &mut y64, &counters);
        let x32 = vec![1.0f32; n];
        let mut y32 = vec![0.0f32; n];
        pm.apply(MatrixStorage::Plain(Precision::Fp32), &x32, &mut y32, &counters);
        let x16 = vec![f16::from_f32(1.0); n];
        let mut y16 = vec![f16::from_f32(0.0); n];
        pm.apply(MatrixStorage::Plain(Precision::Fp16), &x16, &mut y16, &counters);
        for i in 0..n {
            // integer-valued results are exact in every precision
            assert_eq!(y64[i], f64::from(y32[i]));
            assert_eq!(y64[i], y16[i].to_f64());
        }
        let snap = counters.snapshot();
        assert_eq!(snap.total_spmv(), 3);
        assert!(snap.bytes_in(Precision::Fp16) < snap.bytes_in(Precision::Fp64));
        // The matrix stream is attributed per storage precision.
        assert!(snap.matrix_bytes_in(Precision::Fp16) > 0);
        assert!(snap.matrix_bytes_in(Precision::Fp16) < snap.matrix_bytes_in(Precision::Fp64));
    }

    #[test]
    fn scaled_storage_matches_plain_on_benign_matrix() {
        let a = hpcg_matrix(4, 4, 4);
        let pm = ProblemMatrix::from_csr(a);
        let counters = KernelCounters::new_shared();
        let n = pm.dim();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
        let mut y_plain = vec![0.0f64; n];
        let mut y_scaled = vec![0.0f64; n];
        pm.apply(MatrixStorage::Plain(Precision::Fp64), &x, &mut y_plain, &counters);
        pm.apply(MatrixStorage::Scaled(Precision::Fp64), &x, &mut y_scaled, &counters);
        // fp64 scaled storage is the verbatim fast path: bit-identical.
        assert_eq!(y_plain, y_scaled);
        let mut y16 = vec![0.0f64; n];
        pm.apply(MatrixStorage::Scaled(Precision::Fp16), &x, &mut y16, &counters);
        for i in 0..n {
            assert!((y16[i] - y_plain[i]).abs() < 2e-2 * y_plain[i].abs().max(1.0));
        }
        // fp64 storage is verbatim: the scaled request streamed the base and
        // is counted as the plain product it ran; the fp16 one priced in its
        // row scales.
        let snap = counters.snapshot();
        assert_eq!(
            snap.matrix_bytes_in(Precision::Fp64),
            2 * TrafficModel::matrix_stream_bytes(pm.nnz(), n, Precision::Fp64)
        );
        assert_eq!(
            snap.matrix_bytes_in(Precision::Fp16),
            TrafficModel::scaled_matrix_stream_bytes(pm.nnz(), n, Precision::Fp16)
        );
        assert!(pm.is_materialized(MatrixStorage::Scaled(Precision::Fp64)));
        assert_eq!(pm.materialized_variants().len(), 2, "the base and the scaled fp16 copy");
    }

    #[test]
    fn sell_backend_matches_csr_backend() {
        let a = hpcg_matrix(4, 4, 4);
        let counters = KernelCounters::new_shared();
        let pm_csr = ProblemMatrix::from_csr(a.clone());
        let pm_sell = ProblemMatrix::new(a, SpmvBackend::Sell { chunk: 32 });
        let n = pm_csr.dim();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        let mut y3 = vec![0.0; n];
        pm_csr.apply(MatrixStorage::Plain(Precision::Fp64), &x, &mut y1, &counters);
        pm_sell.apply(MatrixStorage::Plain(Precision::Fp64), &x, &mut y2, &counters);
        pm_sell.apply(MatrixStorage::Scaled(Precision::Fp64), &x, &mut y3, &counters);
        for i in 0..n {
            assert!((y1[i] - y2[i]).abs() < 1e-13);
            assert!((y1[i] - y3[i]).abs() < 1e-13);
        }
        // The two fp64 requests shared the one fp64 SELL slot.
        assert!(pm_sell.is_materialized(MatrixStorage::Scaled(Precision::Fp64)));
        let vs = pm_sell.materialized_variants();
        assert_eq!(vs.len(), 2, "{vs:?}");
        assert_eq!((vs[1].storage, vs[1].format), (MatrixStorage::Plain(Precision::Fp64), MatrixFormat::Sell));
    }

    #[test]
    fn residual_and_true_residual() {
        let a = hpcg_matrix(3, 3, 3);
        let pm = ProblemMatrix::from_csr(a);
        let counters = KernelCounters::new_shared();
        let n = pm.dim();
        let x = vec![0.0f64; n];
        let b = vec![2.0f64; n];
        let mut r = vec![0.0f64; n];
        pm.residual(MatrixStorage::Plain(Precision::Fp64), &x, &b, &mut r, &counters);
        assert_eq!(r, b);
        let mut r2 = vec![0.0f64; n];
        pm.residual(MatrixStorage::Scaled(Precision::Fp32), &x, &b, &mut r2, &counters);
        assert_eq!(r2, b);
        assert!((pm.true_relative_residual(&x, &b) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn store_is_lazy_and_accounts_only_materialized_variants() {
        let a = hpcg_matrix(3, 3, 3);
        let nnz = a.nnz();
        let n = a.n_rows();
        let base_bytes = a.storage_bytes();
        let pm = ProblemMatrix::from_csr(a);
        // Fresh store: only the fp64 CSR base.
        let vs = pm.materialized_variants();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].storage, MatrixStorage::Plain(Precision::Fp64));
        assert_eq!(vs[0].format, MatrixFormat::Csr);
        assert_eq!(pm.storage_bytes(), base_bytes);
        assert_eq!(base_bytes, (nnz as u64) * 12 + 4 * (n as u64 + 1));

        // Applying a variant faults exactly that variant in.
        let counters = KernelCounters::new_shared();
        let x = vec![1.0f64; n];
        let mut y = vec![0.0f64; n];
        pm.apply(MatrixStorage::Scaled(Precision::Fp16), &x, &mut y, &counters);
        assert!(pm.is_materialized(MatrixStorage::Scaled(Precision::Fp16)));
        assert!(!pm.is_materialized(MatrixStorage::Plain(Precision::Fp16)));
        assert!(!pm.is_materialized(MatrixStorage::Plain(Precision::Fp32)));
        let expected_scaled = (nnz as u64) * 6 + 4 * (n as u64 + 1) + 8 * n as u64;
        assert_eq!(pm.storage_bytes(), base_bytes + expected_scaled);

        // materialize() is idempotent and covers explicit prefetch.
        pm.materialize(MatrixStorage::Scaled(Precision::Fp16));
        pm.materialize(MatrixStorage::Plain(Precision::Fp32));
        assert_eq!(pm.materialized_variants().len(), 3);
    }

    #[test]
    fn apply_multi_columns_match_apply_and_amortize_matrix_stream() {
        let a = hpcg_matrix(4, 4, 4);
        let n = a.n_rows();
        let nnz = a.nnz();
        for pm in [
            ProblemMatrix::from_csr(a.clone()),
            ProblemMatrix::new(a.clone(), SpmvBackend::Sell { chunk: 32 }),
        ] {
            for storage in [
                MatrixStorage::Plain(Precision::Fp64),
                MatrixStorage::Scaled(Precision::Fp16),
            ] {
                let k = 4;
                let xs: Vec<f64> = (0..n * k).map(|i| (i as f64 * 0.013).sin()).collect();
                let counters = KernelCounters::new_shared();
                let mut ys = vec![0.0f64; n * k];
                pm.apply_multi(storage, &xs, &mut ys, k, &counters);
                for c in 0..k {
                    let mut y1 = vec![0.0f64; n];
                    pm.apply(storage, &xs[c * n..(c + 1) * n], &mut y1, &counters);
                    assert_eq!(&ys[c * n..(c + 1) * n], &y1[..], "{storage} col {c}");
                }
                let snap = counters.snapshot();
                // One SpMM (k columns) + k parity SpMVs; the matrix stream
                // was attributed once for the panel and once per SpMV.
                assert_eq!(snap.total_spmm(), 1);
                assert_eq!(snap.spmm_columns_total(), k as u64);
                assert_eq!(snap.total_spmv(), k as u64);
                let stream = if storage.is_scaled() {
                    TrafficModel::scaled_matrix_stream_bytes(nnz, n, storage.precision())
                } else {
                    TrafficModel::matrix_stream_bytes(nnz, n, storage.precision())
                };
                assert_eq!(
                    snap.matrix_bytes_in(storage.precision()),
                    stream * (k as u64 + 1),
                    "{storage}"
                );
            }
        }
    }

    #[test]
    fn storage_display_names() {
        assert_eq!(MatrixStorage::Plain(Precision::Fp16).to_string(), "fp16");
        assert_eq!(
            MatrixStorage::Scaled(Precision::Fp16).to_string(),
            "scaled-fp16"
        );
        assert_eq!(MatrixFormat::Sell.to_string(), "sell");
        assert!(!MatrixStorage::Plain(Precision::Fp32).is_scaled());
        assert!(MatrixStorage::Scaled(Precision::Fp32).is_scaled());
        assert_eq!(MatrixStorage::Scaled(Precision::Fp32).precision(), Precision::Fp32);
    }
}
