//! The flexible GMRES (FGMRES) cycle and the FGMRES inner-solver level.
//!
//! Every FGMRES appearing in the paper — the outermost fp64 `F^m1`, the
//! middle fp32 `F^m2`, the fp16-matrix `F^m3`, the restarted FGMRES(64)
//! baseline and the `F2`/`F3`/`F4` reference solvers of Table 4 — is a cycle
//! of the same algorithm: `m` steps of the Arnoldi process with classical
//! Gram–Schmidt orthogonalisation, flexible (per-iteration) preconditioning
//! by an [`InnerSolver`], and a QR update of the Hessenberg matrix by Givens
//! rotations (Section 4.2).  This module provides that cycle once —
//! [`fgmres_cycle`], generic over the working precision `T` **and** the basis
//! *storage* precision `S`, on `k` right-hand sides at a time — plus the
//! [`FgmresLevel`] adapter that lets a cycle act as the inner solver of its
//! parent level.
//!
//! # One cycle, `k` columns
//!
//! A cycle runs `k` *independent* recurrences, one per column of the
//! column-major panels `xs` and `bs`: each column has its own Arnoldi basis,
//! Hessenberg/Givens factorisation, tolerance and outcome, and the columns
//! only meet at the two shared calls of an iteration — one panel application
//! of the flexible preconditioner ([`InnerSolver::apply_panel`]) and one pass
//! over the matrix ([`ProblemMatrix::apply_multi`]).  This is deliberately
//! **not** block GMRES with a shared Krylov space: because every panel kernel
//! produces each column bitwise equal to its single-vector kernel, `k`
//! columns in one call compute, per column, the same floating-point sequence
//! as `k` one-column calls — only the memory traffic changes (the matrix
//! crosses memory once per iteration instead of `k` times).  A single
//! right-hand side is the one-column case of the same code: the cycle has no
//! single-vector branch; instead a one-column panel reaches the single-vector
//! kernels, and their counters, inside `apply_multi` and below.
//!
//! Columns converge, break down or are stopped by their hook at different
//! iterations.  A column that finishes mid-cycle leaves the *active set*: the
//! panels handed to the inner solver and the matrix are packed over the
//! still-active columns, so a cycle never pays matrix or preconditioner work
//! for columns that are done.  Cross-iteration state (basis slots,
//! Hessenberg columns) stays keyed by the original column index, so
//! deflation does not disturb the surviving recurrences.
//!
//! (For the adaptive-weight Richardson level a panel is the column-by-column
//! sequence of invocations of *one* level, whose weight state carries from
//! column to column; `k` fresh one-column solves each start their own
//! sequence, so a batch through a Richardson level matches them to the
//! tolerance, not bitwise.)
//!
//! # Basis storage precision
//!
//! The Arnoldi basis `v_1 … v_{m+1}` and the flexible basis `z_1 … z_m` live
//! in a [`CompressedBasis<S>`]: elements in `S` plus one power-of-two
//! amplitude scale per vector.  `S` defaults to the working precision `T`
//! (lossless, numerically identical to uncompressed storage); choosing a
//! narrower `S` (fp16 under fp32/fp64 working precision) streams the
//! `O(m²)` Gram–Schmidt basis sweeps at the storage width through the
//! compressed kernels in [`f3r_sparse::blas1`] — the basis is never
//! decompressed wholesale, each stored element is widened exactly once per
//! sweep.  The one exception is the handoff to the flexible preconditioner,
//! which receives a working-precision copy of `v_j` (one decompression per
//! iteration).
//!
//! Per iteration and column, classical Gram–Schmidt is two sweeps over the
//! new direction `w`: all `j + 1` projections in one
//! ([`blas1::project_compressed`]), all `j + 1` updates plus `‖w‖²` in the
//! other ([`blas1::subtract_projections`]).  So `w` crosses memory three
//! times at any `j`, beside the `2(j + 1)` basis reads, and the result is
//! bitwise that of one dot and one axpy per basis vector.
//!
//! # Example
//!
//! Run one explicitly-typed one-column cycle with an fp16-compressed basis
//! under an fp64 working precision:
//!
//! ```
//! use std::sync::Arc;
//! use f3r_core::fgmres::{fgmres_cycle, CycleParams, FgmresWorkspace};
//! use f3r_core::inner::PrecondInner;
//! use f3r_core::operator::{MatrixStorage, ProblemMatrix};
//! use f3r_core::precond_any::AnyPrecond;
//! use f3r_precision::{f16, KernelCounters, Precision};
//! use f3r_precond::PrecondKind;
//! use f3r_sparse::gen::laplacian::poisson2d_5pt;
//! use f3r_sparse::gen::rhs::random_rhs;
//! use f3r_sparse::scaling::jacobi_scale;
//!
//! let a = jacobi_scale(&poisson2d_5pt(10, 10));
//! let counters = KernelCounters::new_shared();
//! let precond = Arc::new(AnyPrecond::build(&a, &PrecondKind::Ilu0 { alpha: 1.0 }, Precision::Fp64));
//! let pm = Arc::new(ProblemMatrix::from_csr(a));
//! let n = pm.dim();
//! let b = random_rhs(n, 1);
//! let mut x = vec![0.0f64; n];
//! let mut inner = PrecondInner::<f64>::new(precond, Arc::clone(&counters), 2);
//!
//! // f64 working precision, fp16 basis storage: the second type parameter.
//! let mut ws = FgmresWorkspace::<f64, f16>::new(n, 40);
//! let out = fgmres_cycle(
//!     CycleParams {
//!         matrix: &pm,
//!         mat_storage: MatrixStorage::Plain(Precision::Fp64),
//!         inner: &mut inner,
//!         abs_tols: Some(&[1e-8]),
//!         x_nonzero: None,
//!         depth: 1,
//!         counters: &counters,
//!         progress: None,
//!     },
//!     &mut x,
//!     &b,
//!     &mut ws,
//!     1,
//! );
//! assert!(out[0].iterations > 0);
//! // All basis traffic was attributed to fp16 storage.
//! assert!(counters.snapshot().basis_bytes_in(Precision::Fp16) > 0);
//! assert_eq!(counters.snapshot().basis_bytes_in(Precision::Fp64), 0);
//! ```

use std::sync::Arc;

use f3r_precision::traffic::TrafficModel;
use f3r_precision::{KernelCounters, Precision, Scalar};
use f3r_sparse::blas1;

use crate::basis::CompressedBasis;
use crate::inner::InnerSolver;
use crate::operator::{MatrixStorage, ProblemMatrix};

/// Recurrence state of one column of a cycle: its Hessenberg factorisation
/// and where it stands.
struct Column {
    /// Hessenberg columns after Givens rotations, packed: column `j` has
    /// `j + 2` entries starting at [`h_offset`]`(j)`.
    h: Vec<f64>,
    cs: Vec<f64>,
    sn: Vec<f64>,
    g: Vec<f64>,
    /// Solution of the least-squares system `R y = g`.
    y: Vec<f64>,
    /// `‖r_0‖₂` of the running cycle.
    beta: f64,
    /// Whether the column has left the active set of the running cycle.
    done: bool,
}

impl Column {
    fn new(m: usize) -> Self {
        Self {
            h: vec![0.0; h_offset(m)],
            cs: vec![0.0; m],
            sn: vec![0.0; m],
            g: vec![0.0; m + 1],
            y: vec![0.0; m],
            beta: 0.0,
            done: true,
        }
    }

    fn dense_len(&self) -> usize {
        self.h.len() + self.cs.len() + self.sn.len() + self.g.len() + self.y.len()
    }
}

/// Start of Hessenberg column `j` in the packed storage of a [`Column`].
fn h_offset(j: usize) -> usize {
    j * (j + 3) / 2
}

/// Workspace (Krylov bases, Hessenberg factorisations, working panels,
/// outcomes) reused across FGMRES cycles of fixed maximum length `m`, working
/// in precision `T` with bases stored in precision `S` (default:
/// uncompressed, `S = T`).
///
/// The workspace has a *column capacity*: one column when new, regrown by
/// the cycle when a wider panel arrives ([`reserve_columns`](Self::reserve_columns)),
/// never shrunk.  The Arnoldi slot of basis vector `j` of column `c` is
/// `j * columns() + c` (and likewise for the flexible basis), so the
/// per-column recurrences stay addressable after mid-cycle deflation packs
/// the working panels, and a cycle on fewer columns than the capacity reuses
/// the workspace as it is.  Everything a cycle needs lives here: a cycle
/// allocates nothing unless it has to grow the capacity.
pub struct FgmresWorkspace<T, S = T> {
    n: usize,
    m: usize,
    columns: usize,
    /// Arnoldi bases `v_1 … v_{m+1}` of every column in compressed storage.
    basis: CompressedBasis<S>,
    /// Flexible (preconditioned) bases `z_1 … z_m` in compressed storage.
    zbasis: CompressedBasis<S>,
    cols: Vec<Column>,
    /// Outcome of the last cycle, one per column.
    outcomes: Vec<CycleOutcome>,
    /// Columns still iterating, in panel order.
    active: Vec<usize>,
    /// Column-major panel of the vectors being orthogonalised (`A z_j`, then
    /// `w ⊥ v_1..v_j`).
    w: Vec<T>,
    /// Working-precision panel of decompressed `v_j` columns (packed over the
    /// active set), handed to the flexible preconditioner.
    vj: Vec<T>,
    /// Working-precision panel of preconditioner results (`z_j` before
    /// compression; also the matrix-product input).
    zj: Vec<T>,
}

impl<T: Scalar, S: Scalar> FgmresWorkspace<T, S> {
    /// Allocate a one-column workspace for cycles of up to `m` iterations on
    /// vectors of length `n`.
    #[must_use]
    pub fn new(n: usize, m: usize) -> Self {
        Self::with_columns(n, m, 1)
    }

    /// Allocate a workspace for cycles of up to `m` iterations on up to
    /// `columns` simultaneous right-hand sides of length `n`.
    ///
    /// # Panics
    /// Panics if the basis storage `S` is wider than the working precision
    /// `T` ([`Precision::stores_within`]): a basis stored wider than the
    /// vectors it is built from buys nothing, and no cycle is compiled for
    /// such a pair.
    #[must_use]
    pub fn with_columns(n: usize, m: usize, columns: usize) -> Self {
        assert!(
            const { S::PRECISION.stores_within(T::PRECISION) },
            "FGMRES: {} basis storage is wider than the {} working precision (storage must be no wider than the working precision)",
            S::PRECISION,
            T::PRECISION,
        );
        Self {
            n,
            m,
            columns,
            basis: CompressedBasis::new(n, (m + 1) * columns),
            zbasis: CompressedBasis::new(n, m * columns),
            cols: (0..columns).map(|_| Column::new(m)).collect(),
            outcomes: vec![CycleOutcome::default(); columns],
            active: Vec::with_capacity(columns),
            w: vec![T::zero(); n * columns],
            vj: vec![T::zero(); n * columns],
            zj: vec![T::zero(); n * columns],
        }
    }

    /// Make room for panels of `k` columns, reallocating the whole workspace
    /// at the wider capacity if it holds fewer; returns whether it did.  (No
    /// state survives a cycle, so nothing is carried over.)
    pub fn reserve_columns(&mut self, k: usize) -> bool {
        let grow = k > self.columns;
        if grow {
            *self = Self::with_columns(self.n, self.m, k);
        }
        grow
    }

    /// Maximum cycle length.
    #[must_use]
    pub fn cycle_length(&self) -> usize {
        self.m
    }

    /// Column capacity: the widest panel a cycle runs without regrowing.
    #[must_use]
    pub fn columns(&self) -> usize {
        self.columns
    }

    /// Storage precision of the Arnoldi and flexible bases.
    #[must_use]
    pub fn basis_precision(&self) -> Precision {
        S::PRECISION
    }

    /// Total heap bytes of the workspace at its current column capacity:
    /// both compressed bases, the per-column Hessenberg/rotation/solution
    /// arrays and the three working-precision panels.
    #[must_use]
    pub fn workspace_bytes(&self) -> u64 {
        let dense: usize = self.cols.iter().map(Column::dense_len).sum();
        let panels = (self.w.len() + self.vj.len() + self.zj.len()) as u64;
        self.basis.storage_bytes()
            + self.zbasis.storage_bytes()
            + dense as u64 * 8
            + panels * T::bytes() as u64
    }
}

/// Outcome of one FGMRES cycle on one column.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CycleOutcome {
    /// Arnoldi iterations actually performed.
    pub iterations: usize,
    /// Estimated residual norm `|g_{j+1}|` at exit (absolute, not relative).
    pub residual_estimate: f64,
    /// Whether the column left the cycle because the estimate fell below its
    /// absolute tolerance.
    pub converged: bool,
    /// Whether a (lucky or unlucky) breakdown occurred.
    pub breakdown: bool,
    /// Whether the [`CycleProgress`] hook stopped the column early.
    pub stopped: bool,
}

/// Per-iteration, per-column progress hook of a cycle.
///
/// The outermost level of a nested solve installs one (the session layer
/// bridges it to [`SolveObserver`](crate::session::SolveObserver) and the
/// stall detectors); inner levels pass `None`.
pub trait CycleProgress {
    /// Called after each completed Arnoldi iteration of panel column
    /// `column` with the 0-based iteration index within this cycle and the
    /// absolute residual-norm estimate `|g_{j+1}|`.  Return `false` to stop
    /// that column (and only that column) early; its partial solution update
    /// `x += Z y` over the completed iterations is still applied.
    fn on_iteration(&mut self, column: usize, iteration_in_cycle: usize, residual_estimate: f64) -> bool;
}

/// Parameters of one FGMRES cycle.
pub struct CycleParams<'a, T: Scalar> {
    /// Multi-precision coefficient matrix.
    pub matrix: &'a ProblemMatrix,
    /// Storage of the matrix variant streamed by the products of this cycle.
    pub mat_storage: MatrixStorage,
    /// Flexible preconditioner (the next nesting level), applied panel-wise.
    pub inner: &'a mut dyn InnerSolver<T>,
    /// Per-column absolute tolerances on the residual estimate; `None` runs
    /// all `m` iterations on every column (inner levels never check
    /// convergence, Section 4.2).
    pub abs_tols: Option<&'a [f64]>,
    /// Per column, whether the incoming solution column is nonzero (true
    /// only for outermost restarts and warm starts); `None` means every
    /// column starts from zero, so `r_0 = b` costs no matrix product.
    pub x_nonzero: Option<&'a [bool]>,
    /// Nesting depth for the iteration counters (1 = outermost).
    pub depth: usize,
    /// Shared kernel counters.
    pub counters: &'a KernelCounters,
    /// Optional progress hook (outermost level only; inner levels pass
    /// `None`).
    pub progress: Option<&'a mut dyn CycleProgress>,
}

/// Run one FGMRES cycle of at most `ws.cycle_length()` iterations on the `k`
/// systems `A x_c = b_c` (column `c` of the column-major panels `xs` and
/// `bs`), updating `xs` in place and returning one [`CycleOutcome`] per
/// column (borrowed from the workspace).
///
/// Each column runs its own recurrence (see the [module docs](self)); the
/// products of all active columns fuse into one
/// [`ProblemMatrix::apply_multi`] pass and the flexible preconditioner is
/// applied panel-wise.  The basis storage precision `S` comes from the
/// workspace; all basis sweeps run on the compressed form and their traffic
/// is attributed to `S` through [`KernelCounters::record_basis_traffic`].
/// Kernel-counter records are per column (basis and BLAS-1 traffic really is
/// per-column work); only the matrix stream is shared, which `apply_multi`
/// attributes once per pass.
///
/// Per column and iteration the checks run in this order: non-finite
/// breakdown (pre-empts the hook — observers never see a non-finite estimate
/// and cannot mask the breakdown flag), progress hook, lucky breakdown,
/// normalisation of `v_{j+1}`, tolerance.
///
/// # Panics
/// Panics if a panel is not `n * k` elements long, or `abs_tols` /
/// `x_nonzero` is given with a length other than `k`.
pub fn fgmres_cycle<'w, T: Scalar, S: Scalar>(
    params: CycleParams<'_, T>,
    xs: &mut [T],
    bs: &[T],
    ws: &'w mut FgmresWorkspace<T, S>,
    k: usize,
) -> &'w [CycleOutcome] {
    let CycleParams {
        matrix,
        mat_storage,
        inner,
        abs_tols,
        x_nonzero,
        depth,
        counters,
        mut progress,
    } = params;
    // `ws` exists, so this holds (`FgmresWorkspace::with_columns`); tested
    // again here, on constants, so that no cycle body is compiled for a pair
    // no workspace can have.
    assert!(const { S::PRECISION.stores_within(T::PRECISION) });
    ws.reserve_columns(k);
    let FgmresWorkspace {
        n,
        m,
        columns: cap,
        basis,
        zbasis,
        cols,
        outcomes,
        active,
        w,
        vj,
        zj,
    } = ws;
    // Basis slots are strided by the workspace's column capacity, not the
    // call's column count, so a cycle on fewer columns reuses the workspace.
    let (n, m, cap) = (*n, *m, *cap);
    assert_eq!(xs.len(), n * k, "fgmres: xs panel length mismatch");
    assert_eq!(bs.len(), n * k, "fgmres: bs panel length mismatch");
    assert!(abs_tols.is_none_or(|t| t.len() == k), "fgmres: one tolerance per column");
    assert!(x_nonzero.is_none_or(|f| f.len() == k), "fgmres: one x_nonzero flag per column");
    let sp = S::PRECISION;
    let one_vec = TrafficModel::basis_bytes(n, 1, sp);
    // Compressing into a narrower storage reads the source twice (amplitude
    // reduction + narrowing sweep); the same-precision fast path reads it
    // once.  See `blas1::narrow_scaled_into`.
    let compress_reads = if sp == T::PRECISION { 1 } else { 2 };

    for c in 0..k {
        let (col, out) = (&mut cols[c], &mut outcomes[c]);
        let wcol = &mut w[c * n..(c + 1) * n];
        // r0 = b - A x (skip the product when the initial guess is zero).
        if x_nonzero.is_some_and(|f| f[c]) {
            matrix.residual(mat_storage, &xs[c * n..(c + 1) * n], &bs[c * n..(c + 1) * n], wcol, counters);
        } else {
            wcol.copy_from_slice(&bs[c * n..(c + 1) * n]);
        }
        let beta = blas1::norm2(wcol);
        counters.record_blas1(T::PRECISION, TrafficModel::blas1_bytes(n, 1, 0, T::PRECISION));
        *out = CycleOutcome {
            residual_estimate: beta,
            ..CycleOutcome::default()
        };
        col.beta = beta;
        col.done = true;
        if !beta.is_finite() {
            out.residual_estimate = f64::NAN;
            out.breakdown = true;
        } else if beta == 0.0 {
            // x_c already solves its system (or v_c = 0 for an inner level).
            out.converged = true;
        } else {
            // v_1 = r0 / beta, compressed on write (the normalisation folds
            // into the amplitude scale); the slot of (j = 0, c) is c.
            basis.compress_scaled(c, 1.0 / beta, wcol);
            counters.record_blas1(
                T::PRECISION,
                TrafficModel::blas1_bytes(n, compress_reads, 0, T::PRECISION),
            );
            counters.record_basis_traffic(sp, 0, one_vec);
            col.g.fill(0.0);
            col.g[0] = beta;
            col.done = false;
        }
    }

    for j in 0..m {
        active.clear();
        active.extend((0..k).filter(|&c| !cols[c].done));
        let ka = active.len();
        if ka == 0 {
            break;
        }

        // Flexible preconditioning z_j = S^{(d+1)}(v_j) for every active
        // column, then ONE pass over A multiplies the whole panel.  The inner
        // solver works in the working precision, so v_j is decompressed into
        // the scratch panel once per iteration and the result is compressed
        // into the flexible basis after the product consumed it.
        for (p, &c) in active.iter().enumerate() {
            basis.decompress_into(j * cap + c, &mut vj[p * n..(p + 1) * n]);
            counters.record_basis_traffic(sp, one_vec, 0);
            counters.record_blas1(T::PRECISION, TrafficModel::blas1_bytes(n, 0, 1, T::PRECISION));
        }
        inner.apply_panel(&vj[..ka * n], &mut zj[..ka * n], ka);
        matrix.apply_multi(mat_storage, &zj[..ka * n], &mut w[..ka * n], ka, counters);
        for (p, &c) in active.iter().enumerate() {
            zbasis.compress_scaled(j * cap + c, 1.0, &zj[p * n..(p + 1) * n]);
            counters.record_basis_traffic(sp, 0, one_vec);
            counters.record_blas1(
                T::PRECISION,
                TrafficModel::blas1_bytes(n, compress_reads, 0, T::PRECISION),
            );
        }

        // The rest of the iteration is per-column state against the column's
        // own basis slots.
        for (p, &c) in active.iter().enumerate() {
            let (col, out) = (&mut cols[c], &mut outcomes[c]);
            let wcol = &mut w[p * n..(p + 1) * n];
            let hcol = &mut col.h[h_offset(j)..h_offset(j + 1)];

            // Classical Gram–Schmidt against v_0..v_j (paper: "we employ
            // classical Gram-Schmidt ... all associated computations are
            // performed only with vectors and scalars stored in fp32" for the
            // inner levels — the dots accumulate in T::Accum, widening each
            // stored basis element once).  One sweep over w takes all j + 1
            // projections, one more subtracts them and yields ‖w‖² for
            // h_{j+1,j}.
            let column = |i: usize| basis.vector(i * cap + c);
            blas1::project_compressed(wcol, column, &mut hcol[..=j]);
            counters.record_blas1(T::PRECISION, TrafficModel::blas1_bytes(n, 1, 0, T::PRECISION));
            counters.record_basis_traffic(sp, TrafficModel::basis_bytes(n, j + 1, sp), 0);
            let hnext = blas1::subtract_projections(column, &hcol[..=j], wcol).sqrt();
            counters.record_blas1(T::PRECISION, TrafficModel::blas1_bytes(n, 1, 1, T::PRECISION));
            counters.record_basis_traffic(sp, TrafficModel::basis_bytes(n, j + 1, sp), 0);
            hcol[j + 1] = hnext;

            // Apply the accumulated Givens rotations to the new column, then
            // the new rotation eliminating h[j+1][j].
            for i in 0..j {
                let (cr, sr) = (col.cs[i], col.sn[i]);
                let tmp = cr * hcol[i] + sr * hcol[i + 1];
                hcol[i + 1] = -sr * hcol[i] + cr * hcol[i + 1];
                hcol[i] = tmp;
            }
            let (cr, sr) = givens(hcol[j], hcol[j + 1]);
            col.cs[j] = cr;
            col.sn[j] = sr;
            hcol[j] = cr * hcol[j] + sr * hcol[j + 1];
            hcol[j + 1] = 0.0;
            col.g[j + 1] = -sr * col.g[j];
            col.g[j] *= cr;
            let res_est = col.g[j + 1].abs();
            out.residual_estimate = res_est;
            out.iterations = j + 1;

            // Every exit below ends this column's cycle.
            col.done = true;
            if !res_est.is_finite() || !hnext.is_finite() {
                out.breakdown = true;
                continue;
            }
            if let Some(hook) = progress.as_mut() {
                if !hook.on_iteration(c, j, res_est) {
                    out.stopped = true;
                    continue;
                }
            }
            if hnext <= f64::EPSILON * col.beta {
                // Lucky breakdown: this column's Krylov space is invariant.
                out.breakdown = true;
                out.converged = abs_tols.is_none_or(|t| res_est <= t[c]);
                continue;
            }
            // Normalise v_{j+1}: the 1/hnext scaling folds into the amplitude
            // scale of the compressed write (one sweep).
            basis.compress_scaled((j + 1) * cap + c, 1.0 / hnext, wcol);
            counters.record_blas1(
                T::PRECISION,
                TrafficModel::blas1_bytes(n, compress_reads, 0, T::PRECISION),
            );
            counters.record_basis_traffic(sp, 0, one_vec);
            out.converged = abs_tols.is_some_and(|t| res_est <= t[c]);
            col.done = out.converged;
        }
    }

    // Per-column solution update x_c += Z_c y_c over the iterations that
    // column actually completed.
    for (c, (col, out)) in cols.iter_mut().zip(outcomes.iter()).enumerate().take(k) {
        let iters = out.iterations;
        counters.record_level_iterations(depth, iters as u64);
        if iters == 0 {
            continue;
        }
        // Solve the upper-triangular system R y = g.
        let y = &mut col.y[..iters];
        for i in (0..iters).rev() {
            let mut sum = col.g[i];
            for (l, &yl) in y.iter().enumerate().skip(i + 1) {
                sum -= col.h[h_offset(l) + i] * yl;
            }
            let rii = col.h[h_offset(i) + i];
            y[i] = if rii.abs() > 0.0 { sum / rii } else { 0.0 };
        }
        // x += Z y (the flexible update) straight from the stored form.
        let xcol = &mut xs[c * n..(c + 1) * n];
        for (i, &yi) in y.iter().enumerate() {
            let (zi, si) = zbasis.vector(i * cap + c);
            blas1::axpy_scaled_from(yi, zi, si, xcol);
        }
        counters.record_blas1(
            T::PRECISION,
            TrafficModel::blas1_bytes(n, iters, iters, T::PRECISION),
        );
        counters.record_basis_traffic(sp, TrafficModel::basis_bytes(n, iters, sp), 0);
    }

    &outcomes[..k]
}

/// Compute a Givens rotation (c, s) such that `[c s; -s c] [a; b] = [r; 0]`.
fn givens(a: f64, b: f64) -> (f64, f64) {
    if b == 0.0 {
        (1.0, 0.0)
    } else if a == 0.0 {
        (0.0, 1.0)
    } else {
        let r = a.hypot(b);
        (a / r, b / r)
    }
}

/// An FGMRES level of a nested solver: runs a fixed number of iterations per
/// invocation (never checks convergence) and acts as the flexible
/// preconditioner of its parent level.
///
/// `T` is the level's working (vector) precision; `S` is the storage
/// precision of its Arnoldi/flexible bases (default uncompressed, `S = T`).
/// The level owns one workspace, one column wide until the first wider panel
/// arrives.
pub struct FgmresLevel<T: Scalar, S: Scalar = T> {
    matrix: Arc<ProblemMatrix>,
    mat_storage: MatrixStorage,
    inner: Box<dyn InnerSolver<T>>,
    ws: FgmresWorkspace<T, S>,
    depth: usize,
    counters: Arc<KernelCounters>,
}

impl<T: Scalar, S: Scalar> FgmresLevel<T, S> {
    /// Create an FGMRES level performing `m` iterations per invocation,
    /// streaming the matrix variant in `mat_storage` and preconditioned by
    /// `inner`.
    ///
    /// # Panics
    /// Panics if the basis storage `S` is wider than the working precision
    /// `T` (its workspace refuses: [`FgmresWorkspace::with_columns`]).
    #[must_use]
    pub fn new(
        matrix: Arc<ProblemMatrix>,
        mat_storage: MatrixStorage,
        m: usize,
        inner: Box<dyn InnerSolver<T>>,
        depth: usize,
        counters: Arc<KernelCounters>,
    ) -> Self {
        let n = matrix.dim();
        Self {
            matrix,
            mat_storage,
            inner,
            ws: FgmresWorkspace::new(n, m),
            depth,
            counters,
        }
    }
}

impl<T: Scalar, S: Scalar> InnerSolver<T> for FgmresLevel<T, S> {
    fn apply_panel(&mut self, v: &[T], z: &mut [T], k: usize) {
        z.fill(T::zero());
        let params = CycleParams {
            matrix: &self.matrix,
            mat_storage: self.mat_storage,
            inner: self.inner.as_mut(),
            abs_tols: None,
            x_nonzero: None,
            depth: self.depth,
            counters: &self.counters,
            progress: None,
        };
        let _ = fgmres_cycle(params, z, v, &mut self.ws, k);
    }

    fn name(&self) -> String {
        let basis = if S::PRECISION == T::PRECISION {
            String::new()
        } else {
            format!(", basis:{}", S::name())
        };
        format!(
            "F{}(A:{}, v:{}{}) -> {}",
            self.ws.cycle_length(),
            self.mat_storage,
            T::name(),
            basis,
            self.inner.name()
        )
    }

    fn depth(&self) -> usize {
        self.depth
    }

    fn workspace_bytes(&self) -> u64 {
        self.ws.workspace_bytes() + self.inner.workspace_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inner::PrecondInner;
    use crate::precond_any::AnyPrecond;
    use f3r_precision::f16;
    use f3r_precond::PrecondKind;
    use f3r_sparse::gen::laplacian::poisson2d_5pt;
    use f3r_sparse::gen::rhs::random_rhs;
    use f3r_sparse::scaling::jacobi_scale;

    const FP64: MatrixStorage = MatrixStorage::Plain(Precision::Fp64);

    fn setup(nx: usize) -> (Arc<ProblemMatrix>, Arc<AnyPrecond>, Arc<KernelCounters>) {
        let a = jacobi_scale(&poisson2d_5pt(nx, nx));
        let counters = KernelCounters::new_shared();
        let m = Arc::new(AnyPrecond::build(
            &a,
            &PrecondKind::Ilu0 { alpha: 1.0 },
            Precision::Fp64,
        ));
        (Arc::new(ProblemMatrix::from_csr(a)), m, counters)
    }

    /// One fp64 cycle on the `k` columns of `xs`/`bs` against `M` directly,
    /// from a zero or (`restart`) nonzero guess.
    #[allow(clippy::too_many_arguments)]
    fn run<S: Scalar>(
        pm: &ProblemMatrix,
        m: &Arc<AnyPrecond>,
        counters: &Arc<KernelCounters>,
        abs_tol: Option<f64>,
        restart: bool,
        xs: &mut [f64],
        bs: &[f64],
        ws: &mut FgmresWorkspace<f64, S>,
    ) -> Vec<CycleOutcome> {
        let k = bs.len() / pm.dim();
        let mut inner = PrecondInner::<f64>::new(Arc::clone(m), Arc::clone(counters), 2);
        let tols = abs_tol.map(|t| vec![t; k]);
        let flags = vec![restart; k];
        fgmres_cycle(
            CycleParams {
                matrix: pm,
                mat_storage: FP64,
                inner: &mut inner,
                abs_tols: tols.as_deref(),
                x_nonzero: restart.then_some(&flags[..]),
                depth: 1,
                counters,
                progress: None,
            },
            xs,
            bs,
            ws,
            k,
        )
        .to_vec()
    }

    #[test]
    fn single_cycle_converges_on_small_spd_problem() {
        let (pm, m, counters) = setup(10);
        let n = pm.dim();
        let b = random_rhs(n, 3);
        let mut x = vec![0.0f64; n];
        let mut ws = FgmresWorkspace::<f64>::new(n, 60);
        let tol = 1e-10 * blas1::norm2(&b);
        let out = run(&pm, &m, &counters, Some(tol), false, &mut x, &b, &mut ws)[0];
        assert!(out.converged, "estimate {}", out.residual_estimate);
        assert!(out.iterations < 60);
        let true_res = pm.true_relative_residual(&x, &b);
        assert!(true_res < 1e-8, "true residual {true_res}");
    }

    #[test]
    fn residual_estimate_tracks_true_residual() {
        let (pm, m, counters) = setup(8);
        let n = pm.dim();
        let b = random_rhs(n, 7);
        let mut x = vec![0.0f64; n];
        let mut ws = FgmresWorkspace::<f64>::new(n, 12);
        let out = run(&pm, &m, &counters, None, false, &mut x, &b, &mut ws)[0];
        let true_abs = pm.true_relative_residual(&x, &b) * blas1::norm2(&b);
        assert!(
            (out.residual_estimate - true_abs).abs() <= 1e-6 * true_abs.max(1e-12),
            "estimate {} vs true {}",
            out.residual_estimate,
            true_abs
        );
    }

    #[test]
    fn restarted_cycles_with_nonzero_guess_keep_improving() {
        let (pm, m, counters) = setup(12);
        let n = pm.dim();
        let b = random_rhs(n, 11);
        let mut x = vec![0.0f64; n];
        let mut ws = FgmresWorkspace::<f64>::new(n, 5);
        let mut last = f64::INFINITY;
        for cycle in 0..6 {
            let out = run(&pm, &m, &counters, None, cycle > 0, &mut x, &b, &mut ws)[0];
            assert_eq!(out.iterations, 5);
            let res = pm.true_relative_residual(&x, &b);
            assert!(res < last, "cycle {cycle}: {res} !< {last}");
            last = res;
        }
        assert!(last < 1e-3);
    }

    #[test]
    fn zero_rhs_returns_immediately() {
        let (pm, m, counters) = setup(6);
        let n = pm.dim();
        let b = vec![0.0f64; n];
        let mut x = vec![0.0f64; n];
        let mut ws = FgmresWorkspace::<f64>::new(n, 8);
        let out = run(&pm, &m, &counters, Some(1e-10), false, &mut x, &b, &mut ws)[0];
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    fn fp32_level<S: Scalar>(
        pm: &Arc<ProblemMatrix>,
        m: &Arc<AnyPrecond>,
        counters: &Arc<KernelCounters>,
        iterations: usize,
    ) -> FgmresLevel<f32, S> {
        FgmresLevel::new(
            Arc::clone(pm),
            MatrixStorage::Plain(Precision::Fp32),
            iterations,
            Box::new(PrecondInner::<f32>::new(Arc::clone(m), Arc::clone(counters), 3)),
            2,
            Arc::clone(counters),
        )
    }

    /// Relative fp64 residual of `z` as an approximate solution of `A z = v`.
    fn level_residual(pm: &ProblemMatrix, v: &[f32], z: &[f32]) -> f64 {
        let v64: Vec<f64> = v.iter().map(|&x| f64::from(x)).collect();
        let z64: Vec<f64> = z.iter().map(|&x| f64::from(x)).collect();
        pm.true_relative_residual(&z64, &v64)
    }

    #[test]
    fn fgmres_level_acts_as_inner_solver_in_fp32() {
        let (pm, m, counters) = setup(8);
        let n = pm.dim();
        let mut level = fp32_level::<f32>(&pm, &m, &counters, 8);
        let v: Vec<f32> = (0..n).map(|i| ((i % 11) as f32 - 5.0) / 11.0).collect();
        let mut z = vec![0.0f32; n];
        level.apply(&v, &mut z);
        // z should approximately solve A z = v: check the residual dropped.
        let res = level_residual(&pm, &v, &z);
        assert!(res < 0.2, "inner FGMRES(8) should reduce the residual, got {res}");
        assert!(level.name().contains("F8"));
    }

    #[test]
    fn level_apply_panel_matches_per_column_applies() {
        let (pm, m, counters) = setup(8);
        let n = pm.dim();
        let k = 3;
        let v: Vec<f32> = (0..n * k)
            .map(|i| ((i % 13) as f32 - 6.0) / 13.0)
            .collect();

        let mut panel_level = fp32_level::<f32>(&pm, &m, &counters, 6);
        let mut zp = vec![0.0f32; n * k];
        panel_level.apply_panel(&v, &mut zp, k);

        let mut seq_level = fp32_level::<f32>(&pm, &m, &counters, 6);
        for c in 0..k {
            let mut z = vec![0.0f32; n];
            seq_level.apply(&v[c * n..(c + 1) * n], &mut z);
            assert_eq!(
                &zp[c * n..(c + 1) * n],
                &z[..],
                "batched level output column {c} must be bitwise equal"
            );
        }
    }

    fn run_cycle<S: Scalar>(nx: usize, m: usize) -> (CycleOutcome, f64, u64, u64) {
        let (pm, mp, counters) = setup(nx);
        let n = pm.dim();
        let b = random_rhs(n, 17);
        let mut x = vec![0.0f64; n];
        let mut ws = FgmresWorkspace::<f64, S>::new(n, m);
        let out = run(&pm, &mp, &counters, None, false, &mut x, &b, &mut ws)[0];
        let true_res = pm.true_relative_residual(&x, &b);
        let snap = counters.snapshot();
        (out, true_res, snap.basis_bytes_total(), snap.basis_bytes_in(S::PRECISION))
    }

    #[test]
    fn compressed_basis_cycle_tracks_full_precision() {
        let (out64, res64, bytes64, _) = run_cycle::<f64>(12, 20);
        let (out16, res16, bytes16, own16) = run_cycle::<f16>(12, 20);
        assert_eq!(out64.iterations, out16.iterations);
        // A single cycle with an fp16-compressed *outer* basis is limited by
        // the storage roundoff (~eps_fp16 relative to the update), not by
        // the Krylov process: it must still reduce the residual by better
        // than two orders of magnitude (restarts then close the remaining
        // gap — see the end-to-end tests).
        assert!(res64 < 1e-9, "fp64 basis residual {res64}");
        assert!(res16 < 1e-2, "fp16 basis residual {res16}");
        // All basis traffic is attributed to the storage precision and is a
        // quarter of the fp64-basis bytes.
        assert_eq!(bytes16, own16);
        assert_eq!(bytes16 * 4, bytes64);
    }

    #[test]
    fn same_precision_storage_matches_legacy_layout_numerics() {
        // With S = T the compression is a pure relabelling (power-of-two
        // scales); a cycle must converge exactly like the uncompressed
        // workspace used to.
        let (out, true_res, basis_bytes, _) = run_cycle::<f64>(10, 60);
        assert!(out.iterations <= 60);
        assert!(true_res < 1e-8, "true residual {true_res}");
        assert!(basis_bytes > 0);
    }

    #[test]
    fn workspace_reports_geometry_and_grows_by_whole_reallocations() {
        let mut ws = FgmresWorkspace::<f32, f16>::new(8, 4);
        assert_eq!(ws.basis_precision(), Precision::Fp16);
        assert_eq!(ws.cycle_length(), 4);
        assert_eq!(ws.columns(), 1);
        assert_eq!(FgmresWorkspace::<f32>::new(8, 4).basis_precision(), Precision::Fp32);
        let one = ws.workspace_bytes();
        assert!(!ws.reserve_columns(1));
        assert!(ws.reserve_columns(3));
        assert_eq!(ws.columns(), 3);
        assert_eq!(ws.workspace_bytes(), 3 * one);
        // Never shrunk.
        assert!(!ws.reserve_columns(2));
        assert_eq!(ws.columns(), 3);
    }

    #[test]
    #[should_panic(expected = "storage must be no wider than the working precision")]
    fn basis_stored_wider_than_the_working_precision_is_refused() {
        // `FgmresLevel::<f32, f64>::new`.
        let (pm, m, counters) = setup(4);
        let _ = fp32_level::<f64>(&pm, &m, &counters, 4);
    }

    #[test]
    fn fgmres_level_with_compressed_basis_names_the_storage() {
        let (pm, m, counters) = setup(8);
        let mut level = fp32_level::<f16>(&pm, &m, &counters, 8);
        let n = pm.dim();
        let v: Vec<f32> = (0..n).map(|i| ((i % 11) as f32 - 5.0) / 11.0).collect();
        let mut z = vec![0.0f32; n];
        level.apply(&v, &mut z);
        let res = level_residual(&pm, &v, &z);
        assert!(res < 0.3, "compressed inner FGMRES(8) should reduce the residual, got {res}");
        assert!(level.name().contains("basis:fp16"));
    }

    // ---- k columns in one call == k one-column calls ----------------------

    /// One cycle on the whole panel against one one-column cycle per column
    /// (fresh workspace, inner solver and counters each): outcomes and
    /// solutions must agree bitwise.
    fn panel_vs_columns<S: Scalar>(nx: usize, m: usize, bs: &[Vec<f64>], abs_tol: Option<f64>) {
        let (pm, mp, counters) = setup(nx);
        let (n, k) = (pm.dim(), bs.len());
        let mut ws = FgmresWorkspace::<f64, S>::new(n, m);
        let mut xp = vec![0.0f64; n * k];
        let outcomes = run(&pm, &mp, &counters, abs_tol, false, &mut xp, &bs.concat(), &mut ws);
        assert_eq!(outcomes.len(), k);
        assert_eq!(ws.columns(), k, "the cycle regrows a narrower workspace");
        for (c, b) in bs.iter().enumerate() {
            let mut x = vec![0.0f64; n];
            let mut ws1 = FgmresWorkspace::<f64, S>::new(n, m);
            let alone = run(&pm, &mp, &KernelCounters::new_shared(), abs_tol, false, &mut x, b, &mut ws1);
            assert_eq!(outcomes[c], alone[0], "outcome of column {c}");
            assert_eq!(&xp[c * n..(c + 1) * n], &x[..], "solution column {c}");
        }
    }

    fn random_columns(nx: usize, k: usize, seed: u64) -> Vec<Vec<f64>> {
        (0..k).map(|c| random_rhs(nx * nx, seed + c as u64)).collect()
    }

    #[test]
    fn panel_cycle_columns_are_bitwise_the_one_column_cycles() {
        panel_vs_columns::<f64>(10, 12, &random_columns(10, 3, 31), None);
        panel_vs_columns::<f64>(8, 20, &random_columns(8, 5, 31), Some(1e-8));
    }

    #[test]
    fn panel_cycle_with_compressed_basis_matches_the_one_column_cycles() {
        panel_vs_columns::<f16>(9, 10, &random_columns(9, 4, 31), None);
        panel_vs_columns::<f32>(7, 15, &random_columns(7, 2, 31), Some(1e-6));
    }

    #[test]
    fn mid_cycle_deflation_leaves_survivors_untouched() {
        // Column 0 has a zero right-hand side (done at initialisation) and
        // column 2 a loose enough tolerance to converge mid-cycle while the
        // others run on: the survivors must still match their one-column
        // cycles exactly.
        let mut bs = random_columns(9, 4, 71);
        bs[0].fill(0.0);
        panel_vs_columns::<f64>(9, 10, &bs, None);

        let (pm, mp, counters) = setup(9);
        let n = pm.dim();
        let bs = random_columns(9, 3, 71);
        let tols = [1e-12, 1e-12, 1e-1];
        let mut inner = PrecondInner::<f64>::new(Arc::clone(&mp), Arc::clone(&counters), 2);
        let mut ws = FgmresWorkspace::<f64>::new(n, 10);
        let mut xp = vec![0.0f64; n * 3];
        let outcomes = fgmres_cycle(
            CycleParams {
                matrix: &pm,
                mat_storage: FP64,
                inner: &mut inner,
                abs_tols: Some(&tols),
                x_nonzero: None,
                depth: 1,
                counters: &counters,
                progress: None,
            },
            &mut xp,
            &bs.concat(),
            &mut ws,
            3,
        )
        .to_vec();
        assert!(outcomes[2].converged && outcomes[2].iterations < outcomes[0].iterations);
        for (c, b) in bs.iter().enumerate() {
            let mut x = vec![0.0f64; n];
            let mut ws1 = FgmresWorkspace::<f64>::new(n, 10);
            let alone = run(&pm, &mp, &KernelCounters::new_shared(), Some(tols[c]), false, &mut x, b, &mut ws1);
            assert_eq!(outcomes[c], alone[0], "column {c}");
            assert_eq!(&xp[c * n..(c + 1) * n], &x[..], "column {c}");
        }
    }

    #[test]
    fn one_pass_per_iteration_amortizes_the_matrix_stream() {
        let (pm, mp, counters) = setup(8);
        let n = pm.dim();
        let (k, m) = (4, 6);
        let mut ws = FgmresWorkspace::<f64>::new(n, m);
        let mut xp = vec![0.0f64; n * k];
        let _ = run(&pm, &mp, &counters, None, false, &mut xp, &random_columns(8, k, 5).concat(), &mut ws);
        let snap = counters.snapshot();
        // All m iterations ran with the full panel: m panel passes, each
        // streaming the matrix once for k columns — and no single products.
        assert_eq!(snap.total_spmm(), m as u64);
        assert_eq!(snap.spmm_columns_total(), (m * k) as u64);
        assert_eq!(snap.spmv_in(Precision::Fp64), m as u64, "M's panel applications only");

        // The same workspace on one column: single-vector products, counted
        // as such.
        counters.reset();
        let _ = run(&pm, &mp, &counters, None, false, &mut xp[..n], &random_rhs(n, 5), &mut ws);
        let snap = counters.snapshot();
        assert_eq!(snap.total_spmm(), 0);
        assert_eq!(snap.spmv_in(Precision::Fp64), 2 * m as u64, "A and M once an iteration");
    }

    #[test]
    #[should_panic(expected = "fgmres: xs panel length mismatch")]
    fn short_panel_panics() {
        let (pm, mp, counters) = setup(4);
        let n = pm.dim();
        let mut ws = FgmresWorkspace::<f64>::new(n, 3);
        let mut xp = vec![0.0f64; n];
        let mut inner = PrecondInner::<f64>::new(mp, Arc::clone(&counters), 2);
        let _ = fgmres_cycle(
            CycleParams {
                matrix: &pm,
                mat_storage: FP64,
                inner: &mut inner,
                abs_tols: None,
                x_nonzero: None,
                depth: 1,
                counters: &counters,
                progress: None,
            },
            &mut xp,
            &vec![0.0f64; n * 2],
            &mut ws,
            2,
        );
    }
}
