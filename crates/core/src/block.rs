//! Block (multi-right-hand-side) FGMRES cycles: `k` independent Arnoldi
//! recurrences sharing one pass over the matrix per iteration.
//!
//! The F3R solvers are memory-bound and their traffic is dominated by the
//! matrix stream of the inner levels (Section 4.1): every Arnoldi iteration
//! of every level re-reads the values, column indices and row pointers of
//! `A`.  When `k` right-hand sides are solved together, that stream can be
//! amortized — one [`ProblemMatrix::apply_multi`] pass multiplies all `k`
//! iteration vectors while `A` crosses memory once, cutting the per-RHS
//! matrix traffic to `1/k` of the single-RHS cost.
//!
//! # Not a block Krylov method
//!
//! This module deliberately does **not** implement block GMRES with a shared
//! Krylov space: each column runs its own FGMRES recurrence (own Arnoldi
//! basis, own Hessenberg/Givens factorisation, own convergence state) and
//! the columns only meet at the shared kernel calls.  The payoff is exact
//! reproducibility: because the batched SpMM produces each column bitwise
//! equal to the single-vector SpMV (see [`f3r_sparse::spmm`]) and all panel
//! BLAS-1 work is a documented per-column loop over the single-vector
//! kernels, a batched solve computes, per column, the *same floating-point
//! sequence* as `k` sequential solves — convergence behaviour, iteration
//! counts and results are identical, only the memory traffic changes.  The
//! levels below a block cycle keep the same rule panel-wise
//! ([`InnerSolver::apply_panel`]): a panel is bitwise the column-by-column
//! loop over the same level.  (For the adaptive-weight Richardson level that
//! loop is a sequence of consecutive invocations of *one* level, whose weight
//! state carries from column to column; `k` fresh sequential sessions each
//! start their own sequence, so a batch through a Richardson level matches
//! them to the tolerance, not bitwise.)
//!
//! # Deflation
//!
//! Columns converge (or break down) at different iterations.  A column that
//! finishes mid-cycle leaves the *active set*: the panels handed to the
//! inner solver and the SpMM are packed over the still-active columns, so a
//! batch never pays matrix or preconditioner work for columns that are done.
//! Cross-iteration state (basis slots, Hessenberg columns) stays keyed by
//! the original column index, so deflation does not disturb the surviving
//! recurrences.
//!
//! The driving use sites are [`SolveSession::solve_batch`] (outermost level)
//! and [`FgmresLevel::apply_panel`] (inner levels), which chain block cycles
//! through the whole nesting hierarchy.
//!
//! [`SolveSession::solve_batch`]: crate::session::SolveSession::solve_batch
//! [`FgmresLevel::apply_panel`]: crate::fgmres::FgmresLevel

use f3r_precision::traffic::TrafficModel;
use f3r_precision::{KernelCounters, Precision, Scalar};
use f3r_sparse::blas1;

use crate::basis::CompressedBasis;
use crate::fgmres::{givens, CycleOutcome};
use crate::inner::InnerSolver;
use crate::operator::{MatrixStorage, ProblemMatrix};

/// Workspace for block FGMRES cycles of up to `m` iterations on up to `k`
/// simultaneous right-hand sides, working in precision `T` with bases stored
/// in precision `S` (default uncompressed, `S = T`).
///
/// Layout: the Arnoldi slot of basis vector `j` of column `c` is
/// `j * max_columns() + c` (and likewise for the flexible basis), so the
/// per-column recurrences stay addressable after mid-cycle deflation packs
/// the working panels.
pub struct BlockFgmresWorkspace<T, S = T> {
    n: usize,
    m: usize,
    k: usize,
    /// Arnoldi bases, `(m + 1) * k` slots (slot of `v_j` of column `c` is
    /// `j * k + c`).
    basis: CompressedBasis<S>,
    /// Flexible bases, `m * k` slots with the same keying.
    zbasis: CompressedBasis<S>,
    /// Per-column Hessenberg columns after Givens rotations;
    /// `h[c][j]` has length `j + 2`.
    h: Vec<Vec<Vec<f64>>>,
    cs: Vec<Vec<f64>>,
    sn: Vec<Vec<f64>>,
    g: Vec<Vec<f64>>,
    y: Vec<Vec<f64>>,
    /// Column-major panel of the vectors being orthogonalised.
    w: Vec<T>,
    /// Working-precision panel of decompressed `v_j` columns (packed over the
    /// active set), handed to the flexible preconditioner.
    vj: Vec<T>,
    /// Working-precision panel of preconditioner results (the SpMM input).
    zj: Vec<T>,
}

impl<T: Scalar, S: Scalar> BlockFgmresWorkspace<T, S> {
    /// Allocate workspace for cycles of up to `m` iterations on up to `k`
    /// columns of length `n`.
    #[must_use]
    pub fn new(n: usize, m: usize, k: usize) -> Self {
        Self {
            n,
            m,
            k,
            basis: CompressedBasis::new(n, (m + 1) * k),
            zbasis: CompressedBasis::new(n, m * k),
            h: (0..k)
                .map(|_| (0..m).map(|j| vec![0.0; j + 2]).collect())
                .collect(),
            cs: vec![vec![0.0; m]; k],
            sn: vec![vec![0.0; m]; k],
            g: vec![vec![0.0; m + 1]; k],
            y: vec![vec![0.0; m]; k],
            w: vec![T::zero(); n * k],
            vj: vec![T::zero(); n * k],
            zj: vec![T::zero(); n * k],
        }
    }

    /// Vector length.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Maximum cycle length.
    #[must_use]
    pub fn cycle_length(&self) -> usize {
        self.m
    }

    /// Maximum number of simultaneous right-hand sides.
    #[must_use]
    pub fn max_columns(&self) -> usize {
        self.k
    }

    /// Storage precision of the Arnoldi and flexible bases.
    #[must_use]
    pub fn basis_precision(&self) -> Precision {
        S::PRECISION
    }

    /// Total heap bytes of the block workspace: both compressed bases, the
    /// per-column Hessenberg/rotation/solution arrays and the three
    /// working-precision panels.
    #[must_use]
    pub fn workspace_bytes(&self) -> u64 {
        let dense: usize = self
            .h
            .iter()
            .flat_map(|cols| cols.iter().map(Vec::len))
            .sum::<usize>()
            + self.cs.iter().map(Vec::len).sum::<usize>()
            + self.sn.iter().map(Vec::len).sum::<usize>()
            + self.g.iter().map(Vec::len).sum::<usize>()
            + self.y.iter().map(Vec::len).sum::<usize>();
        let panels = (self.w.len() + self.vj.len() + self.zj.len()) as u64;
        self.basis.storage_bytes()
            + self.zbasis.storage_bytes()
            + dense as u64 * 8
            + panels * T::bytes() as u64
    }
}

/// Parameters of one block FGMRES cycle (the batched twin of
/// [`CycleParams`](crate::fgmres::CycleParams); there is no progress hook —
/// batched solves report per-cycle, not per-iteration).
pub struct BlockCycleParams<'a, T: Scalar> {
    /// Multi-precision coefficient matrix.
    pub matrix: &'a ProblemMatrix,
    /// Storage of the matrix variant streamed by the SpMM in this cycle.
    pub mat_storage: MatrixStorage,
    /// Flexible preconditioner (the next nesting level), applied panel-wise.
    pub inner: &'a mut dyn InnerSolver<T>,
    /// Per-column absolute tolerances on the residual estimate; `None` runs
    /// all `m` iterations on every column (inner levels never check
    /// convergence, Section 4.2).
    pub abs_tols: Option<&'a [f64]>,
    /// Whether the incoming solution panel is nonzero (true only for
    /// outermost restarts).
    pub x_nonzero: bool,
    /// Nesting depth for the iteration counters (1 = outermost).
    pub depth: usize,
    /// Shared kernel counters.
    pub counters: &'a KernelCounters,
}

/// Per-column bookkeeping of a running block cycle.
struct ColState {
    iters: usize,
    res_est: f64,
    converged: bool,
    breakdown: bool,
    beta: f64,
    done: bool,
}

/// Run one block FGMRES cycle of at most `ws.cycle_length()` iterations on
/// the `k` systems `A x_c = b_c` (column `c` of the column-major panels `xs`
/// and `bs`), updating `xs` in place and returning one
/// [`CycleOutcome`] per column.
///
/// Each column executes exactly the floating-point sequence of
/// [`fgmres_cycle`](crate::fgmres::fgmres_cycle) on its own system — same
/// Gram–Schmidt pairing, same Givens updates, same breakdown and tolerance
/// checks — while the SpMVs of all active columns fuse into one
/// [`ProblemMatrix::apply_multi`] pass and the flexible preconditioner is
/// applied panel-wise.  Kernel-counter records are replicated per column
/// (basis and BLAS-1 traffic really is per-column work; only the matrix
/// stream is shared, which [`KernelCounters::record_spmm`] attributes once
/// per batched pass).
///
/// # Panics
/// Panics if `k` exceeds `ws.max_columns()`, a panel is not `dim() * k`
/// elements long, or `abs_tols` is given with a length other than `k`.
pub fn block_fgmres_cycle<T: Scalar, S: Scalar>(
    params: BlockCycleParams<'_, T>,
    xs: &mut [T],
    bs: &[T],
    ws: &mut BlockFgmresWorkspace<T, S>,
    k: usize,
) -> Vec<CycleOutcome> {
    let BlockCycleParams {
        matrix,
        mat_storage,
        inner,
        abs_tols,
        x_nonzero,
        depth,
        counters,
    } = params;
    let n = ws.n;
    let m = ws.m;
    // Basis slots are strided by the workspace's column capacity, not the
    // call's column count, so a cycle on fewer columns reuses the workspace.
    let kw = ws.k;
    assert!(k <= kw, "block fgmres: more columns than the workspace holds");
    assert_eq!(xs.len(), n * k, "block fgmres: xs panel length mismatch");
    assert_eq!(bs.len(), n * k, "block fgmres: bs panel length mismatch");
    if let Some(tols) = abs_tols {
        assert_eq!(tols.len(), k, "block fgmres: one tolerance per column");
    }
    if k == 0 {
        return Vec::new();
    }
    let sp = S::PRECISION;
    let one_vec = TrafficModel::basis_bytes(n, 1, sp);
    // See `fgmres_cycle`: narrowing compression reads the source twice.
    let compress_reads = if sp == T::PRECISION { 1 } else { 2 };

    // r0 = b - A x per column (the residual SpMV is fused per column, as in
    // the single-RHS cycle; with a zero panel the copy suffices).
    if x_nonzero {
        for c in 0..k {
            matrix.residual(
                mat_storage,
                &xs[c * n..(c + 1) * n],
                &bs[c * n..(c + 1) * n],
                &mut ws.w[c * n..(c + 1) * n],
                counters,
            );
        }
    } else {
        ws.w[..n * k].copy_from_slice(bs);
    }
    let betas = blas1::norm2_panel(&ws.w[..n * k], k);
    for _ in 0..k {
        counters.record_blas1(T::PRECISION, TrafficModel::blas1_bytes(n, 1, 0, T::PRECISION));
    }

    let mut state: Vec<ColState> = Vec::with_capacity(k);
    for (c, &beta) in betas.iter().enumerate() {
        let mut st = ColState {
            iters: 0,
            res_est: beta,
            converged: false,
            breakdown: false,
            beta,
            done: false,
        };
        if !beta.is_finite() {
            st.res_est = f64::NAN;
            st.breakdown = true;
            st.done = true;
        } else if beta == 0.0 {
            // x_c already solves its system (or v_c = 0 for an inner level).
            st.converged = true;
            st.done = true;
        } else {
            // v_1 = r0 / beta, compressed on write; slot of (j = 0, c) is c.
            ws.basis.compress_scaled(c, 1.0 / beta, &ws.w[c * n..(c + 1) * n]);
            counters.record_blas1(
                T::PRECISION,
                TrafficModel::blas1_bytes(n, compress_reads, 0, T::PRECISION),
            );
            counters.record_basis_traffic(sp, 0, one_vec);
            ws.g[c].iter_mut().for_each(|v| *v = 0.0);
            ws.g[c][0] = beta;
        }
        state.push(st);
    }

    let mut active: Vec<usize> = Vec::with_capacity(k);
    for j in 0..m {
        active.clear();
        active.extend(
            state
                .iter()
                .enumerate()
                .filter(|(_, st)| !st.done)
                .map(|(c, _)| c),
        );
        let ka = active.len();
        if ka == 0 {
            break;
        }

        // Flexible preconditioning z_j = S^{(d+1)}(v_j) for every active
        // column, then ONE pass over A multiplies the whole panel.
        for (p, &c) in active.iter().enumerate() {
            ws.basis.decompress_into(j * kw + c, &mut ws.vj[p * n..(p + 1) * n]);
            counters.record_basis_traffic(sp, one_vec, 0);
            counters.record_blas1(T::PRECISION, TrafficModel::blas1_bytes(n, 0, 1, T::PRECISION));
        }
        inner.apply_panel(&ws.vj[..ka * n], &mut ws.zj[..ka * n], ka);
        matrix.apply_multi(mat_storage, &ws.zj[..ka * n], &mut ws.w[..ka * n], ka, counters);
        for (p, &c) in active.iter().enumerate() {
            ws.zbasis.compress_scaled(j * kw + c, 1.0, &ws.zj[p * n..(p + 1) * n]);
            counters.record_basis_traffic(sp, 0, one_vec);
            counters.record_blas1(
                T::PRECISION,
                TrafficModel::blas1_bytes(n, compress_reads, 0, T::PRECISION),
            );
        }

        // The rest of the iteration is per-column state; each column repeats
        // the single-RHS cycle verbatim against its own basis slots.
        for (p, &c) in active.iter().enumerate() {
            let st = &mut state[c];
            let wcol = &mut ws.w[p * n..(p + 1) * n];
            let hcol = &mut ws.h[c][j];

            // Classical Gram–Schmidt coefficients, paired exactly like the
            // single-RHS cycle (two stored basis vectors per fused sweep).
            let mut i = 0;
            while i < j {
                let (vi, si) = ws.basis.vector(i * kw + c);
                let (vi1, si1) = ws.basis.vector((i + 1) * kw + c);
                let (hi, hi1) = blas1::dot2_compressed(wcol, vi, si, vi1, si1);
                hcol[i] = hi;
                hcol[i + 1] = hi1;
                i += 2;
            }
            if i <= j {
                let (vi, si) = ws.basis.vector(i * kw + c);
                hcol[i] = blas1::dot_compressed(wcol, vi, si);
            }
            counters.record_blas1(
                T::PRECISION,
                TrafficModel::blas1_bytes(n, j + 1, 0, T::PRECISION),
            );
            counters.record_basis_traffic(sp, TrafficModel::basis_bytes(n, j + 1, sp), 0);
            // Orthogonalisation; the last update is fused with the norm.
            for (i, &hi) in hcol.iter().enumerate().take(j) {
                let (vi, si) = ws.basis.vector(i * kw + c);
                blas1::axpy_scaled_from(-hi, vi, si, wcol);
            }
            let hnext = {
                let (vjs, sj) = ws.basis.vector(j * kw + c);
                blas1::axpy_scaled_norm2(-hcol[j], vjs, sj, wcol).sqrt()
            };
            counters.record_blas1(
                T::PRECISION,
                TrafficModel::blas1_bytes(n, j + 1, j + 1, T::PRECISION),
            );
            counters.record_basis_traffic(sp, TrafficModel::basis_bytes(n, j + 1, sp), 0);
            hcol[j + 1] = hnext;

            // Givens update of this column's Hessenberg factorisation.
            for i in 0..j {
                let (cr, sr) = (ws.cs[c][i], ws.sn[c][i]);
                let tmp = cr * hcol[i] + sr * hcol[i + 1];
                hcol[i + 1] = -sr * hcol[i] + cr * hcol[i + 1];
                hcol[i] = tmp;
            }
            let (cr, sr) = givens(hcol[j], hcol[j + 1]);
            ws.cs[c][j] = cr;
            ws.sn[c][j] = sr;
            hcol[j] = cr * hcol[j] + sr * hcol[j + 1];
            hcol[j + 1] = 0.0;
            ws.g[c][j + 1] = -sr * ws.g[c][j];
            ws.g[c][j] *= cr;
            st.res_est = ws.g[c][j + 1].abs();
            st.iters = j + 1;

            if !st.res_est.is_finite() || !hnext.is_finite() {
                st.breakdown = true;
                st.done = true;
                continue;
            }
            if hnext <= f64::EPSILON * st.beta {
                // Lucky breakdown: this column's Krylov space is invariant.
                st.breakdown = true;
                st.converged = abs_tols.is_none_or(|t| st.res_est <= t[c]);
                st.done = true;
                continue;
            }
            ws.basis
                .compress_scaled((j + 1) * kw + c, 1.0 / hnext, wcol);
            counters.record_blas1(
                T::PRECISION,
                TrafficModel::blas1_bytes(n, compress_reads, 0, T::PRECISION),
            );
            counters.record_basis_traffic(sp, 0, one_vec);

            if let Some(tols) = abs_tols {
                if st.res_est <= tols[c] {
                    st.converged = true;
                    st.done = true;
                }
            }
        }
    }
    for st in &state {
        counters.record_level_iterations(depth, st.iters as u64);
    }

    // Per-column solution update x_c += Z_c y_c over the iterations that
    // column actually completed.
    for (c, st) in state.iter().enumerate() {
        let iters = st.iters;
        if iters == 0 {
            continue;
        }
        {
            let y = &mut ws.y[c][..iters];
            for i in (0..iters).rev() {
                let mut sum = ws.g[c][i];
                for (hk, &yk) in ws.h[c][(i + 1)..iters].iter().zip(y[(i + 1)..iters].iter()) {
                    sum -= hk[i] * yk;
                }
                let rii = ws.h[c][i][i];
                y[i] = if rii.abs() > 0.0 { sum / rii } else { 0.0 };
            }
        }
        let xcol = &mut xs[c * n..(c + 1) * n];
        for (i, &yi) in ws.y[c][..iters].iter().enumerate() {
            let (zi, si) = ws.zbasis.vector(i * kw + c);
            blas1::axpy_scaled_from(yi, zi, si, xcol);
        }
        counters.record_blas1(
            T::PRECISION,
            TrafficModel::blas1_bytes(n, iters, iters, T::PRECISION),
        );
        counters.record_basis_traffic(sp, TrafficModel::basis_bytes(n, iters, sp), 0);
    }

    state
        .into_iter()
        .map(|st| CycleOutcome {
            iterations: st.iters,
            residual_estimate: st.res_est,
            converged: st.converged,
            breakdown: st.breakdown,
            stopped: false,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fgmres::{fgmres_cycle, CycleParams, FgmresWorkspace};
    use crate::inner::PrecondInner;
    use crate::precond_any::AnyPrecond;
    use f3r_precision::f16;
    use f3r_precond::PrecondKind;
    use f3r_sparse::gen::laplacian::poisson2d_5pt;
    use f3r_sparse::gen::rhs::random_rhs;
    use f3r_sparse::scaling::jacobi_scale;
    use std::sync::Arc;

    fn setup(nx: usize) -> (Arc<ProblemMatrix>, Arc<AnyPrecond>) {
        let a = jacobi_scale(&poisson2d_5pt(nx, nx));
        let m = Arc::new(AnyPrecond::build(
            &a,
            &PrecondKind::Ilu0 { alpha: 1.0 },
            Precision::Fp64,
        ));
        (Arc::new(ProblemMatrix::from_csr(a)), m)
    }

    fn block_vs_sequential<S: Scalar>(nx: usize, m: usize, k: usize, abs_tol: Option<f64>) {
        let (pm, mp) = setup(nx);
        let n = pm.dim();
        let storage = MatrixStorage::Plain(Precision::Fp64);
        let bs: Vec<Vec<f64>> = (0..k).map(|c| random_rhs(n, 31 + c as u64)).collect();

        // Sequential reference: one fresh single-RHS cycle per column.
        let mut refs = Vec::new();
        let mut ref_outcomes = Vec::new();
        for b in &bs {
            let counters = KernelCounters::new_shared();
            let mut inner = PrecondInner::<f64>::new(Arc::clone(&mp), Arc::clone(&counters), 2);
            let mut ws = FgmresWorkspace::<f64, S>::new(n, m);
            let mut x = vec![0.0f64; n];
            let out = fgmres_cycle(
                CycleParams {
                    matrix: &pm,
                    mat_storage: storage,
                    inner: &mut inner,
                    abs_tol,
                    x_nonzero: false,
                    depth: 1,
                    counters: &counters,
                    progress: None,
                },
                &mut x,
                b,
                &mut ws,
            );
            refs.push(x);
            ref_outcomes.push(out);
        }

        // Block run over the packed panel.
        let counters = KernelCounters::new_shared();
        let mut inner = PrecondInner::<f64>::new(Arc::clone(&mp), Arc::clone(&counters), 2);
        let mut bws = BlockFgmresWorkspace::<f64, S>::new(n, m, k);
        let mut bp = vec![0.0f64; n * k];
        for (c, b) in bs.iter().enumerate() {
            bp[c * n..(c + 1) * n].copy_from_slice(b);
        }
        let mut xp = vec![0.0f64; n * k];
        let tols = abs_tol.map(|t| vec![t; k]);
        let outcomes = block_fgmres_cycle(
            BlockCycleParams {
                matrix: &pm,
                mat_storage: storage,
                inner: &mut inner,
                abs_tols: tols.as_deref(),
                x_nonzero: false,
                depth: 1,
                counters: &counters,
            },
            &mut xp,
            &bp,
            &mut bws,
            k,
        );

        assert_eq!(outcomes.len(), k);
        for c in 0..k {
            assert_eq!(outcomes[c], ref_outcomes[c], "outcome of column {c}");
            assert_eq!(
                &xp[c * n..(c + 1) * n],
                &refs[c][..],
                "solution column {c} must be bitwise equal to the sequential cycle"
            );
        }
    }

    #[test]
    fn block_cycle_columns_are_bitwise_equal_to_sequential_cycles() {
        block_vs_sequential::<f64>(10, 12, 3, None);
        block_vs_sequential::<f64>(8, 20, 5, Some(1e-8));
    }

    #[test]
    fn block_cycle_with_compressed_basis_matches_sequential() {
        block_vs_sequential::<f16>(9, 10, 4, None);
        block_vs_sequential::<f32>(7, 15, 2, Some(1e-6));
    }

    #[test]
    fn mid_cycle_deflation_leaves_survivors_untouched() {
        // Column 0 gets a zero RHS (converges at init), the others run: the
        // survivors must still match their sequential references exactly.
        let (pm, mp) = setup(9);
        let n = pm.dim();
        let storage = MatrixStorage::Plain(Precision::Fp64);
        let k = 3;
        let m = 10;
        let mut bs: Vec<Vec<f64>> = (0..k).map(|c| random_rhs(n, 71 + c as u64)).collect();
        bs[0].iter_mut().for_each(|v| *v = 0.0);

        let counters = KernelCounters::new_shared();
        let mut inner = PrecondInner::<f64>::new(Arc::clone(&mp), Arc::clone(&counters), 2);
        let mut bws = BlockFgmresWorkspace::<f64>::new(n, m, k);
        let mut bp = vec![0.0f64; n * k];
        for (c, b) in bs.iter().enumerate() {
            bp[c * n..(c + 1) * n].copy_from_slice(b);
        }
        let mut xp = vec![0.0f64; n * k];
        let outcomes = block_fgmres_cycle(
            BlockCycleParams {
                matrix: &pm,
                mat_storage: storage,
                inner: &mut inner,
                abs_tols: None,
                x_nonzero: false,
                depth: 1,
                counters: &counters,
            },
            &mut xp,
            &bp,
            &mut bws,
            k,
        );
        assert!(outcomes[0].converged);
        assert_eq!(outcomes[0].iterations, 0);
        assert!(xp[..n].iter().all(|&v| v == 0.0));
        for c in 1..k {
            let ref_counters = KernelCounters::new_shared();
            let mut ref_inner =
                PrecondInner::<f64>::new(Arc::clone(&mp), Arc::clone(&ref_counters), 2);
            let mut ws = FgmresWorkspace::<f64>::new(n, m);
            let mut x = vec![0.0f64; n];
            let out = fgmres_cycle(
                CycleParams {
                    matrix: &pm,
                    mat_storage: storage,
                    inner: &mut ref_inner,
                    abs_tol: None,
                    x_nonzero: false,
                    depth: 1,
                    counters: &ref_counters,
                    progress: None,
                },
                &mut x,
                &bs[c],
                &mut ws,
            );
            assert_eq!(outcomes[c], out, "column {c}");
            assert_eq!(&xp[c * n..(c + 1) * n], &x[..], "column {c}");
        }
    }

    #[test]
    fn one_spmm_per_iteration_amortizes_the_matrix_stream() {
        let (pm, mp) = setup(8);
        let n = pm.dim();
        let k = 4;
        let m = 6;
        let counters = KernelCounters::new_shared();
        let mut inner = PrecondInner::<f64>::new(mp, Arc::clone(&counters), 2);
        let mut bws = BlockFgmresWorkspace::<f64>::new(n, m, k);
        let mut bp = vec![0.0f64; n * k];
        for c in 0..k {
            bp[c * n..(c + 1) * n].copy_from_slice(&random_rhs(n, 5 + c as u64));
        }
        let mut xp = vec![0.0f64; n * k];
        let _ = block_fgmres_cycle(
            BlockCycleParams {
                matrix: &pm,
                mat_storage: MatrixStorage::Plain(Precision::Fp64),
                inner: &mut inner,
                abs_tols: None,
                x_nonzero: false,
                depth: 1,
                counters: &counters,
            },
            &mut xp,
            &bp,
            &mut bws,
            k,
        );
        let snap = counters.snapshot();
        // All m iterations ran with the full panel: m SpMM passes, each
        // streaming the matrix once for k columns.
        assert_eq!(snap.total_spmm(), m as u64);
        assert_eq!(snap.spmm_columns_total(), (m * k) as u64);
    }

    #[test]
    fn workspace_geometry_accessors() {
        let ws = BlockFgmresWorkspace::<f32, f16>::new(12, 5, 3);
        assert_eq!(ws.dim(), 12);
        assert_eq!(ws.cycle_length(), 5);
        assert_eq!(ws.max_columns(), 3);
        assert_eq!(ws.basis_precision(), Precision::Fp16);
    }

    #[test]
    #[should_panic(expected = "block fgmres: more columns than the workspace holds")]
    fn too_many_columns_panics() {
        let (pm, mp) = setup(4);
        let n = pm.dim();
        let counters = KernelCounters::new_shared();
        let mut inner = PrecondInner::<f64>::new(mp, Arc::clone(&counters), 2);
        let mut bws = BlockFgmresWorkspace::<f64>::new(n, 3, 2);
        let mut xp = vec![0.0f64; n * 3];
        let bp = vec![0.0f64; n * 3];
        let _ = block_fgmres_cycle(
            BlockCycleParams {
                matrix: &pm,
                mat_storage: MatrixStorage::Plain(Precision::Fp64),
                inner: &mut inner,
                abs_tols: None,
                x_nonzero: false,
                depth: 1,
                counters: &counters,
            },
            &mut xp,
            &bp,
            &mut bws,
            3,
        );
    }
}
