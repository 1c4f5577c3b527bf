//! Block-Jacobi wrapper around a per-block factorisation.
//!
//! Section 5.1 of the paper uses "a block-Jacobi ILU(0) (or IC(0) when
//! symmetric) preconditioner ... for multi-threading", with one block per
//! hardware thread (112 blocks on the Camphor 3 node).  The same structure is
//! reproduced here: the row range is split into `n_blocks` contiguous blocks,
//! each diagonal block is factorised independently, and applications run the
//! per-block triangular solves as parallel tasks on the persistent
//! `f3r-parallel` worker pool.

use f3r_precision::Scalar;
use f3r_sparse::CsrMatrix;

use crate::ic0::Ic0Precond;
use crate::ilu0::Ilu0Precond;
use crate::traits::Preconditioner;
use crate::trisolve::{solve_panel, TriangularSolve};

/// Block-Jacobi preconditioner composed of independent per-block solvers.
pub struct BlockJacobiPrecond<P> {
    blocks: Vec<P>,
    offsets: Vec<usize>,
    n: usize,
    nnz: usize,
    kind: &'static str,
}

/// Compute contiguous block offsets splitting `n` rows into `n_blocks`
/// near-equal blocks (the first `n % n_blocks` blocks get one extra row).
fn block_offsets(n: usize, n_blocks: usize) -> Vec<usize> {
    let n_blocks = n_blocks.clamp(1, n.max(1));
    let base = n / n_blocks;
    let extra = n % n_blocks;
    let mut offsets = Vec::with_capacity(n_blocks + 1);
    let mut pos = 0;
    offsets.push(0);
    for b in 0..n_blocks {
        pos += base + usize::from(b < extra);
        offsets.push(pos);
    }
    offsets
}

impl<T: Scalar> BlockJacobiPrecond<Ilu0Precond<T>> {
    /// Block-Jacobi ILU(0) with `n_blocks` blocks and α_ILU diagonal boost
    /// `alpha` applied inside each block factorisation.
    #[must_use]
    pub fn ilu0(a: &CsrMatrix<f64>, n_blocks: usize, alpha: f64) -> Self {
        Self::build(a, n_blocks, "block-Jacobi ILU(0)", |block| {
            Ilu0Precond::<T>::new(block, alpha)
        })
    }
}

impl<T: Scalar> BlockJacobiPrecond<Ic0Precond<T>> {
    /// Block-Jacobi IC(0) with `n_blocks` blocks and α diagonal boost
    /// `alpha` applied inside each block factorisation.
    #[must_use]
    pub fn ic0(a: &CsrMatrix<f64>, n_blocks: usize, alpha: f64) -> Self {
        Self::build(a, n_blocks, "block-Jacobi IC(0)", |block| {
            Ic0Precond::<T>::new(block, alpha)
        })
    }
}

impl<P> BlockJacobiPrecond<P> {
    fn build<T: Scalar>(
        a: &CsrMatrix<f64>,
        n_blocks: usize,
        kind: &'static str,
        factorise: impl Fn(&CsrMatrix<f64>) -> P + Sync,
    ) -> Self
    where
        P: Preconditioner<T>,
    {
        assert!(a.is_square(), "block-Jacobi requires a square matrix");
        let n = a.n_rows();
        let offsets = block_offsets(n, n_blocks);
        let windows: Vec<(usize, usize)> = offsets.windows(2).map(|w| (w[0], w[1])).collect();
        let blocks: Vec<P> =
            f3r_parallel::par_map(&windows, |_, &(lo, hi)| factorise(&a.diagonal_block(lo, hi)));
        let nnz = blocks.iter().map(Preconditioner::nnz).sum();
        Self {
            blocks,
            offsets,
            n,
            nnz,
            kind,
        }
    }

    /// Number of blocks.
    #[must_use]
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }
}

/// Total rows below which block applications run sequentially, shared with
/// the kernel layer's threshold table: small systems (where a triangular
/// solve is microseconds) must not pay even the pool's dispatch cost on
/// every `M` application.
use f3r_parallel::thresholds::PAR_BLOCK_ROW_THRESHOLD;

impl<T: Scalar, P: Preconditioner<T> + TriangularSolve<T>> Preconditioner<T> for BlockJacobiPrecond<P> {
    fn apply(&self, r: &[T], z: &mut [T]) {
        assert_eq!(r.len(), self.n, "block-Jacobi: length mismatch");
        assert_eq!(z.len(), self.n, "block-Jacobi: length mismatch");
        if self.n < PAR_BLOCK_ROW_THRESHOLD {
            for (b, w) in self.offsets.windows(2).enumerate() {
                self.blocks[b].apply(&r[w[0]..w[1]], &mut z[w[0]..w[1]]);
            }
            return;
        }
        f3r_parallel::par_parts_mut(z, &self.offsets, |b, z_block| {
            self.blocks[b].apply(&r[self.offsets[b]..self.offsets[b + 1]], z_block);
        });
    }

    fn apply_panel(&self, r: &[T], z: &mut [T], k: usize) {
        assert_eq!(r.len(), self.n * k, "block-Jacobi: panel length mismatch");
        assert_eq!(z.len(), self.n * k, "block-Jacobi: panel length mismatch");
        // SAFETY: each block task writes rows of its own block only, in every
        // column, and the batch completes inside this borrow of `z`.
        let z = unsafe { f3r_parallel::SyncPtr::new(z.as_mut_ptr()) };
        let solve_blocks = |blocks: std::ops::Range<usize>| {
            for b in blocks {
                // SAFETY: block `b` owns rows `offsets[b] .. offsets[b + 1]`
                // of every column, `k` columns of `n` fit in `z`, and each
                // block belongs to exactly one task.
                unsafe { solve_panel(&self.blocks[b], r, z.get(), self.n, self.offsets[b], k) };
            }
        };
        // A panel application costs about one single application, so the
        // same row count decides whether the blocks go to the pool.
        if self.n < PAR_BLOCK_ROW_THRESHOLD {
            solve_blocks(0..self.blocks.len());
        } else {
            f3r_parallel::par_ranges(self.blocks.len(), 1, solve_blocks);
        }
    }

    fn dim(&self) -> usize {
        self.n
    }

    fn nnz(&self) -> usize {
        self.nnz
    }

    fn name(&self) -> String {
        format!("{} x{} ({})", self.kind, self.blocks.len(), T::name())
    }

    fn storage_bytes(&self) -> u64 {
        // The per-block factors plus the block-offset table.
        self.blocks.iter().map(P::storage_bytes).sum::<u64>()
            + std::mem::size_of_val(&self.offsets[..]) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f3r_sparse::gen::hpcg::hpcg_matrix;
    use f3r_sparse::gen::hpgmp_matrix;
    use f3r_sparse::gen::laplacian::poisson2d_5pt;
    use f3r_sparse::spmv::spmv;

    #[test]
    fn offsets_cover_all_rows() {
        assert_eq!(block_offsets(10, 3), vec![0, 4, 7, 10]);
        assert_eq!(block_offsets(9, 3), vec![0, 3, 6, 9]);
        assert_eq!(block_offsets(5, 8), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(block_offsets(4, 1), vec![0, 4]);
    }

    #[test]
    fn single_block_matches_plain_ilu0() {
        let a = poisson2d_5pt(8, 8);
        let n = a.n_rows();
        let bj = BlockJacobiPrecond::<Ilu0Precond<f64>>::ilu0(&a, 1, 1.0);
        let plain = Ilu0Precond::<f64>::new(&a, 1.0);
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut z1 = vec![0.0; n];
        let mut z2 = vec![0.0; n];
        bj.apply(&r, &mut z1);
        plain.apply(&r, &mut z2);
        for i in 0..n {
            assert!((z1[i] - z2[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn multi_block_still_reduces_residual() {
        let a = hpcg_matrix(6, 6, 6);
        let n = a.n_rows();
        let bj = BlockJacobiPrecond::<Ic0Precond<f64>>::ic0(&a, 8, 1.0);
        assert_eq!(bj.n_blocks(), 8);
        let r: Vec<f64> = (0..n).map(|i| ((i * 13) % 29) as f64 / 29.0).collect();
        let mut z = vec![0.0; n];
        bj.apply(&r, &mut z);
        let mut az = vec![0.0; n];
        spmv(&a, &z, &mut az);
        let err: f64 = r.iter().zip(&az).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        let rnorm: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err < rnorm, "block-Jacobi should reduce the residual");
    }

    #[test]
    fn more_blocks_weaker_but_cheaper() {
        // With more blocks the preconditioner drops more couplings, so the
        // preconditioned residual should (weakly) increase.
        let a = poisson2d_5pt(16, 16);
        let n = a.n_rows();
        let r: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64 / 11.0).collect();
        let residual_after = |blocks: usize| {
            let bj = BlockJacobiPrecond::<Ilu0Precond<f64>>::ilu0(&a, blocks, 1.0);
            let mut z = vec![0.0; n];
            bj.apply(&r, &mut z);
            let mut az = vec![0.0; n];
            spmv(&a, &z, &mut az);
            r.iter().zip(&az).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt()
        };
        let e1 = residual_after(1);
        let e16 = residual_after(16);
        assert!(e1 <= e16 + 1e-12, "1 block {e1} should beat 16 blocks {e16}");
    }

    #[test]
    fn fp16_block_jacobi_is_finite() {
        use half::f16;
        let a = poisson2d_5pt(10, 10);
        let n = a.n_rows();
        let bj = BlockJacobiPrecond::<Ilu0Precond<f16>>::ilu0(&a, 4, 1.0);
        let r: Vec<f16> = (0..n).map(|i| f16::from_f32((i % 5) as f32 * 0.1)).collect();
        let mut z = vec![f16::from_f32(0.0); n];
        bj.apply(&r, &mut z);
        assert!(z.iter().all(|v| v.is_finite()));
        assert!(bj.name().contains("fp16"));
    }

    #[test]
    fn panel_apply_is_bitwise_the_single_applications() {
        use crate::trisolve::testing;
        // 7 blocks over 2 324 and 512 rows: uneven blocks, inline.
        let (spd, general) = (testing::ragged(true), hpgmp_matrix(8, 8, 8, 0.5));
        testing::assert_panel_is_the_column_loop(&BlockJacobiPrecond::<Ic0Precond<half::f16>>::ic0(&spd, 7, 1.0));
        testing::assert_panel_is_the_column_loop(&BlockJacobiPrecond::<Ic0Precond<f32>>::ic0(&spd, 7, 1.0));
        testing::assert_panel_is_the_column_loop(&BlockJacobiPrecond::<Ilu0Precond<half::f16>>::ilu0(&general, 7, 1.0));
        testing::assert_panel_is_the_column_loop(&BlockJacobiPrecond::<Ilu0Precond<f64>>::ilu0(&general, 7, 1.0));
    }

    #[test]
    fn storage_bytes_is_the_blocks_plus_the_offset_table() {
        let a = poisson2d_5pt(10, 10);
        let offsets_bytes = |offsets: &[usize]| std::mem::size_of_val(offsets) as u64;
        let ic = BlockJacobiPrecond::<Ic0Precond<f32>>::ic0(&a, 4, 1.0);
        let blocks: u64 = ic.blocks.iter().map(Preconditioner::storage_bytes).sum();
        assert_eq!(ic.storage_bytes(), blocks + offsets_bytes(&ic.offsets));
        let ilu = BlockJacobiPrecond::<Ilu0Precond<half::f16>>::ilu0(&a, 4, 1.0);
        let blocks: u64 = ilu.blocks.iter().map(Preconditioner::storage_bytes).sum();
        assert_eq!(ilu.storage_bytes(), blocks + offsets_bytes(&ilu.offsets));
    }
}
