//! Elasticity-like block stencil generator.
//!
//! Synthetic analogue for the heavy SPD SuiteSparse matrices of Table 2
//! (`audikw_1`, `Bump_2911`, `Emilia_923`, `Serena`, `Queen_4147`, `ldoor`)
//! which come from 3-D solid-mechanics discretisations with ~44–82 nonzeros
//! per row and three degrees of freedom per mesh node.  The generator places
//! a 3×3 SPD coupling block on every edge of a 27-point grid stencil:
//!
//! `A = Σ_{(i,j) edge} (e_i - e_j)(e_i - e_j)ᵀ ⊗ B + δ I`
//!
//! with a fixed SPD block `B`, which is symmetric positive definite by
//! construction and reaches ~81 nonzeros per interior row.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;

/// 3×3 SPD coupling block used on every stencil edge (unit diagonal with mild
/// off-diagonal coupling; eigenvalues ≈ {0.8, 0.9, 1.3}).
const B: [[f64; 3]; 3] = [[1.0, 0.2, 0.1], [0.2, 1.0, 0.15], [0.1, 0.15, 1.0]];

/// Build an elasticity-like SPD matrix with 3 degrees of freedom per node of
/// an `nx × ny × nz` grid and 27-point node connectivity.
///
/// `regularization` (the paper analogue of conditioning difficulty) is the
/// δ added to the diagonal; smaller values give harder systems.  The matrix
/// dimension is `3 * nx * ny * nz`.
#[must_use]
pub fn elasticity_like_3d(nx: usize, ny: usize, nz: usize, regularization: f64) -> CsrMatrix<f64> {
    assert!(nx > 0 && ny > 0 && nz > 0, "grid dimensions must be positive");
    assert!(regularization >= 0.0, "regularization must be non-negative");
    let nodes = nx * ny * nz;
    let n = 3 * nodes;
    let idx = |ix: usize, iy: usize, iz: usize| (iz * ny + iy) * nx + ix;
    let mut coo = CooMatrix::with_capacity(n, n, 81 * nodes + 3 * nodes);

    // Graph-Laplacian-of-blocks assembly: every undirected edge (i, j)
    // contributes +B to the (i,i) and (j,j) diagonal blocks and -B to the
    // (i,j) and (j,i) off-diagonal blocks.
    for iz in 0..nz {
        for iy in 0..ny {
            for ix in 0..nx {
                let i = idx(ix, iy, iz);
                // diagonal regularisation
                for d in 0..3 {
                    coo.push(3 * i + d, 3 * i + d, regularization);
                }
                for dz in -1i64..=1 {
                    for dy in -1i64..=1 {
                        for dx in -1i64..=1 {
                            if dx == 0 && dy == 0 && dz == 0 {
                                continue;
                            }
                            let jx = ix as i64 + dx;
                            let jy = iy as i64 + dy;
                            let jz = iz as i64 + dz;
                            if jx < 0
                                || jy < 0
                                || jz < 0
                                || jx >= nx as i64
                                || jy >= ny as i64
                                || jz >= nz as i64
                            {
                                continue;
                            }
                            let j = idx(jx as usize, jy as usize, jz as usize);
                            // each directed pair handled once from the row side:
                            // add +B to diagonal block of i and -B to block (i, j)
                            for (r, brow) in B.iter().enumerate() {
                                for (c, &bval) in brow.iter().enumerate() {
                                    coo.push(3 * i + r, 3 * i + c, bval);
                                    coo.push(3 * i + r, 3 * j + c, -bval);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv::spmv;

    #[test]
    fn dimension_and_density_match_audikw_character() {
        let a = elasticity_like_3d(4, 4, 4, 0.1);
        assert_eq!(a.n_rows(), 3 * 64);
        // interior node: 26 neighbours × 3 + own block 3 = 81 entries per row
        let interior_node = (4 + 1) * 4 + 1;
        let (cols, _) = a.row_entries(3 * interior_node);
        assert_eq!(cols.len(), 81);
        assert!(a.nnz_per_row() > 40.0, "nnz/row = {}", a.nnz_per_row());
    }

    #[test]
    fn matrix_is_symmetric() {
        let a = elasticity_like_3d(3, 3, 3, 0.05);
        assert!(a.is_symmetric(1e-12));
    }

    #[test]
    fn matrix_is_positive_definite_on_random_vectors() {
        let a = elasticity_like_3d(3, 3, 2, 0.1);
        let n = a.n_rows();
        for seed in 1..6u64 {
            let x: Vec<f64> = (0..n)
                .map(|i| {
                    let h = (i as u64).wrapping_mul(seed.wrapping_mul(0x9E3779B97F4A7C15));
                    ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5
                })
                .collect();
            let mut ax = vec![0.0; n];
            spmv(&a, &x, &mut ax);
            let xtax: f64 = x.iter().zip(ax.iter()).map(|(a, b)| a * b).sum();
            assert!(xtax > 0.0, "seed {seed}: x^T A x = {xtax}");
        }
    }

    #[test]
    fn smaller_regularization_means_smaller_diagonal() {
        let hard = elasticity_like_3d(3, 3, 3, 0.01);
        let easy = elasticity_like_3d(3, 3, 3, 1.0);
        assert!(easy.get(0, 0).unwrap() > hard.get(0, 0).unwrap());
    }
}
