//! Poisson / anisotropic Laplacian stencil generators.
//!
//! These serve as synthetic analogues for the low `nnz/row` SuiteSparse
//! matrices in Table 2 of the paper (`G3_circuit`, `ecology2`, `thermal2`,
//! `tmt_sym`, `apache2`, `t2em`, …), all of which are SPD matrices of 2-D/3-D
//! diffusion type with roughly 5–7 nonzeros per row.  The anisotropic
//! variants produce the slower-converging behaviour of the harder members of
//! that family.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;

/// 2-D Poisson equation, 5-point stencil, Dirichlet boundary, on an
/// `nx × ny` grid.  SPD with 5 nonzeros per interior row.
#[must_use]
pub fn poisson2d_5pt(nx: usize, ny: usize) -> CsrMatrix<f64> {
    assert!(nx > 0 && ny > 0, "grid dimensions must be positive");
    let n = nx * ny;
    let idx = |ix: usize, iy: usize| iy * nx + ix;
    let mut coo = CooMatrix::with_capacity(n, n, 5 * n);
    for iy in 0..ny {
        for ix in 0..nx {
            let row = idx(ix, iy);
            coo.push(row, row, 4.0);
            if ix > 0 {
                coo.push(row, idx(ix - 1, iy), -1.0);
            }
            if ix + 1 < nx {
                coo.push(row, idx(ix + 1, iy), -1.0);
            }
            if iy > 0 {
                coo.push(row, idx(ix, iy - 1), -1.0);
            }
            if iy + 1 < ny {
                coo.push(row, idx(ix, iy + 1), -1.0);
            }
        }
    }
    coo.to_csr()
}

/// 3-D Poisson equation, 7-point stencil, Dirichlet boundary, on an
/// `nx × ny × nz` grid.  SPD with 7 nonzeros per interior row.
#[must_use]
pub fn poisson3d_7pt(nx: usize, ny: usize, nz: usize) -> CsrMatrix<f64> {
    anisotropic_poisson_3d(nx, ny, nz, 1.0, 1.0, 1.0)
}

/// 3-D anisotropic Poisson operator with per-axis diffusion coefficients
/// `(eps_x, eps_y, eps_z)`: `-eps_x u_xx - eps_y u_yy - eps_z u_zz`.
///
/// Strong anisotropy (e.g. `eps_z = 1e-3`) yields the slowly converging,
/// thin-spectrum behaviour of matrices like `thermal2` or `ecology2`.
#[must_use]
pub fn anisotropic_poisson_3d(
    nx: usize,
    ny: usize,
    nz: usize,
    eps_x: f64,
    eps_y: f64,
    eps_z: f64,
) -> CsrMatrix<f64> {
    assert!(nx > 0 && ny > 0 && nz > 0, "grid dimensions must be positive");
    assert!(
        eps_x > 0.0 && eps_y > 0.0 && eps_z > 0.0,
        "diffusion coefficients must be positive"
    );
    let n = nx * ny * nz;
    let idx = |ix: usize, iy: usize, iz: usize| (iz * ny + iy) * nx + ix;
    let mut coo = CooMatrix::with_capacity(n, n, 7 * n);
    let diag = 2.0 * (eps_x + eps_y + eps_z);
    for iz in 0..nz {
        for iy in 0..ny {
            for ix in 0..nx {
                let row = idx(ix, iy, iz);
                coo.push(row, row, diag);
                if ix > 0 {
                    coo.push(row, idx(ix - 1, iy, iz), -eps_x);
                }
                if ix + 1 < nx {
                    coo.push(row, idx(ix + 1, iy, iz), -eps_x);
                }
                if iy > 0 {
                    coo.push(row, idx(ix, iy - 1, iz), -eps_y);
                }
                if iy + 1 < ny {
                    coo.push(row, idx(ix, iy + 1, iz), -eps_y);
                }
                if iz > 0 {
                    coo.push(row, idx(ix, iy, iz - 1), -eps_z);
                }
                if iz + 1 < nz {
                    coo.push(row, idx(ix, iy, iz + 1), -eps_z);
                }
            }
        }
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson2d_structure() {
        let a = poisson2d_5pt(10, 10);
        assert_eq!(a.n_rows(), 100);
        assert!(a.is_symmetric(1e-14));
        // interior row has 5 entries
        let (cols, _) = a.row_entries(5 * 10 + 5);
        assert_eq!(cols.len(), 5);
        assert_eq!(a.get(55, 55), Some(4.0));
    }

    #[test]
    fn poisson3d_structure() {
        let a = poisson3d_7pt(5, 5, 5);
        assert_eq!(a.n_rows(), 125);
        assert!(a.is_symmetric(1e-14));
        let mid = (2 * 5 + 2) * 5 + 2;
        let (cols, _) = a.row_entries(mid);
        assert_eq!(cols.len(), 7);
        assert_eq!(a.get(mid, mid), Some(6.0));
    }

    #[test]
    fn anisotropic_diag_reflects_coefficients() {
        let a = anisotropic_poisson_3d(4, 4, 4, 1.0, 1.0, 1e-3);
        let mid = (4 + 1) * 4 + 1;
        assert!((a.get(mid, mid).unwrap() - 2.0 * (1.0 + 1.0 + 1e-3)).abs() < 1e-14);
        assert!(a.is_symmetric(1e-14));
    }

    #[test]
    fn spd_check_via_rayleigh_quotient() {
        // x^T A x > 0 for a handful of pseudo-random vectors.
        let a = poisson2d_5pt(8, 8);
        let n = a.n_rows();
        for seed in 1..5u64 {
            let x: Vec<f64> = (0..n)
                .map(|i| (((i as u64).wrapping_mul(seed * 2654435761) % 1000) as f64 / 1000.0) - 0.5)
                .collect();
            let mut ax = vec![0.0; n];
            crate::spmv::spmv(&a, &x, &mut ax);
            let xtax: f64 = x.iter().zip(ax.iter()).map(|(a, b)| a * b).sum();
            assert!(xtax > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn nonpositive_coefficient_panics() {
        let _ = anisotropic_poisson_3d(4, 4, 4, 1.0, 0.0, 1.0);
    }
}
