//! Random sparse matrix generators (seeded, reproducible).
//!
//! Used by property-based tests and as analogues of the irregular circuit /
//! device matrices in Table 2 (`Freescale1`, `rajat31`, `ss`,
//! `vas_stokes_*`), which combine low average `nnz/row` with irregular row
//! lengths and (for the Stokes family) poor conditioning.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;

/// Random sparse symmetric positive definite matrix of dimension `n` with
/// roughly `nnz_per_row` off-diagonal entries per row.
///
/// Construction: random symmetric off-diagonal pattern with entries in
/// `[-1, 0)`, plus a diagonal equal to the off-diagonal row sum magnitude
/// plus `diag_boost`, which makes the matrix strictly diagonally dominant and
/// hence SPD.  Smaller `diag_boost` gives harder systems.
#[must_use]
pub fn random_spd(n: usize, nnz_per_row: usize, diag_boost: f64, seed: u64) -> CsrMatrix<f64> {
    assert!(n > 0, "dimension must be positive");
    assert!(diag_boost > 0.0, "diag_boost must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::with_capacity(n, n, n * (nnz_per_row + 1));
    let mut off_sum = vec![0.0f64; n];
    let target_per_row = nnz_per_row.max(1) / 2; // each edge contributes to two rows
    for i in 0..n {
        for _ in 0..target_per_row {
            let j = rng.gen_range(0..n);
            if j == i {
                continue;
            }
            let v = -rng.gen_range(0.0..1.0f64);
            coo.push_sym(i, j, v);
            off_sum[i] += v.abs();
            off_sum[j] += v.abs();
        }
    }
    for (i, &s) in off_sum.iter().enumerate() {
        coo.push(i, i, s + diag_boost);
    }
    coo.to_csr()
}

/// Random sparse nonsymmetric, diagonally dominant matrix of dimension `n`
/// with roughly `nnz_per_row` off-diagonal entries per row.
#[must_use]
pub fn random_nonsymmetric(n: usize, nnz_per_row: usize, diag_boost: f64, seed: u64) -> CsrMatrix<f64> {
    assert!(n > 0, "dimension must be positive");
    assert!(diag_boost > 0.0, "diag_boost must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::with_capacity(n, n, n * (nnz_per_row + 1));
    for i in 0..n {
        let mut row_sum = 0.0f64;
        for _ in 0..nnz_per_row.max(1) {
            let j = rng.gen_range(0..n);
            if j == i {
                continue;
            }
            let v: f64 = rng.gen_range(-1.0..1.0);
            coo.push(i, j, v);
            row_sum += v.abs();
        }
        coo.push(i, i, row_sum + diag_boost);
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv::spmv;

    #[test]
    fn random_spd_is_symmetric_and_positive_definite() {
        let a = random_spd(200, 8, 0.5, 42);
        assert!(a.is_symmetric(1e-12));
        let x: Vec<f64> = (0..200).map(|i| ((i * 37) % 101) as f64 / 50.0 - 1.0).collect();
        let mut ax = vec![0.0; 200];
        spmv(&a, &x, &mut ax);
        let xtax: f64 = x.iter().zip(&ax).map(|(a, b)| a * b).sum();
        assert!(xtax > 0.0);
    }

    #[test]
    fn seeds_are_reproducible_and_distinct() {
        let a = random_spd(100, 6, 1.0, 7);
        let b = random_spd(100, 6, 1.0, 7);
        let c = random_spd(100, 6, 1.0, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn nonsymmetric_generator_is_diagonally_dominant() {
        let a = random_nonsymmetric(150, 10, 0.1, 3);
        assert!(!a.is_symmetric(1e-12));
        for row in 0..a.n_rows() {
            let (cols, vals) = a.row_entries(row);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                if c as usize == row {
                    diag += v;
                } else {
                    off += v.abs();
                }
            }
            assert!(diag > off, "row {row} not dominant");
        }
    }

    #[test]
    fn density_tracks_request() {
        let a = random_nonsymmetric(500, 12, 0.5, 11);
        assert!(a.nnz_per_row() > 6.0 && a.nnz_per_row() < 14.0);
    }
}
