//! Inputs and their verification, both owned by the benchmark: the seeded
//! right-hand sides, their checksums, and an fp64 CSR product that shares no
//! code with the kernels under test.

use crate::api::{self, ProblemMatrix, TOL};

/// How a right-hand side is drawn from the seed.
///
/// Both kinds are uniform random vectors; they differ in which side of
/// `A x = b` is drawn.  Each workload names the kind on which every solver's
/// iteration count is the same for every seed at the parent commit (README,
/// "Right-hand sides"): one F3R outer iteration is 64 preconditioner
/// applications, so a count that flips between seeds moves `solve_s.*` by
/// 11–100 % and buries any regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RhsKind {
    /// `b` uniform in [0, 1) — the paper's protocol.
    RandomB,
    /// `b = A x*` with `x*` uniform in [0, 1).
    Manufactured,
}

impl RhsKind {
    pub fn label(self) -> &'static str {
        match self {
            RhsKind::RandomB => "b uniform in [0,1)",
            RhsKind::Manufactured => "b = A x*, x* uniform in [0,1)",
        }
    }
}

/// splitmix64: small, seedable, and not the generator the workspace uses.
pub struct Rng(u64);

impl Rng {
    /// Independent streams per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn unit_vec(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.unit()).collect()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

pub fn rhs(m: &ProblemMatrix, kind: RhsKind, seed: u64, stream: u64) -> Vec<f64> {
    let u = Rng::new(seed, stream).unit_vec(api::dims(m).0);
    match kind {
        RhsKind::RandomB => u,
        RhsKind::Manufactured => {
            let mut b = vec![0.0; u.len()];
            csr_product(m, &u, &mut b);
            b
        }
    }
}

/// FNV-1a over the exact bits, so a drifting generator shows in the result file.
pub fn checksum(vectors: &[Vec<f64>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in vectors
        .iter()
        .flatten()
        .flat_map(|v| v.to_bits().to_le_bytes())
    {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `y = A x` in fp64 over the store's base copy.
fn csr_product(m: &ProblemMatrix, x: &[f64], y: &mut [f64]) {
    let (row_ptr, col_idx, values) = api::csr_parts(m);
    for (i, yi) in y.iter_mut().enumerate() {
        let row = row_ptr[i]..row_ptr[i + 1];
        *yi = col_idx[row.clone()]
            .iter()
            .zip(&values[row])
            .map(|(&c, &a)| a * x[c as usize])
            .sum();
    }
}

/// `‖b − A x‖₂ / ‖b‖₂` in fp64.
pub fn relative_residual(m: &ProblemMatrix, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; b.len()];
    csr_product(m, x, &mut ax);
    let r2: f64 = b
        .iter()
        .zip(&ax)
        .map(|(bi, ai)| (bi - ai) * (bi - ai))
        .sum();
    let b2: f64 = b.iter().map(|bi| bi * bi).sum();
    (r2 / b2).sqrt()
}

/// The benchmark's own acceptance of a solution (a NaN residual fails).
pub fn solved(m: &ProblemMatrix, x: &[f64], b: &[f64]) -> bool {
    relative_residual(m, x, b) < TOL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_check_rejects_a_corrupted_solution() {
        let grid = api::Grid::Poisson2d(8);
        let m = api::problem_matrix(api::jacobi_scale(&grid.generate()));
        let n = api::dims(&m).0;
        let x_true = Rng::new(3, 0).unit_vec(n);
        let mut b = vec![0.0; n];
        csr_product(&m, &x_true, &mut b);
        assert!(relative_residual(&m, &x_true, &b) < 1e-15);
        assert!(solved(&m, &x_true, &b));

        let mut corrupted = x_true.clone();
        corrupted[n / 2] += 1e-6;
        assert!(!solved(&m, &corrupted, &b));
        corrupted[n / 2] = f64::NAN;
        assert!(!solved(&m, &corrupted, &b));
    }

    #[test]
    fn right_hand_sides_repeat_per_seed_and_differ_across_seeds_and_streams() {
        let grid = api::Grid::Hpgmp(4);
        let m = api::problem_matrix(api::jacobi_scale(&grid.generate()));
        for kind in [RhsKind::RandomB, RhsKind::Manufactured] {
            let sum = |seed, stream| checksum(&[rhs(&m, kind, seed, stream)]);
            assert_eq!(sum(7, 0), sum(7, 0));
            assert_ne!(sum(7, 0), sum(8, 0));
            assert_ne!(sum(7, 0), sum(7, 1));
        }
        assert!(rhs(&m, RhsKind::RandomB, 1, 0)
            .iter()
            .all(|v| (0.0..1.0).contains(v)));
    }
}
