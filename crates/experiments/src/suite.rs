//! The test-matrix suite (the reproduction of Table 2).
//!
//! The paper evaluates on HPCG/HPGMP benchmark matrices (reproduced exactly,
//! at smaller grid sizes) and on SuiteSparse matrices (each mapped to a
//! synthetic analogue with the same qualitative structure — the generators of
//! `f3r_sparse::gen`, named per problem in [`TestProblem::paper_analog`]).
//! Problems are produced already diagonally scaled, as in Section 5
//! ("we applied diagonal scaling to all matrices"), together with their
//! α_ILU / α_AINV stabilisation factors from Table 2.

use f3r_sparse::gen::{
    anisotropic_poisson_3d, convection_diffusion_3d, elasticity_like_3d, hpcg_matrix,
    hpgmp_matrix, poisson2d_5pt, random_nonsymmetric, random_spd,
};
use f3r_sparse::scaling::jacobi_scale;
use f3r_sparse::{CsrMatrix, MatrixStats};

/// Problem-size scale of the suite.
///
/// The paper runs problems with 0.7M–17M unknowns on an HPC node; the
/// reproduction scales each analogue down so the full experiment set runs on
/// a laptop.  `Tiny` is meant for unit tests and CI, `Small` for the default
/// experiment binaries, `Medium` for longer, more realistic runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteScale {
    /// Unit-test sizes (n ≈ 0.5–2k).
    Tiny,
    /// Default experiment sizes (n ≈ 4–30k).
    Small,
    /// Longer runs (n ≈ 30–150k).
    Medium,
}

impl SuiteScale {
    /// Parse from the `F3R_SCALE` environment variable (`tiny`/`small`/`medium`).
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("F3R_SCALE").unwrap_or_default().to_lowercase().as_str() {
            "tiny" => SuiteScale::Tiny,
            "medium" => SuiteScale::Medium,
            _ => SuiteScale::Small,
        }
    }

    fn grid(self, tiny: usize, small: usize, medium: usize) -> usize {
        match self {
            SuiteScale::Tiny => tiny,
            SuiteScale::Small => small,
            SuiteScale::Medium => medium,
        }
    }
}

/// One test problem of the suite: a diagonally scaled matrix plus metadata.
pub struct TestProblem {
    /// Short name used in reports (e.g. `hpcg_16_16_16`, `audikw_1-like`).
    pub name: String,
    /// The paper matrix this problem stands in for.
    pub paper_analog: String,
    /// Whether the matrix is symmetric (selects CG+IC(0) vs BiCGStab+ILU(0)).
    pub symmetric: bool,
    /// The diagonally scaled coefficient matrix.
    pub matrix: CsrMatrix<f64>,
    /// Diagonal-boost stabilisation factor (α_ILU on the CPU node, α_AINV on
    /// the GPU node; Table 2 lists values in 1.0–1.6).
    pub alpha: f64,
    /// Seed used for the right-hand side of this problem.
    pub rhs_seed: u64,
}

impl TestProblem {
    fn new(
        name: &str,
        paper_analog: &str,
        symmetric: bool,
        matrix: CsrMatrix<f64>,
        alpha: f64,
        rhs_seed: u64,
    ) -> Self {
        Self {
            name: name.to_string(),
            paper_analog: paper_analog.to_string(),
            symmetric,
            matrix: jacobi_scale(&matrix),
            alpha,
            rhs_seed,
        }
    }

    /// Matrix statistics (the Table 2 columns).
    #[must_use]
    pub fn stats(&self) -> MatrixStats {
        MatrixStats::compute(&self.matrix)
    }
}

/// The symmetric (SPD) half of the suite — the problems of Figure 1a /
/// Figure 2a.
#[must_use]
pub fn symmetric_suite(scale: SuiteScale) -> Vec<TestProblem> {
    let g = |t, s, m| scale.grid(t, s, m);
    vec![
        TestProblem::new(
            &format!("hpcg_{0}_{0}_{0}", g(8, 16, 32)),
            "hpcg_7_7_7 … hpcg_8_8_8",
            true,
            hpcg_matrix(g(8, 16, 32), g(8, 16, 32), g(8, 16, 32)),
            1.0,
            101,
        ),
        TestProblem::new(
            &format!("hpcg_{}_{}_{}", g(12, 24, 48), g(8, 16, 32), g(8, 16, 32)),
            "hpcg_8_7_7 (elongated grid)",
            true,
            hpcg_matrix(g(12, 24, 48), g(8, 16, 32), g(8, 16, 32)),
            1.0,
            102,
        ),
        TestProblem::new(
            "G3_circuit-like",
            "G3_circuit (2-D diffusion, ~5 nnz/row)",
            true,
            poisson2d_5pt(g(24, 64, 160), g(24, 64, 160)),
            1.0,
            103,
        ),
        TestProblem::new(
            "ecology2-like",
            "ecology2 / apache2 (2-D diffusion, 5 nnz/row)",
            true,
            poisson2d_5pt(g(20, 56, 128), g(28, 72, 192)),
            1.0,
            104,
        ),
        TestProblem::new(
            "thermal2-like",
            "thermal2 / tmt_sym (anisotropic diffusion, ~7 nnz/row)",
            true,
            anisotropic_poisson_3d(g(10, 22, 40), g(10, 22, 40), g(10, 22, 40), 1.0, 1.0, 1e-2),
            1.0,
            105,
        ),
        TestProblem::new(
            "audikw_1-like",
            "audikw_1 (3-D elasticity, ~82 nnz/row)",
            true,
            elasticity_like_3d(g(5, 9, 14), g(5, 9, 14), g(5, 9, 14), 0.3),
            1.1,
            106,
        ),
        TestProblem::new(
            "Serena-like",
            "Serena / Emilia_923 / Bump_2911 (3-D mechanics, ~44 nnz/row)",
            true,
            elasticity_like_3d(g(5, 10, 16), g(5, 10, 16), g(4, 8, 12), 0.08),
            1.1,
            107,
        ),
        TestProblem::new(
            "ldoor-like",
            "ldoor / Queen_4147 (heavy SPD, random pattern)",
            true,
            random_spd(g(800, 6000, 30_000), 40, 0.4, 108),
            1.1,
            108,
        ),
    ]
}

/// The nonsymmetric half of the suite — the problems of Figure 1b /
/// Figure 2b.
#[must_use]
pub fn nonsymmetric_suite(scale: SuiteScale) -> Vec<TestProblem> {
    let g = |t, s, m| scale.grid(t, s, m);
    vec![
        TestProblem::new(
            &format!("hpgmp_{0}_{0}_{0}", g(8, 16, 32)),
            "hpgmp_7_7_7 … hpgmp_8_8_8",
            false,
            hpgmp_matrix(g(8, 16, 32), g(8, 16, 32), g(8, 16, 32), 0.5),
            1.0,
            201,
        ),
        TestProblem::new(
            &format!("hpgmp_{}_{}_{}", g(12, 24, 48), g(8, 16, 32), g(8, 16, 32)),
            "hpgmp_8_7_7 (elongated grid)",
            false,
            hpgmp_matrix(g(12, 24, 48), g(8, 16, 32), g(8, 16, 32), 0.5),
            1.0,
            202,
        ),
        TestProblem::new(
            "atmosmodd-like",
            "atmosmodd / atmosmodj / atmosmodl (convection–diffusion)",
            false,
            convection_diffusion_3d(g(9, 20, 36), g(9, 20, 36), g(9, 20, 36), 0.5, 0.0, 1.0),
            1.0,
            203,
        ),
        TestProblem::new(
            "Transport-like",
            "Transport (strong convection)",
            false,
            convection_diffusion_3d(g(9, 20, 36), g(9, 20, 36), g(9, 20, 36), 3.0, 1.5, 2.0),
            1.0,
            204,
        ),
        TestProblem::new(
            "tmt_unsym-like",
            "tmt_unsym / t2em (2-D dominated, mildly nonsymmetric)",
            false,
            convection_diffusion_3d(g(18, 48, 110), g(18, 48, 110), 1, 1.0, 0.5, 0.0),
            1.0,
            205,
        ),
        TestProblem::new(
            "ss-like",
            "ss / Freescale1 (irregular pattern)",
            false,
            random_nonsymmetric(g(800, 6000, 30_000), 18, 0.5, 206),
            1.1,
            206,
        ),
        TestProblem::new(
            "vas_stokes-like",
            "vas_stokes_1M / vas_stokes_2M / stokes (hard, irregular)",
            false,
            random_nonsymmetric(g(900, 7000, 36_000), 28, 0.15, 207),
            1.0,
            207,
        ),
    ]
}

/// The full suite (symmetric followed by nonsymmetric problems).
#[must_use]
pub fn full_suite(scale: SuiteScale) -> Vec<TestProblem> {
    let mut all = symmetric_suite(scale);
    all.extend(nonsymmetric_suite(scale));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_symmetry_flags_are_correct() {
        for p in full_suite(SuiteScale::Tiny) {
            let stats = p.stats();
            assert_eq!(
                stats.symmetric, p.symmetric,
                "problem {} has wrong symmetry flag",
                p.name
            );
            assert!(stats.n > 100, "problem {} too small", p.name);
            // diagonal scaling must have produced unit diagonals
            assert!(stats.max_abs <= 1.0 + 1e-9, "problem {} not scaled", p.name);
        }
    }

    #[test]
    fn suite_sizes_grow_with_scale() {
        let tiny: usize = symmetric_suite(SuiteScale::Tiny).iter().map(|p| p.stats().n).sum();
        let small: usize = symmetric_suite(SuiteScale::Small).iter().map(|p| p.stats().n).sum();
        assert!(small > 4 * tiny);
    }

    #[test]
    fn density_families_are_represented() {
        let probs = symmetric_suite(SuiteScale::Tiny);
        let densities: Vec<f64> = probs.iter().map(|p| p.stats().nnz_per_row).collect();
        assert!(densities.iter().any(|&d| d < 8.0), "low-density family missing");
        assert!(densities.iter().any(|&d| d > 40.0), "high-density family missing");
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<String> = full_suite(SuiteScale::Tiny).iter().map(|p| p.name.clone()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }
}
