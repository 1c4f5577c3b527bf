//! Restarted FGMRES — the paper's `FGMRES(64)` baseline.
//!
//! A one-level nested solver `(F^m, M)`: a single fp64 FGMRES level with
//! restart cycle `m` (default 64), flexibly preconditioned directly by the
//! primary preconditioner `M`, restarted until convergence or until the
//! iteration budget (19 200 in the paper) is spent.  It is that spec on the
//! session driver; this type only translates a [`BaselineConfig`] into it.

use std::sync::Arc;

use f3r_precision::Precision;

use crate::baseline::BaselineConfig;
use crate::convergence::{SolveResult, SparseSolver};
use crate::nested::{LevelSpec, NestedSpec};
use crate::operator::ProblemMatrix;
use crate::session::{SolveSession, SolverBuilder};

/// Restarted FGMRES(m) in fp64 with a mixed-precision-stored preconditioner.
pub struct RestartedFgmresSolver {
    session: SolveSession,
}

impl RestartedFgmresSolver {
    /// Build the solver for `matrix` with restart cycle `restart` (the paper
    /// uses 64).  The iteration budget `config.max_iterations` becomes
    /// ⌈max_iterations / restart⌉ restart cycles.
    ///
    /// # Panics
    /// Panics with the [`SpecError`](crate::nested::SpecError) message if
    /// `restart` or `config.max_iterations` is zero, or the tolerance is not
    /// positive.
    #[must_use]
    pub fn new(matrix: Arc<ProblemMatrix>, restart: usize, config: BaselineConfig) -> Self {
        let spec = NestedSpec {
            levels: vec![LevelSpec::fgmres(restart, Precision::Fp64, Precision::Fp64)],
            name: format!("{}-FGMRES({restart})", config.prefix()),
            precond: config.precond,
            precond_prec: config.precond_prec,
            tol: config.tol,
            // (`restart == 0` is rejected by the spec check, not divided by.)
            max_outer_cycles: config.max_iterations.div_ceil(restart.max(1)),
        };
        Self {
            session: SolverBuilder::new(matrix).spec(spec).build().session(),
        }
    }
}

impl SparseSolver for RestartedFgmresSolver {
    fn solve(&mut self, b: &[f64], x: &mut [f64]) -> SolveResult {
        self.session.solve(b, x)
    }

    fn name(&self) -> String {
        self.session.prepared().name().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::StopReason;
    use f3r_precond::PrecondKind;
    use f3r_sparse::gen::hpgmp::hpgmp_matrix;
    use f3r_sparse::gen::laplacian::poisson2d_5pt;
    use f3r_sparse::gen::rhs::random_rhs;
    use f3r_sparse::scaling::jacobi_scale;

    #[test]
    fn converges_on_spd_problem() {
        let a = jacobi_scale(&poisson2d_5pt(16, 16));
        let n = a.n_rows();
        let pm = Arc::new(ProblemMatrix::from_csr(a));
        let mut solver = RestartedFgmresSolver::new(
            pm,
            64,
            BaselineConfig {
                precond: PrecondKind::Ic0 { alpha: 1.0 },
                max_iterations: 2000,
                ..BaselineConfig::default()
            },
        );
        let b = random_rhs(n, 9);
        let mut x = vec![0.0; n];
        let res = solver.solve(&b, &mut x);
        assert!(res.converged, "residual {}", res.final_relative_residual);
        assert_eq!(solver.name(), "fp64-FGMRES(64)");
    }

    #[test]
    fn converges_on_nonsymmetric_problem_with_fp16_preconditioner() {
        let a = jacobi_scale(&hpgmp_matrix(6, 6, 6, 0.5));
        let n = a.n_rows();
        let pm = Arc::new(ProblemMatrix::from_csr(a));
        let mut solver = RestartedFgmresSolver::new(
            pm,
            64,
            BaselineConfig {
                precond: PrecondKind::Ilu0 { alpha: 1.0 },
                precond_prec: Precision::Fp16,
                max_iterations: 2000,
                ..BaselineConfig::default()
            },
        );
        let b = random_rhs(n, 31);
        let mut x = vec![0.0; n];
        let res = solver.solve(&b, &mut x);
        assert!(res.converged, "residual {}", res.final_relative_residual);
        assert_eq!(solver.name(), "fp16-FGMRES(64)");
        // Every FGMRES iteration applies M exactly once.
        assert_eq!(res.precond_applications as usize, res.outer_iterations);
    }

    #[test]
    fn iteration_budget_is_respected() {
        // An unpreconditioned, harder problem with a tiny budget must stop at
        // the budget without claiming convergence.
        let a = jacobi_scale(&poisson2d_5pt(24, 24));
        let n = a.n_rows();
        let pm = Arc::new(ProblemMatrix::from_csr(a));
        let mut solver = RestartedFgmresSolver::new(
            pm,
            8,
            BaselineConfig {
                precond: PrecondKind::Identity,
                max_iterations: 16,
                tol: 1e-12,
                ..BaselineConfig::default()
            },
        );
        let b = random_rhs(n, 3);
        let mut x = vec![0.0; n];
        let res = solver.solve(&b, &mut x);
        assert!(!res.converged);
        assert_eq!(res.outer_iterations, 16);
        assert_eq!(res.stop_reason, StopReason::MaxIterations);
    }

    #[test]
    #[should_panic(expected = "every level needs at least one iteration")]
    fn zero_restart_is_rejected() {
        let pm = Arc::new(ProblemMatrix::from_csr(jacobi_scale(&poisson2d_5pt(4, 4))));
        let _ = RestartedFgmresSolver::new(pm, 0, BaselineConfig::default());
    }

    #[test]
    #[should_panic(expected = "need at least one outer cycle")]
    fn zero_iteration_budget_is_rejected() {
        let pm = Arc::new(ProblemMatrix::from_csr(jacobi_scale(&poisson2d_5pt(4, 4))));
        let config = BaselineConfig { max_iterations: 0, ..BaselineConfig::default() };
        let _ = RestartedFgmresSolver::new(pm, 64, config);
    }
}
