//! Restarted FGMRES — the paper's `FGMRES(64)` baseline.
//!
//! A single level of FGMRES with restart cycle `m` (default 64), flexible
//! preconditioning directly by the primary preconditioner `M`, restarted
//! until convergence or until the iteration budget (19 200 in the paper) is
//! exhausted.

use std::sync::Arc;
use std::time::Instant;

use f3r_precision::{KernelCounters, Precision};
use f3r_sparse::blas1;

use crate::baseline::BaselineConfig;
use crate::convergence::{SolveResult, SparseSolver, StopReason};
use crate::fgmres::{fgmres_cycle, CycleParams, FgmresWorkspace};
use crate::inner::PrecondInner;
use crate::operator::{MatrixStorage, ProblemMatrix};
use crate::precond_any::AnyPrecond;

/// Restarted FGMRES(m) in fp64 with a mixed-precision-stored preconditioner.
pub struct RestartedFgmresSolver {
    matrix: Arc<ProblemMatrix>,
    precond: Arc<AnyPrecond>,
    counters: Arc<KernelCounters>,
    config: BaselineConfig,
    restart: usize,
    ws: FgmresWorkspace<f64>,
}

impl RestartedFgmresSolver {
    /// Build the solver for `matrix` with restart cycle `restart` (the paper
    /// uses 64).
    #[must_use]
    pub fn new(matrix: Arc<ProblemMatrix>, restart: usize, config: BaselineConfig) -> Self {
        let counters = KernelCounters::new_shared();
        let precond = Arc::new(AnyPrecond::for_matrix(
            &matrix,
            &config.precond,
            config.precond_prec,
        ));
        let n = matrix.dim();
        Self {
            matrix,
            precond,
            counters,
            config,
            restart,
            ws: FgmresWorkspace::new(n, restart),
        }
    }

    /// The restart cycle length.
    #[must_use]
    pub fn restart(&self) -> usize {
        self.restart
    }
}

impl SparseSolver for RestartedFgmresSolver {
    fn solve(&mut self, b: &[f64], x: &mut [f64]) -> SolveResult {
        let n = self.matrix.dim();
        assert_eq!(b.len(), n, "fgmres(m): b length mismatch");
        assert_eq!(x.len(), n, "fgmres(m): x length mismatch");
        let start = Instant::now();
        self.counters.reset();
        for xi in x.iter_mut() {
            *xi = 0.0;
        }
        let bnorm = blas1::norm2(b);
        let mut history = Vec::new();
        let mut converged = bnorm == 0.0;
        let mut stop_reason = if converged {
            StopReason::Converged
        } else {
            StopReason::MaxIterations
        };
        let mut total_iterations = 0usize;

        if !converged {
            let abs_tol = self.config.tol * bnorm;
            let mut inner =
                PrecondInner::<f64>::new(Arc::clone(&self.precond), Arc::clone(&self.counters), 2);
            let max_cycles = self.config.max_iterations.div_ceil(self.restart);
            for cycle in 0..max_cycles {
                let outcome = fgmres_cycle(
                    CycleParams {
                        matrix: &self.matrix,
                        mat_storage: MatrixStorage::Plain(Precision::Fp64),
                        inner: &mut inner,
                        abs_tols: Some(&[abs_tol]),
                        x_nonzero: Some(&[cycle > 0]),
                        depth: 1,
                        counters: &self.counters,
                        progress: None,
                    },
                    x,
                    b,
                    &mut self.ws,
                    1,
                )[0];
                total_iterations += outcome.iterations;
                let true_rel = self.matrix.true_relative_residual(x, b);
                history.push(true_rel);
                if !true_rel.is_finite() {
                    stop_reason = StopReason::Breakdown;
                    break;
                }
                if true_rel < self.config.tol {
                    converged = true;
                    stop_reason = StopReason::Converged;
                    break;
                }
                if outcome.breakdown && outcome.iterations == 0 {
                    stop_reason = StopReason::Breakdown;
                    break;
                }
                if total_iterations >= self.config.max_iterations {
                    break;
                }
            }
        }

        let final_rel = self.matrix.true_relative_residual(x, b);
        SolveResult {
            converged,
            stop_reason,
            outer_iterations: total_iterations,
            precond_applications: self.counters.snapshot().precond_applies,
            final_relative_residual: final_rel,
            seconds: start.elapsed().as_secs_f64(),
            residual_history: history,
            counters: self.counters.snapshot(),
            solver_name: self.name(),
            fingerprint: None,
        }
    }

    fn name(&self) -> String {
        format!("{}-FGMRES({})", self.config.prefix(), self.restart)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(solver.restart(), 64);
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
}
