//! Preconditioned Conjugate Gradient (the paper's `fpXX-CG` baselines).

use std::sync::Arc;

use f3r_precision::Precision;
use f3r_sparse::blas1;

use crate::baseline::{BaselineConfig, Shell};
use crate::convergence::{SolveResult, SparseSolver, StopReason};
use crate::operator::{MatrixStorage, ProblemMatrix};

/// Preconditioned CG in fp64 with a mixed-precision-stored preconditioner.
pub struct CgSolver {
    shell: Shell,
}

impl CgSolver {
    /// Build the solver for `matrix` with the given configuration.
    #[must_use]
    pub fn new(matrix: Arc<ProblemMatrix>, config: BaselineConfig) -> Self {
        Self {
            shell: Shell::new(matrix, config, "CG"),
        }
    }
}

impl SparseSolver for CgSolver {
    fn solve(&mut self, b: &[f64], x: &mut [f64]) -> SolveResult {
        let bnorm = self.shell.begin(b, x);
        let Shell {
            matrix,
            precond,
            counters,
            config,
            ..
        } = &self.shell;
        let n = matrix.dim();
        let mut history = Vec::new();
        let mut stop_reason = StopReason::MaxIterations;
        let mut iterations = 0usize;

        // A zero b is solved by the zero guess, which `finish` confirms.
        if bnorm != 0.0 {
            // r = b (x = 0), z = M r, p = z
            let mut r = b.to_vec();
            let mut z = vec![0.0f64; n];
            precond.apply_to(&r, &mut z, counters);
            let mut p = z.clone();
            let mut q = vec![0.0f64; n];
            let mut rz = blas1::dot(&r, &z);
            self.shell.record_blas1(n, 2, 0);

            for it in 1..=config.max_iterations {
                iterations = it;
                // q = A p with (p, q) folded into the SpMV sweep.
                let (pq, _qq) = matrix.apply_dot2(MatrixStorage::Plain(Precision::Fp64), &p, &p, &mut q, counters);
                if !pq.is_finite() || pq.abs() < f64::MIN_POSITIVE {
                    stop_reason = StopReason::Breakdown;
                    break;
                }
                let alpha = rz / pq;
                blas1::axpy(alpha, &p, x);
                self.shell.record_blas1(n, 2, 1);
                // r ← r − α q fused with ‖r‖² for the convergence check.
                let rel = blas1::axpy_norm2(-alpha, &q, &mut r).sqrt() / bnorm;
                self.shell.record_blas1(n, 2, 1);
                history.push(rel);
                if rel < config.tol {
                    stop_reason = StopReason::Converged;
                    break;
                }
                if !rel.is_finite() {
                    stop_reason = StopReason::Breakdown;
                    break;
                }
                precond.apply_to(&r, &mut z, counters);
                let rz_new = blas1::dot(&r, &z);
                self.shell.record_blas1(n, 2, 0);
                if !rz_new.is_finite() || rz.abs() < f64::MIN_POSITIVE {
                    stop_reason = StopReason::Breakdown;
                    break;
                }
                let beta = rz_new / rz;
                rz = rz_new;
                // p = z + beta p
                blas1::axpby(1.0, &z, beta, &mut p);
                self.shell.record_blas1(n, 2, 1);
            }
        }
        self.shell.finish(b, x, stop_reason, iterations, history)
    }

    fn name(&self) -> String {
        self.shell.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f3r_precond::PrecondKind;
    use f3r_sparse::gen::hpcg::hpcg_matrix;
    use f3r_sparse::gen::laplacian::poisson2d_5pt;
    use f3r_sparse::gen::rhs::random_rhs;
    use f3r_sparse::scaling::jacobi_scale;

    fn solve_with(precond_prec: Precision) -> SolveResult {
        let a = jacobi_scale(&hpcg_matrix(8, 8, 4));
        let n = a.n_rows();
        let pm = Arc::new(ProblemMatrix::from_csr(a));
        let mut solver = CgSolver::new(
            pm,
            BaselineConfig {
                precond: PrecondKind::Ic0 { alpha: 1.0 },
                precond_prec,
                tol: 1e-8,
                max_iterations: 2000,
            },
        );
        let b = random_rhs(n, 17);
        let mut x = vec![0.0; n];
        solver.solve(&b, &mut x)
    }

    #[test]
    fn fp64_cg_converges_on_hpcg() {
        let res = solve_with(Precision::Fp64);
        assert!(res.converged, "residual {}", res.final_relative_residual);
        assert!(res.final_relative_residual < 1e-7);
        // one application before the loop plus one per non-final iteration
        assert_eq!(res.precond_applications as usize, res.outer_iterations);
    }

    #[test]
    fn fp16_preconditioner_storage_still_converges() {
        let res64 = solve_with(Precision::Fp64);
        let res16 = solve_with(Precision::Fp16);
        assert!(res16.converged);
        // fp16 preconditioner storage may cost some iterations but not an
        // order of magnitude (the paper observes near-identical counts).
        assert!(
            (res16.outer_iterations as f64) < 3.0 * res64.outer_iterations as f64,
            "{} vs {}",
            res16.outer_iterations,
            res64.outer_iterations
        );
    }

    #[test]
    fn verdict_is_the_true_residual() {
        // Near fp64 roundoff the recursive residual of CG drifts below the
        // true one: on Poisson 64² it passes 1e-13 and 1e-14 while the true
        // residual stays near 3e-13.  The solve stops there as a breakdown,
        // neither converged nor iterating on.
        let a = jacobi_scale(&poisson2d_5pt(64, 64));
        let n = a.n_rows();
        let pm = Arc::new(ProblemMatrix::from_csr(a));
        let b = random_rhs(n, 17);
        for tol in [1e-13, 1e-14] {
            let config = BaselineConfig { tol, max_iterations: 2000, ..BaselineConfig::default() };
            let mut x = vec![0.0; n];
            let res = CgSolver::new(Arc::clone(&pm), config).solve(&b, &mut x);
            assert!(res.residual_history.last().is_some_and(|&r| r < tol), "tol {tol}: {res}");
            assert!(res.final_relative_residual >= tol, "tol {tol}: {res}");
            assert!(!res.converged, "tol {tol}: {res}");
            assert_eq!(res.stop_reason, StopReason::Breakdown, "tol {tol}: {res}");
        }
    }

    #[test]
    fn zero_rhs_returns_zero_solution() {
        let a = jacobi_scale(&hpcg_matrix(4, 4, 4));
        let n = a.n_rows();
        let pm = Arc::new(ProblemMatrix::from_csr(a));
        let mut solver = CgSolver::new(pm, BaselineConfig::default());
        let b = vec![0.0; n];
        let mut x = vec![1.0; n];
        let res = solver.solve(&b, &mut x);
        assert!(res.converged);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn name_reflects_preconditioner_precision() {
        let a = jacobi_scale(&hpcg_matrix(3, 3, 3));
        let pm = Arc::new(ProblemMatrix::from_csr(a));
        let solver = CgSolver::new(
            pm,
            BaselineConfig {
                precond_prec: Precision::Fp16,
                ..BaselineConfig::default()
            },
        );
        assert_eq!(solver.name(), "fp16-CG");
    }
}
