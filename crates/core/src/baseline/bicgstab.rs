//! Preconditioned BiCGStab (the paper's `fpXX-BiCGStab` baselines for
//! nonsymmetric systems).

use std::sync::Arc;

use f3r_precision::Precision;
use f3r_sparse::blas1;

use crate::baseline::{BaselineConfig, Shell};
use crate::convergence::{SolveResult, SparseSolver, StopReason};
use crate::operator::{MatrixStorage, ProblemMatrix};

/// Right-preconditioned BiCGStab in fp64 with a mixed-precision-stored
/// preconditioner.
pub struct BiCgStabSolver {
    shell: Shell,
}

impl BiCgStabSolver {
    /// Build the solver for `matrix` with the given configuration.
    #[must_use]
    pub fn new(matrix: Arc<ProblemMatrix>, config: BaselineConfig) -> Self {
        Self {
            shell: Shell::new(matrix, config, "BiCGStab"),
        }
    }
}

impl SparseSolver for BiCgStabSolver {
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
            let mut r = b.to_vec(); // r0 = b - A*0
            let r_hat = r.clone();
            let mut rho = 1.0f64;
            let mut alpha = 1.0f64;
            let mut omega = 1.0f64;
            let mut v = vec![0.0f64; n];
            let mut p = vec![0.0f64; n];
            let mut p_hat = vec![0.0f64; n];
            let mut s = vec![0.0f64; n];
            let mut s_hat = vec![0.0f64; n];
            let mut t = vec![0.0f64; n];

            for it in 1..=config.max_iterations {
                iterations = it;
                let rho_new = blas1::dot(&r_hat, &r);
                self.shell.record_blas1(n, 2, 0);
                if rho_new.abs() < f64::MIN_POSITIVE || !rho_new.is_finite() {
                    stop_reason = StopReason::Breakdown;
                    break;
                }
                let beta = (rho_new / rho) * (alpha / omega);
                rho = rho_new;
                // p = r + beta * (p - omega * v)
                for i in 0..n {
                    p[i] = r[i] + beta * (p[i] - omega * v[i]);
                }
                self.shell.record_blas1(n, 3, 1);
                // p_hat = M p ; v = A p_hat with (r̂, v) fused into the SpMV.
                precond.apply_to(&p, &mut p_hat, counters);
                let (rhat_v, _) =
                    matrix.apply_dot2(MatrixStorage::Plain(Precision::Fp64), &p_hat, &r_hat, &mut v, counters);
                if rhat_v.abs() < f64::MIN_POSITIVE || !rhat_v.is_finite() {
                    stop_reason = StopReason::Breakdown;
                    break;
                }
                alpha = rho / rhat_v;
                // s = r - alpha v fused with ‖s‖² for the early-exit check:
                // three sweeps (read r, read v, write s) instead of four.
                let snorm = blas1::waxpby_norm2(1.0, &r, -alpha, &v, &mut s).sqrt();
                self.shell.record_blas1(n, 2, 1);
                if snorm / bnorm < config.tol {
                    // early exit: x += alpha * p_hat
                    blas1::axpy(alpha, &p_hat, x);
                    self.shell.record_blas1(n, 2, 1);
                    history.push(snorm / bnorm);
                    stop_reason = StopReason::Converged;
                    break;
                }
                // s_hat = M s ; t = A s_hat with (t, s) and (t, t) fused into
                // the SpMV sweep — t is never re-read for the ω reductions.
                precond.apply_to(&s, &mut s_hat, counters);
                let (ts, tt) =
                    matrix.apply_dot2(MatrixStorage::Plain(Precision::Fp64), &s_hat, &s, &mut t, counters);
                if tt.abs() < f64::MIN_POSITIVE || !tt.is_finite() {
                    stop_reason = StopReason::Breakdown;
                    break;
                }
                omega = ts / tt;
                // x += alpha * p_hat + omega * s_hat
                blas1::axpy(alpha, &p_hat, x);
                blas1::axpy(omega, &s_hat, x);
                // r = s - omega t
                blas1::waxpby(1.0, &s, -omega, &t, &mut r);
                self.shell.record_blas1(n, 6, 3);
                let rel = blas1::norm2(&r) / bnorm;
                self.shell.record_blas1(n, 1, 0);
                history.push(rel);
                if rel < config.tol {
                    stop_reason = StopReason::Converged;
                    break;
                }
                if !rel.is_finite() {
                    stop_reason = StopReason::Breakdown;
                    break;
                }
                if omega.abs() < f64::MIN_POSITIVE {
                    stop_reason = StopReason::Breakdown;
                    break;
                }
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
    use f3r_sparse::gen::hpgmp::hpgmp_matrix;
    use f3r_sparse::gen::rhs::random_rhs;
    use f3r_sparse::scaling::jacobi_scale;

    fn solve_with(precond_prec: Precision) -> SolveResult {
        let a = jacobi_scale(&hpgmp_matrix(8, 8, 4, 0.5));
        let n = a.n_rows();
        let pm = Arc::new(ProblemMatrix::from_csr(a));
        let mut solver = BiCgStabSolver::new(
            pm,
            BaselineConfig {
                precond: PrecondKind::Ilu0 { alpha: 1.0 },
                precond_prec,
                tol: 1e-8,
                max_iterations: 2000,
            },
        );
        let b = random_rhs(n, 23);
        let mut x = vec![0.0; n];
        solver.solve(&b, &mut x)
    }

    #[test]
    fn converges_on_nonsymmetric_hpgmp() {
        let res = solve_with(Precision::Fp64);
        assert!(res.converged, "residual {}", res.final_relative_residual);
        assert!(res.final_relative_residual < 1e-7);
        // BiCGStab applies M twice per iteration.
        assert!(res.precond_applications >= 2 * (res.outer_iterations as u64 - 1));
    }

    #[test]
    fn fp16_preconditioner_storage_still_converges() {
        let res = solve_with(Precision::Fp16);
        assert!(res.converged, "residual {}", res.final_relative_residual);
    }

    #[test]
    fn recursive_pass_without_a_true_pass_is_a_breakdown() {
        // At tol 1e-15 on HPGMP 12³ the recursive residual passes while the
        // true residual stays near 3e-15.
        let a = jacobi_scale(&hpgmp_matrix(12, 12, 12, 0.5));
        let n = a.n_rows();
        let pm = Arc::new(ProblemMatrix::from_csr(a));
        let config = BaselineConfig { tol: 1e-15, max_iterations: 2000, ..BaselineConfig::default() };
        let b = random_rhs(n, 7);
        let mut x = vec![0.0; n];
        let res = BiCgStabSolver::new(pm, config).solve(&b, &mut x);
        assert!(res.residual_history.last().is_some_and(|&r| r < 1e-15), "{res}");
        assert!(res.final_relative_residual >= 1e-15, "{res}");
        assert!(!res.converged, "{res}");
        assert_eq!(res.stop_reason, StopReason::Breakdown, "{res}");
    }

    #[test]
    fn name_reflects_preconditioner_precision() {
        let a = jacobi_scale(&hpgmp_matrix(3, 3, 3, 0.5));
        let pm = Arc::new(ProblemMatrix::from_csr(a));
        let solver = BiCgStabSolver::new(
            pm,
            BaselineConfig {
                precond_prec: Precision::Fp32,
                ..BaselineConfig::default()
            },
        );
        assert_eq!(solver.name(), "fp32-BiCGStab");
    }
}
