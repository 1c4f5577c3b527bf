//! Solve results, convergence histories and the common solver interface.

use std::fmt;

use f3r_precision::CounterSnapshot;

/// Why a solver stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The true relative residual dropped below the tolerance.
    Converged,
    /// The iteration/restart budget was exhausted before convergence.
    MaxIterations,
    /// The iteration broke down (division by a vanishing quantity) or
    /// produced non-finite values — or, for CG and BiCGStab, the recurrence's
    /// own residual passed the tolerance while the true residual did not
    /// (the two have drifted apart, and iterating on does not close the gap).
    Breakdown,
    /// A [`SolveObserver`](crate::session::SolveObserver) requested an early
    /// stop before the solve converged.
    Stopped,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StopReason::Converged => "converged",
            StopReason::MaxIterations => "iteration budget exhausted",
            StopReason::Breakdown => "breakdown",
            StopReason::Stopped => "stopped by observer",
        })
    }
}

/// Outcome of one linear solve.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// Whether the convergence criterion ‖b − A x‖₂/‖b‖₂ < tol was met.
    pub converged: bool,
    /// Why the solver stopped.
    pub stop_reason: StopReason,
    /// Outermost iterations executed (for nested solvers: iterations of the
    /// outermost FGMRES across all restarts; for CG/BiCGStab: iterations).
    pub outer_iterations: usize,
    /// Invocations of the primary preconditioner `M` — the Table 3 metric.
    pub precond_applications: u64,
    /// Final true relative residual ‖b − A x‖₂ / ‖b‖₂ (fp64 evaluation).
    pub final_relative_residual: f64,
    /// Wall-clock seconds spent in `solve`.
    pub seconds: f64,
    /// Residual history: the true relative residual after each outermost
    /// iteration (nested solvers) or each iteration (baselines); sampled at
    /// the same granularity the solver checks convergence.
    pub residual_history: Vec<f64>,
    /// Kernel counter snapshot accumulated during the solve.
    pub counters: CounterSnapshot,
    /// Name of the solver configuration that produced this result.
    pub solver_name: String,
    /// Fingerprint of the prepared solver that answered
    /// ([`PreparedSolver::fingerprint`](crate::session::PreparedSolver::fingerprint)),
    /// so serve-layer logs identify which cached solver produced a result.
    /// `None` only for CG and BiCGStab, which have no prepared-solver
    /// identity (FGMRES(64) is a prepared spec like F3R).
    pub fingerprint: Option<u64>,
}

impl SolveResult {
    /// Modeled memory traffic of the solve in bytes (all precisions).
    #[must_use]
    pub fn modeled_bytes(&self) -> u64 {
        self.counters.total_bytes()
    }

    /// Convergence rate estimate: mean log10 residual reduction per
    /// preconditioner application (`None` if not enough history).
    #[must_use]
    pub fn log_reduction_per_precond(&self) -> Option<f64> {
        if self.precond_applications == 0 || self.residual_history.len() < 2 {
            return None;
        }
        let first = self.residual_history.first().copied()?;
        let last = self.final_relative_residual;
        if first <= 0.0 || last <= 0.0 {
            return None;
        }
        Some((first.log10() - last.log10()) / self.precond_applications as f64)
    }
}

impl fmt::Display for SolveResult {
    /// One-line human-readable summary, e.g.
    /// `fp16-F3R[a1b2c3d4]: converged after 34 outer iterations (2176 M applications), relative residual 5.31e-9 in 0.123 s`
    /// — the bracketed token is the leading 8 hex digits of the prepared
    /// solver's fingerprint (omitted for CG and BiCGStab results, which
    /// carry none).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.solver_name)?;
        if let Some(fp) = self.fingerprint {
            write!(f, "[{:08x}]", fp >> 32)?;
        }
        write!(
            f,
            ": {} after {} outer iterations ({} M applications), relative residual {:.2e} in {:.3} s",
            self.stop_reason,
            self.outer_iterations,
            self.precond_applications,
            self.final_relative_residual,
            self.seconds
        )
    }
}

/// Common interface implemented by every solver in the workspace (F3R and its
/// variants, CG, BiCGStab, restarted FGMRES), used by the experiment harness.
///
/// New code should prefer the prepared-solver session API
/// ([`crate::session::SolverBuilder`] → [`crate::session::PreparedSolver`] →
/// [`crate::session::SolveSession`]); `SolveSession` implements this trait,
/// so sessions drop into the harness directly.
pub trait SparseSolver {
    /// Solve `A x = b`, starting from the zero initial guess, overwriting `x`.
    fn solve(&mut self, b: &[f64], x: &mut [f64]) -> SolveResult;

    /// Descriptive configuration name (e.g. `"fp16-F3R"`, `"fp64-CG"`).
    fn name(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(history: Vec<f64>, final_res: f64, preconds: u64) -> SolveResult {
        SolveResult {
            converged: true,
            stop_reason: StopReason::Converged,
            outer_iterations: history.len(),
            precond_applications: preconds,
            final_relative_residual: final_res,
            seconds: 0.1,
            residual_history: history,
            counters: CounterSnapshot::default(),
            solver_name: "dummy".into(),
            fingerprint: None,
        }
    }

    #[test]
    fn log_reduction_per_precond() {
        let r = dummy(vec![1.0, 1e-4, 1e-8], 1e-8, 80);
        let rate = r.log_reduction_per_precond().unwrap();
        assert!((rate - 0.1).abs() < 1e-12);
    }

    #[test]
    fn display_is_a_one_line_summary() {
        let r = dummy(vec![1.0, 1e-8], 5.31e-9, 2176);
        let line = r.to_string();
        assert!(line.starts_with("dummy: converged after 2 outer iterations"));
        assert!(line.contains("2176 M applications"));
        assert!(line.contains("5.31e-9"));
        assert!(!line.contains('\n'));

        // With a fingerprint the solver name gains an 8-hex-digit prefix tag.
        let mut tagged = dummy(vec![1.0, 1e-8], 5.31e-9, 2176);
        tagged.fingerprint = Some(0xa1b2_c3d4_0000_0001);
        let line = tagged.to_string();
        assert!(line.starts_with("dummy[a1b2c3d4]: converged"), "{line}");
        assert_eq!(StopReason::Stopped.to_string(), "stopped by observer");
        assert_eq!(StopReason::MaxIterations.to_string(), "iteration budget exhausted");
    }

    #[test]
    fn log_reduction_requires_history() {
        assert!(dummy(vec![], 1e-8, 10).log_reduction_per_precond().is_none());
        assert!(dummy(vec![1.0, 0.1], 1e-8, 0).log_reduction_per_precond().is_none());
    }
}
