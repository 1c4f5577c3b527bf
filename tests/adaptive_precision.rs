//! End-to-end adaptive runtime precision.
//!
//! The scenarios pin the contract of `AdaptiveSession`, read through its
//! switch log:
//!
//! * a matrix whose ~1e16 entry dynamic range defeats scaled-fp16 matrix
//!   streaming must converge to 1e-8 *hands-off* — the stall detector
//!   escalates the inner levels mid-solve,
//! * a benign matrix must never escalate, and the adaptive run must be
//!   bitwise the fixed-spec run (and move fewer matrix bytes than a fixed
//!   Scaled(Fp32) configuration),
//! * after sustained progress at a wider rung the policy de-escalates and
//!   actually re-engages the fp16 stream, still converging,
//! * the escalated rung persists across solves of one session,
//! * a batch adapts like a single solve: a stalled three-column batch
//!   escalates (once per switch, for all its columns) and converges
//!   hands-off, and a benign batch never escalates and is bitwise the
//!   fixed-spec batch,
//! * an unbounded cycle budget cannot overflow the escalation's hard cap.

use std::sync::Arc;

use f3r::core::session::SolveOptions;
use f3r::prelude::*;
use f3r::sparse::gen::{poisson2d_5pt, random_rhs};
use f3r::sparse::scaling::jacobi_scale;
use f3r::sparse::CsrMatrix;

/// Diagonally scaled 2-D Laplacian re-scaled by `D A D` with
/// `D = diag(10^(-expo) .. 10^(expo))`: entry dynamic range ~`10^(4·expo)`.
/// `expo = 4` (~1e16) stalls Scaled(Fp16) streaming outright; `expo = 3.5`
/// merely slows it down (it still converges, just at a stall-grade rate).
fn wide_system(nx: usize, expo: f64) -> CsrMatrix<f64> {
    let a = jacobi_scale(&poisson2d_5pt(nx, nx));
    let n = a.n_rows();
    let d: Vec<f64> = (0..n)
        .map(|i| 10f64.powf(-expo + 2.0 * expo * i as f64 / (n - 1) as f64))
        .collect();
    a.scale_rows_cols(&d, &d)
}

fn two_level(inner: MatrixStorage) -> Vec<LevelSpec> {
    vec![
        LevelSpec::fgmres(30, Precision::Fp64, Precision::Fp64),
        LevelSpec::fgmres_stored(10, inner, Precision::Fp64),
    ]
}

/// The two-level `Scaled(Fp16)` spec with Jacobi and a `cycles` budget.
fn build(pm: &Arc<ProblemMatrix>, cycles: usize) -> Arc<PreparedSolver> {
    SolverBuilder::new(Arc::clone(pm))
        .levels(two_level(MatrixStorage::Scaled(Precision::Fp16)))
        .precond(PrecondKind::Jacobi)
        .max_outer_cycles(cycles)
        .build()
}

fn escalations(log: &[PrecisionSwitch]) -> usize {
    log.iter().filter(|s| s.escalated).count()
}

fn faulted_bytes(log: &[PrecisionSwitch]) -> u64 {
    log.iter().map(|s| s.faulted_bytes).sum()
}

fn has_fp16_matrix(levels: &[LevelSpec]) -> bool {
    levels
        .iter()
        .any(|l| l.matrix_precision() == Precision::Fp16)
}

#[test]
fn stalled_scaled_fp16_escalates_and_converges_hands_off() {
    let pm = Arc::new(ProblemMatrix::from_csr(wide_system(24, 4.0)));
    let n = pm.dim();
    let b = random_rhs(n, 42);

    // Fixed Scaled(Fp16) stalls on this matrix: no convergence in the budget.
    let fixed = build(&pm, 10);
    let r_fixed = fixed.session().solve(&b, &mut vec![0.0; n]);
    assert!(
        !r_fixed.converged,
        "expected the fixed Scaled(Fp16) spec to stall, got {r_fixed}"
    );

    // The same spec with the default adaptive policy converges hands-off.
    let mut session = AdaptiveSession::new(&fixed, AdaptivePolicy::default());
    let mut x = vec![0.0; n];
    let r = session.solve(&b, &mut x);

    assert!(r.converged, "adaptive solve should converge: {r}");
    assert!(r.final_relative_residual < 1e-8);
    let log = session.switches();
    assert!(escalations(log) >= 1, "{log:?}");
    let first = &log[0];
    assert!(first.escalated);
    assert_eq!(first.from_rung, 0);
    assert_eq!(first.to_rung, 1);
    // The widened variants were materialized (bytes accounted) and streamed.
    assert!(faulted_bytes(log) > 0);
    assert!(
        r.counters.matrix_bytes_in(Precision::Fp32) > 0
            || r.counters.matrix_bytes_in(Precision::Fp64) > 0
    );
    assert!(session.rung() >= 1);
}

#[test]
fn benign_matrix_never_escalates_and_undercuts_fixed_fp32_bytes() {
    let pm = Arc::new(ProblemMatrix::from_csr(jacobi_scale(&poisson2d_5pt(
        24, 24,
    ))));
    let n = pm.dim();
    let b = random_rhs(n, 7);

    let solve_fixed = |storage| {
        let prepared = SolverBuilder::new(Arc::clone(&pm))
            .levels(two_level(storage))
            .precond(PrecondKind::Jacobi)
            .build();
        let mut x = vec![0.0; n];
        let r = prepared.session().solve(&b, &mut x);
        assert!(r.converged, "{r}");
        (r, x)
    };
    let (r16, x16) = solve_fixed(MatrixStorage::Scaled(Precision::Fp16));
    let (r32, _) = solve_fixed(MatrixStorage::Scaled(Precision::Fp32));

    let mut session = AdaptiveSession::new(&build(&pm, 3), AdaptivePolicy::default());
    let mut x = vec![0.0; n];
    let r = session.solve(&b, &mut x);

    assert!(r.converged, "{r}");
    // Never escalates on a benign matrix ...
    assert!(session.switches().is_empty());
    assert_eq!(session.rung(), 0);
    // ... and is bitwise the fixed fp16 run (parity well within the issue's
    // one-outer-iteration tolerance).
    assert_eq!(r.outer_iterations, r16.outer_iterations);
    assert_eq!(x, x16);
    // Acceptance criterion: adaptive-from-fp16 moves no more matrix bytes
    // than a fixed Scaled(Fp32) configuration on the benign suite.
    assert!(
        r.counters.matrix_bytes_total() <= r32.counters.matrix_bytes_total(),
        "adaptive {} bytes vs fixed fp32 {} bytes",
        r.counters.matrix_bytes_total(),
        r32.counters.matrix_bytes_total()
    );
}

#[test]
fn deescalation_reengages_fp16_and_still_converges() {
    // expo = 3.5: Scaled(Fp16) converges standalone but at a stall-grade
    // rate, so the detector escalates once; Scaled(Fp32) then makes healthy
    // progress and the (aggressive) policy hands the solve back to fp16,
    // which finishes the job.  max_escalations = 1 keeps the ladder pinned
    // to [Scaled(Fp16), Scaled(Fp32)] dynamics.
    let pm = Arc::new(ProblemMatrix::from_csr(wide_system(24, 3.5)));
    let n = pm.dim();
    let b = random_rhs(n, 42);

    let policy = AdaptivePolicy {
        max_escalations: 1,
        deescalate_after: Some(1),
        ..AdaptivePolicy::default()
    };
    let mut session = AdaptiveSession::new(&build(&pm, 10), policy);
    let mut x = vec![0.0; n];
    let r = session.solve(&b, &mut x);

    assert!(r.converged, "{r}");
    let log = session.switches();
    assert_eq!(escalations(log), 1, "{log:?}");
    // The de-escalation switch re-engaged a half-precision matrix stream.
    let down = log
        .iter()
        .find(|ev| !ev.escalated)
        .expect("a de-escalation event");
    assert!(down.to_rung < down.from_rung);
    assert!(has_fp16_matrix(&down.levels));
    // And fp16 matrix traffic resumed after the switch back.
    assert!(r.counters.matrix_bytes_in(Precision::Fp16) > 0);
}

#[test]
fn escalated_rung_persists_across_solves_of_a_session() {
    let pm = Arc::new(ProblemMatrix::from_csr(wide_system(24, 4.0)));
    let n = pm.dim();
    let mut session = AdaptiveSession::new(&build(&pm, 10), AdaptivePolicy::default());

    let b1 = random_rhs(n, 1);
    let mut x = vec![0.0; n];
    let r1 = session.solve(&b1, &mut x);
    assert!(r1.converged, "{r1}");
    assert!(session.rung() >= 1);
    let first_escalations = escalations(session.switches());
    assert!(first_escalations >= 1);

    // A second solve starts at the already-escalated rung: it converges
    // without re-walking the rungs the first solve already climbed.
    let b2 = random_rhs(n, 2);
    let mut x2 = vec![0.0; n];
    let r2 = session.solve(&b2, &mut x2);
    assert!(r2.converged, "{r2}");
    let second_escalations = escalations(session.switches());
    assert!(
        second_escalations < first_escalations || second_escalations == 0,
        "second solve escalated {second_escalations} times vs {first_escalations} on the first"
    );
}

#[test]
fn stalled_three_column_batch_escalates_and_converges_hands_off() {
    let pm = Arc::new(ProblemMatrix::from_csr(wide_system(24, 4.0)));
    let n = pm.dim();
    let bs: Vec<Vec<f64>> = (0..3).map(|s| random_rhs(n, 44 + s)).collect();
    let prepared = build(&pm, 10);

    // The fixed Scaled(Fp16) batch stalls like the fixed single solve.
    let mut xs = vec![Vec::new(); 3];
    let fixed = prepared.session().solve_batch(&bs, &mut xs);
    assert!(fixed.iter().all(|r| !r.converged));

    let mut session = AdaptiveSession::new(&prepared, AdaptivePolicy::default());
    let results = session.solve_batch(&bs, &mut xs);
    for (c, r) in results.iter().enumerate() {
        assert!(r.converged, "column {c}: {r}");
        assert!(pm.true_relative_residual(&xs[c], &bs[c]) < 1e-8, "column {c}");
    }
    // The chain is shared: the batch climbed the ladder once for all its
    // columns — no more switches than the ladder has rungs to climb — and
    // the session stays on the rung it reached.
    let log = session.switches();
    let rung = session.rung();
    assert!(escalations(log) >= 1 && rung >= 1);
    assert_eq!(escalations(log), rung, "one switch per rung, not per column");
    assert!(faulted_bytes(log) > 0);
}

#[test]
fn benign_batch_never_escalates_and_is_bitwise_the_fixed_spec_batch() {
    let pm = Arc::new(ProblemMatrix::from_csr(jacobi_scale(&poisson2d_5pt(24, 24))));
    let n = pm.dim();
    let bs: Vec<Vec<f64>> = (0..3).map(|s| random_rhs(n, 7 + s)).collect();
    let prepared = build(&pm, 3);
    let mut xs_fixed = vec![Vec::new(); 3];
    let fixed = prepared.session().solve_batch(&bs, &mut xs_fixed);

    let mut session = AdaptiveSession::new(&prepared, AdaptivePolicy::default());
    let mut xs = vec![Vec::new(); 3];
    let results = session.solve_batch(&bs, &mut xs);
    assert_eq!(session.rung(), 0);
    assert!(session.switches().is_empty());
    for c in 0..3 {
        assert!(results[c].converged, "column {c}: {}", results[c]);
        assert_eq!(results[c].outer_iterations, fixed[c].outer_iterations, "column {c}");
        assert_eq!(results[c].residual_history, fixed[c].residual_history, "column {c}");
        assert_eq!(xs[c], xs_fixed[c], "column {c}");
    }
}

#[test]
fn unbounded_cycle_budget_is_the_default_budget_solve() {
    // The hard cap multiplies the budget by `2 · max_escalations + 2`: a
    // `usize::MAX` override saturates instead of overflowing.
    let pm = Arc::new(ProblemMatrix::from_csr(jacobi_scale(&poisson2d_5pt(24, 24))));
    let n = pm.dim();
    let b = random_rhs(n, 7);
    let prepared = build(&pm, 3);
    let mut x = vec![0.0; n];
    let r = AdaptiveSession::new(&prepared, AdaptivePolicy::default()).solve(&b, &mut x);
    let mut x_max = vec![0.0; n];
    let mut session = AdaptiveSession::new(&prepared, AdaptivePolicy::default());
    let r_max = session.solve_with(&b, &mut x_max, &SolveOptions::new().max_outer_cycles(usize::MAX));
    assert!(r_max.converged, "{r_max}");
    assert!(session.switches().is_empty());
    assert_eq!(r_max.outer_iterations, r.outer_iterations);
    assert_eq!(r_max.residual_history, r.residual_history);
    assert_eq!(x_max, x);
}
