//! One Krylov cycle, one solve driver: a single right-hand side is the
//! one-column batch.
//!
//! * Every column of a `solve_batch_with` call runs under its own options
//!   and is bitwise its own `solve_with` (FGMRES-only chain; a Richardson
//!   level shares weight state across a batch, see `tests/batch_solve.rs`).
//! * The cycle's progress hook is per column: stopping one column leaves the
//!   others bitwise untouched.
//! * The counts of fp16-/fp32-/fp64-F3R and FGMRES(64) on HPCG 16³ and HPGMP
//!   12³ are the ones the two-driver code produced (taken from the commit
//!   before the merge), single and k = 3.  The modeled bytes are those of
//!   one-sweep Gram–Schmidt, which records one pass over `w` for the
//!   projections and one for the updates where the per-vector calls recorded
//!   j + 1 of each: 3·j·n fewer vector elements at iteration j.
//! * A one-column panel runs, and is counted as, single-vector kernels.

use std::sync::Arc;

use f3r::core::fgmres::{fgmres_cycle, CycleOutcome, CycleParams, CycleProgress, FgmresWorkspace};
use f3r::core::inner::PrecondInner;
use f3r::core::precond_any::AnyPrecond;
use f3r::precision::KernelCounters;
use f3r::precond::PrecondKind;
use f3r::prelude::*;
use f3r::sparse::gen::{hpcg_matrix, hpgmp_matrix, poisson2d_5pt, random_rhs};
use f3r::sparse::scaling::jacobi_scale;
use f3r::sparse::CsrMatrix;

fn two_level(a: CsrMatrix<f64>) -> Arc<PreparedSolver> {
    SolverBuilder::new(Arc::new(ProblemMatrix::from_csr(a)))
        .levels(vec![
            LevelSpec::fgmres(12, Precision::Fp64, Precision::Fp64),
            LevelSpec::fgmres(4, Precision::Fp32, Precision::Fp32),
        ])
        .precond(PrecondKind::Jacobi)
        .max_outer_cycles(8)
        .build()
}

#[test]
fn per_column_options_are_each_their_own_solve_with() {
    let prepared = two_level(jacobi_scale(&poisson2d_5pt(20, 20)));
    let n = prepared.dim();
    let bs: Vec<Vec<f64>> = (0..4).map(|s| random_rhs(n, 900 + s)).collect();
    // A warm start worth having: the loose solution of column 3.
    let mut x0 = vec![0.0; n];
    prepared.session().solve_with(&bs[3], &mut x0, &SolveOptions::new().tol(1e-3));
    let opts = [
        SolveOptions::new(),
        SolveOptions::new().tol(1e-3),
        SolveOptions::new().max_outer_cycles(1),
        SolveOptions::new().x0(&x0).tol(1e-10),
    ];
    let mut xs = vec![Vec::new(); 4];
    let results = prepared.session().solve_batch_with(&bs, &mut xs, &opts);

    for c in 0..4 {
        let mut x = vec![0.0; n];
        let alone = prepared.session().solve_with(&bs[c], &mut x, &opts[c]);
        assert_eq!(xs[c], x, "column {c}");
        assert_eq!(results[c].stop_reason, alone.stop_reason, "column {c}");
        assert_eq!(results[c].outer_iterations, alone.outer_iterations, "column {c}");
        assert_eq!(results[c].residual_history, alone.residual_history, "column {c}");
    }
    // The options really differed in effect.
    assert!(results[0].converged && results[1].converged && results[3].converged);
    assert!(results[1].outer_iterations < results[0].outer_iterations);
    assert_eq!(results[2].stop_reason, StopReason::MaxIterations);
    assert_eq!(results[2].residual_history.len(), 1);
    assert!(results[3].outer_iterations < results[0].outer_iterations);
    assert!(results[3].final_relative_residual < 1e-10);
}

/// Stops column `column` once it has completed `after` iterations.
struct StopColumn {
    column: usize,
    after: usize,
    seen: Vec<(usize, usize)>,
}

impl CycleProgress for StopColumn {
    fn on_iteration(&mut self, column: usize, iteration: usize, _estimate: f64) -> bool {
        self.seen.push((column, iteration));
        !(column == self.column && iteration + 1 == self.after)
    }
}

#[test]
fn hook_stops_one_column_and_leaves_the_others_untouched() {
    let a = jacobi_scale(&poisson2d_5pt(9, 9));
    let m = Arc::new(AnyPrecond::build(&a, &PrecondKind::Ilu0 { alpha: 1.0 }, Precision::Fp64));
    let pm = ProblemMatrix::from_csr(a);
    let n = pm.dim();
    let counters = KernelCounters::new_shared();
    let cycle = |hook: &mut StopColumn, xs: &mut [f64], bs: &[f64], k: usize| -> Vec<CycleOutcome> {
        let mut inner = PrecondInner::<f64>::new(Arc::clone(&m), Arc::clone(&counters), 2);
        let mut ws = FgmresWorkspace::<f64>::new(n, 8);
        fgmres_cycle(
            CycleParams {
                matrix: &pm,
                mat_storage: MatrixStorage::Plain(Precision::Fp64),
                inner: &mut inner,
                abs_tols: None,
                x_nonzero: None,
                depth: 1,
                counters: &counters,
                progress: Some(hook),
            },
            xs,
            bs,
            &mut ws,
            k,
        )
        .to_vec()
    };
    let bs: Vec<Vec<f64>> = (0..3).map(|c| random_rhs(n, 91 + c)).collect();
    let mut hook = StopColumn { column: 1, after: 3, seen: Vec::new() };
    let mut xp = vec![0.0f64; n * 3];
    let outcomes = cycle(&mut hook, &mut xp, &bs.concat(), 3);
    assert!(outcomes[1].stopped && outcomes[1].iterations == 3);
    assert!(!outcomes[0].stopped && outcomes[0].iterations == 8);
    assert!(!outcomes[2].stopped && outcomes[2].iterations == 8);
    // Column 1 reported iterations 0..3, the others all eight.
    assert_eq!(hook.seen.iter().filter(|(c, _)| *c == 1).count(), 3);
    assert_eq!(hook.seen.len(), 3 + 2 * 8);

    // Each column equals its own lone cycle — column 1 a lone column stopped
    // at the same iteration, its partial update applied.
    for (c, b) in bs.iter().enumerate() {
        let after = if c == 1 { 3 } else { usize::MAX };
        let mut alone = StopColumn { column: 0, after, seen: Vec::new() };
        let mut x = vec![0.0f64; n];
        let out = cycle(&mut alone, &mut x, b, 1);
        assert_eq!(outcomes[c], out[0], "column {c}");
        assert_eq!(&xp[c * n..(c + 1) * n], &x[..], "column {c}");
    }
}

/// (outer iterations, `M` applications, modeled bytes) of one call.
type Counts = (usize, u64, u64);

fn counts(r: &SolveResult) -> Counts {
    (r.outer_iterations, r.precond_applications, r.modeled_bytes())
}

/// The pinned counts of one problem: per F3R scheme a single solve and a
/// k = 3 batch (whose `M` applications and bytes are batch totals), and the
/// FGMRES(64) baseline.
struct Pinned {
    f3r: [(F3rScheme, Counts, Counts); 3],
    fgmres64: Counts,
}

fn assert_pinned(a: CsrMatrix<f64>, kind: PrecondKind, pinned: &Pinned) {
    let n = a.n_rows();
    let pm = Arc::new(ProblemMatrix::from_csr(a));
    let bs: Vec<Vec<f64>> = (0..3).map(|s| random_rhs(n, 40 + s)).collect();
    for (scheme, single, batch) in pinned.f3r {
        let prepared = SolverBuilder::new(Arc::clone(&pm)).scheme(scheme).precond(kind).build();
        let mut x = vec![0.0; n];
        let r = prepared.session().solve(&bs[0], &mut x);
        assert!(r.converged);
        assert_eq!(counts(&r), single, "{scheme:?} single");
        assert_eq!(r.counters.total_spmm(), 0, "{scheme:?}: a single solve makes no panel pass");

        let mut xs = vec![Vec::new(); 3];
        let rs = prepared.session().solve_batch(&bs, &mut xs);
        for (c, r) in rs.iter().enumerate() {
            assert!(r.converged);
            assert_eq!(counts(r), batch, "{scheme:?} k = 3, column {c}");
        }
    }
    let config = BaselineConfig { precond: kind, ..BaselineConfig::default() };
    let mut fgmres = RestartedFgmresSolver::new(pm, 64, config);
    let mut x = vec![0.0; n];
    let r = SparseSolver::solve(&mut fgmres, &bs[0], &mut x);
    assert!(r.converged);
    assert_eq!(counts(&r), pinned.fgmres64, "FGMRES(64)");
}

#[test]
fn counts_are_the_two_driver_codes_on_hpcg_16() {
    assert_pinned(
        jacobi_scale(&hpcg_matrix(16, 16, 16)),
        PrecondKind::Ic0 { alpha: 1.0 },
        &Pinned {
            f3r: [
                (F3rScheme::Fp16, (2, 128, 170_677_296), (2, 384, 246_053_248)),
                (F3rScheme::Fp32, (2, 128, 217_405_712), (2, 384, 310_435_872)),
                (F3rScheme::Fp64, (1, 64, 173_198_092), (1, 192, 264_106_068)),
            ],
            fgmres64: (14, 14, 40_109_968),
        },
    );
}

#[test]
fn counts_are_the_two_driver_codes_on_hpgmp_12() {
    assert_pinned(
        jacobi_scale(&hpgmp_matrix(12, 12, 12, 0.5)),
        PrecondKind::Ilu0 { alpha: 1.0 },
        &Pinned {
            f3r: [
                (F3rScheme::Fp16, (2, 128, 84_118_640), (2, 384, 115_875_648)),
                (F3rScheme::Fp32, (2, 128, 107_959_184), (2, 384, 147_149_984)),
                (F3rScheme::Fp64, (1, 64, 85_238_092), (1, 192, 123_547_668)),
            ],
            fgmres64: (12, 12, 16_503_648),
        },
    );
}

#[test]
fn a_one_column_panel_is_counted_as_spmvs() {
    let a = jacobi_scale(&hpcg_matrix(6, 6, 6));
    let n = a.n_rows();
    let pm = Arc::new(ProblemMatrix::from_csr(a));
    let storage = MatrixStorage::Plain(Precision::Fp64);
    let x = random_rhs(n, 3);
    let b = random_rhs(n, 4);

    // The matrix entry points: same bits, same records as the single forms.
    let (panel, single) = (KernelCounters::new_shared(), KernelCounters::new_shared());
    let (mut yp, mut ys) = (vec![0.0; n], vec![0.0; n]);
    pm.apply_multi(storage, &x, &mut yp, 1, &panel);
    pm.apply(storage, &x, &mut ys, &single);
    assert_eq!(yp, ys);
    pm.residual_multi(storage, &x, &b, &mut yp, 1, &panel);
    pm.residual(storage, &x, &b, &mut ys, &single);
    assert_eq!(yp, ys);
    assert_eq!(panel.snapshot(), single.snapshot());
    assert_eq!(panel.snapshot().total_spmm(), 0);
    assert_eq!(panel.snapshot().total_spmv(), 2);

    // The driver: a one-column batch is a single solve, counters included.
    let prepared = SolverBuilder::new(pm).scheme(F3rScheme::Fp16).build();
    let mut xs = vec![Vec::new()];
    let batch = prepared.session().solve_batch(std::slice::from_ref(&b), &mut xs).remove(0);
    let mut x1 = vec![0.0; n];
    let alone = prepared.session().solve(&b, &mut x1);
    assert_eq!(xs[0], x1);
    assert_eq!(batch.counters, alone.counters);
    assert_eq!(batch.counters.total_spmm(), 0);
    assert!(batch.counters.total_spmv() > 0);
}
