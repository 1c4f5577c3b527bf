//! Cross-crate integration tests: full solves through the public `f3r` API.

use std::sync::Arc;

use f3r::prelude::*;
use f3r::sparse::gen::{
    convection_diffusion_3d, elasticity_like_3d, hpcg_matrix, hpgmp_matrix, random_rhs,
};
use f3r::sparse::scaling::jacobi_scale;
use f3r::sparse::spmv::spmv;
use f3r::sparse::CsrMatrix;

fn solve_with_scheme(a: &CsrMatrix<f64>, symmetric: bool, scheme: F3rScheme) -> (SolveResult, Vec<f64>, Vec<f64>) {
    let n = a.n_rows();
    let b = random_rhs(n, 7);
    let precond = if symmetric {
        PrecondKind::BlockJacobiIc0 { blocks: 4, alpha: 1.0 }
    } else {
        PrecondKind::BlockJacobiIlu0 { blocks: 4, alpha: 1.0 }
    };
    let matrix = Arc::new(ProblemMatrix::from_csr(a.clone()));
    let mut session = SolverBuilder::new(matrix)
        .scheme(scheme)
        .precond(precond)
        .build()
        .session();
    let mut x = vec![0.0; n];
    let r = session.solve(&b, &mut x);
    (r, x, b)
}

#[test]
fn all_three_f3r_schemes_converge_on_hpcg() {
    let a = jacobi_scale(&hpcg_matrix(10, 10, 10));
    for scheme in [F3rScheme::Fp64, F3rScheme::Fp32, F3rScheme::Fp16] {
        let (r, x, b) = solve_with_scheme(&a, true, scheme);
        assert!(r.converged, "{scheme:?} failed: {}", r.final_relative_residual);
        // verify the returned solution against the matrix directly
        let mut ax = vec![0.0; x.len()];
        spmv(&a, &x, &mut ax);
        let num: f64 = ax.iter().zip(&b).map(|(p, q)| (p - q) * (p - q)).sum::<f64>().sqrt();
        let den: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(num / den < 1e-8, "{scheme:?} true residual {}", num / den);
    }
}

#[test]
fn all_three_f3r_schemes_converge_on_nonsymmetric_hpgmp() {
    let a = jacobi_scale(&hpgmp_matrix(10, 10, 10, 0.5));
    for scheme in [F3rScheme::Fp64, F3rScheme::Fp32, F3rScheme::Fp16] {
        let (r, _, _) = solve_with_scheme(&a, false, scheme);
        assert!(r.converged, "{scheme:?} failed: {}", r.final_relative_residual);
    }
}

#[test]
fn fp16_f3r_handles_strong_convection() {
    let a = jacobi_scale(&convection_diffusion_3d(12, 12, 12, 2.0, 1.0, 3.0));
    let (r, _, _) = solve_with_scheme(&a, false, F3rScheme::Fp16);
    assert!(r.converged, "residual {}", r.final_relative_residual);
}

#[test]
fn fp16_f3r_handles_heavy_elasticity_like_problem() {
    let a = jacobi_scale(&elasticity_like_3d(5, 5, 5, 0.3));
    let (r, _, _) = solve_with_scheme(&a, true, F3rScheme::Fp16);
    assert!(r.converged, "residual {}", r.final_relative_residual);
}

#[test]
fn gpu_node_configuration_sd_ainv_plus_sell() {
    // The Figure 2 configuration: SD-AINV preconditioner + sliced ELLPACK.
    let a = jacobi_scale(&hpcg_matrix(10, 10, 10));
    let n = a.n_rows();
    let b = random_rhs(n, 5);
    let matrix = Arc::new(ProblemMatrix::new(a, SpmvBackend::Sell { chunk: 32 }));
    let mut solver = SolverBuilder::new(matrix)
        .scheme(F3rScheme::Fp16)
        .precond(PrecondKind::SdAinv { alpha: 1.0, order: 2 })
        .build()
        .session();
    let mut x = vec![0.0; n];
    let r = solver.solve(&b, &mut x);
    assert!(r.converged, "residual {}", r.final_relative_residual);
}

#[test]
fn nesting_variants_of_table4_converge() {
    let a = jacobi_scale(&hpcg_matrix(8, 8, 8));
    let n = a.n_rows();
    let b = random_rhs(n, 13);
    let matrix = Arc::new(ProblemMatrix::from_csr(a));
    let settings = SolverSettings {
        precond: PrecondKind::BlockJacobiIc0 { blocks: 4, alpha: 1.0 },
        ..SolverSettings::default()
    };
    for spec in [
        f2_spec(&settings),
        fp16_f2_spec(&settings),
        f3_spec(&settings),
        fp16_f3_spec(&settings),
        f4_spec(&settings),
    ] {
        let name = spec.name.clone();
        let mut solver = SolverBuilder::new(Arc::clone(&matrix)).spec(spec).build().session();
        let mut x = vec![0.0; n];
        let r = solver.solve(&b, &mut x);
        assert!(r.converged, "{name} failed: {}", r.final_relative_residual);
    }
}

#[test]
fn baselines_and_f3r_agree_on_the_solution() {
    let a = jacobi_scale(&hpcg_matrix(8, 8, 8));
    let n = a.n_rows();
    let b = random_rhs(n, 3);
    let matrix = Arc::new(ProblemMatrix::from_csr(a));
    let precond = PrecondKind::BlockJacobiIc0 { blocks: 4, alpha: 1.0 };
    let settings = SolverSettings {
        precond,
        ..SolverSettings::default()
    };

    let mut x_f3r = vec![0.0; n];
    let mut f3r = SolverBuilder::new(Arc::clone(&matrix))
        .spec(f3r_spec(F3rParams::default(), F3rScheme::Fp16, &settings))
        .build()
        .session();
    assert!(f3r.solve(&b, &mut x_f3r).converged);

    let mut x_cg = vec![0.0; n];
    let mut cg = CgSolver::new(
        Arc::clone(&matrix),
        BaselineConfig {
            precond,
            ..BaselineConfig::default()
        },
    );
    assert!(cg.solve(&b, &mut x_cg).converged);

    // Both converged to tolerance 1e-8 on a well-conditioned system, so the
    // solutions must agree to a few orders of magnitude above that.
    let diff: f64 = x_f3r.iter().zip(&x_cg).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
    let norm: f64 = x_cg.iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!(diff / norm < 1e-6, "solutions diverge: {}", diff / norm);
}

#[test]
fn solver_is_reusable_across_right_hand_sides() {
    let a = jacobi_scale(&hpcg_matrix(8, 8, 8));
    let n = a.n_rows();
    let matrix = Arc::new(ProblemMatrix::from_csr(a));
    let mut solver = SolverBuilder::new(matrix)
        .scheme(F3rScheme::Fp16)
        .precond(PrecondKind::BlockJacobiIc0 { blocks: 4, alpha: 1.0 })
        .build()
        .session();
    for seed in 0..3 {
        let b = random_rhs(n, seed);
        let mut x = vec![0.0; n];
        let r = solver.solve(&b, &mut x);
        assert!(r.converged, "seed {seed}: {}", r.final_relative_residual);
    }
}
