//! Golden whole-solve hashes on the scalar kernel backend.
//!
//! Every solver the paper compares — fp16/fp32/fp64-F3R, FGMRES(64) with an
//! fp64- and an fp16-stored `M`, CG and BiCGStab — solves one right-hand side
//! on HPCG 16³, Poisson 40² and HPGMP 12³, and fp16-F3R solves one k = 3
//! batch on HPCG 16³.  Each line pins the
//! FNV-1a of the solution bits and of the residual-history bits, the outer
//! iterations and the `M` applications.  A second listing pins adaptive
//! solves (`AdaptiveSession`) on `D A D`-scaled Poisson 24², with each
//! call's switches as `cycle:from->to` and the rung it ends on.  A kernel change that claims to keep
//! every bit (a fused sweep, a reordered loop that each element sees in the
//! same order) must leave this listing unchanged; a change that moves bits on
//! purpose regenerates it from the failure message and says why.
//!
//! The scalar backend is requested before the first kernel runs (the backend
//! latches once per process, so this is a binary of its own), which makes the
//! listing independent of the host's SIMD features.  Every problem has fewer
//! than 2¹⁴ rows (times the panel width), so no kernel reaches the worker
//! pool and the listing does not depend on the pool size either.

use std::sync::Arc;

use f3r::precond::PrecondKind;
use f3r::prelude::*;
use f3r::sparse::gen::{hpcg_matrix, hpgmp_matrix, poisson2d_5pt, random_rhs};
use f3r::sparse::scaling::jacobi_scale;
use f3r_simd::{set_kernel_backend, KernelBackend};

/// FNV-1a over the little-endian bits of `values`.
fn fnv1a(values: &[f64]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

fn line(problem: &str, r: &SolveResult, x: &[f64]) -> String {
    format!(
        "{problem} {} x={:016x} hist={:016x} outer={} M={}",
        r.solver_name,
        fnv1a(x),
        fnv1a(&r.residual_history),
        r.outer_iterations,
        r.precond_applications
    )
}

/// One problem of the listing: its name, the Jacobi-scaled matrix and the
/// block-Jacobi preconditioner the standing benchmark uses on it.
fn problems() -> Vec<(&'static str, CsrMatrix<f64>, PrecondKind)> {
    let ic = PrecondKind::BlockJacobiIc0 { blocks: 8, alpha: 1.0 };
    let ilu = PrecondKind::BlockJacobiIlu0 { blocks: 8, alpha: 1.0 };
    vec![
        ("hpcg16", jacobi_scale(&hpcg_matrix(16, 16, 16)), ic),
        ("poisson40", jacobi_scale(&poisson2d_5pt(40, 40)), ic),
        ("hpgmp12", jacobi_scale(&hpgmp_matrix(12, 12, 12, 0.5)), ilu),
    ]
}

fn listing() -> Vec<String> {
    let mut out = Vec::new();
    for (problem, a, precond) in problems() {
        let n = a.n_rows();
        let b = random_rhs(n, 7);
        let matrix = Arc::new(ProblemMatrix::from_csr(a));
        for scheme in [F3rScheme::Fp16, F3rScheme::Fp32, F3rScheme::Fp64] {
            let prepared = SolverBuilder::new(Arc::clone(&matrix)).scheme(scheme).precond(precond).build();
            let mut x = vec![0.0; n];
            let r = prepared.session().solve(&b, &mut x);
            out.push(line(problem, &r, &x));
            if problem == "hpcg16" && scheme == F3rScheme::Fp16 {
                let bs: Vec<Vec<f64>> = (0..3).map(|s| random_rhs(n, 11 + s)).collect();
                let mut xs = vec![Vec::new(); 3];
                let results = prepared.session().solve_batch(&bs, &mut xs);
                for (c, (r, x)) in results.iter().zip(&xs).enumerate() {
                    out.push(line(&format!("{problem}-batch3[{c}]"), r, x));
                }
            }
        }
        // CG on the nonsymmetric HPGMP matrix runs into its budget; 500
        // iterations keep that line short.
        let config = BaselineConfig { precond, max_iterations: 500, ..BaselineConfig::default() };
        let fp16_m = BaselineConfig { precond_prec: Precision::Fp16, ..config.clone() };
        let baselines: [Box<dyn SparseSolver>; 4] = [
            Box::new(RestartedFgmresSolver::new(Arc::clone(&matrix), 64, config.clone())),
            Box::new(RestartedFgmresSolver::new(Arc::clone(&matrix), 64, fp16_m)),
            Box::new(CgSolver::new(Arc::clone(&matrix), config.clone())),
            Box::new(BiCgStabSolver::new(Arc::clone(&matrix), config)),
        ];
        for mut solver in baselines {
            let mut x = vec![0.0; n];
            let r = solver.solve(&b, &mut x);
            out.push(line(problem, &r, &x));
        }
    }
    out
}

/// The listing at the commit that introduced this test, before one-sweep
/// Gram–Schmidt; the `fp16-FGMRES(64)` lines were taken before FGMRES(64)
/// moved onto the session driver.
const GOLDEN: &str = "\
hpcg16 fp16-F3R x=c4f013371c3d922a hist=91aa0ff48a2a9434 outer=4 M=256
hpcg16-batch3[0] fp16-F3R x=fd90f34b4124869e hist=af00db7fa819cf3f outer=3 M=576
hpcg16-batch3[1] fp16-F3R x=2406107190db97be hist=bf26abb165914f36 outer=3 M=576
hpcg16-batch3[2] fp16-F3R x=6a8e7da2cd82378c hist=7549632383f0753e outer=3 M=576
hpcg16 fp32-F3R x=261df8bed30056a9 hist=f2f34cdbf9d81227 outer=4 M=256
hpcg16 fp64-F3R x=d490c9d4e96b16f8 hist=1fae5f3f7f89bb8c outer=3 M=192
hpcg16 fp64-FGMRES(64) x=3a1d71477a571c41 hist=d3a686a28b87d30d outer=27 M=27
hpcg16 fp16-FGMRES(64) x=79dd7651d9d948eb hist=2c6928b747d9d860 outer=27 M=27
hpcg16 fp64-CG x=7e977fda6008ac18 hist=63fd041d8fb4d829 outer=28 M=28
hpcg16 fp64-BiCGStab x=a649a24fcd85ad3b hist=60b1568a0ed18eeb outer=19 M=37
poisson40 fp16-F3R x=335930beee9ec2b0 hist=0ab696a50ba5edca outer=2 M=128
poisson40 fp32-F3R x=c081a21c086f170a hist=48864bd97297a141 outer=2 M=128
poisson40 fp64-F3R x=0adbebeb274ba259 hist=f0328541cd3e661b outer=2 M=128
poisson40 fp64-FGMRES(64) x=db505a0bb66d024d hist=3799401049bfcaa1 outer=58 M=58
poisson40 fp16-FGMRES(64) x=a91b88b7e800dec8 hist=c0a3ac3d4b2aba20 outer=58 M=58
poisson40 fp64-CG x=6058e9e42be34954 hist=8706bdfb2929249d outer=59 M=59
poisson40 fp64-BiCGStab x=d0625935b794c52a hist=41150ffb6d7b08b8 outer=46 M=92
hpgmp12 fp16-F3R x=5929997da704e2c8 hist=b233ca6614a3ca8f outer=3 M=192
hpgmp12 fp32-F3R x=b617a3385b7bdf71 hist=5261764daab0124a outer=3 M=192
hpgmp12 fp64-F3R x=f136033f3d6d24f5 hist=6ea7f912996e072c outer=3 M=192
hpgmp12 fp64-FGMRES(64) x=aa8a9946a24a80d3 hist=fa6e596931b2bbad outer=26 M=26
hpgmp12 fp16-FGMRES(64) x=4346552d0f8abe20 hist=fb27417555d19e0d outer=26 M=26
hpgmp12 fp64-CG x=987a397ff6af3876 hist=0b095e1429788a56 outer=500 M=501
hpgmp12 fp64-BiCGStab x=4ccd6ca720867c2d hist=cd512baa4d2f6c36 outer=16 M=31
";

#[test]
fn whole_solve_hashes_match_the_golden_listing() {
    assert_eq!(set_kernel_backend(KernelBackend::Scalar), KernelBackend::Scalar);
    let got = listing().join("\n");
    assert!(got == GOLDEN.trim_end(), "whole-solve listing changed; now:\n{got}");
}

/// The Jacobi-scaled Poisson 24² re-scaled by `D A D` with
/// `D = diag(10^(-expo) .. 10^(expo))`: entry dynamic range about
/// `10^(4·expo)`.
fn dad_poisson24(expo: f64) -> Arc<ProblemMatrix> {
    let a = jacobi_scale(&poisson2d_5pt(24, 24));
    let n = a.n_rows();
    let d: Vec<f64> = (0..n)
        .map(|i| 10f64.powf(-expo + 2.0 * expo * i as f64 / (n - 1) as f64))
        .collect();
    Arc::new(ProblemMatrix::from_csr(a.scale_rows_cols(&d, &d)))
}

fn adaptive_line(problem: &str, r: &SolveResult, x: &[f64], session: &AdaptiveSession) -> String {
    let switches: Vec<String> =
        session.switches().iter().map(|s| format!("{}:{}->{}", s.cycle, s.from_rung, s.to_rung)).collect();
    format!("{} switches=[{}] rung={}", line(problem, r, x), switches.join(","), session.rung())
}

fn adaptive_listing() -> Vec<String> {
    let scaled_fp16 = |matrix: Arc<ProblemMatrix>| {
        SolverBuilder::new(matrix)
            .levels(vec![
                LevelSpec::fgmres(30, Precision::Fp64, Precision::Fp64),
                LevelSpec::fgmres_stored(10, MatrixStorage::Scaled(Precision::Fp16), Precision::Fp64),
            ])
            .precond(PrecondKind::Jacobi)
            .max_outer_cycles(10)
            .build()
    };
    let mut out = Vec::new();
    // Range 1e16 stalls the scaled fp16 stream: two escalations, then the
    // rung persists into the session's next solve; a batch climbs once.
    let stalled = scaled_fp16(dad_poisson24(4.0));
    let n = stalled.dim();
    let mut x = vec![0.0; n];
    let mut session = AdaptiveSession::new(&stalled, AdaptivePolicy::default());
    let r = session.solve(&random_rhs(n, 42), &mut x);
    out.push(adaptive_line("dad24-1e4", &r, &x, &session));
    let mut session = AdaptiveSession::new(&stalled, AdaptivePolicy::default());
    for seed in [1, 2] {
        let r = session.solve(&random_rhs(n, seed), &mut x);
        out.push(adaptive_line(&format!("dad24-1e4-persist[{seed}]"), &r, &x, &session));
    }
    let bs: Vec<Vec<f64>> = (0..3).map(|s| random_rhs(n, 44 + s)).collect();
    let mut xs = vec![Vec::new(); 3];
    let mut session = AdaptiveSession::new(&stalled, AdaptivePolicy::default());
    let results = session.solve_batch(&bs, &mut xs);
    for (c, (r, x)) in results.iter().zip(&xs).enumerate() {
        out.push(adaptive_line(&format!("dad24-1e4-batch3[{c}]"), r, x, &session));
    }
    // Range 1e14 only slows it: one escalation, then back down to fp16.
    let policy = AdaptivePolicy { max_escalations: 1, deescalate_after: Some(1), ..AdaptivePolicy::default() };
    let mut session = AdaptiveSession::new(&scaled_fp16(dad_poisson24(3.5)), policy);
    let r = session.solve(&random_rhs(n, 42), &mut x);
    out.push(adaptive_line("dad24-1e3.5-deescalate", &r, &x, &session));
    // Range 1e10: the autotuner picks row-scaled fp16-F3R, whose fixed solve
    // breaks down after one outer iteration.  One switch widens its two fp16
    // levels (one of them Richardson) and rescues it.
    let tuned = SolverBuilder::new(dad_poisson24(2.5)).auto_spec().precond(PrecondKind::Jacobi).build();
    let mut session = AdaptiveSession::new(&tuned, AdaptivePolicy::default());
    let r = session.solve(&random_rhs(n, 42), &mut x);
    out.push(adaptive_line("dad24-1e2.5", &r, &x, &session));
    out
}

/// The adaptive listing, taken while precision escalation still ran inside
/// the session driver.
const ADAPTIVE_GOLDEN: &str = "\
dad24-1e4 (F30, F10, M) x=c8307e4a010394fd hist=3dda8d4adaf24fcc outer=79 M=790 switches=[0:0->1,1:1->2] rung=2
dad24-1e4-persist[1] (F30, F10, M) x=fceb1c8c50777b71 hist=3b9d3c45344be1ba outer=81 M=810 switches=[0:0->1,1:1->2] rung=2
dad24-1e4-persist[2] (F30, F10, M) x=99cba83d9e637ec0 hist=8bc7ac5ce681e982 outer=56 M=560 switches=[] rung=2
dad24-1e4-batch3[0] (F30, F10, M) x=bbe1603c07dba966 hist=036716536f63450e outer=83 M=2700 switches=[0:0->1,1:1->2] rung=2
dad24-1e4-batch3[1] (F30, F10, M) x=1f5b65c5681bd242 hist=49bbe4df8177777c outer=79 M=2700 switches=[0:0->1,1:1->2] rung=2
dad24-1e4-batch3[2] (F30, F10, M) x=53fac4cc8c677a80 hist=3ef7ecc9fef72a4b outer=108 M=2700 switches=[0:0->1,1:1->2] rung=2
dad24-1e3.5-deescalate (F30, F10, M) x=66ec8d145c998082 hist=998b17453e9c20b9 outer=57 M=570 switches=[0:0->1,1:1->0] rung=0
dad24-1e2.5 auto:fp16-F3R-scaled x=5087308281283d1e hist=ff37fe703c2f576f outer=14 M=838 switches=[0:0->1] rung=1
";

#[test]
fn adaptive_solve_hashes_match_the_golden_listing() {
    assert_eq!(set_kernel_backend(KernelBackend::Scalar), KernelBackend::Scalar);
    let got = adaptive_listing().join("\n");
    assert!(got == ADAPTIVE_GOLDEN.trim_end(), "adaptive listing changed; now:\n{got}");
}
