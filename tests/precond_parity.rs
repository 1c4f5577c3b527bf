//! Parity suite for the application of the primary preconditioner `M`.
//!
//! The triangular sweeps of IC(0) and ILU(0) carry their working vector in
//! the accumulation precision and round each entry of the result once
//! (`crates/precond/src/trisolve.rs`).  This suite pins, from the public
//! surface and on whatever kernel backend and pool shape the process latched
//! (CI runs it on `auto` and `scalar`, with one and with two pool threads):
//!
//! * an fp16 application is **bitwise** the same under the scalar backend as
//!   under this process's backend — the suite re-runs itself in a child
//!   process with `F3R_KERNEL_BACKEND=scalar` and compares digests of the
//!   output bits — on HPCG, HPGMP and a ragged banded pattern whose rows have
//!   0, 1, 7, 8, 9, 15, 16, 17, 33, … and more than a widening window of
//!   entries left of the diagonal;
//! * block-Jacobi gives the same bits whether its blocks run inline or as
//!   pool tasks;
//! * `AnyPrecond::apply_to` in the storage precision is bitwise
//!   `Preconditioner::apply`, and the converting branch agrees with it to
//!   the storage precision;
//! * overflow: a final value beyond 65504 rounds to ±inf, an intermediate
//!   beyond 65504 alone does not, nothing panics.
//!
//! What needs the factors themselves — fp32/fp64 bitwise equal to the loops
//! the sweeps replaced, fp16 no further from fp64 than those loops, fp16
//! bitwise the fp32 computation on the same coefficients rounded once — is
//! tested beside them in `crates/precond/src/{ic0,ilu0}.rs`.

use std::process::Command;

use f3r::core::precond_any::AnyPrecond;
use f3r::precision::{KernelCounters, Precision, Scalar};
use f3r::precond::{
    build_preconditioner, BlockJacobiPrecond, Ic0Precond, Ilu0Precond, PrecondKind, Preconditioner,
};
use f3r::sparse::gen::{hpcg_matrix, hpgmp_matrix};
use f3r::sparse::scaling::jacobi_scale;
use f3r::sparse::{CooMatrix, CsrMatrix};
use half::f16;

/// Longer than the widening window of the sweeps (512 stored values).
const LONG_ROW: usize = 600;

/// A diagonally dominant banded matrix whose rows cycle through every
/// interesting count of entries left of the diagonal.  SPD when `symmetric`.
fn ragged(symmetric: bool) -> CsrMatrix<f64> {
    let lens = [
        0, 1, 7, 8, 9, 15, 16, 17, 33, 511, 3, 512, 0, 513, 2, LONG_ROW, 5,
    ];
    let n = 1400;
    let mut coo = CooMatrix::new(n, n);
    let mut row_sums = vec![0.0f64; n];
    for i in 0..n {
        let len = lens[i % lens.len()].min(i);
        for j in i - len..i {
            let v = -1.0 / (1 + (i * 7 + j * 13) % 11) as f64;
            let vt = if symmetric { v } else { 0.5 * v - 0.01 };
            coo.push(i, j, v);
            coo.push(j, i, vt);
            row_sums[i] += v.abs();
            row_sums[j] += vt.abs();
        }
    }
    for (i, s) in row_sums.iter().enumerate() {
        coo.push(i, i, 1.0 + s);
    }
    coo.to_csr()
}

/// Entries in (−0.5, 0.5) from integer arithmetic only, so every process and
/// platform sees the same bits.
fn rhs<T: Scalar>(n: usize) -> Vec<T> {
    (0..n)
        .map(|i| T::from_f64(((i * 7919) % 1013) as f64 / 1013.0 - 0.5))
        .collect()
}

fn bits<T: Scalar>(z: &[T]) -> Vec<u64> {
    z.iter().map(|v| v.to_f64().to_bits()).collect()
}

fn apply<T: Scalar>(p: &dyn Preconditioner<T>, r: &[T]) -> Vec<T> {
    let mut z = vec![T::zero(); r.len()];
    p.apply(r, &mut z);
    z
}

/// FNV-1a over the output bits.
fn digest(z: &[f16]) -> u64 {
    z.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// One digest per (matrix, preconditioner) pair, fp16 storage and vectors.
fn fp16_digests() -> Vec<(String, u64)> {
    let spd = [
        ("hpcg16", jacobi_scale(&hpcg_matrix(16, 16, 16))),
        ("hpcg28", jacobi_scale(&hpcg_matrix(28, 28, 28))), // 21 952 rows: block-Jacobi on the pool
        ("ragged", ragged(true)),
    ];
    let general = [
        ("hpgmp16", jacobi_scale(&hpgmp_matrix(16, 16, 16, 0.5))),
        ("ragged", ragged(false)),
    ];
    let mut out = Vec::new();
    let mut record = |matrix: &str, a: &CsrMatrix<f64>, kind: PrecondKind| {
        let z = apply(
            build_preconditioner::<f16>(a, &kind).as_ref(),
            &rhs::<f16>(a.n_rows()),
        );
        assert!(z.iter().all(|v| v.is_finite()), "{matrix} {}", kind.label());
        out.push((format!("{matrix}/{}", kind.label()), digest(&z)));
    };
    for (name, a) in &spd {
        record(name, a, PrecondKind::Ic0 { alpha: 1.0 });
        record(
            name,
            a,
            PrecondKind::BlockJacobiIc0 {
                blocks: 8,
                alpha: 1.0,
            },
        );
    }
    for (name, a) in &general {
        record(name, a, PrecondKind::Ilu0 { alpha: 1.0 });
        record(
            name,
            a,
            PrecondKind::BlockJacobiIlu0 {
                blocks: 8,
                alpha: 1.0,
            },
        );
    }
    out
}

const CHILD_ENV: &str = "F3R_PRECOND_PARITY_CHILD";
const DIGEST_MARK: &str = "precond-parity-digest";

#[test]
fn fp16_apply_is_bitwise_the_scalar_backend() {
    let here = fp16_digests();
    if std::env::var_os(CHILD_ENV).is_some() {
        for (name, d) in &here {
            println!("{DIGEST_MARK} {name} {d:016x}");
        }
        return;
    }
    let child = Command::new(std::env::current_exe().expect("path of this test binary"))
        .args([
            "--exact",
            "fp16_apply_is_bitwise_the_scalar_backend",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(CHILD_ENV, "1")
        .env("F3R_KERNEL_BACKEND", "scalar")
        .output()
        .expect("re-running this test under the scalar backend");
    let stdout = String::from_utf8_lossy(&child.stdout);
    assert!(
        child.status.success(),
        "child failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&child.stderr)
    );
    let scalar: Vec<(String, u64)> = stdout
        .lines()
        .filter_map(|l| l.split_once(DIGEST_MARK).map(|(_, rest)| rest))
        .map(|rest| {
            let mut fields = rest.split_whitespace();
            let name = fields.next().expect("digest name").to_owned();
            let d = u64::from_str_radix(fields.next().expect("digest"), 16).expect("hex digest");
            (name, d)
        })
        .collect();
    assert_eq!(
        here, scalar,
        "fp16 applications differ between this backend and the scalar one"
    );
}

/// The block offsets `BlockJacobiPrecond` uses: `n_blocks` near-equal
/// contiguous blocks, the first `n % n_blocks` one row longer.
fn block_ranges(n: usize, n_blocks: usize) -> Vec<(usize, usize)> {
    let (base, extra) = (n / n_blocks, n % n_blocks);
    let mut lo = 0;
    (0..n_blocks)
        .map(|b| {
            let hi = lo + base + usize::from(b < extra);
            let range = (lo, hi);
            lo = hi;
            range
        })
        .collect()
}

#[test]
fn block_jacobi_on_the_pool_is_bitwise_the_blocks_one_by_one() {
    fn check<T: Scalar>() {
        // 21 952 rows: above the 2^14-row threshold, so `apply` deals the
        // blocks to the pool (with more than one pool thread).
        let a = jacobi_scale(&hpcg_matrix(28, 28, 28));
        let g = jacobi_scale(&hpgmp_matrix(28, 28, 28, 0.5));
        let n = a.n_rows();
        let r = rhs::<T>(n);
        let (mut z_ic, mut z_ilu) = (vec![T::zero(); n], vec![T::zero(); n]);
        for (lo, hi) in block_ranges(n, 8) {
            let ic = Ic0Precond::<T>::new(&a.diagonal_block(lo, hi), 1.0);
            ic.apply(&r[lo..hi], &mut z_ic[lo..hi]);
            let ilu = Ilu0Precond::<T>::new(&g.diagonal_block(lo, hi), 1.0);
            ilu.apply(&r[lo..hi], &mut z_ilu[lo..hi]);
        }
        let bj = BlockJacobiPrecond::<Ic0Precond<T>>::ic0(&a, 8, 1.0);
        assert_eq!(bits(&apply(&bj, &r)), bits(&z_ic), "IC(0) {}", T::name());
        let bj = BlockJacobiPrecond::<Ilu0Precond<T>>::ilu0(&g, 8, 1.0);
        assert_eq!(bits(&apply(&bj, &r)), bits(&z_ilu), "ILU(0) {}", T::name());
    }
    check::<f16>();
    check::<f32>();
    check::<f64>();
}

#[test]
fn apply_to_in_the_storage_precision_is_bitwise_the_trait_apply() {
    fn check<T: Scalar>(a: &CsrMatrix<f64>, kind: &PrecondKind) {
        let counters = KernelCounters::new_shared();
        let r = rhs::<T>(a.n_rows());
        let direct = apply(build_preconditioner::<T>(a, kind).as_ref(), &r);
        let any = AnyPrecond::build(a, kind, T::PRECISION);
        // Twice: the second call runs on warm per-thread scratch.
        for _ in 0..2 {
            let mut z = vec![T::one(); r.len()];
            any.apply_to(&r, &mut z, &counters);
            assert_eq!(bits(&z), bits(&direct), "{} {}", kind.label(), T::name());
        }
        assert_eq!(counters.snapshot().precond_applies, 2);
    }
    let a = jacobi_scale(&hpcg_matrix(12, 12, 12));
    let g = jacobi_scale(&hpgmp_matrix(12, 12, 12, 0.5));
    for kind in [
        PrecondKind::BlockJacobiIc0 {
            blocks: 4,
            alpha: 1.0,
        },
        PrecondKind::Jacobi,
    ] {
        check::<f16>(&a, &kind);
        check::<f32>(&a, &kind);
        check::<f64>(&a, &kind);
    }
    let kind = PrecondKind::BlockJacobiIlu0 {
        blocks: 4,
        alpha: 1.0,
    };
    check::<f16>(&g, &kind);
    check::<f32>(&g, &kind);
    check::<f64>(&g, &kind);
}

/// Vectors in another precision than `M`: converted at the boundary, scaled
/// by a power of two (exactly), so the result is the storage-precision
/// application up to that precision's rounding — at any amplitude of `r`.
#[test]
fn apply_to_across_precisions_tracks_the_storage_precision_apply() {
    let a = jacobi_scale(&hpcg_matrix(12, 12, 12));
    let n = a.n_rows();
    let kind = PrecondKind::BlockJacobiIc0 {
        blocks: 4,
        alpha: 1.0,
    };
    let counters = KernelCounters::new_shared();
    let mut z_exact = vec![0.0f64; n];
    AnyPrecond::build(&a, &kind, Precision::Fp64).apply_to(&rhs::<f64>(n), &mut z_exact, &counters);
    let z_norm = z_exact.iter().map(|v| v * v).sum::<f64>().sqrt();
    for (storage, tol) in [(Precision::Fp16, 2e-3), (Precision::Fp32, 1e-6)] {
        let any = AnyPrecond::build(&a, &kind, storage);
        for amplitude in [1.0, 1e-9, 3e7] {
            let r: Vec<f64> = rhs::<f64>(n).iter().map(|v| v * amplitude).collect();
            let mut z = vec![0.0f64; n];
            any.apply_to(&r, &mut z, &counters);
            let err = z
                .iter()
                .zip(&z_exact)
                .map(|(x, y)| (x / amplitude - y).powi(2))
                .sum::<f64>()
                .sqrt();
            assert!(
                err <= tol * z_norm,
                "{storage} storage, amplitude {amplitude:e}: error {:e}",
                err / z_norm
            );
        }
        // fp32 vectors on the same storage.
        let mut z = vec![0.0f32; n];
        any.apply_to(&rhs::<f32>(n), &mut z, &counters);
        let err = z
            .iter()
            .zip(&z_exact)
            .map(|(x, y)| (f64::from(*x) - y).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(
            err <= tol * z_norm,
            "{storage} storage, fp32 vectors: error {:e}",
            err / z_norm
        );
    }
}

/// `L = [[1, 0], [-100, 1]]`, `U = [[1, 0], [0, d]]`: the forward solve of
/// `r = (1000, 0)` gives `y₂ = 1e5`, beyond 65504, and `z₂ = y₂ / d`.
#[test]
fn only_a_final_value_beyond_the_fp16_range_overflows() {
    let z2 = |d: f64, kind: PrecondKind| {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 0, -100.0);
        coo.push(1, 1, d);
        let r = [f16::from_f32(1000.0), f16::ZERO];
        let z = apply(
            build_preconditioner::<f16>(&coo.to_csr(), &kind).as_ref(),
            &r,
        );
        assert_eq!(z[0].to_f32(), 1000.0);
        z[1]
    };
    for kind in [
        PrecondKind::Ilu0 { alpha: 1.0 },
        PrecondKind::BlockJacobiIlu0 {
            blocks: 1,
            alpha: 1.0,
        },
    ] {
        let fits = z2(1000.0, kind);
        assert!((fits.to_f32() - 100.0).abs() < 0.5, "z2 = {fits}");
        assert_eq!(z2(1.0, kind).to_bits(), f16::INFINITY.to_bits());
        assert_eq!(z2(-1.0, kind).to_bits(), f16::NEG_INFINITY.to_bits());
    }
    // Through the converting branch the same system has no overflow at all:
    // r is scaled to magnitude one on its way in and back on its way out,
    // and the result carries one fp16 rounding.
    let mut coo = CooMatrix::new(2, 2);
    coo.push(0, 0, 1.0);
    coo.push(1, 0, -100.0);
    coo.push(1, 1, 1.0);
    let any = AnyPrecond::build(
        &coo.to_csr(),
        &PrecondKind::Ilu0 { alpha: 1.0 },
        Precision::Fp16,
    );
    let mut z = [0.0f64; 2];
    any.apply_to(&[1000.0, 0.0], &mut z, &KernelCounters::new_shared());
    assert_eq!(z[0], 1000.0);
    assert!(
        (z[1] - 1.0e5).abs() <= 1.0e5 * f64::from(f16::EPSILON),
        "z2 = {}",
        z[1]
    );
}

/// Infinities and NaNs in `r` come out as infinities and NaNs — never a
/// panic — on both branches of `apply_to`; the largest finite fp16 entry
/// may overflow the result in the storage precision (no scaling there) but
/// not through the converting branch.
#[test]
fn non_finite_input_does_not_panic() {
    let a = jacobi_scale(&hpcg_matrix(6, 6, 6));
    let n = a.n_rows();
    let any = AnyPrecond::build(
        &a,
        &PrecondKind::BlockJacobiIc0 {
            blocks: 2,
            alpha: 1.0,
        },
        Precision::Fp16,
    );
    let counters = KernelCounters::new_shared();
    for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 65504.0] {
        let mut r16 = rhs::<f16>(n);
        r16[n / 2] = f16::from_f32(bad);
        let mut z16 = vec![f16::ZERO; n];
        any.apply_to(&r16, &mut z16, &counters);
        let mut r64 = rhs::<f64>(n);
        r64[n / 2] = f64::from(bad);
        let mut z64 = vec![0.0f64; n];
        any.apply_to(&r64, &mut z64, &counters);
        if bad.is_finite() {
            assert!(z64.iter().all(|v| v.is_finite()));
        } else {
            assert!(z16.iter().any(|v| !v.is_finite()) && z64.iter().any(|v| !v.is_finite()));
        }
    }
}
