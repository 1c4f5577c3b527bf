//! The steady-state `M` application allocates nothing: `apply_to` and the
//! panel form `apply_panel_to` → block-Jacobi → triangular sweeps, in the
//! storage precision and through the converting branch, inline and dealt to
//! the pool.  Scratch is per thread and outlives the call, so only the first
//! applications of a thread pay.
//!
//! Nor does the steady-state one-column product on fp16 vectors, whose `x`
//! is widened into the calling thread's scratch once per product and whose
//! per-task buffers live on the stack: `apply`, `residual` and `apply_dot2`,
//! inline and on the pool, from a thread whose scratch is free and from
//! inside a live borrow of it (where a product made by the converting
//! preconditioner branch finds itself).
//!
//! One test in a binary of its own: the counting allocator (`tests/common`)
//! is global, and a second test running beside it would be counted too.

mod common;

use std::sync::Barrier;

use common::allocations;
use f3r::core::precond_any::AnyPrecond;
use f3r::precision::{KernelCounters, Precision, Scalar};
use f3r::precond::PrecondKind;
use f3r::prelude::{MatrixStorage, ProblemMatrix};
use f3r::sparse::gen::{hpcg_matrix, hpgmp_matrix};
use f3r::sparse::scaling::jacobi_scale;
use half::f16;

fn rhs<T: Scalar>(n: usize) -> Vec<T> {
    (0..n)
        .map(|i| T::from_f64(((i * 7919) % 1013) as f64 / 1013.0 - 0.5))
        .collect()
}

/// Allocations made by `rounds` consecutive applications to a panel of `k`
/// columns (`k = 1` is what `apply_to` runs) once every thread has warmed up.
///
/// Scratch is per thread, and which pool thread runs which block is up to the
/// pool, so the warm-up cannot be left to a few plain applications: a worker
/// that wakes late sits them out and pays its one-off growth inside the
/// counted rounds.  Instead every pool thread, the caller included, runs one
/// whole application itself (on a worker the blocks run inline) and then
/// waits at a barrier, which keeps it from taking a second thread's turn.
fn steady_state_allocations<T: Scalar>(m: &AnyPrecond, k: usize, rounds: usize) -> usize {
    let counters = KernelCounters::new_shared();
    let r = rhs::<T>(m.dim() * k);
    let threads = f3r_parallel::current_num_threads();
    let all_warm = Barrier::new(threads);
    f3r_parallel::par_ranges(threads, 1, |turns| {
        for _ in turns {
            m.apply_panel_to(&r, &mut vec![T::zero(); r.len()], k, &counters);
            all_warm.wait();
        }
    });
    let mut z = vec![T::zero(); r.len()];
    let before = allocations();
    for _ in 0..rounds {
        m.apply_panel_to(&r, &mut z, k, &counters);
    }
    allocations() - before
}

/// Allocations made by `rounds` one-column products of each kind on fp16
/// storage and fp16 vectors — `(apply, residual, apply_dot2)` — after one
/// warm-up call of each.  (A pool task keeps its buffers on its stack, so
/// the workers have nothing to warm up.)  With `nested`, every call is made
/// from inside a scratch borrow of the accumulation type.
fn steady_state_product_allocations(m: &ProblemMatrix, rounds: usize, nested: bool) -> (usize, usize, usize) {
    let (n, storage) = (m.dim(), MatrixStorage::Plain(Precision::Fp16));
    let counters = KernelCounters::new_shared();
    let (x, b) = (rhs::<f16>(n), rhs::<f16>(n + 3)[3..].to_vec());
    let mut y = vec![f16::from_f64(0.0); n];
    let mut count = |product: &mut dyn FnMut(&mut [f16])| {
        let mut counted = |y: &mut [f16]| {
            product(y); // this thread's first call grows its scratch
            let before = allocations();
            for _ in 0..rounds {
                product(y);
            }
            allocations() - before
        };
        if nested {
            <f32 as Scalar>::with_scratch(2 * n, |held| {
                held.fill(1.0);
                counted(&mut y)
            })
        } else {
            counted(&mut y)
        }
    };
    (
        count(&mut |y| m.apply(storage, &x, y, &counters)),
        count(&mut |y| m.residual(storage, &x, &b, y, &counters)),
        count(&mut |y| {
            std::hint::black_box(m.apply_dot2(storage, &x, &b, y, &counters));
        }),
    )
}

#[test]
fn steady_state_application_allocates_nothing() {
    // 46 656 rows: block-Jacobi deals its blocks to the pool and the
    // conversion kernels dispatch too; 4 096 rows: everything inline.
    let big = jacobi_scale(&hpcg_matrix(36, 36, 36));
    let small = jacobi_scale(&hpgmp_matrix(16, 16, 16, 0.5));
    let ic = PrecondKind::BlockJacobiIc0 {
        blocks: 8,
        alpha: 1.0,
    };
    let ilu = PrecondKind::BlockJacobiIlu0 {
        blocks: 8,
        alpha: 1.0,
    };
    // The product first: 46 656 rows go to the pool, 4 096 stay inline.
    for a in [&big, &small] {
        let m = ProblemMatrix::from_csr(a.clone());
        let pooled = m.dim() >= f3r_parallel::thresholds::PAR_ROW_THRESHOLD;
        for nested in [false, true] {
            let label = format!("fp16 product, n = {}, nested scratch: {nested}", m.dim());
            let (apply, residual, dot2) = steady_state_product_allocations(&m, 5, nested);
            assert_eq!((apply, residual), (0, 0), "{label}: apply, residual");
            if pooled {
                // The per-task dot partials come back in a vector; nothing
                // else, and nothing that grows with the problem.
                assert!(dot2 <= 5 * 2, "{label}: apply_dot2 allocated {dot2} times in 5 pooled calls");
            } else {
                assert_eq!(dot2, 0, "{label}: apply_dot2");
            }
        }
    }
    for (a, kind) in [(&big, ic), (&small, ilu)] {
        for storage in Precision::all() {
            let m = AnyPrecond::build(a, &kind, storage);
            // One column, a full lane group, and a group and a column over.
            for k in [1, 8, 9] {
                let label = format!("{} in {storage}, n = {}, k = {k}", kind.label(), m.dim());
                assert_eq!(
                    steady_state_allocations::<f16>(&m, k, 5),
                    0,
                    "{label}, fp16 vectors"
                );
                assert_eq!(
                    steady_state_allocations::<f32>(&m, k, 5),
                    0,
                    "{label}, fp32 vectors"
                );
                assert_eq!(
                    steady_state_allocations::<f64>(&m, k, 5),
                    0,
                    "{label}, fp64 vectors"
                );
            }
        }
    }
}
