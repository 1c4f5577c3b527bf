//! The steady-state `M` application allocates nothing: `apply_to` and the
//! panel form `apply_panel_to` → block-Jacobi → triangular sweeps, in the
//! storage precision and through the converting branch, inline and dealt to
//! the pool.  Scratch is per thread and outlives the call, so only the first
//! applications of a thread pay.
//!
//! One test in a binary of its own: the counting allocator (`tests/common`)
//! is global, and a second test running beside it would be counted too.

mod common;

use std::sync::Barrier;

use common::allocations;
use f3r::core::precond_any::AnyPrecond;
use f3r::precision::{KernelCounters, Precision, Scalar};
use f3r::precond::PrecondKind;
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
