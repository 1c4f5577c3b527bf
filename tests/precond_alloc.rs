//! The steady-state `M` application allocates nothing: `apply_to` and the
//! panel form `apply_panel_to` → block-Jacobi → triangular sweeps, in the
//! storage precision and through the converting branch, inline and dealt to
//! the pool.  Scratch is per thread and outlives the call, so only the first
//! applications of a thread pay.
//!
//! One test in a binary of its own: the counting allocator is global, and a
//! second test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use f3r::core::precond_any::AnyPrecond;
use f3r::precision::{KernelCounters, Precision, Scalar};
use f3r::precond::PrecondKind;
use f3r::sparse::gen::{hpcg_matrix, hpgmp_matrix};
use f3r::sparse::scaling::jacobi_scale;
use half::f16;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a side
// effect that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: `GlobalAlloc::alloc`'s contract, handed to `System` as it came.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `GlobalAlloc::dealloc`'s contract, handed to `System` as it came.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `GlobalAlloc::realloc`'s contract, handed to `System` as it came.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn rhs<T: Scalar>(n: usize) -> Vec<T> {
    (0..n)
        .map(|i| T::from_f64(((i * 7919) % 1013) as f64 / 1013.0 - 0.5))
        .collect()
}

/// Allocations made by `rounds` applications to a panel of `k` columns
/// (`k = 1` is what `apply_to` runs) in steady state.
///
/// Scratch is per thread, and which pool thread runs which block is up to the
/// pool: a thread that happened to sit out the warm-up pays its one-off
/// growth in a later round.  So a set of rounds is repeated a few times and
/// the cleanest set counts — a per-call allocation shows in every set.
fn steady_state_allocations<T: Scalar>(m: &AnyPrecond, k: usize, rounds: usize) -> usize {
    let counters = KernelCounters::new_shared();
    let r = rhs::<T>(m.dim() * k);
    let mut z = vec![T::zero(); r.len()];
    let mut allocations_of_a_set = || {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..rounds {
            m.apply_panel_to(&r, &mut z, k, &counters);
        }
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    allocations_of_a_set(); // warm-up
    (0..3).map(|_| allocations_of_a_set()).min().unwrap_or(0)
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
                    steady_state_allocations::<f16>(&m, k, 2),
                    0,
                    "{label}, fp16 vectors"
                );
                assert_eq!(
                    steady_state_allocations::<f32>(&m, k, 2),
                    0,
                    "{label}, fp32 vectors"
                );
                assert_eq!(
                    steady_state_allocations::<f64>(&m, k, 2),
                    0,
                    "{label}, fp64 vectors"
                );
            }
        }
    }
}
