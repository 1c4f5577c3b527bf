//! Micro-benchmarks of the BLAS-1 kernels in the three working precisions.
//!
//! Every kernel is timed twice: the production direct-widening kernel
//! (`blas1::*`) and the pre-widening naive kernel preserved in
//! `f3r_sparse::reference` (per-element `f64` round trip + scalar
//! `mul_add`).  The `naive_*` rows are the "before" numbers the
//! direct-widening layer is measured against; see `crates/bench/README.md`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use f3r_precision::Scalar;
use f3r_sparse::{blas1, reference};
use half::f16;
use std::hint::black_box;

fn vectors<T: Scalar>(n: usize) -> (Vec<T>, Vec<T>) {
    let x: Vec<T> = (0..n).map(|i| T::from_f64(((i % 17) as f64 - 8.0) / 17.0)).collect();
    let y: Vec<T> = (0..n).map(|i| T::from_f64(((i % 13) as f64 - 6.0) / 13.0)).collect();
    (x, y)
}

fn meta(_c: &mut Criterion) {
    f3r_bench::emit_parallel_meta();
}

fn bench_blas1(c: &mut Criterion) {
    let n = 1 << 16;
    let mut group = c.benchmark_group("blas1");
    group.sample_size(20);

    let (x64, y64) = vectors::<f64>(n);
    let (x32, y32) = vectors::<f32>(n);
    let (x16, y16) = vectors::<f16>(n);

    group.bench_function(BenchmarkId::new("dot", "fp64"), |b| {
        b.iter(|| black_box(blas1::dot(black_box(&x64), black_box(&y64))))
    });
    group.bench_function(BenchmarkId::new("dot", "fp32"), |b| {
        b.iter(|| black_box(blas1::dot(black_box(&x32), black_box(&y32))))
    });
    group.bench_function(BenchmarkId::new("dot", "fp16"), |b| {
        b.iter(|| black_box(blas1::dot(black_box(&x16), black_box(&y16))))
    });
    group.bench_function(BenchmarkId::new("naive_dot", "fp64"), |b| {
        b.iter(|| black_box(reference::dot_naive(black_box(&x64), black_box(&y64))))
    });
    group.bench_function(BenchmarkId::new("naive_dot", "fp32"), |b| {
        b.iter(|| black_box(reference::dot_naive(black_box(&x32), black_box(&y32))))
    });
    group.bench_function(BenchmarkId::new("naive_dot", "fp16"), |b| {
        b.iter(|| black_box(reference::dot_naive(black_box(&x16), black_box(&y16))))
    });

    let mut z64 = y64.clone();
    group.bench_function(BenchmarkId::new("axpy", "fp64"), |b| {
        b.iter(|| blas1::axpy(black_box(0.5), black_box(&x64), black_box(&mut z64)))
    });
    let mut z32 = y32.clone();
    group.bench_function(BenchmarkId::new("axpy", "fp32"), |b| {
        b.iter(|| blas1::axpy(black_box(0.5), black_box(&x32), black_box(&mut z32)))
    });
    let mut z16 = y16.clone();
    group.bench_function(BenchmarkId::new("axpy", "fp16"), |b| {
        b.iter(|| blas1::axpy(black_box(0.5), black_box(&x16), black_box(&mut z16)))
    });
    let mut z64n = y64.clone();
    group.bench_function(BenchmarkId::new("naive_axpy", "fp64"), |b| {
        b.iter(|| reference::axpy_naive(black_box(0.5), black_box(&x64), black_box(&mut z64n)))
    });
    let mut z32n = y32.clone();
    group.bench_function(BenchmarkId::new("naive_axpy", "fp32"), |b| {
        b.iter(|| reference::axpy_naive(black_box(0.5), black_box(&x32), black_box(&mut z32n)))
    });
    let mut z16n = y16.clone();
    group.bench_function(BenchmarkId::new("naive_axpy", "fp16"), |b| {
        b.iter(|| reference::axpy_naive(black_box(0.5), black_box(&x16), black_box(&mut z16n)))
    });

    // Fused kernels: one pass where the solvers previously issued two.
    group.bench_function(BenchmarkId::new("dot2", "fp32"), |b| {
        b.iter(|| {
            black_box(blas1::dot2(
                black_box(&x32),
                black_box(&y32),
                black_box(&y32),
                black_box(&x32),
            ))
        })
    });
    let mut z32f = y32.clone();
    group.bench_function(BenchmarkId::new("axpy_norm2", "fp32"), |b| {
        b.iter(|| {
            black_box(blas1::axpy_norm2(black_box(0.5), black_box(&x32), black_box(&mut z32f)))
        })
    });
    group.finish();
}

criterion_group!(benches, meta, bench_blas1);
criterion_main!(benches);
