//! The traced run's probe phase: the machine's triad bandwidths as roofline
//! references, then each kernel on the workload's own matrix — one span per
//! call, first quartile of `CALLS` calls after `WARMUPS` warm-ups.
//!
//! `_gbs` is computed bytes over measured time: the bytes are what the
//! library's traffic model records for the call, which ignores cache misses.

use std::hint::black_box;

use crate::api::{self, f16, Grid, KernelCounters, Precision, ProblemMatrix, Scalar, Variant};
use crate::machine::Machine;
use crate::metrics::Metric;
use crate::solve::Setup;
use crate::stats::lower_quartile;
use crate::trace::Scope;

const WARMUPS: usize = 3;
const CALLS: usize = 15;
/// Vectors in the Gram–Schmidt probe's basis (the paper's mid-level scale).
const BASIS_VECTORS: usize = 30;
const SPMM_WIDTH: usize = 8;
/// Preconditioner builds per storage precision (a build costs up to 0.25 s).
const BUILDS: usize = 3;

fn probe(
    scope: Scope,
    layer: &'static str,
    name: &str,
    calls: usize,
    mut call: impl FnMut(),
) -> Vec<f64> {
    for _ in 0..WARMUPS {
        call();
    }
    (0..calls)
        .map(|_| scope.time(layer, name, "", |_| call()).1)
        .collect()
}

/// A deterministic vector with entries in (-0.5, 0.5).
fn filled<T: Scalar>(n: usize, salt: usize) -> Vec<T> {
    (0..n).map(|i| T::from_f64(fill(salt, i))).collect()
}

fn fill(salt: usize, i: usize) -> f64 {
    ((i.wrapping_mul(2_654_435_761) ^ salt.wrapping_mul(40_503)) % 8191) as f64 / 8191.0 - 0.5
}

/// Bytes the traffic model records for one call.
fn computed_bytes(call: impl FnOnce(&KernelCounters)) -> f64 {
    let counters = KernelCounters::new_shared();
    call(&counters);
    counters.snapshot().total_bytes() as f64
}

/// The time and bandwidth metrics of one kernel, the latter annotated with
/// its share of the triad bandwidth at the level its bytes fit in.
fn timed_kernel(
    machine: &Machine,
    time_name: String,
    gbs_name: String,
    secs: &[f64],
    bytes: f64,
) -> [Metric; 2] {
    let gbs = bytes / lower_quartile(secs) * 1e-9;
    let (level, reference) = machine.triad_for(bytes as u64);
    [
        Metric::timing(time_name, secs),
        Metric::value(gbs_name, gbs, secs.len()).note(format!(
            "computed bytes; {:.0} % of machine.triad_gbs.{level}",
            100.0 * gbs / reference
        )),
    ]
}

fn spmv_probe<T: Scalar>(
    scope: Scope,
    machine: &Machine,
    m: &ProblemMatrix,
    a: Precision,
    pair: &str,
) -> [Metric; 2] {
    let n = api::dims(m).0;
    let (x, mut y) = (filled::<T>(n, 1), vec![T::zero(); n]);
    let sink = KernelCounters::new_shared();
    let secs = probe(scope, "sparse", &format!("spmv.{pair}"), CALLS, || {
        api::spmv(m, a, black_box(&x), &mut y, &sink)
    });
    let bytes = computed_bytes(|c| api::spmv(m, a, &x, &mut y, c));
    timed_kernel(
        machine,
        format!("sparse.spmv_s.{pair}"),
        format!("sparse.spmv_gbs.{pair}"),
        &secs,
        bytes,
    )
}

fn orth_probe<T: Scalar>(scope: Scope, n: usize, key: &str) -> Metric {
    let basis = api::basis::<T>(n, BASIS_VECTORS, fill);
    let (mut w, mut h) = (filled::<T>(n, 777), vec![0.0; BASIS_VECTORS]);
    let secs = probe(scope, "sparse", &format!("orth_sweep.{key}"), CALLS, || {
        api::orth_sweep(black_box(&basis), &mut w, &mut h);
    });
    let per_vector: Vec<f64> = secs.iter().map(|s| s / BASIS_VECTORS as f64).collect();
    Metric::timing(format!("sparse.orth_vec_s.{key}"), &per_vector)
        .note(format!("per vector of a {BASIS_VECTORS}-vector sweep"))
}

fn precond_probe<T: Scalar>(
    scope: Scope,
    machine: &Machine,
    m: &ProblemMatrix,
    grid: Grid,
    storage: Precision,
    key: &str,
) -> Vec<Metric> {
    let n = api::dims(m).0;
    let name = format!("precond.build.m{key}");
    let mut builds: Vec<(api::Precond, f64)> = (0..BUILDS)
        .map(|_| {
            scope.time("precond", &name, "", |_| {
                api::Precond::build(m, grid, storage)
            })
        })
        .collect();
    let build_s: Vec<f64> = builds.iter().map(|(_, s)| *s).collect();
    let (p, _) = builds.pop().expect("BUILDS > 0");
    drop(builds);

    let (r, mut z) = (filled::<T>(n, 2), vec![T::zero(); n]);
    let sink = KernelCounters::new_shared();
    let pair = format!("m{key}_v{key}");
    let secs = probe(scope, "precond", &format!("apply.{pair}"), CALLS, || {
        p.apply(black_box(&r), &mut z, &sink)
    });
    let bytes = computed_bytes(|c| p.apply(&r, &mut z, c));
    let mut out = vec![
        Metric::timing(format!("precond.build_s.m{key}"), &build_s),
        Metric::value(
            format!("precond.storage_bytes.m{key}"),
            p.storage_bytes() as f64,
            1,
        ),
    ];
    out.extend(timed_kernel(
        machine,
        format!("precond.apply_s.{pair}"),
        format!("precond.apply_gbs.{pair}"),
        &secs,
        bytes,
    ));
    out
}

pub fn run(scope: Scope, machine: &Machine, setup: &mut Setup, grid: Grid) -> Vec<Metric> {
    scope
        .time("bench", "probes", "", |scope| {
            kernels(scope, machine, setup, grid)
        })
        .0
}

fn kernels(scope: Scope, machine: &Machine, setup: &mut Setup, grid: Grid) -> Vec<Metric> {
    let matrix = std::sync::Arc::clone(&setup.matrix);
    let m: &ProblemMatrix = &matrix;
    let n = api::dims(m).0;
    let mut out = Vec::new();

    out.extend(spmv_probe::<f64>(
        scope,
        machine,
        m,
        Precision::Fp64,
        "a64_v64",
    ));
    out.extend(spmv_probe::<f32>(
        scope,
        machine,
        m,
        Precision::Fp32,
        "a32_v32",
    ));
    out.extend(spmv_probe::<f32>(
        scope,
        machine,
        m,
        Precision::Fp16,
        "a16_v32",
    ));
    out.extend(spmv_probe::<f16>(
        scope,
        machine,
        m,
        Precision::Fp16,
        "a16_v16",
    ));

    let (xs, mut ys) = (
        filled::<f32>(n * SPMM_WIDTH, 3),
        vec![0.0f32; n * SPMM_WIDTH],
    );
    let sink = KernelCounters::new_shared();
    let secs = probe(scope, "sparse", "spmm8.a16_v32", CALLS, || {
        api::spmm(
            m,
            Precision::Fp16,
            black_box(&xs),
            &mut ys,
            SPMM_WIDTH,
            &sink,
        );
    });
    let per_column: Vec<f64> = secs.iter().map(|s| s / SPMM_WIDTH as f64).collect();
    out.push(
        Metric::timing("sparse.spmm8_col_s.a16_v32", &per_column)
            .note("per column of a k = 8 panel"),
    );

    out.push(orth_probe::<f64>(scope, n, "v64"));
    out.push(orth_probe::<f32>(scope, n, "v32"));

    out.extend(precond_probe::<f64>(
        scope,
        machine,
        m,
        grid,
        Precision::Fp64,
        "64",
    ));
    out.extend(precond_probe::<f32>(
        scope,
        machine,
        m,
        grid,
        Precision::Fp32,
        "32",
    ));
    out.extend(precond_probe::<f16>(
        scope,
        machine,
        m,
        grid,
        Precision::Fp16,
        "16",
    ));

    for v in Variant::F3R {
        let built = setup.solver(v);
        let secs = probe(
            scope,
            "core",
            &format!("session_open.{}", v.key()),
            CALLS,
            || drop(black_box(built.session())),
        );
        out.push(Metric::timing(
            format!("core.session_open_s.{}", v.key()),
            &secs,
        ));
    }

    let secs = probe(scope, "parallel", "dispatch", 20 * CALLS, || {
        black_box(api::dispatch_two_chunks());
    });
    out.push(
        Metric::timing("parallel.dispatch_s", &secs)
            .note(format!("pool of {}", api::pool_threads())),
    );
    out
}
