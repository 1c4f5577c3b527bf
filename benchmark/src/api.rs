//! The benchmark's call surface: every call into the f3r workspace lives in
//! this module, and `SURFACE.md` lists the public items it touches.  The rest
//! of the benchmark sees the workspace only through these wrappers, so a
//! change to a public item shows up here and nowhere else.
//!
//! Deliberately absent (ROADMAP items 2–3 delete them): `NestedSolver`, the
//! `SparseSolver` adapter on sessions, `fgmres_cycle`/`InnerSolver`, the free
//! `spmv_*` functions and `f3r_sparse::reference`.

use std::sync::Arc;

use f3r::core::precond_any::AnyPrecond;
use f3r::core::{SolveSession, SparseSolver};
use f3r::prelude::{
    f3r_spec, BaselineConfig, BiCgStabSolver, CgSolver, CompressedBasis, F3rParams, F3rScheme,
    MatrixStorage, PrecondKind, PreparedSolver, RestartedFgmresSolver, SolverBuilder,
    SolverSettings,
};
use f3r::serve::{
    Backpressure, CachedSolver, RequestOptions, ServeConfig, ServeHandle, SolverRegistry, Ticket,
};
use f3r::sparse::blas1;

pub use f3r::precision::{f16, KernelCounters, Scalar};
pub use f3r::prelude::{NestedSpec, Precision, ProblemMatrix, SolveResult};
pub use f3r::serve::SolveResponse;

pub type Csr = f3r::sparse::CsrMatrix<f64>;

/// Common protocol: tolerance, iteration cap of the baselines, block count
/// of the block-Jacobi preconditioner, restart length of the FGMRES baseline.
pub const TOL: f64 = 1e-8;
const BASELINE_MAX_ITERATIONS: usize = 10_000;
const PRECOND_BLOCKS: usize = 8;
const FGMRES_RESTART: usize = 64;

// ---------------------------------------------------------------------------
// sparse: generators, scaling, the matrix store
// ---------------------------------------------------------------------------

/// A generated problem: the stencil family and its grid edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// HPCG 27-point stencil on `g³` (SPD).
    Hpcg(usize),
    /// HPGMP 27-point stencil on `g³`, β = 0.5 (nonsymmetric).
    Hpgmp(usize),
    /// 2-D 5-point Poisson on `g²` (SPD).
    Poisson2d(usize),
}

impl Grid {
    pub fn label(self) -> String {
        match self {
            Grid::Hpcg(g) => format!("hpcg_{g}^3"),
            Grid::Hpgmp(g) => format!("hpgmp_{g}^3_beta0.5"),
            Grid::Poisson2d(g) => format!("poisson2d_{g}^2"),
        }
    }

    pub fn is_spd(self) -> bool {
        !matches!(self, Grid::Hpgmp(_))
    }

    pub fn generate(self) -> Csr {
        match self {
            Grid::Hpcg(g) => f3r::sparse::gen::hpcg_matrix(g, g, g),
            Grid::Hpgmp(g) => f3r::sparse::gen::hpgmp_matrix(g, g, g, 0.5),
            Grid::Poisson2d(g) => f3r::sparse::gen::poisson2d_5pt(g, g),
        }
    }

    /// Block-Jacobi IC(0) on the SPD families, block-Jacobi ILU(0) otherwise.
    pub fn precond(self) -> PrecondKind {
        if self.is_spd() {
            PrecondKind::BlockJacobiIc0 {
                blocks: PRECOND_BLOCKS,
                alpha: 1.0,
            }
        } else {
            PrecondKind::BlockJacobiIlu0 {
                blocks: PRECOND_BLOCKS,
                alpha: 1.0,
            }
        }
    }
}

pub fn jacobi_scale(raw: &Csr) -> Csr {
    f3r::sparse::scaling::jacobi_scale(raw)
}

pub fn problem_matrix(scaled: Csr) -> Arc<ProblemMatrix> {
    Arc::new(ProblemMatrix::from_csr(scaled))
}

/// Row pointers, column indices and fp64 values of the store's base copy —
/// what the benchmark's own residual check multiplies with.
pub fn csr_parts(m: &ProblemMatrix) -> (&[usize], &[u32], &[f64]) {
    let a = m.csr_f64();
    (a.row_ptr(), a.col_idx(), a.values())
}

pub fn dims(m: &ProblemMatrix) -> (usize, usize) {
    (m.dim(), m.nnz())
}

pub fn content_hash(m: &ProblemMatrix) -> u64 {
    m.content_hash()
}

/// The matrix/vector precision pairs of Table 1.
pub fn spmv<T: Scalar>(m: &ProblemMatrix, a: Precision, x: &[T], y: &mut [T], c: &KernelCounters) {
    m.apply(MatrixStorage::Plain(a), x, y, c);
}

pub fn spmm<T: Scalar>(
    m: &ProblemMatrix,
    a: Precision,
    xs: &[T],
    ys: &mut [T],
    k: usize,
    c: &KernelCounters,
) {
    m.apply_multi(MatrixStorage::Plain(a), xs, ys, k, c);
}

/// A compressed basis of `count` vectors filled by `fill(vector, element)`.
pub fn basis<S: Scalar>(
    n: usize,
    count: usize,
    fill: impl Fn(usize, usize) -> f64,
) -> CompressedBasis<S> {
    let mut basis = CompressedBasis::<S>::new(n, count);
    for j in 0..count {
        let src: Vec<f64> = (0..n).map(|i| fill(j, i)).collect();
        basis.compress_scaled(j, 1.0, &src);
    }
    basis
}

/// One classical Gram–Schmidt sweep of `w` against the whole basis: the
/// projection dots fused in pairs, then the update axpys — the same `blas1`
/// calls FGMRES issues (and `crates/bench/benches/basis_compression.rs` times).
pub fn orth_sweep<S: Scalar, T: Scalar>(basis: &CompressedBasis<S>, w: &mut [T], h: &mut [f64]) {
    let m = basis.count();
    for i in (0..m - 1).step_by(2) {
        let ((v0, s0), (v1, s1)) = (basis.vector(i), basis.vector(i + 1));
        (h[i], h[i + 1]) = blas1::dot2_compressed(w, v0, s0, v1, s1);
    }
    if m % 2 == 1 {
        let (v, s) = basis.vector(m - 1);
        h[m - 1] = blas1::dot_compressed(w, v, s);
    }
    for (i, hi) in h.iter().enumerate().take(m) {
        let (v, s) = basis.vector(i);
        // Damped so repeated sweeps keep `w` in range.
        blas1::axpy_scaled_from(-hi * 1e-3, v, s, w);
    }
}

// ---------------------------------------------------------------------------
// precond: the primary preconditioner on its own
// ---------------------------------------------------------------------------

pub struct Precond(AnyPrecond);

impl Precond {
    pub fn build(m: &ProblemMatrix, grid: Grid, storage: Precision) -> Self {
        Precond(AnyPrecond::for_matrix(m, &grid.precond(), storage))
    }

    pub fn apply<T: Scalar>(&self, r: &[T], z: &mut [T], c: &KernelCounters) {
        self.0.apply_to(r, z, c);
    }

    pub fn storage_bytes(&self) -> u64 {
        self.0.storage_bytes()
    }
}

// ---------------------------------------------------------------------------
// core: the five solver variants
// ---------------------------------------------------------------------------

/// The solver variants `v` of the metric names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Fp16F3r,
    Fp32F3r,
    Fp64F3r,
    /// fp64 CG on SPD problems, fp64 BiCGStab otherwise.
    Krylov,
    /// Restarted FGMRES(64), fp64.
    Fgmres64,
}

impl Variant {
    pub const ALL: [Variant; 5] = [
        Variant::Fp16F3r,
        Variant::Fp32F3r,
        Variant::Fp64F3r,
        Variant::Krylov,
        Variant::Fgmres64,
    ];
    pub const F3R: [Variant; 3] = [Variant::Fp16F3r, Variant::Fp32F3r, Variant::Fp64F3r];

    pub fn key(self) -> &'static str {
        match self {
            Variant::Fp16F3r => "fp16_f3r",
            Variant::Fp32F3r => "fp32_f3r",
            Variant::Fp64F3r => "fp64_f3r",
            Variant::Krylov => "krylov",
            Variant::Fgmres64 => "fgmres64",
        }
    }

    fn scheme(self) -> Option<F3rScheme> {
        match self {
            Variant::Fp16F3r => Some(F3rScheme::Fp16),
            Variant::Fp32F3r => Some(F3rScheme::Fp32),
            Variant::Fp64F3r => Some(F3rScheme::Fp64),
            Variant::Krylov | Variant::Fgmres64 => None,
        }
    }

    /// Storage precision of `M` (and of the innermost level) under Table 1.
    pub fn precond_precision(self) -> Precision {
        match self {
            Variant::Fp16F3r => Precision::Fp16,
            Variant::Fp32F3r => Precision::Fp32,
            _ => Precision::Fp64,
        }
    }
}

/// A solver ready to solve: a prepared F3R solver, or a baseline object.
pub enum Built {
    F3r(Arc<PreparedSolver>),
    Baseline(Box<dyn SparseSolver>),
}

impl Built {
    /// `SolverBuilder::build()` for the F3R schemes, the baseline's
    /// constructor otherwise (both factorize the preconditioner).
    pub fn build(v: Variant, m: &Arc<ProblemMatrix>, grid: Grid) -> Built {
        let m = Arc::clone(m);
        if let Some(scheme) = v.scheme() {
            return Built::F3r(
                SolverBuilder::new(m)
                    .scheme(scheme)
                    .precond(grid.precond())
                    .tol(TOL)
                    .build(),
            );
        }
        let config = BaselineConfig {
            precond: grid.precond(),
            precond_prec: Precision::Fp64,
            tol: TOL,
            max_iterations: BASELINE_MAX_ITERATIONS,
        };
        Built::Baseline(match v {
            Variant::Fgmres64 => Box::new(RestartedFgmresSolver::new(m, FGMRES_RESTART, config)),
            _ if grid.is_spd() => Box::new(CgSolver::new(m, config)),
            _ => Box::new(BiCgStabSolver::new(m, config)),
        })
    }

    /// One solve from the zero guess.  F3R solves open a fresh session (the
    /// paper's protocol); a baseline has no session and is solved in place.
    pub fn solve(&mut self, b: &[f64], x: &mut [f64]) -> SolveResult {
        match self {
            Built::F3r(p) => p.session().solve(b, x),
            Built::Baseline(s) => s.solve(b, x),
        }
    }

    /// A session to keep across solves (F3R variants only).
    pub fn session(&self) -> Option<Session> {
        match self {
            Built::F3r(p) => Some(Session(p.session())),
            Built::Baseline(_) => None,
        }
    }
}

pub struct Session(SolveSession);

impl Session {
    pub fn solve_batch(&mut self, bs: &[Vec<f64>], xs: &mut [Vec<f64>]) -> Vec<SolveResult> {
        self.0.solve_batch(bs, xs)
    }
}

/// What a solve reports about itself; these repeat exactly between rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub outer_iters: u64,
    pub precond_applies: u64,
    pub modeled_bytes: u64,
    pub matrix_bytes: u64,
    /// SpMV calls by matrix precision: fp16, fp32, fp64.
    pub spmv_calls: [u64; 3],
}

impl Counts {
    pub fn of(r: &SolveResult) -> Counts {
        Counts {
            outer_iters: r.outer_iterations as u64,
            precond_applies: r.precond_applications,
            modeled_bytes: r.modeled_bytes(),
            matrix_bytes: r.counters.matrix_bytes_total(),
            spmv_calls: [Precision::Fp16, Precision::Fp32, Precision::Fp64]
                .map(|p| r.counters.spmv_in(p)),
        }
    }
}

// ---------------------------------------------------------------------------
// serve: registry, pools, front-end
// ---------------------------------------------------------------------------

/// The spec a request names: fp16-F3R, default parameters, the grid's `M`.
pub fn fp16_spec(grid: Grid) -> NestedSpec {
    let settings = SolverSettings {
        precond: grid.precond(),
        tol: TOL,
        ..SolverSettings::default()
    };
    f3r_spec(F3rParams::default(), F3rScheme::Fp16, &settings)
}

/// An accepted request.
pub struct Pending(Ticket);

impl Pending {
    /// Block until the reply (panics if the worker died, as `Ticket::wait` does).
    pub fn wait(self) -> SolveResponse {
        self.0.wait()
    }
}

pub struct Server {
    registry: Arc<SolverRegistry>,
    handle: ServeHandle,
}

/// Registry and pool counters the serve metrics are differences of.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    pub hits: u64,
    pub misses: u64,
    pub warm_checkouts: u64,
    pub cold_checkouts: u64,
    pub rejected: u64,
}

impl Server {
    /// A blocking front-end and a fresh registry.  The front-end serves
    /// solvers of any registry (its own, left empty, only feeds `metrics`),
    /// so the registry can be renewed under the same worker threads.
    pub fn start(workers: usize, queue_capacity: usize) -> Server {
        let config = ServeConfig {
            workers,
            queue_capacity,
            backpressure: Backpressure::Block,
        };
        let handle = ServeHandle::start(SolverRegistry::with_defaults(), config);
        Server {
            registry: SolverRegistry::with_defaults(),
            handle,
        }
    }

    /// Drop every cached solver and pooled session: the next request per
    /// fingerprint takes the cold path again.
    pub fn renew_registry(&mut self) {
        self.registry = SolverRegistry::with_defaults();
    }

    pub fn get_or_prepare(
        &self,
        m: &Arc<ProblemMatrix>,
        spec: &NestedSpec,
    ) -> Result<CachedSolver, String> {
        self.registry
            .get_or_prepare(m, spec)
            .map_err(|e| e.to_string())
    }

    pub fn submit(&self, solver: &CachedSolver, b: Vec<f64>) -> Result<Pending, String> {
        self.handle
            .submit(solver, b, RequestOptions::default())
            .map(Pending)
            .map_err(|e| e.to_string())
    }

    pub fn stats(&self) -> ServerStats {
        let registry = self.registry.stats();
        let pools = self.registry.pool_stats();
        ServerStats {
            hits: registry.hits,
            misses: registry.misses,
            warm_checkouts: pools.iter().map(|p| p.warm_checkouts).sum(),
            cold_checkouts: pools.iter().map(|p| p.cold_checkouts).sum(),
            rejected: self.handle.metrics().rejected,
        }
    }

    /// Drain the queue and join the workers.
    pub fn shutdown(self) {
        self.handle.shutdown();
    }
}

// ---------------------------------------------------------------------------
// parallel and simd: the pool and what the kernels dispatch to
// ---------------------------------------------------------------------------

/// Fix the pool size.  It latches at the first parallel dispatch, so this
/// runs before anything else and once per process.
pub fn set_pool_threads(n: usize) -> usize {
    f3r_parallel::set_num_threads(n)
}

pub fn pool_threads() -> usize {
    f3r_parallel::current_num_threads()
}

/// An empty dispatch over two chunks (inline when the pool has one thread).
pub fn dispatch_two_chunks() -> usize {
    f3r_parallel::par_map_ranges(2, 1, |r| r.len()).len()
}

pub fn cpu_features() -> String {
    f3r_simd::detect_features().summary()
}

pub fn kernel_backend() -> &'static str {
    f3r_simd::kernel_backend().name()
}
