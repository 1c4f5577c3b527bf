//! Set-up, the single-RHS rounds and the batch calls of one workload.
//!
//! A timed solve is the wall clock around the call, not `SolveResult::seconds`.
//! Single-RHS F3R solves open a fresh session each (the paper's protocol): a
//! reused session's adaptive Richardson weights make outer-iteration counts
//! wander between solves, fresh sessions repeat them exactly, which is what
//! makes timings repeat.  Rounds interleave the solvers so drift hits all alike.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{self, Built, Counts, Csr, ProblemMatrix, Variant};
use crate::inputs;
use crate::trace::Scope;
use crate::workloads::{Extra, Workload};

/// Solves attempted and failed: panicked, rejected, `converged == false`, or
/// refused by the benchmark's own residual check.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Everything one rebuild produces.
pub struct Setup {
    pub matrix: Arc<ProblemMatrix>,
    solvers: Vec<(Variant, Built)>,
}

impl Setup {
    pub fn solver(&mut self, v: Variant) -> &mut Built {
        &mut self
            .solvers
            .iter_mut()
            .find(|(x, _)| *x == v)
            .expect("every variant is built")
            .1
    }
}

/// `jacobi_scale` + `ProblemMatrix::from_csr` + every `build()`/constructor.
/// Returns the set-up, its wall time and the per-variant build times.
pub fn set_up(raw: &Csr, w: &Workload, scope: Scope) -> (Setup, f64, Vec<f64>) {
    let ((setup, builds), secs) = scope.time("bench", "setup", "", |scope| {
        let (matrix, _) = scope.time("sparse", "jacobi_scale+from_csr", "", |_| {
            api::problem_matrix(api::jacobi_scale(raw))
        });
        let (solvers, builds) = Variant::ALL
            .into_iter()
            .map(|v| {
                let (built, s) = scope.time("core", "build", v.key(), |_| {
                    Built::build(v, &matrix, w.grid)
                });
                ((v, built), s)
            })
            .unzip();
        (Setup { matrix, solvers }, builds)
    });
    (setup, secs, builds)
}

/// Timed samples of one repeated call, and what the traced run adds.
#[derive(Debug, Default)]
pub struct Samples {
    pub seconds: Vec<f64>,
    /// (untraced, traced) seconds of the same call, traced runs only.
    pub pairs: Vec<(f64, f64)>,
    /// Counts of the first timed call, and how many later calls differed.
    pub counts: Option<Counts>,
    pub mismatches: usize,
}

impl Samples {
    fn push(&mut self, seconds: f64, counts: Option<Counts>) {
        self.seconds.push(seconds);
        match (self.counts, counts) {
            (None, Some(c)) => self.counts = Some(c),
            (Some(first), Some(c)) if first != c => self.mismatches += 1,
            _ => {}
        }
    }
}

/// Make `call` once untraced or, in a traced run, untraced and traced back to
/// back in the order `flip` picks, and file the samples.  The pairs are what
/// `trace.overhead` is computed from.
fn sample(
    samples: &mut Samples,
    traced: Option<Scope>,
    flip: bool,
    mut call: impl FnMut(Scope) -> (f64, Option<Counts>),
) {
    let Some(scope) = traced else {
        let (s, c) = call(Scope::OFF);
        return samples.push(s, c);
    };
    let order = if flip {
        [scope, Scope::OFF]
    } else {
        [Scope::OFF, scope]
    };
    let mut seconds = [0.0; 2];
    for s in order {
        let (secs, counts) = call(s);
        seconds[usize::from(s.rec.is_some())] = secs;
        samples.push(secs, counts);
    }
    samples.pairs.push((seconds[0], seconds[1]));
}

/// One verified single-RHS solve; `None` counts if it failed.
fn solve_once(
    built: &mut Built,
    m: &ProblemMatrix,
    b: &[f64],
    scope: Scope,
    name: &str,
    tag: &str,
    tally: &mut Tally,
) -> (f64, Option<Counts>) {
    let mut x = vec![0.0; b.len()];
    let (result, secs) = scope.time("core", name, tag, |_| {
        catch_unwind(AssertUnwindSafe(|| built.solve(b, &mut x)))
    });
    let counts = result
        .ok()
        .filter(|r| r.converged && inputs::solved(m, &x, b))
        .map(|r| Counts::of(&r));
    tally.record(counts.is_some());
    (secs, counts)
}

pub struct SolvePhase {
    /// In `Variant::ALL` order.
    pub solves: Vec<(Variant, Samples)>,
    /// Per-RHS seconds of `solve_batch`, when the workload has a batch.
    pub batch: Option<Samples>,
    pub batch_width: usize,
    pub rhs_checksum: u64,
    pub tally: Tally,
}

/// The warm-up round, then timed rounds until `seconds` have passed (never
/// fewer than `min_rounds`); then the same for the batch calls.
pub fn run(
    setup: &mut Setup,
    w: &Workload,
    seed: u64,
    seconds: (f64, f64),
    min_rounds: usize,
    traced: Option<Scope>,
) -> SolvePhase {
    let k = match w.extra {
        Extra::Batch { k } => k,
        _ => 1,
    };
    let matrix = Arc::clone(&setup.matrix);
    let bs: Vec<Vec<f64>> = (0..k as u64)
        .map(|stream| inputs::rhs(&matrix, w.rhs, seed, stream))
        .collect();
    let mut tally = Tally::default();
    let mut solves: Vec<(Variant, Samples)> = Variant::ALL.map(|v| (v, Samples::default())).into();

    // Whether `v` takes part in timed round `round` (`None`: the warm-up).
    let joins = |v: Variant, round: Option<usize>| match (v, w.fgmres64_rounds) {
        (Variant::Fgmres64, Some(limit)) => round.is_some_and(|r| r < limit),
        _ => true,
    };
    for (v, _) in solves.iter().filter(|(v, _)| joins(*v, None)) {
        let built = setup.solver(*v);
        solve_once(
            built,
            &matrix,
            &bs[0],
            Scope::OFF,
            "warmup",
            v.key(),
            &mut tally,
        );
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds.0);
    let mut round = 0;
    while round < min_rounds || Instant::now() < deadline {
        let name = format!("solve.round_{round}");
        for (v, samples) in solves.iter_mut().filter(|(v, _)| joins(*v, Some(round))) {
            let built = setup.solver(*v);
            sample(samples, traced, round % 2 == 1, |scope| {
                solve_once(built, &matrix, &bs[0], scope, &name, v.key(), &mut tally)
            });
        }
        round += 1;
    }

    let batch = (k > 1).then(|| {
        let mut session = setup
            .solver(Variant::Fp16F3r)
            .session()
            .expect("fp16-F3R has sessions");
        let mut call = |scope: Scope, name: &str, tally: &mut Tally| {
            let mut xs = vec![vec![0.0; bs[0].len()]; k];
            let (results, secs) = scope.time("core", name, Variant::Fp16F3r.key(), |_| {
                catch_unwind(AssertUnwindSafe(|| session.solve_batch(&bs, &mut xs)))
            });
            let results = results.unwrap_or_default();
            let mut all_ok = results.len() == k;
            for j in 0..k {
                let ok = results.get(j).is_some_and(|r| r.converged)
                    && inputs::solved(&matrix, &xs[j], &bs[j]);
                tally.record(ok);
                all_ok &= ok;
            }
            // A batch reports its totals in every column's result.
            let counts = all_ok.then(|| {
                let mut c = Counts::of(&results[0]);
                c.outer_iters = results.iter().map(|r| r.outer_iterations as u64).sum();
                c
            });
            (secs / k as f64, counts)
        };
        call(Scope::OFF, "warmup_batch", &mut tally);
        let mut samples = Samples::default();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds.1);
        let mut i = 0;
        while i < min_rounds || Instant::now() < deadline {
            let name = format!("solve_batch.call_{i}");
            sample(&mut samples, traced, i % 2 == 1, |scope| {
                call(scope, &name, &mut tally)
            });
            i += 1;
        }
        samples
    });

    SolvePhase {
        solves,
        batch,
        batch_width: k,
        rhs_checksum: inputs::checksum(&bs),
        tally,
    }
}
