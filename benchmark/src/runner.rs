//! One workload, start to finish, in its own process (the pool size latches
//! per process and peak RSS is per process): set-up, timed phases, and — in a
//! traced run — probes, the single-threaded child and the span file.

use std::path::PathBuf;
use std::process::Command;

use crate::api::{self, Precision, Variant};
use crate::inputs;
use crate::machine::{self, Env, Machine};
use crate::metrics::{value_of, Metric};
use crate::probes;
use crate::serve::{self, ServePhase, Window};
use crate::solve::{self, Samples, Setup, SolvePhase, Tally};
use crate::stats::{self, lower_quartile, median};
use crate::trace::{Recorder, Scope};
use crate::workloads::{Extra, Tenant, Workload, MIN_ROUNDS, PREWARM_PER_TENANT, TRACED_ROUNDS};

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// The smoke run: one round, small machine probes.
    pub smoke: bool,
    pub out_dir: PathBuf,
}

pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    /// Empty unless traced.
    pub per_layer: Vec<Metric>,
    pub tally: Tally,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }
}

/// What the single-threaded (or, for a pool-1 workload, two-threaded) child
/// prints: the time of its fp16-F3R solves.
const CHILD_PREFIX: &str = "scaling_solve_s=";
/// Timed solves of the child, after one warm-up.
const CHILD_ROUNDS: usize = 1;

/// `scaling-child`: the workload's fp16-F3R solve under another pool size.
pub fn scaling_child(w: &Workload, seed: u64, pool: usize) {
    api::set_pool_threads(pool);
    let matrix = api::problem_matrix(api::jacobi_scale(&w.grid.generate()));
    let mut built = api::Built::build(Variant::Fp16F3r, &matrix, w.grid);
    let b = inputs::rhs(&matrix, w.rhs, seed, 0);
    let secs: Vec<f64> = (0..=CHILD_ROUNDS)
        .map(|_| {
            let mut x = vec![0.0; b.len()];
            let (result, secs) = Scope::OFF.time("core", "solve", "", |_| built.solve(&b, &mut x));
            assert!(
                result.converged && inputs::solved(&matrix, &x, &b),
                "scaling child: {result}"
            );
            secs
        })
        .collect();
    println!("{CHILD_PREFIX}{}", lower_quartile(&secs[1..]));
}

fn run_scaling_child(args: &Args, pool: usize) -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["scaling-child", "--workload", args.workload.name])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--pool",
            &pool.to_string(),
        ]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix(CHILD_PREFIX)?.parse().ok())
}

pub fn run(args: &Args) -> Outcome {
    let w = &args.workload;
    api::set_pool_threads(w.pool);
    let env = Env::detect();
    let recorder = Recorder::new();
    let traced: Option<Scope> = args.traced.then(|| recorder.root());
    // A traced run pairs every timed call with an untraced twin, so it makes
    // do with fewer rounds: its timings feed no end-to-end metric.
    let min_rounds = match (args.smoke, args.traced) {
        (true, _) => 1,
        (false, true) => TRACED_ROUNDS,
        (false, false) => MIN_ROUNDS,
    };

    let (measured, _) = traced.unwrap_or(Scope::OFF).time("bench", "workload", w.name, |scope| {
        let traced = traced.map(|_| scope);
        let (raw, _) = scope.time("sparse", "generate", "", |_| w.grid.generate());

        // Set-up, rebuilt `rebuilds` times; only the last one is kept alive.
        let (mut setup_s, mut build_s) = (Vec::new(), vec![Vec::new(); Variant::ALL.len()]);
        let mut setup: Option<Setup> = None;
        for _ in 0..w.rebuilds {
            drop(setup.take());
            let (s, secs, builds) = solve::set_up(&raw, w, scope);
            setup_s.push(secs);
            build_s.iter_mut().zip(builds).for_each(|(all, one)| all.push(one));
            setup = Some(s);
        }
        let mut setup = setup.expect("rebuilds > 0");

        let windows = (args.seconds * w.solve_share, args.seconds * (1.0 - w.solve_share));
        let phase = solve::run(&mut setup, w, args.seed, windows, min_rounds, traced);

        // Only `serve_mix` serves in the untraced run.  A traced run passes a
        // cold and a warm request through a one-worker server over the
        // workload's own matrix, so the serve layer's per-call costs exist at
        // every size.
        let own = [Tenant { grid: w.grid, weight: 1 }];
        let plan = match w.extra {
            Extra::Serve { tenants, clients, workers, queue } => Some(serve::Plan {
                tenants,
                rhs: w.rhs,
                clients,
                workers,
                queue,
                cold_repeats: w.rebuilds,
                prewarm: PREWARM_PER_TENANT,
                window: Window::Seconds(windows.1),
            }),
            _ if args.traced => Some(serve::Plan {
                tenants: &own,
                rhs: w.rhs,
                clients: 1,
                workers: 1,
                queue: 1,
                cold_repeats: 1,
                prewarm: 0,
                window: Window::RequestsPerClient(1),
            }),
            _ => None,
        };
        let served = plan.map(|plan| serve::run(&plan, args.seed, traced));

        let layers = traced.map(|scope| {
            let (machine, _) = scope.time("bench", "machine", "", |_| Machine::measure(&env, args.smoke));
            let mut out = machine.metrics();
            out.extend(probes::run(scope, &machine, &mut setup, w.grid));
            // One extra process: the same solve under the other pool size.
            let other_pool = if w.pool == 1 { 2 } else { 1 };
            let (child, _) = scope.time("bench", "scaling_child", "", |_| run_scaling_child(args, other_pool));
            out.extend(child.map(|child| {
                let own = lower_quartile(&samples_of(&phase, Variant::Fp16F3r).seconds);
                let (one, two) = if w.pool == 1 { (own, child) } else { (child, own) };
                Metric::value("parallel.scaling.fp16_f3r", one / two, CHILD_ROUNDS)
                    .note(format!("pool 1 {one:.4} s / pool 2 {two:.4} s (base: pool 2); the child process ran pool {other_pool}"))
            }));
            out
        });
        (setup, setup_s, build_s, phase, served, layers)
    });
    let (setup, setup_s, build_s, phase, served, probed) = measured;

    let mut tally = phase.tally;
    if let Some(s) = &served {
        tally.merge(s.tally);
    }
    let serves = matches!(w.extra, Extra::Serve { .. });
    let end_to_end = end_to_end(w, &setup_s, &phase, served.as_ref().filter(|_| serves));
    let per_layer = probed.map_or_else(Vec::new, |mut out| {
        out.extend(core_metrics(&phase, &build_s, &out, &end_to_end));
        out.extend(serve_metrics(
            served.as_ref().expect("a traced run always serves"),
        ));
        out.push(trace_overhead(&phase, served.as_ref().filter(|_| serves)));
        out
    });

    let outcome = Outcome {
        end_to_end,
        per_layer,
        tally,
    };
    let spans = recorder.spans();
    crate::report::print(w, args, &env, &outcome, &spans);
    crate::report::write(
        w,
        args,
        &env,
        &setup,
        &phase,
        served.as_ref(),
        &outcome,
        &spans,
    );
    outcome
}

fn samples_of(phase: &SolvePhase, v: Variant) -> &Samples {
    &phase
        .solves
        .iter()
        .find(|(x, _)| *x == v)
        .expect("every variant ran")
        .1
}

/// The end-to-end metrics.  A workload that has no batch or no server still
/// reports those names, by the same definition at its own width: it solves
/// one right-hand side per call (k = 1) and its client calls `solve` directly.
fn end_to_end(
    w: &Workload,
    setup_s: &[f64],
    phase: &SolvePhase,
    served: Option<&ServePhase>,
) -> Vec<Metric> {
    let mut out = Vec::new();
    out.push(match served {
        Some(s) => Metric::timing("setup_s", &s.cold_first_s)
            .note("cold path: first get_or_prepare + first request per fingerprint, summed"),
        None => Metric::timing("setup_s", setup_s).note("jacobi_scale + from_csr + five builds"),
    });
    for (v, samples) in &phase.solves {
        let mut m = Metric::timing(format!("solve_s.{}", v.key()), &samples.seconds);
        if let (Variant::Fgmres64, Some(rounds)) = (v, w.fgmres64_rounds) {
            m = m.note(format!(
                "joins {rounds} timed round(s): one solve costs what the other four do together"
            ));
        }
        out.push(m);
    }
    let fp16 = value_of(&out, "solve_s.fp16_f3r");
    out.push(match &phase.batch {
        Some(b) => Metric::timing("batch_rhs_s.fp16_f3r", &b.seconds)
            .note(format!("solve_batch wall time / {}", phase.batch_width)),
        None => Metric::value("batch_rhs_s.fp16_f3r", fp16, 1)
            .note("k = 1 here: equals solve_s.fp16_f3r"),
    });
    match served {
        Some(s) => {
            let latency: Vec<f64> = s.requests.iter().map(|r| r.latency_s).collect();
            let n = latency.len();
            let supported =
                stats::highest_supported_percentile(n).map_or("none".into(), |p| format!("p{p}"));
            out.push(
                Metric::value("serve_p50_s", stats::percentile(&latency, 50), n)
                    .note("client-observed, closed loop"),
            );
            out.push(
                Metric::value("serve_p95_s", stats::percentile(&latency, 95), n).note(format!(
                    "highest percentile with {} samples beyond it: {supported}",
                    stats::MIN_BEYOND
                )),
            );
            out.push(
                Metric::value("serve_req_per_s", n as f64 / s.elapsed_s, n)
                    .note(format!("over {:.2} s", s.elapsed_s)),
            );
        }
        None => {
            let direct = "no server here: the client calls solve, so this is solve_s.fp16_f3r";
            out.push(Metric::value("serve_p50_s", fp16, 1).note(direct));
            out.push(Metric::value("serve_p95_s", fp16, 1).note(direct));
            out.push(
                Metric::value("serve_req_per_s", 1.0 / fp16, 1)
                    .note("no server here: 1 / solve_s.fp16_f3r"),
            );
        }
    }
    out.push(Metric::value("peak_rss_mb", machine::peak_rss_mb(), 1).note("VmHWM of this process"));
    out
}

/// `core.*`: counts from `SolveResult`, and estimates that price them with
/// the probed unit times (estimates until in-program timers replace them).
fn core_metrics(
    phase: &SolvePhase,
    build_s: &[Vec<f64>],
    probed: &[Metric],
    e2e: &[Metric],
) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut mismatches = phase.batch.as_ref().map_or(0, |b| b.mismatches);
    for ((v, samples), builds) in phase.solves.iter().zip(build_s) {
        let key = v.key();
        let solve_s = value_of(e2e, &format!("solve_s.{key}"));
        let n = samples.seconds.len();
        mismatches += samples.mismatches;
        out.push(Metric::timing(format!("core.build_s.{key}"), builds));
        let Some(c) = samples.counts else { continue };
        out.push(Metric::value(
            format!("core.outer_iters.{key}"),
            c.outer_iters as f64,
            n,
        ));
        out.push(Metric::value(
            format!("core.precond_applies.{key}"),
            c.precond_applies as f64,
            n,
        ));
        out.push(Metric::value(
            format!("core.modeled_bytes.{key}"),
            c.modeled_bytes as f64,
            n,
        ));
        out.push(
            Metric::value(
                format!("core.achieved_gbs.{key}"),
                c.modeled_bytes as f64 / solve_s * 1e-9,
                n,
            )
            .note("modeled bytes / solve_s"),
        );
        out.push(Metric::value(
            format!("core.s_per_precond_apply.{key}"),
            solve_s / c.precond_applies as f64,
            n,
        ));
        if !Variant::F3R.contains(v) {
            continue;
        }
        // `apply_to` records itself as an SpMV in M's precision, so those are
        // taken out; fp16-matrix SpMVs are all priced at a16_v16.
        let m = v.precond_precision();
        let unit = |p: Precision| match p {
            Precision::Fp16 => ("a16_v16", "m16_v16", 0),
            Precision::Fp32 => ("a32_v32", "m32_v32", 1),
            Precision::Fp64 => ("a64_v64", "m64_v64", 2),
        };
        let precond = c.precond_applies as f64
            * value_of(probed, &format!("precond.apply_s.{}", unit(m).1))
            / solve_s;
        let spmv: f64 = [Precision::Fp16, Precision::Fp32, Precision::Fp64]
            .into_iter()
            .map(|p| {
                let own = if p == m { c.precond_applies } else { 0 };
                let calls = c.spmv_calls[unit(p).2].saturating_sub(own);
                calls as f64 * value_of(probed, &format!("sparse.spmv_s.{}", unit(p).0)) / solve_s
            })
            .sum();
        let estimate = "estimate: count x probed unit time / solve_s";
        out.push(Metric::value(format!("core.est_share.precond.{key}"), precond, n).note(estimate));
        out.push(Metric::value(format!("core.est_share.spmv.{key}"), spmv, n).note(estimate));
        out.push(
            Metric::value(
                format!("core.est_share.rest.{key}"),
                1.0 - precond - spmv,
                n,
            )
            .note("bridges, Givens, BLAS-1, allocation"),
        );
    }
    out.push(
        Metric::value("core.iter_mismatch_rounds", mismatches as f64, 1)
            .note("timed calls whose counts differ from the first; expected 0"),
    );

    let (single, batch) = (
        value_of(e2e, "solve_s.fp16_f3r"),
        value_of(e2e, "batch_rhs_s.fp16_f3r"),
    );
    out.push(
        Metric::value("core.batch_speedup", single / batch, 1).note(format!(
            "solve_s.fp16_f3r / batch_rhs_s.fp16_f3r (base: batch_rhs_s = {batch:.4} s)"
        )),
    );
    let bytes_per_rhs = match &phase.batch {
        Some(b) => b
            .counts
            .map(|c| c.matrix_bytes as f64 / phase.batch_width as f64),
        None => samples_of(phase, Variant::Fp16F3r)
            .counts
            .map(|c| c.matrix_bytes as f64),
    };
    out.push(
        Metric::value(
            "core.batch_matrix_bytes_per_rhs",
            bytes_per_rhs.unwrap_or(f64::NAN),
            1,
        )
        .note(format!("k = {}", phase.batch_width)),
    );
    out
}

fn serve_metrics(s: &ServePhase) -> Vec<Metric> {
    let n = s.requests.len();
    let column = |f: fn(&serve::Request) -> f64| -> Vec<f64> { s.requests.iter().map(f).collect() };
    let share = |part: u64, rest: u64| {
        if part + rest == 0 {
            f64::NAN
        } else {
            part as f64 / (part + rest) as f64
        }
    };
    let (latency, solve) = (column(|r| r.latency_s), column(|r| r.solve_s));
    let stat = s.window_stats;
    vec![
        Metric::value(
            "serve.overhead_s",
            median(&column(|r| r.latency_s - r.solve_s)),
            n,
        )
        .note("client latency - sum of results[].seconds, median"),
        Metric::value("serve.queued_s", median(&column(|r| r.queued_s)), n)
            .note("queued_seconds, median"),
        Metric::value("serve.lookup_s", median(&column(|r| r.lookup_s)), n)
            .note("get_or_prepare on a hit, median"),
        Metric::value(
            "serve.solve_share",
            solve.iter().sum::<f64>() / latency.iter().sum::<f64>(),
            n,
        ),
        Metric::value("serve.hit_rate", share(stat.hits, stat.misses), n),
        Metric::value(
            "serve.warm_rate",
            share(stat.warm_checkouts, stat.cold_checkouts),
            n,
        ),
        Metric::timing("serve.cold_first_s", &s.cold_first_s),
        Metric::value(
            "serve.outer_iters_mean",
            s.requests.iter().map(|r| r.outer_iters as f64).sum::<f64>() / n as f64,
            n,
        ),
        Metric::value("serve.requests", n as f64, n),
        Metric::value("serve.rejected", stat.rejected as f64, n),
    ]
}

/// Traced over untraced, minus one: over the paired calls of the solve
/// phases, or — where the workload serves — over the traced and untraced
/// requests of the window (every other one is traced).
fn trace_overhead(phase: &SolvePhase, served: Option<&ServePhase>) -> Metric {
    if let Some(s) = served {
        let p50 = |traced: bool| {
            let v: Vec<f64> = s
                .requests
                .iter()
                .filter(|r| r.traced == traced)
                .map(|r| r.latency_s)
                .collect();
            (median(&v), v.len())
        };
        let ((on, n_on), (off, n_off)) = (p50(true), p50(false));
        return Metric::value("trace.overhead", on / off - 1.0, n_on + n_off).note(format!(
            "p50 of {n_on} traced / p50 of {n_off} untraced requests - 1"
        ));
    }
    let ratios: Vec<f64> = phase
        .solves
        .iter()
        .map(|(_, s)| s)
        .chain(&phase.batch)
        .flat_map(|s| s.pairs.iter().map(|(off, on)| on / off - 1.0))
        .collect();
    Metric::median("trace.overhead", &ratios)
        .note("median over back-to-back (untraced, traced) pairs of the same call")
}
