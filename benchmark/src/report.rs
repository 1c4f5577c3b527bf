//! What a run leaves behind: the printed table, the result file, and the one
//! JSON line the driver reads.

use std::path::PathBuf;

use crate::api::{self, Variant};
use crate::json::Json;
use crate::machine::Env;
use crate::metrics::{self, value_of, Def, Metric, FAIL_SHARE};
use crate::runner::{Args, Outcome};
use crate::serve::ServePhase;
use crate::solve::{Setup, SolvePhase};
use crate::stats;
use crate::trace::{self, Span};
use crate::workloads::Workload;

fn hex(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

fn unit_of<'a>(defs: &'a [Def], name: &str) -> &'a str {
    defs.iter().find(|d| d.name == name).map_or("", |d| d.unit)
}

fn fail_share(outcome: &Outcome) -> f64 {
    outcome.tally.failed as f64 / outcome.tally.attempted.max(1) as f64
}

/// Speed-ups of fp16-F3R over the other four, each with its base.  Printed,
/// not gated: a gain for fp64 only must not read as a regression.
fn ratios(e2e: &[Metric]) -> Vec<(String, f64, f64)> {
    let base = value_of(e2e, "solve_s.fp16_f3r");
    Variant::ALL[1..]
        .iter()
        .map(|v| {
            (
                format!("solve_s.{} / solve_s.fp16_f3r", v.key()),
                value_of(e2e, &format!("solve_s.{}", v.key())) / base,
                base,
            )
        })
        .collect()
}

fn print_rows(title: &str, rows: &[Metric], defs: &[Def]) {
    println!("  {title}");
    println!(
        "    {:<38} {:>14} {:<6} {:>5} {:>7}  note",
        "metric", "value", "unit", "n", "spread"
    );
    for m in rows {
        let spread = if m.samples.len() > 1 {
            format!("{:.1}%", 100.0 * stats::spread(&m.samples))
        } else {
            "-".into()
        };
        println!(
            "    {:<38} {:>14.6e} {:<6} {:>5} {:>7}  {}",
            m.name,
            m.value,
            unit_of(defs, &m.name),
            m.n,
            spread,
            m.note
        );
    }
}

pub fn print(w: &Workload, args: &Args, env: &Env, outcome: &Outcome, spans: &[Span]) {
    println!(
        "== {}  seed {}  seconds {}  {}  pool {}/{} CPUs  backend {}",
        w.name,
        args.seed,
        args.seconds,
        if args.traced { "traced" } else { "untraced" },
        env.pool_threads,
        env.nproc,
        env.kernel_backend
    );
    println!("   why: {}", w.why);
    print_rows("end-to-end", &outcome.end_to_end, &metrics::end_to_end());
    println!(
        "    {:<38} {:>14.6e} {:<6} {:>5} {:>7}  solves that panicked, were rejected, did not converge or failed the residual check",
        FAIL_SHARE,
        fail_share(outcome),
        "share",
        outcome.tally.attempted,
        "-"
    );
    println!("  ratios (printed, not gated)");
    for (name, ratio, base) in ratios(&outcome.end_to_end) {
        println!("    {name:<38} {ratio:>14.3} x      (base: solve_s.fp16_f3r = {base:.4} s)");
    }
    if args.traced {
        print_rows("per-layer", &outcome.per_layer, &metrics::per_layer());
        println!("  self time by layer (s), from {} spans", spans.len());
        for (layer, secs) in trace::self_seconds_by_layer(spans) {
            println!("    {layer:<38} {secs:>14.4}");
        }
    }
    if !outcome.correct() {
        println!(
            "FAILED: {} of {} solves did not reach a true relative residual under {:e}",
            outcome.tally.failed,
            outcome.tally.attempted,
            api::TOL
        );
    }
}

fn metrics_json(rows: &[Metric], defs: &[Def]) -> Json {
    Json::Obj(
        rows.iter()
            .map(|m| (m.name.clone(), m.to_json(unit_of(defs, &m.name))))
            .collect(),
    )
}

fn input_json(
    w: &Workload,
    grid: api::Grid,
    n: usize,
    nnz: usize,
    content_hash: u64,
    rhs_checksum: u64,
) -> Json {
    Json::obj([
        ("matrix", Json::Str(grid.label())),
        ("n", Json::Num(n as f64)),
        ("nnz", Json::Num(nnz as f64)),
        ("content_hash", hex(content_hash)),
        ("rhs", Json::str(w.rhs.label())),
        ("rhs_checksum", hex(rhs_checksum)),
    ])
}

pub fn result_path(out_dir: &std::path::Path, workload: &str, traced: bool) -> PathBuf {
    out_dir.join(if traced {
        format!("trace-{workload}.json")
    } else {
        format!("{workload}.json")
    })
}

#[allow(clippy::too_many_arguments)]
pub fn write(
    w: &Workload,
    args: &Args,
    env: &Env,
    setup: &Setup,
    phase: &SolvePhase,
    served: Option<&ServePhase>,
    outcome: &Outcome,
    spans: &[Span],
) {
    let (n, nnz) = api::dims(&setup.matrix);
    let mut inputs = vec![input_json(
        w,
        w.grid,
        n,
        nnz,
        api::content_hash(&setup.matrix),
        phase.rhs_checksum,
    )];
    inputs.extend(
        served
            .iter()
            .flat_map(|s| &s.inputs)
            .map(|i| input_json(w, i.grid, i.n, i.nnz, i.content_hash, i.rhs_checksum)),
    );
    // What the solves report about themselves: these repeat exactly, so two
    // runs of one commit and seed must agree on them to the last digit.
    let counts = phase.solves.iter().filter_map(|(v, s)| {
        let c = s.counts?;
        Some((
            v.key(),
            Json::obj([
                ("outer_iters", Json::Num(c.outer_iters as f64)),
                ("precond_applies", Json::Num(c.precond_applies as f64)),
                ("modeled_bytes", Json::Num(c.modeled_bytes as f64)),
                ("mismatched_rounds", Json::Num(s.mismatches as f64)),
            ]),
        ))
    });
    let file = Json::obj([
        ("schema", Json::Num(1.0)),
        ("workload", Json::str(w.name)),
        ("why", Json::str(w.why)),
        ("seed", Json::Str(args.seed.to_string())),
        ("seconds", Json::Num(args.seconds)),
        ("traced", Json::Bool(args.traced)),
        ("env", env.to_json()),
        ("inputs", Json::Arr(inputs)),
        ("attempted", Json::Num(outcome.tally.attempted as f64)),
        ("failed", Json::Num(outcome.tally.failed as f64)),
        (FAIL_SHARE, Json::Num(fail_share(outcome))),
        (
            "end_to_end",
            metrics_json(&outcome.end_to_end, &metrics::end_to_end()),
        ),
        ("counts", Json::obj(counts)),
        (
            "ratios",
            Json::Obj(
                ratios(&outcome.end_to_end)
                    .into_iter()
                    .map(|(name, ratio, base)| {
                        (
                            name,
                            Json::obj([("ratio", Json::Num(ratio)), ("base_s", Json::Num(base))]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            metrics_json(&outcome.per_layer, &metrics::per_layer()),
        ),
        ("spans", trace::spans_to_json(w.name, spans)),
    ]);
    let path = result_path(&args.out_dir, w.name, args.traced);
    let written =
        std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, file.pretty()));
    match written {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// The last line of standard output: every end-to-end metric of an untraced
/// run, every per-layer metric of a traced one.
pub fn driver_line(outcome: &Outcome, traced: bool) -> String {
    let (rows, defs) = if traced {
        (&outcome.per_layer, metrics::per_layer())
    } else {
        (&outcome.end_to_end, metrics::end_to_end())
    };
    let metrics = defs
        .iter()
        .map(|d| {
            (
                d.name.clone(),
                Json::obj([
                    ("value", Json::Num(value_of(rows, &d.name))),
                    ("unit", Json::str(d.unit)),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.tally.attempted as f64)),
        ("failed", Json::Num(outcome.tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}
