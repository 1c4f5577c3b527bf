//! The standing benchmark of the f3r workspace: time-to-solution on five
//! workloads, attributed per layer.  See README.md for what is measured and
//! why, SURFACE.md for the public items it calls.
//!
//! ```text
//! f3r-benchmark run   [--seed N] [--seconds S] [--out DIR]      all five workloads, one process each
//! f3r-benchmark trace [--workload W] [--seed N] ...             the traced run (per-layer metrics, span files)
//! f3r-benchmark run --workload W --seed N --seconds S --trace 0|1   one workload, in this process (the driver's form)
//! f3r-benchmark compare A B                                     diff two result sets under the bounds
//! f3r-benchmark smoke                                           all five at 8^3-12^3, one round
//! ```

mod api;
mod compare;
mod inputs;
mod json;
mod machine;
mod metrics;
mod probes;
mod report;
mod runner;
mod serve;
mod solve;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use workloads::{Workload, FULL};

/// How long one run measures: `run_seconds` of `BENCHMARK.json`.  Phases that
/// need longer for their three rounds take longer.
pub const RUN_SECONDS: f64 = 10.0;

/// Settings that would change what is measured behind the benchmark's back.
const REFUSED_ENV: [&str; 3] = ["F3R_NUM_THREADS", "F3R_KERNEL_BACKEND", "F3R_BENCH_GRID"];
const MIN_CPUS: usize = 2;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out_dir: PathBuf,
    pool: usize,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        smoke: false,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/results")),
        pool: 1,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        let number = |v: &String| {
            v.parse::<f64>()
                .map_err(|_| format!("{arg}: `{v}` is not a number"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|_| format!("{arg} takes an unsigned integer"))?
            }
            "--seconds" => cli.seconds = number(value()?)?,
            "--trace" => cli.traced = number(value()?)? != 0.0,
            "--out" => cli.out_dir = PathBuf::from(value()?),
            "--pool" => cli.pool = number(value()?)? as usize,
            "--smoke" => cli.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => cli.positional.push(arg.clone()),
        }
    }
    if !(cli.seconds >= 0.0 && cli.seconds <= 600.0) {
        return Err(format!("--seconds {} is outside 0..=600", cli.seconds));
    }
    Ok(cli)
}

fn refuse_to_start() -> Option<String> {
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Some(format!(
            "{var} is set: the benchmark fixes pool size, backend and grids itself"
        ));
    }
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    (cpus < MIN_CPUS).then(|| format!("{cpus} CPU available, the workloads need {MIN_CPUS}"))
}

fn set_of(cli: &Cli) -> [Workload; 5] {
    if cli.smoke {
        workloads::smoke()
    } else {
        FULL
    }
}

/// One workload in this process; the driver line goes last.
fn run_one(cli: &Cli, name: &str) -> Result<bool, String> {
    let workload =
        workloads::find(&set_of(cli), name).ok_or_else(|| format!("no workload named {name}"))?;
    let args = runner::Args {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
        smoke: cli.smoke,
        out_dir: cli.out_dir.clone(),
    };
    let outcome = runner::run(&args);
    println!("{}", report::driver_line(&outcome, cli.traced));
    Ok(outcome.correct())
}

/// Every workload, each re-executed as a process of its own.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for w in set_of(cli) {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", w.name, "--seed", &cli.seed.to_string()])
            .args([
                "--seconds",
                &cli.seconds.to_string(),
                "--trace",
                if cli.traced { "1" } else { "0" },
            ])
            .arg("--out")
            .arg(&cli.out_dir);
        if cli.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("could not start {}: {e}", w.name))?;
        if !status.success() {
            println!("FAILED: workload {} exited with {status}", w.name);
            all_correct = false;
        }
    }
    Ok(all_correct)
}

fn dispatch(command: &str, cli: &Cli) -> Result<bool, String> {
    match command {
        "compare" => match cli.positional.as_slice() {
            [a, b] => Ok(compare::run(&PathBuf::from(a), &PathBuf::from(b))),
            _ => Err("compare takes two result directories".into()),
        },
        "benchmark-json" => {
            print!("{}", metrics::benchmark_json(&FULL).pretty());
            Ok(true)
        }
        "scaling-child" => {
            let name = cli
                .workload
                .as_deref()
                .ok_or("scaling-child needs --workload")?;
            let w = workloads::find(&set_of(cli), name)
                .ok_or_else(|| format!("no workload named {name}"))?;
            runner::scaling_child(&w, cli.seed, cli.pool);
            Ok(true)
        }
        "run" | "trace" | "smoke" => {
            if let Some(reason) = refuse_to_start() {
                return Err(format!("refusing to start: {reason}"));
            }
            match &cli.workload {
                Some(name) => run_one(cli, name),
                None => run_all(cli),
            }
        }
        other => Err(format!(
            "unknown command `{other}`; see the top of benchmark/src/main.rs"
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: f3r-benchmark run|trace|smoke|compare ... (see benchmark/README.md)");
        return ExitCode::from(2);
    };
    let outcome = parse(rest).and_then(|mut cli| {
        cli.traced |= command == "trace" || command == "smoke";
        if command == "smoke" {
            // One round of everything and a serve window of a fifth of a
            // second, traced so the probes run too.
            (cli.smoke, cli.seconds) = (true, 0.25);
        }
        dispatch(command, &cli)
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("f3r-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
