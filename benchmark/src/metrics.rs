//! The metric names, with unit, direction and regression bound — the single
//! table `BENCHMARK.json` is generated from and `compare` judges by.

use crate::api::Variant;
use crate::json::Json;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone)]
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before it counts as a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better, bound: Option<f64>) -> Def {
    Def {
        name: name.into(),
        unit,
        better,
        bound,
    }
}

/// `fail_share` is judged by "any increase", not by a share of its median
/// (which is zero), so it lives outside the bounded list: the driver gets it
/// as `failed`/`attempted`, `compare` gives it its own rule.
pub const FAIL_SHARE: &str = "fail_share";

/// The issue fixed 10 % for the timings.  Ten runs of one commit spread up to
/// 9 % between their quartiles on `hpcg_stream` (README, "Steadiness"), and a
/// bound has to sit at three times the spread to mean anything, so every
/// timing gets the 25 % the contract allows at most.
const TIME_BOUND: f64 = 0.25;

pub fn end_to_end() -> Vec<Def> {
    use Better::{Higher, Lower};
    let mut defs = vec![def("setup_s", "s", Lower, Some(TIME_BOUND))];
    defs.extend(
        Variant::ALL.map(|v| def(format!("solve_s.{}", v.key()), "s", Lower, Some(TIME_BOUND))),
    );
    defs.extend([
        def("batch_rhs_s.fp16_f3r", "s", Lower, Some(TIME_BOUND)),
        def("serve_p50_s", "s", Lower, Some(TIME_BOUND)),
        def("serve_p95_s", "s", Lower, Some(TIME_BOUND)),
        def("serve_req_per_s", "1/s", Higher, Some(TIME_BOUND)),
        def("peak_rss_mb", "MB", Lower, Some(0.05)),
    ]);
    defs
}

pub fn per_layer() -> Vec<Def> {
    use Better::{Higher, Lower};
    let d = |name: String, unit, better| def(name, unit, better, None);
    let mut defs = Vec::new();
    for level in ["l2", "llc", "dram"] {
        defs.push(d(format!("machine.triad_gbs.{level}"), "GB/s", Higher));
    }
    defs.push(d("machine.llc_bytes".into(), "bytes", Higher));
    defs.push(d("machine.threads".into(), "count", Higher));

    for pair in ["a64_v64", "a32_v32", "a16_v32", "a16_v16"] {
        defs.push(d(format!("sparse.spmv_s.{pair}"), "s", Lower));
        defs.push(d(format!("sparse.spmv_gbs.{pair}"), "GB/s", Higher));
    }
    defs.push(d("sparse.spmm8_col_s.a16_v32".into(), "s", Lower));
    defs.push(d("sparse.orth_vec_s.v64".into(), "s", Lower));
    defs.push(d("sparse.orth_vec_s.v32".into(), "s", Lower));

    for (m, mv) in [("m64", "m64_v64"), ("m32", "m32_v32"), ("m16", "m16_v16")] {
        defs.push(d(format!("precond.build_s.{m}"), "s", Lower));
        defs.push(d(format!("precond.apply_s.{mv}"), "s", Lower));
        defs.push(d(format!("precond.apply_gbs.{mv}"), "GB/s", Higher));
        defs.push(d(format!("precond.storage_bytes.{m}"), "bytes", Lower));
    }

    for v in Variant::ALL.map(Variant::key) {
        defs.push(d(format!("core.outer_iters.{v}"), "count", Lower));
        defs.push(d(format!("core.precond_applies.{v}"), "count", Lower));
        defs.push(d(format!("core.modeled_bytes.{v}"), "bytes", Lower));
        defs.push(d(format!("core.achieved_gbs.{v}"), "GB/s", Higher));
        defs.push(d(format!("core.s_per_precond_apply.{v}"), "s", Lower));
        defs.push(d(format!("core.build_s.{v}"), "s", Lower));
    }
    for v in Variant::F3R.map(Variant::key) {
        for part in ["precond", "spmv", "rest"] {
            defs.push(d(format!("core.est_share.{part}.{v}"), "share", Lower));
        }
        defs.push(d(format!("core.session_open_s.{v}"), "s", Lower));
    }
    defs.push(d("core.iter_mismatch_rounds".into(), "count", Lower));
    defs.push(d("core.batch_speedup".into(), "ratio", Higher));
    defs.push(d("core.batch_matrix_bytes_per_rhs".into(), "bytes", Lower));

    for (name, unit, better) in [
        ("overhead_s", "s", Lower),
        ("queued_s", "s", Lower),
        ("lookup_s", "s", Lower),
        ("solve_share", "share", Higher),
        ("hit_rate", "share", Higher),
        ("warm_rate", "share", Higher),
        ("cold_first_s", "s", Lower),
        ("outer_iters_mean", "count", Lower),
        ("requests", "count", Higher),
        ("rejected", "count", Lower),
    ] {
        defs.push(d(format!("serve.{name}"), unit, better));
    }

    defs.push(d("parallel.dispatch_s".into(), "s", Lower));
    defs.push(d("parallel.scaling.fp16_f3r".into(), "ratio", Higher));
    defs.push(d("trace.overhead".into(), "share", Lower));
    defs
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    /// Samples behind the value (for a percentile: the requests it is taken over).
    pub n: usize,
    /// Repeated measurements of the same quantity, when the value is taken over them.
    pub samples: Vec<f64>,
    pub note: String,
}

impl Metric {
    /// A repeated timing: the first quartile of its samples.
    pub fn timing(name: impl Into<String>, samples: &[f64]) -> Metric {
        Metric {
            value: stats::lower_quartile(samples),
            ..Metric::median(name, samples)
        }
    }

    pub fn median(name: impl Into<String>, samples: &[f64]) -> Metric {
        Metric {
            name: name.into(),
            value: stats::median(samples),
            n: samples.len(),
            samples: samples.to_vec(),
            note: String::new(),
        }
    }

    pub fn value(name: impl Into<String>, value: f64, n: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            n,
            samples: Vec::new(),
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }

    pub fn to_json(&self, unit: &str) -> Json {
        Json::obj([
            ("value", Json::Num(self.value)),
            ("unit", Json::str(unit)),
            ("n", Json::Num(self.n as f64)),
            ("samples", Json::nums(&self.samples)),
            ("note", Json::str(&self.note)),
        ])
    }
}

/// The value of metric `name`, NaN if it was not measured.
pub fn value_of(metrics: &[Metric], name: &str) -> f64 {
    let found = metrics.iter().find(|m| m.name == name);
    found.map_or(f64::NAN, |m| m.value)
}

/// The file the driver reads, generated so it cannot drift from the table.
pub fn benchmark_json(workloads: &[crate::workloads::Workload]) -> Json {
    let better = |b| {
        Json::str(if b == Better::Lower {
            "lower"
        } else {
            "higher"
        })
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                    "run",
                ]
                .map(Json::str)
                .into(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(crate::RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                workloads
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                end_to_end()
                    .into_iter()
                    .map(|d| {
                        Json::obj([
                            ("name", Json::str(d.name)),
                            ("unit", Json::str(d.unit)),
                            ("better", better(d.better)),
                            (
                                "bound",
                                Json::Num(d.bound.expect("end-to-end metrics are bounded")),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .into_iter()
                    .map(|d| {
                        Json::obj([
                            ("name", Json::str(d.name)),
                            ("unit", Json::str(d.unit)),
                            ("better", better(d.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tables_hold_what_the_contract_allows() {
        let (e2e, layers) = (end_to_end(), per_layer());
        assert_eq!(e2e.len(), 11);
        assert_eq!(layers.len(), 86);
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|d| d.name.as_str()).collect();
        assert!(names.iter().all(|n| n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 97, "a name is used once");
        let setup = e2e
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s is required");
        assert!(e2e.iter().all(|d| d
            .bound
            .is_some_and(|b| b <= setup.bound.unwrap() && b <= 0.25)));
        assert!(e2e.iter().chain(&layers).all(|d| d.unit.len() <= 16));
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists")).unwrap();
        assert_eq!(
            on_disk,
            benchmark_json(&crate::workloads::FULL),
            "regenerate with `-- benchmark-json`"
        );
        for w in crate::workloads::FULL {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {} chars",
                w.name,
                w.why.len()
            );
        }
    }
}
