//! `compare <a> <b>`: two result sets, metric by metric, under each metric's
//! own bound.  `a` is the base of every ratio.

use std::path::Path;

use crate::json::Json;
use crate::metrics::{self, Better, Def, FAIL_SHARE};
use crate::report::result_path;
use crate::stats;
use crate::workloads::FULL;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Regressed,
    Improved,
    Unchanged,
    /// The spread within a set is wider than the bound and the two sets'
    /// samples overlap: the runs cannot tell.
    Unresolved,
}

pub struct Side {
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Side {
    fn read(file: &Json, name: &str) -> Option<Side> {
        let m = file.get("end_to_end")?.get(name)?;
        let samples = m
            .get("samples")?
            .as_arr()?
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        Some(Side {
            value: m.get("value")?.as_f64()?,
            samples,
        })
    }

    /// The repeated measurements if there are any, else the one value.
    fn runs(&self) -> &[f64] {
        if self.samples.is_empty() {
            std::slice::from_ref(&self.value)
        } else {
            &self.samples
        }
    }
}

/// By how much of `a` the metric got worse in `b` (negative: better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn judge(better: Better, bound: f64, a: &Side, b: &Side) -> Verdict {
    let worse = worse_by(better, a.value, b.value);
    let every_b = |pred: fn(f64) -> bool| {
        b.runs()
            .iter()
            .all(|&y| a.runs().iter().all(|&x| pred(worse_by(better, x, y))))
    };
    // A spread wider than the bound leaves overlapping runs unable to tell;
    // runs that separate fully are judged like any others.
    let wide = stats::spread(&a.samples).max(stats::spread(&b.samples)) > bound;
    if wide && !every_b(|w| w < 0.0) && !every_b(|w| w > 0.0) {
        return Verdict::Unresolved;
    }
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load(dir: &Path, workload: &str) -> Option<Json> {
    Json::parse(&std::fs::read_to_string(result_path(dir, workload, false)).ok()?).ok()
}

fn row(def: &Def, a: &Side, b: &Side) -> Verdict {
    let bound = def.bound.expect("end-to-end metrics are bounded");
    let verdict = judge(def.better, bound, a, b);
    println!(
        "    {:<24} {:<11} b/a = {:<8.4} (base a = {:.6e} {}; b = {:.6e}; bound {:.0} %; spread a {:.1} % b {:.1} %)",
        def.name,
        format!("{verdict:?}").to_lowercase(),
        b.value / a.value,
        a.value,
        def.unit,
        b.value,
        100.0 * bound,
        100.0 * stats::spread(&a.samples),
        100.0 * stats::spread(&b.samples)
    );
    verdict
}

/// Prints one row per workload and metric; `true` if nothing regressed and
/// no `fail_share` rose.
pub fn run(a_dir: &Path, b_dir: &Path) -> bool {
    let mut ok = true;
    let mut compared = 0;
    for w in FULL {
        let (Some(a), Some(b)) = (load(a_dir, w.name), load(b_dir, w.name)) else {
            println!("== {}: missing in one of the sets, skipped", w.name);
            continue;
        };
        compared += 1;
        println!(
            "== {} (seed a {} b {})",
            w.name,
            a.get("seed").and_then(Json::as_str).unwrap_or("?"),
            b.get("seed").and_then(Json::as_str).unwrap_or("?")
        );
        for def in metrics::end_to_end() {
            match (Side::read(&a, &def.name), Side::read(&b, &def.name)) {
                (Some(sa), Some(sb)) => ok &= row(&def, &sa, &sb) != Verdict::Regressed,
                _ => println!("    {:<24} missing", def.name),
            }
        }
        let fail = |f: &Json| f.get(FAIL_SHARE).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let (fa, fb) = (fail(&a), fail(&b));
        // NaN compares false both ways, so a missing share fails the set.
        let held = fb <= fa;
        println!(
            "    {:<24} {:<11} a = {fa}, b = {fb} (any increase regresses)",
            FAIL_SHARE,
            if held { "unchanged" } else { "regressed" }
        );
        ok &= held;
        let same = a.get("counts") == b.get("counts");
        println!(
            "    {:<24} {}",
            "counts",
            if same {
                "identical"
            } else {
                "DIFFER (iteration counts or modeled bytes moved)"
            }
        );
    }
    if compared == 0 {
        println!(
            "nothing to compare: no workload has a result file in both {} and {}",
            a_dir.display(),
            b_dir.display()
        );
    }
    ok && compared > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(samples: &[f64]) -> Side {
        Side {
            value: stats::median(samples),
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        use Better::{Higher, Lower};
        let base = side(&[1.00, 1.01, 0.99]);
        assert_eq!(
            judge(Lower, 0.10, &base, &side(&[1.05, 1.04, 1.06])),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(Lower, 0.10, &base, &side(&[1.15, 1.14, 1.16])),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Lower, 0.10, &base, &side(&[0.85, 0.84, 0.86])),
            Verdict::Improved
        );
        assert_eq!(
            judge(Higher, 0.05, &side(&[100.0]), &side(&[90.0])),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Higher, 0.05, &side(&[100.0]), &side(&[110.0])),
            Verdict::Improved
        );
        // Spread wider than the bound: overlapping runs cannot tell …
        let wide = side(&[1.0, 1.3, 0.8]);
        assert_eq!(
            judge(Lower, 0.10, &wide, &side(&[1.2, 0.9, 1.25])),
            Verdict::Unresolved
        );
        // … unless every run of b beats (or loses to) every run of a.
        assert_eq!(
            judge(Lower, 0.10, &wide, &side(&[0.7, 0.75, 0.6])),
            Verdict::Improved
        );
        assert_eq!(
            judge(Lower, 0.10, &wide, &side(&[1.5, 1.6, 1.9])),
            Verdict::Regressed
        );
    }
}
