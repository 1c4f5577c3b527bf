//! Order statistics the benchmark reports: medians, quartile spread, and the
//! "at least ten samples beyond" percentile rule.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the two middle values for an even count); NaN if empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)` gives
/// them (the exclusive method) — the driver computes spreads the same way.
/// `None` below two samples.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// What the benchmark reports for a repeated timing: the first quartile of
/// the samples (the fastest of three; never below the fastest).
///
/// Not the median: on the shared hosts this runs on, interference only ever
/// adds time, in bursts of +20–50 % that last from half a second to minutes.
/// Over ten runs of `hpcg_stream`, medians of three rounds spread 6.5–17 %,
/// first quartiles 5.7–9 % (README, "Steadiness").
pub fn lower_quartile(v: &[f64]) -> f64 {
    let fastest = v.iter().copied().fold(f64::NAN, f64::min);
    quartiles(v).map_or(fastest, |(q1, _)| q1.max(fastest))
}

/// Distance between the quartiles as a share of the median (0 below two
/// samples: a single value has no spread to report).
pub fn spread(v: &[f64]) -> f64 {
    match quartiles(v) {
        Some((q1, q3)) => (q3 - q1) / median(v),
        None => 0.0,
    }
}

/// Nearest-rank percentile `p` (in percent) of an unsorted sample.
pub fn percentile(v: &[f64], p: u32) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return f64::NAN;
    }
    s[rank(s.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n)
}

/// The highest conventional percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` if not even the 75th has them.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    [99, 95, 90, 75]
        .into_iter()
        .find(|&p| n >= rank(n.max(1), p) + MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]).unwrap(), (1.0, 4.0));
        assert!(quartiles(&[1.0]).is_none());
        assert_eq!(spread(&[1.0]), 0.0);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lower_quartile_is_the_fastest_of_three_and_never_extrapolates() {
        assert_eq!(lower_quartile(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(lower_quartile(&[2.0, 1.0]), 1.0);
        assert_eq!(lower_quartile(&[5.0]), 5.0);
        assert!(lower_quartile(&[]).is_nan());
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((lower_quartile(&v) - 2.75).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 400 samples: p95 has 20 beyond, p99 only 4.
        assert_eq!(highest_supported_percentile(400), Some(95));
        // 200 is the first count whose p95 has ten beyond; 199 falls to p90.
        assert_eq!(highest_supported_percentile(200), Some(95));
        assert_eq!(highest_supported_percentile(199), Some(90));
        assert_eq!(highest_supported_percentile(1000), Some(99));
        assert_eq!(highest_supported_percentile(40), Some(75));
        assert_eq!(highest_supported_percentile(39), None);
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(percentile(&v, 95), 380.0);
        assert_eq!(percentile(&v, 50), 200.0);
    }
}
