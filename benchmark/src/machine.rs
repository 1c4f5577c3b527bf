//! What the result files record about the machine, and the triad bandwidths
//! the kernel probes are set against.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use crate::api;
use crate::json::Json;
use crate::metrics::Metric;
use crate::stats::lower_quartile;

const MIB: u64 = 1 << 20;
/// Total bytes of the three triad arrays at the L2 and LLC levels.
const TRIAD_L2_TOTAL: u64 = MIB;
const TRIAD_LLC_TOTAL: u64 = 96 * MIB;
/// Each DRAM-level array is this many times the last-level cache …
const DRAM_ARRAY_OVER_LLC: u64 = 4;
/// … but the three together take at most this share of available memory.
const DRAM_MEMORY_SHARE: f64 = 0.25;
const TRIAD_REPEATS: usize = 3;

/// Where the run happened: recorded in every result file.
pub struct Env {
    pub commit: String,
    pub rustc: String,
    pub nproc: usize,
    pub pool_threads: usize,
    pub cpu_features: String,
    pub kernel_backend: &'static str,
    pub l2_bytes: u64,
    pub llc_bytes: u64,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// (L2, last-level) cache bytes of CPU 0 from sysfs; 2 MiB / 32 MiB if absent.
fn cache_bytes() -> (u64, u64) {
    let read = |index: usize, file: &str| {
        std::fs::read_to_string(format!(
            "/sys/devices/system/cpu/cpu0/cache/index{index}/{file}"
        ))
        .ok()
    };
    let mut levels: Vec<(u64, u64)> = (0..8)
        .filter_map(|i| {
            let level: u64 = read(i, "level")?.trim().parse().ok()?;
            let size = read(i, "size")?;
            let size = size.trim();
            let (digits, unit) = size.split_at(
                size.find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(size.len()),
            );
            let unit = match unit {
                "K" => 1 << 10,
                "M" => MIB,
                "G" => 1 << 30,
                _ => 1,
            };
            (read(i, "type")?.trim() != "Instruction")
                .then_some((level, digits.parse::<u64>().ok()? * unit))
        })
        .collect();
    levels.sort_unstable();
    let l2 = levels
        .iter()
        .find(|(level, _)| *level == 2)
        .map_or(2 * MIB, |(_, b)| *b);
    (l2, levels.last().map_or(32 * MIB, |(_, b)| *b).max(l2))
}

impl Env {
    pub fn detect() -> Env {
        let (l2_bytes, llc_bytes) = cache_bytes();
        Env {
            commit: command_line("git", &["rev-parse", "HEAD"]),
            rustc: command_line("rustc", &["-V"]),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            pool_threads: api::pool_threads(),
            cpu_features: api::cpu_features(),
            kernel_backend: api::kernel_backend(),
            l2_bytes,
            llc_bytes,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("commit", Json::str(&self.commit)),
            ("rustc", Json::str(&self.rustc)),
            ("nproc", Json::Num(self.nproc as f64)),
            ("pool_threads", Json::Num(self.pool_threads as f64)),
            ("cpu_features", Json::str(&self.cpu_features)),
            ("kernel_backend", Json::str(self.kernel_backend)),
            ("l2_bytes", Json::Num(self.l2_bytes as f64)),
            ("llc_bytes", Json::Num(self.llc_bytes as f64)),
        ])
    }
}

fn proc_kib(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `VmHWM` of this process in MB (NaN where `/proc` has none).
pub fn peak_rss_mb() -> f64 {
    proc_kib("/proc/self/status", "VmHWM:").map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

/// STREAM triad `a = b + s·c` over three arrays of `total_bytes` together,
/// split across `threads` threads, each making `passes` passes over its own
/// part.  Returns GB/s counting 24 bytes per element and pass.
fn triad_gbs(total_bytes: u64, threads: usize) -> f64 {
    let n = (total_bytes / 24) as usize;
    let (mut a, b, c) = (vec![0.0f64; n], vec![1.0f64; n], vec![2.0f64; n]);
    // Enough passes that thread start-up is under a percent of a repeat.
    let passes = (TRIAD_LLC_TOTAL / total_bytes).clamp(1, 4096) as usize;
    let chunk = n.div_ceil(threads);
    let mut repeat = || {
        let start = Instant::now();
        std::thread::scope(|s| {
            for (i, part) in a.chunks_mut(chunk).enumerate() {
                let (b, c) = (
                    &b[i * chunk..i * chunk + part.len()],
                    &c[i * chunk..i * chunk + part.len()],
                );
                s.spawn(move || {
                    for _ in 0..passes {
                        for ((ai, bi), ci) in black_box(&mut *part).iter_mut().zip(b).zip(c) {
                            *ai = bi + 3.0 * ci;
                        }
                    }
                });
            }
        });
        start.elapsed().as_secs_f64()
    };
    repeat();
    let secs: Vec<f64> = (0..TRIAD_REPEATS).map(|_| repeat()).collect();
    (24 * n * passes) as f64 / lower_quartile(&secs) * 1e-9
}

/// The machine references of the traced run.
pub struct Machine<'a> {
    env: &'a Env,
    /// (level, total bytes of the three arrays, GB/s)
    triads: [(&'static str, u64, f64); 3],
}

impl Machine<'_> {
    /// `small` (the smoke run) keeps the DRAM-level arrays at LLC-level size.
    pub fn measure(env: &Env, small: bool) -> Machine<'_> {
        let available = proc_kib("/proc/meminfo", "MemAvailable:").map_or(8e9, |kib| kib * 1024.0);
        let dram_total = if small {
            TRIAD_LLC_TOTAL
        } else {
            (3 * DRAM_ARRAY_OVER_LLC * env.llc_bytes).min((DRAM_MEMORY_SHARE * available) as u64)
        };
        let threads = env.pool_threads;
        let triads = [
            ("l2", TRIAD_L2_TOTAL),
            ("llc", TRIAD_LLC_TOTAL),
            ("dram", dram_total),
        ]
        .map(|(level, total)| (level, total, triad_gbs(total, threads)));
        Machine { env, triads }
    }

    /// The triad level a working set of `bytes` fits in, and its GB/s.
    pub fn triad_for(&self, bytes: u64) -> (&'static str, f64) {
        let level = if bytes <= self.env.l2_bytes {
            0
        } else if bytes <= self.env.llc_bytes {
            1
        } else {
            2
        };
        (self.triads[level].0, self.triads[level].2)
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let mut out: Vec<Metric> = self
            .triads
            .iter()
            .map(|(level, total, gbs)| {
                Metric::value(format!("machine.triad_gbs.{level}"), *gbs, TRIAD_REPEATS).note(
                    format!(
                        "three arrays of {:.1} MiB together, {} threads",
                        *total as f64 / MIB as f64,
                        self.env.pool_threads
                    ),
                )
            })
            .collect();
        out.push(Metric::value(
            "machine.llc_bytes",
            self.env.llc_bytes as f64,
            1,
        ));
        out.push(
            Metric::value("machine.threads", self.env.pool_threads as f64, 1)
                .note(format!("of {} CPUs", self.env.nproc)),
        );
        out
    }
}
