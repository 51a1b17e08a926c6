//! What the host was doing while the benchmark ran.

use crate::json::{count, n, obj, s, Value};
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Steps per timed yardstick sample (~1 ms).
const YARDSTICK_STEPS: u32 = 300_000;

/// Samples per [`yardstick`] reading.
const YARDSTICK_SAMPLES: usize = 5;

/// What the yardstick reads on the reference host, ns per step: host
/// seconds are scaled by `REFERENCE_YARDSTICK_NS / reading`. It fixes
/// the unit of every normalised time; its value is what this loop read
/// on the machine the benchmark was written on.
pub const REFERENCE_YARDSTICK_NS: f64 = 3.5;

/// Times one fixed chain of shifts, multiplies and a branch the
/// predictor cannot learn (the simulator's own diet); returns ns per
/// step.
fn yardstick_sample() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..YARDSTICK_STEPS {
        x ^= x >> 13;
        x = x
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .wrapping_add(u64::from(i));
        if x & 0x100 != 0 {
            x = x.rotate_left(7);
        }
    }
    black_box(x);
    t.elapsed().as_nanos() as f64 / f64::from(YARDSTICK_STEPS)
}

/// One reading (~5 ms) of the yardstick, a fixed integer loop owned by
/// the benchmark and read before and after every rep. The host's clock
/// drifts by 10-15% over minutes and this loop drifts with it (README,
/// "Host-speed normalisation"), so host times are reported relative to
/// it. It touches no memory on purpose: a loop that did would also
/// follow where its pages happened to land, which differs from process
/// to process. A reading is the median of a few samples, so that an
/// interrupt landing in one of them does not move it.
pub fn yardstick() -> f64 {
    let samples: Vec<f64> = (0..YARDSTICK_SAMPLES).map(|_| yardstick_sample()).collect();
    crate::stats::median(&samples)
}

/// `(steal, total)` jiffies from the aggregate line of `/proc/stat`,
/// or `None` where that file does not exist.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Share of CPU time stolen by the hypervisor between two
/// [`cpu_jiffies`] readings.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// The 1-minute load average, or 0 where `/proc/loadavg` is missing.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|t| !t.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where a set of numbers came from: "no number without the build
/// flavour and host it came from" (ROADMAP). The flavour is recorded
/// per workload next to its metrics.
pub fn provenance(seed: u64) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    obj([
        ("git_commit", s(command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", s(command_line("rustc", &["-V"]))),
        ("cpu_model", s(cpu_model)),
        (
            "nproc",
            count(std::thread::available_parallelism().map_or(1, |p| p.get() as u64)),
        ),
        ("seed", count(seed)),
        ("loadavg_start", n(loadavg())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yardstick_takes_time() {
        assert!(yardstick() > 0.0);
    }

    #[test]
    fn steal_share_handles_missing_and_flat_readings() {
        assert_eq!(steal_frac(None, Some((1, 2))), 0.0);
        assert_eq!(steal_frac(Some((5, 100)), Some((5, 100))), 0.0);
        assert_eq!(steal_frac(Some((5, 100)), Some((15, 200))), 0.1);
    }
}
