//! Percentiles, run context, and the one-line JSON result.

use std::path::Path;

/// Nearest-rank percentile of `values` (`p` in `0..=1`); sorts in place.
/// 0 for an empty slice.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (p * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of `values`; sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The final result line.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Queries offered.
    pub attempted: u64,
    /// Queries without their expected disposition.
    pub failed: u64,
    /// The metrics of this run.
    pub metrics: Vec<Metric>,
    /// Checks that failed, for the log.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result as one JSON object on one line. Values print with
    /// every digit Rust's shortest round-trip formatting gives.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Filesystem type of the mount that holds `dir`, from `/proc/mounts`
/// (longest matching mount point wins).
pub fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (device, point, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), format!("{fstype} ({device} on {point})")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// CPU time of this process, every thread live or exited, nanoseconds.
/// On a guest with paravirtual steal accounting, time the hypervisor
/// gives to another guest is not charged.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, nanoseconds; see [`process_cpu_ns`].
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "the CPU-time clocks are readable");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Cumulative CPU time of all CPUs, from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug)]
pub struct CpuTimes {
    /// Every state, in clock ticks.
    pub total: u64,
    /// Time the hypervisor ran something else while a CPU wanted to run.
    pub steal: u64,
}

impl CpuTimes {
    /// The share of CPU time stolen since `earlier`.
    pub fn steal_share_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        self.steal.saturating_sub(earlier.steal) as f64 / total.max(1) as f64
    }
}

/// Reads [`CpuTimes`], or `None` where `/proc/stat` is missing.
pub fn cpu_times() -> Option<CpuTimes> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().unwrap_or(0))
        .collect();
    Some(CpuTimes {
        total: ticks.iter().sum(),
        steal: ticks.get(7).copied().unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 5.0);
        assert_eq!(percentile(&mut v, 0.9), 9.0);
        assert_eq!(percentile(&mut v, 1.0), 10.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn json_is_one_line_with_every_digit() {
        let out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "latency_ms",
                value: 1.0 / 3.0,
                unit: "ms",
            }],
            failures: Vec::new(),
        };
        assert_eq!(
            out.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}}}"
        );
    }
}
