//! Order statistics, process probes, and the collected result of one run.

use std::collections::BTreeMap;

/// The `p`-th percentile (0–100) of `values`, linearly interpolated between
/// the closest ranks. `values` need not be sorted; an empty slice gives NaN.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time (user + system) consumed so far by every thread of this
/// process, exited ones included, in nanoseconds. The kernel reports it in
/// clock ticks of 10 ms.
pub fn process_cpu_ns() -> f64 {
    const NS_PER_TICK: f64 = 1.0e7;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) * NS_PER_TICK,
        _ => f64::NAN,
    }
}

/// Asks the kernel to wake this thread's sleeps on time: threads inherit
/// the slack of the thread that spawns them, so calling this first thing in
/// `main` covers the load generator and the server. Without it a sleep
/// overshoots by the default 50 µs slack.
pub fn tighten_timer_slack() {
    let _ = std::fs::write("/proc/self/timerslack_ns", "1");
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (simulated memory ops, or scheduled requests).
    pub attempted: u64,
    /// Operations that failed (faulted ops, or refused, errored, mismatched
    /// and unanswered requests).
    pub failed: u64,
    /// Output checks that failed; empty when every output was correct.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Values printed for the reader but not part of the result line:
    /// `(name, value, unit)`.
    pub notes: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.notes.push((name, value, unit));
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn process_probes_read_sane_values() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_ns() >= 0.0);
    }
}
