//! Figure 7: average and worst-case slowdown for PT-Guard and Optimized
//! PT-Guard as the MAC latency sweeps from 5 to 20 cycles.

use ptguard::PtGuardConfig;

use crate::fig6;
use crate::report::{pct, Table};
use crate::Scale;

/// One (design, latency) point of Figure 7.
#[derive(Debug, Clone)]
pub struct Fig7Point {
    /// `PT-Guard` or `Optimized PT-Guard`.
    pub design: &'static str,
    /// MAC computation latency in cycles.
    pub mac_latency: u32,
    /// Mean slowdown (1 − GMEAN normalized IPC).
    pub avg_slowdown: f64,
    /// Worst-case per-workload slowdown.
    pub worst_slowdown: f64,
}

/// The Figure 7 sweep.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// All sweep points.
    pub points: Vec<Fig7Point>,
}

impl Fig7Result {
    /// Looks a point up.
    #[must_use]
    pub fn point(&self, design: &str, latency: u32) -> Option<&Fig7Point> {
        self.points
            .iter()
            .find(|p| p.design == design && p.mac_latency == latency)
    }
}

/// MAC latencies the paper sweeps.
pub const LATENCIES: [u32; 4] = [5, 10, 15, 20];

/// Runs the sweep, with a sweep seed threaded into the underlying Figure 6
/// runs. Every point shares one baseline run per workload.
#[must_use]
pub fn run_seeded(scale: Scale, sweep_seed: u64) -> Fig7Result {
    let mut keys = Vec::new();
    let mut guards = Vec::new();
    for &lat in &LATENCIES {
        for (design, cfg) in [
            ("PT-Guard", PtGuardConfig::default()),
            ("Optimized PT-Guard", PtGuardConfig::optimized()),
        ] {
            keys.push((design, lat));
            guards.push(cfg.with_mac_latency(lat));
        }
    }
    let results = fig6::run_designs(scale, &guards, sweep_seed);
    let points = keys
        .into_iter()
        .zip(results)
        .map(|((design, mac_latency), r)| Fig7Point {
            design,
            mac_latency,
            avg_slowdown: r.mean_slowdown(),
            worst_slowdown: 1.0 - r.worst().1,
        })
        .collect();
    Fig7Result { points }
}

/// Renders the figure.
#[must_use]
pub fn render(r: &Fig7Result) -> String {
    let mut t = Table::new(vec![
        "design",
        "MAC latency (cycles)",
        "avg slowdown",
        "worst slowdown",
    ]);
    for p in &r.points {
        t.row(vec![
            p.design.to_string(),
            p.mac_latency.to_string(),
            pct(p.avg_slowdown),
            pct(p.worst_slowdown),
        ]);
    }
    format!(
        "Figure 7: slowdown vs MAC latency, PT-Guard vs Optimized PT-Guard\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig6::run_with;

    #[test]
    fn optimized_removes_most_overhead_at_default_latency() {
        // A single-latency slice of Figure 7 (full sweep is bench-scale).
        let base = run_with(Scale::Trial, PtGuardConfig::default());
        let opt = run_with(Scale::Trial, PtGuardConfig::optimized());
        assert!(
            opt.mean_slowdown() < base.mean_slowdown(),
            "optimized {} vs base {}",
            opt.mean_slowdown(),
            base.mean_slowdown()
        );
        assert!(
            opt.mean_slowdown() < 0.01,
            "optimized slowdown {}",
            opt.mean_slowdown()
        );
    }
}
