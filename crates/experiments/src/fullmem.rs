//! The Sections I / VIII-D comparison, measured: conventional whole-memory
//! integrity (separate in-DRAM MAC table + MAC cache) vs PT-Guard, on the
//! same workloads, same simulator.
//!
//! The paper's argument in one table: general-purpose integrity costs
//! 12.5 % of DRAM and extra accesses on the read path; PT-Guard protects
//! the page tables — the part Rowhammer exploits actually need — for zero
//! storage and a fixed small latency.

use ptguard::PtGuardConfig;
use simx::runner::{simulate_workload, Protection};
use workloads::profiles::by_name;

use crate::report::{pct, Table};
use crate::Scale;

/// One workload's comparison row.
#[derive(Debug, Clone)]
pub struct FullMemRow {
    /// Workload name.
    pub name: String,
    /// Baseline LLC MPKI.
    pub mpki: f64,
    /// PT-Guard slowdown.
    pub ptguard: f64,
    /// Optimized PT-Guard slowdown.
    pub optimized: f64,
    /// Whole-memory-MAC slowdown.
    pub fullmem: f64,
}

/// Workloads compared (streaming + pointer-chasing + cache-friendly).
pub const WORKLOADS: [&str; 6] = ["xalancbmk", "mcf", "lbm", "bc", "sssp", "povray"];

/// Runs the comparison, with a sweep seed mixed into every workload's RNG
/// stream.
#[must_use]
pub fn run_seeded(scale: Scale, sweep_seed: u64) -> Vec<FullMemRow> {
    let instrs = scale.instructions();
    WORKLOADS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let p = by_name(name).expect("profile");
            let seed = crate::salted(0xf11 + i as u64, sweep_seed);
            let base = simulate_workload(p, Protection::None, instrs, seed);
            let guard = simulate_workload(
                p,
                Protection::PtGuard(PtGuardConfig::default()),
                instrs,
                seed,
            );
            let opt = simulate_workload(
                p,
                Protection::PtGuard(PtGuardConfig::optimized()),
                instrs,
                seed,
            );
            let full = simulate_workload(p, Protection::FullMemoryMac, instrs, seed);
            FullMemRow {
                name: (*name).to_string(),
                mpki: base.mpki,
                ptguard: (guard.cycles as f64 / base.cycles as f64 - 1.0).max(0.0),
                optimized: (opt.cycles as f64 / base.cycles as f64 - 1.0).max(0.0),
                fullmem: (full.cycles as f64 / base.cycles as f64 - 1.0).max(0.0),
            }
        })
        .collect()
}

/// Renders the comparison.
#[must_use]
pub fn render(rows: &[FullMemRow]) -> String {
    let mut t = Table::new(vec![
        "workload",
        "MPKI",
        "PT-Guard",
        "Optimized PT-Guard",
        "whole-memory MAC",
    ]);
    for r in rows {
        t.row(vec![
            r.name.clone(),
            format!("{:.1}", r.mpki),
            pct(r.ptguard),
            pct(r.optimized),
            pct(r.fullmem),
        ]);
    }
    let avg = |f: fn(&FullMemRow) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
    t.row(vec![
        "average".to_string(),
        "-".to_string(),
        pct(avg(|r| r.ptguard)),
        pct(avg(|r| r.optimized)),
        pct(avg(|r| r.fullmem)),
    ]);
    format!(
        "Sections I / VIII-D: PT-Guard vs conventional whole-memory integrity\n{}\nstorage overhead: PT-Guard 0 bytes of DRAM, 52-71 B SRAM; whole-memory MAC\n12.5% of DRAM (512 MB on a 4 GB client) plus a 4 KB controller MAC cache.\n",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_memory_mac_is_categorically_more_expensive() {
        let rows = run_seeded(Scale::Trial, 0);
        let avg_guard: f64 = rows.iter().map(|r| r.ptguard).sum::<f64>() / rows.len() as f64;
        let avg_full: f64 = rows.iter().map(|r| r.fullmem).sum::<f64>() / rows.len() as f64;
        assert!(
            avg_full > 3.0 * avg_guard,
            "full {avg_full} vs guard {avg_guard}"
        );
        // Pointer-chasers hurt the most (MAC cache gets no spatial reuse).
        let sssp = rows.iter().find(|r| r.name == "sssp").unwrap();
        assert!(
            sssp.fullmem > 0.04,
            "sssp full-memory slowdown {}",
            sssp.fullmem
        );
    }
}
