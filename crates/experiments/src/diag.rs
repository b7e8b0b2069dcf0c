//! A gem5-style statistics dump for one workload run: per-level hit rates,
//! TLB/MMU-cache behaviour, DRAM row-buffer locality, and every PT-Guard
//! engine counter — the observability surface behind Figures 6 and 7.

use memsys::system::MemorySystem;
use ptguard::PtGuardConfig;
use simx::runner::{build_machine, run, Protection};
use workloads::profiles::by_name;

use crate::report::{pct, Table};
use crate::Scale;

/// A full diagnostic snapshot of one run's measured region: every counter
/// is the region's own count, not the machine's lifetime total.
#[derive(Debug, Clone)]
pub struct DiagReport {
    /// Workload name.
    pub name: String,
    /// IPC of the measured region.
    pub ipc: f64,
    /// LLC MPKI (demand + walk).
    pub mpki: f64,
    /// `(hits, misses)` per level: L1D, L2, LLC.
    pub cache: [(u64, u64); 3],
    /// TLB `(hits, misses)`.
    pub tlb: (u64, u64),
    /// MMU-cache `(hits, misses)`.
    pub mmu: (u64, u64),
    /// DRAM `(row hits, row misses)`.
    pub dram_rows: (u64, u64),
    /// PT-Guard engine counters, if an engine is mounted:
    /// `(reads, mac_computations, identifier_skips, mac_zero_hits, verified)`.
    pub engine: Option<(u64, u64, u64, u64, u64)>,
}

/// Runs one workload with the given configuration, with a sweep seed mixed
/// into the machine's RNG stream, and snapshots everything.
#[must_use]
pub fn diagnose_seeded(
    name: &str,
    protection: Protection,
    scale: Scale,
    sweep_seed: u64,
) -> DiagReport {
    let profile = by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let mut machine = build_machine(profile, protection, crate::salted(0xd1a6, sweep_seed));
    let _ = run(&mut machine, scale.instructions()); // warm-up
    let before = Counters::read(&machine.sys);
    let result = run(&mut machine, scale.instructions());
    let c = Counters::read(&machine.sys).since(&before);
    DiagReport {
        name: name.to_string(),
        ipc: result.ipc(),
        mpki: result.mpki,
        cache: c.cache,
        tlb: c.tlb,
        mmu: c.mmu,
        dram_rows: c.dram_rows,
        engine: c.engine,
    }
}

/// Every counter the dump reports, read at one instant.
struct Counters {
    cache: [(u64, u64); 3],
    tlb: (u64, u64),
    mmu: (u64, u64),
    dram_rows: (u64, u64),
    engine: Option<(u64, u64, u64, u64, u64)>,
}

impl Counters {
    fn read(sys: &MemorySystem) -> Self {
        let (l1, l2, llc) = sys.cache_stats();
        let tlb = sys.tlb_stats();
        let mmu = sys.mmu_stats();
        let dram = sys.channel(0).device().stats();
        Self {
            cache: [
                (l1.hits, l1.misses),
                (l2.hits, l2.misses),
                (llc.hits, llc.misses),
            ],
            tlb: (tlb.hits, tlb.misses),
            mmu: (mmu.hits, mmu.misses),
            dram_rows: (dram.row_hits, dram.row_misses),
            engine: sys.channel(0).engine().map(|e| {
                let s = e.stats();
                (
                    s.reads,
                    s.read_mac_computations,
                    s.identifier_skips,
                    s.mac_zero_hits,
                    s.verified,
                )
            }),
        }
    }

    /// The counts between `before` and `self`.
    fn since(&self, before: &Self) -> Self {
        let d = |a: (u64, u64), b: (u64, u64)| (a.0 - b.0, a.1 - b.1);
        Self {
            cache: std::array::from_fn(|i| d(self.cache[i], before.cache[i])),
            tlb: d(self.tlb, before.tlb),
            mmu: d(self.mmu, before.mmu),
            dram_rows: d(self.dram_rows, before.dram_rows),
            engine: self
                .engine
                .zip(before.engine)
                .map(|(a, b)| (a.0 - b.0, a.1 - b.1, a.2 - b.2, a.3 - b.3, a.4 - b.4)),
        }
    }
}

fn rate(hits: u64, misses: u64) -> String {
    let total = hits + misses;
    if total == 0 {
        "-".to_string()
    } else {
        pct(hits as f64 / total as f64)
    }
}

/// Runs and renders diagnostics for a representative workload triple under
/// baseline, PT-Guard, and Optimized PT-Guard, with a sweep seed threaded
/// into every diagnostic run.
#[must_use]
pub fn run_default_seeded(scale: Scale, sweep_seed: u64) -> String {
    let mut out = String::from("Diagnostics (gem5-style stats dump)\n");
    for name in ["xalancbmk", "lbm", "povray"] {
        let mut t = Table::new(vec![
            "config",
            "IPC",
            "MPKI",
            "L1D hit",
            "L2 hit",
            "LLC hit",
            "TLB hit",
            "MMU$ hit",
            "DRAM row hit",
            "MAC comps",
            "id skips",
            "MAC-zero",
        ]);
        for (label, protection) in [
            ("baseline", Protection::None),
            ("ptguard", Protection::PtGuard(PtGuardConfig::default())),
            ("optimized", Protection::PtGuard(PtGuardConfig::optimized())),
        ] {
            let d = diagnose_seeded(name, protection, scale, sweep_seed);
            let (macs, skips, zeros) = d
                .engine
                .map(|(_, m, s, z, _)| (m.to_string(), s.to_string(), z.to_string()))
                .unwrap_or_else(|| ("-".into(), "-".into(), "-".into()));
            t.row(vec![
                label.to_string(),
                format!("{:.3}", d.ipc),
                format!("{:.1}", d.mpki),
                rate(d.cache[0].0, d.cache[0].1),
                rate(d.cache[1].0, d.cache[1].1),
                rate(d.cache[2].0, d.cache[2].1),
                rate(d.tlb.0, d.tlb.1),
                rate(d.mmu.0, d.mmu.1),
                rate(d.dram_rows.0, d.dram_rows.1),
                macs,
                skips,
                zeros,
            ]);
        }
        out.push_str(&format!("\n--- {name} ---\n{}", t.render()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostics_are_internally_consistent() {
        let d = diagnose_seeded(
            "xalancbmk",
            Protection::PtGuard(PtGuardConfig::optimized()),
            Scale::Trial,
            0,
        );
        // A memory-hungry workload shows misses at every level.
        assert!(d.mpki > 10.0, "mpki = {}", d.mpki);
        for (i, (h, m)) in d.cache.iter().enumerate() {
            assert!(h + m > 0, "level {i} unused");
        }
        assert!(d.tlb.1 > 0, "TLB misses expected");
        let (reads, macs, skips, zeros, verified) = d.engine.expect("engine mounted");
        assert!(reads > 0);
        // The identifier optimization must shield most data reads.
        assert!(macs + skips + zeros <= reads + 8);
        assert!(
            skips > macs,
            "skips {skips} should dwarf MAC computations {macs}"
        );
        let _ = verified;
    }

    #[test]
    fn counters_cover_the_measured_region_only() {
        // The dump's engine counters must be the region's, like its IPC and
        // MPKI: the same run through `simulate_workload` (same seed, same
        // warm-up) reports the region's read MACs.
        let guard = Protection::PtGuard(PtGuardConfig::default());
        let d = diagnose_seeded("xalancbmk", guard, Scale::Trial, 0);
        let profile = by_name("xalancbmk").expect("profile");
        let region = simx::runner::simulate_workload(
            profile,
            guard,
            Scale::Trial.instructions(),
            crate::salted(0xd1a6, 0),
        );
        let (_, macs, ..) = d.engine.expect("engine mounted");
        assert!(region.mac_computations > 0);
        assert_eq!(macs, region.mac_computations);
        assert!((d.mpki - region.mpki).abs() < 1e-12);
    }
}
