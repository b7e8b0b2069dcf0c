//! The multi-core model of Section VII-C.
//!
//! The paper evaluates four out-of-order cores in gem5 SE mode with 16 GB
//! DDR4 and 1 MB/core shared LLC, modelling baseline PT-Guard as a constant
//! MAC latency on all DRAM reads. Slowdowns shrink relative to single-core
//! for two reasons the paper names explicitly: (i) the O3 core overlaps
//! memory stalls, and (ii) channel contention lengthens base DRAM access
//! time, diluting the constant MAC delay.
//!
//! We model both effects directly on top of the single-core machinery:
//! each core runs its own L1/L2 over a shared-capacity LLC configuration;
//! an *overlap factor* hides a fraction of every memory stall (O3), and a
//! *contention factor* scales DRAM latency with core count.

use memsys::system::OsPort;
use memsys::{MemSysConfig, MemoryController, MemorySystem};
use pagetable::addr::VirtAddr;
use pagetable::space::AddressSpace;
use pagetable::x86_64::PteFlags;
use pagetable::PAGE_SIZE;
use ptguard::{PtGuardConfig, PtGuardEngine};

use dram::{DramDevice, DramGeometry, DramTiming, RowhammerConfig};
use workloads::multiprog::Bundle;
use workloads::tracegen::{Op, TraceGenerator};

use crate::driver::WindowedDriver;

/// Cores per bundle (the paper's four).
pub const CORES: usize = 4;

/// DRAM capacity in GB (the paper's 16 GB DDR4).
pub(crate) const DRAM_GB: u64 = 16;

/// The unhidden part of a memory stall, in milli-cycles per stall cycle:
/// the O3 core hides 60 % of every stall and exposes 400/1000 of it.
pub(crate) const EXPOSED_MILLIS: u64 = 400;

/// DRAM latency multiplier from channel contention.
const CONTENTION: f64 = 2.5;

/// Per-bundle result.
#[derive(Debug, Clone)]
pub struct BundleResult {
    /// Bundle label.
    pub name: String,
    /// Weighted-speedup-style slowdown of PT-Guard vs baseline
    /// (`cycles_guard / cycles_base − 1`, averaged over cores).
    pub slowdown: f64,
}

/// Runs `instructions` of one core's workload (generated from `seed`)
/// and returns its cycle count.
fn run_core(
    profile: workloads::WorkloadProfile,
    seed: u64,
    guard: Option<PtGuardConfig>,
    instructions: u64,
) -> u64 {
    // Per-core view: private L1/L2, a 1 MB slice of the shared LLC, and a
    // contended DRAM channel.
    let mut mem_cfg = MemSysConfig::default();
    mem_cfg.llc.size_bytes = 1 << 20;
    let mut timing = DramTiming::default();
    timing.t_rcd_ns *= CONTENTION;
    timing.t_rp_ns *= CONTENTION;
    timing.t_cas_ns *= CONTENTION;
    let geometry = DramGeometry::with_capacity(DRAM_GB << 30);
    let device = DramDevice::new(geometry, timing, RowhammerConfig::immune());
    let engine = guard.map(PtGuardEngine::new);
    let controller = MemoryController::new(device, engine, mem_cfg.core_ghz);
    let mut sys = MemorySystem::new(mem_cfg, vec![controller]);

    let base = TraceGenerator::HEAP_BASE;
    let pages = profile.hot_pages + profile.stream_pages;
    let mut port = OsPort::new(&mut sys);
    let mut space = AddressSpace::new(&mut port, 34).expect("root");
    for i in 0..pages {
        space
            .map_new(
                &mut port,
                VirtAddr::new(base + i * PAGE_SIZE as u64),
                PteFlags::user_data(),
            )
            .expect("map");
    }
    let root = space.root();
    sys.set_root(root, 34);
    sys.flush_caches();

    // O3 core: one cycle per instruction plus the *unhidden* fraction of
    // the memory latency, one memory op at a time (the default `mlp = 1`).
    // The first pass warms caches and TLB (unmeasured, like the paper's 25
    // Bn-instruction fast-forward); the second pass is the measured region.
    // Each pass drains its window and the measured pass resets both clocks,
    // so warm-up completion times cannot leak into the measurement.
    //
    // The core clock runs in integer milli-cycles: each instruction adds
    // 1000, each retire adds the unhidden fraction of the miss latency
    // ([`EXPOSED_MILLIS`] per cycle). An f64 clock drifts at long
    // horizons — past 2^53 the ulp exceeds a cycle and `+= 1.0` stops
    // advancing; integers cannot lose ticks.
    let mut source = TraceGenerator::new(profile, seed);
    let mut driver = WindowedDriver::new(mem_cfg.mlp, 1000, EXPOSED_MILLIS);
    for phase in 0..2 {
        if phase == 1 {
            driver.reset_clocks();
        }
        for _ in 0..instructions {
            driver.tick_instruction();
            let (va, write) = match source.next_op() {
                Op::Compute => continue,
                Op::Load(va) => (va, false),
                Op::Store(va) => (va, true),
            };
            driver.mem_op(&mut sys, va, write);
        }
        driver.drain(&mut sys);
    }
    (driver.clock() + 500) / 1000
}

/// Evaluates one bundle over `instructions_per_core`: per-core slowdown of
/// PT-Guard vs baseline, averaged across cores (each core runs with a
/// distinct seed).
#[must_use]
pub fn evaluate_bundle(
    bundle: &Bundle,
    guard: PtGuardConfig,
    instructions_per_core: u64,
) -> BundleResult {
    let mut total = 0.0;
    for (core, w) in bundle.workloads.iter().enumerate() {
        let seed = 1000 + core as u64;
        let base = run_core(*w, seed, None, instructions_per_core);
        let guarded = run_core(*w, seed, Some(guard), instructions_per_core);
        total += guarded as f64 / base as f64 - 1.0;
    }
    BundleResult {
        name: bundle.name.clone(),
        slowdown: total / bundle.workloads.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::multiprog::same_bundles;

    #[test]
    fn multicore_slowdown_is_small() {
        // Pick a memory-hungry SAME bundle (worst case in the paper).
        let bundles = same_bundles(2); // 2 cores for test speed
        let lbm = bundles.iter().find(|b| b.name == "SAME-lbm").unwrap();
        let r = evaluate_bundle(lbm, PtGuardConfig::default(), 40_000);
        assert!(
            r.slowdown >= -0.002,
            "guard can't be meaningfully faster: {}",
            r.slowdown
        );
        assert!(
            r.slowdown < 0.05,
            "multi-core slowdown should be small: {}",
            r.slowdown
        );
    }
}
