//! Single-core simulation driver.
//!
//! [`run`] issues a bounded window of in-flight operations
//! ([`MemSysConfig::mlp`]) against the event-driven memory system. With
//! `mlp = 1` — the default — every op retires before the next instruction
//! issues: the paper's blocking in-order core, checked op for op against
//! the reference core in `oracle::refmachine`.

use dram::{DramDevice, DramGeometry, DramTiming, RowhammerConfig};
use memsys::system::OsPort;
use memsys::{MemSysConfig, MemoryController, MemorySystem};
use pagetable::addr::VirtAddr;
use pagetable::space::AddressSpace;
use pagetable::x86_64::PteFlags;
use pagetable::PAGE_SIZE;
use ptguard::{PtGuardConfig, PtGuardEngine};
use workloads::tracegen::{Op, TraceGenerator};
use workloads::WorkloadProfile;

use crate::driver::WindowedDriver;

/// A fully-built simulated machine for one workload.
#[derive(Debug)]
pub struct Machine {
    /// The memory hierarchy (device + controller + caches + TLB).
    pub sys: MemorySystem,
    /// The workload's address space (page tables live in simulated DRAM).
    pub space: AddressSpace,
    /// The instruction source: the workload's seeded generator.
    pub source: TraceGenerator,
}

/// Result of one simulation run.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    /// Instructions executed.
    pub instructions: u64,
    /// Cycles consumed.
    pub cycles: u64,
    /// LLC misses (demand + page-walk) per kilo-instruction.
    pub mpki: f64,
    /// Page walks performed.
    pub walks: u64,
    /// PT-Guard integrity faults (0 in benign runs).
    pub integrity_faults: u64,
    /// MAC computations performed on the read path (0 without an engine).
    pub mac_computations: u64,
    /// Memory operations (loads + stores) the run issued. Deterministic
    /// for a given workload/seed — perfbench's `host_ns_per_op` divides
    /// a region's wall time by it, and `tests/writeback_traffic.rs` its
    /// protected DRAM writes.
    pub mem_ops: u64,
}

impl RunResult {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        self.instructions as f64 / self.cycles.max(1) as f64
    }
}

/// The protection mounted at the memory controller for a run.
#[derive(Debug, Clone, Copy)]
pub enum Protection {
    /// Unprotected baseline.
    None,
    /// PT-Guard with the given configuration.
    PtGuard(PtGuardConfig),
    /// Conventional whole-memory integrity (separate MAC table, 12.5 %
    /// storage) — the Sections I / VIII-D comparison point.
    FullMemoryMac,
}

/// Builds the simulated machine for `profile` over 4 GB of DRAM,
/// generating its ops from `seed`.
///
/// `protection` is mounted at every channel's memory controller. The DRAM
/// device is Rowhammer-immune here — performance runs model benign
/// operation (Section IV-H).
///
/// # Panics
///
/// Panics if the workload footprint exceeds the DRAM capacity.
#[must_use]
pub fn build_machine(profile: WorkloadProfile, protection: Protection, seed: u64) -> Machine {
    build_machine_from_source_cfg(
        TraceGenerator::new(profile, seed),
        profile,
        protection,
        4,
        MemSysConfig::default(),
    )
}

/// Builds the machine around `source` with an explicit memory-system
/// configuration (e.g. an `mlp` window larger than 1).
///
/// `profile` determines the mapped address span and must be the profile
/// `source` generates. The machine build does not depend on the seed.
///
/// # Panics
///
/// Panics if the workload footprint exceeds the DRAM capacity.
#[must_use]
pub fn build_machine_from_source_cfg(
    source: TraceGenerator,
    profile: WorkloadProfile,
    protection: Protection,
    dram_gb: u64,
    mem_cfg: MemSysConfig,
) -> Machine {
    // One controller (device + engine) per channel; every device keeps the
    // full geometry so physical addresses are uncompacted and the
    // interleave alone decides which store holds a line.
    let controllers: Vec<MemoryController> = (0..mem_cfg.channels.max(1))
        .map(|_| {
            let geometry = DramGeometry::with_capacity(dram_gb << 30);
            let device =
                DramDevice::new(geometry, DramTiming::default(), RowhammerConfig::immune());
            match protection {
                Protection::None => MemoryController::new(device, None),
                Protection::PtGuard(cfg) => {
                    MemoryController::new(device, Some(PtGuardEngine::new(cfg)))
                }
                Protection::FullMemoryMac => MemoryController::with_full_memory_mac(device),
            }
        })
        .collect();
    let mut sys = MemorySystem::new(mem_cfg, controllers);

    let base = TraceGenerator::HEAP_BASE;
    let pages = profile.hot_pages + profile.stream_pages;
    assert!(
        pages * PAGE_SIZE as u64 + (64 << 20) < (dram_gb << 30),
        "footprint exceeds DRAM"
    );

    // OS model: build the address space through the cache hierarchy so PTE
    // lines acquire MACs when they drain to DRAM. Frames are allocated
    // sequentially — the contiguity the paper's census observes.
    let mut port = OsPort::new(&mut sys);
    let mut space = AddressSpace::new(&mut port, 32).expect("root allocation");
    for i in 0..pages {
        let va = VirtAddr::new(base + i * PAGE_SIZE as u64);
        space
            .map_new(&mut port, va, PteFlags::user_data())
            .expect("mapping");
    }
    let root = space.root();
    sys.set_root(root, 32);
    // Quiesce: page tables reach DRAM (and get MAC-protected).
    sys.flush_caches();
    Machine { sys, space, source }
}

/// Runs `instructions` instructions on a built machine through the
/// event-driven memory system.
///
/// The core is in-order (gem5 `TimingSimpleCPU`-like, matching the paper's
/// pessimistic single-core setup): every instruction costs one cycle, and
/// each memory operation is issued into the pipeline with up to
/// [`MemSysConfig::mlp`] operations in flight. When the window is full the
/// front end stalls until the oldest op retires; ops retire in order, so
/// the core clock advances to `max(issue + latency)` over the window. With
/// `mlp = 1` every op retires before the next instruction issues — the
/// blocking model, in which each memory instruction costs `1 + latency`.
pub fn run(machine: &mut Machine, instructions: u64) -> RunResult {
    let stats_before = machine.sys.stats();
    let mac_before = read_mac_total(machine);
    let mut mem_ops = 0u64;
    // One cycle per instruction, the whole latency kept at retire. With a
    // window of 1 the front-end clock accumulates exactly `1 +
    // out.cycles()` per memory instruction — the blocking sum.
    let mut driver = WindowedDriver::new(machine.sys.config().mlp);
    for _ in 0..instructions {
        driver.tick_instruction();
        let (va, write) = match machine.source.next_op() {
            Op::Compute => continue,
            Op::Load(va) => (va, false),
            Op::Store(va) => (va, true),
        };
        mem_ops += 1;
        driver.mem_op(&mut machine.sys, va, write);
    }
    driver.drain(&mut machine.sys);
    let stats = machine.sys.stats();
    let llc_misses = (stats.llc_misses + stats.walk_llc_misses)
        - (stats_before.llc_misses + stats_before.walk_llc_misses);
    RunResult {
        instructions,
        cycles: driver.clock(),
        mpki: 1000.0 * llc_misses as f64 / instructions as f64,
        walks: stats.walks - stats_before.walks,
        integrity_faults: stats.integrity_faults - stats_before.integrity_faults,
        mac_computations: read_mac_total(machine) - mac_before,
        mem_ops,
    }
}

/// Read-path MAC computations summed over every channel's engine.
fn read_mac_total(machine: &Machine) -> u64 {
    (0..machine.sys.channels())
        .filter_map(|c| machine.sys.channel(c).engine())
        .map(|e| e.stats().read_mac_computations)
        .sum()
}

/// One-shot convenience: build, warm up (caches and TLB fill without being
/// measured — the paper fast-forwards 25 G instructions with KVM), then run
/// a measured region of `instructions`.
#[must_use]
pub fn simulate_workload(
    profile: WorkloadProfile,
    protection: Protection,
    instructions: u64,
    seed: u64,
) -> RunResult {
    let mut machine = build_machine(profile, protection, seed);
    let _ = run(&mut machine, instructions); // warm-up, discarded
    run(&mut machine, instructions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::profiles::by_name;

    const INSTRS: u64 = 150_000;

    #[test]
    fn baseline_runs_without_faults() {
        let p = by_name("xz").unwrap();
        let r = simulate_workload(p, Protection::None, INSTRS, 1);
        assert_eq!(r.integrity_faults, 0);
        assert!(r.ipc() > 0.0 && r.ipc() <= 1.0);
        assert!(r.walks > 0, "streaming must cause TLB misses");
    }

    #[test]
    fn guarded_run_is_slower_but_correct() {
        let p = by_name("xalancbmk").unwrap();
        let base = simulate_workload(p, Protection::None, INSTRS, 1);
        let guard = simulate_workload(p, Protection::PtGuard(PtGuardConfig::default()), INSTRS, 1);
        assert_eq!(guard.integrity_faults, 0);
        assert!(guard.cycles >= base.cycles, "PT-Guard cannot be faster");
        let slowdown = guard.cycles as f64 / base.cycles as f64 - 1.0;
        assert!(slowdown < 0.12, "slowdown {slowdown} implausibly high");
        assert!(guard.mac_computations > 0);
    }

    #[test]
    fn optimized_engine_computes_fewer_macs() {
        let p = by_name("lbm").unwrap();
        let base = simulate_workload(p, Protection::PtGuard(PtGuardConfig::default()), INSTRS, 2);
        let opt = simulate_workload(
            p,
            Protection::PtGuard(PtGuardConfig::optimized()),
            INSTRS,
            2,
        );
        assert!(
            opt.mac_computations * 10 < base.mac_computations,
            "identifier must eliminate most MAC computations ({} vs {})",
            opt.mac_computations,
            base.mac_computations
        );
    }

    #[test]
    fn mpki_tracks_profile_targets() {
        // High- and low-MPKI profiles must separate cleanly, and the
        // measured value should be in the target's neighbourhood.
        let hot = simulate_workload(by_name("povray").unwrap(), Protection::None, INSTRS, 3);
        let cold = simulate_workload(by_name("mcf").unwrap(), Protection::None, INSTRS, 3);
        assert!(hot.mpki < 2.0, "povray MPKI = {}", hot.mpki);
        assert!(cold.mpki > 7.0, "mcf MPKI = {}", cold.mpki);
    }

    #[test]
    fn full_memory_mac_costs_more_than_ptguard() {
        // The Sections I / VIII-D motivation: conventional whole-memory
        // integrity pays extra DRAM accesses; PT-Guard pays only latency.
        let p = by_name("sssp").unwrap(); // pointer-chaser: worst case for a MAC table
        let base = simulate_workload(p, Protection::None, INSTRS, 4);
        let guard = simulate_workload(p, Protection::PtGuard(PtGuardConfig::default()), INSTRS, 4);
        let full = simulate_workload(p, Protection::FullMemoryMac, INSTRS, 4);
        let s_guard = guard.cycles as f64 / base.cycles as f64 - 1.0;
        let s_full = full.cycles as f64 / base.cycles as f64 - 1.0;
        assert!(
            s_full > 2.0 * s_guard,
            "full-memory {s_full} vs PT-Guard {s_guard}"
        );
        assert_eq!(
            full.integrity_faults, 0,
            "benign run must verify everywhere"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        // Two fresh machines per protection must agree on every field.
        let p = by_name("bfs").unwrap();
        let fields = |r: RunResult| {
            (
                r.instructions,
                r.cycles,
                r.mpki.to_bits(),
                r.walks,
                r.integrity_faults,
                r.mac_computations,
                r.mem_ops,
            )
        };
        for protection in [
            Protection::None,
            Protection::PtGuard(PtGuardConfig::default()),
            Protection::PtGuard(PtGuardConfig::optimized()),
            Protection::FullMemoryMac,
        ] {
            let a = simulate_workload(p, protection, 50_000, 9);
            let b = simulate_workload(p, protection, 50_000, 9);
            assert_eq!(fields(a), fields(b), "{protection:?}");
        }
    }
}
