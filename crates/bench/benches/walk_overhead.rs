//! Page-walk overhead microbench: a TLB-missing load through the full
//! hierarchy, unprotected vs PT-Guard vs Optimized — the per-access
//! mechanism Figure 6 aggregates.

use dram::{DramDevice, RowhammerConfig};
use memsys::system::OsPort;
use memsys::{MemSysConfig, MemoryController, MemorySystem};
use pagetable::addr::VirtAddr;
use pagetable::space::AddressSpace;
use pagetable::x86_64::PteFlags;
use ptguard::{PtGuardConfig, PtGuardEngine};
use ptguard_bench::harness::Bench;

#[derive(Clone, Copy)]
enum Mode {
    Baseline,
    PtGuard(PtGuardConfig),
    FullMem,
}

fn build(mode: Mode, pages: u64) -> (MemorySystem, u64) {
    let device = DramDevice::ddr4_4gb(RowhammerConfig::immune());
    let controller = match mode {
        Mode::Baseline => MemoryController::new(device, None, 3.0),
        Mode::PtGuard(cfg) => MemoryController::new(device, Some(PtGuardEngine::new(cfg)), 3.0),
        Mode::FullMem => MemoryController::with_full_memory_mac(device, 3.0),
    };
    let mut sys = MemorySystem::new(MemSysConfig::default(), vec![controller]);
    let base = 0x30_0000_0000u64;
    let mut port = OsPort::new(&mut sys);
    let mut space = AddressSpace::new(&mut port, 32).unwrap();
    for i in 0..pages {
        space
            .map_new(
                &mut port,
                VirtAddr::new(base + i * 4096),
                PteFlags::user_data(),
            )
            .unwrap();
    }
    let root = space.root();
    sys.set_root(root, 32);
    sys.flush_caches();
    (sys, base)
}

fn main() {
    let mut g = Bench::group("walk_overhead");
    const PAGES: u64 = 4096;
    for (label, mode) in [
        ("unprotected", Mode::Baseline),
        ("ptguard", Mode::PtGuard(PtGuardConfig::default())),
        ("optimized", Mode::PtGuard(PtGuardConfig::optimized())),
        ("full_memory_mac", Mode::FullMem),
    ] {
        let (mut sys, base) = build(mode, PAGES);
        let mut i = 0u64;
        g.bench(&format!("tlb_miss_load/{label}"), || {
            // Stride through pages so most loads miss the 64-entry TLB
            // and walk the radix table.
            let va = VirtAddr::new(base + (i % PAGES) * 4096);
            i = i.wrapping_add(97);
            let out = sys.load(va);
            assert!(out.is_ok());
            out.cycles()
        });
    }
}
