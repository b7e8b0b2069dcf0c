//! The OS side of PT-Guard (Sections IV-F, IV-G, VII-B): what a kernel does
//! *after* the memory controller raises `PTECheckFailed` — migrate the page
//! tables off the flipping row, rebuild them from its own metadata, and, if
//! an adversary floods the CTB, re-key the memory.
//!
//! ```text
//! cargo run --release --example os_recovery
//! ```

use dram::{DramDevice, RowhammerConfig};
use memsys::system::{AccessOutcome, OsPort};
use memsys::{MemSysConfig, MemoryController, MemorySystem};
use pagetable::addr::VirtAddr;
use pagetable::space::AddressSpace;
use pagetable::x86_64::PteFlags;
use ptguard::{PtGuardConfig, PtGuardEngine};
use rowhammer::exploit::hammer_page_table_rows;

fn main() {
    // An LPDDR4-class vulnerable device under a PT-Guard controller.
    let device = DramDevice::ddr4_4gb(RowhammerConfig {
        threshold: 4800.0,
        weak_cells_per_row: 24.0,
        ..RowhammerConfig::default()
    });
    let engine = PtGuardEngine::new(PtGuardConfig::default());
    let controller = MemoryController::new(device, Some(engine));
    let mut sys = MemorySystem::new(MemSysConfig::default(), vec![controller]);

    // The victim process: 2048 mapped pages.
    let base = 0x55_0000_0000u64;
    let pages = 2048u64;
    let mut mappings = Vec::new();
    let mut port = OsPort::new(&mut sys);
    let mut space = AddressSpace::new(&mut port, 32).expect("space");
    for i in 0..pages {
        let va = VirtAddr::new(base + i * 4096);
        let frame = space
            .map_new(&mut port, va, PteFlags::user_data())
            .expect("map");
        mappings.push((va, frame));
    }
    let root = space.root();
    sys.set_root(root, 32);
    sys.flush_caches();
    for a in space.pte_line_addrs() {
        sys.invalidate_line(a);
    }
    println!(
        "process mapped: {pages} pages across {} page-table pages\n",
        space.table_frames().len()
    );

    // --- The attacker hammers every page-table row, persistently. ---
    let hammer = |sys: &mut MemorySystem, space: &AddressSpace| {
        hammer_page_table_rows(space, sys.channel_mut(0).device_mut(), 40_000);
    };
    hammer(&mut sys, &space);
    println!(
        "attack round 1: {} bit flips injected into DRAM",
        sys.channel(0).device().stats().total_flips
    );

    // The process touches its memory; PT-Guard corrects or faults.
    sys.invalidate_translation_state();
    let (mut ok, mut faults) = (0u64, 0u64);
    for (va, _) in &mappings {
        match sys.load(*va) {
            AccessOutcome::Ok { .. } => ok += 1,
            _ => faults += 1,
        }
    }
    let corrected = sys.channel(0).engine().unwrap().stats().corrected;
    println!("victim touches pages: {ok} ok ({corrected} walks transparently corrected), {faults} integrity exceptions\n");

    // --- OS response: migrate the leaf page-table pages to fresh frames and
    // rebuild their contents from the kernel's own mapping metadata. ---
    println!("OS response: migrating page-table pages away from the afflicted rows...");
    let victims: Vec<_> = space.table_frames()[3..].to_vec();
    {
        let mut port = OsPort::new(&mut sys);
        for v in &victims {
            space.migrate_table_page(&mut port, *v).expect("migration");
        }
        for (va, frame) in &mappings {
            let mut t = space.root();
            for level in (1..4).rev() {
                t = pagetable::table::read_entry(&port, t, va.level_index(level)).frame();
            }
            let slot = pagetable::table::entry_addr(t, va.pt_index());
            use pagetable::memory::PhysMem;
            port.write_u64(
                slot,
                pagetable::x86_64::Pte::new(*frame, PteFlags::user_data()).raw(),
            );
        }
    }
    sys.flush_caches();
    sys.invalidate_translation_state();
    for a in space.pte_line_addrs() {
        sys.invalidate_line(a);
    }
    println!(
        "migrated {} table pages; translations rebuilt\n",
        victims.len()
    );

    // --- The attacker keeps hammering; the process keeps running. ---
    hammer(&mut sys, &space);
    sys.invalidate_translation_state();
    let (mut ok2, mut wrong) = (0u64, 0u64);
    for (va, frame) in &mappings {
        if sys.load(*va).is_ok() {
            ok2 += 1;
            if sys.tlb().peek_frame(va.vpn()) != Some(*frame) {
                wrong += 1;
            }
        }
    }
    println!(
        "attack round 2 (same aggressor rows): {ok2}/{} pages load, {wrong} wrong translations",
        mappings.len()
    );
    assert_eq!(wrong, 0);
    println!("\nthe invariant held through both rounds: no tampered PTE was ever consumed,");
    println!("and the exception mechanism gave the OS everything it needed to recover.");
}
