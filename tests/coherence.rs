//! Randomized functional-coherence property: whatever the OS/program writes
//! through the cache hierarchy is exactly what it reads back — regardless
//! of evictions, flushes, and PT-Guard's MAC embedding/stripping happening
//! underneath.
//!
//! Formerly proptest-driven; now a deterministic randomized sweep over the
//! in-tree [`rng::SplitMix64`] (24 cases, as before).

use std::collections::HashMap;

use dram::{DramDevice, RowhammerConfig};
use memsys::{MemSysConfig, MemoryController, MemorySystem};
use pagetable::addr::PhysAddr;
use ptguard::{PtGuardConfig, PtGuardEngine};
use rng::SplitMix64;

#[derive(Debug, Clone)]
enum CohOp {
    /// Write a word at (slot, offset) through the hierarchy.
    Write { slot: u8, word: u8, value: u64 },
    /// Read a word back and check it.
    Read { slot: u8, word: u8 },
    /// Drain all dirty lines to DRAM.
    Flush,
    /// Drop a slot's line from every cache level (forces a DRAM re-read
    /// through the PT-Guard strip path). Only sound after a flush, so the
    /// op performs a flush first.
    Evict { slot: u8 },
}

fn random_op(rng: &mut SplitMix64) -> CohOp {
    match rng.gen_range_usize(0, 4) {
        0 => CohOp::Write {
            slot: rng.next_u64() as u8,
            word: rng.gen_range_u64(0, 8) as u8,
            value: rng.next_u64(),
        },
        1 => CohOp::Read {
            slot: rng.next_u64() as u8,
            word: rng.gen_range_u64(0, 8) as u8,
        },
        2 => CohOp::Flush,
        _ => CohOp::Evict {
            slot: rng.next_u64() as u8,
        },
    }
}

fn slot_addr(slot: u8, word: u8) -> PhysAddr {
    // 256 line slots spread across sets and DRAM rows.
    PhysAddr::new(0x10_0000 + u64::from(slot) * 64 * 131 % (1 << 22) + u64::from(word) * 8)
}

fn build(guarded: bool, optimized: bool) -> MemorySystem {
    let device = DramDevice::ddr4_4gb(RowhammerConfig::immune());
    let engine = guarded.then(|| {
        PtGuardEngine::new(if optimized {
            PtGuardConfig::optimized()
        } else {
            PtGuardConfig::default()
        })
    });
    let controller = MemoryController::new(device, engine);
    MemorySystem::new(MemSysConfig::default(), vec![controller])
}

#[test]
fn hierarchy_is_functionally_coherent() {
    let mut rng = SplitMix64::new(0xc0e);
    for _case in 0..24 {
        let ops: Vec<CohOp> = {
            let n = rng.gen_range_usize(1, 200);
            (0..n).map(|_| random_op(&mut rng)).collect()
        };
        for (guarded, optimized) in [(false, false), (true, false), (true, true)] {
            let mut sys = build(guarded, optimized);
            let mut reference: HashMap<u64, u64> = HashMap::new();
            for op in &ops {
                match *op {
                    CohOp::Write { slot, word, value } => {
                        let a = slot_addr(slot, word);
                        sys.func_write_u64(a, value);
                        reference.insert(a.as_u64(), value);
                    }
                    CohOp::Read { slot, word } => {
                        let a = slot_addr(slot, word);
                        let expect = reference.get(&a.as_u64()).copied().unwrap_or(0);
                        assert_eq!(
                            sys.func_read_u64(a),
                            expect,
                            "guarded={guarded} optimized={optimized} addr={a:?}"
                        );
                    }
                    CohOp::Flush => sys.flush_caches(),
                    CohOp::Evict { slot } => {
                        sys.flush_caches();
                        sys.invalidate_line(slot_addr(slot, 0));
                    }
                }
            }
            // Final sweep: every word ever written reads back, twice (once
            // possibly from DRAM through the strip path, once from cache).
            sys.flush_caches();
            let addrs: Vec<u64> = reference.keys().copied().collect();
            for a in &addrs {
                sys.invalidate_line(PhysAddr::new(*a));
            }
            for (a, v) in &reference {
                assert_eq!(sys.func_read_u64(PhysAddr::new(*a)), *v);
                assert_eq!(sys.func_read_u64(PhysAddr::new(*a)), *v);
            }
        }
    }
}
