//! Gradual re-keying (Section IV-F footnote 2 and Section VII-B).
//!
//! When the CTB fills — virtually impossible naturally, a strong attack
//! signal otherwise — the system re-keys: every protected line's MAC must
//! be recomputed under a fresh key. [`crate::PtGuardEngine::rekey_memory`]
//! does this stop-the-world; this module provides the *gradual* variant the
//! paper points to (CEASER-style, the paper's reference 43): a boundary
//! sweeps across physical memory, lines below it live under the new key,
//! lines above under the old, and the memory controller dispatches by
//! address while normal traffic continues.

use crate::config::PtGuardConfig;
use crate::engine::{PtGuardEngine, ReadOutcome, WriteOutcome};
use crate::line::Line;
use pagetable::addr::PhysAddr;
use pagetable::memory::PhysMem;
use pagetable::CACHELINE_SIZE;

/// A memory-controller engine pair mid-re-keying.
#[derive(Debug)]
pub struct GradualRekey {
    old: PtGuardEngine,
    new: PtGuardEngine,
    /// Lines below this address have been migrated to the new key.
    boundary: u64,
    total: u64,
}

impl GradualRekey {
    /// Starts re-keying: `old` keeps serving not-yet-migrated lines; a new
    /// engine with `new_key` (same configuration otherwise) takes over
    /// migrated ones. `memory_size` bounds the sweep.
    #[must_use]
    pub fn begin(old: PtGuardEngine, new_key: [u128; 2], memory_size: u64) -> Self {
        let cfg = PtGuardConfig {
            key: new_key,
            ..*old.config()
        };
        Self {
            old,
            new: PtGuardEngine::new(cfg),
            boundary: 0,
            total: memory_size,
        }
    }

    /// Bytes migrated so far.
    #[must_use]
    pub fn progress(&self) -> u64 {
        self.boundary
    }

    /// Whether the sweep has covered all of memory.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.boundary >= self.total
    }

    /// Migrates the next `lines` cachelines: read under the old key
    /// (verifying and stripping protected lines), re-process under the new
    /// key, write back. Returns `true` when the sweep completes.
    pub fn step<M: PhysMem + ?Sized>(&mut self, mem: &mut M, lines: u64) -> bool {
        for _ in 0..lines {
            if self.is_complete() {
                break;
            }
            let addr = PhysAddr::new(self.boundary);
            let line = Line::from_bytes(&mem.read_line(addr));
            let out = self.old.process_read(line, addr, false);
            if matches!(out.verdict, crate::engine::ReadVerdict::Verified) {
                let w = self.new.process_write(out.line, addr);
                mem.write_line(addr, &w.line.to_bytes());
            } else {
                // Non-protected (or tracked-collision) data: re-run the
                // write-path checks under the new key so collisions are
                // re-detected there, but the stored bits stay as-is.
                let _ = self.new.process_write(out.line, addr);
            }
            self.boundary += CACHELINE_SIZE as u64;
        }
        self.is_complete()
    }

    /// Serves a DRAM read during the sweep, dispatching on the boundary.
    pub fn process_read(&mut self, line: Line, addr: PhysAddr, is_pte: bool) -> ReadOutcome {
        if addr.line_addr().as_u64() < self.boundary {
            self.new.process_read(line, addr, is_pte)
        } else {
            self.old.process_read(line, addr, is_pte)
        }
    }

    /// Serves a DRAM write during the sweep, dispatching on the boundary.
    pub fn process_write(&mut self, line: Line, addr: PhysAddr) -> WriteOutcome {
        if addr.line_addr().as_u64() < self.boundary {
            self.new.process_write(line, addr)
        } else {
            self.old.process_write(line, addr)
        }
    }

    /// Finishes the migration, returning the new-key engine.
    ///
    /// # Panics
    ///
    /// Panics if the sweep is incomplete.
    #[must_use]
    pub fn finish(self) -> PtGuardEngine {
        assert!(self.is_complete(), "re-keying sweep still in progress");
        self.new
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ReadVerdict;
    use crate::pattern;
    use pagetable::memory::VecMemory;

    fn pte_line(pfn: u64) -> Line {
        Line::from_words([
            (pfn << 12) | 0x27,
            ((pfn + 1) << 12) | 0x27,
            0,
            0,
            0,
            0,
            0,
            0,
        ])
    }

    /// Sets up memory with protected PTE lines at every 4th line plus data.
    fn setup() -> (VecMemory, PtGuardEngine, Vec<(PhysAddr, Line)>) {
        let mut engine = PtGuardEngine::new(PtGuardConfig::default());
        let mut mem = VecMemory::new(64 * 1024);
        let mut ptes = Vec::new();
        for i in 0..(64 * 1024 / 64) as u64 {
            let addr = PhysAddr::new(i * 64);
            let line = if i % 4 == 0 {
                let l = pte_line(0x1000 + i);
                ptes.push((addr, l));
                l
            } else {
                Line::from_words([u64::MAX, i, 2, 3, 4, 5, 6, 7])
            };
            let w = engine.process_write(line, addr);
            mem.write_line(addr, &w.line.to_bytes());
        }
        (mem, engine, ptes)
    }

    #[test]
    fn every_walk_verifies_at_every_migration_stage() {
        let (mut mem, engine, ptes) = setup();
        let mut rk = GradualRekey::begin(engine, [0xaaaa, 0xbbbb], mem.size());
        let mut stages = 0;
        loop {
            // At every intermediate boundary, all PTE lines still verify
            // through the dispatching engine.
            for (addr, original) in &ptes {
                let stored = Line::from_bytes(&mem.read_line(*addr));
                let out = rk.process_read(stored, *addr, true);
                assert_eq!(
                    out.verdict,
                    ReadVerdict::Verified,
                    "addr {addr:?} boundary {}",
                    rk.progress()
                );
                assert_eq!(out.line, *original);
            }
            stages += 1;
            if rk.step(&mut mem, 96) {
                break;
            }
        }
        assert!(stages > 5, "sweep should take multiple steps");
        let mut new_engine = rk.finish();
        // Fully migrated: the old key is gone; everything verifies new.
        for (addr, original) in &ptes {
            let stored = Line::from_bytes(&mem.read_line(*addr));
            let out = new_engine.process_read(stored, *addr, true);
            assert_eq!(out.verdict, ReadVerdict::Verified);
            assert_eq!(out.line, *original);
        }
    }

    #[test]
    fn data_lines_survive_migration_bit_exact() {
        let (mut mem, engine, _) = setup();
        let probe = PhysAddr::new(3 * 64); // a data line
        let before = Line::from_bytes(&mem.read_line(probe));
        let mut rk = GradualRekey::begin(engine, [7, 8], mem.size());
        while !rk.step(&mut mem, 128) {}
        assert_eq!(Line::from_bytes(&mem.read_line(probe)), before);
    }

    #[test]
    fn migrated_macs_actually_changed_key() {
        let (mut mem, engine, ptes) = setup();
        let (addr, _) = ptes[0];
        let before_mac = pattern::extract_mac(&Line::from_bytes(&mem.read_line(addr)));
        let mut rk = GradualRekey::begin(engine, [0x1234, 0x5678], mem.size());
        while !rk.step(&mut mem, 256) {}
        let after_mac = pattern::extract_mac(&Line::from_bytes(&mem.read_line(addr)));
        assert_ne!(
            before_mac, after_mac,
            "MAC must be recomputed under the new key"
        );
    }

    #[test]
    fn writes_during_migration_land_under_the_right_key() {
        let (mut mem, engine, _) = setup();
        let size = mem.size();
        let mut rk = GradualRekey::begin(engine, [0x9, 0xa], size);
        let _ = rk.step(&mut mem, size / 64 / 2); // half-way
        let below = PhysAddr::new(64); // migrated region
        let above = PhysAddr::new(size - 128); // old region
        let fresh = pte_line(0x7777);
        for addr in [below, above] {
            let w = rk.process_write(fresh, addr);
            mem.write_line(addr, &w.line.to_bytes());
            let out = rk.process_read(Line::from_bytes(&mem.read_line(addr)), addr, true);
            assert_eq!(out.verdict, ReadVerdict::Verified, "{addr:?}");
            assert_eq!(out.line, fresh);
        }
        // And they keep verifying after the sweep completes.
        while !rk.step(&mut mem, 512) {}
        let mut done = rk.finish();
        for addr in [below, above] {
            let out = done.process_read(Line::from_bytes(&mem.read_line(addr)), addr, true);
            assert_eq!(out.verdict, ReadVerdict::Verified, "{addr:?}");
        }
    }

    #[test]
    #[should_panic(expected = "in progress")]
    fn finishing_early_is_rejected() {
        let (_, engine, _) = setup();
        let rk = GradualRekey::begin(engine, [1, 2], 1 << 20);
        let _ = rk.finish();
    }
}
