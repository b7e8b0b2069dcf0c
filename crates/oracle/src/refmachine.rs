//! Naive reference of the paper's blocking in-order core (Table III).
//!
//! One access at a time, serviced to completion; its latency is the plain
//! sum of every structure it touches: the TLB, then on a miss a four-level
//! walk (the MMU cache serves the upper levels), then L1 → L2 → LLC → DRAM.
//! The structures are [`crate::refmodel`]'s recency-ordered `Vec`s. DRAM is
//! the *real* controllers' one-read-at-a-time `read_line`/`write_line`, so
//! DRAM timing and PT-Guard verification are shared with `memsys`, and a
//! disagreement with `memsys::MemorySystem` at `mlp = 1` points at the
//! hierarchy or the event engine. There are no MSHRs, no read queues and
//! no event wheel.

use dram::ChannelInterleave;
use memsys::system::SystemStats;
use memsys::{AccessOutcome, MemSysConfig, MemoryController};
use pagetable::addr::{Frame, PhysAddr, VirtAddr};
use pagetable::x86_64::{bits, Pte};
use ptguard::engine::ReadVerdict;
use ptguard::Line;

use crate::refmodel::{RefCache, RefMmuCache, RefTlb};

/// The blocking reference core over one controller per channel.
#[derive(Debug)]
pub struct RefMachine {
    cfg: MemSysConfig,
    l1d: RefCache,
    l2: RefCache,
    llc: RefCache,
    tlb: RefTlb,
    mmu: RefMmuCache,
    controllers: Vec<MemoryController>,
    interleave: ChannelInterleave,
    root: Frame,
    max_phys_bits: u32,
    /// Walk, miss and fault counters; the rest stay 0.
    stats: SystemStats,
}

impl RefMachine {
    /// Builds the core cold (empty caches, TLB and MMU cache) over
    /// `controllers`, channel `i` of the interleave mapping to
    /// `controllers[i]`, walking from the page table at `root`.
    ///
    /// # Panics
    ///
    /// Panics unless there is one controller per configured channel.
    #[must_use]
    pub fn new(
        cfg: MemSysConfig,
        controllers: Vec<MemoryController>,
        root: Frame,
        max_phys_bits: u32,
    ) -> Self {
        assert_eq!(
            controllers.len(),
            cfg.channels,
            "one controller per channel"
        );
        Self {
            l1d: RefCache::new(cfg.l1d.size_bytes, cfg.l1d.ways),
            l2: RefCache::new(cfg.l2.size_bytes, cfg.l2.ways),
            llc: RefCache::new(cfg.llc.size_bytes, cfg.llc.ways),
            tlb: RefTlb::new(cfg.tlb_entries),
            mmu: RefMmuCache::new(cfg.mmu_cache_entries, cfg.mmu_cache_ways),
            interleave: ChannelInterleave::new(u32::try_from(cfg.channels).expect("channels")),
            controllers,
            root,
            max_phys_bits,
            stats: SystemStats::default(),
            cfg,
        }
    }

    /// Hierarchy counters, with the meaning `memsys` gives them.
    #[must_use]
    pub fn stats(&self) -> SystemStats {
        self.stats
    }

    /// The controllers, in channel order.
    #[must_use]
    pub fn controllers(&self) -> &[MemoryController] {
        &self.controllers
    }

    fn ctrl(&mut self, addr: PhysAddr) -> &mut MemoryController {
        &mut self.controllers[self.interleave.channel_of(addr) as usize]
    }

    /// A demand load (`write = false`) or store to `va`, serviced to
    /// completion.
    pub fn access(&mut self, va: VirtAddr, write: bool) -> AccessOutcome {
        let mut cycles = self.cfg.tlb_latency_cycles;
        let leaf = match self.tlb.lookup(va.vpn()) {
            Some(leaf) => leaf,
            None => match self.walk(va, &mut cycles) {
                Ok(leaf) => leaf,
                Err(fault) => return fault,
            },
        };
        let (_, llc_miss, _) = self.line(leaf.target(va.page_offset()), write, false, &mut cycles);
        self.stats.llc_misses += u64::from(llc_miss);
        AccessOutcome::Ok { cycles, llc_miss }
    }

    /// The four-level walk, PML4 first; returns the leaf (already in the
    /// TLB) or the fault that ends the access.
    fn walk(&mut self, va: VirtAddr, cycles: &mut u64) -> Result<Pte, AccessOutcome> {
        self.stats.walks += 1;
        let max_pfn = 1u64 << (self.max_phys_bits - 12);
        let mut table = self.root;
        for level in [3usize, 2, 1, 0] {
            let index = (va.as_u64() >> (12 + 9 * level)) & 0x1ff;
            let entry = PhysAddr::new(table.0 * 4096 + index * 8);
            let cached = if level > 0 {
                self.mmu.lookup(entry)
            } else {
                None
            };
            let pte = if let Some(pte) = cached {
                *cycles += self.cfg.mmu_cache_latency_cycles;
                pte
            } else {
                let (line, llc_miss, verdict) = self.line(entry, false, true, cycles);
                self.stats.walk_llc_misses += u64::from(llc_miss);
                if verdict == ReadVerdict::CheckFailed {
                    self.stats.integrity_faults += 1;
                    return Err(AccessOutcome::PteCheckFailed {
                        cycles: *cycles,
                        level,
                    });
                }
                let pte = Pte::from_raw(line.word(entry.line_offset() / 8));
                if level > 0 {
                    self.mmu.insert(entry, pte);
                }
                pte
            };
            if !pte.present() || pte.frame().0 >= max_pfn {
                return Err(AccessOutcome::PageFault {
                    cycles: *cycles,
                    level,
                });
            }
            if level == 0 {
                self.tlb.insert(va.vpn(), pte);
                return Ok(pte);
            }
            if level == 1 && pte.huge_page() {
                // A 2 MB leaf enters the TLB as the 4 KB page `va` is in.
                let mut leaf = Pte::from_raw(pte.raw() & !bits::HUGE_PAGE);
                leaf.set_frame(Frame((pte.frame().0 & !0x1ff) | va.pt_index() as u64));
                self.tlb.insert(va.vpn(), leaf);
                return Ok(leaf);
            }
            table = pte.frame();
        }
        unreachable!("level 0 always ends the walk")
    }

    /// One line through L1 → L2 → LLC → DRAM, adding each probed level's
    /// latency. Walk reads (`is_pte`) are not filled into the L1. Returns
    /// the line, whether it came from DRAM, and PT-Guard's verdict.
    fn line(
        &mut self,
        addr: PhysAddr,
        write: bool,
        is_pte: bool,
        cycles: &mut u64,
    ) -> (Line, bool, ReadVerdict) {
        let demand = !is_pte;
        *cycles += self.cfg.l1d.latency_cycles;
        if let Some(line) = self.l1d.lookup(addr) {
            if write && demand {
                self.l1d.update(addr, line, true);
            }
            return (line, false, ReadVerdict::Forwarded);
        }
        *cycles += self.cfg.l2.latency_cycles;
        if let Some(line) = self.l2.lookup(addr) {
            if demand {
                self.fill_l1(addr, line, write);
            }
            return (line, false, ReadVerdict::Forwarded);
        }
        *cycles += self.cfg.llc.latency_cycles;
        if let Some(line) = self.llc.lookup(addr) {
            self.fill_l2(addr, line, false);
            if demand {
                self.fill_l1(addr, line, write);
            }
            return (line, false, ReadVerdict::Forwarded);
        }
        let read = self.ctrl(addr).read_line(addr, is_pte);
        *cycles += read.latency_cycles;
        // A line that fails its check is installed nowhere (Section IV-F).
        if read.verdict != ReadVerdict::CheckFailed {
            self.fill_llc(addr, read.line, false);
            self.fill_l2(addr, read.line, false);
            if demand {
                self.fill_l1(addr, read.line, write);
            }
        }
        (read.line, true, read.verdict)
    }

    /// Fills the L1D. Dirty victims move one level down, as in gem5's
    /// classic caches: the L1D's into the L2, the L2's into the LLC, the
    /// LLC's to DRAM.
    fn fill_l1(&mut self, addr: PhysAddr, line: Line, dirty: bool) {
        if let Some((a, l)) = self.l1d.fill(addr, line, dirty) {
            self.fill_l2(a, l, true);
        }
    }

    fn fill_l2(&mut self, addr: PhysAddr, line: Line, dirty: bool) {
        if let Some((a, l)) = self.l2.fill(addr, line, dirty) {
            self.fill_llc(a, l, true);
        }
    }

    fn fill_llc(&mut self, addr: PhysAddr, line: Line, dirty: bool) {
        if let Some((a, l)) = self.llc.fill(addr, line, dirty) {
            self.ctrl(a).write_line(a, l);
        }
    }
}
