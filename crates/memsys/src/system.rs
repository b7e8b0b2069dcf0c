//! The full memory hierarchy: TLB → page walk → caches → controller(s).
//!
//! The hierarchy fronts one memory controller per channel
//! ([`MemSysConfig::channels`]): lines are spread across channels by the
//! XOR-folded [`dram::ChannelInterleave`], each channel drains its banked
//! queues independently, and completions retire in deterministic
//! `(integer-ps finish, channel, request id)` order. With one channel every
//! path degenerates — bit for bit — to the single-controller model.
//!
//! Every access runs on one engine: an op state machine (walk, then data)
//! that suspends on MSHR-tracked misses and resumes when the event wheel
//! fires its channel's drain. [`MemorySystem::load`] and
//! [`MemorySystem::store`] issue one op and pump it to completion — the
//! blocking in-order core; the windowed drivers in `simx` keep up to
//! [`MemSysConfig::mlp`] ops in flight.

use dram::ChannelInterleave;
use pagetable::addr::{Frame, PhysAddr, VirtAddr};
use pagetable::memory::PhysMem;
use pagetable::x86_64::Pte;
use ptguard::engine::ReadVerdict;
use ptguard::line::Line;
use sched::{EventKey, EventWheel, Log2Hist};

use crate::cache::{Cache, Way};
use crate::config::MemSysConfig;
use crate::controller::{ControllerStats, MemoryController};
use crate::mmucache::MmuCache;
use crate::tlb::Tlb;

/// Outcome of a virtual memory access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessOutcome {
    /// The access completed.
    Ok {
        /// End-to-end latency in CPU cycles.
        cycles: u64,
        /// Whether the data access missed the LLC (reached DRAM).
        llc_miss: bool,
    },
    /// A page-table walk hit a tampered PTE line: PT-Guard raised
    /// `PTECheckFailed` and the OS receives an integrity exception.
    PteCheckFailed {
        /// Cycles spent before the fault.
        cycles: u64,
        /// Walk level of the failing access (3 = PML4 … 0 = PT).
        level: usize,
    },
    /// The walk found a non-present or out-of-bounds entry.
    PageFault {
        /// Cycles spent before the fault.
        cycles: u64,
        /// Walk level of the missing entry.
        level: usize,
    },
}

impl AccessOutcome {
    /// Cycles consumed, whatever the outcome.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        match *self {
            AccessOutcome::Ok { cycles, .. }
            | AccessOutcome::PteCheckFailed { cycles, .. }
            | AccessOutcome::PageFault { cycles, .. } => cycles,
        }
    }

    /// Whether the access completed normally.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, AccessOutcome::Ok { .. })
    }
}

/// Hierarchy-level statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemStats {
    /// Demand loads served.
    pub loads: u64,
    /// Demand stores served.
    pub stores: u64,
    /// Page walks performed (TLB misses).
    pub walks: u64,
    /// Demand accesses that missed the LLC.
    pub llc_misses: u64,
    /// Walk accesses that missed the LLC (PTE reads from DRAM).
    pub walk_llc_misses: u64,
    /// PT-Guard integrity exceptions delivered.
    pub integrity_faults: u64,
    /// High-water mark of MSHR entries (distinct outstanding miss lines).
    pub mshr_hwm: u64,
}

/// Result of issuing an access on the event-driven pipeline
/// ([`MemorySystem::pipe_issue_event`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IssueOutcome {
    /// The access completed synchronously (TLB/cache hits all the way, or
    /// an immediate fault) — no event was scheduled and nothing occupies
    /// the in-flight window.
    Done(AccessOutcome),
    /// The access suspended on a DRAM read; its outcome arrives through
    /// [`MemorySystem::pipe_wait`], or through
    /// [`MemorySystem::pipe_drain_completed`] after
    /// [`MemorySystem::advance_to_next_event`] fires the miss.
    Pending(u64),
}

/// Event-pump counters ([`MemorySystem::pump_stats`]): pure
/// observability, never fed back into timing.
#[derive(Debug, Clone, Default)]
pub struct PumpStats {
    /// Events accepted by the scheduler (drain arms).
    pub events_posted: u64,
    /// Events fired by the scheduler.
    pub events_fired: u64,
    /// Always 0: the scheduler is a flat event list with no slots to
    /// cascade. The counter stays for readers that still report it.
    pub wheel_cascades: u64,
    /// Bank-ready completions observed by the pipelined drains (one per
    /// serviced read; counted off the scheduler so pure observability
    /// never costs a scheduler round-trip).
    pub bank_ready_events: u64,
    /// Distributed-refresh slices (one tREFI each) completed across the
    /// channel devices, off-wheel writes included.
    pub refresh_events: u64,
    /// Calls to [`MemorySystem::advance_to_next_event`] that fired events.
    pub advances: u64,
    /// Histogram of virtual time skipped per advance, in ps (the idle
    /// gaps the event pump jumps over instead of polling through).
    pub idle_skip_ps: Log2Hist,
}

/// The next step of a running op ([`MemorySystem::drive`]).
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Walking: about to access the entry of `table` at `level`.
    Walk {
        /// Current page-table frame.
        table: Frame,
        /// Walk level (3 = PML4 … 0 = PT).
        level: usize,
    },
    /// Translated: about to access the data line through `leaf`.
    Data {
        /// The leaf PTE.
        leaf: Pte,
    },
}

/// The DRAM read a suspended op awaits.
#[derive(Debug, Clone, Copy)]
enum Await {
    /// A walk entry's line.
    Walk {
        /// Walk level of the suspended access.
        level: usize,
        /// The entry's physical address.
        entry_addr: PhysAddr,
    },
    /// The data line at `pa`.
    Data {
        /// The data line's physical address.
        pa: PhysAddr,
    },
}

impl Await {
    /// The address read and whether it is a page-table read.
    fn target(self) -> (PhysAddr, bool) {
        match self {
            Await::Walk { entry_addr, .. } => (entry_addr, true),
            Await::Data { pa } => (pa, false),
        }
    }
}

/// One in-flight pipelined memory operation.
#[derive(Debug, Clone, Copy)]
struct Op {
    id: u64,
    va: VirtAddr,
    write: bool,
    cycles: u64,
}

/// An op suspended on an MSHR entry.
#[derive(Debug, Clone, Copy)]
struct PendingOp {
    op: Op,
    awaits: Await,
}

/// One outstanding miss line: the controller request plus every op waiting
/// on it. The primary waiter installs the fill; later waiters merged into
/// the same line and only collect the latency. Request ids are
/// per-controller monotonic counters, so the entry is keyed by
/// `(channel, req_id)` — ids alone collide across channels.
///
/// The primary is stored inline: almost every miss has exactly one waiter,
/// and an empty `Vec` does not allocate, so the common suspend/resolve
/// cycle is allocation-free.
#[derive(Debug)]
struct MshrEntry {
    channel: u32,
    req_id: u64,
    line_addr: u64,
    is_pte: bool,
    /// The op that installs the fill.
    primary: u64,
    /// Ops merged into the line after the primary (latency only).
    merged: Vec<u64>,
}

/// The single-core memory system of Table III (N-channel capable).
#[derive(Debug)]
pub struct MemorySystem {
    cfg: MemSysConfig,
    l1d: Cache,
    l2: Cache,
    llc: Cache,
    tlb: Tlb,
    mmu: MmuCache,
    /// One memory controller per channel, in channel order.
    controllers: Vec<MemoryController>,
    /// The address → channel function shared by every access path.
    interleave: ChannelInterleave,
    root: Frame,
    max_phys_bits: u32,
    stats: SystemStats,
    /// Outstanding-miss file of the pipelined path.
    mshr: Vec<MshrEntry>,
    /// Ops suspended on an MSHR entry.
    pending: Vec<PendingOp>,
    /// Ops that finished since the last [`MemorySystem::pipe_drain_completed`].
    completed: Vec<(u64, AccessOutcome)>,
    /// Reusable buffer for one channel's drain in
    /// [`MemorySystem::advance_to_next_event`].
    drain_buf: Vec<(u64, crate::controller::DramRead)>,
    /// Reusable channel-tagged retire buffer for the cross-channel merge.
    merge_buf: Vec<(u32, u64, crate::controller::DramRead)>,
    next_op_id: u64,
    /// The event engine: at most one drain arm per channel, popped in
    /// `(ps, channel, id)` order. Per-channel device clocks are
    /// independent latency accumulators, so the scheduler's `now` is a
    /// max-progress frontier; lagging channels clamp forward
    /// (deterministically) when they arm.
    wheel: EventWheel<()>,
    /// Whether a drain is scheduled for each channel.
    armed: Vec<bool>,
    /// Pump observability counters (the scheduler's own posted/fired
    /// counts live in the scheduler; see [`MemorySystem::pump_stats`]).
    pump: PumpStats,
}

impl MemorySystem {
    /// Builds the hierarchy over one controller per channel. Channel `i` of
    /// the [`ChannelInterleave`] maps to `controllers[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `controllers.len() != cfg.channels` or the channel count
    /// is not a power of two.
    #[must_use]
    pub fn new(cfg: MemSysConfig, controllers: Vec<MemoryController>) -> Self {
        assert_eq!(
            controllers.len(),
            cfg.channels,
            "need one controller per channel"
        );
        let interleave = ChannelInterleave::new(u32::try_from(cfg.channels).expect("channels"));
        Self {
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            llc: Cache::new(cfg.llc),
            tlb: Tlb::new(cfg.tlb_entries),
            mmu: MmuCache::new(
                cfg.mmu_cache_entries,
                cfg.mmu_cache_ways,
                cfg.mmu_cache_latency_cycles,
            ),
            controllers,
            interleave,
            root: Frame(0),
            max_phys_bits: 40,
            stats: SystemStats::default(),
            mshr: Vec::new(),
            pending: Vec::new(),
            completed: Vec::new(),
            drain_buf: Vec::new(),
            merge_buf: Vec::new(),
            next_op_id: 0,
            wheel: EventWheel::new(),
            armed: vec![false; cfg.channels],
            pump: PumpStats::default(),
            cfg,
        }
    }

    /// Number of memory channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.controllers.len()
    }

    /// The controller of channel `i`.
    #[must_use]
    pub fn channel(&self, i: usize) -> &MemoryController {
        &self.controllers[i]
    }

    /// Mutable access to the controller of channel `i`.
    pub fn channel_mut(&mut self, i: usize) -> &mut MemoryController {
        &mut self.controllers[i]
    }

    /// Aggregate controller statistics: the fold of every channel's stats
    /// through [`ControllerStats::absorb`] (counters sum, high-water marks
    /// take the max). Identical to `channel(0).stats()` at one channel.
    #[must_use]
    pub fn controller_stats_total(&self) -> ControllerStats {
        let mut total = ControllerStats::default();
        for c in &self.controllers {
            total.absorb(&c.stats());
        }
        total
    }

    /// The channel serving `addr`.
    fn chan_of(&self, addr: PhysAddr) -> usize {
        self.interleave.channel_of(addr) as usize
    }

    /// The controller serving `addr`.
    fn ctrl_for(&mut self, addr: PhysAddr) -> &mut MemoryController {
        let c = self.chan_of(addr);
        self.channel_mut(c)
    }

    /// The system's configuration.
    #[must_use]
    pub fn config(&self) -> &MemSysConfig {
        &self.cfg
    }

    /// Points the walker at a page-table root (CR3) for a machine with
    /// `max_phys_bits` of physical address space.
    pub fn set_root(&mut self, root: Frame, max_phys_bits: u32) {
        self.root = root;
        self.max_phys_bits = max_phys_bits;
        self.tlb.flush();
        self.mmu.flush();
    }

    /// Statistics.
    #[must_use]
    pub fn stats(&self) -> SystemStats {
        self.stats
    }

    /// Consumes the hierarchy, returning every channel's controller in
    /// channel order — the DRAM contents (page tables included) travel with
    /// them. Call [`MemorySystem::flush_caches`] first so no dirty lines are
    /// lost.
    #[must_use]
    pub fn into_controllers(self) -> Vec<MemoryController> {
        self.controllers
    }

    /// The TLB (for assertions in tests).
    #[must_use]
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// MMU-cache statistics.
    #[must_use]
    pub fn mmu_stats(&self) -> crate::mmucache::MmuCacheStats {
        self.mmu.stats()
    }

    /// Per-level cache statistics `(L1D, L2, LLC)`.
    #[must_use]
    pub fn cache_stats(
        &self,
    ) -> (
        crate::cache::CacheStats,
        crate::cache::CacheStats,
        crate::cache::CacheStats,
    ) {
        (self.l1d.stats(), self.l2.stats(), self.llc.stats())
    }

    /// TLB statistics.
    #[must_use]
    pub fn tlb_stats(&self) -> crate::tlb::TlbStats {
        self.tlb.stats()
    }

    /// A demand load from virtual address `va`, serviced to completion —
    /// the blocking in-order core of Table III.
    pub fn load(&mut self, va: VirtAddr) -> AccessOutcome {
        self.complete(va, false)
    }

    /// A demand store to virtual address `va`, serviced to completion.
    pub fn store(&mut self, va: VirtAddr) -> AccessOutcome {
        self.complete(va, true)
    }

    /// Issues one access on the event engine and pumps it to completion.
    fn complete(&mut self, va: VirtAddr, write: bool) -> AccessOutcome {
        match self.pipe_issue_event(va, write) {
            IssueOutcome::Done(out) => out,
            IssueOutcome::Pending(id) => self.pipe_wait(id),
        }
    }

    /// Pumps the event engine until the pending op `id` completes and
    /// returns its outcome. Other ops' outcomes stay buffered for
    /// [`Self::pipe_drain_completed`] or a later wait.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in flight: no event could ever complete it.
    pub fn pipe_wait(&mut self, id: u64) -> AccessOutcome {
        loop {
            if let Some(pos) = self.completed.iter().position(|&(cid, _)| cid == id) {
                return self.completed.remove(pos).1;
            }
            let progressed = self.advance_to_next_event();
            assert!(
                progressed,
                "event pump stalled: op {id} in flight but no event is scheduled"
            );
        }
    }

    /// Classifies one walk-level PTE: the op's next step (the data access
    /// through a leaf, with the TLB inserted and huge pages splintered to
    /// 4 KB granularity, or the next table down), or `Err(level)` for a
    /// non-present or out-of-bounds entry. Shared by the drive and resume
    /// steps of the op state machine.
    fn classify_pte(&mut self, va: VirtAddr, level: usize, pte: Pte) -> Result<Step, usize> {
        let max_frame = 1u64 << (self.max_phys_bits - 12);
        if !pte.present() {
            return Err(level);
        }
        if pte.frame().0 >= max_frame {
            // The OS-visible bounds check of Section IV-E.
            return Err(level);
        }
        if level == 0 {
            self.tlb.insert(va.vpn(), pte);
            return Ok(Step::Data { leaf: pte });
        }
        if level == 1 && pte.huge_page() {
            // 2 MB leaf: splinter into a 4 KB-granular TLB entry so the
            // downstream address math stays uniform.
            let mut splinter = pte;
            splinter.set_frame(Frame((pte.frame().0 & !0x1ff) | va.pt_index() as u64));
            let splinter = Pte::from_raw(splinter.raw() & !pagetable::x86_64::bits::HUGE_PAGE);
            self.tlb.insert(va.vpn(), splinter);
            return Ok(Step::Data { leaf: splinter });
        }
        Ok(Step::Walk {
            table: pte.frame(),
            level: level - 1,
        })
    }

    /// Probes L1 → L2 → LLC. On a hit, performs the usual upward fills /
    /// store-dirtying and returns the line plus probe cycles; on a full
    /// miss, returns the accumulated probe cycles and the caller suspends
    /// the op on the MSHR file.
    ///
    /// Each level's set is searched once: a probe that misses returns the
    /// way the refill takes, and a hit further down fills there. Between a
    /// level's probe and its fill only lower levels change, since
    /// writebacks move down.
    fn probe_caches(
        &mut self,
        addr: PhysAddr,
        write: bool,
        is_pte: bool,
    ) -> Result<(Line, u64), u64> {
        let mut cycles = 0u64;
        // The L1 is probed even for walk accesses (hardware walkers are
        // coherent with the data cache); walk fills go into L2/LLC only.
        cycles += self.l1d.latency_cycles;
        let l1_way = match self.l1d.probe(addr) {
            Ok((way, line)) => {
                if write && !is_pte {
                    // A demand store that hits: the line's data is about
                    // to change, so dirty it now (a probe never dirties).
                    self.l1d.set_dirty(way);
                }
                return Ok((line, cycles));
            }
            Err(victim) => victim,
        };
        cycles += self.l2.latency_cycles;
        let l2_way = match self.l2.probe(addr) {
            Ok((_, line)) => {
                if !is_pte {
                    self.fill_probed(0, l1_way, addr, line, write);
                }
                return Ok((line, cycles));
            }
            Err(victim) => victim,
        };
        cycles += self.llc.latency_cycles;
        if let Some(line) = self.llc.lookup(addr) {
            self.fill_probed(1, l2_way, addr, line, false);
            if !is_pte {
                self.fill_probed(0, l1_way, addr, line, write);
            }
            return Ok((line, cycles));
        }
        Err(cycles)
    }

    /// Installs a DRAM fill into LLC → L2 (→ L1 for demand accesses). The
    /// sets are searched afresh: other ops may have changed them while
    /// this one waited on DRAM.
    fn install_fill(&mut self, addr: PhysAddr, line: Line, write: bool, is_pte: bool) {
        self.fill_level(2, addr, line, false);
        self.fill_level(1, addr, line, false);
        if !is_pte {
            self.fill_level(0, addr, line, write);
        }
    }

    /// Cache level `level` (0 = L1D, 1 = L2, 2 = LLC).
    fn level_mut(&mut self, level: usize) -> &mut Cache {
        match level {
            0 => &mut self.l1d,
            1 => &mut self.l2,
            _ => &mut self.llc,
        }
    }

    /// Fills `addr` into cache level `level` and writes the dirty line it
    /// displaces, if any, back through [`Self::writeback`].
    fn fill_level(&mut self, level: usize, addr: PhysAddr, line: Line, dirty: bool) {
        if let Some((wa, wl)) = self.level_mut(level).fill(addr, line, dirty) {
            self.writeback(level, wa, wl);
        }
    }

    /// [`Self::fill_level`] into the victim way a probe of that level
    /// returned when it missed `addr`.
    fn fill_probed(&mut self, level: usize, way: Way, addr: PhysAddr, line: Line, dirty: bool) {
        if let Some((wa, wl)) = self.level_mut(level).fill_way(way, addr, line, dirty) {
            self.writeback(level, wa, wl);
        }
    }

    /// Writes a dirty victim of cache level `level` one level down, as
    /// gem5's classic caches do (DESIGN.md, memsys "Writeback policy"): an
    /// L1D or L2 victim is filled dirty into the next level, cascading
    /// whatever that fill displaces, and an LLC victim goes to DRAM (off
    /// the critical path).
    fn writeback(&mut self, level: usize, addr: PhysAddr, line: Line) {
        if level < 2 {
            self.fill_level(level + 1, addr, line, true);
        } else {
            self.ctrl_for(addr).write_line(addr, line);
        }
    }

    /// Writes every dirty line back to DRAM (through PT-Guard) and clears
    /// dirtiness — the state a quiesced system reaches naturally. The L1D
    /// drains into the L2, then the L2 into the LLC, then the LLC into
    /// DRAM, by the same one-level-down rule as any eviction.
    ///
    /// In-flight pipelined ops are drained first: a flush with a non-empty
    /// MSHR file must complete — not drop — the pending misses, or their
    /// fills (and any dirty lines they produce) would be lost.
    pub fn flush_caches(&mut self) {
        // Every read an op queued has its channel's drain armed. A read
        // queued through `channel_mut` has none, so arm it here; its
        // completion finds no MSHR entry and retires without effect.
        for ch in 0..self.channels() {
            if self.controllers[ch].has_queued_reads() && !self.armed[ch] {
                // One arm per channel: `(ps, channel)` orders the arms, so
                // the id decides nothing.
                self.arm(ch, 0);
            }
        }
        while self.advance_to_next_event() {}
        debug_assert!(
            self.pending.is_empty(),
            "every pending op waits on a queued read"
        );
        for (a, l) in self.l1d.drain_dirty() {
            self.writeback(0, a, l);
        }
        for (a, l) in self.l2.drain_dirty() {
            self.writeback(1, a, l);
        }
        for (a, l) in self.llc.drain_dirty() {
            self.writeback(2, a, l);
        }
    }

    /// Invalidates all cached translations and cache lines that alias the
    /// page-table pages — used after direct DRAM manipulation in
    /// experiments (hammering bypasses the coherent path).
    pub fn invalidate_translation_state(&mut self) {
        self.tlb.flush();
        self.mmu.flush();
    }

    /// Invalidates one line everywhere (without writeback).
    pub fn invalidate_line(&mut self, addr: PhysAddr) {
        let _ = self.l1d.invalidate(addr);
        let _ = self.l2.invalidate(addr);
        let _ = self.llc.invalidate(addr);
    }

    /// The line holding `addr`, untimed: the highest cached copy, else the
    /// line a timed data read of DRAM would forward
    /// ([`PtGuardEngine::peek_read`](ptguard::PtGuardEngine::peek_read)).
    /// No clock, row buffer, LRU state or counter moves.
    fn func_line(&self, addr: PhysAddr) -> Line {
        if let Some(line) = self
            .l1d
            .peek(addr)
            .or_else(|| self.l2.peek(addr))
            .or_else(|| self.llc.peek(addr))
        {
            return line;
        }
        let ctrl = self.channel(self.chan_of(addr));
        let raw = Line::from_bytes(&ctrl.device().read_line(addr));
        match ctrl.engine() {
            Some(engine) => engine.peek_read(&raw, addr),
            None => raw,
        }
    }

    /// Functional, untimed u64 read at a physical address, through the
    /// cache hierarchy (caches win over DRAM).
    #[must_use]
    pub fn func_read_u64(&self, addr: PhysAddr) -> u64 {
        self.func_line(addr).word(addr.line_offset() / 8)
    }

    /// Functional, untimed u64 write at a physical address: read-modify-
    /// write through the hierarchy with write-allocate into the L1.
    pub fn func_write_u64(&mut self, addr: PhysAddr, value: u64) {
        let mut line = self.func_line(addr);
        line.set_word(addr.line_offset() / 8, value);
        if self.l1d.peek(addr).is_some() {
            self.l1d.update(addr, line, true);
        } else if self.l2.peek(addr).is_some() {
            self.l2.update(addr, line, true);
        } else if self.llc.peek(addr).is_some() {
            self.llc.update(addr, line, true);
        } else {
            self.fill_level(0, addr, line, true);
        }
    }

    /// Issues a demand access on the event-driven pipeline, resolving
    /// synchronous completions inline.
    ///
    /// The op runs as far as the TLB, MMU cache and caches allow. A TLB hit
    /// that also hits the caches skips the op machinery entirely (no id, no
    /// completion-buffer round trip) — the overwhelmingly common case. A
    /// full miss suspends the op on the MSHR file; its outcome arrives
    /// through [`Self::pipe_drain_completed`] once
    /// [`Self::advance_to_next_event`] fires the DRAM read. Ops that
    /// complete synchronously never consume an op id; ids stay monotonic
    /// across the ops that do suspend, which is all the MSHR merge order
    /// needs.
    pub fn pipe_issue_event(&mut self, va: VirtAddr, write: bool) -> IssueOutcome {
        if write {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }
        if let Some(leaf) = self.tlb.lookup(va.vpn()) {
            // Translated without a walk: probe the hierarchy directly.
            let pa = leaf.target(va.page_offset());
            match self.probe_caches(pa, write, false) {
                Ok((_, c)) => {
                    return IssueOutcome::Done(AccessOutcome::Ok {
                        cycles: c,
                        llc_miss: false,
                    });
                }
                Err(c) => {
                    let id = self.next_op_id;
                    self.next_op_id += 1;
                    let op = Op {
                        id,
                        va,
                        write,
                        cycles: c,
                    };
                    self.suspend(op, Await::Data { pa });
                    return IssueOutcome::Pending(id);
                }
            }
        }
        self.stats.walks += 1;
        let id = self.next_op_id;
        self.next_op_id += 1;
        let op = Op {
            id,
            va,
            write,
            cycles: 0,
        };
        self.drive(
            op,
            Step::Walk {
                table: self.root,
                level: 3,
            },
        );
        // `drive` either suspended the op or pushed its outcome last.
        if let Some(&(cid, out)) = self.completed.last() {
            if cid == id {
                self.completed.pop();
                return IssueOutcome::Done(out);
            }
        }
        IssueOutcome::Pending(id)
    }

    /// Pumps the event engine one round: jumps virtual time to the next
    /// scheduled events, drains every channel whose arm fired, merges the
    /// completions, and resumes the ops waiting on them (resumed ops run
    /// until they complete or suspend on a new miss, arming the next
    /// round). Returns `false` — having done nothing — when no events are
    /// scheduled.
    ///
    /// Completions retire in integer-picosecond order, ties broken by
    /// channel index then request id — the same `(ps, channel, id)` total
    /// order the scheduler itself pops in — so the resume order is
    /// deterministic and, with one channel, identical to the
    /// single-controller model's `(dram_ps, id)` order. That final sort is
    /// why the order in which the scheduler pops a round's arms decides
    /// nothing; only its frontier (the latest arm time) is read, for
    /// [`PumpStats::idle_skip_ps`].
    pub fn advance_to_next_event(&mut self) -> bool {
        if self.wheel.is_empty() {
            return false;
        }
        let from_ps = self.wheel.now_ps();
        let mut drained = std::mem::take(&mut self.drain_buf);
        let mut merged = std::mem::take(&mut self.merge_buf);
        merged.clear();
        // One round = everything currently scheduled. Arms posted by the
        // resumes below land in the scheduler for the next round.
        while let Some((key, ())) = self.wheel.pop() {
            let ch = key.channel as usize;
            self.armed[ch] = false;
            drained.clear();
            self.channel_mut(ch).drain_reads(&mut drained);
            self.pump.bank_ready_events += drained.len() as u64;
            merged.extend(
                drained
                    .drain(..)
                    .map(|(req_id, read)| (key.channel, req_id, read)),
            );
        }
        self.record_advance(from_ps);
        if merged.len() > 1 {
            merged.sort_by_key(|a| (a.2.dram_ps, a.0, a.1));
        }
        for (ch, req_id, read) in &merged {
            self.resolve_completion(*ch, *req_id, read);
        }
        self.drain_buf = drained;
        self.merge_buf = merged;
        true
    }

    /// Counts one pump round and the virtual time it skipped.
    fn record_advance(&mut self, from_ps: u128) {
        self.pump.advances += 1;
        let skipped = self.wheel.now_ps() - from_ps;
        self.pump
            .idle_skip_ps
            .record(u64::try_from(skipped).unwrap_or(u64::MAX));
    }

    /// Retires one completed read: pops its MSHR entry and resumes every
    /// waiter (the primary installs the fill, merged waiters only collect
    /// the latency).
    fn resolve_completion(&mut self, ch: u32, req_id: u64, read: &crate::controller::DramRead) {
        let Some(pos) = self
            .mshr
            .iter()
            .position(|e| e.channel == ch && e.req_id == req_id)
        else {
            return;
        };
        let entry = self.mshr.remove(pos);
        for (i, op_id) in std::iter::once(entry.primary)
            .chain(entry.merged.iter().copied())
            .enumerate()
        {
            let pos = self
                .pending
                .iter()
                .position(|p| p.op.id == op_id)
                .expect("MSHR waiter must be pending");
            let pending = self.pending.remove(pos);
            self.resume(pending, read, i == 0);
        }
    }

    /// Event-pump counters (wheel traffic, device completions, idle
    /// skips). Refresh slices are sampled from the channel devices, so
    /// the count covers the whole run, blocking interludes included.
    #[must_use]
    pub fn pump_stats(&self) -> PumpStats {
        let wheel = self.wheel.stats();
        let refresh_events = self
            .controllers
            .iter()
            .map(|c| c.device().stats().refresh_slices)
            .sum();
        PumpStats {
            events_posted: wheel.posted,
            events_fired: wheel.fired,
            wheel_cascades: 0,
            refresh_events,
            ..self.pump.clone()
        }
    }

    /// Ops issued but not yet completed.
    #[must_use]
    pub fn pipe_pending(&self) -> usize {
        self.pending.len()
    }

    /// Appends the `(op id, outcome)` pairs completed so far to `out`,
    /// leaving the internal buffer empty but with its capacity intact, so
    /// the windowed drivers collect outcomes every op without allocating.
    pub fn pipe_drain_completed(&mut self, out: &mut Vec<(u64, AccessOutcome)>) {
        out.append(&mut self.completed);
    }

    /// Runs `op` from `step` until it completes or suspends on a miss.
    fn drive(&mut self, mut op: Op, mut step: Step) {
        loop {
            match step {
                Step::Walk { table, level } => {
                    let entry_addr = PhysAddr::new(
                        table.base().as_u64() + (op.va.level_index(level) as u64) * 8,
                    );
                    let mmu_hit = if level > 0 {
                        self.mmu.lookup(entry_addr)
                    } else {
                        None
                    };
                    let pte = if let Some(hit) = mmu_hit {
                        op.cycles += self.mmu.latency_cycles;
                        hit
                    } else {
                        match self.probe_caches(entry_addr, false, true) {
                            Ok((line, c)) => {
                                op.cycles += c;
                                let pte = Pte::from_raw(line.word(entry_addr.line_offset() / 8));
                                if level > 0 {
                                    self.mmu.insert(entry_addr, pte);
                                }
                                pte
                            }
                            Err(c) => {
                                op.cycles += c;
                                self.suspend(op, Await::Walk { level, entry_addr });
                                return;
                            }
                        }
                    };
                    match self.classify_pte(op.va, level, pte) {
                        Ok(next) => step = next,
                        Err(level) => {
                            self.page_fault(&op, level);
                            return;
                        }
                    }
                }
                Step::Data { leaf } => {
                    let pa = leaf.target(op.va.page_offset());
                    match self.probe_caches(pa, op.write, false) {
                        Ok((_, c)) => {
                            op.cycles += c;
                            self.completed.push((
                                op.id,
                                AccessOutcome::Ok {
                                    cycles: op.cycles,
                                    llc_miss: false,
                                },
                            ));
                        }
                        Err(c) => {
                            op.cycles += c;
                            self.suspend(op, Await::Data { pa });
                        }
                    }
                    return;
                }
            }
        }
    }

    /// Completes `op` with a page fault at walk level `level`.
    fn page_fault(&mut self, op: &Op, level: usize) {
        self.completed.push((
            op.id,
            AccessOutcome::PageFault {
                cycles: op.cycles,
                level,
            },
        ));
    }

    /// Parks `op` on the MSHR entry for the line it `awaits`, creating the
    /// entry — and queueing the DRAM read — if this is the line's first
    /// miss.
    fn suspend(&mut self, op: Op, awaits: Await) {
        let (addr, is_pte) = awaits.target();
        let line_addr = addr.line_addr().as_u64();
        if let Some(entry) = self
            .mshr
            .iter_mut()
            .find(|e| e.line_addr == line_addr && e.is_pte == is_pte)
        {
            entry.merged.push(op.id);
        } else {
            let ch = self.chan_of(addr);
            let req_id = self.channel_mut(ch).enqueue_read(addr, is_pte);
            self.mshr.push(MshrEntry {
                channel: u32::try_from(ch).expect("channel index"),
                req_id,
                line_addr,
                is_pte,
                primary: op.id,
                merged: Vec::new(),
            });
            self.stats.mshr_hwm = self.stats.mshr_hwm.max(self.mshr.len() as u64);
            // First outstanding read on this channel: arm its drain.
            if !self.armed[ch] {
                self.arm(ch, req_id);
            }
        }
        self.pending.push(PendingOp { op, awaits });
    }

    /// Arms channel `ch`'s drain at its device's current time (clamped to
    /// the scheduler's frontier if this channel lags).
    fn arm(&mut self, ch: usize, id: u64) {
        self.armed[ch] = true;
        let ps = self.channel(ch).device().now_ps();
        self.wheel.post(
            EventKey {
                ps,
                channel: u32::try_from(ch).expect("channel index"),
                id,
            },
            (),
        );
        // One arm per channel bounds the scheduler, which is what lets it
        // be a flat list.
        debug_assert!(self.wheel.len() <= self.channels());
    }

    /// Resumes a suspended op with its DRAM read. The primary waiter
    /// installs the fill; merged waiters only collect the latency (and, for
    /// stores, dirty the installed line).
    fn resume(&mut self, pending: PendingOp, read: &crate::controller::DramRead, primary: bool) {
        let PendingOp { mut op, awaits } = pending;
        op.cycles += read.latency_cycles;
        match awaits {
            Await::Walk { level, entry_addr } => {
                self.stats.walk_llc_misses += 1;
                if read.verdict == ReadVerdict::CheckFailed {
                    self.stats.integrity_faults += 1;
                    self.completed.push((
                        op.id,
                        AccessOutcome::PteCheckFailed {
                            cycles: op.cycles,
                            level,
                        },
                    ));
                    return;
                }
                if primary {
                    self.install_fill(entry_addr, read.line, false, true);
                }
                let pte = Pte::from_raw(read.line.word(entry_addr.line_offset() / 8));
                if level > 0 {
                    self.mmu.insert(entry_addr, pte);
                }
                match self.classify_pte(op.va, level, pte) {
                    Ok(next) => self.drive(op, next),
                    Err(level) => self.page_fault(&op, level),
                }
            }
            Await::Data { pa } => {
                self.stats.llc_misses += 1;
                // The demand path consumes the line whatever the verdict,
                // but a failed check is never installed (Section IV-F).
                if read.verdict != ReadVerdict::CheckFailed {
                    if primary {
                        self.install_fill(pa, read.line, op.write, false);
                    } else if op.write {
                        // Merged store: the primary installed the line
                        // (possibly clean); dirty it like a store hit.
                        if let Some(line) = self.l1d.peek(pa) {
                            self.l1d.update(pa, line, true);
                        }
                    }
                }
                self.completed.push((
                    op.id,
                    AccessOutcome::Ok {
                        cycles: op.cycles,
                        llc_miss: true,
                    },
                ));
            }
        }
    }
}

/// A [`PhysMem`] view of a [`MemorySystem`] for the OS model: the
/// `AddressSpace` builds page tables *through the cache hierarchy*, exactly
/// like kernel stores, so PTE lines acquire MACs when they drain to DRAM.
#[derive(Debug)]
pub struct OsPort<'a> {
    sys: &'a mut MemorySystem,
}

impl<'a> OsPort<'a> {
    /// Wraps a memory system.
    #[must_use]
    pub fn new(sys: &'a mut MemorySystem) -> Self {
        Self { sys }
    }
}

impl PhysMem for OsPort<'_> {
    fn size(&self) -> u64 {
        self.sys.channel(0).device().size()
    }

    fn read_u8(&self, _addr: PhysAddr) -> u8 {
        unreachable!("OsPort uses the word-granular accessors")
    }

    fn write_u8(&mut self, _addr: PhysAddr, _value: u8) {
        unreachable!("OsPort uses the word-granular accessors")
    }

    fn read_u64(&self, addr: PhysAddr) -> u64 {
        self.sys.func_read_u64(addr)
    }

    fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        self.sys.func_write_u64(addr, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram::{DramDevice, RowhammerConfig};
    use pagetable::space::AddressSpace;
    use pagetable::x86_64::PteFlags;
    use ptguard::PtGuardConfig;
    use ptguard::PtGuardEngine;

    fn system(guarded: bool) -> MemorySystem {
        let device = DramDevice::ddr4_4gb(RowhammerConfig::immune());
        let engine = guarded.then(|| PtGuardEngine::new(PtGuardConfig::default()));
        let mc = MemoryController::new(device, engine);
        MemorySystem::new(MemSysConfig::default(), vec![mc])
    }

    /// Builds a mapped address space inside the system via the OS port.
    fn setup(sys: &mut MemorySystem, pages: u64) -> (AddressSpace, u64) {
        let base = 0x40_0000_0000u64;
        let mut port = OsPort::new(sys);
        let mut space = AddressSpace::new(&mut port, 32).unwrap();
        for i in 0..pages {
            let va = VirtAddr::new(base + i * 4096);
            space.map_new(&mut port, va, PteFlags::user_data()).unwrap();
        }
        let root = space.root();
        sys.set_root(root, 32);
        (space, base)
    }

    #[test]
    fn load_walks_then_hits_tlb() {
        let mut sys = system(true);
        let (_space, base) = setup(&mut sys, 4);
        let va = VirtAddr::new(base);
        let first = sys.load(va);
        assert!(first.is_ok());
        assert_eq!(sys.stats().walks, 1);
        let second = sys.load(va);
        assert!(second.is_ok());
        assert_eq!(sys.stats().walks, 1, "second access must hit the TLB");
        assert!(second.cycles() < first.cycles());
    }

    #[test]
    fn walk_verifies_pte_lines_from_dram() {
        let mut sys = system(true);
        let (_space, base) = setup(&mut sys, 4);
        sys.flush_caches();
        sys.invalidate_translation_state();
        // Also evict PTE lines from caches so the walk reaches DRAM: the
        // caches may hold them from construction. Invalidate everything the
        // page tables touch.
        let lines: Vec<PhysAddr> = _space.pte_line_addrs();
        for a in &lines {
            sys.invalidate_line(*a);
        }
        let out = sys.load(VirtAddr::new(base));
        assert!(out.is_ok());
        let engine_stats = sys.channel(0).engine().unwrap().stats();
        assert!(
            engine_stats.pte_reads > 0,
            "walk must reach DRAM with is_pte set"
        );
        assert!(engine_stats.verified > 0, "PTE line must verify");
    }

    #[test]
    fn tampered_pte_in_dram_faults_the_walk() {
        let mut sys = system(true);
        let (space, base) = setup(&mut sys, 64);
        sys.flush_caches();
        sys.invalidate_translation_state();
        for a in space.pte_line_addrs() {
            sys.invalidate_line(a);
        }
        // Find the leaf PTE line of `base` (walking a MAC-stripped view —
        // in-DRAM PTEs carry MACs in their high PFN bits) and corrupt it
        // beyond correction: 5 flips inside the stored MAC exceed the
        // soft-match tolerance (k = 4), an uncorrectable-MAC fault.
        let leaf_line = {
            let port = OsPort::new(&mut sys);
            space
                .walker()
                .walk(&port, VirtAddr::new(base))
                .unwrap()
                .accesses[3]
                .entry_addr
                .line_addr()
        };
        let dev = sys.channel_mut(0).device_mut();
        let mut raw = Line::from_bytes(&dev.read_line(leaf_line));
        raw.set_word(0, raw.word(0) ^ (0b11111 << 41));
        let bytes = raw.to_bytes();
        dev.write_line(leaf_line, &bytes);

        match sys.load(VirtAddr::new(base)) {
            AccessOutcome::PteCheckFailed { level: 0, .. } => {}
            other => panic!("expected PteCheckFailed at leaf, got {other:?}"),
        }
        assert_eq!(sys.stats().integrity_faults, 1);
    }

    #[test]
    fn unguarded_system_consumes_tampered_pte() {
        let mut sys = system(false);
        let (space, base) = setup(&mut sys, 64);
        sys.flush_caches();
        sys.invalidate_translation_state();
        for a in space.pte_line_addrs() {
            sys.invalidate_line(a);
        }
        let walker = space.walker();
        let dev = sys.channel_mut(0).device_mut();
        let walk = walker.walk(dev, VirtAddr::new(base)).unwrap();
        let leaf_addr = walk.accesses[3].entry_addr;
        // Flip one PFN bit within bounds: translation silently changes.
        let raw = dev.read_u64(leaf_addr);
        dev.write_u64(leaf_addr, raw ^ (1 << 13));
        let out = sys.load(VirtAddr::new(base));
        assert!(
            out.is_ok(),
            "unprotected system happily uses the tampered PTE"
        );
        let hijacked = sys.tlb().peek_frame(VirtAddr::new(base).vpn()).unwrap();
        assert_ne!(hijacked, walk.leaf.frame(), "translation was hijacked");
    }

    #[test]
    fn mmu_cache_accelerates_subsequent_walks() {
        let mut sys = system(true);
        let (_space, base) = setup(&mut sys, 4);
        // Cold walk: every upper level misses the MMU cache.
        assert!(sys.load(VirtAddr::new(base)).is_ok());
        let cold = sys.mmu_stats();
        assert_eq!(cold.hits, 0);
        assert_eq!(cold.misses, 3);
        // Second page shares all upper levels: three MMU-cache hits.
        assert!(sys.load(VirtAddr::new(base + 4096)).is_ok());
        let warm = sys.mmu_stats();
        assert_eq!(warm.hits, 3);
        assert_eq!(warm.misses, 3);
    }

    #[test]
    fn huge_pages_walk_correctly_and_reduce_walk_traffic() {
        let mut sys = system(true);
        let base = 0x80_0000_0000u64;
        let (root, huge_frame) = {
            let mut port = OsPort::new(&mut sys);
            let mut space = AddressSpace::new(&mut port, 32).unwrap();
            // One 2 MB huge page.
            let frame = {
                // Reach into the allocator via contiguous allocation.
                let f = space.alloc_frame(&mut port).unwrap();
                let _ = f; // burn one to prove alignment logic is separate
                space_alloc_huge(&mut space, &mut port)
            };
            space
                .map_huge_2mb(&mut port, VirtAddr::new(base), frame, PteFlags::user_data())
                .unwrap();
            (space.root(), frame)
        };
        sys.set_root(root, 32);
        sys.flush_caches();

        // Touch 64 different 4 KB pages inside the huge page.
        for i in 0..64u64 {
            let out = sys.load(VirtAddr::new(base + i * 4096 + 0x10));
            assert!(out.is_ok(), "page {i}: {out:?}");
            let got = sys
                .tlb()
                .peek_frame(VirtAddr::new(base + i * 4096).vpn())
                .unwrap();
            assert_eq!(got.0, huge_frame.0 + i, "splintered TLB frame");
        }
        // Walks happened (one per 4 KB splinter) but terminated at the PD
        // level: only 3 levels of PTE accesses, and no PT-level lines.
        assert_eq!(sys.stats().walks, 64);
    }

    fn space_alloc_huge(space: &mut AddressSpace, port: &mut OsPort<'_>) -> pagetable::addr::Frame {
        // Allocate until a 2 MB-aligned run starts (test helper).
        loop {
            let f = space.alloc_frame(port).unwrap();
            if f.0 % 512 == 511 {
                // next 512 allocations are the aligned run
                let start = space.alloc_frame(port).unwrap();
                assert_eq!(start.0 % 512, 0);
                for _ in 1..512 {
                    let _ = space.alloc_frame(port).unwrap();
                }
                return start;
            }
        }
    }

    /// Forces the next accesses to miss all the way to DRAM: dirty state
    /// drains, translations drop, and every page-table line is evicted.
    fn cold_start(sys: &mut MemorySystem, space: &AddressSpace) {
        sys.flush_caches();
        sys.invalidate_translation_state();
        for a in space.pte_line_addrs() {
            sys.invalidate_line(a);
        }
    }

    /// Issues an access that must suspend on a miss and returns its op id.
    fn issue_pending(sys: &mut MemorySystem, va: VirtAddr, write: bool) -> u64 {
        match sys.pipe_issue_event(va, write) {
            IssueOutcome::Pending(id) => id,
            IssueOutcome::Done(out) => panic!("access completed at issue: {out:?}"),
        }
    }

    /// Pumps the wheel until no op is pending and returns every outcome.
    fn pump_all(sys: &mut MemorySystem) -> Vec<(u64, AccessOutcome)> {
        while sys.pipe_pending() > 0 {
            sys.advance_to_next_event();
        }
        let mut done = Vec::new();
        sys.pipe_drain_completed(&mut done);
        done
    }

    #[test]
    fn cold_load_and_store_return_with_the_wheel_drained() {
        let mut sys = system(true);
        let (space, base) = setup(&mut sys, 4);
        for (i, write) in [false, true].into_iter().enumerate() {
            cold_start(&mut sys, &space);
            let posted_before = sys.pump_stats().events_posted;
            let va = VirtAddr::new(base + i as u64 * 4096);
            let out = if write { sys.store(va) } else { sys.load(va) };
            assert!(out.is_ok(), "cold access faulted: {out:?}");
            let pump = sys.pump_stats();
            assert!(
                pump.events_posted > posted_before,
                "a cold access must reach DRAM through the wheel"
            );
            assert_eq!(
                pump.events_posted, pump.events_fired,
                "write={write}: the access returned with events still scheduled"
            );
            assert_eq!(sys.pipe_pending(), 0);
        }
    }

    #[test]
    fn flush_drains_inflight_misses_instead_of_dropping_them() {
        let mut sys = system(true);
        let (space, base) = setup(&mut sys, 16);
        cold_start(&mut sys, &space);
        // Issue a window of stores that all miss to DRAM; their dirty fills
        // exist only in the pipeline until the misses complete.
        let ids: Vec<u64> = (0..4)
            .map(|i| issue_pending(&mut sys, VirtAddr::new(base + i * 4096), true))
            .collect();
        assert!(sys.pipe_pending() > 0, "cold stores must suspend on misses");
        assert!(sys.channel(0).has_queued_reads());
        sys.flush_caches();
        assert_eq!(sys.pipe_pending(), 0, "flush must drain the MSHR file");
        let mut done = Vec::new();
        sys.pipe_drain_completed(&mut done);
        assert_eq!(done.len(), ids.len(), "no in-flight op may be dropped");
        for (id, out) in &done {
            assert!(ids.contains(id));
            assert!(out.is_ok(), "drained op {id} faulted: {out:?}");
        }
        assert!(sys.stats().mshr_hwm >= 1);
        assert!(sys.channel(0).stats().queue_occupancy_hwm >= 1);
    }

    #[test]
    fn flush_services_a_read_queued_behind_the_systems_back() {
        // Regression: a read queued through `channel_mut` had no drain
        // armed, and `flush_caches` asserted "flush deadlock".
        let mut sys = system(true);
        let (_space, base) = setup(&mut sys, 4);
        sys.channel_mut(0)
            .enqueue_read(PhysAddr::new(0x10_0000), false);
        sys.flush_caches();
        assert!(!sys.channel(0).has_queued_reads());
        assert_eq!(sys.pipe_pending(), 0);
        assert!(
            sys.load(VirtAddr::new(base)).is_ok(),
            "the system keeps working after the stray read retires"
        );
    }

    #[test]
    fn mshr_merges_misses_to_the_same_line() {
        let mut sys = system(true);
        let (space, base) = setup(&mut sys, 4);
        // Warm the TLB so the data accesses need no walk, then go cold on
        // the caches only: both issues miss on the same data line.
        for i in 0..4 {
            let _ = sys.load(VirtAddr::new(base + i * 4096));
        }
        sys.flush_caches();
        let pa = {
            let port = OsPort::new(&mut sys);
            space.translate(&port, VirtAddr::new(base)).unwrap()
        };
        sys.invalidate_line(pa);
        let reads_before = sys.channel(0).stats().reads;
        let a = issue_pending(&mut sys, VirtAddr::new(base), false);
        let b = issue_pending(&mut sys, VirtAddr::new(base + 8), false);
        assert_eq!(sys.pipe_pending(), 2, "both ops wait on the same miss");
        let done = pump_all(&mut sys);
        assert_eq!(done.len(), 2);
        for (id, out) in &done {
            assert!(*id == a || *id == b);
            assert!(out.is_ok());
        }
        assert_eq!(
            sys.channel(0).stats().reads - reads_before,
            1,
            "the secondary miss must merge into the primary's MSHR entry"
        );
    }

    #[test]
    fn os_port_roundtrip() {
        let mut sys = system(true);
        let addr = PhysAddr::new(0x123450);
        {
            let mut port = OsPort::new(&mut sys);
            port.write_u64(addr, 0xdead_beef_cafe_f00d);
            assert_eq!(port.read_u64(addr), 0xdead_beef_cafe_f00d);
        }
        sys.flush_caches();
        {
            let port = OsPort::new(&mut sys);
            assert_eq!(port.read_u64(addr), 0xdead_beef_cafe_f00d);
        }
    }

    #[test]
    fn a_dirty_victim_moves_one_level_down() {
        // An L1D victim whose line the L2 holds and the LLC does not is
        // absorbed dirty by the L2; it reaches DRAM only when it leaves
        // the LLC.
        let mut sys = system(true);
        let a = PhysAddr::new(0x40_0000);
        let (stale, stored) = (Line::from_words([1; 8]), Line::from_words([2; 8]));
        let _ = sys.l2.fill(a, stale, false);
        let _ = sys.l1d.fill(a, stored, true);
        // Clean fills of lines in `a`'s set push `a` out of one level.
        let evict = |sys: &mut MemorySystem, level: usize| {
            let cfg = [sys.cfg.l1d, sys.cfg.l2, sys.cfg.llc][level];
            let stride = (cfg.sets() * 64) as u64;
            for k in 1..=cfg.ways as u64 {
                let conflict = PhysAddr::new(a.as_u64() + k * stride);
                sys.fill_level(level, conflict, Line::ZERO, false);
            }
        };
        let writes = |sys: &MemorySystem| sys.channel(0).stats().writes;
        evict(&mut sys, 0);
        assert_eq!(sys.l1d.peek(a), None);
        assert_eq!(sys.l2.peek(a), Some(stored), "the L2 absorbs the L1 victim");
        assert_eq!(writes(&sys), 0, "an L1 victim reached DRAM");
        evict(&mut sys, 1);
        assert_eq!(
            sys.llc.peek(a),
            Some(stored),
            "the LLC absorbs the L2 victim"
        );
        assert_eq!(writes(&sys), 0, "an L2 victim reached DRAM");
        evict(&mut sys, 2);
        assert_eq!(writes(&sys), 1, "the LLC victim goes to DRAM");
        assert_eq!(sys.func_read_u64(a), 2);
    }

    #[test]
    fn functional_accesses_to_uncached_lines_are_untimed() {
        let mut sys = system(true);
        let (read, write) = (PhysAddr::new(0x12_3440), PhysAddr::new(0x45_6780));
        for addr in [read, write] {
            sys.channel_mut(0)
                .write_line(addr, Line::from_words([7; 8]));
        }
        let snapshot = |sys: &MemorySystem| {
            let ch = sys.channel(0);
            format!(
                "{:?} {:?} {} {:?}",
                ch.stats(),
                ch.engine().unwrap().stats(),
                ch.device().now_ps(),
                ch.device().stats(),
            )
        };
        let before = snapshot(&sys);
        assert_eq!(sys.func_read_u64(read), 7);
        sys.func_write_u64(write, 9);
        assert_eq!(snapshot(&sys), before, "a functional access was timed");
        assert_eq!(sys.func_read_u64(write), 9);
        assert_eq!(sys.func_read_u64(PhysAddr::new(0x45_6788)), 7);
    }

    fn system_n(guarded: bool, channels: usize) -> MemorySystem {
        let cfg = MemSysConfig {
            channels,
            ..MemSysConfig::default()
        };
        let controllers = (0..channels)
            .map(|_| {
                let device = DramDevice::ddr4_4gb(RowhammerConfig::immune());
                let engine = guarded.then(|| PtGuardEngine::new(PtGuardConfig::default()));
                MemoryController::new(device, engine)
            })
            .collect();
        MemorySystem::new(cfg, controllers)
    }

    #[test]
    fn four_channel_system_spreads_traffic_and_reconciles_stats() {
        let mut sys = system_n(true, 4);
        let (space, base) = setup(&mut sys, 64);
        cold_start(&mut sys, &space);
        for i in 0..64 {
            let out = sys.load(VirtAddr::new(base + i * 4096));
            assert!(out.is_ok(), "page {i} faulted: {out:?}");
        }
        let per: Vec<_> = (0..sys.channels())
            .map(|c| sys.channel(c).stats())
            .collect();
        assert!(
            per.iter().filter(|s| s.reads > 0).count() >= 2,
            "traffic must spread across channels: {:?}",
            per.iter().map(|s| s.reads).collect::<Vec<_>>()
        );
        let total = sys.controller_stats_total();
        assert_eq!(per.iter().map(|s| s.reads).sum::<u64>(), total.reads);
        assert_eq!(per.iter().map(|s| s.writes).sum::<u64>(), total.writes);
        assert_eq!(
            per.iter().map(|s| s.mac_cycles_added).sum::<u64>(),
            total.mac_cycles_added
        );
    }

    #[test]
    fn four_channel_pipeline_is_deterministic_and_complete() {
        let run = || {
            let mut sys = system_n(true, 4);
            let (space, base) = setup(&mut sys, 32);
            cold_start(&mut sys, &space);
            let ids: Vec<u64> = (0..32)
                .map(|i| issue_pending(&mut sys, VirtAddr::new(base + i * 4096), i % 3 == 0))
                .collect();
            let done = pump_all(&mut sys);
            assert_eq!(done.len(), ids.len(), "no in-flight op may be dropped");
            done
        };
        let a = run();
        let b = run();
        for ((ida, outa), (idb, outb)) in a.iter().zip(&b) {
            assert_eq!(ida, idb, "completion order must be deterministic");
            assert_eq!(outa.cycles(), outb.cycles());
            assert!(outa.is_ok());
        }
    }

    /// Writes `line` with its own MAC embedded (a line that *looks*
    /// protected but does not match the write pattern) through channel 0's
    /// controller, then reads word 0 back functionally (`OsPort`) and timed
    /// (the controller's data-read path), in that order.
    fn forged_word0(cfg: PtGuardConfig, addr: PhysAddr) -> (Line, u64, u64) {
        let device = DramDevice::ddr4_4gb(RowhammerConfig::immune());
        let mc = MemoryController::new(device, Some(PtGuardEngine::new(cfg)));
        let mut sys = MemorySystem::new(MemSysConfig::default(), vec![mc]);
        let engine = sys.channel(0).engine().unwrap();
        let fmt = engine.config().format;
        let line = Line::from_words([0xabcd, 0, 0, 0, 0, 0, 0, 0]);
        let forged =
            ptguard::pattern::embed_mac_for(&line, engine.mac_unit().compute(&line, addr), fmt);
        sys.channel_mut(0).write_line(addr, forged);
        let functional = OsPort::new(&mut sys).read_u64(addr);
        let timed = sys.channel_mut(0).read_line(addr, false).line.word(0);
        (forged, functional, timed)
    }

    #[test]
    fn functional_read_forwards_a_tracked_collision_like_the_timed_read() {
        let addr = PhysAddr::new(0x20_0000);
        let (forged, functional, timed) = forged_word0(PtGuardConfig::default(), addr);
        // The write path saw the MAC field match and tracked the line in the
        // CTB, so a data read forwards it as stored.
        assert_eq!(timed, forged.word(0));
        assert_eq!(functional, timed, "functional read stripped a tracked line");
    }

    #[test]
    fn functional_read_forwards_an_unidentified_line_like_the_timed_read() {
        // Optimized PT-Guard: the forged line carries a valid MAC but no
        // identifier, so a data read skips verification and forwards it.
        let addr = PhysAddr::new(0x20_0040);
        let (forged, functional, timed) = forged_word0(PtGuardConfig::optimized(), addr);
        assert_eq!(timed, forged.word(0));
        assert_eq!(
            functional, timed,
            "functional read stripped an unidentified line"
        );
    }
}
