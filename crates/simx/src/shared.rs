//! A true shared-memory-system multi-core model (Section VII-C).
//!
//! Unlike [`crate::multicore`] — which approximates contention with a DRAM
//! latency multiplier, as the paper's SE-mode methodology does — this model
//! *derives* contention: four cores with private L1/L2/TLB/MMU-cache stacks
//! share one LLC and one or more DRAM channels, and requests that overlap
//! in time queue behind each other at their line's channel (lines spread by
//! the [`ChannelInterleave`]). Each core is an O3-overlap in-order pipeline
//! as in the per-core model. Core pipelines run in integer milli-cycles;
//! the channel serialization point runs in integer picoseconds — the same
//! timeline the DRAM devices and the event wheel use — with a single
//! rounding point per request ([`clock::millicycles_to_ps`]), so
//! interleavings and totals are exact at any horizon.
//!
//! The two models bracket the paper's result; the `multicore` experiment
//! reports both.

use dram::{ChannelInterleave, DramDevice, DramGeometry, DramTiming, RowhammerConfig};
use memsys::cache::Cache;
use memsys::config::clock;
use memsys::mmucache::MmuCache;
use memsys::system::OsPort;
use memsys::tlb::Tlb;
use memsys::{MemSysConfig, MemoryController, MemorySystem};
use pagetable::addr::{Frame, PhysAddr, VirtAddr};
use pagetable::space::AddressSpace;
use pagetable::x86_64::{bits, Pte, PteFlags};
use pagetable::PAGE_SIZE;
use ptguard::engine::ReadVerdict;
use ptguard::line::Line;
use ptguard::{PtGuardConfig, PtGuardEngine};
use workloads::multiprog::Bundle;
use workloads::tracegen::{Op, TraceGenerator};

use crate::source::OpSource;

/// Shared-model parameters.
#[derive(Debug, Clone, Copy)]
pub struct SharedConfig {
    /// Fraction of every memory stall the O3 core hides.
    pub o3_overlap: f64,
    /// Instructions per core in the measured region (an equal warm-up
    /// region runs first).
    pub instructions_per_core: u64,
    /// DRAM capacity in GB.
    pub dram_gb: u64,
    /// DRAM burst occupancy per request in ns (channel serialization).
    pub burst_occupancy_ns: f64,
    /// Memory channels (power of two); requests serialize per channel.
    pub channels: usize,
}

impl Default for SharedConfig {
    fn default() -> Self {
        Self {
            o3_overlap: 0.6,
            instructions_per_core: 60_000,
            dram_gb: 16,
            burst_occupancy_ns: 6.0,
            channels: 1,
        }
    }
}

/// One core's private front-end.
struct CoreStack<S: OpSource> {
    l1: Cache,
    l2: Cache,
    tlb: Tlb,
    mmu: MmuCache,
    source: S,
    root: Frame,
    /// Local time in milli-cycles (the core's pipeline clock).
    now_mc: u64,
    done: u64,
}

/// The shared back-end plus per-core stacks.
///
/// Generic over the per-core instruction source (live generator by
/// default; trace replay plugs in the same way as for
/// [`crate::Machine`]).
pub struct SharedSystem<S: OpSource = TraceGenerator> {
    cores: Vec<CoreStack<S>>,
    llc: Cache,
    /// One controller per channel, indexed by [`ChannelInterleave`] output.
    controllers: Vec<MemoryController>,
    interleave: ChannelInterleave,
    cfg: SharedConfig,
    /// Per-channel serialization point, in integer picoseconds (the same
    /// timeline as the DRAM devices behind the controllers).
    channel_free_at: Vec<u128>,
    /// Unhidden fraction of a stall, in milli-cycles per cycle.
    keep_millis: u64,
    /// Channel hold per request, in integer picoseconds.
    occupancy_ps: u128,
    /// Core clock in kHz (converts milli-cycles ↔ picoseconds).
    core_khz: u64,
    /// DRAM requests that waited on their channel.
    pub queued_requests: u64,
    /// Total DRAM requests.
    pub dram_requests: u64,
}

impl SharedSystem<TraceGenerator> {
    /// Builds a shared system running `bundle` (one workload per core).
    ///
    /// # Panics
    ///
    /// Panics if address-space construction fails (undersized DRAM).
    #[must_use]
    pub fn new(bundle: &Bundle, guard: Option<PtGuardConfig>, cfg: SharedConfig) -> Self {
        let sources = bundle
            .workloads
            .iter()
            .enumerate()
            .map(|(i, w)| TraceGenerator::new(*w, 0x5ca1e + i as u64))
            .collect();
        Self::from_sources(bundle, sources, guard, cfg)
    }
}

impl<S: OpSource> SharedSystem<S> {
    /// Builds a shared system with one explicit source per core (paired
    /// positionally with `bundle.workloads`, which size the address
    /// spaces).
    ///
    /// # Panics
    ///
    /// Panics if `sources` and the bundle disagree on core count, or if
    /// address-space construction fails (undersized DRAM).
    #[must_use]
    pub fn from_sources(
        bundle: &Bundle,
        sources: Vec<S>,
        guard: Option<PtGuardConfig>,
        cfg: SharedConfig,
    ) -> Self {
        assert_eq!(sources.len(), bundle.workloads.len(), "one source per core");
        let mut mem_cfg = MemSysConfig::default();
        mem_cfg.llc.size_bytes = bundle.workloads.len() * (1 << 20); // 1 MB/core
        mem_cfg.channels = cfg.channels.max(1);
        let controllers: Vec<MemoryController> = (0..mem_cfg.channels)
            .map(|_| {
                let geometry = DramGeometry::with_capacity(cfg.dram_gb << 30);
                let device =
                    DramDevice::new(geometry, DramTiming::default(), RowhammerConfig::immune());
                let engine = guard.map(PtGuardEngine::new);
                MemoryController::new(device, engine, mem_cfg.core_ghz)
            })
            .collect();

        // Build each core's address space through a scratch hierarchy so PTE
        // lines are MAC'd in DRAM, then steal the controllers back.
        // Simpler: build through a temporary MemorySystem sharing nothing,
        // then write lines straight through the controller write path.
        let mut sys = MemorySystem::new(mem_cfg, controllers);
        let mut cores = Vec::new();
        for (w, source) in bundle.workloads.iter().zip(sources) {
            // Give each core a disjoint VA slice by rebasing the source's
            // stream through a per-core address space.
            let base = TraceGenerator::HEAP_BASE;
            let pages = w.hot_pages + w.stream_pages;
            let mut port = OsPort::new(&mut sys);
            let mut space = AddressSpace::new(&mut port, 34).expect("space");
            for p in 0..pages {
                space
                    .map_new(
                        &mut port,
                        VirtAddr::new(base + p * PAGE_SIZE as u64),
                        PteFlags::user_data(),
                    )
                    .expect("map");
            }
            cores.push(CoreStack {
                l1: Cache::new(mem_cfg.l1d),
                l2: Cache::new(mem_cfg.l2),
                tlb: Tlb::new(mem_cfg.tlb_entries),
                mmu: MmuCache::new(
                    mem_cfg.mmu_cache_entries,
                    mem_cfg.mmu_cache_ways,
                    mem_cfg.mmu_cache_latency_cycles,
                ),
                source,
                root: space.root(),
                now_mc: 0,
                done: 0,
            });
        }
        sys.flush_caches();
        // Decompose the scratch hierarchy: keep only its controllers (which
        // own the DRAM channels with all page tables MAC'd in place).
        let controllers = sys.into_controllers();
        let channels = controllers.len();
        Self {
            cores,
            llc: Cache::new(mem_cfg.llc),
            controllers,
            interleave: ChannelInterleave::new(u32::try_from(channels).expect("channels")),
            keep_millis: ((1.0 - cfg.o3_overlap) * 1000.0).round() as u64,
            occupancy_ps: clock::ns_to_ps(cfg.burst_occupancy_ns),
            core_khz: clock::ghz_to_khz(mem_cfg.core_ghz),
            cfg,
            channel_free_at: vec![0; channels],
            queued_requests: 0,
            dram_requests: 0,
        }
    }

    /// A line access from core `ci`: private L1/L2, shared LLC, queued DRAM.
    /// Returns (line, cycles, verdict).
    fn line_access(
        &mut self,
        ci: usize,
        addr: PhysAddr,
        write: bool,
        is_pte: bool,
    ) -> (Line, u64, ReadVerdict) {
        let core = &mut self.cores[ci];
        let mut cycles = core.l1.latency_cycles;
        if let Some(line) = core.l1.lookup(addr) {
            if write && !is_pte {
                // Demand store hit: dirty the line now that its data is
                // being modified (lookup itself never dirties).
                core.l1.update(addr, line, true);
            }
            return (line, cycles, ReadVerdict::Forwarded);
        }
        cycles += core.l2.latency_cycles;
        if let Some(line) = core.l2.lookup(addr) {
            if !is_pte {
                if let Some((wa, wl)) = core.l1.fill(addr, line, write) {
                    self.writeback(wa, wl);
                }
            }
            return (line, cycles, ReadVerdict::Forwarded);
        }
        cycles += self.llc.latency_cycles;
        if let Some(line) = self.llc.lookup(addr) {
            let core = &mut self.cores[ci];
            if let Some((wa, wl)) = core.l2.fill(addr, line, false) {
                self.writeback(wa, wl);
            }
            if !is_pte {
                let core = &mut self.cores[ci];
                if let Some((wa, wl)) = core.l1.fill(addr, line, write) {
                    self.writeback(wa, wl);
                }
            }
            return (line, cycles, ReadVerdict::Forwarded);
        }
        // DRAM: serialize on the line's channel, on the ps timeline. The
        // core's milli-cycle clock converts once per request; everything
        // past that point (wait, burst, occupancy) stays in integer ps.
        self.dram_requests += 1;
        let ch = self.interleave.channel_of(addr) as usize;
        let now_ps = clock::millicycles_to_ps(self.cores[ci].now_mc + cycles * 1000, self.core_khz);
        let wait_ps = self.channel_free_at[ch].saturating_sub(now_ps);
        if wait_ps > 0 {
            self.queued_requests += 1;
        }
        let read = self.controllers[ch].read_line(addr, is_pte);
        // MAC computation happens in the controller after the data burst:
        // it delays *this* requester but does not hold the channel.
        let channel_cycles = read.latency_cycles - read.mac_cycles;
        self.channel_free_at[ch] = now_ps
            + wait_ps
            + clock::cycles_to_ps(channel_cycles, self.core_khz)
            + self.occupancy_ps;
        cycles += clock::ps_to_cycles(wait_ps, self.core_khz) + read.latency_cycles;
        if read.verdict == ReadVerdict::CheckFailed {
            return (read.line, cycles, read.verdict);
        }
        if let Some((wa, wl)) = self.llc.fill(addr, read.line, false) {
            let ch = self.interleave.channel_of(wa) as usize;
            self.controllers[ch].write_line(wa, wl);
        }
        let core = &mut self.cores[ci];
        if let Some((wa, wl)) = core.l2.fill(addr, read.line, false) {
            self.writeback(wa, wl);
        }
        if !is_pte {
            let core = &mut self.cores[ci];
            if let Some((wa, wl)) = core.l1.fill(addr, read.line, write) {
                self.writeback(wa, wl);
            }
        }
        (read.line, cycles, read.verdict)
    }

    fn writeback(&mut self, addr: PhysAddr, line: Line) {
        if self.llc.peek(addr).is_some() {
            self.llc.update(addr, line, true);
        } else {
            let ch = self.interleave.channel_of(addr) as usize;
            self.controllers[ch].write_line(addr, line);
        }
    }

    /// Page walk for core `ci`.
    fn walk(&mut self, ci: usize, va: VirtAddr) -> (Option<Pte>, u64) {
        let mut cycles = 0u64;
        let mut table = self.cores[ci].root;
        for level in (0..4usize).rev() {
            let entry_addr =
                PhysAddr::new(table.base().as_u64() + (va.level_index(level) as u64) * 8);
            let pte = if level > 0 {
                if let Some(hit) = self.cores[ci].mmu.lookup(entry_addr) {
                    cycles += self.cores[ci].mmu.latency_cycles;
                    hit
                } else {
                    let (line, c, verdict) = self.line_access(ci, entry_addr, false, true);
                    cycles += c;
                    if verdict == ReadVerdict::CheckFailed {
                        return (None, cycles);
                    }
                    let pte = Pte::from_raw(line.word(entry_addr.line_offset() / 8));
                    self.cores[ci].mmu.insert(entry_addr, pte);
                    pte
                }
            } else {
                let (line, c, verdict) = self.line_access(ci, entry_addr, false, true);
                cycles += c;
                if verdict == ReadVerdict::CheckFailed {
                    return (None, cycles);
                }
                Pte::from_raw(line.word(entry_addr.line_offset() / 8))
            };
            if !pte.present() {
                return (None, cycles);
            }
            if level == 0 {
                self.cores[ci].tlb.insert(va.vpn(), pte);
                return (Some(pte), cycles);
            }
            if level == 1 && pte.huge_page() {
                let mut s = pte;
                s.set_frame(Frame((pte.frame().0 & !0x1ff) | va.pt_index() as u64));
                let s = Pte::from_raw(s.raw() & !bits::HUGE_PAGE);
                self.cores[ci].tlb.insert(va.vpn(), s);
                return (Some(s), cycles);
            }
            table = pte.frame();
        }
        unreachable!()
    }

    /// Executes one instruction on core `ci`, advancing its local clock.
    fn step(&mut self, ci: usize) {
        let op = self.cores[ci].source.next_op();
        self.cores[ci].now_mc += 1000;
        let (va, write) = match op {
            Op::Compute => return,
            Op::Load(va) => (va, false),
            Op::Store(va) => (va, true),
        };
        let mut cycles = 0u64;
        let leaf = match self.cores[ci].tlb.lookup(va.vpn()) {
            Some(p) => Some(p),
            None => {
                let (p, c) = self.walk(ci, va);
                cycles += c;
                p
            }
        };
        if let Some(leaf) = leaf {
            let pa = leaf.target(va.page_offset());
            let (_, c, _) = self.line_access(ci, pa, write, false);
            cycles += c;
        }
        self.cores[ci].now_mc += cycles * self.keep_millis;
    }

    /// Runs all cores to completion (time-ordered interleaving); returns
    /// per-core cycle counts for the measured region.
    pub fn run(&mut self) -> Vec<u64> {
        // Warm-up region.
        self.run_region();
        for c in &mut self.cores {
            c.now_mc = 0;
            c.done = 0;
        }
        self.channel_free_at.fill(0);
        // Measured region.
        self.run_region();
        self.cores.iter().map(|c| (c.now_mc + 500) / 1000).collect()
    }

    fn run_region(&mut self) {
        let target = self.cfg.instructions_per_core;
        loop {
            // The core with the smallest local time executes next — a
            // time-ordered interleaving that lets request streams collide
            // realistically at the channel.
            let mut next: Option<usize> = None;
            for (i, c) in self.cores.iter().enumerate() {
                if c.done < target && next.is_none_or(|n| c.now_mc < self.cores[n].now_mc) {
                    next = Some(i);
                }
            }
            let Some(ci) = next else { break };
            self.step(ci);
            self.cores[ci].done += 1;
        }
    }
}

/// Evaluates a bundle under the shared model: average per-core slowdown of
/// PT-Guard vs baseline.
#[must_use]
pub fn evaluate_bundle_shared(bundle: &Bundle, guard: PtGuardConfig, cfg: SharedConfig) -> f64 {
    let base = SharedSystem::new(bundle, None, cfg).run();
    let guarded = SharedSystem::new(bundle, Some(guard), cfg).run();
    let mut total = 0.0;
    for (b, g) in base.iter().zip(guarded.iter()) {
        total += *g as f64 / (*b).max(1) as f64 - 1.0;
    }
    total / base.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::multiprog::same_bundles;

    #[test]
    fn shared_model_is_deterministic() {
        let cfg = SharedConfig {
            instructions_per_core: 8_000,
            ..SharedConfig::default()
        };
        let bundles = same_bundles(2);
        let b = &bundles[0];
        let a = SharedSystem::new(b, None, cfg).run();
        let c = SharedSystem::new(b, None, cfg).run();
        assert_eq!(a, c);
    }

    #[test]
    fn more_cores_mean_more_queueing() {
        // A lone core's requests are spaced by its own stalls; adding cores
        // makes streams collide at the channel. (Memory-bound bundles
        // saturate quickly, so compare 1 vs 4 cores.)
        let cfg = SharedConfig {
            instructions_per_core: 15_000,
            ..SharedConfig::default()
        };
        let one = same_bundles(1);
        let four = same_bundles(4);
        let lbm1 = one.iter().find(|b| b.name == "SAME-lbm").unwrap();
        let lbm4 = four.iter().find(|b| b.name == "SAME-lbm").unwrap();
        let mut s1 = SharedSystem::new(lbm1, None, cfg);
        let _ = s1.run();
        let mut s4 = SharedSystem::new(lbm4, None, cfg);
        let _ = s4.run();
        let q1 = s1.queued_requests as f64 / s1.dram_requests.max(1) as f64;
        let q4 = s4.queued_requests as f64 / s4.dram_requests.max(1) as f64;
        assert!(
            q4 > q1 + 0.02,
            "queueing must grow with core count: {q1} vs {q4}"
        );
    }

    #[test]
    fn shared_model_contends_and_stays_cheap() {
        let cfg = SharedConfig {
            instructions_per_core: 25_000,
            ..SharedConfig::default()
        };
        let bundles = same_bundles(4);
        let lbm = bundles.iter().find(|b| b.name == "SAME-lbm").unwrap();
        let slowdown = evaluate_bundle_shared(lbm, PtGuardConfig::default(), cfg);
        assert!(slowdown > -0.005, "{slowdown}");
        assert!(
            slowdown < 0.04,
            "shared-model slowdown should be small: {slowdown}"
        );

        // Contention must actually occur for a 4-core memory-bound bundle.
        let mut sys = SharedSystem::new(lbm, None, cfg);
        let _ = sys.run();
        assert!(sys.dram_requests > 0);
        assert!(
            sys.queued_requests * 20 > sys.dram_requests,
            "expected ≥5% of DRAM requests to queue: {}/{}",
            sys.queued_requests,
            sys.dram_requests
        );
    }

    #[test]
    fn more_channels_relieve_queueing() {
        // The same 4-core memory-bound bundle on 1 vs 4 channels: spreading
        // lines across channels must cut the fraction of requests that wait.
        let base_cfg = SharedConfig {
            instructions_per_core: 15_000,
            ..SharedConfig::default()
        };
        let bundles = same_bundles(4);
        let lbm = bundles.iter().find(|b| b.name == "SAME-lbm").unwrap();
        let queueing = |channels: usize| {
            let mut sys = SharedSystem::new(
                lbm,
                None,
                SharedConfig {
                    channels,
                    ..base_cfg
                },
            );
            let _ = sys.run();
            sys.queued_requests as f64 / sys.dram_requests.max(1) as f64
        };
        let q1 = queueing(1);
        let q4 = queueing(4);
        assert!(
            q4 < q1 - 0.02,
            "4 channels must queue less than 1: {q1} vs {q4}"
        );
    }
}
