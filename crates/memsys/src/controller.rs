//! The memory controller: DRAM scheduling plus the PT-Guard engine hook
//! (Figure 5 of the paper).
//!
//! The memory system's reads go through the read queue
//! ([`MemoryController::enqueue_read`] / [`MemoryController::drain_reads`]):
//! a drain schedules each bank's reads FR-FCFS against the device's
//! per-bank busy-until timing and verifies all ready PTE MACs through one
//! [`ptguard::mac::PteMac::compute_batch`] call.
//!
//! [`MemoryController::read_line`] services one read to completion at the
//! device's current time; only the blocking reference core
//! (`oracle::refmachine`) uses it. A drain of a single request is
//! *bit-identical* to one `read_line` call: the bank wait is exactly zero,
//! a batch of one computes the same MAC, and both end in the same
//! `finish_read` tail.

use dram::DramDevice;
use pagetable::addr::PhysAddr;
use pagetable::memory::PhysMem;
use ptguard::engine::ReadVerdict;
use ptguard::line::Line;
use ptguard::PtGuardEngine;

use crate::config::clock;
use crate::fullmac::FullMemoryMac;

/// Number of buckets in [`ControllerStats::mac_batch_hist`]: batch sizes
/// 1, 2, 3-4, 5-8, 9-16, and >16.
pub const MAC_BATCH_BUCKETS: usize = 6;

/// FR-FCFS age cap: a queued request may be bypassed by younger row-hit
/// requests at most this many times before the scheduler picks it
/// unconditionally. Without the cap an adversarial row-hit stream (the
/// Blockhammer-style throttling pattern) starves a row-miss request for the
/// whole drain. The cap is larger than any pipeline window the drivers use
/// (`mlp ≤ 4`), so ordinary windows never hit it and pinned cycle totals
/// are unchanged.
pub const FR_FCFS_BYPASS_CAP: u32 = 4;

/// Controller statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ControllerStats {
    /// DRAM line reads served.
    pub reads: u64,
    /// DRAM line writes served.
    pub writes: u64,
    /// Reads tagged `is_pte` (page-table walks reaching DRAM).
    pub pte_reads: u64,
    /// Reads whose walk-time integrity check failed.
    pub check_failures: u64,
    /// Extra cycles added by MAC work on the read path.
    pub mac_cycles_added: u64,
    /// High-water mark of reads outstanding in the read queue.
    pub queue_occupancy_hwm: u64,
    /// Histogram of MAC verification batch sizes per drain step
    /// (buckets: 1, 2, 3-4, 5-8, 9-16, >16). Drains whose every read takes
    /// a shortcut (CTB / identifier skip / MAC-zero) record nothing.
    pub mac_batch_hist: [u64; MAC_BATCH_BUCKETS],
}

impl ControllerStats {
    /// Accumulates another controller's stats into this one (counters sum,
    /// the occupancy high-water mark takes the max). The multi-channel
    /// system reports its total as the fold of every channel over this, so
    /// "sum of per-channel counters == system total" holds by construction
    /// and is pinned by a reconciliation test.
    pub fn absorb(&mut self, other: &ControllerStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.pte_reads += other.pte_reads;
        self.check_failures += other.check_failures;
        self.mac_cycles_added += other.mac_cycles_added;
        self.queue_occupancy_hwm = self.queue_occupancy_hwm.max(other.queue_occupancy_hwm);
        for (b, o) in self.mac_batch_hist.iter_mut().zip(&other.mac_batch_hist) {
            *b += o;
        }
    }
}

/// A read waiting in the read queue.
#[derive(Debug, Clone, Copy)]
struct QueuedRead {
    id: u64,
    addr: PhysAddr,
    bank: u32,
    is_pte: bool,
    /// Times a younger row-hit request was scheduled past this one
    /// (FR-FCFS age; see [`FR_FCFS_BYPASS_CAP`]).
    bypassed: u32,
}

/// A queued read after its DRAM service, before MAC verification.
#[derive(Debug, Clone, Copy)]
struct ServicedRead {
    id: u64,
    addr: PhysAddr,
    is_pte: bool,
    dram_ps: u128,
    raw: Line,
}

/// Scratch buffers reused across [`MemoryController::drain_reads`] calls so
/// a steady-state drain performs no heap allocation (the MAC batch itself
/// runs on stack buffers for any realistic window — see
/// [`ptguard::mac::PteMac::compute_batch_into`]).
#[derive(Debug, Default)]
struct DrainScratch {
    serviced: Vec<ServicedRead>,
    macs: Vec<Option<u128>>,
    needing: Vec<usize>,
    items: Vec<(Line, PhysAddr)>,
    computed: Vec<u128>,
    /// Parallel to one bank's run of the read queue: whether the slot
    /// has been scheduled.
    taken: Vec<bool>,
}

/// Result of a DRAM line read.
#[derive(Debug, Clone, Copy)]
pub struct DramRead {
    /// The line as forwarded to the cache hierarchy (MAC stripped when a
    /// protected line verified). Not meaningful when `verdict` is
    /// [`ReadVerdict::CheckFailed`].
    pub line: Line,
    /// Total read latency in CPU cycles (DRAM timing + MAC work).
    pub latency_cycles: u64,
    /// The portion of `latency_cycles` spent on MAC computation in the
    /// controller — it delays the requester but does *not* occupy the DRAM
    /// channel (multi-core models must not serialize on it).
    pub mac_cycles: u64,
    /// The PT-Guard verdict ([`ReadVerdict::Forwarded`] when the controller
    /// has no engine).
    pub verdict: ReadVerdict,
    /// DRAM service finish relative to this controller's drain epoch, in
    /// integer picoseconds (bank wait + service, plus any MAC-table fetch;
    /// excludes MAC computation cycles). The multi-channel system merges
    /// per-channel drains on `(dram_ps, channel, id)` — a pure integer key,
    /// identical across hosts.
    pub dram_ps: u128,
}

/// A DDR memory controller with an optional PT-Guard engine on its
/// read/write datapath.
#[derive(Debug)]
pub struct MemoryController {
    device: DramDevice,
    engine: Option<PtGuardEngine>,
    full_mac: Option<FullMemoryMac>,
    stats: ControllerStats,
    /// Reads waiting for the next drain, in arrival order.
    queue: Vec<QueuedRead>,
    /// Monotonic request id; doubles as the FCFS age tiebreaker.
    next_req_id: u64,
    /// Reusable drain buffers (see [`DrainScratch`]).
    scratch: DrainScratch,
}

impl MemoryController {
    /// Creates a controller over `device`; `engine` enables PT-Guard.
    #[must_use]
    pub fn new(device: DramDevice, engine: Option<PtGuardEngine>) -> Self {
        Self {
            device,
            engine,
            full_mac: None,
            stats: ControllerStats::default(),
            queue: Vec::new(),
            next_req_id: 0,
            scratch: DrainScratch::default(),
        }
    }

    /// Creates a controller with SGX/Synergy-style *whole-memory* integrity
    /// instead of PT-Guard: a separate in-DRAM MAC table (12.5 % storage)
    /// consulted on every data read/write, with a 64-entry MAC cache — the
    /// conventional design PT-Guard's introduction argues against.
    #[must_use]
    pub fn with_full_memory_mac(device: DramDevice) -> Self {
        let full_mac = Some(FullMemoryMac::new(device.size()));
        Self {
            full_mac,
            ..Self::new(device, None)
        }
    }

    /// The full-memory integrity engine, if mounted.
    #[must_use]
    pub fn full_mac(&self) -> Option<&FullMemoryMac> {
        self.full_mac.as_ref()
    }

    /// Serves a line read. `is_pte` is the request-bus walk tag.
    ///
    /// DRAM time is accumulated in integer picoseconds and converted to
    /// cycles once; MAC work is native to the cycle domain and added after
    /// that conversion. `stats.mac_cycles_added` is accumulated at a single
    /// point from the same `mac_cycles` the returned [`DramRead`] carries,
    /// so the stat equals the sum of per-read `mac_cycles` in every mode.
    pub fn read_line(&mut self, addr: PhysAddr, is_pte: bool) -> DramRead {
        self.device.tap_pte_hint(is_pte);
        let dram_ps = self.device.access_ps(addr, false);
        let raw = Line::from_bytes(&self.device.read_line(addr));
        self.finish_read(addr, is_pte, dram_ps, raw, None)
    }

    /// The shared tail of a line read: PT-Guard / full-memory-MAC
    /// verification and stat accounting for a line whose DRAM service
    /// (`dram_ps`) and raw contents (`raw`) are already known. Both
    /// [`Self::read_line`] and the drain end here; `precomputed_mac`
    /// carries the batched MAC when the drain already computed it.
    fn finish_read(
        &mut self,
        addr: PhysAddr,
        is_pte: bool,
        mut dram_ps: u128,
        raw: Line,
        precomputed_mac: Option<u128>,
    ) -> DramRead {
        self.stats.reads += 1;
        if is_pte {
            self.stats.pte_reads += 1;
        }
        let mut mac_cycles = 0u64;
        let (mut line, mut verdict) = match &mut self.engine {
            Some(engine) => {
                let out = engine.process_read_with(raw, addr, is_pte, precomputed_mac);
                mac_cycles += u64::from(out.added_latency_cycles);
                (out.line, out.verdict)
            }
            None => (raw, ReadVerdict::Forwarded),
        };
        // Whole-memory integrity: fetch + verify the separate MAC
        // (Sections I / VIII-D baseline).
        if let Some(fm) = &mut self.full_mac {
            if addr.line_addr().as_u64() < fm.table_base() {
                let slot = fm.slot_addr(addr);
                let hit = fm.cache_access(slot);
                if !hit {
                    self.device.tap_pte_hint(false);
                    dram_ps += self.device.access_ps(slot, false);
                }
                // MAC computation latency, same 10 cycles as PT-Guard's,
                // charged on hits and misses alike — the cache saves only
                // the table fetch, never the check itself.
                mac_cycles += 10;
                let stored = self.device.read_u64(slot);
                let computed = fm.line_mac(&raw, addr);
                let ok = if stored == 0 {
                    // First touch: initialize the table entry.
                    self.device.write_u64(slot, computed);
                    true
                } else {
                    stored == computed
                };
                fm.note_read(hit, ok);
                if !ok {
                    line = raw;
                    verdict = ReadVerdict::CheckFailed;
                }
            }
        }
        if verdict == ReadVerdict::CheckFailed {
            self.stats.check_failures += 1;
        }
        self.stats.mac_cycles_added += mac_cycles;
        DramRead {
            line,
            latency_cycles: clock::ps_to_cycles(dram_ps, clock::CORE_KHZ) + mac_cycles,
            mac_cycles,
            verdict,
            dram_ps,
        }
    }

    /// Queues a line read and returns its request id. The read is
    /// serviced — and its result returned — by the next
    /// [`Self::drain_reads`] call.
    pub fn enqueue_read(&mut self, addr: PhysAddr, is_pte: bool) -> u64 {
        let id = self.next_req_id;
        self.next_req_id += 1;
        self.queue.push(QueuedRead {
            id,
            addr,
            bank: self.device.geometry().row_of(addr).bank,
            is_pte,
            bypassed: 0,
        });
        self.stats.queue_occupancy_hwm =
            self.stats.queue_occupancy_hwm.max(self.queue.len() as u64);
        id
    }

    /// Whether any read is waiting in the read queue.
    #[must_use]
    pub fn has_queued_reads(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Services every queued read and appends `(request id, result)` pairs
    /// to `out` in deterministic completion order. The caller's buffer (and
    /// the controller's internal scratch) keep their capacity across calls,
    /// so a steady-state drain allocates nothing.
    ///
    /// Scheduling: all banks drain concurrently from a common epoch `t0`
    /// (the device clock at drain entry, integer ps). Within a bank,
    /// requests are picked FR-FCFS — the oldest request hitting the
    /// currently open row first, else the oldest request — subject to the
    /// [`FR_FCFS_BYPASS_CAP`] age cap, and chain through the bank's
    /// busy-until time, so same-bank requests serialise while different
    /// banks overlap. Completion order is `(service finish in integer ps,
    /// request id)`: pure integer comparison, so it is identical across
    /// hosts and `--jobs` values.
    ///
    /// MAC verification is batched: every serviced read that will reach full
    /// verification (per [`PtGuardEngine::read_needs_mac`]) contributes its
    /// four chunk encryptions to one
    /// [`ptguard::mac::PteMac::compute_batch_into`] call, and the result is
    /// fed back through the normal per-read verify path.
    pub fn drain_reads(&mut self, out: &mut Vec<(u64, DramRead)>) {
        let t0 = self.device.now_ps();
        let mut s = std::mem::take(&mut self.scratch);
        s.serviced.clear();
        // A stable sort by bank gives each bank one run, in ascending bank
        // order, with its reads still in arrival order.
        let mut queue = std::mem::take(&mut self.queue);
        queue.sort_by_key(|q| q.bank);
        for bankq in queue.chunk_by_mut(|a, b| a.bank == b.bank) {
            let bank = bankq[0].bank as usize;
            // Picks are *marked* in a parallel `taken` bitmap instead of
            // extracted mid-run. Slots stay in arrival order, every scan
            // starts at the oldest live slot, and ids are monotonic, so the
            // first row match is the oldest one and same-row requests keep
            // exact FIFO order.
            s.taken.clear();
            s.taken.resize(bankq.len(), false);
            let mut head = 0;
            let mut remaining = bankq.len();
            while remaining > 0 {
                while s.taken[head] {
                    head += 1;
                }
                // FR-FCFS with an age cap. Re-evaluated after every service
                // because each activation moves the open row. Once the
                // oldest live request has been bypassed
                // [`FR_FCFS_BYPASS_CAP`] times it is scheduled
                // unconditionally; the head is always the most-bypassed
                // live request (every bypass that aged a younger request
                // also aged the head), so capping the head caps the queue.
                let open = self.device.open_row(bank);
                let pick = if bankq[head].bypassed >= FR_FCFS_BYPASS_CAP {
                    head
                } else {
                    open.and_then(|row| {
                        (head..bankq.len()).find(|&i| {
                            !s.taken[i] && self.device.geometry().row_of(bankq[i].addr).row == row
                        })
                    })
                    .unwrap_or(head)
                };
                for (q, &taken) in bankq[head..pick].iter_mut().zip(&s.taken[head..pick]) {
                    if !taken {
                        q.bypassed += 1;
                    }
                }
                s.taken[pick] = true;
                remaining -= 1;
                let q = bankq[pick];
                self.device.tap_pte_hint(q.is_pte);
                let t = self.device.service_at(q.addr, false, t0);
                let dram_ps = t.wait_ps + t.latency_ps;
                // The raw line must be read *immediately* after this
                // request's own service: the activation may have flipped
                // bits (Rowhammer), and `read_line` reads right after its
                // access — later requests' disturbance must not leak
                // backwards into this one.
                let raw = Line::from_bytes(&self.device.read_line(q.addr));
                s.serviced.push(ServicedRead {
                    id: q.id,
                    addr: q.addr,
                    is_pte: q.is_pte,
                    dram_ps,
                    raw,
                });
            }
        }
        queue.clear();
        self.queue = queue;
        if s.serviced.len() > 1 {
            s.serviced.sort_by_key(|r| (r.dram_ps, r.id));
        }

        // One MAC batch over every read that will reach full verification.
        s.macs.clear();
        s.macs.resize(s.serviced.len(), None);
        if let Some(engine) = &self.engine {
            s.needing.clear();
            s.items.clear();
            for (i, r) in s.serviced.iter().enumerate() {
                if engine.read_needs_mac(&r.raw, r.addr, r.is_pte) {
                    s.needing.push(i);
                    s.items.push((r.raw, r.addr));
                }
            }
            if !s.needing.is_empty() {
                s.computed.clear();
                engine
                    .mac_unit()
                    .compute_batch_into(&s.items, &mut s.computed);
                for (&i, &mac) in s.needing.iter().zip(&s.computed) {
                    s.macs[i] = Some(mac);
                }
                let bucket = match s.needing.len() {
                    1 => 0,
                    2 => 1,
                    3..=4 => 2,
                    5..=8 => 3,
                    9..=16 => 4,
                    _ => 5,
                };
                self.stats.mac_batch_hist[bucket] += 1;
            }
        }

        out.reserve(s.serviced.len());
        for (r, mac) in s.serviced.iter().zip(&s.macs) {
            let read = self.finish_read(r.addr, r.is_pte, r.dram_ps, r.raw, *mac);
            out.push((r.id, read));
        }
        self.scratch = s;
    }

    /// Serves a line write (cache writeback or OS store drain).
    pub fn write_line(&mut self, addr: PhysAddr, line: Line) {
        self.stats.writes += 1;
        let stored = match &mut self.engine {
            Some(engine) => engine.process_write(line, addr).line,
            None => line,
        };
        self.device.tap_pte_hint(false);
        let _ = self.device.access_ps(addr, true);
        self.device.write_line(addr, &stored.to_bytes());
        // Whole-memory integrity: keep the MAC table in sync (off the
        // critical path, but it is real DRAM traffic).
        if let Some(fm) = &mut self.full_mac {
            if addr.line_addr().as_u64() < fm.table_base() {
                let slot = fm.slot_addr(addr);
                let hit = fm.cache_access(slot);
                fm.note_write(hit);
                let computed = fm.line_mac(&stored, addr);
                let _ = self.device.access_ps(slot, true);
                self.device.write_u64(slot, computed);
            }
        }
    }

    /// The DRAM device.
    #[must_use]
    pub fn device(&self) -> &DramDevice {
        &self.device
    }

    /// Mutable DRAM device access (fault injection, hammering).
    pub fn device_mut(&mut self) -> &mut DramDevice {
        &mut self.device
    }

    /// The PT-Guard engine, if mounted.
    #[must_use]
    pub fn engine(&self) -> Option<&PtGuardEngine> {
        self.engine.as_ref()
    }

    /// Statistics.
    #[must_use]
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram::{RowId, RowhammerConfig};
    use ptguard::PtGuardConfig;

    fn pte_line() -> Line {
        Line::from_words([0x1234_5027, 0x1235_5027, 0, 0, 0, 0, 0, 0])
    }

    fn controller(guarded: bool) -> MemoryController {
        let device = DramDevice::ddr4_4gb(RowhammerConfig::immune());
        let engine = guarded.then(|| PtGuardEngine::new(PtGuardConfig::default()));
        MemoryController::new(device, engine)
    }

    #[test]
    fn write_then_read_roundtrip_with_engine() {
        let mut mc = controller(true);
        let addr = PhysAddr::new(0x1_0000);
        mc.write_line(addr, pte_line());
        // In DRAM the line carries the MAC.
        let in_dram = Line::from_bytes(&mc.device().read_line(addr));
        assert_ne!(in_dram, pte_line());
        // Through the controller it comes back stripped and verified.
        let r = mc.read_line(addr, true);
        assert_eq!(r.verdict, ReadVerdict::Verified);
        assert_eq!(r.line, pte_line());
        assert!(r.latency_cycles > 10, "must include DRAM latency plus MAC");
    }

    #[test]
    fn unguarded_controller_is_transparent() {
        let mut mc = controller(false);
        let addr = PhysAddr::new(0x2_0000);
        mc.write_line(addr, pte_line());
        assert_eq!(Line::from_bytes(&mc.device().read_line(addr)), pte_line());
        let r = mc.read_line(addr, true);
        assert_eq!(r.verdict, ReadVerdict::Forwarded);
        assert_eq!(r.line, pte_line());
    }

    #[test]
    fn full_memory_mac_roundtrips_and_detects_tampering() {
        let device = DramDevice::ddr4_4gb(RowhammerConfig::immune());
        let mut mc = MemoryController::with_full_memory_mac(device);
        let addr = PhysAddr::new(0x5_0000);
        let data = Line::from_words([u64::MAX, 1, 2, 3, 4, 5, 6, 7]);
        mc.write_line(addr, data);
        // Clean read verifies against the table and forwards the data.
        let r = mc.read_line(addr, false);
        assert!(r.verdict.is_ok());
        assert_eq!(r.line, data);
        // A Rowhammer flip in the *data* is caught...
        {
            let dev = mc.device_mut();
            let raw = dev.read_u64(addr);
            dev.write_u64(addr, raw ^ (1 << 7));
        }
        let r = mc.read_line(addr, false);
        assert_eq!(r.verdict, ReadVerdict::CheckFailed);
        // ...restore, then a flip in the *MAC table* is caught too.
        {
            let dev = mc.device_mut();
            let raw = dev.read_u64(addr);
            dev.write_u64(addr, raw ^ (1 << 7));
            let slot = mc.full_mac().unwrap().slot_addr(addr);
            let dev = mc.device_mut();
            let m = dev.read_u64(slot);
            dev.write_u64(slot, m ^ 1);
        }
        let r = mc.read_line(addr, false);
        assert_eq!(r.verdict, ReadVerdict::CheckFailed);
        assert_eq!(mc.full_mac().unwrap().stats().failures, 2);
    }

    #[test]
    fn full_memory_mac_charges_extra_latency_on_cache_misses() {
        let device = DramDevice::ddr4_4gb(RowhammerConfig::immune());
        let mut unprotected =
            MemoryController::new(DramDevice::ddr4_4gb(RowhammerConfig::immune()), None);
        let mut mc = MemoryController::with_full_memory_mac(device);
        // Scatter reads so the 64-entry MAC cache keeps missing (stride of
        // 512 data lines = one MAC line each).
        let (mut plain_total, mut mac_total) = (0u64, 0u64);
        for i in 0..128u64 {
            let a = PhysAddr::new(0x10_0000 + i * 64 * 512);
            plain_total += unprotected.read_line(a, false).latency_cycles;
            mac_total += mc.read_line(a, false).latency_cycles;
        }
        assert!(
            mac_total as f64 > 1.5 * plain_total as f64,
            "expected ~2x latency from MAC-table fetches: {mac_total} vs {plain_total}"
        );
    }

    #[test]
    fn mac_cycle_stat_reconciles_with_per_read_cycles() {
        // `stats.mac_cycles_added` must equal the sum of per-read
        // `mac_cycles` under PT-Guard and under full-memory MAC — including
        // failing reads, and with MAC-cache hits not double-counted.
        let mut guarded = controller(true);
        let mut total = 0u64;
        for i in 0..32u64 {
            let addr = PhysAddr::new(0x1_0000 + i * 64);
            guarded.write_line(addr, pte_line());
            total += guarded.read_line(addr, true).mac_cycles;
            total += guarded.read_line(addr, false).mac_cycles;
        }
        // A tampered read still charges its MAC work.
        let addr = PhysAddr::new(0x1_0000);
        let mut raw = Line::from_bytes(&guarded.device().read_line(addr));
        raw.set_word(0, raw.word(0) ^ (1 << 14));
        raw.set_word(1, raw.word(1) ^ (1 << 17));
        raw.set_word(3, raw.word(3) ^ (1 << 20));
        let bytes = raw.to_bytes();
        guarded.device_mut().write_line(addr, &bytes);
        let r = guarded.read_line(addr, true);
        assert_eq!(r.verdict, ReadVerdict::CheckFailed);
        total += r.mac_cycles;
        assert_eq!(guarded.stats().mac_cycles_added, total);

        let device = DramDevice::ddr4_4gb(RowhammerConfig::immune());
        let mut fm = MemoryController::with_full_memory_mac(device);
        let mut total = 0u64;
        for i in 0..32u64 {
            let addr = PhysAddr::new(0x5_0000 + i * 64);
            fm.write_line(addr, pte_line());
            // Second read is a MAC-cache hit: still 10 cycles of MAC
            // computation, no second accumulation path.
            total += fm.read_line(addr, false).mac_cycles;
            total += fm.read_line(addr, false).mac_cycles;
        }
        // Tamper so the full-MAC check fails; the failing read must also
        // land in the stat exactly once.
        let addr = PhysAddr::new(0x5_0000);
        let word = fm.device().read_u64(addr);
        fm.device_mut().write_u64(addr, word ^ (1 << 7));
        let r = fm.read_line(addr, false);
        assert_eq!(r.verdict, ReadVerdict::CheckFailed);
        total += r.mac_cycles;
        assert_eq!(fm.stats().mac_cycles_added, total);
    }

    #[test]
    fn row_miss_is_scheduled_after_at_most_cap_bypasses() {
        // Regression test for FR-FCFS starvation: pre-fix, the scheduler
        // preferred row hits with no age bound, so a row-miss request behind
        // an adversarial row-hit stream was serviced dead last.
        let mut mc = controller(false);
        // Open row 0 of bank 0.
        mc.read_line(PhysAddr::new(0), false);
        let stride = 16u64 * 8192; // same-bank neighbour-row stride
        let miss = mc.enqueue_read(PhysAddr::new(stride), false);
        for i in 1..=8u64 {
            mc.enqueue_read(PhysAddr::new(i * 64), false);
        }
        let mut out = Vec::new();
        mc.drain_reads(&mut out);
        assert_eq!(out.len(), 9);
        let pos = out.iter().position(|(id, _)| *id == miss).unwrap();
        assert_eq!(
            pos, FR_FCFS_BYPASS_CAP as usize,
            "row miss must be scheduled after exactly the bypass cap, not starved to position {pos}"
        );
    }

    #[test]
    fn same_row_requests_retain_fifo_order() {
        // The swap-free pick scheme must keep exact FIFO (age) order among
        // requests to the same row, interleaved rows notwithstanding.
        let mut mc = controller(false);
        mc.read_line(PhysAddr::new(0), false); // open row 0 of bank 0
        let stride = 16u64 * 8192;
        let ids = [
            mc.enqueue_read(PhysAddr::new(64), false),          // row 0
            mc.enqueue_read(PhysAddr::new(stride), false),      // row 1
            mc.enqueue_read(PhysAddr::new(128), false),         // row 0
            mc.enqueue_read(PhysAddr::new(stride + 64), false), // row 1
            mc.enqueue_read(PhysAddr::new(192), false),         // row 0
            mc.enqueue_read(PhysAddr::new(256), false),         // row 0
        ];
        let mut out = Vec::new();
        mc.drain_reads(&mut out);
        assert_eq!(out.len(), ids.len());
        for row_ids in [
            [ids[0], ids[2], ids[4], ids[5]].as_slice(),
            [ids[1], ids[3]].as_slice(),
        ] {
            let pos: Vec<usize> = row_ids
                .iter()
                .map(|id| out.iter().position(|(o, _)| o == id).unwrap())
                .collect();
            assert!(
                pos.windows(2).all(|w| w[0] < w[1]),
                "same-row FIFO order violated: {pos:?}"
            );
        }
    }

    #[test]
    fn drain_services_banks_in_ascending_order_fifo_within_each() {
        // Reads to distinct rows arrive with their banks out of order. The
        // drain must activate bank 0's row, then bank 1's rows, then bank
        // 3's, each bank's in arrival order.
        let mut mc = controller(false);
        let geometry = *mc.device().geometry();
        for (bank, row) in [(3, 10), (1, 20), (3, 30), (0, 40), (1, 50)] {
            mc.enqueue_read(geometry.row_base(RowId { bank, row }), false);
        }
        mc.device_mut().set_activation_tap(true);
        let mut out = Vec::new();
        mc.drain_reads(&mut out);
        assert_eq!(out.len(), 5);
        let mut tap = Vec::new();
        mc.device_mut().drain_activations(&mut tap);
        let serviced: Vec<(u32, u32)> = tap.iter().map(|(r, _)| (r.bank, r.row)).collect();
        assert_eq!(serviced, [(0, 40), (1, 20), (1, 50), (3, 10), (3, 30)]);
    }

    #[test]
    fn tampered_walk_read_raises_check_failure() {
        let mut mc = controller(true);
        let addr = PhysAddr::new(0x3_0000);
        mc.write_line(addr, pte_line());
        // Direct DRAM tamper (as Rowhammer would): flip a protected PFN bit
        // plus enough damage that correction cannot save it (3 scattered
        // PFN-in-use flips across entries with non-contiguous PFNs).
        let mut raw = Line::from_bytes(&mc.device().read_line(addr));
        raw.set_word(0, raw.word(0) ^ (1 << 14));
        raw.set_word(1, raw.word(1) ^ (1 << 17));
        raw.set_word(3, raw.word(3) ^ (1 << 20));
        let bytes = raw.to_bytes();
        mc.device_mut().write_line(addr, &bytes);
        let r = mc.read_line(addr, true);
        assert_eq!(r.verdict, ReadVerdict::CheckFailed);
        assert_eq!(mc.stats().check_failures, 1);
    }
}
