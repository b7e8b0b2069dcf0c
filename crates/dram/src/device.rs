//! The DRAM device: backing store, bank state, and disturbance application.

use std::collections::HashMap;

use pagetable::addr::PhysAddr;
use pagetable::memory::PhysMem;

use crate::geometry::{DramGeometry, RowId};
use crate::rowhammer::{weak_cells_for_row, RowhammerConfig, WeakCell};
use crate::timing::DramTiming;

/// How an activation was triggered — the provenance axis the attacker
/// subsystem reasons over. PThammer's whole point is that `Walk`
/// activations are indistinguishable from `Demand` ones to software-only
/// trackers, and Half-Double's is that `Refresh` activations disturb
/// neighbours just like any other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivationKind {
    /// Explicit attacker access ([`DramDevice::hammer`]).
    Explicit,
    /// Demand access to a data line (cache miss reaching DRAM).
    Demand,
    /// Implicit access by a page-table walk (a PTE line read).
    Walk,
    /// Mitigation- or refresh-logic-issued refresh ([`DramDevice::refresh_row`]).
    Refresh,
}

/// A recorded bit flip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlipRecord {
    /// Byte address of the flipped cell.
    pub addr: PhysAddr,
    /// Bit index within that byte.
    pub bit_in_byte: u8,
    /// The victim row.
    pub row: RowId,
    /// Value before the flip (true cells record `true` here).
    pub from: bool,
    /// Device time of the flip, in integer picoseconds.
    pub time_ps: u128,
}

/// Running statistics of the device.
#[derive(Debug, Clone, Default)]
pub struct DramStats {
    /// Total row activations (attacker + demand).
    pub activations: u64,
    /// Accesses that hit the open row.
    pub row_hits: u64,
    /// Accesses that required an activation.
    pub row_misses: u64,
    /// Mitigation- or refresh-logic-issued row refreshes.
    pub row_refreshes: u64,
    /// Completed global refresh windows.
    pub refresh_windows: u64,
    /// Completed distributed-refresh slices (one tREFI each).
    pub refresh_slices: u64,
    /// Total bit flips injected by disturbance.
    pub total_flips: u64,
    /// Row hits per bank (sized to the geometry at construction).
    pub per_bank_row_hits: Vec<u64>,
    /// Row misses per bank (sized to the geometry at construction).
    pub per_bank_row_misses: Vec<u64>,
}

/// Timing of one scheduled access: how long the request waited for its bank
/// plus the bank-state-dependent service latency, both in integer
/// picoseconds. The blocking path sees `wait_ps == 0` exactly (the bank is
/// always free when each access is the only one outstanding), so
/// `wait_ps + latency_ps` reproduces the blocking
/// [`DramDevice::access_ps`] return value bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceTiming {
    /// Time spent queued behind earlier work on the same bank, in ps.
    pub wait_ps: u128,
    /// Bank service latency (row hit / conflict / closed), in ps.
    pub latency_ps: u128,
}

/// Lines per chunk of the backing store: 1,024 × 64 B = 64 KiB.
const CHUNK_LINES: usize = 1024;

/// Sparse backing store of 64-byte lines. A line's bytes sit in a slot of
/// a fixed chunk, allocated whole and never reallocated, so a stored line
/// never moves and growing the index moves only its 16-byte buckets.
/// Slots are handed out in order of first write, so every chunk but the
/// last is full. A slot is a `u32`: a 4 GB device has 2^26 lines.
#[derive(Debug, Default)]
struct LineStore {
    /// Line number (`addr >> 6`) → slot.
    slots: HashMap<u64, u32>,
    /// Slot `s` is line `s % CHUNK_LINES` of chunk `s / CHUNK_LINES`.
    chunks: Vec<Box<[[u8; 64]]>>,
}

impl LineStore {
    /// The stored line `line`, if it was ever written.
    fn get(&self, line: u64) -> Option<&[u8; 64]> {
        let s = *self.slots.get(&line)? as usize;
        Some(&self.chunks[s / CHUNK_LINES][s % CHUNK_LINES])
    }

    /// The stored line `line`, given the next slot (zeros) on first use.
    fn get_or_insert(&mut self, line: u64) -> &mut [u8; 64] {
        let fresh = self.slots.len();
        let chunks = &mut self.chunks;
        let s = *self.slots.entry(line).or_insert_with(|| {
            if fresh.is_multiple_of(CHUNK_LINES) {
                chunks.push(vec![[0; 64]; CHUNK_LINES].into_boxed_slice());
            }
            u32::try_from(fresh).expect("a device holds at most 2^32 lines")
        }) as usize;
        &mut self.chunks[s / CHUNK_LINES][s % CHUNK_LINES]
    }
}

/// A DRAM device with open-row bank state and Rowhammer disturbance.
///
/// Functional reads and writes go through [`PhysMem`] and are untimed. The
/// store is line-granular: a line or an aligned word is written with one
/// row lookup, which re-arms the weak cells under the written bytes, and
/// one lookup into the sparse line store, never byte by byte.
/// [`DramDevice::access_ps`] and [`DramDevice::service_at`] additionally
/// model bank timing, advance the device clock, apply disturbance, and
/// handle refresh-window expiry.
///
/// Device time is integer picoseconds throughout: [`DramDevice::now_ps`]
/// reads the clock, and [`DramDevice::advance_time_ps`] is the one way to
/// move it other than an access.
#[derive(Debug)]
pub struct DramDevice {
    geometry: DramGeometry,
    timing: DramTiming,
    rh: RowhammerConfig,
    /// Sparse backing store: a line's 64 bytes are allocated on its first
    /// write or flip. A line never written reads as zeros.
    store: LineStore,
    capacity: u64,
    open_row: Vec<Option<u32>>,
    /// Per-bank time (integer ps) at which the bank finishes its last
    /// scheduled access. Integer so long same-bank chains never drift: an
    /// f64 chain at a large clock value rounds every partial sum to the
    /// (coarse) ulp, which at 2^53 ps is already more than a core cycle.
    busy_until_ps: Vec<u128>,
    pressure: HashMap<RowId, f64>,
    weak_cells: HashMap<RowId, Vec<WeakCell>>,
    flips: Vec<FlipRecord>,
    stats: DramStats,
    /// Device clock in integer picoseconds.
    now_ps: u128,
    /// Start of the current distributed-refresh slice, in ps.
    window_start_ps: u128,
    /// Index of the next distributed-refresh slice (0..8192).
    ref_slice: u64,
    /// Whether activations are recorded into `tap` (off by default).
    tap_enabled: bool,
    /// Recorded activations since the last drain (only when tapped).
    tap: Vec<(RowId, ActivationKind)>,
    /// Provenance attributed to the next demand accesses (`service_at`):
    /// `Walk` while the controller is servicing a PTE line, else `Demand`.
    demand_kind: ActivationKind,
}

impl DramDevice {
    /// Creates a device with the given organisation, timing, and
    /// vulnerability profile. Contents are zero-initialised.
    ///
    /// # Panics
    ///
    /// Panics if a row is not a whole number of 64-byte lines (the store
    /// writes a line with one row lookup, so a line must never cross a row).
    #[must_use]
    pub fn new(geometry: DramGeometry, timing: DramTiming, rh: RowhammerConfig) -> Self {
        assert_eq!(
            geometry.row_bytes % 64,
            0,
            "row size must be a whole number of 64-byte lines"
        );
        Self {
            store: LineStore::default(),
            capacity: geometry.capacity(),
            open_row: vec![None; geometry.banks as usize],
            busy_until_ps: vec![0; geometry.banks as usize],
            pressure: HashMap::new(),
            weak_cells: HashMap::new(),
            flips: Vec::new(),
            stats: DramStats {
                per_bank_row_hits: vec![0; geometry.banks as usize],
                per_bank_row_misses: vec![0; geometry.banks as usize],
                ..DramStats::default()
            },
            now_ps: 0,
            window_start_ps: 0,
            ref_slice: 0,
            tap_enabled: false,
            tap: Vec::new(),
            demand_kind: ActivationKind::Demand,
            geometry,
            timing,
            rh,
        }
    }

    /// A default 4 GB DDR4 device with the given vulnerability profile.
    #[must_use]
    pub fn ddr4_4gb(rh: RowhammerConfig) -> Self {
        Self::new(DramGeometry::default(), DramTiming::default(), rh)
    }

    /// Device geometry.
    #[must_use]
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// Device timing.
    #[must_use]
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    /// Current device time in integer picoseconds.
    #[must_use]
    pub fn now_ps(&self) -> u128 {
        self.now_ps
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// All disturbance flips injected so far.
    #[must_use]
    pub fn flips(&self) -> &[FlipRecord] {
        &self.flips
    }

    /// Enables or disables the activation tap. Off by default; while off,
    /// activations leave no trace beyond the aggregate stats, so untapped
    /// callers see bit-identical behaviour and cost. Disabling clears any
    /// undrained entries.
    pub fn set_activation_tap(&mut self, enabled: bool) {
        self.tap_enabled = enabled;
        if !enabled {
            self.tap.clear();
        }
    }

    /// Drains recorded activations (in occurrence order) into `out`.
    pub fn drain_activations(&mut self, out: &mut Vec<(RowId, ActivationKind)>) {
        out.append(&mut self.tap);
    }

    /// Marks whether upcoming demand accesses ([`DramDevice::service_at`])
    /// are page-table-walk reads (`Walk`) or ordinary data traffic
    /// (`Demand`). The memory controller sets this per request; it only
    /// affects tap attribution, never timing or disturbance.
    pub fn tap_pte_hint(&mut self, is_pte: bool) {
        self.demand_kind = if is_pte {
            ActivationKind::Walk
        } else {
            ActivationKind::Demand
        };
    }

    /// Current disturbance pressure on `row`.
    #[must_use]
    pub fn pressure(&self, row: RowId) -> f64 {
        self.pressure.get(&row).copied().unwrap_or(0.0)
    }

    /// The weak cells of `row` (lazily derived; read-only view).
    pub fn weak_cells(&mut self, row: RowId) -> &[WeakCell] {
        let (cfg, bits) = (&self.rh, self.geometry.row_bits());
        self.weak_cells
            .entry(row)
            .or_insert_with(|| weak_cells_for_row(cfg, row, bits))
    }

    /// A timed access: models bank state (row hit/miss), applies disturbance
    /// from any activation, advances time, and returns the latency in
    /// integer picoseconds.
    pub fn access_ps(&mut self, addr: PhysAddr, write: bool) -> u128 {
        let t = self.service_at(addr, write, self.now_ps);
        t.wait_ps + t.latency_ps
    }

    /// A timed access scheduled at or after `earliest_ps`: the request waits
    /// for its bank to go idle (per-bank busy-until state), then services
    /// with the usual row-hit/conflict/closed latency, disturbing neighbours
    /// on any activation and advancing the device clock by the service
    /// latency.
    ///
    /// The controller's drains go through here, so requests to
    /// different banks overlap (each bank's busy-until chains independently
    /// from the drain epoch) while same-bank requests serialise. A request
    /// issued at `earliest_ps == busy_until_ps[bank]` (the blocking case)
    /// waits exactly `0` ps — computed by comparison, never subtraction —
    /// which keeps the blocking path bit-identical to the pre-pipeline
    /// device.
    pub fn service_at(&mut self, addr: PhysAddr, _write: bool, earliest_ps: u128) -> ServiceTiming {
        let row = self.geometry.row_of(addr);
        let bank = row.bank as usize;
        let busy = self.busy_until_ps[bank];
        let begin = if busy <= earliest_ps {
            earliest_ps
        } else {
            busy
        };
        let wait_ps = begin - earliest_ps;
        let latency_ps = match self.open_row[bank] {
            Some(open) if open == row.row => {
                self.stats.row_hits += 1;
                self.stats.per_bank_row_hits[bank] += 1;
                self.timing.row_hit_ps()
            }
            Some(_) => {
                self.stats.row_misses += 1;
                self.stats.per_bank_row_misses[bank] += 1;
                self.open_row[bank] = Some(row.row);
                self.activate(row, self.demand_kind);
                self.timing.row_conflict_ps()
            }
            None => {
                self.stats.row_misses += 1;
                self.stats.per_bank_row_misses[bank] += 1;
                self.open_row[bank] = Some(row.row);
                self.activate(row, self.demand_kind);
                self.timing.row_closed_ps()
            }
        };
        self.busy_until_ps[bank] = begin + latency_ps;
        self.advance_time_ps(latency_ps);
        ServiceTiming {
            wait_ps,
            latency_ps,
        }
    }

    /// The currently open row of `bank`, if any (scheduler's FR-FCFS view).
    #[must_use]
    pub fn open_row(&self, bank: usize) -> Option<u32> {
        self.open_row[bank]
    }

    /// Hammers `row`: `times` back-to-back activations, each costing `tRC`
    /// (interleaving a precharge so every activation disturbs).
    pub fn hammer(&mut self, row: RowId, times: u64) {
        for _ in 0..times {
            self.activate(row, ActivationKind::Explicit);
            self.advance_time_ps(self.timing.t_rc_ps());
        }
        self.open_row[row.bank as usize] = Some(row.row);
    }

    /// A mitigation-issued refresh of `row`: restores the row's charge
    /// (resets its pressure and re-arms its weak cells) but — crucially for
    /// Half-Double — internally *activates* the row, disturbing neighbours.
    pub fn refresh_row(&mut self, row: RowId) {
        self.stats.row_refreshes += 1;
        self.pressure.insert(row, 0.0);
        if let Some(cells) = self.weak_cells.get_mut(&row) {
            for c in cells.iter_mut() {
                c.flipped = false;
            }
        }
        self.activate(row, ActivationKind::Refresh);
    }

    /// Advances the device clock, issuing distributed auto-refresh.
    ///
    /// Real devices spread the refresh of all rows over the window as 8192
    /// REF commands (one per tREFI); we model that granularity: each
    /// elapsed tREFI restores the charge of the next 1/8192 slice of every
    /// bank, so a row's victim-to-refresh interval depends on its position
    /// in the sweep — as on silicon. All arithmetic is integer picoseconds;
    /// the default 64 ms window divides into 8192 slices exactly.
    pub fn advance_time_ps(&mut self, delta_ps: u128) {
        const REF_SLICES: u64 = 8192;
        let trefi = (self.timing.t_refw_ps() / u128::from(REF_SLICES)).max(1);
        self.now_ps += delta_ps;
        while self.now_ps - self.window_start_ps >= trefi {
            self.window_start_ps += trefi;
            self.stats.refresh_slices += 1;
            let slice = self.ref_slice;
            self.ref_slice = (self.ref_slice + 1) % REF_SLICES;
            if self.ref_slice == 0 {
                self.stats.refresh_windows += 1;
            }
            // Rows per slice per bank (rounded up so the sweep covers all).
            let rows = u64::from(self.geometry.rows_per_bank);
            let per = rows.div_ceil(REF_SLICES);
            let lo = slice * per;
            let hi = ((slice + 1) * per).min(rows);
            if lo >= hi {
                continue;
            }
            let range = (lo as u32)..(hi as u32);
            self.pressure.retain(|r, _| !range.contains(&r.row));
            for (row, cells) in self.weak_cells.iter_mut() {
                if range.contains(&row.row) {
                    for c in cells.iter_mut() {
                        c.flipped = false;
                    }
                }
            }
        }
    }

    /// One activation of `row`: counts it, records it into the tap when
    /// enabled, and propagates disturbance to distance-1 and distance-2
    /// neighbours.
    fn activate(&mut self, row: RowId, kind: ActivationKind) {
        self.stats.activations += 1;
        if self.tap_enabled {
            self.tap.push((row, kind));
        }
        if !self.rh.enabled {
            return;
        }
        let rows = self.geometry.rows_per_bank;
        for (dist, coupling) in [
            (1i64, 1.0),
            (-1, 1.0),
            (2, self.rh.dist2_coupling),
            (-2, self.rh.dist2_coupling),
        ] {
            if coupling == 0.0 {
                continue;
            }
            if let Some(victim) = row.offset(dist, rows) {
                self.disturb(victim, coupling);
            }
        }
    }

    /// Adds `amount` of pressure to `victim` and discharges any weak cells
    /// whose threshold is now exceeded.
    fn disturb(&mut self, victim: RowId, amount: f64) {
        let p = self.pressure.entry(victim).or_insert(0.0);
        *p += amount;
        let p = *p;
        let (cfg, bits) = (&self.rh, self.geometry.row_bits());
        let cells = self
            .weak_cells
            .entry(victim)
            .or_insert_with(|| weak_cells_for_row(cfg, victim, bits));
        // Cells are sorted by threshold; collect the newly-discharged ones.
        let mut to_flip = Vec::new();
        for cell in cells.iter_mut() {
            if cell.threshold > p {
                break;
            }
            if !cell.flipped {
                cell.flipped = true;
                to_flip.push((cell.bit, cell.true_cell));
            }
        }
        for (bit, true_cell) in to_flip {
            self.apply_flip(victim, bit, true_cell);
        }
    }

    /// Applies one cell discharge to the store, honouring orientation.
    fn apply_flip(&mut self, row: RowId, bit: u64, true_cell: bool) {
        let base = self.geometry.row_base(row).as_u64();
        let addr = base + bit / 8;
        let mask = 1u8 << (bit % 8);
        let cur = self.load_u8(addr);
        let is_one = cur & mask != 0;
        // True cells discharge 1→0, anti cells 0→1; a cell already at its
        // discharged value cannot visibly flip.
        if is_one != true_cell {
            return;
        }
        self.store_u8(addr, cur ^ mask);
        self.stats.total_flips += 1;
        self.flips.push(FlipRecord {
            addr: PhysAddr::new(addr),
            bit_in_byte: (bit % 8) as u8,
            row,
            from: is_one,
            time_ps: self.now_ps,
        });
    }
}

impl DramDevice {
    fn load_u8(&self, addr: u64) -> u8 {
        self.load_bytes::<1>(addr)[0]
    }

    /// Stores one byte without re-arming weak cells: the disturbance path
    /// writes flipped values through here.
    fn store_u8(&mut self, addr: u64, value: u8) {
        self.line_mut(addr)[(addr % 64) as usize] = value;
    }

    /// The stored line holding `addr`, allocated as zeros on first write.
    fn line_mut(&mut self, addr: u64) -> &mut [u8; 64] {
        debug_assert!(addr < self.capacity, "address {addr:#x} beyond capacity");
        self.store.get_or_insert(addr >> 6)
    }

    /// Copies `N` bytes out of the store starting at `addr`. The range must
    /// lie inside one line (true of any aligned line or word, or a byte).
    fn load_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        debug_assert!(
            addr + N as u64 <= self.capacity,
            "address {addr:#x} beyond capacity"
        );
        let off = (addr % 64) as usize;
        debug_assert!(off + N <= 64, "read at {addr:#x} crosses a line");
        let mut out = [0u8; N];
        if let Some(line) = self.store.get(addr >> 6) {
            out.copy_from_slice(&line[off..off + N]);
        }
        out
    }

    /// A write of `bytes` at `addr`, with one row lookup and one line
    /// lookup. A write restores full charge to the cells it covers, so
    /// every weak cell of the row whose byte lies in the written range is
    /// re-armed. The range must lie inside one line, and so inside one row
    /// (true of any aligned line or word, or a byte: `new` asserts rows are
    /// whole lines).
    fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let off = (addr % 64) as usize;
        debug_assert!(off + bytes.len() <= 64, "write at {addr:#x} crosses a line");
        let at = PhysAddr::new(addr);
        if let Some(cells) = self.weak_cells.get_mut(&self.geometry.row_of(at)) {
            let first = u64::from(self.geometry.column_of(at));
            let written = first..first + bytes.len() as u64;
            for c in cells.iter_mut() {
                if written.contains(&(c.bit / 8)) {
                    c.flipped = false;
                }
            }
        }
        self.line_mut(addr)[off..off + bytes.len()].copy_from_slice(bytes);
    }
}

impl PhysMem for DramDevice {
    fn size(&self) -> u64 {
        self.capacity
    }

    fn read_u8(&self, addr: PhysAddr) -> u8 {
        self.load_u8(addr.as_u64())
    }

    fn write_u8(&mut self, addr: PhysAddr, value: u8) {
        self.write_bytes(addr.as_u64(), &[value]);
    }

    fn read_u64(&self, addr: PhysAddr) -> u64 {
        debug_assert_eq!(addr.as_u64() % 8, 0, "unaligned u64 read at {addr:?}");
        u64::from_le_bytes(self.load_bytes(addr.as_u64()))
    }

    fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        debug_assert_eq!(addr.as_u64() % 8, 0, "unaligned u64 write at {addr:?}");
        self.write_bytes(addr.as_u64(), &value.to_le_bytes());
    }

    fn read_line(&self, addr: PhysAddr) -> [u8; 64] {
        self.load_bytes(addr.line_addr().as_u64())
    }

    fn write_line(&mut self, addr: PhysAddr, line: &[u8; 64]) {
        self.write_bytes(addr.line_addr().as_u64(), line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vulnerable_device() -> DramDevice {
        let rh = RowhammerConfig {
            threshold: 1000.0,
            weak_cells_per_row: 8.0,
            ..RowhammerConfig::default()
        };
        DramDevice::ddr4_4gb(rh)
    }

    #[test]
    fn row_hit_miss_accounting() {
        let mut d = DramDevice::ddr4_4gb(RowhammerConfig::immune());
        let a = PhysAddr::new(0x1000);
        d.access_ps(a, false);
        d.access_ps(a, false);
        let far = PhysAddr::new(0x100_0000);
        d.access_ps(far, false);
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_misses, 2);
    }

    #[test]
    fn hammering_flips_bits_in_neighbours() {
        let mut d = vulnerable_device();
        // Fill the two neighbour rows with 0xFF so true cells can discharge.
        let aggressor = RowId { bank: 0, row: 100 };
        for dist in [-1i64, 1] {
            let victim = aggressor.offset(dist, d.geometry().rows_per_bank).unwrap();
            let base = d.geometry().row_base(victim).as_u64();
            let row_bytes = d.geometry().row_bytes;
            for i in 0..u64::from(row_bytes) {
                d.write_u8(PhysAddr::new(base + i), 0xff);
            }
        }
        d.hammer(aggressor, 3000);
        assert!(d.stats().total_flips > 0, "no flips after heavy hammering");
        // All flips should be 1→0 (true cells; anti cells see all-ones data
        // already at their charged value... anti cells flip 0→1 so none fire).
        assert!(d.flips().iter().all(|f| f.from));
    }

    #[test]
    fn immune_device_never_flips() {
        let mut d = DramDevice::ddr4_4gb(RowhammerConfig::immune());
        d.hammer(RowId { bank: 0, row: 100 }, 500_000);
        assert_eq!(d.stats().total_flips, 0);
    }

    #[test]
    fn refresh_window_resets_pressure() {
        let mut d = vulnerable_device();
        let aggressor = RowId { bank: 0, row: 50 };
        d.hammer(aggressor, 500);
        let victim = aggressor.offset(1, d.geometry().rows_per_bank).unwrap();
        assert!(d.pressure(victim) > 0.0);
        d.advance_time_ps(d.timing().t_refw_ps());
        assert_eq!(d.pressure(victim), 0.0);
    }

    #[test]
    fn distributed_refresh_sweeps_rows_in_order() {
        // Rows are refreshed slice by slice across the window: after ~30
        // tREFI, an early-sweep row's pressure is restored while a
        // late-sweep row still carries charge loss.
        let mut d = vulnerable_device();
        let early = RowId { bank: 0, row: 100 }; // slice ~25 of 8192
        let late = RowId {
            bank: 0,
            row: 30_000,
        }; // slice ~7500
        d.hammer(RowId { bank: 0, row: 99 }, 300);
        d.hammer(
            RowId {
                bank: 0,
                row: 29_999,
            },
            300,
        );
        assert!(d.pressure(early) > 0.0);
        assert!(d.pressure(late) > 0.0);
        let trefi = d.timing().t_refw_ps() / 8192;
        d.advance_time_ps(30 * trefi);
        assert_eq!(d.pressure(early), 0.0, "early-sweep row must be refreshed");
        assert!(
            d.pressure(late) > 0.0,
            "late-sweep row must still be pressured"
        );
        // A full window restores everything.
        d.advance_time_ps(d.timing().t_refw_ps());
        assert_eq!(d.pressure(late), 0.0);
    }
    #[test]
    fn below_threshold_hammering_is_harmless() {
        let mut d = vulnerable_device();
        let aggressor = RowId { bank: 0, row: 100 };
        let victim = aggressor.offset(1, d.geometry().rows_per_bank).unwrap();
        let base = d.geometry().row_base(victim).as_u64();
        for i in 0..1024u64 {
            d.write_u8(PhysAddr::new(base + i), 0xff);
        }
        d.hammer(aggressor, 900); // below the 1000 threshold
        assert_eq!(d.stats().total_flips, 0);
    }

    #[test]
    fn victim_refresh_restores_charge_but_disturbs_distance2() {
        let mut d = vulnerable_device();
        let aggressor = RowId { bank: 0, row: 200 };
        let dist1 = aggressor.offset(1, d.geometry().rows_per_bank).unwrap();
        let dist2 = aggressor.offset(2, d.geometry().rows_per_bank).unwrap();
        d.hammer(aggressor, 500);
        let p2_before = d.pressure(dist2);
        d.refresh_row(dist1);
        assert_eq!(d.pressure(dist1), 0.0, "refresh must restore the victim");
        assert!(
            d.pressure(dist2) > p2_before,
            "refresh must disturb distance-2 (Half-Double)"
        );
    }

    #[test]
    fn rewrite_rearms_weak_cells() {
        let mut d = vulnerable_device();
        let aggressor = RowId { bank: 0, row: 300 };
        let victim = aggressor.offset(1, d.geometry().rows_per_bank).unwrap();
        let base = d.geometry().row_base(victim).as_u64();
        for i in 0..u64::from(d.geometry().row_bytes) {
            d.write_u8(PhysAddr::new(base + i), 0xff);
        }
        d.hammer(aggressor, 3000);
        let first = d.stats().total_flips;
        assert!(first > 0);
        // Rewrite the whole victim row (restores charge), hammer again:
        // the same weak cells flip again.
        for i in 0..u64::from(d.geometry().row_bytes) {
            d.write_u8(PhysAddr::new(base + i), 0xff);
        }
        d.advance_time_ps(d.timing().t_refw_ps()); // fresh window
        d.hammer(aggressor, 3000);
        assert!(
            d.stats().total_flips > first,
            "rewritten cells must be flippable again"
        );
    }

    #[test]
    fn activation_tap_records_kinds_in_order() {
        let mut d = DramDevice::ddr4_4gb(RowhammerConfig::immune());
        let mut tap = Vec::new();
        // Untapped: nothing recorded.
        d.hammer(RowId { bank: 0, row: 10 }, 2);
        d.drain_activations(&mut tap);
        assert!(tap.is_empty());
        d.set_activation_tap(true);
        d.hammer(RowId { bank: 0, row: 10 }, 1);
        d.tap_pte_hint(true);
        d.access_ps(PhysAddr::new(0x10_0000), false);
        d.tap_pte_hint(false);
        d.access_ps(PhysAddr::new(0x20_0000), false);
        d.refresh_row(RowId { bank: 0, row: 11 });
        d.drain_activations(&mut tap);
        let kinds: Vec<ActivationKind> = tap.iter().map(|&(_, k)| k).collect();
        assert_eq!(
            kinds,
            vec![
                ActivationKind::Explicit,
                ActivationKind::Walk,
                ActivationKind::Demand,
                ActivationKind::Refresh,
            ]
        );
        // Draining empties the tap.
        tap.clear();
        d.drain_activations(&mut tap);
        assert!(tap.is_empty());
    }

    #[test]
    fn far_future_same_bank_chain_is_exact() {
        // At a clock beyond 2^53 ps an f64 time base rounds every partial
        // sum to its (coarse) ulp — 2 ns at 1e19 ps, several core cycles —
        // so a same-bank wait chain drifts. The integer clock must track
        // the analytic sum exactly no matter how far the clock has run.
        let timing = DramTiming {
            t_refw_ns: 1e18, // keep the refresh sweep off the hot loop
            ..DramTiming::default()
        };
        let mut d = DramDevice::new(DramGeometry::default(), timing, RowhammerConfig::immune());
        d.advance_time_ps(10u128.pow(19));
        let t0 = d.now_ps();
        let a = PhysAddr::new(0x4000);
        let mut busy = t0;
        for k in 0..64u128 {
            let t = d.service_at(a, false, t0);
            let lat = if k == 0 {
                timing.row_closed_ps()
            } else {
                timing.row_hit_ps()
            };
            assert_eq!(t.latency_ps, lat);
            assert_eq!(t.wait_ps, busy - t0, "chain drifted at access {k}");
            busy += lat;
        }
    }

    /// Drives a device through the trait's byte-loop defaults: only
    /// `read_u8` and `write_u8` are forwarded.
    struct ByteLoop<'a>(&'a mut DramDevice);

    impl PhysMem for ByteLoop<'_> {
        fn size(&self) -> u64 {
            self.0.size()
        }

        fn read_u8(&self, addr: PhysAddr) -> u8 {
            self.0.read_u8(addr)
        }

        fn write_u8(&mut self, addr: PhysAddr, value: u8) {
            self.0.write_u8(addr, value);
        }
    }

    #[test]
    fn line_and_word_writes_match_the_byte_loops() {
        // Two twins hammered into the same state: weak cells of the victim
        // row, some already discharged.
        let aggressor = RowId { bank: 0, row: 400 };
        let hammered = || {
            let mut d = vulnerable_device();
            let victim = aggressor.offset(1, d.geometry().rows_per_bank).unwrap();
            let base = d.geometry().row_base(victim).as_u64();
            for i in 0..u64::from(d.geometry().row_bytes) {
                d.write_u8(PhysAddr::new(base + i), 0xff);
            }
            d.hammer(aggressor, 1500);
            d
        };
        let (mut fast, mut bytes) = (hammered(), hammered());
        let victim = aggressor.offset(1, fast.geometry().rows_per_bank).unwrap();
        let base = fast.geometry().row_base(victim).as_u64();
        let cells = fast.weak_cells(victim).to_vec();
        assert!(cells.iter().any(|c| c.flipped), "no cell discharged");
        assert!(cells.iter().any(|c| !c.flipped), "every cell discharged");

        // The lines ending the row's first 4 KB page and the row, plus the
        // line and the word holding each weak cell, every other one
        // rewritten.
        let row_end = base + u64::from(fast.geometry().row_bytes) - 64;
        let mut lines = vec![base + 4096 - 64, row_end];
        lines.extend(cells.iter().step_by(2).map(|c| base + c.bit / 8));
        let words: Vec<u64> = cells
            .iter()
            .skip(1)
            .step_by(2)
            .map(|c| base + c.bit / 8)
            .collect();
        let fill = |i: u64| std::array::from_fn(|b| (i as u8).wrapping_mul(37) ^ b as u8);
        for (i, &a) in lines.iter().enumerate() {
            let line = fill(i as u64);
            fast.write_line(PhysAddr::new(a), &line);
            ByteLoop(&mut bytes).write_line(PhysAddr::new(a), &line);
        }
        for (i, &a) in words.iter().enumerate() {
            let a = PhysAddr::new(a & !7);
            let v = 0xffff_ffff_0000_ff00 ^ i as u64;
            assert_eq!(fast.read_u64(a), ByteLoop(&mut bytes).read_u64(a));
            fast.write_u64(a, v);
            ByteLoop(&mut bytes).write_u64(a, v);
            assert_eq!(fast.read_u64(a), v);
        }
        for &a in &lines {
            let a = PhysAddr::new(a);
            assert_eq!(fast.read_line(a), ByteLoop(&mut bytes).read_line(a));
        }
        let same = |a: &DramDevice, b: &DramDevice, when: &str| {
            assert!(
                stored_lines(a) == stored_lines(b),
                "store bytes differ {when}"
            );
            assert_eq!(a.weak_cells, b.weak_cells, "weak-cell state differs {when}");
            assert_eq!(a.flips(), b.flips(), "flip records differ {when}");
        };
        same(&fast, &bytes, "after the writes");

        // Re-armed cells discharge again, identically on both twins.
        let before = fast.stats().total_flips;
        fast.hammer(aggressor, 1500);
        bytes.hammer(aggressor, 1500);
        assert!(
            fast.stats().total_flips > before,
            "no re-armed cell flipped"
        );
        same(&fast, &bytes, "after hammering again");
    }

    /// Every stored line's number and bytes.
    fn stored_lines(d: &DramDevice) -> HashMap<u64, [u8; 64]> {
        d.store
            .slots
            .keys()
            .map(|&l| (l, *d.store.get(l).expect("an indexed line")))
            .collect()
    }

    /// Bytes of simulated memory the store holds.
    fn held_bytes(d: &DramDevice) -> usize {
        64 * d.store.slots.len()
    }

    #[test]
    fn lines_fill_whole_chunks_in_write_order() {
        // 3,072 distinct lines spread over the device in a scrambled order
        // fill slots 0..3072, crossing the 1023/1024 and 2047/2048 chunk
        // boundaries; multiplying by an odd constant permutes the 2^26
        // line numbers of the 4 GB device.
        let mut d = DramDevice::ddr4_4gb(RowhammerConfig::immune());
        let line_no = |i: u64| i.wrapping_mul(0x9e37_79b9) & ((1 << 26) - 1);
        let fill = |l: u64| -> [u8; 64] { std::array::from_fn(|b| (l ^ (l >> 8)) as u8 ^ b as u8) };
        let written = 3 * CHUNK_LINES as u64;
        for i in 0..written {
            let l = line_no(i);
            d.write_line(PhysAddr::new(l << 6), &fill(l));
            let lines = i as usize + 1;
            assert_eq!(
                d.store.chunks.len(),
                lines.div_ceil(CHUNK_LINES),
                "line {i}"
            );
        }
        // A rewrite finds the line's slot; a read of an unwritten line
        // takes none.
        for i in (0..written).step_by(5) {
            let a = PhysAddr::new((line_no(i) << 6) + 8 * (i % 8));
            d.write_u64(a, i);
        }
        assert_eq!(d.read_line(PhysAddr::new(line_no(written) << 6)), [0; 64]);
        assert_eq!(held_bytes(&d), 64 * written as usize);

        // A flip into an unwritten line takes slot 3,072 and opens a
        // fourth chunk.
        let at = PhysAddr::new(line_no(written + 1) << 6);
        let bit = 8 * u64::from(d.geometry().column_of(at)) + 5;
        d.apply_flip(d.geometry().row_of(at), bit, false);
        assert_eq!(d.stats().total_flips, 1);
        let lines = written as usize + 1;
        assert_eq!(held_bytes(&d), 64 * lines);
        assert_eq!(d.store.chunks.len(), lines.div_ceil(CHUNK_LINES));

        let mut flipped = [0; 64];
        flipped[0] = 1 << 5;
        assert_eq!(d.read_line(at), flipped);
        for i in 0..written {
            let l = line_no(i);
            let mut want = fill(l);
            if i % 5 == 0 {
                let w = 8 * (i % 8) as usize;
                want[w..w + 8].copy_from_slice(&i.to_le_bytes());
            }
            assert_eq!(d.read_line(PhysAddr::new(l << 6)), want, "line {l:#x}");
        }
    }

    #[test]
    fn one_line_in_each_of_100_pages_holds_100_lines() {
        let mut d = DramDevice::ddr4_4gb(RowhammerConfig::immune());
        for page in 0..100u64 {
            d.write_line(PhysAddr::new(page * 4096 + 0x40), &[0xa5; 64]);
        }
        assert_eq!(held_bytes(&d), 100 * 64);
    }

    #[test]
    fn one_channels_quarter_of_each_page_holds_16_lines_per_page() {
        // Four channels interleave by line, so each channel's device sees
        // 16 of a page's 64 lines.
        let four = crate::geometry::ChannelInterleave::new(4);
        let mut d = DramDevice::ddr4_4gb(RowhammerConfig::immune());
        for page in 0..8u64 {
            let mine: Vec<PhysAddr> = (0..64)
                .map(|l| PhysAddr::new(page * 4096 + l * 64))
                .filter(|&a| four.channel_of(a) == 0)
                .collect();
            assert_eq!(mine.len(), 16, "page {page}");
            for a in mine {
                d.write_line(a, &[0x5a; 64]);
            }
        }
        assert_eq!(held_bytes(&d), 8 * 16 * 64);
    }

    #[test]
    fn a_flip_into_an_unwritten_line_stores_only_that_line() {
        // Nothing is written, so only anti cells (0 -> 1) can flip.
        let mut d = vulnerable_device();
        d.hammer(RowId { bank: 0, row: 500 }, 3000);
        assert!(d.stats().total_flips > 0, "no anti cell flipped");
        let lines: std::collections::HashSet<u64> =
            d.flips().iter().map(|f| f.addr.as_u64() >> 6).collect();
        assert_eq!(held_bytes(&d), 64 * lines.len());
        for f in d.flips() {
            assert!(!f.from, "a true cell flipped in an unwritten line");
            assert_ne!(d.read_u8(f.addr) & (1 << f.bit_in_byte), 0);
        }
    }

    #[test]
    fn reads_of_unwritten_lines_store_nothing() {
        let mut d = DramDevice::ddr4_4gb(RowhammerConfig::immune());
        assert_eq!(d.read_line(PhysAddr::new(0x4000)), [0; 64]);
        assert_eq!(d.read_u64(PhysAddr::new(0x8008)), 0);
        assert_eq!(d.read_u8(PhysAddr::new(0xc003)), 0);
        assert_eq!(held_bytes(&d), 0);
        // Unwritten lines of a written page.
        d.write_line(PhysAddr::new(0x4000), &[7; 64]);
        assert_eq!(d.read_line(PhysAddr::new(0x4040)), [0; 64]);
        assert_eq!(d.read_u64(PhysAddr::new(0x4fc0)), 0);
        assert_eq!(d.read_u8(PhysAddr::new(0x4abc)), 0);
        assert_eq!(held_bytes(&d), 64);
    }

    #[test]
    fn untimed_reads_do_not_disturb() {
        let d = vulnerable_device();
        for i in 0..100_000u64 {
            let _ = d.read_u8(PhysAddr::new(i % 4096));
        }
        assert_eq!(d.stats().activations, 0);
        assert_eq!(d.stats().total_flips, 0);
    }
}
