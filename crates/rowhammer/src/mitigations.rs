//! Prior-work Rowhammer mitigations (the paper's baselines, Section VIII-B).
//!
//! Each mitigation observes the activation stream at the memory controller /
//! DRAM and may issue victim refreshes or throttle aggressors. They share
//! two structural weaknesses the paper exploits:
//!
//! 1. *Tracking capacity*: samplers and small tables can be overwhelmed
//!    (TRRespass, Blacksmith).
//! 2. *Victim refresh at distance 1*: the refresh itself activates the
//!    distance-1 row, pushing charge out of distance-2 rows (Half-Double).
//! 3. *Design-time thresholds*: precise counters mitigate at a provisioned
//!    RTH and silently fail on denser modules with lower true thresholds.

use std::collections::HashMap;

use dram::geometry::RowId;
use dram::DramDevice;
use memsys::config::clock;

/// A Rowhammer mitigation observing the activation stream.
pub trait Mitigation {
    /// Called for every aggressor activation; may issue refreshes or delay.
    fn on_activate(&mut self, row: RowId, device: &mut DramDevice);

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Victim refreshes issued so far.
    fn refreshes_issued(&self) -> u64;

    /// Total artificial delay injected (throttling mitigations), in integer
    /// picoseconds — the same fixed-point domain as
    /// [`memsys::config::clock`], so campaign reports that aggregate it
    /// stay byte-reproducible (no float accumulation order dependence).
    fn delay_injected_ps(&self) -> u128 {
        0
    }

    /// Tells software-visible defences which DRAM rows hold page tables
    /// (the kernel knows its own allocations). Purely hardware mitigations
    /// ignore the hint — the default is a no-op.
    fn note_pt_row(&mut self, _row: RowId) {}

    /// Dedicated storage the defence provisions, in bytes: tracker tables,
    /// counters, or — for isolation schemes — DRAM carved out of the data
    /// pool. The arena's storage column; PT-Guard itself reports 0 because
    /// its MACs live in unused PTE bits (Table IV).
    fn storage_overhead_bytes(&self) -> u64 {
        0
    }
}

/// Boxed mitigations delegate, so heterogeneous defence matrices (the
/// attacker crate's campaign grid) can store `Box<dyn Mitigation>` cells.
impl<M: Mitigation + ?Sized> Mitigation for Box<M> {
    fn on_activate(&mut self, row: RowId, device: &mut DramDevice) {
        (**self).on_activate(row, device);
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn refreshes_issued(&self) -> u64 {
        (**self).refreshes_issued()
    }

    fn delay_injected_ps(&self) -> u128 {
        (**self).delay_injected_ps()
    }

    fn note_pt_row(&mut self, row: RowId) {
        (**self).note_pt_row(row);
    }

    fn storage_overhead_bytes(&self) -> u64 {
        (**self).storage_overhead_bytes()
    }
}

/// No mitigation: the unprotected baseline.
#[derive(Debug, Default)]
pub struct NoMitigation;

impl Mitigation for NoMitigation {
    fn on_activate(&mut self, _row: RowId, _device: &mut DramDevice) {}

    fn name(&self) -> &'static str {
        "none"
    }

    fn refreshes_issued(&self) -> u64 {
        0
    }
}

/// Targeted Row Refresh: a small table of suspected aggressors.
///
/// Commercial TRR tracks only a handful of rows per bank; when an entry's
/// count reaches the threshold, the neighbours are refreshed. A many-sided
/// pattern (more aggressors than table entries) continuously evicts entries
/// and starves the defence — the TRRespass observation.
#[derive(Debug)]
pub struct Trr {
    table_size: usize,
    refresh_threshold: u64,
    /// (row, activation count, insertion sequence).
    table: Vec<(RowId, u64, u64)>,
    seq: u64,
    refreshes: u64,
}

impl Trr {
    /// Creates a TRR engine with `table_size` tracked rows and a refresh
    /// trigger at `refresh_threshold` activations.
    #[must_use]
    pub fn new(table_size: usize, refresh_threshold: u64) -> Self {
        Self {
            table_size,
            refresh_threshold,
            table: Vec::new(),
            seq: 0,
            refreshes: 0,
        }
    }

    /// A DDR4-typical configuration: 4 entries, refresh at RTH/4.
    #[must_use]
    pub fn ddr4_typical(rth: u64) -> Self {
        Self::new(4, (rth / 4).max(1))
    }

    fn refresh_neighbours(&mut self, row: RowId, device: &mut DramDevice) {
        let rows = device.geometry().rows_per_bank;
        for d in [-1i64, 1] {
            if let Some(v) = row.offset(d, rows) {
                device.refresh_row(v);
                self.refreshes += 1;
            }
        }
    }
}

impl Mitigation for Trr {
    fn on_activate(&mut self, row: RowId, device: &mut DramDevice) {
        self.seq += 1;
        let idx = if let Some(i) = self.table.iter().position(|(r, _, _)| *r == row) {
            self.table[i].1 += 1;
            i
        } else if self.table.len() < self.table_size {
            self.table.push((row, 1, self.seq));
            self.table.len() - 1
        } else {
            // Capacity exhausted: evict the coldest entry, oldest first on
            // ties — the lossy behaviour many-sided patterns exploit (any
            // pattern with more concurrent aggressors than table entries
            // keeps cycling them out before they accumulate).
            let coldest = self
                .table
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, c, s))| (*c, *s))
                .map(|(i, _)| i)
                .expect("non-empty");
            self.table[coldest] = (row, 1, self.seq);
            coldest
        };
        // The threshold check covers the insert/evict paths too: a freshly
        // inserted row already counts one activation, so with
        // `refresh_threshold == 1` the very first activation must fire.
        if self.table[idx].1 >= self.refresh_threshold {
            self.table[idx].1 = 0;
            self.refresh_neighbours(row, device);
        }
    }

    fn name(&self) -> &'static str {
        "TRR"
    }

    fn refreshes_issued(&self) -> u64 {
        self.refreshes
    }

    fn storage_overhead_bytes(&self) -> u64 {
        // Row address + counter + recency tag per tracked entry.
        self.table_size as u64 * TRACKER_ENTRY_BYTES
    }
}

/// Modelled cost of one (row, counter, tag) tracker entry, used by every
/// table/counter defence's storage estimate.
const TRACKER_ENTRY_BYTES: u64 = 16;

/// PARA: refresh each neighbour with a small probability per activation.
///
/// Stateless, but its protection is only probabilistic and the refreshes it
/// issues are distance-1 activations — Half-Double fodder.
#[derive(Debug)]
pub struct Para {
    probability: f64,
    refreshes: u64,
    rng_state: u64,
}

impl Para {
    /// Creates a PARA engine refreshing neighbours with `probability`.
    #[must_use]
    pub fn new(probability: f64, seed: u64) -> Self {
        // SplitMix64 finalizer: adjacent raw seeds map to decorrelated
        // xorshift states. (The previous `seed | 1` nonzero guard collapsed
        // every even seed 2k onto 2k+1, silently duplicating multi-seed
        // sweep trials.)
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Self {
            probability,
            refreshes: 0,
            // xorshift64* still requires a nonzero state.
            rng_state: z.max(1),
        }
    }

    fn next_f64(&mut self) -> f64 {
        // xorshift64*
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Mitigation for Para {
    fn on_activate(&mut self, row: RowId, device: &mut DramDevice) {
        let rows = device.geometry().rows_per_bank;
        for d in [-1i64, 1] {
            if self.next_f64() < self.probability {
                if let Some(v) = row.offset(d, rows) {
                    device.refresh_row(v);
                    self.refreshes += 1;
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "PARA"
    }

    fn refreshes_issued(&self) -> u64 {
        self.refreshes
    }

    fn storage_overhead_bytes(&self) -> u64 {
        // Stateless apart from the LFSR register.
        8
    }
}

/// Graphene-style exact aggressor counting via a Misra-Gries summary.
///
/// Guarantees no row exceeds the provisioned threshold between refreshes —
/// *at the provisioned threshold*. Two failure modes remain: modules whose
/// true RTH is lower than provisioned, and Half-Double (its own victim
/// refreshes hammer distance-2 rows).
#[derive(Debug)]
pub struct Graphene {
    counters: HashMap<RowId, u64>,
    capacity: usize,
    refresh_threshold: u64,
    refreshes: u64,
}

impl Graphene {
    /// Creates a Graphene engine sized for `capacity` concurrent aggressors
    /// that refreshes victims every `refresh_threshold` activations.
    #[must_use]
    pub fn new(capacity: usize, refresh_threshold: u64) -> Self {
        Self {
            counters: HashMap::new(),
            capacity,
            refresh_threshold,
            refreshes: 0,
        }
    }
}

impl Mitigation for Graphene {
    fn on_activate(&mut self, row: RowId, device: &mut DramDevice) {
        let count = {
            let c = self.counters.entry(row).or_insert(0);
            *c += 1;
            *c
        };
        if self.counters.len() > self.capacity {
            // Misra-Gries decrement step: decay all counters.
            self.counters.retain(|_, c| {
                *c -= 1;
                *c > 0
            });
        }
        if count >= self.refresh_threshold {
            self.counters.insert(row, 0);
            let rows = device.geometry().rows_per_bank;
            for d in [-1i64, 1] {
                if let Some(v) = row.offset(d, rows) {
                    device.refresh_row(v);
                    self.refreshes += 1;
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "Graphene"
    }

    fn refreshes_issued(&self) -> u64 {
        self.refreshes
    }

    fn storage_overhead_bytes(&self) -> u64 {
        self.capacity as u64 * TRACKER_ENTRY_BYTES
    }
}

/// Blockhammer-style aggressor throttling.
///
/// Rows whose activation count crosses the blacklist threshold are delayed
/// so they cannot reach the provisioned RTH within a refresh window. Relies
/// on the same design-time threshold assumption, and can add tens of
/// microseconds of delay even to benign workloads.
#[derive(Debug)]
pub struct Blockhammer {
    blacklist_threshold: u64,
    /// The per-activation delay in integer picoseconds, rounded once at
    /// construction — the single rounding point of the accounting.
    throttle_delay_ps: u128,
    counters: HashMap<RowId, u64>,
    refreshes: u64,
    delay_ps: u128,
}

impl Blockhammer {
    /// Creates a throttler that blacklists rows at `blacklist_threshold`
    /// activations and delays further activations by `throttle_delay_ns`.
    #[must_use]
    pub fn new(blacklist_threshold: u64, throttle_delay_ns: f64) -> Self {
        Self {
            blacklist_threshold,
            throttle_delay_ps: clock::ns_to_ps(throttle_delay_ns),
            counters: HashMap::new(),
            refreshes: 0,
            delay_ps: 0,
        }
    }
}

impl Mitigation for Blockhammer {
    fn on_activate(&mut self, row: RowId, device: &mut DramDevice) {
        let c = self.counters.entry(row).or_insert(0);
        *c += 1;
        if *c > self.blacklist_threshold {
            device.advance_time_ps(self.throttle_delay_ps);
            self.delay_ps += self.throttle_delay_ps;
        }
    }

    fn name(&self) -> &'static str {
        "Blockhammer"
    }

    fn refreshes_issued(&self) -> u64 {
        self.refreshes
    }

    fn delay_injected_ps(&self) -> u128 {
        self.delay_ps
    }

    fn storage_overhead_bytes(&self) -> u64 {
        // The paper's blacklisting counting Bloom filters (RowBlocker-BL),
        // provisioned per rank — not the per-row shadow map this model keeps
        // for exactness.
        32 * 1024
    }
}

/// SoftTRR (Zhang et al., ATC 2022): software-tracked row refresh for the
/// rows holding page tables only (Section II-E.3 of the PT-Guard paper).
///
/// The kernel counts activations of PT-adjacent rows via PMU sampling and
/// re-reads (refreshes) PT rows when a neighbour's count crosses a design
/// threshold. Structurally it *is* TRR in software, so it inherits TRR's
/// failure modes: Half-Double (its refreshes activate distance-1 rows) and
/// module thresholds below the design value. It also protects only rows it
/// knows hold page tables.
#[derive(Debug)]
pub struct SoftTrr {
    /// Rows registered as holding page-table pages.
    pt_rows: std::collections::HashSet<RowId>,
    refresh_threshold: u64,
    counters: HashMap<RowId, u64>,
    refreshes: u64,
}

impl SoftTrr {
    /// Creates a SoftTRR instance refreshing PT rows when an adjacent row
    /// accumulates `refresh_threshold` activations.
    #[must_use]
    pub fn new(refresh_threshold: u64) -> Self {
        Self {
            pt_rows: std::collections::HashSet::new(),
            refresh_threshold,
            counters: HashMap::new(),
            refreshes: 0,
        }
    }

    /// Registers a row as holding page-table pages (the kernel knows its
    /// own allocations).
    pub fn register_pt_row(&mut self, row: RowId) {
        self.pt_rows.insert(row);
    }

    /// Whether `row` has a registered PT row within `dist` rows.
    fn near_pt_row(&self, row: RowId, dist: i64, rows_per_bank: u32) -> Option<RowId> {
        for d in [-dist, dist] {
            if let Some(r) = row.offset(d, rows_per_bank) {
                if self.pt_rows.contains(&r) {
                    return Some(r);
                }
            }
        }
        None
    }
}

impl Mitigation for SoftTrr {
    fn on_activate(&mut self, row: RowId, device: &mut DramDevice) {
        let rows = device.geometry().rows_per_bank;
        // Software only samples rows near its page tables (it cannot afford
        // to track all of DRAM).
        if self.near_pt_row(row, 1, rows).is_none() {
            return;
        }
        let c = self.counters.entry(row).or_insert(0);
        *c += 1;
        if *c >= self.refresh_threshold {
            *c = 0;
            if let Some(pt) = self.near_pt_row(row, 1, rows) {
                device.refresh_row(pt);
                self.refreshes += 1;
            }
        }
    }

    fn name(&self) -> &'static str {
        "SoftTRR"
    }

    fn refreshes_issued(&self) -> u64 {
        self.refreshes
    }

    fn note_pt_row(&mut self, row: RowId) {
        self.register_pt_row(row);
    }

    fn storage_overhead_bytes(&self) -> u64 {
        // Kernel-side bookkeeping: one entry per registered PT row plus one
        // counter per sampled neighbour.
        (self.pt_rows.len() + self.counters.len()) as u64 * TRACKER_ENTRY_BYTES
    }
}

/// CATT (Brasser et al., USENIX Security 2017): "CAn't Touch This" —
/// physical isolation instead of tracking.
///
/// The kernel partitions the frame allocator so page tables live in a
/// dedicated pool separated from attacker-reachable memory by a guard band
/// wider than the disturbance radius. Enforcement happens at *allocation*
/// time (see `pagetable::AddressSpace::new_isolated`); at the DRAM level
/// this engine is passive — it never refreshes or delays, it only audits
/// how often the activation stream lands next to the protected pool. Its
/// entire cost is the reserved DRAM it carves out of the data pool.
#[derive(Debug)]
pub struct Catt {
    protected_rows: std::collections::HashSet<RowId>,
    reserved_bytes: u64,
    adjacent_acts: u64,
}

impl Catt {
    /// Creates a CATT audit engine accounting for `reserved_bytes` of DRAM
    /// withheld from the data allocator (pool + guard band).
    #[must_use]
    pub fn new(reserved_bytes: u64) -> Self {
        Self {
            protected_rows: std::collections::HashSet::new(),
            reserved_bytes,
            adjacent_acts: 0,
        }
    }

    /// Activations observed within one row of the protected pool. With the
    /// allocator actually partitioned this stays at whatever the pool's own
    /// walk traffic produces — attacker aggressors cannot get adjacent.
    #[must_use]
    pub fn adjacent_acts(&self) -> u64 {
        self.adjacent_acts
    }
}

impl Mitigation for Catt {
    fn on_activate(&mut self, row: RowId, device: &mut DramDevice) {
        let rows = device.geometry().rows_per_bank;
        for d in [-1i64, 1] {
            if let Some(n) = row.offset(d, rows) {
                if self.protected_rows.contains(&n) {
                    self.adjacent_acts += 1;
                    break;
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "CATT"
    }

    fn refreshes_issued(&self) -> u64 {
        0
    }

    fn note_pt_row(&mut self, row: RowId) {
        self.protected_rows.insert(row);
    }

    fn storage_overhead_bytes(&self) -> u64 {
        self.reserved_bytes
    }
}

/// DAPPER-style performance-attack-resilient tracking.
///
/// A Misra-Gries aggressor tracker (like Graphene) that *also* throttles
/// rows past half the refresh trigger — but unlike Blockhammer its delay
/// injection is budgeted per refresh window, so a performance attack that
/// deliberately trips the tracker cannot weaponize the defence into
/// unbounded slowdown. All delay accounting goes through the integer
/// picosecond path, rounded once at construction.
#[derive(Debug)]
pub struct Dapper {
    capacity: usize,
    refresh_threshold: u64,
    throttle_threshold: u64,
    throttle_delay_ps: u128,
    window_budget_ps: u128,
    window_spent_ps: u128,
    window_start_ps: u128,
    counters: HashMap<RowId, u64>,
    refreshes: u64,
    delay_ps: u128,
    throttles_suppressed: u64,
}

impl Dapper {
    /// Creates a DAPPER engine: `capacity` tracked aggressors, victim
    /// refresh at `refresh_threshold` activations, throttling past half
    /// that, with at most `window_budget_ns` of injected delay per refresh
    /// window.
    #[must_use]
    pub fn new(
        capacity: usize,
        refresh_threshold: u64,
        throttle_delay_ns: f64,
        window_budget_ns: f64,
    ) -> Self {
        Self {
            capacity,
            refresh_threshold,
            throttle_threshold: (refresh_threshold / 2).max(1),
            throttle_delay_ps: clock::ns_to_ps(throttle_delay_ns),
            window_budget_ps: clock::ns_to_ps(window_budget_ns),
            window_spent_ps: 0,
            window_start_ps: 0,
            counters: HashMap::new(),
            refreshes: 0,
            delay_ps: 0,
            throttles_suppressed: 0,
        }
    }

    /// A DDR4-typical configuration: 64 tracked aggressors, refresh at
    /// RTH/8, 750 ns throttle stalls, ≤ 2 ms of delay per refresh window.
    #[must_use]
    pub fn ddr4_typical(rth: u64) -> Self {
        Self::new(64, (rth / 8).max(1), 750.0, 2_000_000.0)
    }

    /// Throttle decisions skipped because the window budget was exhausted —
    /// the bounded-slowdown guarantee a performance attack runs into.
    #[must_use]
    pub fn throttles_suppressed(&self) -> u64 {
        self.throttles_suppressed
    }
}

impl Mitigation for Dapper {
    fn on_activate(&mut self, row: RowId, device: &mut DramDevice) {
        let now = device.now_ps();
        if now - self.window_start_ps >= device.timing().t_refw_ps() {
            self.window_start_ps = now;
            self.window_spent_ps = 0;
        }
        let count = {
            let c = self.counters.entry(row).or_insert(0);
            *c += 1;
            *c
        };
        if self.counters.len() > self.capacity {
            self.counters.retain(|_, c| {
                *c -= 1;
                *c > 0
            });
        }
        if count >= self.refresh_threshold {
            self.counters.insert(row, 0);
            let rows = device.geometry().rows_per_bank;
            for d in [-1i64, 1] {
                if let Some(v) = row.offset(d, rows) {
                    device.refresh_row(v);
                    self.refreshes += 1;
                }
            }
        } else if count >= self.throttle_threshold {
            if self.window_spent_ps + self.throttle_delay_ps <= self.window_budget_ps {
                device.advance_time_ps(self.throttle_delay_ps);
                self.window_spent_ps += self.throttle_delay_ps;
                self.delay_ps += self.throttle_delay_ps;
            } else {
                self.throttles_suppressed += 1;
            }
        }
    }

    fn name(&self) -> &'static str {
        "DAPPER"
    }

    fn refreshes_issued(&self) -> u64 {
        self.refreshes
    }

    fn delay_injected_ps(&self) -> u128 {
        self.delay_ps
    }

    fn storage_overhead_bytes(&self) -> u64 {
        // Tracker entries plus the window budget registers.
        self.capacity as u64 * TRACKER_ENTRY_BYTES + 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram::RowhammerConfig;

    fn device() -> DramDevice {
        DramDevice::ddr4_4gb(RowhammerConfig {
            threshold: 2000.0,
            ..RowhammerConfig::default()
        })
    }

    #[test]
    fn trr_refreshes_neighbours_of_tracked_row() {
        let mut d = device();
        let mut trr = Trr::new(4, 100);
        let row = RowId { bank: 0, row: 500 };
        for _ in 0..100 {
            trr.on_activate(row, &mut d);
        }
        assert_eq!(trr.refreshes_issued(), 2);
    }

    #[test]
    fn trr_table_thrashes_under_many_sided_pressure() {
        let mut d = device();
        let mut trr = Trr::new(4, 100);
        // 12 aggressors round-robin: the 4-entry table keeps evicting, so
        // no row ever accumulates 100 tracked activations.
        for i in 0..100_000u32 {
            let row = RowId {
                bank: 0,
                row: 1000 + 2 * (i % 12),
            };
            trr.on_activate(row, &mut d);
        }
        assert_eq!(
            trr.refreshes_issued(),
            0,
            "many-sided pattern must starve TRR"
        );
    }

    #[test]
    fn para_refresh_rate_matches_probability() {
        let mut d = device();
        let mut para = Para::new(0.01, 42);
        let row = RowId { bank: 0, row: 500 };
        for _ in 0..100_000 {
            para.on_activate(row, &mut d);
        }
        let r = para.refreshes_issued() as f64;
        assert!(
            (1200.0..2800.0).contains(&r),
            "refreshes = {r} (expect ≈2000)"
        );
    }

    #[test]
    fn graphene_caps_untracked_escape() {
        let mut d = device();
        let mut g = Graphene::new(64, 1000);
        let row = RowId { bank: 1, row: 42 };
        for _ in 0..5000 {
            g.on_activate(row, &mut d);
        }
        assert!(
            g.refreshes_issued() >= 8,
            "refreshes = {}",
            g.refreshes_issued()
        );
    }

    #[test]
    fn softtrr_protects_registered_pt_rows_from_double_sided() {
        let mut d = device();
        let pt = RowId { bank: 0, row: 500 };
        // Fill the PT row with ones so it is flippable in principle.
        let base = d.geometry().row_base(pt).as_u64();
        for i in 0..u64::from(d.geometry().row_bytes) {
            use pagetable::memory::PhysMem;
            d.write_u8(pagetable::addr::PhysAddr::new(base + i), 0xff);
        }
        let mut s = SoftTrr::new(250);
        s.register_pt_row(pt);
        for _ in 0..8000 {
            s.on_activate(RowId { bank: 0, row: 499 }, &mut d);
            d.hammer(RowId { bank: 0, row: 499 }, 1);
            s.on_activate(RowId { bank: 0, row: 501 }, &mut d);
            d.hammer(RowId { bank: 0, row: 501 }, 1);
        }
        assert!(s.refreshes_issued() > 0);
        let flips_in_pt = d.flips().iter().filter(|f| f.row == pt).count();
        assert_eq!(flips_in_pt, 0, "SoftTRR must keep the PT row alive");
    }

    #[test]
    fn softtrr_ignores_rows_it_does_not_know_about() {
        let mut d = device();
        let mut s = SoftTrr::new(250);
        s.register_pt_row(RowId { bank: 0, row: 500 });
        for _ in 0..10_000 {
            s.on_activate(RowId { bank: 0, row: 900 }, &mut d);
        }
        assert_eq!(
            s.refreshes_issued(),
            0,
            "unregistered regions are invisible to software"
        );
    }

    #[test]
    fn blockhammer_throttles_hot_rows_only() {
        let mut d = device();
        let mut b = Blockhammer::new(100, 1000.0);
        let hot = RowId { bank: 0, row: 7 };
        let cold = RowId { bank: 0, row: 9999 };
        for _ in 0..50 {
            b.on_activate(cold, &mut d);
        }
        assert_eq!(b.delay_injected_ps(), 0);
        for _ in 0..200 {
            b.on_activate(hot, &mut d);
        }
        // 100 throttled activations of exactly 1 µs each: the integer
        // accounting is exact, not approximate.
        assert_eq!(b.delay_injected_ps(), 100 * clock::ns_to_ps(1000.0));
    }

    #[test]
    fn trr_threshold_one_fires_on_insertion() {
        // Regression: the insert/evict paths skipped the threshold check,
        // so a threshold-1 TRR (ddr4_typical with rth ≤ 4) needed a second
        // activation of a fresh row before refreshing its neighbours.
        let mut d = device();
        let mut trr = Trr::new(4, 1);
        trr.on_activate(RowId { bank: 0, row: 500 }, &mut d);
        assert_eq!(
            trr.refreshes_issued(),
            2,
            "the first activation of a fresh row must trigger at threshold 1"
        );
        // Same on the eviction path: fill the table, then insert a fifth row.
        let mut trr = Trr::new(4, 1);
        for r in 0..5u32 {
            trr.on_activate(
                RowId {
                    bank: 0,
                    row: 100 + 2 * r,
                },
                &mut d,
            );
        }
        assert_eq!(trr.refreshes_issued(), 10);
    }

    fn para_refresh_stream(seed: u64) -> Vec<u64> {
        let mut d = device();
        let mut p = Para::new(0.05, seed);
        let row = RowId { bank: 0, row: 500 };
        (0..512)
            .map(|_| {
                p.on_activate(row, &mut d);
                p.refreshes_issued()
            })
            .collect()
    }

    #[test]
    fn para_adjacent_seeds_draw_distinct_streams() {
        // Regression: seeding with `seed | 1` made even/odd seed pairs
        // (2k, 2k+1) produce identical refresh streams, silently
        // duplicating multi-seed sweep trials.
        for k in [0u64, 1, 21, 1_000_003] {
            assert_ne!(
                para_refresh_stream(2 * k),
                para_refresh_stream(2 * k + 1),
                "seeds {} and {} must not collide",
                2 * k,
                2 * k + 1
            );
        }
    }

    #[test]
    fn catt_is_passive_but_audits_adjacency() {
        let mut d = device();
        let mut c = Catt::new(4 << 20);
        c.note_pt_row(RowId { bank: 0, row: 500 });
        for _ in 0..100 {
            c.on_activate(RowId { bank: 0, row: 499 }, &mut d);
            c.on_activate(RowId { bank: 0, row: 900 }, &mut d);
        }
        assert_eq!(c.refreshes_issued(), 0);
        assert_eq!(c.delay_injected_ps(), 0);
        assert_eq!(c.adjacent_acts(), 100);
        assert_eq!(c.storage_overhead_bytes(), 4 << 20);
    }

    #[test]
    fn dapper_refreshes_at_threshold_and_throttles_past_half() {
        let mut d = device();
        let mut dap = Dapper::new(64, 100, 750.0, 2_000_000.0);
        let row = RowId { bank: 0, row: 500 };
        for _ in 0..100 {
            dap.on_activate(row, &mut d);
        }
        assert_eq!(dap.refreshes_issued(), 2, "both neighbours at threshold");
        // Activations 50..99 sit in the throttle band (count ≥ 50, < 100).
        assert_eq!(dap.delay_injected_ps(), 50 * clock::ns_to_ps(750.0));
    }

    #[test]
    fn dapper_delay_is_bounded_per_window() {
        // A performance attack keeps a row in the throttle band forever;
        // DAPPER's injected delay must saturate at the window budget.
        let mut d = device();
        let budget_ns = 30_000.0; // fits 40 stalls of 750 ns
        let mut dap = Dapper::new(64, 100_000, 750.0, budget_ns);
        let row = RowId { bank: 0, row: 500 };
        // Counts 50 000..60 000 sit in the throttle band, never refreshing.
        for _ in 0..60_000 {
            dap.on_activate(row, &mut d);
        }
        assert_eq!(dap.refreshes_issued(), 0);
        assert_eq!(dap.delay_injected_ps(), clock::ns_to_ps(budget_ns));
        assert!(
            dap.throttles_suppressed() > 0,
            "the budget must have clipped throttles"
        );
    }
}
