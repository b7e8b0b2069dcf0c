//! Attack/defence pairing harness.

use dram::device::ActivationKind;
use dram::geometry::RowId;
use dram::DramDevice;

use crate::mitigations::Mitigation;

/// Anything that owns a [`DramDevice`] a hammer session can drive: the bare
/// device (the attack gallery's direct-DRAM mode) or a full memory system
/// rig whose activations *emerge* from cache misses and page-table walks
/// (the attacker crate's PThammer mode).
pub trait DramHost {
    /// The underlying device.
    fn dram(&self) -> &DramDevice;
    /// Mutable access to the underlying device.
    fn dram_mut(&mut self) -> &mut DramDevice;
}

impl DramHost for DramDevice {
    fn dram(&self) -> &DramDevice {
        self
    }

    fn dram_mut(&mut self) -> &mut DramDevice {
        self
    }
}

/// Where a session's activations came from — the split PThammer's stealth
/// claim rests on: a run whose `explicit` count is zero hammered purely
/// through implicit page-table walks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActivationProvenance {
    /// Explicit attacker accesses ([`HammerSession::activate`]).
    pub explicit: u64,
    /// Demand data accesses reaching DRAM through the memory system.
    pub demand: u64,
    /// Implicit page-table-walk accesses (PTE line reads at DRAM).
    pub walk: u64,
    /// Mitigation- or refresh-logic-issued row refreshes.
    pub refresh: u64,
}

/// Couples a DRAM host with a mitigation: every attacker activation is
/// observed by the mitigation, which may issue victim refreshes (that
/// themselves disturb distance-2 rows) or inject delay.
///
/// The host defaults to the bare device, which keeps the original
/// direct-DRAM API unchanged. With a memory-system host, drive accesses
/// through the host and call [`HammerSession::absorb`] so the mitigation
/// observes the activations that emerged from the walk path — that is how
/// implicit (PThammer) hammering is fed to the defence.
#[derive(Debug)]
pub struct HammerSession<M, H = DramDevice> {
    host: H,
    mitigation: M,
    attacker_acts: u64,
    provenance: ActivationProvenance,
    tap_buf: Vec<(RowId, ActivationKind)>,
}

impl<M: Mitigation, H: DramHost> HammerSession<M, H> {
    /// Creates a session. Enables the device's activation tap so provenance
    /// is tracked from the first access.
    #[must_use]
    pub fn new(mut host: H, mitigation: M) -> Self {
        host.dram_mut().set_activation_tap(true);
        Self {
            host,
            mitigation,
            attacker_acts: 0,
            provenance: ActivationProvenance::default(),
            tap_buf: Vec::new(),
        }
    }

    /// One attacker-controlled activation of `row`.
    pub fn activate(&mut self, row: RowId) {
        self.host.dram_mut().hammer(row, 1);
        self.mitigation.on_activate(row, self.host.dram_mut());
        self.attacker_acts += 1;
        self.absorb();
    }

    /// Drains the device's activation tap: counts each activation into the
    /// provenance ledger and feeds *implicit* demand/walk activations to
    /// the mitigation (explicit ones were fed synchronously by
    /// [`HammerSession::activate`]; mitigation-issued refreshes are never
    /// re-fed, or every refresh would recursively trigger tracking).
    ///
    /// Loops until the tap is empty because feeding the mitigation may
    /// issue refreshes that are themselves recorded; refresh entries are
    /// count-only, so the loop terminates.
    pub fn absorb(&mut self) {
        loop {
            self.tap_buf.clear();
            self.host.dram_mut().drain_activations(&mut self.tap_buf);
            if self.tap_buf.is_empty() {
                return;
            }
            let buf = std::mem::take(&mut self.tap_buf);
            for &(row, kind) in &buf {
                match kind {
                    ActivationKind::Explicit => self.provenance.explicit += 1,
                    ActivationKind::Demand => {
                        self.provenance.demand += 1;
                        self.mitigation.on_activate(row, self.host.dram_mut());
                    }
                    ActivationKind::Walk => {
                        self.provenance.walk += 1;
                        self.mitigation.on_activate(row, self.host.dram_mut());
                    }
                    ActivationKind::Refresh => self.provenance.refresh += 1,
                }
            }
            self.tap_buf = buf;
        }
    }

    /// Activations issued by the attacker so far.
    #[must_use]
    pub fn attacker_acts(&self) -> u64 {
        self.attacker_acts
    }

    /// Provenance ledger of every activation absorbed so far.
    #[must_use]
    pub fn provenance(&self) -> ActivationProvenance {
        self.provenance
    }

    /// Total bit flips observed so far.
    #[must_use]
    pub fn flips(&self) -> u64 {
        self.host.dram().stats().total_flips
    }

    /// Bit flips in rows at exactly `distance` from `row` (same bank).
    #[must_use]
    pub fn flips_at_distance(&self, row: RowId, distance: u32) -> u64 {
        self.host
            .dram()
            .flips()
            .iter()
            .filter(|f| f.row.bank == row.bank && f.row.row.abs_diff(row.row) == distance)
            .count() as u64
    }

    /// The underlying device.
    #[must_use]
    pub fn device(&self) -> &DramDevice {
        self.host.dram()
    }

    /// Mutable access to the device (e.g. to seed victim data).
    pub fn device_mut(&mut self) -> &mut DramDevice {
        self.host.dram_mut()
    }

    /// The host the session drives.
    #[must_use]
    pub fn host(&self) -> &H {
        &self.host
    }

    /// Mutable access to the host (to drive loads through a memory system).
    pub fn host_mut(&mut self) -> &mut H {
        &mut self.host
    }

    /// The mitigation.
    #[must_use]
    pub fn mitigation(&self) -> &M {
        &self.mitigation
    }

    /// Consumes the session, returning its parts.
    #[must_use]
    pub fn into_parts(self) -> (H, M) {
        (self.host, self.mitigation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mitigations::{NoMitigation, Trr};
    use dram::RowhammerConfig;
    use pagetable::addr::PhysAddr;
    use pagetable::memory::PhysMem;

    fn seeded_device(rth: f64) -> DramDevice {
        let mut d = DramDevice::ddr4_4gb(RowhammerConfig {
            threshold: rth,
            weak_cells_per_row: 8.0,
            ..RowhammerConfig::default()
        });
        // Seed a band of rows with all-ones so true cells can discharge.
        for r in 95..=110u32 {
            let base = d.geometry().row_base(RowId { bank: 0, row: r }).as_u64();
            for i in 0..u64::from(d.geometry().row_bytes) {
                d.write_u8(PhysAddr::new(base + i), 0xff);
            }
        }
        d
    }

    #[test]
    fn unmitigated_double_sided_flips() {
        let mut s = HammerSession::new(seeded_device(2000.0), NoMitigation);
        let victim = RowId { bank: 0, row: 100 };
        for _ in 0..3000 {
            s.activate(RowId { bank: 0, row: 99 });
            s.activate(RowId { bank: 0, row: 101 });
        }
        assert!(s.flips_at_distance(RowId { bank: 0, row: 100 }, 0) > 0 || s.flips() > 0);
        let _ = victim;
    }

    #[test]
    fn trr_stops_double_sided() {
        let mut s = HammerSession::new(seeded_device(2000.0), Trr::new(4, 500));
        for _ in 0..6000 {
            s.activate(RowId { bank: 0, row: 99 });
            s.activate(RowId { bank: 0, row: 101 });
        }
        assert_eq!(
            s.flips_at_distance(RowId { bank: 0, row: 99 }, 1),
            0,
            "TRR must protect distance-1 victims"
        );
        assert!(s.mitigation().refreshes_issued() > 0);
    }

    #[test]
    fn provenance_separates_explicit_from_refresh() {
        let mut s = HammerSession::new(seeded_device(2000.0), Trr::new(4, 500));
        for _ in 0..1000 {
            s.activate(RowId { bank: 0, row: 99 });
            s.activate(RowId { bank: 0, row: 101 });
        }
        let p = s.provenance();
        assert_eq!(p.explicit, 2000);
        assert_eq!(p.explicit, s.attacker_acts());
        assert_eq!(p.demand + p.walk, 0, "no memory system in this rig");
        assert_eq!(
            p.refresh,
            s.mitigation().refreshes_issued(),
            "every TRR refresh must be ledgered as a refresh activation"
        );
        assert!(p.refresh > 0);
    }
}
