//! Rowhammer attack patterns (Sections II-A/II-B of the paper).

use dram::geometry::RowId;

use crate::mitigations::Mitigation;
use crate::session::{DramHost, HammerSession};

/// The attack patterns the gallery evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Classic single-aggressor hammering (Kim et al. 2014).
    SingleSided,
    /// Two aggressors sandwiching the victim.
    DoubleSided,
    /// N-sided pattern that overwhelms limited aggressor trackers
    /// (TRRespass, Frigo et al. 2020).
    ManySided,
    /// Non-uniform frequency/phase scheduling that defeats samplers
    /// (Blacksmith, Jattke et al. 2022).
    Blacksmith,
    /// Distance-2 flips via mitigation-issued victim refreshes
    /// (Half-Double, Kogler et al. 2022).
    HalfDouble,
}

impl AttackKind {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::SingleSided => "single-sided",
            AttackKind::DoubleSided => "double-sided",
            AttackKind::ManySided => "many-sided (TRRespass)",
            AttackKind::Blacksmith => "Blacksmith",
            AttackKind::HalfDouble => "Half-Double",
        }
    }
}

/// Outcome of running an attack pattern.
#[derive(Debug, Clone, Copy)]
pub struct AttackReport {
    /// The pattern run.
    pub kind: AttackKind,
    /// Attacker activations issued.
    pub acts: u64,
    /// Bit flips at distance 1 from the (primary) aggressor.
    pub flips_d1: u64,
    /// Bit flips at distance 2 from the (primary) aggressor.
    pub flips_d2: u64,
    /// Total bit flips in the device.
    pub flips_total: u64,
    /// Victim refreshes the mitigation issued.
    pub mitigation_refreshes: u64,
}

/// Hammers a single aggressor row.
pub fn single_sided<M: Mitigation, H: DramHost>(
    s: &mut HammerSession<M, H>,
    aggressor: RowId,
    acts: u64,
) -> AttackReport {
    let before = s.attacker_acts();
    for _ in 0..acts {
        s.activate(aggressor);
    }
    report(s, AttackKind::SingleSided, aggressor, before)
}

/// Hammers the two rows sandwiching `victim`, alternating.
pub fn double_sided<M: Mitigation, H: DramHost>(
    s: &mut HammerSession<M, H>,
    victim: RowId,
    acts_per_side: u64,
) -> AttackReport {
    let rows = s.device().geometry().rows_per_bank;
    let before = s.attacker_acts();
    let (below, above) = (victim.offset(-1, rows), victim.offset(1, rows));
    for _ in 0..acts_per_side {
        if let Some(r) = below {
            s.activate(r);
        }
        if let Some(r) = above {
            s.activate(r);
        }
    }
    // Report distances relative to an aggressor (below): the victim sits at
    // distance 1.
    report(
        s,
        AttackKind::DoubleSided,
        below.or(above).expect("some neighbour exists"),
        before,
    )
}

/// N-sided pattern: `n` aggressors at stride 2 starting at `first`, cycled
/// round-robin to thrash limited trackers.
pub fn many_sided<M: Mitigation, H: DramHost>(
    s: &mut HammerSession<M, H>,
    first: RowId,
    n: u32,
    rounds: u64,
) -> AttackReport {
    let rows = s.device().geometry().rows_per_bank;
    let before = s.attacker_acts();
    let aggressors: Vec<RowId> = (0..n)
        .filter_map(|i| first.offset(2 * i64::from(i), rows))
        .collect();
    for _ in 0..rounds {
        for &a in &aggressors {
            s.activate(a);
        }
    }
    report(s, AttackKind::ManySided, first, before)
}

/// Blacksmith-like non-uniform schedule: each aggressor has its own period
/// and phase, so samplers locked to refresh intervals miss the dominant
/// aggressors.
pub fn blacksmith<M: Mitigation, H: DramHost>(
    s: &mut HammerSession<M, H>,
    first: RowId,
    n: u32,
    slots: u64,
) -> AttackReport {
    let rows = s.device().geometry().rows_per_bank;
    let before = s.attacker_acts();
    let aggressors: Vec<(RowId, u64, u64)> = (0..n)
        .filter_map(|i| {
            first.offset(2 * i64::from(i), rows).map(|r| {
                // Periods 1..4 slots, staggered phases.
                (r, 1 + u64::from(i % 4), u64::from(i) * 3 % 7)
            })
        })
        .collect();
    for t in 0..slots {
        for &(r, period, phase) in &aggressors {
            if (t + phase) % period == 0 {
                s.activate(r);
            }
        }
    }
    report(s, AttackKind::Blacksmith, first, before)
}

/// Half-Double: hammer a far aggressor `a` heavily; a victim-refresh
/// mitigation keeps refreshing `a±1`, and each refresh is an activation that
/// disturbs `a±2` — flipping bits two rows away from the aggressor. A light
/// dose of direct `a±1` activations (as in the original attack) accelerates
/// the trigger.
pub fn half_double<M: Mitigation, H: DramHost>(
    s: &mut HammerSession<M, H>,
    aggressor: RowId,
    rounds: u64,
) -> AttackReport {
    let rows = s.device().geometry().rows_per_bank;
    let before = s.attacker_acts();
    for i in 0..rounds {
        s.activate(aggressor);
        // A sparse direct dose of the near rows, well below any tracker's
        // trigger threshold (the original attack uses "a few dozen"
        // accesses per interval).
        if i % 1024 == 0 {
            for d in [-1i64, 1] {
                if let Some(near) = aggressor.offset(d, rows) {
                    s.activate(near);
                }
            }
        }
    }
    report(s, AttackKind::HalfDouble, aggressor, before)
}

fn report<M: Mitigation, H: DramHost>(
    s: &HammerSession<M, H>,
    kind: AttackKind,
    primary: RowId,
    acts_before: u64,
) -> AttackReport {
    AttackReport {
        kind,
        acts: s.attacker_acts() - acts_before,
        flips_d1: s.flips_at_distance(primary, 1),
        flips_d2: s.flips_at_distance(primary, 2),
        flips_total: s.flips(),
        mitigation_refreshes: s.mitigation().refreshes_issued(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mitigations::{Graphene, NoMitigation, Trr};
    use dram::{DramDevice, RowhammerConfig};
    use pagetable::addr::PhysAddr;
    use pagetable::memory::PhysMem;

    const RTH: f64 = 2000.0;

    fn device() -> DramDevice {
        let mut d = DramDevice::ddr4_4gb(RowhammerConfig {
            threshold: RTH,
            weak_cells_per_row: 16.0,
            dist2_coupling: 0.01,
            ..RowhammerConfig::default()
        });
        for r in 480..=560u32 {
            let base = d.geometry().row_base(RowId { bank: 0, row: r }).as_u64();
            for i in 0..u64::from(d.geometry().row_bytes) {
                d.write_u8(PhysAddr::new(base + i), 0xff);
            }
        }
        d
    }

    #[test]
    fn double_sided_beats_no_mitigation() {
        let mut s = HammerSession::new(device(), NoMitigation);
        let r = double_sided(&mut s, RowId { bank: 0, row: 500 }, 4 * RTH as u64);
        assert!(r.flips_total > 0);
    }

    #[test]
    fn trr_defeats_double_sided_but_falls_to_many_sided() {
        // Double-sided: TRR tracks both aggressors and saves the victim.
        let mut s = HammerSession::new(device(), Trr::ddr4_typical(RTH as u64));
        let shielded = double_sided(&mut s, RowId { bank: 0, row: 500 }, 4 * RTH as u64);
        assert_eq!(shielded.flips_total, 0, "TRR should stop double-sided");

        // Many-sided (TRRespass): table thrashes, flips return.
        let mut s = HammerSession::new(device(), Trr::ddr4_typical(RTH as u64));
        let broken = many_sided(&mut s, RowId { bank: 0, row: 490 }, 12, 6 * RTH as u64);
        assert!(broken.flips_total > 0, "many-sided must defeat TRR");
        assert_eq!(s.mitigation().refreshes_issued(), 0);
    }

    #[test]
    fn half_double_flips_distance_two_under_graphene() {
        // Graphene faithfully refreshes distance-1 victims... which is
        // exactly what Half-Double weaponises: each victim refresh is an
        // activation adjacent to the distance-2 rows.
        let aggressor = RowId { bank: 0, row: 520 };
        let rounds = 80 * RTH as u64;

        let mut s = HammerSession::new(device(), Graphene::new(64, (RTH / 8.0) as u64));
        let r = half_double(&mut s, aggressor, rounds);
        assert!(
            s.mitigation().refreshes_issued() > 0,
            "Graphene must be active"
        );
        assert_eq!(
            r.flips_d1, 0,
            "distance-1 victims are (correctly) protected"
        );
        assert!(
            r.flips_d2 > 0,
            "Half-Double must flip distance-2 rows (got {r:?})"
        );

        // Contrast: without the mitigation's refreshes, the same activation
        // budget does NOT flip distance-2 rows — the mitigation itself is
        // the amplifier.
        let mut u = HammerSession::new(device(), NoMitigation);
        let ru = half_double(&mut u, aggressor, rounds);
        assert_eq!(
            ru.flips_d2, 0,
            "unmitigated distance-2 must survive (got {ru:?})"
        );
    }

    #[test]
    fn graphene_at_provisioned_threshold_stops_plain_attacks() {
        let mut s = HammerSession::new(device(), Graphene::new(64, (RTH / 8.0) as u64));
        let r = double_sided(&mut s, RowId { bank: 0, row: 500 }, 6 * RTH as u64);
        assert_eq!(r.flips_d1, 0);
        assert_eq!(r.flips_total, 0);
    }

    #[test]
    fn graphene_provisioned_for_higher_threshold_fails_on_denser_module() {
        // The mitigation was designed for RTH=16K but the module flips at 2K.
        let mut s = HammerSession::new(device(), Graphene::new(64, 16_000 / 8));
        let r = double_sided(&mut s, RowId { bank: 0, row: 500 }, 4 * RTH as u64);
        assert!(
            r.flips_total > 0,
            "a lower true threshold must break a tuned mitigation"
        );
    }

    #[test]
    fn blacksmith_sustains_pressure_against_trr() {
        let mut s = HammerSession::new(device(), Trr::ddr4_typical(RTH as u64));
        let r = blacksmith(&mut s, RowId { bank: 0, row: 530 }, 8, 8 * RTH as u64);
        assert!(
            r.flips_total > 0,
            "Blacksmith must flip under TRR (got {r:?})"
        );
    }

    #[test]
    fn single_sided_needs_more_activations_than_double() {
        let mut s1 = HammerSession::new(device(), NoMitigation);
        single_sided(&mut s1, RowId { bank: 0, row: 500 }, (RTH * 1.2) as u64);
        let single_flips = s1.flips();

        let mut s2 = HammerSession::new(device(), NoMitigation);
        double_sided(&mut s2, RowId { bank: 0, row: 500 }, (RTH * 1.2) as u64);
        assert!(
            s2.flips() >= single_flips,
            "double-sided is at least as effective"
        );
    }
}
