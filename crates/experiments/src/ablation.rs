//! Section VII-A design choices, quantified: correction costs effective MAC
//! bits, and a designer who foregoes correction can shrink the MAC (and its
//! latency) while keeping PT-Guard-class security.
//!
//! Design points compared:
//!
//! | design | MAC | correction | n_eff | MAC latency |
//! |--------|-----|-----------|-------|-------------|
//! | paper default | 96-bit | k = 4, 372 guesses | ≈66 | 10 cycles |
//! | detection-only | 96-bit | off | 96 | 10 cycles |
//! | small-MAC | 64-bit | off | 64 | ≈7 cycles (shallower fold) |

use ptguard::security::{attack_years, effective_mac_bits, p_escape};
use ptguard::PtGuardConfig;
use simx::{simulate_workload, Protection};
use workloads::profiles::by_name;

use crate::report::{pct, Table};
use crate::Scale;

/// One ablation design point.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Design label.
    pub label: &'static str,
    /// MAC width in bits.
    pub mac_bits: u32,
    /// Whether best-effort correction is enabled.
    pub correction: bool,
    /// Effective security in bits.
    pub n_eff: f64,
    /// Expected attack time in years.
    pub attack_years: f64,
    /// Mean slowdown over the sampled workloads.
    pub avg_slowdown: f64,
    /// Worst sampled slowdown.
    pub worst_slowdown: f64,
}

/// Workloads sampled for the performance column (high/mid/low MPKI).
pub const SAMPLED: [&str; 3] = ["xalancbmk", "omnetpp", "povray"];

/// `(avg, worst)` slowdown of each of `cfgs` over the sampled workloads. A
/// workload's unprotected baseline is simulated once and shared by every
/// design.
fn measure(cfgs: &[PtGuardConfig], scale: Scale, sweep_seed: u64) -> Vec<(f64, f64)> {
    let instrs = scale.instructions();
    let mut slowdowns = vec![Vec::with_capacity(SAMPLED.len()); cfgs.len()];
    for (i, name) in SAMPLED.iter().enumerate() {
        let p = by_name(name).expect("profile");
        let seed = crate::salted(0xab1a + i as u64, sweep_seed);
        let base = simulate_workload(p, Protection::None, instrs, seed);
        for (slowdowns, &cfg) in slowdowns.iter_mut().zip(cfgs) {
            let guarded = simulate_workload(p, Protection::PtGuard(cfg), instrs, seed);
            slowdowns.push(1.0 - guarded.ipc() / base.ipc());
        }
    }
    slowdowns
        .iter()
        .map(|s| {
            let avg = s.iter().sum::<f64>() / s.len() as f64;
            let worst = s.iter().copied().fold(f64::MIN, f64::max);
            (avg.max(0.0), worst.max(0.0))
        })
        .collect()
}

/// Runs the ablation.
#[must_use]
pub fn run(scale: Scale) -> Vec<AblationPoint> {
    run_seeded(scale, 0)
}

/// [`run`], with a sweep seed mixed into every measurement's RNG stream
/// (seed 0 reproduces [`run`] exactly).
#[must_use]
pub fn run_seeded(scale: Scale, sweep_seed: u64) -> Vec<AblationPoint> {
    let detection_only = PtGuardConfig {
        correction: false,
        ..PtGuardConfig::default()
    };
    // (label, MAC bits, correction, configuration):
    // 1. the paper default: 96-bit MAC, correction k = 4;
    // 2. detection-only at the same width: full 96 bits of security;
    // 3. the paper's proposed alternative: a 64-bit MAC (same security as
    //    the corrected 96-bit design, ~64 vs ~66 bits) with a
    //    proportionally cheaper computation. We model the smaller MAC's
    //    latency benefit via the latency knob (≈7 vs 10 cycles for a
    //    shallower fold).
    let designs = [
        (
            "96-bit MAC + correction (paper)",
            96,
            true,
            PtGuardConfig::default(),
        ),
        ("96-bit MAC, detection only", 96, false, detection_only),
        (
            "64-bit MAC, detection only (7cy)",
            64,
            false,
            detection_only.with_mac_latency(7),
        ),
    ];
    let slowdowns = measure(&designs.map(|d| d.3), scale, sweep_seed);
    designs
        .into_iter()
        .zip(slowdowns)
        .map(|((label, mac_bits, correction, _), (avg, worst))| {
            // Correction spends k = 4 bits over at most 372 guesses.
            let (k, guesses) = if correction { (4, 372) } else { (0, 1) };
            AblationPoint {
                label,
                mac_bits,
                correction,
                n_eff: effective_mac_bits(mac_bits, k, guesses),
                attack_years: attack_years(p_escape(mac_bits, k, guesses), 50.0),
                avg_slowdown: avg,
                worst_slowdown: worst,
            }
        })
        .collect()
}

/// Renders the ablation.
#[must_use]
pub fn render(points: &[AblationPoint]) -> String {
    let mut t = Table::new(vec![
        "design",
        "MAC bits",
        "correction",
        "n_eff (bits)",
        "attack (years)",
        "avg slowdown",
        "worst slowdown",
    ]);
    for p in points {
        t.row(vec![
            p.label.to_string(),
            p.mac_bits.to_string(),
            if p.correction {
                "yes".into()
            } else {
                "no".to_string()
            },
            format!("{:.1}", p.n_eff),
            format!("{:.1e}", p.attack_years),
            pct(p.avg_slowdown),
            pct(p.worst_slowdown),
        ]);
    }
    format!(
        "Section VII-A ablation: correction vs MAC size (sampled workloads: {SAMPLED:?})\n{}\nforegoing correction restores the full MAC width; a 64-bit MAC then\nmatches the corrected design's ~66-bit effective security at lower latency.\n",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_orders_security_and_overhead() {
        let pts = run(Scale::Trial);
        assert_eq!(pts.len(), 3);
        let (paper, det96, det64) = (&pts[0], &pts[1], &pts[2]);
        assert!(det96.n_eff > paper.n_eff);
        assert!((det64.n_eff - 64.0).abs() < 1e-9);
        // 64-bit design is within ~2 bits of the corrected design's security.
        assert!((det64.n_eff - paper.n_eff).abs() < 3.0);
        // And cheaper than the 10-cycle designs on average.
        assert!(det64.avg_slowdown <= det96.avg_slowdown + 0.002);
    }
}
