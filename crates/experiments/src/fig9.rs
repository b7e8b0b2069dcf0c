//! Figure 9: percentage of faulty PTE cachelines corrected by best-effort
//! correction, for bit-flip probabilities from 1/1024 to 1/128, plus the
//! 100 %-detection claim of Section VI-F.

use pagetable::addr::PhysAddr;
use rng::SplitMix64;

use dram::faults::flip_bits_uniform;
use ptguard::correct::CorrectionStep;
use ptguard::engine::ReadVerdict;
use ptguard::line::Line;
use ptguard::pattern;
use ptguard::{PtGuardConfig, PtGuardEngine};
use workloads::pte_census::{generate_process, CensusConfig};

use crate::report::{pct, Table};
use crate::Scale;

/// The workloads Figure 9 plots (4 SPEC + 2 GAP) plus the mean.
pub const FIG9_WORKLOADS: [&str; 6] = ["mcf", "omnetpp", "xalancbmk", "lbm", "bc", "sssp"];

/// The flip probabilities of the x-axis (1/1024 … 1/128; 1/512 ≈ DDR4
/// worst case, 1/128 ≈ LPDDR4 worst case per the paper).
pub const P_FLIPS: [f64; 4] = [1.0 / 1024.0, 1.0 / 512.0, 1.0 / 256.0, 1.0 / 128.0];

/// Result of one (workload, p_flip) cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct CorrectionCell {
    /// Lines that actually received damage to MAC-relevant bits.
    pub erroneous: u64,
    /// Of those, how many were transparently corrected.
    pub corrected: u64,
    /// Detected but uncorrectable (integrity exception).
    pub failed: u64,
    /// Corrections whose output differed from the original (must be 0).
    pub miscorrected: u64,
    /// Damaged lines that verified as clean (must be 0 — detection).
    pub undetected: u64,
    /// Corrections by strategy: soft match, flip-and-check, zero reset,
    /// majority/contiguity (Section VI-D's steps 1, 2, 3, 4+5).
    pub by_step: [u64; 4],
}

impl CorrectionCell {
    /// Fraction of erroneous lines corrected.
    #[must_use]
    pub fn correction_rate(&self) -> f64 {
        if self.erroneous == 0 {
            0.0
        } else {
            self.corrected as f64 / self.erroneous as f64
        }
    }
}

/// Full Figure 9 grid.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// `cells[w][p]` for workload `w`, probability index `p`.
    pub cells: Vec<Vec<CorrectionCell>>,
    /// Per-probability average correction rate.
    pub averages: Vec<f64>,
}

/// Per-workload PTE-line population: the paper extracts the PTE cachelines
/// that page walks bring to the memory controller; we draw a population
/// from the census model seeded per workload (DESIGN.md substitution).
fn workload_lines(name: &str, count: usize) -> Vec<Line> {
    let pid = name
        .bytes()
        .fold(7u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
    let cfg = CensusConfig {
        lines_per_process: count,
        ..CensusConfig::default()
    };
    generate_process(&cfg, pid as usize)
        .lines
        .iter()
        .map(|words| Line::from_words(*words))
        .collect()
}

/// Evaluates one (workload, p_flip) cell.
#[must_use]
pub fn evaluate_cell(name: &str, p_flip: f64, lines: usize, seed: u64) -> CorrectionCell {
    let mut engine = PtGuardEngine::new(PtGuardConfig::default());
    let mac_unit_mask = {
        // Bits whose corruption is observable: MAC-protected content plus
        // the embedded MAC itself. (Accessed bits and the identifier region
        // are excluded from the MAC by design.)
        engine.mac_unit().protected_mask() | pattern::MAC_FIELD_MASK
    };
    let mut rng = SplitMix64::new(seed);
    let mut cell = CorrectionCell::default();
    for (i, line) in workload_lines(name, lines).into_iter().enumerate() {
        let addr = PhysAddr::new(0x100_0000 + (i as u64) * 64);
        let stored = engine.process_write(line, addr).line;
        assert!(
            pattern::matches_base_pattern(&line),
            "census lines must pattern-match"
        );
        let mut bytes = stored.to_bytes();
        flip_bits_uniform(&mut bytes, p_flip, &mut rng);
        let faulty = Line::from_bytes(&bytes);
        let damage = faulty
            .masked(mac_unit_mask)
            .hamming(&stored.masked(mac_unit_mask));
        if damage == 0 {
            continue; // no observable error injected
        }
        cell.erroneous += 1;
        let out = engine.process_read(faulty, addr, true);
        match out.verdict {
            ReadVerdict::Verified => cell.undetected += 1,
            ReadVerdict::Corrected { step, .. } => {
                // Compare the protected content only: flips to unprotected
                // bits (accessed, identifier region) legitimately persist.
                let protected = engine.mac_unit().protected_mask();
                if out.line.masked(protected) == line.masked(protected) {
                    cell.corrected += 1;
                    cell.by_step[match step {
                        CorrectionStep::SoftMatch => 0,
                        CorrectionStep::FlipAndCheck => 1,
                        CorrectionStep::ZeroReset => 2,
                        CorrectionStep::MajorityAndContiguity => 3,
                    }] += 1;
                } else {
                    cell.miscorrected += 1;
                }
            }
            ReadVerdict::CheckFailed => cell.failed += 1,
            ReadVerdict::Forwarded => unreachable!("PTE reads always verify"),
        }
    }
    cell
}

/// Runs the full grid, with a sweep seed mixed into every cell's RNG
/// stream.
#[must_use]
pub fn run_seeded(scale: Scale, sweep_seed: u64) -> Fig9Result {
    let lines = scale.correction_lines();
    let mut cells = Vec::new();
    for (wi, w) in FIG9_WORKLOADS.iter().enumerate() {
        let mut row = Vec::new();
        for (pi, &p) in P_FLIPS.iter().enumerate() {
            let seed = crate::salted(0xf19 + (wi * 7 + pi) as u64, sweep_seed);
            row.push(evaluate_cell(w, p, lines, seed));
        }
        cells.push(row);
    }
    let averages = (0..P_FLIPS.len())
        .map(|pi| {
            let rates: f64 = cells.iter().map(|row| row[pi].correction_rate()).sum();
            rates / cells.len() as f64
        })
        .collect();
    Fig9Result { cells, averages }
}

/// Renders the figure.
#[must_use]
pub fn render(r: &Fig9Result) -> String {
    let mut header = vec!["workload".to_string()];
    for &p in &P_FLIPS {
        header.push(format!("p=1/{}", (1.0 / p).round() as u64));
    }
    let mut t = Table::new(header);
    for (wi, w) in FIG9_WORKLOADS.iter().enumerate() {
        let mut row = vec![w.to_string()];
        for cell in &r.cells[wi] {
            row.push(pct(cell.correction_rate()));
        }
        t.row(row);
    }
    let mut avg_row = vec!["average".to_string()];
    for a in &r.averages {
        avg_row.push(pct(*a));
    }
    t.row(avg_row);
    // Per-strategy breakdown across the whole grid (Section VI-D's steps).
    let mut steps = [0u64; 4];
    for c in r.cells.iter().flatten() {
        for (acc, s) in steps.iter_mut().zip(c.by_step.iter()) {
            *acc += s;
        }
    }
    let total_corrected: u64 = steps.iter().sum();
    let mut st = Table::new(vec!["strategy", "corrections", "share"]);
    for (name, n) in [
        ("1. soft match (MAC-only faults)", steps[0]),
        ("2. flip and check (single bit)", steps[1]),
        ("3. zero reset", steps[2]),
        ("4+5. majority vote / contiguity", steps[3]),
    ] {
        st.row(vec![
            name.to_string(),
            n.to_string(),
            pct(n as f64 / total_corrected.max(1) as f64),
        ]);
    }
    let any_undetected: u64 = r.cells.iter().flatten().map(|c| c.undetected).sum();
    let any_miscorrected: u64 = r.cells.iter().flatten().map(|c| c.miscorrected).sum();
    let total: u64 = r.cells.iter().flatten().map(|c| c.erroneous).sum();
    format!(
        "Figure 9: % of faulty PTE cachelines corrected (paper: ~93% at 1/512, ~70% at 1/128)\n{}\ncorrections by strategy (Section VI-D):\n{}\ndetection coverage: {} erroneous lines, {} undetected, {} miscorrected (both must be 0)\n",
        t.render(),
        st.render(),
        total,
        any_undetected,
        any_miscorrected,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_rate_decreases_with_flip_probability() {
        let lo = evaluate_cell("xalancbmk", 1.0 / 1024.0, 500, 1);
        let hi = evaluate_cell("xalancbmk", 1.0 / 128.0, 500, 1);
        assert!(lo.erroneous > 0 && hi.erroneous > 0);
        assert!(
            lo.correction_rate() > hi.correction_rate(),
            "lo {lo:?} hi {hi:?}"
        );
        assert!(
            lo.correction_rate() > 0.75,
            "at 1/1024 most lines are single-flip: {lo:?}"
        );
    }

    #[test]
    fn detection_is_complete_and_never_miscorrects() {
        for p in [1.0 / 512.0, 1.0 / 128.0] {
            let c = evaluate_cell("bc", p, 400, 2);
            assert_eq!(c.undetected, 0, "p={p}: undetected damage");
            assert_eq!(c.miscorrected, 0, "p={p}: miscorrection");
            assert_eq!(c.erroneous, c.corrected + c.failed);
        }
    }
}
