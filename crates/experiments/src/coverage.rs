//! Section VI-F's coverage claim: across all simulated PTE accesses with
//! injected faults, every fault is detected (100 % coverage).

use pagetable::addr::PhysAddr;
use rng::SplitMix64;

use dram::faults::flip_bits_uniform;
use ptguard::engine::ReadVerdict;
use ptguard::line::Line;
use ptguard::pattern;
use ptguard::{PtGuardConfig, PtGuardEngine};
use workloads::pte_census::{generate_process, CensusConfig};

use crate::Scale;

/// Coverage result.
#[derive(Debug, Clone, Copy)]
pub struct CoverageResult {
    /// PTE accesses simulated.
    pub accesses: u64,
    /// Accesses with observable injected damage.
    pub erroneous: u64,
    /// Damaged accesses detected (corrected or faulted).
    pub detected: u64,
}

impl CoverageResult {
    /// Detection coverage in [0, 1].
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.erroneous == 0 {
            1.0
        } else {
            self.detected as f64 / self.erroneous as f64
        }
    }
}

/// Runs the coverage experiment (paper: 126 M PTE accesses across SPEC and
/// GAP; `Full` here runs 2 M line accesses, `Trial` far fewer), with a
/// sweep seed mixed into the fault-injection RNG.
#[must_use]
pub fn run_seeded(scale: Scale, sweep_seed: u64) -> CoverageResult {
    let accesses = match scale {
        Scale::Trial => 5_000u64,
        Scale::Quick => 100_000,
        Scale::Full => 2_000_000,
    };
    let mut engine = PtGuardEngine::new(PtGuardConfig::default());
    let observable = engine.mac_unit().protected_mask() | pattern::MAC_FIELD_MASK;
    let mut rng = SplitMix64::new(crate::salted(0xc0ffee, sweep_seed));
    let cfg = CensusConfig {
        lines_per_process: 2048,
        ..CensusConfig::default()
    };
    let pool: Vec<Line> = generate_process(&cfg, 99)
        .lines
        .iter()
        .map(|w| Line::from_words(*w))
        .collect();

    let mut result = CoverageResult {
        accesses,
        erroneous: 0,
        detected: 0,
    };
    for i in 0..accesses {
        let line = pool[(i as usize) % pool.len()];
        let addr = PhysAddr::new(0x4000_0000 + i * 64);
        let stored = engine.process_write(line, addr).line;
        let mut bytes = stored.to_bytes();
        flip_bits_uniform(&mut bytes, 1.0 / 512.0, &mut rng);
        let faulty = Line::from_bytes(&bytes);
        let damaged = faulty.masked(observable) != stored.masked(observable);
        let out = engine.process_read(faulty, addr, true);
        if damaged {
            result.erroneous += 1;
            match out.verdict {
                ReadVerdict::Corrected { .. } | ReadVerdict::CheckFailed => result.detected += 1,
                ReadVerdict::Verified | ReadVerdict::Forwarded => {}
            }
        }
    }
    result
}

/// Renders the result.
#[must_use]
pub fn render(r: &CoverageResult) -> String {
    format!(
        "Section VI-F coverage: {} PTE accesses, {} with injected faults, {} detected -> coverage {:.4}% (paper: 100%)\n",
        r.accesses,
        r.erroneous,
        r.detected,
        100.0 * r.coverage(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_is_total() {
        let r = run_seeded(Scale::Trial, 0);
        assert!(
            r.erroneous > 100,
            "want meaningful sample, got {}",
            r.erroneous
        );
        assert_eq!(r.detected, r.erroneous, "every fault must be detected");
    }
}
