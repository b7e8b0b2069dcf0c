//! `exp attack`: the adversarial-campaign artefact.
//!
//! Drives the [`attacker`] crate's full playbook grid — allocator
//! massaging × hammerer delivery × DRAM-level mitigations × PT-Guard
//! on/off — end to end against a freshly booted victim per trial, plus the
//! Blockhammer throttling sidebar. Scale varies only the trials per cell;
//! the attack physics (activation budgets, module RTH, weak-cell density)
//! stay fixed so cells are comparable across scales.
//!
//! Deterministic for any `--jobs` value: the campaign shards whole cells
//! over the orchestrator pool and every trial derives its own seed from
//! `(campaign seed, cell, trial)`.

use attacker::campaign::{self, CampaignConfig, CampaignResult};
use orchestrator::ThreadPool;

use crate::{salted, Scale};

/// Trials per grid cell at each scale.
#[must_use]
pub fn trials(scale: Scale) -> u32 {
    match scale {
        Scale::Trial => 1,
        Scale::Quick => 2,
        Scale::Full => 4,
    }
}

/// The campaign configuration for a scale and sweep seed.
#[must_use]
pub fn config(scale: Scale, seed: u64) -> CampaignConfig {
    CampaignConfig {
        trials: trials(scale),
        seed: salted(CampaignConfig::default().seed, seed),
        ..CampaignConfig::default()
    }
}

/// Runs the campaign artefact serially at `scale`.
#[must_use]
pub fn run(scale: Scale) -> CampaignResult {
    run_seeded_jobs(scale, 0, 1)
}

/// [`run`] with a sweep seed and an inner worker count. Output is
/// byte-identical for every `jobs` value.
#[must_use]
pub fn run_seeded_jobs(scale: Scale, seed: u64, jobs: usize) -> CampaignResult {
    campaign::run_with_pool(&config(scale, seed), &ThreadPool::new(jobs))
}

/// Renders the campaign report.
#[must_use]
pub fn render(r: &CampaignResult) -> String {
    campaign::render(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_artefact_is_byte_identical_across_jobs() {
        let a = render(&run_seeded_jobs(Scale::Trial, 3, 1));
        let b = render(&run_seeded_jobs(Scale::Trial, 3, 8));
        assert_eq!(a, b);
        assert!(a.contains("pthammer provenance: explicit=0"));
    }

    #[test]
    fn sweep_seeds_change_the_campaign() {
        let a = render(&run_seeded_jobs(Scale::Trial, 0, 1));
        let b = render(&run_seeded_jobs(Scale::Trial, 1, 1));
        assert_ne!(a, b, "sweep seeds must re-roll the campaign");
    }
}
