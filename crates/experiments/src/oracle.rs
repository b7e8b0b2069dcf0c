//! The `oracle` artefact: the simulator's differential-testing and
//! fault-injection oracle as one seeded, cacheable job.
//!
//! Three phases (crate `ptguard-oracle`):
//!
//! 1. **Differentials** — seeded op streams through the fast cache, TLB,
//!    MMU cache, and page walker, checked op-for-op against naive
//!    reference models. Any divergence is shrunk to a minimal op stream,
//!    which the report prints under its DIVERGENCE line.
//! 2. **MAC sweep** — the bit-level QARMA MAC oracle: cross-checks,
//!    embed→extract→verify round-trips, exhaustive 1-bit (and, at quick
//!    scale and above, exhaustive 2-bit) protected-flip rejection, and the
//!    chunk-swap alias probes that separate the tweak-form MAC from the
//!    paper's literal formula.
//! 3. **Campaign** — the Rowhammer fault-injection campaign through the
//!    full memory system, asserting the Section VI invariants.

use ::oracle::campaign::{self, CampaignConfig, CampaignResult};
use ::oracle::diff::{diff_cache, diff_mmu, diff_tlb, diff_walker, Divergence};
use ::oracle::macoracle::{sweep_with_pool, MacSweepReport};
use memsys::config::CacheConfig;
use orchestrator::pool::ThreadPool;

use crate::{salted, Scale};

/// Everything one oracle run produces.
#[derive(Debug, Clone)]
pub struct OracleResult {
    /// Differential runs performed (structures × seeds).
    pub diff_runs: u64,
    /// Total ops driven through the differentials.
    pub diff_ops: u64,
    /// Divergences found (must be empty; each carries its shrunk stream).
    pub divergences: Vec<Divergence>,
    /// MAC-oracle sweep report.
    pub mac: MacSweepReport,
    /// Fault-injection campaign result.
    pub campaign: CampaignResult,
}

impl OracleResult {
    /// True when every oracle invariant held.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.divergences.is_empty() && self.mac.clean() && self.campaign.clean()
    }
}

struct Knobs {
    diff_seeds: u64,
    diff_ops: usize,
    walk_mappings: usize,
    walk_probes: usize,
    mac_lines: usize,
    mac_pair_budget: usize,
    campaign: CampaignConfig,
}

fn knobs(scale: Scale, seed: u64) -> Knobs {
    let campaign_seed = salted(0x000c_a317, seed);
    match scale {
        Scale::Trial => Knobs {
            diff_seeds: 2,
            diff_ops: 3_000,
            walk_mappings: 100,
            walk_probes: 200,
            mac_lines: 2,
            mac_pair_budget: 400,
            campaign: CampaignConfig {
                benign_loads: 128,
                trials_per_class: 4,
                stochastic_trials: 40,
                seed: campaign_seed,
            },
        },
        Scale::Quick => Knobs {
            diff_seeds: 4,
            diff_ops: 20_000,
            walk_mappings: 400,
            walk_probes: 1_000,
            mac_lines: 4,
            mac_pair_budget: usize::MAX, // exhaustive C(352, 2) per line
            campaign: CampaignConfig {
                benign_loads: 512,
                trials_per_class: 16,
                stochastic_trials: 400,
                seed: campaign_seed,
            },
        },
        Scale::Full => Knobs {
            diff_seeds: 8,
            diff_ops: 100_000,
            walk_mappings: 1_000,
            walk_probes: 4_000,
            mac_lines: 8,
            mac_pair_budget: usize::MAX,
            campaign: CampaignConfig {
                benign_loads: 2_048,
                trials_per_class: 64,
                stochastic_trials: 4_000,
                seed: campaign_seed,
            },
        },
    }
}

/// An eviction-heavy cache geometry for the differential (small enough
/// that every op stream exercises victims and writebacks).
fn diff_cache_cfg() -> CacheConfig {
    CacheConfig {
        size_bytes: 4 << 10,
        ways: 4,
        latency_cycles: 1,
    }
}

/// Runs the oracle at `scale` with the sweep `seed`, fanning the MAC pair
/// sweep and the fault campaign across `jobs` workers (`0` = every core).
/// The worker count never leaks into results: per-unit seeds are derived
/// by index and worker output is merged in index order, so any `jobs`
/// value renders byte-identically.
#[must_use]
pub fn run_with_seed_jobs(scale: Scale, seed: u64, jobs: usize) -> OracleResult {
    let k = knobs(scale, seed);
    let pool = ThreadPool::new(jobs);
    let mut divergences = Vec::new();
    let mut diff_runs = 0u64;
    let mut diff_ops = 0u64;

    for i in 0..k.diff_seeds {
        let s = salted(0xd1ff_0000 + i, seed);
        diff_runs += 4;
        diff_ops += 3 * k.diff_ops as u64 + k.walk_probes as u64;
        divergences.extend(diff_cache(s, k.diff_ops, diff_cache_cfg()));
        divergences.extend(diff_tlb(s, k.diff_ops, 16));
        divergences.extend(diff_mmu(s, k.diff_ops, 64, 4));
        divergences.extend(diff_walker(s, k.walk_mappings, k.walk_probes));
    }

    let mac = sweep_with_pool(
        &ptguard::PtGuardConfig::default(),
        salted(0x006d_6163, seed),
        k.mac_lines,
        k.mac_pair_budget,
        &pool,
    );
    let campaign = campaign::run_with_pool(&k.campaign, &pool);

    OracleResult {
        diff_runs,
        diff_ops,
        divergences,
        mac,
        campaign,
    }
}

/// Renders the oracle summary.
#[must_use]
pub fn render(r: &OracleResult) -> String {
    let mut out = String::new();
    out.push_str("Simulator oracle: differentials + MAC sweep + fault campaign\n");
    out.push_str("============================================================\n\n");
    out.push_str(&format!(
        "Differentials   {} runs, {} ops, {} divergence(s)\n",
        r.diff_runs,
        r.diff_ops,
        r.divergences.len()
    ));
    for d in &r.divergences {
        out.push_str(&format!(
            "  DIVERGENCE [{}] {} ops -> {} ops: {}\n    {}\n",
            d.kind, d.ops_total, d.ops_minimal, d.message, d.stream
        ));
    }
    out.push_str(&format!(
        "MAC oracle      {} lines cross-checked ({} mismatches), {} round-trips ({} failures)\n",
        r.mac.cross_checked, r.mac.mismatches, r.mac.roundtrips, r.mac.roundtrip_failures
    ));
    out.push_str(&format!(
        "                {} single flips ({} undetected), {} pair flips ({} undetected)\n",
        r.mac.single_flips, r.mac.single_undetected, r.mac.pair_flips, r.mac.pair_undetected
    ));
    out.push_str(&format!(
        "                {} alias probes: {} collide under paper formula, {} accepted by tweak form\n",
        r.mac.alias_probes, r.mac.alias_collides_paper, r.mac.alias_accepted_tweak
    ));
    out.push_str(&format!(
        "Fault campaign  {} benign loads ({} false positives), {} injections\n",
        r.campaign.benign_loads, r.campaign.false_positives, r.campaign.injected
    ));
    out.push_str(&format!(
        "                corrected {} / detected {} / page-faulted {} / silent {}\n",
        r.campaign.corrected_ok,
        r.campaign.detected,
        r.campaign.page_faults,
        r.campaign.silent_corruptions
    ));
    out.push_str(&format!(
        "                steps [soft-match {}, flip-and-check {}, zero-reset {}, majority/contiguity {}], \
         uncorrectable {}, max guesses {}\n",
        r.campaign.step_counts[0],
        r.campaign.step_counts[1],
        r.campaign.step_counts[2],
        r.campaign.step_counts[3],
        r.campaign.uncorrectable,
        r.campaign.max_guesses
    ));
    for v in &r.campaign.violations {
        out.push_str(&format!("  VIOLATION: {v}\n"));
    }
    out.push_str(&format!(
        "\nVerdict: {}\n",
        if r.clean() { "CLEAN" } else { "FAULTY" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_oracle_is_clean_and_deterministic() {
        let a = run_with_seed_jobs(Scale::Trial, 0, 1);
        assert!(a.clean(), "{}", render(&a));
        let b = run_with_seed_jobs(Scale::Trial, 0, 1);
        assert_eq!(render(&a), render(&b));
    }

    #[test]
    fn seeds_change_the_campaign_stream() {
        let a = run_with_seed_jobs(Scale::Trial, 1, 1);
        assert!(a.clean(), "{}", render(&a));
    }

    #[test]
    fn parallel_oracle_renders_byte_identically_to_serial() {
        let serial = run_with_seed_jobs(Scale::Trial, 0, 1);
        for jobs in [2, 8] {
            let par = run_with_seed_jobs(Scale::Trial, 0, jobs);
            assert_eq!(
                render(&serial),
                render(&par),
                "jobs={jobs} changed the oracle output"
            );
        }
    }
}
