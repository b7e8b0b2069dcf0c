//! Section VII-C: PT-Guard slowdown on a 4-core system (SAME + MIX
//! bundles).

use ptguard::PtGuardConfig;
use simx::multicore::{evaluate_bundle, BundleResult, CORES};
use workloads::multiprog::{mix_bundles, same_bundles};

use crate::report::{amean, pct, Table};
use crate::Scale;

/// The multi-core study's results.
#[derive(Debug, Clone)]
pub struct MultiCoreResult {
    /// Per-bundle slowdowns (contention-multiplier model, as the paper's
    /// SE-mode methodology).
    pub bundles: Vec<BundleResult>,
    /// Average slowdown across bundles.
    pub avg: f64,
    /// Worst bundle slowdown.
    pub worst: f64,
    /// Name of the worst bundle.
    pub worst_name: String,
}

/// Runs the study: 18 SAME + 16 MIX bundles at `Full`, a subset otherwise,
/// with a sweep seed mixed into the MIX-bundle draw.
#[must_use]
pub fn run_seeded(scale: Scale, sweep_seed: u64) -> MultiCoreResult {
    let instructions_per_core = match scale {
        Scale::Trial => 30_000,
        Scale::Quick => 100_000,
        Scale::Full => 250_000,
    };
    let mut bundles: Vec<_> = same_bundles(CORES);
    bundles.extend(mix_bundles(CORES, crate::salted(0x3117, sweep_seed)));
    if scale == Scale::Trial {
        bundles.truncate(4);
    }
    let results: Vec<BundleResult> = bundles
        .iter()
        .map(|b| evaluate_bundle(b, PtGuardConfig::default(), instructions_per_core))
        .collect();
    let slowdowns: Vec<f64> = results.iter().map(|r| r.slowdown.max(0.0)).collect();
    let avg = amean(&slowdowns);
    let (worst_name, worst) = results
        .iter()
        .map(|r| (r.name.clone(), r.slowdown))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty");
    MultiCoreResult {
        bundles: results,
        avg,
        worst,
        worst_name,
    }
}

/// Renders the study.
#[must_use]
pub fn render(r: &MultiCoreResult) -> String {
    let mut t = Table::new(vec!["bundle", "slowdown"]);
    for b in &r.bundles {
        t.row(vec![b.name.clone(), pct(b.slowdown.max(0.0))]);
    }
    format!(
        "Section VII-C: 4-core slowdown, SAME + MIX bundles (paper: 0.5% avg, 1.6% worst)\n{}\naverage = {}, worst = {} ({})\n",
        t.render(),
        pct(r.avg),
        pct(r.worst.max(0.0)),
        r.worst_name,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_multicore_slowdowns_are_small() {
        let r = run_seeded(Scale::Trial, 0);
        assert!(!r.bundles.is_empty());
        // The trial subset is the four *most* memory-intensive SAME
        // bundles, so the bound is looser than the paper's all-bundle 0.5%.
        assert!(r.avg < 0.05, "avg = {}", r.avg);
        assert!(r.worst < 0.08, "worst = {}", r.worst);
    }
}
