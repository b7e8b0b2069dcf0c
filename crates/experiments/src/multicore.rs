//! Section VII-C: PT-Guard slowdown on a 4-core system (SAME + MIX
//! bundles).

use ptguard::PtGuardConfig;
use simx::multicore::{evaluate_bundle, BundleResult, CORES};
use simx::shared::{evaluate_bundle_shared, SharedConfig};
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
    /// Cross-check: `(bundle, slowdown)` under the true shared-LLC /
    /// shared-channel model for a memory-heavy sample of bundles.
    pub shared_model: Vec<(String, f64)>,
}

/// Runs the study: 18 SAME + 16 MIX bundles at `Full`, a subset otherwise.
#[must_use]
pub fn run(scale: Scale) -> MultiCoreResult {
    run_seeded(scale, 0)
}

/// [`run`], with a sweep seed mixed into the MIX-bundle draw (seed 0
/// reproduces [`run`] exactly).
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

    // Cross-check a memory-heavy sample under the derived-contention model.
    let shared_cfg = SharedConfig {
        instructions_per_core: instructions_per_core.min(60_000),
        ..SharedConfig::default()
    };
    let sample: Vec<&str> = match scale {
        Scale::Trial => vec!["SAME-xalancbmk"],
        _ => vec!["SAME-xalancbmk", "SAME-lbm", "SAME-mcf", "SAME-povray"],
    };
    let shared_model = bundles
        .iter()
        .filter(|b| sample.contains(&b.name.as_str()))
        .map(|b| {
            (
                b.name.clone(),
                evaluate_bundle_shared(b, PtGuardConfig::default(), shared_cfg).max(0.0),
            )
        })
        .collect();

    MultiCoreResult {
        bundles: results,
        avg,
        worst,
        worst_name,
        shared_model,
    }
}

/// Renders the study.
#[must_use]
pub fn render(r: &MultiCoreResult) -> String {
    let mut t = Table::new(vec!["bundle", "slowdown"]);
    for b in &r.bundles {
        t.row(vec![b.name.clone(), pct(b.slowdown.max(0.0))]);
    }
    let mut shared = String::new();
    for (name, s) in &r.shared_model {
        shared.push_str(&format!("  {name}: {}\n", pct(*s)));
    }
    format!(
        "Section VII-C: 4-core slowdown, SAME + MIX bundles (paper: 0.5% avg, 1.6% worst)\n{}\naverage = {}, worst = {} ({})\ncross-check, derived-contention shared-LLC model (sampled bundles):\n{}",
        t.render(),
        pct(r.avg),
        pct(r.worst.max(0.0)),
        r.worst_name,
        shared,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_multicore_slowdowns_are_small() {
        let r = run(Scale::Trial);
        assert!(!r.bundles.is_empty());
        // The trial subset is the four *most* memory-intensive SAME
        // bundles, so the bound is looser than the paper's all-bundle 0.5%.
        assert!(r.avg < 0.05, "avg = {}", r.avg);
        assert!(r.worst < 0.08, "worst = {}", r.worst);
    }
}
