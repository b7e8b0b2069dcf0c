//! `exp serve`: the MAC-verification-service artefact.
//!
//! Two halves, both deterministic for any `--jobs` value:
//!
//! 1. A **streamed census** over a population of address spaces far larger
//!    than Figure 8's materialised run — O(shard) memory, sharded across
//!    the orchestrator pool — establishing the PTE mix the service sees.
//! 2. The **queueing model** of the serve pipeline ([`serve::sim`]): seeded
//!    Poisson arrivals at three target rates against the real MAC engine,
//!    reporting p50/p99/p999 latency, achieved throughput, and the
//!    coalescing factor at each rate. The wall-clock TCP path is exercised
//!    by `serve-load` and the CI smoke job; this artefact is the cacheable,
//!    machine-independent record.

use orchestrator::ThreadPool;
use serve::core::Engine;
use serve::corpus::census_corpus;
use serve::sim::{simulate_rate, SimReport};
use workloads::pte_census::{run_census_streamed, CensusConfig, CensusTally};

use crate::report::Table;
use crate::{salted, Scale};

/// Target arrival rates (requests/second). The middle rate sits below the
/// scalar service capacity (~870 k/s under the cost model), the top rate
/// beyond it, so the table shows coalescing switching on.
pub const RATES: [u64; 3] = [200_000, 600_000, 1_200_000];

/// Request mix: every 8th request is an embed (a fresh PTE write), the
/// rest are verifies of protected lines.
pub const EMBED_EVERY: usize = 8;

/// Address spaces streamed through the census at each scale.
#[must_use]
pub fn census_processes(scale: Scale) -> usize {
    match scale {
        Scale::Trial => 1_500,
        Scale::Quick => 40_000,
        Scale::Full => 1_500_000,
    }
}

/// Corpus entries (distinct protected lines) replayed by the model.
#[must_use]
pub fn corpus_entries(scale: Scale) -> usize {
    match scale {
        Scale::Trial => 2_048,
        Scale::Quick => 16_384,
        Scale::Full => 65_536,
    }
}

/// Requests simulated per target rate.
#[must_use]
pub fn sim_requests(scale: Scale) -> usize {
    match scale {
        Scale::Trial => 20_000,
        Scale::Quick => 100_000,
        Scale::Full => 400_000,
    }
}

fn census_cfg(scale: Scale, sweep_seed: u64) -> CensusConfig {
    let base = CensusConfig::default();
    CensusConfig {
        processes: census_processes(scale),
        lines_per_process: 24,
        seed: salted(base.seed, sweep_seed),
        ..base
    }
}

/// The artefact's result: the streamed census tally plus one model report
/// per target rate.
#[derive(Debug, Clone)]
pub struct ServeResult {
    /// Aggregate PTE classification over the streamed population.
    pub census: CensusTally,
    /// Distinct protected lines in the replayed corpus.
    pub corpus_lines: usize,
    /// One queueing-model report per entry of [`RATES`].
    pub rates: Vec<SimReport>,
}

/// Runs the artefact at the given scale with a sweep seed and an inner
/// worker count. Output is
/// byte-identical for every `jobs` value: the census uses fixed shard
/// counts and the model's batch plan is computed sequentially.
#[must_use]
pub fn run_seeded_jobs(scale: Scale, seed: u64, jobs: usize) -> ServeResult {
    let pool = ThreadPool::new(jobs);
    let cfg = census_cfg(scale, seed);
    let census = run_census_streamed(&cfg, &pool);

    let engine = Engine::new(&ptguard::PtGuardConfig::default());
    let corpus = census_corpus(&cfg, corpus_entries(scale), &engine, &pool);
    let requests = sim_requests(scale);
    let rates = RATES
        .iter()
        .map(|&rate| {
            simulate_rate(
                &engine,
                &corpus,
                rate,
                requests,
                salted(0x5e72_e000, seed) ^ rate,
                EMBED_EVERY,
                &pool,
            )
        })
        .collect();
    ServeResult {
        census,
        corpus_lines: corpus.len(),
        rates,
    }
}

fn us(ns: f64) -> String {
    format!("{:.2}", ns / 1_000.0)
}

/// Renders the tail-latency table plus the census and MAC-outcome footer.
#[must_use]
pub fn render(r: &ServeResult) -> String {
    let mut t = Table::new(vec![
        "target req/s",
        "achieved req/s",
        "p50 µs",
        "p99 µs",
        "p999 µs",
        "mean batch",
    ]);
    for s in &r.rates {
        t.row(vec![
            format!("{}", s.target_rps),
            format!("{:.0}", s.achieved_rps),
            us(s.hist.percentile(50.0)),
            us(s.hist.percentile(99.0)),
            us(s.hist.percentile(99.9)),
            format!("{:.2}", s.mean_batch()),
        ]);
    }
    let (corrects, corrected, uncorrectable, checksum) =
        r.rates
            .iter()
            .fold((0u64, 0u64, 0u64, 0u64), |(a, b, c, d), s| {
                (
                    a + s.outcome.corrects,
                    b + s.outcome.corrected,
                    c + s.outcome.uncorrectable,
                    d.wrapping_add(s.checksum),
                )
            });
    format!(
        "Serve model: {} requests/rate over a {}-line corpus (1 embed : {} verifies)\n{}\ncensus: {} PTEs across {} address spaces — zero = {:.2}%, contiguous = {:.2}%, non-contiguous = {:.2}%\nfault injection: {} corrupted lines, {} corrected, {} uncorrectable\nresponse-stream checksum: {checksum:#018x}\n",
        r.rates.first().map_or(0, |s| s.requests),
        r.corpus_lines,
        EMBED_EVERY - 1,
        t.render(),
        r.census.total_ptes(),
        r.census.total_ptes() / (8 * 24),
        r.census.pct_zero(),
        r.census.pct_contiguous(),
        r.census.pct_noncontiguous(),
        corrects,
        corrected,
        uncorrectable,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_run_is_byte_identical_across_worker_counts() {
        let a = render(&run_seeded_jobs(Scale::Trial, 0, 1));
        let b = render(&run_seeded_jobs(Scale::Trial, 0, 8));
        assert_eq!(a, b);
        assert!(a.contains("p999"));
    }

    #[test]
    fn saturating_rate_coalesces_and_faults_are_corrected() {
        let r = run_seeded_jobs(Scale::Trial, 0, 1);
        assert_eq!(r.rates.len(), RATES.len());
        // The top rate exceeds scalar capacity: batches must form.
        let top = r.rates.last().unwrap();
        assert!(top.mean_batch() > 1.0, "mean batch {}", top.mean_batch());
        // Injected faults all land in the correctable single-bit class.
        let (corrects, corrected): (u64, u64) = r
            .rates
            .iter()
            .map(|s| (s.outcome.corrects, s.outcome.corrected))
            .fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
        assert!(corrects > 0);
        assert_eq!(corrects, corrected);
        // Tail latency is monotone in offered load.
        assert!(
            r.rates[2].hist.percentile(99.0) >= r.rates[0].hist.percentile(99.0),
            "p99 should not improve under saturation"
        );
    }
}
