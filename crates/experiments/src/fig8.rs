//! Figure 8: the page-table census — per-process distribution of
//! contiguous / zero / non-contiguous PFNs.

use workloads::pte_census::{run_census, CensusConfig, CensusReport};

use crate::report::Table;
use crate::{salted, Scale};

/// Runs the census at the given scale, with a sweep seed mixed into the
/// census RNG.
#[must_use]
pub fn run_seeded(scale: Scale, sweep_seed: u64) -> CensusReport {
    let base = CensusConfig::default();
    let cfg = CensusConfig {
        processes: scale.census_processes(),
        lines_per_process: match scale {
            Scale::Trial => 150,
            Scale::Quick => 600,
            Scale::Full => 4800, // ≈ the paper's 24 M PTEs over 623 processes
        },
        seed: salted(base.seed, sweep_seed),
        ..base
    };
    run_census(&cfg)
}

/// Renders the aggregate numbers plus the per-process distribution sampled
/// at deciles (the sorted curve of Figure 8).
#[must_use]
pub fn render(r: &CensusReport) -> String {
    let mut t = Table::new(vec![
        "decile (by contiguous %)",
        "zero %",
        "contiguous %",
        "non-contiguous %",
    ]);
    let n = r.per_process.len();
    for d in 0..=10 {
        let idx = ((d * (n - 1)) / 10).min(n - 1);
        let (z, c, nc) = r.per_process[idx];
        t.row(vec![
            format!("P{}", 100 - d * 10),
            format!("{z:.1}"),
            format!("{c:.1}"),
            format!("{nc:.1}"),
        ]);
    }
    format!(
        "Figure 8: PTE classification across {} processes ({} PTEs)\n{}\naggregate: zero = {:.2}%, contiguous = {:.2}%, non-contiguous = {:.2}%\nflag uniformity across lines = {:.2}%\n(paper: zero 64.13%, contiguous 23.73%, >99% flag uniformity)\n",
        r.per_process.len(),
        r.total_ptes,
        t.render(),
        r.pct_zero,
        r.pct_contiguous,
        r.pct_noncontiguous,
        100.0 * r.flag_uniformity,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_census_matches_marginals() {
        let r = run_seeded(Scale::Trial, 0);
        assert!((52.0..76.0).contains(&r.pct_zero), "zero = {}", r.pct_zero);
        assert!(
            (15.0..33.0).contains(&r.pct_contiguous),
            "contig = {}",
            r.pct_contiguous
        );
        let s = render(&r);
        assert!(s.contains("aggregate"));
    }
}
