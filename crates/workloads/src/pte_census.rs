//! Generative model of real-system page-table populations (Section VI-B).
//!
//! The paper profiles 623 Ubuntu processes (24 M PTEs) and finds:
//!
//! * 64.13 % of PTEs are all-zero (a table page is allocated even when only
//!   one entry is live);
//! * 23.73 % have PFNs *contiguous* (±1) with a neighbouring non-zero PFN
//!   in the same cacheline (buddy-allocator locality);
//! * for each flag, >99 % of PTE cachelines have a uniform flag value
//!   across their non-zero entries.
//!
//! This module generates per-process page-table contents with those
//! marginals and realistic per-process spread, reproducing Figure 8's shape
//! and feeding the Figure 9 correction study.
//!
//! Generation *streams*: [`stream_process`] drives a per-line callback and
//! each process draws from an independent RNG stream, so a census of
//! millions of address spaces runs in O(shard) memory and shards trivially
//! across the orchestrator pool ([`run_census_streamed`]). The classified
//! counts ([`CensusTally`]) are plain sums, so shard merges are
//! order-independent and the result is byte-identical for any job count.

use orchestrator::ThreadPool;
use rng::SplitMix64;

/// Default non-zero PTE flag template: present, writable, user, accessed,
/// dirty, NX.
pub const DEFAULT_FLAGS: u64 = 0x8000_0000_0000_0067;

/// Census generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct CensusConfig {
    /// Number of processes (paper: 623).
    pub processes: usize,
    /// Page-table cachelines generated per process.
    pub lines_per_process: usize,
    /// Mean fraction of zero PTEs (paper: 0.6413).
    pub mean_zero_frac: f64,
    /// Per-process standard deviation of the zero fraction.
    pub zero_spread: f64,
    /// Fraction of lines given one deviant flag entry (flag uniformity is
    /// then `1 − flag_deviation`; paper: >0.99 uniform).
    pub flag_deviation: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for CensusConfig {
    fn default() -> Self {
        Self {
            processes: 623,
            lines_per_process: 600,
            mean_zero_frac: 0.6413,
            zero_spread: 0.17,
            flag_deviation: 0.005,
            seed: 0xce5u64,
        }
    }
}

/// Per-PTE classification, as in Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PteClass {
    /// All-zero entry.
    Zero,
    /// PFN is ±1 of the nearest non-zero neighbour in the line.
    Contiguous,
    /// Non-zero with no contiguous neighbour.
    NonContiguous,
}

/// One generated process's page-table cachelines.
#[derive(Debug, Clone)]
pub struct ProcessPageTables {
    /// Synthetic process id.
    pub pid: usize,
    /// PTE cachelines (8 entries each).
    pub lines: Vec<[u64; 8]>,
}

/// Census-wide classification report.
#[derive(Debug, Clone)]
pub struct CensusReport {
    /// Percentage of zero PTEs over all processes.
    pub pct_zero: f64,
    /// Percentage of contiguous PTEs.
    pub pct_contiguous: f64,
    /// Percentage of non-contiguous PTEs.
    pub pct_noncontiguous: f64,
    /// Fraction of lines whose non-zero entries share all flag values.
    pub flag_uniformity: f64,
    /// Per-process `(zero %, contiguous %, non-contiguous %)`, sorted by
    /// contiguous % (the x-axis order of Figure 8).
    pub per_process: Vec<(f64, f64, f64)>,
    /// Total PTEs classified.
    pub total_ptes: u64,
}

/// Generates one process's page tables, materialized in memory.
///
/// Equivalent to collecting [`stream_process`]'s lines; prefer streaming
/// for large censuses.
#[must_use]
pub fn generate_process(cfg: &CensusConfig, pid: usize) -> ProcessPageTables {
    let mut lines = Vec::with_capacity(cfg.lines_per_process);
    stream_process(cfg, pid, |line| lines.push(*line));
    ProcessPageTables { pid, lines }
}

/// Generates one process's page tables, invoking `sink` once per cacheline
/// in order — O(1) memory regardless of process size.
///
/// Each process draws from an independent RNG stream keyed by
/// `cfg.seed ^ (pid << 24)`, so any subset of processes can be generated
/// on any shard with identical results.
pub fn stream_process(cfg: &CensusConfig, pid: usize, mut sink: impl FnMut(&[u64; 8])) {
    let mut rng = SplitMix64::new(cfg.seed ^ ((pid as u64) << 24));
    // Per-process knobs: zero fraction and run-extension probability.
    let zero_frac = (cfg.mean_zero_frac + cfg.zero_spread * rng.normal()).clamp(0.20, 0.97);
    let run_extend: f64 = rng.gen_range_f64(0.05, 0.93);
    let flags = DEFAULT_FLAGS;
    // Entries arrive as zero singletons or non-zero runs of expected length
    // E[L] ≈ 1/(1−run_extend); pick the zero-block probability `q` so the
    // *entry-level* zero fraction equals `zero_frac`:
    // zero_share = q / (q + (1−q)·E[L]).
    let e_len = (1.0 / (1.0 - run_extend)).min(16.0);
    let q = (zero_frac * e_len) / (1.0 - zero_frac + zero_frac * e_len);

    let mut run_left = 0u64; // entries remaining in the current PFN run
    let mut next_pfn = 0u64;
    for _ in 0..cfg.lines_per_process {
        let mut line = [0u64; 8];
        for e in line.iter_mut() {
            if run_left > 0 {
                *e = (next_pfn << 12) | flags;
                next_pfn += 1;
                run_left -= 1;
                continue;
            }
            if rng.gen_bool(q) {
                continue; // zero PTE
            }
            // Start a new run at a fresh physical location.
            next_pfn = rng.gen_range_u64(1, (1 << 28) - 64);
            run_left = 1;
            while run_left < 32 && rng.gen_bool(run_extend) {
                run_left += 1;
            }
            *e = (next_pfn << 12) | flags;
            next_pfn += 1;
            run_left -= 1;
        }
        // Occasional deviant flag entry (keeps uniformity just under 100 %).
        if rng.gen_bool(cfg.flag_deviation) {
            if let Some(idx) = line.iter().position(|&w| w != 0) {
                line[idx] ^= 1 << 63; // NX deviates
            }
        }
        sink(&line);
    }
}

/// Classifies each entry of a PTE cacheline (paper rule: contiguous means
/// the PFN is ±1 of a neighbouring non-zero PFN in the line).
#[must_use]
pub fn classify_line(line: &[u64; 8]) -> [PteClass; 8] {
    let pfn = |w: u64| (w >> 12) & ((1u64 << 40) - 1);
    let mut out = [PteClass::Zero; 8];
    for i in 0..8 {
        if line[i] == 0 {
            continue;
        }
        let mut contiguous = false;
        // Nearest non-zero neighbour on each side.
        for j in (0..i).rev() {
            if line[j] != 0 {
                contiguous |= pfn(line[i]).abs_diff(pfn(line[j])) == 1;
                break;
            }
        }
        for j in (i + 1)..8 {
            if line[j] != 0 {
                contiguous |= pfn(line[i]).abs_diff(pfn(line[j])) == 1;
                break;
            }
        }
        out[i] = if contiguous {
            PteClass::Contiguous
        } else {
            PteClass::NonContiguous
        };
    }
    out
}

/// Whether a line's non-zero entries agree on every flag bit (flags = all
/// non-PFN low/high bits).
#[must_use]
pub fn flags_uniform(line: &[u64; 8]) -> bool {
    const FLAG_MASK: u64 = 0xF800_0000_0000_0FFF & !(0xfff << 40);
    let mut seen: Option<u64> = None;
    for &w in line {
        if w == 0 {
            continue;
        }
        let f = w & FLAG_MASK;
        match seen {
            None => seen = Some(f),
            Some(prev) if prev != f => return false,
            _ => {}
        }
    }
    true
}

/// Runs the full census and aggregates the Figure 8 statistics: one
/// [`CensusTally`] per process, merged for the census-wide figures.
#[must_use]
pub fn run_census(cfg: &CensusConfig) -> CensusReport {
    let mut per_process = Vec::with_capacity(cfg.processes);
    let mut all = CensusTally::default();
    for pid in 0..cfg.processes {
        let t = tally_processes(cfg, pid, pid + 1);
        per_process.push((t.pct_zero(), t.pct_contiguous(), t.pct_noncontiguous()));
        all.merge(&t);
    }
    per_process.sort_by(|a, b| b.1.total_cmp(&a.1));
    CensusReport {
        pct_zero: all.pct_zero(),
        pct_contiguous: all.pct_contiguous(),
        pct_noncontiguous: all.pct_noncontiguous(),
        flag_uniformity: all.flag_uniformity(),
        per_process,
        total_ptes: all.total_ptes(),
    }
}

/// Mergeable census counts, in O(1) memory: one process's or one shard's
/// classified lines. All fields are plain sums, so merging tallies in any
/// order gives identical results.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CensusTally {
    /// All-zero PTEs.
    pub zero: u64,
    /// PTEs with a ±1-contiguous non-zero neighbour.
    pub contiguous: u64,
    /// Non-zero PTEs without one.
    pub noncontiguous: u64,
    /// Lines with at least one non-zero entry.
    pub nonzero_lines: u64,
    /// Non-zero lines whose entries agree on every flag bit.
    pub uniform_lines: u64,
}

impl CensusTally {
    /// Classifies one cacheline into the tally.
    pub fn observe(&mut self, line: &[u64; 8]) {
        for class in classify_line(line) {
            match class {
                PteClass::Zero => self.zero += 1,
                PteClass::Contiguous => self.contiguous += 1,
                PteClass::NonContiguous => self.noncontiguous += 1,
            }
        }
        if line.iter().any(|&w| w != 0) {
            self.nonzero_lines += 1;
            if flags_uniform(line) {
                self.uniform_lines += 1;
            }
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: &CensusTally) {
        self.zero += other.zero;
        self.contiguous += other.contiguous;
        self.noncontiguous += other.noncontiguous;
        self.nonzero_lines += other.nonzero_lines;
        self.uniform_lines += other.uniform_lines;
    }

    /// Total PTEs classified.
    #[must_use]
    pub fn total_ptes(&self) -> u64 {
        self.zero + self.contiguous + self.noncontiguous
    }

    /// Percentage of zero PTEs.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn pct_zero(&self) -> f64 {
        100.0 * self.zero as f64 / self.total_ptes().max(1) as f64
    }

    /// Percentage of contiguous PTEs.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn pct_contiguous(&self) -> f64 {
        100.0 * self.contiguous as f64 / self.total_ptes().max(1) as f64
    }

    /// Percentage of non-contiguous PTEs.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn pct_noncontiguous(&self) -> f64 {
        100.0 * self.noncontiguous as f64 / self.total_ptes().max(1) as f64
    }

    /// Fraction of non-zero lines with uniform flags.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn flag_uniformity(&self) -> f64 {
        self.uniform_lines as f64 / self.nonzero_lines.max(1) as f64
    }
}

/// Streams and tallies processes `lo..hi` — one shard's worth of census,
/// in O(1) memory.
#[must_use]
pub fn tally_processes(cfg: &CensusConfig, lo: usize, hi: usize) -> CensusTally {
    let mut tally = CensusTally::default();
    for pid in lo..hi {
        stream_process(cfg, pid, |line| tally.observe(line));
    }
    tally
}

/// Number of shards [`run_census_streamed`] splits a census into. Fixed
/// (rather than derived from the worker count) so the shard boundaries —
/// and therefore the result — never depend on parallelism.
pub const CENSUS_SHARDS: usize = 64;

/// Runs an arbitrarily large census across `pool` in O(shard) memory.
///
/// The process range is cut into [`CENSUS_SHARDS`] fixed shards streamed
/// in parallel; tallies are sums, so the merged result is identical to a
/// sequential run for any pool size.
#[must_use]
pub fn run_census_streamed(cfg: &CensusConfig, pool: &ThreadPool) -> CensusTally {
    let shards = CENSUS_SHARDS.min(cfg.processes.max(1));
    let per = cfg.processes.div_ceil(shards);
    let tallies = pool.map_indexed(shards, |s| {
        let lo = s * per;
        let hi = ((s + 1) * per).min(cfg.processes);
        tally_processes(cfg, lo, hi.max(lo))
    });
    let mut total = CensusTally::default();
    for t in &tallies {
        total.merge(t);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_paper_rule() {
        // Entries: [pfn 10, pfn 11, 0, pfn 50, 0, 0, pfn 49, 0]
        let f = DEFAULT_FLAGS;
        let line = [
            (10 << 12) | f,
            (11 << 12) | f,
            0,
            (50 << 12) | f,
            0,
            0,
            (49 << 12) | f,
            0,
        ];
        let c = classify_line(&line);
        assert_eq!(c[0], PteClass::Contiguous); // 10 next to 11
        assert_eq!(c[1], PteClass::Contiguous);
        assert_eq!(c[2], PteClass::Zero);
        assert_eq!(c[3], PteClass::Contiguous); // 50's nearest right nonzero is 49
        assert_eq!(c[6], PteClass::Contiguous);
        assert_eq!(c[7], PteClass::Zero);
    }

    #[test]
    fn lone_entry_is_noncontiguous() {
        let line = [(77 << 12) | DEFAULT_FLAGS, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(classify_line(&line)[0], PteClass::NonContiguous);
    }

    #[test]
    fn census_reproduces_paper_marginals() {
        let cfg = CensusConfig {
            processes: 200,
            lines_per_process: 300,
            ..CensusConfig::default()
        };
        let r = run_census(&cfg);
        assert!(
            (55.0..73.0).contains(&r.pct_zero),
            "zero % = {}",
            r.pct_zero
        );
        assert!(
            (17.0..31.0).contains(&r.pct_contiguous),
            "contiguous % = {}",
            r.pct_contiguous
        );
        assert!(
            r.flag_uniformity > 0.99,
            "uniformity = {}",
            r.flag_uniformity
        );
        assert_eq!(r.per_process.len(), 200);
    }

    #[test]
    fn per_process_spread_covers_figure8_range() {
        let cfg = CensusConfig {
            processes: 300,
            lines_per_process: 200,
            ..CensusConfig::default()
        };
        let r = run_census(&cfg);
        let max_contig = r.per_process.first().map(|p| p.1).unwrap_or(0.0);
        let min_contig = r.per_process.last().map(|p| p.1).unwrap_or(0.0);
        assert!(max_contig > 40.0, "max contiguous {max_contig}");
        assert!(min_contig < 8.0, "min contiguous {min_contig}");
        // Sorted descending by contiguous share.
        for w in r.per_process.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = CensusConfig::default();
        let a = generate_process(&cfg, 42);
        let b = generate_process(&cfg, 42);
        assert_eq!(a.lines, b.lines);
        let c = generate_process(&cfg, 43);
        assert_ne!(a.lines, c.lines);
    }

    #[test]
    fn streaming_equals_materialized_generation() {
        let cfg = CensusConfig::default();
        for pid in [0usize, 9, 311] {
            let materialized = generate_process(&cfg, pid);
            let mut streamed = Vec::new();
            stream_process(&cfg, pid, |line| streamed.push(*line));
            assert_eq!(streamed, materialized.lines, "pid {pid}");
        }
    }

    #[test]
    fn tally_matches_full_census_aggregates() {
        let cfg = CensusConfig {
            processes: 60,
            lines_per_process: 120,
            ..CensusConfig::default()
        };
        let report = run_census(&cfg);
        let tally = tally_processes(&cfg, 0, cfg.processes);
        assert_eq!(tally.total_ptes(), report.total_ptes);
        assert_eq!(tally.pct_zero(), report.pct_zero);
        assert_eq!(tally.pct_contiguous(), report.pct_contiguous);
        assert_eq!(tally.flag_uniformity(), report.flag_uniformity);
    }

    #[test]
    fn streamed_census_is_parallelism_invariant() {
        let cfg = CensusConfig {
            processes: 97, // not a multiple of the shard count
            lines_per_process: 40,
            ..CensusConfig::default()
        };
        let sequential = tally_processes(&cfg, 0, cfg.processes);
        for jobs in [1usize, 3, 8] {
            let pool = ThreadPool::new(jobs);
            assert_eq!(
                run_census_streamed(&cfg, &pool),
                sequential,
                "jobs = {jobs}"
            );
        }
    }

    #[test]
    fn generated_ptes_respect_os_invariant() {
        // All generated PTEs keep bits 51:40 and 58:52 zero (MAC/identifier
        // regions) — they must pattern-match for PT-Guard.
        let cfg = CensusConfig::default();
        let p = generate_process(&cfg, 7);
        for line in &p.lines {
            for &w in line {
                assert_eq!(w & (0xfff << 40), 0, "PFN exceeds 28 bits: {w:#x}");
                assert_eq!(w & (0x7f << 52), 0, "ignored bits set: {w:#x}");
            }
        }
    }
}
