//! The Rowhammer disturbance model.
//!
//! Every activation of a row electrically disturbs its neighbours: fully at
//! distance 1, and with a small coupling factor at distance 2 (the effect
//! Half-Double exploits — mitigative refreshes of distance-1 rows are
//! themselves activations and push charge out of distance-2 rows).
//!
//! Each row holds a deterministic, seed-derived population of *weak cells*:
//! bit positions whose retention gives way once the accumulated disturbance
//! *pressure* crosses their individual threshold. Cells have an orientation —
//! *true cells* flip 1→0, *anti cells* flip 0→1 — matching the
//! unidirectional-flip behaviour the monotonic-pointer defence relies on
//! (Section II-E of the paper).

use crate::geometry::RowId;

/// Configuration of the Rowhammer vulnerability of a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowhammerConfig {
    /// Whether disturbance is modelled at all.
    pub enabled: bool,
    /// Rowhammer threshold (RTH): pressure at which the weakest cells flip.
    /// 139 K for 2014 DDR3, ≈10 K for 2020 DDR4, ≈4.8 K for LPDDR4.
    pub threshold: f64,
    /// Fraction of an activation's disturbance that reaches distance-2 rows.
    pub dist2_coupling: f64,
    /// Expected number of weak cells per row.
    pub weak_cells_per_row: f64,
    /// Weak-cell thresholds are uniform in `[RTH, RTH·(1+spread)]`.
    pub threshold_spread: f64,
    /// Seed for the deterministic weak-cell population.
    pub seed: u64,
}

impl Default for RowhammerConfig {
    /// A 2020-era DDR4 module (RTH = 10 K).
    fn default() -> Self {
        Self {
            enabled: true,
            threshold: 10_000.0,
            dist2_coupling: 0.01,
            weak_cells_per_row: 4.0,
            threshold_spread: 1.0,
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RowhammerConfig {
    /// An invulnerable device (disturbance disabled).
    #[must_use]
    pub fn immune() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }

    /// A highly vulnerable LPDDR4-like module (RTH = 4.8 K).
    #[must_use]
    pub fn lpddr4() -> Self {
        Self {
            threshold: 4800.0,
            ..Self::default()
        }
    }
}

/// One weak cell of a row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeakCell {
    /// Bit index within the row (0 = LSB of the row's first byte).
    pub bit: u64,
    /// Pressure at which this cell flips.
    pub threshold: f64,
    /// True cells flip 1→0; anti cells flip 0→1.
    pub true_cell: bool,
    /// Whether the cell has already discharged since the data was last
    /// written/refreshed into it.
    pub flipped: bool,
}

/// Deterministically derives the weak cells of `row` from the config seed.
#[must_use]
pub fn weak_cells_for_row(cfg: &RowhammerConfig, row: RowId, row_bits: u64) -> Vec<WeakCell> {
    let mut rng = SplitMix::new(cfg.seed ^ (u64::from(row.bank) << 40) ^ u64::from(row.row));
    // Count: floor(expected) plus a Bernoulli for the fractional part.
    let base = cfg.weak_cells_per_row.floor() as u64;
    let frac = cfg.weak_cells_per_row - cfg.weak_cells_per_row.floor();
    let count = base + u64::from(rng.next_f64() < frac);
    let mut cells = Vec::with_capacity(count as usize);
    for _ in 0..count {
        cells.push(WeakCell {
            bit: rng.next_u64() % row_bits,
            threshold: cfg.threshold * (1.0 + cfg.threshold_spread * rng.next_f64()),
            true_cell: rng.next_u64() & 1 == 0,
            flipped: false,
        });
    }
    cells.sort_by(|a, b| a.threshold.total_cmp(&b.threshold));
    cells
}

/// A tiny deterministic PRNG (SplitMix64) for weak-cell derivation.
///
/// Kept private to this crate's fault model so the population is stable
/// across runs and platforms regardless of the `rand` crate's versions.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix {
    state: u64,
}

impl SplitMix {
    pub(crate) fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weak_cells_are_deterministic() {
        let cfg = RowhammerConfig::default();
        let row = RowId { bank: 3, row: 777 };
        let a = weak_cells_for_row(&cfg, row, 65536);
        let b = weak_cells_for_row(&cfg, row, 65536);
        assert_eq!(a, b);
    }

    #[test]
    fn weak_cells_differ_across_rows() {
        let cfg = RowhammerConfig::default();
        let a = weak_cells_for_row(&cfg, RowId { bank: 0, row: 1 }, 65536);
        let b = weak_cells_for_row(&cfg, RowId { bank: 0, row: 2 }, 65536);
        assert_ne!(a, b);
    }

    #[test]
    fn thresholds_at_or_above_rth_and_sorted() {
        let cfg = RowhammerConfig::lpddr4();
        for r in 0..50 {
            let cells = weak_cells_for_row(&cfg, RowId { bank: 0, row: r }, 65536);
            for w in cells.windows(2) {
                assert!(w[0].threshold <= w[1].threshold);
            }
            for c in &cells {
                assert!(c.threshold >= cfg.threshold);
                assert!(c.threshold <= cfg.threshold * (1.0 + cfg.threshold_spread) + 1e-9);
                assert!(c.bit < 65536);
            }
        }
    }

    #[test]
    fn expected_count_is_respected_on_average() {
        let cfg = RowhammerConfig {
            weak_cells_per_row: 2.5,
            ..RowhammerConfig::default()
        };
        let total: usize = (0..400)
            .map(|r| weak_cells_for_row(&cfg, RowId { bank: 1, row: r }, 65536).len())
            .sum();
        let avg = total as f64 / 400.0;
        assert!((2.2..2.8).contains(&avg), "avg = {avg}");
    }

    #[test]
    fn orientation_is_mixed() {
        let cfg = RowhammerConfig {
            weak_cells_per_row: 16.0,
            ..RowhammerConfig::default()
        };
        let cells = weak_cells_for_row(&cfg, RowId { bank: 0, row: 42 }, 65536);
        assert!(cells.iter().any(|c| c.true_cell));
        assert!(cells.iter().any(|c| !c.true_cell));
    }
}
