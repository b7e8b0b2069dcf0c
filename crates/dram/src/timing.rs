//! Simplified DDR4 bank timing.
//!
//! The memory-controller model needs row-hit vs. row-miss latencies and a
//! notion of the refresh window; full DDR4 command scheduling is out of scope
//! (and irrelevant to PT-Guard's added MAC latency, which is a constant on
//! top of whatever the DRAM access costs).

/// Converts nanoseconds to integer picoseconds, rounding to nearest.
///
/// `memsys::config::clock` re-exports it. All datasheet timings have at
/// most three decimals of ns, so the conversion is exact. Internally the
/// device accumulates time **only** in integer picoseconds — f64 sums
/// drift once the clock is large (beyond 2^53 ps the f64 ulp exceeds a
/// full core cycle), which is precisely the bug class this representation
/// removes.
#[must_use]
pub fn ns_to_ps(ns: f64) -> u128 {
    (ns * 1e3).round() as u128
}

/// DRAM timing parameters in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramTiming {
    /// Row-to-column delay (ACT → READ).
    pub t_rcd_ns: f64,
    /// Row precharge time.
    pub t_rp_ns: f64,
    /// Column access latency (CAS).
    pub t_cas_ns: f64,
    /// Minimum row-cycle time (ACT → ACT, same bank) — bounds the maximum
    /// hammering rate.
    pub t_rc_ns: f64,
    /// Refresh window: every row is refreshed once per this interval.
    pub t_refw_ns: f64,
    /// Data burst transfer time.
    pub t_burst_ns: f64,
}

impl Default for DramTiming {
    /// DDR4-2400-ish timings.
    fn default() -> Self {
        Self {
            t_rcd_ns: 14.16,
            t_rp_ns: 14.16,
            t_cas_ns: 14.16,
            t_rc_ns: 45.0,
            t_refw_ns: 64_000_000.0, // 64 ms
            t_burst_ns: 3.33,
        }
    }
}

impl DramTiming {
    /// Latency of an access that hits the open row.
    #[must_use]
    pub fn row_hit_ns(&self) -> f64 {
        self.t_cas_ns + self.t_burst_ns
    }

    /// Latency of an access to a closed bank (row activation needed).
    #[must_use]
    pub fn row_closed_ns(&self) -> f64 {
        self.t_rcd_ns + self.t_cas_ns + self.t_burst_ns
    }

    /// Latency of an access that conflicts with an open row (precharge,
    /// activate, then read).
    #[must_use]
    pub fn row_conflict_ns(&self) -> f64 {
        self.t_rp_ns + self.t_rcd_ns + self.t_cas_ns + self.t_burst_ns
    }

    /// Maximum single-bank activation count within one refresh window,
    /// bounded by `tRC`. This is the budget a Rowhammer attacker has to beat
    /// the threshold (≈1.4 M for DDR4 defaults).
    #[must_use]
    pub fn max_acts_per_refresh_window(&self) -> u64 {
        (self.t_refw_ns / self.t_rc_ns) as u64
    }

    /// [`DramTiming::row_hit_ns`] in integer picoseconds.
    #[must_use]
    pub fn row_hit_ps(&self) -> u128 {
        ns_to_ps(self.row_hit_ns())
    }

    /// [`DramTiming::row_closed_ns`] in integer picoseconds.
    #[must_use]
    pub fn row_closed_ps(&self) -> u128 {
        ns_to_ps(self.row_closed_ns())
    }

    /// [`DramTiming::row_conflict_ns`] in integer picoseconds.
    #[must_use]
    pub fn row_conflict_ps(&self) -> u128 {
        ns_to_ps(self.row_conflict_ns())
    }

    /// `tRC` in integer picoseconds.
    #[must_use]
    pub fn t_rc_ps(&self) -> u128 {
        ns_to_ps(self.t_rc_ns)
    }

    /// The refresh window in integer picoseconds.
    #[must_use]
    pub fn t_refw_ps(&self) -> u128 {
        ns_to_ps(self.t_refw_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_ordering() {
        let t = DramTiming::default();
        assert!(t.row_hit_ns() < t.row_closed_ns());
        assert!(t.row_closed_ns() < t.row_conflict_ns());
    }

    #[test]
    fn ps_accessors_match_rounded_ns() {
        let t = DramTiming::default();
        assert_eq!(t.row_hit_ps(), 17_490);
        assert_eq!(t.row_closed_ps(), 31_650);
        assert_eq!(t.row_conflict_ps(), 45_810);
        assert_eq!(t.t_rc_ps(), 45_000);
        // The default refresh window divides exactly into 8192 tREFI slices.
        assert_eq!(t.t_refw_ps() % 8192, 0);
    }

    #[test]
    fn hammer_budget_exceeds_modern_thresholds() {
        let t = DramTiming::default();
        let budget = t.max_acts_per_refresh_window();
        // The attacker can issue far more activations per window than the
        // 4.8 K (LPDDR4) or 139 K (DDR3) thresholds require.
        assert!(budget > 1_000_000, "budget = {budget}");
    }
}
