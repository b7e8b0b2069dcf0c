//! The analytical security model of Section VI-E.
//!
//! Soft-matching MACs (tolerating ≤ k faulty MAC bits) and making up to
//! `G_max` correction guesses both enlarge the attacker's acceptance region.
//! Equation 1 quantifies the escape probability,
//!
//! ```text
//! p_escape = G_max · Σ_{h=0..k} C(n,h) / 2ⁿ,     n_eff = −log₂(p_escape)
//! ```
//!
//! and Equation 2 gives the probability that more than `k` bits of the
//! stored MAC itself flipped (an *uncorrectable* MAC):
//!
//! ```text
//! p_uncorrectable = Σ_{i=k+1..n} C(n,i) · p_flip^i · (1−p_flip)^(n−i)
//! ```
//!
//! The paper selects the smallest `k` with `p_uncorrectable < 1 %`; for
//! LPDDR4's worst-case `p_flip ≈ 1 %` this is `k = 4`, giving an effective
//! MAC strength of ≈66 bits and an expected attack time of >10⁴ years.

use crate::config::MAC_BITS;
use crate::correct::G_MAX;

/// Exact binomial coefficient as `u128`.
///
/// # Panics
///
/// Panics on overflow (not reachable for `n ≤ 128`, `k ≤ 5` as used here;
/// large `k` uses the symmetric form and may overflow for `n = 128, k = 64`).
#[must_use]
pub fn binomial(n: u32, k: u32) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc
            .checked_mul(u128::from(n - i))
            .expect("binomial overflow");
        acc /= u128::from(i + 1);
    }
    acc
}

/// Number of MAC values within Hamming distance `k` of a given value
/// (the soft-match acceptance ball): `Σ_{h=0..k} C(n,h)`.
#[must_use]
pub fn acceptance_ball(n: u32, k: u32) -> u128 {
    (0..=k).map(|h| binomial(n, h)).sum()
}

/// Equation 1: probability that a tampered PTE escapes detection after up to
/// `g_max` guesses with soft-match tolerance `k` on an `n`-bit MAC.
#[must_use]
pub fn p_escape(n: u32, k: u32, g_max: u32) -> f64 {
    let ball = acceptance_ball(n, k) as f64;
    (f64::from(g_max) * ball) / 2f64.powi(n as i32)
}

/// Effective MAC strength in bits: `n_eff = −log₂(p_escape)`.
#[must_use]
pub fn effective_mac_bits(n: u32, k: u32, g_max: u32) -> f64 {
    -p_escape(n, k, g_max).log2()
}

/// Equation 2: probability that an `n`-bit MAC suffers more than `k` bit
/// flips at per-bit flip probability `p_flip`.
#[must_use]
pub fn p_uncorrectable(n: u32, k: u32, p_flip: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p_flip));
    // Complement of the CDF up to k; computed in log space for stability.
    let mut total = 0.0f64;
    for i in (k + 1)..=n {
        let ln_c = ln_binomial(n, i);
        let ln_p = f64::from(i) * p_flip.ln() + f64::from(n - i) * (1.0 - p_flip).ln();
        total += (ln_c + ln_p).exp();
    }
    total.min(1.0)
}

fn ln_binomial(n: u32, k: u32) -> f64 {
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

fn ln_factorial(n: u32) -> f64 {
    (2..=u64::from(n)).map(|i| (i as f64).ln()).sum()
}

/// The smallest `k` for which `p_uncorrectable(n, k, p_flip)` drops below
/// `target` (the paper uses `target = 1 %`).
#[must_use]
pub fn select_k(n: u32, p_flip: f64, target: f64) -> u32 {
    (0..n)
        .find(|&k| p_uncorrectable(n, k, p_flip) < target)
        .unwrap_or(n)
}

/// Expected time (in years) for a Rowhammer attack to escape detection,
/// assuming one attempt per DRAM access of `access_ns` nanoseconds
/// (Section IV-G uses 50 ns and a bit flip on every access).
#[must_use]
pub fn attack_years(p_escape: f64, access_ns: f64) -> f64 {
    let seconds = access_ns * 1e-9 / p_escape;
    seconds / (365.25 * 24.0 * 3600.0)
}

/// The paper's headline security numbers for the default design.
#[derive(Debug, Clone, Copy)]
pub struct SecuritySummary {
    /// MAC width `n`.
    pub n: u32,
    /// Soft-match tolerance `k`.
    pub k: u32,
    /// Maximum correction guesses.
    pub g_max: u32,
    /// Escape probability (Equation 1).
    pub p_escape: f64,
    /// Effective MAC bits.
    pub n_eff: f64,
    /// Uncorrectable-MAC probability at LPDDR4 worst case (`p_flip = 1 %`).
    pub p_uncorrectable_lpddr4: f64,
    /// Expected attack time in years.
    pub attack_years: f64,
}

impl SecuritySummary {
    /// Computes the summary for the paper's default (`n = 96`, `k = 4`,
    /// `G_max = 372`).
    #[must_use]
    pub fn paper_default() -> Self {
        let (n, k, g_max) = (MAC_BITS, 4, G_MAX);
        let pe = p_escape(n, k, g_max);
        Self {
            n,
            k,
            g_max,
            p_escape: pe,
            n_eff: effective_mac_bits(n, k, g_max),
            p_uncorrectable_lpddr4: p_uncorrectable(n, k, 0.01),
            attack_years: attack_years(pe, 50.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_basics() {
        assert_eq!(binomial(96, 0), 1);
        assert_eq!(binomial(96, 1), 96);
        assert_eq!(binomial(96, 2), 4560);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(5, 6), 0);
        assert_eq!(binomial(10, 3), 120);
    }

    #[test]
    fn paper_headline_k4_gives_66_effective_bits() {
        // Section VI-E: with n = 96, k = 4, G_max = 372 the effective MAC
        // strength is ~66 bits.
        let n_eff = effective_mac_bits(96, 4, G_MAX);
        assert!((65.0..67.0).contains(&n_eff), "n_eff = {n_eff}");
    }

    #[test]
    fn no_correction_means_full_96_bits() {
        // Foregoing correction (exact match, single check) keeps the raw
        // MAC strength (Section VII-A).
        let n_eff = effective_mac_bits(96, 0, 1);
        assert!((n_eff - 96.0).abs() < 1e-9, "n_eff = {n_eff}");
    }

    #[test]
    fn k4_keeps_uncorrectable_below_1pct_at_lpddr4() {
        // Equation 2 at p_flip = 1 % (LPDDR4 worst case).
        assert!(p_uncorrectable(96, 4, 0.01) < 0.01);
        assert!(
            p_uncorrectable(96, 3, 0.01) >= 0.01 * 0.1,
            "k=3 should be near/above the bar"
        );
        assert_eq!(select_k(96, 0.01, 0.01), 4, "the paper selects k = 4");
    }

    #[test]
    fn ddr4_needs_smaller_k() {
        // At p_flip = 0.1–0.2 % far fewer MAC bits flip.
        let k = select_k(96, 0.002, 0.01);
        assert!(k <= 2, "k = {k}");
    }

    #[test]
    fn attack_time_exceeds_ten_thousand_years() {
        let s = SecuritySummary::paper_default();
        assert!(s.attack_years > 1e4, "attack years = {}", s.attack_years);
        assert!((65.0..67.0).contains(&s.n_eff));
    }

    #[test]
    fn raw_mac_attack_time_exceeds_1e14_years() {
        // Section IV-G: a 96-bit exact MAC at one attempt per 50 ns DRAM
        // access needs > 10^14 years.
        let years = attack_years(p_escape(96, 0, 1), 50.0);
        assert!(years > 1e14, "years = {years}");
    }

    #[test]
    fn p_uncorrectable_monotonic_in_k_and_p() {
        assert!(p_uncorrectable(96, 1, 0.01) > p_uncorrectable(96, 2, 0.01));
        assert!(p_uncorrectable(96, 4, 0.01) > p_uncorrectable(96, 4, 0.001));
        assert_eq!(p_uncorrectable(96, 96, 0.5), 0.0);
    }

    #[test]
    fn escape_probability_grows_with_guesses_and_k() {
        assert!(p_escape(96, 4, 372) > p_escape(96, 4, 1));
        assert!(p_escape(96, 4, 372) > p_escape(96, 1, 372));
        assert!(p_escape(96, 4, 372) < 1e-15);
    }
}
