//! The PTE-line MAC construction (Section IV-F of the paper).
//!
//! The 64-byte line is viewed as four 16-byte chunks `C₁..C₄` with all
//! *unprotected* bits zeroed (Table IV: the accessed bit, the unused PFN
//! bits, the MAC region itself, and the ignored/identifier bits are
//! excluded). Each chunk is enciphered with QARMA-128 under its 16-byte-
//! granular physical address `Aᵢ` as the *tweak*:
//!
//! ```text
//! Qᵢ = Q(Cᵢ; tweak = Aᵢ),   X = Q₁ ⊕ Q₂ ⊕ Q₃ ⊕ Q₄,   MAC = X mod 2⁹⁶
//! ```
//!
//! Binding the address prevents relocation attacks (a valid (line, MAC)
//! observed at one address does not verify at another).
//!
//! ## Deviation from the paper's formula (found by fault injection)
//!
//! Section IV-F writes `Qᵢ = Q(Cᵢ ⊕ Aᵢ)` — the address XORed into the
//! plaintext. That construction is *not* collision-resistant under the
//! XOR fold: for any chunks `i, j`, XORing both contents with `Aᵢ ⊕ Aⱼ`
//! (a 2-bit value for a line-aligned address, since offsets are 0/16/32/48)
//! swaps the two cipher calls and leaves `X` unchanged. Our correction
//! fault-injection campaign surfaced exactly this: flipping bit 4 of two
//! words in different chunks verified against the original MAC. Supplying
//! the address through QARMA's tweak input (which the paper's own choice of
//! a *tweakable* cipher makes natural) removes the aliasing; see
//! `chunk_swap_aliasing_is_rejected` below and DESIGN.md.

use qarma::{LineKernel, Qarma128, Sbox};

use crate::config::{PtGuardConfig, MAC_BITS};
use crate::format::PteFormat;
use crate::line::Line;
use pagetable::addr::PhysAddr;

/// Mask selecting the low 96 bits of a 128-bit word.
pub const MAC_MASK: u128 = (1 << MAC_BITS) - 1;

/// The PT-Guard line-MAC engine.
#[derive(Debug, Clone)]
pub struct PteMac {
    cipher: Qarma128,
    /// The cipher key, for the reference cipher behind
    /// [`Self::compute_unbatched`].
    key: [u128; 2],
    format: PteFormat,
    protected_mask: u64,
    pfn_mask: u64,
    /// Precomputed MAC for the all-zero line, address-independent
    /// (Section V-B). Stored in 12 bytes of controller SRAM.
    mac_zero: u128,
}

impl PteMac {
    /// Builds the MAC engine for `key`, `rounds`, `sbox`, on a machine with
    /// `max_phys_bits` of physical address space.
    #[must_use]
    pub fn new(key: [u128; 2], rounds: usize, sbox: Sbox, max_phys_bits: u32) -> Self {
        Self::with_format(key, rounds, sbox, max_phys_bits, PteFormat::X86_64)
    }

    /// Builds the MAC engine for a specific PTE format.
    #[must_use]
    pub fn with_format(
        key: [u128; 2],
        rounds: usize,
        sbox: Sbox,
        max_phys_bits: u32,
        format: PteFormat,
    ) -> Self {
        let cipher = Qarma128::new(key, rounds, sbox);
        let protected_mask = format.protected_mask(max_phys_bits);
        let pfn_mask = format.pfn_mask(max_phys_bits);
        let mut engine = Self {
            cipher,
            key,
            format,
            protected_mask,
            pfn_mask,
            mac_zero: 0,
        };
        engine.mac_zero = engine.compute(&Line::ZERO, PhysAddr::new(0));
        engine
    }

    /// Builds the MAC engine from a [`PtGuardConfig`].
    #[must_use]
    pub fn from_config(cfg: &PtGuardConfig) -> Self {
        Self::with_format(
            cfg.key,
            cfg.mac_rounds,
            cfg.sbox,
            cfg.max_phys_bits,
            cfg.format,
        )
    }

    /// Builds a MAC engine covering *every* bit of the line (no PTE-format
    /// masking). Used by the conventional whole-memory-integrity baseline,
    /// where arbitrary data — not PTEs — is protected.
    #[must_use]
    pub fn full_coverage(key: [u128; 2], rounds: usize, sbox: Sbox) -> Self {
        let cipher = Qarma128::new(key, rounds, sbox);
        let mut engine = Self {
            cipher,
            key,
            format: PteFormat::X86_64,
            protected_mask: u64::MAX,
            pfn_mask: pagetable::x86_64::bits::PFN_MASK,
            mac_zero: 0,
        };
        engine.mac_zero = engine.compute(&Line::ZERO, PhysAddr::new(0));
        engine
    }

    /// The PTE format this engine protects.
    #[must_use]
    pub fn format(&self) -> PteFormat {
        self.format
    }

    /// The per-word in-use PFN mask (for the corrector's contiguity step).
    #[must_use]
    pub fn pfn_mask(&self) -> u64 {
        self.pfn_mask
    }

    /// The per-word mask of MAC-protected bits (Table IV).
    #[must_use]
    pub fn protected_mask(&self) -> u64 {
        self.protected_mask
    }

    /// The QARMA kernel [`Self::compute`] runs on this CPU.
    #[must_use]
    pub fn line_kernel(&self) -> LineKernel {
        self.cipher.line_kernel()
    }

    /// The precomputed address-independent MAC of the all-zero line.
    #[must_use]
    pub fn mac_zero(&self) -> u128 {
        self.mac_zero
    }

    /// Computes the 96-bit MAC of `line` at `addr`.
    ///
    /// Only the protected bits contribute; the MAC/identifier regions and
    /// the accessed bits may hold anything. The four chunks go through
    /// [`Qarma128::encrypt_line`] together, under the line address as tweak
    /// (chunk `i` at `base + 16i = base ⊕ 16i`, the base being
    /// line-aligned); the hot path allocates nothing.
    #[must_use]
    pub fn compute(&self, line: &Line, addr: PhysAddr) -> u128 {
        let chunks = line.masked(self.protected_mask).chunks();
        let tweak = u128::from(addr.line_addr().as_u64());
        let [q1, q2, q3, q4] = self.cipher.encrypt_line(chunks, tweak);
        (q1 ^ q2 ^ q3 ^ q4) & MAC_MASK
    }

    /// Computes the MAC through the straight-line reference cipher
    /// ([`qarma::reference::encrypt128`]), one call per chunk under its own
    /// tweak.
    ///
    /// This is the Section IV-F construction written out with no shared
    /// schedule and none of the kernel's code, so tests use it as the
    /// oracle for [`Self::compute`] and [`Self::compute_batch`].
    #[must_use]
    pub fn compute_unbatched(&self, line: &Line, addr: PhysAddr) -> u128 {
        let masked = line.masked(self.protected_mask);
        let base = addr.line_addr().as_u64();
        let (rounds, sbox) = (self.cipher.rounds(), self.cipher.sbox());
        let mut x = 0u128;
        for (i, &chunk) in masked.chunks().iter().enumerate() {
            let tweak = u128::from(base + 16 * i as u64);
            x ^= qarma::reference::encrypt128(self.key, rounds, sbox, chunk, tweak);
        }
        x & MAC_MASK
    }

    /// Computes MACs for a batch of `(line, addr)` pairs, `out[i]` holding
    /// the MAC of `items[i]`. Convenience wrapper over
    /// [`Self::compute_batch_into`].
    #[must_use]
    pub fn compute_batch(&self, items: &[(Line, PhysAddr)]) -> Vec<u128> {
        let mut out = Vec::with_capacity(items.len());
        self.compute_batch_into(items, &mut out);
        out
    }

    /// Appends the MACs of `items` to `out` (without clearing it), one
    /// [`Self::compute`] per line. Allocates only if `out` must grow.
    pub fn compute_batch_into(&self, items: &[(Line, PhysAddr)], out: &mut Vec<u128>) {
        out.extend(items.iter().map(|(line, addr)| self.compute(line, *addr)));
    }

    /// Exact verification: computed MAC equals `stored`.
    #[must_use]
    pub fn verify(&self, line: &Line, addr: PhysAddr, stored: u128) -> bool {
        self.compute(line, addr) == stored
    }

    /// Soft verification (Section VI-C): Hamming distance between the
    /// computed and stored MACs is at most `k`, tolerating up to `k` bit
    /// flips inside the stored MAC itself.
    #[must_use]
    pub fn soft_verify(&self, line: &Line, addr: PhysAddr, stored: u128, k: u32) -> bool {
        (self.compute(line, addr) ^ (stored & MAC_MASK)).count_ones() <= k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagetable::x86_64::bits;

    fn engine() -> PteMac {
        PteMac::from_config(&PtGuardConfig::default())
    }

    fn sample_line() -> Line {
        Line::from_words([
            0x1234_5027,
            0x1235_5027,
            0,
            0x8000_0000_1111_1007,
            0,
            0,
            42 << 12 | 0x27,
            0,
        ])
    }

    #[test]
    fn mac_fits_96_bits_and_is_deterministic() {
        let e = engine();
        let mac = e.compute(&sample_line(), PhysAddr::new(0x40));
        assert!(mac < (1 << 96));
        assert_eq!(mac, e.compute(&sample_line(), PhysAddr::new(0x40)));
    }

    #[test]
    fn mac_binds_address() {
        let e = engine();
        let l = sample_line();
        assert_ne!(
            e.compute(&l, PhysAddr::new(0x40)),
            e.compute(&l, PhysAddr::new(0x80))
        );
        // Sub-line offsets are irrelevant: the line address is what binds.
        assert_eq!(
            e.compute(&l, PhysAddr::new(0x40)),
            e.compute(&l, PhysAddr::new(0x7f))
        );
    }

    #[test]
    fn mac_ignores_unprotected_bits() {
        let e = engine();
        let l = sample_line();
        let addr = PhysAddr::new(0x1000);
        let base = e.compute(&l, addr);
        // Accessed bit, MAC region, identifier region: all excluded.
        let mut l2 = l;
        l2.set_word(0, l2.word(0) | bits::ACCESSED);
        assert_eq!(e.compute(&l2, addr), base);
        let mut l3 = l;
        l3.set_word(5, l3.word(5) | (0xfff << 40) | (0x7f << 52));
        assert_eq!(e.compute(&l3, addr), base);
    }

    #[test]
    fn mac_detects_every_protected_single_bit_flip() {
        let e = engine();
        let l = sample_line();
        let addr = PhysAddr::new(0x2000);
        let base = e.compute(&l, addr);
        let protected = e.protected_mask();
        for word in 0..8 {
            for bit in 0..64 {
                if protected & (1 << bit) == 0 {
                    continue;
                }
                let mut tampered = l;
                tampered.set_word(word, tampered.word(word) ^ (1 << bit));
                let mac = e.compute(&tampered, addr);
                assert_ne!(mac, base, "undetected flip: word {word} bit {bit}");
                // Tampering scrambles roughly half the MAC (PRF behaviour).
                assert!(
                    (mac ^ base).count_ones() > 16,
                    "weak diffusion at word {word} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn soft_verify_tolerates_k_mac_flips() {
        let e = engine();
        let l = sample_line();
        let addr = PhysAddr::new(0x3000);
        let mac = e.compute(&l, addr);
        for k in 0..=4u32 {
            let mut damaged = mac;
            for b in 0..k {
                damaged ^= 1 << (10 * b); // k distinct flipped MAC bits
            }
            assert!(e.soft_verify(&l, addr, damaged, 4));
            assert_eq!(
                e.soft_verify(&l, addr, damaged, k.saturating_sub(1)),
                k == 0
            );
        }
        let mut wrecked = mac;
        for b in 0..5 {
            wrecked ^= 1 << (10 * b);
        }
        assert!(!e.soft_verify(&l, addr, wrecked, 4));
    }

    #[test]
    fn mac_zero_matches_zero_line_at_address_zero() {
        let e = engine();
        assert_eq!(e.mac_zero(), e.compute(&Line::ZERO, PhysAddr::new(0)));
        // But a zero line at another address has a different (address-bound)
        // MAC — the MAC-zero optimization embeds the common value instead.
        assert_ne!(e.mac_zero(), e.compute(&Line::ZERO, PhysAddr::new(0x40)));
    }

    #[test]
    fn chunk_swap_aliasing_is_rejected() {
        // The attack class that breaks the paper's literal `Q(Cᵢ ⊕ Aᵢ)`
        // formula: XOR two chunks' contents with their address difference.
        // With the address as tweak, the aliased line must NOT verify.
        let e = engine();
        let addr = PhysAddr::new(0x40c0);
        let zero_mac = e.compute(&Line::ZERO, addr);
        // Adjacent chunk pairs: address delta 16 = bit 4, which is a
        // MAC-protected PTE bit (cache disable), so the aliased content
        // survives the protected-bit masking. (Delta-32 pairs alias through
        // bit 5 — the accessed bit — which is excluded from the MAC by
        // design, so they are vacuous.)
        for (wa, wb) in [(0usize, 2usize), (2, 4), (4, 6)] {
            let mut aliased = Line::ZERO;
            aliased.set_word(wa, 16);
            aliased.set_word(wb, 16);
            assert_ne!(
                e.compute(&aliased, addr),
                zero_mac,
                "chunk-swap alias (words {wa},{wb}) collided"
            );
        }
    }

    #[test]
    fn compute_unbatched_is_an_independent_oracle_for_the_kernels() {
        use qarma::Sbox;
        // The reference-cipher path must agree with the kernel both per
        // line (`compute`) and per batch (`compute_batch`), across sboxes
        // and round counts.
        let items: Vec<(Line, PhysAddr)> = (0..5)
            .map(|i| {
                let mut l = sample_line();
                l.set_word(i % 8, l.word(i % 8) ^ (0xabc << i));
                (l, PhysAddr::new(0x40 * (i as u64 + 3)))
            })
            .collect();
        for sbox in [Sbox::Sigma0, Sbox::Sigma1, Sbox::Sigma2] {
            for rounds in [1usize, 5, 9, 11] {
                let e = PteMac::new([3, 17], rounds, sbox, 46);
                let batch = e.compute_batch(&items);
                for ((line, addr), &mac) in items.iter().zip(&batch) {
                    let reference = e.compute_unbatched(line, *addr);
                    assert_eq!(reference, e.compute(line, *addr), "r={rounds} {sbox:?}");
                    assert_eq!(reference, mac, "r={rounds} {sbox:?}");
                }
            }
        }
    }

    #[test]
    fn every_engine_kind_matches_the_reference_on_edge_and_random_lines() {
        // The x86_64, ARMv8 and full-coverage engines differ only in which
        // bits they mask; each must agree with the reference cipher on the
        // zero line, the all-ones line and seeded random lines, at
        // line-aligned and unaligned addresses.
        let key = [
            0x84be85ce9804e94bec2802d4e0a488e4,
            0x10235374a49bccdde2f10325a89bdcfe,
        ];
        let engines = [
            PteMac::with_format(key, 9, Sbox::Sigma1, 46, PteFormat::X86_64),
            PteMac::with_format(key, 9, Sbox::Sigma1, 40, PteFormat::ArmV8),
            PteMac::full_coverage(key, 9, Sbox::Sigma1),
        ];
        // SplitMix64 over a fixed seed.
        let mut state = 0x5eed_3ac5u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut lines = vec![Line::ZERO, Line::from_words([u64::MAX; 8])];
        lines.extend((0..16).map(|_| Line::from_words([0; 8].map(|_: u64| next()))));
        for (e, engine) in engines.iter().enumerate() {
            for (i, line) in lines.iter().enumerate() {
                let addr = PhysAddr::new(next() >> 20);
                assert_eq!(
                    engine.compute(line, addr),
                    engine.compute_unbatched(line, addr),
                    "engine {e}, line {i}, {:?}",
                    engine.line_kernel()
                );
            }
        }
    }

    #[test]
    fn different_keys_give_different_macs() {
        let a = engine();
        let b = PteMac::from_config(&PtGuardConfig::default().with_key([99, 100]));
        let l = sample_line();
        assert_ne!(
            a.compute(&l, PhysAddr::new(0)),
            b.compute(&l, PhysAddr::new(0))
        );
    }
}
