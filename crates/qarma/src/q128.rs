//! QARMA-128: 128-bit blocks, 8-bit cells, 256-bit key.
//!
//! This is the variant PT-Guard uses to MAC page-table-entry cachelines
//! (Section IV-F of the paper): four 16-byte chunks of the 64-byte line are
//! each enciphered under their 16-byte-granular address as tweak and the
//! results folded.

use crate::consts::{ALPHA128, C128, MAX_ROUNDS};
use crate::engine::{ortho128, Core, LineKernel};
use crate::sbox::Sbox;

/// The QARMA-128 tweakable block cipher.
///
/// The 256-bit key is supplied as `(w0, k0)` 128-bit halves; `w1 = o(w0)` and
/// `k1 = M·k0` are derived internally.
///
/// # Example
///
/// ```
/// use qarma::{Qarma128, Sbox};
///
/// let cipher = Qarma128::new([1, 2], 9, Sbox::Sigma1);
/// let ct = cipher.encrypt(0xdead_beef, 42);
/// assert_eq!(cipher.decrypt(ct, 42), 0xdead_beef);
/// ```
#[derive(Debug, Clone)]
pub struct Qarma128 {
    core: Core,
}

impl Qarma128 {
    /// Creates a QARMA-128 instance with `r` forward/backward rounds.
    ///
    /// PT-Guard uses an "18-round" QARMA-128, i.e. `r = 9` forward and
    /// backward rounds around the reflector.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero or exceeds [`MAX_ROUNDS`].
    #[must_use]
    pub fn new(key: [u128; 2], rounds: usize, sbox: Sbox) -> Self {
        assert!(
            (1..=MAX_ROUNDS).contains(&rounds),
            "QARMA-128 supports 1..={MAX_ROUNDS} rounds, got {rounds}"
        );
        // The packed-lane state of the core *is* the native 128-bit word
        // (cell 0 = most-significant byte), so keys and constants pass
        // straight through.
        let core = Core::new(
            rounds,
            sbox,
            &C128[..rounds],
            ALPHA128,
            key[0],
            ortho128(key[0]),
            key[1],
        );
        Self { core }
    }

    /// Encrypts `plaintext` under `tweak`. Allocation-free.
    #[must_use]
    pub fn encrypt(&self, plaintext: u128, tweak: u128) -> u128 {
        self.core.encrypt(plaintext, tweak)
    }

    /// Decrypts `ciphertext` under `tweak`. Allocation-free.
    #[must_use]
    pub fn decrypt(&self, ciphertext: u128, tweak: u128) -> u128 {
        self.core.decrypt(ciphertext, tweak)
    }

    /// Enciphers the four 16-byte chunks of a 64-byte line: `out[i] =
    /// encrypt(blocks[i], tweak ⊕ 16·i)`. With the line's address as `tweak`,
    /// chunk `i` is enciphered under its own 16-byte-granular address.
    ///
    /// One tweak schedule serves all four chunks. The work runs on the
    /// kernel [`Self::line_kernel`] names; every kernel gives the same bits.
    /// Allocation-free.
    #[must_use]
    pub fn encrypt_line(&self, blocks: [u128; 4], tweak: u128) -> [u128; 4] {
        self.core.encrypt_line(blocks, tweak)
    }

    /// The kernel [`Self::encrypt_line`] runs: [`LineKernel::Avx2`] exactly
    /// when the CPU reports AVX2, chosen once at construction.
    #[must_use]
    pub fn line_kernel(&self) -> LineKernel {
        self.core.line_kernel()
    }

    /// Number of forward/backward rounds `r`.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.core.rounds
    }

    /// The S-box this instance uses.
    #[must_use]
    pub fn sbox(&self) -> Sbox {
        self.core.sbox
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W0: u128 = 0x84be85ce9804e94bec2802d4e0a488e4;
    const K0: u128 = 0x10235374a49bccdde2f10325a89bdcfe;
    const PT: u128 = 0xfb623599da6e8127477d469dec0b8762;
    const TW: u128 = 0x05040302011a1b1c1d1e1f20212223ff;

    #[test]
    fn encrypt_decrypt_roundtrip_all_sboxes_and_rounds() {
        for sbox in [Sbox::Sigma0, Sbox::Sigma1, Sbox::Sigma2] {
            for rounds in [1usize, 2, 5, 9, 11] {
                let c = Qarma128::new([W0, K0], rounds, sbox);
                let ct = c.encrypt(PT, TW);
                assert_eq!(c.decrypt(ct, TW), PT, "r={rounds} sbox={sbox:?}");
            }
        }
    }

    #[test]
    fn distinct_tweaks_give_distinct_ciphertexts() {
        let c = Qarma128::new([W0, K0], 9, Sbox::Sigma1);
        let mut seen = std::collections::HashSet::new();
        for t in 0..64u128 {
            assert!(seen.insert(c.encrypt(PT, t)), "collision at tweak {t}");
        }
    }

    #[test]
    fn avalanche_on_plaintext() {
        let c = Qarma128::new([W0, K0], 9, Sbox::Sigma1);
        let base = c.encrypt(PT, TW);
        let mut total = 0u32;
        for bit in 0..128 {
            total += (c.encrypt(PT ^ (1 << bit), TW) ^ base).count_ones();
        }
        let avg = f64::from(total) / 128.0;
        assert!((52.0..76.0).contains(&avg), "weak avalanche: avg {avg}");
    }

    #[test]
    fn avalanche_on_tweak() {
        // The MAC's tweak is the chunk address: one address bit must flip
        // about half the ciphertext.
        let c = Qarma128::new([W0, K0], 9, Sbox::Sigma1);
        let base = c.encrypt(PT, TW);
        let mut total = 0u32;
        for bit in 0..128 {
            total += (c.encrypt(PT, TW ^ (1 << bit)) ^ base).count_ones();
        }
        let avg = f64::from(total) / 128.0;
        assert!(
            (52.0..76.0).contains(&avg),
            "weak tweak avalanche: avg {avg}"
        );
    }

    #[test]
    fn avalanche_on_key() {
        let base = Qarma128::new([W0, K0], 9, Sbox::Sigma1).encrypt(PT, TW);
        let mut total = 0u32;
        for bit in (0..128).step_by(7) {
            let c = Qarma128::new([W0, K0 ^ (1 << bit)], 9, Sbox::Sigma1);
            total += (c.encrypt(PT, TW) ^ base).count_ones();
        }
        let samples = (0..128).step_by(7).count() as f64;
        let avg = f64::from(total) / samples;
        assert!((52.0..76.0).contains(&avg), "weak key avalanche: avg {avg}");
    }

    #[test]
    fn golden_outputs_are_stable() {
        // Regression pins for this implementation (not official vectors,
        // which are unavailable offline; see the crate docs): any change to
        // the round structure, constants or packing shows up here.
        let c9 = Qarma128::new([W0, K0], 9, Sbox::Sigma1);
        assert_eq!(c9.encrypt(PT, TW), 0x430df35e6d4ec8e8d0fde043b2806757);
        let c11 = Qarma128::new([W0, K0], 11, Sbox::Sigma1);
        assert_eq!(c11.encrypt(PT, TW), 0xb69aa3055cc446338673f7d0c7b088a9);
    }

    #[test]
    fn tweak_schedule_is_linear_and_matches_encrypt() {
        // `encrypt_line` XORs the chunk offsets' schedules into one base
        // schedule; that rests on this linearity.
        for rounds in [1usize, 9, 11] {
            let c = Qarma128::new([W0, K0], rounds, Sbox::Sigma1).core;
            let base = c.tweak_schedule(TW & !63);
            for off in [16u128, 32, 48] {
                let ts = base ^ c.tweak_schedule(off);
                assert_eq!(ts, c.tweak_schedule((TW & !63) | off), "r={rounds}");
                assert_eq!(
                    c.encrypt_scheduled(PT, &ts),
                    c.encrypt(PT, (TW & !63) | off)
                );
            }
        }
    }

    /// SplitMix64 over a fixed seed, so a failure names a reproducible case.
    fn splitmix(state: &mut u64) -> u128 {
        let mut word = || {
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        (u128::from(word()) << 64) | u128::from(word())
    }

    #[test]
    fn line_kernels_match_the_reference() {
        // The kernel `encrypt_line` selects (AVX2 wherever the CPU has it),
        // the fused kernel and the straight-line reference, on the same
        // seeded keys, chunks and tweaks, line-aligned or not.
        let mut rng = 0x5eed_11e5;
        for sbox in [Sbox::Sigma0, Sbox::Sigma1, Sbox::Sigma2] {
            for rounds in 1..=MAX_ROUNDS {
                for case in 0..40 {
                    let key = [splitmix(&mut rng), splitmix(&mut rng)];
                    let c = Qarma128::new(key, rounds, sbox);
                    let blocks = [0; 4].map(|_: u128| splitmix(&mut rng));
                    let tweak = splitmix(&mut rng) & if case % 2 == 0 { !63 } else { !0 };
                    let want: [u128; 4] = std::array::from_fn(|i| {
                        crate::reference::encrypt128(
                            key,
                            rounds,
                            sbox,
                            blocks[i],
                            tweak ^ (16 * i as u128),
                        )
                    });
                    let at = format!("{sbox:?} r={rounds} case {case}");
                    assert_eq!(c.core.encrypt_line_fused(blocks, tweak), want, "fused {at}");
                    assert_eq!(
                        c.encrypt_line(blocks, tweak),
                        want,
                        "{:?} {at}",
                        c.line_kernel()
                    );
                }
            }
        }
    }

    #[test]
    fn avx2_line_kernel_is_selected_exactly_when_the_cpu_has_avx2() {
        #[cfg(target_arch = "x86_64")]
        let has_avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let has_avx2 = false;
        let want = if has_avx2 {
            LineKernel::Avx2
        } else {
            LineKernel::Fused
        };
        for sbox in [Sbox::Sigma0, Sbox::Sigma1, Sbox::Sigma2] {
            assert_eq!(Qarma128::new([W0, K0], 9, sbox).line_kernel(), want);
        }
    }

    #[test]
    #[ignore = "needs an AVX2 CPU; CI's bench-smoke job runs it with --include-ignored"]
    fn this_cpu_runs_the_avx2_line_kernel() {
        let c = Qarma128::new([W0, K0], 9, Sbox::Sigma1);
        assert_eq!(c.line_kernel(), LineKernel::Avx2);
    }

    #[test]
    fn encryption_is_deterministic() {
        let c = Qarma128::new([W0, K0], 9, Sbox::Sigma1);
        assert_eq!(c.encrypt(PT, TW), c.encrypt(PT, TW));
    }
}
