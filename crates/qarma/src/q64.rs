//! QARMA-64: 64-bit blocks, 4-bit cells, 128-bit key.

use crate::consts::{ALPHA64, C64, MAX_ROUNDS, MAX_ROUNDS_64};
use crate::engine::{ortho64, spread64, unspread64, Core};
use crate::sbox::Sbox;

/// The QARMA-64 tweakable block cipher.
///
/// The 128-bit key is supplied as `(w0, k0)`; the whitening key `w1` and the
/// reflector key `k1` are derived per the specification (`w1 = o(w0)`,
/// `k1 = M·k0`).
///
/// # Example
///
/// ```
/// use qarma::{Qarma64, Sbox};
///
/// let cipher = Qarma64::new([0x84be85ce9804e94b, 0xec2802d4e0a488e4], 5, Sbox::Sigma1);
/// let ct = cipher.encrypt(0xfb623599da6e8127, 0x477d469dec0b8762);
/// assert_eq!(cipher.decrypt(ct, 0x477d469dec0b8762), 0xfb623599da6e8127);
/// ```
#[derive(Debug, Clone)]
pub struct Qarma64 {
    core: Core,
}

impl Qarma64 {
    /// Creates a QARMA-64 instance with `r` forward/backward rounds.
    ///
    /// `key` is `[w0, k0]`. The paper analyzes `r ∈ {5..8}`; ARMv8.3 pointer
    /// authentication uses `r = 5`.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero or exceeds the round-constant table
    /// ([`MAX_ROUNDS_64`]).
    #[must_use]
    pub fn new(key: [u64; 2], rounds: usize, sbox: Sbox) -> Self {
        assert!(
            (1..=MAX_ROUNDS_64).contains(&rounds),
            "QARMA-64 supports 1..={MAX_ROUNDS_64} rounds, got {rounds}"
        );
        let mut consts = [0u128; MAX_ROUNDS];
        for (packed, &c) in consts.iter_mut().zip(&C64[..rounds]) {
            *packed = spread64(c);
        }
        let core = Core::new(
            4,
            rounds,
            sbox,
            &consts[..rounds],
            spread64(ALPHA64),
            spread64(key[0]),
            spread64(ortho64(key[0])),
            spread64(key[1]),
        );
        Self { core }
    }

    /// Encrypts `plaintext` under `tweak`. Allocation-free.
    #[must_use]
    pub fn encrypt(&self, plaintext: u64, tweak: u64) -> u64 {
        unspread64(self.core.encrypt(spread64(plaintext), spread64(tweak)))
    }

    /// Decrypts `ciphertext` under `tweak`. Allocation-free.
    #[must_use]
    pub fn decrypt(&self, ciphertext: u64, tweak: u64) -> u64 {
        unspread64(self.core.decrypt(spread64(ciphertext), spread64(tweak)))
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

    const W0: u64 = 0x84be85ce9804e94b;
    const K0: u64 = 0xec2802d4e0a488e4;
    const PT: u64 = 0xfb623599da6e8127;
    const TW: u64 = 0x477d469dec0b8762;

    #[test]
    fn encrypt_decrypt_roundtrip_all_sboxes() {
        for sbox in [Sbox::Sigma0, Sbox::Sigma1, Sbox::Sigma2] {
            for rounds in 1..=MAX_ROUNDS_64 {
                let c = Qarma64::new([W0, K0], rounds, sbox);
                let ct = c.encrypt(PT, TW);
                assert_eq!(c.decrypt(ct, TW), PT, "r={rounds} sbox={sbox:?}");
            }
        }
    }

    #[test]
    fn tweak_changes_ciphertext() {
        let c = Qarma64::new([W0, K0], 5, Sbox::Sigma1);
        assert_ne!(c.encrypt(PT, TW), c.encrypt(PT, TW ^ 1));
    }

    #[test]
    fn key_changes_ciphertext() {
        let a = Qarma64::new([W0, K0], 5, Sbox::Sigma1);
        let b = Qarma64::new([W0, K0 ^ 1], 5, Sbox::Sigma1);
        let c = Qarma64::new([W0 ^ 1, K0], 5, Sbox::Sigma1);
        assert_ne!(a.encrypt(PT, TW), b.encrypt(PT, TW));
        assert_ne!(a.encrypt(PT, TW), c.encrypt(PT, TW));
    }

    #[test]
    fn avalanche_on_plaintext_bit() {
        // Flipping one plaintext bit should flip ~half the ciphertext bits.
        let c = Qarma64::new([W0, K0], 5, Sbox::Sigma1);
        let base = c.encrypt(PT, TW);
        let mut total = 0u32;
        for bit in 0..64 {
            total += (c.encrypt(PT ^ (1 << bit), TW) ^ base).count_ones();
        }
        let avg = f64::from(total) / 64.0;
        assert!(
            (24.0..40.0).contains(&avg),
            "weak avalanche: avg {avg} flipped bits"
        );
    }

    #[test]
    fn avalanche_on_tweak_bit() {
        let c = Qarma64::new([W0, K0], 5, Sbox::Sigma1);
        let base = c.encrypt(PT, TW);
        let mut total = 0u32;
        for bit in 0..64 {
            total += (c.encrypt(PT, TW ^ (1 << bit)) ^ base).count_ones();
        }
        let avg = f64::from(total) / 64.0;
        assert!(
            (24.0..40.0).contains(&avg),
            "weak tweak avalanche: avg {avg}"
        );
    }

    #[test]
    fn golden_outputs_are_stable() {
        // Regression pins for this implementation (not official vectors,
        // which are unavailable offline — see the crate docs): any change
        // to the round structure, constants, or packing shows up here.
        for (sbox, rounds, expect) in [
            (Sbox::Sigma0, 5, 0x95b6b60d45868c7au64),
            (Sbox::Sigma0, 7, 0x19b057a4644ff999),
            (Sbox::Sigma1, 5, 0x126b20de9bd865aa),
            (Sbox::Sigma1, 7, 0x765bda9ad48bb517),
            (Sbox::Sigma2, 5, 0x7538e0e8710793d2),
            (Sbox::Sigma2, 7, 0x84a328c587c73e2a),
        ] {
            let c = Qarma64::new([W0, K0], rounds, sbox);
            assert_eq!(c.encrypt(PT, TW), expect, "{sbox:?} r={rounds}");
        }
    }

    #[test]
    #[should_panic(expected = "rounds")]
    fn zero_rounds_rejected() {
        let _ = Qarma64::new([W0, K0], 0, Sbox::Sigma1);
    }
}
