//! Differential test: the fused kernel behind `Qarma128` against the
//! straight-line cell-array reference in `qarma::reference`, over every
//! S-box, every supported round count and seeded random keys, plaintexts
//! and tweaks.

use qarma::consts::MAX_ROUNDS;
use qarma::{reference, Qarma128, Sbox};

const SBOXES: [Sbox; 3] = [Sbox::Sigma0, Sbox::Sigma1, Sbox::Sigma2];
const CASES: usize = 200;

/// SplitMix64: a fixed-seed generator, so a failure names a reproducible case.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn next_u128(&mut self) -> u128 {
        (u128::from(self.next()) << 64) | u128::from(self.next())
    }
}

#[test]
fn qarma128_kernel_matches_the_reference() {
    let mut rng = SplitMix(0x5eed_0128);
    for sbox in SBOXES {
        for rounds in 1..=MAX_ROUNDS {
            for case in 0..CASES {
                let key = [rng.next_u128(), rng.next_u128()];
                let (pt, tw) = (rng.next_u128(), rng.next_u128());
                let c = Qarma128::new(key, rounds, sbox);
                let ct = reference::encrypt128(key, rounds, sbox, pt, tw);
                let at = format!("{sbox:?} r={rounds} case {case}");
                assert_eq!(c.encrypt(pt, tw), ct, "encrypt {at}");
                assert_eq!(c.decrypt(ct, tw), pt, "decrypt {at}");
                assert_eq!(reference::decrypt128(key, rounds, sbox, ct, tw), pt, "{at}");
            }
        }
    }
}
