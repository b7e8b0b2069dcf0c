//! # QARMA-128 tweakable block cipher
//!
//! A from-scratch implementation of QARMA-128, the 128-bit member of the
//! QARMA family of lightweight tweakable block ciphers (Roberto Avanzi,
//! *IACR ToSC* 2017) and the low-latency cipher that PT-Guard (DSN 2023,
//! Section IV-F) uses to construct its 96-bit page table entry MAC.
//!
//! QARMA is a three-round Even-Mansour construction with a keyed
//! *pseudo-reflector* in the middle: `r` forward rounds, a central reflector,
//! and `r` backward rounds, giving the cipher its α-reflection structure.
//! [`Qarma128`] has 128-bit blocks, 8-bit cells (16 cells) and a 256-bit
//! key. PT-Guard uses it with `r = 9` (18 rounds total plus the reflector)
//! to MAC the 16-byte chunks of a PTE cacheline.
//!
//! ## Validation
//!
//! This is a from-specification reimplementation validated structurally:
//! encrypt/decrypt inverse property tests over all S-boxes and round counts,
//! involution checks for the MixColumns matrices, tweak-LFSR period and
//! invertibility, and avalanche statistics (≈50 % of output bits flip per
//! plaintext/tweak/key bit). The official test vectors are not redistributed
//! here; PT-Guard's security analysis models the MAC as a PRF, which these
//! properties establish empirically. π-derived round constants are documented
//! in [`consts`]. The fused table kernel and the AVX2 line kernel are held
//! to [`reference`](mod@reference), a straight-line cell-array
//! implementation built from the [`cells`] primitives, by seeded
//! differential tests over every S-box and round count.
//!
//! ## Example
//!
//! ```
//! use qarma::{Qarma128, Sbox};
//!
//! let key = [0x0123456789abcdef_fedcba9876543210, 0x0011223344556677_8899aabbccddeeff];
//! let cipher = Qarma128::new(key, 9, Sbox::Sigma1);
//! let pt = 0x00112233445566778899aabbccddeeff_u128;
//! let tweak = 0x0f0e0d0c0b0a09080706050403020100_u128;
//! let ct = cipher.encrypt(pt, tweak);
//! assert_eq!(cipher.decrypt(ct, tweak), pt);
//! ```

#![warn(missing_docs)]

pub mod cells;
pub mod consts;
pub(crate) mod engine;
pub mod q128;
pub mod reference;
pub mod sbox;

pub use engine::LineKernel;
pub use q128::Qarma128;
pub use sbox::Sbox;

/// Number of cells in the QARMA state (a 4×4 matrix).
pub const NUM_CELLS: usize = 16;

/// The cell permutation τ used by `ShuffleCells`.
///
/// Output cell `i` takes the value of input cell `TAU[i]`.
pub const TAU: [usize; NUM_CELLS] = [0, 11, 6, 13, 10, 1, 12, 7, 5, 14, 3, 8, 15, 4, 9, 2];

/// The tweak-cell permutation `h` applied before the tweak LFSR each round.
///
/// Output cell `i` takes the value of input cell `H[i]`.
pub const H: [usize; NUM_CELLS] = [6, 5, 14, 15, 0, 1, 2, 3, 7, 12, 13, 4, 8, 9, 10, 11];

/// Indices of the tweak cells to which the ω LFSR is applied each update.
pub const LFSR_CELLS: [usize; 7] = [0, 1, 3, 4, 8, 11, 13];

/// Inverts a cell permutation table.
#[must_use]
pub fn invert_perm(p: &[usize; NUM_CELLS]) -> [usize; NUM_CELLS] {
    let mut inv = [0usize; NUM_CELLS];
    for (i, &pi) in p.iter().enumerate() {
        inv[pi] = i;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau_is_a_permutation() {
        let mut seen = [false; NUM_CELLS];
        for &t in &TAU {
            assert!(!seen[t], "duplicate cell {t} in TAU");
            seen[t] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn h_is_a_permutation() {
        let mut seen = [false; NUM_CELLS];
        for &t in &H {
            assert!(!seen[t], "duplicate cell {t} in H");
            seen[t] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn invert_perm_roundtrip() {
        let inv = invert_perm(&TAU);
        for i in 0..NUM_CELLS {
            assert_eq!(inv[TAU[i]], i);
            assert_eq!(TAU[inv[i]], i);
        }
    }
}
