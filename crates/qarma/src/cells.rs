//! Cell-array state representation and primitive cell operations.
//!
//! The QARMA-128 state is a 4×4 matrix of 8-bit cells. We represent it as
//! `[u8; 16]` in row-major order with cell 0 holding the most-significant
//! cell of the packed word, matching the paper's convention.

use crate::NUM_CELLS;

/// The QARMA state: 16 cells, row-major, cell 0 most significant.
pub type State = [u8; NUM_CELLS];

/// Unpacks a 128-bit word into sixteen 8-bit cells (cell 0 = bits 127:120).
#[must_use]
pub fn unpack128(x: u128) -> State {
    let mut s = [0u8; NUM_CELLS];
    for (i, cell) in s.iter_mut().enumerate() {
        *cell = ((x >> (120 - 8 * i)) & 0xff) as u8;
    }
    s
}

/// Packs sixteen 8-bit cells back into a 128-bit word.
#[must_use]
pub fn pack128(s: &State) -> u128 {
    let mut x = 0u128;
    for (i, &cell) in s.iter().enumerate() {
        x |= u128::from(cell) << (120 - 8 * i);
    }
    x
}

/// XORs `src` into `dst` cell-wise.
pub fn xor_into(dst: &mut State, src: &State) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d ^= *s;
    }
}

/// Returns the cell-wise XOR of two states.
#[must_use]
pub fn xor(a: &State, b: &State) -> State {
    let mut out = *a;
    xor_into(&mut out, b);
    out
}

/// Applies a cell permutation: `out[i] = s[table[i]]`.
#[must_use]
pub fn permute(s: &State, table: &[usize; NUM_CELLS]) -> State {
    let mut out = [0u8; NUM_CELLS];
    for (i, &t) in table.iter().enumerate() {
        out[i] = s[t];
    }
    out
}

/// ρʳ: rotates a cell left by `r` bit positions.
#[must_use]
pub fn rotl_cell(v: u8, r: u32) -> u8 {
    v.rotate_left(r)
}

/// Rotates a cell right by `r` bit positions, undoing [`rotl_cell`].
#[must_use]
pub fn rotr_cell(v: u8, r: u32) -> u8 {
    v.rotate_right(r)
}

/// `MixColumns` with a circulant matrix `circ(0, ρ^e1, ρ^e2, ρ^e3)`; QARMA-128
/// uses `circ(0, ρ¹, ρ⁴, ρ⁵)`.
///
/// The state matrix is row-major (`cell = s[4*row + col]`); each output cell
/// is the XOR of the other three cells in its column, each rotated left by
/// the circulant exponent `exps[(row_src - row_dst) mod 4]` (`exps[0]` is the
/// structural zero of the matrix and is never used).
#[must_use]
pub fn mix_columns(s: &State, exps: &[u32; 4]) -> State {
    let mut out = [0u8; NUM_CELLS];
    for col in 0..4 {
        for row in 0..4 {
            let mut acc = 0u8;
            for src in 0..4 {
                if src == row {
                    continue;
                }
                let e = exps[(4 + src - row) % 4];
                acc ^= rotl_cell(s[4 * src + col], e);
            }
            out[4 * row + col] = acc;
        }
    }
    out
}

/// Forward ω LFSR on an 8-bit cell.
///
/// Fibonacci right-shift with feedback `b0 ⊕ b2 ⊕ b3 ⊕ b4` into `b7`. The
/// exact 8-bit tap choice is a documented parameter of this reimplementation
/// (see crate docs); invertibility and full mixing are what the MAC
/// construction relies on, and both are property-tested.
#[must_use]
pub fn lfsr8_forward(cell: u8) -> u8 {
    let fb = (cell ^ (cell >> 2) ^ (cell >> 3) ^ (cell >> 4)) & 1;
    (cell >> 1) | (fb << 7)
}

/// Inverse of [`lfsr8_forward`].
#[must_use]
pub fn lfsr8_backward(cell: u8) -> u8 {
    let b0 = ((cell >> 7) ^ (cell >> 1) ^ (cell >> 2) ^ (cell >> 3)) & 1;
    (cell << 1) | b0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{invert_perm, TAU};

    /// QARMA-128's `M = Q = circ(0, ρ¹, ρ⁴, ρ⁵)`.
    const Q128: [u32; 4] = [0, 1, 4, 5];

    #[test]
    fn pack_unpack128_roundtrip() {
        for x in [0u128, u128::MAX, 0x0123_4567_89ab_cdef_0011_2233_4455_6677] {
            assert_eq!(pack128(&unpack128(x)), x);
        }
    }

    #[test]
    fn cell0_is_most_significant() {
        let s = unpack128(0xff << 120);
        assert_eq!(s[0], 0xff);
        assert!(s[1..].iter().all(|&c| c == 0));
    }

    #[test]
    fn rotations_invert() {
        for r in 0..8 {
            for v in 0..=u8::MAX {
                assert_eq!(rotr_cell(rotl_cell(v, r), r), v);
            }
        }
    }

    #[test]
    fn permute_then_inverse_is_identity() {
        let s = unpack128(0x0123_4567_89ab_cdef_1122_3344_5566_7788);
        let inv = invert_perm(&TAU);
        assert_eq!(permute(&permute(&s, &TAU), &inv), s);
    }

    #[test]
    fn mix_is_involutory_for_qarma_matrices() {
        // M = Q = circ(0, ρ¹, ρ⁴, ρ⁵) over 8-bit cells is involutory, on a
        // dense state and on every single-bit state.
        let s = unpack128(0x0123_4567_89ab_cdef_1122_3344_5566_7788);
        assert_eq!(mix_columns(&mix_columns(&s, &Q128), &Q128), s);
        for bit in 0..128 {
            let s = unpack128(1 << bit);
            assert_eq!(mix_columns(&mix_columns(&s, &Q128), &Q128), s, "bit {bit}");
        }
    }

    #[test]
    fn lfsr8_inverts() {
        for v in 0..=255u8 {
            assert_eq!(lfsr8_backward(lfsr8_forward(v)), v);
        }
    }

    #[test]
    fn mix_diffuses_single_cell_to_column() {
        // A single non-zero cell must spread to the three *other* rows of its
        // column (diagonal of the circulant is zero), each copy rotated by
        // the circulant's exponent for its distance.
        let mut s = [0u8; NUM_CELLS];
        s[4 + 2] = 0x1; // row 1, col 2
        let out = mix_columns(&s, &Q128);
        assert_eq!(out[4 + 2], 0, "diagonal entry must be zero");
        for row in [0usize, 2, 3] {
            let e = Q128[(4 + 1 - row) % 4];
            assert_eq!(out[4 * row + 2], 1 << e, "row {row} did not receive ρ^{e}");
        }
        // Other columns untouched.
        for col in [0usize, 1, 3] {
            for row in 0..4 {
                assert_eq!(out[4 * row + col], 0);
            }
        }
    }
}
