//! A straight-line cell-array QARMA-128: the reference the fast kernels are
//! checked against.
//!
//! Written for clarity, not speed: the state is a [`State`] of 16 cells,
//! every step is one [`cells`](crate::cells) primitive or one S-box call per
//! cell, and the key schedule is rebuilt on every call. Decryption undoes
//! the encryption steps in reverse order: a backward round undoes a forward
//! round with the same key and vice versa (M is an involution), and the
//! reflector is inverted literally, under `k1`, so the reference does not
//! rely on the mirrored key set the kernels decrypt with. It shares nothing
//! with the fused and AVX2 kernels in `engine.rs` and `engine/avx2.rs`
//! except the specification's constants, S-boxes and cell permutations.

use crate::cells::{lfsr8_forward, mix_columns, pack128, permute, unpack128, xor, State};
use crate::consts::{ALPHA128, C128};
use crate::{invert_perm, Sbox, H, LFSR_CELLS, TAU};

/// The MixColumns matrix `M = Q = circ(0, ρ¹, ρ⁴, ρ⁵)`, as its exponents.
const EXPS: [u32; 4] = [0, 1, 4, 5];

/// One instance's parameters and key material, as cell arrays.
struct Cipher {
    sbox: Sbox,
    w0: State,
    w1: State,
    /// Reflector key `k1 = M·k0`.
    k1: State,
    /// Forward round keys `k0 ⊕ cᵢ`.
    fwd: Vec<State>,
    /// Backward round keys `k0 ⊕ α ⊕ cᵢ`.
    bwd: Vec<State>,
}

impl Cipher {
    /// `key` is `[w0, k0]`, `w1 = o(w0)` computed on the native word.
    fn new(sbox: Sbox, key: [State; 2], w1: State, alpha: State, c: &[State]) -> Self {
        let [w0, k0] = key;
        Self {
            sbox,
            w0,
            w1,
            k1: mix_columns(&k0, &EXPS),
            fwd: c.iter().map(|ci| xor(&k0, ci)).collect(),
            bwd: c.iter().map(|ci| xor(&xor(&k0, &alpha), ci)).collect(),
        }
    }

    fn rounds(&self) -> usize {
        self.fwd.len()
    }

    fn sub(&self, s: &State) -> State {
        s.map(|c| self.sbox.apply_byte(c))
    }

    fn sub_inv(&self, s: &State) -> State {
        let inv = self.sbox.inverse_table();
        let nibble = |c: u8| inv[usize::from(c)];
        s.map(|c| (nibble(c >> 4) << 4) | nibble(c & 0xf))
    }

    fn mix(&self, s: &State) -> State {
        mix_columns(s, &EXPS)
    }

    /// `t₀ .. t_r`: each step permutes the cells by `h`, then steps the
    /// ω-LFSR on the LFSR cells.
    fn tweaks(&self, t: State) -> Vec<State> {
        let mut out = vec![t];
        for _ in 0..self.rounds() {
            let mut next = permute(out.last().expect("t₀ is present"), &H);
            for &i in &LFSR_CELLS {
                next[i] = lfsr8_forward(next[i]);
            }
            out.push(next);
        }
        out
    }

    /// Forward round: `⊕ tk`, then (unless short) τ and M, then S.
    fn forward(&self, s: &State, tk: &State, short: bool) -> State {
        let mut s = xor(s, tk);
        if !short {
            s = self.mix(&permute(&s, &TAU));
        }
        self.sub(&s)
    }

    /// Backward round: S⁻¹, then (unless short) M and τ⁻¹, then `⊕ tk`.
    /// With the same `tk` it inverts [`Self::forward`], and `forward`
    /// inverts it.
    fn backward(&self, s: &State, tk: &State, short: bool) -> State {
        let mut s = self.sub_inv(s);
        if !short {
            s = permute(&self.mix(&s), &invert_perm(&TAU));
        }
        xor(&s, tk)
    }

    /// Pseudo-reflector: τ, M, `⊕ k1`, τ⁻¹.
    fn reflect(&self, s: &State) -> State {
        let s = xor(&self.mix(&permute(s, &TAU)), &self.k1);
        permute(&s, &invert_perm(&TAU))
    }

    /// Inverse of [`Self::reflect`] (M⁻¹ = M).
    fn undo_reflect(&self, s: &State) -> State {
        let s = self.mix(&xor(&permute(s, &TAU), &self.k1));
        permute(&s, &invert_perm(&TAU))
    }

    // Indexed by round number, as the specification writes it.
    #[allow(clippy::needless_range_loop)]
    fn encrypt(&self, p: State, t: State) -> State {
        let r = self.rounds();
        let ts = self.tweaks(t);
        let mut s = xor(&p, &self.w0);
        for i in 0..r {
            s = self.forward(&s, &xor(&self.fwd[i], &ts[i]), i == 0);
        }
        s = self.forward(&s, &xor(&self.w1, &ts[r]), false);
        s = self.reflect(&s);
        s = self.backward(&s, &xor(&self.w0, &ts[r]), false);
        for i in (0..r).rev() {
            s = self.backward(&s, &xor(&self.bwd[i], &ts[i]), i == 0);
        }
        xor(&s, &self.w1)
    }

    #[allow(clippy::needless_range_loop)]
    fn decrypt(&self, c: State, t: State) -> State {
        let r = self.rounds();
        let ts = self.tweaks(t);
        let mut s = xor(&c, &self.w1);
        for i in 0..r {
            s = self.forward(&s, &xor(&self.bwd[i], &ts[i]), i == 0);
        }
        s = self.forward(&s, &xor(&self.w0, &ts[r]), false);
        s = self.undo_reflect(&s);
        s = self.backward(&s, &xor(&self.w1, &ts[r]), false);
        for i in (0..r).rev() {
            s = self.backward(&s, &xor(&self.fwd[i], &ts[i]), i == 0);
        }
        xor(&s, &self.w0)
    }
}

/// The orthomorphism `o(x) = (x ⋙ 1) ⊕ (x ≫ 127)` deriving `w1` from `w0`.
fn ortho128(x: u128) -> u128 {
    x.rotate_right(1) ^ (x >> 127)
}

fn cipher128(key: [u128; 2], rounds: usize, sbox: Sbox) -> Cipher {
    assert!((1..=C128.len()).contains(&rounds), "QARMA-128 rounds");
    let consts: Vec<State> = C128[..rounds].iter().map(|&c| unpack128(c)).collect();
    Cipher::new(
        sbox,
        key.map(unpack128),
        unpack128(ortho128(key[0])),
        unpack128(ALPHA128),
        &consts,
    )
}

/// QARMA-128 encryption of `plaintext` under `tweak`; `key` is `[w0, k0]`.
///
/// # Panics
///
/// Panics if `rounds` is outside `1..=MAX_ROUNDS`.
#[must_use]
pub fn encrypt128(key: [u128; 2], rounds: usize, sbox: Sbox, plaintext: u128, tweak: u128) -> u128 {
    let c = cipher128(key, rounds, sbox);
    pack128(&c.encrypt(unpack128(plaintext), unpack128(tweak)))
}

/// QARMA-128 decryption: the inverse of [`encrypt128`].
///
/// # Panics
///
/// Panics if `rounds` is outside `1..=MAX_ROUNDS`.
#[must_use]
pub fn decrypt128(
    key: [u128; 2],
    rounds: usize,
    sbox: Sbox,
    ciphertext: u128,
    tweak: u128,
) -> u128 {
    let c = cipher128(key, rounds, sbox);
    pack128(&c.decrypt(unpack128(ciphertext), unpack128(tweak)))
}
