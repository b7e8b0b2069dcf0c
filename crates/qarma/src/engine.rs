//! The Even-Mansour reflection core of QARMA-128.
//!
//! ## State layout
//!
//! The core keeps the 16 cells in one `u128` word, one byte lane per cell,
//! in *column-major* order: cell `(row r, column c)` — cell index `4r + c`
//! in the specification's row-major numbering — sits in byte lane `4c + r`
//! of the little-endian word, so column `c` is 32-bit word `c`. Only the
//! boundary converts from the packed big-endian words (cell 0 most
//! significant): one byte swap and one 4×4 byte transpose, at the input
//! block, the output block and the tweak.
//!
//! ## Fused rounds
//!
//! Between two S-box layers the forward half applies `⊕ key, τ, M` and the
//! backward half `M, τ⁻¹, ⊕ key`. The kernel brackets each as one *fused
//! layer* — S-box, cell permutation, MixColumns — followed by a key XOR:
//!
//! * forward: `u ← M·τ·S(u) ⊕ M·τ(k)`, so forward keys are stored in the
//!   `M∘τ` frame;
//! * backward, on the state kept in the τ-frame `y = τ(s)`:
//!   `y ← M·τ⁻¹·S⁻¹(y) ⊕ τ(k)`, so backward keys are stored in the τ-frame.
//!
//! A fused layer is sixteen lookups into four 256-entry `u32` column tables
//! (one per source row: the S-box image of a cell, pushed through
//! MixColumns into the three other rows of its column) and twelve XORs;
//! the permutation only chooses which lane feeds which table. The
//! pseudo-reflector `τ⁻¹(M·τ(v) ⊕ k1)` lands in the τ-frame as `M·τ·S(u) ⊕
//! k1`, so it is one more forward layer, and the last layer is a plain
//! `τ⁻¹·S⁻¹`. Every XOR-in is linear, so the round keys and the tweak
//! schedule are framed once and added separately.
//!
//! Decryption is the same kernel over the mirrored key set: `w0 ↔ w1`, the
//! forward and backward round keys swapped, and reflector key `k0` (the
//! inverse reflector `τ⁻¹(M(τ(s) ⊕ k1))` is `τ⁻¹(M·τ(s) ⊕ M·k1)` and
//! `M·k1 = M·M·k0 = k0`, M being involutory).
//!
//! Everything derivable from the key — the tables, the framed keys of both
//! directions, the LFSR masks — is precomputed at construction into
//! fixed-size arrays sized by [`MAX_ROUNDS`], so `encrypt`/`decrypt` run on
//! the stack with zero heap allocations (pinned by `tests/alloc.rs`).
//!
//! ## Lines
//!
//! [`Core::encrypt_line`] enciphers the four 16-byte chunks of a 64-byte
//! line under tweaks `t ⊕ 16·i`. It computes one tweak schedule and XORs in
//! the precomputed schedules of the chunk offsets. On a CPU with AVX2 it
//! runs the `avx2` kernel, which keeps two chunks in each 256-bit register;
//! elsewhere it runs the fused kernel above once per chunk. The choice is
//! made once, at construction, and both give the same bits.

use std::ops::BitXor;

use crate::consts::MAX_ROUNDS;
use crate::sbox::Sbox;
use crate::{H, LFSR_CELLS, NUM_CELLS, TAU};

#[cfg(target_arch = "x86_64")]
mod avx2;

/// Byte lane of cell `k` (row-major specification index) in the
/// column-major state.
const fn lane(k: usize) -> usize {
    4 * (k % 4) + k / 4
}

/// Word with `0xff` in each listed byte lane.
const fn lane_mask(lanes: &[usize]) -> u128 {
    let mut m = 0u128;
    let mut i = 0;
    while i < lanes.len() {
        m |= 0xff << (8 * lanes[i]);
        i += 1;
    }
    m
}

/// Inverse of τ in the specification's cell numbering.
const TAU_INV: [usize; NUM_CELLS] = {
    let mut inv = [0usize; NUM_CELLS];
    let mut i = 0;
    while i < NUM_CELLS {
        inv[TAU[i]] = i;
        i += 1;
    }
    inv
};

/// A cell permutation (`out[k] = in[perm[k]]`) re-expressed on the
/// column-major lanes, for [`permute_lanes`].
const fn lane_perm(perm: &[usize; NUM_CELLS]) -> [usize; NUM_CELLS] {
    let mut out = [0usize; NUM_CELLS];
    let mut k = 0;
    while k < NUM_CELLS {
        out[lane(k)] = lane(perm[k]);
        k += 1;
    }
    out
}

const TAU_LANES: [usize; NUM_CELLS] = lane_perm(&TAU);
const TAU_INV_LANES: [usize; NUM_CELLS] = lane_perm(&TAU_INV);

/// The tweak permutation `h` conjugated into the τ-frame (`τ∘h∘τ⁻¹`): the
/// schedule keeps the tweak as `τ(tᵢ)`, the form the backward half adds,
/// so each update costs one lane permutation instead of two.
const H_IN_TAU_FRAME: [usize; NUM_CELLS] = {
    let mut p = [0usize; NUM_CELLS];
    let mut k = 0;
    while k < NUM_CELLS {
        p[k] = TAU_INV[H[TAU[k]]];
        k += 1;
    }
    lane_perm(&p)
};

/// Byte `lane` of a state held as two u64 halves.
#[inline(always)]
fn lane_byte(lo: u64, hi: u64, lane: usize) -> usize {
    let half = if lane < 8 { lo } else { hi };
    ((half >> (8 * (lane % 8))) & 0xff) as usize
}

/// Applies a lane permutation: output lane `i` takes input lane `perm[i]`.
/// With a `const` permutation every shift below folds to a constant.
#[inline(always)]
fn permute_lanes(perm: &[usize; NUM_CELLS], x: u128) -> u128 {
    let (lo, hi) = (x as u64, (x >> 64) as u64);
    let mut out_lo = 0u64;
    let mut out_hi = 0u64;
    for i in 0..8 {
        out_lo |= (lane_byte(lo, hi, perm[i]) as u64) << (8 * i);
        out_hi |= (lane_byte(lo, hi, perm[i + 8]) as u64) << (8 * i);
    }
    (u128::from(out_hi) << 64) | u128::from(out_lo)
}

/// Applies a byte table to every lane.
#[inline(always)]
fn map_lanes(tbl: &[u8; 256], x: u128) -> u128 {
    let (lo, hi) = (x as u64, (x >> 64) as u64);
    let mut out_lo = 0u64;
    let mut out_hi = 0u64;
    for i in 0..8 {
        out_lo |= u64::from(tbl[lane_byte(lo, hi, i)]) << (8 * i);
        out_hi |= u64::from(tbl[lane_byte(lo, hi, i + 8)]) << (8 * i);
    }
    (u128::from(out_hi) << 64) | u128::from(out_lo)
}

/// One fused layer: S-box, the cell permutation `perm` (`τ` or `τ⁻¹`, in
/// specification numbering) and MixColumns. Output column `c` is the XOR of
/// one table word per source row `src`, indexed by the cell `perm` routes
/// into row `src` of column `c`.
#[inline(always)]
fn fused(tbl: &[[u32; 256]; 4], perm: &[usize; NUM_CELLS], s: u128) -> u128 {
    let (lo, hi) = (s as u64, (s >> 64) as u64);
    let cell = |k: usize| lane_byte(lo, hi, lane(perm[k]));
    let col = |c: usize| {
        tbl[0][cell(c)] ^ tbl[1][cell(4 + c)] ^ tbl[2][cell(8 + c)] ^ tbl[3][cell(12 + c)]
    };
    let out_lo = u64::from(col(0)) | (u64::from(col(1)) << 32);
    let out_hi = u64::from(col(2)) | (u64::from(col(3)) << 32);
    (u128::from(out_hi) << 64) | u128::from(out_lo)
}

/// Converts between row-major and column-major lane order: a 4×4 byte
/// transpose (its own inverse) as two delta swaps — within each 2×2 block
/// (lanes 1, 3, 9, 11 ↔ +3), then of the off-diagonal blocks (lanes 2, 3,
/// 6, 7 ↔ +6).
#[inline(always)]
fn transpose(x: u128) -> u128 {
    const INNER: u128 = lane_mask(&[1, 3, 9, 11]);
    const OUTER: u128 = lane_mask(&[2, 3, 6, 7]);
    let t = ((x >> 24) ^ x) & INNER;
    let x = x ^ t ^ (t << 24);
    let t = ((x >> 48) ^ x) & OUTER;
    x ^ t ^ (t << 48)
}

/// A packed big-endian word (cell 0 most significant) in column-major form.
#[inline(always)]
fn to_state(packed: u128) -> u128 {
    transpose(packed.swap_bytes())
}

/// Inverse of [`to_state`].
#[inline(always)]
fn from_state(s: u128) -> u128 {
    transpose(s).swap_bytes()
}

/// Applies a lane-wise map to both u64 halves of a state word. Every map
/// below stays inside 32-bit lanes, so the halves never exchange bits and
/// the work is plain 64-bit arithmetic.
#[inline(always)]
fn per_half(x: u128, f: impl Fn(u64) -> u64) -> u128 {
    (u128::from(f((x >> 64) as u64)) << 64) | u128::from(f(x as u64))
}

/// Replicates one byte into every lane of a u64 half.
const fn rep64(b: u8) -> u64 {
    u64::from_le_bytes([b; 8])
}

/// Rotates every 8-bit lane left by `R` (0 < `R` < 8).
#[inline(always)]
fn rot8<const R: u32>(x: u64) -> u64 {
    let hi = rep64(((0xffu32 << R) & 0xff) as u8);
    ((x << R) & hi) | ((x >> (8 - R)) & !hi)
}

/// Moves row `r + D` of every column into row `r`: each 32-bit column word
/// rotated right by `8·D` bits.
#[inline(always)]
fn rot_rows<const D: u32>(x: u64) -> u64 {
    let keep = u64::from(u32::MAX >> (8 * D)) * 0x1_0000_0001;
    ((x >> (8 * D)) & keep) | ((x << (32 - 8 * D)) & !keep)
}

/// The involutory QARMA-128 MixColumns `M = Q = circ(0, ρ¹, ρ⁴, ρ⁵)` on the
/// column-major state: the stripe for distance `d` is a row rotation of
/// every column plus an in-lane cell rotation; the structural-zero diagonal
/// has no stripe.
fn mix128(x: u128) -> u128 {
    per_half(x, |h| {
        rot8::<1>(rot_rows::<1>(h)) ^ rot8::<4>(rot_rows::<2>(h)) ^ rot8::<5>(rot_rows::<3>(h))
    })
}

/// The per-round tweak material of one tweak, in the frames the fused
/// kernel adds it in.
///
/// Every step from the tweak to these words — the cell permutations `h` and
/// `τ`, the ω-LFSR and MixColumns — is linear over GF(2), so the schedule
/// is too: `schedule(a ⊕ b) = schedule(a) ⊕ schedule(b)`. So
/// [`Core::encrypt_line`], whose chunk tweaks differ from the line's only in
/// bits 4 and 5, computes one schedule and XORs in precomputed ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TweakSchedule {
    /// `t₀`, added with the input and the output whitening.
    plain: u128,
    /// `M·τ(tᵢ)` for `i = 1..=r`.
    fwd: [u128; MAX_ROUNDS],
    /// `τ(tᵢ)` for `i = 1..=r`.
    bwd: [u128; MAX_ROUNDS],
}

impl TweakSchedule {
    /// The schedule of the zero tweak (the schedule is linear).
    const ZERO: Self = Self {
        plain: 0,
        fwd: [0; MAX_ROUNDS],
        bwd: [0; MAX_ROUNDS],
    };
}

impl BitXor for TweakSchedule {
    type Output = Self;

    fn bitxor(mut self, rhs: Self) -> Self {
        self.plain ^= rhs.plain;
        for (a, b) in self.fwd.iter_mut().zip(rhs.fwd) {
            *a ^= b;
        }
        for (a, b) in self.bwd.iter_mut().zip(rhs.bwd) {
            *a ^= b;
        }
        self
    }
}

/// The kernel that enciphers a line's four chunks, chosen once per cipher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineKernel {
    /// The fused table kernel, once per chunk: every CPU without AVX2.
    Fused,
    /// The AVX2 kernel: two chunks per 256-bit register, PSHUFB tables.
    Avx2,
}

impl LineKernel {
    /// Short lower-case name, as benchmark reports record it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LineKernel::Fused => "fused",
            LineKernel::Avx2 => "avx2",
        }
    }
}

/// One direction's key material, in the frames the fused kernel adds it in.
#[derive(Debug, Clone)]
struct Keys {
    /// Input whitening ⊕ the first round key.
    input: u128,
    /// `M·τ` of round keys `1..r` and, at index `r − 1`, of the central
    /// whitening key.
    fwd: [u128; MAX_ROUNDS],
    /// Pseudo-reflector key.
    reflect: u128,
    /// `τ` of round keys `1..r` of the second half and, at index `r − 1`,
    /// of the central whitening key.
    bwd: [u128; MAX_ROUNDS],
    /// Last round key ⊕ the output whitening.
    output: u128,
}

impl Keys {
    /// Frames one direction: whitening `w_in` at the input and the centre
    /// of the second half, `w_out` at the centre of the first half and the
    /// output; round keys `first` before the reflector and `second` after.
    fn new(w_in: u128, w_out: u128, first: &[u128], second: &[u128], reflect: u128) -> Self {
        let r = first.len();
        let mut keys = Self {
            input: w_in ^ first[0],
            fwd: [0; MAX_ROUNDS],
            reflect,
            bwd: [0; MAX_ROUNDS],
            output: second[0] ^ w_out,
        };
        for i in 1..r {
            keys.fwd[i - 1] = mix128(permute_lanes(&TAU_LANES, first[i]));
            keys.bwd[i - 1] = permute_lanes(&TAU_LANES, second[i]);
        }
        keys.fwd[r - 1] = mix128(permute_lanes(&TAU_LANES, w_out));
        keys.bwd[r - 1] = permute_lanes(&TAU_LANES, w_in);
        keys
    }
}

/// Cipher parameters plus the precomputed tables and key material.
#[derive(Debug, Clone)]
pub(crate) struct Core {
    /// Number of forward (and backward) rounds `r`.
    pub rounds: usize,
    /// The selected S-box.
    pub sbox: Sbox,
    /// Fused `M·τ·S` column tables, one per source row.
    fwd_tbl: [[u32; 256]; 4],
    /// Fused `M·τ⁻¹·S⁻¹` column tables, one per source row.
    bwd_tbl: [[u32; 256]; 4],
    /// Inverse S-box over full lane values, for the last layer.
    sub_inv_tbl: [u8; 256],
    /// Lanes holding ω-LFSR tweak cells, in the τ-frame.
    lfsr_mask: u128,
    /// Encryption key material.
    enc: Keys,
    /// Decryption key material (the mirrored set).
    dec: Keys,
    /// Tweak schedules of the chunk offsets 0, 16, 32 and 48 of a line.
    chunk_offsets: [TweakSchedule; 4],
    /// The AVX2 line kernel's tables: present only on a CPU that reports
    /// AVX2.
    #[cfg(target_arch = "x86_64")]
    avx2: Option<avx2::Tables>,
}

impl Core {
    /// Builds the core and its full key schedule. Key and constant words
    /// are packed big-endian (cell 0 most significant, one cell per byte);
    /// `round_consts` supplies `c0..c_{r-1}`; `w1` must already be `o(w0)`.
    pub(crate) fn new(
        rounds: usize,
        sbox: Sbox,
        round_consts: &[u128],
        alpha: u128,
        w0: u128,
        w1: u128,
        k0: u128,
    ) -> Self {
        assert!((1..=MAX_ROUNDS).contains(&rounds));
        assert_eq!(round_consts.len(), rounds);

        let sub_inv_tbl = sbox.inverse_byte_table();
        // A cell in row 0 of column `c` (bit 32·c) spreads over column word
        // `c`, so one MixColumns yields four table entries. M is circulant:
        // a cell in row `src` spreads the same way rotated down `src` rows.
        let tables = |sub: &[u8; 256]| {
            let mut t = [[0u32; 256]; 4];
            for (v, images) in sub.chunks_exact(4).enumerate() {
                let cells = images
                    .iter()
                    .enumerate()
                    .fold(0u128, |x, (c, &image)| x | (u128::from(image) << (32 * c)));
                let columns = mix128(cells);
                for c in 0..4 {
                    let column = (columns >> (32 * c)) as u32;
                    for (src, tbl) in t.iter_mut().enumerate() {
                        tbl[4 * v + c] = column.rotate_left(8 * src as u32);
                    }
                }
            }
            t
        };

        let (w0, w1, k0, alpha) = (to_state(w0), to_state(w1), to_state(k0), to_state(alpha));
        let mut fwd_rk = [0u128; MAX_ROUNDS];
        let mut bwd_rk = [0u128; MAX_ROUNDS];
        for (i, &c) in round_consts.iter().enumerate() {
            fwd_rk[i] = k0 ^ to_state(c);
            bwd_rk[i] = k0 ^ alpha ^ to_state(c);
        }
        let (fwd_rk, bwd_rk) = (&fwd_rk[..rounds], &bwd_rk[..rounds]);
        let lfsr_mask = LFSR_CELLS
            .iter()
            .fold(0u128, |m, &k| m | (0xff << (8 * lane(TAU_INV[k]))));

        let mut core = Self {
            rounds,
            sbox,
            fwd_tbl: tables(&sbox.byte_table()),
            bwd_tbl: tables(&sub_inv_tbl),
            sub_inv_tbl,
            lfsr_mask,
            // Reflector key k1 = M·k0.
            enc: Keys::new(w0, w1, fwd_rk, bwd_rk, mix128(k0)),
            dec: Keys::new(w1, w0, bwd_rk, fwd_rk, k0),
            chunk_offsets: [TweakSchedule::ZERO; 4],
            #[cfg(target_arch = "x86_64")]
            avx2: avx2::Tables::detect(sbox),
        };
        core.chunk_offsets = [0, 16, 32, 48].map(|off| core.tweak_schedule(off));
        core
    }

    /// The kernel [`Self::encrypt_line`] runs.
    pub(crate) fn line_kernel(&self) -> LineKernel {
        #[cfg(target_arch = "x86_64")]
        if self.avx2.is_some() {
            return LineKernel::Avx2;
        }
        LineKernel::Fused
    }

    /// One forward tweak update in the τ-frame (`τ(tᵢ) → τ(tᵢ₊₁)`):
    /// permutation `h`, then ω on the LFSR cells. The LFSR steps every lane
    /// at once: the feedback bit is a masked XOR of the tap shifts (taps
    /// stay in-lane because each shift is < 8 and the result is masked to
    /// the lane LSB before repositioning).
    #[inline(always)]
    fn tweak_update(&self, t: u128) -> u128 {
        let p = permute_lanes(&H_IN_TAU_FRAME, t);
        let lsb = rep64(0x01);
        let stepped = per_half(p, |h| {
            // x⁷ + x⁵ + x⁴ + x³ + 1 taps: feedback = bit0 ⊕ bit2 ⊕ bit3 ⊕ bit4,
            // into bit 7 as the low seven bits shift down.
            let fb = (h ^ (h >> 2) ^ (h >> 3) ^ (h >> 4)) & lsb;
            ((h >> 1) & rep64(0x7f)) | (fb << 7)
        });
        (p & !self.lfsr_mask) | (stepped & self.lfsr_mask)
    }

    /// The framed tweak schedule of a packed tweak.
    pub(crate) fn tweak_schedule(&self, tweak: u128) -> TweakSchedule {
        let plain = to_state(tweak);
        let mut ts = TweakSchedule {
            plain,
            fwd: [0; MAX_ROUNDS],
            bwd: [0; MAX_ROUNDS],
        };
        let r = self.rounds;
        let mut t = permute_lanes(&TAU_LANES, plain);
        for (f, b) in ts.fwd[..r].iter_mut().zip(&mut ts.bwd[..r]) {
            t = self.tweak_update(t);
            *b = t;
            *f = mix128(t);
        }
        ts
    }

    /// The whole cipher over one direction's key set: `r + 1` forward
    /// layers, the reflector layer, `r` backward layers and the final
    /// `τ⁻¹·S⁻¹`.
    #[inline(always)]
    fn crypt(&self, keys: &Keys, block: u128, ts: &TweakSchedule) -> u128 {
        let r = self.rounds;
        let mut s = to_state(block) ^ keys.input ^ ts.plain;
        for (k, t) in keys.fwd[..r].iter().zip(&ts.fwd[..r]) {
            s = fused(&self.fwd_tbl, &TAU, s) ^ k ^ t;
        }
        s = fused(&self.fwd_tbl, &TAU, s) ^ keys.reflect;
        for (k, t) in keys.bwd[..r].iter().zip(&ts.bwd[..r]).rev() {
            s = fused(&self.bwd_tbl, &TAU_INV, s) ^ k ^ t;
        }
        let s = map_lanes(&self.sub_inv_tbl, permute_lanes(&TAU_INV_LANES, s));
        from_state(s ^ keys.output ^ ts.plain)
    }

    /// Encrypts one packed block under a precomputed tweak schedule.
    pub(crate) fn encrypt_scheduled(&self, p: u128, ts: &TweakSchedule) -> u128 {
        self.crypt(&self.enc, p, ts)
    }

    /// Encrypts four packed blocks, block `i` under packed tweak `t ⊕ 16·i`,
    /// on the kernel [`Self::line_kernel`] names.
    pub(crate) fn encrypt_line(&self, blocks: [u128; 4], t: u128) -> [u128; 4] {
        #[cfg(target_arch = "x86_64")]
        if let Some(tables) = &self.avx2 {
            // SAFETY: the kernel's only requirement is that the CPU supports
            // AVX2. An `avx2::Tables` exists only if `Tables::detect` saw
            // `is_x86_feature_detected!("avx2")` hold (its fields are private
            // to `avx2`, so nothing else can build one), and a CPU's feature
            // set does not change while the process runs.
            return unsafe { avx2::encrypt_line(self, tables, blocks, t) };
        }
        self.encrypt_line_fused(blocks, t)
    }

    /// [`Self::encrypt_line`] on the fused kernel.
    pub(crate) fn encrypt_line_fused(&self, blocks: [u128; 4], t: u128) -> [u128; 4] {
        let base = self.tweak_schedule(t);
        let mut out = [0; 4];
        for ((o, &block), &offset) in out.iter_mut().zip(&blocks).zip(&self.chunk_offsets) {
            *o = self.encrypt_scheduled(block, &(base ^ offset));
        }
        out
    }

    /// Encrypts one packed block under packed tweak `t`.
    pub(crate) fn encrypt(&self, p: u128, t: u128) -> u128 {
        self.encrypt_scheduled(p, &self.tweak_schedule(t))
    }

    /// Decrypts one packed block: the same kernel over the mirrored keys.
    pub(crate) fn decrypt(&self, c: u128, t: u128) -> u128 {
        self.crypt(&self.dec, c, &self.tweak_schedule(t))
    }
}

/// The orthomorphism `o(x) = (x ⋙ 1) ⊕ (x ≫ 127)` used to derive `w1` from
/// `w0`, applied on the packed word.
pub(crate) fn ortho128(x: u128) -> u128 {
    x.rotate_right(1) ^ (x >> 127)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_layout_is_column_major() {
        // Cell k of the packed word (cell 0 most significant) lands in lane
        // 4·(k mod 4) + k div 4, and the conversion inverts.
        for k in 0..NUM_CELLS {
            let packed = 0xa5u128 << (8 * (15 - k));
            assert_eq!(to_state(packed), 0xa5 << (8 * lane(k)), "cell {k}");
            assert_eq!(from_state(to_state(packed)), packed);
        }
    }

    #[test]
    fn mix_stripes_rotate_within_lanes() {
        // Cell (0, 0) must receive cell (1, 0) rotated left by ρ¹ (stripe
        // d = 1 of circ(0, ρ¹, ρ⁴, ρ⁵)).
        let out = mix128(0x81 << (8 * lane(4)));
        assert_eq!((out >> (8 * lane(0))) as u8, 0x81u8.rotate_left(1));
    }
}
