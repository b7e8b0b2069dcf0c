//! The AVX2 line kernel: QARMA-128 over the four chunks of a line, two
//! chunks per 256-bit register.
//!
//! It runs the fused kernel's schedule of layers on the same column-major
//! lanes, framed round keys and [`TweakSchedule`], with PSHUFB in place of
//! the column tables. PSHUFB looks up 16 bytes by the low four bits of each
//! index byte and works within each 128-bit half, so one instruction serves
//! both chunks of a register.
//!
//! * **S-box layers.** QARMA-128's S-box applies σ to each nibble, and every
//!   MixColumns entry ρᵉ is a bit rotation, which is linear. So
//!   `ρᵉ(S(v)) = ρᵉ(σ(lo)) ⊕ ρᵉ(σ(hi) ≪ 4)`: two 16-byte tables, one indexed
//!   by each nibble of `v`.
//! * **One fused layer** `M·τ·S ⊕ k ⊕ t`, with `M = circ(0, ρ¹, ρ⁴, ρ⁵)`:
//!   row `r` of each output column is `ρ¹`, `ρ⁴` and `ρ⁵` of the S-box
//!   images of rows `r + 1`, `r + 2` and `r + 3` of the permuted state. So
//!   the layer is six nibble lookups (`ρᵉ∘S` for the three `e`), three lane
//!   permutations (τ followed by each row rotation) and XORs. The backward
//!   layers use `σ⁻¹` and τ⁻¹.
//! * **Tweaks.** The line's tweak schedule is computed once, in one 128-bit
//!   register, with the same lane permutations; each round then adds it to
//!   both halves of a register together with the chunk offsets' schedules.
//!
//! Every function here is a safe `#[target_feature(enable = "avx2")]` fn
//! built from safe intrinsics. The one `unsafe` is the call into
//! [`encrypt_line`], in `Core::encrypt_line`, which only a [`Tables`] can
//! reach, and only [`Tables::detect`] builds one.

use std::arch::x86_64::{
    __m128i, __m256i, _mm256_and_si256, _mm256_broadcastsi128_si256, _mm256_castsi256_si128,
    _mm256_extracti128_si256, _mm256_set1_epi8, _mm256_set_m128i, _mm256_shuffle_epi8,
    _mm256_srli_epi16, _mm256_xor_si256, _mm_add_epi8, _mm_and_si128, _mm_blendv_epi8,
    _mm_cvtsi128_si64, _mm_extract_epi64, _mm_or_si128, _mm_set1_epi8, _mm_set_epi64x,
    _mm_shuffle_epi8, _mm_slli_epi16, _mm_srli_epi16, _mm_xor_si128,
};

use super::{lane, Core, TweakSchedule, H_IN_TAU_FRAME, TAU_INV_LANES, TAU_LANES};
use crate::sbox::Sbox;
use crate::NUM_CELLS;

/// A lane permutation (output lane `i` takes input lane `perm[i]`) as a
/// PSHUFB control word.
const fn control(perm: &[usize; NUM_CELLS]) -> u128 {
    let mut c = 0u128;
    let mut i = 0;
    while i < NUM_CELLS {
        c |= (perm[i] as u128) << (8 * i);
        i += 1;
    }
    c
}

/// `perm`, then row `r + d` of every column moved into row `r`: the lanes
/// that feed stripe `d` of MixColumns.
const fn stripe(perm: &[usize; NUM_CELLS], d: usize) -> [usize; NUM_CELLS] {
    let mut out = [0usize; NUM_CELLS];
    let mut i = 0;
    while i < NUM_CELLS {
        out[i] = perm[4 * (i / 4) + (i % 4 + d) % 4];
        i += 1;
    }
    out
}

/// The three stripes of `perm`, as controls.
const fn stripes(perm: &[usize; NUM_CELLS]) -> [u128; 3] {
    [
        control(&stripe(perm, 1)),
        control(&stripe(perm, 2)),
        control(&stripe(perm, 3)),
    ]
}

const IDENTITY: [usize; NUM_CELLS] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

/// `to_state` as a control: packed cell `k` sits in byte `15 − k`.
const TO_STATE: u128 = {
    let mut perm = [0usize; NUM_CELLS];
    let mut k = 0;
    while k < NUM_CELLS {
        perm[lane(k)] = 15 - k;
        k += 1;
    }
    control(&perm)
};

/// `from_state` as a control.
const FROM_STATE: u128 = {
    let mut perm = [0usize; NUM_CELLS];
    let mut k = 0;
    while k < NUM_CELLS {
        perm[15 - k] = lane(k);
        k += 1;
    }
    control(&perm)
};

const TAU: u128 = control(&TAU_LANES);
const TAU_INV: u128 = control(&TAU_INV_LANES);
const H: u128 = control(&H_IN_TAU_FRAME);
const TAU_STRIPES: [u128; 3] = stripes(&TAU_LANES);
const TAU_INV_STRIPES: [u128; 3] = stripes(&TAU_INV_LANES);
/// The bare row rotations, for MixColumns in the tweak schedule.
const ROWS: [u128; 3] = stripes(&IDENTITY);

/// The exponents of MixColumns' stripes 1, 2 and 3.
const RHO: [u32; 3] = [1, 4, 5];

/// `ρᵉ∘s` split by nibble for PSHUFB: byte `n` of the first word is
/// `ρᵉ(s(n))`, of the second `ρᵉ(s(n) ≪ 4)`.
fn nibble_tables(s: &[u8; 16], e: u32) -> [u128; 2] {
    let mut lo = [0u8; 16];
    let mut hi = [0u8; 16];
    for n in 0..16 {
        lo[n] = s[n].rotate_left(e);
        hi[n] = (s[n] << 4).rotate_left(e);
    }
    [u128::from_le_bytes(lo), u128::from_le_bytes(hi)]
}

/// The S-box tables of the AVX2 kernel. Holding one is the proof that the
/// CPU supports AVX2.
#[derive(Debug, Clone)]
pub(super) struct Tables {
    /// `ρᵉ∘S` for each stripe.
    fwd: [[u128; 2]; 3],
    /// `ρᵉ∘S⁻¹` for each stripe.
    bwd: [[u128; 2]; 3],
    /// `S⁻¹`, for the last layer.
    inv: [u128; 2],
}

impl Tables {
    /// The tables for `sbox`, if the CPU reports AVX2.
    pub(super) fn detect(sbox: Sbox) -> Option<Self> {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return None;
        }
        let (s, inv) = (sbox.table(), &sbox.inverse_table());
        Some(Self {
            fwd: RHO.map(|e| nibble_tables(s, e)),
            bwd: RHO.map(|e| nibble_tables(inv, e)),
            inv: nibble_tables(inv, 0),
        })
    }
}

#[target_feature(enable = "avx2")]
#[inline]
fn xmm(v: u128) -> __m128i {
    _mm_set_epi64x((v >> 64) as i64, v as i64)
}

#[target_feature(enable = "avx2")]
#[inline]
fn from_xmm(v: __m128i) -> u128 {
    let lo = _mm_cvtsi128_si64(v) as u64;
    let hi = _mm_extract_epi64::<1>(v) as u64;
    (u128::from(hi) << 64) | u128::from(lo)
}

/// `v` in both halves.
#[target_feature(enable = "avx2")]
#[inline]
fn bcast(v: u128) -> __m256i {
    _mm256_broadcastsi128_si256(xmm(v))
}

/// `lo` in the low half, `hi` in the high half.
#[target_feature(enable = "avx2")]
#[inline]
fn pair(lo: u128, hi: u128) -> __m256i {
    _mm256_set_m128i(xmm(hi), xmm(lo))
}

/// Nibble tables broadcast into both halves.
#[target_feature(enable = "avx2")]
#[inline]
fn lut(t: &[u128; 2]) -> [__m256i; 2] {
    [bcast(t[0]), bcast(t[1])]
}

/// The low and high nibble of every byte.
#[target_feature(enable = "avx2")]
#[inline]
fn nibbles(s: __m256i) -> (__m256i, __m256i) {
    let low = _mm256_set1_epi8(0x0f);
    let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(s), low);
    (_mm256_and_si256(s, low), hi)
}

/// A nibble-split table applied to every byte.
#[target_feature(enable = "avx2")]
#[inline]
fn lookup(t: &[__m256i; 2], lo: __m256i, hi: __m256i) -> __m256i {
    _mm256_xor_si256(_mm256_shuffle_epi8(t[0], lo), _mm256_shuffle_epi8(t[1], hi))
}

/// One fused layer, `M·π·S(s)` for the S-box and permutation `π` whose
/// stripe tables and stripe controls are given.
#[target_feature(enable = "avx2")]
#[inline]
fn layer(s: __m256i, luts: &[[__m256i; 2]; 3], stripes: &[__m256i; 3]) -> __m256i {
    let (lo, hi) = nibbles(s);
    let mut out = _mm256_shuffle_epi8(lookup(&luts[0], lo, hi), stripes[0]);
    for d in 1..3 {
        let x = _mm256_shuffle_epi8(lookup(&luts[d], lo, hi), stripes[d]);
        out = _mm256_xor_si256(out, x);
    }
    out
}

#[target_feature(enable = "avx2")]
#[inline]
fn xor3(a: __m256i, b: __m256i, c: __m256i) -> __m256i {
    _mm256_xor_si256(_mm256_xor_si256(a, b), c)
}

/// Every byte rotated left by one bit.
#[target_feature(enable = "avx2")]
#[inline]
fn rot1(x: __m128i) -> __m128i {
    let carry = _mm_and_si128(_mm_srli_epi16::<7>(x), _mm_set1_epi8(0x01));
    _mm_or_si128(_mm_add_epi8(x, x), carry)
}

/// Every byte rotated by four bits (its nibbles swapped).
#[target_feature(enable = "avx2")]
#[inline]
fn rot4(x: __m128i) -> __m128i {
    let up = _mm_and_si128(_mm_slli_epi16::<4>(x), _mm_set1_epi8(0xf0u8 as i8));
    let down = _mm_and_si128(_mm_srli_epi16::<4>(x), _mm_set1_epi8(0x0f));
    _mm_or_si128(up, down)
}

/// QARMA-128 MixColumns, `ρ¹(r₁) ⊕ ρ⁴(r₂) ⊕ ρ⁵(r₃)` over the row-rotated
/// states `rᵈ`, as `ρ¹(r₁ ⊕ ρ⁴(r₃)) ⊕ ρ⁴(r₂)`.
#[target_feature(enable = "avx2")]
#[inline]
fn mix(t: __m128i) -> __m128i {
    let [r1, r2, r3] = ROWS.map(|c| _mm_shuffle_epi8(t, xmm(c)));
    _mm_xor_si128(rot1(_mm_xor_si128(r1, rot4(r3))), rot4(r2))
}

/// Writes the tweak schedule of packed tweak `tweak` into `ts`: what
/// `core.tweak_schedule(tweak)` returns.
#[target_feature(enable = "avx2")]
#[inline]
fn tweak_schedule(core: &Core, tweak: u128, ts: &mut TweakSchedule) {
    let plain = _mm_shuffle_epi8(xmm(tweak), xmm(TO_STATE));
    ts.plain = from_xmm(plain);
    let (h, lfsr) = (xmm(H), xmm(core.lfsr_mask));
    let (bit0, low7) = (_mm_set1_epi8(0x01), _mm_set1_epi8(0x7f));
    let mut t = _mm_shuffle_epi8(plain, xmm(TAU));
    let r = core.rounds;
    for (f, b) in ts.fwd[..r].iter_mut().zip(&mut ts.bwd[..r]) {
        let p = _mm_shuffle_epi8(t, h);
        // ω on the LFSR lanes: a 16-bit shift right by less than 8 fills a
        // byte's low bits from the same byte, so the masked taps stay
        // in-lane.
        let taps = _mm_xor_si128(
            _mm_xor_si128(p, _mm_srli_epi16::<2>(p)),
            _mm_xor_si128(_mm_srli_epi16::<3>(p), _mm_srli_epi16::<4>(p)),
        );
        let feedback = _mm_slli_epi16::<7>(_mm_and_si128(taps, bit0));
        let stepped = _mm_or_si128(_mm_and_si128(_mm_srli_epi16::<1>(p), low7), feedback);
        t = _mm_blendv_epi8(p, stepped, lfsr);
        *b = from_xmm(t);
        *f = from_xmm(mix(t));
    }
}

/// The four blocks of a line enciphered under `core`'s encryption keys,
/// block `i` under tweak `tweak ⊕ 16·i`: `core.encrypt_line_fused`'s
/// result, chunks 0 and 1 in one register and 2 and 3 in the other.
#[target_feature(enable = "avx2")]
pub(super) fn encrypt_line(
    core: &Core,
    tables: &Tables,
    blocks: [u128; 4],
    tweak: u128,
) -> [u128; 4] {
    let mut ts = TweakSchedule::ZERO;
    tweak_schedule(core, tweak, &mut ts);
    let keys = &core.enc;
    let [o0, o1, o2, o3] = &core.chunk_offsets;
    let fwd = tables.fwd.map(|t| lut(&t));
    let bwd = tables.bwd.map(|t| lut(&t));
    let fwd_stripes = TAU_STRIPES.map(|c| bcast(c));
    let bwd_stripes = TAU_INV_STRIPES.map(|c| bcast(c));
    let r = core.rounds;

    let to_state = bcast(TO_STATE);
    let whiten = bcast(keys.input ^ ts.plain);
    let mut a = _mm256_shuffle_epi8(pair(blocks[0], blocks[1]), to_state);
    let mut b = _mm256_shuffle_epi8(pair(blocks[2], blocks[3]), to_state);
    a = xor3(a, whiten, pair(o0.plain, o1.plain));
    b = xor3(b, whiten, pair(o2.plain, o3.plain));
    for i in 0..r {
        let kt = bcast(keys.fwd[i] ^ ts.fwd[i]);
        a = xor3(layer(a, &fwd, &fwd_stripes), kt, pair(o0.fwd[i], o1.fwd[i]));
        b = xor3(layer(b, &fwd, &fwd_stripes), kt, pair(o2.fwd[i], o3.fwd[i]));
    }
    let reflect = bcast(keys.reflect);
    a = _mm256_xor_si256(layer(a, &fwd, &fwd_stripes), reflect);
    b = _mm256_xor_si256(layer(b, &fwd, &fwd_stripes), reflect);
    for i in (0..r).rev() {
        let kt = bcast(keys.bwd[i] ^ ts.bwd[i]);
        a = xor3(layer(a, &bwd, &bwd_stripes), kt, pair(o0.bwd[i], o1.bwd[i]));
        b = xor3(layer(b, &bwd, &bwd_stripes), kt, pair(o2.bwd[i], o3.bwd[i]));
    }

    // The last layer, τ⁻¹·S⁻¹, then the output whitening.
    let (tau_inv, inv) = (bcast(TAU_INV), lut(&tables.inv));
    let whiten = bcast(keys.output ^ ts.plain);
    let from_state = bcast(FROM_STATE);
    let finish = |s: __m256i, offsets: __m256i| {
        let (lo, hi) = nibbles(_mm256_shuffle_epi8(s, tau_inv));
        _mm256_shuffle_epi8(xor3(lookup(&inv, lo, hi), whiten, offsets), from_state)
    };
    let a = finish(a, pair(o0.plain, o1.plain));
    let b = finish(b, pair(o2.plain, o3.plain));
    [
        from_xmm(_mm256_castsi256_si128(a)),
        from_xmm(_mm256_extracti128_si256::<1>(a)),
        from_xmm(_mm256_castsi256_si128(b)),
        from_xmm(_mm256_extracti128_si256::<1>(b)),
    ]
}
