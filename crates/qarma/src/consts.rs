//! Round constants and the reflection constant of QARMA-128.
//!
//! All constants are 32-bit words of the fractional hexadecimal digits of π
//! (the digit stream also familiar from Blowfish's P-array), taken in order
//! as the specification takes them for its 64-bit variant: the round
//! constants consume the stream from word 3, 64 bits at a time, skipping
//! the pair that variant spends on α (words 13 and 14).

/// QARMA-128 round constants `c0..c10` (`c0 = 0`).
pub const C128: [u128; 11] = [
    0x00000000000000000000000000000000,
    0x13198A2E03707344A4093822299F31D0,
    0x082EFA98EC4E6C89452821E638D01377,
    0xBE5466CF34E90C6C3F84D5B5B5470917,
    0x9216D5D98979FB1BD1310BA698DFB5AC,
    0x2FFD72DBD01ADFB7B8E1AFED6A267E96,
    0xBA7C9045F12C7F9924A19947B3916CF7,
    0x0801F2E2858EFC16636920D871574E69,
    0xA458FEA3F4933D7E0D95748F728EB658,
    0x718BCD5882154AEE7B54A41DC25A59B5,
    0x9C30D5392AF26013C5D1B023286085F0,
];

/// QARMA-128 reflection constant α: π words 13 to 16.
pub const ALPHA128: u128 = 0xC0AC29B7C97C50DD3F84D5B5B5470917;

/// Maximum supported `r` (bounded by the constant table). Sizes the fixed
/// flat arrays of the allocation-free core: round-key tables and the
/// on-stack tweak schedule.
pub const MAX_ROUNDS: usize = C128.len();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c0_is_zero() {
        assert_eq!(C128[0], 0);
    }

    #[test]
    fn constants_are_distinct() {
        for (i, a) in C128.iter().enumerate() {
            for b in C128.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
            assert_ne!(*a, ALPHA128);
        }
    }

    #[test]
    fn alpha_matches_pi_stream() {
        // α opens with the 13th/14th 32-bit π digit pair: C0AC29B7 C97C50DD.
        assert_eq!(ALPHA128 >> 96, 0xC0AC29B7);
        assert_eq!((ALPHA128 >> 64) as u32, 0xC97C50DD);
    }
}
