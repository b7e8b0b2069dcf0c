//! Wire-level primitives: constants, varints, zigzag, CRC-32.

/// File magic: the first four bytes of every trace.
pub const MAGIC: [u8; 4] = *b"PTGT";

/// Format version this crate writes and understands.
pub const VERSION: u16 = 1;

/// `payload_len` sentinel marking the trailer instead of a chunk.
pub const TRAILER_SENTINEL: u32 = u32::MAX;

/// Record tag: a run of consecutive `Op::Compute`.
pub const TAG_COMPUTE_RUN: u8 = 0;
/// Record tag: `Op::Load`, payload = zigzag address delta.
pub const TAG_LOAD: u8 = 1;
/// Record tag: `Op::Store`, payload = zigzag address delta.
pub const TAG_STORE: u8 = 2;

/// Default ops per chunk (≈ tens of KB encoded; small enough that the
/// reader's one decoded chunk stays cache-friendly).
pub const DEFAULT_CHUNK_OPS: u32 = 16 * 1024;

/// Most ops one chunk may hold (64× the default). The writer refuses a
/// larger capacity and the reader rejects a chunk that declares more, so a
/// decoded chunk never exceeds 16 MiB of ops whatever its header says.
pub const MAX_CHUNK_OPS: u32 = 1 << 20;

/// Appends `v` as an LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from `buf[*pos..]`, advancing `pos`.
/// Returns `None` on overrun or an overlong (>10-byte) encoding.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None; // would overflow u64
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Maps a signed delta onto unsigned so small magnitudes stay short.
#[must_use]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[must_use]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// CRC-32 (IEEE, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `data` — the per-chunk payload checksum.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrips_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_overrun_and_overlong() {
        let mut pos = 0;
        assert_eq!(get_varint(&[0x80, 0x80], &mut pos), None); // continuation into EOF
        let mut pos = 0;
        assert_eq!(get_varint(&[0x80; 11], &mut pos), None); // > 10 bytes
        let mut pos = 0;
        assert_eq!(
            get_varint(
                &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x03],
                &mut pos
            ),
            None, // 10th byte carries bits beyond 2^64
        );
    }

    #[test]
    fn zigzag_is_an_involution_and_orders_by_magnitude() {
        for v in [0i64, 1, -1, 2, -2, 1 << 40, -(1 << 40), i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert!(zigzag(-1) < zigzag(100));
        assert!(zigzag(64) < zigzag(-4096));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
