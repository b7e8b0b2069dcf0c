//! Stable hashing for cache keys and entry checksums.
//!
//! `std::hash` is explicitly not stable across releases or processes, so
//! the cache keys use FNV-1a, fixed here forever: a cache entry written by
//! one build must be addressable (or correctly invalidated) by the next.

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds a string followed by a separator byte, so `["ab","c"]` and
    /// `["a","bc"]` hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// The digest.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Hashes a byte slice in one call.
#[must_use]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Derives a 16-hex-digit content-address from an ordered list of string
/// parts (e.g. artefact id, scale, seed, binary fingerprint).
#[must_use]
pub fn stable_key<S: AsRef<str>>(parts: &[S]) -> String {
    let mut h = Fnv64::new();
    for p in parts {
        h.write_str(p.as_ref());
    }
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(hash_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash_bytes(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn key_separates_part_boundaries() {
        assert_ne!(stable_key(&["ab", "c"]), stable_key(&["a", "bc"]));
        assert_ne!(stable_key(&["a"]), stable_key(&["a", ""]));
        assert_eq!(stable_key(&["x", "y"]), stable_key(&["x", "y"]));
    }

    #[test]
    fn key_is_16_hex() {
        let k = stable_key(&["fig6", "trial", "0"]);
        assert_eq!(k.len(), 16);
        assert!(k.bytes().all(|b| b.is_ascii_hexdigit()));
    }
}
