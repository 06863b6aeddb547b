//! The shared fixed hashes, so their constants live in exactly one place.
//!
//! - FNV-1a, a tiny, deterministic byte hash: the optimizer's statistics
//!   fingerprint, WAL frame checksums
//!   and the plan goldens fold bytes through it so the streams stay
//!   comparable.
//! - A word-at-a-time multiply-rotate hash ([`mix`], [`mix_bytes`],
//!   [`mix_finish`], and [`MixHasher`] over them) for in-memory hash
//!   tables over table values: the join and aggregate key hashes,
//!   ANALYZE's string distinct sets and the buffer pool's frame map. It
//!   is unseeded, so hashes are deterministic across runs, and makes no
//!   attempt to resist keys crafted to collide.

use std::hash::Hasher;

/// Multiplier of [`mix`].
const MIX_MUL: u64 = 0x517c_c1b7_2722_0a95;

/// One multiply-xor round: fold the word `v` into the running hash `h`.
#[inline]
pub fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(MIX_MUL)
}

/// Fold `bytes` into `h` eight at a time, the last word zero-padded.
#[inline]
pub fn mix_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(h, |h, chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        mix(h, u64::from_le_bytes(word))
    })
}

/// Finish a [`mix`] hash. Numeric bit patterns have their low ~30 bits
/// zero for small integers, and a multiply only carries entropy upwards
/// — while a hash table picks buckets from the low bits. Fold the high
/// half down (a murmur-style finalizer) so consecutive keys spread.
#[inline]
pub fn mix_finish(mut h: u64) -> u64 {
    h ^= h >> 32;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 29)
}

/// A [`Hasher`] over [`mix_bytes`] and [`mix_finish`], for
/// `HashSet`s of table values (`BuildHasherDefault<MixHasher>`).
#[derive(Debug, Default)]
pub struct MixHasher(u64);

impl Hasher for MixHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0 = mix_bytes(self.0, bytes);
    }

    #[inline]
    fn write_u8(&mut self, b: u8) {
        self.0 = mix(self.0, u64::from(b));
    }

    #[inline]
    fn finish(&self) -> u64 {
        mix_finish(self.0)
    }
}

/// A string of at most 15 bytes as one word — its bytes, then its length
/// in the top byte, so no two strings share one — and the slot of a
/// `slots`-entry cache it takes: the key of a small cache that recognises
/// a short string it has seen (a column's fixed-list literals) without a
/// hash-set probe or a new `Arc<str>`.
#[inline]
pub fn short_key(s: &str, slots: usize) -> Option<(u128, usize)> {
    (s.len() < 16).then(|| {
        let bytes = s.bytes().enumerate();
        let key = bytes.fold((s.len() as u128) << 120, |k, (i, b)| {
            k | u128::from(b) << (8 * i)
        });
        let slot = mix_finish(key as u64 ^ (key >> 64) as u64) as usize % slots;
        (key, slot)
    })
}

/// FNV-1a 64-bit offset basis.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into a running FNV-1a hash.
pub fn fnv1a_extend(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(FNV1A_PRIME);
    }
}

/// Hash `bytes` in one shot from the offset basis.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV1A_OFFSET;
    fnv1a_extend(&mut h, bytes);
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), FNV1A_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn extend_matches_one_shot() {
        let mut h = FNV1A_OFFSET;
        fnv1a_extend(&mut h, b"foo");
        fnv1a_extend(&mut h, b"bar");
        assert_eq!(h, fnv1a(b"foobar"));
    }
}
