//! The workspace's dependency-free hashes: FNV-1a 64 and the SplitMix64
//! finalizer.
//!
//! FNV-1a pins determinism (stitched-schedule digests, golden plants and
//! simulator reports) and identifies campaign manifests. [`splitmix64`]
//! turns a seed into a well-mixed word, for seeds derived from a key such
//! as a node pair. Neither is cryptographic: they detect drift, not
//! tampering.

/// An incremental FNV-1a 64 hasher: feeding bytes in several writes gives
/// the digest of their concatenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher that has seen no bytes (the FNV-1a 64 offset basis).
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes`, in order.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of every byte fed so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// The SplitMix64 finalizer (Steele, Lea and Flood, 2014): a bijection of
/// `u64` in which every input bit flips each output bit with probability
/// about one half. Callers fold their inputs into `x` first, each in its
/// own way.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_64_vectors() {
        let digest = |bytes: &[u8]| {
            let mut h = Fnv1a::new();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn splitmix64_matches_the_reference_generator() {
        // the first outputs of the reference SplitMix64 generator seeded
        // with 0: state += 0x9E3779B97F4A7C15, then the finalizer
        let mut state = 0u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            splitmix64(state)
        };
        assert_eq!(next(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(next(), 0x6e78_9e6a_a1b9_65f4);
    }
}
