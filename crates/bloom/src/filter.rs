//! A single Bloom filter over `u64` keys.

/// A fixed-size Bloom filter using double hashing.
///
/// Double hashing (`h1 + i·h2`) gives `k` independent-enough probe positions
/// from two 64-bit hashes, which is the standard construction and cheap
/// enough for SSD firmware.
///
/// # Examples
///
/// ```
/// use almanac_bloom::BloomFilter;
/// let mut f = BloomFilter::new(1 << 12, 4);
/// f.insert(7);
/// assert!(f.contains(7));
/// ```
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: u64,
    /// `n_bits - 1` when `n_bits` is a power of two, so a probe reduces
    /// with a mask; `None` falls back to `%`.
    mask: Option<u64>,
    k: u32,
    count: u64,
}

// `almanac_flash::fnv1a` unrolled for one key: this crate depends on
// nothing, and the hash runs on every probe.
fn fnv1a(key: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// `almanac_flash::mix64` of `key` plus the golden-ratio increment, written
// out for the same two reasons as `fnv1a` above.
fn splitmix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl BloomFilter {
    /// Creates a filter with `n_bits` bits (rounded up to a multiple of 64)
    /// and `k` hash probes.
    ///
    /// # Panics
    ///
    /// Panics if `n_bits` or `k` is zero.
    pub fn new(n_bits: u64, k: u32) -> Self {
        assert!(n_bits > 0, "filter needs at least one bit");
        assert!(k > 0, "filter needs at least one hash");
        let words = n_bits.div_ceil(64);
        let n_bits = words * 64;
        BloomFilter {
            bits: vec![0; words as usize],
            n_bits,
            mask: n_bits.is_power_of_two().then(|| n_bits - 1),
            k,
            count: 0,
        }
    }

    /// Bit index of probe `i` for hashes `h1`, `h2`: `(h1 + i·h2) mod
    /// n_bits`, by mask when `n_bits` is a power of two (every
    /// configuration in the workspace) and by division otherwise.
    #[inline]
    fn probe(&self, h1: u64, h2: u64, i: u32) -> u64 {
        let h = h1.wrapping_add((i as u64).wrapping_mul(h2));
        match self.mask {
            Some(mask) => h & mask,
            None => h % self.n_bits,
        }
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: u64) {
        let h1 = fnv1a(key);
        let h2 = splitmix(key) | 1; // odd stride avoids degenerate cycles
        for i in 0..self.k {
            let bit = self.probe(h1, h2, i);
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
        self.count += 1;
    }

    /// True if the key *may* have been inserted (no false negatives).
    pub fn contains(&self, key: u64) -> bool {
        let h1 = fnv1a(key);
        let h2 = splitmix(key) | 1;
        (0..self.k).all(|i| {
            let bit = self.probe(h1, h2, i);
            self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }

    /// Number of insertions performed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Size of the bit array in bits.
    pub fn n_bits(&self) -> u64 {
        self.n_bits
    }

    /// Memory footprint of the bit array in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Measured false-positive probability estimate from fill factor:
    /// `(set_bits / n_bits)^k`.
    pub fn fp_estimate(&self) -> f64 {
        let set: u64 = self.bits.iter().map(|w| w.count_ones() as u64).sum();
        (set as f64 / self.n_bits as f64).powi(self.k as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// The masked reduction sets and tests exactly the bits `%` does, at
    /// power-of-two sizes (mask) and at 192 bits (`%` itself).
    #[test]
    fn masked_probes_agree_with_modulo() {
        let mut r = rand::rngs::StdRng::seed_from_u64(17);
        for n_bits in [64, 1 << 12, 1 << 17, 192] {
            let f = BloomFilter::new(n_bits, 4);
            assert_eq!(f.mask.is_some(), n_bits != 192);
            for _ in 0..10_000 {
                let key = r.gen::<u64>();
                let (h1, h2) = (fnv1a(key), splitmix(key) | 1);
                for i in 0..8 {
                    let h = h1.wrapping_add((i as u64).wrapping_mul(h2));
                    assert_eq!(f.probe(h1, h2, i), h % n_bits, "n_bits {n_bits}");
                }
            }
        }
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(1 << 14, 4);
        for key in 0..1000u64 {
            f.insert(key * 7919);
        }
        for key in 0..1000u64 {
            assert!(f.contains(key * 7919));
        }
    }

    #[test]
    fn false_positive_rate_is_low_when_sized_right() {
        // 1000 keys in 16384 bits with k=4 → theoretical fp ≈ 1.2%.
        let mut f = BloomFilter::new(1 << 14, 4);
        for key in 0..1000u64 {
            f.insert(key);
        }
        let fps = (1_000_000u64..1_010_000).filter(|&k| f.contains(k)).count();
        assert!(fps < 500, "false positives too high: {fps}/10000");
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::new(64, 3);
        assert!(!f.contains(1));
        assert_eq!(f.count(), 0);
    }

    #[test]
    fn bits_round_up_to_words() {
        let f = BloomFilter::new(65, 1);
        assert_eq!(f.n_bits(), 128);
        assert_eq!(f.size_bytes(), 16);
    }

    #[test]
    fn fp_estimate_grows_with_fill() {
        let mut f = BloomFilter::new(256, 2);
        let e0 = f.fp_estimate();
        for key in 0..64 {
            f.insert(key);
        }
        assert!(f.fp_estimate() > e0);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_bits_rejected() {
        let _ = BloomFilter::new(0, 1);
    }
}
