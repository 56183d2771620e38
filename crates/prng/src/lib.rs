//! Deterministic in-tree PRNG exposing the subset of the `rand` crate API
//! this workspace uses (`StdRng`, `SeedableRng`, `Rng::{gen, gen_range,
//! gen_bool, gen_ratio, fill}`).
//!
//! The build environment has no access to crates.io, so the workspace maps
//! the `rand` dependency name onto this crate. The generator is an
//! xoshiro256** seeded through splitmix64 — not cryptographic, but fast and
//! a pure function of its seed, which is all the deterministic simulation
//! stack requires. Streams differ numerically from the real `StdRng`
//! (ChaCha12); nothing in the workspace depends on exact values, only on
//! seed-reproducibility.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Construction of a generator from seed material.
pub trait SeedableRng: Sized {
    /// Builds a generator whose entire stream is a function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The workspace's standard deterministic generator (xoshiro256**).
#[derive(Debug, Clone)]
pub struct StdRng {
    s: [u64; 4],
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut sm);
        }
        // An all-zero state would be a fixed point; splitmix64 cannot
        // produce four zero outputs from any seed, but guard anyway.
        if s == [0; 4] {
            s[0] = 0x1;
        }
        StdRng { s }
    }
}

impl StdRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// A type samplable uniformly from its full range by [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value.
    fn sample(rng: &mut StdRng) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample(rng: &mut StdRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample(rng: &mut StdRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample(rng: &mut StdRng) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A type drawable uniformly from a bounded range.
///
/// A single blanket `SampleRange` impl over this trait (rather than one
/// concrete impl per integer type) lets type inference flow through
/// `gen_range(0..n)` the way it does with the real `rand` crate — the
/// literal's type is unified with the surrounding expression.
pub trait SampleUniform: Copy + PartialOrd {
    /// Draws a value in `[start, end)` (`inclusive = false`) or
    /// `[start, end]` (`inclusive = true`). Panics when the range is empty.
    fn sample_uniform(rng: &mut StdRng, start: Self, end: Self, inclusive: bool) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform(rng: &mut StdRng, start: Self, end: Self, inclusive: bool) -> Self {
                assert!(
                    if inclusive { start <= end } else { start < end },
                    "gen_range on empty range"
                );
                // `start + x mod span` in 64-bit two's complement; `as u64`
                // sign-extends, so signed types need no special case. An
                // inclusive span of 2^64 wraps to 0 and takes `x` whole.
                let span = (end as u64)
                    .wrapping_sub(start as u64)
                    .wrapping_add(u64::from(inclusive));
                let x = rng.next_u64();
                let offset = if span == 0 { x } else { x % span };
                (start as u64).wrapping_add(offset) as $t
            }
        }
    )*};
}
impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_uniform(rng: &mut StdRng, start: Self, end: Self, _inclusive: bool) -> Self {
        assert!(start < end, "gen_range on empty range");
        start + <f64 as Standard>::sample(rng) * (end - start)
    }
}

/// A range usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value inside the range. Panics when the range is empty.
    fn sample(self, rng: &mut StdRng) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample(self, rng: &mut StdRng) -> T {
        T::sample_uniform(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample(self, rng: &mut StdRng) -> T {
        T::sample_uniform(rng, *self.start(), *self.end(), true)
    }
}

/// The user-facing generator methods, mirroring `rand::Rng`.
pub trait Rng {
    /// The next raw 64 bits of the stream.
    fn next_raw(&mut self) -> u64;

    /// Draws a full-range value of `T`.
    fn gen<T: Standard>(&mut self) -> T;

    /// Draws a value uniformly from `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T;

    /// Returns true with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool;

    /// Returns true with probability `numerator / denominator`.
    fn gen_ratio(&mut self, numerator: u32, denominator: u32) -> bool;

    /// Fills `dest` with uniform bytes.
    fn fill(&mut self, dest: &mut [u8]);
}

impl Rng for StdRng {
    #[inline]
    fn next_raw(&mut self) -> u64 {
        self.next_u64()
    }

    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability {p}");
        <f64 as Standard>::sample(self) < p
    }

    fn gen_ratio(&mut self, numerator: u32, denominator: u32) -> bool {
        assert!(denominator > 0 && numerator <= denominator);
        (self.next_u64() % denominator as u64) < numerator as u64
    }

    fn fill(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let b = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&b[..chunk.len()]);
        }
    }
}

/// The `rand::rngs` module shape.
pub mod rngs {
    pub use super::StdRng;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = r.gen_range(3usize..=5);
            assert!((3..=5).contains(&w));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert!(!r.gen_bool(0.0));
            assert!(r.gen_bool(1.0));
        }
    }

    #[test]
    fn gen_ratio_behaves() {
        let mut r = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| r.gen_ratio(1, 4)).count();
        assert!((1_800..3_200).contains(&hits), "hits={hits}");
    }

    #[test]
    fn fill_covers_slice() {
        let mut r = StdRng::seed_from_u64(5);
        let mut buf = [0u8; 33];
        r.fill(&mut buf);
        assert!(buf.iter().any(|b| *b != 0));
    }

    /// `gen_range` as it was computed before: `start + x rem_euclid span`
    /// in `i128`. Every stream must stay what it was.
    fn i128_formula(x: u64, start: i128, end: i128, inclusive: bool) -> i128 {
        let span = if inclusive {
            end - start + 1
        } else {
            end - start
        };
        start + (x as i128).rem_euclid(span)
    }

    /// 10 000 draws from `lo..hi` and from `lo..=hi` each, against the
    /// formula on the raw stream.
    macro_rules! pin_stream {
        ($seed:expr, $lo:expr, $hi:expr) => {{
            let (lo, hi) = ($lo, $hi);
            let mut r = StdRng::seed_from_u64($seed);
            let mut raw = r.clone();
            for _ in 0..10_000 {
                for inclusive in [false, true] {
                    let got = if inclusive {
                        r.gen_range(lo..=hi)
                    } else {
                        r.gen_range(lo..hi)
                    };
                    let want = i128_formula(raw.next_u64(), lo as i128, hi as i128, inclusive);
                    assert_eq!(got as i128, want, "{lo}..{hi} inclusive={inclusive}");
                }
            }
        }};
    }

    #[test]
    fn gen_range_stream_is_pinned_to_the_i128_formula() {
        pin_stream!(1, 0u8, 255);
        pin_stream!(2, 3u8, 17);
        pin_stream!(3, 100u16, 65_000);
        pin_stream!(4, 7u32, u32::MAX);
        pin_stream!(5, 0u64, u64::MAX);
        pin_stream!(6, 1u64 << 63, (1u64 << 63) + 12_345);
        pin_stream!(7, 0usize, 9);
        pin_stream!(8, i8::MIN, i8::MAX);
        pin_stream!(9, -5i8, 5);
        pin_stream!(10, -30_000i16, -7);
        pin_stream!(11, i32::MIN, i32::MAX);
        pin_stream!(12, -1i32, 0);
        pin_stream!(13, i64::MIN, i64::MAX);
        pin_stream!(14, -1_000_000i64, 999);
        pin_stream!(15, -3isize, 3);
    }

    /// `next_raw() % n` with a compile-time `n` is the draw
    /// `gen_range(0..n)` makes, and `next_raw() % n < 1` the one
    /// `gen_ratio(1, n)` makes: kernels that open-code them keep the stream.
    #[test]
    fn open_coded_draws_are_pinned_to_gen_range_and_gen_ratio() {
        macro_rules! pin {
            ($n:literal) => {{
                let mut r = StdRng::seed_from_u64($n);
                let mut raw = r.clone();
                for _ in 0..10_000 {
                    assert_eq!(raw.next_raw() % $n, r.gen_range(0..$n as usize) as u64);
                }
                for _ in 0..10_000 {
                    assert_eq!(raw.next_raw() % $n < 1, r.gen_ratio(1, $n));
                }
            }};
        }
        pin!(12);
        pin!(33);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_rejects_an_empty_range() {
        let mut r = StdRng::seed_from_u64(1);
        let _ = r.gen_range(-3i32..-3);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_rejects_a_reversed_inclusive_range() {
        let mut r = StdRng::seed_from_u64(1);
        let (start, end) = (5u64, 4);
        let _ = r.gen_range(start..=end);
    }
}
