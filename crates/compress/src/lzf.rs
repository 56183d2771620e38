//! A from-scratch implementation of the LZF compressed format.
//!
//! The format is a byte stream of control tokens:
//!
//! - `ctrl < 0x20`: a literal run of `ctrl + 1` bytes follows.
//! - otherwise: a back-reference. `len = ctrl >> 5`; if `len == 7` the next
//!   byte extends it (`len += next`). The low 5 bits of `ctrl` are the high
//!   bits of the offset, the following byte the low bits; the match starts
//!   `offset + 1` bytes back and copies `len + 2` bytes (possibly
//!   overlapping).
//!
//! The compressor uses the classic LZF 3-byte hash with a 2^14-entry table;
//! it bails out (returns `None`) when the output would not be smaller than
//! the input, letting callers fall back to raw storage.
//!
//! Its output is a pure function of the input: retained versions are stored
//! as these bytes, so the encoded sizes decide how deltas pack into flash
//! pages and what the flash state digests to. The table is reused across
//! calls (one per thread) without being cleared; the epoch in each slot's
//! tag is what keeps an earlier input's positions from being matched.

use std::cell::RefCell;

use crate::CodecError;

const HLOG: usize = 14;
const HSIZE: usize = 1 << HLOG;
/// Maximum literal run encodable by one control byte.
const MAX_LIT: usize = 32;
/// Maximum back-reference length (`len + 2` with the extension byte).
const MAX_REF: usize = 264;
/// Maximum back-reference distance.
const MAX_OFF: usize = 1 << 13;
/// The three bytes at a position, as the low 24 bits of a `u32`.
const PREFIX_MASK: u32 = 0xff_ffff;

fn hash(v: u32) -> usize {
    // The LibLZF "very fast" hash.
    let h = (v >> (24 - 16)) ^ v;
    ((h.wrapping_mul(5) >> (16 + 3 - HLOG as u32)) as usize) & (HSIZE - 1)
}

/// One hash-table entry: the last position filed under this hash, with its
/// 3-byte prefix in the low 24 bits of `tag` and the epoch of the call that
/// filed it in the high 8. A probe matches only its own call's prefix, so a
/// miss never reads the input and the table never needs zeroing between
/// calls.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    tag: u32,
    pos: usize,
}

/// The per-thread encoder state [`compress`] reuses.
struct Encoder {
    table: Box<[Slot; HSIZE]>,
    /// The tag bits (`epoch << 24`) of the latest call; epoch 0 marks a
    /// slot no call has filed since the table was last zeroed.
    epoch: u32,
    /// Output scratch; results are copied out at their exact size.
    out: Vec<u8>,
}

impl Encoder {
    fn new() -> Self {
        Encoder {
            table: vec![Slot::default(); HSIZE]
                .into_boxed_slice()
                .try_into()
                .expect("the table has HSIZE slots"),
            epoch: 0,
            out: Vec::new(),
        }
    }

    /// Starts a call: a fresh epoch, zeroing the table once every 255 calls
    /// when the 8-bit epoch wraps.
    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1 << 24);
        if self.epoch == 0 {
            self.table.fill(Slot::default());
            self.epoch = 1 << 24;
        }
        self.epoch
    }
}

thread_local! {
    static ENCODER: RefCell<Encoder> = RefCell::new(Encoder::new());
}

/// Compresses `input`, returning `None` if the result would not be strictly
/// smaller than the input (incompressible data).
///
/// # Examples
///
/// ```
/// use almanac_compress::lzf;
/// let data = b"abcabcabcabcabcabcabcabcabcabc".to_vec();
/// let packed = lzf::compress(&data).unwrap();
/// assert!(packed.len() < data.len());
/// assert_eq!(lzf::decompress(&packed, data.len()).unwrap(), data);
/// ```
pub fn compress(input: &[u8]) -> Option<Vec<u8>> {
    compress_after(&[], input)
}

/// [`compress`] with `prefix` written ahead of the stream in the same
/// allocation; `None` under the same condition as [`compress`].
pub(crate) fn compress_after(prefix: &[u8], input: &[u8]) -> Option<Vec<u8>> {
    if input.len() < 4 {
        return None;
    }
    ENCODER.with(|encoder| {
        let mut encoder = encoder.borrow_mut();
        let epoch = encoder.next_epoch();
        let Encoder { table, out, .. } = &mut *encoder;
        out.clear();
        out.extend_from_slice(prefix);
        encode(table, epoch, input, out, prefix.len() + input.len()).then(|| out.to_vec())
    })
}

/// Appends `input`'s LZF stream to `out`; false as soon as `out` reaches
/// `limit` bytes, since it only grows from there.
fn encode(
    table: &mut [Slot; HSIZE],
    epoch: u32,
    input: &[u8],
    out: &mut Vec<u8>,
    limit: usize,
) -> bool {
    let n = input.len();
    let mut lit_start = 0usize;
    // The prefix rolls: before position `i` is probed, its low 16 bits are
    // `input[i..i + 2]`.
    let mut v = (u32::from(input[0]) << 8) | u32::from(input[1]);
    while let Some((i, cand)) = next_match(table, epoch, input, lit_start, &mut v) {
        let max_len = (n - i).min(MAX_REF);
        let len = 3 + common_len(&input[cand + 3..], &input[i + 3..i + max_len]);
        if !flush_literals(out, &input[lit_start..i], limit) {
            return false;
        }
        let off = i - cand - 1;
        let l = len - 2;
        if l < 7 {
            out.push(((l as u8) << 5) | ((off >> 8) as u8));
        } else {
            out.push((7u8 << 5) | ((off >> 8) as u8));
            out.push((l - 7) as u8);
        }
        out.push((off & 0xff) as u8);
        if out.len() >= limit {
            return false;
        }
        // Index the positions inside the match (standard LZF skips most of
        // them; indexing them all improves the ratio slightly). This also
        // rolls `v` up to the match's last position.
        let end = i + len;
        for p in i + 1..end.min(n - 2) {
            v = ((v << 8) | u32::from(input[p + 2])) & PREFIX_MASK;
            table[hash(v)] = Slot {
                tag: epoch | v,
                pos: p,
            };
        }
        lit_start = end;
    }
    flush_literals(out, &input[lit_start..], limit)
}

/// Files every position from `i` on until one finds a live earlier position
/// with its prefix within reach, and returns both; `None` at the end of
/// `input`. Rolls `v` up to the returned position.
///
/// Kept out of line: inlined into [`encode`], this loop shared registers
/// with the match path's values and ran about 1.5x slower on
/// incompressible pages.
#[inline(never)]
fn next_match(
    table: &mut [Slot; HSIZE],
    epoch: u32,
    input: &[u8],
    mut i: usize,
    v: &mut u32,
) -> Option<(usize, usize)> {
    let mut prefix = *v;
    while i + 2 < input.len() {
        prefix = ((prefix << 8) | u32::from(input[i + 2])) & PREFIX_MASK;
        let tag = epoch | prefix;
        let slot = &mut table[hash(prefix)];
        let cand = slot.pos;
        let hit = slot.tag == tag && i - cand <= MAX_OFF;
        *slot = Slot { tag, pos: i };
        if hit {
            *v = prefix;
            return Some((i, cand));
        }
        i += 1;
    }
    None
}

/// Writes `lit` as literal runs, or returns false without writing when that
/// would take `out` to `limit` bytes or more.
fn flush_literals(out: &mut Vec<u8>, lit: &[u8], limit: usize) -> bool {
    if out.len() + lit.len() + lit.len().div_ceil(MAX_LIT) >= limit {
        return false;
    }
    for run in lit.chunks(MAX_LIT) {
        out.push((run.len() - 1) as u8);
        out.extend_from_slice(run);
    }
    true
}

/// How many leading bytes `a` and `b` share, up to `b.len()`
/// (`a.len() >= b.len()`). Compares eight bytes at a time.
fn common_len(a: &[u8], b: &[u8]) -> usize {
    let mut k = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = word(x) ^ word(y);
        if diff != 0 {
            return k + (diff.trailing_zeros() / 8) as usize;
        }
        k += 8;
    }
    while k < b.len() && a[k] == b[k] {
        k += 1;
    }
    k
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte chunk"))
}

/// Decompresses an LZF stream produced by [`compress`].
///
/// `expected_len` is the original input length; the function fails with
/// [`CodecError::LengthMismatch`] if the stream decodes to a different size.
pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(expected_len);
    let mut i = 0usize;
    while i < input.len() {
        let ctrl = input[i] as usize;
        i += 1;
        if ctrl < MAX_LIT {
            let n = ctrl + 1;
            if i + n > input.len() {
                return Err(CodecError::Corrupt("literal run past end of stream"));
            }
            out.extend_from_slice(&input[i..i + n]);
            i += n;
        } else {
            let mut len = ctrl >> 5;
            if len == 7 {
                if i >= input.len() {
                    return Err(CodecError::Corrupt("missing length extension byte"));
                }
                len += input[i] as usize;
                i += 1;
            }
            len += 2;
            if i >= input.len() {
                return Err(CodecError::Corrupt("missing offset byte"));
            }
            let off = ((ctrl & 0x1f) << 8) | input[i] as usize;
            i += 1;
            let dist = off + 1;
            if dist > out.len() {
                return Err(CodecError::Corrupt("back-reference before start"));
            }
            let start = out.len() - dist;
            if dist >= len {
                out.extend_from_within(start..start + len);
            } else {
                // An overlapping copy repeats bytes it has just written.
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    if out.len() != expected_len {
        return Err(CodecError::LengthMismatch {
            expected: expected_len,
            actual: out.len(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(data: &[u8]) {
        // Incompressible input (`None`) is a valid outcome.
        if let Some(packed) = compress(data) {
            assert!(packed.len() < data.len());
            assert_eq!(decompress(&packed, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn compresses_repetitive_data() {
        let data = vec![42u8; 4096];
        let packed = compress(&data).unwrap();
        assert!(packed.len() < 64);
        assert_eq!(decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn compresses_text() {
        let data = b"the quick brown fox jumps over the lazy dog. \
                     the quick brown fox jumps over the lazy dog. \
                     the quick brown fox jumps over the lazy dog."
            .to_vec();
        roundtrip(&data);
        assert!(compress(&data).is_some());
    }

    #[test]
    fn rejects_tiny_input() {
        assert!(compress(b"abc").is_none());
        assert!(compress(b"").is_none());
    }

    #[test]
    fn incompressible_returns_none() {
        // A pseudo-random sequence with no 3-byte repeats in range.
        let mut data = Vec::with_capacity(1024);
        let mut x: u32 = 0x12345678;
        for _ in 0..1024 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            data.push((x >> 24) as u8);
        }
        // It may compress marginally or not at all; roundtrip must hold either way.
        roundtrip(&data);
    }

    #[test]
    fn long_matches_use_extension_byte() {
        let mut data = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        for _ in 0..64 {
            data.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        }
        let packed = compress(&data).unwrap();
        assert_eq!(decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn overlapping_copy_decodes() {
        // RLE-style: one literal + long overlapping match.
        let data = vec![9u8; 300];
        let packed = compress(&data).unwrap();
        assert_eq!(decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn corrupt_stream_detected() {
        let data = vec![42u8; 256];
        let mut packed = compress(&data).unwrap();
        packed.truncate(packed.len() - 1);
        assert!(decompress(&packed, data.len()).is_err());
    }

    #[test]
    fn wrong_expected_length_detected() {
        let data = vec![42u8; 256];
        let packed = compress(&data).unwrap();
        assert!(matches!(
            decompress(&packed, 255),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn zero_page_compresses_to_almost_nothing() {
        let data = vec![0u8; 4096];
        let packed = compress(&data).unwrap();
        assert!(packed.len() < 64, "zero page packed to {}", packed.len());
    }

    /// `compress` must equal the parent encoder byte for byte, `None`
    /// included: the encoded sizes decide how deltas pack into flash.
    fn same_as_reference(data: &[u8]) {
        assert_eq!(
            compress(data),
            reference::compress(data),
            "{} input bytes",
            data.len()
        );
    }

    /// English-like text, the content the ransomware workload writes.
    fn text(words: &[usize]) -> Vec<u8> {
        const WORDS: [&str; 8] = ["the", "data", "page", "of", "flash", "version", "time", "a"];
        words
            .iter()
            .flat_map(|&w| WORDS[w % WORDS.len()].bytes().chain([b' ']))
            .collect()
    }

    /// A keystream stand-in for ciphertext: incompressible bytes.
    fn keystream(key: u64, len: usize) -> Vec<u8> {
        let mut x = key | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_reference_on_arbitrary_input(
            data in proptest::collection::vec(any::<u8>(), 0..9000),
        ) {
            same_as_reference(&data);
        }

        #[test]
        fn matches_reference_on_repetitive_input(
            byte in any::<u8>(),
            len in 0usize..9000,
            flips in proptest::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 0..16),
        ) {
            let mut data = vec![byte; len];
            for (at, v) in &flips {
                if !data.is_empty() {
                    let i = at.index(data.len());
                    data[i] ^= v;
                }
            }
            same_as_reference(&data);
        }

        #[test]
        fn matches_reference_on_structured_input(
            pattern in proptest::collection::vec(0u8..4, 1..300),
            reps in 1usize..64,
            words in proptest::collection::vec(0usize..8, 0..1500),
        ) {
            let mut data: Vec<u8> = pattern.iter().cycle().take(pattern.len() * reps).copied().collect();
            data.extend(text(&words));
            data.truncate(9000);
            same_as_reference(&data);
        }

        /// Delta pages of the ransomware stream: a text page XORed with its
        /// ciphertext, whole or from `split` on (a partial overwrite).
        #[test]
        fn matches_reference_on_xor_of_ciphertext_pages(
            words in proptest::collection::vec(0usize..8, 800..1200),
            key in any::<u64>(),
            split in 0usize..4096,
        ) {
            let mut plain = text(&words);
            plain.resize(4096, b' ');
            let cipher: Vec<u8> = plain
                .iter()
                .zip(keystream(key, 4096))
                .enumerate()
                .map(|(i, (p, k))| if i < split { *p } else { p ^ k ^ 0x5a })
                .collect();
            let xored: Vec<u8> = plain.iter().zip(&cipher).map(|(p, c)| p ^ c).collect();
            same_as_reference(&xored);
            same_as_reference(&cipher);
        }

        /// Calls share one table: what an input leaves in it must not change
        /// the next input's output.
        #[test]
        fn matches_reference_back_to_back(
            inputs in proptest::collection::vec(
                proptest::collection::vec(0u8..3, 0..9000),
                2..8,
            ),
        ) {
            for data in &inputs {
                same_as_reference(data);
            }
        }
    }

    /// The 8-bit epoch wraps every 255 calls. A short page and, 255 calls
    /// later, a page whose text starts only after 1000 bytes of digits: a
    /// slot the short page left behind would offer the long one an earlier
    /// position that does not hold its prefix.
    #[test]
    fn matches_reference_across_epoch_wraps() {
        let words: Vec<usize> = (0..1000).map(|i| i * 5 % 11).collect();
        let short = text(&words[..100]);
        let mut long: Vec<u8> = (0..1000u32).map(|i| b'0' + (i % 10) as u8).collect();
        long.extend(text(&words));
        for (round, page) in [&short, &long, &short, &long].into_iter().enumerate() {
            same_as_reference(page);
            for k in 0..254u8 {
                same_as_reference(&[round as u8, k, k, k]);
            }
        }
    }
}
