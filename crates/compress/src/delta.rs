//! XOR-delta encoding of old page versions against a reference version.
//!
//! TimeSSD represents a retained old version as the compressed XOR difference
//! between it and the latest version of the same logical page (§3.6). Content
//! locality makes the XOR mostly zeros, which LZF packs extremely well.
//!
//! The encoded form carries a one-byte tag so incompressible differences fall
//! back to raw storage instead of growing.

use crate::{lzf, CodecError};

/// Tag byte: payload is raw (uncompressed) XOR difference.
const TAG_RAW: u8 = 0;
/// Tag byte: payload is LZF-compressed XOR difference.
const TAG_LZF: u8 = 1;

/// Encodes `old` as a delta against `reference`.
///
/// Both slices must have the same length (page size).
///
/// # Panics
///
/// Panics if the lengths differ — page versions always share the page size.
///
/// # Examples
///
/// ```
/// use almanac_compress::delta;
/// let reference = vec![0xAAu8; 1024];
/// let mut old = reference.clone();
/// old[3] ^= 0xFF;
/// let d = delta::encode(&reference, &old);
/// assert_eq!(delta::decode(&reference, &d).unwrap(), old);
/// ```
pub fn encode(reference: &[u8], old: &[u8]) -> Vec<u8> {
    assert_eq!(
        reference.len(),
        old.len(),
        "reference and old version must share the page size"
    );
    // The raw encoding `[TAG_RAW, reference ^ old]`, whose XOR half is
    // also the compressor's input.
    let mut out = vec![TAG_RAW; old.len() + 1];
    for ((x, a), b) in out[1..].iter_mut().zip(reference).zip(old) {
        *x = a ^ b;
    }
    match lzf::compress_after(&[TAG_LZF], &out[1..]) {
        Some(packed) if packed.len() < out.len() - 1 => packed,
        _ => out,
    }
}

/// Decodes a delta produced by [`encode`] back into the old version bytes.
pub fn decode(reference: &[u8], delta: &[u8]) -> Result<Vec<u8>, CodecError> {
    let (tag, payload) = delta
        .split_first()
        .ok_or(CodecError::Corrupt("empty delta"))?;
    let mut old = match *tag {
        TAG_RAW => {
            if payload.len() != reference.len() {
                return Err(CodecError::LengthMismatch {
                    expected: reference.len(),
                    actual: payload.len(),
                });
            }
            payload.to_vec()
        }
        TAG_LZF => lzf::decompress(payload, reference.len())?,
        _ => return Err(CodecError::Corrupt("unknown delta tag")),
    };
    for (b, r) in old.iter_mut().zip(reference) {
        *b ^= r;
    }
    Ok(old)
}

/// Compression ratio achieved by [`encode`]: encoded size / page size.
///
/// The paper reports real-application ratios of 0.05–0.25 (§5.2).
pub fn ratio(reference: &[u8], old: &[u8]) -> f64 {
    encode(reference, old).len() as f64 / reference.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_versions_encode_tiny() {
        let page = vec![0x5Au8; 4096];
        let d = encode(&page, &page);
        assert!(d.len() < 64, "identity delta was {} bytes", d.len());
        assert_eq!(decode(&page, &d).unwrap(), page);
    }

    #[test]
    fn small_change_small_delta() {
        let reference = vec![7u8; 4096];
        let mut old = reference.clone();
        for i in 0..200 {
            old[i * 20] = i as u8;
        }
        let d = encode(&reference, &old);
        assert!(d.len() < 4096 / 2);
        assert_eq!(decode(&reference, &d).unwrap(), old);
    }

    #[test]
    fn incompressible_difference_falls_back_to_raw() {
        let reference = vec![0u8; 512];
        let mut old = Vec::with_capacity(512);
        let mut x: u32 = 99;
        for _ in 0..512 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            old.push((x >> 24) as u8);
        }
        let d = encode(&reference, &old);
        assert_eq!(d[0], TAG_RAW);
        assert_eq!(d.len(), 513);
        assert_eq!(decode(&reference, &d).unwrap(), old);
    }

    #[test]
    fn decode_rejects_garbage_tag() {
        let reference = vec![0u8; 16];
        assert!(decode(&reference, &[9u8, 1, 2]).is_err());
    }

    #[test]
    fn decode_rejects_empty() {
        assert!(decode(&[0u8; 4], &[]).is_err());
    }

    #[test]
    fn ratio_reflects_similarity() {
        let reference = vec![1u8; 4096];
        let close = {
            let mut v = reference.clone();
            v[0] = 2;
            v
        };
        assert!(ratio(&reference, &close) < 0.05);
    }

    #[test]
    #[should_panic(expected = "page size")]
    fn mismatched_lengths_panic() {
        let _ = encode(&[0u8; 4], &[0u8; 5]);
    }
}
