//! Retained-data encryption (§3.10).
//!
//! Retaining old versions conflicts with secure deletion: data a user
//! "deleted" lives on in the history. The paper's answer is to encrypt the
//! retained copies under a user-supplied key — the owner can still recover
//! everything, but an adversary who extracts the flash (or queries a stolen
//! drive) gets ciphertext.
//!
//! The cipher is a keyed xorshift keystream, domain-separated per version by
//! `(key, lpa, timestamp)`. It is a *simulation stand-in* with stream-cipher
//! shape (deterministic, seekable, key-dependent), not a vetted cipher; a
//! real device would use its XTS-AES engine.

use almanac_flash::{mix64, xorshift64, Lpa, Nanos};

fn mix(key: u64, lpa: Lpa, ts: Nanos) -> u64 {
    mix64(key ^ lpa.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ts.rotate_left(17)) | 1
}

/// Encrypts or decrypts `data` in place (XOR keystream: an involution).
pub fn apply_keystream(key: u64, lpa: Lpa, ts: Nanos, data: &mut [u8]) {
    let mut state = mix(key, lpa, ts);
    for chunk in data.chunks_mut(8) {
        state = xorshift64(state);
        let ks = state.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes();
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut data = b"retained version payload".to_vec();
        let original = data.clone();
        apply_keystream(42, Lpa(7), 1000, &mut data);
        assert_ne!(data, original);
        apply_keystream(42, Lpa(7), 1000, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn wrong_key_gives_garbage() {
        let mut data = b"retained version payload".to_vec();
        let original = data.clone();
        apply_keystream(42, Lpa(7), 1000, &mut data);
        apply_keystream(43, Lpa(7), 1000, &mut data);
        assert_ne!(data, original);
    }

    #[test]
    fn keystream_is_domain_separated() {
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        apply_keystream(1, Lpa(1), 100, &mut a);
        apply_keystream(1, Lpa(2), 100, &mut b);
        assert_ne!(a, b);
        let mut c = vec![0u8; 32];
        apply_keystream(1, Lpa(1), 101, &mut c);
        assert_ne!(a, c);
    }

    #[test]
    fn keystream_changes_most_bytes() {
        let mut data = vec![0u8; 4096];
        apply_keystream(9, Lpa(0), 0, &mut data);
        let zeros = data.iter().filter(|b| **b == 0).count();
        assert!(zeros < 64, "{zeros} bytes untouched");
    }
}
