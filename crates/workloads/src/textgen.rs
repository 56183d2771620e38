//! Deterministic content generators: compressible text, source code, and
//! incompressible (random/encrypted) bytes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WORDS: &[&str] = &[
    "the",
    "storage",
    "state",
    "flash",
    "page",
    "version",
    "time",
    "travel",
    "device",
    "firmware",
    "recovery",
    "system",
    "write",
    "read",
    "block",
    "chain",
    "filter",
    "delta",
    "journal",
    "commit",
    "kernel",
    "buffer",
    "index",
    "mapping",
    "table",
    "garbage",
    "collection",
    "retention",
    "window",
    "forensics",
    "evidence",
    "rollback",
    "snapshot",
];

/// Deterministic RNG from a seed.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Bytes in one [`TABLE`] entry: the longest word plus its space fits.
const ENTRY: usize = 16;

/// Each of `WORDS` followed by its space, zero-padded to [`ENTRY`] bytes,
/// with the length of word plus space. `text` copies a whole entry and
/// advances by the length, so a word costs one fixed-size move.
static TABLE: [([u8; ENTRY], usize); WORDS.len()] = {
    let mut table = [([0u8; ENTRY], 0); WORDS.len()];
    let mut i = 0;
    while i < WORDS.len() {
        let word = WORDS[i].as_bytes();
        assert!(word.len() < ENTRY, "word does not fit a table entry");
        let mut j = 0;
        while j < word.len() {
            table[i].0[j] = word[j];
            j += 1;
        }
        table[i].0[word.len()] = b' ';
        table[i].1 = word.len() + 1;
        i += 1;
    }
    table
};

/// Compressible English-like text of `len` bytes.
///
/// Byte-for-byte the stream of one `gen_range(0..WORDS.len())` word and
/// one `gen_ratio(1, 12)` newline draw per step; the two draws are
/// open-coded with constant divisors, which is what those calls compute.
pub fn text(seed: u64, len: usize) -> Vec<u8> {
    let mut r = rng(seed);
    // A step starts below `len`, copies `ENTRY` bytes and writes a newline
    // at most 11 bytes on: the slack past `len` absorbs the overshoot.
    let mut out = vec![0u8; len + ENTRY];
    let mut at = 0;
    while at < len {
        let (entry, n) = &TABLE[(r.next_raw() % WORDS.len() as u64) as usize];
        out[at..at + ENTRY].copy_from_slice(entry);
        at += n;
        // The newline is always written and kept only when drawn; the
        // next entry overwrites it otherwise. No branch to mispredict.
        out[at] = b'\n';
        at += usize::from(r.next_raw() % 12 < 1);
    }
    out.truncate(len);
    out
}

/// C-source-like text of `len` bytes (for the synthetic kernel tree).
pub fn source_code(seed: u64, len: usize) -> Vec<u8> {
    let mut r = rng(seed);
    let mut out = Vec::with_capacity(len + 64);
    let mut fno = 0u32;
    while out.len() < len {
        fno += 1;
        let line = format!(
            "static int fn_{}_{}(struct inode *inode, unsigned long arg{})\n{{\n\treturn do_op(inode, arg{}) ?: {};\n}}\n\n",
            seed % 1000,
            fno,
            r.gen_range(0..4),
            r.gen_range(0..4),
            r.gen_range(0..256),
        );
        out.extend_from_slice(line.as_bytes());
    }
    out.truncate(len);
    out
}

/// Incompressible pseudo-random bytes (IOZone content / ciphertext).
pub fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut r = rng(seed);
    let mut out = vec![0u8; len];
    r.fill(&mut out[..]);
    out
}

/// "Encrypts" plaintext: deterministic keyed stream cipher stand-in whose
/// output is incompressible and unrelated to the input, like real
/// ransomware ciphertext.
pub fn encrypt(key: u64, plaintext: &[u8]) -> Vec<u8> {
    let mut r = rng(key ^ 0xdead_beef_cafe_f00d);
    plaintext.iter().map(|b| b ^ r.gen::<u8>() ^ 0x5a).collect()
}

/// `text` as it was before the table kernel, kept verbatim: the kernel
/// must produce the same bytes for every seed and length.
#[cfg(test)]
mod reference {
    use super::{rng, WORDS};
    use rand::Rng;

    pub fn text(seed: u64, len: usize) -> Vec<u8> {
        let mut r = rng(seed);
        let mut out = Vec::with_capacity(len + 16);
        while out.len() < len {
            let w = WORDS[r.gen_range(0..WORDS.len())];
            out.extend_from_slice(w.as_bytes());
            out.push(b' ');
            if r.gen_ratio(1, 12) {
                out.push(b'\n');
            }
        }
        out.truncate(len);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almanac_compress::lzf;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn text_matches_reference(
            seed in any::<u64>(),
            len in prop_oneof![
                3 => 0usize..300_001,
                1 => 0usize..64,
                1 => Just(4095usize),
                1 => Just(4096usize),
                1 => Just(4097usize),
                1 => Just(262_144usize),
            ],
        ) {
            prop_assert_eq!(text(seed, len), reference::text(seed, len), "seed {} len {}", seed, len);
        }
    }

    #[test]
    fn text_is_compressible() {
        let t = text(1, 4096);
        assert_eq!(t.len(), 4096);
        let packed = lzf::compress(&t).expect("text must compress");
        assert!(packed.len() < t.len() / 2);
    }

    #[test]
    fn source_is_compressible_and_deterministic() {
        let a = source_code(5, 8192);
        let b = source_code(5, 8192);
        assert_eq!(a, b);
        assert!(lzf::compress(&a).is_some());
    }

    #[test]
    fn random_bytes_are_incompressible() {
        let r = random_bytes(9, 4096);
        match lzf::compress(&r) {
            None => {}
            Some(p) => assert!(p.len() > 3500, "random bytes compressed to {}", p.len()),
        }
    }

    #[test]
    fn encryption_changes_everything() {
        let plain = text(3, 1024);
        let cipher = encrypt(42, &plain);
        assert_eq!(cipher.len(), plain.len());
        let same = plain.iter().zip(&cipher).filter(|(a, b)| a == b).count();
        assert!(same < 64, "{same} bytes unchanged by encryption");
    }
}
