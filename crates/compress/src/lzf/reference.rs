//! The encoder as it was before the reused, epoch-tagged table: kept
//! verbatim as the reference `lzf::compress` must match byte for byte.

const HLOG: usize = 14;
const HSIZE: usize = 1 << HLOG;
/// Maximum literal run encodable by one control byte.
const MAX_LIT: usize = 32;
/// Maximum back-reference length (`len + 2` with the extension byte).
const MAX_REF: usize = 264;
/// Maximum back-reference distance.
const MAX_OFF: usize = 1 << 13;

fn first3(data: &[u8], i: usize) -> u32 {
    ((data[i] as u32) << 16) | ((data[i + 1] as u32) << 8) | data[i + 2] as u32
}

fn hash(v: u32) -> usize {
    // The LibLZF "very fast" hash.
    let h = (v >> (24 - 16)) ^ v;
    ((h.wrapping_mul(5) >> (16 + 3 - HLOG as u32)) as usize) & (HSIZE - 1)
}

/// The parent `lzf::compress`.
pub fn compress(input: &[u8]) -> Option<Vec<u8>> {
    if input.len() < 4 {
        return None;
    }
    let mut table = [0usize; HSIZE];
    let mut out = Vec::with_capacity(input.len() - 1);
    let mut i = 0usize;
    let mut lit_start = 0usize;

    let flush_literals = |out: &mut Vec<u8>, lit: &[u8]| {
        let mut rest = lit;
        while !rest.is_empty() {
            let n = rest.len().min(MAX_LIT);
            out.push((n - 1) as u8);
            out.extend_from_slice(&rest[..n]);
            rest = &rest[n..];
        }
    };

    while i + 2 < input.len() {
        let v = first3(input, i);
        let slot = hash(v);
        let candidate = table[slot];
        table[slot] = i + 1; // store i+1 so 0 means "empty"
        if candidate > 0 {
            let cand = candidate - 1;
            let dist = i - cand;
            if dist > 0 && dist <= MAX_OFF && first3(input, cand) == v {
                // Extend the match.
                let mut len = 3;
                let max_len = (input.len() - i).min(MAX_REF);
                while len < max_len && input[cand + len] == input[i + len] {
                    len += 1;
                }
                flush_literals(&mut out, &input[lit_start..i]);
                let off = dist - 1;
                let l = len - 2;
                if l < 7 {
                    out.push(((l as u8) << 5) | ((off >> 8) as u8));
                } else {
                    out.push((7u8 << 5) | ((off >> 8) as u8));
                    out.push((l - 7) as u8);
                }
                out.push((off & 0xff) as u8);
                if out.len() >= input.len() {
                    return None;
                }
                // Index the positions inside the match (standard LZF skips most
                // of them; indexing a couple improves the ratio slightly).
                let end = i + len;
                i += 1;
                while i < end && i + 2 < input.len() {
                    table[hash(first3(input, i))] = i + 1;
                    i += 1;
                }
                i = end;
                lit_start = i;
                continue;
            }
        }
        i += 1;
    }
    flush_literals(&mut out, &input[lit_start..]);
    if out.len() < input.len() {
        Some(out)
    } else {
        None
    }
}
