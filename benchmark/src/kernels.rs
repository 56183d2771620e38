//! Layer kernels. `flash`, `bloom`, `compress` and `core::tables` are only
//! ever called from *inside* a device call, where the benchmark cannot
//! interpose; so it times each layer's public functions stand-alone, at the
//! size the workload reached, and the runner multiplies by the counts the
//! run produced (`*.est_share`).

use std::hint::black_box;
use std::time::Instant;

use almanac_bloom::BloomChain;
use almanac_compress::{delta, lzf};
use almanac_core::{AmtEntry, ShardedAmt};
use almanac_flash::{BlockId, FlashArray, Geometry, LatencyConfig, Lpa, Oob, PageData, Ppa};
use almanac_nvme::{NvmeOpcode, SubmissionEntry};

use crate::device::bench_chain;
use crate::run::Layers;
use crate::spans::Spans;
use crate::stats;

fn ns_per(t0: Instant, ops: u64) -> f64 {
    t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// `FlashArray::{program, read, peek, erase}` and the library's
/// `state_digest()` over a whole `Geometry::bench()` array of synthetic
/// pages.
pub fn flash(layers: &mut Layers, spans: &mut Spans) {
    let id = spans.enter("kernel flash");
    let geo = Geometry::bench();
    let mut array = FlashArray::new(geo, LatencyConfig::default());
    let pages = geo.total_pages();
    let t0 = Instant::now();
    for p in 0..pages {
        let data = PageData::Synthetic {
            seed: p,
            version: 1,
        };
        let done = array.program(Ppa(p), data, Oob::new(Lpa(p), None, p), p);
        black_box(done).expect("sequential program of an erased array");
    }
    layers.set("flash.program.host_ns", ns_per(t0, pages));
    let t0 = Instant::now();
    for p in 0..pages {
        black_box(array.read(Ppa(p), p)).expect("read of a programmed page");
    }
    layers.set("flash.read.host_ns", ns_per(t0, pages));
    let t0 = Instant::now();
    for p in 0..pages {
        black_box(array.peek(Ppa(p))).expect("peek of a programmed page");
    }
    layers.set("flash.peek.host_ns", ns_per(t0, pages));
    let t0 = Instant::now();
    black_box(array.state_digest());
    layers.set("flash.digest.host_s", t0.elapsed().as_secs_f64());
    let blocks = geo.total_blocks();
    let t0 = Instant::now();
    for b in 0..blocks {
        black_box(array.erase(BlockId(b), b)).expect("erase of a block in range");
    }
    layers.set("flash.erase.host_ns", ns_per(t0, blocks));
    spans.exit(id);
}

/// Scatters `i` over the key space without repeating (odd multiplier).
fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// `BloomChain::{insert, contains}` on a chain of `filters` full filters of
/// the benchmark's chain shape — the count the workload ended with (at least
/// one, so the kernel also runs where the chain is bypassed).
pub fn bloom(layers: &mut Layers, spans: &mut Spans, filters: usize) {
    let id = spans.enter("kernel bloom");
    let config = bench_chain();
    let inserts = filters.max(1) as u64 * config.capacity;
    let mut chain = BloomChain::new(config);
    let t0 = Instant::now();
    for i in 0..inserts {
        black_box(chain.insert(key(i), i));
    }
    layers.set("bloom.insert.host_ns", ns_per(t0, inserts));
    let probes = 1u64 << 16;
    let t0 = Instant::now();
    for i in 0..probes {
        // Keys spread evenly over every filter of the chain.
        black_box(chain.contains(key(i * inserts / probes)));
    }
    layers.set("bloom.contains_hit.host_ns", ns_per(t0, probes));
    let t0 = Instant::now();
    for i in 0..probes {
        black_box(chain.contains(key(inserts + i)));
    }
    layers.set("bloom.contains_miss.host_ns", ns_per(t0, probes));
    spans.exit(id);
}

/// `ShardedAmt::{set, get}` at the exported size and the device's shard
/// count, in scattered order.
pub fn tables(layers: &mut Layers, spans: &mut Spans, exported: u64, shards: u32) {
    let id = spans.enter("kernel core.tables");
    let mut amt = ShardedAmt::new(exported, shards);
    let t0 = Instant::now();
    for i in 0..exported {
        black_box(amt.set(Lpa(key(i) % exported), AmtEntry::Mapped(Ppa(i))));
    }
    layers.set("core.tables.amt_set.host_ns", ns_per(t0, exported));
    let t0 = Instant::now();
    for i in 0..exported {
        black_box(amt.get(Lpa(key(i) % exported)));
    }
    layers.set("core.tables.amt_get.host_ns", ns_per(t0, exported));
    spans.exit(id);
}

/// `delta::{encode, decode}` and `lzf::{compress, decompress}` on page pairs
/// `(reference, old version)` the workload really wrote. With no pairs (the
/// trace workloads carry synthetic pages and never reach the codec) every
/// compress metric stays 0.
pub fn compress(layers: &mut Layers, spans: &mut Spans, pairs: &[(Vec<u8>, Vec<u8>)]) {
    if pairs.is_empty() {
        return;
    }
    let id = spans.enter("kernel compress");
    let (mut enc_ns, mut dec_ns) = (Vec::new(), Vec::new());
    let (mut encoded_bytes, mut page_bytes) = (0usize, 0usize);
    for (reference, old) in pairs {
        let t0 = Instant::now();
        let encoded = black_box(delta::encode(reference, old));
        enc_ns.push(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        let decoded = black_box(delta::decode(reference, &encoded));
        dec_ns.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(decoded.as_deref(), Ok(old.as_slice()), "codec round trip");
        encoded_bytes += encoded.len();
        page_bytes += old.len();
    }
    layers.set(
        "compress.encode.host_ns_p50",
        stats::percentile_of(&mut enc_ns, 0.50) as f64,
    );
    layers.set(
        "compress.decode.host_ns_p50",
        stats::percentile_of(&mut dec_ns, 0.50) as f64,
    );
    layers.set(
        "compress.ratio_mean",
        encoded_bytes as f64 / page_bytes as f64,
    );

    // Raw LZF throughput on the old versions themselves (plain text).
    let t0 = Instant::now();
    let packed: Vec<Option<Vec<u8>>> = pairs.iter().map(|(_, old)| lzf::compress(old)).collect();
    let compress_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let mut unpacked_bytes = 0usize;
    for ((_, old), packed) in pairs.iter().zip(&packed) {
        if let Some(p) = packed {
            let out = black_box(lzf::decompress(p, old.len())).expect("lzf round trip");
            unpacked_bytes += out.len();
        }
    }
    let decompress_s = t0.elapsed().as_secs_f64();
    layers.set(
        "compress.lzf_compress.mb_per_s",
        page_bytes as f64 / 1e6 / compress_s,
    );
    if unpacked_bytes > 0 {
        layers.set(
            "compress.lzf_decompress.mb_per_s",
            unpacked_bytes as f64 / 1e6 / decompress_s,
        );
    }
    spans.exit(id);
}

/// SQE wire round trip: `SubmissionEntry::to_bytes` + `from_bytes`.
pub fn sqe(layers: &mut Layers, spans: &mut Spans) {
    let id = spans.enter("kernel nvme.sqe");
    let n = 1u64 << 18;
    let t0 = Instant::now();
    for i in 0..n {
        let mut e = SubmissionEntry::new(NvmeOpcode::Write, i as u16);
        e.set_u64(0, i);
        e.cdw[2] = 1;
        let wire = black_box(e.to_bytes());
        black_box(SubmissionEntry::from_bytes(&wire)).expect("known opcode");
    }
    layers.set("nvme.sqe_roundtrip.host_ns", ns_per(t0, n));
    spans.exit(id);
}
