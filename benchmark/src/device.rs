//! The benchmark's pinned inputs and its state fingerprint.
//!
//! `bench_config`, `warm_fill`, `profile_trace` and `settle` restate what
//! `crates/bench` does for Figures 8 and 10. They are restated, not imported,
//! so that the benchmark's inputs are fixed by the benchmark's own files: a
//! later change to the figure harness must not move these numbers.

use almanac_bloom::ChainConfig;
use almanac_core::{SsdConfig, SsdDevice};
use almanac_flash::{
    BlockId, DeltaBody, FlashArray, Geometry, Lpa, Nanos, PageData, PageState, Ppa, MINUTE_NS,
};
use almanac_trace::Trace;
use almanac_workloads::TraceProfile;

/// Device fill level before every workload (the paper warms its SSD before
/// each experiment, §5.1).
pub const WARM_USAGE: f64 = 0.5;

/// The benchmark device: `Geometry::bench()` (8 channels, 512 MiB, 111 411
/// exported pages) with Bloom segments sized so a segment covers a few hours
/// of heavy traffic. No workload enables `amt_cache_pages`.
pub fn bench_config() -> SsdConfig {
    SsdConfig::new(Geometry::bench()).with_bloom(bench_chain())
}

/// The Bloom chain shape of [`bench_config`].
pub fn bench_chain() -> ChainConfig {
    ChainConfig {
        bits_per_filter: 1 << 17,
        hashes: 4,
        capacity: 8192,
    }
}

/// Pre-fills `usage` of the exported space with valid synthetic pages, spaced
/// so the device keeps up; returns the virtual end time of the warm-up.
pub fn warm_fill<D: SsdDevice>(dev: &mut D, usage: f64) -> Nanos {
    let pages = (dev.exported_pages() as f64 * usage) as u64;
    let gap = 700_000; // ≈ device write service time
    let mut end = 0;
    for i in 0..pages {
        let page = PageData::Synthetic {
            seed: i,
            version: 0,
        };
        let c = dev
            .write(Lpa(i), page, i * gap)
            .expect("warm fill must fit");
        end = end.max(c.finish);
    }
    end
}

/// A profile's trace clamped to the usage level and shifted past the warm-up.
pub fn profile_trace(
    profile: &TraceProfile,
    days: u32,
    exported: u64,
    offset: Nanos,
    seed: u64,
) -> Trace {
    let mut p = *profile;
    p.working_set = p.working_set.min(WARM_USAGE);
    p.generate(days, exported, seed).shifted(offset)
}

/// Figure 10's idle settle between the ransom note and recovery: 400 quiet
/// two-minute periods, each of which lets the firmware compress one victim
/// block in the background (§3.6). Returns the virtual time it ends at.
pub fn settle<D: SsdDevice>(dev: &mut D, from: Nanos) -> Nanos {
    let mut t = from;
    for _ in 0..400 {
        t += 2 * MINUTE_NS;
        let _ = dev.write(Lpa(0), PageData::Zeros, t);
    }
    t
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Word-at-a-time FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x100_0000_01b3);
    }

    fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        let mut chunks = b.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.word(u64::from_le_bytes(tail));
    }

    fn ppa(&mut self, p: Option<Ppa>) {
        self.word(p.map_or(u64::MAX, |p| p.0));
    }
}

/// Digest of the persistent flash state: every block's write pointer and
/// erase count, and the content and OOB of every written page — the fields
/// `FlashArray::state_digest()` covers, read through `block()`.
///
/// The library digest formats each page through `Debug`, which costs 1–2.4 s
/// per ransomware device (4 KiB of real bytes per page; 18 s per rep of
/// thirteen families), so the per-rep equality gate hashes the same fields
/// structurally instead. `flash.digest.host_s` still times the library's own
/// function, on the flash kernel's array.
pub fn flash_digest(flash: &FlashArray) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    for b in 0..flash.geometry().total_blocks() {
        let block = flash.block(BlockId(b)).expect("block id in range");
        h.word(u64::from(block.write_ptr) << 32 | u64::from(block.erase_count));
        for page in block.pages.iter().filter(|p| p.state == PageState::Written) {
            match &page.data {
                PageData::Zeros => h.word(0),
                PageData::Synthetic { seed, version } => {
                    h.word(1);
                    h.word(*seed);
                    h.word(*version);
                }
                PageData::Bytes(bytes) => {
                    h.word(2);
                    h.bytes(bytes);
                }
                PageData::DeltaPage(dp) => {
                    h.word(3);
                    h.word(dp.deltas.len() as u64);
                    for d in &dp.deltas {
                        h.word(d.lpa.0);
                        h.ppa(d.back_ptr);
                        h.word(d.timestamp);
                        h.word(d.ref_timestamp);
                        h.word(u64::from(d.size));
                        match &d.body {
                            DeltaBody::Synthetic { seed, version } => {
                                h.word(4);
                                h.word(*seed);
                                h.word(*version);
                            }
                            DeltaBody::Zeros => h.word(5),
                            DeltaBody::Bytes(bytes) => {
                                h.word(6);
                                h.bytes(bytes);
                            }
                            DeltaBody::Trim => h.word(7),
                        }
                    }
                }
            }
            let oob = page.oob.expect("written page always has OOB");
            h.word(oob.lpa.0);
            h.ppa(oob.back_ptr);
            h.word(oob.timestamp);
        }
    }
    h.0
}

/// Folds the digests of a multi-device pass into one.
pub fn fold_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    digests.into_iter().for_each(|d| h.word(d));
    h.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use almanac_core::TimeSsd;

    fn small() -> TimeSsd {
        TimeSsd::new(SsdConfig::new(Geometry::medium_test()))
    }

    fn churn(dev: &mut TimeSsd, salt: u64) {
        for i in 0..600u64 {
            let page = if i % 3 == 0 {
                PageData::bytes(vec![(i + salt) as u8; 64])
            } else {
                PageData::Synthetic {
                    seed: i % 40,
                    version: i + salt,
                }
            };
            dev.write(Lpa(i % 40), page, i * 1_000_000).unwrap();
        }
        dev.trim(Lpa(3), 700_000_000).unwrap();
    }

    #[test]
    fn digest_agrees_with_the_library_digest_on_equality() {
        let (mut a, mut b, mut c) = (small(), small(), small());
        churn(&mut a, 0);
        churn(&mut b, 0);
        churn(&mut c, 1);
        assert_eq!(a.flash().state_digest(), b.flash().state_digest());
        assert_eq!(flash_digest(a.flash()), flash_digest(b.flash()));
        assert_ne!(a.flash().state_digest(), c.flash().state_digest());
        assert_ne!(flash_digest(a.flash()), flash_digest(c.flash()));
        // One more program anywhere changes it.
        let before = flash_digest(a.flash());
        a.write(Lpa(0), PageData::Zeros, 800_000_000).unwrap();
        assert_ne!(flash_digest(a.flash()), before);
    }

    #[test]
    fn pinned_inputs_have_the_documented_shape() {
        let cfg = bench_config();
        assert_eq!(cfg.geometry.channels, 8);
        assert_eq!(cfg.exported_pages(), 111_411);
        assert_eq!(cfg.amt_cache_pages, None);
        let mut dev = small();
        let exported = almanac_core::SsdReadOps::exported_pages(&dev);
        warm_fill(&mut dev, WARM_USAGE);
        assert_eq!(
            almanac_core::SsdReadOps::stats(&dev).user_writes,
            (exported as f64 * WARM_USAGE) as u64
        );
    }

    #[test]
    fn rss_reads_a_positive_high_water_mark() {
        assert!(peak_rss_mib().unwrap() > 1.0);
    }
}
