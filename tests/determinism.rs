//! Determinism and reproducibility tests: the whole simulation stack must
//! be a pure function of its seeds.

use almanac::bloom::ChainConfig;
use almanac::core::{SsdConfig, SsdDevice, TimeSsd};
use almanac::flash::{Geometry, Lpa, PageData};
use almanac::fs::{AlmanacFs, FsMode};
use almanac::trace::replay;
use almanac::workloads::postmark::{self, PostmarkConfig};
use almanac::workloads::profiles;

#[test]
fn trace_replay_is_deterministic() {
    let profile = profiles::profile_by_name("rsrch").unwrap();
    let run = || {
        let trace = profile.generate(1, 4096, 11);
        let mut ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
        replay(&trace, &mut ssd).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn postmark_is_deterministic() {
    let run = || {
        let ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
        let mut fs = AlmanacFs::new(ssd, FsMode::Ext4NoJournal).unwrap();
        let r = postmark::run(
            &mut fs,
            PostmarkConfig {
                initial_files: 10,
                transactions: 100,
                ..Default::default()
            },
            21,
            0,
        )
        .unwrap();
        (r.transactions, r.elapsed, r.bytes_written)
    };
    assert_eq!(run(), run());
}

/// A barrier over several live delta buffers programs them in one order,
/// and each delta page's OOB timestamp is its program time, so the order
/// reaches flash: two devices fed the same stream must end identical.
#[test]
fn barrier_over_many_buffers_is_deterministic() {
    let run = || {
        let bloom = ChainConfig {
            bits_per_filter: 1 << 12,
            hashes: 3,
            capacity: 16,
        };
        let config = SsdConfig::new(Geometry::medium_test())
            .with_bloom(bloom)
            .with_min_retention(0);
        let mut ssd = TimeSsd::new(config);
        let mut now = 0;
        let write = |ssd: &mut TimeSsd, lpa: u64, version: u64, now| {
            let data = PageData::Synthetic { seed: lpa, version };
            ssd.write(Lpa(lpa), data, now).unwrap();
        };
        for round in 0..40u64 {
            for i in 0..48u64 {
                now += 20_000_000;
                write(&mut ssd, (i * 13 + round) % 200, round, now);
            }
        }
        // A burst at one instant leaves buffers of several filters live.
        now += 20_000_000;
        for lpa in 0..16u64 {
            write(&mut ssd, lpa, 40, now);
        }
        let barrier = ssd.flush(now).unwrap();
        (ssd.flash().state_digest(), barrier.finish)
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_differ() {
    let profile = profiles::profile_by_name("hm").unwrap();
    let a = profile.generate(1, 4096, 1);
    let b = profile.generate(1, 4096, 2);
    assert_ne!(a.records, b.records);
}
