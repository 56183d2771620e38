//! Whole-stack pipelines: PostMark file traffic → evidence export →
//! consistency audit, and the NVMe wire path.

use almanac::core::{SsdConfig, SsdDevice, TimeSsd};
use almanac::flash::{Geometry, Lpa, PageData, SEC_NS};
use almanac::fs::{AlmanacFs, FsMode};
use almanac::kits::{EvidenceArchive, TimeKits};
use almanac::nvme::{HostDriver, NvmeController};
use almanac::workloads::postmark::{self, PostmarkConfig};

#[test]
fn postmark_history_evidence_and_audit() {
    let ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
    let mut fs = AlmanacFs::new(ssd, FsMode::Ext4NoJournal).unwrap();
    let cfg = PostmarkConfig {
        initial_files: 20,
        transactions: 200,
        ..Default::default()
    };
    let report = postmark::run(&mut fs, cfg, 11, 0).unwrap();
    assert!(report.tps() > 0.0);
    assert_eq!(report.transactions, 200);

    // Export the full evidence archive and verify its integrity trailer.
    let kits = TimeKits::new(fs.device_mut());
    let archive = kits.export_evidence(0, u64::MAX).unwrap();
    assert!(!archive.records.is_empty());
    let text = archive.to_text();
    assert_eq!(
        EvidenceArchive::verify_text(&text),
        Some(archive.records.len())
    );

    // The device's internal invariants must hold after all of it.
    let audit = fs.device().check_consistency();
    assert!(audit.is_clean(), "{:?}", audit.violations);
}

#[test]
fn nvme_rollback_all_through_the_wire() {
    let ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
    let mut driver = HostDriver::new(NvmeController::new(ssd));
    // Two generations of eight pages.
    for round in 0..2u64 {
        for lpa in 0..8u64 {
            driver
                .write(
                    Lpa(lpa),
                    PageData::bytes(format!("round {round} page {lpa}").into_bytes()),
                    (1 + round * 10 + lpa) * SEC_NS,
                )
                .unwrap();
        }
    }
    // Roll everything back to the end of round 0.
    let (out, done) = driver.roll_back_all(9 * SEC_NS, 60 * SEC_NS).unwrap();
    let round0: Vec<(Lpa, u64)> = (0..8).map(|lpa| (Lpa(lpa), (1 + lpa) * SEC_NS)).collect();
    assert_eq!(out.restored, round0);
    assert!(out.erased.is_empty());
    assert_eq!(out.finish, done.finish);
    for lpa in 0..8u64 {
        let (page, _) = driver.read(Lpa(lpa), 120 * SEC_NS).unwrap();
        let expect = format!("round 0 page {lpa}");
        assert_eq!(&page.materialize(4096)[..expect.len()], expect.as_bytes());
    }
}

#[test]
fn retention_key_device_serves_io_normally() {
    // §3.10 encryption must be invisible to normal operation.
    let cfg = SsdConfig::new(Geometry::medium_test()).with_retention_key(0x5EC2E7);
    let mut ssd = TimeSsd::new(cfg);
    for i in 0..50u64 {
        ssd.write(
            Lpa(i % 10),
            almanac::flash::PageData::bytes(format!("v{i}").into_bytes()),
            (i + 1) * SEC_NS,
        )
        .unwrap();
    }
    let (data, _) = ssd.read(Lpa(3), 100 * SEC_NS).unwrap();
    assert_eq!(&data.materialize(3), b"v43");
    assert!(ssd.check_consistency().is_clean());
}
