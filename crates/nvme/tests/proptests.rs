//! Property tests of the NVMe wire format and the driver/controller loop.

use almanac_core::{SsdConfig, TimeSsd};
use almanac_flash::{Geometry, Lpa, SEC_NS};
use almanac_nvme::{HostDriver, NvmeController, NvmeOpcode, SubmissionEntry};
use proptest::prelude::*;

fn opcode_strategy() -> impl Strategy<Value = NvmeOpcode> {
    prop::sample::select(vec![
        NvmeOpcode::Flush,
        NvmeOpcode::Write,
        NvmeOpcode::Read,
        NvmeOpcode::DatasetMgmt,
        NvmeOpcode::AddrQuery,
        NvmeOpcode::AddrQueryRange,
        NvmeOpcode::AddrQueryAll,
        NvmeOpcode::TimeQuery,
        NvmeOpcode::TimeQueryRange,
        NvmeOpcode::TimeQueryAll,
        NvmeOpcode::RollBack,
        NvmeOpcode::RollBackAll,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sqe_wire_roundtrip(
        opcode in opcode_strategy(),
        cid in any::<u16>(),
        nsid in any::<u32>(),
        cdw in any::<[u32; 6]>(),
    ) {
        let entry = SubmissionEntry { opcode, cid, nsid, cdw };
        let parsed = SubmissionEntry::from_bytes(&entry.to_bytes()).unwrap();
        prop_assert_eq!(parsed, entry);
    }

    #[test]
    fn driver_write_read_matches_for_any_payload(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..256), 1..8)
    ) {
        let ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
        let mut driver = HostDriver::new(NvmeController::new(ssd));
        let mut t = SEC_NS;
        for (i, p) in payloads.iter().enumerate() {
            driver.write(Lpa(i as u64), p.clone(), t).unwrap();
            t += SEC_NS;
        }
        for (i, p) in payloads.iter().enumerate() {
            let page = driver.read(Lpa(i as u64), t).unwrap();
            prop_assert_eq!(&page[..p.len()], &p[..]);
            prop_assert!(page[p.len()..].iter().all(|b| *b == 0));
            t += SEC_NS;
        }
    }

    #[test]
    fn rollback_through_the_wire_restores_any_history(
        versions in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 2..8),
        pick in any::<prop::sample::Index>(),
    ) {
        let ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
        let mut driver = HostDriver::new(NvmeController::new(ssd));
        let mut stamps = Vec::new();
        let mut t = SEC_NS;
        for v in &versions {
            driver.write(Lpa(0), v.clone(), t).unwrap();
            stamps.push(t);
            t += SEC_NS;
        }
        let idx = pick.index(versions.len());
        // Roll back to just after version `idx` was written.
        let target = stamps[idx] + SEC_NS / 2;
        driver.roll_back(Lpa(0), 1, target, t).unwrap();
        let page = driver.read(Lpa(0), t + SEC_NS).unwrap();
        prop_assert_eq!(&page[..versions[idx].len()], &versions[idx][..]);
    }
}
