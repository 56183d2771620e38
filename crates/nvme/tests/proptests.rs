//! Property tests of the NVMe wire format and the driver/controller loop.

use almanac_core::{AlmanacError, Discard, Ftl, ReadGated, Retention, SsdConfig, SsdDevice};
use almanac_core::{SsdReadOps, TimeSsd, TimeTravel, MAX_ARRIVAL};
use almanac_flash::{Geometry, Lpa, Nanos, PageData, DAY_NS, MS_NS, SEC_NS};
use almanac_nvme::{HostDriver, NvmeController, NvmeOpcode, NvmeStatus, SubmissionEntry};
use proptest::prelude::*;

/// The opcode bytes the controller knows; a random byte rarely is one.
const OPCODES: [u8; 12] = [
    0x00, 0x01, 0x02, 0x09, 0xC0, 0xC1, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
];

/// Any 64 bytes and 0–3 payload pages of any length. Most entries get a
/// known opcode. Two in three keep every command dword below 64 (and the
/// high halves of the LPA and timestamp zero), so ranges land inside the
/// device often; half of those also count the payload's pages in CDW12, so
/// writes can succeed.
fn wire_command() -> impl Strategy<Value = ([u8; 64], Vec<Vec<u8>>)> {
    (
        any::<[u8; 64]>(),
        prop_oneof![1 => any::<u8>(), 3 => prop::sample::select(OPCODES.to_vec())],
        0u8..4,
        prop::collection::vec(prop::collection::vec(any::<u8>(), 0..5000), 0..4),
    )
        .prop_map(|(mut bytes, opcode, shape, payload)| {
            bytes[0] = opcode;
            if shape >= 2 {
                for (i, dw) in bytes[40..].chunks_mut(4).enumerate() {
                    dw[0] = if i % 4 == 1 { 0 } else { dw[0] % 64 };
                    dw[1..].fill(0);
                }
            }
            if shape == 3 {
                bytes[48..52].copy_from_slice(&(payload.len() as u32).to_le_bytes());
            }
            (bytes, payload)
        })
}

/// Submits every entry that decodes to one small controller over each of
/// the three FTLs, each run to completion in turn: each must post exactly
/// its own completion and leave the device consistent.
fn every_command_completes(commands: &[([u8; 64], Vec<Vec<u8>>)]) {
    completes_on::<Discard>(commands);
    completes_on::<ReadGated>(commands);
    completes_on::<TimeTravel>(commands);
}

/// [`every_command_completes`] on `Ftl<R>`. A device without history must
/// refuse every vendor opcode with Invalid Opcode.
fn completes_on<R: Retention>(commands: &[([u8; 64], Vec<Vec<u8>>)]) {
    let cfg = SsdConfig::new(Geometry::small_test());
    let page_size = cfg.geometry.page_size as usize;
    let mut c = NvmeController::over(Ftl::<R>::new(cfg), page_size);
    let mut now = SEC_NS;
    for (bytes, payload) in commands {
        let Some(entry) = SubmissionEntry::from_bytes(bytes) else {
            continue;
        };
        assert!(c.submit_to(0, entry, payload.clone()), "queue 0 has room");
        now = c.run_to_completion(now) + SEC_NS;
        let done = c
            .pop_completion(0)
            .expect("every command posts a completion");
        assert_eq!(done.ticket.cid, entry.cid);
        assert!(c.pop_completion(0).is_none(), "one completion per command");
        if entry.opcode.is_vendor() && c.ssd().read_view().is_none() {
            assert_eq!(done.status, NvmeStatus::InvalidOpcode as u16);
        }
        let report = c.ssd().check_consistency();
        assert!(report.is_clean(), "{entry:?}: {report:?}");
    }
}

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
    fn malformed_commands_each_complete_and_keep_the_device_consistent(
        commands in prop::collection::vec(wire_command(), 1..8),
    ) {
        every_command_completes(&commands);
    }

    #[test]
    fn driver_write_read_matches_for_any_payload(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..256), 1..8)
    ) {
        let ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
        let mut driver = HostDriver::new(NvmeController::new(ssd));
        let mut t = SEC_NS;
        for (i, p) in payloads.iter().enumerate() {
            driver.write(Lpa(i as u64), PageData::bytes(p.clone()), t).unwrap();
            t += SEC_NS;
        }
        for (i, p) in payloads.iter().enumerate() {
            let (page, _) = driver.read(Lpa(i as u64), t).unwrap();
            let page = page.materialize(4096);
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
            driver.write(Lpa(0), PageData::bytes(v.clone()), t).unwrap();
            stamps.push(t);
            t += SEC_NS;
        }
        let idx = pick.index(versions.len());
        // Roll back to just after version `idx` was written.
        let target = stamps[idx] + SEC_NS / 2;
        driver.roll_back(Lpa(0), 1, target, t).unwrap();
        let (page, _) = driver.read(Lpa(0), t + SEC_NS).unwrap();
        let page = page.materialize(4096);
        prop_assert_eq!(&page[..versions[idx].len()], &versions[idx][..]);
    }

    #[test]
    fn one_command_at_a_time_the_driver_is_the_device(
        ops in prop::collection::vec(
            (0u8..10, 0u64..48, 0u64..3_000_000, prop::collection::vec(any::<u8>(), 1..64)),
            1..120,
        ),
    ) {
        queue_depth_one_matches_the_bare_device(SsdConfig::new(Geometry::medium_test()), &ops);
    }
}

/// What one op returned: the page a read returned and the finish, or the
/// error.
type OpResult = Result<(Option<PageData>, Nanos), AlmanacError>;

/// Op `op` on `dev` at `at`: 0 writes `bytes` to `lpa`, 1 reads it, 2 trims
/// it, 3 flushes.
fn apply(dev: &mut impl SsdDevice, op: u8, lpa: Lpa, bytes: &[u8], at: Nanos) -> OpResult {
    let finish = |c: almanac_core::Completion| (None, c.finish);
    match op {
        0 => dev
            .write(lpa, PageData::bytes(bytes.to_vec()), at)
            .map(finish),
        1 => dev.read(lpa, at).map(|(page, c)| (Some(page), c.finish)),
        2 => dev.trim(lpa, at).map(finish),
        _ => dev.flush(at).map(finish),
    }
}

/// Drives `ops` — `(kind, lpa, gap, bytes)`: kinds 0–3 write `bytes`, 4–5
/// read, 6 trims, 7 flushes; kind 8 writes, reads or trims (by `bytes[0]`)
/// an LPA at or past the exported space, and kind 9 runs any of the four
/// at an arrival past `MAX_ARRIVAL` — through `HostDriver<TimeSsd>` and
/// against a bare `TimeSsd` built from `cfg`. Every op must return the same
/// result on both, errors included, and the flash must end in the same
/// state. Returns the errors the ops met.
fn queue_depth_one_matches_the_bare_device(
    cfg: SsdConfig,
    ops: &[(u8, u64, Nanos, Vec<u8>)],
) -> Vec<AlmanacError> {
    let mut bare = TimeSsd::new(cfg.clone());
    let mut driver = HostDriver::new(NvmeController::new(TimeSsd::new(cfg)));
    let exported = bare.exported_pages();
    let (mut now, mut errors) = (SEC_NS, Vec::new());
    for (i, (kind, lpa, gap, bytes)) in ops.iter().enumerate() {
        now += gap;
        let (op, lpa, at) = match kind {
            0..=3 => (0, *lpa, now),
            4 | 5 => (1, *lpa, now),
            6 => (2, *lpa, now),
            7 => (3, *lpa, now),
            8 => (bytes[0] % 3, exported + lpa, now),
            _ => (bytes[0] % 4, *lpa, MAX_ARRIVAL + 1 + gap),
        };
        let by_bare = apply(&mut bare, op, Lpa(lpa), bytes, at);
        let by_driver = apply(&mut driver, op, Lpa(lpa), bytes, at);
        assert_eq!(by_bare, by_driver, "op {i}: kind {kind} on LPA {lpa}");
        errors.extend(by_bare.err());
    }
    let ssd = driver.controller().ssd();
    assert_eq!(bare.flash().state_digest(), ssd.flash().state_digest());
    assert_eq!(bare.stats(), ssd.stats());
    errors
}

/// A small TimeSSD that must keep 100 days of history, rewritten round-robin
/// until it stalls (§3.4): the driver returns the bare device's
/// `DeviceStalled`, its instant and retention window included.
#[test]
fn a_stalled_device_stalls_the_driver_with_its_own_error() {
    let cfg = SsdConfig::new(Geometry::small_test()).with_min_retention(100 * DAY_NS);
    let exported = TimeSsd::new(cfg.clone()).exported_pages();
    let ops: Vec<_> = (0..exported * 8)
        .map(|i| (0, i % exported, MS_NS, vec![i as u8]))
        .collect();
    let errors = queue_depth_one_matches_the_bare_device(cfg, &ops);
    let stall = errors.iter().find_map(|err| match err {
        AlmanacError::DeviceStalled {
            retention_window, ..
        } => Some(*retention_window),
        _ => None,
    });
    assert!(stall.is_some_and(|window| window > 0), "{errors:?}");
}

/// Inputs the malformed-command property found, kept as fixed cases.
#[test]
fn malformed_command_regressions() {
    // AddrQuery asking for u32::MAX host workers (CDW13): the completion
    // time's schedule was sized by the wire value.
    let mut query = [0u8; 64];
    query[0] = NvmeOpcode::AddrQuery as u8;
    query[52..56].copy_from_slice(&u32::MAX.to_le_bytes());
    every_command_completes(&[(query, Vec::new())]);
}
