//! The whole host path under the model: `AlmanacFs` over
//! `HostDriver<DifferentialHarness<Ftl<R>>>` on all three FTLs. Every file
//! system block command crosses the NVMe wire as a 64-byte entry, the
//! controller executes it on the harness, and the harness holds each one
//! to the model. Files are created, written, overwritten and deleted, then
//! synced and flushed; the run must end with no divergence and every live
//! file reading back what was written.

use std::collections::BTreeMap;

use almanac_core::{Discard, Ftl, ReadGated, SsdConfig, SsdDevice, TimeTravel};
use almanac_flash::{Geometry, SEC_NS};
use almanac_fs::{AlmanacFs, FileId, FsMode};
use almanac_nvme::{HostDriver, NvmeController};
use almanac_oracle::{DifferentialHarness, Guarantee};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum FileOp {
    Create,
    /// Writes `len` bytes of `fill` at `offset` into the `file`-th live file:
    /// a first write, an extension or an overwrite.
    Write {
        file: prop::sample::Index,
        offset: u16,
        len: u16,
        fill: u8,
    },
    Delete {
        file: prop::sample::Index,
    },
    Sync,
}

fn file_op() -> impl Strategy<Value = FileOp> {
    prop_oneof![
        2 => Just(FileOp::Create),
        6 => (any::<prop::sample::Index>(), 0u16..12_000, 1u16..6_000, any::<u8>())
            .prop_map(|(file, offset, len, fill)| FileOp::Write { file, offset, len, fill }),
        1 => any::<prop::sample::Index>().prop_map(|file| FileOp::Delete { file }),
        1 => Just(FileOp::Sync),
    ]
}

fn modes() -> impl Strategy<Value = FsMode> {
    prop::sample::select(vec![
        FsMode::Ext4NoJournal,
        FsMode::Ext4DataJournal,
        FsMode::F2fsLog,
    ])
}

/// Runs `ops` on a file system over the queues over the harness of
/// `Ftl<R>`, then syncs, flushes and checks every live file and the model.
fn fs_over_queues<R: Guarantee>(mode: FsMode, ops: &[FileOp]) -> Result<(), TestCaseError> {
    let cfg = SsdConfig::new(Geometry::medium_test());
    let page_size = cfg.geometry.page_size as usize;
    let harness = DifferentialHarness::<Ftl<R>>::over(cfg);
    let driver = HostDriver::new(NvmeController::over(harness, page_size));
    let mut fs = AlmanacFs::new(driver, mode).unwrap();
    let mut files: BTreeMap<FileId, Vec<u8>> = BTreeMap::new();
    let mut t = SEC_NS;
    for (i, op) in ops.iter().enumerate() {
        t += 1_000_000;
        let live: Vec<FileId> = files.keys().copied().collect();
        match op {
            FileOp::Create => {
                let (fid, at) = fs.create(&format!("f{i}"), t).unwrap();
                files.insert(fid, Vec::new());
                t = at;
            }
            FileOp::Sync => t = fs.sync(t).unwrap(),
            _ if live.is_empty() => {}
            FileOp::Write {
                file,
                offset,
                len,
                fill,
            } => {
                let fid = live[file.index(live.len())];
                let (offset, bytes) = (*offset as usize, vec![*fill; *len as usize]);
                t = fs.write(fid, offset as u64, &bytes, t).unwrap();
                let content = files.get_mut(&fid).unwrap();
                let end = offset + bytes.len();
                if content.len() < end {
                    content.resize(end, 0);
                }
                content[offset..end].copy_from_slice(&bytes);
            }
            FileOp::Delete { file } => {
                let fid = live[file.index(live.len())];
                t = fs.delete(fid, t).unwrap();
                files.remove(&fid);
            }
        }
    }
    t = fs.sync(t).unwrap();
    t = fs.device_mut().flush(t).unwrap().finish;
    for (fid, content) in &files {
        let (bytes, at) = fs.read(*fid, 0, content.len() as u64, t).unwrap();
        prop_assert!(&bytes == content, "{mode}: file {fid:?} reads back wrong");
        t = at;
    }
    let mut harness = fs.into_device().into_ssd();
    let report = harness.run(&[]);
    harness.read_sweep();
    prop_assert!(!report.stalled, "{mode}: device stalled");
    let created = ops.iter().any(|op| matches!(op, FileOp::Create));
    let mirrored = harness.model().lpas().count();
    prop_assert!(!created || mirrored > 0, "{mode}: the model saw no write");
    prop_assert!(
        harness.divergences().is_empty(),
        "{mode}: {:?}",
        harness.divergences()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fs_over_queues_on_regular(mode in modes(), ops in prop::collection::vec(file_op(), 1..60)) {
        fs_over_queues::<Discard>(mode, &ops)?;
    }

    #[test]
    fn fs_over_queues_on_flashguard(mode in modes(), ops in prop::collection::vec(file_op(), 1..60)) {
        fs_over_queues::<ReadGated>(mode, &ops)?;
    }

    #[test]
    fn fs_over_queues_on_timessd(mode in modes(), ops in prop::collection::vec(file_op(), 1..60)) {
        fs_over_queues::<TimeTravel>(mode, &ops)?;
    }
}
