//! End-to-end integration tests across the whole stack: file system on
//! TimeSSD, workload generators, TimeKits queries and recovery.

use almanac::core::{RegularSsd, SsdConfig, SsdDevice, SsdReadOps, TimeSsd};
use almanac::flash::{Geometry, Lpa, PageData, SEC_NS};
use almanac::fs::{AlmanacFs, FsMode};
use almanac::kits::{FileMap, TimeKits};
use almanac::trace::replay;
use almanac::workloads::oltp::{OltpEngine, OltpMix};
use almanac::workloads::postmark::{self, PostmarkConfig};
use almanac::workloads::profiles;
use almanac::workloads::ransomware::{attack, Family};

fn medium_timessd() -> TimeSsd {
    TimeSsd::new(SsdConfig::new(Geometry::medium_test()))
}

#[test]
fn full_stack_file_history_survives_fs_indirection() {
    let mut fs = AlmanacFs::new(medium_timessd(), FsMode::Ext4NoJournal).unwrap();
    let (fid, t) = fs.create("report.txt", SEC_NS).unwrap();
    let t = fs.write(fid, 0, b"verdict: innocent", t).unwrap();
    let checkpoint = t;
    let t = fs.write(fid, 0, b"verdict: GUILTY!!", t + SEC_NS).unwrap();

    // Current state through the FS.
    let (now, t) = fs.read(fid, 0, 17, t).unwrap();
    assert_eq!(&now, b"verdict: GUILTY!!");

    // Past state through the device's time-travel index.
    let (_, lpas, size) = fs.file_map(fid).unwrap();
    let map = FileMap {
        name: "report.txt".into(),
        lpas,
        size,
    };
    let kits = TimeKits::new(fs.device_mut());
    let recovered = kits.recover_file(&map, checkpoint).unwrap();
    let bytes = recovered.into_bytes(4096, 17);
    assert_eq!(&bytes, b"verdict: innocent");
    let _ = t;
}

#[test]
fn postmark_on_timessd_leaves_recoverable_history() {
    let mut fs = AlmanacFs::new(medium_timessd(), FsMode::Ext4NoJournal).unwrap();
    let report = postmark::run(
        &mut fs,
        PostmarkConfig {
            initial_files: 20,
            transactions: 200,
            ..Default::default()
        },
        5,
        0,
    )
    .unwrap();
    assert!(report.tps() > 0.0);
    // Some page somewhere must have at least two retrievable versions.
    let ssd = fs.device();
    let mut deep = 0;
    for lpa in 0..ssd.exported_pages() {
        if ssd.version_chain(Lpa(lpa)).len() >= 2 {
            deep += 1;
        }
    }
    assert!(deep > 0, "no page accumulated history during PostMark");
}

#[test]
fn oltp_runs_on_all_three_stacks() {
    // Ext4-journal and F2FS on regular SSD, Ext4-nj on TimeSSD: the
    // Figure 9 configurations all execute the same transactions.
    let tps = |mode, timessd: bool| {
        let cfg = SsdConfig::new(Geometry::medium_test());
        if timessd {
            let mut fs = AlmanacFs::new(TimeSsd::new(cfg), mode).unwrap();
            let (mut e, t) = OltpEngine::setup(&mut fs, 2, 16, 9, 0).unwrap();
            e.run(OltpMix::Tpcb, 50, t).unwrap().tps()
        } else {
            let mut fs = AlmanacFs::new(RegularSsd::new(cfg), mode).unwrap();
            let (mut e, t) = OltpEngine::setup(&mut fs, 2, 16, 9, 0).unwrap();
            e.run(OltpMix::Tpcb, 50, t).unwrap().tps()
        }
    };
    let ext4 = tps(FsMode::Ext4DataJournal, false);
    let f2fs = tps(FsMode::F2fsLog, false);
    let timessd = tps(FsMode::Ext4NoJournal, true);
    assert!(timessd > ext4, "TimeSSD {timessd} should beat Ext4 {ext4}");
    assert!(f2fs > ext4, "F2FS {f2fs} should beat Ext4 {f2fs}");
}

#[test]
fn trace_replay_on_both_devices_is_consistent() {
    let profile = profiles::profile_by_name("webusers").unwrap();
    let trace = profile.generate(1, 4096, 3);
    let mut regular = RegularSsd::new(SsdConfig::new(Geometry::medium_test()));
    let mut timessd = medium_timessd();
    let r = replay(&trace, &mut regular).unwrap();
    let t = replay(&trace, &mut timessd).unwrap();
    // Same workload, same host-visible operation counts.
    assert_eq!(r.user_writes, t.user_writes);
    assert_eq!(r.user_reads, t.user_reads);
    assert!(!r.stalled && !t.stalled);
}

#[test]
fn attack_then_full_rollback_restores_plaintext() {
    let mut fs = AlmanacFs::new(medium_timessd(), FsMode::Ext4NoJournal).unwrap();
    let family = Family {
        name: "test-overwriter",
        victim_mib: 1,
        rate_mib_s: 8.0,
        deletes_originals: false,
    };
    let report = attack(&mut fs, family, 77, 0).unwrap();
    // Roll every victim page back.
    let pages: Vec<Lpa> = report
        .victims
        .iter()
        .flat_map(|v| v.lpas.iter().copied())
        .collect();
    let mut kits = TimeKits::new(fs.device_mut());
    let out = kits
        .roll_back_set(&pages, report.pre_attack_time, report.attack_end)
        .unwrap();
    assert_eq!(out.restored.len(), pages.len());
    // Every victim file reads as its original plaintext again.
    for (i, victim) in report.victims.iter().enumerate() {
        let (data, _) = fs
            .read(victim.fid, 0, victim.size, out.finish + i as u64 + SEC_NS)
            .unwrap();
        assert!(
            String::from_utf8_lossy(&data[..64]).is_ascii(),
            "file {i} still looks encrypted"
        );
    }
}

#[test]
fn device_timeline_is_tamper_evident() {
    // Host-level deletion (trim) cannot remove history: the firmware keeps
    // the versions and the time-based query still shows the activity.
    let mut ssd = medium_timessd();
    ssd.write(Lpa(5), PageData::bytes(b"evidence".to_vec()), SEC_NS)
        .unwrap();
    ssd.trim(Lpa(5), 2 * SEC_NS).unwrap();
    let kits = TimeKits::new(&mut ssd);
    let (hits, _) = kits.time_query_all();
    assert!(hits.iter().any(|h| h.lpa == Lpa(5)));
    let versions = kits.query(Lpa(5), 1).all_versions().run().unwrap();
    assert_eq!(versions.hits.len(), 1);
    assert_eq!(versions.hits[0].data, PageData::bytes(b"evidence".to_vec()));
}

#[test]
fn cli_replay_rejects_malformed_day_counts() {
    // An unparsable or zero `[days]` must end in the usage text and a
    // failure status, not a silent two-day replay.
    for bad in ["abc", "0", "-3"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_almanac_cli"))
            .args(["replay", "hm", bad])
            .output()
            .expect("spawn almanac_cli");
        assert!(!out.status.success(), "`replay hm {bad}` must fail");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: almanac"));
        assert!(out.stdout.is_empty(), "`replay hm {bad}` replayed anyway");
    }
}
