//! Case study: recovering user data after an encryption-ransomware attack
//! (paper §5.5.1).
//!
//! A Locky-style encryptor reads every document, writes ciphertext copies,
//! and deletes the originals. Because TimeSSD retains invalidated pages in
//! firmware, TimeKits restores every file even though the file system has
//! lost them.
//!
//! Run with: `cargo run --example ransomware_recovery`

use almanac::core::{SsdConfig, TimeSsd};
use almanac::flash::Geometry;
use almanac::fs::{AlmanacFs, FsMode};
use almanac::kits::{FileMap, TimeKits};
use almanac::workloads::ransomware::{attack, Family};

fn main() {
    // A 32 MiB TimeSSD with a journaling-free file system on top — the
    // paper's TimeSSD configuration.
    let ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
    let mut fs = AlmanacFs::new(ssd, FsMode::Ext4NoJournal).expect("format");

    // A Locky-like family: reads, writes encrypted copies, deletes originals.
    let locky = Family {
        name: "Locky (scaled)",
        victim_mib: 4,
        rate_mib_s: 10.0,
        deletes_originals: true,
    };
    let report = attack(&mut fs, locky, 1234, 0).expect("attack");
    println!(
        "{}: encrypted {} KiB across {} files in {:.1}s of virtual time",
        report.family,
        report.bytes_encrypted / 1024,
        report.victims.len(),
        (report.attack_end - report.attack_start) as f64 / 1e9,
    );
    println!(
        "files left on the FS after the attack: {} (originals deleted!)",
        fs.file_count()
    );

    // Recovery: the victims' pre-attack page layouts (from FS metadata
    // backups or forensic scanning) drive a TimeKits rollback.
    let mut restored_files = 0;
    let mut restored_pages = 0;
    let when = report.pre_attack_time;
    let mut now = report.attack_end + 1_000_000_000;
    for victim in &report.victims {
        let map = FileMap {
            name: format!("doc{}", victim.fid.0),
            lpas: victim.lpas.clone(),
            size: victim.size,
        };
        let mut kits = TimeKits::new(fs.device_mut());
        let out = kits.restore_file(&map, when, now).expect("restore");
        now = out.finish + 1_000_000;
        restored_pages += out.restored.len();
        restored_files += 1;
    }
    println!("restored {restored_files} files ({restored_pages} pages) from firmware history");

    // Verify one file's plaintext actually came back.
    let first = &report.victims[0];
    let kits = TimeKits::new(fs.device_mut());
    let out = kits
        .query(first.lpas[0], 1)
        .as_of(u64::MAX)
        .run()
        .expect("verify query");
    let head = out.hits[0].data.materialize(32);
    println!(
        "first page of doc0 now begins with: {:?}",
        String::from_utf8_lossy(&head[..16])
    );
}
