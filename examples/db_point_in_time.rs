//! Case study: point-in-time recovery of a database without a WAL.
//!
//! An OLTP engine (the paper's Shore-MT stand-in) commits transactions
//! against table files on TimeSSD. A "fat-finger" batch corrupts the
//! database; TimeKits rewinds the table files to just before the bad batch —
//! the device-level equivalent of `RESTORE DATABASE ... STOP AT`.
//!
//! Run with: `cargo run --release --example db_point_in_time`

use almanac::core::{SsdConfig, TimeSsd};
use almanac::flash::Geometry;
use almanac::fs::{AlmanacFs, FileId, FsMode};
use almanac::kits::{FileMap, TimeKits};
use almanac::workloads::oltp::{OltpEngine, OltpMix};

fn table_bytes(fs: &mut AlmanacFs<TimeSsd>, fid: FileId, t: u64) -> Vec<u8> {
    let size = fs.inode(fid).expect("inode").size;
    fs.read(fid, 0, size, t).expect("read").0
}

fn main() {
    let ssd = TimeSsd::new(SsdConfig::new(Geometry::bench()));
    let mut fs = AlmanacFs::new(ssd, FsMode::Ext4NoJournal).expect("format");

    // Load two tables and run a healthy batch of TPCB transactions.
    let (mut engine, t0) = OltpEngine::setup(&mut fs, 2, 32, 99, 0).expect("setup");
    let healthy = engine.run(OltpMix::Tpcb, 150, t0).expect("healthy batch");
    println!(
        "healthy batch: {} transactions at {:.0} tps (virtual)",
        healthy.transactions,
        healthy.tps()
    );
    let checkpoint = t0 + healthy.elapsed;

    // Snapshot the table content at the checkpoint for verification.
    let table1 = FileId(1);
    let before = table_bytes(&mut fs, table1, checkpoint);

    // The bad batch: more transactions that corrupt rows.
    let (mut engine, _) = OltpEngine::attach(&mut fs, 2, 77).expect("attach");
    let bad = engine
        .run(OltpMix::Tpcc, 80, checkpoint + 1)
        .expect("bad batch");
    let after_bad = checkpoint + 1 + bad.elapsed;
    let corrupted = table_bytes(&mut fs, table1, after_bad);
    println!("bad batch applied: table changed = {}", corrupted != before);

    // Rewind every table file to the checkpoint.
    let mut restored_pages = 0;
    for fid in fs.files() {
        let (name, lpas, size) = fs.file_map(fid).expect("map");
        let map = FileMap { name, lpas, size };
        let mut kits = TimeKits::new(fs.device_mut());
        let out = kits
            .restore_file(&map, checkpoint, after_bad + 1)
            .expect("restore");
        restored_pages += out.restored.len() + out.erased.len();
    }
    println!("rewound all tables: {restored_pages} pages restored");

    let recovered = table_bytes(&mut fs, table1, after_bad + 2_000_000_000);
    println!(
        "table identical to the checkpoint again: {}",
        recovered == before
    );
}
