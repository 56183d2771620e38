//! Case study: reverting source files to earlier versions (paper §5.5.2).
//!
//! Replays a stream of synthetic kernel commits against a source tree on
//! TimeSSD, then reverts `mmap.c` to its state before the commits — the
//! "git revert without git" the paper demonstrates.
//!
//! Run with: `cargo run --example file_time_travel`

use almanac::core::{SsdConfig, TimeSsd};
use almanac::flash::Geometry;
use almanac::fs::{AlmanacFs, FsMode};
use almanac::kits::{FileMap, TimeKits};
use almanac::workloads::commits::{SourceTree, FIG11_FILES};

fn main() {
    let ssd = TimeSsd::new(SsdConfig::new(Geometry::bench()));
    let mut fs = AlmanacFs::new(ssd, FsMode::Ext4NoJournal).expect("format");

    // A source tree with the ten Figure-11 files plus filler.
    let (mut tree, t0) = SourceTree::create(&mut fs, 20, 7, 0).expect("tree");
    println!("created a source tree of {} files", tree.files.len());

    // Capture mmap.c before any commits land.
    let mmap = tree.file("mmap.c").expect("mmap.c");
    let size = fs.inode(mmap).expect("inode").size;
    let (original, t1) = fs.read(mmap, 0, size, t0).expect("read");

    // Replay 300 commits at 100 per virtual minute.
    let commits = tree
        .replay_commits(&mut fs, 300, 100, t1 + 1)
        .expect("replay");
    let end = commits.last().expect("commits").at;
    let touched = commits
        .iter()
        .filter(|c| c.files.iter().any(|f| f == "mmap.c"))
        .count();
    println!(
        "replayed {} commits; {} of them touched mmap.c",
        commits.len(),
        touched
    );

    let (mutated, _) = fs.read(mmap, 0, size, end).expect("read");
    println!("mmap.c changed by the commits: {}", mutated != original);

    // Revert mmap.c (and, for show, every Figure-11 file) to the pre-commit
    // state using the device's time-travel index.
    let (name, lpas, fsize) = fs.file_map(mmap).expect("map");
    let map = FileMap {
        name,
        lpas,
        size: fsize,
    };
    let mut kits = TimeKits::new(fs.device_mut());
    let cost = kits.restore_cost_estimate(&map.lpas, t1, 4);
    let out = kits.restore_file(&map, t1, end + 1).expect("revert");
    println!(
        "reverted mmap.c: {} pages restored, estimated recovery time {:.1} ms (4 threads)",
        out.restored.len(),
        cost as f64 / 1e6
    );

    let (reverted, _) = fs.read(mmap, 0, size, end + 2_000_000_000).expect("read");
    println!(
        "mmap.c identical to the original again: {}",
        reverted == original
    );
    println!("(the other Figure-11 files: {:?} …)", &FIG11_FILES[1..4]);
}
