//! Figure 11: reverting OS source files to previous versions with 1, 2, and
//! 4 recovery threads.
//!
//! Mirrors §5.5.2: replay kernel commits at 100 patches/minute against a
//! synthetic source tree on TimeSSD, then revert each of the ten named files
//! to its state one minute before the end of the replay, measuring recovery
//! time at each thread count.

use almanac_flash::{Nanos, MINUTE_NS};
use almanac_fs::{AlmanacFs, FsMode};
use almanac_kits::{FileMap, TimeKits};
use almanac_workloads::commits::{SourceTree, FIG11_FILES};

use crate::{fast_mode, make_timessd, print_table};

/// Per-file recovery times at each thread count.
#[derive(Debug, Clone)]
pub struct Row {
    /// File name.
    pub file: String,
    /// `(threads, recovery time ns)`.
    pub times: Vec<(u32, Nanos)>,
}

/// Runs the commit replay and the per-file reverts.
pub fn run(seed: u64) -> Vec<Row> {
    let commits = if fast_mode() { 200 } else { 1000 };
    let mut fs = AlmanacFs::new(make_timessd(), FsMode::Ext4NoJournal).unwrap();
    let (mut tree, t0) = SourceTree::create(&mut fs, 30, seed, 0).unwrap();
    let applied = tree.replay_commits(&mut fs, commits, 100, t0 + 1).unwrap();
    let end = applied.last().expect("commits applied").at;
    let target = end.saturating_sub(MINUTE_NS);

    let mut rows = Vec::new();
    for name in FIG11_FILES {
        let fid = tree.file(name).expect("figure-11 file exists");
        let (fname, lpas, size) = fs.file_map(fid).unwrap();
        let map = FileMap {
            name: fname,
            lpas,
            size,
        };
        let mut kits = TimeKits::new(fs.device_mut());
        let times = [1u32, 2, 4]
            .iter()
            .map(|&t| (t, kits.restore_cost_estimate(&map.lpas, target, t)))
            .collect();
        // Perform one real revert to validate content.
        kits.restore_file(&map, target, end + MINUTE_NS).unwrap();
        rows.push(Row {
            file: name.to_string(),
            times,
        });
    }
    rows
}

/// Prints the Figure 11 table.
pub fn print(rows: &[Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.file.clone()];
            for (_, ns) in &r.times {
                row.push(format!("{:.1}", *ns as f64 / 1e6));
            }
            row
        })
        .collect();
    print_table(
        "Figure 11: file reversion time (ms) vs recovery threads",
        &["file", "1 thread", "2 threads", "4 threads"],
        &table,
    );
}
