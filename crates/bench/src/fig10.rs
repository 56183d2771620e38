//! Figure 10: recovering ransomware-encrypted data — TimeSSD vs FlashGuard.
//!
//! Both devices suffer the same scripted attack; recovery rolls every victim
//! page back to its pre-attack version using the device's channel
//! parallelism. FlashGuard retains raw pages (read + write back); TimeSSD
//! may have delta-compressed the old versions, paying a reference read and a
//! decompression per compressed page — the ~14% average gap the paper
//! reports.

use almanac_core::SsdDevice;
use almanac_flash::{Lpa, Nanos, PageData, MINUTE_NS, SEC_NS};
use almanac_fs::{AlmanacFs, FsMode};
use almanac_kits::TimeKits;
use almanac_workloads::ransomware::{attack, families, Family};

use crate::{engine, print_table};

/// Device fill level before the attack (the paper warms its SSD until GC
/// triggers before every experiment, §5.1).
const WARM_USAGE: f64 = 0.5;

/// Victim-set scale factor over the base family volumes.
fn victim_scale() -> u64 {
    if crate::fast_mode() {
        1
    } else {
        3
    }
}

/// Idle settle time between the ransom note and the recovery run, during
/// which TimeSSD's background compression condenses the retained plaintext.
fn settle<D: SsdDevice>(dev: &mut D, from: Nanos) -> Nanos {
    // Each idle period lets the firmware compress one victim block (§3.6),
    // so a few hundred quiet minutes condense the whole retained set.
    let mut t = from;
    for _ in 0..400 {
        t += 2 * MINUTE_NS;
        let _ = dev.write(Lpa(0), PageData::Zeros, t);
    }
    t
}

/// Recovery times for one family.
#[derive(Debug, Clone)]
pub struct Row {
    /// Family name.
    pub family: &'static str,
    /// FlashGuard recovery time, virtual ns.
    pub flashguard_ns: Nanos,
    /// TimeSSD recovery time, virtual ns.
    pub timessd_ns: Nanos,
    /// Pages actually restored on TimeSSD (sanity signal).
    pub restored_pages: usize,
}

/// Host threads recovery uses — the device's channel count, since the
/// recovery tool exploits SSD internal parallelism (§3.9).
const RECOVERY_THREADS: u32 = 8;

/// Runs one family against TimeSSD, returning `(recovery time, pages)`.
pub fn timessd_recovery(family: Family, seed: u64) -> (Nanos, usize) {
    let (dev, warm_end) = engine::warm_cache().timessd(WARM_USAGE);
    let mut fs = AlmanacFs::new(dev, FsMode::Ext4NoJournal).unwrap();
    let mut fam = family;
    fam.victim_mib *= victim_scale();
    let report = attack(&mut fs, fam, seed, warm_end + SEC_NS).unwrap();
    let victim_pages: Vec<Lpa> = report
        .victims
        .iter()
        .flat_map(|v| v.lpas.iter().copied())
        .collect();
    let ssd = fs.device_mut();
    let recover_at = settle(ssd, report.attack_end);
    let mut kits = TimeKits::new(ssd).with_threads(RECOVERY_THREADS);
    let estimate =
        kits.restore_cost_estimate(&victim_pages, report.pre_attack_time, RECOVERY_THREADS);
    let out = kits
        .roll_back_set(&victim_pages, report.pre_attack_time, recover_at)
        .unwrap();
    assert!(
        out.restored.len() >= victim_pages.len() * 9 / 10,
        "{}: only {}/{} victim pages recovered",
        fam.name,
        out.restored.len(),
        victim_pages.len()
    );
    (estimate, out.restored.len())
}

/// Runs one family against FlashGuard, returning the recovery time.
pub fn flashguard_recovery(family: Family, seed: u64) -> Nanos {
    let (dev, warm_end) = engine::warm_cache().flashguard(WARM_USAGE);
    let mut fs = AlmanacFs::new(dev, FsMode::Ext4NoJournal).unwrap();
    let mut fam = family;
    fam.victim_mib *= victim_scale();
    let report = attack(&mut fs, fam, seed, warm_end + SEC_NS).unwrap();
    let ssd = fs.device_mut();
    let lat = *ssd.flash().latency();
    settle(ssd, report.attack_end);
    // Locate each victim page's retained pre-attack version.
    let mut work = Vec::new();
    for victim in &report.victims {
        for &lpa in &victim.lpas {
            let versions = ssd.retained_versions(lpa);
            if let Some((_, ppa)) = versions
                .iter()
                .find(|(ts, _)| *ts <= report.pre_attack_time)
            {
                work.push((lpa, *ppa));
            }
        }
    }
    // Parallel makespan: raw read + write-back per page.
    let threads = RECOVERY_THREADS as usize;
    let mut worker = vec![0u64; threads];
    for (i, _) in work.iter().enumerate() {
        worker[i % threads] += lat.read_total() + lat.program_total();
    }
    let estimate = worker.into_iter().max().unwrap_or(0);
    // Perform the restore so the comparison exercises real state.
    let mut at = report.attack_end;
    for (lpa, ppa) in work {
        let data = ssd.retained_content(ppa).unwrap();
        let c = ssd.write(lpa, data, at).unwrap();
        at = c.finish;
    }
    estimate
}

/// Runs all 13 families on both devices.
pub fn run(seed: u64) -> Vec<Row> {
    families()
        .into_iter()
        .map(|f| {
            let flashguard_ns = flashguard_recovery(f, seed);
            let (timessd_ns, restored_pages) = timessd_recovery(f, seed);
            Row {
                family: f.name,
                flashguard_ns,
                timessd_ns,
                restored_pages,
            }
        })
        .collect()
}

/// Prints the Figure 10 table.
pub fn print(rows: &[Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let over = if r.flashguard_ns > 0 {
                (r.timessd_ns as f64 / r.flashguard_ns as f64 - 1.0) * 100.0
            } else {
                0.0
            };
            vec![
                r.family.to_string(),
                format!("{:.2}", r.flashguard_ns as f64 / 1e9),
                format!("{:.2}", r.timessd_ns as f64 / 1e9),
                format!("{over:+.1}%"),
            ]
        })
        .collect();
    print_table(
        "Figure 10: ransomware data recovery time (s)",
        &["family", "FlashGuard", "TimeSSD", "overhead"],
        &table,
    );
    let mean: f64 = rows
        .iter()
        .filter(|r| r.flashguard_ns > 0)
        .map(|r| (r.timessd_ns as f64 / r.flashguard_ns as f64 - 1.0) * 100.0)
        .sum::<f64>()
        / rows.len() as f64;
    println!("mean TimeSSD recovery overhead vs FlashGuard: {mean:+.1}%");
}
