//! Device-lifetime experiment (the §5.2.2 endurance angle, beyond WA).
//!
//! Endurance budget is erases: a device that erases more blocks per host
//! write dies proportionally sooner. Both devices absorb the same overwrite
//! workload; the ratio of consumed erases (and of flash programs) is the
//! lifetime cost of retention — the claim behind Figure 7.

use almanac_core::{Ftl, RegularSsd, Retention, SsdConfig, SsdDevice, SsdReadOps, TimeSsd};
use almanac_flash::{FlashStats, Geometry, Lpa, PageData};

use crate::report::CellRecord;
use crate::{fast_mode, print_table};

/// One device's endurance bill for the shared workload.
#[derive(Debug, Clone)]
pub struct Row {
    /// Device label as printed.
    pub device: &'static str,
    /// Host page writes absorbed.
    pub writes: u64,
    /// Flash counters after the workload (erases, programs).
    pub flash: FlashStats,
    /// Write amplification.
    pub wa: f64,
}

fn run_workload<R: Retention>(device: &'static str, mut ssd: Ftl<R>, writes: u64) -> Row {
    let set = ssd.exported_pages() / 4;
    let mut now = 0u64;
    for i in 0..writes {
        let lpa = Lpa(i % set);
        let c = ssd
            .write(
                lpa,
                PageData::Synthetic {
                    seed: lpa.0,
                    version: i,
                },
                now,
            )
            .expect("workload fits");
        now = c.finish + 1000;
    }
    Row {
        device,
        writes,
        flash: *ssd.flash().stats(),
        wa: ssd.stats().write_amplification(),
    }
}

/// Runs the experiment at the mode's scale. The overwrite stream is a fixed
/// round-robin, so the seed has nothing to vary.
pub fn run(_seed: u64) -> Vec<Row> {
    run_writes(if fast_mode() { 30_000 } else { 120_000 })
}

/// Absorbs `writes` round-robin overwrites on both devices; the regular SSD
/// (the lifetime baseline) comes first.
fn run_writes(writes: u64) -> Vec<Row> {
    let cfg = SsdConfig::new(Geometry::medium_test()).with_min_retention(0);
    let mut cfg_t = cfg.clone();
    cfg_t.n_fixed = 256;
    vec![
        run_workload("Regular SSD", RegularSsd::new(cfg), writes),
        run_workload("TimeSSD", TimeSsd::new(cfg_t), writes),
    ]
}

/// Prints the endurance table and the lifetime-cost summary line.
pub fn print(rows: &[Row]) {
    let writes = rows[0].writes;
    let base = rows[0].flash.erases as f64;
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.device.to_string(),
                r.flash.erases.to_string(),
                r.flash.programs.to_string(),
                format!("{:.3}", r.wa),
                format!("{:.2}x", base / r.flash.erases.max(1) as f64),
            ]
        })
        .collect();
    print_table(
        &format!("Endurance consumed by {writes} host page writes"),
        &["device", "erases", "programs", "WA", "relative lifetime"],
        &body,
    );
    println!(
        "retention costs ≈{:.0}% lifetime at this workload (paper frames the same \
         trade-off through Figure 7's write amplification)",
        (1.0 - base / rows[1].flash.erases.max(1) as f64) * 100.0
    );
}

/// Per-device cell records for the machine-readable report.
pub fn cells(rows: &[Row]) -> Vec<CellRecord> {
    rows.iter()
        .map(|r| CellRecord {
            id: format!("lifetime/{}", r.device),
            wall_ms: 0.0,
            metrics: vec![
                ("erases", r.flash.erases as f64),
                ("programs", r.flash.programs as f64),
                ("write_amplification", r.wa),
            ],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retention_is_paid_for_in_erases() {
        let rows = run_writes(8_000);
        let (regular, timessd) = (&rows[0], &rows[1]);
        assert_eq!(regular.flash.programs, 8_000, "the baseline keeps nothing");
        assert!(timessd.flash.erases > regular.flash.erases);
        assert!(timessd.wa > regular.wa);
    }
}
