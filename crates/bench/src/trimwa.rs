//! Trim-journal write amplification A/B: batched tombstone journalling
//! (the default watermark) against strict per-trim flushing (watermark 1)
//! on the same trim-heavy, fsync-punctuated workload.
//!
//! Per-trim flushing programs one delta page for every acknowledged trim;
//! batching coalesces tombstones in the active delta buffer and lets the
//! watermark or the host flush barrier amortise the program. The figure
//! reports the journal programs each mode paid for identical host traffic.

use almanac_core::{SsdConfig, SsdDevice, SsdReadOps, TimeSsd};
use almanac_flash::{Geometry, Lpa, PageData, MS_NS, SEC_NS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::print_table;
use crate::report::CellRecord;

/// One journalling mode's cost for the shared workload.
#[derive(Debug, Clone)]
pub struct Row {
    /// Mode label (`"per-trim"` / `"batched"`).
    pub mode: &'static str,
    /// The `trim_journal_watermark` the mode ran with.
    pub watermark: u32,
    /// Host trims acknowledged.
    pub user_trims: u64,
    /// Host flush barriers issued.
    pub host_flushes: u64,
    /// Delta-page programs (tombstone journal + compression flushes).
    pub delta_programs: u64,
    /// Delta programs per acknowledged trim.
    pub programs_per_trim: f64,
}

/// Deterministic trim-heavy workload: interleaved writes and trims over a
/// hot set (half the exported space), with a flush barrier every
/// `flush_every` host ops (an fsync-minded host). Gaps keep each op complete
/// before the next arrives. Shared with [`crate::barrierlat`].
pub(crate) fn trim_heavy_stream(ssd: &mut TimeSsd, ops: u64, flush_every: u64, seed: u64) {
    let domain = ssd.exported_pages() / 2;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = MS_NS;
    for i in 0..ops {
        let lpa = Lpa(rng.gen_range(0..domain));
        let c = if i % 3 == 2 && ssd.is_mapped(lpa) {
            // Every third op trims a mapped page: tombstone traffic.
            ssd.trim(lpa, now).expect("trim")
        } else {
            let data = PageData::Synthetic {
                seed: lpa.0,
                version: i,
            };
            ssd.write(lpa, data, now).expect("write")
        };
        now = c.finish + MS_NS / 4;
        if i % flush_every == flush_every - 1 {
            now = ssd.flush(now).expect("flush").finish + MS_NS / 4;
        }
    }
}

/// Runs the shared stream (identical for every watermark) under one
/// journalling mode.
fn run_mode(watermark: u32, ops: u64, seed: u64) -> Row {
    // A short retention window keeps sustained overwrites from pinning GC
    // on the small test geometry; it does not affect journal accounting.
    let cfg = SsdConfig::new(Geometry::medium_test())
        .with_min_retention(SEC_NS)
        .with_trim_journal_watermark(watermark);
    let mut ssd = TimeSsd::new(cfg);
    trim_heavy_stream(&mut ssd, ops, 128, seed);

    let s = ssd.stats();
    Row {
        mode: if watermark == 1 {
            "per-trim"
        } else {
            "batched"
        },
        watermark,
        user_trims: s.user_trims,
        host_flushes: s.host_flushes,
        delta_programs: s.delta_programs,
        programs_per_trim: s.delta_programs as f64 / s.user_trims.max(1) as f64,
    }
}

/// Runs the A/B pair: strict per-trim flushing vs the batched default.
pub fn run(seed: u64) -> Vec<Row> {
    let ops = if crate::fast_mode() { 6_000 } else { 30_000 };
    vec![run_mode(1, ops, seed), run_mode(8, ops, seed)]
}

/// Prints the comparison table.
pub fn print(rows: &[Row]) {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                r.watermark.to_string(),
                r.user_trims.to_string(),
                r.host_flushes.to_string(),
                r.delta_programs.to_string(),
                format!("{:.3}", r.programs_per_trim),
            ]
        })
        .collect();
    print_table(
        "Trim-journal write amplification (per-trim vs batched tombstones)",
        &[
            "mode",
            "watermark",
            "trims",
            "flushes",
            "delta programs",
            "programs/trim",
        ],
        &body,
    );
}

/// Per-mode cell records for the machine-readable report.
pub fn cells(rows: &[Row]) -> Vec<CellRecord> {
    rows.iter()
        .map(|r| CellRecord {
            id: format!("trimwa/{}", r.mode),
            wall_ms: 0.0,
            metrics: vec![
                ("user_trims", r.user_trims as f64),
                ("host_flushes", r.host_flushes as f64),
                ("delta_programs", r.delta_programs as f64),
                ("programs_per_trim", r.programs_per_trim),
            ],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_cuts_journal_programs() {
        let strict = run_mode(1, 3_000, 42);
        let batched = run_mode(8, 3_000, 42);
        // Identical host traffic either way.
        assert_eq!(strict.user_trims, batched.user_trims);
        assert!(strict.user_trims > 100, "workload must be trim-heavy");
        // The whole point: batching pays measurably fewer delta programs.
        assert!(
            batched.delta_programs * 2 < strict.delta_programs,
            "batched journalling should at least halve delta programs \
             (strict {}, batched {})",
            strict.delta_programs,
            batched.delta_programs
        );
    }
}
