//! Flush-barrier latency A/B: the controller-side barrier cost model
//! (per-flushed-page program overhead plus a fixed fence cost) against a
//! zero-cost baseline on the same fsync-heavy workload.
//!
//! The workload interleaves writes and trims with a tombstone journal
//! deferred entirely to barriers (`trim_journal_watermark` 0) over a small
//! Bloom-filter capacity, so the number of pending delta pages at each
//! barrier grows with the ops issued between barriers. The figure reports,
//! per barrier cadence, the pages each barrier drained, the mean barrier
//! response under the default cost model, the zero-cost baseline, and the
//! delta the cost knobs account for.

use almanac_bloom::ChainConfig;
use almanac_core::{SsdConfig, SsdReadOps, TimeSsd};
use almanac_flash::{Geometry, SEC_NS, US_NS};

use crate::print_table;
use crate::report::CellRecord;

/// One barrier cadence's costs for the shared workload.
#[derive(Debug, Clone)]
pub struct Row {
    /// Host ops issued between consecutive flush barriers.
    pub batch: u64,
    /// Flush barriers issued.
    pub host_flushes: u64,
    /// Delta pages drained by those barriers (costed run).
    pub flush_pages: u64,
    /// Mean pages drained per barrier.
    pub pages_per_flush: f64,
    /// Mean barrier response under the default cost model, µs.
    pub avg_flush_us: f64,
    /// Mean barrier response with both cost knobs zeroed, µs.
    pub avg_flush_us_free: f64,
    /// What the cost knobs add per barrier, µs.
    pub delta_us: f64,
}

/// Identical op stream for both cost modes
/// ([`trim_heavy_stream`](crate::trimwa::trim_heavy_stream)): every third op
/// trims a mapped page (tombstones into the deferred journal), the rest
/// write; a flush barrier lands every `batch` ops. Gaps keep each op
/// complete before the next arrival, so the barrier pays for drained pages,
/// not the fence to in-flight writes.
fn run_mode(batch: u64, zero_cost: bool, ops: u64, seed: u64) -> (f64, u64, u64) {
    let mut cfg = SsdConfig::new(Geometry::medium_test())
        .with_min_retention(SEC_NS)
        .with_bloom(ChainConfig {
            bits_per_filter: 1 << 12,
            hashes: 4,
            capacity: 32,
        })
        .with_trim_journal_watermark(0);
    if zero_cost {
        cfg = cfg.with_flush_costs(0, 0);
    }
    let mut ssd = TimeSsd::new(cfg);
    crate::trimwa::trim_heavy_stream(&mut ssd, ops, batch, seed);

    let s = ssd.stats();
    (
        s.flush_lat.avg_ns() / US_NS as f64,
        s.host_flushes,
        s.flush_pages,
    )
}

fn run_batch(batch: u64, ops: u64, seed: u64) -> Row {
    let (avg_flush_us, host_flushes, flush_pages) = run_mode(batch, false, ops, seed);
    let (avg_flush_us_free, _, _) = run_mode(batch, true, ops, seed);
    Row {
        batch,
        host_flushes,
        flush_pages,
        pages_per_flush: flush_pages as f64 / host_flushes.max(1) as f64,
        avg_flush_us,
        avg_flush_us_free,
        delta_us: avg_flush_us - avg_flush_us_free,
    }
}

/// Runs the barrier-cadence sweep, each cadence in both cost modes.
pub fn run(seed: u64) -> Vec<Row> {
    let ops = if crate::fast_mode() { 3_000 } else { 12_000 };
    [8u64, 32, 128]
        .iter()
        .map(|&batch| run_batch(batch, ops, seed))
        .collect()
}

/// Prints the comparison table.
pub fn print(rows: &[Row]) {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.batch.to_string(),
                r.host_flushes.to_string(),
                r.flush_pages.to_string(),
                format!("{:.2}", r.pages_per_flush),
                format!("{:.1}", r.avg_flush_us),
                format!("{:.1}", r.avg_flush_us_free),
                format!("{:.1}", r.delta_us),
            ]
        })
        .collect();
    print_table(
        "Flush-barrier latency (default cost model vs zero-cost baseline)",
        &[
            "ops/barrier",
            "flushes",
            "pages drained",
            "pages/flush",
            "avg flush µs",
            "zero-cost µs",
            "knob delta µs",
        ],
        &body,
    );
}

/// Per-cadence cell records for the machine-readable report.
pub fn cells(rows: &[Row]) -> Vec<CellRecord> {
    rows.iter()
        .map(|r| CellRecord {
            id: format!("barrierlat/batch{}", r.batch),
            wall_ms: 0.0,
            metrics: vec![
                ("host_flushes", r.host_flushes as f64),
                ("flush_pages", r.flush_pages as f64),
                ("pages_per_flush", r.pages_per_flush),
                ("avg_flush_us", r.avg_flush_us),
                ("avg_flush_us_free", r.avg_flush_us_free),
                ("delta_us", r.delta_us),
            ],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_scales_with_drained_pages() {
        let small = run_batch(8, 2_000, 42);
        let large = run_batch(128, 2_000, 42);
        assert!(small.host_flushes > large.host_flushes);
        // More ops between barriers leaves more pending delta pages for
        // each barrier to drain...
        assert!(
            large.pages_per_flush > small.pages_per_flush,
            "pages/flush must grow with the barrier cadence \
             (batch 8: {:.2}, batch 128: {:.2})",
            small.pages_per_flush,
            large.pages_per_flush
        );
        // ...and the cost model charges for them: every cadence pays more
        // than its zero-cost twin, by an amount that grows with the pages.
        for r in [&small, &large] {
            assert!(
                r.avg_flush_us > r.avg_flush_us_free,
                "costed barrier must beat zero-cost (batch {}: {:.1} vs {:.1})",
                r.batch,
                r.avg_flush_us,
                r.avg_flush_us_free
            );
        }
        assert!(
            large.delta_us > small.delta_us,
            "knob delta must grow with pages/flush \
             (batch 8: {:.1} µs, batch 128: {:.1} µs)",
            small.delta_us,
            large.delta_us
        );
    }
}
