//! Shard scaling: ranged address queries partitioned `amt_shards` ways, at
//! shards ∈ {1, 2, 4, 8} and host worker counts 1–8.
//!
//! The same mixed write/trim history is replayed onto one device per shard
//! count (the tables are flat, so content cannot depend on it), then the full-span
//! [`AddrQuery`] workload runs once and is scheduled at each worker count.
//! The figure reports the deterministic virtual makespan from
//! [`AddrQueryOutcome::makespan`](almanac_kits::AddrQueryOutcome::makespan):
//! worker `w` drains shards `w, w+T, …` serially, so one shard can never
//! parallelise, while 4 shards on 4 workers approach a 4× split of the
//! retrieval work. Hits and total retrieval cost are shard-invariant — only
//! the division of labour changes.

use almanac_core::{SsdConfig, SsdDevice, SsdReadOps, TimeSsd};
use almanac_flash::{Geometry, Lpa, PageData, SEC_NS};
use almanac_kits::AddrQuery;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::print_table;
use crate::report::CellRecord;

/// Worker counts swept for every shard count.
pub const THREADS: [u32; 5] = [1, 2, 4, 6, 8];

/// One shard count's measurements for the shared query workload.
#[derive(Debug, Clone)]
pub struct Row {
    /// Scan partition width (`amt_shards`).
    pub shards: u32,
    /// Versions returned by the query workload (shard-invariant).
    pub hits: u64,
    /// Virtual query makespan at each entry of [`THREADS`], ns.
    pub makespan_ns: [u64; THREADS.len()],
}

/// Replays the deterministic mixed history onto a fresh device with the
/// given shard count: multi-version writes over a hot span with occasional
/// trims, identical for every shard count.
fn build_device(shards: u32, ops: u64, seed: u64) -> TimeSsd {
    // A 1 s retention window keeps GC able to reclaim under the dense
    // multi-version stream; retention length is irrelevant to the scaling
    // question and identical for every shard count.
    let cfg = SsdConfig::new(Geometry::medium_test())
        .with_amt_shards(shards)
        .with_min_retention(SEC_NS);
    let mut ssd = TimeSsd::new(cfg);
    let span = ssd.exported_pages().min(1024);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = 0u64;
    for i in 0..ops {
        let r: u64 = rng.gen();
        let lpa = Lpa(r % span);
        now += 700_000;
        if r.is_multiple_of(23) {
            ssd.trim(lpa, now).expect("trim");
        } else {
            let data = PageData::Synthetic {
                seed: lpa.0,
                version: i,
            };
            ssd.write(lpa, data, now).expect("write");
        }
    }
    ssd
}

fn run_shards(shards: u32, ops: u64, seed: u64) -> Row {
    let ssd = build_device(shards, ops, seed);
    let span = ssd.exported_pages().min(1024);
    let end = ops * 700_000;
    // The ranged workload: every retained version over the span, plus a
    // mid-history time window — the paper's audit-style sweeps.
    let all = AddrQuery::new(&ssd, Lpa(0), span)
        .all_versions()
        .run()
        .expect("all-versions query");
    let windowed = AddrQuery::new(&ssd, Lpa(0), span)
        .range(end / 4, 3 * end / 4)
        .run()
        .expect("time-windowed query");
    Row {
        shards,
        hits: (all.hits.len() + windowed.hits.len()) as u64,
        makespan_ns: THREADS.map(|t| all.makespan(t) + windowed.makespan(t)),
    }
}

/// Runs the sweep over shards ∈ {1, 2, 4, 8} on the shared history.
pub fn run(seed: u64) -> Vec<Row> {
    let ops = if crate::fast_mode() { 3_000 } else { 12_000 };
    [1, 2, 4, 8]
        .into_iter()
        .map(|shards| run_shards(shards, ops, seed))
        .collect()
}

/// Prints the scaling table: one row per shard count, makespan per worker
/// count, and the speedup over the unsharded serial baseline.
pub fn print(rows: &[Row]) {
    let base = rows.first().map(|r| r.makespan_ns[0] as f64).unwrap_or(1.0);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![r.shards.to_string(), r.hits.to_string()];
            cells.extend(
                r.makespan_ns
                    .iter()
                    .map(|m| format!("{:.2}", *m as f64 / 1e6)),
            );
            let best = *r.makespan_ns.iter().min().unwrap_or(&1) as f64;
            cells.push(format!("{:.2}x", base / best.max(1.0)));
            cells
        })
        .collect();
    print_table(
        "Shard scaling (full-span address queries, virtual makespan per worker count)",
        &[
            "shards",
            "hits",
            "T1 ms",
            "T2 ms",
            "T4 ms",
            "T6 ms",
            "T8 ms",
            "best speedup",
        ],
        &body,
    );
}

/// Per-cell records for the machine-readable report.
pub fn cells(rows: &[Row]) -> Vec<CellRecord> {
    rows.iter()
        .flat_map(|r| {
            THREADS.iter().enumerate().map(move |(i, t)| CellRecord {
                id: format!("shardscale/s{}t{}", r.shards, t),
                wall_ms: 0.0,
                metrics: vec![
                    ("hits", r.hits as f64),
                    ("makespan_ns", r.makespan_ns[i] as f64),
                ],
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_shards_four_threads_beat_one_shard_by_half() {
        let rows: Vec<Row> = [1, 4]
            .into_iter()
            .map(|s| run_shards(s, 2_500, 42))
            .collect();
        let (one, four) = (&rows[0], &rows[1]);
        assert_eq!(one.hits, four.hits, "sharding must not change results");
        // One shard cannot parallelise: every worker count costs the same.
        assert!(one.makespan_ns.iter().all(|&m| m == one.makespan_ns[0]));
        // Work conservation: serial cost is shard-invariant.
        assert_eq!(one.makespan_ns[0], four.makespan_ns[0]);
        // The headline: 4 shards on 4 workers is at least 1.5x faster than
        // the unsharded query path (THREADS[2] == 4 workers).
        let t4 = four.makespan_ns[2];
        assert!(
            t4 * 3 <= one.makespan_ns[0] * 2,
            "4 shards / 4 workers {} !>= 1.5x over 1 shard {}",
            t4,
            one.makespan_ns[0]
        );
    }
}
