//! Queue-depth scaling: the same dense mixed workload replayed through the
//! NVMe multi-slot driver at QD ∈ {1, 4, 16, 32}.
//!
//! At QD 1 the host waits for every completion before submitting the next
//! command, so channel parallelism sits idle; deeper queues keep more
//! programs in flight across chips, shrinking makespan while completions
//! surface out of submission order. The figure reports makespan, response
//! percentiles, and the out-of-order completion count per depth.

use almanac_core::{SsdConfig, TimeSsd};
use almanac_flash::Geometry;
use almanac_trace::{replay_qd, Trace, TraceOp, TraceRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::print_table;
use crate::report::CellRecord;

/// One queue depth's measurements for the shared workload.
#[derive(Debug, Clone)]
pub struct Row {
    /// Queue depth the host kept outstanding.
    pub qd: usize,
    /// Commands completed.
    pub ops: u64,
    /// Virtual time of the last completion, ns.
    pub makespan_ns: u64,
    /// Mean response (submission to posted completion), ns.
    pub avg_response_ns: f64,
    /// 99th-percentile response, ns.
    pub p99_response_ns: u64,
    /// Completions that overtook an earlier-submitted command.
    pub ooo_completions: u64,
    /// Highest simultaneous outstanding count observed.
    pub peak_outstanding: usize,
}

/// Deterministic dense workload: 70% writes over a hot set, 30% reads,
/// arrivals far closer together than the device service time so pacing is
/// completion-bound and queue depth decides how much parallelism the host
/// can exploit. Identical records for every depth.
fn workload(ops: u64, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let records: Vec<TraceRecord> = (0..ops)
        .map(|i| {
            let r: u64 = rng.gen();
            if r % 10 < 7 {
                TraceRecord::new(i * 1_000, TraceOp::Write, r % 2048, 1)
            } else {
                TraceRecord::new(i * 1_000, TraceOp::Read, 4096 + r % 2048, 1)
            }
        })
        .collect();
    Trace::new("qdscale", records)
}

fn run_depth(trace: &Trace, qd: usize) -> Row {
    let ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
    let r = replay_qd(trace, ssd, qd).expect("qd replay");
    assert!(!r.stalled, "qdscale workload must not stall");
    Row {
        qd,
        ops: r.ops,
        makespan_ns: r.makespan_ns,
        avg_response_ns: r.avg_response_ns,
        p99_response_ns: r.p99_response_ns,
        ooo_completions: r.ooo_completions,
        peak_outstanding: r.peak_outstanding,
    }
}

/// Runs the sweep over QD ∈ {1, 4, 16, 32} on the shared workload.
pub fn run(seed: u64) -> Vec<Row> {
    let ops = if crate::fast_mode() { 4_000 } else { 16_000 };
    let trace = workload(ops, seed);
    [1, 4, 16, 32]
        .into_iter()
        .map(|qd| run_depth(&trace, qd))
        .collect()
}

/// Prints the scaling table.
pub fn print(rows: &[Row]) {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.qd.to_string(),
                r.ops.to_string(),
                format!("{:.2}", r.makespan_ns as f64 / 1e6),
                format!("{:.1}", r.avg_response_ns / 1e3),
                format!("{:.1}", r.p99_response_ns as f64 / 1e3),
                r.ooo_completions.to_string(),
                r.peak_outstanding.to_string(),
            ]
        })
        .collect();
    print_table(
        "Queue-depth scaling (NVMe multi-slot replay, same trace per depth)",
        &[
            "QD",
            "ops",
            "makespan ms",
            "avg resp us",
            "p99 resp us",
            "ooo",
            "peak",
        ],
        &body,
    );
}

/// Per-depth cell records for the machine-readable report.
pub fn cells(rows: &[Row]) -> Vec<CellRecord> {
    rows.iter()
        .map(|r| CellRecord {
            id: format!("qdscale/qd{}", r.qd),
            wall_ms: 0.0,
            metrics: vec![
                ("ops", r.ops as f64),
                ("makespan_ns", r.makespan_ns as f64),
                ("avg_response_ns", r.avg_response_ns),
                ("p99_response_ns", r.p99_response_ns as f64),
                ("ooo_completions", r.ooo_completions as f64),
                ("peak_outstanding", r.peak_outstanding as f64),
            ],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deeper_queues_raise_throughput() {
        let trace = workload(2_000, 42);
        let r1 = run_depth(&trace, 1);
        let r16 = run_depth(&trace, 16);
        assert_eq!(r1.ops, r16.ops, "identical host traffic per depth");
        // The headline property: QD 16 finishes the same trace sooner.
        assert!(
            r16.makespan_ns < r1.makespan_ns,
            "QD16 makespan {} !< QD1 makespan {}",
            r16.makespan_ns,
            r1.makespan_ns
        );
        assert_eq!(r1.ooo_completions, 0, "QD1 cannot reorder");
        assert!(r16.ooo_completions > 0, "QD16 must reorder completions");
    }
}
