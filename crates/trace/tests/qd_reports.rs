//! `replay_qd`'s whole report on the paths `qdscale` (write-only traces) and
//! the benchmark (a 50/50 single-page mix) leave unpinned: a stall with
//! commands still in flight, Flush fences among trims, error completions
//! and multi-page commands, each at queue depths 1, 4, 16 and 64. The
//! expected reports were recorded from the replayer that sorted every
//! in-flight set and every response list, so any change to pacing, posting
//! order, the overtake count or the response statistics shows here.

use almanac_core::{SsdConfig, TimeSsd, MAX_ARRIVAL};
use almanac_flash::{Geometry, DAY_NS};
use almanac_trace::{replay_qd, Trace, TraceOp, TraceRecord};

const DEPTHS: [usize; 4] = [1, 4, 16, 64];

/// A case: the trace and the fresh device it replays on.
type Case = fn() -> (Trace, TimeSsd);

const CASES: [(&str, Case); 4] = [
    ("stall", stall),
    ("fenced_trims", fenced_trims),
    ("errors", errors),
    ("multi_page", multi_page),
];

/// A write storm over 100 of the 108 exported LPAs on a device that must
/// keep a year of history, with a read after every third write: the device
/// stalls while commands started before the stalled one are in flight.
fn stall() -> (Trace, TimeSsd) {
    let records = (0..3_000u64)
        .map(|i| {
            let op = if i % 4 == 3 {
                TraceOp::Read
            } else {
                TraceOp::Write
            };
            TraceRecord::new(i * 1_000, op, i % 100, 1)
        })
        .collect();
    let cfg = SsdConfig::new(Geometry::small_test()).with_min_retention(365 * DAY_NS);
    (Trace::new("stall", records), TimeSsd::new(cfg))
}

/// Writes, reads and trims over 48 LPAs with a Flush every 25 records.
fn fenced_trims() -> (Trace, TimeSsd) {
    let records = (0..600u64)
        .map(|i| {
            let op = match (i % 25, i % 7, i % 3) {
                (0, _, _) => TraceOp::Flush,
                (_, 0, _) => TraceOp::Trim,
                (_, _, 0) => TraceOp::Read,
                _ => TraceOp::Write,
            };
            TraceRecord::new(i * 2_000, op, (i * 5) % 48, 1)
        })
        .collect();
    let ssd = TimeSsd::new(SsdConfig::new(Geometry::small_test()));
    (Trace::new("fenced_trims", records), ssd)
}

/// Reads and writes whose last 40 records arrive past the device clock's
/// range: those complete with an error status, interleaved with the
/// earlier commands still draining.
fn errors() -> (Trace, TimeSsd) {
    let records = (0..300u64)
        .map(|i| {
            let op = if i % 2 == 0 {
                TraceOp::Write
            } else {
                TraceOp::Read
            };
            let at = if i < 260 { i * 500 } else { MAX_ARRIVAL + i };
            TraceRecord::new(at, op, (i * 7) % 40, 1)
        })
        .collect();
    let ssd = TimeSsd::new(SsdConfig::new(Geometry::small_test()));
    (Trace::new("errors", records), ssd)
}

/// Writes, reads and trims of 1 to 8 pages, some clamped at the end of
/// the exported space.
fn multi_page() -> (Trace, TimeSsd) {
    let records = (0..400u64)
        .map(|i| {
            let op = match i % 5 {
                0 | 1 => TraceOp::Write,
                2 | 3 => TraceOp::Read,
                _ => TraceOp::Trim,
            };
            let lpa = if i % 11 == 0 {
                u64::MAX - i
            } else {
                (i * 13) % 64
            };
            TraceRecord::new(i * 3_000, op, lpa, (i % 8) as u32 + 1)
        })
        .collect();
    let ssd = TimeSsd::new(SsdConfig::new(Geometry::small_test()));
    (Trace::new("multi_page", records), ssd)
}

/// `(case, depth, the report's Debug text)` as recorded.
const RECORDED: [(&str, usize, &str); 16] = [
    (
        "stall",
        1,
        r#"QdReplayReport { trace: "stall", qd: 1, ops: 2366, errors: 1, ooo_completions: 0, peak_outstanding: 1, makespan_ns: 5478050001, avg_response_ns: 2314343.050697085, p99_response_ns: 22450000, max_response_ns: 31260000, stalled: true, submitted: 2367 }"#,
    ),
    (
        "stall",
        4,
        r#"QdReplayReport { trace: "stall", qd: 4, ops: 2366, errors: 1, ooo_completions: 600, peak_outstanding: 4, makespan_ns: 5073660006, avg_response_ns: 8572443.609632445, p99_response_ns: 37830000, max_response_ns: 46190000, stalled: true, submitted: 2367 }"#,
    ),
    (
        "stall",
        16,
        r#"QdReplayReport { trace: "stall", qd: 16, ops: 2366, errors: 1, ooo_completions: 600, peak_outstanding: 16, makespan_ns: 5073660006, avg_response_ns: 34213674.31178707, p99_response_ns: 79070000, max_response_ns: 101160000, stalled: true, submitted: 2367 }"#,
    ),
    (
        "stall",
        64,
        r#"QdReplayReport { trace: "stall", qd: 64, ops: 2366, errors: 1, ooo_completions: 600, peak_outstanding: 64, makespan_ns: 5073660006, avg_response_ns: 135286330.96070975, p99_response_ns: 289780000, max_response_ns: 307730000, stalled: true, submitted: 2367 }"#,
    ),
    (
        "fenced_trims",
        1,
        r#"QdReplayReport { trace: "fenced_trims", qd: 1, ops: 600, errors: 0, ooo_completions: 0, peak_outstanding: 1, makespan_ns: 369560000, avg_response_ns: 615933.3333333334, p99_response_ns: 5670000, max_response_ns: 11410000, stalled: false, submitted: 600 }"#,
    ),
    (
        "fenced_trims",
        4,
        r#"QdReplayReport { trace: "fenced_trims", qd: 4, ops: 600, errors: 0, ooo_completions: 227, peak_outstanding: 4, makespan_ns: 277320019, avg_response_ns: 1844713.4633333334, p99_response_ns: 11140001, max_response_ns: 16590000, stalled: false, submitted: 600 }"#,
    ),
    (
        "fenced_trims",
        16,
        r#"QdReplayReport { trace: "fenced_trims", qd: 16, ops: 600, errors: 0, ooo_completions: 227, peak_outstanding: 16, makespan_ns: 277320019, avg_response_ns: 7289513.848333334, p99_response_ns: 19640000, max_response_ns: 20259999, stalled: false, submitted: 600 }"#,
    ),
    (
        "fenced_trims",
        64,
        r#"QdReplayReport { trace: "fenced_trims", qd: 64, ops: 600, errors: 0, ooo_completions: 227, peak_outstanding: 64, makespan_ns: 277320019, avg_response_ns: 27691948.698333334, p99_response_ns: 49090001, max_response_ns: 51440001, stalled: false, submitted: 600 }"#,
    ),
    (
        "errors",
        1,
        r#"QdReplayReport { trace: "errors", qd: 1, ops: 260, errors: 40, ooo_completions: 0, peak_outstanding: 1, makespan_ns: 9223372036854776107, avg_response_ns: 354400.00333333336, p99_response_ns: 3610000, max_response_ns: 11610000, stalled: false, submitted: 300 }"#,
    ),
    (
        "errors",
        4,
        r#"QdReplayReport { trace: "errors", qd: 4, ops: 260, errors: 40, ooo_completions: 130, peak_outstanding: 4, makespan_ns: 9223372036854776107, avg_response_ns: 836436.6933333334, p99_response_ns: 11010999, max_response_ns: 15220000, stalled: false, submitted: 300 }"#,
    ),
    (
        "errors",
        16,
        r#"QdReplayReport { trace: "errors", qd: 16, ops: 260, errors: 40, ooo_completions: 130, peak_outstanding: 16, makespan_ns: 9223372036854776107, avg_response_ns: 3142286.7533333334, p99_response_ns: 17670999, max_response_ns: 18880000, stalled: false, submitted: 300 }"#,
    ),
    (
        "errors",
        64,
        r#"QdReplayReport { trace: "errors", qd: 64, ops: 260, errors: 40, ooo_completions: 130, peak_outstanding: 64, makespan_ns: 9223372036854776107, avg_response_ns: 10950476.836666666, p99_response_ns: 33871000, max_response_ns: 35080001, stalled: false, submitted: 300 }"#,
    ),
    (
        "multi_page",
        1,
        r#"QdReplayReport { trace: "multi_page", qd: 1, ops: 400, errors: 0, ooo_completions: 0, peak_outstanding: 1, makespan_ns: 855120089, avg_response_ns: 2137800.2225, p99_response_ns: 26570000, max_response_ns: 28860002, stalled: false, submitted: 400 }"#,
    ),
    (
        "multi_page",
        4,
        r#"QdReplayReport { trace: "multi_page", qd: 4, ops: 400, errors: 0, ooo_completions: 198, peak_outstanding: 4, makespan_ns: 830453003, avg_response_ns: 8294510.03, p99_response_ns: 30050000, max_response_ns: 30690000, stalled: false, submitted: 400 }"#,
    ),
    (
        "multi_page",
        16,
        r#"QdReplayReport { trace: "multi_page", qd: 16, ops: 400, errors: 0, ooo_completions: 198, peak_outstanding: 16, makespan_ns: 830453003, avg_response_ns: 32771640.125, p99_response_ns: 62810000, max_response_ns: 75880001, stalled: false, submitted: 400 }"#,
    ),
    (
        "multi_page",
        64,
        r#"QdReplayReport { trace: "multi_page", qd: 64, ops: 400, errors: 0, ooo_completions: 198, peak_outstanding: 64, makespan_ns: 830453003, avg_response_ns: 120097763.01, p99_response_ns: 200620000, max_response_ns: 203980000, stalled: false, submitted: 400 }"#,
    ),
];

#[test]
fn reports_match_the_recorded_ones() {
    let mut k = 0;
    for (name, build) in CASES {
        for qd in DEPTHS {
            let (trace, ssd) = build();
            let report = replay_qd(&trace, ssd, qd).expect("replay_qd");
            let (case, depth, recorded) = RECORDED[k];
            assert_eq!((case, depth), (name, qd));
            assert_eq!(format!("{report:?}"), recorded, "{name} at QD {qd}");
            // Every submitted command completes, a stalled one among them.
            let completed = report.ops + report.errors;
            assert_eq!(completed, report.submitted as u64, "{name} at QD {qd}");
            k += 1;
        }
    }
}
