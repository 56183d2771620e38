//! Property tests of the trace codec, prolonging transform, and replayer.

use almanac_core::{RegularSsd, SsdConfig, SsdReadOps};
use almanac_flash::Geometry;
use almanac_trace::{replay, Trace, TraceOp, TraceRecord};
use proptest::prelude::*;

fn record_strategy() -> impl Strategy<Value = TraceRecord> {
    (
        0u64..1_000_000_000,
        prop::sample::select(vec![TraceOp::Read, TraceOp::Write, TraceOp::Trim]),
        0u64..10_000,
        1u32..16,
    )
        .prop_map(|(at, op, lpa, pages)| TraceRecord { at, op, lpa, pages })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csv_roundtrip_any_trace(records in proptest::collection::vec(record_strategy(), 0..200)) {
        let trace = Trace::new("prop", records);
        let parsed = Trace::from_csv("prop", &trace.to_csv()).unwrap();
        prop_assert_eq!(parsed.records, trace.records);
    }

    #[test]
    fn prolong_preserves_volume_and_bounds(
        records in proptest::collection::vec(record_strategy(), 1..100),
        times in 1u32..6,
        lpa_space in 1_000u64..100_000,
        seed in any::<u64>(),
    ) {
        let trace = Trace::new("base", records);
        let long = trace.prolong(times, lpa_space, seed).unwrap();
        prop_assert_eq!(long.records.len(), trace.records.len() * times as usize);
        // Address space respected, write volume multiplied exactly.
        prop_assert!(long.records.iter().all(|r| r.lpa < lpa_space));
        prop_assert_eq!(long.write_pages(), trace.write_pages() * times as u64);
        // Still sorted in time.
        prop_assert!(long.records.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn replay_counts_match_trace(records in proptest::collection::vec(record_strategy(), 1..60)) {
        let trace = Trace::new("replay", records);
        let mut ssd = RegularSsd::new(SsdConfig::new(Geometry::medium_test()));
        let report = replay(&trace, &mut ssd).unwrap();
        prop_assert!(!report.stalled);
        prop_assert_eq!(report.user_writes, trace.write_pages());
        prop_assert_eq!(report.user_reads, trace.read_pages());
        prop_assert_eq!(report.replayed, trace.records.len());
        prop_assert_eq!(ssd.stats().user_trims,
            trace.records.iter().filter(|r| r.op == TraceOp::Trim).map(|r| r.pages as u64).sum::<u64>());
    }
}
