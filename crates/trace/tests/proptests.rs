//! Property tests of the trace codec, prolonging transform, and replayer.

use almanac_core::{AlmanacError, RegularSsd, SsdConfig, SsdReadOps, TimeSsd, MAX_ARRIVAL};
use almanac_flash::Geometry;
use almanac_trace::{replay, replay_qd, Trace, TraceError, TraceOp, TraceRecord};
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

/// A number below `max`, any `u64`, or one within a millisecond of
/// [`MAX_ARRIVAL`] or of `u64::MAX`.
fn number(max: u64) -> impl Strategy<Value = String> {
    prop_oneof![
        8 => (0..max).prop_map(|n| n.to_string()),
        1 => any::<u64>().prop_map(|n| n.to_string()),
        1 => (0..2_000_000u64).prop_map(|d| (MAX_ARRIVAL - 1_000_000 + d).to_string()),
        1 => (0..1_000_000u64).prop_map(|d| (u64::MAX - d).to_string()),
    ]
}

/// A number, or a token that is not one.
fn token(max: u64) -> impl Strategy<Value = String> {
    let junk = ["", "-1", " 7 ", "1e9", "0x10", "18446744073709551616", "W"];
    prop_oneof![
        4 => number(max),
        1 => prop::sample::select(junk.to_vec()).prop_map(String::from),
    ]
}

/// Text for the CSV parser. Half the texts are well-formed: records with
/// any arrival time and address, comments, headers and blank lines. The
/// other half mix fields that do not parse, a fifth field, and lines of any
/// Latin-1 characters.
fn csv_text() -> impl Strategy<Value = String> {
    let op = |ops: &[&'static str]| prop::sample::select(ops.to_vec());
    let good_ops = ["W", "R", "T", "F", "w", "read", "trim", " flush "];
    let record = (number(10_000_000_000), op(&good_ops), number(300), 0u32..20)
        .prop_map(|(at, op, lpa, pages)| format!("{at},{op},{lpa},{pages}"));
    let good = prop_oneof![
        12 => record,
        1 => Just("# comment".to_string()),
        1 => Just("at,op,lpa,pages".to_string()),
        1 => Just(String::new()),
    ];
    let bad_record = (
        token(10_000_000_000),
        op(&["W", "X", "", "r "]),
        token(300),
        token(20),
    )
        .prop_map(|(at, op, lpa, pages)| format!("{at},{op},{lpa},{pages}"));
    let junk = prop::collection::vec(any::<u8>(), 0..40)
        .prop_map(|bytes| bytes.into_iter().map(char::from).collect::<String>());
    let any_line = prop_oneof![
        4 => bad_record,
        1 => (0u32..3).prop_map(|n| format!("1,W,1,1,{n}")),
        1 => junk,
    ];
    prop_oneof![
        1 => prop::collection::vec(good, 0..24),
        1 => prop::collection::vec(any_line, 0..24),
    ]
    .prop_map(|lines| lines.join("\n"))
}

fn small_timessd() -> TimeSsd {
    TimeSsd::new(SsdConfig::new(Geometry::small_test()))
}

/// Replays `trace` through the synchronous and the queue-depth replayer.
/// A record past [`MAX_ARRIVAL`] ends the first with `ArrivalTooLate` and
/// completes with an error status in the second.
fn replay_both(trace: &Trace) {
    let late = trace.records.iter().any(|r| r.at > MAX_ARRIVAL);
    match replay(trace, &mut small_timessd()) {
        Ok(report) => assert!(report.stalled || !late, "a late record replayed"),
        Err(e) => assert!(late && matches!(e, AlmanacError::ArrivalTooLate(_)), "{e}"),
    }
    let report = replay_qd(trace, small_timessd(), 4).expect("queue-depth replay");
    assert!(
        report.stalled || report.errors > 0 || !late,
        "a late command succeeded"
    );
}

/// Parses `text`: it either names its bad line or replays.
fn parse_and_replay(text: &str) {
    match Trace::from_csv("fuzz", text) {
        Err(e) => assert!(matches!(e, TraceError::BadLine { .. }), "{e:?}"),
        Ok(trace) => replay_both(&trace),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_text_parses_or_names_its_bad_line_and_replays(text in csv_text()) {
        parse_and_replay(&text);
    }

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

/// Inputs the text property found, kept as fixed cases.
#[test]
fn csv_text_regressions() {
    // A write arriving within a program time of `u64::MAX` overflowed the
    // flash clock; the device now refuses it.
    parse_and_replay(&format!("{},W,0,1", u64::MAX - 1));
    // The latest arrival the device accepts replays every op.
    let t = MAX_ARRIVAL;
    parse_and_replay(&format!(
        "{t},W,0,8\n{t},R,0,8\n{t},T,0,8\n{t},F,0,1\n{t},W,0,8"
    ));
}

/// Prolonging saturates arrivals, so a parsed trace can grow records past
/// [`MAX_ARRIVAL`]: both replayers refuse them instead of overflowing.
#[test]
fn prolonged_arrivals_past_the_clock_are_refused() {
    let parsed = Trace::from_csv("late", &format!("0,W,0,1\n{MAX_ARRIVAL},W,1,1")).unwrap();
    let long = parsed.prolong(4, 64, 7).unwrap();
    assert_eq!(long.records.last().unwrap().at, u64::MAX, "saturated");
    // The second copy starts one nanosecond after the first one ends.
    assert_eq!(
        replay(&long, &mut small_timessd()),
        Err(AlmanacError::ArrivalTooLate(MAX_ARRIVAL + 1))
    );
    let report = replay_qd(&long, small_timessd(), 4).unwrap();
    let late = long.records.iter().filter(|r| r.at > MAX_ARRIVAL).count();
    assert_eq!(report.errors, late as u64);
    assert_eq!(report.ops, (long.records.len() - late) as u64);
}
