//! Differential proptest suites: adversarial op interleavings driven
//! through a real TimeSSD and the full-history reference model in
//! lockstep. Any divergence fails the test with the shortest reproducing
//! op prefix in the panic message.
//!
//! Every `run` ends with the whole-space query check, so the partition
//! width is a configuration value here, not a second device: the GC-pressure
//! suite runs at a ragged width of 3, the power-cut suite at 8, both with
//! the map cache on, and the rollback storms at 64, where most partitions
//! are empty. Wear levelling is a configuration value too: the wearing
//! suite lowers `wl_spread_threshold` so the cold-to-old swap runs under the
//! model on all three FTLs.
//!
//! The in-tree proptest runner is deterministic (seeded from the test
//! path), so a CI failure here reproduces locally with no extra state.

use almanac_core::{
    DeviceStats, Discard, Ftl, ReadGated, SsdConfig, SsdDevice, SsdReadOps, TimeTravel,
};
use almanac_flash::{FaultPlan, Geometry, Lpa, Nanos, PageData, MS_NS, SEC_NS};
use almanac_oracle::{
    minimal_failing_prefix, DifferentialHarness, Divergence, Guarantee, OracleOp,
};
use almanac_trace::{replay, Trace, TraceOp, TraceRecord};
use almanac_workloads::msr_profiles;
use proptest::{proptest, ProptestConfig};

fn medium_cfg() -> SsdConfig {
    SsdConfig::new(Geometry::medium_test())
}

/// Small device, short window, small filters: GC and retention expiry fire
/// inside a few hundred ops.
fn pressure_cfg() -> SsdConfig {
    SsdConfig::new(Geometry::small_test())
        .with_min_retention(SEC_NS)
        .with_bloom(almanac_bloom_cfg())
}

/// `pressure_cfg` with the wear-levelling trigger at a spread of 1: once 64
/// blocks have been erased, the skeleton's cold-to-old swap runs mid-stream
/// on every device.
fn wearing_cfg() -> SsdConfig {
    let mut cfg = pressure_cfg();
    cfg.wl_spread_threshold = 1;
    cfg
}

/// Short tombstone deadline so the age-based group flush fires within a
/// few milliseconds of virtual time instead of the 500 ms default.
fn aging_cfg() -> SsdConfig {
    medium_cfg().with_tombstone_flush_deadline(2 * MS_NS)
}

/// Turns the translation-page cache on: its faults land in every
/// completion time the stream sees.
fn cached(mut cfg: SsdConfig) -> SsdConfig {
    cfg.amt_cache_pages = Some(2);
    cfg
}

fn almanac_bloom_cfg() -> almanac_bloom::ChainConfig {
    almanac_bloom::ChainConfig {
        bits_per_filter: 1 << 12,
        hashes: 4,
        capacity: 64,
    }
}

/// Runs `ops` through a harness over a fresh `Ftl<R>`, then host-reads the whole
/// exported space. For the baselines that holds what the host sees *now* —
/// every host read in the stream, then the sweep: retention zero, read-gated
/// and full differ in the history they keep, never in the head, so the model
/// keeps nothing obligated and its clock is the op ordinal (the baselines do
/// not hand out strictly increasing timestamps). The TimeSSD is held to its
/// history as well. A stall ends the run. Returns the device's counters.
fn heads_match_model<R: Guarantee>(
    cfg: &SsdConfig,
    ops: &[OracleOp],
) -> Result<DeviceStats, String> {
    let mut h = DifferentialHarness::<Ftl<R>>::over(cfg.clone());
    h.run(ops);
    h.read_sweep();
    let report = h.report();
    if report.is_clean() {
        Ok(*h.ssd().stats())
    } else {
        Err(format!("{}: {report}", h.ssd().kind()))
    }
}

/// The oracle's model against all three FTLs — the comparators of Figures
/// 6–10 are held to the same heads as the TimeSSD. Returns the counters of
/// the regular, FlashGuard and TimeSSD runs.
fn heads_match_model_on_every_ftl(
    cfg: SsdConfig,
    ops: &[OracleOp],
) -> Result<[DeviceStats; 3], String> {
    Ok([
        heads_match_model::<Discard>(&cfg, ops)?,
        heads_match_model::<ReadGated>(&cfg, ops)?,
        heads_match_model::<TimeTravel>(&cfg, ops)?,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn heads_match_model_on_every_ftl_skewed(ops in almanac_oracle::strategy::skewed_writes(24, 140)) {
        let verdict = heads_match_model_on_every_ftl(pressure_cfg(), &ops);
        proptest::prop_assert!(verdict.is_ok(), "{verdict:?}");
    }

    #[test]
    fn heads_match_model_on_every_ftl_trim_heavy(ops in almanac_oracle::strategy::trim_heavy(16, 140)) {
        let verdict = heads_match_model_on_every_ftl(pressure_cfg(), &ops);
        proptest::prop_assert!(verdict.is_ok(), "{verdict:?}");
    }

    #[test]
    fn heads_match_model_on_every_ftl_gc_pressure(ops in almanac_oracle::strategy::gc_pressure(40, 260)) {
        let verdict = heads_match_model_on_every_ftl(pressure_cfg(), &ops);
        proptest::prop_assert!(verdict.is_ok(), "{verdict:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Long enough for 64 erases, so the swap runs under the model.
    #[test]
    fn heads_match_model_on_every_ftl_wearing(ops in almanac_oracle::strategy::gc_pressure(40, 1000)) {
        let verdict = heads_match_model_on_every_ftl(wearing_cfg(), &ops);
        proptest::prop_assert!(verdict.is_ok(), "{verdict:?}");
    }
}

/// Deterministic witness that the wearing config forces the cold-to-old
/// swap on every device, so its suite cannot pass vacuously: round-robin
/// overwrites of 40 pages, every eighth one read first so that FlashGuard
/// has retained victims for the swap to carry (it stalls once they fill the
/// device, which ends its run).
#[test]
fn wear_leveling_swaps_under_the_model_on_every_ftl() {
    let ops: Vec<OracleOp> = (0..1000u64)
        .flat_map(|i| {
            let lpa = i % 40;
            let read = (i % 8 == 0).then_some(OracleOp::Read { lpa, gap: 0 });
            read.into_iter().chain([OracleOp::Write {
                lpa,
                gap: 25 * MS_NS,
            }])
        })
        .collect();
    let stats = heads_match_model_on_every_ftl(wearing_cfg(), &ops).unwrap();
    for (kind, s) in ["regular", "flashguard", "timessd"].iter().zip(stats) {
        assert!(s.wl_swaps > 0, "{kind}: no wear-leveling swap");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn skewed_writes_match_model(ops in almanac_oracle::strategy::skewed_writes(24, 140)) {
        let mut h = DifferentialHarness::new(medium_cfg());
        let report = h.run(&ops);
        proptest::prop_assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn trim_interleavings_match_model(ops in almanac_oracle::strategy::trim_heavy(16, 140)) {
        let mut h = DifferentialHarness::new(medium_cfg());
        let report = h.run(&ops);
        proptest::prop_assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn equal_timestamp_bursts_match_model(ops in almanac_oracle::strategy::equal_ts_bursts(8, 160)) {
        let mut h = DifferentialHarness::new(medium_cfg());
        let report = h.run(&ops);
        proptest::prop_assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn rollback_storms_match_model(ops in almanac_oracle::strategy::rollback_storm(12, 120)) {
        let mut h = DifferentialHarness::new(medium_cfg().with_amt_shards(64));
        let report = h.run(&ops);
        proptest::prop_assert!(report.is_clean(), "{report}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn gc_pressure_matches_model(ops in almanac_oracle::strategy::gc_pressure(40, 260)) {
        // Stalls (retention pinning GC on a tiny device) are a measured
        // outcome; divergence is not.
        let mut h = DifferentialHarness::new(cached(pressure_cfg().with_amt_shards(3)));
        let report = h.run(&ops);
        proptest::prop_assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn power_cuts_match_model(ops in almanac_oracle::strategy::power_cut_recovery(16, 140)) {
        let mut h = DifferentialHarness::new(cached(medium_cfg().with_amt_shards(8)));
        let report = h.run(&ops);
        proptest::prop_assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn barrier_mixes_match_model(ops in almanac_oracle::strategy::barrier_mix(16, 140)) {
        let mut h = DifferentialHarness::new(medium_cfg());
        let report = h.run(&ops);
        proptest::prop_assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn barrier_before_every_cut_leaves_no_waivers(
        ops in almanac_oracle::strategy::barrier_before_cut(16, 140)
    ) {
        // With a flush barrier issued in the same instant as every cut the
        // volatile window is closed: the model may not need to waive a
        // single version, and every acknowledged trim must survive.
        let mut h = DifferentialHarness::new(medium_cfg());
        let report = h.run(&ops);
        proptest::prop_assert!(report.is_clean(), "{report}");
        proptest::prop_assert_eq!(
            h.model().waived_versions(), 0,
            "barrier-before-cut runs must not waive any version"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Rarely-trimming traffic with no barriers: every `Check` op runs the
    /// device's pending-tombstone age audit, so a clean run proves no
    /// acknowledged trim stayed volatile past `tombstone_flush_deadline`
    /// at any quiescent point.
    #[test]
    fn aged_tombstones_never_outlive_deadline(
        ops in almanac_oracle::strategy::rare_trim_aging(16, 160)
    ) {
        let mut h = DifferentialHarness::new(aging_cfg());
        let report = h.run(&ops);
        proptest::prop_assert!(report.is_clean(), "{report}");
    }

    /// A/B lockstep: the same op stream with aging on and off must leave
    /// identical host-visible state — aging is pure maintenance.
    #[test]
    fn aging_flushes_leave_host_state_unchanged(
        ops in almanac_oracle::strategy::rare_trim_aging(16, 160)
    ) {
        let mut aged = DifferentialHarness::new(aging_cfg());
        let mut plain = DifferentialHarness::new(medium_cfg().with_tombstone_flush_deadline(0));
        let ra = aged.run(&ops);
        let rb = plain.run(&ops);
        proptest::prop_assert!(ra.is_clean(), "{ra}");
        proptest::prop_assert!(rb.is_clean(), "{rb}");
        for p in 0..16u64 {
            let lpa = Lpa(p);
            proptest::prop_assert_eq!(aged.ssd().is_mapped(lpa), plain.ssd().is_mapped(lpa));
            proptest::prop_assert_eq!(aged.ssd().trimmed_at(lpa), plain.ssd().trimmed_at(lpa));
            let head_a = aged.ssd().version_chain(lpa).first().map(|v| v.timestamp);
            let head_b = plain.ssd().version_chain(lpa).first().map(|v| v.timestamp);
            proptest::prop_assert_eq!(head_a, head_b, "head differs on lpa {}", p);
        }
    }
}

/// Deterministic witness that the aging path actually fires: a trim
/// followed by barrier-free traffic past the deadline must be flushed by
/// the scheduler (aging stat advances, nothing pending), while the
/// zero-deadline device keeps the tombstone volatile — and both present
/// the same host-visible state throughout.
#[test]
fn aging_flush_fires_and_is_invisible_to_the_host() {
    let mut aged = DifferentialHarness::new(aging_cfg());
    let mut plain = DifferentialHarness::new(medium_cfg().with_tombstone_flush_deadline(0));
    let mut ops: Vec<OracleOp> = Vec::new();
    for i in 0..6u64 {
        ops.push(OracleOp::Write {
            lpa: i % 3,
            gap: MS_NS,
        });
    }
    ops.push(OracleOp::Trim { lpa: 1, gap: MS_NS });
    // Barrier-free traffic carries virtual time well past the 2 ms
    // deadline; only the age-based scheduler can close the window.
    for i in 0..8u64 {
        ops.push(OracleOp::Write {
            lpa: 2 + i % 2,
            gap: MS_NS,
        });
        ops.push(OracleOp::Check);
    }
    for op in &ops {
        aged.apply(op);
        plain.apply(op);
    }
    assert!(
        aged.check_now(),
        "aged run diverged: {:?}",
        aged.divergences()
    );
    assert!(
        plain.check_now(),
        "plain run diverged: {:?}",
        plain.divergences()
    );
    assert!(
        aged.ssd().stats().aging_flushes > 0,
        "age-based flush never fired despite traffic past the deadline"
    );
    assert_eq!(
        plain.ssd().stats().aging_flushes,
        0,
        "deadline 0 must disable the scheduler"
    );
    for p in 0..3u64 {
        let lpa = Lpa(p);
        assert_eq!(aged.ssd().is_mapped(lpa), plain.ssd().is_mapped(lpa));
        assert_eq!(aged.ssd().trimmed_at(lpa), plain.ssd().trimmed_at(lpa));
    }
    assert_eq!(
        aged.ssd().trimmed_at(Lpa(1)),
        plain.ssd().trimmed_at(Lpa(1))
    );
}

/// A scheduled FaultPlan power cut fires mid-stream (from PR 1's fault
/// layer, not a strategy op); the harness recovers, reissues the failed
/// op, and the crash contract must still hold.
#[test]
fn fault_plan_power_cut_mid_stream_stays_clean() {
    let cfg = medium_cfg().with_fault_plan(FaultPlan::new(0xA1).with_power_cut_at(100));
    let mut h = DifferentialHarness::new(cfg);
    let ops: Vec<OracleOp> = (0..200)
        .map(|i| match i % 7 {
            5 => OracleOp::Trim {
                lpa: i % 13,
                gap: MS_NS,
            },
            6 => OracleOp::AsOf {
                lpa: i % 13,
                back: (i % 50) * MS_NS,
                gap: MS_NS,
            },
            _ => OracleOp::Write {
                lpa: i % 13,
                gap: MS_NS,
            },
        })
        .collect();
    let report = h.run(&ops);
    assert!(h.power_cuts() >= 1, "the scheduled cut never fired");
    assert!(report.is_clean(), "{report}");
}

/// A clean harness ten writes in, for the tests that then desynchronise it.
fn ten_writes_in<R: Guarantee>(cfg: SsdConfig) -> DifferentialHarness<Ftl<R>> {
    let mut h = DifferentialHarness::over(cfg);
    (0..10).for_each(|i| {
        h.apply(&OracleOp::Write {
            lpa: i % 3,
            gap: MS_NS,
        })
    });
    h
}

/// A payload no oracle write carries.
const ROGUE: PageData = PageData::Synthetic {
    seed: 999,
    version: 999,
};

/// Sanity in the other direction: the oracle must actually catch a device
/// whose history disagrees with what the host wrote. A write applied to
/// the device behind the model's back is a phantom version and a head
/// mismatch.
#[test]
fn oracle_flags_device_only_write() {
    let mut h = ten_writes_in::<TimeTravel>(medium_cfg());
    assert!(h.check_now(), "clean before the seeded desync");
    h.ssd_mut_bypassing_model()
        .write(Lpa(1), ROGUE, 10 * SEC_NS)
        .unwrap();
    assert!(!h.check_now(), "device-only write went unnoticed");
    assert!(
        h.divergences()
            .iter()
            .any(|d| matches!(d, Divergence::PhantomVersion { lpa, .. } if lpa.0 == 1)),
        "expected a phantom-version divergence, got {:?}",
        h.divergences()
    );
}

/// The same sanity check for the generic harness: behind a baseline there
/// is no chain to inspect, so a device-only write must surface in what the
/// host reads — `read_sweep`, which sees it on a TimeSSD as well.
#[test]
fn oracle_flags_device_only_write_on_the_baselines() {
    fn flagged<R: Guarantee>() -> bool {
        let mut h = ten_writes_in::<R>(pressure_cfg());
        assert!(h.read_sweep(), "clean before the seeded desync");
        h.ssd_mut_bypassing_model()
            .write(Lpa(1), ROGUE, 10 * SEC_NS)
            .unwrap();
        !h.read_sweep()
            && h.divergences()
                .iter()
                .all(|d| matches!(d, Divergence::ReadMismatch { lpa, .. } if lpa.0 == 1))
    }
    assert!(flagged::<Discard>(), "RegularSsd");
    assert!(flagged::<ReadGated>(), "FlashGuardSsd");
    assert!(flagged::<TimeTravel>(), "TimeSsd");
}

/// A trim applied behind the model's back must surface as a head mismatch
/// (device lost data the model still holds live).
#[test]
fn oracle_flags_device_only_trim() {
    let mut h = ten_writes_in::<TimeTravel>(medium_cfg());
    h.ssd_mut_bypassing_model()
        .trim(Lpa(2), 10 * SEC_NS)
        .unwrap();
    assert!(!h.check_now());
    assert!(
        h.divergences()
            .iter()
            .any(|d| matches!(d, Divergence::HeadMismatch { lpa, .. } if lpa.0 == 2)),
        "expected a head mismatch, got {:?}",
        h.divergences()
    );
}

/// The fsync contract end to end: a trim acknowledged under the batched
/// journal is volatile until a flush barrier, after which a power cut must
/// not resurrect the page — and the oracle watches every step.
#[test]
fn barrier_then_cut_holds_batched_trim_durable() {
    let mut h = DifferentialHarness::new(medium_cfg());
    for _ in 0..6 {
        h.apply(&OracleOp::Write { lpa: 1, gap: MS_NS });
    }
    h.apply(&OracleOp::Trim { lpa: 1, gap: MS_NS });
    h.apply(&OracleOp::Flush { gap: MS_NS });
    h.apply(&OracleOp::PowerCut);
    assert!(h.check_now(), "divergence: {:?}", h.divergences());
    assert!(
        !h.ssd().is_mapped(Lpa(1)),
        "flush-barriered trim resurrected by the power cut"
    );
    assert_eq!(h.model().waived_versions(), 0);
}

/// Clean runs report no failing prefix; the minimiser agrees.
#[test]
fn clean_runs_have_no_failing_prefix() {
    let ops: Vec<OracleOp> = (0..40)
        .map(|i| OracleOp::Write {
            lpa: i % 5,
            gap: MS_NS,
        })
        .collect();
    let report = minimal_failing_prefix(&medium_cfg(), &ops);
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.first_divergence_op, None);
}

/// The harness is a drop-in `SsdDevice`: `trace::replay` drives the pair
/// directly, checking every replayed read against the model.
#[test]
fn trace_replay_runs_under_the_oracle() {
    let cfg = medium_cfg();
    let exported = cfg.exported_pages();
    let mut h = DifferentialHarness::new(cfg);

    // A slice of a realistic generated workload (diurnal arrivals, hot/cold
    // skew) plus a hand-rolled trim burst replay would not generate.
    let profile = &msr_profiles()[0];
    let generated = profile.generate(1, exported, 0xD1FF);
    let mut records: Vec<TraceRecord> = generated.records.into_iter().take(400).collect();
    let base = records.last().map(|r| r.at).unwrap_or(0);
    for i in 0..20u64 {
        records.push(TraceRecord::new(
            base + (i + 1) * MS_NS as Nanos,
            if i % 3 == 0 {
                TraceOp::Trim
            } else {
                TraceOp::Write
            },
            i % 40,
            1,
        ));
    }
    let trace = Trace::new("oracle-slice", records);

    let report = replay(&trace, &mut h).expect("replay failed");
    assert!(report.replayed > 0);
    assert!(
        h.check_now(),
        "divergence after replay: {:?}",
        h.divergences()
    );
}
