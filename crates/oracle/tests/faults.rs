//! Differential coverage for single-op injected flash faults.
//!
//! A `FaultPlan` fails one read, one program, and one erase somewhere in
//! the stream — usually inside the device's *internal* traffic (GC
//! migration, delta flush, victim erase) rather than at the host
//! interface. The contract under test: a failed op is reported and applied
//! nowhere — afterwards the device still satisfies every invariant and
//! still agrees with the model, which deliberately ignores failed ops.

use almanac_core::{AlmanacError, SsdConfig, SsdDevice, SsdReadOps};
use almanac_flash::{FaultPlan, FlashError, Geometry, Lpa, PageData, MS_NS, SEC_NS};
use almanac_oracle::{DifferentialHarness, OracleOp};
use proptest::{proptest, ProptestConfig};

fn pressure_cfg() -> SsdConfig {
    SsdConfig::new(Geometry::small_test())
        .with_min_retention(SEC_NS)
        .with_bloom(almanac_bloom::ChainConfig {
            bits_per_filter: 1 << 12,
            hashes: 4,
            capacity: 64,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn injected_faults_under_gc_pressure_stay_clean(
        case in almanac_oracle::strategy::injected_faults(40, 220)
    ) {
        let (ops, plan) = case;
        let cfg = pressure_cfg().with_fault_plan(plan);
        let mut h = DifferentialHarness::new(cfg);
        let report = h.run(&ops);
        proptest::prop_assert!(report.is_clean(), "{report}");
    }
}

/// Deterministic regression for the failed-GC-program case: scan program
/// indices until the injected failure lands on `migrate_valid`'s copy
/// program (reached via GC under overwrite pressure), and require the run
/// to stay clean — before the allocator/ordering fixes, the old copy was
/// invalidated before the new copy programmed, stranding the owner mapped
/// to an invalid page and wedging the victim block's program sequence.
#[test]
fn failed_gc_program_keeps_old_copy_mapped() {
    // Strict per-trim journalling: each trim flushes a delta page, which
    // is the flash pressure that pushes this scenario into GC migration.
    let strict = || pressure_cfg().with_trim_journal_watermark(1);
    let ops: Vec<OracleOp> = (0u64..260)
        .map(|i| match i % 9 {
            7 => OracleOp::Trim {
                lpa: i % 11,
                gap: 20 * MS_NS,
            },
            8 => OracleOp::Check,
            _ => OracleOp::Write {
                lpa: i % 11,
                gap: 20 * MS_NS,
            },
        })
        .collect();

    // Golden run: count how many GC programs the scenario performs so the
    // fault sweep below is known to cross them.
    let mut h = DifferentialHarness::new(strict());
    let report = h.run(&ops);
    assert!(report.is_clean(), "golden run diverged: {report}");
    let golden_gc = h.stats().gc_programs;
    assert!(golden_gc > 0, "scenario never exercised GC migration");

    // Sweep a band of program indices; every faulted run must stay clean.
    // The band covers [0, golden programs], so some faults necessarily land
    // on a GC migration program rather than a host or delta program.
    let total_programs = h.stats().user_programs + golden_gc + h.stats().delta_programs;
    let step = (total_programs / 48).max(1) as usize;
    for nth in (0..total_programs).step_by(step) {
        let cfg = strict().with_fault_plan(FaultPlan::new(0).with_program_fault(nth));
        let mut h = DifferentialHarness::new(cfg);
        let report = h.run(&ops);
        assert!(report.is_clean(), "program fault at {nth}: {report}");
    }
}

/// A read fault surfacing through the host interface is an error, not a
/// wrong answer: the next read of the same page must succeed (faults are
/// one-shot) and still return the model's bytes.
#[test]
fn injected_read_fault_is_reported_then_recovers() {
    let cfg = SsdConfig::new(Geometry::medium_test())
        .with_fault_plan(FaultPlan::new(0).with_read_fault(0));
    let mut h = DifferentialHarness::new(cfg);
    let data = PageData::Synthetic {
        seed: 1,
        version: 1,
    };
    h.write(Lpa(1), data, SEC_NS).unwrap();
    let err = h.read(Lpa(1), 2 * SEC_NS).unwrap_err();
    assert!(matches!(
        err,
        AlmanacError::Flash(FlashError::Injected { .. })
    ));
    h.read(Lpa(1), 3 * SEC_NS).expect("fault is one-shot");
    assert!(
        h.check_now(),
        "divergence after fault: {:?}",
        h.divergences()
    );
}

/// A fixed stream dense in rollbacks, on 12 pages under GC pressure. Page
/// `11 - k` is first written at op `20k`; in between, the stream rewrites,
/// trims and probes the pages written so far, and rolls spans that start
/// at the newest page back to just before it existed — so a rollback
/// erases its first page and then restores older ones.
fn rollback_stream() -> Vec<OracleOp> {
    let gap = 20 * MS_NS;
    (0u64..240)
        .map(|i| {
            let (newest, j) = (11 - i / 20, i % 20);
            let lpa = newest + i * 5 % (12 - newest);
            match j {
                0 => OracleOp::Write { lpa: newest, gap },
                _ if j % 4 == 3 => OracleOp::RollBack {
                    lpa: newest,
                    cnt: 2 + i % 3,
                    back: (j + 1) * gap,
                    gap,
                },
                _ if j % 4 == 1 => OracleOp::Trim { lpa, gap },
                6 | 14 => OracleOp::AsOf {
                    lpa,
                    back: 7 * gap,
                    gap,
                },
                _ => OracleOp::Write { lpa, gap },
            }
        })
        .collect()
}

/// The golden run of [`rollback_stream`]: clean, and its flash traffic.
fn golden_rollback_run() -> (Vec<OracleOp>, u64, u64) {
    let ops = rollback_stream();
    let mut h = DifferentialHarness::new(pressure_cfg());
    let report = h.run(&ops);
    assert!(report.is_clean(), "golden run diverged: {report}");
    let s = h.stats();
    let programs = s.user_programs + s.gc_programs + s.delta_programs + s.wl_programs;
    (ops, programs, h.ssd().flash().ops_issued())
}

/// A program that fails inside a rollback's restore is a failed host
/// write like any other: the rollback stops with the error, the pages it
/// already restored are mirrored, and the pair stays in step. Every
/// program index of the stream is tried, so the sweep lands on restores.
#[test]
fn program_faults_inside_rollbacks_stay_clean() {
    let (ops, programs, _) = golden_rollback_run();
    for nth in 0..programs {
        let plan = FaultPlan::new(nth).with_program_fault(nth);
        let mut h = DifferentialHarness::new(pressure_cfg().with_fault_plan(plan));
        let report = h.run(&ops);
        assert!(report.is_clean(), "program fault at {nth}: {report}");
    }
}

/// A power cut can land inside a rollback's restore: the harness recovers
/// and reissues that one restore, the rollback carries on over the revived
/// device, and the page-by-page post-check is skipped — the page the
/// rollback erased first may legally come back, its trim unflushed. A cut
/// is tried at every flash op of the stream, and each one must fire.
#[test]
fn power_cuts_inside_rollbacks_stay_clean() {
    let (ops, _, flash_ops) = golden_rollback_run();
    for cut in 0..flash_ops {
        let plan = FaultPlan::new(cut).with_power_cut_at(cut);
        let mut h = DifferentialHarness::new(pressure_cfg().with_fault_plan(plan));
        let report = h.run(&ops);
        assert!(report.is_clean(), "power cut at op {cut}: {report}");
        assert_eq!(h.power_cuts(), 1, "cut at op {cut} never fired");
    }
}
