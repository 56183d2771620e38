//! Out-of-order completion suites: a host op stream submitted through the
//! NVMe multi-queue controller over the differential harness must satisfy
//! the model command by command and end in the state the submission order
//! implies, and every Flush must fence its queue — earlier commands post
//! before its completion, later ones after.
//!
//! The in-tree proptest runner is deterministic (seeded from the test
//! path), so a CI failure here reproduces locally with no extra state.

use almanac_core::{Discard, ReadGated, SsdConfig};
use almanac_flash::Geometry;
use almanac_oracle::{lockstep_queue_run, lockstep_queue_run_over, OracleOp};
use proptest::{proptest, ProptestConfig};

fn small_cfg() -> SsdConfig {
    SsdConfig::new(Geometry::small_test())
}

fn medium_cfg() -> SsdConfig {
    SsdConfig::new(Geometry::medium_test())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn reordered_completions_preserve_host_state(
        ops in almanac_oracle::strategy::queued_ops(32, 140),
    ) {
        // On all three FTLs.
        for out in [
            lockstep_queue_run_over::<Discard>(medium_cfg(), &ops, 3, 8),
            lockstep_queue_run_over::<ReadGated>(medium_cfg(), &ops, 3, 8),
            lockstep_queue_run(medium_cfg(), &ops, 3, 8),
        ] {
            proptest::prop_assert!(out.passed(), "divergences: {:?}", out.divergences);
        }
    }

    #[test]
    fn deep_queues_on_a_small_device_match(
        ops in almanac_oracle::strategy::queued_ops(16, 120),
    ) {
        let out = lockstep_queue_run(small_cfg(), &ops, 4, 16);
        proptest::prop_assert!(
            out.passed(),
            "divergences: {:?}",
            out.divergences
        );
    }

    #[test]
    fn depth_one_schedules_never_reorder(
        ops in almanac_oracle::strategy::queued_ops(16, 100),
    ) {
        let out = lockstep_queue_run(medium_cfg(), &ops, 4, 1);
        proptest::prop_assert!(out.passed(), "divergences: {:?}", out.divergences);
        proptest::prop_assert_eq!(out.ooo_completions, 0);
    }
}

/// Deterministic witness that the multi-queue run genuinely reorders:
/// clustered writes on one shard with cheap reads of untouched pages on
/// another shard must overtake, and the state still matches.
#[test]
fn out_of_order_completions_actually_happen() {
    let mut ops = Vec::new();
    for i in 0..60u64 {
        // Both land on shard 0 (even lpas): slow programs interleaved with
        // cheap reads of never-written pages on the same queue, so the
        // reads overtake earlier writes in that queue's completion stream.
        ops.push(OracleOp::Write {
            lpa: 2 * (i % 8),
            gap: 0,
        });
        ops.push(OracleOp::Read {
            lpa: 16 + 2 * (i % 8),
            gap: 0,
        });
    }
    let out = lockstep_queue_run(small_cfg(), &ops, 2, 16);
    assert!(out.passed(), "divergences: {:?}", out.divergences);
    assert!(
        out.ooo_completions > 0,
        "expected out-of-order completions, got none"
    );
    assert_eq!(out.completed, 120);
}

/// Deterministic fence check: writes, a flush, more writes on every shard;
/// the fence audit inside `lockstep_queue_run` must find each flush
/// correctly ordered (it reports any violation as a divergence).
#[test]
fn flush_fences_are_audited() {
    let mut ops = Vec::new();
    for i in 0..20u64 {
        ops.push(OracleOp::Write {
            lpa: i % 6,
            gap: 1_000,
        });
    }
    ops.push(OracleOp::Flush { gap: 0 });
    ops.push(OracleOp::Flush { gap: 0 });
    ops.push(OracleOp::Flush { gap: 0 });
    for i in 0..20u64 {
        ops.push(OracleOp::Write {
            lpa: i % 6,
            gap: 1_000,
        });
    }
    let out = lockstep_queue_run(medium_cfg(), &ops, 3, 8);
    assert!(out.passed(), "divergences: {:?}", out.divergences);
    assert_eq!(out.flushes, 3, "one fence per queue");
}

/// Trims and rewrites over tombstones survive reordering: per-page order
/// is preserved by sharding, so the final tombstone/mapped state must be
/// identical however the cross-page completions interleave.
#[test]
fn trim_rewrite_cycles_survive_reordering() {
    let mut ops = Vec::new();
    for round in 0..5u64 {
        for lpa in 0..12u64 {
            ops.push(OracleOp::Write { lpa, gap: 500 });
            if (lpa + round) % 3 == 0 {
                ops.push(OracleOp::Trim { lpa, gap: 500 });
            }
        }
        ops.push(OracleOp::Flush { gap: 1_000 });
    }
    let out = lockstep_queue_run(small_cfg(), &ops, 4, 8);
    assert!(out.passed(), "divergences: {:?}", out.divergences);
}
