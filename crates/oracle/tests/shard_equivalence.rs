//! Partition-width equivalence suites: every adversarial op stream applied
//! to a width-1 device and a width-N device must leave byte-identical
//! host-visible state — mapped set, tombstones, version chains, head bytes,
//! consistency reports, completion times, map-cache traffic — and identical
//! [`almanac_kits::AddrQuery`] results (hits *and* retrieval costs) at every
//! worker count, including across power-cut rebuilds. The tables are flat,
//! so the device half holds by construction; the query half pins the scan
//! engine's merge rule.
//!
//! The in-tree proptest runner is deterministic (seeded from the test
//! path), so a CI failure here reproduces locally with no extra state.

use almanac_core::SsdConfig;
use almanac_flash::{Geometry, SEC_NS};
use almanac_oracle::{lockstep_shard_run, strategy, OracleOp};
use proptest::{proptest, ProptestConfig};

fn small_cfg() -> SsdConfig {
    SsdConfig::new(Geometry::small_test())
}

fn medium_cfg() -> SsdConfig {
    SsdConfig::new(Geometry::medium_test())
}

/// Turns the translation-page cache on: its faults are part of every
/// completion time the lockstep compares.
fn cached(mut cfg: SsdConfig) -> SsdConfig {
    cfg.amt_cache_pages = Some(2);
    cfg
}

/// The shard counts every suite sweeps: even splits, an odd count that
/// leaves ragged partitions, and more shards than channels.
const SHARD_COUNTS: [u32; 3] = [2, 3, 8];

fn assert_invariant(cfg: SsdConfig, ops: &[OracleOp]) -> Result<(), proptest::TestCaseError> {
    for shards in SHARD_COUNTS {
        let out = lockstep_shard_run(cfg.clone(), ops, shards);
        proptest::prop_assert!(
            out.passed(),
            "shards {}: divergences {:?}",
            shards,
            out.divergences
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn skewed_writes_are_shard_invariant(
        ops in strategy::skewed_writes(16, 150),
    ) {
        assert_invariant(medium_cfg(), &ops)?;
    }

    #[test]
    fn trim_heavy_streams_are_shard_invariant(
        ops in strategy::trim_heavy(12, 150),
    ) {
        assert_invariant(medium_cfg(), &ops)?;
    }

    #[test]
    fn equal_timestamp_bursts_are_shard_invariant(
        ops in strategy::equal_ts_bursts(8, 150),
    ) {
        assert_invariant(medium_cfg(), &ops)?;
    }

    #[test]
    fn gc_pressure_is_shard_invariant(
        ops in strategy::gc_pressure(32, 180),
    ) {
        // Small device + short retention: GC and stalls land mid-stream;
        // both devices must reclaim and stall identically.
        assert_invariant(cached(small_cfg().with_min_retention(SEC_NS)), &ops)?;
    }

    #[test]
    fn power_cut_recovery_is_shard_invariant(
        ops in strategy::power_cut_recovery(12, 150),
    ) {
        assert_invariant(cached(medium_cfg()), &ops)?;
    }

    #[test]
    fn barrier_mixes_are_shard_invariant(
        ops in strategy::barrier_mix(12, 150),
    ) {
        assert_invariant(medium_cfg(), &ops)?;
    }

    #[test]
    fn rollback_storms_are_shard_invariant(
        ops in strategy::rollback_storm(10, 120),
    ) {
        assert_invariant(medium_cfg(), &ops)?;
    }
}

/// Deterministic witness: a shard count far above the touched LPA range
/// leaves most shards empty, and the empty partitions must not perturb
/// queries, rebuild, or consistency checks.
#[test]
fn mostly_empty_shards_still_match() {
    let mut ops = Vec::new();
    for round in 0..4u64 {
        for lpa in 0..3u64 {
            ops.push(OracleOp::Write {
                lpa,
                gap: SEC_NS / 8,
            });
        }
        ops.push(OracleOp::Check);
        if round == 2 {
            ops.push(OracleOp::Flush { gap: 0 });
            ops.push(OracleOp::PowerCut);
        }
    }
    let out = lockstep_shard_run(small_cfg(), &ops, 64);
    assert!(out.passed(), "divergences: {:?}", out.divergences);
    assert_eq!(out.power_cuts, 1);
}

/// Deterministic witness: one shard vs one shard is trivially identical —
/// guards the runner itself against false positives.
#[test]
fn one_shard_lockstep_is_clean() {
    let ops: Vec<OracleOp> = (0..30)
        .map(|i| OracleOp::Write {
            lpa: i % 5,
            gap: 10_000,
        })
        .chain([OracleOp::Check])
        .collect();
    let out = lockstep_shard_run(small_cfg(), &ops, 1);
    assert!(out.passed(), "divergences: {:?}", out.divergences);
}
