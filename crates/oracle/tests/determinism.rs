//! Determinism under the oracle: every stock strategy's cases, run on two
//! fresh devices, must program the same flash and count the same work, and
//! the multi-queue NVMe path must post the same completion stream.
//!
//! Each `HashMap` in a process draws its own hash seed, so two devices side
//! by side iterate their maps in different orders. A device whose flash
//! layout follows map order (a barrier that flushed delta buffers in
//! `HashMap` order once did) therefore diverges between the two runs.
//! Every strategy runs on the small pressure device, whose small Bloom
//! filters keep several delta buffers live at a barrier; with that order
//! planted back into the barrier's flush, `queued_ops` fails within its
//! first few cases.

use almanac_core::{DeviceStats, SsdConfig, SsdReadOps};
use almanac_flash::{Geometry, MS_NS, SEC_NS};
use almanac_oracle::{lockstep_queue_run, strategy, DifferentialHarness, OracleOp};
use proptest::prelude::*;

/// Cases drawn per strategy.
const CASES: u32 = 8;

/// Small device, short window, small filters: GC and retention expiry fire
/// inside a few hundred ops.
fn pressure_cfg() -> SsdConfig {
    SsdConfig::new(Geometry::small_test())
        .with_min_retention(SEC_NS)
        .with_bloom(almanac_bloom::ChainConfig {
            bits_per_filter: 1 << 12,
            hashes: 4,
            capacity: 64,
        })
}

/// The flash contents and the device counters after `ops`.
fn outcome(cfg: &SsdConfig, ops: &[OracleOp]) -> (u64, DeviceStats) {
    let mut h = DifferentialHarness::new(cfg.clone());
    h.run(ops);
    (h.ssd().flash().state_digest(), *h.ssd().stats())
}

#[test]
fn every_stock_strategy_is_deterministic_across_devices() {
    type Cases = BoxedStrategy<(SsdConfig, Vec<OracleOp>)>;
    let on = |name, ops: BoxedStrategy<Vec<OracleOp>>| -> (&str, Cases) {
        (name, ops.prop_map(|ops| (pressure_cfg(), ops)).boxed())
    };
    let aging = strategy::rare_trim_aging(16, 160)
        .prop_map(|ops| (pressure_cfg().with_tombstone_flush_deadline(2 * MS_NS), ops))
        .boxed();
    let faults = strategy::injected_faults(40, 220)
        .prop_map(|(ops, plan)| (pressure_cfg().with_fault_plan(plan), ops))
        .boxed();
    let stock = [
        on("skewed_writes", strategy::skewed_writes(24, 140)),
        on("trim_heavy", strategy::trim_heavy(16, 140)),
        on("equal_ts_bursts", strategy::equal_ts_bursts(8, 160)),
        on("gc_pressure", strategy::gc_pressure(40, 260)),
        on("power_cut_recovery", strategy::power_cut_recovery(16, 140)),
        on("barrier_mix", strategy::barrier_mix(16, 140)),
        on("barrier_before_cut", strategy::barrier_before_cut(16, 140)),
        ("rare_trim_aging", aging),
        ("injected_faults", faults),
        on("queued_ops", strategy::queued_ops(16, 140)),
        on("rollback_storm", strategy::rollback_storm(12, 120)),
    ];
    for (name, cases) in stock {
        for case in 0..CASES {
            let (cfg, ops) = cases.generate(&mut TestRng::for_case(name, case));
            let (a, b) = (outcome(&cfg, &ops), outcome(&cfg, &ops));
            assert_eq!(a, b, "{name} case {case}");
        }
    }
}

/// Every `queued_ops` case through three queues of depth 4, twice on fresh
/// devices: the same tickets, opcodes, statuses and finish instants, in the
/// same order, with completions genuinely reordered along the way. (On the
/// pressure device some cases stall the queued side, which is a status in
/// the stream like any other.)
#[test]
fn queued_ops_post_the_same_completion_stream_across_devices() {
    let cases = strategy::queued_ops(16, 140);
    let mut overtakes = 0;
    for case in 0..CASES {
        let ops = cases.generate(&mut TestRng::for_case("queued_ops", case));
        let run = || lockstep_queue_run(pressure_cfg(), &ops, 3, 4);
        let (a, b) = (run(), run());
        assert_eq!(a.stream, b.stream, "queued_ops case {case}");
        overtakes += a.ooo_completions;
    }
    assert!(overtakes > 0, "no case reordered a completion");
}

/// The comparison above is not vacuous: two same-instant writes to
/// different pages, taken in the other order, leave the same host-visible
/// state but different flash.
#[test]
fn swapping_two_same_instant_writes_changes_the_digest() {
    let write = |lpa, gap| OracleOp::Write { lpa, gap };
    let ops = [write(0, MS_NS), write(1, MS_NS), write(2, 0)];
    let twin = [write(0, MS_NS), write(2, MS_NS), write(1, 0)];
    assert_ne!(
        outcome(&pressure_cfg(), &ops).0,
        outcome(&pressure_cfg(), &twin).0
    );
}
