//! Longer-horizon differential fuzz sweep: every strategy at several times
//! seed scale, the flush-barrier, tombstone-aging and multi-queue suites,
//! single-op fault injection — on its own and inside the rollback storms —
//! and the steady-state stream that drops filters. Every harness run ends
//! with the whole-space query check; the `trim` and `cut` suites rotate the
//! partition width over 2, 3, 4 and 8 with the case, so ragged widths stay
//! under the model. Run locally or by the scheduled `long-fuzz` CI job.
//!
//! Environment:
//!
//! - `LONG_FUZZ_SEED` — decimal seed mixed into every case's RNG, so the
//!   nightly job explores a different deterministic slice each day (CI
//!   derives it from the date). Default 0 reproduces the classic sweep.
//! - `LONG_FUZZ_CASES` — cases per suite (default 32); the `steady` suite
//!   runs an eighth as many, its case `c` on stream seed
//!   `LONG_FUZZ_SEED + c·2³²`.
//! - `LONG_FUZZ_REPORT` — where to write the failure report consumed by the
//!   CI artifact upload (default `long_fuzz_failure.txt`).
//!
//! On divergence the failing suite, case, seed, and full report are printed
//! and written to the report file, then the process exits non-zero — the
//! report names everything needed to replay the case locally.

use almanac_core::{SsdConfig, SsdReadOps};
use almanac_flash::{FaultPlan, Geometry, MS_NS, SEC_NS};
use almanac_oracle::{lockstep_queue_run, strategy, DifferentialHarness};
use proptest::{Strategy, TestRng};

fn pressure_cfg() -> SsdConfig {
    SsdConfig::new(Geometry::small_test())
        .with_min_retention(SEC_NS)
        .with_bloom(almanac_bloom::ChainConfig {
            bits_per_filter: 1 << 12,
            hashes: 4,
            capacity: 64,
        })
}

fn fail(report_path: &str, seed: u64, name: &str, case: u32, report: &str) -> ! {
    let body = format!(
        "long_fuzz divergence\nseed: {seed}\nsuite: {name}\ncase: {case}\n\
         replay: LONG_FUZZ_SEED={seed} cargo run --release -p almanac-oracle --example long_fuzz\n\n{report}"
    );
    println!("=== DIVERGENCE in {name} case {case} (seed {seed}) ===\n{report}");
    if let Err(e) = std::fs::write(report_path, &body) {
        eprintln!("could not write failure report {report_path}: {e}");
    }
    std::process::exit(1);
}

fn main() {
    let seed: u64 = std::env::var("LONG_FUZZ_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let cases: u32 = std::env::var("LONG_FUZZ_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(32);
    let report_path =
        std::env::var("LONG_FUZZ_REPORT").unwrap_or_else(|_| "long_fuzz_failure.txt".into());
    // The seed rotates the RNG stream by salting the case path, so every
    // nightly run walks a fresh deterministic slice of the input space.
    let salt = format!("long_fuzz/{seed}");

    let mut total = 0usize;
    let mut stalls = 0usize;
    for case in 0..cases {
        let mut rng = TestRng::for_case(&salt, case);
        let width = [2, 3, 4, 8][case as usize % 4];
        let program_fault = u64::from(case) * 11 % 200;
        let suites: Vec<(
            &str,
            proptest::BoxedStrategy<Vec<strategy::OracleOp>>,
            SsdConfig,
        )> = vec![
            (
                "skew",
                strategy::skewed_writes(24, 400),
                SsdConfig::new(Geometry::medium_test()),
            ),
            (
                "trim",
                strategy::trim_heavy(16, 400),
                SsdConfig::new(Geometry::medium_test()).with_amt_shards(width),
            ),
            (
                "eqts",
                strategy::equal_ts_bursts(8, 400),
                SsdConfig::new(Geometry::medium_test()),
            ),
            (
                "gc",
                strategy::gc_pressure(40, 500),
                SsdConfig::new(Geometry::small_test()).with_min_retention(SEC_NS),
            ),
            (
                "cut",
                strategy::power_cut_recovery(16, 400),
                SsdConfig::new(Geometry::medium_test()).with_amt_shards(width),
            ),
            // One program fails somewhere in the storm — often a rollback's
            // restore, which must leave the pair in step like any host op.
            (
                "roll",
                strategy::rollback_storm(12, 300),
                SsdConfig::new(Geometry::medium_test())
                    .with_fault_plan(FaultPlan::new(seed).with_program_fault(program_fault)),
            ),
            // Flush barriers under power cuts: mixed-in barriers hold the
            // fsync contract, and barrier-before-every-cut runs must come
            // back with zero crash waivers.
            (
                "barrier",
                strategy::barrier_mix(16, 400),
                SsdConfig::new(Geometry::medium_test()),
            ),
            (
                "barcut",
                strategy::barrier_before_cut(16, 400),
                SsdConfig::new(Geometry::medium_test()),
            ),
            // Rarely-trimming traffic with no barriers under a short
            // deadline: only the age-based group flush closes tombstone
            // windows, and every Check audits the pending-age bound.
            (
                "aging",
                strategy::rare_trim_aging(16, 400),
                SsdConfig::new(Geometry::medium_test()).with_tombstone_flush_deadline(2 * MS_NS),
            ),
        ];
        for (name, strat, cfg) in suites {
            let ops = strat.generate(&mut rng);
            let mut h = DifferentialHarness::new(cfg);
            let report = h.run(&ops);
            total += 1;
            if h.is_stalled() {
                stalls += 1;
            }
            if !report.is_clean() {
                fail(&report_path, seed, name, case, &report.to_string());
            }
            if name == "barcut" && h.model().waived_versions() != 0 {
                fail(
                    &report_path,
                    seed,
                    name,
                    case,
                    &format!(
                        "barrier-before-cut run waived {} version(s); expected 0\n{report}",
                        h.model().waived_versions()
                    ),
                );
            }
        }
        // Multi-queue run under the model: the host stream through the NVMe
        // controller over the harness, completions out of order; the model
        // checks every command, the final state must be the submission
        // order's and every flush must fence its queue. Queue
        // count and depth rotate with the case so the sweep covers
        // everything from near-serial to deep reordering.
        let ops = strategy::queued_ops(24, 350).generate(&mut rng);
        let nqueues = 1 + (case as usize % 4);
        let depth = [1, 4, 16, 32][(case as usize / 4) % 4];
        let out = lockstep_queue_run(
            SsdConfig::new(Geometry::medium_test()),
            &ops,
            nqueues,
            depth,
        );
        total += 1;
        if !out.passed() {
            fail(
                &report_path,
                seed,
                "queues",
                case,
                &format!(
                    "multi-queue lockstep diverged (nqueues {nqueues}, depth {depth}):\n{}",
                    out.divergences.join("\n")
                ),
            );
        }
        // Single-op injected faults under GC pressure (read, program, and
        // erase failures landing inside internal traffic).
        let (ops, plan) = strategy::injected_faults(40, 220).generate(&mut rng);
        let mut h = DifferentialHarness::new(pressure_cfg().with_fault_plan(plan));
        let report = h.run(&ops);
        total += 1;
        if h.is_stalled() {
            stalls += 1;
        }
        if !report.is_clean() {
            fail(&report_path, seed, "fault", case, &report.to_string());
        }
    }
    // Steady state over most of a `medium_test` device with the default
    // filters: long enough for GC to reuse data blocks as delta blocks of
    // older filters and for the chain to drop filters, checked every 1000 ops.
    for case in 0..cases / 8 {
        let stream = seed.wrapping_add(u64::from(case) << 32);
        let cfg = SsdConfig::new(Geometry::medium_test()).with_min_retention(SEC_NS);
        let mut h = DifferentialHarness::new(cfg).with_check_every(1000);
        let span = h.ssd().exported_pages() * 8 / 10;
        let report = h.run(&strategy::steady_state_ops(span, stream, 40_000));
        total += 1;
        if h.is_stalled() {
            stalls += 1;
        }
        if !report.is_clean() {
            let report = format!("stream seed {stream}\n{report}");
            fail(&report_path, seed, "steady", case, &report);
        }
    }
    println!("clean: {total} runs ({stalls} stalled), seed {seed}");
}
