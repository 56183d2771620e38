//! Longer-horizon differential fuzz sweep: every strategy at several times
//! seed scale, mixed configs (AMT cache on and off), the flush-barrier,
//! tombstone-aging and multi-queue suites, plus single-op fault injection.
//! Every harness run ends with the whole-space query check; the cache-on
//! `trim` and `cut` suites rotate the partition width over 2, 3, 4 and 8
//! with the case, so ragged widths stay under the model. Run locally or by
//! the scheduled `long-fuzz` CI job.
//!
//! Environment:
//!
//! - `LONG_FUZZ_SEED` — decimal seed mixed into every case's RNG, so the
//!   nightly job explores a different deterministic slice each day (CI
//!   derives it from the date). Default 0 reproduces the classic sweep.
//! - `LONG_FUZZ_CASES` — cases per suite (default 32).
//! - `LONG_FUZZ_REPORT` — where to write the failure report consumed by the
//!   CI artifact upload (default `long_fuzz_failure.txt`).
//!
//! On divergence the failing suite, case, seed, and full report are printed
//! and written to the report file, then the process exits non-zero — the
//! report names everything needed to replay the case locally.

use almanac_core::SsdConfig;
use almanac_flash::{Geometry, MS_NS, SEC_NS};
use almanac_oracle::{lockstep_queue_run, strategy, DifferentialHarness};
use proptest::{Strategy, TestRng};

fn cached(mut cfg: SsdConfig) -> SsdConfig {
    cfg.amt_cache_pages = Some(2);
    cfg
}

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
                cached(SsdConfig::new(Geometry::medium_test()).with_amt_shards(width)),
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
                cached(SsdConfig::new(Geometry::medium_test()).with_amt_shards(width)),
            ),
            (
                "roll",
                strategy::rollback_storm(12, 300),
                SsdConfig::new(Geometry::medium_test()),
            ),
            // Flush barriers under power cuts: mixed-in barriers hold the
            // fsync contract, and barrier-before-every-cut runs must come
            // back with zero crash waivers.
            (
                "barrier",
                strategy::barrier_mix(16, 400),
                cached(SsdConfig::new(Geometry::medium_test())),
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
        // Multi-queue lockstep: the same host stream serially and through
        // the NVMe controller with out-of-order completions; host-visible
        // state must match and every flush must fence its queue. Queue
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
    println!("clean: {total} runs ({stalls} stalled), seed {seed}");
}
