//! Partition-width lockstep: the same op stream applied to a device whose
//! queries scan in one partition and a device whose queries scan in N,
//! compared op for op.
//!
//! Each device sits behind its own [`DifferentialHarness`], which applies
//! the ops, power-cycles, and holds the device to the model. What only this
//! runner can compare is the two devices *with each other*: `amt_shards` is
//! the width `lpa % width` splits a ranged query by, and the AMT, the IMT
//! and the map cache are flat tables it never reaches, so every op must
//! produce byte-identical answers, *identical completion timings*,
//! identical statistics and identical map-cache traffic on both — with the
//! cache on or off — by construction. What the comparison really holds the
//! firmware to is that the merge rule is deterministic: every [`AddrQuery`]
//! mode and every time query must return the same hits and the same merged
//! retrieval cost at every width and worker count.

use std::fmt::{Arguments, Debug};
use std::mem::discriminant;

use almanac_core::{Result, SsdConfig, SsdReadOps, TimeSsd};
use almanac_flash::{Lpa, Nanos};
use almanac_kits::{AddrQuery, QueryCost, TimeKits, TimeQueryHit};

use crate::harness::{Answer, DifferentialHarness, MAX_DIVERGENCES};
use crate::strategy::OracleOp;

/// Outcome of one sharded-vs-unsharded lockstep run.
#[derive(Debug)]
pub struct ShardRunOutcome {
    /// Human-readable divergences; empty means the run passed.
    pub divergences: Vec<String>,
    /// Ops applied to both devices.
    pub applied: usize,
    /// Power cuts both devices survived.
    pub power_cuts: usize,
    /// Address and time queries compared (across modes and worker counts).
    pub queries_compared: u64,
}

impl ShardRunOutcome {
    /// True when no divergence was found.
    pub fn passed(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Records a divergence unless the two devices agree on `what`.
fn same<T: PartialEq + Debug>(
    log: &mut Vec<String>,
    what: Arguments<'_>,
    flat: T,
    wide: T,
) -> bool {
    let same = flat == wide;
    if !same && log.len() < MAX_DIVERGENCES {
        log.push(format!("{what}: flat={flat:?}, sharded={wide:?}"));
    }
    same
}

/// The pair of harnessed devices under lockstep, plus the run's bookkeeping.
struct ShardLockstep {
    flat: DifferentialHarness,
    sharded: DifferentialHarness,
    divergences: Vec<String>,
    queries_compared: u64,
}

impl ShardLockstep {
    fn new(cfg: SsdConfig, shards: u32) -> Self {
        ShardLockstep {
            flat: DifferentialHarness::new(cfg.clone().with_amt_shards(1)),
            sharded: DifferentialHarness::new(cfg.with_amt_shards(shards)),
            divergences: Vec::new(),
            queries_compared: 0,
        }
    }

    /// Further ops are meaningless once either device stops.
    fn done(&self) -> bool {
        self.flat.is_stalled()
            || self.sharded.is_stalled()
            || self.divergences.len() >= MAX_DIVERGENCES
    }

    /// Applies op `i` to both sides and compares what they answered:
    /// identical values (completions included) on success, the same error
    /// shape on failure — so a stall on one side only is a divergence. A
    /// `Check` also sweeps the whole host-visible state.
    fn step(&mut self, i: usize, op: &OracleOp) {
        let flat = self.flat.step(op);
        let sharded = self.sharded.step(op);
        let swept = matches!(flat, Ok(Answer::Checked(_)));
        let what = format_args!("op {i}: {op:?}");
        let shape = |answer: Result<Answer>| answer.map_err(|e| discriminant(&e));
        same(&mut self.divergences, what, shape(flat), shape(sharded));
        if swept {
            self.compare_state(i);
        }
    }

    /// Compares every [`AddrQuery`] mode over the whole exported span and
    /// every time query, at one worker and at the sharded device's full
    /// worker count: hits and merged cost must match the flat device exactly.
    fn compare_queries(&mut self, i: usize) {
        let now = self.flat.now();
        let (flat, sharded) = (self.flat.ssd(), self.sharded.ssd());
        let exported = flat.exported_pages();
        let workers = [1, sharded.amt_shards()];
        type ModeFn = fn(AddrQuery<'_>, Nanos) -> AddrQuery<'_>;
        let modes: [(&str, ModeFn); 3] = [
            ("as_of", |q, t| q.as_of(t)),
            ("range", |q, t| q.range(t / 2, t)),
            ("all", |q, _| q.all_versions()),
        ];
        for (name, mode) in modes {
            let run = |ssd: &TimeSsd, threads| {
                let query = AddrQuery::new(ssd.read_view(), Lpa(0), exported).threads(threads);
                mode(query, now).run().ok().map(|out| (out.hits, out.cost))
            };
            let flat_out = run(flat, 1);
            for threads in workers {
                self.queries_compared += 1;
                let out = run(sharded, threads);
                let what = format_args!("op {i}: {name} query at {threads} threads");
                same(&mut self.divergences, what, &flat_out, &out);
            }
        }
        type TimeFn = fn(&TimeKits<'_>, Nanos) -> (Vec<TimeQueryHit>, QueryCost);
        let time_modes: [(&str, TimeFn); 3] = [
            ("since", |k, t| k.time_query(t / 2)),
            ("window", |k, t| k.time_query_range(t / 2, t)),
            ("all", |k, _| k.time_query_all()),
        ];
        for (name, query) in time_modes {
            let flat_out = query(&TimeKits::new(self.flat.ssd_mut_bypassing_model()), now);
            for threads in workers {
                let kits = TimeKits::new(self.sharded.ssd_mut_bypassing_model());
                let out = query(&kits.with_threads(threads), now);
                self.queries_compared += 1;
                let what = format_args!("op {i}: time query ({name}) at {threads} threads");
                same(&mut self.divergences, what, &flat_out, &out);
            }
        }
    }

    /// Full host-visible state sweep: per page the mapped flag, tombstone,
    /// whole version chain and head bytes; per device the consistency
    /// report, the statistics and the map-cache traffic; then the queries.
    fn compare_state(&mut self, i: usize) {
        let (flat, sharded) = (self.flat.ssd(), self.sharded.ssd());
        let log = &mut self.divergences;
        let page_size = flat.geometry().page_size as usize;
        for lpa in (0..flat.exported_pages()).map(Lpa) {
            if log.len() >= MAX_DIVERGENCES {
                return;
            }
            let page = |ssd: &TimeSsd| {
                let chain = ssd.version_chain(lpa);
                let stamps: Vec<Nanos> = chain.iter().map(|v| v.timestamp).collect();
                let head = chain.first().filter(|v| v.is_head);
                let head = head.and_then(|v| ssd.version_content(lpa, v.timestamp).ok());
                let bytes = head.map(|data| data.materialize(page_size));
                (ssd.is_mapped(lpa), ssd.trimmed_at(lpa), stamps, bytes)
            };
            let what = format_args!("op {i}: {lpa:?} (mapped, trimmed_at, chain, head bytes)");
            same(log, what, page(flat), page(sharded));
        }
        let device = |ssd: &TimeSsd| {
            let report = ssd.check_consistency();
            (report.violations, *ssd.stats(), ssd.map_cache_traffic())
        };
        let what = format_args!("op {i}: (consistency report, statistics, map-cache traffic)");
        same(log, what, device(flat), device(sharded));
        self.compare_queries(i);
    }
}

/// Runs `ops` against a width-1 device and a width-`shards` device in
/// lockstep, comparing every op outcome, and sweeping the full host-visible
/// state (plus all query modes at several worker counts) at every `Check`
/// op and at the end. Power cuts hit both devices; both must rebuild to the
/// same state. Each device is also held to the reference model throughout.
pub fn lockstep_shard_run(cfg: SsdConfig, ops: &[OracleOp], shards: u32) -> ShardRunOutcome {
    let mut run = ShardLockstep::new(cfg, shards);
    let mut applied = 0usize;
    for (i, op) in ops.iter().enumerate() {
        if run.done() {
            break;
        }
        applied += 1;
        run.step(i, op);
    }
    run.compare_state(ops.len());

    let mut divergences = run.divergences;
    for (side, h) in [("flat", &mut run.flat), ("sharded", &mut run.sharded)] {
        h.check_now();
        let vs_model = h.divergences().iter();
        divergences.extend(vs_model.map(|d| format!("{side} device vs model: {d:?}")));
    }
    ShardRunOutcome {
        divergences,
        applied,
        power_cuts: run.flat.power_cuts(),
        queries_compared: run.queries_compared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almanac_core::SsdDevice;
    use almanac_flash::{Geometry, PageData, SEC_NS};

    fn cfg() -> SsdConfig {
        SsdConfig::new(Geometry::small_test())
    }

    #[test]
    fn simple_stream_is_shard_invariant() {
        let ops: Vec<OracleOp> = (0..60)
            .map(|i| OracleOp::Write {
                lpa: i % 8,
                gap: if i % 7 == 0 { SEC_NS } else { 1_000 },
            })
            .chain([OracleOp::Check])
            .chain((0..8).map(|lpa| OracleOp::Read { lpa, gap: 1_000 }))
            .collect();
        let out = lockstep_shard_run(cfg(), &ops, 4);
        assert!(out.passed(), "divergences: {:?}", out.divergences);
        assert_eq!(out.applied, 69);
        assert!(out.queries_compared >= 12, "final sweep + Check sweep");
    }

    #[test]
    fn power_cut_rebuild_is_shard_invariant() {
        let mut ops: Vec<OracleOp> = (0..40)
            .map(|i| OracleOp::Write {
                lpa: i % 6,
                gap: 10_000,
            })
            .collect();
        ops.push(OracleOp::Trim { lpa: 2, gap: 1_000 });
        ops.push(OracleOp::Flush { gap: 0 });
        ops.push(OracleOp::PowerCut);
        ops.push(OracleOp::Check);
        let out = lockstep_shard_run(cfg(), &ops, 8);
        assert!(out.passed(), "divergences: {:?}", out.divergences);
        assert_eq!(out.power_cuts, 1);
    }

    #[test]
    fn rollback_storms_are_shard_invariant() {
        let mut ops = Vec::new();
        for round in 0..3u64 {
            for lpa in 0..6u64 {
                ops.push(OracleOp::Write {
                    lpa,
                    gap: SEC_NS / 4,
                });
            }
            ops.push(OracleOp::RollBack {
                lpa: round % 4,
                cnt: 2,
                back: SEC_NS,
                gap: 1_000,
            });
        }
        ops.push(OracleOp::Check);
        let out = lockstep_shard_run(cfg(), &ops, 3);
        assert!(out.passed(), "divergences: {:?}", out.divergences);
    }

    fn write(lpa: u64, gap: Nanos) -> OracleOp {
        OracleOp::Write { lpa, gap }
    }

    #[test]
    fn seeded_divergence_is_caught() {
        // Sanity: the runner is not vacuous. Write to the flat device only
        // and confirm the state sweep flags the mismatch.
        let mut run = ShardLockstep::new(cfg(), 4);
        let rogue = PageData::Synthetic {
            seed: 3,
            version: 1,
        };
        let flat = run.flat.ssd_mut_bypassing_model();
        flat.write(Lpa(3), rogue, SEC_NS).unwrap();
        run.compare_state(0);
        assert!(
            run.divergences.iter().any(|d| d.contains("op 0: Lpa(3)")),
            "a one-sided write must be detected, got {:?}",
            run.divergences
        );
    }

    #[test]
    fn seeded_timing_divergence_is_caught() {
        // Same data on both sides, but the flat device is held busy behind
        // a barrier the sharded one never saw: the next paired write starts
        // later on one side only. The per-op comparison must report the
        // completions, and the state sweep the statistics.
        let mut run = ShardLockstep::new(cfg(), 4);
        for i in 0..4 {
            run.step(i, &write(i as u64, 1_000));
        }
        assert!(run.divergences.is_empty(), "{:?}", run.divergences);
        let flat = run.flat.ssd_mut_bypassing_model();
        flat.flush(SEC_NS).unwrap();
        run.step(4, &write(5, 1_000));
        assert_eq!(run.divergences.len(), 1, "{:?}", run.divergences);
        assert!(
            run.divergences[0].starts_with("op 4: Write") && run.divergences[0].contains("Io("),
            "a one-sided delay must show in the completions, got {:?}",
            run.divergences
        );
        run.compare_state(5);
        assert!(
            run.divergences.iter().any(|d| d.contains("statistics")),
            "a one-sided flush must show in the statistics, got {:?}",
            run.divergences
        );
    }
}
