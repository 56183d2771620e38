//! Partition-width lockstep: the same op stream applied to a device whose
//! queries scan in one partition and a device whose queries scan in N,
//! compared op for op.
//!
//! `amt_shards` is the width `lpa % width` splits a ranged query by; the
//! AMT, the IMT and the map cache are flat tables it never reaches. So
//! every host op (writes, reads, trims, flushes, as-of probes, TimeKits
//! rollbacks, power cuts) must produce byte-identical results, *identical
//! completion timings* and identical map-cache traffic on both devices —
//! with the cache on or off — by construction. What this runner really
//! holds the firmware to is that the merge rule is deterministic: every
//! [`AddrQuery`] mode and every time query must return the same hits and
//! the same merged retrieval cost at every width and worker count.

use almanac_core::{AlmanacError, SsdConfig, SsdDevice, SsdReadOps, TimeSsd};
use almanac_flash::{Lpa, Nanos, PageData};
use almanac_kits::{AddrQuery, QueryCost, TimeKits, TimeQueryHit};

use crate::strategy::OracleOp;

/// Stop recording after this many divergences (the first is what matters).
const MAX_DIVERGENCES: usize = 16;

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

/// The pair of devices under lockstep, plus the run's bookkeeping.
struct ShardLockstep {
    flat: TimeSsd,
    sharded: TimeSsd,
    flat_cfg: SsdConfig,
    shard_cfg: SsdConfig,
    divergences: Vec<String>,
    now: Nanos,
    seq: u64,
    stalled: bool,
    power_cuts: usize,
    queries_compared: u64,
}

impl ShardLockstep {
    fn diverge(&mut self, msg: String) {
        if self.divergences.len() < MAX_DIVERGENCES {
            self.divergences.push(msg);
        }
    }

    fn done(&self) -> bool {
        self.stalled || self.divergences.len() >= MAX_DIVERGENCES
    }

    /// Applies the same fallible device op to both sides and compares the
    /// outcome: identical completions on success, same error shape on
    /// failure. A stall on either side must be a stall on both.
    fn paired_op<T: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        f: impl Fn(&mut TimeSsd, Nanos) -> Result<T, AlmanacError>,
    ) {
        let a = f(&mut self.flat, self.now);
        let b = f(&mut self.sharded, self.now);
        match (a, b) {
            (Ok(x), Ok(y)) => {
                if x != y {
                    self.diverge(format!("{what}: flat={x:?}, sharded={y:?}"));
                }
            }
            (Err(ea), Err(eb)) => {
                if std::mem::discriminant(&ea) != std::mem::discriminant(&eb) {
                    self.diverge(format!("{what}: flat err={ea:?}, sharded err={eb:?}"));
                }
                if matches!(ea, AlmanacError::DeviceStalled { .. })
                    || matches!(eb, AlmanacError::DeviceStalled { .. })
                {
                    self.stalled = true;
                }
            }
            (a, b) => {
                // A stall on one side only is itself a divergence, and
                // further ops are meaningless once either device stops.
                if matches!(&a, Err(AlmanacError::DeviceStalled { .. }))
                    || matches!(&b, Err(AlmanacError::DeviceStalled { .. }))
                {
                    self.stalled = true;
                }
                self.diverge(format!(
                    "{what}: outcomes differ (flat ok={}, sharded ok={})",
                    a.is_ok(),
                    b.is_ok()
                ));
            }
        }
    }

    /// Cuts power on both devices and recovers each from its flash.
    fn power_cycle(&mut self) {
        self.power_cuts += 1;
        for (dev, cfg) in [
            (&mut self.flat, &self.flat_cfg),
            (&mut self.sharded, &self.shard_cfg),
        ] {
            let placeholder = TimeSsd::new(cfg.clone());
            let old = std::mem::replace(dev, placeholder);
            let mut flash = old.into_flash();
            flash.revive();
            *dev = TimeSsd::recover_from_flash(flash, cfg.clone());
        }
        self.stalled = false;
    }

    /// Compares every [`AddrQuery`] mode over the whole exported span and
    /// every time query, at one worker and at the sharded device's full
    /// worker count: hits and merged cost must match the flat device exactly.
    fn compare_queries(&mut self, i: usize) {
        let exported = self.flat.exported_pages();
        let shard_workers = self.sharded.amt_shards();
        type ModeFn = fn(AddrQuery<'_>, Nanos) -> AddrQuery<'_>;
        let modes: [(&str, ModeFn); 3] = [
            ("as_of", |q, t| q.as_of(t)),
            ("range", |q, t| q.range(t / 2, t)),
            ("all", |q, _| q.all_versions()),
        ];
        for (name, mode) in modes {
            let flat_out = mode(
                AddrQuery::new(self.flat.read_view(), Lpa(0), exported),
                self.now,
            )
            .run();
            for threads in [1u32, shard_workers] {
                let sharded_out = mode(
                    AddrQuery::new(self.sharded.read_view(), Lpa(0), exported).threads(threads),
                    self.now,
                )
                .run();
                self.queries_compared += 1;
                match (&flat_out, &sharded_out) {
                    (Ok(f), Ok(s)) => {
                        if f.hits != s.hits {
                            self.diverge(format!(
                                "op {i}: {name} query hits diverge at {threads} threads"
                            ));
                        }
                        if f.cost != s.cost {
                            self.diverge(format!(
                                "op {i}: {name} query cost diverges at {threads} threads"
                            ));
                        }
                    }
                    (Err(_), Err(_)) => {}
                    (f, s) => self.diverge(format!(
                        "op {i}: {name} query outcomes differ (flat ok={}, sharded ok={})",
                        f.is_ok(),
                        s.is_ok()
                    )),
                }
            }
        }
        type TimeFn = fn(&TimeKits<'_>, Nanos) -> (Vec<TimeQueryHit>, QueryCost);
        let time_modes: [(&str, TimeFn); 3] = [
            ("since", |k, t| k.time_query(t / 2)),
            ("window", |k, t| k.time_query_range(t / 2, t)),
            ("all", |k, _| k.time_query_all()),
        ];
        for (name, query) in time_modes {
            let (flat_hits, flat_cost) = query(&TimeKits::new(&mut self.flat), self.now);
            for threads in [1u32, shard_workers] {
                let kits = TimeKits::new(&mut self.sharded).with_threads(threads);
                let (hits, cost) = query(&kits, self.now);
                self.queries_compared += 1;
                if flat_hits != hits {
                    self.diverge(format!(
                        "op {i}: time query ({name}) hits diverge at {threads} threads"
                    ));
                }
                if flat_cost != cost {
                    self.diverge(format!(
                        "op {i}: time query ({name}) cost diverges at {threads} threads"
                    ));
                }
            }
        }
    }

    /// Full host-visible state sweep: mapped set, tombstones, head bytes,
    /// whole version chains, and the devices' own consistency reports.
    fn compare_state(&mut self, i: usize) {
        let exported = self.flat.exported_pages();
        let page_size = self.flat.geometry().page_size as usize;
        for lpa in (0..exported).map(Lpa) {
            if self.divergences.len() >= MAX_DIVERGENCES {
                return;
            }
            let (fm, sm) = (self.flat.is_mapped(lpa), self.sharded.is_mapped(lpa));
            if fm != sm {
                self.diverge(format!(
                    "op {i}: lpa {lpa:?} mapped flat={fm}, sharded={sm}"
                ));
                continue;
            }
            let (ft, st) = (self.flat.trimmed_at(lpa), self.sharded.trimmed_at(lpa));
            if ft != st {
                self.diverge(format!(
                    "op {i}: lpa {lpa:?} trimmed_at flat={ft:?}, sharded={st:?}"
                ));
            }
            let fc = self.flat.version_chain(lpa);
            let sc = self.sharded.version_chain(lpa);
            let fts: Vec<Nanos> = fc.iter().map(|v| v.timestamp).collect();
            let sts: Vec<Nanos> = sc.iter().map(|v| v.timestamp).collect();
            if fts != sts {
                self.diverge(format!(
                    "op {i}: lpa {lpa:?} chains diverge: flat={fts:?}, sharded={sts:?}"
                ));
                continue;
            }
            if let Some(head) = fc.first().filter(|v| v.is_head) {
                let fb = self
                    .flat
                    .version_content(lpa, head.timestamp)
                    .map(|d| d.materialize(page_size));
                let sb = self
                    .sharded
                    .version_content(lpa, head.timestamp)
                    .map(|d| d.materialize(page_size));
                if fb.ok() != sb.ok() {
                    self.diverge(format!("op {i}: lpa {lpa:?} head bytes diverge"));
                }
            }
        }
        let fr = self.flat.check_consistency();
        let sr = self.sharded.check_consistency();
        let fv: Vec<String> = fr.violations.iter().map(|v| format!("{v:?}")).collect();
        let sv: Vec<String> = sr.violations.iter().map(|v| format!("{v:?}")).collect();
        if fv != sv {
            self.diverge(format!(
                "op {i}: consistency reports diverge: flat={fv:?}, sharded={sv:?}"
            ));
        }
        let (fc, sc) = (
            self.flat.map_cache_traffic(),
            self.sharded.map_cache_traffic(),
        );
        if fc != sc {
            self.diverge(format!(
                "op {i}: map-cache traffic diverges: flat={fc:?}, sharded={sc:?}"
            ));
        }
        self.compare_queries(i);
    }
}

/// Runs `ops` against a width-1 device and a width-`shards` device in
/// lockstep, comparing every op outcome, and sweeping the full host-visible
/// state (plus all query modes at several worker counts) at every `Check`
/// op and at the end. Power cuts hit both devices; both must rebuild to the
/// same state.
pub fn lockstep_shard_run(cfg: SsdConfig, ops: &[OracleOp], shards: u32) -> ShardRunOutcome {
    let flat_cfg = cfg.clone().with_amt_shards(1);
    let shard_cfg = cfg.with_amt_shards(shards);
    let mut run = ShardLockstep {
        flat: TimeSsd::new(flat_cfg.clone()),
        sharded: TimeSsd::new(shard_cfg.clone()),
        flat_cfg,
        shard_cfg,
        divergences: Vec::new(),
        now: 0,
        seq: 0,
        stalled: false,
        power_cuts: 0,
        queries_compared: 0,
    };
    let exported = run.flat.exported_pages();
    let mut applied = 0usize;

    for (i, op) in ops.iter().enumerate() {
        if run.done() {
            break;
        }
        applied += 1;
        match *op {
            OracleOp::Write { lpa, gap } => {
                run.now = run.now.saturating_add(gap);
                run.seq += 1;
                let lpa = Lpa(lpa % exported);
                let data = PageData::Synthetic {
                    seed: lpa.0 ^ 0x5eed_0000,
                    version: run.seq,
                };
                run.paired_op(&format!("op {i}: write {lpa:?}"), |d, now| {
                    d.write(lpa, data.clone(), now)
                });
            }
            OracleOp::WriteBytes { lpa, tag, gap } => {
                run.now = run.now.saturating_add(gap);
                run.seq += 1;
                let lpa = Lpa(lpa % exported);
                let page_size = run.flat.geometry().page_size as usize;
                let mut bytes = vec![tag; page_size];
                bytes[..8].copy_from_slice(&lpa.0.to_le_bytes());
                let data = PageData::bytes(bytes);
                run.paired_op(&format!("op {i}: write-bytes {lpa:?}"), |d, now| {
                    d.write(lpa, data.clone(), now)
                });
            }
            OracleOp::Read { lpa, gap } => {
                run.now = run.now.saturating_add(gap);
                let lpa = Lpa(lpa % exported);
                let page_size = run.flat.geometry().page_size as usize;
                run.paired_op(&format!("op {i}: read {lpa:?}"), |d, now| {
                    d.read(lpa, now)
                        .map(|(data, c)| (data.materialize(page_size), c))
                });
            }
            OracleOp::Trim { lpa, gap } => {
                run.now = run.now.saturating_add(gap);
                let lpa = Lpa(lpa % exported);
                run.paired_op(&format!("op {i}: trim {lpa:?}"), |d, now| d.trim(lpa, now));
            }
            OracleOp::AsOf { lpa, back, gap } => {
                run.now = run.now.saturating_add(gap);
                let lpa = Lpa(lpa % exported);
                let at = run.now.saturating_sub(back);
                let f = run.flat.version_as_of(lpa, at).map(|v| v.timestamp);
                let s = run.sharded.version_as_of(lpa, at).map(|v| v.timestamp);
                if f != s {
                    run.diverge(format!(
                        "op {i}: as_of({lpa:?}, {at}) flat={f:?}, sharded={s:?}"
                    ));
                }
            }
            OracleOp::RollBack {
                lpa,
                cnt,
                back,
                gap,
            } => {
                run.now = run.now.saturating_add(gap);
                let start = lpa % exported;
                let cnt = cnt.clamp(1, exported - start);
                let t = run.now.saturating_sub(back);
                run.paired_op(&format!("op {i}: rollback {start}+{cnt}"), |d, now| {
                    TimeKits::new(d).roll_back(Lpa(start), cnt, t, now)
                });
            }
            OracleOp::Flush { gap } => {
                run.now = run.now.saturating_add(gap);
                run.paired_op(&format!("op {i}: flush"), |d, now| d.flush(now));
            }
            OracleOp::PowerCut => run.power_cycle(),
            OracleOp::Check => run.compare_state(i),
        }
    }
    run.compare_state(ops.len());

    ShardRunOutcome {
        divergences: run.divergences,
        applied,
        power_cuts: run.power_cuts,
        queries_compared: run.queries_compared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almanac_flash::{Geometry, SEC_NS};

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

    #[test]
    fn seeded_divergence_is_caught() {
        // Sanity: the runner is not vacuous. Write to the flat device only
        // and confirm the state sweep flags the mismatch.
        let flat_cfg = cfg().with_amt_shards(1);
        let shard_cfg = cfg().with_amt_shards(4);
        let mut run = ShardLockstep {
            flat: TimeSsd::new(flat_cfg.clone()),
            sharded: TimeSsd::new(shard_cfg.clone()),
            flat_cfg,
            shard_cfg,
            divergences: Vec::new(),
            now: SEC_NS,
            seq: 0,
            stalled: false,
            power_cuts: 0,
            queries_compared: 0,
        };
        run.flat
            .write(
                Lpa(3),
                PageData::Synthetic {
                    seed: 3,
                    version: 1,
                },
                SEC_NS,
            )
            .unwrap();
        run.compare_state(0);
        assert!(
            !run.divergences.is_empty(),
            "a one-sided write must be detected"
        );
    }
}
