//! The TimeKits toolkit: the host-side handle on one TimeSSD.
//!
//! Every call is a thin binding of a device-side body in `almanac_core`
//! (the vendor commands of §4), plus the host's own restore-time model.

use almanac_core::{roll_back, roll_back_all, roll_back_set, snapshot_at, time_scan};
use almanac_core::{
    AddrQuery, QueryCost, QueryHit, Result, RollbackOutcome, TimeQueryHit, TimeSsd,
};
use almanac_flash::{Lpa, Nanos};

/// The TimeKits toolkit bound to one TimeSSD.
pub struct TimeKits<'a> {
    ssd: &'a mut TimeSsd,
    threads: u32,
}

impl<'a> TimeKits<'a> {
    /// Binds the toolkit to a device (single host thread).
    pub fn new(ssd: &'a mut TimeSsd) -> Self {
        TimeKits { ssd, threads: 1 }
    }

    /// Sets the number of host threads used for queries and recovery.
    pub fn with_threads(mut self, threads: u32) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Host threads configured.
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// Read-only view of the underlying device.
    pub fn ssd(&self) -> &TimeSsd {
        self.ssd
    }

    /// Starts an address query over `cnt` LPAs from `addr` — the single
    /// entry point behind Table 1's `AddrQuery` / `AddrQueryRange` /
    /// `AddrQueryAll`. Inherits this toolkit's thread count; narrow with
    /// [`AddrQuery::as_of`] or [`AddrQuery::range`], then
    /// [`AddrQuery::run`].
    pub fn query(&self, addr: Lpa, cnt: u64) -> AddrQuery<'_> {
        AddrQuery::new(self.ssd, addr, cnt).threads(self.threads)
    }

    /// `TimeQuery(t)`: all LPAs updated since `t`, with their timestamps.
    pub fn time_query(&self, t: Nanos) -> (Vec<TimeQueryHit>, QueryCost) {
        time_scan(self.ssd, t, Nanos::MAX, self.threads)
    }

    /// `TimeQueryRange(t1, t2)`: all LPAs updated inside `[t1, t2]`.
    pub fn time_query_range(&self, t1: Nanos, t2: Nanos) -> (Vec<TimeQueryHit>, QueryCost) {
        time_scan(self.ssd, t1, t2, self.threads)
    }

    /// `TimeQueryAll()`: all LPAs updated inside the retention window.
    pub fn time_query_all(&self) -> (Vec<TimeQueryHit>, QueryCost) {
        time_scan(self.ssd, 0, Nanos::MAX, self.threads)
    }

    /// `RollBack(addr, cnt, t)`: reverts each LPA to its state as of `t` by
    /// writing the old version back as a fresh update (§3.9) — the rollback
    /// itself stays undoable. Pages that did not exist at `t` are trimmed.
    pub fn roll_back(
        &mut self,
        addr: Lpa,
        cnt: u64,
        t: Nanos,
        now: Nanos,
    ) -> Result<RollbackOutcome> {
        roll_back(self.ssd, addr, cnt, t, now)
    }

    /// `RollBackAll(t)`: reverts every LPA with any history.
    pub fn roll_back_all(&mut self, t: Nanos, now: Nanos) -> Result<RollbackOutcome> {
        roll_back_all(self.ssd, t, now)
    }

    /// Rolls back an explicit set of LPAs (used by file-level recovery).
    pub fn roll_back_set(&mut self, lpas: &[Lpa], t: Nanos, now: Nanos) -> Result<RollbackOutcome> {
        roll_back_set(self.ssd, lpas.iter().copied(), t, now)
    }

    /// Estimates the virtual time a `threads`-way parallel restore of `lpas`
    /// to their state at `t` would take: pages are dealt round-robin to the
    /// host threads, each thread's chain of read → (decompress) → write-back
    /// runs serially, threads overlap (Figure 11's scaling model).
    pub fn restore_cost_estimate(&self, lpas: &[Lpa], t: Nanos, threads: u32) -> Nanos {
        let lat = self.ssd.flash().latency();
        let threads = threads.max(1) as usize;
        let mut worker = vec![0u64; threads];
        for (i, &lpa) in lpas.iter().enumerate() {
            let Some(v) = self.ssd.version_as_of(lpa, t) else {
                continue;
            };
            let mut cost = lat.read_total() + lat.program_total();
            if !matches!(v.location, almanac_core::VersionLocation::DataPage(_)) {
                cost += lat.read_total() + lat.decompress_ns;
            }
            worker[i % threads] += cost;
        }
        worker.into_iter().max().unwrap_or(0)
    }

    /// Reconstructs (without writing anything) the content of a set of LPAs
    /// as of `t` — the read-only half of recovery.
    pub fn snapshot_at(&self, lpas: &[Lpa], t: Nanos) -> Result<(Vec<QueryHit>, QueryCost)> {
        snapshot_at(self.ssd, lpas, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almanac_core::{SsdConfig, SsdDevice, SsdReadOps};
    use almanac_flash::{Geometry, PageData, SEC_NS};

    fn device_with_history() -> TimeSsd {
        let mut ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
        // LPAs 0..4, three versions each at t = 1s, 2s, 3s (plus offsets).
        for round in 1..=3u64 {
            for lpa in 0..4u64 {
                ssd.write(
                    Lpa(lpa),
                    PageData::Synthetic {
                        seed: lpa,
                        version: round,
                    },
                    round * SEC_NS + lpa * 1000,
                )
                .unwrap();
            }
        }
        ssd
    }

    #[test]
    fn addr_query_returns_state_as_of() {
        let mut ssd = device_with_history();
        let kits = TimeKits::new(&mut ssd);
        let out = kits
            .query(Lpa(0), 4)
            .as_of(2 * SEC_NS + 500_000_000)
            .run()
            .unwrap();
        assert_eq!(out.hits.len(), 4);
        for h in &out.hits {
            assert_eq!(
                h.data,
                PageData::Synthetic {
                    seed: h.lpa.0,
                    version: 2
                }
            );
        }
        assert!(out.cost.flash_reads > 0);
    }

    #[test]
    fn addr_query_all_returns_whole_history() {
        let mut ssd = device_with_history();
        let kits = TimeKits::new(&mut ssd);
        let out = kits.query(Lpa(1), 1).all_versions().run().unwrap();
        assert_eq!(out.hits.len(), 3);
        assert!(out.hits.windows(2).all(|w| w[0].timestamp > w[1].timestamp));
    }

    #[test]
    fn addr_query_range_bounds_versions() {
        let mut ssd = device_with_history();
        let kits = TimeKits::new(&mut ssd);
        let out = kits
            .query(Lpa(0), 1)
            .range(2 * SEC_NS, 4 * SEC_NS)
            .run()
            .unwrap();
        assert_eq!(out.hits.len(), 2); // versions 2 and 3
    }

    #[test]
    fn time_query_finds_updated_lpas() {
        let mut ssd = device_with_history();
        let kits = TimeKits::new(&mut ssd);
        let (hits, _) = kits.time_query(3 * SEC_NS);
        assert_eq!(hits.len(), 4);
        for h in &hits {
            assert_eq!(h.timestamps.len(), 1);
        }
        let (all, _) = kits.time_query_all();
        assert_eq!(all.iter().map(|h| h.timestamps.len()).sum::<usize>(), 12);
    }

    #[test]
    fn time_query_parallel_matches_serial() {
        let mut ssd = device_with_history();
        let serial = TimeKits::new(&mut ssd).time_query_all().0;
        let mut ssd2 = device_with_history();
        let parallel = TimeKits::new(&mut ssd2).with_threads(4).time_query_all().0;
        assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_time_query_is_faster_in_virtual_time() {
        let mut ssd = device_with_history();
        let kits = TimeKits::new(&mut ssd);
        let (_, cost) = kits.time_query_all();
        assert!(cost.makespan(4) < cost.makespan(1));
    }

    #[test]
    fn rollback_restores_and_is_undoable() {
        let mut ssd = device_with_history();
        let mut kits = TimeKits::new(&mut ssd);
        let out = kits
            .roll_back(Lpa(0), 1, SEC_NS + 500_000_000, 10 * SEC_NS)
            .unwrap();
        assert_eq!(out.restored.len(), 1);
        let (data, _) = ssd.read(Lpa(0), 20 * SEC_NS).unwrap();
        assert_eq!(
            data,
            PageData::Synthetic {
                seed: 0,
                version: 1
            }
        );
        // The pre-rollback state is still in the chain (rollback = write).
        let chain = ssd.version_chain(Lpa(0));
        assert_eq!(chain.len(), 4);
    }

    #[test]
    fn rollback_trims_pages_born_after_target() {
        let mut ssd = TimeSsd::new(SsdConfig::new(Geometry::small_test()));
        ssd.write(Lpa(0), PageData::Zeros, 5 * SEC_NS).unwrap();
        let mut kits = TimeKits::new(&mut ssd);
        let out = kits.roll_back(Lpa(0), 1, SEC_NS, 10 * SEC_NS).unwrap();
        assert_eq!(out.erased, vec![Lpa(0)]);
        let (data, _) = ssd.read(Lpa(0), 20 * SEC_NS).unwrap();
        assert_eq!(data, PageData::Zeros);
        assert!(!ssd.is_mapped(Lpa(0)));
    }

    #[test]
    fn rollback_all_covers_device() {
        let mut ssd = device_with_history();
        let mut kits = TimeKits::new(&mut ssd);
        let out = kits
            .roll_back_all(2 * SEC_NS + 500_000_000, 100 * SEC_NS)
            .unwrap();
        assert_eq!(out.restored.len(), 4);
        for lpa in 0..4u64 {
            let (data, _) = ssd.read(Lpa(lpa), 200 * SEC_NS).unwrap();
            assert_eq!(
                data,
                PageData::Synthetic {
                    seed: lpa,
                    version: 2
                }
            );
        }
    }

    #[test]
    fn snapshot_at_does_not_mutate() {
        let mut ssd = device_with_history();
        let writes_before = ssd.stats().user_writes;
        let kits = TimeKits::new(&mut ssd);
        let (hits, _) = kits
            .snapshot_at(&[Lpa(0), Lpa(1)], 2 * SEC_NS + 500_000_000)
            .unwrap();
        assert_eq!(hits.len(), 2);
        assert_eq!(ssd.stats().user_writes, writes_before);
    }

    #[test]
    fn snapshot_missing_version_errors() {
        let mut ssd = device_with_history();
        let kits = TimeKits::new(&mut ssd);
        assert!(kits.snapshot_at(&[Lpa(0)], 10).is_err());
    }

    #[test]
    fn addr_query_range_boundaries_are_inclusive() {
        let mut ssd = device_with_history();
        let kits = TimeKits::new(&mut ssd);
        let chain = kits.ssd().version_chain(Lpa(0));
        let newest = chain.first().unwrap().timestamp;
        let oldest = chain.last().unwrap().timestamp;
        let out = kits.query(Lpa(0), 1).range(oldest, newest).run().unwrap();
        assert_eq!(out.hits.len(), chain.len());
        // Exclusive-feeling boundaries: one nanosecond inside drops the ends.
        let out = kits
            .query(Lpa(0), 1)
            .range(oldest + 1, newest - 1)
            .run()
            .unwrap();
        assert_eq!(out.hits.len(), chain.len() - 2);
    }

    #[test]
    fn restore_estimate_scales_down_with_threads() {
        let mut ssd = device_with_history();
        let kits = TimeKits::new(&mut ssd);
        let lpas: Vec<Lpa> = (0..4).map(Lpa).collect();
        let t1 = kits.restore_cost_estimate(&lpas, u64::MAX, 1);
        let t4 = kits.restore_cost_estimate(&lpas, u64::MAX, 4);
        assert!(t1 > t4);
        assert!(t4 >= t1 / 4);
    }

    #[test]
    fn time_query_range_excludes_outside_window() {
        let mut ssd = device_with_history();
        let kits = TimeKits::new(&mut ssd);
        // Only the round-2 writes (t ≈ 2s).
        let (hits, _) = kits.time_query_range(2 * SEC_NS, 2 * SEC_NS + SEC_NS / 2);
        assert_eq!(hits.len(), 4);
        for h in &hits {
            assert_eq!(h.timestamps.len(), 1);
        }
    }

    #[test]
    fn queries_near_u64_max_do_not_overflow() {
        // Regression: `Lpa(addr.0 + i)` wrapped (debug-build panic) when the
        // start address sat near u64::MAX. The span must saturate and clamp
        // to the exported range, returning nothing.
        let mut ssd = device_with_history();
        let mut kits = TimeKits::new(&mut ssd);
        let addr = Lpa(u64::MAX - 1);
        let out = kits.query(addr, 8).as_of(10 * SEC_NS).run().unwrap();
        assert!(out.hits.is_empty());
        let out = kits.query(addr, 8).range(0, u64::MAX).run().unwrap();
        assert!(out.hits.is_empty());
        let out = kits.query(addr, 8).all_versions().run().unwrap();
        assert!(out.hits.is_empty());
        let out = kits.roll_back(addr, 8, SEC_NS, 10 * SEC_NS).unwrap();
        assert!(out.restored.is_empty() && out.erased.is_empty() && out.skipped.is_empty());
    }

    #[test]
    fn queries_clamp_count_to_exported_span() {
        // A count reaching past `exported_pages()` must not scan beyond the
        // device; the in-range prefix still answers.
        let mut ssd = device_with_history();
        let exported = ssd.exported_pages();
        let kits = TimeKits::new(&mut ssd);
        let out = kits
            .query(Lpa(0), exported + 1000)
            .all_versions()
            .run()
            .unwrap();
        assert_eq!(out.hits.len(), 12); // 4 LPAs × 3 versions, nothing more
        let out = kits
            .query(Lpa(exported - 1), u64::MAX)
            .as_of(10 * SEC_NS)
            .run()
            .unwrap();
        assert!(out.hits.is_empty()); // last page has no history, and no wrap
    }

    #[test]
    fn rollback_zero_count_is_a_noop() {
        let mut ssd = device_with_history();
        let writes = ssd.stats().user_writes;
        let mut kits = TimeKits::new(&mut ssd);
        let out = kits.roll_back(Lpa(0), 0, SEC_NS, 10 * SEC_NS).unwrap();
        assert!(out.restored.is_empty() && out.erased.is_empty());
        assert_eq!(ssd.stats().user_writes, writes);
    }
}
