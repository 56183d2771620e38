//! TimeSSD: the time-traveling FTL (§3 of the paper).
//!
//! TimeSSD retains invalidated flash pages for a workload-adaptive retention
//! window instead of reclaiming them eagerly. The moving pieces:
//!
//! - invalidations are recorded in a time-ordered [Bloom filter
//!   chain](almanac_bloom) at group granularity ([`retention`], §3.4–3.5);
//! - retained versions get delta-compressed against the latest version into
//!   per-filter delta blocks ([`deltas`], §3.6);
//! - every logical page keeps a reverse version chain across data pages
//!   (OOB back-pointers) and delta pages (index mapping table) ([`query`],
//!   §3.7);
//! - GC prefers expired delta blocks, discards reclaimable pages, and
//!   compresses retained ones instead of migrating them ([`gc`], §3.8);
//! - Equation 1 monitors GC overhead and shrinks the retention window when
//!   it exceeds 20% of a page-write cost, never below the three-day
//!   guarantee ([`retention`]);
//! - the Table-1 queries and rollback run on the device: one shard-parallel
//!   scan engine and its cost model ([`engine`]) under the query and
//!   rollback bodies ([`table1`], §3.9 and §4).

mod check;
pub(crate) mod deltas;
pub(crate) mod engine;
pub(crate) mod gc;
pub(crate) mod idle;
pub(crate) mod query;
pub(crate) mod rebuild;
pub(crate) mod retention;
pub(crate) mod table1;

#[cfg(test)]
mod tests;

use std::collections::HashMap;

use almanac_bloom::BloomChain;
use almanac_flash::{BlockId, DeltaRecord, Lpa, Nanos, Ppa};

use crate::check::ConsistencyReport;
use crate::config::SsdConfig;
use crate::error::{AlmanacError, Result};
use crate::ftl::{sealed::Sealed, Ftl, HostOp, Retention};
use crate::tables::{AmtEntry, BlockKind, Imt, Prt};

use deltas::DeltaManager;
use idle::IdlePredictor;
use retention::PeriodCounters;

/// Sentinel `ref_timestamp` meaning "the reference is the all-zero page"
/// (used when compressing versions of a trimmed LPA, which has no valid
/// reference version).
pub const REF_ZEROS: Nanos = Nanos::MAX;

/// Exponential smoothing factor of the idle-time predictor (§3.6).
const IDLE_ALPHA: f64 = 0.5;

/// TimeSSD's retention policy: every invalid page is kept, indexed by time
/// and delta-compressed, until its Bloom filter expires.
#[derive(Clone)]
pub struct TimeTravel {
    pub(crate) prt: Prt,
    pub(crate) imt: Imt,
    pub(crate) chain: BloomChain,
    pub(crate) deltas: DeltaManager,
    pub(crate) period: PeriodCounters,
    pub(crate) idle: IdlePredictor,
    /// Last timestamp assigned to a write; version timestamps must be
    /// strictly increasing per device so chain verification (decreasing
    /// timestamps, §3.7) stays sound even for back-to-back writes.
    pub(crate) last_ts: Nanos,
    /// Repair index built by the §3.7 rebuild scan: every on-flash delta
    /// record per LPA, newest first. Delta records link through back-pointers
    /// that may name a delta *buffer* page lost in a power cut; this index
    /// lets the version chain reconnect across such torn links. Empty on a
    /// normally-constructed device.
    pub(crate) recovered_deltas: HashMap<Lpa, Vec<(Nanos, Ppa)>>,
}

impl TimeTravel {
    /// Policy state around the given time index — empty for a fresh device,
    /// rebuilt from flash after a power cut.
    pub(crate) fn with_index(
        config: &SsdConfig,
        prt: Prt,
        imt: Imt,
        chain: BloomChain,
        deltas: DeltaManager,
    ) -> Self {
        TimeTravel {
            prt,
            imt,
            chain,
            deltas,
            period: PeriodCounters::default(),
            idle: IdlePredictor::new(IDLE_ALPHA, config.idle_threshold),
            last_ts: 0,
            recovered_deltas: HashMap::new(),
        }
    }
}

/// The time-traveling SSD.
///
/// # Examples
///
/// ```
/// use almanac_core::{SsdConfig, SsdDevice, TimeSsd};
/// use almanac_flash::{Geometry, Lpa, PageData};
///
/// let mut ssd = TimeSsd::new(SsdConfig::new(Geometry::small_test()));
/// ssd.write(Lpa(0), PageData::Synthetic { seed: 0, version: 1 }, 1_000).unwrap();
/// ssd.write(Lpa(0), PageData::Synthetic { seed: 0, version: 2 }, 2_000).unwrap();
/// // Both versions are now reachable through the version chain.
/// assert_eq!(ssd.version_chain(Lpa(0)).len(), 2);
/// ```
pub type TimeSsd = Ftl<TimeTravel>;

impl Sealed for TimeTravel {}

impl Retention for TimeTravel {
    const KIND: &'static str = "timessd";
    const COMPRESSES: bool = true;

    fn new(config: &SsdConfig) -> Self {
        let geo = config.geometry;
        TimeTravel::with_index(
            config,
            Prt::new(geo.total_pages()),
            Imt::new(config.exported_pages()),
            BloomChain::new(config.bloom),
            DeltaManager::new(geo, config.trim_journal_watermark),
        )
    }

    /// The page stays on flash; its invalidation time goes into the active
    /// Bloom filter.
    fn on_invalidate(ftl: &mut Ftl<Self>, old: Ppa, _lpa: Lpa, now: Nanos) {
        let group = ftl.group_of(old);
        ftl.policy.chain.insert(group, now);
    }

    /// Algorithm 1, lines 2-3: a delta block whose Bloom filter is gone
    /// holds only expired deltas — free space with no work.
    fn gc_prelude(ftl: &mut Ftl<Self>, now: Nanos) -> Result<Option<Nanos>> {
        let Some(block) = ftl.policy.deltas.expired_blocks().next() else {
            return Ok(None);
        };
        let t = ftl.erase_block(block, now)?;
        ftl.policy.deltas.forget_expired(block);
        ftl.policy.period.erases += 1;
        Ok(Some(t))
    }

    fn reclaim(ftl: &mut Ftl<Self>, ppa: Ppa, t: Nanos) -> Result<Nanos> {
        ftl.compress_retained(ppa, t)
    }

    fn on_erase(ftl: &mut Ftl<Self>, block: BlockId) {
        ftl.policy.prt.clear_block(&ftl.config.geometry, block);
    }

    fn relieve(ftl: &mut Ftl<Self>, now: Nanos) -> bool {
        ftl.force_shrink(now)
    }

    /// What runs at arrival differs per command: background compression
    /// wants the idle window that a write or read just ended, every command
    /// that can be followed by a long gap bounds tombstone age, and a trim —
    /// which, unlike the baselines', programs a journal page — needs GC.
    fn maintain(ftl: &mut Ftl<Self>, op: HostOp, now: Nanos) -> Result<()> {
        match op {
            HostOp::Write(_) => {
                ftl.background_compress_window(now)?;
                ftl.flush_aged_tombstones(now)?;
                ftl.policy.idle.on_arrival(now);
            }
            HostOp::Read(_) => {
                // Idle compression is optional work: on a read, a window
                // that cannot get a delta block just ends, and the read
                // still serves its bytes. A write keeps its typed stall.
                match ftl.background_compress_window(now) {
                    Ok(()) | Err(AlmanacError::DeviceStalled { .. }) => {}
                    Err(e) => return Err(e),
                }
                ftl.flush_aged_tombstones(now)?;
                ftl.policy.idle.on_arrival(now);
            }
            HostOp::Trim(_) => {
                ftl.flush_aged_tombstones(now)?;
                ftl.policy.idle.on_arrival(now);
                ftl.maybe_gc(now)?;
            }
            HostOp::Flush => ftl.policy.idle.on_arrival(now),
        }
        Ok(())
    }

    fn stamp(ftl: &mut Ftl<Self>, op: HostOp, start: Nanos) -> Nanos {
        match op {
            HostOp::Write(_) => {
                let start = start.max(ftl.policy.last_ts + 1);
                ftl.policy.last_ts = start;
                start
            }
            HostOp::Read(_) | HostOp::Trim(_) | HostOp::Flush => start,
        }
    }

    fn after_write(ftl: &mut Ftl<Self>, start: Nanos) {
        ftl.policy.period.user_writes += 1;
        ftl.maybe_evaluate_period(start);
    }

    /// The tombstone is journalled through the delta stream so the trim
    /// survives a power cut.
    fn trim(ftl: &mut Ftl<Self>, lpa: Lpa, start: Nanos) -> Result<Nanos> {
        let mut finish = start + ftl.flash.latency().transfer_ns;
        if let AmtEntry::Mapped(old) = ftl.amt.get(lpa) {
            // Invalidation times recorded in the Bloom chain must never
            // regress: back-to-back writes push `last_ts` ahead of wall
            // time, and a filter whose creation time exceeds an earlier
            // filter's youngest entry would let `may_drop_oldest`
            // overestimate those entries' ages and expire them early.
            let inv_ts = start.max(ftl.policy.last_ts);
            // Journal the tombstone into the filter segment that records
            // this invalidation *before* any RAM state changes, so record
            // and versions expire together with the filter. The journal
            // batches tombstones (`trim_journal_watermark`) and flushes on
            // watermark, capacity, or a host flush barrier — between
            // flushes an acked trim is volatile like any buffered delta
            // (fsync semantics, §3.7 crash contract). A failed journal
            // append leaves the trim un-applied — only a spurious Bloom
            // insert remains, a false positive the filters tolerate by
            // design.
            let group = ftl.group_of(old);
            let fid = ftl.policy.chain.insert(group, inv_ts);
            let out = ftl.policy.deltas.journal_trim(
                fid,
                DeltaRecord::trim(lpa, old, inv_ts),
                &mut ftl.alloc,
                &mut ftl.bst,
                &mut ftl.flash,
                start,
            )?;
            ftl.stats.delta_programs += out.programs;
            finish = finish.max(out.finish);
            // Remember the chain head (and when it stopped existing) so
            // deleted data stays recoverable and as-of queries know the
            // page read as zeros from here on.
            ftl.amt.set(lpa, AmtEntry::Trimmed(old, inv_ts));
            ftl.mark_invalid(old);
            // Later writes must timestamp strictly after the trim, or the
            // on-flash order (journal record vs. rewrite) is ambiguous at
            // rebuild time.
            ftl.policy.last_ts = inv_ts;
        }
        Ok(finish)
    }

    fn drain(ftl: &mut Ftl<Self>, start: Nanos) -> Result<Nanos> {
        ftl.flush_buffers(start)
    }

    fn stall_window(ftl: &Ftl<Self>, now: Nanos) -> Nanos {
        ftl.retention_window(now)
    }

    fn read_view(ftl: &Ftl<Self>) -> Option<&TimeSsd> {
        Some(ftl)
    }

    fn audit(ftl: &Ftl<Self>, report: &mut ConsistencyReport) {
        ftl.audit_history(report);
    }
}

impl TimeSsd {
    /// Current width of the retention window: from the creation of the
    /// oldest live Bloom filter to `now` (§3.5).
    pub fn retention_window(&self, now: Nanos) -> Nanos {
        match self.policy.chain.retention_start() {
            Some(start) => now.saturating_sub(start),
            None => 0,
        }
    }

    /// Number of live Bloom filters (time segments).
    pub fn live_filters(&self) -> usize {
        self.policy.chain.len()
    }

    /// Number of flash blocks currently dedicated to live delta segments.
    pub fn delta_block_count(&self) -> usize {
        self.policy.deltas.block_count()
    }

    /// Number of delta pages still sitting in volatile RAM buffers. Zero
    /// immediately after an acknowledged [`flush`](crate::SsdDevice::flush).
    pub fn buffered_delta_pages(&self) -> usize {
        self.policy.deltas.buffered_pages().count()
    }

    /// Partition width a ranged query over this device strides by (see
    /// [`SsdConfig::amt_shards`]); at least 1.
    pub fn amt_shards(&self) -> u32 {
        self.config.amt_shards.max(1)
    }

    /// Flushes all pending delta buffers to flash. This is the host
    /// [`flush`](crate::SsdDevice::flush) barrier's engine (also a shutdown
    /// hook): on success every buffered delta and tombstone is durable and
    /// the barrier point advances; on failure nothing is acked and a retry
    /// re-targets the surviving buffers.
    pub fn flush_buffers(&mut self, now: Nanos) -> Result<Nanos> {
        let out = self.policy.deltas.flush_all(
            &mut self.bst,
            &mut self.flash,
            now.max(self.busy_until),
            self.config.flush_page_cost,
        );
        // Bank partial work *before* surfacing any mid-loop fault: the
        // buffers flushed before the fault programmed real flash and spent
        // real controller time, so `busy_until` and the program counters
        // must advance even when the barrier as a whole is not acked.
        self.stats.delta_programs += out.programs;
        self.stats.flush_pages += out.programs;
        self.busy_until = self.busy_until.max(out.finish);
        let (t, _) = out.into_result()?;
        Ok(t)
    }

    /// Age-based group-flush scheduler (§3.6 maintenance path): flushes any
    /// delta buffer whose oldest pending tombstone was enqueued more than
    /// `tombstone_flush_deadline` ago, bounding how long an acked trim stays
    /// volatile between host barriers on rarely-trimming workloads.
    ///
    /// Runs at every host-op arrival, so the bound holds at op boundaries
    /// without an idle-predictor gate. Like background compression it does
    /// not advance `busy_until` — flash programs are charged to the chips
    /// and the stats, but host traffic arriving mid-flush is not delayed.
    pub(crate) fn flush_aged_tombstones(&mut self, now: Nanos) -> Result<()> {
        let deadline = self.config.tombstone_flush_deadline;
        for fid in self.policy.deltas.aged_trim_filters(now, deadline) {
            let (_, programs) =
                self.policy
                    .deltas
                    .flush_filter(fid, &mut self.bst, &mut self.flash, now)?;
            self.stats.delta_programs += programs;
            self.stats.aging_flushes += programs;
        }
        Ok(())
    }

    /// The Bloom-filter group key of a physical page (§3.5: invalidations
    /// are tracked for N consecutive pages at once).
    pub(crate) fn group_of(&self, ppa: Ppa) -> u64 {
        ppa.0 / self.config.group_size as u64
    }

    /// Fraction of the physical pages holding live data: valid pages plus
    /// the pages of delta blocks dedicated to live filters.
    fn space_utilization(&self) -> f64 {
        let mut used = 0u64;
        for (_, info) in self.bst.iter() {
            match info.kind {
                BlockKind::Data => used += info.valid as u64,
                BlockKind::Delta(_) => used += info.written as u64,
                BlockKind::Free => {}
            }
        }
        used as f64 / self.config.geometry.total_pages() as f64
    }

    /// Evaluates Equation 1 at the end of each `N_fixed`-write period and
    /// shrinks the retention window when the retention machinery's overhead
    /// is too high (§3.4), or when retained data crowds the device past the
    /// space high-water mark.
    fn maybe_evaluate_period(&mut self, now: Nanos) {
        if self.policy.period.user_writes < self.config.n_fixed {
            return;
        }
        let over = self.policy.period.over_threshold(
            self.flash.latency(),
            self.config.n_fixed,
            self.config.gc_overhead_threshold,
        );
        if over || self.space_utilization() > 0.90 {
            self.force_shrink(now);
        }
        self.policy.period.reset();
    }
}
