//! Delta buffers and per-filter delta blocks (⑧ of Figure 3 and §3.6).
//!
//! Compressed old versions are coalesced in per-filter delta buffers until a
//! buffer fills a page, which is then programmed into a delta block
//! *dedicated to that filter's time segment*. When the retention window is
//! shortened by dropping the oldest Bloom filter, every delta block dedicated
//! to it contains only expired versions and can be erased without migration.
//!
//! Each buffer *reserves* its flash page when it is created, so the physical
//! address of a delta page is known before the page is programmed — this is
//! what lets back-pointers into not-yet-flushed delta pages be chained
//! safely. A reserved-but-unflushed page is readable through
//! [`DeltaManager::buffered_page`], modelling the firmware reading its own
//! RAM. The reservation is no cursor of its own: it is the page at the
//! delta block's BST `written`, which only the buffer's flush advances.

use std::collections::{BTreeMap, BTreeSet};

use almanac_bloom::FilterId;
use almanac_flash::{
    BlockId, DeltaPage, DeltaRecord, DeltaRecords, FlashArray, Geometry, Lpa, Nanos, Oob, PageData,
    Ppa,
};

use crate::alloc::Allocator;
use crate::error::{AlmanacError, Result};
use crate::tables::{BlockKind, Bst};

/// The LPA recorded in the OOB of packed delta pages (they belong to no
/// single logical page).
const DELTA_PAGE_OOB_LPA: Lpa = Lpa(u64::MAX);

#[derive(Clone)]
struct Buffer {
    reserved: Ppa,
    /// The page's records, newest first.
    records: Vec<DeltaRecord>,
    used: u32,
    /// Sequence number of the oldest record in this buffer (monotonic append
    /// counter, not a timestamp — equal-timestamp bursts make wall-clock
    /// comparisons ambiguous).
    first_seq: u64,
    /// TRIM tombstones buffered since the last flush of this buffer.
    pending_trims: u32,
    /// Enqueue instant of the oldest pending tombstone in this buffer, for
    /// the age-based group-flush scheduler. `None` while no trim is pending.
    oldest_trim_at: Option<Nanos>,
}

/// Outcome of a host barrier ([`DeltaManager::flush_all`]).
///
/// Unlike a plain `Result`, this carries the time and program count of the
/// buffers that *did* reach flash even when a later buffer's program faulted:
/// the device must advance `busy_until` for work actually performed before
/// refusing to ack the barrier.
#[derive(Debug)]
pub struct BarrierFlush {
    /// Completion time of the last successful program (or `now` if none).
    pub finish: Nanos,
    /// Flash programs performed before any fault.
    pub programs: u64,
    /// The mid-loop fault, if one stopped the barrier short.
    pub error: Option<AlmanacError>,
}

impl BarrierFlush {
    /// Converts to a `Result`, for callers that have already banked the
    /// partial `finish`/`programs`.
    pub fn into_result(self) -> Result<(Nanos, u64)> {
        match self.error {
            None => Ok((self.finish, self.programs)),
            Some(e) => Err(e),
        }
    }
}

/// Outcome of appending one delta record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Delta page (possibly still buffered) that holds the record.
    pub page: Ppa,
    /// Completion time including any flush program that was needed.
    pub finish: Nanos,
    /// Number of flash programs performed (0 or 1).
    pub programs: u64,
}

/// Manager of delta buffers, active delta blocks, and per-filter block sets.
#[derive(Clone)]
pub struct DeltaManager {
    geometry: Geometry,
    /// Live buffers, oldest filter first: a barrier programs them in this
    /// order, and each delta page's OOB timestamp is its program time, so
    /// the order must not depend on a hasher's seed.
    buffers: BTreeMap<FilterId, Buffer>,
    /// The delta block each filter is filling.
    active_blocks: BTreeMap<FilterId, BlockId>,
    blocks: BTreeMap<FilterId, Vec<BlockId>>,
    /// Delta blocks of dropped filters, waiting for GC to erase them: every
    /// delta in them is expired, so they are free space with no migration
    /// (Algorithm 1, line 2). Ordered, because GC takes the lowest first.
    expired: BTreeSet<BlockId>,
    /// Buffers holding at least one pending tombstone
    /// (`oldest_trim_at.is_some()`), so the per-host-op aging check is one
    /// compare while no trim is buffered.
    trim_buffers: usize,
    /// Monotonic counter, bumped once per appended record.
    seq: u64,
    /// Value of `seq` when the last *complete* barrier ([`Self::flush_all`])
    /// succeeded. Every record with a sequence number at or below this is
    /// durable on flash; a live buffer whose `first_seq` is at or below it
    /// would violate the barrier contract.
    barrier_seq: u64,
    /// Buffered tombstones per filter that trigger a flush of that buffer
    /// (`0` = never flush on count, barrier/capacity only; `1` = the old
    /// flush-per-trim behaviour).
    trim_watermark: u32,
}

impl DeltaManager {
    /// Creates an empty manager. `trim_watermark` is the number of buffered
    /// TRIM tombstones that forces a flush of the holding buffer.
    pub fn new(geometry: Geometry, trim_watermark: u32) -> Self {
        DeltaManager {
            geometry,
            buffers: BTreeMap::new(),
            active_blocks: BTreeMap::new(),
            blocks: BTreeMap::new(),
            expired: BTreeSet::new(),
            trim_buffers: 0,
            seq: 0,
            barrier_seq: 0,
            trim_watermark,
        }
    }

    /// Usable payload bytes of a delta page holding `n` deltas.
    fn capacity_for(&self, n: usize) -> u32 {
        self.geometry
            .page_size
            .saturating_sub(DeltaPage::header_bytes(n))
    }

    /// Largest single delta that fits an empty page.
    pub fn max_delta_size(&self) -> u32 {
        self.capacity_for(1)
    }

    /// Reserves the next page of `filter`'s active delta block, opening a new
    /// block from the free pool when needed. The page is the block's
    /// `written`: a filter holds at most one unflushed reservation, and its
    /// flush is what advances `written`.
    fn reserve_page(
        &mut self,
        filter: FilterId,
        alloc: &mut Allocator,
        bst: &mut Bst,
        now: Nanos,
    ) -> Result<Ppa> {
        let open = self.active_blocks.get(&filter).copied();
        let block = match open.filter(|&b| bst.get(b).written < self.geometry.pages_per_block) {
            Some(block) => block,
            None => {
                let block = alloc.alloc_block(None).ok_or(AlmanacError::DeviceStalled {
                    now,
                    retention_window: 0,
                })?;
                bst.update(block, |info| info.kind = BlockKind::Delta(filter));
                self.blocks.entry(filter).or_default().push(block);
                self.active_blocks.insert(filter, block);
                block
            }
        };
        Ok(self.geometry.ppa(block.0, bst.get(block).written))
    }

    /// Appends a record to `filter`'s buffer, flushing the buffer to flash
    /// first when the record does not fit.
    ///
    /// The caller fills in every field of `record` except `size` clamping:
    /// oversized deltas are clamped to the page payload capacity.
    pub fn append(
        &mut self,
        filter: FilterId,
        mut record: DeltaRecord,
        alloc: &mut Allocator,
        bst: &mut Bst,
        flash: &mut FlashArray,
        now: Nanos,
    ) -> Result<AppendOutcome> {
        record.size = record.size.min(self.max_delta_size());
        let mut finish = now;
        let mut programs = 0;

        let fits = |buf: &Buffer, rec: &DeltaRecord, cap: u32| buf.used + rec.size <= cap;
        let needs_flush = match self.buffers.get(&filter) {
            None => false,
            Some(buf) => !fits(buf, &record, self.capacity_for(buf.records.len() + 1)),
        };
        if needs_flush {
            let (t, p) = self.flush_filter(filter, bst, flash, finish)?;
            finish = t;
            programs += p;
        }
        self.seq += 1;
        if !self.buffers.contains_key(&filter) {
            let reserved = self.reserve_page(filter, alloc, bst, finish)?;
            self.buffers.insert(
                filter,
                Buffer {
                    reserved,
                    records: Vec::new(),
                    used: 0,
                    first_seq: self.seq,
                    pending_trims: 0,
                    oldest_trim_at: None,
                },
            );
        }
        let buf = self
            .buffers
            .get_mut(&filter)
            .ok_or(AlmanacError::Internal("delta buffer vanished"))?;
        buf.used += record.size;
        buf.records.insert(0, record); // newest first within the page
        Ok(AppendOutcome {
            page: buf.reserved,
            finish,
            programs,
        })
    }

    /// Flushes `filter`'s buffer (if any) to its reserved flash page.
    ///
    /// On a failed program (power loss, injected fault) the buffer is kept:
    /// the records are still in RAM and a retry targets the same reserved
    /// page, so nothing is silently lost while the device is still alive.
    pub fn flush_filter(
        &mut self,
        filter: FilterId,
        bst: &mut Bst,
        flash: &mut FlashArray,
        now: Nanos,
    ) -> Result<(Nanos, u64)> {
        let Some(buf) = self.buffers.get_mut(&filter) else {
            return Ok((now, 0));
        };
        // The records move into the page's one exact-size allocation. The
        // buffer gives its spare capacity back in place first: freeing it
        // whole after the move left a hole per flush, ≈ 3 % more peak RSS
        // on a long replay.
        let mut records = std::mem::take(&mut buf.records);
        records.shrink_to_fit();
        let deltas = DeltaRecords::from(records);
        let oob = Oob::new(DELTA_PAGE_OOB_LPA, None, now);
        let page = PageData::DeltaPage(DeltaPage {
            deltas: deltas.clone(),
        });
        let finish = match flash.program(buf.reserved, page, oob, now) {
            Ok(finish) => finish,
            Err(e) => {
                // The records come back from the page: the buffer stays
                // retryable on its reserved page.
                buf.records = deltas.to_vec();
                return Err(e.into());
            }
        };
        let block = self.geometry.block_of(buf.reserved);
        self.discard_buffer(filter);
        bst.update(block, |info| info.written += 1);
        Ok((finish, 1))
    }

    /// Journals a trim tombstone: appends the TRIM record to `filter`'s
    /// buffer and flushes that buffer once it has coalesced `trim_watermark`
    /// tombstones (a watermark of 1 reproduces the old flush-per-trim
    /// journal; 0 defers entirely to barriers and capacity flushes). Between
    /// flushes an acked trim is volatile, exactly like a buffered write
    /// delta — the host [`flush`](crate::device::SsdDevice::flush) barrier
    /// is the durability point.
    pub fn journal_trim(
        &mut self,
        filter: FilterId,
        record: DeltaRecord,
        alloc: &mut Allocator,
        bst: &mut Bst,
        flash: &mut FlashArray,
        now: Nanos,
    ) -> Result<AppendOutcome> {
        let out = self.append(filter, record, alloc, bst, flash, now)?;
        let buf = self
            .buffers
            .get_mut(&filter)
            .ok_or(AlmanacError::Internal("delta buffer vanished"))?;
        buf.pending_trims += 1;
        if buf.oldest_trim_at.is_none() {
            buf.oldest_trim_at = Some(now);
            self.trim_buffers += 1;
        }
        if self.trim_watermark != 0 && buf.pending_trims >= self.trim_watermark {
            let (finish, programs) = self.flush_filter(filter, bst, flash, out.finish)?;
            return Ok(AppendOutcome {
                page: out.page,
                finish,
                programs: out.programs + programs,
            });
        }
        Ok(out)
    }

    /// Flushes every buffer (host barrier / shutdown), oldest filter first,
    /// charging `page_cost` of controller-side work on top of each flash
    /// program. Only when
    /// *every* buffer reaches flash does the barrier point advance: a
    /// mid-loop program fault leaves `barrier_seq` untouched (and the failed
    /// buffer intact), so the caller can refuse to ack and retry.
    ///
    /// The returned [`BarrierFlush`] carries the time and programs of the
    /// buffers flushed *before* any fault — partial work happened on real
    /// flash and must be charged even when the barrier as a whole fails.
    pub fn flush_all(
        &mut self,
        bst: &mut Bst,
        flash: &mut FlashArray,
        now: Nanos,
        page_cost: Nanos,
    ) -> BarrierFlush {
        let filters: Vec<FilterId> = self.buffers.keys().copied().collect();
        let mut t = now;
        let mut programs = 0;
        for f in filters {
            match self.flush_filter(f, bst, flash, t) {
                Ok((ft, p)) => {
                    t = ft.saturating_add(page_cost * p);
                    programs += p;
                }
                Err(e) => {
                    return BarrierFlush {
                        finish: t,
                        programs,
                        error: Some(e),
                    };
                }
            }
        }
        self.barrier_seq = self.seq;
        BarrierFlush {
            finish: t,
            programs,
            error: None,
        }
    }

    /// Filters whose oldest pending tombstone was enqueued more than
    /// `deadline` ago — the batches the age-based group-flush scheduler owes
    /// a flush. Empty when `deadline` is 0 (aging disabled).
    pub fn aged_trim_filters(&self, now: Nanos, deadline: Nanos) -> Vec<FilterId> {
        if deadline == 0 || self.trim_buffers == 0 {
            return Vec::new();
        }
        self.buffers
            .iter()
            .filter(|(_, b)| {
                b.oldest_trim_at
                    .is_some_and(|at| now.saturating_sub(at) > deadline)
            })
            .map(|(f, _)| *f)
            .collect()
    }

    /// Age of the oldest pending (volatile) tombstone across every buffer,
    /// or `None` when no tombstone is buffered. The consistency checker
    /// asserts this never exceeds the configured deadline at op boundaries.
    pub fn oldest_pending_trim_age(&self, now: Nanos) -> Option<Nanos> {
        self.buffers
            .values()
            .filter_map(|b| b.oldest_trim_at)
            .map(|at| now.saturating_sub(at))
            .max()
    }

    /// Test hook: backdates the pending-tombstone stamp of `filter`'s
    /// buffer, forging the over-deadline corruption the aging audit catches.
    #[cfg(test)]
    pub(crate) fn backdate_trim_stamp(&mut self, filter: FilterId, at: Nanos) {
        if let Some(buf) = self.buffers.get_mut(&filter) {
            buf.pending_trims = buf.pending_trims.max(1);
            if buf.oldest_trim_at.replace(at).is_none() {
                self.trim_buffers += 1;
            }
        }
    }

    /// Reserved pages of live buffers holding records from at or before the
    /// last completed barrier. A correct device always returns an empty
    /// list — the barrier flushed every buffer alive at that point — so the
    /// consistency checker treats entries as violations.
    pub fn pre_barrier_buffers(&self) -> Vec<Ppa> {
        self.buffers
            .values()
            .filter(|b| b.first_seq <= self.barrier_seq)
            .map(|b| b.reserved)
            .collect()
    }

    /// Test hook: advances the barrier point *without* flushing, forging the
    /// exact corruption the pre-barrier audit exists to catch.
    #[cfg(test)]
    pub(crate) fn mark_barrier_unchecked(&mut self) {
        self.barrier_seq = self.seq;
    }

    /// Reads a reserved-but-unflushed delta page's records from the
    /// buffers.
    pub fn buffered_page(&self, ppa: Ppa) -> Option<&[DeltaRecord]> {
        self.buffers
            .values()
            .find(|b| b.reserved == ppa)
            .map(|b| b.records.as_slice())
    }

    /// Iterates over every reserved-but-unflushed delta page (consistency
    /// checking: buffered TRIM records count toward the durable-trim audit
    /// only once flushed, but buffered pages are still part of the stream).
    pub fn buffered_pages(&self) -> impl Iterator<Item = &[DeltaRecord]> {
        self.buffers.values().map(|b| b.records.as_slice())
    }

    /// Removes `filter`'s buffer, keeping the pending-tombstone count in step.
    fn discard_buffer(&mut self, filter: FilterId) {
        if let Some(buf) = self.buffers.remove(&filter) {
            self.trim_buffers -= usize::from(buf.oldest_trim_at.is_some());
        }
    }

    /// Forgets a filter: discards its buffer and active block; its delta
    /// blocks are now fully expired and queue for GC to erase.
    pub fn drop_filter(&mut self, filter: FilterId) {
        self.discard_buffer(filter);
        self.active_blocks.remove(&filter);
        self.expired
            .extend(self.blocks.remove(&filter).unwrap_or_default());
    }

    /// The expired delta blocks not yet erased, lowest block first.
    pub fn expired_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.expired.iter().copied()
    }

    /// An expired delta block was erased.
    pub fn forget_expired(&mut self, block: BlockId) {
        self.expired.remove(&block);
    }

    /// Adopts an existing on-flash delta block into a filter's set (used by
    /// power-cycle rebuild).
    pub fn adopt_block(&mut self, filter: FilterId, block: BlockId) {
        self.blocks.entry(filter).or_default().push(block);
    }

    /// Total delta blocks currently dedicated to live filters.
    pub fn block_count(&self) -> usize {
        self.blocks.values().map(|v| v.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almanac_flash::{DeltaBody, Geometry, LatencyConfig};

    fn fixture() -> (DeltaManager, Allocator, Bst, FlashArray) {
        let geo = Geometry::small_test();
        (
            DeltaManager::new(geo, 8),
            Allocator::new(geo, &Bst::new(&geo, true)),
            Bst::new(&geo, true),
            FlashArray::new(geo, LatencyConfig::default()),
        )
    }

    fn record(lpa: u64, ts: Nanos, size: u32) -> DeltaRecord {
        DeltaRecord {
            lpa: Lpa(lpa),
            back_ptr: None,
            timestamp: ts,
            ref_timestamp: ts + 1,
            body: DeltaBody::Zeros,
            size,
        }
    }

    #[test]
    fn append_reserves_a_real_page() {
        let (mut mgr, mut alloc, mut bst, mut flash) = fixture();
        let out = mgr
            .append(0, record(1, 10, 100), &mut alloc, &mut bst, &mut flash, 0)
            .unwrap();
        assert_eq!(out.programs, 0);
        assert!(mgr.buffered_page(out.page).is_some());
        assert_eq!(mgr.block_count(), 1);
    }

    #[test]
    fn buffer_flushes_when_full() {
        let (mut mgr, mut alloc, mut bst, mut flash) = fixture();
        let big = mgr.max_delta_size() / 2 + 1;
        let a = mgr
            .append(1, record(1, 10, big), &mut alloc, &mut bst, &mut flash, 0)
            .unwrap();
        let b = mgr
            .append(
                1,
                record(1, 20, big),
                &mut alloc,
                &mut bst,
                &mut flash,
                a.finish,
            )
            .unwrap();
        assert_eq!(b.programs, 1, "first buffer should have been flushed");
        assert_ne!(a.page, b.page);
        // The flushed page is now on flash, not buffered.
        assert!(mgr.buffered_page(a.page).is_none());
        assert!(flash.peek(a.page).is_ok());
    }

    #[test]
    fn flushed_page_contains_records() {
        let (mut mgr, mut alloc, mut bst, mut flash) = fixture();
        let out = mgr
            .append(2, record(7, 5, 64), &mut alloc, &mut bst, &mut flash, 0)
            .unwrap();
        mgr.flush_filter(2, &mut bst, &mut flash, out.finish)
            .unwrap();
        let (data, _) = flash.peek(out.page).unwrap();
        match data {
            PageData::DeltaPage(dp) => {
                assert!(dp
                    .deltas
                    .iter()
                    .any(|d| d.lpa == Lpa(7) && d.timestamp == 5));
            }
            other => panic!("expected delta page, got {other:?}"),
        }
    }

    #[test]
    fn oversized_delta_is_clamped() {
        let (mut mgr, mut alloc, mut bst, mut flash) = fixture();
        let out = mgr
            .append(
                0,
                record(1, 1, u32::MAX),
                &mut alloc,
                &mut bst,
                &mut flash,
                0,
            )
            .unwrap();
        let page = mgr.buffered_page(out.page).unwrap();
        assert_eq!(page[0].size, mgr.max_delta_size());
    }

    #[test]
    fn dropped_filters_blocks_queue_for_gc_in_block_order() {
        let (mut mgr, mut alloc, mut bst, mut flash) = fixture();
        let geo = Geometry::small_test();
        let mut block_of = |mgr: &mut DeltaManager, filter| {
            let out = mgr
                .append(
                    filter,
                    record(1, 1, 10),
                    &mut alloc,
                    &mut bst,
                    &mut flash,
                    0,
                )
                .unwrap();
            geo.block_of(out.page)
        };
        let (b3, b5, b4) = (
            block_of(&mut mgr, 3),
            block_of(&mut mgr, 5),
            block_of(&mut mgr, 4),
        );
        mgr.drop_filter(4);
        mgr.drop_filter(3);
        assert_eq!(mgr.block_count(), 1, "filter 5 is still live");
        assert!(mgr.buffered_page(geo.ppa(b3.0, 0)).is_none());
        assert!(mgr.buffered_page(geo.ppa(b5.0, 0)).is_some());
        // GC is offered the expired blocks lowest first, whatever order
        // their filters went in, until it reports each one erased.
        let (low, high) = (b3.min(b4), b3.max(b4));
        assert_eq!(mgr.expired_blocks().collect::<Vec<_>>(), [low, high]);
        mgr.forget_expired(low);
        assert_eq!(mgr.expired_blocks().collect::<Vec<_>>(), [high]);
    }

    #[test]
    fn separate_filters_use_separate_blocks() {
        let (mut mgr, mut alloc, mut bst, mut flash) = fixture();
        let a = mgr
            .append(0, record(1, 1, 10), &mut alloc, &mut bst, &mut flash, 0)
            .unwrap();
        let b = mgr
            .append(1, record(1, 2, 10), &mut alloc, &mut bst, &mut flash, 0)
            .unwrap();
        let geo = Geometry::small_test();
        assert_ne!(geo.block_of(a.page), geo.block_of(b.page));
        assert_eq!(mgr.block_count(), 2);
    }

    #[test]
    fn journal_trim_batches_until_watermark() {
        let geo = Geometry::small_test();
        let mut mgr = DeltaManager::new(geo, 3);
        let mut bst = Bst::new(&geo, true);
        let mut alloc = Allocator::new(geo, &bst);
        let mut flash = FlashArray::new(geo, LatencyConfig::default());
        let mut programs = 0;
        for i in 0..2 {
            let out = mgr
                .journal_trim(0, record(i, 10 + i, 8), &mut alloc, &mut bst, &mut flash, 0)
                .unwrap();
            programs += out.programs;
            assert!(mgr.buffered_page(out.page).is_some(), "trim {i} buffered");
        }
        assert_eq!(programs, 0, "below the watermark nothing is programmed");
        let out = mgr
            .journal_trim(0, record(2, 30, 8), &mut alloc, &mut bst, &mut flash, 0)
            .unwrap();
        assert_eq!(out.programs, 1, "watermark trim flushes the batch");
        assert!(mgr.buffered_page(out.page).is_none());
        assert!(flash.peek(out.page).is_ok());
    }

    #[test]
    fn watermark_one_reproduces_flush_per_trim() {
        let geo = Geometry::small_test();
        let mut mgr = DeltaManager::new(geo, 1);
        let mut bst = Bst::new(&geo, true);
        let mut alloc = Allocator::new(geo, &bst);
        let mut flash = FlashArray::new(geo, LatencyConfig::default());
        for i in 0..3 {
            let out = mgr
                .journal_trim(0, record(i, 10 + i, 8), &mut alloc, &mut bst, &mut flash, 0)
                .unwrap();
            assert_eq!(out.programs, 1, "trim {i} should flush immediately");
            assert!(mgr.buffered_page(out.page).is_none());
        }
    }

    #[test]
    fn flush_all_advances_barrier_and_empties_buffers() {
        let (mut mgr, mut alloc, mut bst, mut flash) = fixture();
        mgr.append(0, record(1, 10, 8), &mut alloc, &mut bst, &mut flash, 0)
            .unwrap();
        mgr.append(1, record(2, 11, 8), &mut alloc, &mut bst, &mut flash, 0)
            .unwrap();
        let (_, programs) = mgr
            .flush_all(&mut bst, &mut flash, 100, 0)
            .into_result()
            .unwrap();
        assert_eq!(programs, 2);
        assert_eq!(mgr.buffered_pages().count(), 0);
        assert!(mgr.pre_barrier_buffers().is_empty());
        // Records appended after the barrier are legitimately volatile.
        mgr.append(2, record(3, 12, 8), &mut alloc, &mut bst, &mut flash, 200)
            .unwrap();
        assert!(mgr.pre_barrier_buffers().is_empty());
    }

    #[test]
    fn unchecked_barrier_over_live_buffer_trips_audit() {
        let (mut mgr, mut alloc, mut bst, mut flash) = fixture();
        let out = mgr
            .append(0, record(1, 10, 8), &mut alloc, &mut bst, &mut flash, 0)
            .unwrap();
        mgr.mark_barrier_unchecked();
        assert_eq!(mgr.pre_barrier_buffers(), vec![out.page]);
    }

    #[test]
    fn program_fault_mid_flush_keeps_buffer_retryable() {
        let geo = Geometry::small_test();
        let mut mgr = DeltaManager::new(geo, 8);
        let mut bst = Bst::new(&geo, true);
        let mut alloc = Allocator::new(geo, &bst);
        let mut flash = FlashArray::new(geo, LatencyConfig::default())
            .with_fault_plan(almanac_flash::FaultPlan::new(1).with_program_fault(0));
        let mut out = mgr
            .append(0, record(1, 10, 8), &mut alloc, &mut bst, &mut flash, 0)
            .unwrap();
        for i in 2..5 {
            out = mgr
                .append(0, record(i, 10 * i, 8), &mut alloc, &mut bst, &mut flash, 0)
                .unwrap();
        }
        let before = mgr.buffered_page(out.page).unwrap().to_vec();
        assert_eq!(before.len(), 4);
        assert!(
            mgr.flush_filter(0, &mut bst, &mut flash, 50).is_err(),
            "injected program fault must surface"
        );
        // The records are still in RAM, unchanged, aimed at the same page.
        assert_eq!(mgr.buffered_page(out.page), Some(&before[..]));
        let (_, programs) = mgr.flush_filter(0, &mut bst, &mut flash, 60).unwrap();
        assert_eq!(programs, 1, "retry programs the same reserved page");
        assert!(mgr.buffered_page(out.page).is_none());
        match flash.peek(out.page).unwrap().0 {
            PageData::DeltaPage(dp) => assert_eq!(*dp.deltas, before[..]),
            other => panic!("expected delta page, got {other:?}"),
        }
    }

    #[test]
    fn failed_barrier_does_not_advance_barrier_point() {
        let geo = Geometry::small_test();
        let mut mgr = DeltaManager::new(geo, 8);
        let mut bst = Bst::new(&geo, true);
        let mut alloc = Allocator::new(geo, &bst);
        let mut flash = FlashArray::new(geo, LatencyConfig::default())
            .with_fault_plan(almanac_flash::FaultPlan::new(1).with_program_fault(0));
        mgr.append(0, record(1, 10, 8), &mut alloc, &mut bst, &mut flash, 0)
            .unwrap();
        assert!(mgr.flush_all(&mut bst, &mut flash, 50, 0).error.is_some());
        // The failed barrier was never acked, so the surviving buffer is not
        // a contract violation...
        assert!(mgr.pre_barrier_buffers().is_empty());
        // ...and the retry completes the barrier for real.
        let (_, programs) = mgr
            .flush_all(&mut bst, &mut flash, 60, 0)
            .into_result()
            .unwrap();
        assert_eq!(programs, 1);
        assert_eq!(mgr.buffered_pages().count(), 0);
    }

    #[test]
    fn failed_barrier_still_charges_partial_work() {
        // Two dirty filters; the SECOND program faults. The barrier must
        // report the time and program count of the first flush — that page
        // really reached flash — alongside the error.
        let geo = Geometry::small_test();
        let mut mgr = DeltaManager::new(geo, 8);
        let mut bst = Bst::new(&geo, true);
        let mut alloc = Allocator::new(geo, &bst);
        let mut flash = FlashArray::new(geo, LatencyConfig::default())
            .with_fault_plan(almanac_flash::FaultPlan::new(1).with_program_fault(1));
        mgr.append(0, record(1, 10, 8), &mut alloc, &mut bst, &mut flash, 0)
            .unwrap();
        mgr.append(1, record(2, 11, 8), &mut alloc, &mut bst, &mut flash, 0)
            .unwrap();
        let out = mgr.flush_all(&mut bst, &mut flash, 50, 7);
        assert!(out.error.is_some(), "injected fault must surface");
        assert_eq!(out.programs, 1, "first filter's program happened");
        assert!(
            out.finish > 50 + 7,
            "partial finish covers the successful program plus page cost, got {}",
            out.finish
        );
        assert_eq!(
            mgr.buffered_pages().count(),
            1,
            "only the faulted buffer survives"
        );
        // The retry flushes the survivor and completes the barrier.
        let (_, programs) = mgr
            .flush_all(&mut bst, &mut flash, out.finish, 7)
            .into_result()
            .unwrap();
        assert_eq!(programs, 1);
        assert!(mgr.pre_barrier_buffers().is_empty());
    }

    #[test]
    fn page_cost_extends_barrier_finish() {
        let (mut mgr, mut alloc, mut bst, mut flash) = fixture();
        mgr.append(0, record(1, 10, 8), &mut alloc, &mut bst, &mut flash, 0)
            .unwrap();
        mgr.append(1, record(2, 11, 8), &mut alloc, &mut bst, &mut flash, 0)
            .unwrap();
        let free = mgr
            .clone()
            .flush_all(&mut bst.clone(), &mut flash.clone(), 100, 0)
            .into_result()
            .unwrap();
        let costed = mgr
            .flush_all(&mut bst, &mut flash, 100, 1000)
            .into_result()
            .unwrap();
        assert_eq!(costed.1, 2);
        assert_eq!(
            costed.0,
            free.0 + 2 * 1000,
            "each flushed page adds its controller cost"
        );
    }

    #[test]
    fn aging_tracks_oldest_pending_tombstone() {
        let (mut mgr, mut alloc, mut bst, mut flash) = fixture();
        // Plain write deltas never age.
        mgr.append(0, record(1, 10, 8), &mut alloc, &mut bst, &mut flash, 0)
            .unwrap();
        assert!(mgr.oldest_pending_trim_age(1_000_000).is_none());
        assert!(mgr.aged_trim_filters(1_000_000, 100).is_empty());
        // A journalled trim stamps its enqueue instant.
        mgr.journal_trim(1, record(2, 20, 8), &mut alloc, &mut bst, &mut flash, 500)
            .unwrap();
        mgr.journal_trim(1, record(3, 30, 8), &mut alloc, &mut bst, &mut flash, 900)
            .unwrap();
        assert_eq!(mgr.oldest_pending_trim_age(600), Some(100));
        assert!(
            mgr.aged_trim_filters(600, 100).is_empty(),
            "age == deadline holds"
        );
        assert_eq!(mgr.aged_trim_filters(601, 100), vec![1]);
        assert!(mgr.aged_trim_filters(601, 0).is_empty(), "0 disables aging");
        // Flushing the aged batch clears the stamp.
        mgr.flush_filter(1, &mut bst, &mut flash, 700).unwrap();
        assert!(mgr.oldest_pending_trim_age(10_000).is_none());
        assert!(mgr.aged_trim_filters(10_000, 100).is_empty());
    }

    #[test]
    fn double_flush_is_idempotent() {
        let (mut mgr, mut alloc, mut bst, mut flash) = fixture();
        let out = mgr
            .append(0, record(1, 10, 8), &mut alloc, &mut bst, &mut flash, 0)
            .unwrap();
        let (t1, p1) = mgr.flush_filter(0, &mut bst, &mut flash, 50).unwrap();
        assert_eq!(p1, 1);
        let (t2, p2) = mgr.flush_filter(0, &mut bst, &mut flash, t1).unwrap();
        assert_eq!((t2, p2), (t1, 0), "second flush is a no-op");
        let (t3, p3) = mgr
            .flush_all(&mut bst, &mut flash, t2, 1000)
            .into_result()
            .unwrap();
        assert_eq!((t3, p3), (t2, 0), "barrier over empty buffers is free");
        assert!(flash.peek(out.page).is_ok());
    }

    #[test]
    fn newest_record_is_first_in_page() {
        let (mut mgr, mut alloc, mut bst, mut flash) = fixture();
        mgr.append(0, record(1, 10, 8), &mut alloc, &mut bst, &mut flash, 0)
            .unwrap();
        let out = mgr
            .append(0, record(1, 20, 8), &mut alloc, &mut bst, &mut flash, 0)
            .unwrap();
        let page = mgr.buffered_page(out.page).unwrap();
        assert_eq!(page[0].timestamp, 20);
        assert_eq!(page[1].timestamp, 10);
    }
}
