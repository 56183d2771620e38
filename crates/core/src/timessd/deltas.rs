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
//!
//! Everything kept per filter — its buffer, the block it fills, its blocks —
//! is one slot of a [`FilterTable`] indexed by filter id, so an append costs
//! one index and a flush one allocation, the page's.

use std::collections::{BTreeSet, VecDeque};

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

/// The page a filter's buffer fills, reserved when the buffer opens.
#[derive(Clone)]
struct OpenPage {
    reserved: Ppa,
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

/// What the manager keeps for one filter.
#[derive(Clone, Default)]
struct FilterSlot {
    /// The buffer's page, while a buffer is open.
    open: Option<OpenPage>,
    /// The open page's records, newest first; empty while none is open. The
    /// vector outlives each page, so the next page reuses its capacity.
    records: Vec<DeltaRecord>,
    /// The delta block the filter is filling.
    active: Option<BlockId>,
    /// Every delta block dedicated to the filter.
    blocks: Vec<BlockId>,
}

impl FilterSlot {
    fn is_empty(&self) -> bool {
        self.open.is_none() && self.active.is_none() && self.blocks.is_empty()
    }

    /// Reserves the next page of the active delta block, opening a new
    /// block from the free pool when needed. The page is the block's
    /// `written`: a filter holds at most one unflushed reservation, and its
    /// flush is what advances `written`.
    fn reserve_page(
        &mut self,
        filter: FilterId,
        geometry: &Geometry,
        alloc: &mut Allocator,
        bst: &mut Bst,
        now: Nanos,
    ) -> Result<Ppa> {
        let open = self.active;
        let block = match open.filter(|&b| bst.get(b).written < geometry.pages_per_block) {
            Some(block) => block,
            None => {
                let block = alloc.alloc_block(None).ok_or(AlmanacError::DeviceStalled {
                    now,
                    retention_window: 0,
                })?;
                bst.update(block, |info| info.kind = BlockKind::Delta(filter));
                self.blocks.push(block);
                self.active = Some(block);
                block
            }
        };
        Ok(geometry.ppa(block.0, bst.get(block).written))
    }

    /// Programs the open page, if any, with the buffered records and closes
    /// it; `trim_buffers` is the manager's count of buffers holding a
    /// tombstone.
    ///
    /// On a failed program (power loss, injected fault) the buffer is kept:
    /// the records are still in RAM and a retry targets the same reserved
    /// page, so nothing is silently lost while the device is still alive.
    fn flush_page(
        &mut self,
        geometry: &Geometry,
        trim_buffers: &mut usize,
        bst: &mut Bst,
        flash: &mut FlashArray,
        now: Nanos,
    ) -> Result<(Nanos, u64)> {
        let Some(open) = &self.open else {
            return Ok((now, 0));
        };
        // The records move into the page's one exact-size allocation; the
        // buffer keeps its vector for the next page.
        let deltas: DeltaRecords = self.records.drain(..).collect();
        let oob = Oob::new(DELTA_PAGE_OOB_LPA, None, now);
        let page = PageData::DeltaPage(DeltaPage {
            deltas: deltas.clone(),
        });
        let finish = match flash.program(open.reserved, page, oob, now) {
            Ok(finish) => finish,
            Err(e) => {
                // The records come back from the page: the buffer stays
                // retryable on its reserved page.
                self.records.extend(deltas.iter().cloned());
                return Err(e.into());
            }
        };
        let block = geometry.block_of(open.reserved);
        *trim_buffers -= usize::from(open.oldest_trim_at.is_some());
        self.open = None;
        bst.update(block, |info| info.written += 1);
        Ok((finish, 1))
    }
}

/// One [`FilterSlot`] per filter id from `base` on. Filter ids are issued in
/// order and dropped oldest first, so the ids with state form a short run;
/// an id inside it with no state (dropped out of order, or not yet used) is
/// an empty slot, and an older id than `base` grows the run at the front.
#[derive(Clone, Default)]
struct FilterTable {
    slots: VecDeque<FilterSlot>,
    /// The filter id of `slots[0]`.
    base: FilterId,
}

impl FilterTable {
    fn get(&self, filter: FilterId) -> Option<&FilterSlot> {
        self.slots
            .get(usize::try_from(filter.checked_sub(self.base)?).ok()?)
    }

    fn get_mut(&mut self, filter: FilterId) -> Option<&mut FilterSlot> {
        self.slots
            .get_mut(usize::try_from(filter.checked_sub(self.base)?).ok()?)
    }

    /// `filter`'s slot, the run grown to reach it if needed.
    fn entry(&mut self, filter: FilterId) -> &mut FilterSlot {
        if self.slots.is_empty() {
            self.base = filter;
        }
        while filter < self.base {
            self.slots.push_front(FilterSlot::default());
            self.base -= 1;
        }
        let i = (filter - self.base) as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, FilterSlot::default);
        }
        &mut self.slots[i]
    }

    /// Empties `filter`'s slot and returns what it held; the empty slots
    /// at the front of the run go, so the run starts at the oldest filter
    /// with state.
    fn take(&mut self, filter: FilterId) -> FilterSlot {
        let slot = self.get_mut(filter).map(std::mem::take).unwrap_or_default();
        while self.slots.front().is_some_and(FilterSlot::is_empty) {
            self.slots.pop_front();
            self.base += 1;
        }
        slot
    }

    /// `(filter, slot)` pairs, oldest filter first.
    fn iter(&self) -> impl Iterator<Item = (FilterId, &FilterSlot)> {
        (self.base..).zip(&self.slots)
    }

    /// `(filter, open page, records)` of every open buffer, oldest filter
    /// first.
    fn open(&self) -> impl Iterator<Item = (FilterId, &OpenPage, &[DeltaRecord])> {
        self.iter()
            .filter_map(|(f, s)| Some((f, s.open.as_ref()?, s.records.as_slice())))
    }
}

/// Outcome of a host barrier ([`DeltaManager::flush_all`]).
///
/// Unlike a plain `Result`, this carries the time and program count of the
/// buffers that *did* reach flash even when a later buffer's program faulted:
/// the device must advance `busy_until` for work actually performed before
/// refusing to ack the barrier.
#[derive(Debug)]
pub(crate) struct BarrierFlush {
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
    pub(crate) fn into_result(self) -> Result<(Nanos, u64)> {
        match self.error {
            None => Ok((self.finish, self.programs)),
            Some(e) => Err(e),
        }
    }
}

/// Outcome of appending one delta record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AppendOutcome {
    /// Delta page (possibly still buffered) that holds the record.
    pub page: Ppa,
    /// Completion time including any flush program that was needed.
    pub finish: Nanos,
    /// Number of flash programs performed (0 or 1).
    pub programs: u64,
}

/// Manager of delta buffers, active delta blocks, and per-filter block sets.
#[derive(Clone)]
pub(crate) struct DeltaManager {
    geometry: Geometry,
    /// Each filter's buffer and blocks, oldest filter first: a barrier
    /// programs the buffers in this order, and each delta page's OOB
    /// timestamp is its program time, so the order must be the ids'.
    filters: FilterTable,
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
    pub(crate) fn new(geometry: Geometry, trim_watermark: u32) -> Self {
        DeltaManager {
            geometry,
            filters: FilterTable::default(),
            expired: BTreeSet::new(),
            trim_buffers: 0,
            seq: 0,
            barrier_seq: 0,
            trim_watermark,
        }
    }

    /// Usable payload bytes of a delta page holding `n` deltas.
    fn capacity_for(geometry: &Geometry, n: usize) -> u32 {
        geometry
            .page_size
            .saturating_sub(DeltaPage::header_bytes(n))
    }

    /// Largest single delta that fits an empty page.
    pub(crate) fn max_delta_size(&self) -> u32 {
        Self::capacity_for(&self.geometry, 1)
    }

    /// Appends a record to `filter`'s buffer, flushing the buffer to flash
    /// first when the record does not fit.
    ///
    /// The caller fills in every field of `record` except `size` clamping:
    /// oversized deltas are clamped to the page payload capacity.
    pub(crate) fn append(
        &mut self,
        filter: FilterId,
        mut record: DeltaRecord,
        alloc: &mut Allocator,
        bst: &mut Bst,
        flash: &mut FlashArray,
        now: Nanos,
    ) -> Result<AppendOutcome> {
        record.size = record.size.min(self.max_delta_size());
        let geometry = &self.geometry;
        let slot = self.filters.entry(filter);
        let (mut finish, mut programs) = (now, 0);
        if let Some(open) = &slot.open {
            if open.used + record.size > Self::capacity_for(geometry, slot.records.len() + 1) {
                (finish, programs) =
                    slot.flush_page(geometry, &mut self.trim_buffers, bst, flash, finish)?;
            }
        }
        self.seq += 1;
        let open = match &mut slot.open {
            Some(open) => open,
            None => {
                let reserved = slot.reserve_page(filter, geometry, alloc, bst, finish)?;
                slot.open.insert(OpenPage {
                    reserved,
                    used: 0,
                    first_seq: self.seq,
                    pending_trims: 0,
                    oldest_trim_at: None,
                })
            }
        };
        open.used += record.size;
        let page = open.reserved;
        slot.records.insert(0, record); // newest first within the page
        Ok(AppendOutcome {
            page,
            finish,
            programs,
        })
    }

    /// Flushes `filter`'s buffer (if any) to its reserved flash page; a
    /// failed program keeps the buffer retryable on the same page.
    pub(crate) fn flush_filter(
        &mut self,
        filter: FilterId,
        bst: &mut Bst,
        flash: &mut FlashArray,
        now: Nanos,
    ) -> Result<(Nanos, u64)> {
        match self.filters.get_mut(filter) {
            Some(slot) => slot.flush_page(&self.geometry, &mut self.trim_buffers, bst, flash, now),
            None => Ok((now, 0)),
        }
    }

    /// Journals a trim tombstone: appends the TRIM record to `filter`'s
    /// buffer and flushes that buffer once it has coalesced `trim_watermark`
    /// tombstones (a watermark of 1 reproduces the old flush-per-trim
    /// journal; 0 defers entirely to barriers and capacity flushes). Between
    /// flushes an acked trim is volatile, exactly like a buffered write
    /// delta — the host [`flush`](crate::device::SsdDevice::flush) barrier
    /// is the durability point.
    pub(crate) fn journal_trim(
        &mut self,
        filter: FilterId,
        record: DeltaRecord,
        alloc: &mut Allocator,
        bst: &mut Bst,
        flash: &mut FlashArray,
        now: Nanos,
    ) -> Result<AppendOutcome> {
        let out = self.append(filter, record, alloc, bst, flash, now)?;
        let slot = self.filters.entry(filter);
        let open = slot
            .open
            .as_mut()
            .ok_or(AlmanacError::Internal("delta buffer vanished"))?;
        open.pending_trims += 1;
        if open.oldest_trim_at.is_none() {
            open.oldest_trim_at = Some(now);
            self.trim_buffers += 1;
        }
        if self.trim_watermark != 0 && open.pending_trims >= self.trim_watermark {
            let (finish, programs) = slot.flush_page(
                &self.geometry,
                &mut self.trim_buffers,
                bst,
                flash,
                out.finish,
            )?;
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
    pub(crate) fn flush_all(
        &mut self,
        bst: &mut Bst,
        flash: &mut FlashArray,
        now: Nanos,
        page_cost: Nanos,
    ) -> BarrierFlush {
        let mut t = now;
        let mut programs = 0;
        for slot in &mut self.filters.slots {
            match slot.flush_page(&self.geometry, &mut self.trim_buffers, bst, flash, t) {
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
    pub(crate) fn aged_trim_filters(&self, now: Nanos, deadline: Nanos) -> Vec<FilterId> {
        if deadline == 0 || self.trim_buffers == 0 {
            return Vec::new();
        }
        self.filters
            .open()
            .filter(|(_, open, _)| {
                open.oldest_trim_at
                    .is_some_and(|at| now.saturating_sub(at) > deadline)
            })
            .map(|(f, ..)| f)
            .collect()
    }

    /// Age of the oldest pending (volatile) tombstone across every buffer,
    /// or `None` when no tombstone is buffered. The consistency checker
    /// asserts this never exceeds the configured deadline at op boundaries.
    pub(crate) fn oldest_pending_trim_age(&self, now: Nanos) -> Option<Nanos> {
        self.filters
            .open()
            .filter_map(|(_, open, _)| open.oldest_trim_at)
            .map(|at| now.saturating_sub(at))
            .max()
    }

    /// Reserved pages of live buffers holding records from at or before the
    /// last completed barrier. A correct device always returns an empty
    /// list — the barrier flushed every buffer alive at that point — so the
    /// consistency checker treats entries as violations.
    pub(crate) fn pre_barrier_buffers(&self) -> Vec<Ppa> {
        self.filters
            .open()
            .filter(|(_, open, _)| open.first_seq <= self.barrier_seq)
            .map(|(_, open, _)| open.reserved)
            .collect()
    }

    /// Reads a reserved-but-unflushed delta page's records from the
    /// buffers. Only the buffer of the filter the BST dedicates the page's
    /// block to can hold it.
    pub(crate) fn buffered_page(&self, ppa: Ppa, bst: &Bst) -> Option<&[DeltaRecord]> {
        if ppa.0 >= self.geometry.total_pages() {
            return None;
        }
        let BlockKind::Delta(filter) = bst.get(self.geometry.block_of(ppa)).kind else {
            return None;
        };
        let slot = self.filters.get(filter)?;
        (slot.open.as_ref()?.reserved == ppa).then_some(slot.records.as_slice())
    }

    /// Iterates over every reserved-but-unflushed delta page (consistency
    /// checking: buffered TRIM records count toward the durable-trim audit
    /// only once flushed, but buffered pages are still part of the stream).
    pub(crate) fn buffered_pages(&self) -> impl Iterator<Item = &[DeltaRecord]> {
        self.filters.open().map(|(.., records)| records)
    }

    /// For the audit: each open buffer's `(filter, reserved page, the page
    /// at the `written` of its filter's active block)`.
    pub(crate) fn reservations<'a>(
        &'a self,
        bst: &'a Bst,
    ) -> impl Iterator<Item = (FilterId, Ppa, Option<Ppa>)> + 'a {
        self.filters.iter().filter_map(move |(filter, slot)| {
            let reserved = slot.open.as_ref()?.reserved;
            let next = slot
                .active
                .map(|b| self.geometry.ppa(b.0, bst.get(b).written));
            Some((filter, reserved, next))
        })
    }

    /// For the audit: `(kept, recount)` of the buffers holding a tombstone.
    pub(crate) fn trim_buffer_count(&self) -> (usize, usize) {
        let recount = self
            .filters
            .open()
            .filter(|(_, open, _)| open.oldest_trim_at.is_some())
            .count();
        (self.trim_buffers, recount)
    }

    /// Forgets a filter: discards its buffer and active block; its delta
    /// blocks are now fully expired and queue for GC to erase.
    pub(crate) fn drop_filter(&mut self, filter: FilterId) {
        let slot = self.filters.take(filter);
        self.trim_buffers -= usize::from(slot.open.is_some_and(|o| o.oldest_trim_at.is_some()));
        self.expired.extend(slot.blocks);
    }

    /// The expired delta blocks not yet erased, lowest block first.
    pub(crate) fn expired_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.expired.iter().copied()
    }

    /// An expired delta block was erased.
    pub(crate) fn forget_expired(&mut self, block: BlockId) {
        self.expired.remove(&block);
    }

    /// Adopts an existing on-flash delta block into a filter's set (used by
    /// power-cycle rebuild).
    pub(crate) fn adopt_block(&mut self, filter: FilterId, block: BlockId) {
        self.filters.entry(filter).blocks.push(block);
    }

    /// Total delta blocks currently dedicated to live filters.
    pub(crate) fn block_count(&self) -> usize {
        self.filters.slots.iter().map(|s| s.blocks.len()).sum()
    }
}

/// Test hooks that forge the corruptions the audits exist to catch.
#[cfg(test)]
impl DeltaManager {
    /// Backdates the pending-tombstone stamp of `filter`'s buffer, forging
    /// the over-deadline corruption the aging audit catches.
    pub(crate) fn backdate_trim_stamp(&mut self, filter: FilterId, at: Nanos) {
        if let Some(open) = self.filters.get_mut(filter).and_then(|s| s.open.as_mut()) {
            open.pending_trims = open.pending_trims.max(1);
            if open.oldest_trim_at.replace(at).is_none() {
                self.trim_buffers += 1;
            }
        }
    }

    /// Advances the barrier point *without* flushing, forging the exact
    /// corruption the pre-barrier audit exists to catch.
    pub(crate) fn mark_barrier_unchecked(&mut self) {
        self.barrier_seq = self.seq;
    }

    /// Moves `filter`'s open buffer to the page `to`, behind its block's
    /// back.
    pub(crate) fn forge_reservation(&mut self, filter: FilterId, to: Ppa) {
        if let Some(open) = self.filters.get_mut(filter).and_then(|s| s.open.as_mut()) {
            open.reserved = to;
        }
    }

    /// Miscounts the buffers holding a tombstone.
    pub(crate) fn skew_trim_buffers(&mut self) {
        self.trim_buffers += 1;
    }

    /// [`Self::buffered_page`] as a scan of every buffer, the reference the
    /// BST lookup is held to.
    pub(crate) fn scanned_buffered_page(&self, ppa: Ppa) -> Option<&[DeltaRecord]> {
        self.filters
            .open()
            .find(|(_, open, _)| open.reserved == ppa)
            .map(|(.., records)| records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almanac_flash::{DeltaBody, Geometry, LatencyConfig};
    use proptest::prelude::*;

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
        assert!(mgr.buffered_page(out.page, &bst).is_some());
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
        assert!(mgr.buffered_page(a.page, &bst).is_none());
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
        let page = mgr.buffered_page(out.page, &bst).unwrap();
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
        // Filter 4 goes first: a hole between two live filters.
        mgr.drop_filter(4);
        assert_eq!(mgr.block_count(), 2);
        assert!(mgr.buffered_page(geo.ppa(b4.0, 0), &bst).is_none());
        assert!(mgr.buffered_page(geo.ppa(b3.0, 0), &bst).is_some());
        assert!(mgr.buffered_page(geo.ppa(b5.0, 0), &bst).is_some());
        mgr.drop_filter(3);
        assert_eq!(mgr.block_count(), 1, "filter 5 is still live");
        assert!(mgr.buffered_page(geo.ppa(b3.0, 0), &bst).is_none());
        assert!(mgr.buffered_page(geo.ppa(b5.0, 0), &bst).is_some());
        // Dropping a filter twice, or one never seen, changes nothing.
        mgr.drop_filter(3);
        mgr.drop_filter(40);
        assert_eq!(mgr.block_count(), 1);
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
            assert!(
                mgr.buffered_page(out.page, &bst).is_some(),
                "trim {i} buffered"
            );
        }
        assert_eq!(programs, 0, "below the watermark nothing is programmed");
        let out = mgr
            .journal_trim(0, record(2, 30, 8), &mut alloc, &mut bst, &mut flash, 0)
            .unwrap();
        assert_eq!(out.programs, 1, "watermark trim flushes the batch");
        assert!(mgr.buffered_page(out.page, &bst).is_none());
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
            assert!(mgr.buffered_page(out.page, &bst).is_none());
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
        let before = mgr.buffered_page(out.page, &bst).unwrap().to_vec();
        assert_eq!(before.len(), 4);
        assert!(
            mgr.flush_filter(0, &mut bst, &mut flash, 50).is_err(),
            "injected program fault must surface"
        );
        // The records are still in RAM, unchanged, aimed at the same page,
        // which is still its block's `written`.
        assert_eq!(mgr.buffered_page(out.page, &bst), Some(&before[..]));
        assert_eq!(mgr.scanned_buffered_page(out.page), Some(&before[..]));
        let reservations: Vec<_> = mgr.reservations(&bst).collect();
        assert_eq!(reservations, [(0, out.page, Some(out.page))]);
        // The buffer takes more records on the same page, newest first...
        let more = mgr
            .append(0, record(9, 90, 8), &mut alloc, &mut bst, &mut flash, 55)
            .unwrap();
        assert_eq!((more.page, more.programs), (out.page, 0));
        let after = mgr.buffered_page(out.page, &bst).unwrap().to_vec();
        assert_eq!((after[0].lpa, &after[1..]), (Lpa(9), &before[..]));
        // ...and the retry programs them all there.
        let (_, programs) = mgr.flush_filter(0, &mut bst, &mut flash, 60).unwrap();
        assert_eq!(programs, 1, "retry programs the same reserved page");
        assert!(mgr.buffered_page(out.page, &bst).is_none());
        match flash.peek(out.page).unwrap().0 {
            PageData::DeltaPage(dp) => assert_eq!(*dp.deltas, after[..]),
            other => panic!("expected delta page, got {other:?}"),
        }
        // The next page of the same block opens empty.
        let next = mgr
            .append(0, record(1, 100, 8), &mut alloc, &mut bst, &mut flash, 70)
            .unwrap();
        assert_eq!(next.page, Ppa(out.page.0 + 1));
        assert_eq!(mgr.buffered_page(next.page, &bst).map(<[_]>::len), Some(1));
    }

    #[test]
    fn a_buffer_opens_for_an_older_filter_after_newer_ones() {
        let (mut mgr, mut alloc, mut bst, mut flash) = fixture();
        let geo = Geometry::small_test();
        let mut pages = Vec::new();
        for filter in [7, 9, 5, 2] {
            let out = mgr
                .append(
                    filter,
                    record(filter, 1, 10),
                    &mut alloc,
                    &mut bst,
                    &mut flash,
                    0,
                )
                .unwrap();
            pages.push((filter, out.page));
        }
        assert_eq!(mgr.block_count(), 4);
        for (filter, page) in pages {
            assert_eq!(bst.get(geo.block_of(page)).kind, BlockKind::Delta(filter));
            let records = mgr.buffered_page(page, &bst).unwrap();
            assert_eq!(
                records.iter().map(|r| r.lpa).collect::<Vec<_>>(),
                [Lpa(filter)]
            );
        }
        // The oldest filter's buffer gives way when it fills, like any other.
        let big = mgr.max_delta_size();
        let out = mgr
            .append(2, record(3, 2, big), &mut alloc, &mut bst, &mut flash, 0)
            .unwrap();
        assert_eq!(out.programs, 1);
        assert_eq!(
            geo.block_of(out.page),
            geo.block_of(pages_of(&mgr, &bst, 2))
        );
    }

    /// The reserved page of `filter`'s open buffer.
    fn pages_of(mgr: &DeltaManager, bst: &Bst, filter: FilterId) -> Ppa {
        mgr.reservations(bst)
            .find(|&(f, ..)| f == filter)
            .map(|(_, page, _)| page)
            .unwrap()
    }

    #[test]
    fn a_barrier_programs_the_oldest_filter_first() {
        let (mut mgr, mut alloc, mut bst, mut flash) = fixture();
        // Opened newest first, with a hole (filter 6) and a dropped filter.
        for filter in [8, 7, 5, 4] {
            mgr.append(
                filter,
                record(filter, 1, 10),
                &mut alloc,
                &mut bst,
                &mut flash,
                0,
            )
            .unwrap();
        }
        mgr.drop_filter(7);
        let pages: Vec<_> = [4, 5, 8].map(|f| pages_of(&mgr, &bst, f)).into();
        let out = mgr.flush_all(&mut bst, &mut flash, 100, 1_000);
        assert_eq!((out.programs, out.error.is_none()), (3, true));
        // Each page's OOB carries its program instant.
        let stamps: Vec<_> = pages
            .iter()
            .map(|&p| flash.peek(p).unwrap().1.timestamp)
            .collect();
        assert!(stamps.windows(2).all(|w| w[0] < w[1]), "{stamps:?}");
    }

    /// One step of the table's life: an append to a filter, a flush of
    /// one, a drop (oldest first or not), or a barrier.
    #[derive(Debug, Clone)]
    enum TableOp {
        Append(FilterId, u32),
        Flush(FilterId),
        Drop(FilterId),
        Barrier,
    }

    fn table_op() -> impl Strategy<Value = TableOp> {
        prop_oneof![
            6 => (0u64..6, 1u32..2_000).prop_map(|(f, size)| TableOp::Append(f, size)),
            1 => (0u64..6).prop_map(TableOp::Flush),
            1 => (0u64..6).prop_map(TableOp::Drop),
            1 => Just(TableOp::Barrier),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever the order filters open, fill, flush and drop in, the
        /// BST's lookup answers what a scan of every buffer answers, on
        /// every page of the array, and each open buffer sits at its
        /// block's `written`.
        #[test]
        fn the_bst_lookup_answers_what_a_scan_of_every_buffer_answers(
            ops in proptest::collection::vec(table_op(), 1..120),
        ) {
            let (mut mgr, mut alloc, mut bst, mut flash) = fixture();
            let geo = Geometry::small_test();
            let mut now = 0;
            for (i, op) in ops.into_iter().enumerate() {
                now += 10;
                // A pool run dry is a refused append, not a broken table.
                let _ = match op {
                    TableOp::Append(f, size) => mgr
                        .append(f, record(i as u64, now, size), &mut alloc, &mut bst, &mut flash, now)
                        .map(|_| ()),
                    TableOp::Flush(f) => mgr.flush_filter(f, &mut bst, &mut flash, now).map(|_| ()),
                    TableOp::Drop(f) => {
                        mgr.drop_filter(f);
                        Ok(())
                    }
                    TableOp::Barrier => mgr.flush_all(&mut bst, &mut flash, now, 0).into_result().map(|_| ()),
                };
                for page in 0..geo.total_pages() + 2 {
                    prop_assert_eq!(
                        mgr.buffered_page(Ppa(page), &bst),
                        mgr.scanned_buffered_page(Ppa(page))
                    );
                }
                for (_, reserved, next) in mgr.reservations(&bst) {
                    prop_assert_eq!(Some(reserved), next);
                }
                let (kept, recount) = mgr.trim_buffer_count();
                prop_assert_eq!(kept, recount);
            }
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
        let page = mgr.buffered_page(out.page, &bst).unwrap();
        assert_eq!(page[0].timestamp, 20);
        assert_eq!(page[1].timestamp, 10);
    }
}
