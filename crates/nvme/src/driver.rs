//! The host-side NVMe driver: a typed API that goes through the wire format
//! — the layer TimeKits sits on in the paper's implementation (§4).
//!
//! Two styles of use:
//!
//! - **Synchronous**: `HostDriver<D>` is itself an [`SsdDevice`], so
//!   anything that drives a device (a file system, a trace replayer, the
//!   oracle) drives it through the queues. Each call is one command on
//!   queue 0, the device run to completion before returning. The vendor
//!   calls ([`HostDriver::addr_query`], [`HostDriver::roll_back`], ...) work
//!   the same way.
//! - **Multi-slot** ([`HostDriver::submit_write`] and friends returning a
//!   [`Ticket`], drained by [`HostDriver::poll`]): many commands in flight
//!   across many queues, completions surfacing in device finish order —
//!   across queues too, within one poll. Tickets are `(qid, cid)` pairs; the
//!   allocator never hands out a cid that is still in flight on its queue,
//!   so tickets never collide.
//!
//! Data travels with its command: a write's pages are handed to the
//! controller at submission, and the [`CompletedIo`] the controller made
//! when it started the command comes back as is, carrying what the device
//! returned: an [`Answer`] (the device's [`PageData`], or core's query or
//! rollback outcome) or the device's own [`AlmanacError`]. Harvesting only
//! frees the cid. Nothing is registered, so nothing can leak.

use std::fmt;
use std::sync::Arc;

use almanac_core::{AddrQueryOutcome, QueryCost, RollbackOutcome, TimeQueryHit};
use almanac_core::{AlmanacError, Completion, DeviceStats, Result, SsdDevice, SsdReadOps};
use almanac_flash::{Lpa, Nanos, PageData};

use crate::controller::NvmeController;
use crate::queue::{Answer, CompletedIo, Ticket};
use crate::sqe::{NvmeOpcode, SubmissionEntry};

/// Errors surfaced by the driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// The controller returned a non-success NVMe status.
    Status {
        /// Raw status code.
        code: u16,
        /// The command that failed.
        opcode: NvmeOpcode,
    },
    /// The completion for our command never arrived.
    Lost(NvmeOpcode),
    /// The target queue is unknown or already holds its full depth of
    /// outstanding commands; poll and retry.
    QueueFull(NvmeOpcode),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Status { code, opcode } => {
                write!(f, "{opcode:?} failed with NVMe status {code:#06x}")
            }
            DriverError::Lost(op) => write!(f, "completion lost for {op:?}"),
            DriverError::QueueFull(op) => write!(f, "queue full rejecting {op:?}"),
        }
    }
}

impl std::error::Error for DriverError {}

/// Result alias.
pub(crate) type DriverResult<T> = std::result::Result<T, DriverError>;

/// What a Table-1 call returns: core's answer with its [`Completion`].
type Answered<T> = DriverResult<(T, Completion)>;

/// Words of a [`CidMap`]: one bit per 16-bit command id.
const CID_WORDS: usize = (u16::MAX as usize + 1) / 64;

/// The command ids in flight on one queue, one bit each, and the round-robin
/// cursor the next allocation starts from. Cid 0 is never handed out.
struct CidMap {
    used: Box<[u64]>,
    next: u16,
}

impl CidMap {
    fn new() -> Self {
        let mut used = vec![0u64; CID_WORDS].into_boxed_slice();
        used[0] = 1;
        CidMap { used, next: 1 }
    }

    /// Takes the first free cid at or after the cursor, wrapping, and moves
    /// the cursor past it. `None` when all 65 535 are in flight.
    fn alloc(&mut self) -> Option<u16> {
        let start = usize::from(self.next);
        // One word more than the map: the cursor's word again after the
        // wrap, for its bits below the cursor.
        for k in 0..=CID_WORDS {
            let w = (start / 64 + k) % CID_WORDS;
            let below = if k == 0 {
                (1u64 << (start % 64)) - 1
            } else {
                0
            };
            let taken = self.used[w] | below;
            if taken != u64::MAX {
                let bit = taken.trailing_ones() as usize;
                self.used[w] |= 1 << bit;
                let cid = (w * 64 + bit) as u16;
                self.next = cid.wrapping_add(1).max(1);
                return Some(cid);
            }
        }
        None
    }

    /// Frees `cid`; false when it was not in flight.
    fn release(&mut self, cid: u16) -> bool {
        let (w, bit) = (usize::from(cid) / 64, 1u64 << (cid % 64));
        let held = cid != 0 && self.used[w] & bit != 0;
        if held {
            self.used[w] &= !bit;
        }
        held
    }
}

/// The host driver over a controller of device `D`.
pub struct HostDriver<D = almanac_core::TimeSsd> {
    controller: NvmeController<D>,
    /// Per queue id: the cids of commands submitted whose completion has
    /// not been harvested.
    cids: Vec<CidMap>,
    /// Commands submitted whose completion has not been harvested, across
    /// all queues.
    in_flight: usize,
    /// Harvested completions not yet returned by `poll`.
    ready: Vec<CompletedIo>,
}

impl<D: SsdDevice> HostDriver<D> {
    /// Attaches a driver to a controller.
    pub fn new(controller: NvmeController<D>) -> Self {
        HostDriver {
            controller,
            cids: Vec::new(),
            in_flight: 0,
            ready: Vec::new(),
        }
    }

    /// The attached controller (for inspection).
    pub fn controller(&self) -> &NvmeController<D> {
        &self.controller
    }

    /// Detaches the driver, giving back the controller's device.
    pub fn into_ssd(self) -> D {
        self.controller.into_ssd()
    }

    /// Creates a new I/O queue pair with its own depth, returning its id.
    pub fn create_queue(&mut self, depth: usize) -> u16 {
        self.controller.create_io_queue(depth)
    }

    /// Commands submitted and not yet harvested, across all queues.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Earliest instant at which the controller will post another
    /// completion; `None` when nothing is pending device-side.
    pub fn next_completion_at(&self) -> Option<Nanos> {
        self.controller.next_completion_at()
    }

    /// Submits `entry` with the pages it writes on `qid`, under a cid that
    /// no in-flight command on `qid` holds. The queue has a free slot and
    /// depths are clamped below the 16-bit cid space, so a free cid exists.
    fn submit_ticket(
        &mut self,
        qid: u16,
        mut entry: SubmissionEntry,
        payload: Vec<Vec<u8>>,
    ) -> DriverResult<Ticket> {
        let opcode = entry.opcode;
        if !self.controller.has_slot(qid) {
            return Err(DriverError::QueueFull(opcode));
        }
        let slot = usize::from(qid);
        if self.cids.len() <= slot {
            self.cids.resize_with(slot + 1, CidMap::new);
        }
        let cid = self.cids[slot]
            .alloc()
            .ok_or(DriverError::QueueFull(opcode))?;
        entry.cid = cid;
        let accepted = self.controller.submit_to(qid, entry, payload);
        debug_assert!(accepted, "slot was checked");
        self.in_flight += 1;
        Ok(Ticket { qid, cid })
    }

    /// Moves every posted completion of ours into the ready list, in device
    /// finish order across queues.
    fn harvest(&mut self) {
        while let Some(done) = self.controller.pop_earliest() {
            let Ticket { qid, cid } = done.ticket;
            let ours = self.cids.get_mut(usize::from(qid));
            if ours.is_some_and(|map| map.release(cid)) {
                self.in_flight -= 1;
                self.ready.push(done);
            }
        }
    }

    /// Advances the controller to virtual time `now` and drains every
    /// completion that has posted, in posting order.
    ///
    /// # Examples
    ///
    /// ```
    /// use almanac_core::{SsdConfig, TimeSsd};
    /// use almanac_flash::{Geometry, Lpa, SEC_NS};
    /// use almanac_nvme::{HostDriver, NvmeController};
    ///
    /// let ssd = TimeSsd::new(SsdConfig::new(Geometry::small_test()));
    /// let mut d = HostDriver::new(NvmeController::new(ssd));
    /// let ticket = d.submit_write(0, Lpa(1), vec![b"hi".to_vec()]).unwrap();
    /// let mut done = d.poll(SEC_NS);
    /// if done.is_empty() {
    ///     // The program finishes after SEC_NS; advance to its completion.
    ///     let at = d.next_completion_at().unwrap();
    ///     done = d.poll(at);
    /// }
    /// assert_eq!(done[0].ticket, ticket);
    /// assert!(done[0].is_success());
    /// ```
    pub fn poll(&mut self, now: Nanos) -> Vec<CompletedIo> {
        self.controller.process(now);
        self.harvest();
        std::mem::take(&mut self.ready)
    }

    /// The wait of a host whose submit came back [`DriverError::QueueFull`]:
    /// advances `now` to the next completion and harvests what has posted.
    /// `None` when nothing is pending device-side, so no slot will free.
    pub fn wait_for_slot(&mut self, now: &mut Nanos) -> Option<Vec<CompletedIo>> {
        *now = (*now).max(self.next_completion_at()?);
        Some(self.poll(*now))
    }

    /// Advances `now` until nothing is in flight, returning every completion
    /// in posting order.
    pub fn drain(&mut self, now: &mut Nanos) -> Vec<CompletedIo> {
        let mut done = Vec::new();
        while self.in_flight() > 0 {
            // In flight but nothing pending device-side: commands are still
            // queued behind a fence; nudge the arbitration loop.
            *now = self
                .next_completion_at()
                .map_or(*now + 1, |at| at.max(*now));
            done.extend(self.poll(*now));
        }
        done
    }

    /// Submits a multi-page write on `qid`; completes with the number of
    /// pages written in `result`.
    pub fn submit_write(
        &mut self,
        qid: u16,
        lpa: Lpa,
        pages: Vec<Vec<u8>>,
    ) -> DriverResult<Ticket> {
        let e = SubmissionEntry::span(NvmeOpcode::Write, lpa.0, pages.len() as u32);
        self.submit_ticket(qid, e, pages)
    }

    /// Submits a multi-page read on `qid`; completes with the pages in
    /// `data`.
    pub fn submit_read(&mut self, qid: u16, lpa: Lpa, count: u32) -> DriverResult<Ticket> {
        let e = SubmissionEntry::span(NvmeOpcode::Read, lpa.0, count);
        self.submit_ticket(qid, e, Vec::new())
    }

    /// Submits a trim (dataset management deallocate) on `qid`.
    pub fn submit_trim(&mut self, qid: u16, lpa: Lpa, count: u32) -> DriverResult<Ticket> {
        let e = SubmissionEntry::span(NvmeOpcode::DatasetMgmt, lpa.0, count);
        self.submit_ticket(qid, e, Vec::new())
    }

    /// Submits a flush on `qid`: a fence that completes only after every
    /// earlier command on the queue, and holds back every later one.
    pub fn submit_flush(&mut self, qid: u16) -> DriverResult<Ticket> {
        let e = SubmissionEntry::new(NvmeOpcode::Flush, 0);
        self.submit_ticket(qid, e, Vec::new())
    }

    /// Submits `entry` with `payload` on queue 0 and runs the device to
    /// completion: the command's completion, whatever its status.
    /// Completions for other in-flight tickets are kept for a later
    /// [`HostDriver::poll`], never dropped.
    fn run_one(
        &mut self,
        entry: SubmissionEntry,
        payload: Vec<Vec<u8>>,
        now: Nanos,
    ) -> DriverResult<CompletedIo> {
        let ticket = self.submit_ticket(0, entry, payload)?;
        self.controller.run_to_completion(now);
        self.harvest();
        let pos = self.ready.iter().position(|io| io.ticket == ticket);
        let pos = pos.ok_or(DriverError::Lost(entry.opcode))?;
        Ok(self.ready.remove(pos))
    }

    /// A vendor command run to completion: its answer and [`Completion`],
    /// or its status as a [`DriverError::Status`].
    fn issue(&mut self, entry: SubmissionEntry, now: Nanos) -> Answered<Option<Answer>> {
        let io = self.run_one(entry, Vec::new(), now)?;
        let (code, opcode, finish) = (io.status, io.opcode, io.finish);
        let answer = io
            .outcome
            .map_err(|_| DriverError::Status { code, opcode })?;
        Ok((answer, Completion { start: now, finish }))
    }

    /// One command of the [`SsdDevice`] surface, run to completion: its
    /// [`Completion`] and returned pages, or the `AlmanacError` the device
    /// raised. A full queue 0, a lost completion or a command the controller
    /// refused itself is `Internal`.
    fn sync(
        &mut self,
        entry: SubmissionEntry,
        payload: Vec<Vec<u8>>,
        now: Nanos,
    ) -> Result<(Completion, Option<Answer>)> {
        let io = self.run_one(entry, payload, now);
        let io = io.map_err(|_| AlmanacError::Internal("queue 0 full or completion lost"))?;
        let refused = AlmanacError::Internal("the controller refused the command");
        let finish = io.finish;
        let answer = io.outcome.map_err(|err| err.unwrap_or(refused))?;
        Ok((Completion { start: now, finish }, answer))
    }

    /// `AddrQuery` through the wire: each LPA's version as of time `t`, with
    /// `threads` host workers fanning the scan across the device's
    /// partitions (CDW13 on the wire); the completion posts at the
    /// partitioned schedule's modelled makespan, not a measured host time.
    pub fn addr_query(
        &mut self,
        lpa: Lpa,
        count: u32,
        t: Nanos,
        threads: u32,
        now: Nanos,
    ) -> Answered<AddrQueryOutcome> {
        let mut e = SubmissionEntry::span(NvmeOpcode::AddrQuery, lpa.0, count);
        e.cdw[3] = threads;
        e.set_u64(4, t);
        match self.issue(e, now)? {
            (Some(Answer::Versions(out)), c) => Ok((*out, c)),
            _ => Err(DriverError::Lost(NvmeOpcode::AddrQuery)),
        }
    }

    /// `TimeQueryAll` through the wire: every LPA with retained history, its
    /// write timestamps, and the scan's retrieval cost.
    pub fn time_query_all(&mut self, now: Nanos) -> Answered<(Vec<TimeQueryHit>, QueryCost)> {
        match self.issue(SubmissionEntry::new(NvmeOpcode::TimeQueryAll, 0), now)? {
            (Some(Answer::Times(answer)), c) => Ok((*answer, c)),
            _ => Err(DriverError::Lost(NvmeOpcode::TimeQueryAll)),
        }
    }

    /// `RollBack` through the wire: what was restored, erased and skipped.
    pub fn roll_back(
        &mut self,
        lpa: Lpa,
        count: u32,
        t: Nanos,
        now: Nanos,
    ) -> Answered<RollbackOutcome> {
        let mut e = SubmissionEntry::span(NvmeOpcode::RollBack, lpa.0, count);
        e.set_u64(4, t);
        match self.issue(e, now)? {
            (Some(Answer::Rollback(out)), c) => Ok((*out, c)),
            _ => Err(DriverError::Lost(NvmeOpcode::RollBack)),
        }
    }

    /// `RollBackAll` through the wire: what was restored, erased and skipped.
    pub fn roll_back_all(&mut self, t: Nanos, now: Nanos) -> Answered<RollbackOutcome> {
        let mut e = SubmissionEntry::new(NvmeOpcode::RollBackAll, 0);
        e.set_u64(0, t);
        match self.issue(e, now)? {
            (Some(Answer::Rollback(out)), c) => Ok((*out, c)),
            _ => Err(DriverError::Lost(NvmeOpcode::RollBackAll)),
        }
    }
}

/// The synchronous surface: each call submits one command on queue 0 and
/// runs the device to completion, returning the device's own `Result`. A
/// completion carries no start time, so `Completion::start` is the submit
/// instant `now`; `finish` is the instant the completion posted. A `Zeros` or `Synthetic` page crosses the wire as
/// its bytes, so the device stores it as a `Bytes` page.
impl<D: SsdDevice> SsdDevice for HostDriver<D> {
    fn write(&mut self, lpa: Lpa, data: PageData, now: Nanos) -> Result<Completion> {
        let page = match data {
            PageData::Bytes(bytes) => Arc::unwrap_or_clone(bytes),
            other => other.materialize(self.controller.page_size()),
        };
        let e = SubmissionEntry::span(NvmeOpcode::Write, lpa.0, 1);
        Ok(self.sync(e, vec![page], now)?.0)
    }

    fn read(&mut self, lpa: Lpa, now: Nanos) -> Result<(PageData, Completion)> {
        let e = SubmissionEntry::span(NvmeOpcode::Read, lpa.0, 1);
        match self.sync(e, Vec::new(), now)? {
            (c, Some(Answer::Pages(mut pages))) if pages.len() == 1 => Ok((pages.remove(0), c)),
            _ => Err(AlmanacError::Internal("read posted no page")),
        }
    }

    fn trim(&mut self, lpa: Lpa, now: Nanos) -> Result<Completion> {
        let e = SubmissionEntry::span(NvmeOpcode::DatasetMgmt, lpa.0, 1);
        Ok(self.sync(e, Vec::new(), now)?.0)
    }

    fn flush(&mut self, now: Nanos) -> Result<Completion> {
        let e = SubmissionEntry::new(NvmeOpcode::Flush, 0);
        Ok(self.sync(e, Vec::new(), now)?.0)
    }
}

/// The device's counters and size. History is not a read view here: the
/// host reaches it through the vendor commands.
impl<D: SsdDevice> SsdReadOps for HostDriver<D> {
    fn stats(&self) -> &DeviceStats {
        self.controller.ssd().stats()
    }

    fn exported_pages(&self) -> u64 {
        self.controller.ssd().exported_pages()
    }

    fn kind(&self) -> &'static str {
        self.controller.ssd().kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::NvmeStatus;
    use almanac_core::{SsdConfig, TimeSsd};
    use almanac_flash::{Geometry, SEC_NS};

    fn driver() -> HostDriver {
        HostDriver::new(NvmeController::new(TimeSsd::new(SsdConfig::new(
            Geometry::small_test(),
        ))))
    }

    /// Writes `bytes` as one page at `lpa` through queue 0.
    fn put(d: &mut HostDriver, lpa: u64, bytes: &[u8], now: Nanos) {
        let page = PageData::bytes(bytes.to_vec());
        d.write(Lpa(lpa), page, now).unwrap();
    }

    /// The bytes of `lpa`, read through queue 0.
    fn get(d: &mut HostDriver, lpa: u64, now: Nanos) -> Vec<u8> {
        let (page, _) = d.read(Lpa(lpa), now).unwrap();
        page.materialize(d.controller().page_size())
    }

    #[test]
    fn typed_roundtrip() {
        let mut d = driver();
        put(&mut d, 1, b"abc", SEC_NS);
        assert!(get(&mut d, 1, 2 * SEC_NS).starts_with(b"abc"));
    }

    #[test]
    fn time_travel_through_the_driver() {
        let mut d = driver();
        put(&mut d, 0, b"v1", SEC_NS);
        put(&mut d, 0, b"v2", 3 * SEC_NS);
        let (old, c) = d.addr_query(Lpa(0), 1, 2 * SEC_NS, 1, 4 * SEC_NS).unwrap();
        assert_eq!((old.hits[0].timestamp, c.start), (SEC_NS, 4 * SEC_NS));
        assert_eq!(old.hits[0].data, PageData::bytes(b"v1".to_vec()));
        let (rolled, c) = d.roll_back(Lpa(0), 1, 2 * SEC_NS, 5 * SEC_NS).unwrap();
        assert_eq!(rolled.restored, vec![(Lpa(0), SEC_NS)]);
        assert_eq!(rolled.finish, c.finish);
        assert!(get(&mut d, 0, 6 * SEC_NS).starts_with(b"v1"));
    }

    #[test]
    fn queries_run_without_exclusive_access() {
        let mut d = driver();
        put(&mut d, 0, b"v1", SEC_NS);
        put(&mut d, 0, b"v2", 3 * SEC_NS);
        // The &self path: an AddrQuery builder over the controller's device,
        // no &mut driver needed.
        let view = d.controller().ssd();
        let out = almanac_core::AddrQuery::new(view, Lpa(0), 1)
            .as_of(2 * SEC_NS)
            .run()
            .unwrap();
        assert_eq!(out.hits.len(), 1);
        let page_size = view.geometry().page_size as usize;
        assert!(out.hits[0].data.materialize(page_size).starts_with(b"v1"));
    }

    #[test]
    fn parallel_addr_query_matches_serial_and_is_no_slower() {
        let mut d = HostDriver::new(NvmeController::new(TimeSsd::new(
            SsdConfig::new(Geometry::medium_test()).with_amt_shards(4),
        )));
        for lpa in 0..8u64 {
            put(&mut d, lpa, &[lpa as u8; 16], SEC_NS);
        }
        let (serial, one) = d
            .addr_query(Lpa(0), 8, 10 * SEC_NS, 1, 20 * SEC_NS)
            .unwrap();
        let (parallel, four) = d
            .addr_query(Lpa(0), 8, 10 * SEC_NS, 4, 30 * SEC_NS)
            .unwrap();
        assert_eq!(serial, parallel);
        // Completion timing: the sharded schedule with 4 workers is no
        // slower than one worker on the same device state.
        assert_eq!(one.response(20 * SEC_NS), serial.makespan(1));
        assert_eq!(four.response(30 * SEC_NS), serial.makespan(4));
        assert!(serial.makespan(4) <= serial.makespan(1));
    }

    #[test]
    fn errors_are_the_devices_own() {
        let mut d = driver();
        let mut bare = TimeSsd::new(SsdConfig::new(Geometry::small_test()));
        let (far, page) = (Lpa(u64::MAX / 4), PageData::bytes(vec![0]));
        let err = d.write(far, page.clone(), SEC_NS).unwrap_err();
        assert_eq!(Err(err), bare.write(far, page, SEC_NS));
    }

    #[test]
    fn a_device_without_history_serves_io_and_refuses_vendor_commands() {
        let cfg = SsdConfig::new(Geometry::small_test());
        let page_size = cfg.geometry.page_size as usize;
        let ssd = almanac_core::RegularSsd::new(cfg);
        let mut d = HostDriver::new(NvmeController::over(ssd, page_size));
        let page = PageData::bytes(b"plain".to_vec());
        d.write(Lpa(2), page.clone(), SEC_NS).unwrap();
        assert_eq!(d.read(Lpa(2), 2 * SEC_NS).unwrap().0, page);
        let invalid = NvmeStatus::InvalidOpcode as u16;
        let err = d.roll_back(Lpa(2), 1, 0, 3 * SEC_NS).unwrap_err();
        assert!(matches!(err, DriverError::Status { code, .. } if code == invalid));
        let err = d.time_query_all(4 * SEC_NS).unwrap_err();
        assert!(matches!(err, DriverError::Status { code, .. } if code == invalid));
    }

    #[test]
    fn time_query_all_reports_each_lpas_timestamps() {
        let mut d = driver();
        put(&mut d, 2, b"x", SEC_NS);
        put(&mut d, 2, b"y", 2 * SEC_NS);
        put(&mut d, 5, b"z", 3 * SEC_NS);
        let ((hits, _), _) = d.time_query_all(4 * SEC_NS).unwrap();
        let hits: Vec<(Lpa, Vec<Nanos>)> =
            hits.into_iter().map(|h| (h.lpa, h.timestamps)).collect();
        let expect = [
            (Lpa(2), vec![2 * SEC_NS, SEC_NS]),
            (Lpa(5), vec![3 * SEC_NS]),
        ];
        assert_eq!(hits, expect);
    }

    #[test]
    fn trim_and_flush_work() {
        let mut d = driver();
        put(&mut d, 3, b"gone", SEC_NS);
        d.trim(Lpa(3), 2 * SEC_NS).unwrap();
        assert!(get(&mut d, 3, 3 * SEC_NS).iter().all(|b| *b == 0));
        // The default barrier overhead alone is 20 µs; a barrier fencing a
        // journalled trim must take at least that, on the wire and in the
        // synchronous surface's completion.
        let (lat_us, lat) = wire_flush(&mut d, 4 * SEC_NS);
        assert!(lat_us >= 20, "flush reported {lat_us} µs");
        assert!(lat >= 20_000, "flush took {lat} ns");
        let lat = d.flush(5 * SEC_NS).unwrap().response(5 * SEC_NS);
        assert!(lat >= 20_000, "flush took {lat} ns");
    }

    /// A Flush submitted on queue 0 at `now` and drained: the barrier
    /// latency its CQE result dword reports (µs) and its response time (ns).
    fn wire_flush(d: &mut HostDriver, now: Nanos) -> (u32, Nanos) {
        let ticket = d.submit_flush(0).unwrap();
        let mut at = now;
        let done = d.drain(&mut at);
        let io = done.iter().find(|io| io.ticket == ticket).unwrap();
        assert!(io.is_success());
        // The result dword is the barrier's response, in whole µs.
        let lat = io.finish - now;
        assert_eq!(u64::from(io.result), lat / 1_000);
        (io.result, lat)
    }

    #[test]
    fn flush_latency_reflects_pending_work() {
        let mut d = driver();
        // An idle barrier pays only the fixed overhead; one fencing fresh
        // writes and a journalled trim also pays the fence to their
        // completion, so it must report at least as much.
        let (idle_us, idle) = wire_flush(&mut d, SEC_NS);
        put(&mut d, 1, b"a", 2 * SEC_NS);
        d.trim(Lpa(1), 2 * SEC_NS).unwrap();
        let (busy_us, busy) = wire_flush(&mut d, 2 * SEC_NS);
        assert!(
            busy_us >= idle_us,
            "busy barrier {busy_us} µs < idle barrier {idle_us} µs"
        );
        assert!(
            busy >= idle,
            "busy barrier {busy} ns < idle barrier {idle} ns"
        );
        // The synchronous surface reports the same barrier as its response.
        put(&mut d, 2, b"b", 3 * SEC_NS);
        d.trim(Lpa(2), 3 * SEC_NS).unwrap();
        let sync = d.flush(3 * SEC_NS).unwrap().response(3 * SEC_NS);
        assert!(
            sync >= idle,
            "busy barrier {sync} ns < idle barrier {idle} ns"
        );
    }

    /// An answer's variant and the number of pages, hits, LPAs or restored
    /// pages it holds.
    fn shape(answer: &Answer) -> (&'static str, usize) {
        match answer {
            Answer::Pages(pages) => ("pages", pages.len()),
            Answer::Versions(out) => ("versions", out.hits.len()),
            Answer::Times(answer) => ("times", answer.0.len()),
            Answer::Rollback(out) => ("rollback", out.restored.len()),
        }
    }

    #[test]
    fn completed_io_carries_data_exactly_for_successful_reads_and_queries() {
        use NvmeOpcode::*;
        let mut d = driver();
        put(&mut d, 1, b"v1", SEC_NS);
        let cmd = |opcode, lpa: u64, count: u32, t: Nanos| {
            let mut e = SubmissionEntry::new(opcode, 0);
            e.set_u64(0, lpa);
            e.cdw[2] = count;
            e.set_u64(4, t);
            e
        };
        let far = u64::MAX / 4;
        // (command, pages it carries, succeeds, the answer's shape). The
        // loop issues the commands one second apart from 3 s.
        let table = [
            (cmd(Write, 2, 2, 0), 2, true, None),
            (cmd(Write, far, 1, 0), 1, false, None),
            (cmd(DatasetMgmt, 2, 1, 0), 0, true, None),
            (cmd(Flush, 0, 0, 0), 0, true, None),
            (cmd(Read, 1, 2, 0), 0, true, Some(("pages", 2))),
            (cmd(Read, far, 1, 0), 0, false, None),
            (
                cmd(AddrQuery, 1, 1, 2 * SEC_NS),
                0,
                true,
                Some(("versions", 1)),
            ),
            // No version that early: success with nothing to return.
            (cmd(AddrQuery, 1, 1, 0), 0, true, Some(("versions", 0))),
            // CDW13 = 0 s and CDW14 = 10 s: LPA 2's one version.
            (
                cmd(AddrQueryRange, 2, 1, 10),
                0,
                true,
                Some(("versions", 1)),
            ),
            (cmd(AddrQueryAll, 1, 3, 0), 0, true, Some(("versions", 3))),
            // LPAs 1, 2 and 3 have history (the trim keeps it); two of them
            // were written from 3 s on, and one up to 2 s.
            (cmd(TimeQueryAll, 0, 0, 0), 0, true, Some(("times", 3))),
            (
                cmd(TimeQuery, 3 * SEC_NS, 0, 0),
                0,
                true,
                Some(("times", 2)),
            ),
            (
                cmd(TimeQueryRange, 0, 2 * SEC_NS as u32, 0),
                0,
                true,
                Some(("times", 1)),
            ),
            // LPA 2 as of 4 s holds the write at 3 s, which the trim undid.
            (
                cmd(RollBack, 2, 1, 4 * SEC_NS),
                0,
                true,
                Some(("rollback", 1)),
            ),
            // LPAs 1, 2 and 3 each had a version at 4 s.
            (
                cmd(RollBackAll, 4 * SEC_NS, 0, 0),
                0,
                true,
                Some(("rollback", 3)),
            ),
        ];
        let mut now = 2 * SEC_NS;
        for (entry, carried, succeeds, shaped) in table {
            let what = entry.opcode;
            now += SEC_NS;
            let ticket = d
                .submit_ticket(0, entry, vec![b"w".to_vec(); carried])
                .unwrap();
            let done = d.drain(&mut now);
            assert_eq!(done.len(), 1, "{what:?}");
            assert_eq!(done[0].ticket, ticket, "{what:?}");
            assert_eq!(done[0].is_success(), succeeds, "{what:?}");
            let returned = done[0].outcome.as_ref().ok().and_then(Option::as_ref);
            let returned = returned.map(shape);
            assert_eq!(returned, shaped, "{what:?}: answer");
        }
    }

    #[test]
    fn full_queue_bounces_the_submission_until_a_slot_frees() {
        let mut d = driver();
        let q = d.create_queue(1);
        d.submit_trim(q, Lpa(0), 1).unwrap();
        // The queue is at depth: the write bounces with a typed error and
        // leaves nothing behind.
        let err = d.submit_write(q, Lpa(1), vec![vec![0u8; 4]]).unwrap_err();
        assert!(matches!(err, DriverError::QueueFull(NvmeOpcode::Write)));
        assert_eq!(d.in_flight(), 1);
        let mut now = SEC_NS;
        d.poll(now);
        assert_eq!(d.wait_for_slot(&mut now).map(|done| done.len()), Some(1));
        d.submit_write(q, Lpa(1), vec![vec![0u8; 4]]).unwrap();
    }

    #[test]
    fn interleaved_completions_are_not_dropped() {
        let mut d = driver();
        // One ticket in flight, then a synchronous read on the same queue:
        // the sync path must hand back the read's own completion and keep
        // the write's for a later poll instead of discarding it.
        let ticket = d.submit_write(0, Lpa(7), vec![b"w".to_vec()]).unwrap();
        let (page, _) = d.read(Lpa(9), SEC_NS).unwrap();
        assert_eq!(page, PageData::Zeros, "unwritten page reads zero");
        let done = d.poll(SEC_NS);
        assert_eq!(done.len(), 1, "foreign completion was dropped");
        assert_eq!(done[0].ticket, ticket);
        assert!(done[0].is_success());
        assert_eq!(d.in_flight(), 0);
    }

    #[test]
    fn poll_returns_completions_in_finish_order() {
        let mut d = driver();
        let q_slow = d.create_queue(4);
        let q_fast = d.create_queue(4);
        // A six-page program on one queue, a cheap unmapped read on
        // another: the read must complete first despite later submission.
        let pages: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 32]).collect();
        let slow = d.submit_write(q_slow, Lpa(0), pages).unwrap();
        let fast = d.submit_read(q_fast, Lpa(40), 1).unwrap();
        d.poll(SEC_NS);
        let mut seen = Vec::new();
        while seen.len() < 2 {
            let at = d.next_completion_at().expect("commands in flight");
            seen.extend(d.poll(at).into_iter().map(|io| io.ticket));
        }
        assert_eq!(seen, vec![fast, slow]);
    }

    #[test]
    fn one_poll_returns_completions_in_finish_order_across_queues() {
        let mut d = driver();
        let q1 = d.create_queue(4);
        let q2 = d.create_queue(4);
        // Both start at one second and post before one late poll; the read
        // of an unmapped page finishes first although its queue comes second.
        let pages: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 32]).collect();
        let write = d.submit_write(q1, Lpa(0), pages).unwrap();
        let read = d.submit_read(q2, Lpa(40), 1).unwrap();
        assert!(d.poll(SEC_NS).is_empty());
        let done = d.poll(100 * SEC_NS);
        let order: Vec<(Ticket, Nanos)> = done.iter().map(|io| (io.ticket, io.finish)).collect();
        assert_eq!(order.len(), 2);
        assert!(order[0].1 < order[1].1, "{order:?}");
        assert_eq!((order[0].0, order[1].0), (read, write));
    }

    #[test]
    fn cid_map_hands_out_every_free_cid_then_reports_none() {
        let mut map = CidMap::new();
        let all: Vec<u16> = std::iter::from_fn(|| map.alloc()).collect();
        assert_eq!(all, (1..=u16::MAX).collect::<Vec<_>>());
        assert!(!map.release(0), "cid 0 is never in flight");
        assert!(map.release(4_000) && !map.release(4_000));
        // The cursor wrapped to 1; the walk finds the one hole.
        assert_eq!(map.alloc(), Some(4_000));
        assert_eq!(map.alloc(), None);
    }

    #[test]
    fn cid_allocation_survives_wraparound_with_outstanding_slots() {
        let mut d = driver();
        // Pin one long-running command in flight on queue 0: a multi-page
        // program whose finish is far beyond the test's virtual clock.
        let pages: Vec<Vec<u8>> = (0..16).map(|_| vec![7u8; 16]).collect();
        let held = d.submit_write(0, Lpa(0), pages).unwrap();
        assert!(
            d.poll(SEC_NS).is_empty(),
            "program completed implausibly fast"
        );

        // Drive the 16-bit cid space around twice with error reads (they
        // complete at submission time, so the clock never advances past the
        // held program). The allocator must never reuse the held cid.
        let mut completed = 0u64;
        let target = 2 * 65536 + 10;
        while completed < target {
            let t = d.submit_read(0, Lpa(u64::MAX / 2), 1).unwrap();
            assert_ne!(t.cid, held.cid, "reissued an in-flight cid");
            assert_eq!(t.qid, 0);
            for io in d.poll(SEC_NS) {
                assert_ne!(io.ticket, held, "held program completed early");
                assert!(!io.is_success());
                completed += 1;
            }
        }
        assert_eq!(d.in_flight(), 1, "only the held program remains");

        // Release the held program and confirm it completes exactly once.
        let at = d.next_completion_at().expect("held program in flight");
        let done = d.poll(at);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].ticket, held);
        assert!(done[0].is_success());
        assert_eq!(done[0].result, 16);
    }

    #[test]
    fn flush_ticket_fences_prior_writes() {
        let mut d = driver();
        let q = d.create_queue(8);
        let w1 = d.submit_write(q, Lpa(1), vec![b"a".to_vec()]).unwrap();
        let w2 = d.submit_write(q, Lpa(2), vec![b"b".to_vec()]).unwrap();
        let f = d.submit_flush(q).unwrap();
        let mut order = Vec::new();
        d.poll(SEC_NS);
        while order.len() < 3 {
            let at = d.next_completion_at().expect("commands in flight");
            order.extend(d.poll(at).into_iter().map(|io| io.ticket));
        }
        assert_eq!(order.last(), Some(&f), "flush completed before its fences");
        assert!(order.contains(&w1) && order.contains(&w2));
    }
}
