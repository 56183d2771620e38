//! The host-side NVMe driver: a typed API that goes through the wire format
//! — the layer TimeKits sits on in the paper's implementation (§4).
//!
//! Two styles of use:
//!
//! - **Synchronous** ([`HostDriver::write`], [`HostDriver::read`], ...):
//!   one command at a time on queue 0, the device run to completion before
//!   returning. The convenient path for tools and tests.
//! - **Multi-slot** ([`HostDriver::submit_write`] and friends returning a
//!   [`Ticket`], drained by [`HostDriver::poll`]): many commands in flight
//!   across many queues, completions surfacing in device finish order.
//!   Tickets are `(qid, cid)` pairs; the allocator never hands out a cid
//!   that is still in flight on its queue, so tickets never collide.
//!
//! Data travels with its command: a write's pages are handed to the
//! controller at submission, a read's or query's pages come back in its
//! [`CompletedIo`]. Nothing is registered, so nothing can leak.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use almanac_flash::{Lpa, Nanos};

use crate::controller::{NvmeController, NvmeStatus};
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
pub type DriverResult<T> = Result<T, DriverError>;

/// Handle for an in-flight command: its queue id and command id. Unique
/// among commands currently in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket {
    /// Queue the command was submitted to.
    pub qid: u16,
    /// NVMe command identifier on that queue.
    pub cid: u16,
}

/// A completed command harvested by [`HostDriver::poll`].
#[derive(Debug, Clone)]
pub struct CompletedIo {
    /// The ticket this completion answers.
    pub ticket: Ticket,
    /// The completed command's opcode.
    pub opcode: NvmeOpcode,
    /// Raw NVMe status (0 = success).
    pub status: u16,
    /// Command-specific result dword.
    pub result: u32,
    /// Returned pages for data-bearing commands (reads, queries) that
    /// succeeded; `None` otherwise.
    pub data: Option<Vec<Vec<u8>>>,
    /// Device-side finish time the completion entry posted at — response
    /// time is `finish - submit time`.
    pub finish: Nanos,
}

impl CompletedIo {
    /// True when the command completed with NVMe success status.
    pub fn is_success(&self) -> bool {
        self.status == NvmeStatus::Success as u16
    }
}

/// The host driver.
pub struct HostDriver {
    controller: NvmeController,
    /// Next cid to try, per queue.
    next_cid: HashMap<u16, u16>,
    /// Commands submitted whose completion has not been harvested.
    inflight: HashMap<Ticket, NvmeOpcode>,
    /// Harvested completions not yet returned by `poll`.
    ready: VecDeque<CompletedIo>,
}

impl HostDriver {
    /// Attaches a driver to a controller.
    pub fn new(controller: NvmeController) -> Self {
        HostDriver {
            controller,
            next_cid: HashMap::new(),
            inflight: HashMap::new(),
            ready: VecDeque::new(),
        }
    }

    /// The attached controller (for inspection).
    pub fn controller(&self) -> &NvmeController {
        &self.controller
    }

    /// Creates a new I/O queue pair with its own depth, returning its id.
    pub fn create_queue(&mut self, depth: usize) -> u16 {
        self.controller.create_io_queue(depth)
    }

    /// Commands submitted and not yet harvested, across all queues.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Earliest instant at which the controller will post another
    /// completion; `None` when nothing is pending device-side.
    pub fn next_completion_at(&self) -> Option<Nanos> {
        self.controller.next_completion_at()
    }

    /// Allocates a cid on `qid` that no in-flight command holds. The
    /// caller has already checked the queue has a free slot, and queue
    /// depths are clamped below the 16-bit cid space, so a free cid exists.
    fn alloc_cid(&mut self, qid: u16) -> u16 {
        let next = self.next_cid.entry(qid).or_insert(1);
        let mut cid = *next;
        while self.inflight.contains_key(&Ticket { qid, cid }) {
            cid = cid.wrapping_add(1).max(1);
        }
        *next = cid.wrapping_add(1).max(1);
        cid
    }

    /// Submits `entry` with the pages it writes on `qid`.
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
        let cid = self.alloc_cid(qid);
        entry.cid = cid;
        let ticket = Ticket { qid, cid };
        let accepted = self.controller.submit_to(qid, entry, payload);
        debug_assert!(accepted, "slot was checked");
        self.inflight.insert(ticket, opcode);
        Ok(ticket)
    }

    /// Moves every posted completion into the ready list.
    fn harvest(&mut self) {
        for qid in 0..self.controller.queue_count() as u16 {
            while let Some(done) = self.controller.pop_completion(qid) {
                let ticket = Ticket {
                    qid,
                    cid: done.cqe.cid,
                };
                if self.inflight.remove(&ticket).is_none() {
                    continue;
                }
                self.ready.push_back(CompletedIo {
                    ticket,
                    opcode: done.opcode,
                    status: done.cqe.status,
                    result: done.cqe.result,
                    data: done.data,
                    finish: done.finish,
                });
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
        self.ready.drain(..).collect()
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
        let mut e = SubmissionEntry::new(NvmeOpcode::Write, 0);
        e.set_u64(0, lpa.0);
        e.cdw[2] = pages.len() as u32;
        self.submit_ticket(qid, e, pages)
    }

    /// Submits a multi-page read on `qid`; completes with the pages in
    /// `data`.
    pub fn submit_read(&mut self, qid: u16, lpa: Lpa, count: u32) -> DriverResult<Ticket> {
        let mut e = SubmissionEntry::new(NvmeOpcode::Read, 0);
        e.set_u64(0, lpa.0);
        e.cdw[2] = count;
        self.submit_ticket(qid, e, Vec::new())
    }

    /// Submits a trim (dataset management deallocate) on `qid`.
    pub fn submit_trim(&mut self, qid: u16, lpa: Lpa, count: u32) -> DriverResult<Ticket> {
        let mut e = SubmissionEntry::new(NvmeOpcode::DatasetMgmt, 0);
        e.set_u64(0, lpa.0);
        e.cdw[2] = count;
        self.submit_ticket(qid, e, Vec::new())
    }

    /// Submits a flush on `qid`: a fence that completes only after every
    /// earlier command on the queue, and holds back every later one.
    pub fn submit_flush(&mut self, qid: u16) -> DriverResult<Ticket> {
        let e = SubmissionEntry::new(NvmeOpcode::Flush, 0);
        self.submit_ticket(qid, e, Vec::new())
    }

    /// Synchronous wait for a ticket submitted on queue 0: runs the device
    /// to completion and returns this command's completion. Completions for
    /// other in-flight tickets are retained for a later [`HostDriver::poll`],
    /// never dropped.
    fn issue(&mut self, ticket: Ticket, now: Nanos) -> DriverResult<CompletedIo> {
        self.controller.run_to_completion(now);
        self.harvest();
        let pos = self
            .ready
            .iter()
            .position(|io| io.ticket == ticket)
            // Never harvested, so the in-flight record still names it.
            .ok_or_else(|| DriverError::Lost(self.inflight[&ticket]))?;
        let io = self.ready.remove(pos).expect("position just found");
        if io.is_success() {
            Ok(io)
        } else {
            Err(DriverError::Status {
                code: io.status,
                opcode: io.opcode,
            })
        }
    }

    /// Writes one page of bytes.
    pub fn write(&mut self, lpa: Lpa, page: Vec<u8>, now: Nanos) -> DriverResult<()> {
        let ticket = self.submit_write(0, lpa, vec![page])?;
        self.issue(ticket, now)?;
        Ok(())
    }

    /// Reads one page of bytes.
    pub fn read(&mut self, lpa: Lpa, now: Nanos) -> DriverResult<Vec<u8>> {
        let ticket = self.submit_read(0, lpa, 1)?;
        let io = self.issue(ticket, now)?;
        let mut pages = io.data.ok_or(DriverError::Lost(NvmeOpcode::Read))?;
        if pages.is_empty() {
            return Err(DriverError::Lost(NvmeOpcode::Read));
        }
        Ok(pages.remove(0))
    }

    /// Trims a range of pages.
    pub fn trim(&mut self, lpa: Lpa, count: u32, now: Nanos) -> DriverResult<()> {
        let ticket = self.submit_trim(0, lpa, count)?;
        self.issue(ticket, now)?;
        Ok(())
    }

    /// `AddrQuery` through the wire: the page contents as of time `t`.
    pub fn addr_query(
        &mut self,
        lpa: Lpa,
        count: u32,
        t: Nanos,
        now: Nanos,
    ) -> DriverResult<Vec<Vec<u8>>> {
        self.addr_query_parallel(lpa, count, t, 1, now)
    }

    /// `AddrQuery` through the wire with `threads` host workers fanning the
    /// scan across the device's `amt_shards` partitions (CDW13 on the wire);
    /// the completion posts at the partitioned schedule's makespan.
    pub fn addr_query_parallel(
        &mut self,
        lpa: Lpa,
        count: u32,
        t: Nanos,
        threads: u32,
        now: Nanos,
    ) -> DriverResult<Vec<Vec<u8>>> {
        let mut e = SubmissionEntry::new(NvmeOpcode::AddrQuery, 0);
        e.set_u64(0, lpa.0);
        e.cdw[2] = count;
        e.cdw[3] = threads;
        e.set_u64(4, t);
        let ticket = self.submit_ticket(0, e, Vec::new())?;
        let io = self.issue(ticket, now)?;
        io.data.ok_or(DriverError::Lost(NvmeOpcode::AddrQuery))
    }

    /// `TimeQueryAll` through the wire: `(lpa, version count)` rows.
    pub fn time_query_all(&mut self, now: Nanos) -> DriverResult<Vec<(u64, u64)>> {
        let e = SubmissionEntry::new(NvmeOpcode::TimeQueryAll, 0);
        let ticket = self.submit_ticket(0, e, Vec::new())?;
        let io = self.issue(ticket, now)?;
        let rows = io.data.ok_or(DriverError::Lost(NvmeOpcode::TimeQueryAll))?;
        Ok(rows
            .iter()
            .map(|r| {
                (
                    u64::from_le_bytes(r[0..8].try_into().expect("row width")),
                    u64::from_le_bytes(r[8..16].try_into().expect("row width")),
                )
            })
            .collect())
    }

    /// `RollBack` through the wire; returns the number of pages restored.
    pub fn roll_back(&mut self, lpa: Lpa, count: u32, t: Nanos, now: Nanos) -> DriverResult<u32> {
        let mut e = SubmissionEntry::new(NvmeOpcode::RollBack, 0);
        e.set_u64(0, lpa.0);
        e.cdw[2] = count;
        e.set_u64(4, t);
        let ticket = self.submit_ticket(0, e, Vec::new())?;
        Ok(self.issue(ticket, now)?.result)
    }

    /// `RollBackAll` through the wire; returns the number of pages restored.
    pub fn roll_back_all(&mut self, t: Nanos, now: Nanos) -> DriverResult<u32> {
        let mut e = SubmissionEntry::new(NvmeOpcode::RollBackAll, 0);
        e.set_u64(0, t);
        let ticket = self.submit_ticket(0, e, Vec::new())?;
        Ok(self.issue(ticket, now)?.result)
    }

    /// Flush (drains TimeSSD's delta buffers to flash). Returns the
    /// barrier's response time in microseconds, as reported by the
    /// controller in the completion result.
    pub fn flush(&mut self, now: Nanos) -> DriverResult<u32> {
        let ticket = self.submit_flush(0)?;
        Ok(self.issue(ticket, now)?.result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almanac_core::{SsdConfig, TimeSsd};
    use almanac_flash::{Geometry, SEC_NS};

    fn driver() -> HostDriver {
        HostDriver::new(NvmeController::new(TimeSsd::new(SsdConfig::new(
            Geometry::small_test(),
        ))))
    }

    #[test]
    fn typed_roundtrip() {
        let mut d = driver();
        d.write(Lpa(1), b"abc".to_vec(), SEC_NS).unwrap();
        let page = d.read(Lpa(1), 2 * SEC_NS).unwrap();
        assert!(page.starts_with(b"abc"));
    }

    #[test]
    fn time_travel_through_the_driver() {
        let mut d = driver();
        d.write(Lpa(0), b"v1".to_vec(), SEC_NS).unwrap();
        d.write(Lpa(0), b"v2".to_vec(), 3 * SEC_NS).unwrap();
        let old = d.addr_query(Lpa(0), 1, 2 * SEC_NS, 4 * SEC_NS).unwrap();
        assert!(old[0].starts_with(b"v1"));
        let restored = d.roll_back(Lpa(0), 1, 2 * SEC_NS, 5 * SEC_NS).unwrap();
        assert_eq!(restored, 1);
        assert!(d.read(Lpa(0), 6 * SEC_NS).unwrap().starts_with(b"v1"));
    }

    #[test]
    fn queries_run_without_exclusive_access() {
        let mut d = driver();
        d.write(Lpa(0), b"v1".to_vec(), SEC_NS).unwrap();
        d.write(Lpa(0), b"v2".to_vec(), 3 * SEC_NS).unwrap();
        // The &self path: an AddrQuery builder over the controller's device,
        // no &mut driver needed.
        let view = d.controller().ssd();
        let out = almanac_kits::AddrQuery::new(view, Lpa(0), 1)
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
            d.write(Lpa(lpa), vec![lpa as u8; 16], SEC_NS).unwrap();
        }
        let serial = d.addr_query(Lpa(0), 8, 10 * SEC_NS, 20 * SEC_NS).unwrap();
        let parallel = d
            .addr_query_parallel(Lpa(0), 8, 10 * SEC_NS, 4, 30 * SEC_NS)
            .unwrap();
        assert_eq!(serial, parallel);
        // Completion timing: the sharded schedule with 4 workers is strictly
        // no slower than one worker on the same device state.
        let one = almanac_kits::AddrQuery::new(d.controller().ssd(), Lpa(0), 8)
            .as_of(10 * SEC_NS)
            .run()
            .unwrap();
        assert!(one.makespan(4) <= one.makespan(1));
    }

    #[test]
    fn errors_carry_nvme_status() {
        let mut d = driver();
        let err = d.write(Lpa(u64::MAX / 4), vec![0], SEC_NS).unwrap_err();
        assert!(matches!(err, DriverError::Status { code: 0x0080, .. }));
    }

    #[test]
    fn time_query_all_reports_rows() {
        let mut d = driver();
        d.write(Lpa(2), b"x".to_vec(), SEC_NS).unwrap();
        d.write(Lpa(2), b"y".to_vec(), 2 * SEC_NS).unwrap();
        d.write(Lpa(5), b"z".to_vec(), 3 * SEC_NS).unwrap();
        let rows = d.time_query_all(4 * SEC_NS).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.contains(&(2, 2)));
        assert!(rows.contains(&(5, 1)));
    }

    #[test]
    fn trim_and_flush_work() {
        let mut d = driver();
        d.write(Lpa(3), b"gone".to_vec(), SEC_NS).unwrap();
        d.trim(Lpa(3), 1, 2 * SEC_NS).unwrap();
        let page = d.read(Lpa(3), 3 * SEC_NS).unwrap();
        assert!(page.iter().all(|b| *b == 0));
        let lat_us = d.flush(4 * SEC_NS).unwrap();
        // The default barrier overhead alone is 20 µs; a barrier fencing a
        // journalled trim must report at least that.
        assert!(lat_us >= 20, "flush reported {lat_us} µs");
    }

    #[test]
    fn flush_latency_reflects_pending_work() {
        let mut d = driver();
        // An idle barrier pays only the fixed overhead; one fencing fresh
        // writes and a journalled trim also pays the fence to their
        // completion, so it must report at least as much.
        let idle_us = d.flush(SEC_NS).unwrap();
        d.write(Lpa(1), b"a".to_vec(), 2 * SEC_NS).unwrap();
        d.trim(Lpa(1), 1, 2 * SEC_NS).unwrap();
        let busy_us = d.flush(2 * SEC_NS).unwrap();
        assert!(
            busy_us >= idle_us,
            "busy barrier {busy_us} µs < idle barrier {idle_us} µs"
        );
    }

    #[test]
    fn completed_io_carries_data_exactly_for_successful_reads_and_queries() {
        use NvmeOpcode::*;
        let mut d = driver();
        d.write(Lpa(1), b"v1".to_vec(), SEC_NS).unwrap();
        let cmd = |opcode, lpa: u64, count: u32, t: Nanos| {
            let mut e = SubmissionEntry::new(opcode, 0);
            e.set_u64(0, lpa);
            e.cdw[2] = count;
            e.set_u64(4, t);
            e
        };
        let far = u64::MAX / 4;
        // (command, pages it carries, succeeds, pages of data it returns)
        let table = [
            (cmd(Write, 2, 2, 0), 2, true, None),
            (cmd(Write, far, 1, 0), 1, false, None),
            (cmd(DatasetMgmt, 2, 1, 0), 0, true, None),
            (cmd(Flush, 0, 0, 0), 0, true, None),
            (cmd(Read, 1, 2, 0), 0, true, Some(2)),
            (cmd(Read, far, 1, 0), 0, false, None),
            (cmd(AddrQuery, 1, 1, 2 * SEC_NS), 0, true, Some(1)),
            // No version that early: success with nothing to return.
            (cmd(AddrQuery, 1, 1, 0), 0, true, Some(0)),
            // LPAs 1, 2 and 3 have history (the trim keeps it).
            (cmd(TimeQueryAll, 0, 0, 0), 0, true, Some(3)),
            (cmd(RollBack, 1, 1, 2 * SEC_NS), 0, true, None),
        ];
        let mut now = 2 * SEC_NS;
        for (entry, carried, succeeds, data_pages) in table {
            let what = entry.opcode;
            now += SEC_NS;
            let ticket = d
                .submit_ticket(0, entry, vec![b"w".to_vec(); carried])
                .unwrap();
            let done = d.drain(&mut now);
            assert_eq!(done.len(), 1, "{what:?}");
            assert_eq!(done[0].ticket, ticket, "{what:?}");
            assert_eq!(done[0].is_success(), succeeds, "{what:?}");
            let returned = done[0].data.as_ref().map(Vec::len);
            assert_eq!(returned, data_pages, "{what:?}: data");
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
        let page = d.read(Lpa(9), SEC_NS).unwrap();
        assert!(page.iter().all(|b| *b == 0), "unwritten page reads zero");
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
