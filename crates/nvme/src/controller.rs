//! The simulated NVMe controller: fetches submission entries, interprets
//! them (including the TimeKits vendor commands), executes them against its
//! device, and posts completion entries.
//!
//! The controller is generic over the device (`NvmeController<D>`, a
//! TimeSSD by default): I/O commands are the device's own `SsdDevice` calls,
//! vendor queries read its history through `read_view()`, and a rollback
//! writes through the device again. A device without a read view (the
//! Regular and FlashGuard baselines) completes every vendor opcode with
//! `InvalidOpcode`.
//!
//! The controller owns N submission/completion queue pairs (queue 0 exists
//! from construction; more are created through the admin-style
//! [`NvmeController::create_io_queue`]). An arbitration loop round-robins
//! across submission queues *starting* commands, but each completion entry
//! is posted only once its device-side finish time has passed — so
//! completions surface out of submission order, and [`NvmeController::process`]
//! is incremental: call it with advancing `now` and it starts what it can
//! and posts what is due. The controller counts the commands queued, keeps
//! the earliest finish in flight and the ids of the queues holding
//! anything, so a step with nothing due and nothing queued only turns the
//! arbitration cursor, and no sweep visits an empty queue.
//!
//! A Flush is a per-queue fence: it is not started until every earlier
//! command on its queue has completed, and no later command on that queue
//! starts until the Flush's completion posts.
//!
//! A command owns its data. The pages a Write carries are submitted beside
//! its 64-byte entry and moved into the device. When the controller starts a
//! command it makes the one [`CompletedIo`] the host will pop, fills in what
//! the device returned — an [`Answer`] (the device's immutable [`PageData`],
//! or the query or rollback outcome exactly as core's body returned it) or
//! the device's own `AlmanacError` (the controller's own refusals are
//! `Unsupported` and `InvalidCommand`), with the NVMe status `status_of`
//! gives it — and files it in the command's queue. There is no host-buffer
//! table to register with, look up, or leak, and no second answer or error
//! format.

use almanac_core::{roll_back, roll_back_all, time_scan, AddrQuery};
use almanac_core::{AlmanacError, SsdDevice, MAX_ARRIVAL};
use almanac_flash::{Lpa, LpaSpan, Nanos, PageData};

use crate::queue::{Answer, CompletedIo, Outcome, QueuePair, Ticket};
use crate::sqe::{NvmeOpcode, SubmissionEntry};

/// Depth of the I/O queue pair the controller creates at construction.
pub const DEFAULT_QUEUE_DEPTH: usize = 32;

/// Modelled host workers a time query's completion time is scheduled over.
const TIME_QUERY_THREADS: u32 = 4;

/// NVMe status codes used by the controller (generic command status set,
/// plus a vendor code for the §3.4 stall).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum NvmeStatus {
    /// Success.
    Success = 0x0000,
    /// Invalid command opcode.
    InvalidOpcode = 0x0001,
    /// Invalid field in command.
    InvalidField = 0x0002,
    /// LBA out of range.
    LbaOutOfRange = 0x0080,
    /// Vendor: device stalled — free space exhausted inside the retention
    /// guarantee (the host-visible symptom of §3.4).
    RetentionStall = 0x01C0,
    /// Vendor: no version found at the requested time.
    NoSuchVersion = 0x01C1,
}

/// The status a failed command completes with.
fn status_of(err: &AlmanacError) -> NvmeStatus {
    match err {
        AlmanacError::LpaOutOfRange { .. } => NvmeStatus::LbaOutOfRange,
        AlmanacError::DeviceStalled { .. } => NvmeStatus::RetentionStall,
        AlmanacError::NoSuchVersion { .. } => NvmeStatus::NoSuchVersion,
        AlmanacError::Unsupported(_) => NvmeStatus::InvalidOpcode,
        _ => NvmeStatus::InvalidField,
    }
}

/// The controller: N submission/completion queue pairs over one device.
pub struct NvmeController<D = almanac_core::TimeSsd> {
    ssd: D,
    /// Bytes of one flash page: the longest page a Write may carry.
    page_size: usize,
    queues: Vec<QueuePair>,
    /// Round-robin arbitration cursor.
    rr_next: usize,
    /// Global start-order counter.
    start_seq: u64,
    /// Completions posted while an earlier-submitted command on the same
    /// queue was still in flight.
    ooo_completions: u64,
    /// The ids of the queues holding anything, ascending: the only ones
    /// arbitration, posting and harvesting visit.
    busy: Vec<usize>,
    /// Submitted commands not yet started, across queues.
    queued: usize,
    /// The earliest finish in flight across queues.
    next_due: Option<Nanos>,
}

impl NvmeController {
    /// Creates a controller over a TimeSSD with one I/O queue pair (id 0,
    /// depth [`DEFAULT_QUEUE_DEPTH`]).
    pub fn new(ssd: almanac_core::TimeSsd) -> Self {
        let page_size = ssd.geometry().page_size as usize;
        Self::over(ssd, page_size)
    }
}

impl<D: SsdDevice> NvmeController<D> {
    /// Creates a controller over any device whose flash pages hold
    /// `page_size` bytes, with one I/O queue pair (id 0, depth
    /// [`DEFAULT_QUEUE_DEPTH`]). The page size is not on `SsdReadOps`, so
    /// the caller names it.
    pub fn over(ssd: D, page_size: usize) -> Self {
        NvmeController {
            ssd,
            page_size,
            queues: vec![QueuePair::new(DEFAULT_QUEUE_DEPTH)],
            rr_next: 0,
            start_seq: 0,
            ooo_completions: 0,
            busy: Vec::new(),
            queued: 0,
            next_due: None,
        }
    }

    /// Direct device access (diagnostics; the host normally goes through
    /// the queues).
    pub fn ssd(&self) -> &D {
        &self.ssd
    }

    /// The device, given back when the controller is done with it.
    pub(crate) fn into_ssd(self) -> D {
        self.ssd
    }

    /// Bytes of one flash page.
    pub(crate) fn page_size(&self) -> usize {
        self.page_size
    }

    /// Admin-style queue creation: a new submission/completion queue pair
    /// with its own `depth` (clamped to ≥ 1). Returns its queue id.
    pub fn create_io_queue(&mut self, depth: usize) -> u16 {
        self.queues.push(QueuePair::new(depth));
        (self.queues.len() - 1) as u16
    }

    /// True when queue `qid` can accept one more submission (outstanding
    /// commands below its depth).
    pub fn has_slot(&self, qid: u16) -> bool {
        self.queues.get(qid as usize).is_some_and(|q| q.has_slot())
    }

    /// Rings the doorbell on queue `qid`: queues `entry` with the pages it
    /// writes (`payload` is one `Vec<u8>` per page for a Write, empty for
    /// every other opcode). Returns `false` (rejecting the command and
    /// dropping its payload) when the queue does not exist or is at its depth.
    pub fn submit_to(&mut self, qid: u16, entry: SubmissionEntry, payload: Vec<Vec<u8>>) -> bool {
        let Some(q) = self.queues.get_mut(qid as usize) else {
            return false;
        };
        if !q.has_slot() {
            return false;
        }
        if q.is_empty() {
            let qid = usize::from(qid);
            let at = self.busy.partition_point(|&busy| busy < qid);
            self.busy.insert(at, qid);
        }
        q.sq.push_back((entry, payload));
        self.queued += 1;
        true
    }

    /// Pops the next posted completion from queue `qid`, if any.
    pub fn pop_completion(&mut self, qid: u16) -> Option<CompletedIo> {
        let q = self.queues.get_mut(qid as usize)?;
        let done = q.pop()?;
        if q.is_empty() {
            self.busy.retain(|&busy| busy != usize::from(qid));
        }
        Some(done)
    }

    /// Pops the posted completion that finished first across every queue
    /// (ties by start order): merging the queues' CQs so the host sees
    /// device finish order, each queue's own order kept.
    pub(crate) fn pop_earliest(&mut self) -> Option<CompletedIo> {
        let queues = &self.queues;
        let (_, qid) = (self.busy.iter())
            .filter_map(|&qid| queues[qid].head().map(|f| ((f.finish, f.seq), qid)))
            .min()?;
        self.pop_completion(qid as u16)
    }

    /// Earliest pending completion instant across every queue — the next
    /// virtual time at which [`NvmeController::process`] will post a CQE.
    /// `None` when nothing is in flight.
    pub fn next_completion_at(&self) -> Option<Nanos> {
        self.next_due
    }

    /// Completions that overtook an earlier-submitted command on their own
    /// queue, cumulatively.
    pub fn ooo_completions(&self) -> u64 {
        self.ooo_completions
    }

    /// One controller step at virtual time `now`: posts every completion
    /// whose device finish time has passed, then arbitrates round-robin
    /// across submission queues starting every startable command (depth
    /// permitting, flush fences respected), then posts anything that became
    /// due. Incremental — call again with a later `now` to post the rest;
    /// [`NvmeController::next_completion_at`] names the next useful instant.
    /// A round starts at most one command per queue and turns the cursor
    /// once; the last round is the one that starts nothing.
    pub fn process(&mut self, now: Nanos) {
        self.post_due(now);
        let n = self.queues.len();
        loop {
            let mut started = false;
            // With nothing queued a round only turns the cursor. Otherwise it
            // visits the busy queues from the cursor on, wrapping: the order
            // of a sweep over every queue, less the empty ones.
            if self.queued > 0 {
                let first = self.busy.partition_point(|&qid| qid < self.rr_next);
                for k in (first..self.busy.len()).chain(0..first) {
                    started |= self.try_start(self.busy[k], now);
                }
            }
            self.rr_next = if self.rr_next + 1 == n {
                0
            } else {
                self.rr_next + 1
            };
            if !started {
                break;
            }
        }
        self.post_due(now);
    }

    /// Runs the controller until nothing is queued or in flight, advancing
    /// virtual time to each pending completion; returns the virtual time
    /// the last completion posted at (`now` if there was nothing to do).
    /// The synchronous path for hosts that do not poll.
    pub fn run_to_completion(&mut self, now: Nanos) -> Nanos {
        let mut t = now;
        self.process(t);
        while let Some(next) = self.next_completion_at() {
            t = t.max(next);
            self.process(t);
        }
        t
    }

    /// Posts what is due on every queue that holds it; nothing when the
    /// earliest finish in flight lies after `now`, the usual case, which
    /// inlines.
    #[inline]
    fn post_due(&mut self, now: Nanos) {
        if self.next_due.is_some_and(|due| due <= now) {
            self.post_each_due(now);
        }
    }

    fn post_each_due(&mut self, now: Nanos) {
        let mut next_due = None;
        for &qid in &self.busy {
            let q = &mut self.queues[qid];
            if q.next_finish().is_some_and(|f| f <= now) {
                self.ooo_completions += q.post_due(now);
            }
            next_due = next_due.into_iter().chain(q.next_finish()).min();
        }
        self.next_due = next_due;
    }

    /// Starts the head-of-queue command on `qid` if arbitration allows:
    /// the queue must be non-empty, not fenced by an in-flight Flush, and
    /// a Flush at the head waits for the queue's in-flight set to drain.
    fn try_start(&mut self, qid: usize, now: Nanos) -> bool {
        let q = &mut self.queues[qid];
        let Some((head, _)) = q.sq.front() else {
            return false;
        };
        // A started Flush fences everything submitted behind it; a Flush
        // waits for everything submitted before it to complete.
        if q.flush_in_flight() || (head.opcode == NvmeOpcode::Flush && !q.idle()) {
            return false;
        }
        let (entry, payload) = q.sq.pop_front().expect("head checked");
        self.queued -= 1;
        self.start_seq += 1;
        let mut io = CompletedIo {
            ticket: Ticket {
                qid: qid as u16,
                cid: entry.cid,
            },
            opcode: entry.opcode,
            status: NvmeStatus::Success as u16,
            result: 0,
            finish: now,
            outcome: Ok(None),
            seq: self.start_seq,
            overtakes: false,
        };
        execute(&mut self.ssd, self.page_size, &mut io, entry, payload, now);
        self.next_due = Some(self.next_due.map_or(io.finish, |due| due.min(io.finish)));
        q.file(io);
        true
    }
}

#[cfg(test)]
mod reference;

/// Runs command `e` (with the pages a Write carries) on `ssd` at `now`,
/// recording in `io` its outcome, status, result dword and finish. A
/// failure finishes at `now` unless part of the range was already applied.
fn execute<D: SsdDevice>(
    ssd: &mut D,
    page_size: usize,
    io: &mut CompletedIo,
    e: SubmissionEntry,
    payload: Vec<Vec<u8>>,
    now: Nanos,
) {
    let outcome = match e.opcode {
        NvmeOpcode::Flush => flush(ssd, io, now),
        NvmeOpcode::Write | NvmeOpcode::Read | NvmeOpcode::DatasetMgmt => {
            execute_io(ssd, page_size, io, e, payload, now)
        }
        _ => execute_vendor(ssd, io, e, now),
    };
    if let Err(err) = &outcome {
        io.status = status_of(err) as u16;
    }
    io.outcome = outcome;
}

fn flush<D: SsdDevice>(ssd: &mut D, io: &mut CompletedIo, now: Nanos) -> Outcome {
    let c = ssd.flush(now)?;
    // The result carries the barrier's response time in microseconds
    // (saturating), so the host sees what the fence actually cost.
    io.result = (c.response(now) / 1_000).min(u32::MAX as u64) as u32;
    io.finish = c.finish;
    Ok(None)
}

/// The Table-1 vendor commands: queries read the device's history
/// through its read view, a rollback writes through the device. A
/// device without a read view knows none of these opcodes.
fn execute_vendor<D: SsdDevice>(
    ssd: &mut D,
    io: &mut CompletedIo,
    e: SubmissionEntry,
    now: Nanos,
) -> Outcome {
    let Some(view) = ssd.read_view() else {
        return Err(AlmanacError::Unsupported(
            "a Table-1 command on a device without history",
        ));
    };
    // Each body's answer with its item count (the result dword) and the
    // instant its completion posts.
    let (items, finish, answer) = match e.opcode {
        NvmeOpcode::AddrQuery | NvmeOpcode::AddrQueryRange | NvmeOpcode::AddrQueryAll => {
            let query = AddrQuery::new(view, Lpa(e.get_u64(0)), e.cdw[2] as u64);
            // The opcodes differ only in which CDWs carry the version
            // filter and the modelled host worker count (0 = one);
            // range bounds use second granularity on the wire.
            let (query, threads) = match e.opcode {
                NvmeOpcode::AddrQuery => (query.as_of(e.get_u64(4)), e.cdw[3]),
                NvmeOpcode::AddrQueryRange => {
                    let t1 = e.cdw[3] as u64 * 1_000_000_000;
                    let t2 = e.cdw[4] as u64 * 1_000_000_000;
                    (query.range(t1, t2), e.cdw[5])
                }
                _ => (query.all_versions(), e.cdw[3]),
            };
            // The completion posts at `now` plus the modelled makespan of
            // the partitioned schedule over `threads` host workers, so a
            // device with more partitions answers parallel queries sooner.
            let out = query.run()?;
            let finish = now.saturating_add(out.makespan(threads));
            (out.hits.len(), finish, Answer::Versions(Box::new(out)))
        }
        NvmeOpcode::TimeQuery | NvmeOpcode::TimeQueryRange | NvmeOpcode::TimeQueryAll => {
            let (from, to) = match e.opcode {
                NvmeOpcode::TimeQuery => (e.get_u64(0), Nanos::MAX),
                NvmeOpcode::TimeQueryRange => (e.get_u64(0), e.get_u64(2)),
                _ => (0, Nanos::MAX),
            };
            let (hits, cost) = time_scan(view, from, to);
            let finish = now.saturating_add(cost.makespan(TIME_QUERY_THREADS));
            (hits.len(), finish, Answer::Times(Box::new((hits, cost))))
        }
        _ => {
            let out = if e.opcode == NvmeOpcode::RollBack {
                let (addr, cnt) = (Lpa(e.get_u64(0)), u64::from(e.cdw[2]));
                roll_back(ssd, addr, cnt, e.get_u64(4), now)
            } else {
                roll_back_all(ssd, e.get_u64(0), now)
            }?;
            (out.restored.len(), out.finish, Answer::Rollback(out.into()))
        }
    };
    (io.result, io.finish) = (items as u32, finish);
    Ok(Some(answer))
}

/// Write, Read and DatasetMgmt carry `(lpa, count)` straight off the
/// wire. The whole range must lie inside the exported space before
/// anything is allocated, written or trimmed, so a malformed SQE ends in
/// a status and never in a half-applied range.
fn execute_io<D: SsdDevice>(
    ssd: &mut D,
    page_size: usize,
    io: &mut CompletedIo,
    e: SubmissionEntry,
    payload: Vec<Vec<u8>>,
    now: Nanos,
) -> Outcome {
    // The device checks the arrival before the range (`Ftl::admit`), so
    // a command with both faults fails as it would on the bare device.
    if now > MAX_ARRIVAL {
        return Err(AlmanacError::ArrivalTooLate(now));
    }
    let (lpa, count) = (Lpa(e.get_u64(0)), e.cdw[2]);
    let exported = ssd.exported_pages();
    let span = LpaSpan::whole(lpa, u64::from(count), exported)
        .ok_or(AlmanacError::LpaOutOfRange { lpa, exported })?;
    match e.opcode {
        NvmeOpcode::Write => {
            // One page per LPA, none longer than a flash page: anything
            // else would be stored truncated or not at all.
            if payload.len() != count as usize {
                return Err(AlmanacError::InvalidCommand(
                    "a Write's pages do not match its page count",
                ));
            }
            if payload.iter().any(|p| p.len() > page_size) {
                return Err(AlmanacError::InvalidCommand(
                    "a Write's page is longer than a flash page",
                ));
            }
            for (lpa, page) in span.iter().zip(payload) {
                let c = ssd.write(lpa, PageData::bytes(page), now)?;
                io.result += 1;
                io.finish = io.finish.max(c.finish);
            }
            Ok(None)
        }
        NvmeOpcode::Read => {
            let (mut pages, mut finish) = (Vec::with_capacity(count as usize), now);
            for lpa in span.iter() {
                let (data, c) = ssd.read(lpa, now)?;
                pages.push(data);
                finish = finish.max(c.finish);
            }
            (io.result, io.finish) = (count, finish);
            Ok(Some(Answer::Pages(pages)))
        }
        _ => {
            for lpa in span.iter() {
                io.finish = io.finish.max(ssd.trim(lpa, now)?.finish);
            }
            io.result = count;
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almanac_core::{Completion, DeviceStats, SsdConfig, SsdReadOps, TimeSsd};
    use almanac_flash::{Geometry, SEC_NS};
    use proptest::prelude::*;

    fn controller() -> NvmeController {
        NvmeController::new(TimeSsd::new(SsdConfig::new(Geometry::small_test())))
    }

    /// An `(lpa, count)` command.
    fn io(opcode: NvmeOpcode, cid: u16, lpa: u64, count: u32) -> SubmissionEntry {
        let mut e = SubmissionEntry::new(opcode, cid);
        e.set_u64(0, lpa);
        e.cdw[2] = count;
        e
    }

    /// Submits one command on queue 0, runs the device dry from `now` and
    /// returns the command's completion.
    fn run(
        c: &mut NvmeController,
        e: SubmissionEntry,
        payload: Vec<Vec<u8>>,
        now: Nanos,
    ) -> CompletedIo {
        assert!(c.submit_to(0, e, payload), "queue 0 full");
        c.run_to_completion(now);
        c.pop_completion(0).expect("command completed")
    }

    /// The bytes the host sees of a returned page.
    fn bytes(c: &NvmeController, page: &PageData) -> Vec<u8> {
        page.materialize(c.ssd().geometry().page_size as usize)
    }

    /// The pages a successful Read returned.
    fn read_pages(done: CompletedIo) -> Vec<PageData> {
        match done.outcome {
            Ok(Some(Answer::Pages(pages))) => pages,
            other => panic!("a read answered {other:?}"),
        }
    }

    /// Writes one page of `text` at `lpa` at `t` seconds.
    fn write_text(c: &mut NvmeController, lpa: u64, t: u64, text: &str) {
        let w = io(NvmeOpcode::Write, t as u16, lpa, 1);
        let done = run(c, w, vec![text.as_bytes().to_vec()], t * SEC_NS);
        assert_eq!(done.status, 0);
    }

    #[test]
    fn write_read_through_the_wire() {
        let mut c = controller();
        let pages = vec![b"page zero".to_vec(), b"page one".to_vec()];
        let done = run(&mut c, io(NvmeOpcode::Write, 1, 10, 2), pages, SEC_NS);
        assert_eq!(done.status, NvmeStatus::Success as u16);
        assert_eq!(done.result, 2);
        assert_eq!(done.outcome, Ok(None));

        let r = io(NvmeOpcode::Read, 2, 10, 2);
        let done = run(&mut c, r, Vec::new(), 2 * SEC_NS);
        assert_eq!(done.status, 0);
        let pages = read_pages(done);
        assert!(bytes(&c, &pages[0]).starts_with(b"page zero"));
        assert!(bytes(&c, &pages[1]).starts_with(b"page one"));
    }

    #[test]
    fn out_of_range_reports_lba_status() {
        let mut c = controller();
        let (lpa, exported) = (Lpa(u64::MAX / 2), c.ssd().exported_pages());
        let done = run(
            &mut c,
            io(NvmeOpcode::Write, 9, lpa.0, 1),
            vec![vec![0; 8]],
            0,
        );
        assert_eq!(done.status, NvmeStatus::LbaOutOfRange as u16);
        let out_of_range = AlmanacError::LpaOutOfRange { lpa, exported };
        assert_eq!(done.outcome, Err(out_of_range));
    }

    /// Submits one `(lpa, count)` I/O command carrying four pages and
    /// returns its status.
    fn io_status(c: &mut NvmeController, opcode: NvmeOpcode, lpa: u64, count: u32) -> u16 {
        let e = io(opcode, 1, lpa, count);
        run(c, e, vec![vec![7u8; 8]; 4], SEC_NS).status
    }

    #[test]
    fn huge_count_read_reports_lba_status_instead_of_allocating() {
        // Nothing may be sized by a count off the wire before the range is
        // checked: 4 Gi result entries is an allocation failure and SIGABRT.
        let mut c = controller();
        for lpa in [0, u64::MAX] {
            assert_eq!(
                io_status(&mut c, NvmeOpcode::Read, lpa, u32::MAX),
                NvmeStatus::LbaOutOfRange as u16
            );
        }
    }

    #[test]
    fn over_long_trim_leaves_every_page_mapped() {
        let mut c = controller();
        let exported = c.ssd().exported_pages();
        assert_eq!(io_status(&mut c, NvmeOpcode::Write, exported - 4, 4), 0);
        assert_eq!(
            io_status(&mut c, NvmeOpcode::DatasetMgmt, exported - 4, 5),
            NvmeStatus::LbaOutOfRange as u16
        );
        for lpa in exported - 4..exported {
            assert!(c.ssd().is_mapped(Lpa(lpa)), "lpa {lpa} was trimmed");
        }
    }

    #[test]
    fn over_long_write_writes_nothing() {
        let mut c = controller();
        let exported = c.ssd().exported_pages();
        // The payload holds all four pages, so only the range is at fault.
        assert_eq!(
            io_status(&mut c, NvmeOpcode::Write, exported - 3, 4),
            NvmeStatus::LbaOutOfRange as u16
        );
        assert_eq!(c.ssd().stats().user_writes, 0);
    }

    #[test]
    fn short_payload_write_is_an_invalid_field_and_writes_nothing() {
        let mut c = controller();
        // CDW12 promises three pages; the payload carries two, or none.
        for payload in [vec![vec![1u8; 8]; 2], Vec::new()] {
            let done = run(&mut c, io(NvmeOpcode::Write, 1, 0, 3), payload, SEC_NS);
            assert_eq!(done.status, NvmeStatus::InvalidField as u16);
            let short = AlmanacError::InvalidCommand("a Write's pages do not match its page count");
            assert_eq!(done.outcome, Err(short));
            assert_eq!(done.result, 0);
            assert_eq!(done.finish, SEC_NS, "an error completes at once");
        }
        assert_eq!(c.ssd().stats().user_writes, 0);
        assert!(!c.ssd().is_mapped(Lpa(0)));
    }

    #[test]
    fn oversized_or_surplus_payload_write_is_an_invalid_field_and_writes_nothing() {
        let mut c = controller();
        let page_size = c.ssd().geometry().page_size as usize;
        // One page longer than a flash page, or a second page CDW12 does
        // not count: neither can be stored as sent.
        for payload in [vec![vec![1u8; page_size + 1]], vec![vec![1u8; 8]; 2]] {
            let done = run(&mut c, io(NvmeOpcode::Write, 1, 0, 1), payload, SEC_NS);
            assert_eq!(done.status, NvmeStatus::InvalidField as u16);
            assert_eq!(done.result, 0);
        }
        assert_eq!(c.ssd().stats().user_writes, 0);
        assert!(!c.ssd().is_mapped(Lpa(0)));
    }

    #[test]
    fn vendor_addr_query_returns_old_version() {
        let mut c = controller();
        write_text(&mut c, 0, 1, "old");
        write_text(&mut c, 0, 5, "new");
        let mut q = io(NvmeOpcode::AddrQuery, 50, 0, 1);
        q.set_u64(4, 2 * SEC_NS);
        let done = run(&mut c, q, Vec::new(), 10 * SEC_NS);
        assert_eq!(done.status, 0);
        assert_eq!(done.result, 1);
        let Ok(Some(Answer::Versions(out))) = done.outcome else {
            panic!("an AddrQuery answered {:?}", done.outcome);
        };
        assert_eq!((out.hits[0].lpa, out.hits[0].timestamp), (Lpa(0), SEC_NS));
        assert!(bytes(&c, &out.hits[0].data).starts_with(b"old"));
    }

    #[test]
    fn vendor_rollback_restores_state() {
        let mut c = controller();
        write_text(&mut c, 4, 1, "good");
        write_text(&mut c, 4, 5, "bad!");
        let mut rb = io(NvmeOpcode::RollBack, 60, 4, 1);
        rb.set_u64(4, 2 * SEC_NS);
        let done = run(&mut c, rb, Vec::new(), 10 * SEC_NS);
        assert_eq!(done.result, 1);
        let Ok(Some(Answer::Rollback(out))) = done.outcome else {
            panic!("a RollBack answered {:?}", done.outcome);
        };
        assert_eq!(out.restored, vec![(Lpa(4), SEC_NS)]);
        assert_eq!(out.finish, done.finish);

        let r = io(NvmeOpcode::Read, 61, 4, 1);
        let done = run(&mut c, r, Vec::new(), 20 * SEC_NS);
        assert!(bytes(&c, &read_pages(done)[0]).starts_with(b"good"));
    }

    #[test]
    fn time_query_answers_carry_each_lpas_timestamps() {
        let mut c = controller();
        write_text(&mut c, 7, 1, "x");
        write_text(&mut c, 7, 3, "y");
        let q = SubmissionEntry::new(NvmeOpcode::TimeQueryAll, 2);
        let done = run(&mut c, q, Vec::new(), 4 * SEC_NS);
        assert_eq!(done.result, 1);
        let Ok(Some(Answer::Times(answer))) = done.outcome else {
            panic!("a TimeQueryAll answered {:?}", done.outcome);
        };
        let (hits, _) = *answer;
        assert_eq!(hits.len(), 1);
        assert_eq!(
            (hits[0].lpa, &hits[0].timestamps[..]),
            (Lpa(7), &[3 * SEC_NS, SEC_NS][..])
        );
    }

    #[test]
    fn completions_post_only_when_finish_passes() {
        let mut c = controller();
        let w = io(NvmeOpcode::Write, 3, 1, 1);
        assert!(c.submit_to(0, w, vec![b"late".to_vec()]));
        // The write starts at SEC_NS but its program finishes later; the
        // CQE must not be visible until that instant passes.
        c.process(SEC_NS);
        assert!(c.pop_completion(0).is_none(), "CQE posted before finish");
        let finish = c.next_completion_at().expect("command in flight");
        assert!(finish > SEC_NS);
        c.process(finish);
        let done = c.pop_completion(0).unwrap();
        assert_eq!((done.ticket.cid, done.finish), (3, finish));
    }

    #[test]
    fn queue_creation_and_depth_limits() {
        let mut c = controller();
        let q = c.create_io_queue(2);
        assert_eq!(q, 1);
        let flush = |cid| SubmissionEntry::new(NvmeOpcode::Flush, cid);
        assert!(c.submit_to(q, flush(1), Vec::new()));
        assert!(c.submit_to(q, flush(2), Vec::new()));
        // Depth 2 reached: the third submission bounces.
        assert!(!c.submit_to(q, flush(3), Vec::new()));
        assert!(
            !c.submit_to(99, flush(3), Vec::new()),
            "unknown queue must reject"
        );
    }

    #[test]
    fn flush_fences_its_own_queue() {
        let mut c = controller();
        let q = c.create_io_queue(8);
        for cid in 1..=3u16 {
            let w = io(NvmeOpcode::Write, cid, cid as u64, 1);
            assert!(c.submit_to(q, w, vec![vec![cid as u8; 8]]));
        }
        let flush = SubmissionEntry::new(NvmeOpcode::Flush, 10);
        assert!(c.submit_to(q, flush, Vec::new()));
        let after = io(NvmeOpcode::Write, 11, 9, 1);
        assert!(c.submit_to(q, after, vec![vec![9u8; 8]]));

        c.run_to_completion(SEC_NS);
        let order: Vec<u16> = std::iter::from_fn(|| c.pop_completion(q))
            .map(|done| done.ticket.cid)
            .collect();
        assert_eq!(order.len(), 5);
        let flush_pos = order.iter().position(|&cid| cid == 10).unwrap();
        for cid in 1..=3u16 {
            let pos = order.iter().position(|&c| c == cid).unwrap();
            assert!(pos < flush_pos, "cid {cid} completed after the flush");
        }
        assert_eq!(
            order.last(),
            Some(&11),
            "post-flush write completed before the flush"
        );
    }

    /// A Flush starts once its queue drains, and a command behind a Flush
    /// starts once the Flush posts: the device sees exactly what it would
    /// had the host waited for those CQEs before submitting — the same
    /// start instants, so the same completions, the same Flush result
    /// dword and the same device statistics.
    #[test]
    fn fenced_commands_start_as_if_the_host_waited() {
        let write = |cid: u16| {
            let e = io(NvmeOpcode::Write, cid, u64::from(cid), 1);
            (e, vec![vec![cid as u8; 8]])
        };
        let flush = || (SubmissionEntry::new(NvmeOpcode::Flush, 10), Vec::new());
        let posted = |c: &mut NvmeController, q| -> Vec<_> {
            std::iter::from_fn(|| c.pop_completion(q))
                .map(|done| (done.ticket.cid, done.status, done.result, done.finish))
                .collect()
        };

        // Everything submitted at once: only the fences hold commands back.
        let mut fenced = controller();
        let fq = fenced.create_io_queue(8);
        for (e, payload) in [write(1), write(2), write(3), flush(), write(11)] {
            assert!(fenced.submit_to(fq, e, payload));
        }
        fenced.run_to_completion(SEC_NS);

        // The host submits each group once the one before it has completed.
        let mut waited = controller();
        let wq = waited.create_io_queue(8);
        let mut now = SEC_NS;
        for group in [
            vec![write(1), write(2), write(3)],
            vec![flush()],
            vec![write(11)],
        ] {
            for (e, payload) in group {
                assert!(waited.submit_to(wq, e, payload));
            }
            now = waited.run_to_completion(now);
        }

        let order = posted(&mut fenced, fq);
        assert_eq!(order.len(), 5);
        assert_eq!(order, posted(&mut waited, wq));
        assert_eq!(fenced.ssd().stats(), waited.ssd().stats());
    }

    #[test]
    fn queues_complete_out_of_order() {
        // A slow multi-page write on one queue and a cheap read of an
        // unmapped page on another: the read's CQE must overtake.
        let mut c = controller();
        let q1 = c.create_io_queue(4);
        let q2 = c.create_io_queue(4);
        let pages: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 64]).collect();
        assert!(c.submit_to(q1, io(NvmeOpcode::Write, 1, 0, 6), pages));
        assert!(c.submit_to(q2, io(NvmeOpcode::Read, 2, 30, 1), Vec::new()));
        c.process(SEC_NS);
        let read_done = c.next_completion_at().unwrap();
        c.process(read_done);
        // The read posts first even though both started at SEC_NS.
        assert!(c.pop_completion(q2).is_some());
        let write_pending = c.pop_completion(q1).is_none();
        c.run_to_completion(read_done);
        assert!(c.pop_completion(q1).is_some());
        assert!(
            write_pending,
            "slow write completed no later than the cheap read"
        );
    }

    /// A device that does no work: a command on `lpa` finishes
    /// `10 × (lpa % 3)` ns after it starts (a flush 5 ns), so finishes tie
    /// often, some at the start instant itself.
    #[derive(Default)]
    struct Ties {
        stats: DeviceStats,
    }

    impl Ties {
        fn done(lpa: Lpa, now: Nanos) -> almanac_core::Result<Completion> {
            let finish = now + 10 * (lpa.0 % 3);
            Ok(Completion { start: now, finish })
        }
    }

    impl SsdReadOps for Ties {
        fn stats(&self) -> &DeviceStats {
            &self.stats
        }

        fn exported_pages(&self) -> u64 {
            64
        }

        fn kind(&self) -> &'static str {
            "ties"
        }
    }

    impl SsdDevice for Ties {
        fn write(&mut self, lpa: Lpa, _: PageData, now: Nanos) -> almanac_core::Result<Completion> {
            Self::done(lpa, now)
        }

        fn read(&mut self, lpa: Lpa, now: Nanos) -> almanac_core::Result<(PageData, Completion)> {
            Ok((PageData::Zeros, Self::done(lpa, now)?))
        }

        fn trim(&mut self, lpa: Lpa, now: Nanos) -> almanac_core::Result<Completion> {
            Self::done(lpa, now)
        }

        fn flush(&mut self, now: Nanos) -> almanac_core::Result<Completion> {
            Ok(Completion {
                start: now,
                finish: now + 5,
            })
        }
    }

    /// Everything a popped completion shows the host, and its start order.
    fn shown(
        done: Option<CompletedIo>,
    ) -> Option<(Ticket, NvmeOpcode, u16, u32, Nanos, u64, Outcome)> {
        done.map(|io| {
            (
                io.ticket, io.opcode, io.status, io.result, io.finish, io.seq, io.outcome,
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random submissions (writes, writes the controller refuses,
        /// reads, trims, flushes; some bounced by a full queue), steps of
        /// `process` at a clock that mostly advances, sometimes stands and
        /// sometimes steps back, and pops from one queue or across all, on
        /// 1–3 queues of depth 1–8 beside the idle queue 0: the controller
        /// starts, posts and hands over exactly what the reference does,
        /// with the same out-of-order count, next completion instant and
        /// free slots after every step.
        #[test]
        fn controller_queues_as_the_reference_does(
            depths in prop::collection::vec(1usize..=8, 1..=3),
            steps in prop::collection::vec((0u8..12, any::<u8>(), 0u64..25), 1..150),
        ) {
            let mut c = NvmeController::over(Ties::default(), 16);
            let mut r = reference::Reference::over(Ties::default(), 16);
            let mut qids = Vec::new();
            for depth in depths {
                let qid = c.create_io_queue(depth);
                prop_assert_eq!(r.create_io_queue(depth), qid);
                qids.push(qid);
            }
            let (mut now, mut cid): (Nanos, u16) = (0, 0);
            for (kind, pick, d) in steps {
                let qid = qids[usize::from(pick) % qids.len()];
                match kind {
                    0..=5 => {
                        cid = cid.wrapping_add(1);
                        let (opcode, payload) = match kind {
                            0 | 1 => (NvmeOpcode::Write, vec![vec![pick; 8]]),
                            // Two pages for a count of one: refused.
                            2 => (NvmeOpcode::Write, vec![vec![pick; 8]; 2]),
                            3 => (NvmeOpcode::Read, Vec::new()),
                            4 => (NvmeOpcode::DatasetMgmt, Vec::new()),
                            _ => (NvmeOpcode::Flush, Vec::new()),
                        };
                        let e = io(opcode, cid, u64::from(pick) % 64, 1);
                        prop_assert_eq!(
                            c.submit_to(qid, e, payload.clone()),
                            r.submit_to(qid, e, payload)
                        );
                    }
                    6..=8 => {
                        now = if kind == 8 { now.saturating_sub(d) } else { now + d };
                        c.process(now);
                        r.process(now);
                    }
                    9 => prop_assert_eq!(shown(c.pop_completion(qid)), shown(r.pop_completion(qid))),
                    _ => prop_assert_eq!(shown(c.pop_earliest()), shown(r.pop_earliest())),
                }
                prop_assert_eq!(c.next_completion_at(), r.next_completion_at());
                prop_assert_eq!(c.ooo_completions(), r.ooo_completions());
                for &qid in &qids {
                    prop_assert_eq!(c.has_slot(qid), r.has_slot(qid));
                }
            }
            // Run both dry: the rest of the stream matches too.
            while let Some(at) = c.next_completion_at() {
                now = now.max(at);
                c.process(now);
                r.process(now);
            }
            loop {
                let done = shown(c.pop_earliest());
                prop_assert_eq!(&done, &shown(r.pop_earliest()));
                if done.is_none() {
                    break;
                }
            }
            prop_assert_eq!(c.ooo_completions(), r.ooo_completions());
        }
    }
}
