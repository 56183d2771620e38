//! The simulated NVMe controller: fetches submission entries, interprets
//! them (including the TimeKits vendor commands), executes them against the
//! TimeSSD firmware, and posts completion entries.
//!
//! The controller owns N submission/completion queue pairs (queue 0 exists
//! from construction; more are created through the admin-style
//! [`NvmeController::create_io_queue`]). An arbitration loop round-robins
//! across submission queues *starting* commands, but each completion entry
//! is posted only once its device-side finish time has passed — so
//! completions surface out of submission order, and [`NvmeController::process`]
//! is incremental: call it with advancing `now` and it starts what it can
//! and posts what is due.
//!
//! A Flush is a per-queue fence: it is not started until every earlier
//! command on its queue has completed, and no later command on that queue
//! starts until the Flush's completion posts.
//!
//! A command owns its data. The pages a Write carries are submitted beside
//! its 64-byte entry and moved into the device; the pages a read or query
//! returns ride in its [`PostedCompletion`]. There is no host-buffer table to
//! register with, look up, or leak.

use almanac_core::{AlmanacError, SsdDevice, SsdReadOps, TimeSsd};
use almanac_flash::{Lpa, LpaSpan, Nanos, PageData};
use almanac_kits::{AddrQuery, TimeKits};

use crate::queue::{PostedCompletion, QueuePair};
use crate::sqe::{CompletionEntry, NvmeOpcode, SubmissionEntry};

/// Depth of the I/O queue pair the controller creates at construction.
pub const DEFAULT_QUEUE_DEPTH: usize = 32;

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

/// What executing a command yields: status, result dword, device-side
/// finish instant, and the pages a successful read or query returns.
type Executed = (NvmeStatus, u32, Nanos, Option<Vec<Vec<u8>>>);

/// The controller: N submission/completion queue pairs over one TimeSSD.
pub struct NvmeController {
    ssd: TimeSsd,
    queues: Vec<QueuePair>,
    /// Round-robin arbitration cursor.
    rr_next: usize,
    /// Global start-order counter.
    start_seq: u64,
    /// Completions posted while an earlier-submitted command on the same
    /// queue was still in flight.
    ooo_completions: u64,
}

impl NvmeController {
    /// Creates a controller over a TimeSSD with one I/O queue pair (id 0,
    /// depth [`DEFAULT_QUEUE_DEPTH`]).
    pub fn new(ssd: TimeSsd) -> Self {
        NvmeController {
            ssd,
            queues: vec![QueuePair::new(DEFAULT_QUEUE_DEPTH)],
            rr_next: 0,
            start_seq: 0,
            ooo_completions: 0,
        }
    }

    /// Direct firmware access (diagnostics; the host normally goes through
    /// the queues).
    pub fn ssd(&self) -> &TimeSsd {
        &self.ssd
    }

    /// `&self` query path into the firmware: an [`almanac_core::SsdReadView`]
    /// over the mapping tables, for hosts that want to run [`AddrQuery`]
    /// builders directly instead of going through the wire opcodes.
    pub fn read_view(&self) -> almanac_core::SsdReadView<'_> {
        self.ssd.read_view()
    }

    /// Admin-style queue creation: a new submission/completion queue pair
    /// with its own `depth` (clamped to ≥ 1). Returns its queue id.
    pub fn create_io_queue(&mut self, depth: usize) -> u16 {
        self.queues.push(QueuePair::new(depth));
        (self.queues.len() - 1) as u16
    }

    /// Number of queue pairs (including queue 0).
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }

    /// Depth of queue `qid`, or `None` for an unknown queue.
    pub fn queue_depth(&self, qid: u16) -> Option<usize> {
        self.queues.get(qid as usize).map(|q| q.depth)
    }

    /// True when queue `qid` can accept one more submission (outstanding
    /// commands below its depth).
    pub fn has_slot(&self, qid: u16) -> bool {
        self.queues.get(qid as usize).is_some_and(|q| q.has_slot())
    }

    /// Commands outstanding (submitted, completion not yet posted) on
    /// queue `qid`.
    pub fn outstanding(&self, qid: u16) -> usize {
        self.queues.get(qid as usize).map_or(0, |q| q.outstanding())
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
        q.sq.push_back((entry, payload));
        true
    }

    /// Pops the next posted completion from queue `qid`, if any.
    pub fn pop_completion(&mut self, qid: u16) -> Option<PostedCompletion> {
        self.queues.get_mut(qid as usize)?.cq.pop_front()
    }

    /// Earliest pending completion instant across every queue — the next
    /// virtual time at which [`NvmeController::process`] will post a CQE.
    /// `None` when nothing is in flight.
    pub fn next_completion_at(&self) -> Option<Nanos> {
        self.queues.iter().filter_map(|q| q.next_finish()).min()
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
    pub fn process(&mut self, now: Nanos) {
        self.post_due(now);
        loop {
            let mut started = false;
            let n = self.queues.len();
            for k in 0..n {
                let qid = (self.rr_next + k) % n;
                if self.try_start(qid, now) {
                    started = true;
                }
            }
            self.rr_next = (self.rr_next + 1) % n;
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

    fn post_due(&mut self, now: Nanos) {
        for q in &mut self.queues {
            self.ooo_completions += q.post_due(now);
        }
    }

    /// Starts the head-of-queue command on `qid` if arbitration allows:
    /// the queue must be non-empty, not fenced by an in-flight Flush, and
    /// a Flush at the head waits for the queue's in-flight set to drain.
    fn try_start(&mut self, qid: usize, now: Nanos) -> bool {
        let q = &self.queues[qid];
        let Some((head, _)) = q.sq.front() else {
            return false;
        };
        // A started Flush fences everything submitted behind it.
        if q.flush_in_flight() {
            return false;
        }
        // A Flush fences everything submitted before it: all earlier
        // commands on this queue must have completed before it starts.
        if head.opcode == NvmeOpcode::Flush && !q.inflight.is_empty() {
            return false;
        }
        let (entry, payload) = self.queues[qid].sq.pop_front().expect("head checked");
        let (status, result, finish, data) = self.execute(entry, payload, now);
        self.start_seq += 1;
        self.queues[qid].inflight.push(PostedCompletion {
            cqe: CompletionEntry {
                cid: entry.cid,
                status: status as u16,
                result,
            },
            opcode: entry.opcode,
            finish,
            data,
            seq: self.start_seq,
        });
        true
    }

    fn status_of(err: &AlmanacError) -> NvmeStatus {
        match err {
            AlmanacError::LpaOutOfRange { .. } => NvmeStatus::LbaOutOfRange,
            AlmanacError::DeviceStalled { .. } => NvmeStatus::RetentionStall,
            AlmanacError::NoSuchVersion { .. } => NvmeStatus::NoSuchVersion,
            _ => NvmeStatus::InvalidField,
        }
    }

    /// A command that failed at `at` with nothing done.
    fn failed(err: &AlmanacError, at: Nanos) -> Executed {
        (Self::status_of(err), 0, at, None)
    }

    /// Executes one command at virtual time `now`. Errors complete
    /// immediately (`now`) unless part of the range was already applied.
    fn execute(&mut self, e: SubmissionEntry, payload: Vec<Vec<u8>>, now: Nanos) -> Executed {
        use NvmeStatus::Success;
        let page_size = self.ssd.geometry().page_size as usize;
        match e.opcode {
            NvmeOpcode::Flush => match self.ssd.flush(now) {
                // The result carries the barrier's response time in
                // microseconds (saturating), so the host sees what the
                // fence actually cost.
                Ok(c) => {
                    let lat_us = (c.response(now) / 1_000).min(u32::MAX as u64) as u32;
                    (Success, lat_us, c.finish, None)
                }
                Err(err) => Self::failed(&err, now),
            },
            NvmeOpcode::Write | NvmeOpcode::Read | NvmeOpcode::DatasetMgmt => {
                self.execute_io(e, payload, now)
            }
            NvmeOpcode::AddrQuery | NvmeOpcode::AddrQueryRange | NvmeOpcode::AddrQueryAll => {
                let query =
                    AddrQuery::new(self.ssd.read_view(), Lpa(e.get_u64(0)), e.cdw[2] as u64);
                // The opcodes differ only in which CDWs carry the version
                // filter and the host worker count (0 = one thread); range
                // bounds use second granularity on the wire.
                let (query, threads) = match e.opcode {
                    NvmeOpcode::AddrQuery => (query.as_of(e.get_u64(4)), e.cdw[3]),
                    NvmeOpcode::AddrQueryRange => {
                        let t1 = e.cdw[3] as u64 * 1_000_000_000;
                        let t2 = e.cdw[4] as u64 * 1_000_000_000;
                        (query.range(t1, t2), e.cdw[5])
                    }
                    _ => (query.all_versions(), e.cdw[3]),
                };
                let threads = threads.max(1);
                match query.threads(threads).run() {
                    // The CQE posts at `now` plus the partitioned schedule's
                    // makespan over `threads` host workers, so a device
                    // with more partitions answers parallel queries sooner.
                    Ok(out) => {
                        let pages = out.hits.iter().map(|h| h.data.materialize(page_size));
                        (
                            Success,
                            out.hits.len() as u32,
                            now.saturating_add(out.makespan(threads)),
                            Some(pages.collect()),
                        )
                    }
                    Err(err) => Self::failed(&err, now),
                }
            }
            NvmeOpcode::TimeQuery | NvmeOpcode::TimeQueryRange | NvmeOpcode::TimeQueryAll => {
                let kits = TimeKits::new(&mut self.ssd).with_threads(4);
                let threads = kits.threads();
                let (hits, cost) = match e.opcode {
                    NvmeOpcode::TimeQuery => kits.time_query(e.get_u64(0)),
                    NvmeOpcode::TimeQueryRange => kits.time_query_range(e.get_u64(0), e.get_u64(2)),
                    _ => kits.time_query_all(),
                };
                // The result carries `(lpa, n_timestamps)` pairs as 16-byte
                // rows.
                let rows: Vec<Vec<u8>> = hits
                    .iter()
                    .map(|h| {
                        let mut row = Vec::with_capacity(16);
                        row.extend_from_slice(&h.lpa.0.to_le_bytes());
                        row.extend_from_slice(&(h.timestamps.len() as u64).to_le_bytes());
                        row
                    })
                    .collect();
                let finish = now.saturating_add(cost.makespan(threads));
                (Success, hits.len() as u32, finish, Some(rows))
            }
            NvmeOpcode::RollBack | NvmeOpcode::RollBackAll => {
                let mut kits = TimeKits::new(&mut self.ssd);
                let outcome = if e.opcode == NvmeOpcode::RollBack {
                    kits.roll_back(Lpa(e.get_u64(0)), e.cdw[2] as u64, e.get_u64(4), now)
                } else {
                    kits.roll_back_all(e.get_u64(0), now)
                };
                match outcome {
                    Ok(out) => (Success, out.restored.len() as u32, out.finish, None),
                    Err(err) => Self::failed(&err, now),
                }
            }
        }
    }

    /// Write, Read and DatasetMgmt carry `(lpa, count)` straight off the
    /// wire. The whole range must lie inside the exported space before
    /// anything is allocated, written or trimmed, so a malformed SQE ends in
    /// a status and never in a half-applied range.
    fn execute_io(&mut self, e: SubmissionEntry, payload: Vec<Vec<u8>>, now: Nanos) -> Executed {
        use NvmeStatus::{InvalidField, LbaOutOfRange, Success};
        let (start, count) = (Lpa(e.get_u64(0)), e.cdw[2]);
        let Some(span) = LpaSpan::whole(start, u64::from(count), self.ssd.exported_pages()) else {
            return (LbaOutOfRange, 0, now, None);
        };
        let mut finish = now;
        match e.opcode {
            NvmeOpcode::Write => {
                if payload.len() < count as usize {
                    return (InvalidField, 0, now, None);
                }
                let mut done = 0u32;
                for (lpa, page) in span.iter().zip(payload) {
                    match self.ssd.write(lpa, PageData::bytes(page), now) {
                        Ok(c) => {
                            done += 1;
                            finish = finish.max(c.finish);
                        }
                        Err(err) => return (Self::status_of(&err), done, finish, None),
                    }
                }
                (Success, done, finish, None)
            }
            NvmeOpcode::Read => {
                let page_size = self.ssd.geometry().page_size as usize;
                let mut pages = Vec::with_capacity(count as usize);
                for lpa in span.iter() {
                    match self.ssd.read(lpa, now) {
                        Ok((data, c)) => {
                            pages.push(data.materialize(page_size));
                            finish = finish.max(c.finish);
                        }
                        Err(err) => return Self::failed(&err, now),
                    }
                }
                (Success, count, finish, Some(pages))
            }
            _ => {
                for lpa in span.iter() {
                    match self.ssd.trim(lpa, now) {
                        Ok(c) => finish = finish.max(c.finish),
                        Err(err) => return (Self::status_of(&err), 0, finish, None),
                    }
                }
                (Success, count, finish, None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almanac_core::SsdConfig;
    use almanac_flash::{Geometry, SEC_NS};

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
    ) -> PostedCompletion {
        assert!(c.submit_to(0, e, payload), "queue 0 full");
        c.run_to_completion(now);
        c.pop_completion(0).expect("command completed")
    }

    /// Writes one page of `text` at `lpa` at `t` seconds.
    fn write_text(c: &mut NvmeController, lpa: u64, t: u64, text: &str) {
        let w = io(NvmeOpcode::Write, t as u16, lpa, 1);
        let done = run(c, w, vec![text.as_bytes().to_vec()], t * SEC_NS);
        assert_eq!(done.cqe.status, 0);
    }

    #[test]
    fn write_read_through_the_wire() {
        let mut c = controller();
        let pages = vec![b"page zero".to_vec(), b"page one".to_vec()];
        let done = run(&mut c, io(NvmeOpcode::Write, 1, 10, 2), pages, SEC_NS);
        assert_eq!(done.cqe.status, NvmeStatus::Success as u16);
        assert_eq!(done.cqe.result, 2);
        assert!(done.data.is_none());

        let r = io(NvmeOpcode::Read, 2, 10, 2);
        let done = run(&mut c, r, Vec::new(), 2 * SEC_NS);
        assert_eq!(done.cqe.status, 0);
        let pages = done.data.unwrap();
        assert!(pages[0].starts_with(b"page zero"));
        assert!(pages[1].starts_with(b"page one"));
    }

    #[test]
    fn out_of_range_reports_lba_status() {
        let mut c = controller();
        let w = io(NvmeOpcode::Write, 9, u64::MAX / 2, 1);
        assert_eq!(
            run(&mut c, w, vec![vec![0u8; 8]], 0).cqe.status,
            NvmeStatus::LbaOutOfRange as u16
        );
    }

    /// Submits one `(lpa, count)` I/O command carrying four pages and
    /// returns its status.
    fn io_status(c: &mut NvmeController, opcode: NvmeOpcode, lpa: u64, count: u32) -> u16 {
        let e = io(opcode, 1, lpa, count);
        run(c, e, vec![vec![7u8; 8]; 4], SEC_NS).cqe.status
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
            assert_eq!(done.cqe.status, NvmeStatus::InvalidField as u16);
            assert_eq!(done.cqe.result, 0);
            assert_eq!(done.finish, SEC_NS, "an error completes at once");
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
        assert_eq!(done.cqe.status, 0);
        assert_eq!(done.cqe.result, 1);
        assert!(done.data.unwrap()[0].starts_with(b"old"));
    }

    #[test]
    fn vendor_rollback_restores_state() {
        let mut c = controller();
        write_text(&mut c, 4, 1, "good");
        write_text(&mut c, 4, 5, "bad!");
        let mut rb = io(NvmeOpcode::RollBack, 60, 4, 1);
        rb.set_u64(4, 2 * SEC_NS);
        assert_eq!(run(&mut c, rb, Vec::new(), 10 * SEC_NS).cqe.result, 1);

        let r = io(NvmeOpcode::Read, 61, 4, 1);
        let done = run(&mut c, r, Vec::new(), 20 * SEC_NS);
        assert!(done.data.unwrap()[0].starts_with(b"good"));
    }

    #[test]
    fn time_query_rows_encode_lpa_and_count() {
        let mut c = controller();
        write_text(&mut c, 7, 1, "x");
        let q = SubmissionEntry::new(NvmeOpcode::TimeQueryAll, 2);
        let done = run(&mut c, q, Vec::new(), 2 * SEC_NS);
        assert_eq!(done.cqe.result, 1);
        let rows = done.data.unwrap();
        let lpa = u64::from_le_bytes(rows[0][0..8].try_into().unwrap());
        let n = u64::from_le_bytes(rows[0][8..16].try_into().unwrap());
        assert_eq!((lpa, n), (7, 1));
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
        assert_eq!((done.cqe.cid, done.finish), (3, finish));
    }

    #[test]
    fn queue_creation_and_depth_limits() {
        let mut c = controller();
        let q = c.create_io_queue(2);
        assert_eq!(q, 1);
        assert_eq!(c.queue_count(), 2);
        assert_eq!(c.queue_depth(q), Some(2));
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
            .map(|done| done.cqe.cid)
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
}
