//! The queueing of the controller before a queue's records shared one
//! deque, kept verbatim as the reference `tests::controller_queues_as_the_
//! reference_does` holds the controller to: each queue's in-flight set is
//! its own `VecDeque` kept in `(finish, seq)` order by binary insertion,
//! posting moves records into a separate CQ and tests every record left in
//! flight for an earlier start, and every sweep visits every queue. Only
//! the execution of a command is shared with the controller.

use std::collections::VecDeque;

use almanac_core::SsdDevice;
use almanac_flash::Nanos;

use super::{execute, NvmeStatus, DEFAULT_QUEUE_DEPTH};
use crate::queue::{CompletedIo, Ticket};
use crate::sqe::{NvmeOpcode, SubmissionEntry};

/// One submission/completion queue pair with its own depth and in-flight
/// set.
#[derive(Debug)]
pub(crate) struct QueuePair {
    /// Maximum outstanding commands (queued + in flight).
    pub depth: usize,
    /// Host-submitted entries not yet fetched by arbitration, each with the
    /// pages it writes (empty for every opcode but Write).
    pub sq: VecDeque<(SubmissionEntry, Vec<Vec<u8>>)>,
    /// Started commands whose completion has not posted yet, kept in
    /// posting order — by finish, ties by start order — so the next to post
    /// is at the front.
    inflight: VecDeque<CompletedIo>,
    /// Flushes among `inflight`.
    flushes: usize,
    /// Posted completions.
    pub cq: VecDeque<CompletedIo>,
}

impl QueuePair {
    pub(crate) fn new(depth: usize) -> Self {
        QueuePair {
            // Clamp to the 16-bit cid space so a free command id always
            // exists for every slot.
            depth: depth.clamp(1, u16::MAX as usize),
            sq: VecDeque::new(),
            inflight: VecDeque::new(),
            flushes: 0,
            cq: VecDeque::new(),
        }
    }

    /// True when the host may ring one more submission into this queue:
    /// the commands outstanding from its point of view (submitted and not
    /// yet posted to the CQ) are fewer than the depth.
    pub(crate) fn has_slot(&self) -> bool {
        self.sq.len() + self.inflight.len() < self.depth
    }

    /// True when no started command awaits its completion.
    pub(crate) fn idle(&self) -> bool {
        self.inflight.is_empty()
    }

    /// True while a started flush is fencing this queue: commands behind it
    /// must not start until its completion posts.
    pub(crate) fn flush_in_flight(&self) -> bool {
        self.flushes > 0
    }

    /// Records a started command; its completion posts once `finish` passes.
    pub(crate) fn start(&mut self, started: CompletedIo) {
        let at = self
            .inflight
            .partition_point(|f| (f.finish, f.seq) < (started.finish, started.seq));
        self.flushes += usize::from(started.opcode == NvmeOpcode::Flush);
        self.inflight.insert(at, started);
    }

    /// Posts every in-flight command whose finish time has passed, in
    /// finish order (ties broken by start order). Returns the number of
    /// completions that overtook an earlier-submitted command still in
    /// flight — the out-of-order count.
    pub(crate) fn post_due(&mut self, now: Nanos) -> u64 {
        let mut overtakes = 0;
        while let Some(done) = self.inflight.pop_front_if(|f| f.finish <= now) {
            self.flushes -= usize::from(done.opcode == NvmeOpcode::Flush);
            if self.inflight.iter().any(|f| f.seq < done.seq) {
                overtakes += 1;
            }
            self.cq.push_back(done);
        }
        overtakes
    }

    /// Earliest pending completion instant on this queue, if any.
    pub(crate) fn next_finish(&self) -> Option<Nanos> {
        self.inflight.front().map(|f| f.finish)
    }
}

/// The controller's queues and arbitration over one device.
pub(crate) struct Reference<D> {
    ssd: D,
    page_size: usize,
    queues: Vec<QueuePair>,
    /// Round-robin arbitration cursor.
    rr_next: usize,
    /// Global start-order counter.
    start_seq: u64,
    /// Completions posted while an earlier-submitted command on the same
    /// queue was still in flight.
    ooo_completions: u64,
}

impl<D: SsdDevice> Reference<D> {
    pub(crate) fn over(ssd: D, page_size: usize) -> Self {
        Reference {
            ssd,
            page_size,
            queues: vec![QueuePair::new(DEFAULT_QUEUE_DEPTH)],
            rr_next: 0,
            start_seq: 0,
            ooo_completions: 0,
        }
    }

    pub(crate) fn create_io_queue(&mut self, depth: usize) -> u16 {
        self.queues.push(QueuePair::new(depth));
        (self.queues.len() - 1) as u16
    }

    pub(crate) fn submit_to(
        &mut self,
        qid: u16,
        entry: SubmissionEntry,
        payload: Vec<Vec<u8>>,
    ) -> bool {
        let Some(q) = self.queues.get_mut(qid as usize) else {
            return false;
        };
        if !q.has_slot() {
            return false;
        }
        q.sq.push_back((entry, payload));
        true
    }

    pub(crate) fn pop_completion(&mut self, qid: u16) -> Option<CompletedIo> {
        self.queues.get_mut(qid as usize)?.cq.pop_front()
    }

    pub(crate) fn pop_earliest(&mut self) -> Option<CompletedIo> {
        let (_, qid) = (self.queues.iter().enumerate())
            .filter_map(|(qid, q)| q.cq.front().map(|f| ((f.finish, f.seq), qid)))
            .min()?;
        self.queues[qid].cq.pop_front()
    }

    pub(crate) fn next_completion_at(&self) -> Option<Nanos> {
        self.queues.iter().filter_map(|q| q.next_finish()).min()
    }

    pub(crate) fn has_slot(&self, qid: u16) -> bool {
        self.queues.get(qid as usize).is_some_and(|q| q.has_slot())
    }

    pub(crate) fn ooo_completions(&self) -> u64 {
        self.ooo_completions
    }

    pub(crate) fn process(&mut self, now: Nanos) {
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

    fn post_due(&mut self, now: Nanos) {
        for q in &mut self.queues {
            self.ooo_completions += q.post_due(now);
        }
    }

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
        if head.opcode == NvmeOpcode::Flush && !q.idle() {
            return false;
        }
        let (entry, payload) = self.queues[qid].sq.pop_front().expect("head checked");
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
        self.queues[qid].start(io);
        true
    }
}
