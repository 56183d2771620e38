//! Submission/completion queue pairs and the in-flight command tracker.
//!
//! A real NVMe controller owns many queue pairs; commands are *fetched*
//! from a submission queue when arbitration selects it, run against the
//! device, and their completion is *posted* only once the device-side
//! finish time has passed — so completions surface out of submission order
//! whenever a later command finishes first (a read of an idle chip
//! overtaking a write queued behind a busy one, a short command passing a
//! long vendor query on a sibling queue, ...).

use std::collections::VecDeque;

use almanac_core::{AddrQueryOutcome, AlmanacError, QueryCost, RollbackOutcome, TimeQueryHit};
use almanac_flash::{Nanos, PageData};

use crate::controller::NvmeStatus;
use crate::sqe::{NvmeOpcode, SubmissionEntry};

/// What a successful Read or Table-1 command returns: the value the device
/// computed, unconverted. The vendor answers are boxed so a completion
/// stays as small as a read's.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// A Read's pages in LPA order. They are immutable (`Bytes` shares its
    /// buffer), so they are the device's content at the command's start.
    Pages(Vec<PageData>),
    /// What [`AddrQuery::run`](almanac_core::AddrQuery::run) returned for an
    /// AddrQuery, AddrQueryRange or AddrQueryAll.
    Versions(Box<AddrQueryOutcome>),
    /// What [`time_scan`](almanac_core::time_scan) returned for a TimeQuery,
    /// TimeQueryRange or TimeQueryAll.
    Times(Box<(Vec<TimeQueryHit>, QueryCost)>),
    /// What [`roll_back`](almanac_core::roll_back) or
    /// [`roll_back_all`](almanac_core::roll_back_all) returned.
    Rollback(Box<RollbackOutcome>),
}

/// How a command ended: `Ok` with what a successful Read or Table-1 command
/// returned (`None` for every other opcode), or `Err` with the error the
/// device raised — or, when the controller refused the command itself,
/// [`AlmanacError::Unsupported`] (`InvalidOpcode`) or
/// [`AlmanacError::InvalidCommand`] (`InvalidField`).
pub type Outcome = Result<Option<Answer>, AlmanacError>;

/// Handle for an in-flight command: its queue id and command id. Unique
/// among commands currently in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket {
    /// Queue the command was submitted to.
    pub qid: u16,
    /// NVMe command identifier on that queue.
    pub cid: u16,
}

/// One command's completion: the record the controller makes when it starts
/// the command, withholds until `finish` passes, and hands the host as is.
#[derive(Debug, Clone)]
pub struct CompletedIo {
    /// The ticket this completion answers.
    pub ticket: Ticket,
    /// The completed command's opcode.
    pub opcode: NvmeOpcode,
    /// Raw NVMe status (0 = success): the one the device's error maps to,
    /// or the controller's refusal.
    pub status: u16,
    /// Command-specific result dword.
    pub result: u32,
    /// Device-side finish time the completion posted at — response time is
    /// `finish - submit time`.
    pub finish: Nanos,
    /// What the device returned.
    pub outcome: Outcome,
    /// Global start order: posting breaks finish ties by it.
    pub(crate) seq: u64,
    /// Filed ahead of a command in flight on its queue when it started:
    /// that command started earlier and posts later, so this completion
    /// overtakes it.
    pub(crate) overtakes: bool,
}

impl CompletedIo {
    /// True when the command completed with NVMe success status.
    pub fn is_success(&self) -> bool {
        self.status == NvmeStatus::Success as u16
    }
}

/// One submission/completion queue pair with its own depth. A started
/// command's record is filed once into the queue's one deque, by its
/// finish; posting only moves the boundary between the CQ and the
/// in-flight set, and the host's pop moves the record out.
#[derive(Debug)]
pub(crate) struct QueuePair {
    /// Maximum outstanding commands (queued + in flight).
    pub depth: usize,
    /// Host-submitted entries not yet fetched by arbitration, each with the
    /// pages it writes (empty for every opcode but Write).
    pub sq: VecDeque<(SubmissionEntry, Vec<Vec<u8>>)>,
    /// Started commands the host has not popped. The first `posted` are the
    /// CQ, in posting order; the rest are in flight, in posting order — by
    /// finish, ties by start order — so the next to post follows the CQ.
    records: VecDeque<CompletedIo>,
    /// Length of the CQ at the front of `records`.
    posted: usize,
    /// Flushes in flight.
    flushes: usize,
}

impl QueuePair {
    pub(crate) fn new(depth: usize) -> Self {
        QueuePair {
            // Clamp to the 16-bit cid space so a free command id always
            // exists for every slot.
            depth: depth.clamp(1, u16::MAX as usize),
            sq: VecDeque::new(),
            records: VecDeque::new(),
            posted: 0,
            flushes: 0,
        }
    }

    /// True when the host may ring one more submission into this queue:
    /// the commands outstanding from its point of view (submitted and not
    /// yet posted to the CQ) are fewer than the depth.
    #[inline]
    pub(crate) fn has_slot(&self) -> bool {
        self.sq.len() + self.records.len() - self.posted < self.depth
    }

    /// True when the queue holds nothing: no submission, nothing in flight,
    /// no completion to pop.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.sq.is_empty() && self.records.is_empty()
    }

    /// True when no started command awaits its completion.
    #[inline]
    pub(crate) fn idle(&self) -> bool {
        self.records.len() == self.posted
    }

    /// True while a started flush is fencing this queue: commands behind it
    /// must not start until its completion posts.
    #[inline]
    pub(crate) fn flush_in_flight(&self) -> bool {
        self.flushes > 0
    }

    /// Files the record of a command started now, after every other, ahead
    /// of the in-flight records that finish after it. They all started
    /// earlier, so an equal finish stays ahead, and filing ahead of any of
    /// them is an overtake: it will still be in flight when this one posts.
    #[inline]
    pub(crate) fn file(&mut self, mut io: CompletedIo) {
        self.flushes += usize::from(io.opcode == NvmeOpcode::Flush);
        let later = (self.records.range(self.posted..).rev())
            .take_while(|f| f.finish > io.finish)
            .count();
        io.overtakes = later > 0;
        self.records.insert(self.records.len() - later, io);
    }

    /// Posts every in-flight command whose finish time has passed, in
    /// finish order (ties broken by start order). Returns how many of them
    /// overtook an earlier-started command still in flight — the
    /// out-of-order count.
    #[inline]
    pub(crate) fn post_due(&mut self, now: Nanos) -> u64 {
        let mut overtakes = 0;
        while let Some(done) = self.records.get(self.posted).filter(|f| f.finish <= now) {
            self.flushes -= usize::from(done.opcode == NvmeOpcode::Flush);
            overtakes += u64::from(done.overtakes);
            self.posted += 1;
        }
        overtakes
    }

    /// Earliest pending completion instant on this queue, if any.
    #[inline]
    pub(crate) fn next_finish(&self) -> Option<Nanos> {
        self.records.get(self.posted).map(|f| f.finish)
    }

    /// The CQ's head: the next completion [`Self::pop`] hands over.
    #[inline]
    pub(crate) fn head(&self) -> Option<&CompletedIo> {
        self.records.front().filter(|_| self.posted > 0)
    }

    /// Pops the CQ's head.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<CompletedIo> {
        if self.posted == 0 {
            return None;
        }
        self.posted -= 1;
        self.records.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn started(cid: u16, seq: u64, opcode: NvmeOpcode, finish: Nanos) -> CompletedIo {
        CompletedIo {
            ticket: Ticket { qid: 0, cid },
            opcode,
            status: 0,
            result: 0,
            finish,
            outcome: Ok(None),
            seq,
            overtakes: false,
        }
    }

    /// The start orders of `q`'s CQ, head first.
    fn cq(q: &QueuePair) -> Vec<u64> {
        q.records.range(..q.posted).map(|f| f.seq).collect()
    }

    #[test]
    fn post_due_orders_by_finish_and_counts_overtakes() {
        let mut q = QueuePair::new(4);
        q.file(started(1, 1, NvmeOpcode::Write, 300));
        q.file(started(2, 2, NvmeOpcode::Read, 100));
        // Only the read is due; it overtakes the in-flight write.
        assert_eq!(q.post_due(150), 1);
        assert_eq!(q.pop().unwrap().ticket.cid, 2);
        assert_eq!(q.next_finish(), Some(300));
        // The write posts later with nothing left to overtake.
        assert_eq!(q.post_due(400), 0);
        assert_eq!(q.pop().unwrap().ticket.cid, 1);
        assert!(q.next_finish().is_none() && q.pop().is_none());
    }

    #[test]
    fn depth_bounds_outstanding() {
        let mut q = QueuePair::new(2);
        assert!(q.has_slot());
        q.sq.push_back((SubmissionEntry::new(NvmeOpcode::Read, 1), Vec::new()));
        q.sq.push_back((SubmissionEntry::new(NvmeOpcode::Read, 2), Vec::new()));
        assert!(!q.has_slot());
    }

    /// The in-flight set as an unordered list, sorted on every post.
    #[derive(Default)]
    struct SortThenPost {
        inflight: Vec<CompletedIo>,
        cq: Vec<u64>,
    }

    impl SortThenPost {
        fn post_due(&mut self, now: Nanos) -> u64 {
            let mut overtakes = 0;
            self.inflight.sort_by_key(|f| (f.finish, f.seq));
            while self.inflight.first().is_some_and(|f| f.finish <= now) {
                let done = self.inflight.remove(0);
                if self.inflight.iter().any(|f| f.seq < done.seq) {
                    overtakes += 1;
                }
                self.cq.push(done.seq);
            }
            overtakes
        }

        fn next_finish(&self) -> Option<Nanos> {
            self.inflight.iter().map(|f| f.finish).min()
        }

        fn flush_in_flight(&self) -> bool {
            self.inflight.iter().any(|f| f.opcode == NvmeOpcode::Flush)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Starts finishing within a few ns of `now` (so finishes tie), some
        /// of them flushes, under cids in no particular order (as after a
        /// wrap), interleaved with posts at a nondecreasing `now`: the
        /// ordered set posts exactly what sorting before every post does.
        #[test]
        fn ordered_in_flight_set_posts_as_sorting_does(
            steps in prop::collection::vec((0u8..10, 0u64..4, any::<u16>()), 1..80),
        ) {
            let mut q = QueuePair::new(64);
            let mut reference = SortThenPost::default();
            let (mut now, mut seq) = (0, 0);
            for (kind, d, cid) in steps {
                if kind < 6 {
                    seq += 1;
                    let opcode = if kind == 0 { NvmeOpcode::Flush } else { NvmeOpcode::Read };
                    q.file(started(cid, seq, opcode, now + d));
                    reference.inflight.push(started(cid, seq, opcode, now + d));
                } else {
                    now += d;
                    prop_assert_eq!(q.post_due(now), reference.post_due(now));
                }
                prop_assert_eq!(cq(&q), reference.cq.clone());
                prop_assert_eq!(q.next_finish(), reference.next_finish());
                prop_assert_eq!(q.flush_in_flight(), reference.flush_in_flight());
            }
        }
    }
}
