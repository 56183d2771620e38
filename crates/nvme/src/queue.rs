//! Submission/completion queue pairs and the in-flight command tracker.
//!
//! A real NVMe controller owns many queue pairs; commands are *fetched*
//! from a submission queue when arbitration selects it, run against the
//! device, and their completion entry is *posted* only once the device-side
//! finish time has passed — so completions surface out of submission order
//! whenever a later command finishes first (a read of an idle chip
//! overtaking a write queued behind a busy one, a short command passing a
//! long vendor query on a sibling queue, ...).

use std::collections::VecDeque;

use almanac_flash::Nanos;

use crate::sqe::{CompletionEntry, NvmeOpcode, SubmissionEntry};

/// One command's completion as the host pops it: the wire CQE plus what its
/// 16 bytes cannot carry. The controller builds the record when it starts
/// the command and withholds it until `finish` passes.
#[derive(Debug, Clone)]
pub struct PostedCompletion {
    /// The completion entry.
    pub cqe: CompletionEntry,
    /// The command's opcode (flush fencing needs it).
    pub opcode: NvmeOpcode,
    /// Device-side completion instant; the CQE posts when `now >= finish`.
    pub finish: Nanos,
    /// Returned pages: `Some` exactly when a read or query succeeded.
    pub data: Option<Vec<Vec<u8>>>,
    /// Global start order, for deterministic tie-breaks and out-of-order
    /// accounting.
    pub(crate) seq: u64,
}

/// One submission/completion queue pair with its own depth and in-flight
/// set.
#[derive(Debug)]
pub(crate) struct QueuePair {
    /// Maximum outstanding commands (queued + in flight).
    pub depth: usize,
    /// Host-submitted entries not yet fetched by arbitration, each with the
    /// pages it writes (empty for every opcode but Write).
    pub sq: VecDeque<(SubmissionEntry, Vec<Vec<u8>>)>,
    /// Started commands whose CQE has not been posted yet.
    pub inflight: Vec<PostedCompletion>,
    /// Posted completions.
    pub cq: VecDeque<PostedCompletion>,
}

impl QueuePair {
    pub(crate) fn new(depth: usize) -> Self {
        QueuePair {
            // Clamp to the 16-bit cid space so a free command id always
            // exists for every slot.
            depth: depth.clamp(1, u16::MAX as usize),
            sq: VecDeque::new(),
            inflight: Vec::new(),
            cq: VecDeque::new(),
        }
    }

    /// Commands outstanding from the host's point of view: submitted and
    /// not yet posted to the CQ.
    pub(crate) fn outstanding(&self) -> usize {
        self.sq.len() + self.inflight.len()
    }

    /// True when the host may ring one more submission into this queue.
    pub(crate) fn has_slot(&self) -> bool {
        self.outstanding() < self.depth
    }

    /// True while a started flush is fencing this queue: commands behind it
    /// must not start until its CQE posts.
    pub(crate) fn flush_in_flight(&self) -> bool {
        self.inflight.iter().any(|f| f.opcode == NvmeOpcode::Flush)
    }

    /// Posts every in-flight command whose finish time has passed, in
    /// finish order (submission-order ties broken by start order). Returns
    /// the number of completions that overtook an earlier-submitted command
    /// still in flight — the out-of-order count.
    pub(crate) fn post_due(&mut self, now: Nanos) -> u64 {
        let mut overtakes = 0;
        self.inflight.sort_by_key(|f| (f.finish, f.seq));
        while self.inflight.first().is_some_and(|f| f.finish <= now) {
            let done = self.inflight.remove(0);
            if self.inflight.iter().any(|f| f.seq < done.seq) {
                overtakes += 1;
            }
            self.cq.push_back(done);
        }
        overtakes
    }

    /// Earliest pending completion instant on this queue, if any.
    pub(crate) fn next_finish(&self) -> Option<Nanos> {
        self.inflight.iter().map(|f| f.finish).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started(cid: u16, opcode: NvmeOpcode, finish: Nanos) -> PostedCompletion {
        PostedCompletion {
            cqe: CompletionEntry {
                cid,
                status: 0,
                result: 0,
            },
            opcode,
            finish,
            data: None,
            seq: u64::from(cid),
        }
    }

    #[test]
    fn post_due_orders_by_finish_and_counts_overtakes() {
        let mut q = QueuePair::new(4);
        q.inflight.push(started(1, NvmeOpcode::Write, 300));
        q.inflight.push(started(2, NvmeOpcode::Read, 100));
        // Only the read is due; it overtakes the in-flight write.
        assert_eq!(q.post_due(150), 1);
        assert_eq!(q.cq.pop_front().unwrap().cqe.cid, 2);
        assert_eq!(q.next_finish(), Some(300));
        // The write posts later with nothing left to overtake.
        assert_eq!(q.post_due(400), 0);
        assert_eq!(q.cq.pop_front().unwrap().cqe.cid, 1);
        assert!(q.next_finish().is_none());
    }

    #[test]
    fn depth_bounds_outstanding() {
        let mut q = QueuePair::new(2);
        assert!(q.has_slot());
        q.sq.push_back((SubmissionEntry::new(NvmeOpcode::Read, 1), Vec::new()));
        q.sq.push_back((SubmissionEntry::new(NvmeOpcode::Read, 2), Vec::new()));
        assert!(!q.has_slot());
    }
}
