//! The oracle under the NVMe queues: one op stream submitted through
//! `HostDriver<DifferentialHarness>` across several queues, completions
//! posting in device finish order.
//!
//! The device behind the controller is a [`DifferentialHarness`], so the
//! model checks every command in the order the controller executes it —
//! reads byte-for-byte, every write and trim mirrored — and the run ends
//! with the harness's own final checks. Sharding is by logical page, so
//! per-page command order — the order that defines host-visible state — is
//! preserved on every queue while cross-page completions reorder freely.
//!
//! What the harness cannot see is checked here. A controller that
//! reordered commands within one queue would still satisfy a model that
//! follows execution order, so the runner records each touched page's last
//! submitted write or trim and holds the model's final state to it. And it
//! audits the per-queue Flush fence from the completion log: every command
//! submitted before a flush on its queue must post before the flush's
//! completion, and every later one after.

use std::collections::{BTreeMap, HashMap};

use almanac_core::{Ftl, SsdConfig, TimeTravel};
use almanac_flash::{Lpa, Nanos};
use almanac_nvme::{CompletedIo, HostDriver, NvmeController, NvmeOpcode, Ticket};

use crate::harness::{DifferentialHarness, Guarantee};
use crate::strategy::{Action, Decoder, OracleOp};

/// Outcome of one multi-queue run under the model.
#[derive(Debug)]
pub struct QueueRunOutcome {
    /// Human-readable divergences; empty means the run passed.
    pub divergences: Vec<String>,
    /// Completions that overtook an earlier-submitted command on their
    /// queue.
    pub ooo_completions: u64,
    /// Commands completed.
    pub completed: u64,
    /// Flush commands submitted (each audited as a fence).
    pub flushes: u64,
    /// Every completion harvested, in the order the polls returned them:
    /// `(ticket, opcode, status, finish)`.
    pub stream: Vec<(Ticket, NvmeOpcode, u16, Nanos)>,
}

impl QueueRunOutcome {
    /// True when no divergence was found.
    pub fn passed(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// What the run has submitted and seen posted.
struct MultiQueueLog {
    /// `(op index, queue slot, is a flush)` of every command in flight.
    tickets: HashMap<Ticket, (usize, usize, bool)>,
    /// Per queue slot, `(op index, is a flush)` in posting order.
    posted: Vec<Vec<(usize, bool)>>,
    divergences: Vec<String>,
    stream: Vec<(Ticket, NvmeOpcode, u16, Nanos)>,
}

impl MultiQueueLog {
    fn harvest(&mut self, done: Vec<CompletedIo>) {
        for io in done {
            self.stream
                .push((io.ticket, io.opcode, io.status, io.finish));
            let Some((op, slot, is_flush)) = self.tickets.remove(&io.ticket) else {
                let unknown = format!("unknown ticket {:?} completed", io.ticket);
                self.divergences.push(unknown);
                continue;
            };
            if !io.is_success() {
                self.divergences.push(format!(
                    "op {op} ({:?}) failed with status {:#06x}",
                    io.opcode, io.status
                ));
            }
            self.posted[slot].push((op, is_flush));
        }
    }

    /// Every flush must post after each command submitted before it on its
    /// queue and before each one submitted after it. Op indices grow in
    /// submission order, so a queue's posting order says it all.
    fn audit_fences(&mut self) {
        for (slot, posted) in self.posted.iter().enumerate() {
            for (at, &(flush, _)) in posted.iter().enumerate().filter(|(_, p)| p.1) {
                let (ahead, behind) = (&posted[..at], &posted[at + 1..]);
                let broken = (behind.iter().filter(|p| p.0 < flush))
                    .map(|p| (p.0, "before", "after"))
                    .chain(
                        ahead
                            .iter()
                            .filter(|p| p.0 > flush)
                            .map(|p| (p.0, "after", "before")),
                    );
                for (op, sub, post) in broken {
                    self.divergences.push(format!(
                        "queue {slot}: op {op} submitted {sub} flush {flush} but posted {post} it"
                    ));
                }
            }
        }
        if !self.tickets.is_empty() {
            let lost = format!("{} commands never completed", self.tickets.len());
            self.divergences.push(lost);
        }
    }

    fn outcome(self, ooo_completions: u64, flushes: u64) -> QueueRunOutcome {
        QueueRunOutcome {
            divergences: self.divergences,
            ooo_completions,
            completed: self.stream.len() as u64,
            flushes,
            stream: self.stream,
        }
    }
}

/// [`lockstep_queue_run_over`] on a TimeSSD.
pub fn lockstep_queue_run(
    cfg: SsdConfig,
    ops: &[OracleOp],
    nqueues: usize,
    depth: usize,
) -> QueueRunOutcome {
    lockstep_queue_run_over::<TimeTravel>(cfg, ops, nqueues, depth)
}

/// Runs `ops` through the NVMe multi-queue controller (`nqueues` queues of
/// `depth`) over one `DifferentialHarness<Ftl<R>>`, then ends the harness's
/// run, holds the model to the submission-order expectation and audits
/// every flush fence.
///
/// Only host-I/O ops participate (`Write`, `WriteBytes`, `Read`, `Trim`,
/// `Flush`); oracle-internal ops (`Check`, `PowerCut`, probes) are skipped.
pub fn lockstep_queue_run_over<R: Guarantee>(
    cfg: SsdConfig,
    ops: &[OracleOp],
    nqueues: usize,
    depth: usize,
) -> QueueRunOutcome {
    let nqueues = nqueues.max(1);
    let page_size = cfg.geometry.page_size as usize;
    let mut decoder = Decoder::new(cfg.exported_pages(), page_size);
    let harness = DifferentialHarness::<Ftl<R>>::over(cfg);
    let mut driver = HostDriver::new(NvmeController::over(harness, page_size));
    let qids: Vec<u16> = (0..nqueues).map(|_| driver.create_queue(depth)).collect();
    let mut mq = MultiQueueLog {
        tickets: HashMap::new(),
        posted: vec![Vec::new(); nqueues],
        divergences: Vec::new(),
        stream: Vec::new(),
    };
    // Each touched page's last submitted write (its bytes) or trim (`None`).
    let mut expected: BTreeMap<Lpa, Option<Vec<u8>>> = BTreeMap::new();
    let mut flushes = 0u64;
    let mut now = 0;
    let host_io = ops.iter().filter(|op| op.is_host_io());
    for (i, op) in host_io.enumerate() {
        let (at, action) = decoder.decode(op);
        now = at.max(now);
        let shard = match &action {
            Action::Write(lpa, _) | Action::Trim(lpa) | Action::Read(lpa) => lpa.0,
            Action::Flush => {
                flushes += 1;
                flushes - 1
            }
            _ => continue, // filtered out above: no command encoding
        };
        let slot = (shard % nqueues as u64) as usize;
        let qid = qids[slot];
        let payload = match &action {
            Action::Write(_, data) => Some(data.materialize(page_size)),
            _ => None,
        };
        let ticket = loop {
            let attempt = match &action {
                Action::Write(lpa, _) => {
                    driver.submit_write(qid, *lpa, payload.clone().into_iter().collect())
                }
                Action::Read(lpa) => driver.submit_read(qid, *lpa, 1),
                Action::Trim(lpa) => driver.submit_trim(qid, *lpa, 1),
                _ => driver.submit_flush(qid),
            };
            if let Ok(ticket) = attempt {
                break ticket;
            }
            // The queue is full: advance to the next completion.
            let Some(done) = driver.wait_for_slot(&mut now) else {
                mq.divergences.push(format!("queue {qid} wedged at op {i}"));
                let ooo_completions = driver.controller().ooo_completions();
                return mq.outcome(ooo_completions, flushes);
            };
            mq.harvest(done);
        };
        if let Action::Write(lpa, _) | Action::Trim(lpa) = action {
            expected.insert(lpa, payload);
        }
        let is_flush = matches!(action, Action::Flush);
        mq.tickets.insert(ticket, (i, slot, is_flush));
        mq.harvest(driver.poll(now));
    }
    mq.harvest(driver.drain(&mut now));
    mq.audit_fences();
    let ooo_completions = driver.controller().ooo_completions();

    // The harness's final checks, then a host read of every page.
    let mut harness = driver.into_ssd();
    harness.run(&[]);
    harness.read_sweep();
    let model = harness.model();
    for (lpa, want) in expected {
        let held = match want {
            Some(bytes) => model.read_bytes(lpa) == bytes,
            None => model.current(lpa).is_none(),
        };
        if !held {
            let what = format!("{lpa:?}: the model's final state is not the last submitted op's");
            mq.divergences.push(what);
        }
    }
    let vs_model = harness.divergences().iter();
    mq.divergences
        .extend(vs_model.map(|d| format!("device vs model: {d:?}")));
    mq.outcome(ooo_completions, flushes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use almanac_flash::Geometry;

    fn cfg() -> SsdConfig {
        SsdConfig::new(Geometry::small_test())
    }

    #[test]
    fn identical_state_on_a_simple_stream() {
        let ops: Vec<OracleOp> = (0..40)
            .map(|i| OracleOp::Write {
                lpa: i % 8,
                gap: 1_000,
            })
            .chain([OracleOp::Flush { gap: 0 }])
            .chain((0..8).map(|lpa| OracleOp::Read { lpa, gap: 1_000 }))
            .collect();
        let out = lockstep_queue_run(cfg(), &ops, 3, 8);
        assert!(out.passed(), "divergences: {:?}", out.divergences);
        assert_eq!(out.completed, 49);
        assert_eq!(out.flushes, 1);
    }

    #[test]
    fn the_fence_audit_flags_commands_on_the_wrong_side_of_a_flush() {
        let mut log = MultiQueueLog {
            tickets: HashMap::new(),
            // Queue 0: op 1 posts after flush 2, op 4 before flush 3.
            // Queue 1: in order around its flush.
            posted: vec![
                vec![(0, false), (2, true), (1, false), (4, false), (3, true)],
                vec![(5, false), (6, true), (7, false)],
            ],
            divergences: Vec::new(),
            stream: Vec::new(),
        };
        log.audit_fences();
        assert_eq!(
            log.divergences,
            [
                "queue 0: op 1 submitted before flush 2 but posted after it",
                "queue 0: op 4 submitted after flush 3 but posted before it",
            ]
        );
    }

    #[test]
    fn depth_one_is_in_order() {
        let ops: Vec<OracleOp> = (0..30)
            .map(|i| OracleOp::Write {
                lpa: i % 5,
                gap: 500,
            })
            .collect();
        let out = lockstep_queue_run(cfg(), &ops, 4, 1);
        assert!(out.passed(), "divergences: {:?}", out.divergences);
        assert_eq!(out.ooo_completions, 0);
    }
}
