//! In-order vs out-of-order lockstep: the same host op stream applied
//! serially (one command at a time, completion order = submission order)
//! and through the NVMe multi-queue controller (commands sharded across
//! queues, completions posting in device finish order).
//!
//! The serial reference is a [`DifferentialHarness`] run, so it is held to
//! the model like any other; the multi-queue side draws the same arrival
//! times, pages and payloads from its own `Decoder`. What only this
//! runner compares is the two *schedules*. Sharding is by logical page, so
//! per-page command order — the order that defines host-visible state — is
//! preserved on every queue while cross-page completions reorder freely.
//! Any legal completion schedule must therefore leave the two devices with
//! identical host-visible state: the same head bytes, the same mapped set,
//! the same tombstones. The run also audits the per-queue Flush fence from
//! the completion log: every command submitted before a flush on its queue
//! must post before the flush's completion, and every later one after.

use std::collections::HashMap;

use almanac_core::{SsdConfig, SsdDevice, TimeSsd};
use almanac_flash::{Lpa, MS_NS};
use almanac_nvme::{CompletedIo, DriverError, HostDriver, NvmeController, Ticket};

use crate::harness::DifferentialHarness;
use crate::strategy::{Action, Decoder, OracleOp};

/// Outcome of one in-order vs out-of-order lockstep run.
#[derive(Debug)]
pub struct QueueRunOutcome {
    /// Human-readable divergences; empty means the run passed.
    pub divergences: Vec<String>,
    /// Completions that overtook an earlier-submitted command on their
    /// queue during the multi-queue run.
    pub ooo_completions: u64,
    /// Commands completed on the multi-queue side.
    pub completed: u64,
    /// Flush commands submitted (each audited as a fence).
    pub flushes: u64,
}

impl QueueRunOutcome {
    /// True when no divergence was found.
    pub fn passed(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Per-queue submission/completion log for the fence audit.
#[derive(Default)]
struct QueueLog {
    /// `(global op index, was this a flush)` in submission order.
    submitted: Vec<(usize, bool)>,
    /// Global op indices in completion-posting order.
    completed: Vec<usize>,
}

/// What the multi-queue side has submitted and seen posted.
struct MultiQueueLog {
    /// `(global op index, queue slot)` of every command in flight.
    tickets: HashMap<Ticket, (usize, usize)>,
    logs: Vec<QueueLog>,
    completed: u64,
    divergences: Vec<String>,
}

impl MultiQueueLog {
    fn harvest(&mut self, done: Vec<CompletedIo>) {
        for io in done {
            self.completed += 1;
            let Some((op_idx, slot)) = self.tickets.remove(&io.ticket) else {
                let unknown = format!("unknown ticket {:?} completed", io.ticket);
                self.divergences.push(unknown);
                continue;
            };
            if !io.is_success() {
                self.divergences.push(format!(
                    "mq op {op_idx} ({:?}) failed with status {:#06x}",
                    io.opcode, io.status
                ));
            }
            self.logs[slot].completed.push(op_idx);
        }
    }
}

/// Runs `ops` against a serial reference device and against the NVMe
/// multi-queue controller (`nqueues` queues of `depth`), then compares
/// host-visible state and audits every flush fence.
///
/// Only host-I/O ops participate (`Write`, `WriteBytes`, `Read`, `Trim`,
/// `Flush`); oracle-internal ops (`Check`, `PowerCut`, probes) are skipped.
pub fn lockstep_queue_run(
    cfg: SsdConfig,
    ops: &[OracleOp],
    nqueues: usize,
    depth: usize,
) -> QueueRunOutcome {
    let nqueues = nqueues.max(1);
    let ops: Vec<OracleOp> = ops.iter().filter(|op| op.is_host_io()).cloned().collect();

    // --- Serial reference: submission order IS completion order. ---
    let mut serial = DifferentialHarness::new(cfg.clone());
    let report = serial.run(&ops);
    let mut divergences = Vec::new();
    if report.stalled {
        divergences.push(format!("serial reference stalled: {report}"));
    }

    // --- Multi-queue run: sharded by page, completions out of order. ---
    let page_size = cfg.geometry.page_size as usize;
    let mut decoder = Decoder::new(cfg.exported_pages(), page_size);
    let mut driver = HostDriver::new(NvmeController::new(TimeSsd::new(cfg)));
    let qids: Vec<u16> = (0..nqueues).map(|_| driver.create_queue(depth)).collect();
    let mut mq = MultiQueueLog {
        tickets: HashMap::new(),
        logs: (0..nqueues).map(|_| QueueLog::default()).collect(),
        completed: 0,
        divergences,
    };
    let mut touched: Vec<Lpa> = Vec::new();
    let mut flushes = 0u64;
    let mut now = 0;
    for (i, op) in ops.iter().enumerate() {
        let (at, action) = decoder.decode(op);
        now = at.max(now);
        let slot = match &action {
            Action::Write(lpa, _) | Action::Trim(lpa) => {
                touched.push(*lpa);
                lpa.0 % nqueues as u64
            }
            Action::Read(lpa) => lpa.0 % nqueues as u64,
            Action::Flush => {
                flushes += 1;
                (flushes - 1) % nqueues as u64
            }
            _ => continue, // filtered out above: no command encoding
        } as usize;
        let qid = qids[slot];
        loop {
            let attempt = match &action {
                Action::Write(lpa, data) => {
                    driver.submit_write(qid, *lpa, vec![data.materialize(page_size)])
                }
                Action::Read(lpa) => driver.submit_read(qid, *lpa, 1),
                Action::Trim(lpa) => driver.submit_trim(qid, *lpa, 1),
                _ => driver.submit_flush(qid),
            };
            match attempt {
                Ok(ticket) => {
                    mq.tickets.insert(ticket, (i, slot));
                    let is_flush = matches!(action, Action::Flush);
                    mq.logs[slot].submitted.push((i, is_flush));
                    mq.harvest(driver.poll(now));
                    break;
                }
                Err(DriverError::QueueFull(_)) => match driver.wait_for_slot(&mut now) {
                    Some(done) => mq.harvest(done),
                    None => {
                        mq.divergences.push(format!("queue {qid} wedged at op {i}"));
                        return QueueRunOutcome {
                            divergences: mq.divergences,
                            ooo_completions: driver.controller().ooo_completions(),
                            completed: mq.completed,
                            flushes,
                        };
                    }
                },
                Err(e) => {
                    mq.divergences.push(format!("mq submit {i} failed: {e:?}"));
                    break;
                }
            }
        }
    }
    mq.harvest(driver.drain(&mut now));
    let mut divergences = std::mem::take(&mut mq.divergences);

    // --- Flush-fence audit from the per-queue logs. ---
    for (slot, log) in mq.logs.iter().enumerate() {
        let post_order: HashMap<usize, usize> = log
            .completed
            .iter()
            .enumerate()
            .map(|(pos, idx)| (*idx, pos))
            .collect();
        for (sub_pos, (flush_idx, is_flush)) in log.submitted.iter().enumerate() {
            if !is_flush {
                continue;
            }
            let Some(flush_post) = post_order.get(flush_idx) else {
                divergences.push(format!("flush op {flush_idx} never completed"));
                continue;
            };
            for (other_pos, (other_idx, _)) in log.submitted.iter().enumerate() {
                let Some(other_post) = post_order.get(other_idx) else {
                    continue;
                };
                if other_pos < sub_pos && other_post > flush_post {
                    divergences.push(format!(
                        "queue {slot}: op {other_idx} submitted before flush \
                         {flush_idx} but posted after it"
                    ));
                }
                if other_pos > sub_pos && other_post < flush_post {
                    divergences.push(format!(
                        "queue {slot}: op {other_idx} submitted after flush \
                         {flush_idx} but posted before it"
                    ));
                }
            }
        }
    }

    // --- Host-visible state must be identical. ---
    touched.sort_unstable();
    touched.dedup();
    let t_end = now + MS_NS;
    for lpa in touched {
        let s_mapped = serial.ssd().is_mapped(lpa);
        let m_mapped = driver.controller().ssd().is_mapped(lpa);
        if s_mapped != m_mapped {
            divergences.push(format!(
                "{lpa:?}: serial mapped={s_mapped}, mq mapped={m_mapped}"
            ));
            continue;
        }
        let s_trimmed = serial.ssd().trimmed_at(lpa).is_some();
        let m_trimmed = driver.controller().ssd().trimmed_at(lpa).is_some();
        if s_trimmed != m_trimmed {
            divergences.push(format!(
                "{lpa:?}: serial trimmed={s_trimmed}, mq trimmed={m_trimmed}"
            ));
        }
        if !s_mapped {
            continue;
        }
        let s_bytes = serial
            .read(lpa, t_end)
            .map(|(d, _)| d.materialize(page_size));
        match (s_bytes, driver.read(lpa, t_end + MS_NS)) {
            (Ok(s), Ok(m)) => {
                if s != m {
                    divergences.push(format!("{lpa:?}: head bytes differ"));
                }
            }
            (s, m) => divergences.push(format!(
                "{lpa:?}: read outcomes differ (serial ok={}, mq ok={})",
                s.is_ok(),
                m.is_ok()
            )),
        }
    }
    // The reference against the model, the final reads above included.
    let vs_model = serial.divergences().iter();
    divergences.extend(vs_model.map(|d| format!("serial reference vs model: {d:?}")));

    QueueRunOutcome {
        divergences,
        ooo_completions: driver.controller().ooo_completions(),
        completed: mq.completed,
        flushes,
    }
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
