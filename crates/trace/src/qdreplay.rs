//! Queue-depth trace replay: drives a TimeSSD through the NVMe multi-slot
//! driver keeping up to `qd` commands outstanding, measuring response from
//! posted completion times rather than synchronous returns.
//!
//! Where [`replay`](crate::replay) issues one device op at a time (the
//! device is never more than one command deep), `replay_qd` models a host
//! with a real submission queue: records are submitted as whole NVMe
//! commands as soon as a slot frees, the controller starts them under
//! round-robin arbitration, and completions surface out of order as their
//! device-side finish times pass.

use almanac_core::{SsdDevice, TimeSsd};
use almanac_flash::{LpaSpan, Nanos};
use almanac_nvme::{CompletedIo, DriverError, HostDriver, NvmeController, NvmeStatus};

use crate::record::TraceOp;
use crate::trace::Trace;

/// Metrics of one queue-depth replay run.
#[derive(Debug, Clone, PartialEq)]
pub struct QdReplayReport {
    /// Trace name.
    pub trace: String,
    /// Queue depth the host kept outstanding.
    pub qd: usize,
    /// Commands completed successfully.
    pub ops: u64,
    /// Commands completed with an error status.
    pub errors: u64,
    /// Completions that overtook an earlier-submitted command on the queue.
    pub ooo_completions: u64,
    /// Highest number of commands simultaneously outstanding.
    pub peak_outstanding: usize,
    /// Virtual time of the last posted completion.
    pub makespan_ns: Nanos,
    /// Mean response time (submission to posted completion), ns.
    pub avg_response_ns: f64,
    /// 99th-percentile response time, ns.
    pub p99_response_ns: Nanos,
    /// Worst response time, ns.
    pub max_response_ns: Nanos,
    /// True when the device stalled (retention guarantee vs. free space);
    /// submission stops at the stall, in-flight commands still drain.
    pub stalled: bool,
    /// Records submitted before a stall (equals the trace length otherwise).
    pub submitted: usize,
}

/// Replays `trace` against `ssd` through an NVMe queue of depth `qd`.
///
/// Each record becomes one NVMe command (multi-page requests stay whole;
/// lengths are clamped to the exported address space). A record is
/// submitted at `max(its arrival time, the time a queue slot freed)`, and
/// its response time runs from that submission to its posted completion.
///
/// # Examples
///
/// ```
/// use almanac_core::{SsdConfig, TimeSsd};
/// use almanac_flash::Geometry;
/// use almanac_trace::{replay_qd, Trace, TraceOp, TraceRecord};
///
/// let trace = Trace::new(
///     "tiny",
///     (0..32)
///         .map(|i| TraceRecord::new(i * 1_000, TraceOp::Write, i, 1))
///         .collect(),
/// );
/// let ssd = TimeSsd::new(SsdConfig::new(Geometry::small_test()));
/// let report = replay_qd(&trace, ssd, 8).unwrap();
/// assert_eq!(report.ops, 32);
/// assert!(report.peak_outstanding > 1);
/// ```
pub fn replay_qd(trace: &Trace, ssd: TimeSsd, qd: usize) -> Result<QdReplayReport, DriverError> {
    replay_qd_through(trace, NvmeController::new(ssd), qd)
}

/// [`replay_qd`] through a controller over any device: the same commands,
/// pacing and report.
pub fn replay_qd_through<D: SsdDevice>(
    trace: &Trace,
    controller: NvmeController<D>,
    qd: usize,
) -> Result<QdReplayReport, DriverError> {
    let exported = controller.ssd().exported_pages();
    let mut driver = HostDriver::new(controller);
    let qid = driver.create_queue(qd.max(1));

    // Submit instants by cid: one queue, so a cid names one command in
    // flight.
    let mut submitted_at: Vec<Nanos> = vec![0; usize::from(u16::MAX) + 1];
    let mut responses: Vec<Nanos> = Vec::with_capacity(trace.records.len());
    let mut errors = 0u64;
    let mut makespan = 0;
    let mut peak = 0usize;
    let mut stalled = false;
    let mut submitted = 0usize;
    let mut now: Nanos = 0;
    // One completion buffer, reused by every poll.
    let mut done: Vec<CompletedIo> = Vec::with_capacity(qd.max(1));

    let mut harvest = |done: &mut Vec<CompletedIo>, submitted_at: &[Nanos], stalled: &mut bool| {
        for io in done.iter() {
            let at = submitted_at[usize::from(io.ticket.cid)];
            responses.push(io.finish.saturating_sub(at));
            makespan = makespan.max(io.finish);
            if !io.is_success() {
                errors += 1;
                *stalled |= io.status == NvmeStatus::RetentionStall as u16;
            }
        }
        done.clear();
    };

    'records: for record in &trace.records {
        if stalled {
            break;
        }
        now = now.max(record.at);
        // Reduce the address into the exported space and clamp the span so
        // the whole command stays in range (NVMe commands are contiguous,
        // unlike the per-page wrap of the synchronous replayer).
        let span = LpaSpan::reduced(record.lpa, u64::from(record.pages), exported);
        let (lpa, count) = (span.start(), span.len() as u32);
        // A full queue waits for its next completion, then retries; the
        // command is built once a slot is free.
        while !driver.has_slot(qid) {
            // Queue full with nothing in flight cannot happen at depth ≥ 1;
            // bail rather than spin.
            if !driver.wait_for_slot(&mut now, &mut done) {
                break 'records;
            }
            harvest(&mut done, &submitted_at, &mut stalled);
            if stalled {
                break 'records;
            }
        }
        let ticket = match record.op {
            TraceOp::Write => {
                let pages = span.iter().map(|p| p.0.to_le_bytes().to_vec());
                driver.submit_write(qid, lpa, pages.collect())
            }
            TraceOp::Read => driver.submit_read(qid, lpa, count),
            TraceOp::Trim => driver.submit_trim(qid, lpa, count),
            TraceOp::Flush => driver.submit_flush(qid),
        }?;
        submitted_at[usize::from(ticket.cid)] = now;
        submitted += 1;
        peak = peak.max(driver.in_flight());
        // Let the controller start what arbitration allows at the
        // submission instant and harvest anything due.
        driver.poll_into(now, &mut done);
        harvest(&mut done, &submitted_at, &mut stalled);
    }
    harvest(&mut driver.drain(&mut now), &submitted_at, &mut stalled);

    let completed = responses.len() as u64;
    let avg = if responses.is_empty() {
        0.0
    } else {
        responses.iter().map(|r| *r as f64).sum::<f64>() / responses.len() as f64
    };
    // The p99 is the response a full sort would put at that rank; selecting
    // it costs one partition instead.
    let p99 = match responses.len() {
        0 => 0,
        n => {
            *responses
                .select_nth_unstable(((n - 1) as f64 * 0.99).round() as usize)
                .1
        }
    };

    Ok(QdReplayReport {
        trace: trace.name.clone(),
        qd: qd.max(1),
        ops: completed - errors,
        errors,
        ooo_completions: driver.controller().ooo_completions(),
        peak_outstanding: peak,
        makespan_ns: makespan,
        avg_response_ns: avg,
        p99_response_ns: p99,
        max_response_ns: responses.iter().copied().max().unwrap_or(0),
        stalled,
        submitted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecord;
    use almanac_core::SsdConfig;
    use almanac_flash::Geometry;

    fn dense_writes(n: u64, lpa_space: u64) -> Trace {
        Trace::new(
            "dense",
            (0..n)
                .map(|i| TraceRecord::new(i * 1_000, TraceOp::Write, i % lpa_space, 1))
                .collect(),
        )
    }

    fn ssd() -> TimeSsd {
        TimeSsd::new(SsdConfig::new(Geometry::small_test()))
    }

    #[test]
    fn deeper_queue_lowers_makespan() {
        let t = dense_writes(300, 48);
        let r1 = replay_qd(&t, ssd(), 1).unwrap();
        let r16 = replay_qd(&t, ssd(), 16).unwrap();
        assert_eq!(r1.ops, 300);
        assert_eq!(r16.ops, 300);
        assert!(
            r16.makespan_ns < r1.makespan_ns,
            "QD16 makespan {} !< QD1 makespan {}",
            r16.makespan_ns,
            r1.makespan_ns
        );
        assert!(r16.peak_outstanding > r1.peak_outstanding);
    }

    #[test]
    fn qd1_is_strictly_in_order() {
        let t = dense_writes(100, 16);
        let r = replay_qd(&t, ssd(), 1).unwrap();
        assert_eq!(r.ooo_completions, 0);
        assert_eq!(r.peak_outstanding, 1);
        assert!(!r.stalled);
    }

    #[test]
    fn mixed_load_completes_out_of_order() {
        // Writes interleaved with cheap reads of never-written pages: at
        // depth > 1 the reads overtake the programs queued around them.
        let records: Vec<TraceRecord> = (0..200)
            .map(|i| {
                if i % 2 == 0 {
                    TraceRecord::new(i * 500, TraceOp::Write, i % 32, 1)
                } else {
                    TraceRecord::new(i * 500, TraceOp::Read, 64 + i % 32, 1)
                }
            })
            .collect();
        let t = Trace::new("mixed", records);
        let r = replay_qd(&t, ssd(), 16).unwrap();
        assert_eq!(r.ops, 200);
        assert!(r.ooo_completions > 0, "no out-of-order completions at QD16");
    }

    #[test]
    fn flush_records_fence_without_wedging() {
        let mut records: Vec<TraceRecord> = (0..60)
            .map(|i| TraceRecord::new(i * 1_000, TraceOp::Write, i % 16, 1))
            .collect();
        records.insert(30, TraceRecord::new(30_000, TraceOp::Flush, 0, 1));
        let t = Trace::new("fenced", records);
        let r = replay_qd(&t, ssd(), 8).unwrap();
        assert_eq!(r.ops, 61);
        assert_eq!(r.errors, 0);
    }

    #[test]
    fn huge_lpa_and_span_clamp_into_range() {
        let t = Trace::new(
            "edge",
            vec![TraceRecord::new(0, TraceOp::Write, u64::MAX - 2, 8)],
        );
        let r = replay_qd(&t, ssd(), 4).unwrap();
        assert_eq!(r.ops, 1);
        assert_eq!(r.errors, 0);
    }
}
