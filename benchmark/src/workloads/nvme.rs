//! `nvme_qd16`: a 50/50 single-page write/read mix over 16 384 LPAs pushed
//! through `HostDriver` at 16 outstanding commands, closed loop, one queue —
//! `qdscale`'s shape on the 8-channel geometry. Each segment runs on a fresh
//! TimeSSD and issues about half its commands as writes, staying under the
//! three-day-guarantee stall, so GC stays marginal and SQE encode/decode, cid
//! allocation, arbitration and completion posting do the work.

use std::collections::HashMap;
use std::time::Instant;

use almanac_core::{SsdDevice, SsdReadOps, TimeSsd};
use almanac_flash::{Lpa, Nanos, PageData};
use almanac_nvme::{
    CompletedIo, DriverError, HostDriver, NvmeController, NvmeOpcode, NvmeStatus, Ticket,
};
use almanac_trace::{replay_qd, QdReplayReport, Trace, TraceOp, TraceRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::device::{bench_config, flash_digest, fold_digests};
use crate::recorder::OpLog;
use crate::run::{Counts, Ctx, Gate, Pass, Recorded, Scale, Workload};
use crate::spans::Histogram;
use crate::{kernels, layers, stats};

const QUEUE_DEPTH: usize = 16;
const SEGMENTS: u64 = 6;
const COMMANDS: u64 = 200_000;
const LPA_SPACE: u64 = 16_384;

pub struct NvmeQd16 {
    fresh: TimeSsd,
    segments: Vec<Trace>,
    generate_s: f64,
}

/// What the benchmark-owned queue loop observed beyond `QdReplayReport`.
#[derive(Default)]
struct LoopTrace {
    /// Stamp the host clock around every submit and poll (the traced run).
    stamp: bool,
    submit_ns: Vec<u64>,
    poll_ns: Vec<u64>,
    /// Submissions refused because all 16 slots were taken.
    queue_full_waits: u64,
}

impl LoopTrace {
    /// `driver.poll(now)`, stamped when tracing.
    fn poll(&mut self, driver: &mut HostDriver, now: Nanos) -> Vec<CompletedIo> {
        let t0 = self.stamp.then(Instant::now);
        let done = driver.poll(now);
        if let Some(t0) = t0 {
            self.poll_ns.push(t0.elapsed().as_nanos() as u64);
        }
        done
    }
}

/// One segment through the benchmark's own QD loop.
struct Driven {
    report: QdReplayReport,
    ssd: TimeSsd,
    wall_s: f64,
}

fn segment(seed: u64, commands: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let records = (0..commands)
        .map(|i| {
            let lpa = rng.gen_range(0..LPA_SPACE);
            let op = if rng.gen_bool(0.5) {
                TraceOp::Write
            } else {
                TraceOp::Read
            };
            // Arrivals far closer together than the service time: pacing is
            // completion-bound, as in `qdscale`.
            TraceRecord::new(i * 1_000, op, lpa, 1)
        })
        .collect();
    Trace::new("nvme_qd16", records)
}

/// `replay_qd`, restated over `HostDriver::submit_*`/`poll` so that every
/// command's submit time and posted finish are kept (the library function
/// consumes its device and returns percentiles of all commands together).
/// It must stay op-for-op identical to `almanac_trace::replay_qd`: the run
/// fails unless every `QdReplayReport` field matches the library's.
fn drive(
    trace: &Trace,
    ssd: TimeSsd,
    log: &mut OpLog,
    lt: &mut LoopTrace,
) -> Result<Driven, DriverError> {
    let t0 = Instant::now();
    let exported = ssd.exported_pages();
    let mut driver = HostDriver::new(NvmeController::new(ssd));
    let qid = driver.create_queue(QUEUE_DEPTH);

    let mut pending: HashMap<Ticket, Nanos> = HashMap::new();
    let mut responses: Vec<Nanos> = Vec::with_capacity(trace.records.len());
    let (mut errors, mut makespan, mut peak, mut submitted) = (0u64, 0, 0usize, 0usize);
    let mut stalled = false;
    let mut now: Nanos = 0;

    let mut handle = |io: CompletedIo, pending: &mut HashMap<Ticket, Nanos>, stalled: &mut bool| {
        let at = pending.remove(&io.ticket).unwrap_or(io.finish);
        let response = io.finish.saturating_sub(at);
        responses.push(response);
        makespan = makespan.max(io.finish);
        if io.is_success() {
            match io.opcode {
                NvmeOpcode::Write => log.write_resp.push(response),
                NvmeOpcode::Read => log.read_resp.push(response),
                _ => {}
            }
        } else {
            errors += 1;
            *stalled |= io.status == NvmeStatus::RetentionStall as u16;
        }
    };

    'records: for record in &trace.records {
        if stalled {
            break;
        }
        now = now.max(record.at);
        let lpa = Lpa(record.lpa % exported);
        let span = u64::from(record.pages.max(1)).min(exported - lpa.0) as u32;
        loop {
            let t0 = lt.stamp.then(Instant::now);
            let attempt = match record.op {
                TraceOp::Write => {
                    let pages = (0..span)
                        .map(|i| (lpa.0 + u64::from(i)).to_le_bytes().to_vec())
                        .collect();
                    driver.submit_write(qid, lpa, pages)
                }
                TraceOp::Read => driver.submit_read(qid, lpa, span),
                TraceOp::Trim => driver.submit_trim(qid, lpa, span),
                TraceOp::Flush => driver.submit_flush(qid),
            };
            if let Some(t0) = t0 {
                lt.submit_ns.push(t0.elapsed().as_nanos() as u64);
            }
            match attempt {
                Ok(ticket) => {
                    pending.insert(ticket, now);
                    submitted += 1;
                    peak = peak.max(driver.in_flight());
                    for io in lt.poll(&mut driver, now) {
                        handle(io, &mut pending, &mut stalled);
                    }
                    break;
                }
                Err(DriverError::QueueFull(_)) => {
                    lt.queue_full_waits += 1;
                    let Some(at) = driver.next_completion_at() else {
                        break 'records;
                    };
                    now = now.max(at);
                    for io in lt.poll(&mut driver, now) {
                        handle(io, &mut pending, &mut stalled);
                    }
                    if stalled {
                        break 'records;
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
    while driver.in_flight() > 0 {
        match driver.next_completion_at() {
            Some(at) => now = now.max(at),
            None => now += 1,
        }
        for io in lt.poll(&mut driver, now) {
            handle(io, &mut pending, &mut stalled);
        }
    }

    let completed = responses.len() as u64;
    let avg_response_ns = if responses.is_empty() {
        0.0
    } else {
        responses.iter().map(|r| *r as f64).sum::<f64>() / responses.len() as f64
    };
    responses.sort_unstable();
    let p99_response_ns = match responses.len() {
        0 => 0,
        n => responses[((n - 1) as f64 * 0.99).round() as usize],
    };
    let report = QdReplayReport {
        trace: trace.name.clone(),
        qd: QUEUE_DEPTH,
        ops: completed - errors,
        errors,
        ooo_completions: driver.controller().ooo_completions(),
        peak_outstanding: peak,
        makespan_ns: makespan,
        avg_response_ns,
        p99_response_ns,
        max_response_ns: responses.last().copied().unwrap_or(0),
        stalled,
        submitted,
    };
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(Driven {
        report,
        ssd: driver.controller().ssd().clone(),
        wall_s,
    })
}

impl NvmeQd16 {
    fn pass(&self, reports: &[QdReplayReport], wall_s: f64) -> Pass {
        let attempted = self.segments.iter().map(|t| t.records.len() as u64).sum();
        let done: u64 = reports.iter().map(|r| r.ops).sum();
        Pass {
            wall_s,
            attempted,
            failed: attempted - done.min(attempted),
            makespan_ns: reports.iter().map(|r| r.makespan_ns).sum(),
            finger: reports.iter().map(|r| format!("{r:?}")).collect(),
        }
    }

    /// The same op stream issued straight at a TimeSSD, one op at a time:
    /// what the run costs without the NVMe front end.
    fn direct_wall_s(&self) -> f64 {
        let mut total = 0.0;
        for trace in &self.segments {
            let mut ssd = self.fresh.clone();
            let t0 = Instant::now();
            for r in &trace.records {
                let lpa = Lpa(r.lpa);
                let done = match r.op {
                    TraceOp::Write => ssd
                        .write(lpa, PageData::bytes(r.lpa.to_le_bytes().to_vec()), r.at)
                        .map(|c| c.finish),
                    _ => ssd.read(lpa, r.at).map(|(_, c)| c.finish),
                };
                std::hint::black_box(done).expect("direct op");
            }
            total += t0.elapsed().as_secs_f64();
        }
        total
    }
}

impl Workload for NvmeQd16 {
    fn setup(seed: u64, scale: Scale) -> Self {
        let fresh = TimeSsd::new(bench_config());
        let t0 = Instant::now();
        let segments = (0..SEGMENTS)
            .map(|i| segment(seed.wrapping_add(i), scale.div(COMMANDS)))
            .collect();
        NvmeQd16 {
            fresh,
            segments,
            generate_s: t0.elapsed().as_secs_f64(),
        }
    }

    fn timed_rep(&self) -> Pass {
        let mut wall_s = 0.0;
        let mut reports = Vec::new();
        for trace in &self.segments {
            let ssd = self.fresh.clone();
            let t0 = Instant::now();
            let report = replay_qd(trace, ssd, QUEUE_DEPTH).expect("replay_qd");
            wall_s += t0.elapsed().as_secs_f64();
            reports.push(report);
        }
        self.pass(&reports, wall_s)
    }

    fn recorded(&self, ctx: &mut Ctx<'_>) -> Recorded {
        let mut log = OpLog::default();
        let mut lt = LoopTrace {
            stamp: ctx.traced,
            ..LoopTrace::default()
        };
        let mut counts = Counts::default();
        let (mut reports, mut digests) = (Vec::new(), Vec::new());
        let (mut wall_s, mut clone_s, mut check_s) = (0.0, 0.0, 0.0);
        let mut dirty = 0;
        let mut last = None;
        for (i, trace) in self.segments.iter().enumerate() {
            let id = ctx.spans.enter(format!("segment {i}"));
            let (ssd, secs) = ctx.spans.time("core.clone", || self.fresh.clone());
            clone_s += secs;
            let span = ctx.spans.enter("nvme.drive");
            let driven = drive(trace, ssd, &mut log, &mut lt).expect("drive");
            ctx.spans.exit(span);
            wall_s += driven.wall_s;
            counts.add(
                &driven.ssd.stats().since(self.fresh.stats()),
                &driven.ssd.flash().stats().since(self.fresh.flash().stats()),
            );
            digests.push(flash_digest(driven.ssd.flash()));
            let (check, secs) = ctx
                .spans
                .time("core.check", || driven.ssd.check_consistency());
            check_s += secs;
            dirty += check.violations.len();
            last = Some((driven.ssd, driven.report.makespan_ns));
            reports.push(driven.report);
            ctx.spans.exit(id);
        }
        let pass = self.pass(&reports, wall_s);
        let gates = vec![Gate::new(
            "check_consistency is clean",
            dirty == 0,
            format!("{dirty} violations over {} devices", self.segments.len()),
        )];

        if ctx.traced {
            let (direct_s, _) = ctx.spans.time("nvme.direct", || self.direct_wall_s());
            let l = &mut ctx.layers;
            let cmds: u64 = reports.iter().map(|r| r.ops).sum();
            l.set("core.clone.host_s", clone_s);
            l.set("core.check.host_s", check_s);
            l.set("workloads.generate.host_s", self.generate_s);
            l.set("workloads.generate.records", pass.attempted as f64);
            l.set("nvme.cmds", cmds as f64);
            l.set("nvme.host_ns_per_cmd", wall_s * 1e9 / cmds.max(1) as f64);
            l.set(
                "nvme.submit.host_ns_p50",
                stats::percentile_of(&mut lt.submit_ns, 0.50) as f64,
            );
            l.set("nvme.poll.calls", lt.poll_ns.len() as f64);
            l.set(
                "nvme.poll.host_ns_p50",
                stats::percentile_of(&mut lt.poll_ns, 0.50) as f64,
            );
            l.set("nvme.queue_full_waits", lt.queue_full_waits as f64);
            for (class, ns) in [("nvme.submit", &lt.submit_ns), ("nvme.poll", &lt.poll_ns)] {
                let histogram = Histogram::from_samples(ns.iter().copied());
                ctx.histograms.push((class.to_string(), histogram));
            }
            l.set(
                "nvme.ooo_completions",
                reports.iter().map(|r| r.ooo_completions).sum::<u64>() as f64,
            );
            l.set(
                "nvme.peak_outstanding",
                reports
                    .iter()
                    .map(|r| r.peak_outstanding)
                    .max()
                    .unwrap_or(0) as f64,
            );
            l.set("nvme.overhead_share", 1.0 - direct_s / wall_s);
            let (ssd, end) = last.as_ref().expect("at least one segment");
            let sample = layers::sample_lpas(LPA_SPACE, 4096);
            layers::timessd(l, ctx.spans, ssd, *end, &sample);
            kernels::sqe(l, ctx.spans);
            // The pages this workload writes are their own LPA, eight bytes
            // long: every retained version equals its reference.
            let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..64u64)
                .map(|lpa| {
                    let page = PageData::bytes(lpa.to_le_bytes().to_vec()).materialize(4096);
                    (page.clone(), page)
                })
                .collect();
            kernels::compress(l, ctx.spans, &pairs);
            let d = &counts.device;
            l.set(
                "compress.pages",
                (d.gc_compressions + d.bg_compressions) as f64,
            );
        }

        Recorded {
            pass,
            log,
            counts,
            digest: fold_digests(digests),
            gates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almanac_core::SsdConfig;
    use almanac_flash::Geometry;

    #[test]
    fn segments_are_seed_deterministic() {
        assert_eq!(segment(7, 500), segment(7, 500));
        assert_ne!(segment(7, 500).records, segment(8, 500).records);
        let t = segment(7, 4_000);
        let writes = t.records.iter().filter(|r| r.op == TraceOp::Write).count();
        assert!((1_800..2_200).contains(&writes), "{writes} writes of 4000");
        assert!(t.records.iter().all(|r| r.lpa < LPA_SPACE && r.pages == 1));
    }

    #[test]
    fn drive_reports_what_replay_qd_reports() {
        let fresh = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
        // Includes trims and a flush fence, which the benchmark's mix lacks.
        let mut records = segment(3, 3_000).records;
        for (i, r) in records.iter_mut().enumerate() {
            r.lpa %= 512;
            match i % 97 {
                0 => r.op = TraceOp::Trim,
                1 => r.op = TraceOp::Flush,
                _ => {}
            }
        }
        let trace = Trace::new("nvme_qd16", records);
        let by_library = replay_qd(&trace, fresh.clone(), QUEUE_DEPTH).unwrap();
        let mut log = OpLog::default();
        let mut lt = LoopTrace {
            stamp: true,
            ..LoopTrace::default()
        };
        let driven = drive(&trace, fresh, &mut log, &mut lt).unwrap();
        assert_eq!(driven.report, by_library);
        assert!(by_library.ooo_completions > 0 && by_library.peak_outstanding == QUEUE_DEPTH);
        let ios = (log.write_resp.len() + log.read_resp.len()) as u64;
        assert!(
            ios > 0 && ios < by_library.ops,
            "trims and flushes are not I/O samples"
        );
        assert!(lt.queue_full_waits > 0);
        assert_eq!(
            lt.submit_ns.len() as u64,
            by_library.submitted as u64 + lt.queue_full_waits
        );
        assert!(!lt.poll_ns.is_empty());
    }
}
