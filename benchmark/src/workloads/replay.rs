//! `replay_timessd` and `replay_regular`: the 28-day `usr` trace replayed
//! open-loop (on the trace's virtual timestamps; response is timed from
//! arrival, so a GC stall charges the arrivals behind it) on a half-full
//! device — a Figure 8 cell and its Figures 6/7 baseline twin.

use std::collections::HashMap;
use std::time::Instant;

use almanac_core::{RegularSsd, SsdConfig, SsdDevice, TimeSsd};
use almanac_flash::{FlashArray, Lpa, Nanos, PageData, DAY_NS, SEC_NS};
use almanac_trace::{replay_with_sampler, ReplayReport, Trace, TraceOp};
use almanac_workloads::profiles::profile_by_name;

use crate::device::{bench_config, flash_digest, profile_trace, warm_fill, WARM_USAGE};
use crate::recorder::Recorder;
use crate::run::{Counts, Ctx, Gate, Pass, Recorded, Scale, Workload};
use crate::{kernels, layers};

/// The two devices the replay workloads drive.
pub trait ReplayDevice: SsdDevice + Clone {
    fn build(config: SsdConfig) -> Self;
    fn flash(&self) -> &FlashArray;
    /// The time-travel device behind this one, if it is one.
    fn timessd(&self) -> Option<&TimeSsd>;
}

impl ReplayDevice for TimeSsd {
    fn build(config: SsdConfig) -> Self {
        TimeSsd::new(config)
    }
    fn flash(&self) -> &FlashArray {
        TimeSsd::flash(self)
    }
    fn timessd(&self) -> Option<&TimeSsd> {
        Some(self)
    }
}

impl ReplayDevice for RegularSsd {
    fn build(config: SsdConfig) -> Self {
        RegularSsd::new(config)
    }
    fn flash(&self) -> &FlashArray {
        RegularSsd::flash(self)
    }
    fn timessd(&self) -> Option<&TimeSsd> {
        None
    }
}

/// Trace length in days at full size.
const DAYS: u64 = 28;
/// LPAs read back after the replay.
const READ_BACK: usize = 1024;

pub struct Replay<D> {
    /// The warm-filled start state.
    start: D,
    trace: Trace,
    /// Page operations of the trace: the fixed op count.
    page_ops: u64,
    generate_s: f64,
}

/// Fig. 8's retention sampler: the window after every 64th record.
struct RetentionSampler {
    records: u64,
    windows: Vec<Nanos>,
}

impl RetentionSampler {
    fn new() -> Self {
        RetentionSampler {
            records: 0,
            windows: Vec::new(),
        }
    }

    fn sample<D: ReplayDevice>(&mut self, dev: &D, now: Nanos) {
        self.records += 1;
        if self.records.is_multiple_of(64) {
            if let Some(ssd) = dev.timessd() {
                self.windows.push(ssd.retention_window(now));
            }
        }
    }

    /// Mean window over the second half of the trace, in days (Fig. 8's
    /// steady-state definition); 0 on a device that retains nothing.
    fn steady_days(&self) -> f64 {
        let steady = &self.windows[self.windows.len() / 2..];
        if steady.is_empty() {
            return 0.0;
        }
        steady.iter().sum::<Nanos>() as f64 / steady.len() as f64 / DAY_NS as f64
    }
}

impl<D: ReplayDevice> Replay<D> {
    /// Fingerprint and op accounting of a finished replay.
    fn finish(
        &self,
        dev: &D,
        report: &ReplayReport,
        sampler: &RetentionSampler,
        wall_s: f64,
    ) -> Pass {
        let since = dev.stats().since(self.start.stats());
        let done = since.user_writes + since.user_reads + since.user_trims + since.host_flushes;
        let first_arrival = self.trace.records.first().map_or(0, |r| r.at);
        Pass {
            wall_s,
            attempted: self.page_ops,
            failed: self.page_ops.saturating_sub(done),
            makespan_ns: report.end_time.saturating_sub(first_arrival),
            finger: vec![
                format!("stats={:?}", dev.stats()),
                format!("flash={:?}", dev.flash().stats()),
                format!("digest={:#018x}", flash_digest(dev.flash())),
                format!("report={report:?}"),
                format!("retention_days={}", sampler.steady_days()),
            ],
        }
    }

    /// What every LPA the trace touched must read as afterwards.
    fn expected_content(&self) -> HashMap<u64, PageData> {
        let exported = self.start.exported_pages();
        let mut last = HashMap::new();
        for r in &self.trace.records {
            let content = |lpa: u64| match r.op {
                TraceOp::Write => Some(PageData::Synthetic {
                    seed: lpa,
                    version: r.at,
                }),
                TraceOp::Trim => Some(PageData::Zeros),
                TraceOp::Read | TraceOp::Flush => None,
            };
            for i in 0..u64::from(r.pages.max(1)) {
                let lpa = ((r.lpa % exported).wrapping_add(i)) % exported;
                if let Some(c) = content(lpa) {
                    last.insert(lpa, c);
                }
            }
        }
        last
    }
}

impl<D: ReplayDevice> Workload for Replay<D> {
    fn setup(seed: u64, scale: Scale) -> Self {
        let mut start = D::build(bench_config());
        let warm_end = warm_fill(&mut start, WARM_USAGE);
        let profile = profile_by_name("usr").expect("usr profile");
        let days = scale.div(DAYS) as u32;
        let t0 = Instant::now();
        let trace = profile_trace(
            &profile,
            days,
            start.exported_pages(),
            warm_end + SEC_NS,
            seed,
        );
        let generate_s = t0.elapsed().as_secs_f64();
        let page_ops = trace
            .records
            .iter()
            .map(|r| match r.op {
                TraceOp::Flush => 1,
                _ => u64::from(r.pages.max(1)),
            })
            .sum();
        Replay {
            start,
            trace,
            page_ops,
            generate_s,
        }
    }

    fn timed_rep(&self) -> Pass {
        let mut dev = self.start.clone();
        let mut sampler = RetentionSampler::new();
        let t0 = Instant::now();
        let report = replay_with_sampler(&self.trace, &mut dev, |d, now| sampler.sample(d, now))
            .expect("replay");
        let wall_s = t0.elapsed().as_secs_f64();
        self.finish(&dev, &report, &sampler, wall_s)
    }

    fn recorded(&self, ctx: &mut Ctx<'_>) -> Recorded {
        let (dev, clone_s) = ctx.spans.time("core.clone", || self.start.clone());
        let mut rec = Recorder::new(dev, ctx.traced, false);
        let mut sampler = RetentionSampler::new();
        let id = ctx.spans.enter("trace.replay");
        let t0 = Instant::now();
        let report = replay_with_sampler(&self.trace, &mut rec, |r, now| {
            sampler.sample(r.inner(), now)
        })
        .expect("replay");
        let wall_s = t0.elapsed().as_secs_f64();
        ctx.spans.exit(id);
        let (mut dev, log) = rec.into_parts();
        let pass = self.finish(&dev, &report, &sampler, wall_s);
        let mut counts = Counts::default();
        counts.add(
            &dev.stats().since(self.start.stats()),
            &dev.flash().stats().since(self.start.flash().stats()),
        );
        let digest = flash_digest(dev.flash());

        let mut gates = Vec::new();
        if let Some(ssd) = dev.timessd() {
            let (check, secs) = ctx.spans.time("core.check", || ssd.check_consistency());
            ctx.layers.set("core.check.host_s", secs);
            gates.push(Gate::new(
                "check_consistency is clean",
                check.is_clean(),
                format!("{} violations", check.violations.len()),
            ));
        }

        if ctx.traced {
            let l = &mut ctx.layers;
            l.set("core.clone.host_s", clone_s);
            l.set("workloads.generate.host_s", self.generate_s);
            l.set(
                "workloads.generate.records",
                self.trace.records.len() as f64,
            );
            l.set("trace.replay.host_s", wall_s);
            l.set(
                "trace.replay.self_share",
                1.0 - log.device_host_s() / wall_s,
            );
            l.set("trace.page_ops", self.page_ops as f64);
            l.set("core.retention.window_days_mean", sampler.steady_days());
            if let Some(ssd) = dev.timessd() {
                let span = (self.start.exported_pages() as f64 * WARM_USAGE) as u64;
                let sample = layers::sample_lpas(span, 4096);
                layers::timessd(l, ctx.spans, ssd, report.end_time, &sample);
            } else {
                // No index, no chain: the same kernels at this device's size.
                l.set("flash.wear_spread", f64::from(dev.flash().wear_spread()));
                kernels::flash(l, ctx.spans);
                kernels::bloom(l, ctx.spans, 0);
                let config = bench_config();
                kernels::tables(l, ctx.spans, config.exported_pages(), config.amt_shards);
            }
        }

        // Read back a fixed sample of the LPAs the trace wrote. This mutates
        // the device's read counters, so it comes after everything above.
        let expected = self.expected_content();
        let mut written: Vec<u64> = expected.keys().copied().collect();
        written.sort_unstable();
        let step = written.len().div_ceil(READ_BACK).max(1);
        let mut now = report.end_time + SEC_NS;
        let (mut checked, mut wrong) = (0, 0);
        for &lpa in written.iter().step_by(step) {
            let (data, c) = dev.read(Lpa(lpa), now).expect("read-back");
            now = c.finish;
            checked += 1;
            wrong += usize::from(data != expected[&lpa]);
        }
        gates.push(Gate::new(
            "read-back equals the last version the trace wrote",
            wrong == 0 && checked > 0,
            format!("{wrong} of {checked} sampled LPAs differ"),
        ));

        Recorded {
            pass,
            log,
            counts,
            digest,
            gates,
        }
    }
}
