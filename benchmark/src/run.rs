//! The runner: set-up, timed reps, recorded pass, gates, and the report.
//!
//! One run is: build the workload's start state (several times; `setup_s` is
//! the median), run *timed reps* from clones of it through the library entry
//! points with nothing interposed until `--seconds` have passed (the host
//! clock), then one *recorded pass* that re-drives the identical op stream
//! through the benchmark's interposers (the virtual clock, and in a traced
//! run the per-layer numbers). The recorded pass must leave the same
//! fingerprint as every timed rep, or the run fails.
//!
//! **Calibrated host time.** The sandbox this repo is measured in switches
//! between two clock speeds about 21 % apart, in phases of 15–35 s — longer
//! than a run (a fixed integer loop and a replay rep slow down by the same
//! factor). So every host-clock interval is multiplied by a speed factor
//! measured next to it: the reference duration of a fixed integer spin
//! divided by the spin's duration just before and after the interval. Over
//! 124 consecutive reps of one replay, windows of five reps read 13.9 %
//! apart (quartile spread) by their fastest raw rep, 4.7 % by their raw
//! median and 1.6 % by the median of calibrated reps; the runner reports the
//! last and prints the others beside it. Never a mean.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use almanac_core::DeviceStats;
use almanac_flash::FlashStats;

use crate::recorder::OpLog;
use crate::spans::{Histogram, Spans};
use crate::spec::{self, Clock, Metric};
use crate::{device, json, stats};

/// Parsed command line of a workload run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// How long the timed reps go on.
    pub seconds: f64,
    /// The traced run: per-layer metrics and a span file.
    pub trace: bool,
    /// Wiring and correctness only: one rep, inputs ÷ 8.
    pub quick: bool,
    /// Append this run's report line (the input of `--compare`) here.
    pub out: Option<PathBuf>,
}

/// Input scaling: full size, or ÷ 8 for `--quick`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub quick: bool,
}

impl Scale {
    pub fn div(self, n: u64) -> u64 {
        if self.quick {
            n.div_ceil(8)
        } else {
            n
        }
    }
}

/// What one pass — timed rep or recorded — did and left behind.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall time of the timed window: the library calls only, no clones,
    /// digests or checks.
    pub wall_s: f64,
    /// The workload's fixed op count.
    pub attempted: u64,
    pub failed: u64,
    /// Virtual time the fixed closed-loop work took, from the values the
    /// library calls returned.
    pub makespan_ns: u64,
    /// `DeviceStats`, flash digest and every value the library returned, as
    /// `key=value` lines; equal across all passes of a run.
    pub finger: Vec<String>,
}

/// A named correctness gate.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Gate {
    pub fn new(name: &str, ok: bool, detail: impl Into<String>) -> Self {
        Gate {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        }
    }
}

/// Device and flash counters summed over the devices of one pass. Only the
/// plain counters are summed; the latency accumulators stay empty.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub device: DeviceStats,
    pub flash: FlashStats,
}

impl Counts {
    /// Adds one device's counters over the timed phase (`since` the start
    /// state).
    pub fn add(&mut self, d: &DeviceStats, f: &FlashStats) {
        let t = &mut self.device;
        t.user_reads += d.user_reads;
        t.user_writes += d.user_writes;
        t.user_trims += d.user_trims;
        t.host_flushes += d.host_flushes;
        t.gc_runs += d.gc_runs;
        t.gc_reads += d.gc_reads;
        t.gc_programs += d.gc_programs;
        t.gc_erases += d.gc_erases;
        t.gc_compressions += d.gc_compressions;
        t.bg_compressions += d.bg_compressions;
        t.delta_programs += d.delta_programs;
        t.wl_swaps += d.wl_swaps;
        t.filters_dropped += d.filters_dropped;
        t.gc_time_ns += d.gc_time_ns;
        self.flash.reads += f.reads;
        self.flash.programs += f.programs;
        self.flash.erases += f.erases;
    }

    pub fn flash_ops(&self) -> u64 {
        self.flash.reads + self.flash.programs + self.flash.erases
    }
}

/// Per-layer values of a traced run; every name must be in the spec.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric of the spec"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The recorded pass's result.
pub struct Recorded {
    pub pass: Pass,
    /// What the interposers saw: exact virtual response of every host write
    /// and read.
    pub log: OpLog,
    pub counts: Counts,
    /// Digest of the flash state the pass ended in (several devices folded
    /// into one).
    pub digest: u64,
    pub gates: Vec<Gate>,
}

/// What the recorded pass may use from the runner.
pub struct Ctx<'a> {
    pub traced: bool,
    pub spans: &'a mut Spans,
    pub layers: Layers,
    /// Extra per-class histograms for the span file.
    pub histograms: Vec<(String, Histogram)>,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Builds inputs and start state from the seed. Everything in here is
    /// `setup_s`.
    fn setup(seed: u64, scale: Scale) -> Self;

    /// One timed rep from a clone of the start state, nothing interposed.
    fn timed_rep(&self) -> Pass;

    /// The same op stream through the interposers. Fills `ctx.layers` in a
    /// traced run.
    fn recorded(&self, ctx: &mut Ctx<'_>) -> Recorded;
}

/// A finished run, ready to print.
pub struct Report {
    pub args: Args,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    /// Wall seconds of each timed rep, as measured and calibrated.
    pub raw_reps: Vec<f64>,
    pub reps: Vec<f64>,
    pub samples: (usize, usize),
    pub gates: Vec<Gate>,
    /// `(spec entry, value)` of every metric measured, end-to-end first.
    pub metrics: Vec<(&'static Metric, f64)>,
    pub span_file: Option<PathBuf>,
}

/// Runs workload `W` as `args` says.
pub fn run<W: Workload>(args: &Args) -> Result<Report, String> {
    let scale = Scale { quick: args.quick };
    let mut spans = Spans::new();
    let run_span = spans.enter(format!("run {}", args.workload));

    // Set-up, several times: it is cheap next to the timed reps, and the
    // median of several is what keeps `setup_s` steady from run to run.
    let phase = spans.enter("setup");
    let started = Instant::now();
    let mut setup_s = Vec::new();
    let mut state = None;
    while setup_s.len() < 3 || (started.elapsed().as_secs_f64() < 0.6 && setup_s.len() < 9) {
        drop(state.take());
        let ((built, secs), factor) =
            calibrated(|| spans.time("setup.build", || W::setup(args.seed, scale)));
        setup_s.push(secs * factor);
        state = Some(built);
        if args.quick {
            break;
        }
    }
    let state = state.expect("set up at least once");
    spans.exit(phase);

    // Timed reps until `--seconds` have passed (one rep in quick mode).
    let phase = spans.enter("timed_reps");
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut raw_reps = Vec::new();
    let mut reps = Vec::new();
    loop {
        let t0 = Instant::now();
        let (pass, factor) = calibrated(|| state.timed_rep());
        spans.note("rep", t0, t0.elapsed());
        raw_reps.push(pass.wall_s);
        reps.push(pass.wall_s * factor);
        passes.push(pass);
        if args.quick || started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    spans.exit(phase);
    let rep_s = stats::median(&reps);

    let phase = spans.enter("recorded_pass");
    let mut ctx = Ctx {
        traced: args.trace,
        spans: &mut spans,
        layers: Layers::default(),
        histograms: Vec::new(),
    };
    let (mut rec, rec_factor) = calibrated(|| state.recorded(&mut ctx));
    let Ctx {
        mut layers,
        mut histograms,
        ..
    } = ctx;
    spans.exit(phase);

    // Gates.
    let mut gates = std::mem::take(&mut rec.gates);
    let first = &passes[0].finger;
    let reps_agree = passes.iter().all(|p| &p.finger == first);
    gates.push(Gate::new(
        "timed reps leave one fingerprint",
        reps_agree,
        format!("{} reps", passes.len()),
    ));
    let diff = first
        .iter()
        .zip(&rec.pass.finger)
        .find(|(a, b)| a != b)
        .map(|(a, b)| format!("timed `{a}` vs recorded `{b}`"))
        .unwrap_or_else(|| format!("{} vs {} lines", first.len(), rec.pass.finger.len()));
    let rec_agrees = first == &rec.pass.finger;
    gates.push(Gate::new(
        "recorded pass leaves the timed reps' fingerprint",
        rec_agrees,
        if rec_agrees { String::new() } else { diff },
    ));
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum::<u64>() + rec.pass.attempted;
    let failed: u64 = passes.iter().map(|p| p.failed).sum::<u64>() + rec.pass.failed;
    gates.push(Gate::new(
        "no operation failed",
        failed == 0,
        format!("{failed} of {attempted}"),
    ));
    let correct = gates.iter().all(|g| g.ok);

    // End-to-end metrics.
    rec.log.write_resp.sort_unstable();
    rec.log.read_resp.sort_unstable();
    let (writes, reads) = (&rec.log.write_resp, &rec.log.read_resp);
    let us = |ns: f64| ns / 1e3;
    let peak_rss_mib = device::peak_rss_mib()?;
    let end_to_end = |name: &str| match name {
        "setup_s" => stats::median(&setup_s),
        "host_ops_per_s" => passes[0].attempted as f64 / rep_s,
        "peak_rss_mb" => peak_rss_mib,
        "sim_write_mean_us" => us(stats::mean(writes)),
        "sim_write_p99_us" => us(stats::percentile(writes, 0.99) as f64),
        "sim_read_mean_us" => us(stats::mean(reads)),
        "sim_read_p99_us" => us(stats::percentile(reads, 0.99) as f64),
        "sim_makespan_s" => rec.pass.makespan_ns as f64 / 1e9,
        "write_amp" => {
            rec.counts.flash.programs as f64 / rec.counts.device.user_writes.max(1) as f64
        }
        other => panic!("end-to-end metric {other} is in the spec but not measured"),
    };
    let mut metrics: Vec<(&'static Metric, f64)> = spec::END_TO_END
        .iter()
        .map(|m| (m, end_to_end(m.name)))
        .collect();

    // Per-layer metrics (traced run).
    let mut span_file = None;
    if args.trace {
        crate::layers::oplog(&mut layers, &rec.log);
        // Host times the recorded pass measured, in calibrated time.
        for m in spec::PER_LAYER.iter().filter(|m| m.clock == Clock::Host) {
            match m.unit {
                "s" | "ms" | "ns" => layers.set(m.name, layers.get(m.name) * rec_factor),
                "MB/s" => layers.set(m.name, layers.get(m.name) / rec_factor),
                _ => {}
            }
        }
        layers.set("run.reps", reps.len() as f64);
        layers.set("run.rep_median_s", rep_s);
        layers.set("run.rep_iqr_s", stats::iqr(&reps));
        // Every timed rep runs on one host thread: the second vCPU of this
        // sandbox comes and goes (see `kits.scan_speedup_2t`).
        layers.set("run.threads", 1.0);
        layers.set("run.clock_factor", rec_factor);
        layers.set(
            "run.tracing_overhead_share",
            rec.pass.wall_s * rec_factor / rep_s - 1.0,
        );
        let rep_ns = rep_s * 1e9;
        layers.set(
            "run.host_ns_per_flash_op",
            rep_ns / rec.counts.flash_ops().max(1) as f64,
        );
        crate::layers::counts(&mut layers, &rec.counts);
        crate::layers::sim_percentiles(&mut layers, writes, reads);
        let flash = &rec.counts.flash;
        let flash_ns = flash.programs as f64 * layers.get("flash.program.host_ns")
            + flash.reads as f64 * layers.get("flash.read.host_ns")
            + flash.erases as f64 * layers.get("flash.erase.host_ns");
        layers.set("flash.est_share", flash_ns / rep_ns);
        layers.set(
            "compress.est_share",
            layers.get("compress.pages") * layers.get("compress.encode.host_ns_p50") / rep_ns,
        );
        for m in spec::PER_LAYER {
            metrics.push((m, layers.get(m.name)));
        }
        histograms.extend(rec.log.histograms());
    }
    spans.exit(run_span);
    if args.trace {
        // `benchmark/out/` of the checkout this binary was built from.
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}-{}.spans.json", args.workload, args.seed));
        let header = [
            ("workload", args.workload.clone()),
            ("seed", args.seed.to_string()),
            ("clock", "host, nanoseconds since the run began".to_string()),
        ];
        std::fs::write(&path, spans.to_json(&header, &histograms))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        span_file = Some(path);
    }

    Ok(Report {
        args: args.clone(),
        correct,
        attempted,
        failed,
        digest: rec.digest,
        raw_reps,
        reps,
        samples: (writes.len(), reads.len()),
        gates,
        metrics,
        span_file,
    })
}

impl Report {
    /// The human-readable part: one line per metric with unit and clock.
    pub fn print(&self) {
        let a = &self.args;
        println!(
            "workload {} seed {} seconds {} trace {} quick: {}",
            a.workload,
            a.seed,
            a.seconds,
            u8::from(a.trace),
            a.quick
        );
        println!(
            "host threads available {}",
            std::thread::available_parallelism().map_or(0, |n| n.get())
        );
        for (label, reps) in [("raw", &self.raw_reps), ("calibrated", &self.reps)] {
            println!(
                "reps {} {label} best_s {:.6} median_s {:.6} iqr_s {:.6}",
                reps.len(),
                stats::best(reps),
                stats::median(reps),
                stats::iqr(reps)
            );
        }
        println!(
            "samples sim_write {} sim_read {}",
            self.samples.0, self.samples.1
        );
        println!("digest {:#018x}", self.digest);
        println!(
            "attempted {} failed {} fail_share {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for g in &self.gates {
            let verdict = if g.ok { "pass" } else { "FAIL" };
            println!("gate {verdict} {} {}", g.name, g.detail);
        }
        for (m, v) in &self.metrics {
            println!(
                "metric {:<36} {:>22} {:<8} {:<7} {} is better",
                m.name,
                json::num(*v),
                m.unit,
                m.clock.label(),
                m.better.label()
            );
        }
        if let Some(p) = &self.span_file {
            println!("spans {}", p.display());
        }
    }

    fn metrics_json(&self, wanted: &[Metric]) -> String {
        let mut out = String::from("{");
        let listed = self
            .metrics
            .iter()
            .filter(|(m, _)| wanted.iter().any(|w| w.name == m.name));
        for (i, (m, v)) in listed.enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(&mut out, m.name);
            out.push_str(&format!(":{{\"value\":{},\"unit\":", json::num(*v)));
            json::push_str(&mut out, m.unit);
            out.push('}');
        }
        out.push('}');
        out
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`; with `--trace 0` the end-to-end metrics, with `--trace 1`
    /// the per-layer ones.
    pub fn result_line(&self) -> String {
        let wanted = if self.args.trace {
            spec::PER_LAYER
        } else {
            spec::END_TO_END
        };
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json(wanted)
        )
    }

    /// The report line `--out` appends and `--compare` reads: the driver's
    /// line plus what identifies the run.
    pub fn report_line(&self) -> String {
        let mut out = String::from("{\"workload\":");
        json::push_str(&mut out, &self.args.workload);
        out.push_str(&format!(
            ",\"seed\":\"{}\",\"trace\":{},\"quick\":{},\"digest\":\"{:#018x}\",\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.args.seed,
            self.args.trace,
            self.args.quick,
            self.digest,
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json(&[spec::END_TO_END, spec::PER_LAYER].concat())
        ));
        out
    }
}

/// Duration of the calibration spin at the reference clock speed: what it
/// takes on this repo's sandbox (Xeon @ 2.10 GHz) in its faster state. Only a
/// scale: calibrated seconds are seconds of a machine that runs the spin in
/// exactly this time.
const REFERENCE_SPIN_S: f64 = 1.445e-3;

/// Times a fixed integer loop (fastest of three): the CPU's speed right now.
fn spin_s() -> f64 {
    let mut fastest = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..1_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        fastest = fastest.min(t0.elapsed().as_secs_f64());
    }
    fastest
}

/// Runs `f` between two calibration spins; returns its result and the factor
/// that turns host seconds measured inside it into calibrated seconds.
fn calibrated<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let before = spin_s();
    let out = f();
    let after = spin_s();
    (out, REFERENCE_SPIN_S / ((before + after) / 2.0))
}
