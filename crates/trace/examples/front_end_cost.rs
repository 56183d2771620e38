//! What the NVMe front end costs per command, measured three ways over the
//! `nvme_qd16` mix (six segments of single-page commands over 16 384 LPAs,
//! half writes, half reads, arrivals 1 µs apart, 16 outstanding):
//!
//! - `replay_qd`'s loop over a device whose calls do no work: the front end
//!   alone (queues, arbitration, posting, cids, the replay loop);
//! - the same loop over a fresh TimeSSD on the benchmark's geometry;
//! - the same ops issued straight at that TimeSSD, one at a time.
//!
//! Each figure is host ns per command, the fastest of `reps` repetitions.
//!
//! ```bash
//! cargo run --release -p almanac-trace --example front_end_cost [commands-per-segment] [reps]
//! ```

use std::time::Instant;

use almanac_core::{Completion, DeviceStats, Result, SsdConfig, SsdDevice, SsdReadOps, TimeSsd};
use almanac_flash::{Geometry, Lpa, Nanos, PageData};
use almanac_nvme::NvmeController;
use almanac_trace::{replay_qd, replay_qd_through, Trace, TraceOp, TraceRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEGMENTS: u64 = 6;
const LPA_SPACE: u64 = 16_384;
const QUEUE_DEPTH: usize = 16;
const SEED: u64 = 42;

/// A device whose calls do no work: every command succeeds after a fixed
/// service time (a write's longer than a read's, so reads overtake writes
/// as they do on flash) and a read returns zeros.
struct NullDevice {
    stats: DeviceStats,
}

const WRITE_NS: Nanos = 200_000;
const READ_NS: Nanos = 50_000;

fn done(now: Nanos, service: Nanos) -> Completion {
    Completion {
        start: now,
        finish: now + service,
    }
}

impl SsdReadOps for NullDevice {
    fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn exported_pages(&self) -> u64 {
        LPA_SPACE
    }

    fn kind(&self) -> &'static str {
        "null"
    }
}

impl SsdDevice for NullDevice {
    fn write(&mut self, _: Lpa, _: PageData, now: Nanos) -> Result<Completion> {
        Ok(done(now, WRITE_NS))
    }

    fn read(&mut self, _: Lpa, now: Nanos) -> Result<(PageData, Completion)> {
        Ok((PageData::Zeros, done(now, READ_NS)))
    }

    fn trim(&mut self, _: Lpa, now: Nanos) -> Result<Completion> {
        Ok(done(now, 0))
    }

    fn flush(&mut self, now: Nanos) -> Result<Completion> {
        Ok(done(now, 0))
    }
}

/// One `nvme_qd16` segment: `commands` single-page records, 1 µs apart.
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
            TraceRecord::new(i * 1_000, op, lpa, 1)
        })
        .collect();
    Trace::new("nvme_qd16", records)
}

/// The benchmark's device: its geometry and Bloom chain, fresh.
fn fresh_timessd() -> TimeSsd {
    let mut cfg = SsdConfig::new(Geometry::bench());
    cfg.bloom.bits_per_filter = 1 << 17;
    cfg.bloom.hashes = 4;
    cfg.bloom.capacity = 8192;
    TimeSsd::new(cfg)
}

/// Host ns per command of the fastest of `reps` runs of `run` over every
/// segment. `run` gets a segment and returns the commands it completed and
/// the host seconds it took, timed after its device was built.
fn fastest(reps: u32, segments: &[Trace], mut run: impl FnMut(&Trace) -> (u64, f64)) -> f64 {
    let commands: u64 = segments.iter().map(|t| t.records.len() as u64).sum();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut secs = 0.0;
        for trace in segments {
            let (completed, took) = run(trace);
            secs += took;
            assert_eq!(completed, trace.records.len() as u64, "a command failed");
        }
        best = best.min(secs);
    }
    best * 1e9 / commands.max(1) as f64
}

fn main() {
    let mut args = std::env::args().skip(1);
    let commands: u64 = args
        .next()
        .map_or(200_000, |a| a.parse().expect("commands"));
    let reps: u32 = args.next().map_or(10, |a| a.parse().expect("reps"));
    let segments: Vec<Trace> = (0..SEGMENTS).map(|i| segment(SEED + i, commands)).collect();
    let fresh = fresh_timessd();

    let null = fastest(reps, &segments, |trace| {
        let device = NullDevice {
            stats: DeviceStats::default(),
        };
        let controller = NvmeController::over(device, 4096);
        let t0 = Instant::now();
        let report = replay_qd_through(trace, controller, QUEUE_DEPTH).expect("replay_qd");
        (report.ops, t0.elapsed().as_secs_f64())
    });
    let queued = fastest(reps, &segments, |trace| {
        let ssd = fresh.clone();
        let t0 = Instant::now();
        let report = replay_qd(trace, ssd, QUEUE_DEPTH).expect("replay_qd");
        (report.ops, t0.elapsed().as_secs_f64())
    });
    let direct = fastest(reps, &segments, |trace| {
        let mut ssd = fresh.clone();
        let t0 = Instant::now();
        for r in &trace.records {
            let lpa = Lpa(r.lpa);
            let finish = match r.op {
                TraceOp::Write => ssd
                    .write(lpa, PageData::bytes(r.lpa.to_le_bytes().to_vec()), r.at)
                    .map(|c| c.finish),
                _ => ssd.read(lpa, r.at).map(|(_, c)| c.finish),
            };
            std::hint::black_box(finish).expect("direct op");
        }
        (trace.records.len() as u64, t0.elapsed().as_secs_f64())
    });

    println!("{SEGMENTS} segments x {commands} commands, QD {QUEUE_DEPTH}, fastest of {reps} reps");
    println!("replay_qd over a do-nothing device  {null:8.1} ns/command");
    println!("replay_qd over TimeSSD              {queued:8.1} ns/command");
    println!("the same ops straight at TimeSSD    {direct:8.1} ns/command");
    println!(
        "front end's share of replay_qd      {:8.1} %",
        100.0 * (1.0 - direct / queued)
    );
}
