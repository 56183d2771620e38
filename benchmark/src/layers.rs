//! Per-layer metrics every workload fills the same way: from the counters
//! the run produced, from what the `Recorder` saw at the device boundary,
//! and from timing a TimeSSD's public index and recovery calls on the state
//! the recorded pass ended in.

use std::time::Instant;

use almanac_core::{SsdReadOps, TimeSsd};
use almanac_flash::{Lpa, Nanos, DAY_NS};

use crate::recorder::{Class, OpLog};
use crate::run::{Counts, Layers};
use crate::spans::Spans;
use crate::{kernels, stats};

/// Counts of the recorded pass: what the model did, on every layer.
pub fn counts(layers: &mut Layers, c: &Counts) {
    let d = &c.device;
    layers.set("core.write.calls", d.user_writes as f64);
    layers.set("core.read.calls", d.user_reads as f64);
    layers.set("core.trim.calls", d.user_trims as f64);
    layers.set("core.flush.calls", d.host_flushes as f64);
    layers.set("core.gc.runs", d.gc_runs as f64);
    layers.set("core.gc.sim_s", d.gc_time_ns as f64 / 1e9);
    layers.set("core.gc.reads", d.gc_reads as f64);
    layers.set("core.gc.migrated_pages", d.gc_programs as f64);
    layers.set("core.gc.erases", d.gc_erases as f64);
    layers.set("core.wl.swaps", d.wl_swaps as f64);
    layers.set("core.deltas.compressions_gc", d.gc_compressions as f64);
    layers.set("core.deltas.compressions_bg", d.bg_compressions as f64);
    layers.set("core.deltas.programs", d.delta_programs as f64);
    layers.set("core.retention.filters_dropped", d.filters_dropped as f64);
    layers.set("flash.reads", c.flash.reads as f64);
    layers.set("flash.programs", c.flash.programs as f64);
    layers.set("flash.erases", c.flash.erases as f64);
}

/// Exact percentiles of host-op response on the virtual clock that are not
/// end-to-end metrics: the medians are the idle-device service time on most
/// workloads, and p99.9 has too few samples beyond it on `query_battery`.
pub fn sim_percentiles(layers: &mut Layers, writes: &[u64], reads: &[u64]) {
    let us = |ns: u64| ns as f64 / 1e3;
    layers.set("core.write.sim_p50_us", us(stats::percentile(writes, 0.50)));
    layers.set(
        "core.write.sim_p999_us",
        us(stats::percentile(writes, 0.999)),
    );
    layers.set("core.read.sim_p50_us", us(stats::percentile(reads, 0.50)));
}

/// What the interposer saw at the `SsdDevice` boundary.
pub fn oplog(layers: &mut Layers, log: &OpLog) {
    let secs = |c: Class| log.host_total_ns[c as usize] as f64 / 1e9;
    layers.set("core.write.host_s", secs(Class::Write));
    layers.set("core.read.host_s", secs(Class::Read));
    layers.set("core.trim.host_s", secs(Class::Trim));
    layers.set("core.flush.host_s", secs(Class::Flush));
    let mut plain_write_ns = 0.0;
    for (class, p50, p99) in [
        (
            Class::Write,
            "core.write.host_ns_p50",
            "core.write.host_ns_p99",
        ),
        (
            Class::Read,
            "core.read.host_ns_p50",
            "core.read.host_ns_p99",
        ),
    ] {
        let mut ns: Vec<u64> = log.host_ns[class as usize]
            .iter()
            .map(|&n| u64::from(n))
            .collect();
        ns.sort_unstable();
        layers.set(p50, stats::percentile(&ns, 0.50) as f64);
        layers.set(p99, stats::percentile(&ns, 0.99) as f64);
        if class == Class::Write {
            plain_write_ns = stats::percentile(&ns, 0.50) as f64;
        }
    }
    let writes = log.write_resp.len().max(1) as f64;
    layers.set(
        "core.write.sim_wait_us_mean",
        log.write_wait_ns as f64 / writes / 1e3,
    );
    layers.set(
        "core.write.sim_service_us_mean",
        log.write_service_ns as f64 / writes / 1e3,
    );
    layers.set(
        "core.write.stalled_share",
        log.writes_stalled as f64 / writes,
    );
    // GC and background compression run inside a host call; their host time
    // is what those calls cost beyond a plain call.
    for (hit, calls, host) in [
        (log.gc_hit, "core.gc.calls_hit", "core.gc.host_s"),
        (log.bgc_hit, "core.bgc.calls_hit", "core.bgc.host_s"),
    ] {
        layers.set(calls, hit.calls as f64);
        let extra = hit.host_ns as f64 - plain_write_ns * hit.calls as f64;
        layers.set(host, extra.max(0.0) / 1e9);
    }
}

/// Everything measured on the TimeSSD a recorded pass ended with (the last
/// device of a multi-device pass) and the layer kernels at its size: end
/// state at virtual time `now`, index calls over `sample`, rebuild, flash,
/// Bloom chain, mapping table.
pub fn timessd(layers: &mut Layers, spans: &mut Spans, ssd: &TimeSsd, now: Nanos, sample: &[Lpa]) {
    end_state(layers, ssd, now);
    index(layers, spans, ssd, sample);
    rebuild(layers, spans, ssd);
    kernels::flash(layers, spans);
    kernels::bloom(layers, spans, ssd.live_filters());
    kernels::tables(layers, spans, ssd.exported_pages(), ssd.amt_shards());
}

fn end_state(layers: &mut Layers, ssd: &TimeSsd, now: Nanos) {
    layers.set("core.free_blocks_end", ssd.free_blocks() as f64);
    layers.set("core.deltas.blocks_end", ssd.delta_block_count() as f64);
    layers.set("core.retention.filters_live_end", ssd.live_filters() as f64);
    layers.set(
        "core.retention.window_days_end",
        ssd.retention_window(now) as f64 / DAY_NS as f64,
    );
    layers.set("flash.wear_spread", f64::from(ssd.flash().wear_spread()));
}

/// Times the public index calls on a fixed sample of LPAs: the version-chain
/// walk, and materialising each LPA's oldest retained version (the longest
/// path: a delta decode where the version was compressed).
fn index(layers: &mut Layers, spans: &mut Spans, ssd: &TimeSsd, sample: &[Lpa]) {
    let id = spans.enter("kernel core.index");
    let mut chain_ns = Vec::with_capacity(sample.len());
    let mut content_ns = Vec::with_capacity(sample.len());
    let mut versions = 0usize;
    for &lpa in sample {
        let t0 = Instant::now();
        let chain = std::hint::black_box(ssd.version_chain(lpa));
        chain_ns.push(t0.elapsed().as_nanos() as u64);
        versions += chain.len();
        if let Some(oldest) = chain.last() {
            let t0 = Instant::now();
            let _ = std::hint::black_box(ssd.version_content(lpa, oldest.timestamp));
            content_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
    spans.exit(id);
    layers.set(
        "core.version_chain.host_ns_p50",
        stats::percentile_of(&mut chain_ns, 0.50) as f64,
    );
    layers.set(
        "core.version_chain.host_ns_p99",
        stats::percentile_of(&mut chain_ns, 0.99) as f64,
    );
    layers.set(
        "core.version_chain.len_mean",
        versions as f64 / sample.len().max(1) as f64,
    );
    layers.set(
        "core.version_content.host_ns_p50",
        stats::percentile_of(&mut content_ns, 0.50) as f64,
    );
}

/// Times the §3.7 rebuild on a revived clone. It sits outside every timed
/// phase and is listed so that work moved into it shows.
fn rebuild(layers: &mut Layers, spans: &mut Spans, ssd: &TimeSsd) {
    let config = ssd.config().clone();
    let mut flash = ssd.clone().into_flash();
    flash.revive();
    let (rebuilt, secs) = spans.time("kernel core.rebuild", || {
        TimeSsd::recover_from_flash(flash, config)
    });
    std::hint::black_box(rebuilt);
    layers.set("core.rebuild.host_s", secs);
}

/// Evenly spaced sample of at most `n` LPAs out of `0..span`.
pub fn sample_lpas(span: u64, n: u64) -> Vec<Lpa> {
    let n = n.min(span).max(1);
    (0..n).map(|i| Lpa(i * span / n)).collect()
}
