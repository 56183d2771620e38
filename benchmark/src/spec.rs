//! The benchmark's contract in one place: workload names and why each was
//! chosen, every metric's unit, clock, direction and — for end-to-end
//! metrics — the bound by which it may worsen before a change counts as a
//! regression. `BENCHMARK.json` restates this table for the driver; a unit
//! test keeps the two in step.

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall clock of the simulator process on this machine.
    Host,
    /// Virtual time of the modelled device: deterministic for a seed.
    Virtual,
    /// A count or a ratio of counts: deterministic for a seed.
    Count,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Virtual => "virtual",
            Clock::Count => "count",
        }
    }

    /// Two runs of one commit and seed must agree exactly on this metric.
    pub fn deterministic(self) -> bool {
        self != Clock::Host
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// End-to-end metrics only: allowed worsening as a share of the
    /// parent's median.
    pub bound: Option<f64>,
}

/// How long the timed reps of one run go on, in seconds.
pub const RUN_SECONDS: u64 = 10;

/// `(name, why)`; `why` is one line of at most 200 characters.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "replay_timessd",
        "28-day usr trace on a half-full TimeSSD: a Figure 8 cell where GC, delta packing, Bloom expiry and Equation 1 reach steady state; pages are synthetic, so the codec is bypassed",
    ),
    (
        "replay_regular",
        "the same trace and fill on RegularSsd: bypasses every retention layer (no Bloom chain, deltas or IMT), so the baseline FTL write path, the replay loop and the flash array are all that runs",
    ),
    (
        "query_battery",
        "fixed TimeKits battery (time queries, AddrQuery as-of/range/all, rollback, read-back) over 14 days of hm history: the read side of the AMT/IMT/version chains the replays write",
    ),
    (
        "ransom_recover",
        "all 13 ransomware families under AlmanacFs, then settle and roll back: the only workload with real bytes, so textgen, the fs write path and the XOR+LZF codec do the work",
    ),
    (
        "nvme_qd16",
        "50/50 single-page write/read mix through HostDriver at 16 outstanding on fresh devices: GC stays marginal, so SQE coding, cid allocation, arbitration and posting dominate",
    ),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, clock: Clock, better: Better) -> Metric {
    Metric {
        name,
        unit,
        clock,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};
use Clock::{Count, Host, Virtual};

/// What a user of the system sees. Every one is reported by every workload
/// and is never 0 there.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Host, Lower, 0.25),
    e2e("host_ops_per_s", "ops/s", Host, Higher, 0.20),
    e2e("peak_rss_mb", "MiB", Host, Lower, 0.10),
    e2e("sim_write_mean_us", "sim_us", Virtual, Lower, 0.16),
    e2e("sim_write_p99_us", "sim_us", Virtual, Lower, 0.22),
    e2e("sim_read_mean_us", "sim_us", Virtual, Lower, 0.05),
    e2e("sim_read_p99_us", "sim_us", Virtual, Lower, 0.05),
    e2e("sim_makespan_s", "sim_s", Virtual, Lower, 0.10),
    e2e("write_amp", "ratio", Count, Lower, 0.10),
];

/// Single layers, measured from outside in the traced run. A layer a
/// workload bypasses reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    // harness
    layer("run.reps", "count", Host, Higher),
    layer("run.rep_median_s", "s", Host, Lower),
    layer("run.rep_iqr_s", "s", Host, Lower),
    layer("run.threads", "count", Count, Lower),
    layer("run.clock_factor", "ratio", Host, Higher),
    layer("run.tracing_overhead_share", "ratio", Host, Lower),
    layer("run.host_ns_per_flash_op", "ns", Host, Lower),
    // workloads
    layer("workloads.generate.host_s", "s", Host, Lower),
    layer("workloads.generate.records", "count", Count, Lower),
    layer("workloads.textgen.host_s", "s", Host, Lower),
    layer("workloads.attack.host_s", "s", Host, Lower),
    // trace
    layer("trace.replay.host_s", "s", Host, Lower),
    layer("trace.replay.self_share", "ratio", Host, Lower),
    layer("trace.page_ops", "count", Count, Lower),
    // core, at the SsdDevice boundary
    layer("core.write.calls", "count", Count, Lower),
    layer("core.write.host_s", "s", Host, Lower),
    layer("core.write.host_ns_p50", "ns", Host, Lower),
    layer("core.write.host_ns_p99", "ns", Host, Lower),
    layer("core.read.calls", "count", Count, Lower),
    layer("core.read.host_s", "s", Host, Lower),
    layer("core.read.host_ns_p50", "ns", Host, Lower),
    layer("core.read.host_ns_p99", "ns", Host, Lower),
    layer("core.trim.calls", "count", Count, Lower),
    layer("core.trim.host_s", "s", Host, Lower),
    layer("core.flush.calls", "count", Count, Lower),
    layer("core.flush.host_s", "s", Host, Lower),
    layer("core.write.sim_wait_us_mean", "sim_us", Virtual, Lower),
    layer("core.write.sim_service_us_mean", "sim_us", Virtual, Lower),
    layer("core.write.sim_p50_us", "sim_us", Virtual, Lower),
    layer("core.write.sim_p999_us", "sim_us", Virtual, Lower),
    layer("core.read.sim_p50_us", "sim_us", Virtual, Lower),
    layer("core.write.stalled_share", "ratio", Virtual, Lower),
    layer("core.clone.host_s", "s", Host, Lower),
    // core, garbage collection
    layer("core.gc.runs", "count", Count, Lower),
    layer("core.gc.calls_hit", "count", Count, Lower),
    layer("core.gc.host_s", "s", Host, Lower),
    layer("core.gc.sim_s", "sim_s", Virtual, Lower),
    layer("core.gc.reads", "count", Count, Lower),
    layer("core.gc.migrated_pages", "count", Count, Lower),
    layer("core.gc.erases", "count", Count, Lower),
    layer("core.wl.swaps", "count", Count, Lower),
    layer("core.free_blocks_end", "count", Count, Higher),
    // core, retention and deltas
    layer("core.deltas.compressions_gc", "count", Count, Lower),
    layer("core.deltas.compressions_bg", "count", Count, Lower),
    layer("core.deltas.programs", "count", Count, Lower),
    layer("core.deltas.blocks_end", "count", Count, Lower),
    layer("core.bgc.calls_hit", "count", Count, Lower),
    layer("core.bgc.host_s", "s", Host, Lower),
    layer("core.retention.filters_live_end", "count", Count, Higher),
    layer("core.retention.filters_dropped", "count", Count, Lower),
    layer(
        "core.retention.window_days_end",
        "sim_days",
        Virtual,
        Higher,
    ),
    layer(
        "core.retention.window_days_mean",
        "sim_days",
        Virtual,
        Higher,
    ),
    // core, the time-travel index
    layer("core.version_chain.host_ns_p50", "ns", Host, Lower),
    layer("core.version_chain.host_ns_p99", "ns", Host, Lower),
    layer("core.version_chain.len_mean", "count", Count, Higher),
    layer("core.version_content.host_ns_p50", "ns", Host, Lower),
    layer("core.tables.amt_get.host_ns", "ns", Host, Lower),
    layer("core.tables.amt_set.host_ns", "ns", Host, Lower),
    layer("core.rebuild.host_s", "s", Host, Lower),
    layer("core.check.host_s", "s", Host, Lower),
    // flash
    layer("flash.reads", "count", Count, Lower),
    layer("flash.programs", "count", Count, Lower),
    layer("flash.erases", "count", Count, Lower),
    layer("flash.program.host_ns", "ns", Host, Lower),
    layer("flash.read.host_ns", "ns", Host, Lower),
    layer("flash.erase.host_ns", "ns", Host, Lower),
    layer("flash.peek.host_ns", "ns", Host, Lower),
    layer("flash.est_share", "ratio", Host, Lower),
    layer("flash.digest.host_s", "s", Host, Lower),
    layer("flash.wear_spread", "count", Count, Lower),
    // bloom
    layer("bloom.insert.host_ns", "ns", Host, Lower),
    layer("bloom.contains_hit.host_ns", "ns", Host, Lower),
    layer("bloom.contains_miss.host_ns", "ns", Host, Lower),
    // compress
    layer("compress.encode.host_ns_p50", "ns", Host, Lower),
    layer("compress.decode.host_ns_p50", "ns", Host, Lower),
    layer("compress.lzf_compress.mb_per_s", "MB/s", Host, Higher),
    layer("compress.lzf_decompress.mb_per_s", "MB/s", Host, Higher),
    layer("compress.ratio_mean", "ratio", Count, Lower),
    layer("compress.pages", "count", Count, Lower),
    layer("compress.est_share", "ratio", Host, Lower),
    // kits
    layer("kits.time_query.host_ms", "ms", Host, Lower),
    layer("kits.time_query.sim_ms", "sim_ms", Virtual, Lower),
    layer("kits.time_query_all.host_ms", "ms", Host, Lower),
    layer("kits.time_query_all.sim_ms", "sim_ms", Virtual, Lower),
    layer("kits.addr_asof.host_ms", "ms", Host, Lower),
    layer("kits.addr_asof.sim_ms", "sim_ms", Virtual, Lower),
    layer("kits.addr_range.host_ms", "ms", Host, Lower),
    layer("kits.addr_range.sim_ms", "sim_ms", Virtual, Lower),
    layer("kits.addr_all.host_ms", "ms", Host, Lower),
    layer("kits.addr_all.sim_ms", "sim_ms", Virtual, Lower),
    layer("kits.rollback.host_ms", "ms", Host, Lower),
    layer("kits.rollback.sim_ms", "sim_ms", Virtual, Lower),
    layer("kits.versions_returned", "count", Count, Higher),
    layer("kits.lpas_per_hit", "ratio", Count, Lower),
    layer("kits.decompressions", "count", Count, Lower),
    layer("kits.flash_reads", "count", Count, Lower),
    layer("kits.scan_speedup_2t", "ratio", Host, Higher),
    layer("kits.recover.host_s", "s", Host, Lower),
    layer("kits.recover.sim_s", "sim_s", Virtual, Lower),
    layer("kits.recover.pages", "count", Count, Higher),
    // nvme
    layer("nvme.cmds", "count", Count, Higher),
    layer("nvme.host_ns_per_cmd", "ns", Host, Lower),
    layer("nvme.submit.host_ns_p50", "ns", Host, Lower),
    layer("nvme.poll.host_ns_p50", "ns", Host, Lower),
    layer("nvme.poll.calls", "count", Count, Lower),
    layer("nvme.queue_full_waits", "count", Count, Lower),
    layer("nvme.ooo_completions", "count", Count, Higher),
    layer("nvme.peak_outstanding", "count", Count, Higher),
    layer("nvme.sqe_roundtrip.host_ns", "ns", Host, Lower),
    layer("nvme.overhead_share", "ratio", Host, Lower),
    // fs
    layer("fs.self_host_s", "s", Host, Lower),
    layer("fs.write_amp", "ratio", Count, Lower),
    layer("fs.files", "count", Count, Higher),
    layer("fs.device_ops", "count", Count, Lower),
];

/// Looks a metric up in either list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_caps_meet_the_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "bad metric name {:?}", m.name);
            assert!(unit_ok(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        for (name, why) in WORKLOADS {
            assert!(name_ok(name), "bad workload name {name:?}");
            assert!(seen.insert(name), "{name} used twice");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
        }
        assert!(!name_ok(".x") && !name_ok("a b") && !name_ok("") && !name_ok(&"x".repeat(65)));
        assert!(!unit_ok("ops per s") && !unit_ok("") && !unit_ok(&"u".repeat(17)));
    }

    #[test]
    fn bounds_meet_the_contract() {
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = find("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn benchmark_json_restates_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(RUN_SECONDS as f64)
        );
        let paths = doc.get("paths").unwrap().as_array().unwrap();
        assert_eq!(paths, [Value::Str("benchmark".into())]);

        let workloads = doc.get("workloads").unwrap().as_array().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(w.as_object().unwrap().len(), 2);
            assert_eq!(w.get("name").unwrap().as_str(), Some(name));
            assert_eq!(w.get("why").unwrap().as_str(), Some(why));
        }
        for (key, table, members) in [("end_to_end", END_TO_END, 4), ("per_layer", PER_LAYER, 3)] {
            let listed = doc.get(key).unwrap().as_array().unwrap();
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (j, m) in listed.iter().zip(table) {
                assert_eq!(j.as_object().unwrap().len(), members, "{} keys", m.name);
                assert_eq!(j.get("name").unwrap().as_str(), Some(m.name));
                assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit), "{}", m.name);
                assert_eq!(
                    j.get("better").unwrap().as_str(),
                    Some(m.better.label()),
                    "{}",
                    m.name
                );
                assert_eq!(
                    j.get("bound").and_then(Value::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
    }
}
