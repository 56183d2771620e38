//! Ablation study of TimeSSD's design choices (beyond the paper's figures).
//!
//! Sweeps the knobs DESIGN.md calls out — invalidation group size (§3.5),
//! Bloom-segment capacity, the Equation-1 threshold `TH` (§3.4), the idle
//! threshold for background compression (§3.6), and delta compression
//! effectiveness (synthetic ratio) — and reports their effect on response
//! time, write amplification, and the achieved retention window.

use almanac_core::{SsdConfig, SsdReadOps, TimeSsd};
use almanac_flash::{DAY_NS, MS_NS};
use almanac_workloads::profiles;

use crate::report::CellRecord;
use crate::{
    bench_config, engine, fast_mode, fmt_days, fmt_ms, print_table, run_profile, WindowSampler,
};

/// One configuration's measurements on the shared `hm` replay.
struct Outcome {
    label: String,
    avg_response_ns: f64,
    wa: f64,
    /// Steady-state mean of the retention window, ns.
    retention_ns: f64,
    dropped: u64,
}

fn measure(label: String, cfg: SsdConfig, seed: u64) -> Outcome {
    let profile = profiles::profile_by_name("hm").expect("hm is a calibrated profile");
    let days = if fast_mode() { 2 } else { 14 };
    let mut ssd = TimeSsd::new(cfg);
    let mut window = WindowSampler::default();
    let report = run_profile(&mut ssd, &profile, days, 0.8, seed, |d, now| {
        window.sample(d, now)
    });
    Outcome {
        label,
        avg_response_ns: report.avg_response_ns,
        wa: report.write_amplification,
        retention_ns: window.steady_mean_ns(),
        dropped: ssd.stats().filters_dropped,
    }
}

/// Measures one knob's settings on the experiment pool, prints their table
/// and returns one cell per setting.
fn sweep<T>(
    title: &str,
    settings: impl IntoIterator<Item = T>,
    seed: u64,
    config: impl Fn(T) -> (String, SsdConfig),
) -> Vec<CellRecord> {
    let tasks: Vec<_> = settings
        .into_iter()
        .map(|s| {
            let (label, cfg) = config(s);
            move || measure(label, cfg, seed)
        })
        .collect();
    let outcomes = engine::run_pool(tasks);
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.label.clone(),
                fmt_ms(o.avg_response_ns),
                format!("{:.3}", o.wa),
                fmt_days(o.retention_ns),
                o.dropped.to_string(),
            ]
        })
        .collect();
    print_table(
        title,
        &["config", "avg resp (ms)", "WA", "retention (d)", "drops"],
        &rows,
    );
    outcomes
        .into_iter()
        .map(|o| CellRecord {
            id: format!("ablate/{}", o.label),
            wall_ms: 0.0,
            metrics: vec![
                ("avg_response_ns", o.avg_response_ns),
                ("write_amplification", o.wa),
                ("retention_days", o.retention_ns / DAY_NS as f64),
                ("filters_dropped", o.dropped as f64),
            ],
        })
        .collect()
}

/// Runs the five sweeps, printing one table each; returns every setting's
/// cell.
pub fn run_and_print(seed: u64) -> Vec<CellRecord> {
    // 1. Group size (§3.5): coarser groups = fewer Bloom insertions but more
    //    false retention.
    let title = "Ablation A: invalidation group size";
    let mut cells = sweep(title, [1u32, 4, 16, 64], seed, |g| {
        let mut cfg = bench_config();
        cfg.group_size = g;
        (format!("group={g}"), cfg)
    });

    // 2. Equation-1 threshold TH (§3.4): performance vs retention trade-off.
    let title = "Ablation B: GC-overhead threshold TH";
    cells.extend(sweep(title, [0.05f64, 0.2, 0.5, 1.0], seed, |th| {
        let mut cfg = bench_config();
        cfg.gc_overhead_threshold = th;
        (format!("TH={th}"), cfg)
    }));

    // 3. Idle threshold (§3.6): when background compression may run.
    let title = "Ablation C: background-compression idle threshold";
    cells.extend(sweep(title, [1u64, 10, 100, 10_000], seed, |ms| {
        let mut cfg = bench_config();
        cfg.idle_threshold = ms * MS_NS;
        (format!("idle>{ms}ms"), cfg)
    }));

    // 4. Delta compressibility: the paper's 0.05–0.25 real-world range plus
    //    a no-compression worst case.
    let title = "Ablation D: delta compression ratio";
    cells.extend(sweep(title, [0.05f64, 0.2, 0.5, 0.95], seed, |ratio| {
        let cfg = bench_config().with_synthetic_delta(ratio, 0.02);
        (format!("ratio={ratio}"), cfg)
    }));

    // 5. Bloom segment capacity: time-resolution of the retention window.
    let title = "Ablation E: Bloom segment capacity";
    cells.extend(sweep(title, [1024u64, 8192, 65536], seed, |cap| {
        let mut cfg = bench_config();
        cfg.bloom.capacity = cap;
        (format!("segment={cap}"), cfg)
    }));
    cells
}
