//! Figures 6 and 7: average I/O response time and write amplification of
//! TimeSSD vs. a regular SSD across the 12 MSR/FIU traces, at 50% and 80%
//! capacity usage. Both figures come from the same runs.

use almanac_trace::ReplayReport;
use almanac_workloads::{fiu_profiles, msr_profiles, TraceProfile};

use crate::engine::{self, timed, Timed};
use crate::report::CellRecord;
use crate::{fmt_ms, print_table, run_profile_warm};

/// One trace's measurements on both devices.
#[derive(Debug, Clone)]
pub struct Row {
    /// Trace name.
    pub trace: String,
    /// Regular SSD average response time, ns.
    pub regular_avg_ns: f64,
    /// TimeSSD average response time, ns.
    pub timessd_avg_ns: f64,
    /// Regular SSD write amplification.
    pub regular_wa: f64,
    /// TimeSSD write amplification.
    pub timessd_wa: f64,
    /// TimeSSD response-time overhead vs. regular, percent.
    pub overhead_pct: f64,
    /// Regular SSD p99 write latency, ns.
    pub regular_p99_ns: u64,
    /// TimeSSD p99 write latency, ns.
    pub timessd_p99_ns: u64,
    /// TimeSSD write-amplification increase vs. regular, percent.
    pub wa_increase_pct: f64,
}

/// Replays one trace on one warmed device clone — one independent cell of
/// the Figure 6/7 grid.
fn replay_cell(
    profile: TraceProfile,
    timessd: bool,
    usage: f64,
    days: u32,
    seed: u64,
) -> Timed<ReplayReport> {
    timed(|| {
        if timessd {
            let (mut dev, warm_end) = engine::warm_cache().timessd(usage);
            run_profile_warm(&mut dev, warm_end, &profile, days, usage, seed, |_, _| {})
        } else {
            let (mut dev, warm_end) = engine::warm_cache().regular(usage);
            run_profile_warm(&mut dev, warm_end, &profile, days, usage, seed, |_, _| {})
        }
    })
}

fn cell_record(profile: &TraceProfile, usage: f64, t: &Timed<ReplayReport>) -> CellRecord {
    CellRecord {
        id: format!("{}@u{:.0}/{}", profile.name, usage * 100.0, t.value.device),
        wall_ms: t.wall_ms,
        metrics: vec![
            ("avg_response_ns", t.value.avg_response_ns),
            ("avg_write_ns", t.value.avg_write_ns),
            ("avg_read_ns", t.value.avg_read_ns),
            ("p99_write_ns", t.value.p99_write_ns as f64),
            ("write_amplification", t.value.write_amplification),
            ("user_writes", t.value.user_writes as f64),
            ("user_reads", t.value.user_reads as f64),
            ("end_time_ns", t.value.end_time as f64),
        ],
    }
}

/// Runs all 12 traces at the given usage for `days` simulated days,
/// returning the rows and the per-cell wall-clock records for the
/// `BENCH_*.json` report. Cells run on the experiment pool; rows are
/// reassembled in trace order so output is independent of `ALMANAC_JOBS`.
pub fn run_with_timings(usage: f64, days: u32, seed: u64) -> (Vec<Row>, Vec<CellRecord>) {
    let profiles: Vec<TraceProfile> = msr_profiles().into_iter().chain(fiu_profiles()).collect();
    type Task<'a> = Box<dyn FnOnce() -> Timed<ReplayReport> + Send + 'a>;
    let tasks: Vec<Task> = profiles
        .iter()
        .flat_map(|profile| {
            let p = *profile;
            [
                Box::new(move || replay_cell(p, false, usage, days, seed)) as Task,
                Box::new(move || replay_cell(p, true, usage, days, seed)) as Task,
            ]
        })
        .collect();
    let results = engine::run_pool(tasks);

    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for (profile, pair) in profiles.iter().zip(results.chunks_exact(2)) {
        let (r_timed, t_timed) = (&pair[0], &pair[1]);
        let (r, t) = (&r_timed.value, &t_timed.value);
        let overhead = if r.avg_response_ns > 0.0 {
            (t.avg_response_ns / r.avg_response_ns - 1.0) * 100.0
        } else {
            0.0
        };
        let wa_inc = if r.write_amplification > 0.0 {
            (t.write_amplification / r.write_amplification - 1.0) * 100.0
        } else {
            0.0
        };
        rows.push(Row {
            trace: profile.name.to_string(),
            regular_avg_ns: r.avg_response_ns,
            timessd_avg_ns: t.avg_response_ns,
            regular_wa: r.write_amplification,
            timessd_wa: t.write_amplification,
            overhead_pct: overhead,
            wa_increase_pct: wa_inc,
            regular_p99_ns: r.p99_write_ns,
            timessd_p99_ns: t.p99_write_ns,
        });
        cells.push(cell_record(profile, usage, r_timed));
        cells.push(cell_record(profile, usage, t_timed));
    }
    (rows, cells)
}

/// Prints the Figure 6 table (response times).
pub fn print_fig6(usage: f64, rows: &[Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.trace.clone(),
                fmt_ms(r.regular_avg_ns),
                fmt_ms(r.timessd_avg_ns),
                format!("{:+.1}%", r.overhead_pct),
                fmt_ms(r.regular_p99_ns as f64),
                fmt_ms(r.timessd_p99_ns as f64),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Figure 6: avg I/O response time (ms), {:.0}% capacity usage              (p99 columns are an extension)",
            usage * 100.0
        ),
        &["trace", "Regular SSD", "TimeSSD", "overhead", "reg p99", "time p99"],
        &table,
    );
    let mean: f64 = rows.iter().map(|r| r.overhead_pct).sum::<f64>() / rows.len() as f64;
    println!("mean TimeSSD response-time overhead: {mean:+.1}%");
}

/// Prints the Figure 7 table (write amplification).
pub fn print_fig7(usage: f64, rows: &[Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.trace.clone(),
                format!("{:.3}", r.regular_wa),
                format!("{:.3}", r.timessd_wa),
                format!("{:+.1}%", r.wa_increase_pct),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Figure 7: write amplification, {:.0}% capacity usage",
            usage * 100.0
        ),
        &["trace", "Regular SSD", "TimeSSD", "increase"],
        &table,
    );
    let mean: f64 = rows.iter().map(|r| r.wa_increase_pct).sum::<f64>() / rows.len() as f64;
    println!("mean TimeSSD write-amplification increase: {mean:+.1}%");
}
