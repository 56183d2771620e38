//! Figure 8: data retention duration of TimeSSD under different workloads,
//! trace lengths, and capacity usages.

use almanac_flash::DAY_NS;
use almanac_workloads::TraceProfile;

use crate::engine::{self, timed, Timed};
use crate::report::CellRecord;
use crate::{print_table, run_profile_warm, WindowSampler};

/// Retention achieved by one trace at one length.
#[derive(Debug, Clone)]
pub struct Point {
    /// Trace length in days.
    pub days: u32,
    /// Achieved retention duration in days (steady-state mean of the
    /// retention window over the second half of the run).
    pub retention_days: f64,
    /// Whether the device stalled during the run.
    pub stalled: bool,
}

/// Replays one (profile, length) cell and condenses the retention samples
/// into a [`Point`].
fn retention_cell(profile: TraceProfile, usage: f64, days: u32, seed: u64) -> Timed<Point> {
    timed(|| {
        let (mut ssd, warm_end) = engine::warm_cache().timessd(usage);
        let mut window = WindowSampler::default();
        let report = run_profile_warm(&mut ssd, warm_end, &profile, days, usage, seed, |d, now| {
            window.sample(d, now)
        });
        Point {
            days,
            retention_days: window.steady_mean_ns() / DAY_NS as f64,
            stalled: report.stalled,
        }
    })
}

/// Runs a whole suite (`profiles`), prints its Figure 8 panel and returns
/// the per-cell wall-clock records. The whole (profile × length) grid goes
/// to the experiment pool at once; results are regrouped per profile in
/// submission order, so the printed panel is independent of `ALMANAC_JOBS`.
pub fn run_and_print(
    title: &str,
    profiles: &[TraceProfile],
    usage: f64,
    lengths: &[u32],
    seed: u64,
) -> Vec<CellRecord> {
    let tasks: Vec<_> = profiles
        .iter()
        .flat_map(|profile| {
            let p = *profile;
            lengths
                .iter()
                .map(move |&days| move || retention_cell(p, usage, days, seed))
        })
        .collect();
    let timed_points = engine::run_pool(tasks);

    let mut results: Vec<(String, Vec<Point>)> = Vec::new();
    let mut cells: Vec<CellRecord> = Vec::new();
    for (profile, chunk) in profiles
        .iter()
        .zip(timed_points.chunks_exact(lengths.len()))
    {
        results.push((
            profile.name.to_string(),
            chunk.iter().map(|t| t.value.clone()).collect(),
        ));
        for t in chunk {
            cells.push(CellRecord {
                id: format!("{}@u{:.0}/{}d", profile.name, usage * 100.0, t.value.days),
                wall_ms: t.wall_ms,
                metrics: vec![
                    ("retention_days", t.value.retention_days),
                    ("stalled", f64::from(u8::from(t.value.stalled))),
                ],
            });
        }
    }

    let mut header: Vec<String> = vec!["trace".to_string()];
    header.extend(lengths.iter().map(|d| format!("{d}d")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(name, points)| {
            let mut row = vec![name.clone()];
            row.extend(points.iter().map(|pt| {
                if pt.stalled {
                    format!("{:.1}*", pt.retention_days)
                } else {
                    format!("{:.1}", pt.retention_days)
                }
            }));
            row
        })
        .collect();
    print_table(
        &format!(
            "Figure 8 ({title}): data retaining time (days) vs trace length, {:.0}% usage",
            usage * 100.0
        ),
        &header_refs,
        &rows,
    );
    cells
}
