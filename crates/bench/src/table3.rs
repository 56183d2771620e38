//! Table 3: execution time of the TimeKits storage-state queries across the
//! 12 trace workloads.
//!
//! As in §5.4: warm the device with the workload, then run `TimeQuery`
//! (state one day ago), `AddrQueryAll` (all retained versions of a random
//! LPA), and `RollBack` (revert that LPA), reporting each operation's
//! virtual execution time.

use almanac_core::SsdReadOps;
use almanac_flash::{Lpa, Nanos, DAY_NS};
use almanac_workloads::{fiu_profiles, msr_profiles, TraceProfile};

use crate::engine::{self, timed, Timed};
use crate::report::CellRecord;
use crate::{fast_mode, print_table, run_profile_warm};

/// Query timings for one workload.
#[derive(Debug, Clone)]
pub struct Row {
    /// Trace name.
    pub trace: String,
    /// `TimeQuery` latency, ns.
    pub time_query_ns: Nanos,
    /// `AddrQueryAll` latency, ns.
    pub addr_query_all_ns: Nanos,
    /// `RollBack` latency, ns.
    pub rollback_ns: Nanos,
}

/// Device channels available for query parallelism.
const QUERY_THREADS: u32 = 8;

/// Warms one workload's device and measures the three queries — one
/// independent cell of the Table 3 column.
fn query_cell(profile: TraceProfile, days: u32, usage: f64, seed: u64) -> Timed<Row> {
    timed(|| {
        let (mut ssd, warm_end) = engine::warm_cache().timessd(usage);
        let mut last_at = 0;
        let report = run_profile_warm(&mut ssd, warm_end, &profile, days, usage, seed, |_, now| {
            last_at = now;
        });
        assert!(!report.stalled, "{} stalled during warm-up", profile.name);
        let one_day_ago = last_at.saturating_sub(DAY_NS);

        let kits = almanac_kits::TimeKits::new(&mut ssd).with_threads(QUERY_THREADS);
        let (_, tq_cost) = kits.time_query(one_day_ago);
        let time_query_ns = tq_cost.makespan(QUERY_THREADS);

        // A random-but-deterministic LPA with history.
        let lpa = pick_lpa_with_history(kits.ssd(), seed);
        let aq = kits.query(lpa, 1).all_versions().run().unwrap();
        let addr_query_all_ns = aq.cost.makespan(1);

        let mut kits = almanac_kits::TimeKits::new(&mut ssd);
        let before = kits.ssd().config().latency;
        let out = kits.roll_back(lpa, 1, one_day_ago, last_at).unwrap();
        // Rollback latency: retrieval makespan plus the write-back.
        let rollback_ns = out.cost.makespan(1) + before.program_total();

        Row {
            trace: profile.name.to_string(),
            time_query_ns,
            addr_query_all_ns,
            rollback_ns,
        }
    })
}

/// Runs all 12 workloads and measures the three queries on each, returning
/// the rows and the per-cell wall-clock records. Cells run on the experiment
/// pool and come back in workload order, so the table is independent of
/// `ALMANAC_JOBS`.
pub fn run_with_timings(seed: u64) -> (Vec<Row>, Vec<CellRecord>) {
    let days = if fast_mode() { 1 } else { 3 };
    let usage = 0.5;
    let tasks: Vec<_> = msr_profiles()
        .into_iter()
        .chain(fiu_profiles())
        .map(|profile| move || query_cell(profile, days, usage, seed))
        .collect();
    let results = engine::run_pool(tasks);
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for t in results {
        cells.push(CellRecord {
            id: format!("{}@u{:.0}/queries", t.value.trace, usage * 100.0),
            wall_ms: t.wall_ms,
            metrics: vec![
                ("time_query_ns", t.value.time_query_ns as f64),
                ("addr_query_all_ns", t.value.addr_query_all_ns as f64),
                ("rollback_ns", t.value.rollback_ns as f64),
            ],
        });
        rows.push(t.value);
    }
    (rows, cells)
}

fn pick_lpa_with_history(ssd: &almanac_core::TimeSsd, seed: u64) -> Lpa {
    let exported = ssd.exported_pages();
    let mut candidate = seed % exported;
    for _ in 0..exported {
        if ssd.version_chain(Lpa(candidate)).len() > 1 {
            return Lpa(candidate);
        }
        candidate = (candidate + 1) % exported;
    }
    Lpa(0)
}

/// Prints the Table 3 rows.
pub fn print(rows: &[Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.trace.clone(),
                format!("{:.2}", r.time_query_ns as f64 / 1e9),
                format!("{:.1}", r.addr_query_all_ns as f64 / 1e6),
                format!("{:.1}", r.rollback_ns as f64 / 1e6),
            ]
        })
        .collect();
    print_table(
        "Table 3: storage-state query execution time",
        &[
            "trace",
            "TimeQuery (s)",
            "AddrQueryAll (ms)",
            "RollBack (ms)",
        ],
        &table,
    );
}
