//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (§5).
//!
//! [`FIGURES`] is the harness: one row per figure, each printing the same
//! rows/series the paper reports and returning its timed cells. The one
//! binary, `all`, loops over the table (`--only <name>[,<name>…]` filters
//! it). The simulated device is a 512 MiB, 8-channel scale-down of the
//! paper's 1 TB Cosmos+ board, and workload volumes are expressed as device
//! fractions so the shapes (who wins, by how much, where crossovers fall)
//! carry over.
//!
//! Environment knobs:
//!
//! - `ALMANAC_FAST=1` — shrink day counts / op counts for smoke runs.
//! - `ALMANAC_JOBS=N` — worker count for the parallel experiment engine
//!   ([`engine`]); `1` reproduces the serial harness byte-for-byte, unset
//!   defaults to the machine's available parallelism.
//! - `ALMANAC_BENCH_OUT=path` — override the `BENCH_<selection>.json`
//!   report path ([`report`]).

#![warn(missing_docs, unreachable_pub)]

use almanac_bloom::ChainConfig;
use almanac_core::{RegularSsd, SsdConfig, SsdDevice, TimeSsd};
use almanac_flash::{Geometry, Lpa, Nanos, PageData, DAY_NS, MS_NS, SEC_NS};
use almanac_trace::{replay_with_sampler, ReplayReport, Trace};
use almanac_workloads::{fiu_profiles, msr_profiles, TraceProfile};

use report::{CellRecord, FigureRecord};

pub mod ablate;
pub mod barrierlat;
pub mod engine;
pub mod fig10;
pub mod fig11;
pub mod fig6_7;
pub mod fig8;
pub mod fig9;
pub mod lifetime;
pub mod qdscale;
pub mod report;
pub mod shardscale;
pub mod table3;
pub mod trimwa;

/// One row of the harness: a figure's name and the function that runs it.
#[derive(Debug)]
pub struct Figure {
    /// The name `--only` selects it by.
    pub name: &'static str,
    /// Runs the figure at a seed: prints its tables to stdout and returns
    /// its timed sections for the `BENCH_*.json` report.
    pub run: fn(u64) -> Vec<FigureRecord>,
}

/// The row of a module with the uniform table shape: `run(seed)` measures
/// the rows, `print(&rows)` prints them, `cells(&rows)` reports them.
macro_rules! tabulated {
    ($name:literal, $module:ident) => {
        Figure {
            name: $name,
            run: |seed| {
                vec![section($name, || {
                    let rows = $module::run(seed);
                    $module::print(&rows);
                    $module::cells(&rows)
                })]
            },
        }
    };
}

/// Every figure and table the harness regenerates, in the order `all`
/// prints them: the paper's Figures 6–11, the four extension tables,
/// Table 3, then the ablation and lifetime extensions.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig6_7",
        run: fig6_7,
    },
    Figure {
        name: "fig8",
        run: fig8,
    },
    Figure {
        name: "fig9",
        run: fig9,
    },
    Figure {
        name: "fig10",
        run: fig10,
    },
    Figure {
        name: "fig11",
        run: fig11,
    },
    tabulated!("trim_wa", trimwa),
    tabulated!("barrierlat", barrierlat),
    tabulated!("qdscale", qdscale),
    tabulated!("shardscale", shardscale),
    Figure {
        name: "table3",
        run: table3,
    },
    Figure {
        name: "ablate",
        run: |seed| vec![section("ablate", || ablate::run_and_print(seed))],
    },
    tabulated!("lifetime", lifetime),
];

/// The rows of [`FIGURES`] named in the comma-separated `only`, in table
/// order; the first name that matches no row is the error.
pub fn select(only: &str) -> Result<Vec<&'static Figure>, String> {
    let names: Vec<&str> = only.split(',').collect();
    match names.iter().find(|n| FIGURES.iter().all(|f| f.name != **n)) {
        Some(unknown) => Err(unknown.to_string()),
        None => Ok(FIGURES.iter().filter(|f| names.contains(&f.name)).collect()),
    }
}

/// Runs one section of a figure, timing it into its record.
fn section(name: impl Into<String>, run: impl FnOnce() -> Vec<CellRecord>) -> FigureRecord {
    let t = engine::timed(run);
    FigureRecord {
        name: name.into(),
        wall_ms: t.wall_ms,
        cells: t.value,
    }
}

fn fig6_7(seed: u64) -> Vec<FigureRecord> {
    let days = if fast_mode() { 2 } else { 7 };
    [0.5, 0.8]
        .into_iter()
        .map(|usage| {
            section(format!("fig6_7@u{:.0}", usage * 100.0), || {
                let (rows, cells) = fig6_7::run_with_timings(usage, days, seed);
                fig6_7::print_fig6(usage, &rows);
                fig6_7::print_fig7(usage, &rows);
                cells
            })
        })
        .collect()
}

fn fig8(seed: u64) -> Vec<FigureRecord> {
    let (msr_lengths, fiu_lengths): (&[u32], &[u32]) = if fast_mode() {
        (&[7, 14], &[5, 10])
    } else {
        (&[28, 42, 56, 63], &[20, 30, 40])
    };
    [0.8, 0.5]
        .into_iter()
        .map(|usage| {
            section(format!("fig8@u{:.0}", usage * 100.0), || {
                let mut cells =
                    fig8::run_and_print("MSR", &msr_profiles(), usage, msr_lengths, seed);
                cells.extend(fig8::run_and_print(
                    "FIU",
                    &fiu_profiles(),
                    usage,
                    fiu_lengths,
                    seed,
                ));
                cells
            })
        })
        .collect()
}

fn fig9(seed: u64) -> Vec<FigureRecord> {
    vec![section("fig9", || {
        let a = fig9::run_fig9a(seed);
        fig9::print_panel("Figure 9a: IOZone (normalized speedup over Ext4)", &a);
        let b = fig9::run_fig9b(seed);
        fig9::print_panel(
            "Figure 9b: PostMark and OLTP (normalized speedup over Ext4)",
            &b,
        );
        Vec::new()
    })]
}

fn fig10(seed: u64) -> Vec<FigureRecord> {
    vec![section("fig10", || {
        fig10::print(&fig10::run(seed));
        Vec::new()
    })]
}

fn fig11(seed: u64) -> Vec<FigureRecord> {
    vec![section("fig11", || {
        fig11::print(&fig11::run(seed));
        Vec::new()
    })]
}

fn table3(seed: u64) -> Vec<FigureRecord> {
    vec![section("table3", || {
        let (rows, cells) = table3::run_with_timings(seed);
        table3::print(&rows);
        cells
    })]
}

/// True when the fast (smoke-test) mode is requested.
pub fn fast_mode() -> bool {
    std::env::var("ALMANAC_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The benchmark SSD configuration: bench geometry with Bloom segments
/// sized so a segment covers a few hours of heavy traffic.
pub fn bench_config() -> SsdConfig {
    SsdConfig::new(Geometry::bench()).with_bloom(ChainConfig {
        bits_per_filter: 1 << 17,
        hashes: 4,
        capacity: 8192,
    })
}

/// A fresh TimeSSD with the benchmark configuration.
pub fn make_timessd() -> TimeSsd {
    TimeSsd::new(bench_config())
}

/// A fresh regular SSD with the benchmark configuration.
pub fn make_regular() -> RegularSsd {
    RegularSsd::new(bench_config())
}

/// Pre-fills `usage` of the exported space with valid data, spaced so the
/// device keeps up; returns the virtual end time of the warm-up.
pub fn warm_fill<D: SsdDevice>(dev: &mut D, usage: f64) -> Nanos {
    let pages = (dev.exported_pages() as f64 * usage) as u64;
    let gap = 700_000; // ≈ device write service time, keeps the queue short
    let mut end = 0;
    for i in 0..pages {
        let c = dev
            .write(
                Lpa(i),
                PageData::Synthetic {
                    seed: i,
                    version: 0,
                },
                i * gap,
            )
            .expect("warm fill must fit");
        end = end.max(c.finish);
    }
    end
}

/// Generates a profile's trace clamped to the usage level and shifted past
/// the warm-up.
pub fn profile_trace(
    profile: &TraceProfile,
    days: u32,
    usage: f64,
    exported: u64,
    offset: Nanos,
    seed: u64,
) -> Trace {
    let mut p = *profile;
    p.working_set = p.working_set.min(usage);
    p.generate(days, exported, seed).shifted(offset)
}

/// Replays a profile on one device after warming it to `usage`, sampling
/// the retention window; returns the report and the samples
/// `(virtual time, window)`.
pub fn run_profile<D: SsdDevice>(
    dev: &mut D,
    profile: &TraceProfile,
    days: u32,
    usage: f64,
    seed: u64,
    sample: impl FnMut(&D, Nanos),
) -> ReplayReport {
    let warm_end = warm_fill(dev, usage);
    run_profile_warm(dev, warm_end, profile, days, usage, seed, sample)
}

/// Like [`run_profile`], but on a device that was already warm-filled to
/// `usage` (ending at virtual time `warm_end`) — e.g. a clone from the
/// [`engine::WarmCache`]. The replay is identical to warming in place.
pub fn run_profile_warm<D: SsdDevice>(
    dev: &mut D,
    warm_end: Nanos,
    profile: &TraceProfile,
    days: u32,
    usage: f64,
    seed: u64,
    mut sample: impl FnMut(&D, Nanos),
) -> ReplayReport {
    let trace = profile_trace(
        profile,
        days,
        usage,
        dev.exported_pages(),
        warm_end + SEC_NS,
        seed,
    );
    replay_with_sampler(&trace, dev, |d, now| sample(d, now)).expect("replay failed")
}

/// Retention-window sampler for the `run_profile*` callback: keeps every
/// 64th request's window and condenses them to the steady-state mean (the
/// second half of the run).
#[derive(Debug, Default)]
pub struct WindowSampler {
    seen: u64,
    samples: Vec<Nanos>,
}

impl WindowSampler {
    /// The `run_profile*` sampling callback.
    pub fn sample(&mut self, ssd: &TimeSsd, now: Nanos) {
        self.seen += 1;
        if self.seen.is_multiple_of(64) {
            self.samples.push(ssd.retention_window(now));
        }
    }

    /// Mean window over the second half of the samples, ns (0 with none).
    pub fn steady_mean_ns(&self) -> f64 {
        let steady = &self.samples[self.samples.len() / 2..];
        if steady.is_empty() {
            0.0
        } else {
            steady.iter().sum::<Nanos>() as f64 / steady.len() as f64
        }
    }
}

/// Formats nanoseconds as milliseconds with two decimals.
pub fn fmt_ms(ns: f64) -> String {
    format!("{:.2}", ns / MS_NS as f64)
}

/// Formats nanoseconds as days with one decimal.
pub fn fmt_days(ns: f64) -> String {
    format!("{:.1}", ns / DAY_NS as f64)
}

/// Prints a fixed-width table: a header row then data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        println!("{}", line.trim_end());
    };
    fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    fmt_row(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        fmt_row(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almanac_core::SsdReadOps;
    use almanac_workloads::profiles;

    #[test]
    fn figure_names_are_unique_and_individually_selectable() {
        for (i, figure) in FIGURES.iter().enumerate() {
            assert!(!figure.name.is_empty());
            assert!(FIGURES[..i].iter().all(|f| f.name != figure.name));
            let alone: Vec<&str> = select(figure.name)
                .unwrap()
                .iter()
                .map(|f| f.name)
                .collect();
            assert_eq!(alone, [figure.name]);
        }
        let every: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(select(&every.join(",")).unwrap().len(), FIGURES.len());
    }

    #[test]
    fn selection_keeps_table_order_and_rejects_unknown_names() {
        let picked = select("lifetime,table3").unwrap();
        let names: Vec<&str> = picked.iter().map(|f| f.name).collect();
        assert_eq!(names, ["table3", "lifetime"]);
        assert_eq!(select("fig9,nope").unwrap_err(), "nope");
        assert_eq!(select("").unwrap_err(), "");
    }

    #[test]
    fn warm_fill_reaches_usage() {
        let mut ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
        warm_fill(&mut ssd, 0.5);
        let expect = (ssd.exported_pages() as f64 * 0.5) as u64;
        assert_eq!(ssd.stats().user_writes, expect);
    }

    #[test]
    fn run_profile_produces_report() {
        let mut ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
        let p = profiles::profile_by_name("webusers").unwrap();
        let report = run_profile(&mut ssd, &p, 1, 0.5, 42, |_, _| {});
        assert!(report.user_writes > 0);
        assert!(!report.stalled);
    }

    #[test]
    fn tables_format_without_panicking() {
        print_table(
            "test",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert_eq!(fmt_ms(1_500_000.0), "1.50");
        assert_eq!(fmt_days(DAY_NS as f64 * 2.5), "2.5");
    }
}
