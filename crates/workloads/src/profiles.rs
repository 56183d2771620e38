//! Calibrated synthetic MSR Cambridge and FIU trace generators.
//!
//! The MSR traces \[25\] are week-long block traces from enterprise servers;
//! the FIU traces \[9\] are ~20-day traces from university department
//! computers. Both are unavailable as redistributable artifacts and carry no
//! data content, so we regenerate their *I/O signatures*: per-volume write
//! ratio, relative daily intensity, request-size mix, sequentiality, address
//! skew, and a diurnal arrival pattern. Daily write volume is expressed as a
//! fraction of the simulated device per day, so the generator scales with
//! geometry exactly like the paper's month-long prolonged traces scale with
//! their 1 TB board.

use almanac_flash::{fnv1a, Nanos, DAY_NS, FNV_OFFSET};
use almanac_trace::{Trace, TraceOp, TraceRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The I/O signature of one traced volume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceProfile {
    /// Volume name as the paper labels it.
    pub name: &'static str,
    /// Fraction of requests that are writes.
    pub write_ratio: f64,
    /// Daily written volume as a fraction of the device's exported pages.
    pub daily_write_fraction: f64,
    /// Fraction of the exported space the workload ever touches.
    pub working_set: f64,
    /// Probability that a request continues the previous one sequentially.
    pub seq_fraction: f64,
    /// Mean request size in pages (geometric distribution).
    pub req_pages_mean: f64,
    /// Fraction of the working set that is "hot".
    pub hot_fraction: f64,
    /// Fraction of non-sequential accesses that land in the hot set.
    pub hot_weight: f64,
}

/// The seven MSR Cambridge volumes used in Figures 6–8.
///
/// Write ratios follow the published trace characteristics; daily volumes
/// are scaled so the most write-intensive volumes (usr, src) pressure the
/// retention window hardest, reproducing the ordering of Figure 8.
pub fn msr_profiles() -> Vec<TraceProfile> {
    vec![
        TraceProfile {
            name: "hm",
            write_ratio: 0.64,
            daily_write_fraction: 0.120,
            working_set: 0.125,
            seq_fraction: 0.25,
            req_pages_mean: 2.5,
            hot_fraction: 0.15,
            hot_weight: 0.80,
        },
        TraceProfile {
            name: "rsrch",
            write_ratio: 0.91,
            daily_write_fraction: 0.072,
            working_set: 0.075,
            seq_fraction: 0.20,
            req_pages_mean: 2.2,
            hot_fraction: 0.10,
            hot_weight: 0.85,
        },
        TraceProfile {
            name: "src",
            write_ratio: 0.89,
            daily_write_fraction: 0.130,
            working_set: 0.150,
            seq_fraction: 0.45,
            req_pages_mean: 4.0,
            hot_fraction: 0.20,
            hot_weight: 0.70,
        },
        TraceProfile {
            name: "stg",
            write_ratio: 0.85,
            daily_write_fraction: 0.108,
            working_set: 0.125,
            seq_fraction: 0.40,
            req_pages_mean: 3.0,
            hot_fraction: 0.15,
            hot_weight: 0.75,
        },
        TraceProfile {
            name: "ts",
            write_ratio: 0.82,
            daily_write_fraction: 0.096,
            working_set: 0.100,
            seq_fraction: 0.30,
            req_pages_mean: 2.5,
            hot_fraction: 0.15,
            hot_weight: 0.80,
        },
        TraceProfile {
            name: "usr",
            write_ratio: 0.60,
            daily_write_fraction: 0.160,
            working_set: 0.175,
            seq_fraction: 0.35,
            req_pages_mean: 3.5,
            hot_fraction: 0.25,
            hot_weight: 0.70,
        },
        TraceProfile {
            name: "wdev",
            write_ratio: 0.80,
            daily_write_fraction: 0.084,
            working_set: 0.090,
            seq_fraction: 0.25,
            req_pages_mean: 2.0,
            hot_fraction: 0.10,
            hot_weight: 0.85,
        },
    ]
}

/// The five FIU department volumes used in Figures 6–8 (lighter,
/// university-class workloads — the paper retains their data up to 40 days).
pub fn fiu_profiles() -> Vec<TraceProfile> {
    vec![
        TraceProfile {
            name: "research",
            write_ratio: 0.91,
            daily_write_fraction: 0.033,
            working_set: 0.060,
            seq_fraction: 0.20,
            req_pages_mean: 2.0,
            hot_fraction: 0.10,
            hot_weight: 0.85,
        },
        TraceProfile {
            name: "webmail",
            write_ratio: 0.93,
            daily_write_fraction: 0.045,
            working_set: 0.070,
            seq_fraction: 0.15,
            req_pages_mean: 1.8,
            hot_fraction: 0.12,
            hot_weight: 0.85,
        },
        TraceProfile {
            name: "online",
            write_ratio: 0.89,
            daily_write_fraction: 0.054,
            working_set: 0.075,
            seq_fraction: 0.20,
            req_pages_mean: 2.2,
            hot_fraction: 0.15,
            hot_weight: 0.80,
        },
        TraceProfile {
            name: "web-online",
            write_ratio: 0.90,
            daily_write_fraction: 0.039,
            working_set: 0.065,
            seq_fraction: 0.18,
            req_pages_mean: 2.0,
            hot_fraction: 0.12,
            hot_weight: 0.82,
        },
        TraceProfile {
            name: "webusers",
            write_ratio: 0.88,
            daily_write_fraction: 0.027,
            working_set: 0.050,
            seq_fraction: 0.15,
            req_pages_mean: 1.8,
            hot_fraction: 0.10,
            hot_weight: 0.85,
        },
    ]
}

/// Finds a profile by name across both suites.
pub fn profile_by_name(name: &str) -> Option<TraceProfile> {
    msr_profiles()
        .into_iter()
        .chain(fiu_profiles())
        .find(|p| p.name == name)
}

impl TraceProfile {
    /// Generates a `days`-long trace against a device of `lpa_space`
    /// exported pages.
    ///
    /// Arrivals follow a diurnal intensity curve (quiet nights, busy
    /// afternoons); addresses mix sequential runs with a hot/cold skew.
    pub fn generate(&self, days: u32, lpa_space: u64, seed: u64) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed ^ fnv1a(FNV_OFFSET, self.name.as_bytes()));
        let daily_write_pages = (self.daily_write_fraction * lpa_space as f64).max(1.0);
        let daily_requests =
            (daily_write_pages / (self.write_ratio * self.req_pages_mean)).max(1.0) as u64;
        let ws_pages = ((self.working_set * lpa_space as f64) as u64).max(16);
        let ws_base = 0u64;
        let hot_pages = ((self.hot_fraction * ws_pages as f64) as u64).max(1);

        let mut records = Vec::new();
        let mut seq_cursor: u64 = 0;
        for day in 0..days as u64 {
            // Split the day into hourly buckets with a diurnal weight.
            let weights: Vec<f64> = (0..24)
                .map(|h| 1.0 + 0.9 * (std::f64::consts::TAU * (h as f64 - 14.0) / 24.0).cos())
                .collect();
            let total_w: f64 = weights.iter().sum();
            for (hour, w) in weights.iter().enumerate() {
                let n = ((daily_requests as f64) * w / total_w).round() as u64;
                let hour_start = day * DAY_NS + hour as u64 * (DAY_NS / 24);
                for i in 0..n {
                    let at: Nanos =
                        hour_start + (i * (DAY_NS / 24) / n.max(1)) + rng.gen_range(0..1_000_000);
                    let is_write = rng.gen_bool(self.write_ratio);
                    let pages = sample_geometric(&mut rng, self.req_pages_mean).min(64);
                    let lpa = if rng.gen_bool(self.seq_fraction) {
                        seq_cursor = (seq_cursor + pages as u64) % ws_pages;
                        seq_cursor
                    } else if rng.gen_bool(self.hot_weight) {
                        rng.gen_range(0..hot_pages)
                    } else {
                        rng.gen_range(0..ws_pages)
                    };
                    records.push(TraceRecord {
                        at,
                        op: if is_write {
                            TraceOp::Write
                        } else {
                            TraceOp::Read
                        },
                        lpa: ws_base + lpa,
                        pages,
                    });
                }
            }
        }
        Trace::new(self.name, records)
    }
}

fn sample_geometric(rng: &mut StdRng, mean: f64) -> u32 {
    let p = 1.0 / mean.max(1.0);
    let mut n = 1u32;
    while !rng.gen_bool(p) && n < 64 {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_profiles_exist() {
        assert_eq!(msr_profiles().len(), 7);
        assert_eq!(fiu_profiles().len(), 5);
        assert!(profile_by_name("usr").is_some());
        assert!(profile_by_name("webmail").is_some());
        assert!(profile_by_name("nope").is_none());
    }

    #[test]
    fn generated_write_ratio_tracks_profile() {
        let p = profile_by_name("rsrch").unwrap();
        let t = p.generate(2, 100_000, 1);
        assert!((t.write_ratio() - p.write_ratio).abs() < 0.05);
    }

    #[test]
    fn generated_volume_tracks_daily_fraction() {
        let p = profile_by_name("hm").unwrap();
        let lpa_space = 100_000;
        let t = p.generate(4, lpa_space, 2);
        let per_day = t.write_pages() as f64 / 4.0;
        let expected = p.daily_write_fraction * lpa_space as f64;
        assert!(
            (per_day - expected).abs() / expected < 0.25,
            "daily write pages {per_day} vs expected {expected}"
        );
    }

    #[test]
    fn addresses_stay_in_working_set() {
        let p = profile_by_name("wdev").unwrap();
        let t = p.generate(1, 10_000, 3);
        let limit = (p.working_set * 10_000.0) as u64 + 64;
        assert!(t.records.iter().all(|r| r.lpa < limit));
    }

    #[test]
    fn generation_is_deterministic() {
        let p = profile_by_name("ts").unwrap();
        assert_eq!(p.generate(1, 1000, 9), p.generate(1, 1000, 9));
        assert_ne!(
            p.generate(1, 1000, 9).records,
            p.generate(1, 1000, 10).records
        );
    }

    #[test]
    fn duration_spans_requested_days() {
        let p = profile_by_name("online").unwrap();
        let t = p.generate(3, 10_000, 4);
        assert!(t.duration() > 2 * DAY_NS);
        assert!(t.duration() <= 3 * DAY_NS);
    }

    #[test]
    fn intensity_ordering_preserved() {
        // usr writes more per day than webusers by an order of magnitude.
        let usr = profile_by_name("usr").unwrap().generate(1, 100_000, 5);
        let webusers = profile_by_name("webusers").unwrap().generate(1, 100_000, 5);
        assert!(usr.write_pages() > 4 * webusers.write_pages());
    }
}
