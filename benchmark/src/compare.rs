//! `--compare a.json b.json`: do two sets of runs agree within the
//! benchmark's own bounds?
//!
//! Each file holds report lines as `--out` appends them, one JSON object per
//! line. Runs are matched on (workload, seed, trace); several runs of one key
//! in a file are reduced to their median. Host-clock end-to-end metrics may
//! worsen from `a` to `b` by at most their bound, in their own direction;
//! virtual-clock metrics, counts and the flash digest must match exactly.
//! Host-clock per-layer metrics carry no bound and are printed only.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};
use crate::spec::{self, Better};
use crate::stats;

/// `(workload, seed, traced)`.
type Key = (String, String, bool);

#[derive(Debug, Default)]
struct Runs {
    digests: Vec<String>,
    /// Values per metric name, one per run.
    metrics: BTreeMap<String, Vec<f64>>,
}

fn load(path: &Path) -> Result<BTreeMap<Key, Runs>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut sets: BTreeMap<Key, Runs> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = format!("{}:{}", path.display(), n + 1);
        let doc = json::parse(line).map_err(|e| format!("{at}: {e}"))?;
        let text_of = |key: &str| {
            doc.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{at}: no \"{key}\""))
        };
        let flag = |key: &str| {
            doc.get(key)
                .and_then(Value::as_bool)
                .ok_or_else(|| format!("{at}: no \"{key}\""))
        };
        if flag("quick")? {
            return Err(format!(
                "{at}: a --quick run checks wiring, not performance; it cannot be compared"
            ));
        }
        if !flag("correct")? {
            return Err(format!("{at}: the run failed its correctness gates"));
        }
        let runs = sets
            .entry((text_of("workload")?, text_of("seed")?, flag("trace")?))
            .or_default();
        runs.digests.push(text_of("digest")?);
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{at}: no \"metrics\""))?;
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{at}: metric {name} has no value"))?;
            runs.metrics.entry(name.clone()).or_default().push(v);
        }
    }
    Ok(sets)
}

/// Share by which `b` is worse than `a` in the metric's direction (negative
/// when better). The ratio's base is `a`.
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Prints one row per (workload, metric); `Ok(true)` when every row is
/// within bounds.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (set_a, set_b) = (load(a)?, load(b)?);
    let mut ok = true;
    let mut matched = 0;
    println!(
        "{:<16} {:<36} {:>20} {:>20} {:>10} {:>8}  verdict",
        "workload", "metric", "a", "b", "b vs a", "bound"
    );
    for (key, runs_a) in &set_a {
        let Some(runs_b) = set_b.get(key) else {
            println!(
                "{:<16} seed {} trace {}: only in {}",
                key.0,
                key.1,
                key.2,
                a.display()
            );
            ok = false;
            continue;
        };
        matched += 1;
        let same_digest = runs_a
            .digests
            .iter()
            .chain(&runs_b.digests)
            .all(|d| d == &runs_a.digests[0]);
        ok &= same_digest;
        println!(
            "{:<16} {:<36} {:>20} {:>20} {:>10} {:>8}  {}",
            key.0,
            "digest",
            runs_a.digests[0],
            runs_b.digests[0],
            "",
            "exact",
            if same_digest { "ok" } else { "DIFFERS" }
        );
        for (name, values_a) in &runs_a.metrics {
            let Some(m) = spec::find(name) else {
                return Err(format!("metric {name} is not in the spec"));
            };
            let Some(values_b) = runs_b.metrics.get(name) else {
                println!("{:<16} {name}: only in {}", key.0, a.display());
                ok = false;
                continue;
            };
            let (va, vb) = (stats::median(values_a), stats::median(values_b));
            let (bound, verdict) = if m.clock.deterministic() {
                let same = values_a.iter().chain(values_b).all(|v| *v == values_a[0]);
                ("exact".to_string(), if same { "ok" } else { "DIFFERS" })
            } else if let Some(bound) = m.bound {
                let within = va > 0.0 && worsening(m.better, va, vb) <= bound;
                (
                    format!("{:.1}%", bound * 100.0),
                    if within { "ok" } else { "WORSE" },
                )
            } else {
                ("-".to_string(), "")
            };
            ok &= verdict == "ok" || verdict.is_empty();
            let change = if va != 0.0 {
                format!("{:+.2}%", (vb - va) / va * 100.0)
            } else {
                "-".to_string()
            };
            println!(
                "{:<16} {:<36} {:>20} {:>20} {:>10} {:>8}  {verdict}",
                key.0,
                name,
                json::num(va),
                json::num(vb),
                change,
                bound
            );
        }
    }
    for key in set_b.keys().filter(|k| !set_a.contains_key(*k)) {
        println!(
            "{:<16} seed {} trace {}: only in {}",
            key.0,
            key.1,
            key.2,
            b.display()
        );
        ok = false;
    }
    if matched == 0 {
        return Err("the two files share no (workload, seed, trace) run".to_string());
    }
    println!("base of every ratio: a = {}", a.display());
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(host_ops: f64, p99: f64, digest: &str, quick: bool) -> String {
        format!(
            "{{\"workload\":\"replay_regular\",\"seed\":\"42\",\"trace\":false,\"quick\":{quick},\"digest\":\"{digest}\",\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{\"host_ops_per_s\":{{\"value\":{host_ops},\"unit\":\"ops/s\"}},\"sim_write_p99_us\":{{\"value\":{p99},\"unit\":\"us\"}}}}}}\n"
        )
    }

    fn verdict(name: &str, a: &str, b: &str) -> Result<bool, String> {
        let dir =
            std::env::temp_dir().join(format!("almanac-compare-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (pa, pb) = (dir.join("a.json"), dir.join("b.json"));
        std::fs::write(&pa, a).unwrap();
        std::fs::write(&pb, b).unwrap();
        let out = compare(&pa, &pb);
        std::fs::remove_dir_all(&dir).unwrap();
        out
    }

    #[test]
    fn host_metrics_use_direction_and_bound() {
        let a = line(1000.0, 5.0, "0x1", false);
        let bound = spec::find("host_ops_per_s").unwrap().bound.unwrap();
        // Higher is better: slower by less than the bound passes, by more
        // fails, faster always passes.
        let slower = |share: f64| line(1000.0 * (1.0 - share), 5.0, "0x1", false);
        assert_eq!(verdict("in", &a, &slower(bound - 0.01)), Ok(true));
        assert_eq!(verdict("out", &a, &slower(bound + 0.01)), Ok(false));
        assert_eq!(
            verdict("up", &a, &line(2000.0, 5.0, "0x1", false)),
            Ok(true)
        );
    }

    #[test]
    fn virtual_metrics_and_digest_must_match_exactly() {
        let a = line(1000.0, 5.0, "0x1", false);
        assert_eq!(
            verdict("sim", &a, &line(1000.0, 5.000001, "0x1", false)),
            Ok(false)
        );
        assert_eq!(
            verdict("dig", &a, &line(1000.0, 5.0, "0x2", false)),
            Ok(false)
        );
    }

    #[test]
    fn repeated_runs_reduce_to_their_median() {
        let a = [
            line(1000.0, 5.0, "0x1", false),
            line(400.0, 5.0, "0x1", false),
            line(1010.0, 5.0, "0x1", false),
        ]
        .concat();
        assert_eq!(
            verdict("med", &a, &line(990.0, 5.0, "0x1", false)),
            Ok(true)
        );
    }

    #[test]
    fn quick_runs_and_disjoint_sets_are_refused() {
        let a = line(1000.0, 5.0, "0x1", false);
        assert!(verdict("quick", &a, &line(1000.0, 5.0, "0x1", true)).is_err());
        let other = a.replace("replay_regular", "nvme_qd16");
        assert!(verdict("disjoint", &a, &other).is_err());
        assert!(verdict("junk", &a, "not json\n").is_err());
    }
}
