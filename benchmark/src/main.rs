//! The repo benchmark: five workloads, two clocks, per-layer numbers
//! measured from outside. See `benchmark/README.md`.

mod compare;
mod device;
mod json;
mod kernels;
mod layers;
mod recorder;
mod run;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use almanac_core::{RegularSsd, TimeSsd};

use run::{Args, Report};
use workloads::{nvme::NvmeQd16, query::QueryBattery, ransom::RansomRecover, replay::Replay};

const USAGE: &str = "usage:
  almanac-benchmark --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--quick] [--out <file>]
  almanac-benchmark --compare <a.json> <b.json>";

enum Command {
    Run(Args),
    Compare(PathBuf, PathBuf),
}

fn parse(argv: &[String]) -> Result<Command, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--compare" => {
                let (a, b) = (value()?, value()?);
                return Ok(Command::Compare(a.into(), b.into()));
            }
            "--workload" => args.workload = value()?.clone(),
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be between 0 and 3600".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("no --workload given".to_string());
    }
    Ok(Command::Run(args))
}

fn run_workload(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "replay_timessd" => run::run::<Replay<TimeSsd>>(args),
        "replay_regular" => run::run::<Replay<RegularSsd>>(args),
        "query_battery" => run::run::<QueryBattery>(args),
        "ransom_recover" => run::run::<RansomRecover>(args),
        "nvme_qd16" => run::run::<NvmeQd16>(args),
        other => {
            let known: Vec<&str> = spec::WORKLOADS.iter().map(|(name, _)| *name).collect();
            Err(format!(
                "unknown workload {other}; known: {}",
                known.join(" ")
            ))
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&argv).and_then(|command| match command {
        Command::Compare(a, b) => compare::compare(&a, &b),
        Command::Run(args) => {
            let report = run_workload(&args)?;
            report.print();
            if let Some(path) = &args.out {
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .and_then(|mut f| writeln!(f, "{}", report.report_line()))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
            // The driver reads the last line of standard output.
            println!("{}", report.result_line());
            Ok(report.correct)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("almanac-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::Clock;

    fn quick(workload: &str, seed: u64, trace: bool) -> Report {
        let args = Args {
            workload: workload.to_string(),
            seed,
            seconds: 0.0,
            trace,
            quick: true,
            out: None,
        };
        run_workload(&args).expect("run")
    }

    fn value(report: &Report, name: &str) -> f64 {
        let found = report.metrics.iter().find(|(m, _)| m.name == name);
        found.unwrap_or_else(|| panic!("{name} not reported")).1
    }

    /// Every metric two runs of one commit and seed must agree on exactly.
    fn exact(report: &Report) -> Vec<(&'static str, f64)> {
        let exact = report
            .metrics
            .iter()
            .filter(|(m, _)| m.clock.deterministic());
        exact.map(|(m, v)| (m.name, *v)).collect()
    }

    #[test]
    fn every_workload_passes_its_gates_at_a_second_seed() {
        for (workload, _) in spec::WORKLOADS {
            let report = quick(workload, 7, true);
            for g in &report.gates {
                assert!(g.ok, "{workload}: gate `{}` failed: {}", g.name, g.detail);
            }
            assert!(report.correct && report.failed == 0 && report.attempted > 0);
            // Every metric of the spec is reported, end-to-end ones never 0.
            assert_eq!(
                report.metrics.len(),
                spec::END_TO_END.len() + spec::PER_LAYER.len()
            );
            for m in spec::END_TO_END {
                let v = value(&report, m.name);
                assert!(v.is_finite() && v > 0.0, "{workload}: {} = {v}", m.name);
            }
            assert!(value(&report, "run.reps") == 1.0);
            assert!(value(&report, "flash.program.host_ns") > 0.0);
            assert!(report.span_file.as_ref().is_some_and(|p| p.exists()));

            let line = json::parse(&report.result_line()).unwrap();
            let keys: Vec<&str> = line
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let listed = line.get("metrics").unwrap().as_object().unwrap();
            let names: Vec<&str> = listed.iter().map(|(k, _)| k.as_str()).collect();
            let wanted: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(
                names, wanted,
                "--trace 1 lists exactly the per-layer metrics"
            );
            assert!(json::parse(&report.report_line()).is_ok());
        }
    }

    #[test]
    fn each_layer_does_its_work_where_the_spec_says() {
        let timessd = quick("replay_timessd", 7, true);
        let regular = quick("replay_regular", 7, true);
        // Same trace, same host traffic; only TimeSSD retains and compresses.
        for name in ["trace.page_ops", "core.write.calls", "core.read.calls"] {
            assert_eq!(value(&timessd, name), value(&regular, name), "{name}");
        }
        assert!(value(&timessd, "core.retention.filters_live_end") > 0.0);
        assert!(value(&timessd, "core.retention.window_days_mean") > 0.0);
        assert!(value(&timessd, "core.deltas.compressions_gc") > 0.0);
        for name in [
            "core.retention.filters_live_end",
            "core.retention.window_days_mean",
            "core.deltas.compressions_gc",
            "core.deltas.compressions_bg",
            "core.deltas.programs",
            "core.rebuild.host_s",
        ] {
            assert_eq!(value(&regular, name), 0.0, "replay_regular bypasses {name}");
        }
        // Synthetic pages never reach the codec; no queue, no fs.
        for name in [
            "compress.pages",
            "compress.encode.host_ns_p50",
            "nvme.cmds",
            "fs.files",
        ] {
            assert_eq!(value(&timessd, name), 0.0, "{name}");
        }
        let ransom = quick("ransom_recover", 7, true);
        for name in [
            "compress.pages",
            "compress.encode.host_ns_p50",
            "fs.files",
            "kits.recover.pages",
        ] {
            assert!(
                value(&ransom, name) > 0.0,
                "ransom_recover exercises {name}"
            );
        }
        let ratio = value(&ransom, "compress.ratio_mean");
        assert!(
            ratio > 0.0 && ratio < 1.01,
            "encoded / page bytes = {ratio}"
        );
        let nvme = quick("nvme_qd16", 7, true);
        for name in [
            "nvme.cmds",
            "nvme.ooo_completions",
            "nvme.queue_full_waits",
            "nvme.sqe_roundtrip.host_ns",
        ] {
            assert!(value(&nvme, name) > 0.0, "nvme_qd16 exercises {name}");
        }
        assert_eq!(value(&nvme, "nvme.peak_outstanding"), 16.0);
        let query = quick("query_battery", 7, true);
        for name in [
            "kits.versions_returned",
            "kits.flash_reads",
            "kits.rollback.sim_ms",
            "kits.scan_speedup_2t",
        ] {
            assert!(value(&query, name) > 0.0, "query_battery exercises {name}");
        }
    }

    #[test]
    fn runs_are_a_function_of_the_seed() {
        for workload in ["replay_regular", "nvme_qd16"] {
            let (a, b, other) = (
                quick(workload, 7, false),
                quick(workload, 7, false),
                quick(workload, 8, false),
            );
            assert_eq!(a.digest, b.digest, "{workload}");
            assert_eq!(exact(&a), exact(&b), "{workload}");
            assert_ne!(
                a.digest, other.digest,
                "{workload}: seed 8 must give other inputs"
            );
            assert!(exact(&a)
                .iter()
                .any(|(name, _)| spec::find(name).unwrap().clock == Clock::Virtual));
        }
    }

    #[test]
    fn command_line_is_checked_where_it_enters() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let Ok(Command::Run(a)) =
            parse(&argv("--workload nvme_qd16 --seed 9 --seconds 3 --trace 1"))
        else {
            panic!("driver-style command line must parse");
        };
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace, a.quick),
            ("nvme_qd16", 9, 3.0, true, false)
        );
        let Ok(Command::Run(a)) = parse(&argv("--workload x")) else {
            panic!("defaults");
        };
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (42, spec::RUN_SECONDS as f64, false)
        );
        assert!(matches!(
            parse(&argv("--compare a b")),
            Ok(Command::Compare(..))
        ));
        for bad in [
            "",
            "--seed 1",
            "--workload",
            "--workload x --trace 2",
            "--workload x --seed -1",
            "--workload x --seconds nan",
            "--workload x --bogus",
            "--compare a",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad:?} accepted");
        }
        assert!(run_workload(&Args {
            workload: "nope".into(),
            seed: 1,
            seconds: 0.0,
            trace: false,
            quick: true,
            out: None
        })
        .is_err());
    }
}
