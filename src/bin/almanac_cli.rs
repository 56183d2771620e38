//! `almanac` — a command-line tour of the time-traveling SSD.
//!
//! ```text
//! almanac profiles                    list the calibrated trace profiles
//! almanac replay <trace> [days]       replay a trace on TimeSSD vs regular SSD
//! almanac attack <family>             run a ransomware family and recover
//! almanac families                    list the 13 ransomware families
//! almanac timeline                    tamper-evident audit demo
//! ```

use std::env;
use std::process::ExitCode;

use almanac::core::{RegularSsd, SsdConfig, SsdDevice, SsdReadOps, TimeSsd};
use almanac::flash::{Geometry, Lpa, PageData, DAY_NS, SEC_NS};
use almanac::fs::{AlmanacFs, FsMode};
use almanac::kits::TimeKits;
use almanac::trace::replay;
use almanac::workloads::ransomware::{attack, families};
use almanac::workloads::{fiu_profiles, msr_profiles};

fn usage() -> ExitCode {
    eprintln!(
        "usage: almanac <command>\n\
         \n\
         commands:\n\
         \x20 profiles                 list the calibrated MSR/FIU trace profiles\n\
         \x20 replay <trace> [days]    replay a trace on TimeSSD and a regular SSD\n\
         \x20 families                 list the 13 ransomware families\n\
         \x20 attack <family>          run a ransomware attack and recover the data\n\
         \x20 timeline                 show the tamper-evident device timeline demo"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(|s| s.as_str()) {
        Some("profiles") => cmd_profiles(),
        Some("replay") => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            let days = match args.get(2).map(|d| d.parse()) {
                None => 2u32,
                Some(Ok(days)) if days > 0 => days,
                Some(_) => return usage(),
            };
            cmd_replay(name, days)
        }
        Some("families") => cmd_families(),
        Some("attack") => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            cmd_attack(name)
        }
        Some("timeline") => cmd_timeline(),
        _ => usage(),
    }
}

fn cmd_profiles() -> ExitCode {
    println!(
        "{:<12} {:>7} {:>11} {:>9}",
        "trace", "write%", "pages/day", "workset"
    );
    for p in msr_profiles().into_iter().chain(fiu_profiles()) {
        println!(
            "{:<12} {:>6.0}% {:>10.1}% {:>8.1}%",
            p.name,
            p.write_ratio * 100.0,
            p.daily_write_fraction * 100.0,
            p.working_set * 100.0
        );
    }
    ExitCode::SUCCESS
}

fn cmd_replay(name: &str, days: u32) -> ExitCode {
    let Some(profile) = almanac::workloads::profiles::profile_by_name(name) else {
        eprintln!("unknown trace '{name}' — try `almanac profiles`");
        return ExitCode::FAILURE;
    };
    println!("replaying {name} for {days} simulated day(s) on both devices…");
    let geometry = Geometry::bench();
    for kind in ["regular", "timessd"] {
        let (report, retention) = if kind == "regular" {
            let mut ssd = RegularSsd::new(SsdConfig::new(geometry));
            let trace = profile.generate(days, ssd.exported_pages(), 42);
            (replay(&trace, &mut ssd).expect("replay"), None)
        } else {
            let mut ssd = TimeSsd::new(SsdConfig::new(geometry));
            let trace = profile.generate(days, ssd.exported_pages(), 42);
            let report = replay(&trace, &mut ssd).expect("replay");
            let window = ssd.retention_window(report.end_time);
            (report, Some(window))
        };
        print!(
            "  {kind:<8}  avg {:.2} ms   WA {:.3}   {} writes",
            report.avg_response_ns / 1e6,
            report.write_amplification,
            report.user_writes,
        );
        match retention {
            Some(w) => println!("   retention window {:.1} d", w as f64 / DAY_NS as f64),
            None => println!(),
        }
    }
    ExitCode::SUCCESS
}

fn cmd_families() -> ExitCode {
    println!(
        "{:<16} {:>7} {:>8}  deletes originals",
        "family", "MiB", "MiB/s"
    );
    for f in families() {
        println!(
            "{:<16} {:>7} {:>8.1}  {}",
            f.name, f.victim_mib, f.rate_mib_s, f.deletes_originals
        );
    }
    ExitCode::SUCCESS
}

fn cmd_attack(name: &str) -> ExitCode {
    let Some(family) = families()
        .into_iter()
        .find(|f| f.name.eq_ignore_ascii_case(name))
    else {
        eprintln!("unknown family '{name}' — try `almanac families`");
        return ExitCode::FAILURE;
    };
    println!("planting documents and running {}…", family.name);
    let ssd = TimeSsd::new(SsdConfig::new(Geometry::bench()));
    let mut fs = AlmanacFs::new(ssd, FsMode::Ext4NoJournal).expect("format");
    let report = attack(&mut fs, family, 42, 0).expect("attack");
    println!(
        "  encrypted {} MiB across {} files in {:.1}s (virtual)",
        report.bytes_encrypted >> 20,
        report.victims.len(),
        (report.attack_end - report.attack_start) as f64 / 1e9
    );
    let victim_pages: Vec<Lpa> = report
        .victims
        .iter()
        .flat_map(|v| v.lpas.iter().copied())
        .collect();
    let mut kits = TimeKits::new(fs.device_mut());
    let estimate = kits.restore_cost_estimate(&victim_pages, report.pre_attack_time, 8);
    let out = kits
        .roll_back_set(&victim_pages, report.pre_attack_time, report.attack_end)
        .expect("recovery");
    println!(
        "  recovered {} pages from firmware history in {:.2}s (virtual, 8 threads)",
        out.restored.len(),
        estimate as f64 / 1e9
    );
    ExitCode::SUCCESS
}

fn cmd_timeline() -> ExitCode {
    let mut ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
    println!("writing three generations of page L5, then trimming it…");
    for (t, tag) in [(1u64, 1u64), (2, 2), (3, 3)] {
        ssd.write(
            Lpa(5),
            PageData::Synthetic {
                seed: 5,
                version: tag,
            },
            t * SEC_NS,
        )
        .expect("write");
    }
    ssd.trim(Lpa(5), 4 * SEC_NS).expect("trim");
    println!("host view after trim: zeros. firmware timeline:");
    for v in ssd.version_chain(Lpa(5)) {
        println!(
            "  t={:>3.0}s  {:?}  head={}",
            v.timestamp as f64 / 1e9,
            v.location,
            v.is_head
        );
    }
    let kits = TimeKits::new(&mut ssd);
    let (hits, _) = kits.time_query_all();
    println!(
        "TimeQueryAll sees {} updated page(s) — deletion hid nothing.",
        hits.len()
    );
    ExitCode::SUCCESS
}
