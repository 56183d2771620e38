//! Regenerates every table and figure in one run — a loop over
//! [`almanac_bench::FIGURES`] — and emits the machine-readable wall-clock
//! report `BENCH_all.json`. `--only <name>[,<name>…]` runs just the named
//! rows of the table, in table order, and names its report after them.

use almanac_bench::report::BenchReport;
use almanac_bench::{select, Figure, FIGURES};

const SEED: u64 = 42;

fn usage_exit(problem: &str) -> ! {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    eprintln!("{problem}\nusage: all [--only <name>[,<name>…]]");
    eprintln!("figures: {}", names.join(" "));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (report_name, figures): (String, Vec<&Figure>) = match args.as_slice() {
        [] => ("all".into(), FIGURES.iter().collect()),
        [flag, only] if flag == "--only" => match select(only) {
            Ok(figures) => (only.replace(',', "+"), figures),
            Err(unknown) => usage_exit(&format!("unknown figure `{unknown}`")),
        },
        _ => usage_exit("unrecognised arguments"),
    };

    let mut report = BenchReport::new(&report_name, SEED);
    for figure in figures {
        for section in (figure.run)(SEED) {
            report.push_figure(section);
        }
    }
    report.emit();
}
