//! Case study: storage forensics with time-based queries (paper §2.2/§3.9).
//!
//! An "incident" happens on a busy device; the investigator uses TimeKits'
//! time-based queries to reconstruct which logical pages changed during the
//! incident window and extracts the evidence versions — all from the
//! firmware-isolated history that no host-level malware can tamper with.
//!
//! Run with: `cargo run --example forensics_audit`

use almanac::core::{SsdConfig, SsdDevice, TimeSsd};
use almanac::flash::{Geometry, Lpa, PageData, SEC_NS};
use almanac::kits::TimeKits;

fn main() {
    let mut ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));

    // Normal activity: pages 0..50 written during the first 100 seconds.
    for i in 0..50u64 {
        ssd.write(
            Lpa(i),
            PageData::bytes(format!("baseline {i}").into_bytes()),
            (1 + 2 * i) * SEC_NS,
        )
        .expect("write");
    }

    // The incident: between t=200s and t=205s an intruder tampers with a
    // handful of pages and plants one new file page.
    let incident = [
        (3u64, "tampered ledger"),
        (17, "tampered log"),
        (60, "dropped tool"),
    ];
    for (i, (lpa, content)) in incident.iter().enumerate() {
        ssd.write(
            Lpa(*lpa),
            PageData::bytes(content.as_bytes().to_vec()),
            (200 + i as u64) * SEC_NS,
        )
        .expect("write");
    }

    // More normal activity afterwards.
    for i in 30..40u64 {
        ssd.write(
            Lpa(i),
            PageData::bytes(format!("later {i}").into_bytes()),
            (300 + i) * SEC_NS,
        )
        .expect("write");
    }

    // Investigation: what changed inside the incident window?
    let kits = TimeKits::new(&mut ssd);
    let (hits, cost) = kits.time_query_range(200 * SEC_NS, 210 * SEC_NS);
    println!(
        "TimeQueryRange(200s, 210s): {} LPAs updated ({} flash reads, {:.1} ms at 4 threads)",
        hits.len(),
        cost.flash_reads,
        cost.makespan(4) as f64 / 1e6,
    );
    for hit in &hits {
        for ts in &hit.timestamps {
            let content = ssd.version_content(hit.lpa, *ts).expect("evidence version");
            let bytes = content.materialize(20);
            println!(
                "  {} written at t={:>5.1}s: {:?}",
                hit.lpa,
                *ts as f64 / 1e9,
                String::from_utf8_lossy(&bytes).trim_end_matches('\0')
            );
        }
    }

    // The evidence chain: for a tampered page, both the pre- and
    // post-incident versions are retrievable.
    let kits = TimeKits::new(&mut ssd);
    let before = kits
        .query(Lpa(3), 1)
        .as_of(199 * SEC_NS)
        .run()
        .expect("before");
    println!(
        "page L3 before the incident: {:?}",
        String::from_utf8_lossy(&before.hits[0].data.materialize(10))
    );
    let all = kits.query(Lpa(3), 1).all_versions().run().expect("all");
    println!(
        "page L3 has {} retained versions for the evidence chain",
        all.hits.len()
    );
}
