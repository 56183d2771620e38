//! The NVMe wire interface (paper §4): TimeKits as vendor commands.
//!
//! Shows the exact layering of the paper's implementation — a host driver
//! encodes 64-byte submission entries (including the vendor-specific
//! time-travel opcodes), the controller interprets them against the TimeSSD
//! firmware, and each command's completion comes back carrying the typed
//! answer (or error) the device computed.
//!
//! Run with: `cargo run --example nvme_host`

use almanac::core::{SsdConfig, SsdDevice, TimeSsd};
use almanac::flash::{Geometry, Lpa, PageData, SEC_NS};
use almanac::nvme::{HostDriver, NvmeController, NvmeOpcode, SubmissionEntry};

fn main() {
    let ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
    let mut driver = HostDriver::new(NvmeController::new(ssd));

    // Plain I/O commands: the driver is an `SsdDevice` like the drive.
    for (version, at) in [(1, SEC_NS), (2, 5 * SEC_NS)] {
        let page = format!("quarterly report v{version}").into_bytes();
        driver
            .write(Lpa(10), PageData::bytes(page), at)
            .expect("write");
    }
    let (current, _) = driver.read(Lpa(10), 6 * SEC_NS).expect("read");
    println!(
        "current content: {:?}",
        String::from_utf8_lossy(&current.materialize(19))
    );

    // A vendor command on the wire: this is what AddrQuery looks like as a
    // 64-byte submission entry.
    let mut sqe = SubmissionEntry::new(NvmeOpcode::AddrQuery, 7);
    sqe.set_u64(0, 10); // CDW10/11: LPA
    sqe.cdw[2] = 1; // CDW12: count
    sqe.set_u64(4, 2 * SEC_NS); // CDW14/15: timestamp
    let bytes = sqe.to_bytes();
    println!(
        "AddrQuery SQE on the wire: opcode={:#04x}, 64 bytes, cdw10-15 at +40: {:02x?}…",
        bytes[0],
        &bytes[40..52]
    );

    // The typed driver path issues the same command; the answer comes back
    // as the device computed it, each hit with its LPA and timestamp.
    let (old, _) = driver
        .addr_query(Lpa(10), 1, 2 * SEC_NS, 1, 7 * SEC_NS)
        .expect("vendor query");
    let hit = &old.hits[0];
    println!(
        "state at t=2s  : {:?} (L{}, written at t={}s)",
        String::from_utf8_lossy(&hit.data.materialize(19)),
        hit.lpa.0,
        hit.timestamp / SEC_NS
    );

    // Roll back through the wire, then audit the whole device.
    let (rolled, done) = driver
        .roll_back(Lpa(10), 1, 2 * SEC_NS, 8 * SEC_NS)
        .expect("rollback");
    for (lpa, at) in &rolled.restored {
        println!(
            "RollBack restored L{} to its version of t={}s",
            lpa.0,
            at / SEC_NS
        );
    }
    println!("RollBack completed at t={}ns", done.finish);
    let ((hits, _), _) = driver.time_query_all(9 * SEC_NS).expect("audit");
    for hit in hits {
        let stamps: Vec<u64> = hit.timestamps.iter().map(|t| t / SEC_NS).collect();
        println!("  L{}: versions written at t={stamps:?} s", hit.lpa.0);
    }
}
