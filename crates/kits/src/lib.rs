//! TimeKits: the storage-state query and rollback toolkit of Project
//! Almanac (§3.9, Table 1).
//!
//! TimeKits rides on the firmware-isolated time-travel property of
//! [`TimeSsd`](almanac_core::TimeSsd) and exposes the paper's full API:
//!
//! | API | Meaning |
//! |-----|---------|
//! | `query(..).as_of(t)` | state of LPA(s) as of a past time (`AddrQuery`) |
//! | `query(..).range(t1, t2)` | all versions of LPA(s) in a time window (`AddrQueryRange`) |
//! | `query(..).all_versions()` | every retained version of LPA(s) (`AddrQueryAll`) |
//! | `time_query` | LPAs updated since a time, with timestamps |
//! | `time_query_range` | LPAs updated inside a window |
//! | `time_query_all` | LPAs updated inside the whole retention window |
//! | `roll_back` | revert LPA(s) to their state at a past time |
//! | `roll_back_all` | revert every valid LPA |
//!
//! TimeKits is the host library of the paper's §4 split: the device answers
//! the Table-1 vendor commands itself, from `almanac_core` — the
//! [`AddrQuery`] builder, [`time_scan`], the rollback body
//! [`roll_back_set`] with [`roll_back`] and [`roll_back_all`], and the
//! [`QueryCost`] they charge — and this crate re-exports those names. What
//! it adds is the host's side: [`TimeKits`], a handle on one `TimeSsd` with
//! its restore-time model and read-only snapshots,
//! file-level recovery ([`FileMap`]) and forensic evidence export
//! ([`EvidenceArchive`]).
//!
//! # Examples
//!
//! ```
//! use almanac_core::{SsdConfig, SsdDevice, TimeSsd};
//! use almanac_flash::{Geometry, Lpa, PageData, SEC_NS};
//! use almanac_kits::TimeKits;
//!
//! let mut ssd = TimeSsd::new(SsdConfig::new(Geometry::small_test()));
//! ssd.write(Lpa(0), PageData::bytes(b"old".to_vec()), SEC_NS).unwrap();
//! ssd.write(Lpa(0), PageData::bytes(b"new".to_vec()), 5 * SEC_NS).unwrap();
//!
//! let mut kits = TimeKits::new(&mut ssd);
//! // What did LPA 0 hold three seconds in?
//! let out = kits.query(Lpa(0), 1).as_of(3 * SEC_NS).run().unwrap();
//! assert_eq!(out.hits[0].data, PageData::bytes(b"old".to_vec()));
//! // Roll it back.
//! kits.roll_back(Lpa(0), 1, 3 * SEC_NS, 10 * SEC_NS).unwrap();
//! let (data, _) = ssd.read(Lpa(0), 11 * SEC_NS).unwrap();
//! assert_eq!(data, PageData::bytes(b"old".to_vec()));
//! ```

#![warn(missing_docs, unreachable_pub)]
#![forbid(unsafe_code)]

mod evidence;
mod kits;
mod recovery;

pub use almanac_core::{roll_back, roll_back_all, roll_back_set, time_scan};
pub use almanac_core::{AddrQuery, AddrQueryOutcome, QueryCost, QueryHit};
pub use almanac_core::{RollbackOutcome, TimeQueryHit};
pub use evidence::{EvidenceArchive, EvidenceRecord};
pub use kits::TimeKits;
pub use recovery::{FileMap, RecoveredFile};
