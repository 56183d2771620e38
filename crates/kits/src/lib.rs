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
//! The three address queries share one entry point, the [`AddrQuery`]
//! builder, which runs against an [`SsdReadView`](almanac_core::SsdReadView)
//! — the `&self` read path. Address and time queries alike are per-LPA
//! closures over one private scan engine that fans the LPA span across the
//! device's AMT shards on scoped host threads; workers share `&TimeSsd`, and
//! the borrow checker (not a lock) keeps writers out while they run.
//!
//! Queries exploit the SSD's internal parallelism: retrieval work is
//! scheduled across flash chips and the reported virtual latency is the
//! makespan across worker threads (Figure 11's multi-threaded recovery);
//! address queries additionally report the sharded-schedule makespan via
//! [`AddrQueryOutcome::makespan`].
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

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod addr_query;
mod cost;
mod engine;
mod evidence;
mod kits;
mod recovery;

pub use addr_query::{AddrQuery, AddrQueryOutcome};
pub use cost::QueryCost;
pub use evidence::{EvidenceArchive, EvidenceRecord};
pub use kits::{QueryHit, RollbackOutcome, TimeKits, TimeQueryHit};
pub use recovery::{FileMap, RecoveredFile};
