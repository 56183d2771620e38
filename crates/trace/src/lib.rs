//! Block I/O traces and deterministic replay for Project Almanac.
//!
//! The paper evaluates TimeSSD by replaying week-long MSR Cambridge and
//! 20-day FIU block traces, prolonged by duplicating them with shifted
//! logical addresses (§5.2). This crate provides the trace representation,
//! a text (CSV) codec, the prolonging transform, and a replayer that drives
//! any [`SsdDevice`](almanac_core::SsdDevice) while collecting the metrics
//! the paper reports: average/max I/O response time, write amplification,
//! and the retention-window trajectory.
//!
//! # Examples
//!
//! ```
//! use almanac_trace::{Trace, TraceOp, TraceRecord, replay};
//! use almanac_core::{RegularSsd, SsdConfig};
//! use almanac_flash::Geometry;
//!
//! let trace = Trace::new(
//!     "tiny",
//!     vec![
//!         TraceRecord { at: 0, op: TraceOp::Write, lpa: 0, pages: 2 },
//!         TraceRecord { at: 1_000_000, op: TraceOp::Read, lpa: 0, pages: 2 },
//!     ],
//! );
//! let mut ssd = RegularSsd::new(SsdConfig::new(Geometry::small_test()));
//! let report = replay(&trace, &mut ssd).unwrap();
//! assert_eq!(report.user_writes, 2);
//! assert_eq!(report.user_reads, 2);
//! ```

#![warn(missing_docs, unreachable_pub)]

mod qdreplay;
mod record;
mod replay;
mod trace;

pub use qdreplay::{replay_qd, replay_qd_through, QdReplayReport};
pub use record::{TraceOp, TraceRecord};
pub use replay::{replay, replay_with_sampler, ReplayReport};
pub use trace::{Trace, TraceError};
