//! Simulated NVMe command interface for Project Almanac.
//!
//! The paper's implementation (§4) runs on a Cosmos+ OpenSSD board speaking
//! NVMe: "Besides basic I/O commands to issue read and write requests, we
//! define new NVMe commands to wrap the TimeKits API. TimeKits is developed
//! atop the host NVMe driver which issues NVMe commands to the firmware."
//!
//! This crate reproduces that interface boundary:
//!
//! - [`sqe`] — 64-byte submission-queue entries and 16-byte completion
//!   entries with real binary encode/decode (opcode, command id, NSID,
//!   CDW10–15), including the vendor-specific opcodes that carry the
//!   Table-1 TimeKits commands.
//! - [`controller`] — a controller wrapping a [`TimeSsd`](almanac_core::TimeSsd):
//!   commands are queued, fetched, interpreted, executed against the FTL,
//!   and completed with NVMe status codes. A command owns its data: a
//!   Write's pages ride beside its 64-byte entry into the queue and a read's
//!   or query's pages ride back in its [`PostedCompletion`] (PRP lists are not
//!   modelled).
//! - [`driver`] — the host-side driver exposing a typed API that goes
//!   through the wire format, exactly like TimeKits does in the paper.
//!
//! # Examples
//!
//! ```
//! use almanac_core::{SsdConfig, TimeSsd};
//! use almanac_flash::{Geometry, Lpa, SEC_NS};
//! use almanac_nvme::{HostDriver, NvmeController};
//!
//! let ssd = TimeSsd::new(SsdConfig::new(Geometry::small_test()));
//! let mut driver = HostDriver::new(NvmeController::new(ssd));
//! driver.write(Lpa(3), b"hello almanac".to_vec(), SEC_NS).unwrap();
//! let data = driver.read(Lpa(3), 2 * SEC_NS).unwrap();
//! assert!(data.starts_with(b"hello almanac"));
//! ```

#![warn(missing_docs)]

mod controller;
mod driver;
mod queue;
mod sqe;

pub use controller::{NvmeController, NvmeStatus, DEFAULT_QUEUE_DEPTH};
pub use driver::{CompletedIo, DriverError, HostDriver, Ticket};
pub use queue::PostedCompletion;
pub use sqe::{CompletionEntry, NvmeOpcode, SubmissionEntry};
