//! Simulated NVMe command interface for Project Almanac.
//!
//! The paper's implementation (§4) runs on a Cosmos+ OpenSSD board speaking
//! NVMe: "Besides basic I/O commands to issue read and write requests, we
//! define new NVMe commands to wrap the TimeKits API. TimeKits is developed
//! atop the host NVMe driver which issues NVMe commands to the firmware."
//!
//! This crate reproduces that interface boundary:
//!
//! - The wire format: 64-byte [`SubmissionEntry`]s and 16-byte
//!   [`CompletionEntry`]s with real binary encode/decode (opcode, command id,
//!   NSID, CDW10–15), including the vendor-specific [`NvmeOpcode`]s that carry
//!   the Table-1 TimeKits commands.
//! - [`NvmeController`] — a controller over any device (a
//!   [`TimeSsd`](almanac_core::TimeSsd) by default): commands are queued,
//!   fetched, interpreted, executed against the FTL, and completed with
//!   [`NvmeStatus`] codes. The vendor opcodes run the device's own Table-1
//!   bodies from `almanac_core` (`AddrQuery`, `time_scan`, `roll_back`); a
//!   device without history answers them with Invalid Opcode.
//! - A command owns its data. A Write's pages ride beside its 64-byte entry
//!   into the queue. What a Read or a Table-1 command returns rides back
//!   beside the CQE in its [`PostedCompletion`] as a typed [`Answer`]: the
//!   read's pages, or the outcome core's body returned, unconverted. PRP
//!   lists are not modelled, so nothing crosses as bytes.
//! - [`HostDriver`] — the host-side driver exposing a typed API that goes
//!   through the wire format, exactly like TimeKits does in the paper. It
//!   is an `SsdDevice` itself, so a file system or a replayer runs over the
//!   queues unchanged.
//!
//! # Examples
//!
//! ```
//! use almanac_core::{SsdConfig, SsdDevice, TimeSsd};
//! use almanac_flash::{Geometry, Lpa, PageData, SEC_NS};
//! use almanac_nvme::{HostDriver, NvmeController};
//!
//! let ssd = TimeSsd::new(SsdConfig::new(Geometry::small_test()));
//! let mut driver = HostDriver::new(NvmeController::new(ssd));
//! let page = PageData::bytes(b"hello almanac".to_vec());
//! driver.write(Lpa(3), page.clone(), SEC_NS).unwrap();
//! let (data, done) = driver.read(Lpa(3), 2 * SEC_NS).unwrap();
//! assert_eq!(data, page);
//! assert!(done.finish > 2 * SEC_NS);
//! ```

#![warn(missing_docs, unreachable_pub)]

mod controller;
mod driver;
mod queue;
mod sqe;

pub use controller::{NvmeController, NvmeStatus, DEFAULT_QUEUE_DEPTH};
pub use driver::{CompletedIo, DriverError, HostDriver, Ticket};
pub use queue::{Answer, PostedCompletion};
pub use sqe::{CompletionEntry, NvmeOpcode, SubmissionEntry};
