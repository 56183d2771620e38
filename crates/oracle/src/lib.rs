//! # almanac-oracle — lockstep differential oracle for TimeSSD
//!
//! The TimeSSD firmware ([`almanac_core::TimeSsd`]) is a maze of
//! interacting mechanisms: Bloom-chain retention windows, delta
//! compression, OOB back-pointer chains, GC relocation, crash rebuild. Each
//! has unit tests; this crate tests the *composition* against something
//! trivially correct — a full-history map that never forgets anything
//! ([`ModelDevice`]) — by running both in lockstep and comparing after
//! every operation ([`DifferentialHarness`]).
//!
//! The comparison is retention-aware (see `DESIGN.md` §5c): the model
//! distinguishes versions the device is **obligated** to serve (inside the
//! guaranteed minimum retention window, §3.4 of the paper) from versions it
//! is merely **allowed** to serve. A missing obligated version, a phantom
//! version, wrong bytes, a broken chain order, or an internal-invariant
//! violation is a [`Divergence`], reported with the shortest op prefix that
//! reproduces it ([`minimal_failing_prefix`]). The crash contract is tight:
//! after a power cut the model still demands acknowledged trims (their
//! tombstones are journalled before the ack) and every acknowledged write
//! reachable from the rebuilt chains — only versions that lived purely in
//! volatile delta buffers are waived.
//!
//! One harness, two clients. [`DifferentialHarness`] is the only code
//! that applies an [`OracleOp`] to a device, mirrors it into the model and
//! power-cycles; its arrival times, pages and payloads come from the one
//! decoder next to the enum in [`strategy`]. It is generic over the device's
//! retention policy ([`Guarantee`]): a [`TimeSsd`](almanac_core::TimeSsd) gets every check
//! above, and [`DifferentialHarness::run`] ends with every Table-1 query
//! over the whole span, serially and at the device's partition width, held
//! to the per-page chains; the `RegularSsd` and `FlashGuardSsd` baselines
//! get the head and read checks at retention zero.
//!
//! 1. Tests drive it directly: [`DifferentialHarness::run`] on the
//!    adversarial sequences the [`strategy`] module generates (hot/cold
//!    skew, equal-timestamp bursts, trims, GC pressure, power cuts,
//!    rollback storms, single-op injected faults) under configurations
//!    that vary the partition width and turn the map cache on,
//!    [`DifferentialHarness::apply`] on hand-written regressions — and,
//!    since it implements `SsdDevice` itself, `trace::replay` with every
//!    replayed read checked byte-for-byte.
//! 2. [`lockstep_queue_run`] takes a harness run as its serial reference
//!    and compares it with the NVMe multi-queue schedule of the same ops.

#![warn(missing_docs)]

pub mod harness;
pub mod model;
pub mod queues;
pub mod report;
pub mod strategy;

pub use harness::{minimal_failing_prefix, DifferentialHarness, Guarantee};
pub use model::{ModelDevice, ModelVersion};
pub use queues::{lockstep_queue_run, QueueRunOutcome};
pub use report::{Divergence, DivergenceReport};
pub use strategy::OracleOp;
