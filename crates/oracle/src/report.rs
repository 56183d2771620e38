//! Post-divergence reporting: what diverged, and the shortest op prefix
//! that reproduces it.

use std::fmt;

use almanac_flash::{Lpa, Nanos};

use crate::strategy::OracleOp;

/// One disagreement between the reference model and the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// The device's version chain is not strictly decreasing in time.
    ChainOrder {
        /// Affected page.
        lpa: Lpa,
        /// The chain timestamps, newest first, as the device reported them.
        chain: Vec<Nanos>,
    },
    /// The device serves a version the model never saw written.
    PhantomVersion {
        /// Affected page.
        lpa: Lpa,
        /// The unexplained timestamp.
        ts: Nanos,
    },
    /// A served version's content differs from what was written.
    ContentMismatch {
        /// Affected page.
        lpa: Lpa,
        /// Version timestamp.
        ts: Nanos,
        /// What differed.
        detail: String,
    },
    /// A version inside the guaranteed retention window is gone.
    MissingObligated {
        /// Affected page.
        lpa: Lpa,
        /// Version timestamp.
        ts: Nanos,
        /// Age at check time (≤ minimum retention, hence obligated).
        age: Nanos,
    },
    /// Device and model disagree about the live head of a page.
    HeadMismatch {
        /// Affected page.
        lpa: Lpa,
        /// Device head timestamp (`None`: unmapped/trimmed).
        device: Option<Nanos>,
        /// Model head timestamp.
        model: Option<Nanos>,
    },
    /// A host read returned the wrong bytes.
    ReadMismatch {
        /// Affected page.
        lpa: Lpa,
        /// Arrival time of the read.
        at: Nanos,
    },
    /// `version_as_of` disagrees with the model (and the device answer is
    /// not an allowed expiry).
    AsOfMismatch {
        /// Affected page.
        lpa: Lpa,
        /// Queried instant.
        at: Nanos,
        /// Device answer.
        device: Option<Nanos>,
        /// Model answer.
        model: Option<Nanos>,
    },
    /// A rollback left a page in a state other than its as-of target.
    RollbackMismatch {
        /// Affected page.
        lpa: Lpa,
        /// Rollback target instant.
        target: Nanos,
        /// What went wrong.
        detail: String,
    },
    /// `check_consistency` found internal invariant violations.
    ConsistencyViolations {
        /// Total count.
        count: usize,
        /// Up to the first few, rendered.
        sample: Vec<String>,
    },
    /// A trim covered by an acknowledged flush barrier lost its tombstone
    /// in a power cut (and was not old enough to have expired legally).
    LostDurableTrim {
        /// Affected page.
        lpa: Lpa,
        /// Trim instant the barrier made durable.
        ts: Nanos,
    },
    /// The device acknowledged a flush barrier while delta buffers still
    /// held records — the ack promises an empty volatile set.
    BarrierLeftVolatile {
        /// Buffered delta pages remaining after the ack.
        buffered: usize,
    },
    /// A whole-space query's serial answer is not the per-page chains, or
    /// its fan-out differs from the serial answer in hits or cost.
    QueryMismatch {
        /// The TimeKits call, e.g. `"range"` or `"time_query_all"`.
        query: &'static str,
        /// Workers of the run that broke the rule (1: the serial run).
        workers: u32,
        /// What differed.
        detail: String,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::ChainOrder { lpa, chain } => {
                write!(
                    f,
                    "chain of lpa {} not strictly decreasing: {chain:?}",
                    lpa.0
                )
            }
            Divergence::PhantomVersion { lpa, ts } => {
                write!(
                    f,
                    "lpa {} serves version @{ts} the model never wrote",
                    lpa.0
                )
            }
            Divergence::ContentMismatch { lpa, ts, detail } => {
                write!(f, "lpa {} version @{ts} content mismatch: {detail}", lpa.0)
            }
            Divergence::MissingObligated { lpa, ts, age } => write!(
                f,
                "lpa {} version @{ts} missing though obligated (age {age} ≤ min retention)",
                lpa.0
            ),
            Divergence::HeadMismatch { lpa, device, model } => write!(
                f,
                "lpa {} head mismatch: device {device:?}, model {model:?}",
                lpa.0
            ),
            Divergence::ReadMismatch { lpa, at } => {
                write!(f, "read of lpa {} at t={at} returned wrong bytes", lpa.0)
            }
            Divergence::AsOfMismatch {
                lpa,
                at,
                device,
                model,
            } => write!(
                f,
                "as-of({}, t={at}) mismatch: device {device:?}, model {model:?}",
                lpa.0
            ),
            Divergence::RollbackMismatch {
                lpa,
                target,
                detail,
            } => write!(
                f,
                "rollback of lpa {} to t={target} diverged: {detail}",
                lpa.0
            ),
            Divergence::ConsistencyViolations { count, sample } => {
                write!(f, "{count} consistency violations, e.g. {sample:?}")
            }
            Divergence::LostDurableTrim { lpa, ts } => write!(
                f,
                "trim of lpa {} @{ts} was flush-barriered yet lost in the cut",
                lpa.0
            ),
            Divergence::BarrierLeftVolatile { buffered } => write!(
                f,
                "flush acked with {buffered} delta buffer(s) still volatile"
            ),
            Divergence::QueryMismatch {
                query,
                workers,
                detail,
            } => write!(f, "{query} at {workers} worker(s): {detail}"),
        }
    }
}

/// Outcome of one differential run.
#[derive(Debug, Clone, Default)]
pub struct DivergenceReport {
    /// Every divergence recorded, in detection order.
    pub divergences: Vec<Divergence>,
    /// The ops actually applied (the failing prefix when divergent).
    pub ops: Vec<OracleOp>,
    /// Index into `ops` of the op after which the first divergence was
    /// detected (`None` when clean). When produced by
    /// [`minimal_failing_prefix`](crate::harness::minimal_failing_prefix)
    /// this is the *shortest* prefix that reproduces the divergence.
    pub first_divergence_op: Option<usize>,
    /// Whether the device stalled (retention window pinned GC); a measured
    /// outcome, not a divergence.
    pub stalled: bool,
    /// Ops applied in total.
    pub applied: usize,
}

impl DivergenceReport {
    /// True when model and device never disagreed.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(
                f,
                "clean: {} ops, no divergence{}",
                self.applied,
                if self.stalled {
                    " (device stalled)"
                } else {
                    ""
                }
            );
        }
        writeln!(f, "DIVERGENCE after {} ops:", self.applied)?;
        for d in &self.divergences {
            writeln!(f, "  - {d}")?;
        }
        if let Some(k) = self.first_divergence_op {
            writeln!(f, "failing op prefix ({} ops):", k + 1)?;
            for (i, op) in self.ops.iter().take(k + 1).enumerate() {
                writeln!(f, "  [{i:4}] {op:?}")?;
            }
        }
        Ok(())
    }
}
