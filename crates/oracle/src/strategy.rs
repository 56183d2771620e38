//! Adversarial op-sequence generators for the differential oracle.
//!
//! Each strategy yields a `Vec<OracleOp>` aimed at a known-delicate corner
//! of the retention machinery: hot/cold skew (version chains of very
//! different depth), equal-timestamp bursts (arrival times repeat; device
//! clocks must still hand out unique per-page timestamps), trims (tombstone
//! semantics), GC pressure (small device, relocation + expiry during user
//! traffic), power cuts (rebuild contract), and rollback storms (TimeKits
//! read-modify-write against history).
//!
//! All strategies are deterministic under the in-tree proptest stub — a CI
//! failure reproduces locally with the same seed.

use almanac_flash::{xorshift64, FaultPlan, Lpa, LpaSpan, Nanos, PageData, MS_NS, SEC_NS, US_NS};
use proptest::{collection, prop_oneof, BoxedStrategy, Just, Strategy};

/// One step of a differential run (see `DifferentialHarness::apply`).
///
/// Page numbers are taken modulo the device's exported page count at apply
/// time (by `Decoder::decode`, the one interpreter of these), so one
/// generated sequence is valid for any geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleOp {
    /// Advance virtual time, then write a fresh synthetic version.
    Write {
        /// Logical page (modulo exported).
        lpa: u64,
        /// Virtual-time gap before the op.
        gap: Nanos,
    },
    /// Write real bytes (exercises the byte-diff delta path).
    WriteBytes {
        /// Logical page (modulo exported).
        lpa: u64,
        /// Byte fill tag.
        tag: u8,
        /// Virtual-time gap before the op.
        gap: Nanos,
    },
    /// Host read, compared byte-for-byte against the model.
    Read {
        /// Logical page (modulo exported).
        lpa: u64,
        /// Virtual-time gap before the op.
        gap: Nanos,
    },
    /// TRIM, compared via tombstone semantics.
    Trim {
        /// Logical page (modulo exported).
        lpa: u64,
        /// Virtual-time gap before the op.
        gap: Nanos,
    },
    /// `version_as_of(lpa, now − back)` compared against the model.
    AsOf {
        /// Logical page (modulo exported).
        lpa: u64,
        /// How far back from now to query.
        back: Nanos,
        /// Virtual-time gap before the op.
        gap: Nanos,
    },
    /// TimeKits rollback of `cnt` pages at `lpa` to `now − back`.
    RollBack {
        /// First logical page (modulo exported).
        lpa: u64,
        /// Pages in the span.
        cnt: u64,
        /// How far back from now to roll.
        back: Nanos,
        /// Virtual-time gap before the op.
        gap: Nanos,
    },
    /// Host flush barrier: on ack, everything acknowledged before it —
    /// buffered deltas and journalled tombstones alike — must survive any
    /// later power cut.
    Flush {
        /// Virtual-time gap before the op.
        gap: Nanos,
    },
    /// Power-cut the device and recover it from flash.
    PowerCut,
    /// Run the full deep check (chains, obligations, consistency).
    Check,
}

impl OracleOp {
    /// True for the ops an NVMe queue can carry (the `queues` runner skips
    /// the rest: probes, power cuts and checks have no command encoding).
    pub(crate) fn is_host_io(&self) -> bool {
        use OracleOp::*;
        matches!(
            self,
            Write { .. } | WriteBytes { .. } | Read { .. } | Trim { .. } | Flush { .. }
        )
    }
}

/// An [`OracleOp`] resolved against one device: pages reduced into the
/// exported space, `back` offsets turned into instants, payloads built.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Action {
    /// Host write of the payload.
    Write(Lpa, PageData),
    /// Host read.
    Read(Lpa),
    /// TRIM.
    Trim(Lpa),
    /// `version_as_of` probe at the instant.
    AsOf(Lpa, Nanos),
    /// TimeKits rollback of `(first page, pages, target instant)`.
    RollBack(Lpa, u64, Nanos),
    /// Flush barrier.
    Flush,
    /// Power cut and recovery.
    PowerCut,
    /// Deep check.
    Check,
}

/// The one interpreter of [`OracleOp`] streams. Every runner takes its
/// arrival times, page numbers and payloads from here, so two devices fed
/// the same ops see byte-identical host traffic.
#[derive(Debug, Clone)]
pub(crate) struct Decoder {
    exported: u64,
    page_size: usize,
    /// Virtual arrival clock: the sum of the gaps so far, saturating.
    now: Nanos,
    /// Writes decoded so far; makes every payload distinct.
    seq: u64,
}

impl Decoder {
    /// A decoder at time zero for a device exporting `exported` pages.
    pub(crate) fn new(exported: u64, page_size: usize) -> Self {
        Decoder {
            exported,
            page_size,
            now: 0,
            seq: 0,
        }
    }

    /// Arrival time of the last decoded op.
    pub(crate) fn now(&self) -> Nanos {
        self.now
    }

    /// A payload no other write of the stream carries: synthetic, or real
    /// bytes filled with `tag` (the byte-diff delta path).
    fn payload(&mut self, lpa: Lpa, tag: Option<u8>) -> PageData {
        self.seq += 1;
        let Some(tag) = tag else {
            return PageData::Synthetic {
                seed: lpa.0 ^ 0x5eed_0000,
                version: self.seq,
            };
        };
        let mut bytes = vec![tag; self.page_size];
        bytes[..8].copy_from_slice(&lpa.0.to_le_bytes());
        bytes[8..16].copy_from_slice(&self.seq.to_le_bytes());
        PageData::bytes(bytes)
    }

    /// Advances the clock by the op's gap (saturating) and resolves the op
    /// at the new instant. A rollback span is clamped to end inside the
    /// device.
    pub(crate) fn decode(&mut self, op: &OracleOp) -> (Nanos, Action) {
        use OracleOp::*;
        let (lpa, cnt, gap) = match *op {
            Write { lpa, gap }
            | WriteBytes { lpa, gap, .. }
            | Read { lpa, gap }
            | Trim { lpa, gap }
            | AsOf { lpa, gap, .. } => (lpa, 1, gap),
            RollBack { lpa, cnt, gap, .. } => (lpa, cnt, gap),
            Flush { gap } => (0, 1, gap),
            PowerCut | Check => (0, 1, 0),
        };
        self.now = self.now.saturating_add(gap);
        let span = LpaSpan::reduced(lpa, cnt, self.exported);
        let (now, lpa) = (self.now, span.start());
        let action = match *op {
            Write { .. } => Action::Write(lpa, self.payload(lpa, None)),
            WriteBytes { tag, .. } => Action::Write(lpa, self.payload(lpa, Some(tag))),
            Read { .. } => Action::Read(lpa),
            Trim { .. } => Action::Trim(lpa),
            AsOf { back, .. } => Action::AsOf(lpa, now.saturating_sub(back)),
            RollBack { back, .. } => Action::RollBack(lpa, span.len(), now.saturating_sub(back)),
            Flush { .. } => Action::Flush,
            PowerCut => Action::PowerCut,
            Check => Action::Check,
        };
        (now, action)
    }
}

fn hot_cold_lpa(domain: u64) -> BoxedStrategy<u64> {
    // 80% of ops hit the hottest 20% of the domain.
    let hot = (domain / 5).max(1);
    prop_oneof![
        4 => 0u64..hot,
        1 => 0u64..domain,
    ]
    .boxed()
}

fn small_gap() -> BoxedStrategy<Nanos> {
    prop_oneof![Just(0), 1u64..100 * US_NS, 1u64..10 * MS_NS,].boxed()
}

/// Hot/cold skewed writes with reads and as-of probes sprinkled in.
///
/// Hot pages grow deep version chains (compression, long Bloom walks);
/// cold pages keep shallow ones. Periodic checks catch cross-talk.
pub fn skewed_writes(domain: u64, ops: usize) -> BoxedStrategy<Vec<OracleOp>> {
    let op = prop_oneof![
        6 => (hot_cold_lpa(domain), small_gap())
            .prop_map(|(lpa, gap)| OracleOp::Write { lpa, gap }),
        2 => (hot_cold_lpa(domain), small_gap())
            .prop_map(|(lpa, gap)| OracleOp::Read { lpa, gap }),
        2 => (hot_cold_lpa(domain), (0u64..10 * SEC_NS), small_gap())
            .prop_map(|(lpa, back, gap)| OracleOp::AsOf { lpa, back, gap }),
        1 => Just(OracleOp::Check),
    ];
    collection::vec(op, ops).boxed()
}

/// Write/trim interleavings: tombstones, re-writes over tombstones, reads
/// and as-of probes around the trim instant.
pub fn trim_heavy(domain: u64, ops: usize) -> BoxedStrategy<Vec<OracleOp>> {
    let op = prop_oneof![
        4 => (0u64..domain, small_gap())
            .prop_map(|(lpa, gap)| OracleOp::Write { lpa, gap }),
        3 => (0u64..domain, small_gap())
            .prop_map(|(lpa, gap)| OracleOp::Trim { lpa, gap }),
        2 => (0u64..domain, small_gap())
            .prop_map(|(lpa, gap)| OracleOp::Read { lpa, gap }),
        2 => (0u64..domain, (0u64..5 * SEC_NS), small_gap())
            .prop_map(|(lpa, back, gap)| OracleOp::AsOf { lpa, back, gap }),
        1 => Just(OracleOp::Check),
    ];
    collection::vec(op, ops).boxed()
}

/// Equal-arrival-time bursts: long runs of `gap == 0` force the device's
/// `last_ts + 1` tie-breaking; the model rejects any duplicate timestamp
/// the device would hand out.
pub fn equal_ts_bursts(domain: u64, ops: usize) -> BoxedStrategy<Vec<OracleOp>> {
    let op = prop_oneof![
        8 => (0u64..domain)
            .prop_map(|lpa| OracleOp::Write { lpa, gap: 0 }),
        2 => (0u64..domain)
            .prop_map(|lpa| OracleOp::Trim { lpa, gap: 0 }),
        2 => (0u64..domain, (0u64..SEC_NS))
            .prop_map(|(lpa, back)| OracleOp::AsOf { lpa, back, gap: 0 }),
        1 => (0u64..domain, (1u64..SEC_NS))
            .prop_map(|(lpa, gap)| OracleOp::Write { lpa, gap }),
        1 => Just(OracleOp::Check),
    ];
    collection::vec(op, ops).boxed()
}

/// Sustained overwrite pressure on a small device: GC must relocate and
/// expire mid-stream while the oracle watches obligations.
///
/// Pair with a small geometry and a short `min_retention`; stalls are a
/// measured outcome, not a failure.
pub fn gc_pressure(domain: u64, ops: usize) -> BoxedStrategy<Vec<OracleOp>> {
    let op = prop_oneof![
        10 => (0u64..domain, (0u64..50 * MS_NS))
            .prop_map(|(lpa, gap)| OracleOp::Write { lpa, gap }),
        2 => (0u64..domain, (0u64..50 * MS_NS))
            .prop_map(|(lpa, gap)| OracleOp::WriteBytes { lpa, tag: (lpa % 251) as u8, gap }),
        1 => (0u64..domain, (0u64..50 * MS_NS))
            .prop_map(|(lpa, gap)| OracleOp::Trim { lpa, gap }),
        1 => Just(OracleOp::Check),
    ];
    collection::vec(op, ops).boxed()
}

/// Traffic with power cuts sprinkled in: each cut discards RAM state and
/// recovers from flash; the oracle then enforces the documented crash
/// contract (acknowledged writes and trims survive — trims via their
/// journalled TRIM record — and retention bases downgrade).
pub fn power_cut_recovery(domain: u64, ops: usize) -> BoxedStrategy<Vec<OracleOp>> {
    let op = prop_oneof![
        6 => (0u64..domain, small_gap())
            .prop_map(|(lpa, gap)| OracleOp::Write { lpa, gap }),
        1 => (0u64..domain, small_gap())
            .prop_map(|(lpa, gap)| OracleOp::Trim { lpa, gap }),
        2 => (0u64..domain, small_gap())
            .prop_map(|(lpa, gap)| OracleOp::Read { lpa, gap }),
        1 => Just(OracleOp::PowerCut),
        1 => Just(OracleOp::Check),
    ];
    collection::vec(op, ops).boxed()
}

/// Power-cut traffic with flush barriers mixed in at random points: the
/// oracle holds the device to the fsync contract — a trim or buffered
/// delta acknowledged before a barrier must survive every later cut,
/// while un-barriered ones may legally vanish.
pub fn barrier_mix(domain: u64, ops: usize) -> BoxedStrategy<Vec<OracleOp>> {
    let op = prop_oneof![
        5 => (0u64..domain, small_gap())
            .prop_map(|(lpa, gap)| OracleOp::Write { lpa, gap }),
        2 => (0u64..domain, small_gap())
            .prop_map(|(lpa, gap)| OracleOp::Trim { lpa, gap }),
        2 => (0u64..domain, small_gap())
            .prop_map(|(lpa, gap)| OracleOp::Read { lpa, gap }),
        2 => small_gap().prop_map(|gap| OracleOp::Flush { gap }),
        1 => Just(OracleOp::PowerCut),
        1 => Just(OracleOp::Check),
    ];
    collection::vec(op, ops).boxed()
}

/// Like [`barrier_mix`], but every power cut is preceded by a flush
/// barrier issued in the same instant. With the volatile window closed by
/// the barrier, the crash contract has no waivers left: the model demands
/// *every* acknowledged write and trim back after the cut.
pub fn barrier_before_cut(domain: u64, ops: usize) -> BoxedStrategy<Vec<OracleOp>> {
    barrier_mix(domain, ops)
        .prop_map(|ops| {
            ops.into_iter()
                .flat_map(|op| match op {
                    OracleOp::PowerCut => vec![OracleOp::Flush { gap: 0 }, OracleOp::PowerCut],
                    other => vec![other],
                })
                .collect()
        })
        .boxed()
}

/// Write-dominated traffic with sparse trims, long inter-arrival gaps, and
/// no host flush barriers: only the age-based group-flush scheduler ever
/// closes a tombstone's volatile window. Pair with a short
/// `tombstone_flush_deadline` (a few ms) so aging fires inside a run; the
/// periodic `Check` ops run the device's pending-tombstone age audit at
/// every quiescent point, failing the run if any acknowledged trim stayed
/// volatile past the deadline.
pub fn rare_trim_aging(domain: u64, ops: usize) -> BoxedStrategy<Vec<OracleOp>> {
    let op = prop_oneof![
        8 => (hot_cold_lpa(domain), small_gap())
            .prop_map(|(lpa, gap)| OracleOp::Write { lpa, gap }),
        1 => (0u64..domain, (1u64..10 * MS_NS))
            .prop_map(|(lpa, gap)| OracleOp::Trim { lpa, gap }),
        2 => (hot_cold_lpa(domain), small_gap())
            .prop_map(|(lpa, gap)| OracleOp::Read { lpa, gap }),
        2 => Just(OracleOp::Check),
    ];
    collection::vec(op, ops).boxed()
}

/// GC-pressure traffic paired with a single-op fault schedule: one read,
/// one program, and one erase fail somewhere mid-stream — often inside
/// `migrate_valid`, a delta flush, or a victim erase rather than at the
/// host interface. The device must surface each as a failed op and keep
/// every invariant (a failed GC program must leave the old copy mapped).
///
/// The fault indices are scaled to the op count so most runs land at least
/// one fault inside the device's internal traffic (GC reads/programs
/// multiply host ops on a pressured device).
pub fn injected_faults(domain: u64, ops: usize) -> BoxedStrategy<(Vec<OracleOp>, FaultPlan)> {
    let span = (ops as u64).max(1);
    (
        gc_pressure(domain, ops),
        0u64..span * 3,
        0u64..span * 3,
        0u64..span / 4 + 1,
        0u64..u64::MAX,
    )
        .prop_map(|(ops, prog, read, erase, seed)| {
            let plan = FaultPlan::new(seed)
                .with_program_fault(prog)
                .with_read_fault(read)
                .with_erase_fault(erase);
            (ops, plan)
        })
        .boxed()
}

/// Host-I/O-only traffic for the multi-queue lockstep (`queues` module):
/// writes, reads, trims, and flush barriers — the op set an NVMe queue can
/// carry — with enough flushes that fence audits bite and enough page reuse
/// that per-queue ordering matters.
pub fn queued_ops(domain: u64, ops: usize) -> BoxedStrategy<Vec<OracleOp>> {
    let op = prop_oneof![
        6 => (hot_cold_lpa(domain), small_gap())
            .prop_map(|(lpa, gap)| OracleOp::Write { lpa, gap }),
        2 => (hot_cold_lpa(domain), small_gap())
            .prop_map(|(lpa, gap)| OracleOp::Read { lpa, gap }),
        1 => (0u64..domain, small_gap())
            .prop_map(|(lpa, gap)| OracleOp::Trim { lpa, gap }),
        1 => small_gap().prop_map(|gap| OracleOp::Flush { gap }),
    ];
    collection::vec(op, ops).boxed()
}

/// Rollback storms: writes interleaved with span rollbacks to random past
/// instants, each verified page-by-page against the model's as-of answer.
pub fn rollback_storm(domain: u64, ops: usize) -> BoxedStrategy<Vec<OracleOp>> {
    let op = prop_oneof![
        6 => (0u64..domain, small_gap())
            .prop_map(|(lpa, gap)| OracleOp::Write { lpa, gap }),
        1 => (0u64..domain, small_gap())
            .prop_map(|(lpa, gap)| OracleOp::Trim { lpa, gap }),
        2 => (0u64..domain, (1u64..4), (0u64..5 * SEC_NS), small_gap())
            .prop_map(|(lpa, cnt, back, gap)| OracleOp::RollBack { lpa, cnt, back, gap }),
        2 => (0u64..domain, (0u64..5 * SEC_NS), small_gap())
            .prop_map(|(lpa, back, gap)| OracleOp::AsOf { lpa, back, gap }),
        1 => Just(OracleOp::Check),
    ];
    collection::vec(op, ops).boxed()
}

/// Steady-state traffic: `n` ops, three writes to one read, uniform over
/// `span` pages, 1 ns – 2 ms apart with a 200 ms idle gap one time in 50.
/// Over most of a `medium_test` device with the default filters, the
/// stream runs long enough for GC to reuse data blocks as delta blocks and
/// for the chain to drop filters.
///
/// A plain xorshift(13, 7, 17) stream from `seed` (0 is taken as 1), not a
/// proptest strategy, so a run reproduces from `(span, seed, n)` alone.
/// Each op draws its kind, its page, its gap and whether an idle gap is
/// added, in that order.
pub fn steady_state_ops(span: u64, seed: u64, n: usize) -> Vec<OracleOp> {
    let mut x = seed.max(1);
    let mut draw = move || {
        x = xorshift64(x);
        x
    };
    (0..n)
        .map(|_| {
            let read = draw() % 4 == 0;
            let lpa = draw() % span;
            let gap = 1 + draw() % (2 * MS_NS);
            let gap = gap + if draw() % 50 == 0 { 200 * MS_NS } else { 0 };
            if read {
                OracleOp::Read { lpa, gap }
            } else {
                OracleOp::Write { lpa, gap }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoder_reduces_pages_clamps_spans_and_saturates_the_clock() {
        let mut d = Decoder::new(10, 32);
        let read = OracleOp::Read { lpa: 23, gap: 5 };
        assert_eq!(d.decode(&read), (5, Action::Read(Lpa(3))), "lpa % exported");

        // `cnt.clamp(1, exported - start)`: the span ends inside the device
        // and is never empty; `back` saturates at time zero.
        let roll = |lpa, cnt, back, gap| OracleOp::RollBack {
            lpa,
            cnt,
            back,
            gap,
        };
        let long = d.decode(&roll(17, 99, 2, 1));
        assert_eq!(long, (6, Action::RollBack(Lpa(7), 3, 4)));
        let empty = d.decode(&roll(0, 0, 100, 0));
        assert_eq!(empty, (6, Action::RollBack(Lpa(0), 1, 0)));

        // Every write carries a payload of its own, full-page when real.
        let (_, first) = d.decode(&OracleOp::Write { lpa: 1, gap: 0 });
        let (_, second) = d.decode(&OracleOp::Write { lpa: 1, gap: 0 });
        assert_ne!(first, second);
        let bytes = OracleOp::WriteBytes {
            lpa: 1,
            tag: 0xAB,
            gap: 0,
        };
        let (_, Action::Write(_, data)) = d.decode(&bytes) else {
            panic!("WriteBytes decodes to a write");
        };
        assert_eq!(data.materialize(32)[16..], [0xAB; 16]);

        // A gap that would overflow the clock saturates it, and ops with no
        // gap leave it alone.
        let far = OracleOp::Trim {
            lpa: 4,
            gap: u64::MAX,
        };
        assert_eq!(d.decode(&far), (u64::MAX, Action::Trim(Lpa(4))));
        assert_eq!(d.decode(&OracleOp::Flush { gap: 7 }).0, u64::MAX);
        assert_eq!(d.decode(&OracleOp::PowerCut), (u64::MAX, Action::PowerCut));
        assert_eq!(d.decode(&OracleOp::Check), (u64::MAX, Action::Check));
        assert_eq!(d.now(), u64::MAX);
    }
}
